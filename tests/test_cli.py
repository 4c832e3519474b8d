"""Tests for the command-line interface: config assembly, files, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfdr.cli as cli
from mfdr.agent import reservation
from mfdr.cli import (
    DEFAULT_SWEEP_RP,
    DEFAULT_SWEEP_SHARE,
    RunConfig,
    build_run_config,
    main,
)
from mfdr.mfsim import SimConfig
from mfdr.model import (
    ParameterError,
    calibrated_defaults,
    validate,
    with_variance_share,
)
from mfdr.principal import ComparisonReport, compare, first_best_report, value_report

# Small-but-honest simulation budget for fast end-to-end runs.
FAST_SIM = ("--grid", "64", "--particles", "16", "--common", "4",
            "--dt", str(5.5 / 32))


def write_config(tmp_path: Path, entries: dict[str, str]) -> Path:
    path = tmp_path / "run.ini"
    body = "".join(f"{key} = {value}\n" for key, value in entries.items())
    path.write_text(body, encoding="utf-8")
    return path


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def column(path: Path, name: str) -> np.ndarray:
    header, rows = read_table(path)
    index = header.index(name)
    return np.array([float(row[index]) for row in rows])


def count_rate_solves(monkeypatch) -> list[int]:
    """Wrap the rate solve's minimizer; the list gains one entry per call,
    the number of rate problems (objectives) that call solved."""
    import mfdr.principal as principal_module

    original = principal_module.minimize_on_grid
    solves: list[int] = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        argmin = result[0]
        solves.append(argmin.shape[0] if argmin.ndim == 2 else 1)
        return result

    monkeypatch.setattr(principal_module, "minimize_on_grid", counted)
    return solves


def failures_from(stderr_text: str) -> list[dict[str, str]]:
    # Warnings may precede the JSON failure report on stderr.
    payload = json.loads(stderr_text[stderr_text.index("{"):])
    assert set(payload) == {"failures"}
    for item in payload["failures"]:
        assert set(item) == {"command", "check", "detail"}
    return payload["failures"]


class TestBuildRunConfig:
    def test_defaults(self):
        config = build_run_config()
        assert config.params == calibrated_defaults()
        assert config.kind == "new"
        assert config.sweep_rp == DEFAULT_SWEEP_RP
        assert config.sweep_share == DEFAULT_SWEEP_SHARE
        assert config.grid == 1024
        assert config.sim == SimConfig()
        assert config.out_dir == Path("mfdr_out")

    def test_file_values(self, tmp_path):
        path = write_config(tmp_path, {
            "kappa": "0",
            "variance_share": "1.0",
            "kind": "classical",
            "sweep_rp": "0, 6e-3",
            "sweep_share": "0, 1",
            "grid": "64",
            "n_particles": "32",
            "n_common": "8",
            "dt": "0.171875",
            "seed": "9",
            "antithetic": "true",
            "out_dir": str(tmp_path / "results"),
        })
        config = build_run_config(path)
        assert config.params.kappa == 0.0
        assert config.params.sigma_circ == pytest.approx(0.085, rel=1e-15)
        assert config.params.sigma == (0.0,)
        assert config.kind == "classical"
        assert config.sweep_rp == (0.0, 6e-3)
        assert config.sweep_share == (0.0, 1.0)
        assert config.grid == 64
        assert config.sim == SimConfig(n_particles=32, n_common=8, dt=0.171875,
                                       seed=9, antithetic=True)
        assert config.out_dir == tmp_path / "results"

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, {
            "variance_share": "0.25",
            "grid": "128",
            "seed": "1",
            "n_particles": "32",
            "out_dir": str(tmp_path / "from_file"),
        })
        config = build_run_config(path, {
            "share": 1.0,
            "rp": 1.2e-2,
            "grid": 64,
            "seed": 2,
            "particles": 16,
            "common": 4,
            "dt": 0.171875,
            "antithetic": True,
            "out": tmp_path / "from_flag",
            "kind": "classical",
        })
        resplit = with_variance_share(calibrated_defaults(), 1.0)
        assert config.params.sigma_circ == pytest.approx(resplit.sigma_circ,
                                                         rel=1e-15)
        assert config.params.r_p == 1.2e-2
        assert config.grid == 64
        assert config.sim == SimConfig(n_particles=16, n_common=4, dt=0.171875,
                                       seed=2, antithetic=True)
        assert config.out_dir == tmp_path / "from_flag"
        assert config.kind == "classical"

    def test_every_flag_reaches_its_key(self, tmp_path):
        # main hands the parsed namespace over whole, "command" and
        # "config" included.
        args = cli._build_parser().parse_args([
            "simulate", "--out", str(tmp_path / "o"), "--share", "1.0",
            "--rp", "0.012", "--seed", "2", "--grid", "64", "--particles", "16",
            "--common", "4", "--dt", "0.171875", "--kind", "classical",
            "--antithetic",
        ])
        config = build_run_config(args.config, vars(args))
        assert config.params == validate(dataclasses.replace(
            with_variance_share(calibrated_defaults(), 1.0), r_p=0.012))
        assert config.grid == 64
        assert config.sim == SimConfig(n_particles=16, n_common=4, dt=0.171875,
                                       seed=2, antithetic=True)
        assert config.out_dir == tmp_path / "o"
        assert config.kind == "classical"

    @pytest.mark.parametrize("text", ["off", "0", "no", "false", " False "])
    def test_false_spellings_of_a_switch(self, tmp_path, text):
        path = write_config(tmp_path, {"antithetic": text, "n_common": "4"})
        assert build_run_config(path).sim.antithetic is False
        assert build_run_config(path, {"antithetic": "on"}).sim.antithetic is True

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"bogus_key": "1"})
        with pytest.raises(ParameterError, match="bogus_key"):
            build_run_config(path)

    @pytest.mark.parametrize(
        "entries",
        [
            {"grid": "twelve"},
            {"antithetic": "maybe"},
            {"sweep_rp": ""},
            {"n_particles": "many"},
            {"variance_share": "half"},
        ],
    )
    def test_bad_file_values_rejected(self, tmp_path, entries):
        path = write_config(tmp_path, entries)
        with pytest.raises(ParameterError):
            build_run_config(path)

    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("grid", "grid", 64.9),
            ("particles", "n_particles", 16.7),
            ("common", "n_common", 4.0),
            ("seed", "seed", 1.5),
            ("grid", "grid", True),
            ("seed", "seed", False),
        ],
    )
    def test_typed_non_integer_override_rejected(self, flag, key, value):
        # A float is never truncated, and a bool is not taken for 0 or 1.
        with pytest.raises(ParameterError, match=f"{key} = {value!r}: not an integer"):
            build_run_config(None, {flag: value})

    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("share", "variance_share", True),
            ("dt", "dt", True),
            ("rp", "r_p", False),
            ("share", "variance_share", [0.5]),
            ("dt", "dt", b"0.5"),
            ("rp", "r_p", 1j),
        ],
    )
    def test_typed_non_real_override_rejected(self, flag, key, value):
        # A bool is not taken for 0 or 1, and a value that is neither a real
        # number nor text is a configuration error, not a TypeError.
        message = re.escape(f"{key} = {value!r}: not a number")
        with pytest.raises(ParameterError, match=message):
            build_run_config(None, {flag: value})

    def test_typed_real_override_accepted(self):
        config = build_run_config(None, {"dt": np.float64(0.25), "rp": 0, "share": 1})
        assert config.sim.dt == 0.25
        assert config.params.r_p == 0.0
        assert config.params.sigma == (0.0,)

    def test_rp_flag_revalidates(self):
        config = build_run_config(None, {"rp": 1.2e-2})
        assert config.params.r_p == 1.2e-2
        with pytest.raises(ParameterError):
            build_run_config(None, {"rp": -1.0})

    def test_share_flag_resplits_variance(self):
        config = build_run_config(None, {"share": 0.0})
        assert config.params.sigma_circ == 0.0
        total = sum(s**2 for s in config.params.sigma)
        assert total == pytest.approx(0.085**2, rel=1e-15)


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"kind": "first_best"}, "kind"),
            ({"grid": -2}, "grid"),
            ({"sweep_rp": ()}, "sweep_rp"),
            ({"sweep_share": ()}, "sweep_share"),
            ({"grid": 63}, "grid"),
            ({"grid": 0}, "grid"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs, fragment):
        with pytest.raises(ParameterError, match=fragment):
            RunConfig(params=calibrated_defaults(), **kwargs)

    def test_collects_all_problems(self):
        with pytest.raises(ParameterError) as err:
            RunConfig(params=calibrated_defaults(), kind="x", grid=3)
        message = str(err.value)
        assert "kind" in message and "grid" in message


class TestScheduleCommand:
    def test_calibrated_writes_four_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["schedule", "--out", str(out), "--grid", "64"]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "schedule_classical_cara.csv",
            "schedule_classical_risk_neutral.csv",
            "schedule_new_cara.csv",
            "schedule_new_risk_neutral.csv",
        ]
        path = out / "schedule_new_cara.csv"
        header, rows = read_table(path)
        assert header == ["t", "z", "z_mu", "gamma", "alpha_1", "beta_1"]
        assert len(rows) == 65
        t = column(path, "t")
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(5.5, rel=1e-12)
        raw = path.read_bytes()
        assert b"\r\n" in raw  # RFC 4180 line endings
        assert b";" not in raw  # '.' decimal, ',' separator

    def test_each_rate_problem_solved_once(self, tmp_path, monkeypatch):
        # One base: both new schedules share its uncharged member, and the two
        # classical ones (r_p and 0) are its other two.
        solves = count_rate_solves(monkeypatch)
        assert main(["schedule", "--out", str(tmp_path), "--grid", "64"]) == 0
        assert solves == [3]

    def test_moved_rate_fails_the_certificate(self, tmp_path, capsys, monkeypatch):
        # Every argmin of the rate solve scaled by 1.001: each schedule's z
        # is no longer optimal, and the command exits 1 with that check.
        import mfdr.principal as principal_module

        original = principal_module.minimize_on_grid

        def moved(*args, **kwargs):
            argmin, minima, evaluations = original(*args, **kwargs)
            return argmin * 1.001, minima, evaluations

        monkeypatch.setattr(principal_module, "minimize_on_grid", moved)
        assert main(["schedule", "--grid", "64", "--out", str(tmp_path / "out")]) == 1
        failures = failures_from(capsys.readouterr().err)
        assert {item["check"] for item in failures} == {"schedule_invariants"}
        details = [item["detail"] for item in failures]
        assert any(d.startswith("classical/cara: performance rate is not optimal") for d in details)

    def test_zero_share_new_equals_classical(self, tmp_path):
        out = tmp_path / "out"
        assert main(["schedule", "--out", str(out), "--grid", "64",
                     "--share", "0"]) == 0
        for principal in ("cara", "risk_neutral"):
            new = (out / f"schedule_new_{principal}.csv").read_bytes()
            classical = (out / f"schedule_classical_{principal}.csv").read_bytes()
            assert new == classical
        z_mu = column(out / "schedule_new_cara.csv", "z_mu")
        assert np.all(z_mu == 0.0)

    def test_risk_neutral_only_when_rp_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["schedule", "--out", str(out), "--grid", "64",
                     "--rp", "0"]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "schedule_classical_risk_neutral.csv",
            "schedule_new_risk_neutral.csv",
        ]
        assert "skipping cara" in capsys.readouterr().err

    def test_classical_rate_passes_the_effort_cap(self, tmp_path):
        # The classical charge pulls z far below -a_max = -50: z(0) is about
        # -117.8.  A bracket clipped at -a_max held it at -50.0003, which the
        # optimality certificate rejects.
        path = write_config(tmp_path, {"a_max": "50"})
        out = tmp_path / "out"
        assert main(["schedule", "--config", str(path), "--out", str(out),
                     "--grid", "64"]) == 0
        assert column(out / "schedule_classical_cara.csv", "z").min() < -100.0

    def test_positive_delta_orders_volatility_payments(self, tmp_path):
        path = write_config(tmp_path, {"delta": "5", "lambda": "2.8"})
        out = tmp_path / "out"
        assert main(["schedule", "--config", str(path), "--out", str(out),
                     "--grid", "64"]) == 0
        gamma_new = column(out / "schedule_new_cara.csv", "gamma")
        gamma_classical = column(out / "schedule_classical_cara.csv", "gamma")
        assert np.all(gamma_classical <= gamma_new + 1e-12)
        early = gamma_classical[:8] < gamma_new[:8] - 1e-12
        assert early.all()
        # With a positive baseline price the population contract stops
        # paying for drift entirely; the classical one still does early on.
        assert np.all(column(out / "schedule_new_cara.csv", "z") == 0.0)
        assert column(out / "schedule_classical_cara.csv", "z")[0] > 0.0


class TestCompareCommand:
    def test_each_rate_problem_solved_once(self, tmp_path, monkeypatch):
        # 25 cells with one bracket shape, so one call: per variance share,
        # the rate of the 5 new contracts (r_p does not enter it) and the 5
        # classical ones.  At share 0 there is no common noise, so the 5
        # classical charges are all zero and the classical rate is the new
        # one: 1 + 4 * 6 = 25 rate problems.
        solves = count_rate_solves(monkeypatch)
        assert main(["compare", "--out", str(tmp_path), "--grid", "64"]) == 0
        assert solves == [25]

    def test_full_sweep(self, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--out", str(out), "--grid", "64"]) == 0
        path = out / "compare.csv"
        header, rows = read_table(path)
        assert header == ["r_p", "variance_share", "delta_v", "rel_delta_v",
                          "delta_alpha", "delta_beta"]
        assert len(rows) == 25
        r_p = column(path, "r_p")
        share = column(path, "variance_share")
        assert sorted(set(r_p)) == list(DEFAULT_SWEEP_RP)
        assert sorted(set(share)) == list(DEFAULT_SWEEP_SHARE)
        delta_v = column(path, "delta_v")
        rel = column(path, "rel_delta_v")
        assert np.all(delta_v >= -1e-12)
        assert np.all(rel >= -1e-12)
        calibrated = delta_v[np.isclose(r_p, 6e-3)]
        assert np.all(np.diff(calibrated) >= -1e-12)

    def test_rows_match_library_values(self, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--out", str(out), "--grid", "64"]) == 0
        path = out / "compare.csv"
        r_p = column(path, "r_p")
        share = column(path, "variance_share")
        delta_v = column(path, "delta_v")
        cell = np.flatnonzero(np.isclose(r_p, 6e-3) & (share == 1.0))[0]
        params = with_variance_share(calibrated_defaults(), 1.0)
        report = compare(params, grid=64)
        assert delta_v[cell] == pytest.approx(report.delta_v, rel=1e-11)

    def test_relative_gain_sign_follows_its_denominator(self, tmp_path):
        # At x0 = 1 every classical value is below -1 (the deviation costs
        # delta * horizon * x0 = -305 pence), so 1 + v_cls < 0 and
        # rel_delta_v = gain / (1 + v_cls) is negative while the gain is
        # positive: correct outputs, not a failed check.
        path = write_config(tmp_path, {"x0": "1", "sweep_rp": "0, 6e-3",
                                       "sweep_share": "0.5"})
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out),
                     "--grid", "64"]) == 0
        delta_v = column(out / "compare.csv", "delta_v")
        rel = column(out / "compare.csv", "rel_delta_v")
        for r_p, gain, rel_gain in zip((0.0, 6e-3), delta_v, rel):
            params = with_variance_share(
                dataclasses.replace(calibrated_defaults(), x0=1.0, r_p=r_p), 0.5
            )
            principal = "cara" if r_p > 0.0 else "risk_neutral"
            v_cls = value_report("classical", principal, params, 64).v0
            assert 1.0 + v_cls < 0.0
            assert gain > 0.0 and rel_gain < 0.0
            assert rel_gain == pytest.approx(compare(params, grid=64).rel_delta_v, rel=1e-11)

    def test_negative_relative_gain_fails_where_its_sign_is_proven(
        self, tmp_path, monkeypatch, capsys
    ):
        # A negative gain over a positive 1 + v_cls trips both gates.
        bad = ComparisonReport(delta_v=-1e-3, rel_delta_v=-2e-3,
                               delta_alpha=0.1, delta_beta=0.1)
        monkeypatch.setattr(cli, "compare_cells", lambda cells, grid: [bad] * len(cells))
        path = write_config(tmp_path, {"sweep_rp": "6e-3", "sweep_share": "0.5"})
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--grid", "16"]) == 1
        checks = [item["check"] for item in failures_from(capsys.readouterr().err)]
        assert checks == ["gain_nonnegative", "relative_gain_nonnegative"]

    def test_gain_may_fall_with_share(self, tmp_path, capsys):
        # At rho = 1e-11 and share 1 the own-meter contract can replicate the
        # aggregate-indexed one, so the gain falls towards 0 as the share
        # grows; it stays >= 0, and no check may fail on it.
        path = write_config(tmp_path, {"rho": "1e-11"})
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out),
                     "--grid", "16"]) == 0
        assert "failures" not in capsys.readouterr().err
        r_p = column(out / "compare.csv", "r_p")
        delta_v = column(out / "compare.csv", "delta_v")
        calibrated = delta_v[np.isclose(r_p, 6e-3)]
        assert np.all(delta_v >= 0.0)
        assert np.any(np.diff(calibrated) < 0.0)

    def test_restricted_sweep_from_config(self, tmp_path):
        path = write_config(tmp_path, {"sweep_rp": "6e-3",
                                       "sweep_share": "0, 0.5"})
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out),
                     "--grid", "64"]) == 0
        _, rows = read_table(out / "compare.csv")
        assert len(rows) == 2


class TestSimulateCommand:
    def test_small_run_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), *FAST_SIM]) == 0
        mc = out / "mc_report_new_cara.csv"
        header, rows = read_table(mc)
        assert header == ["check", "estimate", "std_error", "n_effective",
                          "closed_form_target", "z_score", "jackknife_bias"]
        assert [row[0] for row in rows] == ["participation", "principal_value"]
        assert column(mc, "n_effective").tolist() == [4.0, 4.0]
        assert np.all(column(mc, "std_error") > 0.0)
        assert np.all(np.abs(column(mc, "z_score")) <= cli._Z_LIMIT)
        summary = out / "ensemble_summary_new_cara.csv"
        header, rows = read_table(summary)
        assert header == ["path", "mean_l_terminal", "mean_x_terminal"]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]

    def test_one_rate_solve(self, tmp_path, monkeypatch):
        solves = count_rate_solves(monkeypatch)
        assert main(["simulate", "--out", str(tmp_path), *FAST_SIM]) == 0
        assert len(solves) == 1

    def test_kind_and_principal_name_the_files(self, tmp_path):
        # The principal follows r_p: risk-neutral exactly when r_p = 0.
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--kind", "classical",
                     "--rp", "0", *FAST_SIM]) == 0
        mc = out / "mc_report_classical_risk_neutral.csv"
        assert mc.exists()
        assert (out / "ensemble_summary_classical_risk_neutral.csv").exists()
        # The risk-neutral jackknife is exactly unbiased.
        _, rows = read_table(mc)
        assert rows[1][0] == "principal_value"
        assert rows[1][6] == "0"

    def test_seed_repeat_is_byte_identical(self, tmp_path):
        first, second, third = (tmp_path / name for name in ("a", "b", "c"))
        assert main(["simulate", "--out", str(first), *FAST_SIM]) == 0
        assert main(["simulate", "--out", str(second), *FAST_SIM]) == 0
        assert main(["simulate", "--out", str(third), "--seed", "7",
                     *FAST_SIM]) == 0
        for name in ("mc_report_new_cara.csv", "ensemble_summary_new_cara.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert ((first / "mc_report_new_cara.csv").read_bytes()
                != (third / "mc_report_new_cara.csv").read_bytes())

    def test_jackknife_warning_for_tiny_ensembles(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--grid", "64",
                     "--particles", "2", "--common", "8",
                     "--dt", str(5.5 / 32)]) == 0
        assert "jackknife" in capsys.readouterr().err

    def test_antithetic_halves_effective_samples(self, tmp_path):
        # 64 scenarios at the default step: enough pairs, and a fine enough
        # step, for the z-score gate to hold on correct code (at 4 scenarios
        # and dt = T/32 it fails on ~44% of seeds).
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--antithetic", "--grid", "256",
                     "--particles", "16", "--common", "64"]) == 0
        n_effective = column(out / "mc_report_new_cara.csv", "n_effective")
        assert n_effective.tolist() == [32.0, 32.0]

    def test_failed_check_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_Z_LIMIT", 1e-9)
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), *FAST_SIM]) == 1
        failures = failures_from(capsys.readouterr().err)
        assert [item["check"] for item in failures] == [
            "participation_z_score",
            "principal_value_z_score",
        ]
        assert all(item["command"] == "simulate" for item in failures)

    def test_incompatible_step_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--grid", "64",
                     "--particles", "4", "--common", "2", "--dt", "1.0"]) == 2
        failures = failures_from(capsys.readouterr().err)
        assert failures[0]["check"] == "runtime_error"
        assert "incompatible grids" in failures[0]["detail"]

    @pytest.mark.parametrize("dt", ["1e-300", "1e-9", "inf"])
    def test_unbounded_step_count_exits_two(self, tmp_path, capsys, dt):
        # 1e-300 overflowed the int conversion, 1e-9 would run for hours and
        # inf gave zero steps.
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--grid", "8",
                     "--particles", "4", "--common", "2", "--dt", dt]) == 2
        failures = failures_from(capsys.readouterr().err)
        assert len(failures) == 1
        assert "dt" in failures[0]["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("entries", [
        {"delta": "20", "r_p": "0"},
        {"d": "1", "rho": "0.00998", "lambda": "1", "eta": "2.31", "sigma": "0.0170",
         "sigma_circ": "1.23e-4", "a_max": "6.12", "b_min": "0.0100", "r_a": "0.0794",
         "theta": "0.0684", "horizon": "10.52", "x0": "-0.0165", "delta": "100.0",
         "kappa": "-0.320", "r_p": "0"},
    ], ids=["defaults-delta-20", "fuzz-config"])
    def test_riskless_agents_pass_the_participation_gate(self, tmp_path, capsys, entries):
        # New contract, delta >= 0, r_p = 0: z = z_mu = 0, so every net
        # payoff is one constant and the sample spreads by rounding alone.
        # These exited 2 (standard error exactly zero) and 1 (|z| = 26.7
        # with estimate and target equal to 12 digits).
        path = write_config(tmp_path, entries)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        z = column(out / "mc_report_new_risk_neutral.csv", "z_score")
        assert np.all(np.abs(z) <= cli._Z_LIMIT)

    def test_default_budget_matches_closed_forms(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out)]) == 0
        z_scores = column(out / "mc_report_new_cara.csv", "z_score")
        assert np.all(np.abs(z_scores) < 3.0)


class TestFirstBestCommand:
    def test_calibrated_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["first-best", "--out", str(out)]) == 0
        assert "check first_best_dominates: ok" in capsys.readouterr().out
        path = out / "first_best.csv"
        header, rows = read_table(path)
        assert header == ["v_fb", "lagrange_rho", "ce_fb", "fb_contract_constant",
                          "v0_new_contract", "fb_dominates"]
        assert len(rows) == 1
        assert rows[0][5] == "true"
        benchmark = first_best_report(calibrated_defaults(), 1024)
        assert float(rows[0][0]) == pytest.approx(benchmark.v_fb, rel=1e-11)
        assert float(rows[0][0]) >= float(rows[0][4])

    def test_dominated_benchmark_exits_one(self, tmp_path, capsys, monkeypatch):
        def below(params, grid):
            report = first_best_report(params, grid)
            return dataclasses.replace(report, v_fb=2.0 * report.v_fb)  # v_fb < 0

        monkeypatch.setattr(cli, "first_best_report", below)
        out = tmp_path / "out"
        assert main(["first-best", "--grid", "16", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "check first_best_dominates: FAIL" in captured.out
        (failure,) = failures_from(captured.err)
        assert failure["check"] == "first_best_dominates"
        assert read_table(out / "first_best.csv")[1][0][5] == "false"

    def test_dominates_at_tiny_agent_risk_aversion(self, tmp_path):
        path = write_config(tmp_path, {
            "eta": "13.64606177902855", "a_max": "0.0002971847182932693",
            "r_a": "1.677147759480995e-11", "delta": "-0.21393257785695774",
        })
        assert main(["first-best", "--config", str(path), "--grid", "16",
                     "--out", str(tmp_path / "out")]) == 0

    def test_risk_neutral_dispatch(self, tmp_path):
        out = tmp_path / "out"
        assert main(["first-best", "--out", str(out), "--rp", "0"]) == 0
        _, rows = read_table(out / "first_best.csv")
        neutral = validate(dataclasses.replace(calibrated_defaults(), r_p=0.0))
        benchmark = first_best_report(neutral, 1024)
        contracted = value_report("new", "risk_neutral", neutral, 1024)
        assert float(rows[0][0]) == pytest.approx(benchmark.v_fb, rel=1e-11)
        assert float(rows[0][4]) == pytest.approx(contracted.v0, rel=1e-11)

    def test_one_batch_one_reservation(self, tmp_path, monkeypatch):
        # One rate solve, for the new contract; the first-best report reads
        # its own reservation, about 1% of the command's time.
        import mfdr.principal as principal_module

        original = principal_module.reservation
        calls = []

        def counted(params, grid):
            calls.append(grid)
            return original(params, grid)

        monkeypatch.setattr(principal_module, "reservation", counted)
        solves = count_rate_solves(monkeypatch)
        assert main(["first-best", "--grid", "8", "--out", str(tmp_path / "out")]) == 0
        assert calls == [8, 8]
        assert solves == [1]

    def test_constant_survives_underflowing_reservation_utility(self, tmp_path):
        # At r_a = 30, x0 = 300 the reservation utility -exp(-r_a xi0)
        # underflows to -0.0.  The contract constant is xi0 itself; taken as
        # -log(-r0) / r_a it raised "math domain error" (exit 2).
        path = write_config(tmp_path, {"r_a": "30", "x0": "300"})
        out = tmp_path / "out"
        assert main(["first-best", "--config", str(path), "--rp", "0", "--grid", "64",
                     "--out", str(out)]) == 0
        _, rows = read_table(out / "first_best.csv")
        params = validate(dataclasses.replace(calibrated_defaults(), r_a=30.0, x0=300.0))
        res = reservation(params, 64)
        assert res.r0 == 0.0 and res.xi0 > 0.0
        assert float(rows[0][3]) == pytest.approx(res.xi0, rel=1e-11)

    def test_degenerate_baseline_constant_is_zero(self, tmp_path):
        path = write_config(tmp_path, {"kappa": "0", "x0": "0"})
        out = tmp_path / "out"
        assert main(["first-best", "--config", str(path), "--out",
                     str(out)]) == 0
        _, rows = read_table(out / "first_best.csv")
        assert rows[0][3] == "0"


class TestReservationCommand:
    def test_calibrated_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["reservation", "--out", str(out)]) == 0
        header, rows = read_table(out / "reservation.csv")
        assert header == ["t", "gamma0", "beta0_1"]
        assert len(rows) == 1025
        header, rows = read_table(out / "reservation_report.csv")
        assert header == ["xi0", "r0", "psi0_T"]
        assert rows == [["-0.157929830289", "-1.00090060533",
                         "-0.157929830289"]]

    def test_grid_flag_sets_curve_length(self, tmp_path):
        out = tmp_path / "out"
        assert main(["reservation", "--out", str(out), "--grid", "64"]) == 0
        _, rows = read_table(out / "reservation.csv")
        assert len(rows) == 65

    def test_retention_outside_the_box_exits_one(self, tmp_path, capsys, monkeypatch):
        # The best response clips beta to [b_min, 1], so only a report that
        # breaks it reaches this check's failure.
        def outside(params, grid_size):
            report = reservation(params, grid_size)
            beta0 = report.beta0.copy()
            beta0[3, 0] = 1.5
            return dataclasses.replace(report, beta0=beta0)

        monkeypatch.setattr(cli, "reservation", outside)
        assert main(["reservation", "--grid", "8", "--out", str(tmp_path / "out")]) == 1
        assert failures_from(capsys.readouterr().err) == [{
            "command": "reservation",
            "check": "retention_in_box",
            "detail": "walk-away variance retention leaves [b_min, 1]",
        }]

    def test_degenerate_baseline_walks_away_for_free(self, tmp_path):
        path = write_config(tmp_path, {"kappa": "0", "x0": "0"})
        out = tmp_path / "out"
        assert main(["reservation", "--config", str(path), "--out",
                     str(out)]) == 0
        _, rows = read_table(out / "reservation_report.csv")
        assert rows[0][0] == "0"   # xi0
        assert rows[0][1] == "-1"  # r0


def fmt_oracle(value: object) -> str:
    """Reference text of one cell, computed cell by cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value) + 0.0, ".12g")


def csv_oracle(columns: dict) -> bytes:
    """What stdlib csv.writer writes from ``fmt_oracle``'s text, row by row."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(columns)
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    writer.writerows([fmt_oracle(v) for v in row] for row in zip(*cells, strict=True))
    return buffer.getvalue().encode("utf-8")


EDGE_FLOATS = np.array([
    -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
    123456789012345.0, 0.1 + 0.2, 1.0 / 3.0, -2.5e-7, 1e300, 999999999999.5,
])


def writer_tables() -> dict[str, dict]:
    """Tables of every column kind the commands hand the CSV writer."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-12, 13, (40, 3))
    values[: len(EDGE_FLOATS), 1] = EDGE_FLOATS
    mixed = [None, True, False, 3, -0.0, 0.1 + 0.2, np.float64(-0.0), np.int64(-7),
             "participation", "a,b", 'say "hi"', "two\nlines", "", float("nan")]
    return {
        "edge floats": {"x": EDGE_FLOATS, "neg": -EDGE_FLOATS},
        # values[:, k] is a strided view of a (nodes, d) array.
        "strided views": {"t": values[:, 0], **cli._usage_columns("alpha", values)},
        "records": {"check": mixed, "value": list(EDGE_FLOATS) + [None],
                    "n": range(len(mixed))},
        "arrays beside lists": {"path": range(4), "flag": [True, False, None, True],
                                "mean": values[:4, 2], "ints": np.arange(4)},
        "float32 array": {"a": values[:5, 0].astype(np.float32), "b": range(5)},
        "one column": {"only": [None, "", 1.5, "x"]},
        "no rows": {"t": np.empty(0), "name": []},
    }


class TestWriteCsv:
    @pytest.mark.parametrize("name", list(writer_tables()))
    def test_matches_stdlib_csv_writer(self, tmp_path, name):
        columns = writer_tables()[name]
        path = cli._write_csv(tmp_path / "table.csv", columns)
        assert path.read_bytes() == csv_oracle(columns)

    def test_cell_text(self, tmp_path):
        columns = {"x": np.array([-0.0, 0.1 + 0.2, 123456789012345.0]),
                   "flag": [True, None, False], "n": range(3)}
        path = cli._write_csv(tmp_path / "table.csv", columns)
        assert path.read_bytes() == (
            b"x,flag,n\r\n0,true,0\r\n0.3,,1\r\n1.23456789012e+14,false,2\r\n"
        )

    @pytest.mark.parametrize("columns", [
        {"a": np.zeros(3), "b": np.zeros(2)},
        {"a": np.zeros(3), "b": [1.0, 2.0, 3.0, 4.0]},
        {"a": range(2), "b": ["x"]},
    ])
    def test_ragged_columns_raise(self, tmp_path, columns):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "table.csv", columns)


class TestAllCommands:
    def test_no_negative_zero_in_any_csv(self, tmp_path):
        small = ["--grid", "64"]
        for command, flags in (
            ("schedule", small),
            ("compare", small),
            ("simulate", list(FAST_SIM)),
            ("first-best", small),
            ("reservation", small),
        ):
            assert main([command, "--out", str(tmp_path / command), *flags]) == 0
        paths = sorted(tmp_path.rglob("*.csv"))
        assert len(paths) == 10
        for path in paths:
            _, rows = read_table(path)
            for row in rows:
                for field in row:
                    try:
                        signed_zero = float(field) == 0.0 and field.startswith("-")
                    except ValueError:
                        signed_zero = False
                    assert not signed_zero, f"{path.name}: {field!r} in {row}"


class TestMainExitCodes:
    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"bogus_key": "1"})
        assert main(["reservation", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        failures = failures_from(capsys.readouterr().err)
        assert failures[0]["check"] == "invalid_configuration"
        assert "bogus_key" in failures[0]["detail"]

    def test_principal_config_key_exits_two(self, tmp_path, capsys):
        # The principal follows r_p; there is no key to override it.
        path = write_config(tmp_path, {"principal": "risk_neutral"})
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        failures = failures_from(capsys.readouterr().err)
        assert failures[0]["check"] == "invalid_configuration"
        assert "unknown config key 'principal'" in failures[0]["detail"]

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--grid", "abc", "grid"),
            ("--grid", "1e3", "grid"),
            ("--particles", "many", "n_particles"),
            ("--seed", "x", "seed"),
            ("--share", "half", "variance_share"),
            ("--rp", "abc", "r_p"),
            ("--dt", "x", "dt"),
            ("--kind", "first_best", "kind"),
        ],
    )
    def test_bad_flag_value_exits_two(self, tmp_path, capsys, flag, value, key):
        # A flag's text goes through the config-file parsers, not argparse.
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), flag, value]) == 2
        captured = capsys.readouterr()
        assert "usage:" not in captured.err + captured.out
        failures = failures_from(captured.err)
        assert [item["check"] for item in failures] == ["invalid_configuration"]
        assert key in failures[0]["detail"]
        assert repr(value) in failures[0]["detail"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, key", [("--rp", "-1e-3", "r_p"), ("--dt", "-1e-7", "dt")]
    )
    def test_negative_exponent_value_reaches_its_parser(
        self, tmp_path, capsys, flag, value, key
    ):
        # argparse alone takes "-1e-3" for a flag and exits with its usage.
        assert main(["compare", "--out", str(tmp_path / "out"), "--grid", "8",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert "usage:" not in captured.err + captured.out
        failures = failures_from(captured.err)
        assert [item["check"] for item in failures] == ["invalid_configuration"]
        assert key in failures[0]["detail"]

    @pytest.mark.parametrize("flags", [["--r", "-1e-3"], ["--gri", "8"]])
    def test_flag_prefixes_rejected(self, tmp_path, capsys, flags):
        # _join_values joins a negative value only to a fully spelled flag,
        # so a prefix must be no flag at all: with prefixes, "--r -1e-3" got
        # argparse's "expected one argument" and "--gri 8" set the grid.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--out", str(out), "--grid", "8"] + flags)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err
        assert main(["compare", "--out", str(out), "--grid", "8", "--rp", "-1e-3"]) == 2
        failures = failures_from(capsys.readouterr().err)
        assert [item["check"] for item in failures] == ["invalid_configuration"]
        assert not out.exists()

    def test_odd_grid_exits_two(self, tmp_path, capsys):
        assert main(["schedule", "--out", str(tmp_path / "out"),
                     "--grid", "3"]) == 2
        failures = failures_from(capsys.readouterr().err)
        assert failures[0]["check"] == "invalid_configuration"

    def test_bad_model_value_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"d": "0"})
        assert main(["reservation", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert failures_from(capsys.readouterr().err)

    def test_infinite_model_value_exits_two(self, tmp_path, capsys):
        # An infinite sigma_circ or r_p passed every ">= 0" bound and the
        # commands wrote NaN rows.
        path = write_config(tmp_path, {"sigma_circ": "inf"})
        out = tmp_path / "out"
        assert main(["reservation", "--config", str(path), "--out", str(out)]) == 2
        assert "sigma_circ" in failures_from(capsys.readouterr().err)[0]["detail"]
        assert main(["first-best", "--rp", "inf", "--out", str(out)]) == 2
        assert "r_p" in failures_from(capsys.readouterr().err)[0]["detail"]
        assert not out.exists()

    def test_overflowing_rates_exit_two(self, tmp_path, capsys):
        # |delta| T = 5.5e200 and a_max = 1e300 overflowed z^2 in the rate
        # solve: a RuntimeWarning on stderr, then exit 2 with "inputs must be
        # finite".  The reservation does not read delta.
        path = write_config(tmp_path, {"delta": "-1e200", "a_max": "1e300"})
        args = ["--config", str(path), "--out", str(tmp_path / "out"), "--grid", "8"]
        for command in ("schedule", "first-best", "simulate"):
            assert main([command] + args) == 2
            detail = failures_from(capsys.readouterr().err)[0]["detail"]
            assert detail.startswith("delta, horizon, a_max: ")
        assert main(["reservation"] + args) == 0
        result = subprocess.run(
            [sys.executable, "-m", "mfdr", "compare"] + args,
            capture_output=True, text=True, check=False,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("{")  # no warning before the report
        assert failures_from(result.stderr)[0]["detail"].startswith("delta, horizon, a_max: ")

    @pytest.mark.parametrize("command, grid, x0", [("compare", "16", "65"), ("schedule", "64", "330")])
    def test_overflowing_cara_value_names_x0(self, tmp_path, capsys, command, grid, x0):
        # Every rate is finite; v0 = -exp(r_p (xi0 - u)) overflows, and
        # xi0 - u grows with x0.  The failure blamed delta, horizon and a_max.
        path = write_config(tmp_path, {"x0": x0})
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), "--grid", grid]) == 2
        (failure,) = failures_from(capsys.readouterr().err)
        assert failure["check"] == "runtime_error"
        assert failure["detail"].startswith("r_p, x0: ")

    @pytest.mark.parametrize("command", ["reservation", "schedule", "compare", "first-best"])
    def test_overflowing_reservation_utility_names_r_a_and_x0(self, tmp_path, capsys, command):
        # r0 = -exp(-r_a xi0) overflows at r_a = 30, x0 = -300; the failure
        # read "math range error".  At x0 = +300 it underflows, harmlessly.
        args = [command, "--out", str(tmp_path / "out"), "--grid", "16", "--config"]
        path = write_config(tmp_path, {"r_a": "30", "x0": "-300"})
        assert main(args + [str(path)]) == 2
        (failure,) = failures_from(capsys.readouterr().err)
        assert failure["check"] == "runtime_error"
        assert failure["detail"].startswith("r_a, x0: ")
        path = write_config(tmp_path, {"r_a": "30", "x0": "300"})
        assert main(["reservation"] + args[1:] + [str(path)]) == 0

    @pytest.mark.parametrize("entries", [
        {"r_a": "1e-3", "r_p": "6e-2", "x0": "31.7525"},  # wrote inf, exit 0
        {"r_a": "1", "x0": "50"},  # blamed delta, horizon, a_max
    ])
    def test_overflowing_participation_multiplier_names_r_a_r_p_and_x0(
        self, tmp_path, capsys, entries
    ):
        path = write_config(tmp_path, entries)
        out = tmp_path / "out"
        assert main(["first-best", "--config", str(path), "--grid", "16", "--out", str(out)]) == 2
        (failure,) = failures_from(capsys.readouterr().err)
        assert failure["check"] == "runtime_error"
        assert failure["detail"].startswith("r_a, r_p, x0: ")
        assert not (out / "first_best.csv").exists()
        assert main(["compare", "--config", str(path), "--grid", "16", "--out", str(out)]) == 0

    def test_underflowing_agent_utilities_name_r_a_and_x0(self, tmp_path, capsys):
        # xi0 ~ 3,217 at r_a = 1, x0 = 50: every -exp(-r_a (payoff - cost))
        # underflows to -0, and the failure named no field.
        path = write_config(tmp_path, {"r_a": "1", "x0": "50"})
        args = ["--grid", "16", "--particles", "64", "--common", "8"]
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)] + args) == 2
        (failure,) = failures_from(capsys.readouterr().err)
        assert failure["check"] == "runtime_error"
        assert failure["detail"].startswith("r_a, x0: ")

    @pytest.mark.parametrize("command, grid, entries, field", [
        ("compare", "16", {"x0": "1e306"}, "x0"),  # delta_v = nan in every row
        ("first-best", "16", {"x0": "1e306", "r_p": "0"}, "x0"),  # v_fb = -inf, dominates
        ("reservation", "8", {"x0": "1e308"}, "x0"),  # xi0 = inf
        ("reservation", "8", {"sigma": "1e200"}, "sigma"),  # xi0 = r0 = psi0_T = nan
        ("reservation", "8", {"r_a": "1e300"}, "r_a"),  # r0 = -inf
    ])
    def test_non_finite_values_name_their_fields(
        self, tmp_path, capsys, command, grid, entries, field
    ):
        # Each exited 0 with a non-finite CSV number: math.exp(inf) is inf and
        # a float product overflows to inf silently, so no OverflowError rose.
        path = write_config(tmp_path, entries)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):  # sigma^2's overflow warns
            status = main([command, "--config", str(path), "--grid", grid, "--out", str(out)])
        assert status == 2
        (failure,) = failures_from(capsys.readouterr().err)
        assert failure["check"] == "runtime_error"
        assert field in failure["detail"].split(": ")[0].split(", ")
        for csv_path in out.rglob("*.csv"):
            for row in read_table(csv_path)[1]:
                for text in row:
                    with contextlib.suppress(ValueError):
                        assert math.isfinite(float(text)), (csv_path.name, row)

    @pytest.mark.parametrize("target, check", [
        ("_uniform_grid", "invalid_configuration"),  # RunConfig's grid check
        ("reservation", "runtime_error"),
    ])
    def test_memory_error_exits_two(self, tmp_path, capsys, monkeypatch, target, check):
        # A configuration too large for memory printed numpy's traceback and
        # exited 1, the status of a failed check.
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.98 GiB for an array")

        monkeypatch.setattr(cli, target, exhausted)
        assert main(["reservation", "--grid", "8", "--out", str(tmp_path / "out")]) == 2
        (failure,) = failures_from(capsys.readouterr().err)
        assert failure["check"] == check
        assert failure["detail"] == "Unable to allocate 2.98 GiB for an array"

    def test_unwritable_out_dir_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n", encoding="utf-8")
        assert main(["reservation", "--out", str(blocker / "out"),
                     "--grid", "8"]) == 2
        failures = failures_from(capsys.readouterr().err)
        assert failures[0]["check"] == "runtime_error"


@st.composite
def fuzz_config(draw):
    """A flat config of every model key, each value log-uniform over a wide
    valid range (x0, delta and kappa of either sign, r_p sometimes 0)."""

    def log_uniform(lo, hi):
        return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))

    def signed(lo, hi):
        return draw(st.sampled_from([-1.0, 1.0])) * log_uniform(lo, hi)

    d = draw(st.integers(1, 3))

    def per_usage(lo, hi):
        return ", ".join(repr(log_uniform(lo, hi)) for _ in range(d))

    r_p = draw(st.sampled_from([0.0, log_uniform(1e-4, 0.1)]))
    return {
        "d": str(d), "rho": per_usage(1e-6, 1e-2), "lambda": per_usage(1e-3, 1.0),
        "eta": per_usage(1.0, 4.0), "sigma": per_usage(1e-4, 0.2),
        **{key: repr(value) for key, value in {
            "sigma_circ": log_uniform(1e-4, 0.2), "a_max": log_uniform(0.1, 1e3),
            "b_min": log_uniform(1e-2, 0.9), "r_a": log_uniform(1e-4, 0.1), "r_p": r_p,
            "theta": log_uniform(1e-4, 1.0), "horizon": log_uniform(0.5, 30.0),
            "x0": signed(1e-2, 10.0), "delta": signed(0.1, 300.0),
            "kappa": signed(1e-2, 30.0),
        }.items()},
    }


#: The checks that may fail at valid inputs until the Monte Carlo gates use
#: an exact discrete-time target and the gains a cancellation-free sum.
_OPEN_CHECKS = {
    "participation_z_score",
    "principal_value_z_score",
    "gain_nonnegative",
    "relative_gain_nonnegative",
    "first_best_dominates",
}


class TestFuzz:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(entries=fuzz_config())
    def test_every_command_exits_cleanly(self, entries):
        # Exit 0, 2 (an unusable configuration, e.g. an overflowing value),
        # or 1 from an open check only: never from schedule_invariants, so
        # every schedule passes its optimality certificate.  No warning, and
        # no NaN or inf in any CSV.
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            config = out / "run.ini"
            config.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), "utf-8")
            dt = repr(float(entries["horizon"]) / 16.0)
            sim = ["--particles", "16", "--common", "4", "--dt", dt]
            for command in ("schedule", "compare", "simulate", "first-best", "reservation"):
                args = [command, "--config", str(config), "--grid", "16", "--out", str(out / command)]
                stderr = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    warnings.simplefilter("always")
                    status = main(args + (sim if command == "simulate" else []))
                assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], command
                assert status in (0, 1, 2), command
                assert "degenerate Monte Carlo sample" not in stderr.getvalue(), command
                if status == 1:
                    checks = {item["check"] for item in failures_from(stderr.getvalue())}
                    assert checks <= _OPEN_CHECKS, (command, checks)
            for path in out.rglob("*.csv"):
                for row in read_table(path)[1]:
                    for text in row:
                        with contextlib.suppress(ValueError):
                            assert math.isfinite(float(text)), (path.name, row)


class TestEntryPoint:
    def test_public_names_are_the_package_exports(self):
        import mfdr

        assert sorted(cli.__all__) == ["RunConfig", "build_run_config", "main"]
        assert all(getattr(mfdr, name) is getattr(cli, name) for name in cli.__all__)

    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "mfdr", "reservation",
             "--out", str(tmp_path / "out"), "--grid", "8"],
            capture_output=True, text=True, check=False,
        )
        assert result.returncode == 0
        assert "wrote" in result.stdout
