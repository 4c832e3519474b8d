"""Tests for the command-line interface: config assembly, files, exit codes."""

import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfdr.cli as cli
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
        # 25 cells on 5 variance shares: per share, one family of the rate of
        # the 5 new contracts (r_p does not enter it) and the 5 classical ones.
        # At share 0 there is no common noise, so the 5 classical charges are
        # all zero and the classical rate is the new one: a family of one.
        solves = count_rate_solves(monkeypatch)
        assert main(["compare", "--out", str(tmp_path), "--grid", "64"]) == 0
        assert sorted(solves) == [1, 6, 6, 6, 6]

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

    def test_risk_neutral_dispatch(self, tmp_path):
        out = tmp_path / "out"
        assert main(["first-best", "--out", str(out), "--rp", "0"]) == 0
        _, rows = read_table(out / "first_best.csv")
        neutral = validate(dataclasses.replace(calibrated_defaults(), r_p=0.0))
        benchmark = first_best_report(neutral, 1024)
        contracted = value_report("new", "risk_neutral", neutral, 1024)
        assert float(rows[0][0]) == pytest.approx(benchmark.v_fb, rel=1e-11)
        assert float(rows[0][4]) == pytest.approx(contracted.v0, rel=1e-11)

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

    def test_degenerate_baseline_walks_away_for_free(self, tmp_path):
        path = write_config(tmp_path, {"kappa": "0", "x0": "0"})
        out = tmp_path / "out"
        assert main(["reservation", "--config", str(path), "--out",
                     str(out)]) == 0
        _, rows = read_table(out / "reservation_report.csv")
        assert rows[0][0] == "0"   # xi0
        assert rows[0][1] == "-1"  # r0


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

    def test_unwritable_out_dir_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n", encoding="utf-8")
        assert main(["reservation", "--out", str(blocker / "out"),
                     "--grid", "8"]) == 2
        failures = failures_from(capsys.readouterr().err)
        assert failures[0]["check"] == "runtime_error"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "mfdr", "reservation",
             "--out", str(tmp_path / "out"), "--grid", "8"],
            capture_output=True, text=True, check=False,
        )
        assert result.returncode == 0
        assert "wrote" in result.stdout
