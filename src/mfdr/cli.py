"""Command-line interface: schedules, value sweeps, simulations, reports.

Subcommands
-----------
``schedule``
    Optimal payment and effort schedules, one CSV per contract kind and
    principal preference (risk-neutral only when r_p = 0).
``compare``
    Population-indexed vs classical contract over a grid of principal risk
    aversions and common-noise variance shares, one CSV row per cell.
``simulate``
    Particle Monte Carlo cross-check of the closed forms: participation and
    principal-value reports plus a per-scenario ensemble summary.  The
    principal follows r_p: ``cara`` when r_p > 0, risk-neutral when r_p = 0.
``first-best``
    Full-information benchmark value and its dominance check.
``reservation``
    The consumers' walk-away problem: reservation rates and summary.

Every command is a pure function of its configuration and seed: re-running
writes byte-identical CSV files (RFC 4180, UTF-8, '.' decimal, header row,
12 significant digits).  Exit status is 0 only when every internal invariant
check passes; otherwise a machine-readable failure list is printed to stderr
as JSON and the status is 1 (failed checks) or 2 (unusable configuration, one
too large for memory included).  Each command returns its failed checks as
``(check, detail)`` pairs; ``main`` names the command in each JSON record.
Flags override configuration-file keys; one table, ``_RUN_KEYS``, declares
each run key with its flag, parser and help, and a flag's text goes through
the same parser and checks as the key's value in a file.  One column writer,
``_write_csv``, writes every CSV row; it renders a whole table in one format
pass, because one call per cell was most of ``mfdr schedule``'s CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .agent import reservation
from .mfsim import SimConfig, _stream_reports
from .model import (
    MODEL_CONFIG_KEYS,
    ModelParams,
    ParameterError,
    _parse_float,
    _parse_float_list,
    _parse_int,
    params_from_mapping,
    read_flat_config,
    with_variance_share,
)
from .numerics import _uniform_grid
from .principal import (
    CONTRACT_KINDS,
    PRINCIPAL_KINDS,
    _default_principal,
    check_schedule_invariants,
    compare_cells,
    first_best_report,
    solve_contract,
    solve_contracts,
)

__all__ = [
    "RunConfig",
    "build_run_config",
    "main",
]

_FLOAT_FORMAT = ".12g"

#: Largest |z-score| the simulation commands accept before flagging a
#: mismatch between Monte Carlo and closed form (two-sided 1e-4 tail).
_Z_LIMIT = 3.89

DEFAULT_SWEEP_RP = (0.0, 3e-3, 6e-3, 1.2e-2, 3e-2)
DEFAULT_SWEEP_SHARE = (0.0, 0.25, 0.5, 0.75, 1.0)


def _parse_bool(key: str, raw: str | bool) -> bool:
    if isinstance(raw, bool):
        return raw
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ParameterError([f"{key} = {raw!r}: not a boolean"])


#: Run-level configuration keys of flat config files, each with the flag
#: that overrides it (``None``: file only), its parser, and the flag's
#: metavar (``None``: a switch) and help text.  This table declares every run
#: flag; a file value and a flag's text go through the same parser.
_RUN_KEYS: dict[str, tuple[str | None, Callable[[str, object], object], str | None, str | None]] = {
    "variance_share": ("share", _parse_float, "F",
                       "common-noise share of the total variance, in [0, 1]"),
    "kind": ("kind", lambda key, raw: str(raw), "KIND",
             "contract kind for simulate: " + " or ".join(CONTRACT_KINDS)),
    "sweep_rp": (None, _parse_float_list, None, None),
    "sweep_share": (None, _parse_float_list, None, None),
    "grid": ("grid", _parse_int, "N", "schedule/quadrature grid intervals (even)"),
    "n_particles": ("particles", _parse_int, "N", "particles per common-noise scenario"),
    "n_common": ("common", _parse_int, "M", "number of common-noise scenarios"),
    "dt": ("dt", _parse_float, "F", "simulation step in hours (default horizon/512)"),
    "seed": ("seed", _parse_int, "U64", "simulation seed"),
    "antithetic": ("antithetic", _parse_bool, None,
                   "pair common-noise scenarios antithetically"),
    "out_dir": ("out", lambda key, raw: Path(raw), "DIR", "output directory (default mfdr_out)"),
}

_SIM_KEYS = tuple(f.name for f in dataclasses.fields(SimConfig))


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model, sweep axes, grids, simulation, output.

    Commands take the principal from the model's risk aversion (``cara``
    when r_p > 0, ``risk_neutral`` when r_p = 0).
    """

    params: ModelParams
    kind: str = "new"
    sweep_rp: tuple[float, ...] = DEFAULT_SWEEP_RP
    sweep_share: tuple[float, ...] = DEFAULT_SWEEP_SHARE
    grid: int = 1024
    sim: SimConfig = field(default_factory=SimConfig)
    out_dir: Path = Path("mfdr_out")

    def __post_init__(self) -> None:
        problems = []
        if self.kind not in CONTRACT_KINDS:
            problems.append(f"kind must be one of {CONTRACT_KINDS}, got {self.kind!r}")
        if not self.sweep_rp:
            problems.append("sweep_rp must not be empty")
        if not self.sweep_share:
            problems.append("sweep_share must not be empty")
        try:
            _uniform_grid(self.params.horizon, self.grid)
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            raise ParameterError(problems)


# ----------------------------------------------------------------------
# Configuration assembly
# ----------------------------------------------------------------------


def build_run_config(
    config_path: str | Path | None = None,
    overrides: Mapping[str, object] | None = None,
) -> RunConfig:
    """Assemble a RunConfig from an optional flat file and flag overrides.

    Precedence: built-in defaults < file values < overrides.  Override keys
    are the flag names of the run-key table ``_RUN_KEYS`` plus ``rp``; other
    keys and ``None`` values are ignored.  Override values are parsed like
    file values, so they may be text.
    """
    overrides = dict(overrides or {})
    file_map = read_flat_config(config_path) if config_path is not None else {}
    unknown = [
        key
        for key in file_map
        if key not in MODEL_CONFIG_KEYS and key not in _RUN_KEYS
    ]
    if unknown:
        raise ParameterError(
            [f"unknown config key {key!r}" for key in sorted(unknown)]
        )
    model_map = {k: v for k, v in file_map.items() if k in MODEL_CONFIG_KEYS}
    params = params_from_mapping(model_map)

    values: dict[str, object] = {}
    for key, (flag, parse, _, _) in _RUN_KEYS.items():
        if key in file_map:
            values[key] = parse(key, file_map[key])
        if flag is not None and overrides.get(flag) is not None:
            values[key] = parse(key, overrides[flag])

    share = values.pop("variance_share", None)
    if share is not None:
        params = with_variance_share(params, share)
    if overrides.get("rp") is not None:
        r_p = _parse_float("r_p", overrides["rp"])
        params = dataclasses.replace(params, r_p=r_p)
    sim = SimConfig(**{key: values.pop(key) for key in _SIM_KEYS if key in values})
    return RunConfig(params=params, sim=sim, **values)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# CSV plumbing
# ----------------------------------------------------------------------


def _fmt(value: object) -> str:
    """One cell's CSV field: text for ``None``, bools, ints and strings, 12
    significant digits for floats, quoted as csv.writer quotes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        if any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # ``+ 0.0`` folds negative zero into plain "0".
    return format(float(value) + 0.0, _FLOAT_FORMAT)


def _write_csv(path: Path, columns: Mapping[str, Sequence[object]]) -> Path:
    """Write named columns of equal length, one row per index; this is the one
    writer of CSV rows.

    The rows render in one ``%``-format pass of a per-column row template.
    """
    cells, template = [], []
    for column in columns.values():
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            # The bytes are _fmt's: ``+ 0.0`` folds -0.0 as it does, and
            # "%.12g" % x runs the routine that format(x, ".12g") runs.
            cells.append((column + 0.0).tolist())
            template.append("%" + _FLOAT_FORMAT)
        else:
            values = column.tolist() if isinstance(column, np.ndarray) else column
            texts = [_fmt(v) for v in values]
            if len(columns) == 1:  # csv.writer quotes a row's lone empty field
                texts = [text or '""' for text in texts]
            cells.append(texts)
            template.append("%s")
    rows = list(zip(*cells, strict=True))
    body = (",".join(template) + "\r\n") * len(rows) % tuple(itertools.chain.from_iterable(rows))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(columns)
        handle.write(body)
    print(f"wrote {path}")
    return path


def _write_records(path: Path, records: Sequence[Mapping[str, object]]) -> None:
    """Write one row per flat record, headed by the first record's keys."""
    _write_csv(path, {key: [r[key] for r in records] for key in records[0]})


def _usage_columns(prefix: str, values: np.ndarray) -> dict[str, np.ndarray]:
    """One column ``{prefix}_{k + 1}`` per usage k of a (nodes, d) array."""
    return {f"{prefix}_{k + 1}": values[:, k] for k in range(values.shape[1])}


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_schedule(config: RunConfig) -> list[tuple[str, str]]:
    """Write optimal payment/effort schedules, one CSV per (kind, principal)."""
    params = config.params
    failures = []
    principals = list(PRINCIPAL_KINDS)
    if _default_principal(params) != "cara":
        principals.remove("cara")
        print(
            "note: r_p = 0, skipping cara schedules (risk-neutral files only)",
            file=sys.stderr,
        )
    requests = [(kind, p, params) for kind in ("new", "classical") for p in principals]
    for (kind, principal, _), solution in zip(requests, solve_contracts(requests, config.grid)):
        payment, effort = solution.payment, solution.effort
        columns = {"t": payment.grid, "z": payment.z, "z_mu": payment.z_mu, "gamma": payment.gamma}
        columns |= _usage_columns("alpha", effort.alpha) | _usage_columns("beta", effort.beta)
        path = config.out_dir / f"schedule_{kind}_{principal}.csv"
        _write_csv(path, columns)
        failures += [
            ("schedule_invariants", f"{kind}/{principal}: {problem}")
            for problem in check_schedule_invariants(payment, effort, params)
        ]
    return failures


def cmd_compare(config: RunConfig) -> list[tuple[str, str]]:
    """Sweep (r_p, variance_share) and write one comparison row per cell."""
    rows, failures = [], []
    cells = [(r_p, share) for r_p in config.sweep_rp for share in config.sweep_share]
    cell_params = [
        with_variance_share(dataclasses.replace(config.params, r_p=r_p), share)
        for r_p, share in cells
    ]
    reports = compare_cells(cell_params, grid=config.grid)
    for (r_p, share), report in zip(cells, reports):
        rows.append({"r_p": r_p, "variance_share": share, **report.to_flat()})
        slack = 1e-12 * (1.0 + abs(report.delta_v))
        # rel_delta_v = gain / (1 + v_cls), and delta_v has the gain's sign.
        # Where 1 + v_cls > 0, delta_v >= 0 proves rel_delta_v >= 0; where
        # 1 + v_cls < 0 (a classical value below -1) a correct gain reads
        # negative, and where 1 + v_cls = 0 it is None.  A negative
        # rel_delta_v comes with 1 + v_cls > 0 exactly when delta_v < 0, so
        # only then is its sign gated.
        checks = [("gain_nonnegative", "delta_v")]
        if report.delta_v < 0.0 and report.rel_delta_v is not None:
            checks.append(("relative_gain_nonnegative", "rel_delta_v"))
        for check, name in checks:
            value = getattr(report, name)
            if value < -slack:
                failures.append((check, f"{name} = {value!r} < 0 at r_p={r_p}, share={share}"))
    _write_records(config.out_dir / "compare.csv", rows)
    return failures


def cmd_simulate(config: RunConfig) -> list[tuple[str, str]]:
    """Run the particle Monte Carlo and write verification + summary files."""
    params = config.params
    kind = config.kind
    principal = _default_principal(params)
    if config.sim.n_particles < 64:
        print(
            "warning: jackknife bias estimate is unreliable for "
            f"n_particles < 64 (got {config.sim.n_particles})",
            file=sys.stderr,
        )
    solution = solve_contract(kind, principal, params, config.grid)
    participation, principal_value, mean_l, mean_x = _stream_reports(params, solution, config.sim)

    mc_rows, failures = [], []
    for name, rec in (
        ("participation", participation),
        ("principal_value", principal_value),
    ):
        mc_rows.append({"check": name, **rec.to_flat()})
        print(
            f"check {name}: z = {rec.z_score:+.3f} "
            f"(estimate {format(rec.estimate, _FLOAT_FORMAT)}, "
            f"target {format(rec.closed_form_target, _FLOAT_FORMAT)})"
        )
        if not abs(rec.z_score) <= _Z_LIMIT:
            detail = f"|z| = {abs(rec.z_score):.3f} exceeds {_Z_LIMIT}"
            failures.append((f"{name}_z_score", detail))

    _write_records(config.out_dir / f"mc_report_{kind}_{principal}.csv", mc_rows)
    _write_csv(
        config.out_dir / f"ensemble_summary_{kind}_{principal}.csv",
        {"path": range(config.sim.n_common), "mean_l_terminal": mean_l, "mean_x_terminal": mean_x},
    )
    return failures


def cmd_first_best(config: RunConfig) -> list[tuple[str, str]]:
    """Write the full-information benchmark and check it dominates."""
    params = config.params
    principal = _default_principal(params)
    contracted = solve_contract("new", principal, params, config.grid).value
    benchmark = first_best_report(params, config.grid)
    slack = 1e-12 * abs(contracted.v0)
    dominates = benchmark.v_fb >= contracted.v0 - slack
    print(
        f"check first_best_dominates: {'ok' if dominates else 'FAIL'} "
        f"(v_fb = {format(benchmark.v_fb, _FLOAT_FORMAT)}, "
        f"contracted v0 = {format(contracted.v0, _FLOAT_FORMAT)})"
    )
    row = {
        **benchmark.to_flat(),
        "v0_new_contract": contracted.v0,
        "fb_dominates": dominates,
    }
    _write_records(config.out_dir / "first_best.csv", [row])
    detail = f"v_fb = {benchmark.v_fb!r} < contracted v0 = {contracted.v0!r}"
    return [] if dominates else [("first_best_dominates", detail)]


def cmd_reservation(config: RunConfig) -> list[tuple[str, str]]:
    """Write the walk-away problem's rate curves and summary values."""
    params = config.params
    report = reservation(params, grid_size=config.grid)
    _write_csv(
        config.out_dir / "reservation.csv",
        {"t": report.grid, "gamma0": report.gamma0, **_usage_columns("beta0", report.beta0)},
    )
    _write_records(config.out_dir / "reservation_report.csv", [report.to_flat()])
    beta = report.beta0
    if (beta < params.b_min - 1e-12).any() or (beta > 1.0 + 1e-12).any():
        return [("retention_in_box", "walk-away variance retention leaves [b_min, 1]")]
    return []


#: Each subcommand's function and help text.
_COMMANDS = {
    "schedule": (cmd_schedule, "write optimal payment and effort schedules"),
    "compare": (cmd_compare, "sweep contract gains over risk aversion and noise share"),
    "simulate": (cmd_simulate, "cross-check closed forms with a particle Monte Carlo"),
    "first-best": (cmd_first_best, "write the full-information benchmark report"),
    "reservation": (cmd_reservation, "write the consumers' walk-away problem report"),
}


# ----------------------------------------------------------------------
# Argument parsing and entry point
# ----------------------------------------------------------------------


@functools.cache  # argparse parsers keep no state between parse_args calls
def _build_parser() -> argparse.ArgumentParser:
    # Flag values stay text: build_run_config parses and checks them like
    # file values, so a bad one exits 2 with the JSON failure list.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None, metavar="PATH",
                        help="flat key = value configuration file")
    shared.add_argument("--rp", default=None, metavar="F",
                        help="principal risk aversion r_p override "
                        "(0 selects the risk-neutral principal)")
    for flag, _, metavar, helptext in _RUN_KEYS.values():
        if flag is not None:
            takes = {"metavar": metavar} if metavar else {"action": "store_const", "const": True}
            shared.add_argument(f"--{flag}", default=None, help=helptext, **takes)

    parser = argparse.ArgumentParser(
        prog="mfdr",
        description="Optimal demand-response contracts for a continuum of "
        "consumers under common noise: closed forms and Monte Carlo checks.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        # No prefix abbreviations: every value flag argparse accepts is one
        # that _join_values knows by its full spelling.
        subparsers.add_parser(name, parents=[shared], help=helptext, allow_abbrev=False)
    return parser


def _join_values(argv: Sequence[str]) -> list[str]:
    """Join each value flag with a following number, as ``--rp=-1e-3``:
    argparse takes a token like ``-1e-3`` for a flag, not a value."""
    value_flags = {"--config", "--rp"} | {
        f"--{flag}" for flag, _, metavar, _ in _RUN_KEYS.values() if metavar is not None
    }
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in value_flags:
            with contextlib.suppress(ValueError):  # a token that is no number stays
                float(token)
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_values(argv))
    try:
        config = build_run_config(args.config, vars(args))
    except (ParameterError, OSError, MemoryError) as exc:
        _emit_failures(args.command, [("invalid_configuration", str(exc))])
        return 2
    try:
        failures = _COMMANDS[args.command][0](config)
    except (ParameterError, ValueError, ArithmeticError, OSError, MemoryError) as exc:
        _emit_failures(args.command, [("runtime_error", str(exc))])
        return 2
    if failures:
        _emit_failures(args.command, failures)
        return 1
    return 0


def _emit_failures(command: str, pairs: Sequence[tuple[str, str]]) -> None:
    """Print ``command``'s ``(check, detail)`` pairs to stderr as the JSON
    failure list, one ``{command, check, detail}`` record per pair."""
    records = [{"command": command, "check": check, "detail": detail} for check, detail in pairs]
    json.dump({"failures": records}, sys.stderr, indent=2)
    sys.stderr.write("\n")
