"""The four benchmark workloads, their warm-up calls and their output checks.

Every workload is closed-loop with concurrency 1: this process calls the
library synchronously, one operation after another.  The simulation pool
keeps its default size.  Each pass returns the latency of every operation
it ran and the operations that failed: an operation fails if it raises,
exits nonzero, or fails its output check.

* ``design_sweep`` -- ``principal.compare`` over the CLI's 25 default cells
  at grid 1024; one operation is one cell.  The seed sets the cell order.
* ``mc_bulk`` / ``mc_scenarios`` -- the Monte Carlo check of all four
  contracts at 33.5 M particle-steps each, shaped as few large scenarios or
  many small ones; one operation is one contract's check.  The seed is
  ``SimConfig.seed``.
* ``cli_report`` -- ``mfdr.cli.main`` runs every subcommand at defaults
  (``compare`` at grid 256); one operation is one command.  The seed is
  ``--seed``.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from references import relative_error, schedule_integrals, sweep_cells

#: Largest |z-score| accepted for a Monte Carlo check; the value of
#: ``mfdr.cli._Z_LIMIT`` (two-sided 1e-4 normal tail).
Z_LIMIT = 3.89
#: Largest accepted error of a design output against its converged reference.
REL_TOL = 1e-7
#: Cell whose gain must grow with the common-noise share (as ``mfdr compare``).
MONOTONE_RP = 6e-3

CONTRACTS = (
    ("new", "cara"),
    ("new", "risk_neutral"),
    ("classical", "cara"),
    ("classical", "risk_neutral"),
)

CLI_COMMANDS = (
    ("schedule",),
    ("compare", "--grid", "256"),
    ("simulate",),
    ("first-best",),
    ("reservation",),
)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, the self-test shrinks them."""

    grid: int = 1024
    cells: tuple[tuple[float, float], ...] | None = None
    mc_shapes: dict = field(
        default_factory=lambda: {"mc_bulk": (2048, 32), "mc_scenarios": (64, 1024)}
    )
    mc_steps: int = 512
    cli_commands: tuple[tuple[str, ...], ...] = CLI_COMMANDS
    cli_compare_grid: int = 256
    #: cold call of each CLI command; simulate keeps its default particle
    #: count so the allocator meets full-size arrays before the timed passes
    cli_warm: tuple[tuple[str, ...], ...] = (
        ("schedule", "--grid", "64"),
        ("compare", "--grid", "64"),
        ("simulate", "--common", "2"),
        ("first-best",),
        ("reservation",),
    )


TINY = Sizes(
    grid=32,
    cells=((0.0, 0.5), (6e-3, 0.25), (6e-3, 0.5), (3e-2, 1.0)),
    mc_shapes={"mc_bulk": (256, 4), "mc_scenarios": (16, 32)},
    mc_steps=32,
    cli_commands=tuple(
        (cmd[0], "--grid", "32", "--particles", "64", "--common", "4", "--dt", repr(5.5 / 32))
        for cmd in CLI_COMMANDS
    ),
    cli_compare_grid=32,
    cli_warm=tuple(
        (cmd[0], "--grid", "16", "--particles", "16", "--common", "2", "--dt", repr(5.5 / 16))
        for cmd in CLI_COMMANDS
    ),
)


@dataclass
class PassResult:
    op_seconds: list[float] = field(default_factory=list)
    #: CPU seconds of every thread of this process, per operation
    op_cpu_seconds: list[float] = field(default_factory=list)
    #: failed operation -> what went wrong; one entry per failed operation
    failures: dict[str, list[str]] = field(default_factory=dict)
    rel_errors: list[float] = field(default_factory=list)

    @contextlib.contextmanager
    def timed_op(self):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.op_seconds.append(time.perf_counter() - wall)
            self.op_cpu_seconds.append(time.process_time() - cpu)

    def fail(self, op: str, problem: str) -> None:
        self.failures.setdefault(op, []).append(problem)

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)


@dataclass
class Context:
    seed: int
    sizes: Sizes
    refs: dict
    out_root: Path
    z_limit: float = Z_LIMIT
    diagnostics: dict = field(default_factory=dict)


def _calibrated():
    import mfdr.model as model

    return model.calibrated_defaults()


class DesignSweep:
    name = "design_sweep"
    min_passes = 4

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)
        self.cells = list(ctx.sizes.cells or sweep_cells())
        self.refs = {
            (row["r_p"], row["share"]): row for row in ctx.refs.get("compare", {}).get(str(ctx.sizes.grid), [])
        }
        self.base = _calibrated()

    def _cell(self, r_p: float, share: float):
        import mfdr.model as model
        import mfdr.principal as principal

        params = model.with_variance_share(
            model.validate(dataclasses.replace(self.base, r_p=r_p)), share
        )
        return principal.compare(params, grid=self.ctx.sizes.grid)

    def warm(self) -> None:
        self._cell(*self.cells[len(self.cells) // 2])

    def run_pass(self, pass_id: int) -> PassResult:
        result = PassResult()
        order = list(self.cells)
        self.rng.shuffle(order)
        gains: dict[float, float] = {}
        for r_p, share in order:
            with result.timed_op():
                try:
                    report = self._cell(r_p, share)
                    error = None
                except Exception as exc:  # a cell that raises is a failed operation
                    report, error = None, f"{type(exc).__name__}: {exc}"
            where = f"cell r_p={r_p}, share={share}"
            if report is None:
                result.fail(where, error)
                continue
            problems = []
            values = report.to_flat()
            for key, ref in self.refs[(r_p, share)].items():
                if key in ("r_p", "share"):
                    continue
                err = relative_error(values[key], ref)
                result.rel_errors.append(err)
                if not err <= REL_TOL:
                    problems.append(f"{key} = {values[key]!r} is {err:.3e} off {ref['value']!r}")
            slack = 1e-12 * (1.0 + abs(report.delta_v))
            if report.delta_v < -slack:
                problems.append(f"delta_v = {report.delta_v!r} < 0")
            if report.rel_delta_v < -slack:
                problems.append(f"rel_delta_v = {report.rel_delta_v!r} < 0")
            if math.isclose(r_p, MONOTONE_RP, rel_tol=1e-12):
                gains[share] = report.delta_v
            for problem in problems:
                result.fail(where, problem)
        shares = sorted(gains)
        for lo, hi in zip(shares, shares[1:]):
            if gains[hi] < gains[lo] - 1e-12 * (1.0 + abs(gains[lo])):
                result.fail(
                    f"cell r_p={MONOTONE_RP}, share={hi}",
                    f"delta_v drops from {gains[lo]!r} (share {lo}) to {gains[hi]!r}",
                )
        return result


class MonteCarlo:
    min_passes = 3

    def __init__(self, name: str, ctx: Context) -> None:
        self.name = name
        self.ctx = ctx
        self.n_particles, self.n_common = ctx.sizes.mc_shapes[name]
        self.params = _calibrated()
        self.refs = {
            (row["kind"], row["principal"]): row
            for row in ctx.refs.get("contracts", {}).get(str(ctx.sizes.grid), [])
        }

    @property
    def particle_steps(self) -> int:
        return self.n_particles * self.n_common * self.ctx.sizes.mc_steps

    def sim_config(self, n_common: int | None = None):
        import mfdr.mfsim as mfsim

        return mfsim.SimConfig(
            n_particles=self.n_particles,
            n_common=self.n_common if n_common is None else n_common,
            dt=self.params.horizon / self.ctx.sizes.mc_steps,
            seed=self.ctx.seed,
        )

    def check(self, kind: str, principal_kind: str, cfg):
        """One contract's Monte Carlo check; returns the pieces the checks need."""
        import mfdr.mfsim as mfsim
        import mfdr.principal as principal

        grid = self.ctx.sizes.grid
        payment, _ = principal.optimal_schedule(kind, principal_kind, self.params, grid)
        report = principal.value_report(kind, principal_kind, self.params, grid)
        ensemble = mfsim.simulate(self.params, payment, cfg)
        on_noise = mfsim.contract_payoffs(ensemble, payment, self.params, principal_kind)
        on_law = mfsim.contract_payoffs(
            ensemble, payment, self.params, principal_kind, indexing="law"
        )
        agent = mfsim.verify_participation(ensemble, on_noise, self.params)
        value = mfsim.verify_principal_value(ensemble, on_noise, self.params, report)
        gap = float(abs(on_law - on_noise).max())
        return payment, report, agent, value, gap

    def warm(self) -> None:
        self.check("new", "cara", self.sim_config(n_common=2))

    def run_pass(self, pass_id: int) -> PassResult:
        result = PassResult()
        cfg = self.sim_config()
        z_limit = self.ctx.z_limit
        for kind, principal_kind in CONTRACTS:
            label = f"{kind}/{principal_kind}"
            with result.timed_op():
                try:
                    payment, report, agent, value, gap = self.check(kind, principal_kind, cfg)
                    error = None
                except Exception as exc:  # a check that raises is a failed operation
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                result.fail(label, error)
                continue
            problems = []
            if not abs(agent.z_score) <= z_limit:
                problems.append(f"participation |z| = {abs(agent.z_score):.3f} > {z_limit}")
            budget = z_limit * value.std_error + abs(value.jackknife_bias)
            miss = abs(value.estimate - value.closed_form_target)
            if not miss <= budget:
                problems.append(f"principal value misses its target by {miss!r} > {budget!r}")
            if not math.isfinite(gap):
                problems.append(f"indexing gap {gap!r} is not finite")
            ref = self.refs[(kind, principal_kind)]
            drift, variance = schedule_integrals(payment, self.params)
            outputs = {"v0": report.v0, "ce": report.ce, "drift": drift, "variance": variance}
            for key, output in outputs.items():
                err = relative_error(output, ref[key])
                result.rel_errors.append(err)
                if not err <= REL_TOL:
                    problems.append(f"{key} is {err:.3e} off its reference")
            for problem in problems:
                result.fail(label, problem)
            self.ctx.diagnostics[label] = {
                "participation": _mc_diag(agent),
                "principal_value": _mc_diag(value),
                "indexing_gap": gap,
            }
        return result


def _mc_diag(report) -> dict:
    return {
        "z": report.z_score,
        "se": report.std_error,
        "n_effective": report.n_effective,
        "abs_jackknife": abs(report.jackknife_bias),
    }


class CliReport:
    name = "cli_report"
    min_passes = 3

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.first_csvs: dict[str, bytes] | None = None
        self.refs = ctx.refs.get("compare", {}).get(str(ctx.sizes.cli_compare_grid), [])

    def _main(self, args: list[str]) -> tuple[int | None, str]:
        import mfdr.cli as cli

        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(args), sink.getvalue()
        except SystemExit as exc:  # argparse exits on a command line it rejects
            return exc.code, sink.getvalue()
        except Exception as exc:  # a command that raises is a failed operation
            return None, f"{sink.getvalue()}{type(exc).__name__}: {exc}"

    def warm(self) -> None:
        out = self.ctx.out_root / "cli_warm"
        for command in self.ctx.sizes.cli_warm:
            self._main([command[0], "--out", str(out), *command[1:]])
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, pass_id: int) -> PassResult:
        result = PassResult()
        out = self.ctx.out_root / f"cli_pass{pass_id}"
        shutil.rmtree(out, ignore_errors=True)
        for command in self.ctx.sizes.cli_commands:
            args = [command[0], "--out", str(out), "--seed", str(self.ctx.seed), *command[1:]]
            with result.timed_op():
                status, log = self._main(args)
            if status != 0:
                result.fail(command[0], f"exited {status}: {log.strip()[-500:]}")
        csvs = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
        if self.first_csvs is None:
            self.first_csvs = csvs
        else:
            for name in sorted(set(csvs) | set(self.first_csvs)):
                if csvs.get(name) != self.first_csvs.get(name):
                    result.fail(_writer(name), f"{name} differs from the first pass")
        if "compare.csv" in csvs:
            for problem in self._check_compare(csvs["compare.csv"], result):
                result.fail("compare", problem)
        else:
            result.fail("compare", "compare.csv was not written")
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _check_compare(self, data: bytes, result: PassResult) -> list[str]:
        problems = []
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        for ref in self.refs:
            row = next(
                (r for r in rows
                 if math.isclose(float(r["r_p"]), ref["r_p"], rel_tol=1e-9, abs_tol=1e-15)
                 and math.isclose(float(r["variance_share"]), ref["share"], rel_tol=1e-9, abs_tol=1e-15)),
                None,
            )
            if row is None:
                problems.append(f"compare.csv lacks r_p={ref['r_p']}, share={ref['share']}")
                continue
            for key in ("delta_v", "rel_delta_v", "delta_alpha", "delta_beta"):
                value = float(row[key]) if row[key] != "" else None
                err = relative_error(value, ref[key])
                result.rel_errors.append(err)
                if not err <= REL_TOL:
                    problems.append(
                        f"compare.csv {key} at r_p={ref['r_p']}, share={ref['share']} is {err:.3e} off"
                    )
        return problems


def _writer(csv_name: str) -> str:
    """The CLI command that writes a CSV file of this name."""
    for prefix, command in (
        ("schedule_", "schedule"),
        ("compare", "compare"),
        ("mc_report_", "simulate"),
        ("ensemble_summary_", "simulate"),
        ("first_best", "first-best"),
        ("reservation", "reservation"),
    ):
        if csv_name.startswith(prefix):
            return command
    return csv_name


def make(name: str, ctx: Context):
    if name == "design_sweep":
        return DesignSweep(ctx)
    if name in ("mc_bulk", "mc_scenarios"):
        return MonteCarlo(name, ctx)
    if name == "cli_report":
        return CliReport(ctx)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("design_sweep", "mc_bulk", "mc_scenarios", "cli_report")
