"""Per-layer measurements: each layer's public functions, timed from outside.

Sizes follow the package's defaults: schedules on a 1024-interval grid
(1025 time nodes), rate objectives on 1025 x 256 point arrays (the rate
solve's coarse scan), ``f0`` on a 1025 x 256 price array that covers all
three of its branches, and ``simulate`` at the Monte Carlo workload's shape
(``mc_bulk``'s for the other workloads).  Each timing is the median of
repeated calls after one untimed call.

A function the package no longer has reads 0 and is listed under
``missing``, so a change that deletes or renames a layer function does not
crash the benchmark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import statistics
import time
import tracemalloc

import numpy as np

from references import sweep_cells
from tracing import SolveCounter
from workloads import Context, MonteCarlo


def _median_seconds(fn, reps: int, min_seconds: float = 0.05, warm: bool = True) -> float:
    if warm:
        fn()
    times = []
    start = time.perf_counter()
    while len(times) < reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class _Suite:
    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.missing: list[str] = []

    @contextlib.contextmanager
    def guard(self, *names: str):
        """Metrics whose layer function is gone read 0."""
        try:
            yield
        except (AttributeError, ImportError, TypeError) as exc:
            for name in names:
                self.metrics[name] = 0.0
            self.missing.append(f"{', '.join(names)}: {type(exc).__name__}: {exc}")


def _rate_inputs(params, grid: int, cols: int = 256):
    """Time nodes, per-node brackets and a coarse scan, as the rate solve builds them."""
    t = np.linspace(0.0, params.horizon, grid + 1)
    ramp = params.delta * (params.horizon - t)
    margin = 1e-6 * (1.0 + abs(params.delta) * params.horizon)
    lo = np.maximum(np.minimum(ramp, 0.0), -params.a_max) - margin
    hi = np.maximum(ramp, 0.0) + margin
    z = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, cols)[None, :]
    return t, lo, hi, z


def design_layers(suite: _Suite, grid: int) -> None:
    import mfdr.agent as agent
    import mfdr.model as model
    import mfdr.numerics as numerics
    import mfdr.principal as principal

    params = model.calibrated_defaults()
    t, lo, hi, z = _rate_inputs(params, grid)
    lam = params.lambda_[0]
    floor = params.b_min ** -(1.0 + params.eta[0])
    q = np.geomspace(0.1 / lam, 10.0 * floor / lam, z.size).reshape(z.shape)

    with suite.guard("agent.f0_ns_per_eval"):
        suite.metrics["agent.f0_ns_per_eval"] = (
            _median_seconds(lambda: agent.f0(q, params), 7) / q.size * 1e9
        )
    with suite.guard("agent.reservation_ms"):
        suite.metrics["agent.reservation_ms"] = (
            _median_seconds(lambda: agent.reservation(params, grid), 21) * 1e3
        )
    for name, fn in (("hbar", "hbar"), ("hbar_classical", "hbar_classical")):
        key = f"principal.{name}_ns_per_eval"
        with suite.guard(key):
            objective = getattr(principal, fn)
            suite.metrics[key] = (
                _median_seconds(lambda: objective(t[:, None], z, params), 7) / z.size * 1e9
            )
    with suite.guard("numerics.minimize_on_grid_ms"):
        objective = principal.hbar
        suite.metrics["numerics.minimize_on_grid_ms"] = 1e3 * _median_seconds(
            lambda: numerics.minimize_on_grid(lambda pts: objective(t[:, None], pts, params), lo, hi),
            5,
        )
    with suite.guard("numerics.integrate_samples_us"):
        samples = np.sin(t)
        suite.metrics["numerics.integrate_samples_us"] = 1e6 * _median_seconds(
            lambda: numerics.integrate_samples(samples, 0.0, params.horizon), 101
        )
    for key, call in (
        ("principal.optimal_schedule_ms", lambda: principal.optimal_schedule("new", "cara", params, grid)),
        ("principal.optimal_schedule_classical_ms",
         lambda: principal.optimal_schedule("classical", "cara", params, grid)),
        ("principal.value_report_ms", lambda: principal.value_report("new", "cara", params, grid)),
        ("principal.m_curve_ms", lambda: principal.m_curve("new", "cara", params, t)),
        ("principal.compare_ms", lambda: principal.compare(params, grid)),
        ("principal.first_best_report_ms", lambda: principal.first_best_report(params, grid)),
    ):
        with suite.guard(key):
            suite.metrics[key] = 1e3 * _median_seconds(call, 3 if "compare" in key else 5)

    counts = ("numerics.evals_per_solve", "numerics.solves_per_cell", "principal.unique_solve_ratio")
    with suite.guard(*counts):
        with SolveCounter() as counter:
            principal.compare(params, grid)
        suite.metrics["numerics.evals_per_solve"] = counter.evals_per_solve()
        suite.metrics["numerics.solves_per_cell"] = float(counter.solves)
        suite.metrics["principal.unique_solve_ratio"] = counter.unique_ratio()

    cells = sweep_cells()

    def cell_params():
        for r_p, share in cells:
            model.with_variance_share(model.validate(dataclasses.replace(params, r_p=r_p)), share)

    with suite.guard("model.cell_params_us"):
        suite.metrics["model.cell_params_us"] = 1e6 * _median_seconds(cell_params, 21) / len(cells)


@contextlib.contextmanager
def _threads(value: str | None):
    saved = os.environ.get("MFDR_THREADS")
    if value is None:
        os.environ.pop("MFDR_THREADS", None)
    else:
        os.environ["MFDR_THREADS"] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("MFDR_THREADS", None)
        else:
            os.environ["MFDR_THREADS"] = saved


def mfsim_layers(suite: _Suite, mc: MonteCarlo) -> None:
    import mfdr.mfsim as mfsim
    import mfdr.principal as principal

    params, grid = mc.params, mc.ctx.sizes.grid
    cfg = mc.sim_config()
    payment, _ = principal.optimal_schedule("new", "cara", params, grid)
    report = principal.value_report("new", "cara", params, grid)
    steps = mc.particle_steps
    ensemble = None

    with suite.guard("mfsim.simulate_ns_per_particle_step", "mfsim.simulate_ns_per_particle_step_1t",
                     "mfsim.thread_speedup", "mfsim.simulate_peak_mib"):
        with _threads(None):
            pooled = _median_seconds(lambda: mfsim.simulate(params, payment, cfg), 2, 0.0, warm=False)
        with _threads("1"):
            single = _median_seconds(lambda: mfsim.simulate(params, payment, cfg), 1, 0.0, warm=False)
        suite.metrics["mfsim.simulate_ns_per_particle_step"] = pooled / steps * 1e9
        suite.metrics["mfsim.simulate_ns_per_particle_step_1t"] = single / steps * 1e9
        suite.metrics["mfsim.thread_speedup"] = single / pooled
        tracemalloc.start()
        try:
            ensemble = mfsim.simulate(params, payment, cfg)
            suite.metrics["mfsim.simulate_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    with suite.guard("mfsim.contract_payoffs_ms", "mfsim.contract_payoffs_law_ms",
                     "mfsim.verify_participation_ms", "mfsim.verify_principal_value_ms"):
        if ensemble is None:
            raise AttributeError("no ensemble: simulate is unavailable")
        payoffs = mfsim.contract_payoffs(ensemble, payment, params, "cara")
        for key, call in (
            ("mfsim.contract_payoffs_ms", lambda: mfsim.contract_payoffs(ensemble, payment, params, "cara")),
            ("mfsim.contract_payoffs_law_ms",
             lambda: mfsim.contract_payoffs(ensemble, payment, params, "cara", indexing="law")),
            ("mfsim.verify_participation_ms", lambda: mfsim.verify_participation(ensemble, payoffs, params)),
            ("mfsim.verify_principal_value_ms",
             lambda: mfsim.verify_principal_value(ensemble, payoffs, params, report)),
        ):
            suite.metrics[key] = 1e3 * _median_seconds(call, 5)


def cli_layers(suite: _Suite, ctx: Context) -> None:
    import mfdr.cli as cli

    out = ctx.out_root / "cli_layers"
    shutil.rmtree(out, ignore_errors=True)
    names = {"first-best": "first_best"}
    for command in ctx.sizes.cli_commands:
        key = f"cli.{names.get(command[0], command[0])}_s"
        args = [command[0], "--out", str(out), "--seed", str(ctx.seed), *command[1:]]
        with suite.guard(key):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                cli.main(args)
                suite.metrics[key] = time.perf_counter() - start
    suite.metrics["cli.csv_bytes"] = float(sum(p.stat().st_size for p in out.glob("*.csv")))
    shutil.rmtree(out, ignore_errors=True)


def run(workload, ctx: Context) -> tuple[dict[str, float], list[str]]:
    """Every fixed-size layer measurement; returns (metrics, missing names)."""
    suite = _Suite()
    design_layers(suite, ctx.sizes.grid)
    mc = workload if isinstance(workload, MonteCarlo) else MonteCarlo("mc_bulk", ctx)
    mfsim_layers(suite, mc)
    cli_layers(suite, ctx)
    return suite.metrics, suite.missing

