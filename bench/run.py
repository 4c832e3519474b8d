"""mfdr benchmark: the design sweep, two Monte Carlo shapes and the CLI report.

Run from the repository root:

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --all --seed 1          # every workload, metrics table
    python3 bench/run.py --all --trace 1         # the same with per-layer metrics
    python3 bench/run.py --selftest              # tiny sizes, checks the harness

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run facts and Monte Carlo diagnostics, and the
whole record is also written to ``.bench_out/``.  The exit status is 0 only
if every output check passed.

End-to-end metrics, each over the timed passes of one run.  Times are CPU
seconds of every thread of the process (user + system): on a shared virtual
machine the host steals a varying share of the vCPUs (0 to 40% has been
seen within an hour), which moves wall times by up to 2x between runs of
the same code but does not enter CPU time.

* ``setup_s`` -- median, over fresh processes, of the CPU time to import
  the package, build the parameters and make the workload's cold calls;
* ``cpu_s`` -- median CPU seconds of one pass;
* ``op_cpu_ms_p50`` / ``op_cpu_ms_p90`` -- median and 90th percentile CPU
  time of one operation (a compare cell, one contract's Monte Carlo check,
  or one CLI command);
* ``peak_rss_mib`` -- peak resident memory of this process, which runs only
  the workload;
* ``max_rel_err`` -- worst error of a design output against the converged
  references in ``references.json``.

The wall-clock counterparts (``setup_s``, ``wall_s``, ``op_ms_p50``,
``op_ms_p90``) are recorded under ``wall`` in the run record and printed by
``--all``, as is ``fail_ratio`` (failed / attempted operations, carried by
``failed`` and ``attempted`` in the result line).

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Fresh processes whose median set-up time is reported as ``setup_s``.
SETUP_PROBES = 3
#: Tail percentile of operation time.  On ``design_sweep`` (>= 100 cells a
#: run) it leaves at least 10 operations beyond it.  The Monte Carlo and CLI
#: workloads run 12-40 operations of 4-5 kinds a run; a percentile chosen
#: from the sample count would jump between kinds, so it stays fixed and the
#: count beyond it is recorded.
TAIL_PERCENTILE = 90


def _require_source() -> None:
    if not (SRC / "mfdr" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mfdr'}; run from an mfdr checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _stored_refs() -> dict:
    return json.loads((Path(__file__).with_name("references.json")).read_text(encoding="utf-8"))


def _sizes(tiny: bool):
    import workloads

    return workloads.TINY if tiny else workloads.Sizes()


# ----------------------------------------------------------------------
# Set-up time, in fresh processes
# ----------------------------------------------------------------------


def probe_setup(name: str, seed: int, tiny: bool) -> None:
    """Import the package, build the parameters and make each cold call once."""
    wall, cpu = time.perf_counter(), time.process_time()
    import mfdr  # noqa: F401  (the import is part of what is timed)
    import workloads

    ctx = workloads.Context(seed, _sizes(tiny), {}, OUT / f"probe_{os.getpid()}")
    workloads.make(name, ctx).warm()
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    shutil.rmtree(ctx.out_root, ignore_errors=True)
    print(json.dumps({"cpu": cpu, "wall": wall}))


def _setup_seconds(name: str, seed: int, tiny: bool, probes: int) -> list[dict]:
    """CPU and wall seconds of set-up in ``probes`` fresh processes."""
    samples = []
    for _ in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name,
               "--seed", str(seed)] + (["--tiny"] if tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# Run facts
# ----------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                sizes[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _simd() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        try:
            from numpy.core._multiarray_umath import __cpu_features__ as features
        except ImportError:
            return []
    return sorted(name for name, on in features.items() if on)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (SRC / "mfdr").rglob("*.py"))


def run_facts(workload) -> dict:
    import platform

    import mfdr.mfsim as mfsim
    import numpy

    n_common = getattr(workload, "n_common", mfsim.SimConfig().n_common)
    resolve = getattr(mfsim, "_worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_simd": _simd(),
        "sim_workers": resolve(n_common) if resolve else None,
        "sim_workers_env": os.environ.get("MFDR_THREADS"),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def _timed_pass(workload, pass_id: int):
    """(wall seconds, CPU seconds of all threads, result) of one pass."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = workload.run_pass(pass_id)
    return time.perf_counter() - wall, time.process_time() - cpu, result


def _timed_passes(workload, seconds: float, min_passes: int):
    """At least ``min_passes`` passes, then more while the next one fits in ``seconds``."""
    walls, cpus, results = [], [], []
    start = time.perf_counter()
    while (len(walls) < min_passes
           or time.perf_counter() - start + statistics.mean(walls) <= seconds):
        wall, cpu, result = _timed_pass(workload, len(walls))
        walls.append(wall)
        cpus.append(cpu)
        results.append(result)
    return walls, cpus, results


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def measure(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
            refs: dict | None = None, z_limit: float | None = None,
            probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the full record (metrics, facts, failures)."""
    import workloads

    out_root = OUT / f"{name}_seed{seed}_pid{os.getpid()}"
    ctx = workloads.Context(
        seed, _sizes(tiny), _stored_refs() if refs is None else refs, out_root,
        workloads.Z_LIMIT if z_limit is None else z_limit,
    )
    workload = workloads.make(name, ctx)
    values: dict[str, float] = {}
    extra: dict = {}
    setup = [] if trace else _setup_seconds(name, seed, tiny, probes)

    workload.warm()
    if trace:
        import layers
        from tracing import LAYERS, Tracer

        # Untraced and traced passes alternate, so drift and late warm-up
        # fall on both sides of the overhead estimate.
        tracer = Tracer()
        walls, traced_walls, results = [], [], []
        start = time.perf_counter()
        while len(walls) < 2 or (
            time.perf_counter() - start + statistics.mean(walls) + statistics.mean(traced_walls)
            <= seconds
        ):
            wall, _, result = _timed_pass(workload, 2 * len(walls))
            walls.append(wall)
            results.append(result)
            tracer.pass_id = len(traced_walls)
            with tracer:
                wall, _, result = _timed_pass(workload, 2 * len(traced_walls) + 1)
            traced_walls.append(wall)
            results.append(result)
        per_pass = tracer.self_seconds()
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = 1e3 * statistics.median(
                per_pass.get(k, {}).get(layer, 0.0) for k in range(len(traced_walls))
            )
        values["trace.overhead_ms"] = 1e3 * (statistics.median(traced_walls) - statistics.median(walls))
        values["trace.spans_per_pass"] = len(tracer.spans) / len(traced_walls)
        suite, missing = layers.run(workload, ctx)
        values.update(suite)
        extra["missing_layer_functions"] = missing
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans_{name}_seed{seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        extra["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        walls, cpus, results = _timed_passes(workload, seconds, workload.min_passes)
        ops = [t for r in results for t in r.op_seconds]
        op_cpus = [t for r in results for t in r.op_cpu_seconds]
        values["setup_s"] = statistics.median(p["cpu"] for p in setup)
        values["cpu_s"] = statistics.median(cpus)
        values["op_cpu_ms_p50"] = 1e3 * statistics.median(op_cpus)
        values["op_cpu_ms_p90"] = 1e3 * _percentile(op_cpus, TAIL_PERCENTILE)
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra["wall"] = {
            "setup_s": statistics.median(p["wall"] for p in setup),
            "wall_s": statistics.median(walls),
            "op_ms_p50": 1e3 * statistics.median(ops),
            "op_ms_p90": 1e3 * _percentile(ops, TAIL_PERCENTILE),
        }
        extra["tail"] = {
            "percentile": TAIL_PERCENTILE,
            "samples": len(ops),
            "beyond": sum(t > values["op_cpu_ms_p90"] / 1e3 for t in op_cpus),
        }
        extra["samples"] = {
            "setup": setup,
            "wall_s": walls,
            "cpu_s": cpus,
            "op_ms": [1e3 * t for t in ops],
            "op_cpu_ms": [1e3 * t for t in op_cpus],
        }
    values["max_rel_err"] = max((e for r in results for e in r.rel_errors), default=0.0)
    shutil.rmtree(out_root, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = [f"pass {k}: {op}: {'; '.join(p)}" for k, r in enumerate(results)
                for op, p in r.failures.items()]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "max_rel_err": values["max_rel_err"],
        "failures": failures[:50],
        "facts": run_facts(workload),
        "mc_diagnostics": ctx.diagnostics,
        **extra,
    }


def _emit(record: dict) -> int:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result_{record['workload']}_seed{record['seed']}_trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    side = {k: v for k, v in record.items() if k not in ("metrics", "correct", "attempted", "failed")}
    print(json.dumps(side))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# Every workload in one command
# ----------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    import workloads

    summary, status = {}, 0
    print(f"{'workload':<14} {'metric':<42} {'value':>16}  unit")
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name:<14} did not report (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])
        summary[name] = {**result, "wall": record.get("wall")}
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        units = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms"}
        rows += [(f"wall.{k}", v, units[k]) for k, v in (record.get("wall") or {}).items()]
        rows.append(("fail_ratio", result["failed"] / result["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<42} {value:>16.6g}  {unit}")
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stderr.strip()[-2000:], file=sys.stderr)
            status = 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    return status


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------


def selftest() -> int:
    """Tiny sizes: every metric is emitted with a unit, and the checks bite."""
    import copy

    import references
    import workloads

    tiny = workloads.TINY
    refs = {
        "compare": {str(tiny.grid): references.derive_compare(tiny.grid, references.sweep_cells())},
        "contracts": {str(tiny.grid): references.derive_contracts(tiny.grid)},
    }
    spec = _spec()
    problems = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            problems.append(message)

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = measure(name, 7, 0.0, trace, tiny=True, refs=refs, probes=1)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            emitted = record["metrics"]
            check(set(emitted) == {m["name"] for m in wanted}
                  and all(isinstance(m["unit"], str) and m["unit"] for m in emitted.values())
                  and all(isinstance(m["value"], (int, float)) for m in emitted.values()),
                  f"{name} trace={int(trace)}: every metric emitted with a unit")
            check(record["fail_ratio"] == 0.0,
                  f"{name} trace={int(trace)}: fail_ratio 0 ({record['failures'][:2]})")

    bad = copy.deepcopy(refs)
    cell = next(r for r in bad["compare"][str(tiny.grid)] if r["r_p"] == 6e-3 and r["share"] == 0.5)
    ref = cell["delta_v"]
    ref["value"] += 1e-6 * max(abs(ref["value"]), ref["scale"])
    for name in ("design_sweep", "cli_report"):
        record = measure(name, 7, 0.0, False, tiny=True, refs=bad, probes=1)
        check(record["fail_ratio"] > 0.0, f"{name}: a perturbed reference gives fail_ratio > 0")
    for name in ("mc_bulk", "mc_scenarios"):
        record = measure(name, 7, 0.0, False, tiny=True, refs=refs, z_limit=0.0, probes=1)
        check(record["fail_ratio"] > 0.0, f"{name}: z-limit 0 gives fail_ratio > 0")
    print("selftest " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mfdr benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--selftest", action="store_true", help="check the harness at tiny sizes")
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    if args.probe_setup:
        probe_setup(args.probe_setup, args.seed, args.tiny)
        return 0
    if args.selftest:
        return selftest()
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds, bool(args.trace))
    if not args.workload:
        parser.error("--workload, --all or --selftest is required")
    return _emit(measure(args.workload, args.seed, seconds, bool(args.trace), tiny=args.tiny))


if __name__ == "__main__":
    sys.exit(main())
