"""Derive the converged references the benchmark checks its outputs against.

Run from the repository root:

    python3 bench/references.py            # rewrite bench/references.json
    python3 bench/references.py --check    # re-derive and diff, write nothing

Route.  Every design output depends on the per-node rate solve, which the
package runs with ``minimize_on_grid`` at a default tolerance of about
1e-9 relative to the bracket.  Here that solve is forced to
``TOLERANCE_FACTOR`` (1e-5) times its default tolerance, and the compared
quantities are assembled from the public value reports and schedules, not
taken from ``principal.compare``.  The derivation is then checked three
ways: ``compare`` under the tight solve agrees with the assembled values,
a 1e-3x solve agrees with the 1e-5x one, and the calibrated cell
reproduces the converged ``delta_beta`` = 0.0286928738095 and
``delta_alpha`` = 0.1540731139949 found by the same tightening study.

Each value is stored with a ``scale``: the magnitude of the largest term
it is a difference of.  The benchmark measures error relative to
``max(|value|, scale)``, so a difference that nearly cancels (``delta_beta``
at r_p = 0.03, share 0.25 is -2.5e-5 of its terms) is judged at the
precision its terms carry, not at a precision no solver could deliver.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

TOLERANCE_FACTOR = 1e-5
REFERENCE_FILE = Path(__file__).with_name("references.json")
COMPARE_OUTPUTS = ("delta_v", "rel_delta_v", "delta_alpha", "delta_beta")

#: Converged values of the calibrated cell (r_p = 6e-3, share 0.5, grid 1024)
#: from an independent tightening study of the rate solve (1e3x and 1e5x).
CROSS_CHECK = {"delta_beta": 0.0286928738095, "delta_alpha": 0.1540731139949}


@contextlib.contextmanager
def tight_rate_solve(factor: float = TOLERANCE_FACTOR):
    """Run ``principal``'s rate solve at ``factor`` times its default tolerance.

    Yields a list that counts the solves made, so a caller can prove the
    tight route was taken.
    """
    import mfdr.principal as principal

    original = principal.minimize_on_grid
    calls: list[int] = []

    def tight(f, lo, hi, tol=None, coarse_n=256):
        lo_arr = np.atleast_1d(np.asarray(lo, dtype=float))
        hi_arr = np.atleast_1d(np.asarray(hi, dtype=float))
        scale = max(float(np.max(np.abs(lo_arr))), float(np.max(np.abs(hi_arr))))
        calls.append(1)
        return original(f, lo, hi, tol=factor * 1e-9 * (1.0 + scale), coarse_n=coarse_n)

    principal.minimize_on_grid = tight
    try:
        yield calls
    finally:
        principal.minimize_on_grid = original


def sweep_cells() -> list[tuple[float, float]]:
    """The CLI's default compare sweep, r_p-major."""
    from mfdr.cli import DEFAULT_SWEEP_RP, DEFAULT_SWEEP_SHARE

    return [(r_p, share) for r_p in DEFAULT_SWEEP_RP for share in DEFAULT_SWEEP_SHARE]


def cell_params(r_p: float, share: float):
    """Parameters of one sweep cell, built as ``mfdr compare`` builds them."""
    from mfdr.model import calibrated_defaults, validate, with_variance_share

    base = calibrated_defaults()
    return with_variance_share(validate(dataclasses.replace(base, r_p=r_p)), share)


def _entry(value: float | None, scale: float | None) -> dict:
    return {"value": value, "scale": scale}


def schedule_integrals(payment, params) -> tuple[float, float]:
    """Time integrals of the drift scale and of the retained variance of a schedule."""
    from mfdr.agent import best_response_variance
    from mfdr.numerics import integrate_samples

    drift = integrate_samples(np.clip(-payment.z, 0.0, params.a_max), 0.0, params.horizon)
    variance = integrate_samples(best_response_variance(payment.gamma, params), 0.0, params.horizon)
    return drift, variance


def _assembled_cell(params, grid: int) -> dict:
    """The four compare outputs, assembled from public reports and schedules."""
    from mfdr.principal import optimal_schedule, value_report

    principal = "cara" if params.r_p > 0.0 else "risk_neutral"
    v_new = value_report("new", principal, params, grid).v0
    v_cls = value_report("classical", principal, params, grid).v0
    pay_new, _ = optimal_schedule("new", principal, params, grid)
    pay_cls, _ = optimal_schedule("classical", principal, params, grid)

    gain = v_new - v_cls
    v_mag = max(abs(v_new), abs(v_cls))
    per_rp = params.r_p if principal == "cara" else 1.0
    d_new, s_new = schedule_integrals(pay_new, params)
    d_cls, s_cls = schedule_integrals(pay_cls, params)
    var_den = s_cls + params.horizon * params.sigma_circ**2
    return {
        "delta_v": _entry(gain / per_rp, v_mag / per_rp),
        "rel_delta_v": _entry(gain / (1.0 + v_cls), v_mag / abs(1.0 + v_cls)),
        "delta_alpha": (
            _entry(None, None) if d_cls == 0.0
            else _entry((d_new - d_cls) / d_cls, max(d_new, d_cls) / d_cls)
        ),
        "delta_beta": (
            _entry(None, None) if var_den == 0.0
            else _entry(-(s_new - s_cls) / var_den + 0.0, max(s_new, s_cls) / var_den)
        ),
    }


def derive_compare(grid: int, cells, factor: float = TOLERANCE_FACTOR) -> list[dict]:
    """Converged compare outputs for each (r_p, share) cell at ``grid``."""
    from mfdr.principal import compare

    rows = []
    with tight_rate_solve(factor) as calls:
        for r_p, share in cells:
            params = cell_params(r_p, share)
            row = {"r_p": r_p, "share": share, **_assembled_cell(params, grid)}
            direct = compare(params, grid).to_flat()
            for key in COMPARE_OUTPUTS:
                ref = row[key]
                if (ref["value"] is None) != (direct[key] is None):
                    raise RuntimeError(f"{key} at {r_p}, {share}: None mismatch")
                if ref["value"] is not None and abs(direct[key] - ref["value"]) > 1e-12 * ref["scale"]:
                    raise RuntimeError(
                        f"{key} at r_p={r_p}, share={share}: compare gives "
                        f"{direct[key]!r}, assembled {ref['value']!r}"
                    )
            rows.append(row)
    if not calls:
        raise RuntimeError("principal no longer calls minimize_on_grid; the tight route was not taken")
    return rows


def derive_contracts(grid: int, factor: float = TOLERANCE_FACTOR) -> list[dict]:
    """Converged design outputs of the four contracts the Monte Carlo checks.

    ``v0`` and ``ce`` are the closed-form targets; the drift and variance
    integrals summarize the simulated schedule itself, whose rates carry
    the solve's first-order error that the value minima hide.
    """
    from mfdr.model import calibrated_defaults
    from mfdr.principal import optimal_schedule, value_report

    params = calibrated_defaults()
    rows = []
    with tight_rate_solve(factor) as calls:
        for kind in ("new", "classical"):
            for principal in ("cara", "risk_neutral"):
                rep = value_report(kind, principal, params, grid)
                payment, _ = optimal_schedule(kind, principal, params, grid)
                drift, variance = schedule_integrals(payment, params)
                ce_scale = max(abs(rep.ce), abs(rep.ce + rep.xi0), abs(rep.xi0))
                rows.append({
                    "kind": kind,
                    "principal": principal,
                    "v0": _entry(rep.v0, ce_scale if principal == "risk_neutral" else abs(rep.v0)),
                    "ce": _entry(rep.ce, ce_scale),
                    "drift": _entry(drift, abs(drift)),
                    "variance": _entry(variance, abs(variance)),
                })
    if not calls:
        raise RuntimeError("principal no longer calls minimize_on_grid; the tight route was not taken")
    return rows


def relative_error(value: float | None, ref: dict) -> float:
    """Error of ``value`` relative to ``max(|reference|, scale)``; inf on a None mismatch."""
    if ref["value"] is None or value is None:
        return 0.0 if ref["value"] is None and value is None else float("inf")
    denom = max(abs(ref["value"]), ref["scale"])
    if denom == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value - ref["value"]) / denom


def derive_all() -> dict:
    cells = sweep_cells()
    data = {
        "derivation": (
            "bench/references.py: rate solve at 1e-5x the default minimize_on_grid "
            "tolerance; outputs assembled from value_report and optimal_schedule"
        ),
        "tolerance_factor": TOLERANCE_FACTOR,
        "compare": {str(g): derive_compare(g, cells) for g in (1024, 256)},
        "contracts": {"1024": derive_contracts(1024)},
    }
    _cross_check(data, cells)
    return data


def _cross_check(data: dict, cells) -> None:
    loose = {str(g): derive_compare(g, cells, factor=1e-3) for g in (1024, 256)}
    for grid, rows in data["compare"].items():
        for tight_row, loose_row in zip(rows, loose[grid]):
            for key in COMPARE_OUTPUTS:
                err = relative_error(loose_row[key]["value"], tight_row[key])
                if err > 1e-11:
                    raise RuntimeError(
                        f"1e-3x and 1e-5x solves disagree on {key} at grid {grid}, "
                        f"r_p={tight_row['r_p']}, share={tight_row['share']}: {err:.3e}"
                    )
    calibrated = next(
        row for row in data["compare"]["1024"] if row["r_p"] == 6e-3 and row["share"] == 0.5
    )
    for key, expected in CROSS_CHECK.items():
        got = calibrated[key]["value"]
        if abs(got - expected) > 5e-13:
            raise RuntimeError(f"calibrated {key} = {got!r}, expected {expected!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="re-derive and compare with the stored file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    data = derive_all()
    text = json.dumps(data, indent=1) + "\n"
    if args.check:
        same = REFERENCE_FILE.read_text(encoding="utf-8") == text
        print("references match" if same else "references differ")
        return 0 if same else 1
    REFERENCE_FILE.write_text(text, encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
