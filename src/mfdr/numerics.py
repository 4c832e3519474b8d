"""Deterministic scalar minimization and quadrature kernels.

Every schedule construction and certainty-equivalent integral in the package
reduces to two primitives: a bracketed one-dimensional minimization of a
piecewise-smooth objective (payment-rate objectives have kinks where effort
boxes start to bind) and a fixed-grid quadrature. Both are implemented once,
with bit-reproducible results: fixed evaluation layouts, fixed iteration
counts, and pairwise numpy summation, so identical inputs give identical
outputs regardless of threading or call order.

:func:`minimize_on_grid` runs a coarse scan followed by golden-section
refinement on a whole family of brackets at once (one per time node, which
is what the schedule builders use; a single bracket is a one-row call).
:func:`integrate_samples` is the composite Simpson rule on uniformly spaced
samples.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "minimize_on_grid",
    "integrate_samples",
]

#: Inverse golden ratio 1/phi, the golden-section shrink factor per iteration.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Hard cap on golden-section iterations (reached only for absurdly small tol).
_MAX_GOLDEN_ITERATIONS = 200


def _default_tol(lo: np.ndarray, hi: np.ndarray) -> float:
    """Scale-adjusted default tolerance: 1e-9 relative to the bracket scale."""
    scale = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    return 1e-9 * (1.0 + scale)


def _better(
    f_new: np.ndarray, x_new: np.ndarray, f_best: np.ndarray, x_best: np.ndarray
) -> np.ndarray:
    """Deterministic comparison: lower value wins; exact ties go to the point
    with smaller magnitude, then to the larger (rightmost) point."""
    return (f_new < f_best) | (
        (f_new == f_best)
        & (
            (np.abs(x_new) < np.abs(x_best))
            | ((np.abs(x_new) == np.abs(x_best)) & (x_new > x_best))
        )
    )


def minimize_on_grid(
    f: Callable[[np.ndarray], np.ndarray],
    lo: Sequence[float] | np.ndarray,
    hi: Sequence[float] | np.ndarray,
    tol: float | None = None,
    coarse_n: int = 256,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimize a family of bracketed scalar objectives simultaneously.

    Each row ``j`` carries its own bracket ``[lo[j], hi[j]]``. The objective
    ``f`` must accept an array of shape ``(n_rows, k)`` whose row ``j`` holds
    candidate points for bracket ``j``, and return values of the same shape.

    Strategy per row: a ``coarse_n``-point uniform scan (plus the point 0
    whenever the bracket spans it, so that magnitude tie-breaking can settle
    flat valleys at exactly zero), then golden-section refinement of the best
    coarse sub-bracket down to width ``tol``. The reported minimizer is the
    best point ever evaluated, with ties broken toward smaller ``|argmin|``.

    Parameters
    ----------
    f:
        Vectorized objective, shape-preserving as described above.
    lo, hi:
        Bracket endpoints, one pair per row, with ``lo < hi`` elementwise.
    tol:
        Absolute bracket-width target; defaults to 1e-9 scaled by the bracket
        magnitude.
    coarse_n:
        Number of coarse-scan points per row (>= 3).

    Returns
    -------
    (argmin, min_value, evaluations):
        Arrays of shape ``(n_rows,)`` and the total evaluation count.

    Raises
    ------
    ValueError:
        On malformed brackets or parameters.
    ArithmeticError:
        If the objective returns NaN anywhere (reported with its location).
    """
    lo_arr = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_arr = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo_arr.shape != hi_arr.shape or lo_arr.ndim != 1:
        raise ValueError("lo and hi must be 1-D arrays of equal length")
    if not (np.isfinite(lo_arr).all() and np.isfinite(hi_arr).all()):
        raise ValueError("brackets must be finite")
    if not (lo_arr < hi_arr).all():
        raise ValueError("every bracket needs lo < hi")
    if coarse_n < 3:
        raise ValueError("coarse_n must be at least 3")
    if tol is None:
        tol = _default_tol(lo_arr, hi_arr)
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    n_rows = lo_arr.shape[0]
    evaluations = 0

    def evaluate(points: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        values = np.asarray(f(points), dtype=float)
        if values.shape != points.shape:
            raise ValueError(
                f"objective returned shape {values.shape} for input shape {points.shape}"
            )
        if np.isnan(values).any():
            row, col = np.argwhere(np.isnan(values))[0]
            raise ArithmeticError(
                f"objective returned NaN at x={points[row, col]!r} (bracket row {row})"
            )
        evaluations += points.size
        return values

    # Coarse scan on a uniform grid with exact endpoints.
    fractions = np.linspace(0.0, 1.0, coarse_n)
    scan = lo_arr[:, None] + (hi_arr - lo_arr)[:, None] * fractions[None, :]
    scan[:, 0] = lo_arr
    scan[:, -1] = hi_arr
    scan_values = evaluate(scan)

    # The first column that is lexicographically least in (value, |x|, -x),
    # the order of ``_better``.
    tied = scan_values == np.min(scan_values, axis=1)[:, None]
    magnitude = np.abs(scan)
    smallest = np.min(np.where(tied, magnitude, np.inf), axis=1)
    tied &= magnitude == smallest[:, None]
    largest = np.max(np.where(tied, scan, -np.inf), axis=1)
    best_col = np.argmax(tied & (scan == largest[:, None]), axis=1)
    rows = np.arange(n_rows)
    best_x = scan[rows, best_col]
    best_f = scan_values[rows, best_col]

    # Evaluate 0 wherever the bracket spans it (duplicate lo elsewhere; harmless).
    spans_zero = (lo_arr < 0.0) & (hi_arr > 0.0)
    if spans_zero.any():
        zero_col = np.where(spans_zero, 0.0, lo_arr)
        zero_values = evaluate(zero_col[:, None])[:, 0]
        take = _better(zero_values, zero_col, best_f, best_x)
        best_x = np.where(take, zero_col, best_x)
        best_f = np.where(take, zero_values, best_f)

    # Golden-section refinement of the best coarse sub-bracket.
    left_col = np.maximum(best_col - 1, 0)
    right_col = np.minimum(best_col + 1, coarse_n - 1)
    a = np.take_along_axis(scan, left_col[:, None], axis=1)[:, 0]
    b = np.take_along_axis(scan, right_col[:, None], axis=1)[:, 0]

    width = float(np.max(b - a))
    if width > tol:
        n_iter = min(
            _MAX_GOLDEN_ITERATIONS,
            int(math.ceil(math.log(width / tol) / -math.log(_INV_PHI))),
        )
    else:
        n_iter = 0

    if n_iter > 0:
        x1 = b - _INV_PHI * (b - a)
        x2 = a + _INV_PHI * (b - a)
        inner = evaluate(np.stack([x1, x2], axis=1))
        f1, f2 = inner[:, 0].copy(), inner[:, 1].copy()
        for x_pt, f_pt in ((x1, f1), (x2, f2)):
            take = _better(f_pt, x_pt, best_f, best_x)
            best_x = np.where(take, x_pt, best_x)
            best_f = np.where(take, f_pt, best_f)

        for _ in range(n_iter):
            take_left = f1 < f2
            a = np.where(take_left, a, x1)
            b = np.where(take_left, x2, b)
            x_keep = np.where(take_left, x1, x2)
            f_keep = np.where(take_left, f1, f2)
            span = b - a
            x_new = np.where(take_left, b - _INV_PHI * span, a + _INV_PHI * span)
            f_new = evaluate(x_new[:, None])[:, 0]
            x1 = np.where(take_left, x_new, x_keep)
            f1 = np.where(take_left, f_new, f_keep)
            x2 = np.where(take_left, x_keep, x_new)
            f2 = np.where(take_left, f_keep, f_new)
            take = _better(f_new, x_new, best_f, best_x)
            best_x = np.where(take, x_new, best_x)
            best_f = np.where(take, f_new, best_f)

    return best_x, best_f, evaluations


def _uniform_grid(horizon: float, n_intervals: int) -> np.ndarray:
    """The ``n_intervals + 1`` uniform nodes on ``[0, horizon]`` that
    :func:`integrate_samples` integrates over, the last one exactly
    ``horizon``; ``horizon`` must be finite and > 0 and ``n_intervals`` an
    even integer >= 2."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if n_intervals < 2 or n_intervals % 2 != 0:
        raise ValueError(f"grid must be an even integer >= 2, got {n_intervals}")
    t = np.linspace(0.0, horizon, int(n_intervals) + 1)
    t[-1] = horizon
    return t


def integrate_samples(values: Sequence[float] | np.ndarray, lo: float, hi: float) -> float:
    """Composite Simpson quadrature from uniformly spaced samples.

    ``values`` holds f at ``n+1`` uniform nodes spanning ``[lo, hi]`` with
    ``n`` even. Exact for polynomials up to degree 3. The weighted sum uses
    numpy pairwise summation, so the result is reproducible bit-for-bit.
    """
    samples = np.asarray(values, dtype=float)
    if samples.ndim != 1:
        raise ValueError("values must be one-dimensional")
    n_intervals = samples.shape[0] - 1
    if n_intervals < 2 or n_intervals % 2 != 0:
        raise ValueError("need an even number of intervals >= 2 (odd sample count >= 3)")
    if hi < lo:
        raise ValueError("need lo <= hi")
    if hi == lo:
        return 0.0
    weights = np.ones(samples.shape[0])
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (hi - lo) / n_intervals
    return float(h / 3.0 * np.sum(weights * samples))

