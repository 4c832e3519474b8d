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
is what the schedule builders use; a single bracket is a one-row call). Its
scan runs in cache-sized column blocks, calling the objective several times.
The objective may also be a family of objectives on the same brackets, each
solved bit for bit as alone, that share the calls (and the scan points).
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

#: Most points per objective call of the blocked coarse scan: each float64
#: temporary stays within 128 KiB, which the allocator reuses without page faults.
_SCAN_BLOCK_POINTS = 16384


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
    It is called several times per scan, on column blocks of at most
    ``_SCAN_BLOCK_POINTS`` points (one column when ``n_rows`` is larger).

    A family of ``m`` objectives maps shared ``(n_rows, k)`` points (scan,
    point 0) to ``(m, n_rows, k)`` values, and ``(m, n_rows, k)`` points,
    objective ``i``'s at ``[i]`` (golden section), to values of that shape.
    Each objective keeps its own iteration count, so its ``(m, n_rows)``
    results are those of a call of its own, bit for bit. Scan blocks after
    the first (sized before ``m`` is known) count ``m`` values per point.

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
        Arrays of shape ``(n_rows,)`` (``(m, n_rows)`` for a family) and the
        number of objective values computed.

    Raises
    ------
    ValueError:
        On malformed brackets or parameters.
    ArithmeticError:
        If the objective returns NaN anywhere (reported with its location).
    """
    lo_arr = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_arr = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo_arr.shape != hi_arr.shape or lo_arr.ndim != 1 or lo_arr.size == 0:
        raise ValueError("lo and hi must be non-empty 1-D arrays of equal length")
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
    family: tuple[int, ...] | None = None  # (m,) when f carries m objectives

    def evaluate(points: np.ndarray) -> np.ndarray:
        nonlocal evaluations, family
        values = np.asarray(f(points), dtype=float)
        if family is None:  # the first call shows whether f is a family
            family = values.shape[:1] if values.ndim == 3 and len(values) else ()
        if values.shape != family + points.shape[-2:]:
            raise ValueError(
                f"objective returned shape {values.shape} for input shape {points.shape}"
            )
        if np.isnan(values).any():
            at = tuple(np.argwhere(np.isnan(values))[0])
            x = np.broadcast_to(points, values.shape)[at]
            row = f"objective {at[0]}, bracket row {at[1]}" if family else f"bracket row {at[0]}"
            raise ArithmeticError(f"objective returned NaN at x={x!r} ({row})")
        evaluations += values.size
        return values

    # Coarse scan on a uniform grid with exact endpoints, in column blocks.
    fractions = np.linspace(0.0, 1.0, coarse_n)

    def scan_points(cols: np.ndarray, at=None) -> np.ndarray:
        """Scan points of rows ``at`` (all brackets if None) in columns ``cols``
        (broadcast per row); rows are objective-major: row ``r`` has bracket
        ``r % n_rows``."""
        at = slice(None) if at is None else at % n_rows
        lo_at, hi_at = lo_arr[at, None], hi_arr[at, None]
        points = lo_at + (hi_at - lo_at) * fractions[cols]
        points = np.where(cols == 0, lo_at, points)
        return np.where(cols == coarse_n - 1, hi_at, points)

    block_cols = max(1, _SCAN_BLOCK_POINTS // n_rows)
    first = evaluate(scan_points(np.arange(min(block_cols, coarse_n))))
    m = family[0] if family else 1
    scan_values = np.empty(family + (n_rows, coarse_n))
    scan_values[..., : first.shape[-1]] = first
    block_cols = max(1, _SCAN_BLOCK_POINTS // (m * n_rows))
    for start in range(first.shape[-1], coarse_n, block_cols):
        stop = min(start + block_cols, coarse_n)
        scan_values[..., start:stop] = evaluate(scan_points(np.arange(start, stop)))

    # From here on there is one row per (objective, bracket), objective-major.
    scan_values = scan_values.reshape(m * n_rows, coarse_n)
    rows = np.arange(m * n_rows)

    def evaluate_rows(x: np.ndarray, live) -> np.ndarray:
        """Values at ``(rows, k)`` points ``x``; frozen rows (not ``live``, which
        is True while no objective has run its count) at their best point."""
        points = x if live is True else np.where(live[:, None], x, best_x[:, None])
        return evaluate(points.reshape(family + (n_rows, -1))).reshape(rows.size, -1)

    # The first column lexicographically least in (value, |x|, -x), the order
    # of ``_better``; only rows with an exact tie need more than ``argmin``.
    best_col = np.argmin(scan_values, axis=1)
    best_f = scan_values[rows, best_col]
    tied = scan_values == best_f[:, None]
    tie_rows = np.flatnonzero(np.count_nonzero(tied, axis=1) > 1)
    if tie_rows.size:
        tied, points = tied[tie_rows], scan_points(np.arange(coarse_n), tie_rows)
        magnitude = np.abs(points)
        smallest = np.min(np.where(tied, magnitude, np.inf), axis=1)
        tied &= magnitude == smallest[:, None]
        largest = np.max(np.where(tied, points, -np.inf), axis=1)
        best_col[tie_rows] = np.argmax(tied & (points == largest[:, None]), axis=1)
    # The best coarse point and its neighbours, which bracket the refinement.
    neighbours = np.clip(best_col[:, None] + [-1, 0, 1], 0, coarse_n - 1)
    a, best_x, b = scan_points(neighbours, rows).T

    # Evaluate 0 wherever the bracket spans it (duplicate lo elsewhere; harmless).
    spans_zero = (lo_arr < 0.0) & (hi_arr > 0.0)
    if spans_zero.any():
        zero_col = np.where(spans_zero, 0.0, lo_arr)[rows % n_rows]
        zero_values = evaluate(zero_col[:n_rows, None]).reshape(-1)
        take = _better(zero_values, zero_col, best_f, best_x)
        best_x = np.where(take, zero_col, best_x)
        best_f = np.where(take, zero_values, best_f)

    # Golden-section refinement of the best coarse sub-bracket, each objective
    # to the iteration count of its own widest sub-bracket.
    n_iters = [
        min(_MAX_GOLDEN_ITERATIONS, math.ceil(math.log(w / tol) / -math.log(_INV_PHI)))
        if w > tol else 0
        for w in (b - a).reshape(m, n_rows).max(axis=1).tolist()
    ]
    counts = np.repeat(n_iters, n_rows)

    if max(n_iters) > 0:
        live = True if min(n_iters) > 0 else counts > 0
        x1 = b - _INV_PHI * (b - a)
        x2 = a + _INV_PHI * (b - a)
        inner = evaluate_rows(np.stack([x1, x2], axis=1), live)
        f1, f2 = inner[:, 0].copy(), inner[:, 1].copy()
        for x_pt, f_pt in ((x1, f1), (x2, f2)):
            take = live & _better(f_pt, x_pt, best_f, best_x)
            best_x = np.where(take, x_pt, best_x)
            best_f = np.where(take, f_pt, best_f)

        for iteration in range(max(n_iters)):
            live = True if min(n_iters) > iteration else counts > iteration
            take_left = f1 < f2
            a = np.where(take_left, a, x1)
            b = np.where(take_left, x2, b)
            x_keep = np.where(take_left, x1, x2)
            f_keep = np.where(take_left, f1, f2)
            span = b - a
            x_new = np.where(take_left, b - _INV_PHI * span, a + _INV_PHI * span)
            f_new = evaluate_rows(x_new[:, None], live)[:, 0]
            x1 = np.where(take_left, x_new, x_keep)
            f1 = np.where(take_left, f_new, f_keep)
            x2 = np.where(take_left, x_keep, x_new)
            f2 = np.where(take_left, f_keep, f_new)
            take = live & _better(f_new, x_new, best_f, best_x)
            best_x = np.where(take, x_new, best_x)
            best_f = np.where(take, f_new, best_f)

    return best_x.reshape(family + (n_rows,)), best_f.reshape(family + (n_rows,)), evaluations


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

