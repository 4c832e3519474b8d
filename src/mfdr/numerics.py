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
A 2-D array of brackets holds a row per objective, each solved bit for bit
as alone; the objective always gets points of the brackets' shape plus one
axis of candidates.  An objective declared :func:`unimodal` gets a
certified scan: it evaluates only the columns its coarse argmin depends on,
with the same results.
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
    "unimodal",
]

#: Inverse golden ratio 1/phi, the golden-section shrink factor per iteration.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Hard cap on golden-section iterations (reached only for absurdly small tol).
_MAX_GOLDEN_ITERATIONS = 200

#: Column stride of a certified scan's first pass (``coarse_n - 1`` must be a
#: multiple of it: 256 = 17 * 15 + 1 columns give 18 evenly spaced ones).
_SCAN_STRIDE = 15

#: Least relative gap, over ``|edge| + |least|``, by which a certified scan's
#: region edges must exceed its least value: far above the few-ulp error of
#: an objective declared :func:`unimodal`.
_CERTIFICATE_MARGIN = 2.0**-40

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


def _certified(edge: np.ndarray, least: np.ndarray) -> np.ndarray:
    """Whether a region edge's value lies above the region's least value by
    more than the certificate margin (False where either is not finite)."""
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, which compares False
        return edge - least > _CERTIFICATE_MARGIN * (np.abs(edge) + np.abs(least))


def unimodal(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Declare ``f`` unimodal for :func:`minimize_on_grid` and return it.

    The declaration promises that, on every bracket, the objective is
    unimodal in exact arithmetic (no interior local minimum but the least
    value's) and that each computed value is within a few ulps of the exact
    one, as for a sum of non-negative terms.  Its scan may then certify the
    coarse argmin from a few columns (see :func:`minimize_on_grid`).
    """
    f.unimodal = True
    return f


def minimize_on_grid(
    f: Callable[[np.ndarray], np.ndarray],
    lo: Sequence[float] | np.ndarray,
    hi: Sequence[float] | np.ndarray,
    tol: float | None = None,
    coarse_n: int = 256,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimize bracketed scalar objectives, one bracket per row, at once.

    The brackets ``[lo, hi]`` are ``(n_rows,)`` arrays, one objective's
    rows, or ``(m, n_rows)`` arrays, ``m`` objectives' rows.  The objective
    ``f`` must accept points of shape ``lo.shape + (k,)`` whose ``[..., j, :]``
    are candidates for bracket ``[..., j]``, and return values of that
    shape.  It is called several times per scan, on column blocks of at
    most ``_SCAN_BLOCK_POINTS`` points (one column when there are more
    brackets).  Each objective keeps its own golden-section iteration count,
    so its results are those of a call of its own at the same ``tol``, bit
    for bit.

    Strategy per row: a ``coarse_n``-point uniform scan (plus the point 0
    whenever the bracket spans it, so that magnitude tie-breaking can settle
    flat valleys at exactly zero), then golden-section refinement of the best
    coarse sub-bracket down to width ``tol``. The reported minimizer is the
    best point ever evaluated, with ties broken toward smaller ``|argmin|``.

    Certified scan.  For an objective declared with :func:`unimodal` (and
    ``coarse_n - 1`` a multiple of ``_SCAN_STRIDE``), the scan first
    evaluates every ``_SCAN_STRIDE``-th column.  A region starts at the
    first least of those and grows by one stride per round on a side whose
    edge is neither a bracket end nor above the least value found by more
    than ``_CERTIFICATE_MARGIN`` relative; exact plateaus and non-finite
    values keep it growing, at most to the full scan.  Once both edges
    certify, unimodality puts every column outside the region strictly above
    that least value, so the pick on the region is the pick on the full
    scan, and the results are the full scan's, bit for bit.  An interior
    argmin off a plateau costs 18 + 28 values per row instead of 256 (at the
    default ``coarse_n``); every round evaluates one stride on every row, so
    rows that are done spend theirs on the first stride, for nothing.

    Parameters
    ----------
    f:
        Vectorized objective, shape-preserving as described above.
    lo, hi:
        Bracket endpoints, ``(n_rows,)`` or ``(m, n_rows)``, with
        ``lo < hi`` elementwise.
    tol:
        Absolute bracket-width target; defaults to 1e-9 scaled by the largest
        bracket end of all rows.
    coarse_n:
        Number of coarse-scan points per row (>= 3).

    Returns
    -------
    (argmin, min_value, evaluations):
        Arrays of the brackets' shape and the number of objective values
        computed (only those evaluated, so a certified scan counts fewer
        than ``coarse_n`` per row).

    Raises
    ------
    ValueError:
        On malformed brackets or parameters.
    ArithmeticError:
        If the objective returns NaN anywhere (reported with its location).
    """
    lo_arr = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_arr = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo_arr.shape != hi_arr.shape or lo_arr.ndim > 2 or lo_arr.size == 0:
        raise ValueError("lo and hi must be non-empty 1-D or 2-D arrays of equal shape")
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

    # One row per (objective, bracket), objective-major.
    shape, n_rows = lo_arr.shape, lo_arr.shape[-1]
    lo_arr, hi_arr = lo_arr.reshape(-1), hi_arr.reshape(-1)
    rows = np.arange(lo_arr.size)
    evaluations = 0

    def evaluate(points: np.ndarray, live=True) -> np.ndarray:
        """Values at ``(rows, k)`` points; rows not ``live`` (True while every
        objective still runs) at their best point instead."""
        nonlocal evaluations
        if live is not True:
            points = np.where(live[:, None], points, best_x[:, None])
        given = points.reshape(shape + (-1,))
        values = np.asarray(f(given), dtype=float)
        if values.shape != given.shape:
            raise ValueError(
                f"objective returned shape {values.shape} for input shape {given.shape}"
            )
        values = values.reshape(points.shape)
        if np.isnan(values).any():
            row, col = np.argwhere(np.isnan(values))[0]
            at = "objective {}, bracket row {}".format(*divmod(row, n_rows))
            raise ArithmeticError(f"objective returned NaN at x={points[row, col]!r} ({at})")
        evaluations += values.size
        return values

    # Coarse scan on a uniform grid with exact endpoints, in column blocks.
    last = coarse_n - 1
    fractions = np.linspace(0.0, 1.0, coarse_n)
    width = hi_arr - lo_arr

    def scan_points(cols: np.ndarray) -> np.ndarray:
        """``lo + (hi - lo) * fraction`` of each row in columns ``cols``
        (shared, or one row per row), with the exact bracket ends in columns
        0 and ``last``."""
        points = width[:, None] * fractions[cols]
        points += lo_arr[:, None]
        if cols.min() == 0:  # a region round holds no end column: no masks
            np.copyto(points, lo_arr[:, None], where=cols == 0)
        if cols.max() == last:
            np.copyto(points, hi_arr[:, None], where=cols == last)
        return points

    def scan(points: np.ndarray) -> np.ndarray:
        """Values at ``(rows, k)`` points, evaluated in column blocks."""
        step = max(1, _SCAN_BLOCK_POINTS // rows.size)
        starts = range(0, points.shape[1], step)
        return np.concatenate([evaluate(points[:, s : s + step]) for s in starts], axis=1)

    def pick(cols: np.ndarray, points: np.ndarray, values: np.ndarray):
        """Column, point and value of each row's least scan point, with
        ``cols`` shared or one row per row, lexicographically in
        (value, |x|, -x), the order of ``_better``, the first among equals;
        only rows with an exact tie need more than ``argmin``."""
        pos = np.argmin(values, axis=1)
        least = values[rows, pos]
        tied = values == least[:, None]
        tie_rows = np.flatnonzero(np.count_nonzero(tied, axis=1) > 1)
        if tie_rows.size:
            tied, tie_points = tied[tie_rows], points[tie_rows]
            magnitude = np.abs(tie_points)
            smallest = np.min(np.where(tied, magnitude, np.inf), axis=1)
            tied &= magnitude == smallest[:, None]
            largest = np.max(np.where(tied, tie_points, -np.inf), axis=1)
            pos[tie_rows] = np.argmax(tied & (tie_points == largest[:, None]), axis=1)
        return np.broadcast_to(cols, values.shape)[rows, pos], points[rows, pos], least

    stride = _SCAN_STRIDE
    certify = getattr(f, "unimodal", False) is True and last % stride == 0
    first_cols = np.arange(0, coarse_n, stride if certify else 1)
    points = scan_points(first_cols)
    scan_values = scan(points)
    best_col, best_x, best_f = pick(first_cols, points, scan_values)
    if certify:
        # A region of whole strides from the sparse pick grows by one stride
        # per round on a side whose edge does not yet certify; the running
        # pick over every value evaluated is the pick on the region, since
        # every other column lies above its least value.
        low = high = best_col // stride  # region edges, sparse index
        while True:
            left = (low > 0) & ~_certified(scan_values[rows, low], best_f)
            right = (high < first_cols.size - 1) & ~_certified(scan_values[rows, high], best_f)
            grow = left | right
            if not grow.any():
                break
            # The stride each growing row adds; rows that are done take stride 0.
            gap = np.where(left, low - 1, np.where(right, high, 0))
            low, high = low - left, high + (right & ~left)
            cols = stride * gap[:, None] + np.arange(1, stride)
            points = scan_points(cols)
            col, x_new, f_new = pick(cols, points, scan(points))
            take = grow & (
                _better(f_new, x_new, best_f, best_x)
                | ((f_new == best_f) & (x_new == best_x) & (col < best_col))
            )
            best_col = np.where(take, col, best_col)
            best_f = np.where(take, f_new, best_f)
            best_x = np.where(take, x_new, best_x)
    # The best coarse point and its neighbours, which bracket the refinement.
    neighbours = np.clip(best_col[:, None] + [-1, 0, 1], 0, last)
    a, best_x, b = scan_points(neighbours).T
    # Evaluate 0 wherever the bracket spans it (duplicate lo elsewhere; harmless).
    spans_zero = (lo_arr < 0.0) & (hi_arr > 0.0)
    if spans_zero.any():
        zero_col = np.where(spans_zero, 0.0, lo_arr)
        zero_values = evaluate(zero_col[:, None])[:, 0]
        take = _better(zero_values, zero_col, best_f, best_x)
        best_x = np.where(take, zero_col, best_x)
        best_f = np.where(take, zero_values, best_f)

    # Golden-section refinement of the best coarse sub-bracket, each objective
    # to the iteration count of its own widest sub-bracket.
    n_iters = [
        min(_MAX_GOLDEN_ITERATIONS, math.ceil(math.log(w / tol) / -math.log(_INV_PHI)))
        if w > tol else 0
        for w in (b - a).reshape(-1, n_rows).max(axis=1).tolist()
    ]
    counts = np.repeat(n_iters, n_rows)

    if max(n_iters) > 0:
        live = True if min(n_iters) > 0 else counts > 0
        x1 = b - _INV_PHI * (b - a)
        x2 = a + _INV_PHI * (b - a)
        inner = evaluate(np.stack([x1, x2], axis=1), live)
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
            f_new = evaluate(x_new[:, None], live)[:, 0]
            x1 = np.where(take_left, x_new, x_keep)
            f1 = np.where(take_left, f_new, f_keep)
            x2 = np.where(take_left, x_keep, x_new)
            f2 = np.where(take_left, f_keep, f_new)
            take = live & _better(f_new, x_new, best_f, best_x)
            best_x = np.where(take, x_new, best_x)
            best_f = np.where(take, f_new, best_f)

    return best_x.reshape(shape), best_f.reshape(shape), evaluations


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
    ``n`` even and finite bounds ``lo <= hi``. Exact for polynomials up to
    degree 3. The weighted sum uses numpy pairwise summation, so the result
    is reproducible bit-for-bit.
    """
    samples = np.asarray(values, dtype=float)
    if samples.ndim != 1:
        raise ValueError("values must be one-dimensional")
    n_intervals = samples.shape[0] - 1
    if n_intervals < 2 or n_intervals % 2 != 0:
        raise ValueError("need an even number of intervals >= 2 (odd sample count >= 3)")
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if hi < lo:
        raise ValueError("need lo <= hi")
    if hi == lo:
        return 0.0
    weights = np.ones(samples.shape[0])
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (hi - lo) / n_intervals
    return float(h / 3.0 * np.sum(weights * samples))

