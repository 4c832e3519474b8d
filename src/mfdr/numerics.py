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
is what the schedule builders use; a single bracket is a one-row call).  It
takes objectives that are unimodal on every bracket, called as
``f(points, rows)`` on the candidates of only the flat bracket rows that
still need a value, and certifies its scan: it evaluates only the columns
its coarse argmin depends on, in cache-sized column blocks.  A 2-D array of
brackets holds a row per objective, each solved bit for bit as alone.
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

#: Column stride of the scan's first pass (``coarse_n - 1`` must be a
#: multiple of it: 256 = 17 * 15 + 1 columns give 18 evenly spaced ones).
_SCAN_STRIDE = 15

#: Least relative gap, over ``|edge| + |least|``, by which the scan's region
#: edges must exceed its least value: far above the few-ulp error of the
#: objective's values.
_CERTIFICATE_MARGIN = 2.0**-40

#: Most points per objective call of the blocked coarse scan: each float64
#: temporary stays within 64 KiB, so a call's temporaries together stay
#: below the size at which the allocator returns freed memory to the system
#: and has to fault it in again on the next call.  ``principal`` also caps
#: the bracket rows of one rate solve at it, which bounds the scan's state.
_SCAN_BLOCK_POINTS = 8192


def _default_tol(lo: np.ndarray, hi: np.ndarray) -> float:
    """Scale-adjusted default tolerance: 1e-9 relative to the bracket scale."""
    scale = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    return 1e-9 * (1.0 + scale)


def _better(f_new: np.ndarray, x_new, f_best: np.ndarray, x_best: np.ndarray) -> np.ndarray:
    """Deterministic comparison: lower value wins; exact ties go to the point
    with smaller magnitude, then to the larger (rightmost) point.  The points
    are compared only when some value ties."""
    better = f_new < f_best
    tied = f_new == f_best
    if tied.any():
        better |= tied & (
            (np.abs(x_new) < np.abs(x_best))
            | ((np.abs(x_new) == np.abs(x_best)) & (x_new > x_best))
        )
    return better


def _certified(edge: np.ndarray, least: np.ndarray) -> np.ndarray:
    """Whether a region edge's value lies above the region's least value by
    more than the certificate margin (False where either is not finite)."""
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, which compares False
        return edge - least > _CERTIFICATE_MARGIN * (np.abs(edge) + np.abs(least))


def minimize_on_grid(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: Sequence[float] | np.ndarray,
    hi: Sequence[float] | np.ndarray,
    tol: float | None = None,
    coarse_n: int = 256,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimize bracketed scalar objectives, one bracket per row, at once.

    The brackets ``[lo, hi]`` are ``(n_rows,)`` arrays, one objective's
    rows, or ``(m, n_rows)`` arrays, ``m`` objectives' rows.  Each objective
    keeps its own golden-section iteration count, so its results are those
    of a call of its own at the same ``tol``, bit for bit.

    The objective ``f`` must be unimodal on every bracket in exact
    arithmetic (no interior local minimum but the least value's), with each
    computed value within a few ulps of the exact one, as for a sum of
    non-negative terms.  It is called as ``f(points, rows)``, several times,
    on column blocks of at most ``_SCAN_BLOCK_POINTS`` points (one column
    when there are more rows): the scan, the point 0, the refinement's two
    inner points, then one column per golden-section iteration.  ``points``
    has shape ``(r, k)`` and ``rows`` holds the ``(r,)`` increasing flat
    indices, in the objective-major order of ``lo.reshape(-1)``, of the
    brackets they are candidates for; it returns values of shape
    ``(r, k)``.  Only rows that still need a value are asked for one.

    Strategy per row: a ``coarse_n``-point uniform scan (plus the point 0
    whenever the bracket spans it, so that magnitude tie-breaking can settle
    flat valleys at exactly zero), then golden-section refinement of the best
    coarse sub-bracket down to width ``tol``. The reported minimizer is the
    best point ever evaluated, with ties broken toward smaller ``|argmin|``.

    Certified scan.  The scan first evaluates every ``_SCAN_STRIDE``-th
    column.  A region starts at the first least of those and grows by one
    stride per round on a side whose edge is neither a bracket end nor above
    the least value found by more than ``_CERTIFICATE_MARGIN`` relative;
    exact plateaus and non-finite values keep it growing, at most to the
    full scan.  Once both edges certify, unimodality puts every column
    outside the region strictly above that least value, so the pick on the
    region is the pick on the full scan, and the results are the full
    scan's, bit for bit.  A round evaluates only the rows whose region
    grows: an interior argmin off a plateau costs 18 + 28 values per row
    instead of 256 (at the default ``coarse_n``), and a row on a plateau
    costs no other row anything.  Golden-section iterations likewise
    evaluate only the rows of objectives that still iterate.

    Parameters
    ----------
    f:
        Vectorized unimodal objective, called as described above.
    lo, hi:
        Bracket endpoints, ``(n_rows,)`` or ``(m, n_rows)``, with
        ``lo < hi`` elementwise.
    tol:
        Absolute bracket-width target; defaults to 1e-9 scaled by the largest
        bracket end of all rows.
    coarse_n:
        Number of coarse-scan points per row: 1 plus a positive multiple
        of ``_SCAN_STRIDE``.

    Returns
    -------
    (argmin, min_value, evaluations):
        Arrays of the brackets' shape and the number of objective values
        computed (only those evaluated, so the scan counts fewer than
        ``coarse_n`` per row).

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
    if coarse_n < 1 + _SCAN_STRIDE or (coarse_n - 1) % _SCAN_STRIDE:
        raise ValueError(f"coarse_n must be 1 plus a positive multiple of {_SCAN_STRIDE}")
    if tol is None:
        tol = _default_tol(lo_arr, hi_arr)
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    # One row per (objective, bracket), objective-major.
    shape, n_rows = lo_arr.shape, lo_arr.shape[-1]
    lo_arr, hi_arr = lo_arr.reshape(-1), hi_arr.reshape(-1)
    every = np.arange(lo_arr.size)
    evaluations = 0

    def evaluate(points: np.ndarray, rows: np.ndarray = every) -> np.ndarray:
        """Values at ``(rows.size, k)`` points of the flat bracket rows ``rows``."""
        nonlocal evaluations
        values = np.asarray(f(points, rows), dtype=float)
        if values.shape != points.shape:
            raise ValueError(
                f"objective returned shape {values.shape} for input shape {points.shape}"
            )
        evaluations += values.size
        if math.isnan(values.min()):  # the least value is NaN if any is
            row, col = np.argwhere(np.isnan(values))[0]
            at = "objective {}, bracket row {}".format(*divmod(rows[row], n_rows))
            raise ArithmeticError(f"objective returned NaN at x={points[row, col]!r} ({at})")
        return values

    # Coarse scan on a uniform grid with exact endpoints, in column blocks.
    last = coarse_n - 1
    fractions = np.linspace(0.0, 1.0, coarse_n)
    width = hi_arr - lo_arr

    def scan_points(frac: np.ndarray, rows: np.ndarray = every) -> np.ndarray:
        """``lo + (hi - lo) * frac`` of each of ``rows``, with ``frac`` shared
        or one row per row (the bracket ends are set by the caller)."""
        sel = slice(None) if rows.size == every.size else rows
        points = width[sel, None] * frac
        points += lo_arr[sel, None]
        return points

    def scan(points: np.ndarray, rows: np.ndarray = every) -> np.ndarray:
        """Values at ``(rows.size, k)`` points, evaluated in column blocks
        and written into one array, so no block is held twice."""
        step = max(1, _SCAN_BLOCK_POINTS // rows.size)
        if step >= points.shape[1]:
            return evaluate(points, rows)
        values = np.empty(points.shape)
        for s in range(0, points.shape[1], step):
            values[:, s : s + step] = evaluate(points[:, s : s + step], rows)
        return values

    def pick(points: np.ndarray, values: np.ndarray):
        """Position, point and value of each row's least scan point,
        lexicographically in (value, |x|, -x), the order of ``_better``, the
        first among equals; only rows with an exact tie need more than
        ``argmin``, and only a call with more least values than rows has one."""
        index = np.arange(values.shape[0])
        pos = np.argmin(values, axis=1)
        least = values[index, pos]
        tied = values == least[:, None]
        if np.count_nonzero(tied) > index.size:
            tie_rows = np.flatnonzero(np.count_nonzero(tied, axis=1) > 1)
            tied, tie_points = tied[tie_rows], points[tie_rows]
            magnitude = np.abs(tie_points)
            smallest = np.min(np.where(tied, magnitude, np.inf), axis=1)
            tied &= magnitude == smallest[:, None]
            largest = np.max(np.where(tied, tie_points, -np.inf), axis=1)
            pos[tie_rows] = np.argmax(tied & (tie_points == largest[:, None]), axis=1)
        return pos, points[index, pos], least

    stride = _SCAN_STRIDE
    first_cols = np.arange(0, coarse_n, stride)  # from 0 to last
    points = scan_points(fractions[first_cols])
    points[:, 0], points[:, -1] = lo_arr, hi_arr
    scan_values = scan(points)
    pos, best_x, best_f = pick(points, scan_values)
    best_col = first_cols[pos]
    del points  # the growth rounds read only the scan's values
    # A region of whole strides from the sparse pick grows by one stride
    # per round on a side whose edge does not yet certify; the running
    # pick over every value evaluated is the pick on the region, since
    # every other column lies above its least value.  A row whose region
    # stops growing never grows again: its edges and least value stay.
    gap_fractions = fractions[:last].reshape(-1, stride)[:, 1:]  # (gaps, stride - 1)
    low = best_col // stride  # region edges, sparse index
    high = low.copy()
    active = every
    while True:
        low_edge, high_edge, least = low[active], high[active], best_f[active]
        left = (low_edge > 0) & ~_certified(scan_values[active, low_edge], least)
        right = (high_edge < first_cols.size - 1) & ~_certified(
            scan_values[active, high_edge], least
        )
        grow = left | right
        if not grow.all():
            active, low_edge, high_edge, left, right = (
                v[grow] for v in (active, low_edge, high_edge, left, right)
            )
            if not active.size:
                break
        # The stride each growing row adds, on its left side first.
        gap = np.where(left, low_edge - 1, high_edge)
        low[active] = low_edge - left
        high[active] = high_edge + (right & ~left)
        points = scan_points(gap_fractions[gap], active)
        pos, x_new, f_new = pick(points, scan(points, active))
        col = stride * gap + 1 + pos
        f_old, x_old, col_old = best_f[active], best_x[active], best_col[active]
        take = _better(f_new, x_new, f_old, x_old) | (
            (f_new == f_old) & (x_new == x_old) & (col < col_old)
        )
        best_col[active] = np.where(take, col, col_old)
        best_f[active] = np.where(take, f_new, f_old)
        best_x[active] = np.where(take, x_new, x_old)
    # The best coarse point and its neighbours, which bracket the refinement.
    neighbours = np.clip(best_col[:, None] + [-1, 0, 1], 0, last)
    points = scan_points(fractions[neighbours])
    np.copyto(points, lo_arr[:, None], where=neighbours == 0)
    np.copyto(points, hi_arr[:, None], where=neighbours == last)
    a, best_x, b = np.ascontiguousarray(points.T)
    # Evaluate 0 wherever the bracket spans it.
    spans_zero = np.flatnonzero((lo_arr < 0.0) & (hi_arr > 0.0))
    if spans_zero.size:
        zero_values = evaluate(np.zeros((spans_zero.size, 1)), spans_zero)[:, 0]
        x_old, f_old = best_x[spans_zero], best_f[spans_zero]
        take = _better(zero_values, 0.0, f_old, x_old)
        best_x[spans_zero] = np.where(take, 0.0, x_old)
        best_f[spans_zero] = np.where(take, zero_values, f_old)

    # Golden-section refinement of the best coarse sub-bracket, each objective
    # to the iteration count of its own widest sub-bracket.
    n_iters = [
        min(_MAX_GOLDEN_ITERATIONS, math.ceil(math.log(w / tol) / -math.log(_INV_PHI)))
        if w > tol else 0
        for w in (b - a).reshape(-1, n_rows).max(axis=1).tolist()
    ]
    counts = np.repeat(n_iters, n_rows)
    live = every if min(n_iters) > 0 else np.flatnonzero(counts > 0)
    if live.size:
        # The live rows' state, compacted whenever an objective finishes.
        if live.size != every.size:
            a, b = a[live], b[live]
        step = _INV_PHI * (b - a)
        x1, x2 = b - step, a + step
        inner = scan(np.stack([x1, x2], axis=1), live)
        f1, f2 = inner[:, 0].copy(), inner[:, 1].copy()
        x_best, f_best = best_x[live], best_f[live]
        for x_pt, f_pt in ((x1, f1), (x2, f2)):
            take = _better(f_pt, x_pt, f_best, x_best)
            x_best, f_best = np.where(take, x_pt, x_best), np.where(take, f_pt, f_best)

        ends = set(n_iters)
        left = np.empty(live.size, dtype=bool)
        for iteration in range(max(n_iters)):
            if iteration in ends:  # some objectives are done: drop their rows
                best_x[live], best_f[live] = x_best, f_best
                keep = counts[live] > iteration
                live = live[keep]
                a, b, x1, x2, f1, f2, x_best, f_best, left = (
                    v[keep] for v in (a, b, x1, x2, f1, f2, x_best, f_best, left)
                )
            np.less(f1, f2, out=left)
            a = np.where(left, a, x1)
            b = np.where(left, x2, b)
            step = _INV_PHI * (b - a)
            x_new = np.where(left, b - step, a + step)
            f_new = evaluate(x_new[:, None], live)[:, 0]
            # The inner point kept moves to the slot the new one does not take.
            x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
            f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
            take = _better(f_new, x_new, f_best, x_best)
            x_best, f_best = np.where(take, x_new, x_best), np.where(take, f_new, f_best)
        best_x[live], best_f[live] = x_best, f_best

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

