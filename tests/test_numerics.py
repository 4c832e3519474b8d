"""Oracle tests for the minimization and quadrature kernels."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_principal import hbar_classical

from mfdr import numerics, principal
from mfdr.model import calibrated_defaults, validate
from mfdr.numerics import integrate_samples, minimize_on_grid
from mfdr.principal import (
    _brackets,
    _charge,
    _common_noise_charge,
    _minimize_rate,
    hbar,
)


def minimize_one(f, lo, hi, **kwargs):
    """One-row ``minimize_on_grid`` call: ``(argmin, min_value, evaluations)``."""
    argmin, min_value, evaluations = minimize_on_grid(f, [lo], [hi], **kwargs)
    return float(argmin[0]), float(min_value[0]), evaluations


def one_shot_minimize(f, lo, hi, tol=None, coarse_n=256):
    """Reference for ``minimize_on_grid`` on valid input: the same steps,
    but the whole coarse scan is one objective call on every column and the
    lexicographic pick runs over every row."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if tol is None:
        tol = numerics._default_tol(lo, hi)
    rows = np.arange(len(lo))
    evaluations = 0

    def evaluate(points):
        nonlocal evaluations
        evaluations += points.size
        return f(points, rows)

    fractions = np.linspace(0.0, 1.0, coarse_n)
    scan = lo[:, None] + (hi - lo)[:, None] * fractions[None, :]
    scan[:, 0] = lo
    scan[:, -1] = hi
    scan_values = evaluate(scan)
    tied = scan_values == np.min(scan_values, axis=1)[:, None]
    magnitude = np.abs(scan)
    smallest = np.min(np.where(tied, magnitude, np.inf), axis=1)
    tied &= magnitude == smallest[:, None]
    largest = np.max(np.where(tied, scan, -np.inf), axis=1)
    best_col = np.argmax(tied & (scan == largest[:, None]), axis=1)
    best_x, best_f = scan[rows, best_col], scan_values[rows, best_col]

    def keep_better(x_new, f_new):
        nonlocal best_x, best_f
        take = numerics._better(f_new, x_new, best_f, best_x)
        best_x, best_f = np.where(take, x_new, best_x), np.where(take, f_new, best_f)

    spans_zero = (lo < 0.0) & (hi > 0.0)
    if spans_zero.any():
        zero_col = np.where(spans_zero, 0.0, lo)
        keep_better(zero_col, evaluate(zero_col[:, None])[:, 0])
    a = scan[rows, np.maximum(best_col - 1, 0)]
    b = scan[rows, np.minimum(best_col + 1, coarse_n - 1)]
    width = float(np.max(b - a))
    n_iter = 0
    if width > tol:
        n_iter = min(
            numerics._MAX_GOLDEN_ITERATIONS,
            int(math.ceil(math.log(width / tol) / -math.log(numerics._INV_PHI))),
        )
    if n_iter > 0:
        x1 = b - numerics._INV_PHI * (b - a)
        x2 = a + numerics._INV_PHI * (b - a)
        inner = evaluate(np.stack([x1, x2], axis=1))
        f1, f2 = inner[:, 0].copy(), inner[:, 1].copy()
        keep_better(x1, f1)
        keep_better(x2, f2)
        for _ in range(n_iter):
            left = f1 < f2
            a, b = np.where(left, a, x1), np.where(left, x2, b)
            x_keep, f_keep = np.where(left, x1, x2), np.where(left, f1, f2)
            span = b - a
            x_new = np.where(
                left, b - numerics._INV_PHI * span, a + numerics._INV_PHI * span
            )
            f_new = evaluate(x_new[:, None])[:, 0]
            x1, f1 = np.where(left, x_new, x_keep), np.where(left, f_new, f_keep)
            x2, f2 = np.where(left, x_keep, x_new), np.where(left, f_keep, f_new)
            keep_better(x_new, f_new)
    return best_x, best_f, evaluations


def bits(*arrays):
    """Dtype, shape and raw bytes: equal only if bit for bit equal."""
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def simpson(f, lo, hi, n_intervals):
    """``integrate_samples`` of the vectorized ``f`` sampled at uniform nodes."""
    return integrate_samples(f(np.linspace(lo, hi, n_intervals + 1)), lo, hi)


class TestMinimizeScalar:
    """Scalar problems: one bracket, solved as one-row minimize_on_grid calls."""

    def test_exact_quadratic(self):
        argmin, min_value, _ = minimize_one(lambda z, rows: (z + 1.0) ** 2, -2.0, 0.0)
        assert abs(argmin - (-1.0)) <= 1e-8
        assert min_value <= 1e-15
        assert -2.0 <= argmin <= 0.0

    def test_kink_at_zero_is_found_exactly(self):
        argmin, min_value, _ = minimize_one(lambda z, rows: np.abs(z), -1.0, 1.0)
        assert argmin == 0.0
        assert min_value == 0.0

    def test_flat_valley_ties_resolve_to_zero(self):
        # Constant objective: every point ties; magnitude tie-breaking must
        # settle on 0 whenever the bracket spans it.
        argmin, min_value, _ = minimize_one(
            lambda z, rows: np.full_like(z, 7.5), -3.0, 5.0
        )
        assert argmin == 0.0
        assert min_value == 7.5

    def test_flat_valley_without_zero_prefers_smallest_magnitude(self):
        argmin, _, _ = minimize_one(lambda z, rows: np.ones_like(z), 1.0, 3.0)
        assert argmin == 1.0

    @pytest.mark.parametrize("bound, coarse_n", [(15.0, 16), (255.0, 256)])
    def test_exact_symmetric_scan_ties_go_to_the_larger_point(self, bound, coarse_n):
        # The scan's points are the odd integers in [-bound, bound], so -1
        # and +1 are neighbours on the plateau |x| <= 1: equal values and
        # magnitudes, so the scan picks +1 and the refinement brackets
        # [-1, 3], whose inner points are positive.  The point 0 ties on the
        # plateau with a smaller magnitude and is the minimizer.
        inner = []

        def f(x, rows):
            if x.shape[1] == 2:
                inner.append(x.copy())
            return np.maximum(np.abs(x), 1.0)

        argmin, min_value, _ = minimize_one(f, -bound, bound, coarse_n=coarse_n)
        assert argmin == 0.0 and min_value == 1.0
        points = inner[-1]  # at 16 columns the scan's first pass has two too
        assert (points > 0.0).all() and (points < 3.0).all()

    def test_min_value_not_above_coarse_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            # A convex parabola plus a kink: unimodal, with a random minimizer.
            curvature, kink = np.abs(rng.normal(size=2))
            center, corner, offset = rng.normal(size=3)

            def f(z, rows=None, c=(curvature, kink, center, corner, offset)):
                return c[0] * (z - c[2]) ** 2 + c[1] * np.abs(z - c[3]) + c[4]

            lo, hi = sorted(rng.normal(scale=3.0, size=2))
            if hi - lo < 1e-6:
                continue
            argmin, min_value, _ = minimize_one(f, lo, hi)
            grid_min = float(np.min(f(np.linspace(lo, hi, 256))))
            assert min_value <= grid_min + 1e-15
            assert lo <= argmin <= hi

    def test_argmin_within_tol_of_true_minimizer(self):
        # Zero minimum value keeps nearby objective values distinguishable in
        # float64, so the bracket really can be tightened to the requested tol.
        target = -0.7314159
        argmin, _, _ = minimize_one(
            lambda z, rows: (z - target) ** 2, -2.0, 2.0, tol=1e-10
        )
        assert abs(argmin - target) <= 1e-9

    def test_nan_aborts_with_location(self):
        def bad(z, rows):
            return np.where(z > 0.5, math.nan, z**2)

        with pytest.raises(ArithmeticError, match="NaN at x="):
            minimize_one(bad, -1.0, 1.0)

    def test_deterministic_bitwise(self):
        def f(z, rows):
            return np.exp(3.0 * z) + np.exp(-z) + 0.1 * z**2

        first = minimize_one(f, -4.0, 4.0)
        second = minimize_one(f, -4.0, 4.0)
        assert first == second

    def test_invalid_inputs(self):
        def f(z, rows):
            return z

        with pytest.raises(ValueError):
            minimize_one(f, 1.0, 1.0)
        with pytest.raises(ValueError):
            minimize_one(f, 2.0, 1.0)
        # The scan's first pass takes every 15th column, from both ends.
        for coarse_n in (1, 2, 3, 15, 30, 255, 257):
            with pytest.raises(ValueError, match="coarse_n must be 1 plus"):
                minimize_one(f, 0.0, 1.0, coarse_n=coarse_n)
        with pytest.raises(ValueError):
            minimize_one(f, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            minimize_on_grid(f, [], [], tol=1e-3)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            minimize_on_grid(f, np.zeros((1, 1, 1)), np.ones((1, 1, 1)))

    @settings(max_examples=40, deadline=None)
    @given(
        center=st.floats(-5.0, 5.0),
        curvature=st.floats(0.1, 50.0),
        offset=st.floats(-10.0, 10.0),
    )
    def test_random_parabolas(self, center, curvature, offset):
        lo, hi = center - 2.0, center + 3.0
        argmin, min_value, _ = minimize_one(
            lambda z, rows: curvature * (z - center) ** 2 + offset, lo, hi
        )
        assert abs(argmin - center) <= 1e-6
        assert min_value <= offset + curvature * 1e-12


class TestMinimizeOnGrid:
    def test_matches_scalar_rowwise(self):
        # Same explicit tol and equal bracket widths make the batched search
        # follow the exact same point sequence as one-row calls.
        centers = np.array([-1.5, 0.0, 0.25, 2.0])
        lo = centers - 1.0
        hi = centers + 1.3

        def batch(points, rows):
            return (points - centers[rows, None]) ** 2

        argmin, min_value, _ = minimize_on_grid(batch, lo, hi, tol=1e-9)
        for j, c in enumerate(centers):
            one_argmin, one_min, _ = minimize_one(
                lambda z, rows, c=c: (z - c) ** 2, lo[j], hi[j], tol=1e-9
            )
            assert argmin[j] == one_argmin
            assert min_value[j] == one_min

    def test_coarse_pick_is_lexicographic(self):
        # A tol above every bracket width leaves only the scan (and 0) to
        # pick from; plateaus of whole quarters make exact ties common, and
        # the row centred on 0 ties symmetric points.  The pick is the least
        # point in (value, |x|, -x) order, the first one among equals.
        lo = np.array([-3.0, -2.0, 0.5, -1.0, -1.0])
        hi = np.array([3.0, 1.0, 2.5, -0.25, 1.0])
        centers = np.array([0.0, -0.6, 1.3, -0.6, 0.35])

        def value(points, center):
            return np.floor(4.0 * np.abs(points - center)) / 4.0

        def f(points, rows):
            return value(points, centers[rows, None])

        argmin, min_value, _ = minimize_on_grid(f, lo, hi, tol=10.0, coarse_n=31)
        fractions = np.linspace(0.0, 1.0, 31)
        for j in range(len(lo)):
            scan = lo[j] + (hi[j] - lo[j]) * fractions
            scan[0], scan[-1] = lo[j], hi[j]
            points = list(scan) + ([0.0] if lo[j] < 0.0 < hi[j] else [])
            best = min(points, key=lambda x: (float(value(x, centers[j])), abs(x), -x))
            assert argmin[j] == best
            assert min_value[j] == float(value(best, centers[j]))

    @pytest.mark.parametrize("n_rows", [3, 64, 1025])
    @pytest.mark.parametrize("shape", ["plateau", "kink", "flat_zero", "symmetric"])
    @pytest.mark.parametrize("tol", [None, 1e3])
    def test_blocked_scan_matches_one_shot(self, n_rows, shape, tol):
        # Only +, -, *, abs, max and rounding, so the values are the same on
        # every platform; the plateaus and symmetric shapes tie exactly.
        rng = np.random.default_rng(n_rows)
        center = np.round(rng.uniform(-3.0, 3.0, n_rows), 2)
        lo = -np.round(rng.uniform(-1.0, 4.0, n_rows), 3)
        hi = lo + np.round(rng.uniform(0.5, 6.0, n_rows), 3)
        lo[::3], hi[::3] = -2.0, 2.0  # symmetric brackets that span 0

        def plateau(x, rows):
            offset = x - center[rows, None]
            return np.floor(4.0 * offset * offset)

        objectives = {
            "plateau": plateau,
            "kink": lambda x, rows: np.abs(x - center[rows, None]) * 3.0 + 0.25 * x * x,
            "flat_zero": lambda x, rows: np.round(2.0 * np.abs(x)),
            "symmetric": lambda x, rows: np.maximum(x * x - 1.0, 0.0),
        }
        sizes = []

        def spy(points, rows):
            sizes.append(points.size)
            return objectives[shape](points, rows)

        argmin, minima, evaluations = minimize_on_grid(spy, lo, hi, tol=tol)
        assert max(sizes) <= numerics._SCAN_BLOCK_POINTS
        assert sum(sizes) == evaluations
        expected = one_shot_minimize(objectives[shape], lo, hi, tol=tol)
        assert bits(argmin, minima) == bits(*expected[:2])
        assert evaluations <= expected[2]

    @pytest.mark.parametrize("objective", [hbar, hbar_classical])
    def test_rate_solve_matches_one_shot(self, objective):
        params = calibrated_defaults()
        t = numerics._uniform_grid(params.horizon, 1024)
        charge = (0.0, 0.0) if objective is hbar else _charge("classical", "cara", params)
        (z_star,), (minima,) = _minimize_rate(t, params, [(params.sigma, charge)])
        lo, hi = _brackets(t, params)
        expected = one_shot_minimize(
            lambda x, rows: objective(t[rows, None], x, params), lo, hi
        )
        assert bits(z_star, minima) == bits(*expected[:2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            minimize_on_grid(lambda p, rows: p[:, :1], [0.0], [1.0])

    def test_nan_reports_row(self):
        def batch(points, rows):
            out = points**2
            out[points > 0.9] = np.nan
            return out

        with pytest.raises(ArithmeticError, match="bracket row"):
            minimize_on_grid(batch, [-1.0, -1.0], [0.5, 1.0])


def family_of(objectives, n_rows):
    """The objective of 2-D brackets of ``n_rows`` columns made of
    single-objective ones: flat row ``r`` is objective ``r // n_rows``'s
    bracket row ``r % n_rows``."""

    def f(points, rows):
        member, row = np.divmod(rows, n_rows)
        values = np.empty_like(points)
        for i, g in enumerate(objectives):
            take = member == i
            if take.any():
                values[take] = g(points[take], row[take])
        return values

    return f


def golden_iterations(f, lo, hi):
    """Golden-section iterations of a single-objective call at the default
    tol: its one-column calls after the call on the two inner points."""
    widths = []

    def spy(points, rows):
        widths.append(points.shape[-1])
        return f(points, rows)

    minimize_on_grid(spy, lo, hi)
    return widths[::-1].index(2)


class TestObjectiveFamilies:
    """2-D brackets give each objective the bits of a call of its own."""

    def assert_family_matches_alone(self, objectives, lo, hi, tol=None):
        """``lo`` and ``hi``: ``(m, n)`` brackets, or ``(n,)`` ones shared.
        Each objective alone gets the call's tol, whose default scales with
        every objective's brackets."""
        lo, hi = (np.broadcast_to(b, (len(objectives), np.shape(b)[-1])) for b in (lo, hi))
        sizes = []
        family = family_of(objectives, lo.shape[1])

        def spy(points, rows):
            assert points.shape == (rows.size, points.shape[1])
            assert (np.diff(rows) > 0).all() and 0 <= rows[0] and rows[-1] < lo.size
            sizes.append(points.size)
            return family(points, rows)

        argmin, minima, evaluations = minimize_on_grid(spy, lo, hi, tol=tol)
        assert argmin.shape == minima.shape == lo.shape
        tol = numerics._default_tol(lo, hi) if tol is None else tol
        alone_evaluations = 0
        for i, g in enumerate(objectives):
            alone = one_shot_minimize(g, lo[i], hi[i], tol=tol)
            assert bits(argmin[i], minima[i]) == bits(*alone[:2])
            alone_evaluations += alone[2]
        # Every call, scan block or not, holds at most the budget of values.
        assert max(sizes) <= numerics._SCAN_BLOCK_POINTS
        assert sum(sizes) == evaluations <= alone_evaluations

    @pytest.mark.parametrize("n_rows", [3, 64, 1025])
    @pytest.mark.parametrize("tol", [None, 1e-3, 1e3])
    def test_matches_separate_calls(self, n_rows, tol):
        # Plateaus and symmetric shapes tie exactly; every third bracket
        # spans 0.  The last two objectives' best coarse point is the bracket
        # edge, so their sub-bracket is half as wide and they need fewer
        # golden-section iterations than the others; more would move the
        # last one's minimum, which lies inside its first scan step.  The
        # objectives share one row of brackets, then each has a row of its own.
        rng = np.random.default_rng(n_rows)
        center = np.round(rng.uniform(-3.0, 3.0, n_rows), 2)[:, None]
        for bracket_rows in (1, 6):
            lo = -np.round(rng.uniform(-1.0, 4.0, (bracket_rows, n_rows)), 3)
            hi = lo + np.round(rng.uniform(0.5, 6.0, lo.shape), 3)
            lo[:, ::3], hi[:, ::3] = -2.0, 2.0
            lo, hi = np.broadcast_to(lo, (6, n_rows)), np.broadcast_to(hi, (6, n_rows))
            near_lo = (lo[5] + 0.3 * (hi[5] - lo[5]) / 255.0)[:, None]
            objectives = [
                lambda x, r: np.floor(4.0 * (x - center[r]) * (x - center[r])),
                lambda x, r: np.abs(x - center[r]) * 3.0 + 0.25 * x * x,
                lambda x, r: np.round(2.0 * np.abs(x)),
                lambda x, r: np.maximum(x * x - 1.0, 0.0),
                lambda x, r: 2.0 * x,
                lambda x, r, near_lo=near_lo: (x - near_lo[r]) ** 2,
            ]
            if tol is None:
                counts = {golden_iterations(g, *b) for g, *b in zip(objectives, lo, hi)}
                assert len(counts) > 1
            self.assert_family_matches_alone(objectives, lo, hi, tol=tol)

    def test_one_objective_family(self):
        lo, hi = np.array([[-1.0, -2.0]]), np.array([[1.0, 0.5]])
        self.assert_family_matches_alone([lambda x, r: (x - 0.3) ** 2], lo, hi)

    def test_objective_done_before_the_golden_section(self):
        # Objective 0's brackets are no wider than tol, so it needs no
        # golden-section iteration and the live rows are compacted to
        # objective 1's before the first one.
        lo = np.array([[0.2, -0.4, 1.0], [-2.0, -1.0, 0.5]])
        hi = lo + [[5e-4, 1e-3, 2e-4], [4.0, 3.0, 2.5]]
        center = np.array([0.3, -0.1, 1.7])[:, None]
        objectives = [
            lambda x, r: (x - center[r]) ** 2,
            lambda x, r: np.abs(x - center[r]) + 0.5 * (x - center[r]) ** 2,
        ]
        self.assert_family_matches_alone(objectives, lo, hi, tol=1e-3)

    def test_rate_kinds_with_different_iteration_counts(self):
        # At variance share 1 the new and classical rates need 32 and 33
        # golden-section iterations; the one that is done first must freeze.
        params = calibrated_defaults(1.0)
        t = numerics._uniform_grid(params.horizon, 1024)[:, None]
        lo, hi = _brackets(t[:, 0], params)
        objectives = [
            lambda x, r: hbar(t[r], x, params),
            lambda x, r: hbar_classical(t[r], x, params),
        ]
        assert [golden_iterations(g, lo, hi) for g in objectives] == [32, 33]
        self.assert_family_matches_alone(objectives, lo, hi)

    def test_nan_names_objective_and_row(self):
        def bad(points, rows):
            out = points**2
            out[(rows >= 2)[:, None] & (points > 0.9)] = np.nan  # objective 1 only
            return out

        lo, hi = np.full((2, 2), -1.0), np.array([[0.5, 1.0]] * 2)
        with pytest.raises(ArithmeticError, match=r"objective 1, bracket row 1\)"):
            minimize_on_grid(bad, lo, hi)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            minimize_on_grid(lambda p, rows: np.empty((0,) + p.shape), [0.0], [1.0])
        with pytest.raises(ValueError, match="non-empty"):
            minimize_on_grid(lambda p, rows: p, np.empty((0, 1)), np.empty((0, 1)))


CAL = calibrated_defaults()

#: Rate problems of every shape the sweep meets: exact plateaus (share 1),
#: rewarded deviations, binding and loose drift caps, several usages.
RATE_CASES = {
    "defaults": CAL,
    "share_0": calibrated_defaults(0.0),
    "share_1": calibrated_defaults(1.0),
    "delta_plus_20": dataclasses.replace(CAL, delta=20.0),
    "a_max_1": dataclasses.replace(CAL, a_max=1.0),
    "a_max_50": dataclasses.replace(CAL, a_max=50.0),
    "multi": dataclasses.replace(
        CAL,
        d=3,
        rho=(1e-4, 2.5e-4, 5e-5),
        lambda_=(0.01, 0.05, 0.02),
        eta=(1.0, 2.0, 1.5),
        sigma=(0.03, 0.05, 0.02),
    ),
}


def solve_rate_family(params, grid):
    """``_minimize_rate`` of the new and the classical rate of ``params``:
    the ``(f, lo, hi, result)`` of its one ``minimize_on_grid`` call."""
    calls = []
    original = principal.minimize_on_grid

    def spy(f, lo, hi, tol=None, coarse_n=256):
        calls.append((f, lo, hi, original(f, lo, hi, tol, coarse_n)))
        return calls[-1][-1]

    t = numerics._uniform_grid(params.horizon, grid)
    with mock.patch.object(principal, "minimize_on_grid", spy):
        charges = [(0.0, 0.0), _charge("classical", "cara", params)]
        _minimize_rate(t, params, [(params.sigma, charge) for charge in charges])
    (call,) = calls
    return call


def rate_one_shot(params, grid, lo, hi):
    """``one_shot_minimize`` of the new rate (``[0]``) and the classical
    rate (``[1]``) on their ``(2, n)`` brackets, each from public
    :func:`hbar` and ``_common_noise_charge``, not the solver's objective;
    the evaluations are the two calls' sum."""
    t = numerics._uniform_grid(params.horizon, grid)[:, None]
    ramp = params.delta * (params.horizon - t)
    results = [
        one_shot_minimize(
            lambda x, rows, c=charge: hbar(t[rows], x, params)
            + _common_noise_charge(ramp[rows], x, c),
            lo[i], hi[i],
        )
        for i, charge in enumerate([(0.0, 0.0), _charge("classical", "cara", params)])
    ]
    argmins, minima, evaluations = zip(*results)
    return np.stack(argmins), np.stack(minima), sum(evaluations)


@st.composite
def rate_params(draw):
    """Validated parameters: 1-3 usages, eta in [1, 4], zero sigma_k
    allowed, either sign of delta, a_max from 0.1 to 1000."""
    d = draw(st.integers(1, 3))

    def uniform(lo, hi):
        return draw(st.floats(lo, hi))

    def per_usage(lo, hi):
        return tuple(uniform(lo, hi) for _ in range(d))

    sigma = tuple(draw(st.sampled_from([0.0, uniform(0.0, 0.2)])) for _ in range(d))
    return validate(dataclasses.replace(
        CAL, d=d, rho=per_usage(1e-5, 1e-3), lambda_=per_usage(1e-3, 0.1),
        eta=per_usage(1.0, 4.0), sigma=sigma, sigma_circ=uniform(0.0, 0.2),
        a_max=10.0 ** uniform(-1.0, 3.0), b_min=uniform(0.01, 0.5),
        r_a=uniform(1e-3, 3e-2), r_p=uniform(0.0, 3e-2), theta=uniform(0.0, 0.02),
        delta=uniform(-100.0, 100.0),
    ))


class TestCertifiedScan:
    """The certified scan gives the full scan's bits from fewer values."""

    @pytest.mark.parametrize("grid", [1024, 256, 64])
    @pytest.mark.parametrize("case", sorted(RATE_CASES))
    def test_rate_family_matches_one_shot(self, case, grid):
        params = RATE_CASES[case]
        _, lo, hi, (argmin, minima, _) = solve_rate_family(params, grid)
        expected = rate_one_shot(params, grid, lo, hi)
        assert bits(argmin, minima) == bits(*expected[:2])

    @settings(max_examples=40, deadline=None)
    @given(params=rate_params())
    def test_random_rate_families_match_full_scan(self, params):
        # pytest turns a RuntimeWarning (an overflow, say) into an error.
        _, lo, hi, (argmin, minima, evaluations) = solve_rate_family(params, 64)
        expected = rate_one_shot(params, 64, lo, hi)
        assert bits(argmin, minima) == bits(*expected[:2])
        assert evaluations <= expected[2]

    def test_defaults_certified_at_first_strides(self):
        # Every row's region certifies within one stride either side of its
        # least sparse column: 18 + 28 scan values per row instead of 256, or
        # 18 + 14 where the first stride holds a value low enough to certify
        # the other edge too.  Then the point 0 (every bracket spans it), the
        # two inner points and 33 golden-section iterations, exactly.
        f, lo, hi, (argmin, minima, evaluations) = solve_rate_family(CAL, 1024)
        calls = []

        def spy(points, rows):
            calls.append((points.copy(), rows.copy()))
            return f(points, rows)

        again = minimize_on_grid(spy, lo, hi)
        assert bits(*again[:2]) == bits(argmin, minima) and again[2] == evaluations
        assert bits(argmin, minima) == bits(*rate_one_shot(CAL, 1024, lo, hi)[:2])
        every = np.arange(lo.size)
        widths = [points.shape[1] for points, _ in calls]
        inner = len(widths) - 1 - widths[::-1].index(2)  # golden calls take one point
        zero_points, zero_rows = calls[inner - 1]
        assert np.array_equal(zero_rows, every) and not zero_points.any()
        assert np.array_equal(calls[inner][1], every)
        scanned, iterations = np.zeros(lo.size, dtype=int), np.zeros(lo.size, dtype=int)
        for points, rows in calls[: inner - 1]:
            scanned[rows] += points.shape[1]
        for points, rows in calls[inner + 1 :]:
            iterations[rows] += points.shape[1]
        assert set(np.unique(scanned)) == {18 + 14, 18 + 28}
        assert (iterations == 33).all()
        assert evaluations == scanned.sum() + lo.size * (1 + 2 + 33) == 161_366

    def test_share_1_plateau_grows_the_region(self):
        # At share 1 the new rate is 0 on z >= 0 at t = T, an exact plateau
        # at its least value: that row's region grows past the first strides,
        # and only that row pays for it.
        params = RATE_CASES["share_1"]
        f, lo, hi, (argmin, minima, evaluations) = solve_rate_family(params, 1024)
        asked = np.zeros(lo.size, dtype=int)

        def spy(points, rows):
            np.add.at(asked, rows, points.shape[1])
            return f(points, rows)

        again = minimize_on_grid(spy, lo, hi)
        assert bits(*again[:2]) == bits(argmin, minima) and again[2] == evaluations
        assert bits(argmin, minima) == bits(*rate_one_shot(params, 1024, lo, hi)[:2])
        # Scan, two strides, the point 0, two inner points, <= 33 iterations.
        certified_early = 18 + 28 + 1 + 2 + 33
        plateau = lo.shape[1] - 1  # the new rate's row at t = T
        assert asked[plateau] > certified_early + 14
        assert np.max(np.delete(asked, plateau)) <= certified_early
        assert evaluations == asked.sum() <= 140_000

    def test_scan_evaluates_few_columns(self):
        # No bracket spans 0, whose extra point could be a scan point.
        lo, hi = np.array([0.1, 0.25, -3.0]), np.array([1.0, 3.0, -0.5])
        seen = [[] for _ in lo]

        def objective(points, rows):
            for j, row in zip(rows, points):
                seen[j].append(row)
            return (points - 0.3) ** 2

        minimize_on_grid(objective, lo, hi)
        scan = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 256)
        scan[:, 0], scan[:, -1] = lo, hi
        for j in range(len(lo)):
            covered = np.count_nonzero(np.isin(scan[j], np.concatenate(seen[j])))
            assert covered <= 18 + 28  # 18 sparse columns and two strides of 14

    @pytest.mark.parametrize("shape", ["valley", "shelf", "constant", "wall", "pit"])
    @pytest.mark.parametrize("tol", [None, 1e3])
    def test_declared_plateaus_and_infinities_match_one_shot(self, shape, tol):
        # Exact (+, -, *, abs, max) unimodal shapes whose regions must grow:
        # plateaus at the least value, everywhere or up to a bracket end, and
        # infinite values at or around the least one.
        rng = np.random.default_rng(5)
        n_rows = 64
        center = np.round(rng.uniform(-3.0, 3.0, n_rows), 2)[:, None]
        lo = -np.round(rng.uniform(-1.0, 4.0, n_rows), 3)
        hi = lo + np.round(rng.uniform(0.5, 6.0, n_rows), 3)
        lo[::3], hi[::3] = -2.0, 2.0
        objectives = {
            "valley": lambda x, c: np.maximum(np.abs(x - c) - 0.5, 0.0),
            "shelf": lambda x, c: np.maximum(x - c, 0.0),
            "constant": lambda x, c: np.full_like(x, 2.0),
            "wall": lambda x, c: np.where(np.abs(x - c) > 1.0, np.inf, (x - c) * (x - c)),
            "pit": lambda x, c: np.where(np.abs(x - c) < 0.5, -np.inf, np.abs(x - c)),
        }
        objective = objectives[shape]

        def f(x, rows):
            return objective(x, center[rows])

        result = minimize_on_grid(f, lo, hi, tol=tol)
        expected = one_shot_minimize(f, lo, hi, tol=tol)
        assert bits(*result[:2]) == bits(*expected[:2])
        assert result[2] <= expected[2]

    def test_finished_objective_rows_get_no_values(self):
        # Two objectives whose golden-section iteration counts differ: once
        # the first is done, its rows are never asked for a value again, and
        # each objective keeps the bits of a call of its own.
        n = 64
        lo, hi = np.full((2, n), -2.0), np.full((2, n), 2.0)
        lo[1] = -1.0  # half the sub-bracket width: fewer iterations
        center = np.linspace(-0.9, 0.9, n)

        def value(points, rows):
            return (points - center[rows % n, None]) ** 2 + rows[:, None] // n

        asked = []

        def spy(points, rows):
            asked.append((points.shape[1], rows.copy()))
            return value(points, rows)

        argmin, minima, _ = minimize_on_grid(spy, lo, hi)
        # The golden section: a call on both inner points, then one point a call.
        start = [k for k, _ in asked].index(2)
        golden = [rows for _, rows in asked[start + 1 :]]
        every, longer = np.arange(2 * n), np.arange(n)  # objective 0 iterates longer
        assert np.array_equal(asked[start][1], every)
        assert np.array_equal(golden[0], every) and np.array_equal(golden[-1], longer)
        assert all(np.array_equal(rows, every) or np.array_equal(rows, longer) for rows in golden)
        tol = numerics._default_tol(lo, hi)
        for i in range(2):
            alone = minimize_on_grid(
                lambda p, rows, i=i: value(p, rows + i * n), lo[i], hi[i], tol=tol
            )
            assert bits(argmin[i], minima[i]) == bits(*alone[:2])


class TestIntegrate:
    def test_exact_on_square(self):
        assert simpson(np.square, 0.0, 1.0, 2) == pytest.approx(
            1.0 / 3.0, abs=1e-16
        )

    def test_exact_on_cubic(self):
        assert simpson(lambda x: x**3, 0.0, 1.0, 4) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_exact_on_decaying_ramp_square(self):
        # The squared linear ramp delta^2 (T-t)^2 integrates to delta^2 T^3/3;
        # Simpson is exact because the integrand is quadratic.
        delta, horizon = -55.44, 5.5
        value = simpson(
            lambda t: delta**2 * (horizon - t) ** 2, 0.0, horizon, 8
        )
        assert value == pytest.approx(delta**2 * horizon**3 / 3.0, rel=1e-14)

    def test_fourth_order_convergence(self):
        exact = math.e - 1.0
        err_n = abs(simpson(np.exp, 0.0, 1.0, 8) - exact)
        err_2n = abs(simpson(np.exp, 0.0, 1.0, 16) - exact)
        ratio = err_n / err_2n
        assert 12.0 <= ratio <= 20.0  # ~16 for a 4th-order rule

    def test_degenerate_interval(self):
        assert integrate_samples(np.exp(np.full(5, 2.0)), 2.0, 2.0) == 0.0

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_non_finite_bound_rejected(self, side, bound):
        lo, hi = (bound, 1.0) if side == "lo" else (0.0, bound)
        with pytest.raises(ValueError, match=f"{side} must be finite"):
            integrate_samples([1.0, 1.0, 1.0], lo, hi)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate_samples(np.ones(4), 0.0, 1.0)  # 3 intervals
        with pytest.raises(ValueError):
            integrate_samples(np.ones(1), 0.0, 1.0)  # 0 intervals
        with pytest.raises(ValueError):
            integrate_samples(np.ones(3), 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_samples([1.0, 2.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate_samples(np.ones((3, 3)), 0.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        c=st.floats(-3.0, 3.0),
        d=st.floats(-3.0, 3.0),
    )
    def test_cubic_exactness_property(self, a, b, c, d):
        value = simpson(
            lambda x: a * x**3 + b * x**2 + c * x + d, -1.0, 2.0, 6
        )
        exact = (
            a * (2.0**4 - 1.0) / 4.0
            + b * (2.0**3 + 1.0) / 3.0
            + c * (2.0**2 - 1.0) / 2.0
            + d * 3.0
        )
        assert value == pytest.approx(exact, rel=1e-12, abs=1e-12)
