"""Oracle tests for consumer best responses, envelopes, and the outside option.

The closed-form best responses and envelopes are checked against brute-force
grid optimization of the underlying objectives (with three-point parabolic
refinement of the discrete optimum, so the oracle itself is accurate to
O(grid step squared))."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdr.agent import (
    best_drift_effort,
    best_effort_cost,
    best_response_variance,
    best_response_vol_cost,
    best_vol_effort,
    f0,
    hamiltonian_envelopes,
    reservation,
)
from mfdr.cli import main
from mfdr.model import calibrated_defaults, effort_cost, validate

CAL = calibrated_defaults()  # half the deviation variance from common noise

MULTI = dataclasses.replace(
    CAL,
    d=3,
    rho=(1e-4, 2.5e-4, 5e-5),
    lambda_=(0.01, 0.05, 0.02),
    eta=(1.0, 2.0, 1.5),
    sigma=(0.03, 0.05, 0.02),
)


def _vertex(xs, ys, i):
    """Quadratic refinement of a discrete extremum on a uniform grid.

    Fits a parabola through the three points nearest the discrete optimum
    (shifted inward at the edges) and returns its vertex; a vertex outside
    the bracket means the optimum truly sits on the boundary."""
    j = min(max(i, 1), len(xs) - 2)
    y0, y1, y2 = ys[j - 1], ys[j], ys[j + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return xs[i], ys[i]
    h = xs[1] - xs[0]
    xv = xs[j] + 0.5 * h * (y0 - y2) / denom
    yv = y1 - (y0 - y2) ** 2 / (8.0 * denom)
    if xv < xs[0]:
        return xs[0], ys[0]
    if xv > xs[-1]:
        return xs[-1], ys[-1]
    return xv, yv


def drift_oracle(z, params, n=20001):
    """Grid maximization of -2 z a - a^2 / rho per usage."""
    best_a, total = [], 0.0
    for k in range(params.d):
        rho = params.rho[k]
        a = np.linspace(0.0, rho * params.a_max, n)
        vals = -2.0 * z * a - a * a / rho
        i = int(np.argmax(vals))
        a_star, v_star = _vertex(a, vals, i)
        best_a.append(min(max(a_star, 0.0), rho * params.a_max))
        total += v_star
    return np.array(best_a), total


def vol_oracle(gamma, params, n=20001):
    """Grid maximization of gamma * sigma^2 b - damping cost per usage."""
    best_b, total = [], 0.0
    for k in range(params.d):
        lam, eta = params.lambda_[k], params.eta[k]
        sig2 = params.sigma[k] ** 2
        b = np.linspace(params.b_min, 1.0, n)
        vals = gamma * sig2 * b - sig2 / (lam * eta) * (b ** (-eta) - 1.0)
        i = int(np.argmax(vals))
        b_star, v_star = _vertex(b, vals, i)
        best_b.append(min(max(b_star, params.b_min), 1.0))
        total += v_star
    return np.array(best_b), total


def f0_oracle(q, params, n=20001):
    """Grid minimization of q * sigma^2 b + damping cost per usage."""
    total = 0.0
    for k in range(params.d):
        lam, eta = params.lambda_[k], params.eta[k]
        sig2 = params.sigma[k] ** 2
        b = np.linspace(params.b_min, 1.0, n)
        vals = q * sig2 * b + sig2 / (lam * eta) * (b ** (-eta) - 1.0)
        i = int(np.argmin(vals))
        _, v_star = _vertex(b, vals, i)
        total += v_star
    return total


def _rel_close(actual, expected, rtol, atol=1e-12):
    return abs(actual - expected) <= rtol * max(abs(expected), 1.0) + atol


class TestBestDriftEffort:
    def test_closed_form_values(self):
        a = best_drift_effort(-100.0, CAL)
        assert a.shape == (1,)
        assert a[0] == pytest.approx(9.3e-3, rel=1e-15)
        assert best_drift_effort(5.0, CAL)[0] == 0.0
        assert best_drift_effort(0.0, CAL)[0] == 0.0
        # Saturation at the responsiveness cap.
        cap = best_drift_effort(-2.0 * CAL.a_max, CAL)
        assert cap[0] == CAL.rho[0] * CAL.a_max

    def test_against_oracle(self):
        rng = np.random.default_rng(1001)
        draws = np.concatenate(
            [rng.uniform(-400.0, 400.0, 334), [0.0, -CAL.a_max, -2.0 * CAL.a_max]]
        )
        for z in draws:
            a = best_drift_effort(z, CAL)
            a_ref, _ = drift_oracle(z, CAL)
            assert _rel_close(a[0], a_ref[0], 1e-6)

    def test_multi_usage_against_oracle(self):
        rng = np.random.default_rng(1002)
        for z in rng.uniform(-500.0, 100.0, 50):
            a = best_drift_effort(z, MULTI)
            a_ref, _ = drift_oracle(z, MULTI)
            assert a.shape == (3,)
            for k in range(3):
                assert _rel_close(a[k], a_ref[k], 1e-6)

    def test_vectorized_shape(self):
        z = np.zeros((5, 7))
        assert best_drift_effort(z, MULTI).shape == (5, 7, 3)


class TestBestVolEffort:
    def test_closed_form_values(self):
        assert best_vol_effort(0.0, CAL)[0] == 1.0
        assert best_vol_effort(3.0, CAL)[0] == 1.0
        # Interior: lambda * |gamma| = 0.028 * 100 = 2.8, eta = 1.
        b = best_vol_effort(-100.0, CAL)
        assert b[0] == pytest.approx(2.8 ** (-0.5), rel=1e-14)
        # Deep penalty pins the floor.
        assert best_vol_effort(-1e6, CAL)[0] == CAL.b_min

    def test_boundary_of_full_retention(self):
        gamma_edge = -1.0 / CAL.lambda_[0]
        assert best_vol_effort(gamma_edge, CAL)[0] == pytest.approx(
            1.0, rel=1e-14
        )
        assert best_vol_effort(gamma_edge * 0.999, CAL)[0] == 1.0

    def test_against_oracle(self):
        rng = np.random.default_rng(1003)
        draws = np.concatenate(
            [
                rng.uniform(-600.0, 5.0, 300),
                rng.uniform(-1e6, -3e5, 30),
                [0.0, -1.0 / CAL.lambda_[0]],
            ]
        )
        for g in draws:
            b = best_vol_effort(g, CAL)
            b_ref, _ = vol_oracle(g, CAL)
            assert _rel_close(b[0], b_ref[0], 1e-6)

    def test_multi_usage_against_oracle(self):
        rng = np.random.default_rng(1004)
        for g in rng.uniform(-800.0, 0.0, 50):
            b = best_vol_effort(g, MULTI)
            b_ref, _ = vol_oracle(g, MULTI)
            for k in range(3):
                assert _rel_close(b[k], b_ref[k], 1e-6)

    def test_range_always_respected(self):
        gammas = np.concatenate(
            [np.linspace(-1e7, 10.0, 500), [-math.inf + 1e308]]
        )[:-1]
        b = best_vol_effort(gammas, MULTI)
        assert (b >= MULTI.b_min).all()
        assert (b <= 1.0).all()


class TestF0:
    def test_frozen_reference_at_branch_edge(self):
        # At q = 1/lambda both branch formulas give sigma^2 / lambda.
        q_edge = 1.0 / CAL.lambda_[0]
        expected = CAL.sigma[0] ** 2 / CAL.lambda_[0]
        assert f0(q_edge, CAL) == pytest.approx(expected, rel=1e-14)
        assert f0(q_edge, CAL) == pytest.approx(0.129017857142857, rel=1e-12)

    def test_zero_price(self):
        assert f0(0.0, CAL) == 0.0

    @pytest.mark.parametrize("params", [CAL, MULTI], ids=["CAL", "MULTI"])
    def test_regimes_match_all_branch_formula(self, params):
        lam, eta = np.asarray(params.lambda_), np.asarray(params.eta)
        sig2, b_min = np.asarray(params.sigma) ** 2, params.b_min
        floor_threshold = b_min ** (-(1.0 + eta))

        def all_branch(q):
            # Every regime's formula on every entry, merged by np.where.
            scaled = lam * q[..., None]
            power = scaled ** (eta / (1.0 + eta))
            interior = sig2 / (lam * eta) * ((1.0 + eta) * power - 1.0)
            floor_offset = (b_min ** (-eta) - 1.0) / (lam * eta)
            floored = sig2 * (b_min * q[..., None] + floor_offset)
            per_usage = np.where(
                scaled <= 1.0,
                sig2 * q[..., None],
                np.where(scaled <= floor_threshold, interior, floored),
            )
            return np.sum(per_usage, axis=-1)

        # Prices within 4 ulps of each usage's two regime edges, each edge
        # hit exactly by one of them, plus a spread over all three regimes.
        prices = [np.geomspace(1e-3, 1e7, 101), [0.0]]
        for k in range(params.d):
            for edge in (1.0, floor_threshold[k]):
                near = np.full(9, edge / lam[k])
                near += np.arange(-4, 5) * np.spacing(near)
                assert (lam[k] * near == edge).any()
                prices.append(near)
        q = np.concatenate(prices)
        for shaped in (q, q[: q.size // 2 * 2].reshape(2, -1)):
            assert np.array_equal(f0(shaped, params), all_branch(shaped))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_floor_beyond_float_range(self):
        # b_min ** -(1 + eta) overflows at eta = 151, b_min = 4e-8, which
        # validate accepts: the floor is out of reach, so every price above
        # the full-retention edge is interior, with no overflow warning.
        params = validate(dataclasses.replace(CAL, eta=(151.0,), b_min=4e-8))
        lam, eta, sig2 = params.lambda_[0], params.eta[0], params.sigma[0] ** 2
        q = np.concatenate([[0.0, 1.0 / lam], np.geomspace(1e-3, 1e300, 61)])
        scaled = lam * q
        interior = sig2 / (lam * eta) * ((1.0 + eta) * scaled ** (eta / (1.0 + eta)) - 1.0)
        expected = np.where(scaled <= 1.0, sig2 * q, interior)
        assert np.array_equal(f0(q, params), expected)
        assert f0(1e300, params) == expected[-1]

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            f0(-1e-12, CAL)
        with pytest.raises(ValueError):
            f0(np.array([1.0, -0.5]), CAL)

    def test_against_oracle_spanning_all_branches(self):
        rng = np.random.default_rng(1005)
        draws = np.concatenate(
            [
                rng.uniform(0.0, 1.0 / CAL.lambda_[0], 120),  # full retention
                rng.uniform(40.0, 3e5, 120),  # interior
                rng.uniform(4e5, 3e6, 60),  # floor
            ]
        )
        for q in draws:
            assert _rel_close(f0(q, CAL), f0_oracle(q, CAL), 1e-6)

    def test_multi_usage_against_oracle(self):
        rng = np.random.default_rng(1006)
        for q in rng.uniform(0.0, 1e5, 60):
            assert _rel_close(f0(q, MULTI), f0_oracle(q, MULTI), 1e-6)

    def test_nondecreasing_and_continuous_on_dense_grid(self):
        q = np.concatenate(
            [
                np.linspace(0.0, 2.0 / CAL.lambda_[0], 3000),
                np.geomspace(2.0 / CAL.lambda_[0], 5e6, 3000),
            ]
        )
        vals = f0(q, CAL)
        diffs = np.diff(vals)
        assert (diffs >= -1e-12).all()
        # Lipschitz bound: the slope never exceeds the full retained variance.
        sig2_total = sum(s**2 for s in CAL.sigma)
        assert (diffs <= sig2_total * np.diff(q) * (1.0 + 1e-9) + 1e-12).all()

    def test_continuity_at_floor_threshold(self):
        lam, eta = CAL.lambda_[0], CAL.eta[0]
        q_thr = CAL.b_min ** (-(1.0 + eta)) / lam
        below = f0(q_thr * (1.0 - 1e-9), CAL)
        above = f0(q_thr * (1.0 + 1e-9), CAL)
        assert abs(above - below) <= 5e-9 * abs(below)

    def test_vectorized_matches_scalar(self):
        q = np.array([0.0, 10.0, 100.0, 1e6])
        vec = f0(q, MULTI)
        for i, qi in enumerate(q):
            assert vec[i] == f0(float(qi), MULTI)


class TestEnvelopes:
    def test_drift_envelope_frozen_value(self):
        env = hamiltonian_envelopes(-100.0, 0.0, 0.0, CAL)
        assert env.h_d == pytest.approx(0.93, rel=1e-14)

    def test_against_oracles(self):
        rng = np.random.default_rng(1007)
        for _ in range(120):
            z = rng.uniform(-400.0, 100.0)
            g = rng.uniform(-600.0, 10.0)
            env = hamiltonian_envelopes(z, g, 0.0, CAL)
            _, h_d_ref = drift_oracle(z, CAL)
            _, h_v_ref = vol_oracle(g, CAL)
            assert _rel_close(env.h_d, h_d_ref, 1e-6)
            assert _rel_close(env.h_v, h_v_ref, 1e-6)

    def test_composition_identity(self):
        rng = np.random.default_rng(1008)
        for _ in range(50):
            z, g, x = rng.uniform(-300, 300), rng.uniform(-500, 20), rng.normal()
            env = hamiltonian_envelopes(z, g, x, MULTI)
            expected_h_c = 0.5 * g * MULTI.sigma_circ**2 + MULTI.kappa * x
            assert env.h_c == pytest.approx(expected_h_c, rel=1e-14)
            assert env.h_total == pytest.approx(
                0.5 * env.h_d + 0.5 * env.h_v + env.h_c, rel=1e-14
            )

    def test_variance_envelope_sides(self):
        sig2_total = sum(s**2 for s in CAL.sigma)
        env_pos = hamiltonian_envelopes(0.0, 2.5, 0.0, CAL)
        assert env_pos.h_v == pytest.approx(2.5 * sig2_total, rel=1e-14)
        env_neg = hamiltonian_envelopes(0.0, -30.0, 0.0, CAL)
        assert env_neg.h_v == pytest.approx(-f0(30.0, CAL), rel=1e-14)

    def test_continuity_at_zero_gamma(self):
        left = hamiltonian_envelopes(0.0, -1e-9, 0.0, CAL).h_v
        right = hamiltonian_envelopes(0.0, 1e-9, 0.0, CAL).h_v
        assert abs(left) <= 1e-11
        assert abs(right) <= 1e-11

    def test_vectorized(self):
        z = np.linspace(-200, 50, 11)
        g = np.linspace(-100, 5, 11)
        env = hamiltonian_envelopes(z, g, 0.0, CAL)
        for i in range(11):
            scalar = hamiltonian_envelopes(float(z[i]), float(g[i]), 0.0, CAL)
            assert env.h_total[i] == scalar.h_total

    @settings(max_examples=60, deadline=None)
    @given(
        z=st.floats(-500.0, 500.0),
        gamma=st.floats(-800.0, 50.0),
    )
    def test_envelope_dominates_feasible_efforts(self, z, gamma):
        # The optimized envelopes are upper bounds over any feasible effort.
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.uniform(0.0, CAL.a_max)
            a = CAL.rho[0] * u
            b = rng.uniform(CAL.b_min, 1.0)
            env = hamiltonian_envelopes(z, gamma, 0.0, CAL)
            h_d_candidate = -2.0 * z * a - a * a / CAL.rho[0]
            sig2 = CAL.sigma[0] ** 2
            cost_b = sig2 / (CAL.lambda_[0] * CAL.eta[0]) * (1.0 / b - 1.0)
            h_v_candidate = gamma * sig2 * b - cost_b
            assert env.h_d >= h_d_candidate - 1e-9 * (1.0 + abs(env.h_d))
            assert env.h_v >= h_v_candidate - 1e-9 * (1.0 + abs(env.h_v))


class TestBestResponseCurves:
    def test_variance_at_full_retention(self):
        sig2_total = sum(s**2 for s in CAL.sigma)
        assert best_response_variance(0.0, CAL) == pytest.approx(
            sig2_total, rel=1e-14
        )

    def test_cost_consistency_with_effort_cost(self):
        rng = np.random.default_rng(1009)
        for _ in range(40):
            z = rng.uniform(-400.0, 100.0)
            g = rng.uniform(-500.0, 10.0)
            a = best_drift_effort(z, CAL)
            b = best_vol_effort(g, CAL)
            direct = best_effort_cost(z, g, CAL)
            assert direct == pytest.approx(
                effort_cost(a, b, CAL), rel=1e-12, abs=1e-15
            )

    def test_vol_cost_zero_at_full_retention(self):
        assert best_response_vol_cost(0.0, CAL) == 0.0
        assert best_response_vol_cost(1.0, CAL) == 0.0

    def test_independent_of_common_noise_exposure(self):
        base = calibrated_defaults(0.5)
        bumped = dataclasses.replace(base, sigma_circ=0.5)
        grid = np.linspace(-300.0, 50.0, 101)
        assert np.array_equal(
            best_drift_effort(grid, base), best_drift_effort(grid, bumped)
        )
        assert np.array_equal(
            best_vol_effort(grid, base), best_vol_effort(grid, bumped)
        )


class TestReservation:
    def test_frozen_calibrated_values(self):
        report = reservation(CAL)
        horizon = CAL.horizon
        # Full retention throughout, so the cost rate is quadratic in time
        # and Simpson integration is exact.
        expected_psi = (
            -(CAL.r_a * CAL.kappa**2 * 0.085**2 / 2.0) * horizon**3 / 3.0
        )
        assert report.psi0_T == pytest.approx(expected_psi, rel=5e-13)
        assert report.psi0_T == pytest.approx(-0.15792983029, rel=1e-10)
        assert (report.beta0 == 1.0).all()
        assert report.gamma0[0] == pytest.approx(
            -CAL.r_a * CAL.kappa**2 * horizon**2, rel=1e-14
        )
        assert report.gamma0[-1] == 0.0
        assert report.xi0 == report.psi0_T  # x0 = 0
        assert report.r0 == pytest.approx(
            -math.exp(-CAL.r_a * report.xi0), rel=1e-15
        )

    def test_utility_identity_machine_precision(self):
        for params in (CAL, dataclasses.replace(CAL, kappa=200.0, x0=3.0)):
            report = reservation(params)
            assert report.r0 < 0.0
            recovered = -math.log(-report.r0) / params.r_a
            assert abs(report.xi0 - recovered) <= 1e-13 * max(
                1.0, abs(report.xi0)
            )

    def test_active_retention_regime(self):
        # A strong baseline incentive pushes early-horizon retention inside
        # the interior branch.
        params = dataclasses.replace(CAL, kappa=200.0)
        report = reservation(params)
        assert (report.beta0 >= params.b_min).all()
        assert (report.beta0 <= 1.0).all()
        assert report.beta0[0, 0] < 1.0
        assert report.beta0[-1, 0] == 1.0
        assert report.r0 < 0.0

    def test_grid_refinement_converges(self):
        params = dataclasses.replace(CAL, kappa=200.0)
        # The integrand has a kink where retention re-enters the full
        # branch, so convergence is below Simpson's clean rate; 1e-8
        # relative is still ample for the default 1024-interval grid.
        coarse = reservation(params, grid_size=512)
        fine = reservation(params, grid_size=4096)
        assert coarse.psi0_T == pytest.approx(fine.psi0_T, rel=1e-8)

    def test_psi_nonincreasing_in_common_noise(self):
        values = []
        for sigma_circ in (0.0, 0.04, 0.085, 0.2):
            params = dataclasses.replace(CAL, sigma_circ=sigma_circ)
            values.append(reservation(params).psi0_T)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            reservation(CAL, grid_size=3)
        with pytest.raises(ValueError):
            reservation(CAL, grid_size=0)

    def test_serialization(self, tmp_path):
        report = reservation(CAL, grid_size=8)
        flat = report.to_flat()
        assert set(flat) == {"xi0", "r0", "psi0_T"}
        assert flat["xi0"] == report.xi0
        # The curves are serialized by the CLI's reservation command.
        assert main(["reservation", "--grid", "8", "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "reservation.csv").read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode("utf-8").strip().split("\r\n")
        assert lines[0] == "t,gamma0,beta0_1"
        assert len(lines) == 10  # header + 9 nodes
        assert lines[-1] == "5.5,0,1"  # the zero exposure at T carries no sign
        last = lines[-1].split(",")
        assert float(last[0]) == CAL.horizon
        assert float(last[1]) == 0.0
        assert float(last[2]) == 1.0
