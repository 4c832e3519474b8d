"""Oracle and invariant tests for contract schedules, values, and comparisons.

Value reports are checked against an independent oracle that scans the
trade-off rate on a dense grid (with parabolic vertex refinement) and
integrates by Simpson's rule — no shared code with the module's golden
section search."""

import dataclasses
import math

import numpy as np
import pytest

import mfdr.principal as principal_module
from mfdr.agent import (
    best_drift_effort,
    best_response_variance,
    best_vol_effort,
    f0,
    reservation,
)
from mfdr.model import ParameterError, calibrated_defaults, validate, with_variance_share
from mfdr.numerics import integrate_samples
from mfdr.principal import (
    CONTRACT_KINDS,
    PRINCIPAL_KINDS,
    ComparisonReport,
    EffortSchedule,
    PaymentSchedule,
    _classical_charge,
    _common_noise_charge,
    _first_best,
    check_schedule_invariants,
    compare,
    compare_cells,
    first_best_report,
    hbar,
    optimal_schedule,
    solve_contract,
    solve_contracts,
    value_report,
)

CAL05 = calibrated_defaults(0.5)
CAL10 = calibrated_defaults(1.0)
RN05 = dataclasses.replace(CAL05, r_p=0.0)
RN10 = dataclasses.replace(CAL10, r_p=0.0)

# Converged compare effort gains at grid 1024.  They come from the rate solve
# forced to 1e-3x and to 1e-5x its default tolerance, which agree on them to
# 4e-13 relative; the default solve reproduces them only to first order in
# its tolerance (see ``argmin_error_bounds``).  They still sit on the
# argmin's sqrt(eps) plateau: RN10's closed form r_a sigma_circ^2 / rho_bar
# is 0.44282258064516, 1.7e-8 below, and one ulp of sigma_circ moves the
# tight solve's value by 3.2e-10.
DELTA_ALPHA_CAL05 = 0.1540731139949
DELTA_BETA_CAL05 = 0.02869287380948
DELTA_ALPHA_RN10 = 0.4428225883287


def sweep_cells():
    """The command line's 25 default compare cells, then cells at delta = +20
    and at a_max = 50 (one more base per variance share each)."""
    cells = [
        with_variance_share(validate(dataclasses.replace(calibrated_defaults(), r_p=r_p)), share)
        for r_p in (0.0, 3e-3, 6e-3, 1.2e-2, 3e-2)
        for share in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    for change in ({"delta": 20.0}, {"a_max": 50.0}):
        for r_p in (0.0, 6e-3):
            for share in (0.5, 1.0):
                base = dataclasses.replace(calibrated_defaults(share), r_p=r_p, **change)
                cells.append(validate(base))
    return cells


def wrap_rate_solve(monkeypatch, factor=None):
    """Record the documented tolerance of every rate solve ``principal`` makes.

    With ``factor``, each solve runs at that multiple of it instead of at the
    default.  Returns the list the tolerances are appended to.
    """
    original = principal_module.minimize_on_grid
    tolerances = []

    def wrapped(f, lo, hi, tol=None, coarse_n=256):
        # The documented default: 1e-9 scaled by the bracket magnitude.
        bracket = max(np.max(np.abs(lo)), np.max(np.abs(hi)))
        tolerances.append(1e-9 * (1.0 + bracket))
        if factor is not None:
            tol = factor * tolerances[-1]
        return original(f, lo, hi, tol=tol, coarse_n=coarse_n)

    monkeypatch.setattr(principal_module, "minimize_on_grid", wrapped)
    return tolerances


def argmin_error_bounds(params, tol, grid=1024):
    """First-order error of compare's ``(delta_alpha, delta_beta)`` when every
    node's argmin lies within ``tol`` of the minimizer, as promised.

    The drift scale ``min(max(-z, 0), a_max)`` is 1-Lipschitz and Simpson
    weights are positive and sum to ``T``, so each drift integral ``D`` moves
    by at most ``T tol``.  The retained-variance integral ``S`` moves by at
    most the integral of its integrand's largest change over ``z +- tol``,
    i.e. ``tol * int |dS/dz| dt``.  Both carry through
    ``delta_alpha = D_new / D_cls - 1`` and
    ``delta_beta = (S_cls - S_new) / (S_cls + T sigma_circ^2)``.
    """
    principal = "cara" if params.r_p > 0.0 else "risk_neutral"
    horizon = params.horizon

    def retained(z):
        q = np.maximum(params.theta + params.r_a * z**2, 1.0 / params.lambda_bar)
        return best_response_variance(-q, params)

    drift, var, var_err = {}, {}, {}
    for kind in ("new", "classical"):
        z = optimal_schedule(kind, principal, params, grid)[0].z
        scale = np.minimum(np.maximum(-z, 0.0), params.a_max)
        drift[kind] = integrate_samples(scale, 0.0, horizon)
        at_z = retained(z)
        var[kind] = integrate_samples(at_z, 0.0, horizon)
        change = np.maximum(
            np.abs(retained(z + tol) - at_z), np.abs(retained(z - tol) - at_z)
        )
        var_err[kind] = integrate_samples(change, 0.0, horizon)

    d_new, d_cls = drift["new"], drift["classical"]
    alpha_err = horizon * tol * (d_new + d_cls) / d_cls**2
    var_den = var["classical"] + horizon * params.sigma_circ**2
    beta_err = (var_err["new"] + var_err["classical"]) / var_den + abs(
        var["new"] - var["classical"]
    ) * var_err["classical"] / var_den**2
    return alpha_err, beta_err


def _vertex_min_value(xs, ys, i):
    j = min(max(i, 1), len(xs) - 2)
    y0, y1, y2 = ys[j - 1], ys[j], ys[j + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return ys[i]
    h = xs[1] - xs[0]
    xv = xs[j] + 0.5 * h * (y0 - y2) / denom
    if xv < xs[0] or xv > xs[-1]:
        return ys[i]
    return y1 - (y0 - y2) ** 2 / (8.0 * denom)


def hbar_classical(t, z, params):
    """The classical contract's rate from its formula, independent of the
    solver's charge helpers: :func:`hbar` plus the common-noise exposure
    ``r_a sigma_circ^2 z^2 + r_p sigma_circ^2 (delta (T - t) - z)^2``."""
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    c_a = params.r_a * params.sigma_circ**2
    c_p = params.r_p * params.sigma_circ**2
    ramp = params.delta * (params.horizon - t)
    return hbar(t, z, params) + (c_a * z**2 + c_p * (ramp - z) ** 2)


def oracle_value(params, kind, principal, n_t=256, n_z=8001):
    """Independent dense-scan evaluation of a contract's value."""
    horizon = params.horizon
    t_nodes = np.linspace(0.0, horizon, n_t + 1)
    p_eff = (
        params
        if principal == "cara"
        else dataclasses.replace(params, r_p=0.0)
    )
    objective = hbar_classical if kind == "classical" else hbar
    mins = np.empty(n_t + 1)
    for i, t in enumerate(t_nodes):
        ramp = params.delta * (horizon - t)
        lo = max(min(ramp, 0.0), -params.a_max) - 1e-3
        hi = max(ramp, 0.0) + 1e-3
        zs = np.linspace(lo, hi, n_z)
        vals = objective(t, zs, p_eff)
        mins[i] = _vertex_min_value(zs, vals, int(np.argmin(vals)))
    sc2 = params.sigma_circ**2
    ramp_sq = params.delta**2 * (horizon - t_nodes) ** 2
    r_bar = p_eff.r_bar
    if kind == "new":
        m = (
            0.5 * params.theta * sc2
            + 0.5 * (sc2 * r_bar - params.rho_bar) * ramp_sq
            + 0.5 * mins
        )
    else:
        m = (
            0.5 * params.theta * sc2
            - 0.5 * params.rho_bar * ramp_sq
            + 0.5 * mins
        )
    m_int = integrate_samples(m, 0.0, horizon)
    u = params.delta * horizon * params.x0 - m_int
    xi0 = reservation(params, 4096).xi0
    if principal == "cara":
        return -math.exp(params.r_p * (xi0 - u))
    return u - xi0


class TestHbar:
    def test_terminal_value_at_zero_rate(self):
        expected = f0(CAL05.theta, CAL05)  # ramp is gone at t = T
        value = hbar(CAL05.horizon, 0.0, CAL05)
        assert value.shape == ()  # scalars in, a 0-d array out
        assert value == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.445e-5, rel=1e-12)

    def test_initial_value_at_zero_rate(self):
        expected = f0(CAL05.theta, CAL05) + CAL05.rho_bar * (
            CAL05.delta * CAL05.horizon
        ) ** 2
        value = hbar(0.0, 0.0, CAL05)
        assert value.shape == ()
        assert value == pytest.approx(expected, rel=1e-14)

    def test_classical_dominates_plain(self):
        # The classical rate is hbar plus this charge.
        rng = np.random.default_rng(2001)
        charge = _classical_charge(CAL05)
        for _ in range(200):
            t = rng.uniform(0.0, CAL05.horizon)
            z = rng.uniform(-400.0, 100.0)
            assert _common_noise_charge(t, z, CAL05, charge) >= 0.0

    def test_classical_equals_plain_without_common_noise(self):
        params = dataclasses.replace(CAL05, sigma_circ=0.0)
        t = np.linspace(0.0, params.horizon, 7)[:, None]
        z = np.linspace(-300.0, 30.0, 11)[None, :]
        added = _common_noise_charge(t, z, params, _classical_charge(params))
        assert added.tobytes() == np.zeros((7, 11)).tobytes()

    @pytest.mark.parametrize("r_p, sigma_circ", [(0.0, 0.06), (3e-2, 0.0), (1.0, 0.5)])
    def test_reads_neither_rp_nor_sigma_circ(self, r_p, sigma_circ):
        # Contracts whose parameters differ only in these share a rate solve.
        t = np.linspace(0.0, CAL05.horizon, 9)[:, None]
        z = np.linspace(-400.0, 50.0, 13)[None, :]
        params = dataclasses.replace(CAL05, r_p=r_p, sigma_circ=sigma_circ)
        assert hbar(t, z, params).tobytes() == hbar(t, z, CAL05).tobytes()

    def test_vectorized_matches_scalar(self):
        t = np.array([0.0, 2.0, 5.5])
        z = np.array([-100.0, 0.0, 25.0])
        vec = hbar(t, z, CAL05)
        for i in range(3):
            assert hbar(float(t[i]), float(z[i]), CAL05).tobytes() == vec[i].tobytes()


class TestOptimalSchedule:
    def test_terminal_rates(self):
        pay, _ = optimal_schedule("new", "cara", CAL05)
        assert pay.z[-1] == 0.0
        assert pay.gamma[-1] == -1.0 / CAL05.lambda_bar
        assert pay.z_mu[-1] == 0.0

    def test_performance_rate_shape(self):
        pay, _ = optimal_schedule("new", "cara", CAL05)
        assert (pay.z <= 0.0).all()
        # Magnitude decays as the horizon shrinks.
        assert (np.diff(pay.z) >= -1e-9).all()
        # Never deeper than the remaining ramp.
        remaining = CAL05.horizon - pay.grid
        assert (pay.z >= CAL05.delta * remaining - 1e-6).all()

    def test_rates_invariant_across_principal_risk(self):
        pay_rn, _ = optimal_schedule("new", "risk_neutral", RN05)
        rates = []
        for r_p in (6e-3, 3e-2):
            params = dataclasses.replace(CAL05, r_p=r_p)
            pay, _ = optimal_schedule("new", "cara", params)
            rates.append(pay)
        for pay in rates:
            assert np.array_equal(pay.z, pay_rn.z)
            assert np.array_equal(pay.gamma, pay_rn.gamma)

    def test_aggregate_rate_relations(self):
        pay_cara, _ = optimal_schedule("new", "cara", CAL05)
        remaining = CAL05.horizon - pay_cara.grid
        ratio = CAL05.r_p / (CAL05.r_a + CAL05.r_p)
        target = ratio * CAL05.delta * remaining
        np.testing.assert_allclose(
            pay_cara.z + pay_cara.z_mu, target, rtol=0.0, atol=1e-10
        )
        pay_rn, _ = optimal_schedule("new", "risk_neutral", RN05)
        assert np.array_equal(pay_rn.z_mu, -pay_rn.z)

    def test_rewarded_deviations_need_no_performance_rate(self):
        params = dataclasses.replace(CAL05, delta=5.0)
        pay, _ = optimal_schedule("new", "cara", params)
        assert (pay.z == 0.0).all()
        assert (pay.gamma == -1.0 / params.lambda_bar).all()

    def test_efforts_are_best_responses(self):
        for kind in CONTRACT_KINDS:
            pay, eff = optimal_schedule(kind, "cara", CAL05, grid=64)
            assert np.array_equal(eff.alpha, best_drift_effort(pay.z, CAL05))
            assert np.array_equal(eff.beta, best_vol_effort(pay.gamma, CAL05))

    def test_classical_has_no_aggregate_rate(self):
        pay, _ = optimal_schedule("classical", "cara", CAL05, grid=64)
        assert (pay.z_mu == 0.0).all()

    def test_first_best_schedule_slots(self):
        # The first best is no schedule: its report holds the best responses
        # to the mirrored target ramp and to gamma = -theta.
        eff = first_best_report(CAL05, grid=64).efforts
        remaining = CAL05.horizon - np.linspace(0.0, CAL05.horizon, 65)
        mirrored_ramp = -np.minimum(
            np.maximum(-CAL05.delta * remaining, 0.0), CAL05.a_max
        )
        assert np.array_equal(eff.alpha, best_drift_effort(mirrored_ramp, CAL05))
        # Constant variance retention at the first best.
        assert (eff.beta == best_vol_effort(-CAL05.theta, CAL05)).all()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            optimal_schedule("bogus", "cara", CAL05)
        with pytest.raises(ValueError):
            optimal_schedule("new", "bogus", CAL05)
        with pytest.raises(ValueError):
            optimal_schedule("new", "cara", CAL05, grid=31)
        with pytest.raises(ParameterError):
            optimal_schedule("new", "cara", RN05)  # r_p = 0

    def test_invariant_checker_passes_clean_schedules(self):
        for kind in CONTRACT_KINDS:
            for principal, params in (("cara", CAL05), ("risk_neutral", RN05)):
                pay, eff = optimal_schedule(kind, principal, params, grid=64)
                assert check_schedule_invariants(pay, eff, params) == []

    def test_invariant_checker_flags_tampering(self):
        pay, eff = optimal_schedule("new", "cara", CAL05, grid=64)
        bad_pay = PaymentSchedule(
            kind=pay.kind,
            principal=pay.principal,
            horizon=pay.horizon,
            z=pay.z,
            z_mu=pay.z_mu,
            gamma=pay.gamma * 1.5,
        )
        problems = check_schedule_invariants(bad_pay, eff, CAL05)
        assert any("variance rate" in p for p in problems)
        bad_eff = EffortSchedule(alpha=eff.alpha * 0.9, beta=eff.beta)
        problems = check_schedule_invariants(pay, bad_eff, CAL05)
        assert any("alpha" in p for p in problems)

    def test_payment_schedule_validation(self):
        with pytest.raises(ValueError):
            PaymentSchedule(
                kind="new",
                principal="cara",
                horizon=1.0,
                z=np.zeros(4),
                z_mu=np.zeros(5),
                gamma=np.zeros(5),
            )
        for horizon in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="horizon must be finite and > 0"):
                PaymentSchedule(
                    kind="new",
                    principal="cara",
                    horizon=horizon,
                    z=np.zeros(5),
                    z_mu=np.zeros(5),
                    gamma=np.zeros(5),
                )

    @pytest.mark.parametrize(
        "schedule, field, value",
        [
            (PaymentSchedule, "z", np.array(1.0)),
            (PaymentSchedule, "z", [-1.0] * 5),
            (PaymentSchedule, "z_mu", np.zeros((5, 1))),
            (PaymentSchedule, "gamma", [-1.0] * 5),
            (EffortSchedule, "alpha", [[0.0]]),
            (EffortSchedule, "beta", np.zeros(1)),
            (PaymentSchedule, "z", np.full(5, 1 + 0j)),
            (PaymentSchedule, "z_mu", np.array(["a"] * 5)),
            (EffortSchedule, "alpha", np.full((2, 1), np.nan)),
        ],
        ids=["z-0d", "z-list", "z_mu-2d", "gamma-list", "alpha-list", "beta-1d",
             "z-complex", "z_mu-str", "alpha-nan"],
    )
    def test_schedule_rejects_non_arrays(self, schedule, field, value):
        if schedule is PaymentSchedule:
            fields = dict(kind="new", principal="cara", horizon=1.0,
                          z=np.full(5, -1.0), z_mu=np.zeros(5), gamma=np.full(5, -1.0))
        else:
            fields = dict(alpha=np.zeros((2, 1)), beta=np.ones((2, 1)))
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            schedule(**fields)

    def test_odd_interval_schedule_rejected(self):
        # Simpson quadrature and the reservation need an even interval count.
        for nodes in (2, 6):
            with pytest.raises(ValueError, match=f"even integer >= 2, got {nodes - 1}"):
                PaymentSchedule(
                    kind="new",
                    principal="cara",
                    horizon=CAL05.horizon,
                    z=np.full(nodes, -1.0),
                    z_mu=np.zeros(nodes),
                    gamma=np.full(nodes, -1.0),
                )

    def test_non_uniform_grid_cannot_be_built(self):
        # Uniform Simpson weights on these nodes (steps 0.34 to 1.03 h) paid
        # wrong running terms; a schedule now takes a horizon, not nodes.
        steps = np.array([0.34, 0.5, 0.6, 0.7, 0.8, 0.77, 0.76, 1.03])
        nodes = np.concatenate([[0.0], np.cumsum(steps)])
        rates = dict(z=np.full(9, -1.0), z_mu=np.zeros(9), gamma=np.full(9, -1.0))
        with pytest.raises(TypeError):
            PaymentSchedule(kind="new", principal="cara", grid=nodes, **rates)
        pay = PaymentSchedule(kind="new", principal="cara", horizon=nodes[-1], **rates)
        assert pay.n_intervals == 8
        assert np.array_equal(pay.grid, np.linspace(0.0, nodes[-1], 9))


class TestValueReports:
    @pytest.mark.parametrize(
        "params,principal",
        [(RN10, "risk_neutral"), (RN05, "risk_neutral"), (CAL05, "cara"), (CAL10, "cara")],
        ids=["rn-share1", "rn-share05", "cara-share05", "cara-share1"],
    )
    def test_against_independent_oracle(self, params, principal):
        for kind in ("new", "classical"):
            rep = value_report(kind, principal, params)
            ref = oracle_value(params, kind, principal)
            assert rep.v0 == pytest.approx(ref, rel=1e-7)

    def test_frozen_references(self):
        assert value_report("new", "risk_neutral", RN10).v0 == pytest.approx(
            8.08407195089, rel=1e-9
        )
        assert value_report(
            "classical", "risk_neutral", RN10
        ).v0 == pytest.approx(5.65140285573, rel=1e-9)
        assert value_report("new", "risk_neutral", RN05).v0 == pytest.approx(
            7.10490284709, rel=1e-9
        )
        assert value_report(
            "classical", "risk_neutral", RN05
        ).v0 == pytest.approx(5.89506459791, rel=1e-9)
        rep = value_report("new", "cara", CAL05)
        assert rep.v0 == pytest.approx(-0.963454943393, rel=1e-9)
        assert rep.ce == pytest.approx(6.20492594921, rel=1e-9)
        assert value_report("classical", "cara", CAL05).v0 == pytest.approx(
            -0.965808234822, rel=1e-9
        )

    def test_certainty_equivalent_relation(self):
        rep = value_report("new", "cara", CAL05)
        assert rep.v0 == pytest.approx(
            -math.exp(-CAL05.r_p * rep.ce), rel=1e-12
        )
        assert rep.ce == pytest.approx(
            rep.xi0 * 0.0 + (rep.ce + rep.xi0) - rep.xi0, rel=1e-12
        )
        rn = value_report("new", "risk_neutral", RN05)
        assert rn.ce == rn.v0

    def test_report_fields_and_flat(self):
        rep = value_report("classical", "cara", CAL05, grid=128)
        assert rep.kind == "classical"
        assert rep.principal == "cara"
        flat = rep.to_flat()
        assert set(flat) == {"v0", "ce", "xi0", "m_integral", "kind", "principal"}

    def test_validation(self):
        with pytest.raises(ParameterError):
            value_report("new", "cara", RN05)
        with pytest.raises(ValueError):
            value_report("new", "cara", CAL05, grid=7)

    def test_grid_convergence(self):
        coarse = value_report("new", "cara", CAL05, grid=512).v0
        fine = value_report("new", "cara", CAL05, grid=2048).v0
        assert coarse == pytest.approx(fine, rel=1e-8)

    def test_deterministic(self):
        a = value_report("new", "cara", CAL05, grid=256)
        b = value_report("new", "cara", CAL05, grid=256)
        assert a == b

    def test_no_common_noise_closes_the_gap(self):
        # Without common noise the two contract kinds have identical rates
        # and identical values, to the last bit.
        params = dataclasses.replace(CAL05, sigma_circ=0.0)
        new = solve_contract("new", "cara", params, grid=256)
        cls = solve_contract("classical", "cara", params, grid=256)
        assert new.value.v0 == cls.value.v0
        pay_new, pay_cls = new.payment, cls.payment
        assert np.array_equal(pay_new.z, pay_cls.z)
        assert np.array_equal(pay_new.gamma, pay_cls.gamma)
        # the aggregate rate would multiply a null process; the degenerate
        # schedule uses the classical representative, so ALL columns agree
        assert np.array_equal(pay_new.z_mu, pay_cls.z_mu)
        assert np.all(pay_new.z_mu == 0.0)

    def test_small_risk_aversion_approaches_risk_neutral(self):
        params = dataclasses.replace(CAL05, r_p=1e-6)
        rn_params = dataclasses.replace(CAL05, r_p=0.0)
        for kind in ("new", "classical"):
            cara_v = value_report(kind, "cara", params).v0
            rn_v = value_report(kind, "risk_neutral", rn_params).v0
            assert abs((1.0 + cara_v) / 1e-6 - rn_v) <= 1e-3 * abs(rn_v)


class TestFirstBest:
    def test_frozen_references(self):
        fb = first_best_report(CAL05)
        assert fb.v_fb == pytest.approx(-0.9578112262054743, rel=1e-9)
        assert fb.lagrange_rho == pytest.approx(1.007315149976788, rel=1e-9)
        assert fb.ce_fb == pytest.approx(7.184095053009767, rel=1e-9)
        assert fb.fb_contract_constant == pytest.approx(
            -0.15792983028899, rel=1e-10
        )

    def test_reads_its_reservation_from_the_solve(self, monkeypatch):
        calls = []
        original = principal_module.reservation

        def counted(params, grid_size=1024):
            calls.append(grid_size)
            return original(params, grid_size)

        monkeypatch.setattr(principal_module, "reservation", counted)
        fb = first_best_report(CAL05, grid=64)
        assert calls == [64]
        assert fb.fb_contract_constant == -math.log(-original(CAL05, 64).r0) / CAL05.r_a

    def test_power_formula_matches_exponential_form(self):
        for params in (CAL05, CAL10, dataclasses.replace(CAL05, r_p=2e-2)):
            fb = first_best_report(params)
            assert fb.v_fb == pytest.approx(
                -math.exp(-params.r_p * fb.ce_fb), rel=1e-12
            )

    def test_dominates_implementable_contracts(self):
        # At share 1.0 the first best coincides with the new contract
        # analytically, so the comparison needs ulp-level slack.
        for params, principal in (
            (CAL05, "cara"),
            (CAL10, "cara"),
            (RN05, "risk_neutral"),
            (RN10, "risk_neutral"),
        ):
            fb = first_best_report(params)
            v_new = value_report("new", principal, params).v0
            assert fb.v_fb >= v_new - 1e-12 * abs(v_new)
        strict = first_best_report(CAL05)
        assert strict.v_fb > value_report("new", "cara", CAL05).v0 + 1e-6

    def test_dominates_at_tiny_agent_risk_aversion(self):
        # power = 1 + r_p/r_a is ~3.6e8 here, and ce_fb equals the new
        # contract's CE: a tilt taken as (v_rbar/r0)**power amplified the
        # ratio's rounding to put v_fb 3e-10 below v0.
        params = validate(dataclasses.replace(
            calibrated_defaults(), eta=(13.64606177902855,),
            a_max=0.0002971847182932693, r_a=1.677147759480995e-11,
            delta=-0.21393257785695774,
        ))
        fb = first_best_report(params, grid=16)
        v_new = value_report("new", "cara", params, 16).v0
        assert fb.v_fb >= v_new - 1e-12 * abs(v_new)

    def test_lagrange_multiplier(self):
        assert first_best_report(CAL05).lagrange_rho > 0.0
        assert first_best_report(RN05).lagrange_rho == 0.0

    def test_efforts(self):
        fb = first_best_report(CAL05, grid=64)
        remaining = CAL05.horizon - np.linspace(0.0, CAL05.horizon, 65)
        expected_scale = np.minimum(
            np.maximum(-CAL05.delta * remaining, 0.0), CAL05.a_max
        )
        np.testing.assert_allclose(
            fb.efforts.alpha[:, 0], CAL05.rho[0] * expected_scale, rtol=1e-14
        )
        expected_beta = best_vol_effort(-CAL05.theta, CAL05)[0]
        assert (fb.efforts.beta == expected_beta).all()

    def test_neutral_baseline_gives_zero_constant(self):
        params = dataclasses.replace(CAL05, kappa=0.0, x0=0.0)
        fb = first_best_report(params)
        assert fb.fb_contract_constant == pytest.approx(0.0, abs=1e-15)
        assert reservation(params).r0 == -1.0

    def test_risk_neutral_first_best(self):
        fb = first_best_report(RN05)
        assert fb.v_fb == fb.ce_fb
        assert fb.v_fb >= value_report("new", "risk_neutral", RN05).v0

    def test_value_report_first_best_consistent(self):
        # ``mfdr first-best`` builds the report on the new contract's
        # reservation; that route gives first_best_report's bits.
        for params, principal in ((CAL05, "cara"), (RN10, "risk_neutral")):
            new = solve_contract("new", principal, params, grid=64)
            routed = _first_best(params, 64, new.reservation)
            alone = first_best_report(params, grid=64)
            assert repr(routed.to_flat()) == repr(alone.to_flat())
            assert routed.efforts.alpha.tobytes() == alone.efforts.alpha.tobytes()
            assert routed.efforts.beta.tobytes() == alone.efforts.beta.tobytes()


class TestSolveContract:
    @pytest.mark.parametrize(
        "kind, solves", [("new", 1), ("classical", 1), ("first_best", 0)]
    )
    def test_one_rate_solve_per_contract(self, monkeypatch, kind, solves):
        tolerances = wrap_rate_solve(monkeypatch)
        if kind == "first_best":  # a report, not a contract kind
            first_best_report(CAL05, grid=64)
            assert len(tolerances) == solves
            return
        solution = solve_contract(kind, "cara", CAL05, grid=64)
        assert len(tolerances) == solves
        payment, effort = optimal_schedule(kind, "cara", CAL05, grid=64)
        for name in ("grid", "z", "z_mu", "gamma"):
            assert np.array_equal(
                getattr(solution.payment, name), getattr(payment, name)
            )
        assert np.array_equal(solution.effort.alpha, effort.alpha)
        assert np.array_equal(solution.effort.beta, effort.beta)
        assert solution.value == value_report(kind, "cara", CAL05, grid=64)

    @pytest.mark.parametrize("kind", [*CONTRACT_KINDS, "first_best"])
    def test_overflow_names_the_fields(self, kind):
        # |delta| T = 5.5e200 overflowed z^2 in hbar (a RuntimeWarning), and
        # the solve failed with "inputs must be finite"; the first best's
        # delta^2 raised a bare OverflowError.  |delta| = 1e150 still solves.
        def ce(params):  # risk-neutral, in pence
            if kind == "first_best":
                return first_best_report(dataclasses.replace(params, r_p=0.0), grid=8).ce_fb
            return solve_contract(kind, "risk_neutral", params, grid=8).value.ce

        with pytest.raises(ParameterError, match="^delta, horizon, a_max: "):
            ce(dataclasses.replace(CAL05, delta=-1e200, a_max=1e300))
        assert math.isfinite(ce(dataclasses.replace(CAL05, delta=-1e150)))


class TestBatches:
    @pytest.mark.parametrize("grid", [1024, 256, 64])
    def test_compare_cells_matches_per_cell(self, monkeypatch, grid):
        cells = sweep_cells()
        tolerances = wrap_rate_solve(monkeypatch)
        batch = compare_cells(cells, grid)
        # Per base (5 shares, and 2 each at delta = +20 and a_max = 50): one
        # family of the new rate and the classical ones.
        assert len(tolerances) == 9
        expected = [compare(cell, grid) for cell in cells]
        # repr tells -0.0 from 0.0 and prints every float exactly.
        assert [repr(r.to_flat()) for r in batch] == [repr(r.to_flat()) for r in expected]

    def test_solve_contracts_matches_per_request(self):
        requests = [
            (kind, principal, params)
            for params in sweep_cells()[::3]
            for kind in CONTRACT_KINDS
            for principal in PRINCIPAL_KINDS
            if principal == "risk_neutral" or params.r_p > 0.0
        ]
        requests += requests[:4]  # repeated requests are solved once
        batch = solve_contracts(requests, grid=128)
        assert len(batch) == len(requests)
        for request, solution in zip(requests, batch):
            alone = solve_contract(*request, grid=128)
            for name in ("z", "z_mu", "gamma"):
                assert np.array_equal(getattr(solution.payment, name), getattr(alone.payment, name))
            assert np.array_equal(solution.effort.alpha, alone.effort.alpha)
            assert np.array_equal(solution.effort.beta, alone.effort.beta)
            assert solution.value == alone.value
            assert solution.reservation.to_flat() == alone.reservation.to_flat()

    def test_solutions_own_their_arrays(self):
        first, second = solve_contracts(
            [("new", "cara", CAL05), ("new", "risk_neutral", CAL05)], grid=64
        )
        assert np.array_equal(first.payment.z, second.payment.z)
        assert not np.shares_memory(first.payment.z, second.payment.z)
        for name in ("grid", "gamma0", "beta0"):
            mine, theirs = getattr(first.reservation, name), getattr(second.reservation, name)
            assert np.array_equal(mine, theirs)
            assert not np.shares_memory(mine, theirs)

    def test_one_reservation_per_params(self, monkeypatch):
        original = principal_module.reservation
        calls = []

        def counted(params, grid):
            calls.append(params)
            return original(params, grid)

        monkeypatch.setattr(principal_module, "reservation", counted)
        compare_cells(sweep_cells()[:25], 256)  # the command line's 25 cells
        assert len(calls) == 25
        calls.clear()
        # The four schedules of ``mfdr schedule``: one params.
        solve_contracts(
            [(kind, principal, CAL05) for kind in ("new", "classical") for principal in PRINCIPAL_KINDS],
            grid=64,
        )
        assert len(calls) == 1

    def test_bad_request_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            solve_contracts([("new", "cara", CAL05), ("other", "cara", CAL05)])


class TestCompare:
    # Value outputs depend on the argmin only to second order and are held
    # at 1e-9; the effort gains depend on it to first order and are held at
    # the bound its documented tolerance implies (a few 1e-8 relative).
    def test_frozen_risk_neutral_full_share(self, monkeypatch):
        tolerances = wrap_rate_solve(monkeypatch)
        comp = compare(RN10)
        assert len(tolerances) == 1  # one family for both contracts
        assert comp.delta_v == pytest.approx(2.43266909516, rel=1e-9)
        assert comp.rel_delta_v == pytest.approx(0.365737747047, rel=1e-9)
        alpha_err, _ = argmin_error_bounds(RN10, max(tolerances))
        alpha_rel = alpha_err / DELTA_ALPHA_RN10
        assert alpha_rel < 4e-8
        assert comp.delta_alpha == pytest.approx(DELTA_ALPHA_RN10, rel=alpha_rel)
        assert comp.delta_beta == 0.0
        assert math.copysign(1.0, comp.delta_beta) > 0.0  # not -0.0

    def test_frozen_cara_half_share(self, monkeypatch):
        tolerances = wrap_rate_solve(monkeypatch)
        comp = compare(CAL05)
        assert len(tolerances) == 1  # one family for both contracts
        assert comp.delta_v == pytest.approx(0.392215238248, rel=1e-9)
        assert comp.rel_delta_v == pytest.approx(0.0688262632025, rel=1e-9)
        alpha_err, beta_err = argmin_error_bounds(CAL05, max(tolerances))
        alpha_rel = alpha_err / DELTA_ALPHA_CAL05
        beta_rel = beta_err / DELTA_BETA_CAL05
        assert alpha_rel < 4e-8 and beta_rel < 4e-8
        assert comp.delta_alpha == pytest.approx(DELTA_ALPHA_CAL05, rel=alpha_rel)
        assert comp.delta_beta == pytest.approx(DELTA_BETA_CAL05, rel=beta_rel)

    @pytest.mark.parametrize("grid", [64, 256, 1024])
    def test_risk_neutral_full_share_effort_gain_closed_form(self, grid):
        # At share 1 f0 vanishes, so the new contract's drift scale is the
        # ramp -delta (T - t) and the classical one that ramp shrunk by
        # rho_bar / (rho_bar + r_a sigma_circ^2) at every node (a_max does
        # not bind).  The gain is their ratio less 1 at any grid; the solve
        # reaches it to its argmin plateau, ~1.7e-8 relative.
        closed_form = RN10.r_a * RN10.sigma_circ**2 / RN10.rho_bar
        assert closed_form == pytest.approx(0.44282258064516, rel=1e-13)
        assert compare(RN10, grid).delta_alpha == pytest.approx(closed_form, rel=5e-8)

    def test_frozen_effort_gains_are_converged(self, monkeypatch):
        tolerances = wrap_rate_solve(monkeypatch, factor=1e-5)
        cal = compare(CAL05)
        rn = compare(RN10)
        assert tolerances  # the rate solve took the tight route
        assert cal.delta_alpha == pytest.approx(DELTA_ALPHA_CAL05, rel=1e-10)
        assert cal.delta_beta == pytest.approx(DELTA_BETA_CAL05, rel=1e-10)
        assert rn.delta_alpha == pytest.approx(DELTA_ALPHA_RN10, rel=1e-10)

    def test_gains_nonnegative_across_cells(self):
        for r_p in (0.0, 6e-3, 3e-2):
            for share in (0.0, 0.5, 1.0):
                params = dataclasses.replace(
                    calibrated_defaults(share), r_p=r_p
                )
                comp = compare(params, grid=256)
                assert comp.delta_v >= -1e-12
                assert comp.rel_delta_v >= -1e-12
                if comp.delta_beta is not None:
                    assert comp.delta_beta >= -1e-12

    def test_zero_relative_denominator_gives_none(self):
        # No noise, no target and no quadratic-variation cost: the classical
        # value is exactly -1, so 1 + v_cls = 0 and the relative gain does
        # not apply.
        params = validate(dataclasses.replace(
            calibrated_defaults(), sigma=(0.0,), sigma_circ=0.0, delta=0.0, theta=0.0
        ))
        comp = compare(params, 8)
        assert comp.delta_v == 0.0
        assert comp.rel_delta_v is None

    def test_risk_neutral_rate_ordering(self):
        pay_new, _ = optimal_schedule("new", "risk_neutral", RN05)
        pay_cls, _ = optimal_schedule("classical", "risk_neutral", RN05)
        tol = 1e-10
        assert (pay_new.z <= tol).all()
        assert (pay_cls.z <= tol).all()
        assert (pay_cls.z >= pay_new.z - tol).all()
        assert (pay_cls.gamma >= pay_new.gamma - tol).all()
        assert (pay_cls.gamma <= tol).all()

    def test_rewarded_deviations_cara(self):
        # Positive target ramp with a very flexible usage: the own-meter
        # contract keeps a positive performance rate early on and manages
        # variance strictly harder than the aggregate-indexed one.
        params = dataclasses.replace(CAL05, delta=5.0, lambda_=(2.8,))
        pay_new, _ = optimal_schedule("new", "cara", params)
        pay_cls, _ = optimal_schedule("classical", "cara", params)
        assert (pay_new.z == 0.0).all()
        assert (pay_cls.z >= -1e-12).all()
        assert pay_cls.z[0] > 1.0
        remaining = params.horizon - pay_cls.grid
        ratio = params.r_p / (params.r_a + params.r_p)
        assert (
            pay_cls.z <= ratio * params.delta * remaining + 1e-9
        ).all()
        assert (pay_cls.gamma <= pay_new.gamma + 1e-12).all()
        assert pay_cls.gamma[0] < pay_new.gamma[0] - 1e-9

        comp = compare(params, grid=256)
        assert comp.delta_alpha is None  # neither contract reduces usage
        assert comp.delta_beta is not None

    def test_m_dominance_random_parameters(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            horizon = rng.uniform(1.0, 8.0)
            delta = rng.uniform(-80.0, 30.0)
            total_var = rng.uniform(0.02, 0.3) ** 2
            share = rng.uniform(0.0, 1.0)
            r_p = 0.0 if rng.uniform() < 0.25 else 10 ** rng.uniform(-4, -1.3)
            params = dataclasses.replace(
                calibrated_defaults(),
                rho=(10 ** rng.uniform(-5, -3),),
                lambda_=(10 ** rng.uniform(-2.3, -0.5),),
                eta=(rng.uniform(1.0, 3.0),),
                sigma=(math.sqrt((1.0 - share) * total_var),),
                sigma_circ=math.sqrt(share * total_var),
                a_max=2.0 * (abs(delta) + 1.0) * horizon,
                r_a=10 ** rng.uniform(-3, -1.3),
                r_p=r_p,
                theta=rng.uniform(0.0, 0.02),
                horizon=horizon,
                x0=rng.uniform(-2.0, 2.0),
                delta=delta,
                kappa=rng.uniform(0.0, 30.0),
            )
            principal = "cara" if r_p > 0.0 else "risk_neutral"
            new, cls = solve_contracts(
                [("new", principal, params), ("classical", principal, params)], 64
            )
            m_new, m_cls = new.m_rate, cls.m_rate
            slack = 1e-9 * (1.0 + np.abs(m_new))
            assert (m_cls >= m_new - slack).all()

    def test_comparison_report_flat(self):
        comp = compare(CAL05, grid=128)
        flat = comp.to_flat()
        assert set(flat) == {
            "delta_v",
            "rel_delta_v",
            "delta_alpha",
            "delta_beta",
        }
        assert isinstance(comp, ComparisonReport)
