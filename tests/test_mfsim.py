"""Tests for the particle Monte Carlo and its verification reports."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

import mfdr.mfsim as mfsim_module
from mfdr.agent import best_response_variance, hamiltonian_envelopes, reservation
from mfdr.model import ModelParams, ParameterError, calibrated_defaults, validate
from mfdr.principal import PaymentSchedule, optimal_schedule, solve_contract
from mfdr.mfsim import (
    McReport,
    SimConfig,
    contract_payoffs,
    simulate,
    verify_participation,
    verify_principal_value,
)

CAL05 = calibrated_defaults(variance_share=0.5)
CAL10 = calibrated_defaults(variance_share=1.0)
CAL00 = calibrated_defaults(variance_share=0.0)


def flat_schedule(params: ModelParams, z: float, gamma: float, n: int = 64,
                  kind: str = "new", principal: str = "cara") -> PaymentSchedule:
    return PaymentSchedule(
        kind=kind,
        principal=principal,
        horizon=params.horizon,
        z=np.full(n + 1, float(z)),
        z_mu=np.zeros(n + 1),
        gamma=np.full(n + 1, float(gamma)),
    )


def path_reference(params: ModelParams, schedule: PaymentSchedule, n_steps: int,
                   xi: np.ndarray, zeta: np.ndarray) -> dict[str, np.ndarray]:
    """Per-step path simulation of one common-noise scenario.

    The reference that ``simulate``'s exact sampler is tested against: it
    walks the discretised dynamics step by step, driven by explicit standard
    normals ``xi`` (idiosyncratic, one row per particle) and ``zeta``
    (common), and reduces the paths to the ensemble accumulators.
    """
    dt = params.horizon / n_steps
    # Step k starts at k/n_steps of the horizon and node j sits at j/n: pick
    # the last node at or before each step in exact integer arithmetic.
    n = schedule.n_intervals
    idx = np.searchsorted(np.arange(n + 1) * n_steps, np.arange(n_steps) * n, side="right") - 1
    z, zmu, gamma = schedule.z[idx], schedule.z_mu[idx], schedule.gamma[idx]
    drift = -params.rho_bar * np.minimum(np.maximum(-z, 0.0), params.a_max)
    dx_idio = drift * dt + xi * np.sqrt(best_response_variance(gamma, params) * dt)
    dw_circ = zeta * np.sqrt(dt)
    sc = params.sigma_circ

    cum_idio = np.cumsum(dx_idio, axis=1)
    w_circ_cum = np.cumsum(dw_circ)
    xo_left = np.empty_like(dx_idio)
    xo_left[:, 0] = params.x0
    xo_left[:, 1:] = params.x0 + cum_idio[:, :-1]
    w_left = np.concatenate([[0.0], w_circ_cum[:-1]])
    zmu_dx = np.sum(zmu * (dx_idio + sc * dw_circ), axis=1)
    return {
        "x_terminal": params.x0 + cum_idio[:, -1] + sc * w_circ_cum[-1],
        "x_integral": dt * np.sum(xo_left, axis=1) + dt * sc * np.sum(w_left),
        "z_dx_idio": np.sum(z * dx_idio, axis=1),
        "zmu_dx": zmu_dx,
        "z_dw_circ": np.sum(z * dw_circ),
        "zmu_dw_circ": np.sum(zmu * dw_circ),
        "zmu_dsum": np.sum(zmu_dx),
    }


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.n_particles >= 2 and cfg.n_common >= 1
        assert cfg.dt is None and cfg.antithetic is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_particles": 1},
            {"n_common": 0},
            {"dt": 0.0},
            {"dt": -1.0},
            {"seed": -1},
            {"seed": 2**64},
            {"antithetic": True, "n_common": 3},
            {"dt": float("inf")},
            {"dt": float("nan")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ParameterError):
            SimConfig(**kwargs)

    def test_collects_all_problems(self):
        with pytest.raises(ParameterError) as err:
            SimConfig(n_particles=0, n_common=0, dt=-1.0)
        message = str(err.value)
        assert "n_particles" in message
        assert "n_common" in message
        assert "dt" in message


class TestGridResolution:
    def test_default_step_is_horizon_over_512(self):
        sched = flat_schedule(CAL05, z=0.0, gamma=-1.0)
        cfg = SimConfig(n_particles=2, n_common=1, seed=1)
        ens = simulate(CAL05, sched, cfg)
        assert ens.n_steps == 512
        assert ens.dt == pytest.approx(CAL05.horizon / 512, rel=1e-15)

    def test_rejects_incompatible_step(self):
        sched = flat_schedule(CAL05, z=0.0, gamma=-1.0)
        cfg = SimConfig(n_particles=2, n_common=1, dt=CAL05.horizon / 100.5)
        with pytest.raises(ValueError, match="incompatible grids"):
            simulate(CAL05, sched, cfg)

    def test_step_count_is_bounded(self):
        # The bound is checked on the float quotient, so a step count that
        # overflows an int (or is infinite) is rejected like a large one.
        horizon = CAL05.horizon
        limit = mfsim_module._MAX_STEPS
        cfg = SimConfig(n_particles=2, n_common=1, dt=horizon / limit)
        assert mfsim_module._resolve_steps(CAL05, cfg)[1] == limit
        for dt in (horizon / (limit + 2), 1e-9, 1e-300, 5e-324):
            cfg = SimConfig(n_particles=2, n_common=1, dt=dt)
            with pytest.raises(ValueError, match=rf"dt = .* steps .* {limit} allowed"):
                mfsim_module._resolve_steps(CAL05, cfg)

    def test_rejects_schedule_horizon_mismatch(self):
        short = CAL05
        sched = PaymentSchedule(
            kind="new", principal="cara", horizon=short.horizon * 0.5,
            z=np.zeros(9), z_mu=np.zeros(9), gamma=np.full(9, -1.0),
        )
        cfg = SimConfig(n_particles=2, n_common=1)
        with pytest.raises(ValueError, match="incompatible grids"):
            simulate(short, sched, cfg)

    def test_left_constant_sampling_drives_drift(self):
        # Distinctive stepwise z: without noise the terminal deviation is x0
        # plus the drift at the left endpoint of each step.  With n_steps a
        # multiple of n schedule intervals, each interval's left node drives
        # the next n_steps / n steps, including the steps that start exactly
        # on a node (at grid 100 and 1000 steps, k T / 1000 rounds below 47
        # of the float nodes).
        params = dataclasses.replace(CAL05, sigma=(0.0,) * CAL05.d, sigma_circ=0.0)
        for n, n_steps in ((4, 8), (100, 1000)):
            z = -1.0 - np.arange(n + 1) % 4
            z[-1] = 0.0
            sched = PaymentSchedule(
                kind="new", principal="cara", horizon=params.horizon,
                z=z, z_mu=np.zeros(n + 1), gamma=np.full(n + 1, -1.0),
            )
            cfg = SimConfig(n_particles=2, n_common=1, dt=params.horizon / n_steps)
            ens = simulate(params, sched, cfg)
            expected = -params.rho_bar * np.sum(
                np.minimum(np.maximum(-np.repeat(z[:-1], n_steps // n), 0.0), params.a_max)
            ) * (params.horizon / n_steps)
            assert ens.x_terminal - params.x0 == pytest.approx(expected, rel=1e-14)


class TestDynamics:
    def test_driftless_terminal_variance(self):
        # Zero deviation payment rate and the flattest volatility payment
        # keeping full usage: no drift, all usages on, no common noise.
        params = CAL00
        gamma_flat = -1.0 / params.lambda_bar
        sched = flat_schedule(params, z=0.0, gamma=gamma_flat)
        cfg = SimConfig(n_particles=512, n_common=8, dt=params.horizon / 64, seed=5)
        ens = simulate(params, sched, cfg)
        samples = ens.x_terminal.ravel()
        target = sum(s**2 for s in params.sigma) * params.horizon
        n = samples.size
        sample_var = float(np.var(samples, ddof=1))
        se_var = target * np.sqrt(2.0 / (n - 1))
        assert abs(sample_var - target) <= 4.0 * se_var
        se_mean = np.sqrt(target / n)
        assert abs(float(np.mean(samples))) <= 4.0 * se_mean

    def test_zero_idiosyncratic_noise_gives_identical_particles(self):
        params = CAL10  # all variance carried by the common noise
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        cfg = SimConfig(n_particles=8, n_common=3, dt=params.horizon / 64, seed=2)
        ens = simulate(params, sched, cfg)
        for block in (ens.x_terminal, ens.x_integral, ens.z_dx_idio, ens.zmu_dx):
            assert np.ptp(block, axis=1).max() == 0.0

    def test_quadratic_variation_accumulator_deterministic(self):
        params = CAL05
        sched, _ = optimal_schedule("classical", "cara", params, grid=128)
        cfg = SimConfig(n_particles=4, n_common=2, dt=params.horizon / 128, seed=4)
        ens = simulate(params, sched, cfg)
        from mfdr.agent import best_response_variance

        t_left = np.arange(ens.n_steps) * ens.dt
        idx = np.searchsorted(sched.grid, t_left, side="right") - 1
        var = best_response_variance(sched.gamma[idx], params)
        expected = float(np.sum(var + params.sigma_circ**2) * ens.dt)
        assert ens.quadratic_variation_integral == pytest.approx(expected, rel=1e-14)


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        # A rerun gives the same bytes for every accumulator and payoff.
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        cfg = SimConfig(n_particles=32, n_common=6, dt=params.horizon / 64, seed=42)

        def blob():
            ens = simulate(params, sched, cfg)
            fields = (ens.x_terminal, ens.x_integral, ens.z_dx_idio, ens.zmu_dx,
                      ens.z_dw_circ, ens.zmu_dw_circ, ens.zmu_dsum)
            payoffs = [contract_payoffs(ens, sched, params, "cara", indexing=indexing)
                       for indexing in ("common_noise", "law")]
            return b"".join(block.tobytes() for block in (*fields, *payoffs))

        assert blob() == blob()

    def test_seed_reproducibility(self):
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        mk = lambda seed: simulate(
            params, sched, SimConfig(n_particles=8, n_common=2, dt=params.horizon / 32, seed=seed)
        )
        a, b, c = mk(7), mk(7), mk(8)
        assert np.array_equal(a.x_terminal, b.x_terminal)
        assert not np.array_equal(a.x_terminal, c.x_terminal)

    def test_draws_four_normals_per_particle_and_scenario(self, monkeypatch):
        # No per-step random array: the draw count does not depend on n_steps.
        sizes = []
        real = np.random.Generator

        class Recording:
            def __init__(self, bit_generator):
                self._rng = real(bit_generator)

            def standard_normal(self, size):
                sizes.append(size)
                return self._rng.standard_normal(size)

        monkeypatch.setattr(mfsim_module.np.random, "Generator", Recording)
        sched = flat_schedule(CAL05, z=-1.0, gamma=-1.0)
        for n_steps in (16, 1024):
            sizes.clear()
            simulate(CAL05, sched, SimConfig(n_particles=8, n_common=6,
                                             dt=CAL05.horizon / n_steps, seed=1))
            assert sizes == [(6, 4), (6, 8, 4)]


class TestExactSampler:
    @pytest.mark.parametrize("n_steps", [64, 520])
    @pytest.mark.parametrize("schedule", ["new", "classical", "flat_z0"])
    def test_law_matches_path_reference(self, schedule, n_steps):
        # Unit increments through the path reference give the exact linear
        # map from step normals to each accumulator block; its Gram matrix
        # must be the covariance the sampler draws from.  520 steps span
        # several blocks of the sampler's setup.
        params = CAL05
        if schedule == "flat_z0":
            sched = flat_schedule(params, z=0.0, gamma=-1.0 / params.lambda_bar)
        else:
            sched, _ = optimal_schedule(schedule, "cara", params, grid=128)
        dt = params.horizon / n_steps
        _, _, mean, idio_factor, common_factor = mfsim_module._step_law(
            params, sched, dt, n_steps
        )
        zeros, eye = np.zeros(n_steps), np.eye(n_steps)
        base = path_reference(params, sched, n_steps, zeros[None, :], zeros)
        unit = path_reference(params, sched, n_steps, eye, zeros)
        idio_fields = ("x_terminal", "x_integral", "z_dx_idio", "zmu_dx")
        idio_map = np.stack([unit[name] - base[name] for name in idio_fields])

        sc = params.sigma_circ
        columns = []
        for k in range(n_steps):
            out = path_reference(params, sched, n_steps, zeros[None, :], eye[k])
            columns.append([
                (out["x_terminal"][0] - base["x_terminal"][0]) / sc,
                (out["x_integral"][0] - base["x_integral"][0]) / sc,
                out["z_dw_circ"],
                out["zmu_dw_circ"],
            ])
        common_map = np.array(columns).T

        for linear_map, factor in ((idio_map, idio_factor), (common_map, common_factor)):
            gram = linear_map @ linear_map.T
            assert np.max(np.abs(factor @ factor.T - gram)) <= 1e-12 * np.max(np.abs(gram))
            assert np.all(factor[np.argmax(np.abs(factor), axis=0), range(4)] >= 0.0)
        if schedule == "flat_z0":
            # z ≡ 0: the ∫z dX and ∫z dW° rows vanish and the rank drops.
            for factor in (idio_factor, common_factor):
                assert np.linalg.matrix_rank(factor) < 4

        expected_mean = np.array([
            base["x_terminal"][0] - params.x0,
            base["x_integral"][0] - n_steps * dt * params.x0,
            base["z_dx_idio"][0],
            base["zmu_dx"][0],
        ])
        assert mean == pytest.approx(expected_mean, rel=1e-12, abs=1e-12 * np.max(np.abs(expected_mean)))

    def test_memory_flat_in_steps(self):
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        peaks = {}
        for n_steps in (64, 2048):
            cfg = SimConfig(n_particles=256, n_common=4, dt=params.horizon / n_steps, seed=5)
            simulate(params, sched, cfg)
            tracemalloc.start()
            try:
                simulate(params, sched, cfg)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2048] <= 2.0 * peaks[64]


class TestFactorContraction:
    @pytest.mark.parametrize(
        "n_common, n_particles, antithetic",
        [(1, 100_000, False), (20_000, 2, False), (3, 5, False), (20_000, 2, True), (6, 5, True)],
    )
    def test_fields_match_per_particle_products(self, n_common, n_particles, antithetic):
        # Each field is base + L eps for the particle's own 4 normals, drawn in
        # the Philox order of SimConfig.seed.  These shapes cut the particle
        # rows (and, at 20,000 scenarios, the common rows) into several
        # blocks.  BLAS kernels round differently from this reference, so
        # the match is to a few ulps of the terms' magnitude, not in bits.
        params = dataclasses.replace(CAL05, x0=0.25)
        sched, _ = optimal_schedule("new", "cara", params, grid=64)
        cfg = SimConfig(n_particles=n_particles, n_common=n_common,
                        dt=params.horizon / 64, seed=31, antithetic=antithetic)
        ens = simulate(params, sched, cfg)

        _, _, mean, idio_factor, common_factor = mfsim_module._step_law(
            params, sched, ens.dt, ens.n_steps
        )
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        zeta = rng.standard_normal((n_common, 4))
        eps = rng.standard_normal((n_common, n_particles, 4))

        def products(factor, normals):  # (4,) + normals.shape[:-1], no BLAS
            terms = factor[(slice(None),) + (None,) * (normals.ndim - 1)] * normals
            return np.sum(terms, axis=-1), np.sum(np.abs(terms), axis=-1)

        common, common_scale = products(common_factor, zeta)
        if antithetic:
            common[:, 1::2] = -common[:, 0::2]
            common_scale[:, 1::2] = common_scale[:, 0::2]
        ulps = 4.0 * np.finfo(float).eps
        for row, got in ((2, ens.z_dw_circ), (3, ens.zmu_dw_circ)):
            assert np.all(np.abs(got - common[row]) <= ulps * common_scale[row])

        idio, idio_scale = products(idio_factor, eps)
        loading = params.sigma_circ * np.array([[1.0], [1.0], [0.0], [1.0]])
        shift = mean + [params.x0, ens.n_steps * ens.dt * params.x0, 0.0, 0.0]
        base = shift[:, None] + loading * common
        scale = idio_scale + (np.abs(shift)[:, None] + loading * common_scale)[:, :, None]
        fields = (ens.x_terminal, ens.x_integral, ens.z_dx_idio, ens.zmu_dx)
        for row, got in enumerate(fields):
            reference = idio[row] + base[row][:, None]
            assert got.shape == (n_common, n_particles)
            assert np.all(np.abs(got - reference) <= ulps * scale[row])
        dsum_scale = np.sum(scale[3], axis=1)
        dsum_reference = np.sum(idio[3] + base[3][:, None], axis=1)
        assert np.all(np.abs(ens.zmu_dsum - dsum_reference) <= 1e-12 * dsum_scale)

    def test_no_thread_pool_spin_after_simulate(self):
        # One whole-ensemble matrix product would go to a threaded BLAS's
        # pool, whose workers then spin on every core for ~0.1 s, billed to
        # this process while it sleeps.  An earlier test's BLAS call may
        # still spin, so wait for a quiet window first.
        sched, _ = optimal_schedule("new", "cara", CAL05, grid=128)

        def cpu_while_sleeping():
            start = time.process_time()
            time.sleep(0.05)
            return time.process_time() - start

        for _ in range(40):
            if cpu_while_sleeping() < 0.002:
                break
        else:
            pytest.fail("the process never went quiet for 50 ms before the run")
        simulate(CAL05, sched, SimConfig())
        assert cpu_while_sleeping() < 0.010


class TestAntithetic:
    def test_common_increments_are_negated_pairs(self):
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        cfg = SimConfig(n_particles=8, n_common=4, dt=params.horizon / 32, seed=9,
                        antithetic=True)
        ens = simulate(params, sched, cfg)
        assert np.array_equal(ens.z_dw_circ[1::2], -ens.z_dw_circ[0::2])
        assert np.array_equal(ens.zmu_dw_circ[1::2], -ens.zmu_dw_circ[0::2])
        # idiosyncratic draws of the pair members stay independent
        assert not np.allclose(ens.z_dx_idio[0], ens.z_dx_idio[1])
        assert not np.allclose(ens.z_dx_idio[2], ens.z_dx_idio[3])

    def test_idiosyncratic_stream_invariant_to_flag(self):
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        base = dict(n_particles=8, n_common=4, dt=params.horizon / 32, seed=9)
        on = simulate(params, sched, SimConfig(antithetic=True, **base))
        off = simulate(params, sched, SimConfig(antithetic=False, **base))
        assert np.array_equal(on.z_dx_idio, off.z_dx_idio)
        assert np.array_equal(on.x_terminal[0], off.x_terminal[0])
        assert not np.array_equal(on.x_terminal[1], off.x_terminal[1])

    def test_pairing_cancels_the_common_linear_term(self):
        # The W°-linear payoff term has zero pair average by construction,
        # so antithetic pairing removes its variance contribution entirely.
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        cfg = SimConfig(n_particles=8, n_common=8, dt=params.horizon / 32, seed=19,
                        antithetic=True)
        ens = simulate(params, sched, cfg)
        paired = ens.z_dw_circ[0::2] + ens.z_dw_circ[1::2]
        assert np.all(paired == 0.0)
        paired_mu = ens.zmu_dw_circ[0::2] + ens.zmu_dw_circ[1::2]
        assert np.all(paired_mu == 0.0)

    def test_two_scenarios_leave_single_effective_sample(self):
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        cfg = SimConfig(n_particles=8, n_common=2, dt=params.horizon / 32, seed=1,
                        antithetic=True)
        ens = simulate(params, sched, cfg)
        pay = contract_payoffs(ens, sched, params, "cara")
        with pytest.raises(ValueError, match="at least 2 effective"):
            verify_participation(ens, pay, params)


class TestPayoffEvaluators:
    def test_requires_matching_principal(self):
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        ens = simulate(params, sched, SimConfig(n_particles=2, n_common=1, dt=params.horizon / 32))
        with pytest.raises(ValueError, match="principal"):
            contract_payoffs(ens, sched, params, "risk_neutral")
        with pytest.raises(ValueError, match="principal_kind"):
            contract_payoffs(ens, sched, params, "quadratic")

    def test_rejects_first_best_schedule(self):
        # The first best is no offer, so no payment schedule can carry it.
        sched, _ = optimal_schedule("new", "cara", CAL05, grid=128)
        with pytest.raises(ValueError, match="kind"):
            PaymentSchedule(kind="first_best", principal="cara", horizon=sched.horizon,
                            z=sched.z, z_mu=sched.z_mu, gamma=sched.gamma)

    def test_rejects_unknown_indexing(self):
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        ens = simulate(params, sched, SimConfig(n_particles=2, n_common=1, dt=params.horizon / 32))
        with pytest.raises(ValueError, match="indexing"):
            contract_payoffs(ens, sched, params, "cara", indexing="midpoint")

    @pytest.mark.parametrize("indexing", ["common_noise", "law"])
    def test_odd_interval_schedule_rejected(self, indexing):
        # Simpson weights need an even interval count; an odd-interval
        # schedule is refused when built, so it never reaches either payoff
        # evaluator.
        params = CAL05
        ens = simulate(params, flat_schedule(params, z=-1.0, gamma=-1.0, n=4),
                       SimConfig(n_particles=2, n_common=1, dt=params.horizon / 8))
        with pytest.raises(ValueError, match="even integer >= 2, got 5"):
            contract_payoffs(ens, flat_schedule(params, z=-1.0, gamma=-1.0, n=5),
                             params, "cara", indexing=indexing)

    def test_schedule_on_another_grid_rejected(self):
        params = CAL05
        simulated, _ = optimal_schedule("new", "cara", params, grid=8)
        paid, _ = optimal_schedule("new", "cara", params, grid=16)
        ens = simulate(params, simulated, SimConfig(n_particles=2, n_common=1, dt=params.horizon / 32))
        with pytest.raises(ValueError, match="incompatible grids.*16 intervals.*under 8"):
            contract_payoffs(ens, paid, params, "cara")
        short = dataclasses.replace(params, horizon=params.horizon / 2)
        paid, _ = optimal_schedule("new", "cara", short, grid=8)
        with pytest.raises(ValueError, match="incompatible grids.*8 intervals over 2.75 h.*under 8 over 5.5 h"):
            contract_payoffs(ens, paid, short, "cara")

    @pytest.mark.parametrize("kind", ["new", "classical"])
    @pytest.mark.parametrize("principal", ["cara", "risk_neutral"])
    def test_law_rate_matches_seven_term_integrand(self, kind, principal):
        # Oracle: the law evaluator's integrand as it was written out before
        # both evaluators shared one rate function, its common-noise terms
        # expanded and the mean-increment drift added back.
        params, sc = CAL05, CAL05.sigma_circ
        sched, _ = optimal_schedule(kind, principal, params, grid=1024)
        z, zmu, gamma = sched.z, sched.z_mu, sched.gamma
        env = hamiltonian_envelopes(z, gamma, np.zeros_like(z), params)
        var = best_response_variance(gamma, params)
        scale = np.minimum(np.maximum(-z, 0.0), params.a_max)
        oracle = (
            -0.5 * env.h_d
            - 0.5 * env.h_v
            - 0.5 * gamma * sc**2
            + zmu * params.rho_bar * scale
            + 0.5 * (gamma + params.r_a * z**2) * (var + sc**2)
            + 0.5 * params.r_a * sc**2 * zmu * (zmu + 2.0 * z)
        )
        rate = mfsim_module._running_rate(z, zmu, gamma, params, "law")
        np.testing.assert_allclose(rate, oracle, rtol=0.0, atol=1e-14)
        exposure = rate - mfsim_module._running_rate(z, zmu, gamma, params, "common_noise")
        np.testing.assert_allclose(exposure, zmu * params.rho_bar * scale, rtol=0.0, atol=1e-14)

    def test_law_gap_is_deterministic_without_idiosyncratic_noise(self):
        params = CAL10
        sched, _ = optimal_schedule("new", "cara", params, grid=512)
        cfg = SimConfig(n_particles=64, n_common=4, dt=params.horizon / 128, seed=11)
        ens = simulate(params, sched, cfg)
        common = contract_payoffs(ens, sched, params, "cara", indexing="common_noise")
        law = contract_payoffs(ens, sched, params, "cara", indexing="law")
        gap = law - common
        assert np.ptp(gap) < 1e-12
        assert 0.0 < np.max(np.abs(gap)) < 0.25

    def test_law_gap_halves_with_the_step(self):
        params = CAL10
        sched, _ = optimal_schedule("new", "cara", params, grid=512)
        gaps = {}
        for frac in (128, 256):
            cfg = SimConfig(n_particles=64, n_common=4, dt=params.horizon / frac, seed=11)
            ens = simulate(params, sched, cfg)
            common = contract_payoffs(ens, sched, params, "cara", indexing="common_noise")
            law = contract_payoffs(ens, sched, params, "cara", indexing="law")
            gaps[frac] = float(np.max(np.abs(law - common)))
        assert 1.9 <= gaps[128] / gaps[256] <= 2.1

    def test_law_gap_bounded_with_idiosyncratic_noise(self):
        # With idiosyncratic noise the gap carries a finite-population
        # component on top of the quadrature difference; it stays small.
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=512)
        cfg = SimConfig(n_particles=512, n_common=4, dt=params.horizon / 128, seed=13)
        ens = simulate(params, sched, cfg)
        common = contract_payoffs(ens, sched, params, "cara", indexing="common_noise")
        law = contract_payoffs(ens, sched, params, "cara", indexing="law")
        assert float(np.max(np.abs(law - common))) < 1.5

    def test_risk_aversion_enters_only_through_aggregate_rate(self):
        # The payment evaluator reads (z, z_mu, gamma) alone; the extra
        # terms of a risk-averse principal all carry z + z_mu, which decays
        # to the risk-neutral value as r_p -> 0.  Relabelling the
        # risk-neutral rates as a zero-risk-aversion limit changes nothing.
        params = CAL05
        rn_sched, _ = optimal_schedule("new", "risk_neutral", params, grid=128)
        limit_sched = PaymentSchedule(
            kind="new", principal="cara", horizon=rn_sched.horizon,
            z=rn_sched.z, z_mu=rn_sched.z_mu, gamma=rn_sched.gamma,
        )
        cfg = SimConfig(n_particles=8, n_common=2, dt=params.horizon / 64, seed=31)
        ens = simulate(params, rn_sched, cfg)
        for indexing in ("common_noise", "law"):
            rn_pay = contract_payoffs(ens, rn_sched, params, "risk_neutral",
                                      indexing=indexing)
            lim_pay = contract_payoffs(ens, limit_sched, params, "cara",
                                       indexing=indexing)
            assert np.array_equal(rn_pay, lim_pay)

    def test_no_common_noise_reduces_to_classical_contract(self):
        # Without common noise the population-indexed payment pays exactly
        # the classical drift-and-volatility contract, path by path.
        params = CAL00
        new_sched, _ = optimal_schedule("new", "cara", params, grid=128)
        cls_sched, _ = optimal_schedule("classical", "cara", params, grid=128)
        cfg = SimConfig(n_particles=32, n_common=2, dt=params.horizon / 64, seed=37)
        ens = simulate(params, new_sched, cfg)
        new_pay = contract_payoffs(ens, new_sched, params, "cara")
        cls_pay = contract_payoffs(ens, cls_sched, params, "cara")
        assert np.array_equal(new_pay, cls_pay)

    def test_risk_neutral_new_contract_has_no_common_exposure(self):
        # z + z_mu == 0 for the risk-neutral new contract: flipping the
        # common path must leave the payoff unchanged given X°.
        params = CAL05
        sched, _ = optimal_schedule("new", "risk_neutral", params, grid=128)
        cfg = SimConfig(n_particles=4, n_common=2, dt=params.horizon / 64, seed=21,
                        antithetic=True)
        ens = simulate(params, sched, cfg)
        pay = contract_payoffs(ens, sched, params, "risk_neutral")
        # the pair shares no idiosyncratic draws, so compare the common-noise
        # loading directly: it is zero whenever z + z_mu == 0
        loading = ens.z_dw_circ + ens.zmu_dw_circ
        assert np.max(np.abs(loading)) < 1e-12
        assert np.all(np.isfinite(pay))


class TestVerification:
    @pytest.mark.parametrize("kind", ["new", "classical"])
    @pytest.mark.parametrize("principal", ["cara", "risk_neutral"])
    def test_reports_match_closed_forms(self, kind, principal):
        params = CAL05
        solution = solve_contract(kind, principal, params, grid=1024)
        sched, rep = solution.payment, solution.value
        cfg = SimConfig(n_particles=256, n_common=128, dt=params.horizon / 256, seed=7)
        ens = simulate(params, sched, cfg)
        pay = contract_payoffs(ens, sched, params, principal)

        part = verify_participation(ens, pay, params)
        assert part.n_effective == 128
        assert part.std_error > 0.0
        assert abs(part.z_score) <= 4.0
        assert part.closed_form_target == pytest.approx(-0.15792983029, rel=1e-9)

        val = verify_principal_value(ens, pay, params, rep)
        assert val.n_effective == 128
        assert val.closed_form_target == rep.v0
        assert abs(val.z_score) <= 4.0
        if principal == "risk_neutral":
            assert abs(val.jackknife_bias) < 1e-12
        else:
            assert abs(val.jackknife_bias) < 1e-4

    def test_participation_targets_the_payoff_reservation(self):
        # With lambda = 1 the walk-away consumer damps variance, so the
        # Simpson reservation moves with the grid.  The target must be the
        # xi0 the payoff pays, on the schedule's grid, not a 1024-interval one.
        params = validate(dataclasses.replace(CAL05, lambda_=(1.0,)))
        sched, _ = optimal_schedule("new", "cara", params, grid=8)
        cfg = SimConfig(n_particles=16, n_common=4, dt=params.horizon / 32, seed=5)
        ens = simulate(params, sched, cfg)
        pay = contract_payoffs(ens, sched, params, "cara")
        target = verify_participation(ens, pay, params).closed_form_target
        assert target == reservation(params, 8).xi0
        assert target != reservation(params).xi0

    def test_antithetic_halves_effective_samples(self):
        params = CAL05
        solution = solve_contract("new", "cara", params, grid=256)
        sched = solution.payment
        cfg = SimConfig(n_particles=64, n_common=64, dt=params.horizon / 128, seed=17,
                        antithetic=True)
        ens = simulate(params, sched, cfg)
        pay = contract_payoffs(ens, sched, params, "cara")
        part = verify_participation(ens, pay, params)
        val = verify_principal_value(ens, pay, params, solution.value)
        assert part.n_effective == 32
        assert val.n_effective == 32
        assert abs(part.z_score) <= 4.0
        assert abs(val.z_score) <= 4.0

    def test_payoff_shape_must_match(self):
        params = CAL05
        solution = solve_contract("new", "cara", params, grid=128)
        sched = solution.payment
        ens = simulate(params, sched, SimConfig(n_particles=4, n_common=2, dt=params.horizon / 32))
        pay = contract_payoffs(ens, sched, params, "cara")
        with pytest.raises(ValueError, match="shape"):
            verify_participation(ens, pay[:, :2], params)
        with pytest.raises(ValueError, match="shape"):
            verify_principal_value(ens, pay[:1], params, solution.value)

    def test_exact_saturation_without_preference_slope(self):
        # kappa = 0 makes the reservation level zero; a free contract paying
        # exactly that with no effort asked yields utility -1, a point mass.
        import dataclasses

        from mfdr.agent import reservation

        params = dataclasses.replace(CAL05, kappa=0.0)
        res = reservation(params)
        assert res.xi0 == 0.0
        assert res.r0 == -1.0
        sched = flat_schedule(params, z=0.0, gamma=-1.0 / params.lambda_bar)
        cfg = SimConfig(n_particles=8, n_common=4, dt=params.horizon / 32, seed=3)
        ens = simulate(params, sched, cfg)
        assert np.all(ens.agent_cost(params) == 0.0)
        forced = np.zeros_like(ens.x_terminal)
        util = -np.exp(-params.r_a * (forced - ens.agent_cost(params)))
        assert np.all(util == -1.0)
        with pytest.raises(ValueError, match="degenerate"):
            verify_participation(ens, forced, params)

    def test_degenerate_sample_rejected(self):
        # No noise at all: every scenario produces the same value.
        params = ModelParams(
            d=1, rho=(9.3e-5,), lambda_=(2.8e-2,), eta=(1.0,), sigma=(0.0,),
            sigma_circ=0.0, a_max=609.84, b_min=0.01, r_a=5.7e-3, r_p=6e-3,
            theta=4e-3, horizon=5.5, x0=0.0, delta=-55.44, kappa=11.76,
        )
        sched, _ = optimal_schedule("new", "cara", params, grid=128)
        cfg = SimConfig(n_particles=4, n_common=4, dt=params.horizon / 32, seed=1)
        ens = simulate(params, sched, cfg)
        pay = contract_payoffs(ens, sched, params, "cara")
        with pytest.raises(ValueError, match="degenerate"):
            verify_participation(ens, pay, params)

    def test_report_flattens(self):
        rep = McReport(
            estimate=1.0, std_error=0.1, n_effective=32,
            closed_form_target=1.05, z_score=-0.5, jackknife_bias=1e-6,
        )
        flat = rep.to_flat()
        assert flat["estimate"] == 1.0
        assert flat["n_effective"] == 32.0
        assert set(flat) == {
            "estimate", "std_error", "n_effective",
            "closed_form_target", "z_score", "jackknife_bias",
        }

    def test_scenario_means_track_common_noise(self):
        # Across scenarios the population mean of X_T varies by the common
        # noise's sigma_circ^2 T plus the idiosyncratic variance over N.
        params = CAL05
        sched, _ = optimal_schedule("new", "cara", params, grid=256)
        cfg = SimConfig(n_particles=16, n_common=4096, dt=params.horizon / 128, seed=23)
        ens = simulate(params, sched, cfg)
        common_var = params.sigma_circ**2 * params.horizon
        idio_var = ens.quadratic_variation_integral - common_var
        target = common_var + idio_var / ens.n_particles
        scenario_means = np.mean(ens.x_terminal, axis=1)
        se = target * np.sqrt(2.0 / (ens.n_common - 1))
        assert abs(float(np.var(scenario_means, ddof=1)) - target) <= 4.5 * se
