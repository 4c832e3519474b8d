"""Monte Carlo check of contracted populations with common noise.

This module provides the independent numerical check on the closed-form
results produced by :mod:`mfdr.principal`.  A finite population of
``n_particles`` consumers is sampled under ``n_common`` independent
common-noise scenarios; every particle follows the time-discretised
best-response dynamics induced by a payment schedule, held constant from
each of its uniform nodes to the next.  The payment rates are deterministic,
so the accumulators the checks read are Gaussian, and each particle's and
each scenario's block of four is drawn exactly from its discrete-time law
(Glasserman, *Monte Carlo Methods in Financial Engineering*, 2003, ch. 3).
Two terminal-payment evaluators are implemented:

* ``indexing="common_noise"`` writes the payment as a functional of the
  consumer's own deviation and the common Brownian path, integrating the
  deterministic running terms with Simpson quadrature on the schedule nodes;
* ``indexing="law"`` replaces the common Brownian path with the empirical
  leave-one-out population mean, accruing every running term with a
  left-endpoint Riemann sum at the simulation step.

Both evaluators target the same continuous-time payment; their pathwise gap
is a discretisation diagnostic that must shrink linearly in the step size.
The 4 x 4 factors reach the normals in row blocks of at most 8,192 draws,
one small matrix product each: a threaded BLAS splits one whole-ensemble
product across its thread pool, whose workers then spin on every core for
about 0.1 s after each call.

Verification helpers estimate the agents' certainty equivalent (which must
match the reservation level — the contracts leave no rent) and the
principal's value (which must match the closed form), reporting Monte Carlo
standard errors, z-scores, and jackknife bias estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .agent import (
    _clamped_drift_scale,
    best_effort_cost,
    best_response_variance,
    hamiltonian_envelopes,
    reservation,
)
from .model import ModelParams, ParameterError
from .numerics import integrate_samples
from .principal import PRINCIPAL_KINDS, PaymentSchedule, ValueReport

__all__ = [
    "SimConfig",
    "ParticleEnsemble",
    "McReport",
    "simulate",
    "contract_payoffs",
    "verify_participation",
    "verify_principal_value",
]

_REL_TOL_GRID = 1e-9
#: Most steps one simulation may take over the horizon.  A run's cost grows
#: with its step count (the accumulator law is built block by block): 2**20
#: steps take about 1.1 s of CPU at the default ensemble (2-vCPU Xeon).
_MAX_STEPS = 2**20
#: steps per block when building the accumulator law
_BLOCK_STEPS = 256
#: Most draws (rows of four normals) per matrix product in ``_apply_factor``:
#: 4 x 4 x 8,192 multiply-adds stay under OpenBLAS's threading threshold
#: (m n k > 262,144, that is 16,384 rows).
_FACTOR_ROWS = 8192


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one population simulation.

    Attributes:
        n_particles: consumers per common-noise scenario (>= 2).
        n_common: number of common-noise scenarios (>= 1; even when
            ``antithetic`` is set).
        dt: simulation step; ``None`` selects ``horizon / 512``.  The
            horizon must be an integer multiple of it, of at most
            ``2**20`` steps.
        seed: key of the run's one counter-based (Philox) stream: four
            common normals per scenario first, then four per particle.
        antithetic: pair consecutive scenarios so the odd member of each
            pair takes the negated common normals of the even member
            (idiosyncratic draws stay independent and do not depend on the
            flag).  Estimates then average each pair first, halving the
            effective sample count.
    """

    n_particles: int = 1024
    n_common: int = 64
    dt: float | None = None
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self) -> None:
        problems = []
        if not isinstance(self.n_particles, (int, np.integer)) or self.n_particles < 2:
            problems.append(f"n_particles must be an integer >= 2, got {self.n_particles!r}")
        if not isinstance(self.n_common, (int, np.integer)) or self.n_common < 1:
            problems.append(f"n_common must be an integer >= 1, got {self.n_common!r}")
        if self.dt is not None and not 0.0 < float(self.dt) < np.inf:
            problems.append(f"dt must be finite and > 0 when given, got {self.dt!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            problems.append(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.antithetic and self.n_common % 2 != 0:
            problems.append(
                f"antithetic pairing needs an even n_common, got {self.n_common}"
            )
        if problems:
            raise ParameterError(problems)


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """Sampled population: terminal states and running accumulators.

    All per-particle arrays have shape ``(n_common, n_particles)``; per-
    scenario arrays have shape ``(n_common,)``.  Running integrals use the
    left endpoint of each step, matching the accrual convention of the
    law-indexed payment evaluator.
    """

    config: SimConfig
    horizon: float
    dt: float
    n_steps: int
    #: terminal deviation X_T per particle
    x_terminal: np.ndarray
    #: integral of X_s ds per particle (left-endpoint accrual)
    x_integral: np.ndarray
    #: integral of z dX° per particle (idiosyncratic deviation increments)
    z_dx_idio: np.ndarray
    #: integral of z_mu dX per particle (full deviation increments)
    zmu_dx: np.ndarray
    #: integral of z dW° per scenario
    z_dw_circ: np.ndarray
    #: integral of z_mu dW° per scenario
    zmu_dw_circ: np.ndarray
    #: integral of z_mu d(sum over particles of X) per scenario
    zmu_dsum: np.ndarray
    #: integral of the best-response effort cost rate (deterministic scalar)
    effort_cost_integral: float
    #: integral of the per-particle quadratic-variation rate (deterministic)
    quadratic_variation_integral: float
    #: intervals of the schedule grid the population was simulated under
    _schedule_intervals: int

    @property
    def n_common(self) -> int:
        return self.x_terminal.shape[0]

    @property
    def n_particles(self) -> int:
        return self.x_terminal.shape[1]

    def agent_cost(self, params: ModelParams) -> np.ndarray:
        """Accumulated agent running cost: integral of (effort cost - kappa X)."""
        return self.effort_cost_integral - params.kappa * self.x_integral

    def principal_cost(self, params: ModelParams) -> np.ndarray:
        """Accumulated principal running cost.

        Integral of ``(kappa - delta) * X_s`` (the consumers' preference
        flow net of the energy value of the deviation) plus ``theta/2``
        times the accumulated quadratic variation of the deviation.
        """
        return (
            (params.kappa - params.delta) * self.x_integral
            + 0.5 * params.theta * self.quadratic_variation_integral
        )


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimate of a closed-form quantity.

    ``estimate`` and ``std_error`` are on the scale of
    ``closed_form_target`` (certainty equivalents for participation checks,
    principal utility / value for value checks).  ``jackknife_bias`` is the
    leave-one-out bias estimate of the nonlinear transform involved; the
    estimate itself is reported uncorrected.
    """

    estimate: float
    std_error: float
    n_effective: int
    closed_form_target: float
    z_score: float
    jackknife_bias: float

    def to_flat(self) -> dict[str, float]:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_effective": float(self.n_effective),
            "closed_form_target": self.closed_form_target,
            "z_score": self.z_score,
            "jackknife_bias": self.jackknife_bias,
        }


def _resolve_steps(params: ModelParams, cfg: SimConfig) -> tuple[float, int]:
    horizon = params.horizon
    dt = horizon / 512.0 if cfg.dt is None else float(cfg.dt)
    steps = horizon / dt
    # Checked as a float, before ``int`` meets an overflowing quotient.
    if not steps <= _MAX_STEPS:
        raise ValueError(
            f"dt = {dt} gives {steps:.6g} steps over the horizon {horizon}, "
            f"more than the {_MAX_STEPS} allowed"
        )
    n_steps = int(round(steps))
    if n_steps < 1 or abs(steps - n_steps) > _REL_TOL_GRID * max(1.0, steps):
        raise ValueError(
            f"incompatible grids: horizon {horizon} is not an integer "
            f"multiple of dt {dt}"
        )
    return dt, n_steps


def _check_grids(
    schedule: PaymentSchedule,
    params: ModelParams,
    ensemble: ParticleEnsemble | None = None,
) -> None:
    """Reject a schedule on another horizon than the model's; with an
    ensemble, also one on another grid than the simulated schedule's, whose
    reservation and running terms the payoffs pay."""
    if schedule.horizon != params.horizon:
        raise ValueError(
            f"incompatible grids: schedule horizon {schedule.horizon}, "
            f"model horizon {params.horizon}"
        )
    if ensemble is None:
        return
    simulated = (ensemble.horizon, ensemble._schedule_intervals)
    if (schedule.horizon, schedule.n_intervals) != simulated:
        raise ValueError(
            f"incompatible grids: the schedule has {schedule.n_intervals} "
            f"intervals over {schedule.horizon} h but the ensemble was "
            f"simulated under {simulated[1]} over {simulated[0]} h"
        )


def _reservation_level(ensemble: ParticleEnsemble, params: ModelParams) -> float:
    """The reservation ``xi0`` on the simulated schedule's grid: the level every
    payoff pays and the certainty equivalent participation must reach."""
    return reservation(params, ensemble._schedule_intervals).xi0


def _sample_schedule(
    schedule: PaymentSchedule, steps: np.ndarray, n_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-constant samples of (z, z_mu, gamma) at the starts of ``steps``
    out of ``n_steps``: step ``k`` starts at ``k T / n_steps``, inside schedule
    interval ``k n_intervals // n_steps``, exactly, even on a node."""
    idx = steps * schedule.n_intervals // n_steps
    return schedule.z[idx], schedule.z_mu[idx], schedule.gamma[idx]


def _factor(r: np.ndarray) -> np.ndarray:
    """4 x 4 factor ``U S`` of the thin SVD of ``W``, from the R of a QR of ``W.T``.

    ``R.T = W Q`` has the ``U S`` of ``W``; the Gram matrix ``W W.T`` (the
    square of ``W``'s condition number) is never formed.  Rank drops leave
    zero columns; each column's largest-magnitude entry is made positive.
    """
    u, s, _ = np.linalg.svd(r.T)
    factor = u * s
    pivot = factor[np.argmax(np.abs(factor), axis=0), np.arange(4)]
    return np.where(pivot < 0.0, -factor, factor)


def _apply_factor(factor: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """``factor @ eps`` for each 4-vector ``eps`` on the last axis of
    ``normals``, as an array of shape ``(4,) + normals.shape[:-1]``.

    The rows go in equal blocks of at most ``_FACTOR_ROWS``, one small matrix
    product each, so no product grows with the ensemble.  Two or more blocks
    each hold over half that many rows: none is a one-column product, which
    BLAS evaluates as a matrix-vector product, with other rounding.
    """
    rows = normals.reshape(-1, 4)
    out = np.empty((4, len(rows)))
    n_blocks = -(-len(rows) // _FACTOR_ROWS)
    edges = [len(rows) * i // n_blocks for i in range(n_blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(factor, rows[lo:hi].T, out=out[:, lo:hi])
    return out.reshape((4,) + normals.shape[:-1])


def _step_law(
    params: ModelParams, schedule: PaymentSchedule, dt: float, n_steps: int
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """Effort-cost and quadratic-variation integrals, ``mean``, ``L_idio``, ``L_common``.

    Step ``k``'s increment enters X_T, the left-endpoint ∫X ds, ∫z dX and
    ∫z_mu dX with weights ``B[:, k] = (1, dt (n_steps - 1 - k), z_k, z_mu,k)``.
    A particle's block is ``mean + L_idio eps`` with ``mean = B drift dt``
    and ``L_idio`` the factor of ``B diag(sqrt(Sigma* dt))``; a scenario's
    (W°_T, ∫W° ds, ∫z dW°, ∫z_mu dW°) is ``L_common eps``, from ``sqrt(dt) B``.
    Steps go in blocks, so memory does not grow with ``n_steps``.
    """
    cost = qv = 0.0
    mean = np.zeros(4)
    r_idio = r_common = np.zeros((4, 4))
    for start in range(0, n_steps, _BLOCK_STEPS):
        k = np.arange(start, min(start + _BLOCK_STEPS, n_steps))
        z, zmu, gamma = _sample_schedule(schedule, k, n_steps)
        var = best_response_variance(gamma, params)
        drift = -params.rho_bar * _clamped_drift_scale(z, params)
        cost += np.sum(best_effort_cost(z, gamma, params))
        qv += np.sum(var + params.sigma_circ**2)
        b_t = np.column_stack([np.ones(len(k)), dt * (n_steps - 1 - k), z, zmu])
        mean += (drift * dt) @ b_t
        r_idio = np.linalg.qr(np.vstack([r_idio, np.sqrt(var * dt)[:, None] * b_t]), mode="r")
        r_common = np.linalg.qr(np.vstack([r_common, np.sqrt(dt) * b_t]), mode="r")
    return float(cost * dt), float(qv * dt), mean, _factor(r_idio), _factor(r_common)


def simulate(
    params: ModelParams,
    schedule: PaymentSchedule,
    cfg: SimConfig,
) -> ParticleEnsemble:
    """Sample a population of consumers responding to a payment schedule.

    Every particle follows the best-response deviation dynamics on steps of
    ``dt``, with the schedule held at each step's left endpoint: drift
    ``-rho_bar * min(max(-z, 0), a_max)``, idiosyncratic variance rate
    ``Sigma*(gamma)`` from the best-response usage mix, plus the common noise
    ``sigma_circ dW°``.  The accumulators are drawn from their exact
    discrete-time law (``_step_law``), not along paths, so the result is a
    pure function of ``(params, schedule, cfg)`` whose memory does not grow
    with the number of steps.
    """
    _check_grids(schedule, params)
    dt, n_steps = _resolve_steps(params, cfg)
    cost_integral, qv_integral, mean, idio_factor, common_factor = _step_law(
        params, schedule, dt, n_steps
    )
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    common = _apply_factor(common_factor, rng.standard_normal((cfg.n_common, 4)))
    if cfg.antithetic:
        common[:, 1::2] = -common[:, 0::2]
    normals = rng.standard_normal((cfg.n_common, cfg.n_particles, 4))
    # X_T, ∫X ds, ∫z dX° and ∫z_mu dX: the idiosyncratic block plus the x0
    # terms and, except in ∫z dX°, sigma_circ times the common block.
    base = mean + [params.x0, n_steps * dt * params.x0, 0.0, 0.0]
    base = base[:, None] + params.sigma_circ * common * [[1.0], [1.0], [0.0], [1.0]]
    fields = _apply_factor(idio_factor, normals)
    fields += base[:, :, None]
    zmu_dsum = np.sum(fields[3], axis=1)
    finite = np.all(np.isfinite(fields), axis=(0, 2)) & np.isfinite(zmu_dsum)
    if not np.all(finite):
        raise ArithmeticError(
            f"overflow in simulation of common-noise scenario {np.argmin(finite)}"
        )
    return ParticleEnsemble(
        config=cfg,
        horizon=params.horizon,
        dt=dt,
        n_steps=n_steps,
        x_terminal=fields[0],
        x_integral=fields[1],
        z_dx_idio=fields[2],
        zmu_dx=fields[3],
        z_dw_circ=common[2],
        zmu_dw_circ=common[3],
        zmu_dsum=zmu_dsum,
        effort_cost_integral=cost_integral,
        quadratic_variation_integral=qv_integral,
        _schedule_intervals=schedule.n_intervals,
    )


def _running_rate(
    z: np.ndarray,
    zmu: np.ndarray,
    gamma: np.ndarray,
    params: ModelParams,
    indexing: Literal["common_noise", "law"],
) -> np.ndarray:
    """Deterministic running terms of the payment per unit time, at rates
    ``(z, zmu, gamma)``.

    The common-noise-indexed rate collects minus the drift and volatility
    Hamiltonian envelopes (halved), the volatility-payment correction
    ``(gamma + r_a z^2) * Sigma*(gamma) / 2``, and the common-noise risk
    loading ``r_a sigma_circ^2 (z + z_mu)^2 / 2``.  The law-indexed payment
    pays ``z_mu`` against the population's mean increments, not against
    ``sigma_circ dW°``; it adds back their drift, ``z_mu rho_bar`` times the
    clamped drift scale ``min(max(-z, 0), a_max)``.
    """
    env = hamiltonian_envelopes(z, gamma, np.zeros_like(z), params)
    var = best_response_variance(gamma, params)
    rate = (
        -0.5 * env.h_d
        - 0.5 * env.h_v
        + 0.5 * (gamma + params.r_a * z**2) * var
        + 0.5 * params.r_a * params.sigma_circ**2 * (z + zmu) ** 2
    )
    if indexing == "law":
        rate = rate + zmu * params.rho_bar * _clamped_drift_scale(z, params)
    return rate


def contract_payoffs(
    ensemble: ParticleEnsemble,
    schedule: PaymentSchedule,
    params: ModelParams,
    principal_kind: str,
    indexing: Literal["common_noise", "law"] = "common_noise",
) -> np.ndarray:
    """Terminal payment received by every particle, shape (n_common, n_particles).

    With ``indexing="common_noise"`` the payment is evaluated in its
    common-noise-indexed form: reservation level, deterministic running
    terms (Simpson quadrature on the schedule's nodes), the deviation tracking
    terms ``-kappa ∫X ds + ∫z dX°``, and the common-noise exposure
    ``sigma_circ ∫(z + z_mu) dW°``.

    With ``indexing="law"`` the common Brownian path is replaced by the
    leave-one-out empirical mean of the population (each particle is paid
    against the other ``n_particles - 1``), and every running term accrues
    with a left-endpoint Riemann sum at the simulation step, as a real
    contract written on observables would.  The two evaluations agree up to
    quadrature and propagation-of-chaos errors.
    """
    if principal_kind not in PRINCIPAL_KINDS:
        raise ValueError(
            f"principal_kind must be one of {PRINCIPAL_KINDS}, got {principal_kind!r}"
        )
    if schedule.principal != principal_kind:
        raise ValueError(
            f"schedule was built for a {schedule.principal!r} principal, "
            f"got principal_kind={principal_kind!r}"
        )
    if indexing not in ("common_noise", "law"):
        raise ValueError(
            f"indexing must be 'common_noise' or 'law', got {indexing!r}"
        )
    _check_grids(schedule, params, ensemble)

    xi0 = _reservation_level(ensemble, params)
    sc = params.sigma_circ

    if indexing == "common_noise":
        rate = _running_rate(schedule.z, schedule.z_mu, schedule.gamma, params, indexing)
        det = integrate_samples(rate, 0.0, schedule.horizon)
        payoff = (
            xi0
            + det
            - params.kappa * ensemble.x_integral
            + ensemble.z_dx_idio
            + sc * (ensemble.z_dw_circ + ensemble.zmu_dw_circ)[:, None]
        )
        return payoff

    n = ensemble.n_particles
    if n < 2:
        raise ValueError("law indexing needs n_particles >= 2")
    z, zmu, gamma = _sample_schedule(
        schedule, np.arange(ensemble.n_steps), ensemble.n_steps
    )
    det = float(np.sum(_running_rate(z, zmu, gamma, params, indexing)) * ensemble.dt)
    loo_mean_increment = (ensemble.zmu_dsum[:, None] - ensemble.zmu_dx) / (n - 1)
    payoff = (
        xi0
        + det
        - params.kappa * ensemble.x_integral
        + ensemble.z_dx_idio
        + sc * ensemble.z_dw_circ[:, None]
        + loo_mean_increment
    )
    return payoff


def _pair_average(samples: np.ndarray, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return samples
    if len(samples) % 2 != 0:
        raise ValueError(
            f"antithetic pairing needs an even sample count, got {len(samples)}"
        )
    return 0.5 * (samples[0::2] + samples[1::2])


def _mc_moments(samples: np.ndarray) -> tuple[float, float]:
    n = len(samples)
    if n < 2:
        raise ValueError(
            f"need at least 2 effective Monte Carlo samples, got {n}"
        )
    mean = float(np.sum(samples) / n)
    var = float(np.sum((samples - mean) ** 2) / (n - 1))
    se = float(np.sqrt(var / n))
    if se == 0.0:
        raise ValueError(
            "degenerate Monte Carlo sample: standard error is exactly zero"
        )
    return mean, se


def verify_participation(
    ensemble: ParticleEnsemble,
    payoffs: np.ndarray,
    params: ModelParams,
) -> McReport:
    """Check that the contract leaves the agents exactly their reservation.

    The per-particle utility ``-exp(-r_a (payoff - running cost))`` is
    averaged within each common-noise scenario, scenario means (pair-
    averaged if antithetic) form the Monte Carlo sample, and the resulting
    estimate is mapped to a certainty equivalent.  The report compares it
    to the reservation certainty equivalent on the simulated schedule's
    grid, the ``xi0`` the payoffs pay, with a delta-method standard error
    and a leave-one-scenario-out jackknife bias for the log transform.
    """
    if payoffs.shape != ensemble.x_terminal.shape:
        raise ValueError(
            f"payoffs shape {payoffs.shape} does not match the ensemble "
            f"shape {ensemble.x_terminal.shape}"
        )
    util = -np.exp(-params.r_a * (payoffs - ensemble.agent_cost(params)))
    if not np.all(np.isfinite(util)):
        raise ArithmeticError("overflow while evaluating agent utilities")
    scenario_means = np.sum(util, axis=1) / ensemble.n_particles
    samples = _pair_average(scenario_means, ensemble.config.antithetic)
    mean_util, se_util = _mc_moments(samples)
    if mean_util >= 0.0:
        raise ArithmeticError(
            "agent utility estimate must be negative (exponential utility)"
        )
    ce = -np.log(-mean_util) / params.r_a
    se_ce = se_util / (params.r_a * (-mean_util))

    n = len(samples)
    total = np.sum(samples)
    loo_means = (total - samples) / (n - 1)
    if np.any(loo_means >= 0.0):
        raise ArithmeticError(
            "agent utility estimate must be negative (exponential utility)"
        )
    loo_ce = -np.log(-loo_means) / params.r_a
    jackknife_bias = float((n - 1) * (np.sum(loo_ce) / n - ce))

    xi0 = _reservation_level(ensemble, params)
    z_score = (ce - xi0) / se_ce
    return McReport(
        estimate=float(ce),
        std_error=float(se_ce),
        n_effective=n,
        closed_form_target=float(xi0),
        z_score=float(z_score),
        jackknife_bias=jackknife_bias,
    )


def verify_principal_value(
    ensemble: ParticleEnsemble,
    payoffs: np.ndarray,
    params: ModelParams,
    value_report: ValueReport,
) -> McReport:
    """Check the principal's simulated value against its closed form.

    Each common-noise scenario produces one realisation of the principal's
    aggregate cost: payment plus running principal cost, averaged over the
    population.  A risk-averse principal maps it through
    ``-exp(r_p * cost)``; a risk-neutral principal through ``-cost``.  The
    scenario values (pair-averaged if antithetic) are compared against
    ``value_report.v0``.  ``jackknife_bias`` is the mean leave-one-
    particle-out bias of the within-scenario nonlinearity; it vanishes
    identically in the risk-neutral case.
    """
    if payoffs.shape != ensemble.x_terminal.shape:
        raise ValueError(
            f"payoffs shape {payoffs.shape} does not match the ensemble "
            f"shape {ensemble.x_terminal.shape}"
        )
    n = ensemble.n_particles
    if n < 2:
        raise ValueError(
            f"jackknife over particles needs n_particles >= 2, got {n}"
        )
    cost = payoffs + ensemble.principal_cost(params)
    scenario_cost = np.sum(cost, axis=1) / n
    loo_cost = (n * scenario_cost[:, None] - cost) / (n - 1)
    if value_report.principal == "cara":
        values = -np.exp(params.r_p * scenario_cost)
        loo_values = -np.exp(params.r_p * loo_cost)
    else:
        values = -scenario_cost
        loo_values = -loo_cost
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(loo_values))):
        raise ArithmeticError("overflow while evaluating principal values")
    bias_per_scenario = (n - 1) * (np.sum(loo_values, axis=1) / n - values)
    jackknife_bias = float(np.sum(bias_per_scenario) / ensemble.n_common)

    samples = _pair_average(values, ensemble.config.antithetic)
    estimate, se = _mc_moments(samples)
    z_score = (estimate - value_report.v0) / se
    return McReport(
        estimate=estimate,
        std_error=se,
        n_effective=len(samples),
        closed_form_target=float(value_report.v0),
        z_score=float(z_score),
        jackknife_bias=jackknife_bias,
    )
