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
The particles' normals are drawn in row blocks of at most 8,192 draws into
one reused buffer, and the 4 x 4 factor reaches each block in one small
matrix product: a threaded BLAS splits one whole-ensemble product across
its thread pool, whose workers then spin on every core for about 0.1 s
after each call.  The payoffs are built in place, and the law indexing and
both checks run over blocks of whole scenarios of at most 8,192 particles
(one scenario, if it is larger).  So in the public chain (``simulate``,
``contract_payoffs``, the ``verify_*`` checks) the ensemble's fields and the
payoffs are the only ensemble-sized arrays, each block's work stays in
cache, and every per-scenario sum has the bits of the same sum over the
whole array.  ``mfdr simulate`` reads only per-scenario reductions, so it
runs the same per-block functions in one pass over the sampler's blocks
(``_stream_reports``), which holds no ensemble-sized array at all.

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
    _h_d,
    _h_v,
    best_effort_cost,
    best_response_variance,
    reservation,
)
from .model import ModelParams, ParameterError
from .numerics import integrate_samples
from .principal import ContractSolution, PaymentSchedule, ValueReport

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
#: A Monte Carlo estimate's rounding bound per unit of the magnitudes in it: 64 ulps
#: cover a few roundings per term, pairwise sums, exp and log (Higham 2002, ch. 4).
_ROUNDING = 64 * np.finfo(float).eps


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
        def integer(value) -> bool:  # as the CLI's parsers: a bool is not 0 or 1
            return isinstance(value, (int, np.integer)) and not isinstance(value, bool)

        problems = []
        if not integer(self.n_particles) or self.n_particles < 2:
            problems.append(f"n_particles must be an integer >= 2, got {self.n_particles!r}")
        if not integer(self.n_common) or self.n_common < 1:
            problems.append(f"n_common must be an integer >= 1, got {self.n_common!r}")
        real = integer(self.dt) or isinstance(self.dt, (float, np.floating))
        try:  # an int past the float range overflows: it is not finite either
            finite = real and 0.0 < float(self.dt) < np.inf
        except OverflowError:
            finite = False
        if self.dt is not None and not finite:
            problems.append(f"dt must be finite and > 0 when given, got {self.dt!r}")
        if not integer(self.seed) or not 0 <= self.seed < 2**64:
            problems.append(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not isinstance(self.antithetic, (bool, np.bool_)):
            problems.append(f"antithetic must be a bool, got {self.antithetic!r}")
        elif self.antithetic and integer(self.n_common) and self.n_common % 2 != 0:
            problems.append(f"antithetic pairing needs an even n_common, got {self.n_common}")
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
        return _agent_cost(self.effort_cost_integral, self.x_integral, params)

    def principal_cost(self, params: ModelParams) -> np.ndarray:
        """Accumulated principal running cost.

        Integral of ``(kappa - delta) * X_s`` (the consumers' preference
        flow net of the energy value of the deviation) plus ``theta/2``
        times the accumulated quadratic variation of the deviation.
        """
        return _principal_cost(self.quadratic_variation_integral, self.x_integral, params)


def _agent_cost(effort_cost_integral: float, x_integral: np.ndarray, params: ModelParams):
    """``ParticleEnsemble.agent_cost`` of the particles with ``x_integral``."""
    return effort_cost_integral - params.kappa * x_integral


def _principal_cost(qv_integral: float, x_integral: np.ndarray, params: ModelParams):
    """``ParticleEnsemble.principal_cost`` of the particles with ``x_integral``."""
    return (params.kappa - params.delta) * x_integral + 0.5 * params.theta * qv_integral


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


def _row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of equal blocks of at most ``_FACTOR_ROWS`` rows.

    Two or more blocks each hold over half that many rows: none is a
    one-column matrix product, which BLAS evaluates as a matrix-vector
    product, with other rounding.
    """
    n_blocks = -(-n_rows // _FACTOR_ROWS)
    edges = [n_rows * i // n_blocks for i in range(n_blocks + 1)]
    return list(zip(edges, edges[1:]))


def _scenario_blocks(ensemble: ParticleEnsemble) -> list[slice]:
    """Slices of whole scenarios of at most ``max(_FACTOR_ROWS, n_particles)``
    particles: a per-scenario sum over a block has the bits of the same sum
    over the whole array."""
    step = max(1, _FACTOR_ROWS // ensemble.n_particles)
    return [slice(lo, lo + step) for lo in range(0, ensemble.n_common, step)]


def _apply_factor(factor: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """``factor @ eps`` for each 4-vector ``eps`` on the last axis of
    ``normals``, as an array of shape ``(4,) + normals.shape[:-1]``, one
    small matrix product per ``_row_blocks`` block, so no product grows
    with the ensemble."""
    rows = normals.reshape(-1, 4)
    out = np.empty((4, len(rows)))
    for lo, hi in _row_blocks(len(rows)):
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


def _sampler(params: ModelParams, schedule: PaymentSchedule, cfg: SimConfig):
    """``(dt, n_steps, cost_integral, qv_integral, common, blocks)``: the step
    law, the ``(4, n_common)`` common rows and the one generator of the
    particles' fields, which draws each ``_row_blocks`` block of normals once,
    in order (``standard_normal`` rejects draws: no block can be skipped).
    As a block completes the scenarios ``rows`` (a slice), ``blocks(out)``
    yields ``(rows, fields, zmu_dsum)``, their ``(4, len, n_particles)``
    fields and ∫z_mu d(ΣX), written into ``out``, ``(4, n_common,
    n_particles)``, or into one block's buffer, whose front keeps the rows of
    a scenario the last block cut.  A non-finite field raises, naming its
    scenario."""
    _check_grids(schedule, params)
    dt, n_steps = _resolve_steps(params, cfg)
    cost_integral, qv_integral, mean, idio_factor, common_factor = _step_law(
        params, schedule, dt, n_steps
    )
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    common = _apply_factor(common_factor, rng.standard_normal((cfg.n_common, 4)))
    if cfg.antithetic:
        common[:, 1::2] = -common[:, 0::2]
    # X_T, ∫X ds, ∫z dX° and ∫z_mu dX: the idiosyncratic block plus the x0
    # terms and, except in ∫z dX°, sigma_circ times the common block.
    base = mean + [params.x0, n_steps * dt * params.x0, 0.0, 0.0]
    base = base[:, None] + params.sigma_circ * common * [[1.0], [1.0], [0.0], [1.0]]
    n, total = cfg.n_particles, cfg.n_common * cfg.n_particles

    def blocks(out: np.ndarray | None = None):
        shape = (4, min(total, n - 1 + _FACTOR_ROWS))
        buffer = np.empty(shape) if out is None else out.reshape(4, -1)
        normals = np.empty((min(_FACTOR_ROWS, total), 4))
        done = start = 0  # scenarios yielded; the row in the buffer's first column
        for lo, hi in _row_blocks(total):
            eps = rng.standard_normal(out=normals[: hi - lo])
            np.matmul(idio_factor, eps.T, out=buffer[:, lo - start : hi - start])
            ready = slice(done, hi // n)
            if ready.stop > done:
                fields = buffer[:, done * n - start : ready.stop * n - start].reshape(4, -1, n)
                fields += base[:, ready, None]
                zmu_dsum = np.sum(fields[3], axis=1)
                finite = np.isfinite(zmu_dsum) & np.all(np.isfinite(fields), axis=(0, 2))
                if not finite.all():
                    raise ArithmeticError("overflow in simulation of common-noise "
                                          f"scenario {done + np.argmin(finite)}")
                yield ready, fields, zmu_dsum
                done = ready.stop
            if out is None and done * n > start:  # the cut scenario's rows go to the front
                buffer[:, : hi - done * n] = buffer[:, done * n - start : hi - start]
                start = done * n

    return dt, n_steps, cost_integral, qv_integral, common, blocks


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
    with the number of steps.  The particles' normals are drawn one
    ``_row_blocks`` block at a time (``_sampler``), so beyond its result the
    sampler holds one block of them.
    """
    dt, n_steps, cost_integral, qv_integral, common, blocks = _sampler(params, schedule, cfg)
    fields = np.empty((4, cfg.n_common, cfg.n_particles))
    zmu_dsum = np.empty(cfg.n_common)
    for rows, _, block_dsum in blocks(fields):
        zmu_dsum[rows] = block_dsum
    return ParticleEnsemble(
        config=cfg, horizon=params.horizon, dt=dt, n_steps=n_steps,
        x_terminal=fields[0], x_integral=fields[1], z_dx_idio=fields[2], zmu_dx=fields[3],
        z_dw_circ=common[2], zmu_dw_circ=common[3], zmu_dsum=zmu_dsum,
        effort_cost_integral=cost_integral, quadratic_variation_integral=qv_integral,
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
    var = best_response_variance(gamma, params)
    rate = (
        -0.5 * _h_d(z, params)
        - 0.5 * _h_v(gamma, params)
        + 0.5 * (gamma + params.r_a * z**2) * var
        + 0.5 * params.r_a * params.sigma_circ**2 * (z + zmu) ** 2
    )
    if indexing == "law":
        rate = rate + zmu * params.rho_bar * _clamped_drift_scale(z, params)
    return rate


def _common_noise_terms(schedule: PaymentSchedule, params: ModelParams) -> float:
    """The common-noise-indexed payment's running terms (Simpson, schedule nodes)."""
    rate = _running_rate(schedule.z, schedule.z_mu, schedule.gamma, params, "common_noise")
    return integrate_samples(rate, 0.0, schedule.horizon)


def _payoffs(level: float, params: ModelParams, x_integral, z_dx_idio, exposure, out=None):
    """Payoffs ``level - kappa ∫X ds + ∫z dX° + exposure`` of a block of
    scenarios, in that order, in place."""
    payoffs = np.multiply(params.kappa, x_integral, out=out)
    np.subtract(level, payoffs, out=payoffs)
    payoffs += z_dx_idio
    payoffs += exposure
    return payoffs


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
    if schedule.principal != principal_kind:  # a PaymentSchedule's principal is valid
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
    n = ensemble.n_particles

    if indexing == "common_noise":
        det = _common_noise_terms(schedule, params)
        exposure = sc * (ensemble.z_dw_circ + ensemble.zmu_dw_circ)
    else:
        if n < 2:
            raise ValueError("law indexing needs n_particles >= 2")
        z, zmu, gamma = _sample_schedule(schedule, np.arange(ensemble.n_steps), ensemble.n_steps)
        det = float(np.sum(_running_rate(z, zmu, gamma, params, indexing)) * ensemble.dt)
    payoffs = np.empty(ensemble.x_terminal.shape)
    for rows in _scenario_blocks(ensemble):
        if indexing == "common_noise":
            tail = exposure[rows, None]
        else:  # the leave-one-out mean increment plus sigma_circ ∫z dW°
            tail = ensemble.zmu_dsum[rows, None] - ensemble.zmu_dx[rows]
            tail /= n - 1
            tail += sc * ensemble.z_dw_circ[rows, None]
        _payoffs(xi0 + det, params, ensemble.x_integral[rows], ensemble.z_dx_idio[rows], tail,
                 out=payoffs[rows])
    return payoffs


def _pair_average(samples: np.ndarray, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return samples
    if len(samples) % 2 != 0:
        raise ValueError(f"antithetic pairing needs an even sample count, got {len(samples)}")
    return 0.5 * (samples[0::2] + samples[1::2])


def _mc_moments(samples: np.ndarray) -> tuple[float, float]:
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 effective Monte Carlo samples, got {n}")
    mean = float(np.sum(samples) / n)
    var = float(np.sum((samples - mean) ** 2) / (n - 1))
    return mean, float(np.sqrt(var / n))


def _check_payoffs(payoffs: np.ndarray, ensemble: ParticleEnsemble) -> None:
    if payoffs.shape != ensemble.x_terminal.shape:
        raise ValueError(f"payoffs shape {payoffs.shape} does not match the ensemble "
                         f"shape {ensemble.x_terminal.shape}")


def _largest(a: np.ndarray) -> float:
    """``max |a|``, with no full-size temporary; blockwise, a running maximum."""
    return max(np.max(a), -np.min(a))


def _magnitude(largest: tuple[float, float], slope: float, constant: float) -> float:
    """A bound of ``|payoff| + |constant + slope * x_integral|`` from their ``_largest``."""
    return float(largest[0] + abs(slope) * largest[1] + abs(constant))


def _z_score(estimate: float, target: float, se: float, rounding: float) -> float:
    """``(estimate - target) / hypot(se, rounding)``; 0 where the estimate is
    its target, infinite where nothing spreads but they differ."""
    with np.errstate(divide="ignore"):
        return 0.0 if estimate == target else float((estimate - target) / np.hypot(se, rounding))


def _utility_means(payoffs, x_integral, effort_cost_integral: float, params: ModelParams):
    """Each scenario's mean agent utility ``-exp(-r_a (payoff - running
    cost))`` over a block of scenarios; NaN, for which
    ``_participation_report`` raises, if a utility is not finite."""
    exponent = -params.r_a * (payoffs - _agent_cost(effort_cost_integral, x_integral, params))
    with np.errstate(over="ignore"):
        util = -np.exp(exponent)
    if not np.all(np.isfinite(util)):
        return np.full(len(util), np.nan)
    return np.sum(util, axis=1) / payoffs.shape[1]


def _participation_report(scenario_means: np.ndarray, cfg: SimConfig, params: ModelParams,
                          xi0: float, largest: tuple, effort_cost_integral: float) -> McReport:
    """``verify_participation``'s report from each scenario's mean utility."""
    if np.isnan(scenario_means).any():
        raise ArithmeticError("overflow while evaluating agent utilities")
    samples = _pair_average(scenario_means, cfg.antithetic)
    mean_util, se_util = _mc_moments(samples)
    n = len(samples)
    loo_means = (np.sum(samples) - samples) / (n - 1)
    if mean_util >= 0.0 or np.any(loo_means >= 0.0):
        raise ArithmeticError(
            "r_a, x0: agent utility estimate must be negative (exponential utility); "
            "-exp(-r_a (payoff - cost)) underflows to -0 where r_a xi0 is large"
        )
    ce = -np.log(-mean_util) / params.r_a
    se_ce = se_util / (params.r_a * (-mean_util))
    loo_ce = -np.log(-loo_means) / params.r_a
    jackknife_bias = float((n - 1) * (np.sum(loo_ce) / n - ce))

    size = _magnitude(largest, params.kappa, effort_cost_integral)
    rounding = _ROUNDING * (size + 1.0 / params.r_a)
    return McReport(estimate=float(ce), std_error=float(se_ce), n_effective=n,
                    closed_form_target=float(xi0), jackknife_bias=jackknife_bias,
                    z_score=_z_score(float(ce), xi0, float(se_ce), rounding))


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

    The z-score divides by ``hypot(std_error, rho)``, ``rho = _ROUNDING (M +
    1 / r_a)`` the estimate's rounding bound, ``M`` bounding ``|payoff| +
    |running cost|``: where the agents bear no risk, rounding is the spread.
    """
    _check_payoffs(payoffs, ensemble)
    scenario_means = np.empty(ensemble.n_common)
    for rows in _scenario_blocks(ensemble):
        scenario_means[rows] = _utility_means(
            payoffs[rows], ensemble.x_integral[rows], ensemble.effort_cost_integral, params
        )
    largest = (_largest(payoffs), _largest(ensemble.x_integral))
    return _participation_report(scenario_means, ensemble.config, params,
                                 _reservation_level(ensemble, params), largest,
                                 ensemble.effort_cost_integral)


def _principal_block(payoffs, x_integral, qv_integral: float, params: ModelParams, principal: str):
    """Over a block of scenarios: each one's mean principal cost (payment plus
    running cost), its value and the value's leave-one-particle-out
    jackknife bias; NaN values, for which ``_value_report`` raises, if a
    value or a leave-one-out value is not finite."""
    n = payoffs.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        cost = payoffs + _principal_cost(qv_integral, x_integral, params)
        scenario_cost = np.sum(cost, axis=1) / n
        loo_cost = (n * scenario_cost[:, None] - cost) / (n - 1)
        if principal == "cara":
            value = -np.exp(params.r_p * scenario_cost)
            loo_values = -np.exp(params.r_p * loo_cost)
        else:
            value = -scenario_cost
            loo_values = -loo_cost
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(loo_values))):
        value = np.full(len(value), np.nan)
        return scenario_cost, value, value
    return scenario_cost, value, (n - 1) * (np.sum(loo_values, axis=1) / n - value)


def _value_report(values: np.ndarray, bias_per_scenario: np.ndarray, cfg: SimConfig,
                  params: ModelParams, value_report: ValueReport, largest: tuple,
                  qv_integral: float) -> McReport:
    """``verify_principal_value``'s report from each scenario's value and bias."""
    if np.isnan(values).any():
        raise ArithmeticError("overflow while evaluating principal values")
    jackknife_bias = float(np.sum(bias_per_scenario) / len(bias_per_scenario))
    samples = _pair_average(values, cfg.antithetic)
    estimate, se = _mc_moments(samples)
    qv_cost = 0.5 * params.theta * qv_integral
    rounding = _ROUNDING * _magnitude(largest, params.kappa - params.delta, qv_cost)
    if value_report.principal == "cara":
        rounding = abs(estimate) * (params.r_p * rounding + _ROUNDING)
    return McReport(estimate=estimate, std_error=se, n_effective=len(samples),
                    closed_form_target=float(value_report.v0), jackknife_bias=jackknife_bias,
                    z_score=_z_score(estimate, float(value_report.v0), se, rounding))


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

    The z-score divides by ``hypot(std_error, rho)``, ``rho`` the estimate's
    rounding bound: ``_ROUNDING M`` (risk-neutral), ``M`` bounding ``|payoff|
    + |running cost|``, or ``_ROUNDING |estimate| (r_p M + 1)`` (cara).
    """
    _check_payoffs(payoffs, ensemble)
    n = ensemble.n_particles
    if n < 2:
        raise ValueError(f"jackknife over particles needs n_particles >= 2, got {n}")
    values = np.empty(ensemble.n_common)
    bias_per_scenario = np.empty(ensemble.n_common)
    qv_integral = ensemble.quadratic_variation_integral
    for rows in _scenario_blocks(ensemble):
        _, values[rows], bias_per_scenario[rows] = _principal_block(
            payoffs[rows], ensemble.x_integral[rows], qv_integral, params, value_report.principal
        )
    largest = (_largest(payoffs), _largest(ensemble.x_integral))
    return _value_report(values, bias_per_scenario, ensemble.config, params, value_report,
                         largest, qv_integral)


def _stream_reports(params: ModelParams, solution: ContractSolution, cfg: SimConfig):
    """``verify_participation`` and ``verify_principal_value`` of the
    common-noise payoffs of ``simulate(params, solution.payment, cfg)``, each
    scenario's mean principal cost and mean X_T, with the bits and exceptions
    of that chain, from one pass over the sampler's blocks that holds no
    ensemble-sized array.  The checks raise after the last block is drawn, so
    a non-finite field in any block raises first, as in ``simulate``."""
    schedule, value_report = solution.payment, solution.value
    _, _, effort_cost, qv_integral, common, blocks = _sampler(params, schedule, cfg)
    xi0 = value_report.xi0  # the reservation on the schedule's grid (_reservation_level)
    level = xi0 + _common_noise_terms(schedule, params)
    exposure = params.sigma_circ * (common[2] + common[3])
    utility, values, bias, mean_cost, mean_x = (np.empty(cfg.n_common) for _ in range(5))
    largest = (-np.inf, -np.inf)
    for rows, fields, _ in blocks():
        payoffs = _payoffs(level, params, fields[1], fields[2], exposure[rows, None])
        largest = (max(largest[0], _largest(payoffs)), max(largest[1], _largest(fields[1])))
        utility[rows] = _utility_means(payoffs, fields[1], effort_cost, params)
        mean_cost[rows], values[rows], bias[rows] = _principal_block(
            payoffs, fields[1], qv_integral, params, value_report.principal
        )
        mean_x[rows] = np.sum(fields[0], axis=1) / cfg.n_particles
    participation = _participation_report(utility, cfg, params, xi0, largest, effort_cost)
    value = _value_report(values, bias, cfg, params, value_report, largest, qv_integral)
    return participation, value, mean_cost, mean_x
