"""Consumer best responses and optimized cost envelopes.

A consumer facing a payment stream with performance rate ``z`` (pence per kW
of consumption deviation) and variance rate ``gamma`` (pence per squared-kW
of realized quadratic variation) solves a static trade-off at every instant:

* drift effort: reduce usage ``k`` at quadratic cost, best response
  ``a_k = rho_k * min(max(-z, 0), a_max)`` — active only when ``z < 0``,
  i.e. when deviations are penalized;
* volatility effort: retain a fraction ``b_k`` of the usage's intrinsic
  variance, best response ``b_k = clip((lambda_k * max(-gamma, 0)) **
  (-1 / (eta_k + 1)), b_min, 1)`` — full retention when variance is not
  penalized, progressively stronger damping as ``gamma`` grows negative.

The module exposes those best responses, the induced cost/variance curves,
the optimized Hamiltonian envelopes used by the contract designer, and the
consumer's outside option (the utility of walking away and facing only the
baseline incentive ``kappa``), which pins the participation constraint.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .model import ModelParams, ParameterError
from .numerics import _uniform_grid, integrate_samples

__all__ = [
    "Envelopes",
    "ReservationReport",
    "best_drift_effort",
    "best_effort_cost",
    "best_response_variance",
    "best_response_vol_cost",
    "best_vol_effort",
    "f0",
    "hamiltonian_envelopes",
    "reservation",
]


def _as_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("inputs must be finite")
    return arr


def _finite(value: float, problem: str) -> float:
    """``value``; ``ParameterError([problem])`` where it is not a finite float."""
    if math.isfinite(value):
        return value
    raise ParameterError([problem])


def _exp(exponent: float, problem: str) -> float:
    """``exp(exponent)``; ``ParameterError([problem])`` where it is not a
    finite float (an exponent of -inf gives 0.0, as below ~-745)."""
    try:
        return _finite(math.exp(exponent), problem)
    except OverflowError:
        raise ParameterError([problem]) from None


def _clamped_drift_scale(z: np.ndarray, params: ModelParams) -> np.ndarray:
    """Per-usage drift scale min(max(-z, 0), a_max) of the drift best
    response; every module that needs the rule calls this one."""
    return np.minimum(np.maximum(-z, 0.0), params.a_max)


def best_drift_effort(z, params: ModelParams) -> np.ndarray:
    """Optimal per-usage consumption reduction for performance rate ``z``.

    Returns an array of shape ``z.shape + (d,)``; scalar ``z`` gives ``(d,)``.
    The response depends only on ``z`` — not on the aggregate-deviation rate
    or on the level of common-noise exposure.
    """
    z_arr = _as_array(z)
    scale = _clamped_drift_scale(z_arr, params)
    rho = np.asarray(params.rho)
    return rho * scale[..., None]


def best_vol_effort(gamma, params: ModelParams) -> np.ndarray:
    """Optimal per-usage variance retention for variance rate ``gamma``.

    Returns an array of shape ``gamma.shape + (d,)`` with entries in
    ``[b_min, 1]``.  Nonnegative ``gamma`` leaves variance unmanaged
    (retention 1, the continuous limit from below).
    """
    g_arr = _as_array(gamma)
    q = np.maximum(-g_arr, 0.0)
    lam = np.asarray(params.lambda_)
    eta = np.asarray(params.eta)
    scaled = lam * q[..., None]
    b = np.ones_like(scaled)
    active = scaled > 0.0
    exponent = np.broadcast_to(-1.0 / (eta + 1.0), scaled.shape)
    b[active] = scaled[active] ** exponent[active]
    return np.clip(b, params.b_min, 1.0)


def f0(q, params: ModelParams):
    """Smallest achievable rate of (variance charge + damping cost).

    For a nonnegative variance price ``q`` this is
    ``min over b of (q * Sigma(b) + c_beta(b))``, evaluated in closed form
    per usage: full retention while ``lambda_k * q <= 1``, an interior
    power-law regime above that, and a floor regime once the optimal
    retention would fall below ``b_min`` (see :func:`_f0_kernel`).

    Scalar ``q`` returns a float; arrays return an array of the same shape.

    Raises
    ------
    ValueError:
        If any entry of ``q`` is negative.
    """
    q_arr = _as_array(q)
    if (q_arr < 0.0).any():
        raise ValueError(f"q must be nonnegative, got {np.min(q_arr)!r}")
    total = _f0_kernel(params)(q_arr)
    if np.ndim(q) == 0:
        return float(total)
    return total


def _f0_kernel(params: ModelParams, sig2: np.ndarray | None = None):
    """:func:`f0` of ``params`` as a function of a price array ``q`` that it
    does not check (finite, >= 0), with the per-usage constants computed once.

    ``sig2``, when given, replaces the squares of ``params.sigma`` with
    per-row constants of shape ``(rows, 1, d)`` for ``(rows, k)`` prices,
    and the function takes ``(q, rows=None)``: ``rows`` (an index array)
    selects the constants of the rows of ``q``, all of them when None.
    Each row's values are those of its own ``sigma`` alone, bit for bit:
    the per-row factors enter only elementwise products, and the power's
    input ``lambda q`` keeps its layout.

    The interior formula runs on the whole ``q.shape + (d,)`` array with
    the power's input multiplied by a 0/1 factor of its regime, so it cannot
    overflow where its own entries do not, and ``np.where`` selects it or
    the full retention charge ``sig2 q``.  The power keeps that layout,
    which fixes the SIMD path that sets its last bits when d > 1.  The floor
    formula overwrites, on its own entries only, when some entry floors.
    """
    lam = np.asarray(params.lambda_)
    eta = np.asarray(params.eta)
    if sig2 is None:
        sig2 = np.asarray(params.sigma) ** 2
    b_min = params.b_min
    lam_eta = lam * eta
    power, slope, all_scales = eta / (1.0 + eta), 1.0 + eta, sig2 / lam_eta

    # At large eta * |log b_min| the floor constants pass the float range:
    # an infinite threshold floors no entry, which is exact.
    with np.errstate(over="ignore"):
        floor_q = b_min ** (-(1.0 + eta))
        floor_cost = (b_min ** (-eta) - 1.0) / lam_eta

    def values(q: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        s2, interior_scale = sig2, all_scales
        if rows is not None:
            s2, interior_scale = sig2[rows], all_scales[rows]
        q_k = q[..., None]
        scaled = lam * q_k
        full = scaled <= 1.0
        floored = scaled > floor_q
        some_floored = floored.any()
        interior = ~(full | floored) if some_floored else ~full
        per_usage = np.power(scaled * interior.astype(float), power)
        per_usage *= slope
        per_usage -= 1.0
        per_usage *= interior_scale
        per_usage = np.where(interior, per_usage, q_k * s2)
        if some_floored:
            np.multiply(b_min, q_k, out=per_usage, where=floored)
            np.add(per_usage, floor_cost, out=per_usage, where=floored)
            np.multiply(s2, per_usage, out=per_usage, where=floored)
        return np.sum(per_usage, axis=-1)

    return values


def _retained_variance(b: np.ndarray, params: ModelParams) -> np.ndarray:
    """Retained variance ``Sigma(b)`` of the retentions ``b`` (last axis d)."""
    return np.sum(np.asarray(params.sigma) ** 2 * b, axis=-1)


def _vol_cost(b: np.ndarray, params: ModelParams) -> np.ndarray:
    """Damping cost ``c_beta(b)`` of the retentions ``b`` (last axis d)."""
    lam = np.asarray(params.lambda_)
    eta = np.asarray(params.eta)
    sig2 = np.asarray(params.sigma) ** 2
    return np.sum(sig2 / (lam * eta) * (b ** (-eta) - 1.0), axis=-1)


def best_response_variance(gamma, params: ModelParams):
    """Retained variance ``Sigma(b)`` at the optimal retention for ``gamma``."""
    total = _retained_variance(best_vol_effort(gamma, params), params)
    if np.ndim(gamma) == 0:
        return float(total)
    return total


def best_response_vol_cost(gamma, params: ModelParams):
    """Damping cost ``c_beta(b)`` at the optimal retention for ``gamma``."""
    total = _vol_cost(best_vol_effort(gamma, params), params)
    if np.ndim(gamma) == 0:
        return float(total)
    return total


def best_effort_cost(z, gamma, params: ModelParams):
    """Instantaneous effort cost at the best responses to ``(z, gamma)``.

    Equals ``(rho_bar / 2) * min(max(-z, 0), a_max)^2`` for the drift side
    plus half the optimal damping cost; matches
    ``effort_cost(best_drift_effort(z), best_vol_effort(gamma))``.
    """
    z_arr = _as_array(z)
    scale = _clamped_drift_scale(z_arr, params)
    drift_part = 0.5 * params.rho_bar * scale**2
    vol_part = 0.5 * np.asarray(best_response_vol_cost(gamma, params))
    total = drift_part + vol_part
    if np.ndim(z) == 0 and np.ndim(gamma) == 0:
        return float(total)
    return total


class Envelopes(NamedTuple):
    """Optimized Hamiltonian pieces for a rate pair ``(z, gamma)`` at ``x``."""

    h_d: float
    h_v: float
    h_c: float
    h_total: float


def _h_d(z: np.ndarray, params: ModelParams) -> np.ndarray:
    scale = _clamped_drift_scale(z, params)
    return params.rho_bar * scale * (2.0 * np.maximum(-z, 0.0) - scale)


def _h_v(gamma: np.ndarray, params: ModelParams) -> np.ndarray:
    sig2_total = float(np.sum(np.asarray(params.sigma) ** 2))
    neg_part = np.maximum(-gamma, 0.0)
    return np.where(gamma <= 0.0, -f0(neg_part, params), gamma * sig2_total)


def hamiltonian_envelopes(z, gamma, x, params: ModelParams) -> Envelopes:
    """Optimized Hamiltonian decomposition at rates ``(z, gamma)`` and
    deviation level ``x``.

    Returns ``(h_d, h_v, h_c, h_total)`` where ``h_d`` is the drift-effort
    envelope, ``h_v`` the volatility-effort envelope, ``h_c`` the
    common-noise and baseline-incentive part
    ``gamma * sigma_circ^2 / 2 + kappa * x``, and
    ``h_total = h_d / 2 + h_v / 2 + h_c``.
    """
    z_arr, g_arr, x_arr = _as_array(z), _as_array(gamma), _as_array(x)
    h_d = _h_d(z_arr, params)
    h_v = _h_v(g_arr, params)
    h_c = 0.5 * g_arr * params.sigma_circ**2 + params.kappa * x_arr
    h_total = 0.5 * h_d + 0.5 * h_v + h_c
    if np.ndim(z) == 0 and np.ndim(gamma) == 0 and np.ndim(x) == 0:
        return Envelopes(float(h_d), float(h_v), float(h_c), float(h_total))
    return Envelopes(h_d, h_v, h_c, h_total)


@dataclasses.dataclass(frozen=True, eq=False)
class ReservationReport:
    """Outside option of a consumer who rejects every contract offer.

    Facing only the baseline incentive ``kappa``, the walk-away consumer
    still manages variance against the quadratic penalty it induces.  The
    report carries the resulting exposure curve ``gamma0`` on the time
    ``grid``, the per-usage retention schedule ``beta0``, the accumulated
    certainty-equivalent cost ``psi0_T``, the reservation certainty
    equivalent ``xi0``, and the reservation utility ``r0``.
    """

    grid: np.ndarray
    gamma0: np.ndarray
    beta0: np.ndarray
    psi0_T: float
    xi0: float
    r0: float

    def to_flat(self) -> dict[str, float]:
        """Flat key/value summary of the scalar outputs."""
        return {"xi0": self.xi0, "r0": self.r0, "psi0_T": self.psi0_T}


def reservation(params: ModelParams, grid_size: int = 1024) -> ReservationReport:
    """Outside option report on a uniform grid of ``grid_size`` intervals.

    The walk-away exposure is ``gamma0(t) = -r_a * kappa^2 * (T - t)^2``;
    retention follows its best response, and the certainty-equivalent cost
    rate ``(c_beta + |gamma0| * (retained + common variance)) / 2`` is
    integrated by Simpson's rule.  ``grid_size`` must be even and >= 2.
    Raises ``ParameterError`` naming the fields where ``xi0`` or ``r0`` is
    not a finite float.
    """
    horizon = params.horizon
    t = _uniform_grid(horizon, grid_size)
    gamma0 = -params.r_a * params.kappa**2 * (horizon - t) ** 2
    beta0 = best_vol_effort(gamma0, params)
    retained = _retained_variance(beta0, params)
    damping_cost = _vol_cost(beta0, params)
    cost_rate = 0.5 * (
        damping_cost - gamma0 * retained - gamma0 * params.sigma_circ**2
    )
    psi0_T = -integrate_samples(cost_rate, 0.0, horizon)
    xi0 = _finite(params.kappa * horizon * params.x0 + psi0_T,
                  "x0, kappa, sigma, sigma_circ, r_a: the reservation certainty equivalent "
                  "xi0 = kappa * horizon * x0 + psi0_T is not a finite float")
    r0 = -_exp(-params.r_a * xi0, "r_a, x0: the reservation utility -exp(-r_a xi0) overflows "
               "float64; xi0 = kappa * horizon * x0 + psi0_T")
    return ReservationReport(
        grid=t, gamma0=gamma0, beta0=beta0, psi0_T=psi0_T, xi0=xi0, r0=r0
    )
