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

from .model import ModelParams
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
    retention would fall below ``b_min``. Each entry evaluates only its own
    regime's formula (masked ufuncs), so the power runs only on interior ones.

    Scalar ``q`` returns a float; arrays return an array of the same shape.

    Raises
    ------
    ValueError:
        If any entry of ``q`` is negative.
    """
    q_arr = _as_array(q)
    if (q_arr < 0.0).any():
        raise ValueError(f"q must be nonnegative, got {np.min(q_arr)!r}")
    lam = np.asarray(params.lambda_)
    eta = np.asarray(params.eta)
    sig2 = np.asarray(params.sigma) ** 2
    b_min = params.b_min
    lam_eta = lam * eta

    # At large eta * |log b_min| the floor constants pass the float range:
    # an infinite threshold floors no entry, which is exact.
    with np.errstate(over="ignore"):
        floor_q = b_min ** (-(1.0 + eta))
        floor_cost = (b_min ** (-eta) - 1.0) / lam_eta

    scaled = lam * q_arr[..., None]
    full = scaled <= 1.0
    floored = scaled > floor_q
    interior = ~(full | floored)
    per_usage = np.empty(scaled.shape)
    np.multiply(sig2, q_arr[..., None], out=per_usage, where=full)
    np.power(scaled, eta / (1.0 + eta), out=per_usage, where=interior)
    np.multiply(1.0 + eta, per_usage, out=per_usage, where=interior)
    np.subtract(per_usage, 1.0, out=per_usage, where=interior)
    np.multiply(sig2 / lam_eta, per_usage, out=per_usage, where=interior)
    np.multiply(b_min, q_arr[..., None], out=per_usage, where=floored)
    np.add(per_usage, floor_cost, out=per_usage, where=floored)
    np.multiply(sig2, per_usage, out=per_usage, where=floored)
    total = np.sum(per_usage, axis=-1)
    if np.ndim(q) == 0:
        return float(total)
    return total


def best_response_variance(gamma, params: ModelParams):
    """Retained variance ``Sigma(b)`` at the optimal retention for ``gamma``."""
    b = best_vol_effort(gamma, params)
    sig2 = np.asarray(params.sigma) ** 2
    total = np.sum(sig2 * b, axis=-1)
    if np.ndim(gamma) == 0:
        return float(total)
    return total


def best_response_vol_cost(gamma, params: ModelParams):
    """Damping cost ``c_beta(b)`` at the optimal retention for ``gamma``."""
    b = best_vol_effort(gamma, params)
    lam = np.asarray(params.lambda_)
    eta = np.asarray(params.eta)
    sig2 = np.asarray(params.sigma) ** 2
    per_usage = sig2 / (lam * eta) * (b ** (-eta) - 1.0)
    total = np.sum(per_usage, axis=-1)
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
    """
    horizon = params.horizon
    t = _uniform_grid(horizon, grid_size)
    gamma0 = -params.r_a * params.kappa**2 * (horizon - t) ** 2
    beta0 = best_vol_effort(gamma0, params)
    retained = best_response_variance(gamma0, params)
    damping_cost = best_response_vol_cost(gamma0, params)
    cost_rate = 0.5 * (
        damping_cost - gamma0 * retained - gamma0 * params.sigma_circ**2
    )
    psi0_T = -integrate_samples(cost_rate, 0.0, horizon)
    xi0 = params.kappa * horizon * params.x0 + psi0_T
    r0 = -math.exp(-params.r_a * xi0)
    return ReservationReport(
        grid=t, gamma0=gamma0, beta0=beta0, psi0_T=psi0_T, xi0=xi0, r0=r0
    )
