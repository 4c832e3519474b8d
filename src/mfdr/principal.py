"""Contract design: payment schedules, value reports, and comparisons.

The designer quotes three payment rates over time: a performance rate ``z``
on the consumer's own deviation, an aggregate rate ``z_mu`` on the
population's mean deviation, and a variance rate ``gamma`` on realized
quadratic variation.  Two contract kinds are supported:

* ``new`` — the aggregate-indexed contract: ``z`` minimizes the running
  trade-off rate :func:`hbar`, ``gamma`` tracks the induced variance
  exposure, and ``z_mu`` rebalances common-noise risk between the parties;
* ``classical`` — indexation on the consumer's own meter only
  (``z_mu = 0``), with ``z`` minimizing :func:`hbar` plus the common-noise
  exposure both parties then carry through the performance rate
  (:func:`_common_noise_charge`).

The full-information benchmark is no offer: the producer picks the efforts
directly, and :func:`first_best_report` computes them, their running cost
rate and their value in closed form, with no rate solve.

Two principal preferences are supported: ``cara`` (exponential utility with
risk aversion ``r_p > 0``) and ``risk_neutral`` (values in pence; also the
``r_p -> 0`` limit of the cara values).

:func:`solve_contract` solves one contract once: the minima of the per-node
rate solve give the principal's running cost rate and value, and their
argmins the payment rates.  :func:`compare` reads from it instead of solving
again, and so do :func:`optimal_schedule` and :func:`value_report`, which
are kept for outside callers.

:func:`solve_contracts` solves a batch on one grid, each distinct rate
problem once and bit for bit as alone, and each distinct params' reservation
once.  A problem's base is every field that :func:`hbar` and the brackets
read (not r_p or sigma_circ), and its charge the ``(c_a, c_p)`` of the
common-noise exposure that the rate adds to :func:`hbar`
(:func:`_common_noise_charge`): :func:`_classical_charge` for a classical
contract, which is ``(0, 0)`` without common noise, and ``(0, 0)`` for
``new``, which keeps :func:`hbar`'s bits.  Each base is one
``minimize_on_grid`` call with a row of brackets per distinct charge.  The
rates are declared unimodal, so the scan is certified from a few of its
columns, and each objective call computes only the bracket rows that still
need a value, through :func:`hbar`'s formula with f0's constants computed
once per solve (:func:`_minimize_rate`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

from .agent import (
    ReservationReport,
    _clamped_drift_scale,
    _f0_kernel,
    best_drift_effort,
    best_response_variance,
    best_response_vol_cost,
    best_vol_effort,
    f0,
    reservation,
)
from .model import ModelParams, ParameterError
from .numerics import _uniform_grid, integrate_samples, minimize_on_grid, unimodal

__all__ = [
    "CONTRACT_KINDS",
    "PRINCIPAL_KINDS",
    "ComparisonReport",
    "ContractSolution",
    "EffortSchedule",
    "FirstBestReport",
    "PaymentSchedule",
    "ValueReport",
    "check_schedule_invariants",
    "compare",
    "compare_cells",
    "first_best_report",
    "hbar",
    "optimal_schedule",
    "solve_contract",
    "solve_contracts",
    "value_report",
]

CONTRACT_KINDS = ("new", "classical")
PRINCIPAL_KINDS = ("cara", "risk_neutral")


def _validate_kind(kind: str) -> None:
    if kind not in CONTRACT_KINDS:
        raise ValueError(f"kind must be one of {CONTRACT_KINDS}, got {kind!r}")


def _validate_principal(principal: str, params: ModelParams | None = None) -> None:
    if principal not in PRINCIPAL_KINDS:
        raise ValueError(
            f"principal must be one of {PRINCIPAL_KINDS}, got {principal!r}"
        )
    if params is not None and principal == "cara" and params.r_p <= 0.0:
        raise ParameterError(
            ["cara principal requires r_p > 0; use risk_neutral for r_p = 0"]
        )


def _default_principal(params: ModelParams) -> str:
    """The principal a model implies: ``cara`` when r_p > 0, else risk-neutral."""
    return "cara" if params.r_p > 0.0 else "risk_neutral"


def _effective_params(principal: str, params: ModelParams) -> ModelParams:
    """Risk-neutral evaluation is the cara formula set at r_p = 0."""
    if principal == "risk_neutral" and params.r_p != 0.0:
        return dataclasses.replace(params, r_p=0.0)
    return params


def _check_real(name: str, arr: np.ndarray) -> None:
    """Reject a schedule field that is not finite real numbers (complex,
    strings, objects, NaN or infinities) with a ValueError naming it."""
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite real numbers")


@dataclasses.dataclass(frozen=True, eq=False)
class PaymentSchedule:
    """Payment rates for one contract offer, one per node of :attr:`grid`: the
    uniform Simpson nodes of ``n_intervals`` (even, >= 2) intervals on
    ``[0, horizon]``, so a schedule cannot be non-uniform."""

    kind: str
    principal: str
    horizon: float
    z: np.ndarray
    z_mu: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        _validate_kind(self.kind)
        _validate_principal(self.principal)
        for name in ("z", "z_mu", "gamma"):  # z first: the others take its shape
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.ndim != 1 or arr.shape != self.z.shape:
                raise ValueError(f"{name} must be a 1-D numpy array, one entry per node")
            _check_real(name, arr)
        _uniform_grid(self.horizon, self.n_intervals)  # raises on a bad grid

    @property
    def n_intervals(self) -> int:
        return self.z.shape[0] - 1

    @property
    def grid(self) -> np.ndarray:
        """The ``n_intervals + 1`` uniform nodes on ``[0, horizon]``."""
        return _uniform_grid(self.horizon, self.n_intervals)


@dataclasses.dataclass(frozen=True, eq=False)
class EffortSchedule:
    """Best-response efforts, one row per node of their payment's grid."""

    alpha: np.ndarray  # (nodes, d) consumption reductions
    beta: np.ndarray  # (nodes, d) variance retentions

    def __post_init__(self):
        for name in ("alpha", "beta"):
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.ndim != 2 or arr.shape != self.alpha.shape:
                raise ValueError(f"{name} must be a (nodes, d) numpy array, alpha's shape")
            _check_real(name, arr)


@dataclasses.dataclass(frozen=True)
class ValueReport:
    """Principal's value of offering one contract kind."""

    v0: float
    ce: float
    xi0: float
    m_integral: float
    kind: str
    principal: str

    def to_flat(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True, eq=False)
class ContractSolution:
    """One contract solved on one grid: payment, efforts, value, reservation."""

    payment: PaymentSchedule
    effort: EffortSchedule
    value: ValueReport
    reservation: ReservationReport
    m_rate: np.ndarray  # principal's running cost rate per node; value.m_integral integrates it


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    """Aggregate-indexed vs own-meter contract at the same parameters.

    ``delta_alpha`` is ``None`` when neither contract induces any drift
    effort (then a relative effort change is not applicable); the same for
    ``delta_beta`` when there is no variance at all to manage, and for
    ``rel_delta_v`` when ``1 + v0`` of the own-meter contract is zero.
    """

    delta_v: float
    rel_delta_v: float | None
    delta_alpha: float | None
    delta_beta: float | None

    def to_flat(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True, eq=False)
class FirstBestReport:
    """Full-information benchmark values and efforts."""

    v_fb: float
    lagrange_rho: float
    ce_fb: float
    efforts: EffortSchedule
    fb_contract_constant: float

    def to_flat(self) -> dict:
        return {
            "v_fb": self.v_fb,
            "lagrange_rho": self.lagrange_rho,
            "ce_fb": self.ce_fb,
            "fb_contract_constant": self.fb_contract_constant,
        }


def hbar(t, z, params: ModelParams):
    """Running trade-off rate for the aggregate-indexed contract.

    ``hbar(t, z) = f0(theta + r_a z^2)
    + rho_bar (min(max(-z, 0), a_max) + delta (T - t))^2``:
    the first term prices the variance exposure a performance rate ``z``
    forces on the consumer, the second the gap between induced consumption
    reduction and the target ramp.
    """
    t_arr = np.asarray(t, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    return _hbar_from(lambda q: f0(q, params), t_arr, z_arr, params)


def _hbar_from(f0_of, t: np.ndarray, z: np.ndarray, params: ModelParams):
    """:func:`hbar`'s formula, with ``f0_of(q)`` the f0 of ``params``."""
    exposure = f0_of(params.theta + params.r_a * z**2)
    scale = _clamped_drift_scale(z, params)
    return exposure + params.rho_bar * (scale + params.delta * (params.horizon - t)) ** 2


def _classical_charge(params: ModelParams) -> tuple[float, float]:
    """``(c_a, c_p) = (r_a sigma_circ^2, r_p sigma_circ^2)`` of ``params``."""
    return params.r_a * params.sigma_circ**2, params.r_p * params.sigma_circ**2


def _common_noise_charge(t, z, params: ModelParams, charge):
    """What a classical contract adds to :func:`hbar` for ``charge = (c_a, c_p)``,
    both parties' common-noise exposure: ``c_a z^2 + c_p (delta (T - t) - z)^2``."""
    c_a, c_p = charge
    return c_a * z**2 + c_p * (params.delta * (params.horizon - t) - z) ** 2


def _brackets(t_nodes: np.ndarray, params: ModelParams):
    """Search bracket for the performance rate at each time node.

    The minimizer always lies between the target-ramp rate
    ``delta (T - t)`` (clipped to the responsiveness cap) and zero, for
    either contract kind and either sign of ``delta``; a small margin keeps
    the true optimum strictly interior.
    """
    remaining = params.horizon - t_nodes
    ramp = params.delta * remaining
    margin = 1e-6 * (1.0 + abs(params.delta) * params.horizon)
    lo = np.maximum(np.minimum(ramp, 0.0), -params.a_max) - margin
    hi = np.maximum(ramp, 0.0) + margin
    return lo, hi


def _minimize_rate(t_nodes: np.ndarray, params: ModelParams, charges):
    """Minimize, at every time node at once, :func:`hbar` plus the
    common-noise charge of each ``(c_a, c_p)`` pair of ``charges``: a
    :func:`_classical_charge` for a classical rate, ``(0, 0)`` for the
    ``new`` rate (hbar + 0.0, with hbar's bits).  Returns ``(argmins,
    minima)`` with a leading objective axis.

    The objective is built once per solve: it holds each bracket row's
    time node and charge, and :func:`f0`'s constants, and computes
    :func:`hbar`'s formula (:func:`_hbar_from`) plus
    :func:`_common_noise_charge` on the rows it is asked for, with their
    bits.  Without a charge it adds none.

    Every rate is declared :func:`unimodal`: its derivative in ``z``
    increases on the bracket (that of ``f0`` is the best-response variance,
    continuous across its regimes, and eta >= 1 holds for every
    ``ModelParams``, which validates on construction), and it is a sum of
    non-negative terms, so its values carry a few ulps of relative error."""
    lo, hi = _brackets(t_nodes, params)
    shape = (len(charges),) + lo.shape
    t_rows = np.tile(t_nodes, len(charges))[:, None]
    starts = np.arange(len(charges) + 1) * t_nodes.size  # each objective's first row
    charged = [(i, charge) for i, charge in enumerate(charges) if any(charge)]
    f0_of = _f0_kernel(params)

    @unimodal
    def rate(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
        t = t_rows if rows.size == t_rows.shape[0] else t_rows[rows]
        total = _hbar_from(f0_of, t, points, params)
        if charged:  # rows run objective-major: one slice per objective
            bounds = np.searchsorted(rows, starts)
            for i, charge in charged:
                s = slice(bounds[i], bounds[i + 1])
                total[s] += _common_noise_charge(t[s], points[s], params, charge)
        return total

    z_star, minima, _ = minimize_on_grid(
        rate, np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
    )
    return z_star, minima


def _gamma_of_z(z: np.ndarray, params: ModelParams) -> np.ndarray:
    return -np.maximum(
        params.theta + params.r_a * z**2, 1.0 / params.lambda_bar
    )


def _m_rate(kind, params, p_eff, remaining, minima) -> np.ndarray:
    """Principal's running cost rate at the nodes ``remaining = T - t`` from
    the rate solve's minima there."""
    sc2 = params.sigma_circ**2
    ramp_sq = params.delta**2 * remaining**2
    base = 0.5 * params.theta * sc2
    if kind == "new":
        return base + 0.5 * (sc2 * p_eff.r_bar - params.rho_bar) * ramp_sq + 0.5 * minima
    return base - 0.5 * params.rho_bar * ramp_sq + 0.5 * minima


@contextlib.contextmanager
def _overflow_guard():
    """Raise ``ParameterError`` naming delta, horizon and a_max, which bound
    the rates, where the enclosed computation overflows float64."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:  # numpy's, Python's
        raise ParameterError(
            ["delta, horizon, a_max: the contract overflows float64; |delta| * "
             "horizon and a_max bound its payment rates"]
        ) from exc


def solve_contracts(requests, grid: int = 1024) -> list[ContractSolution]:
    """Solve ``(kind, principal, params)`` contracts on one grid, each distinct
    rate problem once (module docstring), bit for bit as :func:`solve_contract`.

    Raises ``ParameterError`` naming delta, horizon and a_max, which bound
    the rates, where the solve overflows float64."""
    requests = list(requests)
    problems, families = [], {}
    for kind, principal, params in requests:
        _validate_kind(kind)
        _validate_principal(principal, params)
        p_eff = _effective_params(principal, params)
        base = dataclasses.replace(p_eff, r_p=0.0, sigma_circ=0.0)
        charge = _classical_charge(p_eff) if kind == "classical" else (0.0, 0.0)
        families.setdefault(base, {})[charge] = None
        problems.append((base, charge))

    distinct = dict.fromkeys(params for _, _, params in requests)
    reservations = {params: reservation(params, grid) for params in distinct}
    rates = {}
    with _overflow_guard():
        for base, members in families.items():
            z, minima = _minimize_rate(_uniform_grid(base.horizon, grid), base, list(members))
            rates.update(((base, c), (z[i], minima[i])) for i, c in enumerate(members))
        return [
            _solution(kind, principal, params, grid, rates[problem], reservations[params])
            for (kind, principal, params), problem in zip(requests, problems)
        ]


def solve_contract(
    kind: str, principal: str, params: ModelParams, grid: int = 1024
) -> ContractSolution:
    """Solve the optimal contract of ``kind`` once on a uniform grid.

    One rate solve on the ``grid + 1`` nodes gives both the payment
    schedule, from the per-node argmins, and the value report, from the
    per-node minima; the efforts are the best responses to the payment.  The performance and variance rates of the ``new`` kind do
    not depend on the principal's risk aversion or on the common-noise
    level — only the aggregate rate ``z_mu`` does.

    ``value.v0`` is the utility (cara: ``-exp(r_p (xi0 - u))``;
    risk-neutral: pence, ``u - xi0``); ``value.ce`` is the certainty
    equivalent ``u - xi0`` in pence for both preferences.
    """
    return solve_contracts([(kind, principal, params)], grid)[0]


def _solution(kind, principal, params, grid, rate, res) -> ContractSolution:
    """One contract from its rate solve's ``(argmins, minima)`` and its
    params' reservation ``res``, whose arrays it copies."""
    p_eff = _effective_params(principal, params)
    horizon = params.horizon
    t = _uniform_grid(horizon, grid)
    remaining = horizon - t

    z, minima = rate
    z = z.copy()  # not a view shared with another solution
    gamma = _gamma_of_z(z, params)
    if kind == "classical" or params.sigma_circ == 0.0:
        # No aggregate rate for classical.  With degenerate common noise it
        # multiplies a null process, so every choice pays the same contract;
        # the classical representative makes the population-indexed
        # schedule collapse onto the classical one column for column.
        z_mu = np.zeros_like(t)
    elif principal == "cara":
        ratio = params.r_p / (params.r_a + params.r_p)
        z_mu = -z + ratio * params.delta * remaining
    else:
        z_mu = -z

    payment = PaymentSchedule(
        kind=kind, principal=principal, horizon=horizon,
        z=z, z_mu=z_mu, gamma=gamma,
    )
    effort = EffortSchedule(
        alpha=best_drift_effort(z, params), beta=best_vol_effort(gamma, params)
    )
    m_rate = _m_rate(kind, params, p_eff, remaining, minima)
    m_integral = integrate_samples(m_rate, 0.0, horizon)
    u = params.delta * horizon * params.x0 - m_integral
    res = dataclasses.replace(
        res, grid=res.grid.copy(), gamma0=res.gamma0.copy(), beta0=res.beta0.copy()
    )
    xi0 = res.xi0
    ce = u - xi0
    if principal == "cara":
        v0 = -math.exp(params.r_p * (xi0 - u))
    else:
        v0 = ce
    value = ValueReport(
        v0=v0, ce=ce, xi0=xi0, m_integral=m_integral, kind=kind, principal=principal
    )
    return ContractSolution(
        payment=payment, effort=effort, value=value, reservation=res, m_rate=m_rate
    )


def optimal_schedule(
    kind: str, principal: str, params: ModelParams, grid: int = 1024
):
    """Optimal payment schedule and induced efforts on a uniform grid.

    Returns ``(PaymentSchedule, EffortSchedule)``: the payment on ``grid``
    uniform intervals of ``[0, horizon]`` and the efforts at its
    ``grid + 1`` nodes, read from :func:`solve_contract`.
    """
    solution = solve_contract(kind, principal, params, grid)
    return solution.payment, solution.effort


def value_report(
    kind: str, principal: str, params: ModelParams, grid: int = 1024
) -> ValueReport:
    """Principal's value of offering the optimal contract of ``kind``, read
    from :func:`solve_contract`."""
    return solve_contract(kind, principal, params, grid).value


def first_best_report(params: ModelParams, grid: int = 1024) -> FirstBestReport:
    """Full-information benchmark: what the principal could achieve if the
    efforts were contractible directly.

    The efforts are chosen, not induced: the drift effort follows the target
    ramp ``delta (T - t)`` within its box and the variance retention is the
    best response to ``gamma = -theta``.  No rate solve is run.  The
    risk-sharing value is computed through the harmonic risk aversion
    ``r_bar`` and tilted back to the principal's preference; its certainty
    equivalent always dominates every implementable contract's.  With
    ``r_p = 0`` the report is in pence and the participation multiplier
    degenerates to zero.

    Raises ``ParameterError`` naming delta, horizon and a_max where the
    report overflows float64.
    """
    return _first_best(params, grid, reservation(params, grid))


def _first_best(params: ModelParams, grid: int, res: ReservationReport) -> FirstBestReport:
    """:func:`first_best_report` on ``grid`` from ``params``' reservation ``res``."""
    with _overflow_guard():
        remaining = params.horizon - _uniform_grid(params.horizon, grid)
        scale = _clamped_drift_scale(params.delta * remaining, params)
        efforts = EffortSchedule(
            alpha=best_drift_effort(-scale, params),
            beta=best_vol_effort(np.full_like(remaining, -params.theta), params),
        )
        sc2 = params.sigma_circ**2
        ramp_sq = params.delta**2 * remaining**2
        damping = 0.5 * params.theta * best_response_variance(
            -params.theta, params
        ) + 0.5 * best_response_vol_cost(-params.theta, params)
        m_rate = (
            0.5 * params.theta * sc2
            + 0.5 * (sc2 * params.r_bar - params.rho_bar) * ramp_sq
            + 0.5 * params.rho_bar * (scale + params.delta * remaining) ** 2
            + damping
        )
        u_fb = params.delta * params.horizon * params.x0 - integrate_samples(
            m_rate, 0.0, params.horizon
        )
        fb_constant = -math.log(-res.r0) / params.r_a
        if _default_principal(params) == "cara":
            # tilt = (v_rbar / r0)^power with v_rbar = -exp(-r_bar u_fb) and
            # r0 = -exp(-r_a xi0), taken in log space: at a small r_a the power
            # is huge and would amplify the rounding of the ratio.
            power = 1.0 + params.r_p / params.r_a
            tilt = math.exp(power * (params.r_a * res.xi0 - params.r_bar * u_fb))
            v_fb = res.r0 * tilt
            lagrange_rho = (params.r_p / params.r_a) * tilt
            ce_fb = u_fb - res.xi0
        else:
            v_fb = u_fb - res.xi0
            lagrange_rho = 0.0
            ce_fb = v_fb
    return FirstBestReport(
        v_fb=v_fb,
        lagrange_rho=lagrange_rho,
        ce_fb=ce_fb,
        efforts=efforts,
        fb_contract_constant=fb_constant,
    )


def compare(params: ModelParams, grid: int = 1024) -> ComparisonReport:
    """Head-to-head of the aggregate-indexed and own-meter contracts.

    * ``delta_v`` — value gain per unit of principal risk aversion
      (pence-scaled for cara; plain pence difference when ``r_p = 0``);
    * ``rel_delta_v`` — gain relative to ``1 + v0`` of the own-meter
      contract (``None`` when that is zero);
    * ``delta_alpha`` — relative increase of time-integrated consumption
      reduction (``None`` when neither contract induces any);
    * ``delta_beta`` — relative decrease of time-integrated deviation
      variance, counting the unmanageable common part (``None`` in the
      degenerate no-variance model).

    Accuracy.  ``delta_alpha`` and ``delta_beta`` are integrals of the
    per-node argmin of the rate solve, so they, like the schedules' ``z``
    and ``gamma``, are accurate to first order in its tolerance: about
    1e-8 relative at the calibrated defaults, and the last digits move with
    the platform's ``pow``.  ``delta_v`` and ``rel_delta_v`` are built from
    the minimum values, which depend on the argmin only to second order;
    they converge to about 1e-12.
    """
    return compare_cells([params], grid)[0]


def compare_cells(cells, grid: int = 1024) -> list[ComparisonReport]:
    """:func:`compare` at each parameter set of ``cells``, bit for bit, with
    all their contracts solved as one :func:`solve_contracts` batch."""
    cells = list(cells)
    pairs = [(k, _default_principal(p), p) for p in cells for k in ("new", "classical")]
    solutions = solve_contracts(pairs, grid)
    return [_comparison(*cell) for cell in zip(cells, solutions[::2], solutions[1::2])]


def _comparison(params: ModelParams, new: ContractSolution, cls: ContractSolution):
    gain = new.value.v0 - cls.value.v0
    if new.value.principal == "cara":
        delta_v = gain / params.r_p
    else:
        delta_v = gain
    rel_base = 1.0 + cls.value.v0
    rel_delta_v = None if rel_base == 0.0 else gain / rel_base

    def integral(values: np.ndarray) -> float:
        return integrate_samples(values, 0.0, params.horizon)

    new_drift = integral(_clamped_drift_scale(new.payment.z, params))
    cls_drift = integral(_clamped_drift_scale(cls.payment.z, params))
    if cls_drift == 0.0:
        delta_alpha = None
    else:
        delta_alpha = (new_drift - cls_drift) / cls_drift

    new_var = integral(best_response_variance(new.payment.gamma, params))
    cls_var = integral(best_response_variance(cls.payment.gamma, params))
    var_denominator = cls_var + params.horizon * params.sigma_circ**2
    if var_denominator == 0.0:
        delta_beta = None
    else:
        # + 0.0 normalizes a signed zero when the integrals coincide.
        delta_beta = -(new_var - cls_var) / var_denominator + 0.0

    return ComparisonReport(
        delta_v=delta_v,
        rel_delta_v=rel_delta_v,
        delta_alpha=delta_alpha,
        delta_beta=delta_beta,
    )


def check_schedule_invariants(
    payment: PaymentSchedule, effort: EffortSchedule, params: ModelParams
) -> list[str]:
    """Internal consistency checks tying a schedule to its model.

    Returns a list of human-readable violations (empty when consistent):
    the variance rate must track the performance rate, efforts must be the
    best responses and stay inside their boxes, and the aggregate rate must
    satisfy its kind's risk-sharing relation.
    """
    problems: list[str] = []
    t = payment.grid
    remaining = params.horizon - t
    scale_tol = 1e-10 * (1.0 + abs(params.delta) * params.horizon)

    expected_gamma = _gamma_of_z(payment.z, params)
    gamma_err = np.max(np.abs(payment.gamma - expected_gamma))
    if gamma_err > 1e-12 * (1.0 + np.max(np.abs(expected_gamma))):
        problems.append(
            "variance rate does not track -max(theta + r_a z^2, "
            f"1/lambda_bar); max error {gamma_err:.3e}"
        )

    if payment.kind == "new":
        if params.sigma_circ == 0.0:
            target = np.zeros_like(payment.z)
        elif payment.principal == "cara":
            ratio = params.r_p / (params.r_a + params.r_p)
            target = -payment.z + ratio * params.delta * remaining
        else:
            target = -payment.z
        mu_err = np.max(np.abs(payment.z_mu - target))
        if mu_err > scale_tol:
            problems.append(
                f"aggregate rate breaks its risk-sharing relation by {mu_err:.3e}"
            )
        if params.delta >= 0.0 and np.max(np.abs(payment.z)) != 0.0:
            problems.append(
                "performance rate must vanish when deviations are rewarded"
            )
    else:
        if np.max(np.abs(payment.z_mu)) != 0.0:
            problems.append(f"{payment.kind} contract must have z_mu = 0")

    alpha_expected = best_drift_effort(payment.z, params)
    if not np.array_equal(effort.alpha, alpha_expected):
        problems.append("alpha is not the best response to z")
    beta_expected = best_vol_effort(payment.gamma, params)
    if not np.array_equal(effort.beta, beta_expected):
        problems.append("beta is not the best response to gamma")

    rho = np.asarray(params.rho)
    if (effort.alpha < -0.0).any() or (
        effort.alpha > rho * params.a_max + 1e-15
    ).any():
        problems.append("alpha leaves its feasible box")
    if (effort.beta < params.b_min).any() or (effort.beta > 1.0).any():
        problems.append("beta leaves its feasible box")

    return problems
