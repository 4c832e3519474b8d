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
once.  A problem is its ``sigma`` and its charge, the ``(c_a, c_p)`` of the
common-noise exposure that the rate adds to :func:`hbar`
(:func:`_common_noise_charge`), which :func:`_charge` gives for every kind
and principal: ``(0, 0)``, which keeps :func:`hbar`'s bits, for ``new``.
Problems of one bracket shape (the params with the fields that the rate
ignores zeroed: r_p, sigma_circ, x0, kappa, and sigma, which it takes per
problem) share ``minimize_on_grid`` calls of at most ``_SCAN_BLOCK_POINTS``
bracket rows, which bounds the one scan array that grows with them (the
scan's other temporaries stay within a row block): the 25 cells of ``mfdr
compare`` are one call up to grid 326, and 4 at the default grid 1024
(:func:`_minimize_rate`).

:func:`check_schedule_invariants` certifies each schedule's ``z`` from the
slope of its rate, through :func:`agent.best_response_variance` alone, so
every schedule formula lives in :func:`_solution` only.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from .agent import (
    _clamped_drift_scale,
    _exp,
    _f0_kernel,
    _finite,
    _retained_variance,
    best_drift_effort,
    best_response_variance,
    best_response_vol_cost,
    best_vol_effort,
    f0,
    reservation,
)
from .model import ModelParams, ParameterError
from .numerics import (
    _SCAN_BLOCK_POINTS,
    _default_tol,
    _uniform_grid,
    integrate_samples,
    minimize_on_grid,
)

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
    """One contract solved on one grid: payment, efforts, value (xi0: the reservation's)."""

    payment: PaymentSchedule
    effort: EffortSchedule
    value: ValueReport
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
    ramp = params.delta * (params.horizon - t_arr)
    return _hbar_from(lambda q: f0(q, params), ramp, z_arr, params)


def _hbar_from(f0_of, ramp: np.ndarray, z: np.ndarray, params: ModelParams):
    """:func:`hbar`'s formula at the target ramp ``ramp = delta (T - t)``,
    with ``f0_of(q)`` the f0 of ``params``."""
    exposure = f0_of(params.theta + params.r_a * z**2)
    scale = _clamped_drift_scale(z, params)
    return exposure + params.rho_bar * (scale + ramp) ** 2


def _charge(kind: str, principal: str, params: ModelParams) -> tuple[float, float]:
    """The ``(c_a, c_p)`` that a ``kind`` rate adds to :func:`hbar`
    (:func:`_common_noise_charge`): ``(0, 0)`` for ``new`` and
    ``sigma_circ^2 (r_a, r_p)`` for ``classical``, with r_p = 0 under a
    risk-neutral principal, the r_p -> 0 limit of the cara one."""
    if kind == "new":
        return 0.0, 0.0
    r_p = params.r_p if principal == "cara" else 0.0
    return params.r_a * params.sigma_circ**2, r_p * params.sigma_circ**2


def _common_noise_charge(ramp, z, charge):
    """What a classical contract adds to :func:`hbar` for ``charge = (c_a, c_p)``
    at the target ramp ``ramp = delta (T - t)``, both parties' common-noise
    exposure: ``c_a z^2 + c_p (delta (T - t) - z)^2``."""
    c_a, c_p = charge
    return c_a * z**2 + c_p * (ramp - z) ** 2


def _brackets(t_nodes: np.ndarray, params: ModelParams):
    """Search bracket for the performance rate at each time node.

    A minimizer lies between the target ramp ``R = delta (T - t)`` and zero
    for either kind and any charge: the rate's slope
    (:func:`check_schedule_invariants`) is <= 0 left of ``min(R, 0)`` and >= 0
    right of ``max(R, 0)``, past ``-a_max`` too, where the classical charge
    ``c_p (R - z)^2`` still pulls ``z`` towards ``R``.  A small margin keeps
    the optimum strictly interior.
    """
    remaining = params.horizon - t_nodes
    ramp = params.delta * remaining
    margin = 1e-6 * (1.0 + abs(params.delta) * params.horizon)
    lo = np.minimum(ramp, 0.0) - margin
    hi = np.maximum(ramp, 0.0) + margin
    return lo, hi


def _minimize_rate(t_nodes: np.ndarray, params: ModelParams, problems):
    """Minimize, at every time node at once, the rate of each ``(sigma,
    (c_a, c_p))`` of ``problems``: :func:`hbar` of ``params`` with that
    ``sigma``, plus the common-noise charge ``(c_a, c_p)``, the
    :func:`_charge` of its kind and principal.  Returns ``(argmins,
    minima)`` with a leading problem axis, each problem's bit for bit as
    alone.

    One ``minimize_on_grid`` call solves them all: their brackets, which
    ``sigma`` does not enter, are the same, and so is the call's default
    tolerance.  The objective is built once per solve: it holds each
    bracket row's target ramp ``delta (T - t)``, ``sigma^2`` and charge, and
    :func:`f0`'s constants (:func:`_f0_kernel`, with per-row ``sigma^2``),
    and computes :func:`hbar`'s formula (:func:`_hbar_from`) plus
    :func:`_common_noise_charge` on the rows it is asked for, each value
    with the bits of its problem alone.
    The rows of the problems before the first charged one get no charge
    term, so :func:`solve_contracts` lists the uncharged problems first; an
    uncharged problem after it adds +0.0 to a sum that is never -0.0.

    Every rate meets ``minimize_on_grid``'s precondition: it is unimodal on
    the bracket, as its slope (:func:`check_schedule_invariants`) increases
    there, eta >= 1 holding for every ``ModelParams``, and it is a sum of
    non-negative terms, so its values carry a few ulps of relative error."""
    lo, hi = _brackets(t_nodes, params)
    count, nodes = len(problems), t_nodes.size
    shape = (count,) + lo.shape
    all_ramps = np.tile(params.delta * (params.horizon - t_nodes), count)[:, None]
    sig2 = np.asarray([sigma for sigma, _ in problems], dtype=float) ** 2
    f0_of = _f0_kernel(params, np.repeat(sig2, nodes, axis=0)[:, None, :])
    charges = [charge for _, charge in problems]
    first = nodes * next((i for i, charge in enumerate(charges) if any(charge)), count)
    all_charges = np.repeat(charges, nodes, axis=0)[first:, :, None]  # from the first charged row

    def rate(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
        every = rows.size == all_ramps.shape[0]
        ramp = all_ramps if every else all_ramps[rows]
        total = _hbar_from(lambda q: f0_of(q, None if every else rows), ramp, points, params)
        start = first if every else np.searchsorted(rows, first)
        if start < rows.size:
            c = all_charges if every else all_charges[rows[start:] - first]
            total[start:] += _common_noise_charge(ramp[start:], points[start:], (c[:, 0], c[:, 1]))
        return total

    z_star, minima, _ = minimize_on_grid(
        rate, np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
    )
    return z_star, minima


def _m_rate(kind, principal, params, remaining, minima) -> np.ndarray:
    """Principal's running cost rate at the nodes ``remaining = T - t`` from
    the rate solve's minima there.  The ``new`` contract's principal bears
    ``r_bar sigma_circ^2 (delta (T - t))^2``, with ``r_bar`` 0 for a
    risk-neutral one; the classical rate's minima carry that exposure."""
    sc2 = params.sigma_circ**2
    r_bar = params.r_bar if kind == "new" and principal == "cara" else 0.0
    ramp_sq = params.delta**2 * remaining**2
    return 0.5 * params.theta * sc2 + 0.5 * (sc2 * r_bar - params.rho_bar) * ramp_sq + 0.5 * minima


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
    the rates, where the solve overflows float64 (checked first), naming r_p
    and x0 where a cara value does, x0 where a certainty equivalent is not
    finite, and the reservation's fields where it is not (:func:`reservation`)."""
    requests = list(requests)
    problems, groups = [], {}
    for kind, principal, params in requests:
        _validate_kind(kind)
        _validate_principal(principal, params)
        # The bracket shape: every field but those the rate provably ignores.
        shape = dataclasses.replace(
            params, r_p=0.0, sigma_circ=0.0, x0=0.0, kappa=0.0, sigma=(0.0,) * params.d
        )
        charge = _charge(kind, principal, params)
        groups.setdefault(shape, {})[params.sigma, charge] = None
        problems.append((shape, (params.sigma, charge)))

    rates = {}
    with _overflow_guard():
        for shape, members in groups.items():
            t_nodes = _uniform_grid(shape.horizon, grid)
            members = sorted(members, key=lambda member: any(member[1]))  # uncharged first
            # At most _SCAN_BLOCK_POINTS bracket rows per call, which bounds
            # the memory of its scan.
            per_call = max(1, _SCAN_BLOCK_POINTS // t_nodes.size)
            for start in range(0, len(members), per_call):
                chunk = members[start : start + per_call]
                z, minima = _minimize_rate(t_nodes, shape, chunk)
                rates.update(((shape, m), (z[i], minima[i])) for i, m in enumerate(chunk))
    # After the rate solve, whose overflow is named first, and outside its
    # guard, which would blame delta, horizon and a_max for a reservation's.
    reservations = {p: reservation(p, grid) for p in dict.fromkeys(p for _, _, p in requests)}
    with _overflow_guard():
        return [
            _solution(kind, principal, params, rates[problem], reservations[params])
            for (kind, principal, params), problem in zip(requests, problems)
        ]


def solve_contract(
    kind: str, principal: str, params: ModelParams, grid: int = 1024
) -> ContractSolution:
    """Solve the optimal contract of ``kind`` once on a uniform grid.

    One rate solve on the ``grid + 1`` nodes gives both the payment
    schedule, from the per-node argmins, and the value report, from the
    per-node minima; the efforts are the best responses to the payment.
    The performance and variance rates of the ``new`` kind do not depend on
    the principal's risk aversion or on the common-noise level — only the
    aggregate rate ``z_mu`` does.

    ``value.v0`` is the utility (cara: ``-exp(r_p (xi0 - u))``;
    risk-neutral: pence, ``u - xi0``); ``value.ce`` is the certainty
    equivalent ``u - xi0`` in pence for both preferences.
    """
    return solve_contracts([(kind, principal, params)], grid)[0]


def _certainty_equivalent(u: float, xi0: float) -> float:
    """``u - xi0`` in pence; ``ParameterError`` naming x0 where it is not finite."""
    return _finite(u - xi0, "x0: the certainty equivalent u - xi0 is not a finite float; "
                   "it grows with (delta - kappa) * horizon * x0")


def _solution(kind, principal, params, rate, res) -> ContractSolution:
    """One contract from its rate solve's ``(argmins, minima)`` and its
    params' reservation ``res`` on the solve's nodes, whose ``xi0`` it reads."""
    horizon = params.horizon
    remaining = horizon - res.grid

    z, minima = rate
    z = z.copy()  # not a view shared with another solution
    gamma = -np.maximum(params.theta + params.r_a * z**2, 1.0 / params.lambda_bar)
    if kind == "classical" or params.sigma_circ == 0.0:
        # No aggregate rate for classical.  With degenerate common noise it
        # multiplies a null process, so every choice pays the same contract;
        # the classical representative makes the population-indexed
        # schedule collapse onto the classical one column for column.
        z_mu = np.zeros_like(remaining)
    else:  # a risk-neutral principal is the r_p -> 0 limit of the cara one
        r_p = params.r_p if principal == "cara" else 0.0
        z_mu = -z + r_p / (params.r_a + r_p) * params.delta * remaining

    payment = PaymentSchedule(
        kind=kind, principal=principal, horizon=horizon,
        z=z, z_mu=z_mu, gamma=gamma,
    )
    effort = EffortSchedule(
        alpha=best_drift_effort(z, params), beta=best_vol_effort(gamma, params)
    )
    m_rate = _m_rate(kind, principal, params, remaining, minima)
    m_integral = integrate_samples(m_rate, 0.0, horizon)
    u = params.delta * horizon * params.x0 - m_integral
    xi0 = res.xi0
    ce = _certainty_equivalent(u, xi0)
    if principal == "cara":  # the rates are finite: r_p (xi0 - u) is what overflows
        v0 = -_exp(params.r_p * (xi0 - u), "r_p, x0: the cara value -exp(r_p (xi0 - u)) "
                   "overflows float64; xi0 - u grows with (kappa - delta) * horizon * x0")
    else:
        v0 = ce
    value = ValueReport(
        v0=v0, ce=ce, xi0=xi0, m_integral=m_integral, kind=kind, principal=principal
    )
    return ContractSolution(payment=payment, effort=effort, value=value, m_rate=m_rate)


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
    report overflows float64, the reservation's fields where it is not
    finite, x0 where ``ce_fb`` is not, and r_a, r_p and x0 where the cara
    participation multiplier or value overflows.
    """
    res = reservation(params, grid)
    with _overflow_guard():
        remaining = params.horizon - res.grid
        scale = _clamped_drift_scale(params.delta * remaining, params)
        efforts = EffortSchedule(
            alpha=best_drift_effort(-scale, params),
            beta=best_vol_effort(np.full_like(remaining, -params.theta), params),
        )
        damping = 0.5 * params.theta * best_response_variance(
            -params.theta, params
        ) + 0.5 * best_response_vol_cost(-params.theta, params)
        # The new contract's cost rate, hbar's tracking term for hbar, plus the damping.
        tracking = params.rho_bar * (scale + params.delta * remaining) ** 2
        m_rate = _m_rate("new", _default_principal(params), params, remaining, tracking) + damping
        u_fb = params.delta * params.horizon * params.x0 - integrate_samples(
            m_rate, 0.0, params.horizon
        )
        ce_fb = _certainty_equivalent(u_fb, res.xi0)
        if _default_principal(params) == "cara":
            # tilt = (v_rbar / r0)^power with v_rbar = -exp(-r_bar u_fb) and
            # r0 = -exp(-r_a xi0), taken in log space: at a small r_a the power
            # is huge and would amplify the rounding of the ratio.
            power = 1.0 + params.r_p / params.r_a
            problem = ("r_a, r_p, x0: the participation multiplier (r_p / r_a) tilt or value "
                       "r0 tilt overflows float64, tilt = exp((r_a + r_p) xi0 - r_p u_fb), "
                       "xi0 ~ kappa horizon x0")
            tilt = _exp(power * (params.r_a * res.xi0 - params.r_bar * u_fb), problem)
            v_fb = _finite(res.r0 * tilt, problem)
            lagrange_rho = _finite((params.r_p / params.r_a) * tilt, problem)
        else:
            v_fb, lagrange_rho = ce_fb, 0.0
    return FirstBestReport(
        v_fb=v_fb,
        lagrange_rho=lagrange_rho,
        ce_fb=ce_fb,
        efforts=efforts,
        # -log(-r0) / r_a in closed form, which r0's underflow would lose.
        fb_contract_constant=res.xi0,
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

    # Each effort's beta is the best response to its gamma.
    new_var = integral(_retained_variance(new.effort.beta, params))
    cls_var = integral(_retained_variance(cls.effort.beta, params))
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


#: Ulps of the rate ``h(z)`` by which a certified ``z`` may miss the least rate.
#: The rate is a sum of non-negative terms, so ``h(z)`` bounds the rounding of
#: its values: a value minimizer cannot tell apart rates within a few ulps of it.
_CERTIFICATE_ULPS = 64


def check_schedule_invariants(
    payment: PaymentSchedule, effort: EffortSchedule, params: ModelParams
) -> list[str]:
    """Certify that ``payment.z`` is optimal and that the efforts stay in
    their boxes; return the violations found (empty when none).

    The certificate restates no formula of the solve; it reads the slope of
    the rate ``h`` that ``z`` minimizes, with ``R = delta (T - t)``, ``S(q) =
    best_response_variance(-q)`` (``f0'`` by the envelope theorem) and the
    kind's charge ``(c_a, c_p)`` (:func:`_charge`)::

        h'(z) = 2 z (r_a S(theta + r_a z^2) + c_a)
                + 2 rho_bar (z - R) 1{-a_max < z < 0} - 2 c_p (R - z)

    ``h'`` increases (at the kink at 0 it falls only where it stays
    positive), so where ``h'(z - w) <= 0 <= h'(z + w)`` a minimizer lies
    within ``w`` of ``z`` and ``h(z) - min h <= w |h'(z)|``.  A node passes
    at ``w`` the solve's stated tolerance or, where wider, the ``w`` that
    bounds that gap by ``_CERTIFICATE_ULPS`` ulps of ``h(z)``.  ``new`` must
    pay ``z = 0`` when ``delta >= 0``, ``classical`` no aggregate rate.
    """
    problems: list[str] = []
    t, z = payment.grid, payment.z
    ramp = params.delta * (params.horizon - t)
    charge = _charge(payment.kind, payment.principal, params)
    c_a, c_p = charge

    def slope(x: np.ndarray) -> np.ndarray:
        q = params.theta + params.r_a * x**2
        exposure = params.r_a * best_response_variance(-q, params) + c_a
        capped = (-params.a_max < x) & (x < 0.0)
        return 2.0 * (x * exposure + params.rho_bar * (x - ramp) * capped - c_p * (ramp - x))

    lo, hi = _brackets(t, params)
    rate = hbar(t, z, params) + _common_noise_charge(ramp, z, charge)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        reach = _CERTIFICATE_ULPS * np.finfo(float).eps * rate / np.abs(slope(z))
    # fmax: reach is NaN where h(z) = h'(z) = 0, a minimum of the non-negative rate.
    w = np.fmin(np.fmax(reach, _default_tol(lo, hi)), np.max(hi - lo))
    left, right = slope(z + np.stack([-w, w]))
    failed = np.flatnonzero(~((left <= 0.0) & (right >= 0.0)))
    if failed.size:
        at = f"{failed.size} of {z.size} nodes (first at t = {t[failed[0]]:.6g})"
        problems.append(f"performance rate is not optimal at {at}")

    if payment.kind == "new":
        if params.delta >= 0.0 and np.max(np.abs(z)) != 0.0:
            problems.append("performance rate must vanish when deviations are rewarded")
    elif np.max(np.abs(payment.z_mu)) != 0.0:
        problems.append(f"{payment.kind} contract must have z_mu = 0")

    alpha_cap = np.asarray(params.rho) * params.a_max + 1e-15
    if (effort.alpha < -0.0).any() or (effort.alpha > alpha_cap).any():
        problems.append("alpha leaves its feasible box")
    if (effort.beta < params.b_min).any() or (effort.beta > 1.0).any():
        problems.append("beta leaves its feasible box")

    return problems
