"""Market, preference, and cost primitives shared by every other module.

A consumer's deviation consumption is split across ``d`` electricity usages
(heating, lighting, ...). Drift effort ``a[k]`` lowers the mean deviation of
usage ``k``; volatility effort ``b[k]`` in [b_min, 1] scales its variance
(1 = no effort). Efforts price into a separable instantaneous cost, and the
usage volatilities aggregate with a common weather shock ``sigma_circ`` that
correlates the whole population.

Units are fixed throughout the package: money in pence, power in kW, time in
hours.

Every ``ModelParams`` is valid: construction and ``dataclasses.replace`` run
:func:`validate`, so no caller checks a model again.  Parameter containers are
immutable and every function here is pure, so values can be shared freely
across threads.  The ``ModelParams`` annotations are the one declaration of
the parameter set: each field's conversion, config key and key parser are read
from them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "ParameterError",
    "validate",
    "calibrated_defaults",
    "with_variance_share",
    "effort_cost",
    "params_from_mapping",
    "read_flat_config",
    "MODEL_CONFIG_KEYS",
    "CALIBRATED_TOTAL_STD",
]

#: Calibrated no-effort standard deviation of the deviation consumption,
#: kW·h^(-1/2): sigma(1)^2 + sigma_circ^2 always equals this squared for the
#: calibrated parameter sets, whatever the variance share of the common noise.
CALIBRATED_TOTAL_STD = 0.085


class ParameterError(ValueError):
    """Raised when parameters violate their domain; lists every violation.

    Attributes
    ----------
    violations:
        One human-readable string per violated invariant, each naming the
        offending field and the bound it broke.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ModelParams:
    """All market, preference, and cost constants, valid by construction.

    Building or ``dataclasses.replace``-ing one converts each field by its
    annotation and then runs :func:`validate`, which raises
    :class:`ParameterError` listing every violated bound.

    Attributes
    ----------
    d:
        Number of electricity usages (>= 1).
    rho:
        Per-usage drift-effort efficiency, kW²·h⁻¹·pence⁻¹ (length d, > 0).
    lambda_:
        Per-usage volatility-effort efficiency, kW²·h·pence⁻¹ (length d, > 0).
        The trailing underscore only avoids the Python keyword; the external
        config key is ``lambda``.
    eta:
        Per-usage volatility cost exponent, dimensionless (length d, >= 1).
    sigma:
        Per-usage idiosyncratic volatility, kW·h^(-1/2) (length d, >= 0;
        zero means the usage's deviation is driven by the common noise only,
        the pure-common-noise calibration).
    sigma_circ:
        Common-noise volatility, kW·h^(-1/2) (>= 0).
    a_max:
        Drift-effort cap scale, pence·kW⁻²·h (> 0); usage k's drift effort is
        capped at rho[k]·a_max.
    b_min:
        Volatility-effort floor, in (0, 1).
    r_a:
        Agent CARA risk aversion, pence⁻¹ (> 0).
    r_p:
        Principal CARA risk aversion, pence⁻¹ (>= 0; 0 encodes the
        risk-neutral principal).
    theta:
        Quadratic-variation cost loading, pence·kW⁻²·h⁻¹ (>= 0).
    horizon:
        Contract duration T, hours (> 0).
    x0:
        Initial deviation, kW; the initial population law is a point mass
        at x0.
    delta:
        Linear energy-value-discrepancy slope, pence·kWh⁻¹: consumer marginal
        valuation minus producer marginal cost of deviation is delta·x.
    kappa:
        Agent preference slope, pence·kWh⁻¹: the agent values deviation at
        kappa·x, so the producer's running cost slope is (kappa - delta)·x.
    """

    d: int
    rho: tuple[float, ...]
    lambda_: tuple[float, ...]
    eta: tuple[float, ...]
    sigma: tuple[float, ...]
    sigma_circ: float
    a_max: float
    b_min: float
    r_a: float
    r_p: float
    theta: float
    horizon: float
    x0: float
    delta: float
    kappa: float

    def __post_init__(self) -> None:
        for name, convert, _ in _KEY_FIELDS.values():
            object.__setattr__(self, name, convert(getattr(self, name)))
        validate(self)

    # ------------------------------------------------------------------
    # Derived constants
    # ------------------------------------------------------------------
    @property
    def rho_bar(self) -> float:
        """Aggregate drift responsiveness: the sum of rho[k]."""
        return sum(self.rho)

    @property
    def lambda_bar(self) -> float:
        """Largest volatility-effort efficiency: max of lambda[k]."""
        return max(self.lambda_)

    @property
    def r_bar(self) -> float:
        """Harmonic risk ratio: 1/r_bar = 1/r_a + 1/r_p, and 0 when r_p = 0."""
        if self.r_p == 0.0:
            return 0.0
        return (self.r_a * self.r_p) / (self.r_a + self.r_p)


def validate(params: ModelParams) -> ModelParams:
    """Check every domain invariant; return the params or raise ParameterError.

    All violations are collected and reported together, each naming the field
    and the violated bound.  ``ModelParams.__post_init__`` calls it, so every
    ``ModelParams`` already passes.
    """
    v: list[str] = []
    if params.d < 1:
        v.append(f"d = {params.d}: must be a positive integer")
    for name in ("rho", "lambda_", "eta", "sigma"):
        vec = getattr(params, name)
        if len(vec) != params.d:
            v.append(f"{name}: expected {params.d} entries, got {len(vec)}")
    for k, value in enumerate(params.rho):
        if not 0.0 < value < math.inf:
            v.append(f"rho[{k}] = {value}: must be finite and > 0")
    for k, value in enumerate(params.lambda_):
        if not 0.0 < value < math.inf:
            v.append(f"lambda[{k}] = {value}: must be finite and > 0")
    for k, value in enumerate(params.eta):
        if not 1.0 <= value < math.inf:
            v.append(f"eta[{k}] = {value}: must be finite and >= 1")
    for k, value in enumerate(params.sigma):
        if not 0.0 <= value < math.inf:
            v.append(f"sigma[{k}] = {value}: must be finite and >= 0")
        elif math.isinf(value * value):
            v.append(f"sigma[{k}] = {value}: its square overflows float64")
    if not 0.0 <= params.sigma_circ < math.inf:
        v.append(f"sigma_circ = {params.sigma_circ}: must be finite and >= 0")
    elif math.isinf(params.sigma_circ * params.sigma_circ):
        v.append(f"sigma_circ = {params.sigma_circ}: its square overflows float64")
    if not 0.0 < params.a_max < math.inf:
        v.append(f"a_max = {params.a_max}: must be finite and > 0")
    if not 0.0 < params.b_min < 1.0:
        v.append(f"b_min = {params.b_min}: must lie in (0, 1)")
    if not 0.0 < params.r_a < math.inf:
        v.append(f"r_a = {params.r_a}: must be finite and > 0")
    if not 0.0 <= params.r_p < math.inf:
        v.append(f"r_p = {params.r_p}: must be finite and >= 0")
    if not 0.0 <= params.theta < math.inf:
        v.append(f"theta = {params.theta}: must be finite and >= 0")
    if not 0.0 < params.horizon < math.inf:
        v.append(f"horizon = {params.horizon}: must be finite and > 0")
    for name in ("x0", "delta", "kappa"):
        if not math.isfinite(getattr(params, name)):
            v.append(f"{name} = {getattr(params, name)}: must be finite")
    if math.isfinite(params.kappa) and math.isinf(params.kappa * params.kappa):
        v.append(f"kappa = {params.kappa}: its square overflows float64")
    if v:
        raise ParameterError(v)
    return params


def calibrated_defaults(variance_share: float = 0.5) -> ModelParams:
    """Reference-calibrated parameters for a single aggregated usage.

    ``variance_share`` is the fraction of the no-effort variance carried by
    the common noise: sigma_circ² = share·0.085² and sigma² = (1-share)·0.085²,
    so the total no-effort variance is 0.085² for every share.

    Defaults that the calibration study leaves open: a_max = 2·|delta|·horizon
    (keeps the drift cap slack on the whole calibrated range), b_min = 0.01
    (never binds at calibrated rates), x0 = 0.

    The split is :func:`with_variance_share` of the even split, so both
    routes give the same bits at every share.
    """
    horizon = 5.5
    delta = -55.44
    half_std = math.sqrt(0.5 * CALIBRATED_TOTAL_STD**2)
    even = ModelParams(
        d=1,
        rho=(9.3e-5,),
        lambda_=(2.8e-2,),
        eta=(1.0,),
        sigma=(half_std,),
        sigma_circ=half_std,
        a_max=2.0 * abs(delta) * horizon,
        b_min=0.01,
        r_a=5.7e-3,
        r_p=6e-3,
        theta=4e-3,
        horizon=horizon,
        x0=0.0,
        delta=delta,
        kappa=11.76,
    )
    return with_variance_share(even, variance_share)


def with_variance_share(params: ModelParams, variance_share: float) -> ModelParams:
    """Re-split the total no-effort variance between the noise sources.

    The total rate ``sum(sigma[k]^2) + sigma_circ^2`` is preserved;
    ``variance_share`` of it moves to the common noise and the rest stays
    idiosyncratic, with the usage profile ``sigma`` rescaled proportionally.
    When the input has no idiosyncratic variance the profile cannot be
    inferred, so a single-usage model rebuilds it directly and a multi-usage
    model raises ParameterError.
    """
    share = float(variance_share)
    if not 0.0 <= share <= 1.0:
        raise ParameterError(
            [f"variance_share = {share}: must lie in [0, 1]"]
        )
    idio_var = sum(s**2 for s in params.sigma)
    total_var = idio_var + params.sigma_circ**2
    if total_var <= 0.0:
        raise ParameterError(
            ["cannot re-split variance: total variance rate is zero"]
        )
    sigma_circ = math.sqrt(share * total_var)
    if idio_var > 0.0:
        factor = math.sqrt((1.0 - share) * total_var / idio_var)
        sigma = tuple(s * factor for s in params.sigma)
    elif params.d == 1:
        sigma = (math.sqrt((1.0 - share) * total_var),)
    else:
        raise ParameterError(
            [
                "cannot re-split variance: all sigma[k] are zero, so the "
                "usage profile is undefined for d > 1"
            ]
        )
    return replace(params, sigma=sigma, sigma_circ=sigma_circ)


def effort_cost(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    params: ModelParams,
) -> float:
    """Instantaneous effort cost rate c(a, b) in pence per hour.

    c = ½·Σ_k a[k]²/rho[k]  +  ½·Σ_k sigma[k]²/(lambda[k]·eta[k])·(b[k]^(-eta[k]) - 1)

    Nonnegative on the admissible boxes, zero exactly at no effort
    (a = 0, b = 1), strictly increasing in each a[k] and strictly decreasing
    in each b[k].
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    problems: list[str] = []
    if a_arr.shape != (params.d,):
        problems.append(f"a: expected {params.d} entries, got {a_arr.shape}")
    else:
        caps = np.asarray(params.rho) * params.a_max
        for k in range(params.d):
            if not 0.0 <= a_arr[k] <= caps[k]:
                problems.append(
                    f"a[{k}] = {a_arr[k]}: must lie in [0, rho[{k}]*a_max = {caps[k]}]"
                )
    if b_arr.shape != (params.d,):
        problems.append(f"b: expected {params.d} entries, got {b_arr.shape}")
    else:
        for k in range(params.d):
            if not params.b_min <= b_arr[k] <= 1.0:
                problems.append(
                    f"b[{k}] = {b_arr[k]}: must lie in [b_min = {params.b_min}, 1]"
                )
    if problems:
        raise ParameterError(problems)
    rho = np.asarray(params.rho)
    lam = np.asarray(params.lambda_)
    eta = np.asarray(params.eta)
    sig2 = np.asarray(params.sigma) ** 2
    c_alpha = float(np.sum(a_arr**2 / rho))
    c_beta = float(np.sum(sig2 / (lam * eta) * (b_arr ** (-eta) - 1.0)))
    return 0.5 * (c_alpha + c_beta)


# ----------------------------------------------------------------------
# Flat-text configuration
# ----------------------------------------------------------------------

def read_flat_config(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` text file into an ordered mapping.

    Lines hold one ``key = value`` pair each; ``#`` and ``;`` start comments;
    a leading ``[section]`` header is permitted but ignored. Duplicate keys
    are errors.
    """
    import configparser

    text = Path(path).read_text(encoding="utf-8")
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str  # keys are case-sensitive, exactly as written
    if not text.lstrip().startswith("["):
        text = "[config]\n" + text
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ParameterError([f"config file {path}: {exc}"]) from exc
    mapping: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in mapping:
                raise ParameterError([f"config file {path}: duplicate key {key!r}"])
            mapping[key] = value
    return mapping


def _parse_float(key: str, raw: object) -> float:
    try:
        if isinstance(raw, bool) or not isinstance(raw, (numbers.Real, str)):
            raise ValueError("only a real number or number text; a bool is not 0 or 1")
        return float(raw)
    except ValueError as exc:
        raise ParameterError([f"{key} = {raw!r}: not a number"]) from exc


def _parse_int(key: str, raw: object) -> int:
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise ValueError("only an int or integer text; a float is not truncated")
        return int(raw)
    except ValueError as exc:
        raise ParameterError([f"{key} = {raw!r}: not an integer"]) from exc


def _parse_float_list(key: str, raw: object) -> tuple[float, ...]:
    if not isinstance(raw, str):
        raise ParameterError([f"{key} = {raw!r}: not a comma-separated list"])
    items = [piece.strip() for piece in raw.split(",") if piece.strip() != ""]
    if not items:
        raise ParameterError([f"{key} = {raw!r}: empty list"])
    return tuple(_parse_float(key, piece) for piece in items)


def _float_tuple(raw: object) -> tuple[float, ...]:
    return tuple(float(v) for v in ((raw,) if isinstance(raw, (int, float)) else raw))


#: Config key -> (ModelParams field, converter, parser), in field order, each
#: chosen once from the field's annotation (``__post_init__`` runs on every
#: ``replace``); ``lambda`` is spelled without the keyword-avoiding underscore.
_KINDS = {
    "int": (int, _parse_int),
    "float": (float, _parse_float),
    "tuple[float, ...]": (_float_tuple, _parse_float_list),
}
_KEY_FIELDS = {f.name.rstrip("_"): (f.name, *_KINDS[f.type]) for f in fields(ModelParams)}

#: Config keys owned by the model, exactly the ModelParams field names.
MODEL_CONFIG_KEYS = tuple(_KEY_FIELDS)


def params_from_mapping(mapping: Mapping[str, str]) -> ModelParams:
    """Build ModelParams from flat-text key/value pairs.

    Keys must be ModelParams field names (``lambda`` for the volatility
    efficiency). Missing keys keep the calibrated defaults; unknown keys are
    errors.
    """
    unknown = [key for key in mapping if key not in MODEL_CONFIG_KEYS]
    if unknown:
        raise ParameterError(
            [f"unknown parameter key {key!r}" for key in sorted(unknown)]
        )
    updates: dict[str, object] = {}
    for key, raw in mapping.items():
        name, _, parse = _KEY_FIELDS[key]
        updates[name] = parse(key, raw)
    return replace(calibrated_defaults(), **updates)

