"""mfdr — optimal demand-response contracts under mean-field interaction.

A numerical engine for electricity demand-response contracting between a
producer (principal) and a continuum of consumers (agents) whose consumption
deviations interact through a common weather shock. The package computes
closed-form payment-rate schedules (on the deviation, on the population's mean
deviation, and on the quadratic variation), the consumers' induced effort
schedules, the principal's value functions for population-indexed and
classical contracts, the comparison metrics between them, and the
full-information (first-best) benchmark, a report rather than a contract —
and validates every closed form against an independent conditional-law
particle Monte Carlo.

Modules
-------
model:
    Market, preference, and cost primitives (parameters valid by
    construction, effort costs, calibrated defaults, config loading).
agent:
    Consumer best responses, Hamiltonian envelopes, the volatility-incentive
    envelope F0, and the no-contract reservation utility.
principal:
    Optimal payment schedules and value reports of the two contract kinds,
    their comparisons, and the first-best benchmark report, in the linear
    energy-value-discrepancy regime.
numerics:
    Deterministic bracketed minimization and Simpson quadrature kernels.
mfsim:
    Particle Monte Carlo of the equilibrium dynamics, sampled exactly, and
    contract payoff evaluation; the independent validator.
cli:
    Command-line surface (schedule | compare | simulate | first-best |
    reservation) writing CSV files.

Units: money in pence, power in kW, time in hours.
"""

__version__ = "0.1.0"

from .agent import (
    Envelopes,
    ReservationReport,
    best_drift_effort,
    best_effort_cost,
    best_response_variance,
    best_response_vol_cost,
    best_vol_effort,
    f0,
    hamiltonian_envelopes,
    reservation,
)
from .cli import RunConfig, build_run_config, main
from .mfsim import (
    McReport,
    ParticleEnsemble,
    SimConfig,
    contract_payoffs,
    simulate,
    verify_participation,
    verify_principal_value,
)
from .model import (
    ModelParams,
    ParameterError,
    calibrated_defaults,
    effort_cost,
    validate,
    with_variance_share,
)
from .principal import (
    ComparisonReport,
    ContractSolution,
    EffortSchedule,
    FirstBestReport,
    PaymentSchedule,
    ValueReport,
    check_schedule_invariants,
    compare,
    first_best_report,
    optimal_schedule,
    solve_contract,
    value_report,
)

__all__ = [
    "ComparisonReport",
    "ContractSolution",
    "EffortSchedule",
    "Envelopes",
    "FirstBestReport",
    "McReport",
    "ModelParams",
    "ParameterError",
    "ParticleEnsemble",
    "PaymentSchedule",
    "ReservationReport",
    "RunConfig",
    "SimConfig",
    "ValueReport",
    "best_drift_effort",
    "best_effort_cost",
    "best_response_variance",
    "best_response_vol_cost",
    "best_vol_effort",
    "build_run_config",
    "calibrated_defaults",
    "check_schedule_invariants",
    "compare",
    "contract_payoffs",
    "effort_cost",
    "f0",
    "first_best_report",
    "hamiltonian_envelopes",
    "main",
    "optimal_schedule",
    "reservation",
    "simulate",
    "solve_contract",
    "validate",
    "value_report",
    "verify_participation",
    "verify_principal_value",
    "with_variance_share",
    "__version__",
]
