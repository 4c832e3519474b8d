"""Release gate: ten end-to-end checks of the whole engine.

Each test prints a single ``acceptance criterion NN [...]: PASS/FAIL`` line.
The suite covers the closed-form optimizers against brute-force grid search,
branch continuity, the outside option, degenerate-noise collapse, the
risk-neutral limit, dominance and ordering of the two contract kinds,
headline magnitude bands, Monte Carlo cross-validation of both sides of the
contract, the equivalence of the two population-indexing conventions, and
byte-level determinism of the command-line interface on rerun.
"""

import dataclasses

import numpy as np

from test_agent import drift_oracle, f0_oracle, vol_oracle

from mfdr.agent import (
    best_drift_effort,
    best_vol_effort,
    f0,
    hamiltonian_envelopes,
    reservation,
)
from mfdr.cli import DEFAULT_SWEEP_RP, DEFAULT_SWEEP_SHARE, main
from mfdr.mfsim import SimConfig, contract_payoffs, simulate
from mfdr.mfsim import verify_participation, verify_principal_value
from mfdr.model import (
    ModelParams,
    calibrated_defaults,
    validate,
    with_variance_share,
)
from mfdr.principal import (
    compare,
    optimal_schedule,
    solve_contract,
    solve_contracts,
    value_report,
)

CAL = calibrated_defaults()
TOTAL_STD = 0.085  # calibrated no-effort standard deviation, kW


def _verdict(number: int, name: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"acceptance criterion {number:02d} [{name}]: {status}")
    for problem in problems:
        print(f"  - {problem}")
    assert not problems


def _rel_ok(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * max(abs(expected), 1.0) + 1e-12


def _random_params(rng: np.random.Generator) -> ModelParams:
    d = int(rng.integers(1, 4))
    return validate(ModelParams(
        d=d,
        rho=tuple(10.0 ** rng.uniform(-5.0, -2.0, d)),
        lambda_=tuple(10.0 ** rng.uniform(-2.5, 0.7, d)),
        eta=tuple(rng.uniform(1.0, 3.0, d)),
        sigma=tuple(rng.uniform(0.01, 0.4, d)),
        sigma_circ=float(rng.uniform(0.0, 0.3)),
        a_max=float(10.0 ** rng.uniform(0.0, 3.0)),
        b_min=float(rng.uniform(0.02, 0.3)),
        r_a=float(10.0 ** rng.uniform(-4.0, -1.0)),
        r_p=float(10.0 ** rng.uniform(-4.0, -1.5)),
        theta=float(rng.uniform(0.0, 0.01)),
        horizon=float(rng.uniform(0.5, 8.0)),
        x0=0.0,
        delta=float(rng.uniform(-80.0, 10.0)),
        kappa=float(rng.uniform(0.0, 15.0)),
    ))


def test_criterion_01_closed_form_oracles():
    rng = np.random.default_rng(20240816)
    problems: list[str] = []
    grid_points = 100_001
    for trial in range(100):
        params = _random_params(rng)
        z = float(params.a_max * rng.uniform(-1.5, 0.3))
        if rng.uniform() < 0.15:
            gamma = float(rng.uniform(0.0, 3.0))
        else:
            gamma = -float(10.0 ** rng.uniform(-3.0, 6.0))

        a_star = best_drift_effort(z, params)
        oracle_a, oracle_hd = drift_oracle(z, params, n=grid_points)
        b_star = best_vol_effort(gamma, params)
        oracle_b, oracle_hv = vol_oracle(gamma, params, n=grid_points)
        q = max(-gamma, 0.0)
        oracle_f0 = f0_oracle(q, params, n=grid_points)
        env = hamiltonian_envelopes(z, gamma, 0.0, params)

        checks = [
            ("H_d", float(env.h_d), oracle_hd),
            ("H_v", float(env.h_v), oracle_hv),
            ("F0", float(f0(q, params)), oracle_f0),
        ]
        for k in range(params.d):
            checks.append((f"a*[{k}]", float(a_star[k]), float(oracle_a[k])))
            checks.append((f"b*[{k}]", float(b_star[k]), float(oracle_b[k])))
        for label, actual, expected in checks:
            if not _rel_ok(actual, expected, 1e-6):
                problems.append(
                    f"trial {trial}: {label} = {actual!r} vs oracle "
                    f"{expected!r} (z={z!r}, gamma={gamma!r})"
                )
    _verdict(1, "closed-form oracles, 100 random parameter sets", problems)


def test_criterion_02_volatility_branch_continuity():
    multi = validate(dataclasses.replace(
        CAL,
        d=3,
        rho=(1e-4, 2.5e-4, 5e-5),
        lambda_=(0.01, 0.05, 2.8e-2),
        eta=(1.0, 2.0, 1.5),
        sigma=(0.03, 0.05, 0.02),
    ))
    problems: list[str] = []
    for params in (CAL, multi):
        for k in range(params.d):
            lam, eta = params.lambda_[k], params.eta[k]
            sig2 = params.sigma[k] ** 2
            q = 1.0 / lam
            full_retention = q * sig2
            b = (lam * q) ** (-1.0 / (eta + 1.0))
            interior = q * sig2 * b + sig2 / (lam * eta) * (b ** (-eta) - 1.0)
            gap = abs(full_retention - interior)
            if gap > 1e-12 * abs(full_retention):
                problems.append(
                    f"usage {k}: branch gap {gap!r} at the kink q = 1/lambda"
                )
            single = validate(dataclasses.replace(
                params, d=1, rho=(params.rho[k],), lambda_=(lam,),
                eta=(eta,), sigma=(params.sigma[k],),
            ))
            if not _rel_ok(float(f0(q, single)), full_retention, 1e-12):
                problems.append(
                    f"usage {k}: f0 at the kink is {f0(q, single)!r}, "
                    f"expected {full_retention!r}"
                )
    _verdict(2, "volatility envelope continuous across branches", problems)


def test_criterion_03_reservation_quadrature():
    report = reservation(CAL)
    closed_form = -(CAL.r_a * CAL.kappa**2 * TOTAL_STD**2 / 2.0) * (
        CAL.horizon**3 / 3.0
    )
    problems: list[str] = []
    if abs(report.psi0_T - closed_form) > 1e-8 * abs(closed_form):
        problems.append(
            f"psi0_T = {report.psi0_T!r} vs closed form {closed_form!r}"
        )
    if not np.all(report.beta0 == 1.0):
        problems.append("walk-away consumer should retain all variance")
    _verdict(3, "reservation cost quadrature and full retention", problems)


def test_criterion_04_degenerate_noise_collapse():
    params = with_variance_share(CAL, 0.0)
    problems: list[str] = []
    for principal in ("cara", "risk_neutral"):
        sol_new = solve_contract("new", principal, params, 512)
        sol_cls = solve_contract("classical", principal, params, 512)
        new, classical = sol_new.value, sol_cls.value
        if abs(new.v0 - classical.v0) > 1e-10 * abs(classical.v0):
            problems.append(
                f"{principal}: v0 {new.v0!r} (population-indexed) vs "
                f"{classical.v0!r} (own meter)"
            )
        pay_new, eff_new = sol_new.payment, sol_new.effort
        pay_cls, eff_cls = sol_cls.payment, sol_cls.effort
        for label, lhs, rhs in (
            ("z", pay_new.z, pay_cls.z),
            ("z_mu", pay_new.z_mu, pay_cls.z_mu),
            ("gamma", pay_new.gamma, pay_cls.gamma),
            ("alpha", eff_new.alpha, eff_cls.alpha),
            ("beta", eff_new.beta, eff_cls.beta),
        ):
            if not np.array_equal(lhs, rhs):
                problems.append(f"{principal}: schedules differ in {label}")
    _verdict(4, "no common noise collapses the two contract kinds", problems)


def test_criterion_05_risk_neutral_limit():
    tiny = 1e-6
    params = validate(dataclasses.replace(CAL, r_p=tiny))
    problems: list[str] = []
    for kind in ("new", "classical"):
        cara_value = value_report(kind, "cara", params, 1024).v0
        neutral_value = value_report(kind, "risk_neutral", params, 1024).v0
        scaled = (1.0 + cara_value) / tiny
        if abs(scaled - neutral_value) > 1e-3 * abs(neutral_value):
            problems.append(
                f"{kind}: (1 + v0)/r_p = {scaled!r} vs risk-neutral "
                f"value {neutral_value!r}"
            )
    _verdict(5, "risk-neutral limit of the cara value", problems)


def test_criterion_06_dominance_and_orderings():
    problems: list[str] = []
    for r_p in DEFAULT_SWEEP_RP:
        for share in DEFAULT_SWEEP_SHARE:
            cell = with_variance_share(
                validate(dataclasses.replace(CAL, r_p=r_p)), share
            )
            principal = "cara" if r_p > 0.0 else "risk_neutral"
            # Running cost rates at the 129 nodes of a 128-interval grid.
            new, cls = solve_contracts(
                [("new", principal, cell), ("classical", principal, cell)], 128
            )
            m_new, m_cls = new.m_rate, cls.m_rate
            slack = 1e-12 * (1.0 + np.abs(m_cls))
            if np.any(m_cls < m_new - slack):
                problems.append(
                    f"running cost dominance fails at r_p={r_p}, share={share}"
                )
            report = compare(cell, grid=256)
            if report.delta_v < -1e-12 * (1.0 + abs(report.delta_v)):
                problems.append(
                    f"delta_v = {report.delta_v!r} < 0 at r_p={r_p}, "
                    f"share={share}"
                )
            if report.rel_delta_v < -1e-12:
                problems.append(
                    f"rel_delta_v = {report.rel_delta_v!r} < 0 at r_p={r_p}, "
                    f"share={share}"
                )
    # With delta < 0 and a risk-neutral principal, the own-meter payment
    # rates sit between zero and the population-indexed ones.
    assert CAL.delta < 0.0
    for share in DEFAULT_SWEEP_SHARE:
        cell = with_variance_share(
            validate(dataclasses.replace(CAL, r_p=0.0)), share
        )
        pay_new, _ = optimal_schedule("new", "risk_neutral", cell, 256)
        pay_cls, _ = optimal_schedule("classical", "risk_neutral", cell, 256)
        tol_z = 1e-9 * (1.0 + np.abs(pay_new.z))
        tol_g = 1e-9 * (1.0 + np.abs(pay_new.gamma))
        if np.any(pay_cls.z > 1e-12) or np.any(pay_cls.z < pay_new.z - tol_z):
            problems.append(f"drift-rate ordering fails at share={share}")
        if np.any(pay_cls.gamma > 1e-12) or np.any(
            pay_cls.gamma < pay_new.gamma - tol_g
        ):
            problems.append(f"variance-rate ordering fails at share={share}")
    _verdict(6, "dominance and payment-rate orderings on the sweep", problems)


def test_criterion_07_headline_magnitude_bands():
    problems: list[str] = []
    neutral = validate(dataclasses.replace(CAL, r_p=0.0))

    full = compare(with_variance_share(neutral, 1.0), grid=1024)
    if not 0.35 <= full.rel_delta_v <= 0.65:
        problems.append(
            f"risk-neutral full-share relative gain {full.rel_delta_v!r} "
            "outside [0.35, 0.65]"
        )
    if not 0.35 <= full.delta_alpha <= 0.65:
        problems.append(
            f"risk-neutral full-share drift-effort gain {full.delta_alpha!r} "
            "outside [0.35, 0.65]"
        )

    half = compare(with_variance_share(neutral, 0.5), grid=1024)
    if not 0.02 <= half.delta_beta <= 0.06:
        problems.append(
            f"risk-neutral half-share variance cut {half.delta_beta!r} "
            "outside [0.02, 0.06]"
        )

    cara = compare(with_variance_share(CAL, 1.0), grid=1024)
    if not 0.08 <= cara.rel_delta_v <= 0.25:
        problems.append(
            f"cara full-share relative gain {cara.rel_delta_v!r} "
            "outside [0.08, 0.25]"
        )
    _verdict(7, "headline magnitude bands", problems)


def test_criterion_08_monte_carlo_cross_validation():
    cfg = SimConfig(n_particles=4096, n_common=256, dt=CAL.horizon / 512,
                    seed=2024)
    problems: list[str] = []
    for kind in ("new", "classical"):
        for principal in ("cara", "risk_neutral"):
            solution = solve_contract(kind, principal, CAL, 1024)
            payment, report = solution.payment, solution.value
            ensemble = simulate(CAL, payment, cfg)
            payoffs = contract_payoffs(ensemble, payment, CAL, principal)

            agent = verify_participation(ensemble, payoffs, CAL)
            agent_gap = abs(agent.estimate - agent.closed_form_target)
            if agent_gap > 3.0 * agent.std_error:
                problems.append(
                    f"{kind}/{principal}: agent certainty equivalent "
                    f"{agent.estimate!r} is {agent_gap / agent.std_error:.2f} "
                    f"SE from {agent.closed_form_target!r}"
                )

            value = verify_principal_value(ensemble, payoffs, CAL, report)
            value_gap = abs(value.estimate - value.closed_form_target)
            budget = 3.0 * value.std_error + abs(value.jackknife_bias)
            if value_gap > budget:
                problems.append(
                    f"{kind}/{principal}: principal value {value.estimate!r} "
                    f"misses {value.closed_form_target!r} by {value_gap!r} "
                    f"(> {budget!r})"
                )
    _verdict(8, "Monte Carlo cross-validation, all four contracts", problems)


def test_criterion_09_indexing_equivalence():
    params = with_variance_share(CAL, 1.0)
    payment, _ = optimal_schedule("new", "cara", params, 512)
    gaps = []
    for steps in (256, 512):
        cfg = SimConfig(n_particles=1024, n_common=8,
                        dt=params.horizon / steps, seed=11)
        ensemble = simulate(params, payment, cfg)
        on_noise = contract_payoffs(ensemble, payment, params, "cara",
                                    indexing="common_noise")
        on_law = contract_payoffs(ensemble, payment, params, "cara",
                                  indexing="law")
        gaps.append(float(np.max(np.abs(on_law - on_noise))))
    problems: list[str] = []
    if not gaps[0] < 0.1:
        problems.append(f"coarse-step gap {gaps[0]!r} is not small")
    if not gaps[1] > 0.0:
        problems.append("fine-step gap vanished; ratio is meaningless")
    elif not gaps[0] / gaps[1] >= 1.8:
        problems.append(
            f"halving the step shrinks the gap only {gaps[0] / gaps[1]:.3f}x "
            f"({gaps[0]!r} -> {gaps[1]!r})"
        )
    _verdict(9, "population indexings agree to first order in dt", problems)


def test_criterion_10_determinism_across_workers(tmp_path):
    fast_dt = str(5.5 / 64)
    commands = (
        ["schedule", "--grid", "128"],
        ["compare", "--grid", "128"],
        ["simulate", "--grid", "64", "--particles", "64", "--common", "8",
         "--dt", fast_dt],
        ["first-best", "--grid", "256"],
        ["reservation", "--grid", "256"],
    )
    outputs: list[dict[str, bytes]] = []
    for run in ("first", "second"):
        out = tmp_path / run
        for command in commands:
            assert main([command[0], "--out", str(out), *command[1:]]) == 0
        outputs.append({
            path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))
        })
    problems: list[str] = []
    if len(outputs[0]) < 10:
        problems.append("expected at least ten CSV files per run")
    if outputs[0] != outputs[1]:
        differing = sorted(
            name for name in outputs[0]
            if outputs[0].get(name) != outputs[1].get(name)
        )
        problems.append(f"first and second run outputs differ: {differing}")
    _verdict(10, "byte-identical output on rerun", problems)
