import math
import time

import numpy as np
import pytest

from lsvcg.generate import (
    payment_gap_benchmark,
    random_scenario,
    replicate_assignments,
    rng_for,
    scale_capacity,
)
from lsvcg.mechanisms import (
    EXACT_VCG_MAX_AGENTS,
    budget_audit,
    ir_audit,
    large_scale_vcg,
    shadow_payment_gap,
    vcg_exact,
)
from lsvcg.model import (
    InfluenceParams,
    Population,
    Profile,
    Scenario,
    TypeSpace,
    UtilityParams,
    ValidationError,
    utility_value,
)
from lsvcg.solver import solve_agent_list


def _agent_values(outcome, values, agents, reports=None):
    """``values`` (one per cell of ``outcome``) read at each agent's (true type, report) cell."""
    reports = agents if reports is None else reports
    return np.array([values[outcome.profile.cell_index(a, r)] for a, r in zip(agents, reports)])


def _two_agent_scenario():
    return Scenario(
        type_space=TypeSpace(1, 1, 1),
        utility=UtilityParams(weights=[[1.0]]),
        influence=InfluenceParams(linear=[[1.0]], quadratic=[[0.0]]),
        population=Population(shares=[1.0], num_agents=2),
        capacities=[2.0],
        beta=0.0,
        z_max=50.0,
    )


# -- exact VCG -----------------------------------------------------------------


def test_single_agent_pays_nothing(bench1):
    outcome = vcg_exact(Profile.from_agents([(0, 0)], bench1.type_space), bench1)
    assert outcome.cell_payments[0] == 0.0
    assert outcome.cell_payoffs[0] == pytest.approx(math.log(2.0))


def test_two_identical_agents_closed_form_payment():
    scenario = _two_agent_scenario()
    assignments = [(0, 0), (0, 0)]
    outcome = vcg_exact(Profile.from_agents(assignments, scenario.type_space), scenario)
    assert np.allclose(_agent_values(outcome, outcome.cell_allocations, assignments), 1.0, atol=1e-10)
    expected = math.log(3.0) - math.log(2.0)  # lone-agent optimum minus share at the joint one
    assert _agent_values(outcome, outcome.cell_payments, assignments) == pytest.approx([expected, expected], abs=1e-9)


def test_scale_guard():
    scenario = _two_agent_scenario()
    assignments = [(0, 0)] * (EXACT_VCG_MAX_AGENTS + 1)
    with pytest.raises(ValidationError, match="large_scale_vcg"):
        vcg_exact(Profile.from_agents(assignments, scenario.type_space), scenario)


def test_joint_and_leave_one_out_markets_are_cleared_once(bench_gap, monkeypatch):
    # the joint market plus one per distinct report whose others are
    # nonempty, all in one batch
    import lsvcg.mechanisms

    clear_markets = lsvcg.mechanisms.clear_markets
    batches = []

    def counted(scenario, weights, capacities):
        batches.append(len(weights))
        return clear_markets(scenario, weights, capacities)

    monkeypatch.setattr(lsvcg.mechanisms, "clear_markets", counted)
    ts = bench_gap.type_space
    types = [ts.unflatten(r) for r in range(ts.num_types)]
    for agents, expected in [
        (types[:1], 1),
        (types[:1] * 3, 2),
        (types * 2 + types[:1], 1 + ts.num_types),
    ]:
        batches.clear()
        vcg_exact(Profile.from_agents(agents, ts), bench_gap)
        assert batches == [expected]


def test_truth_is_dominant_in_exhaustive_sweep():
    # two utility types, shared influence: the feasible set is report-free,
    # so the exact mechanism is strategyproof; sweep every opponent profile
    scenario = Scenario(
        type_space=TypeSpace(2, 1, 1),
        utility=UtilityParams(weights=[[1.0], [1.8]]),
        influence=InfluenceParams(linear=[[1.0]], quadratic=[[0.0]]),
        population=Population(shares=[0.5, 0.5], num_agents=4),
        capacities=[3.0],
        beta=0.0,
        z_max=60.0,
    )
    true_types = [(0, 0), (0, 0), (1, 0), (1, 0)]
    reports_set = [(0, 0), (1, 0)]
    for opp in np.ndindex(2, 2, 2):
        opponents = [reports_set[k] for k in opp]
        for deviator_true in [(0, 0), (1, 0)]:
            payoffs = {}
            for own in reports_set:
                profile = Profile.from_agents([deviator_true] + true_types[1:], scenario.type_space, [own] + opponents)
                outcome = vcg_exact(profile, scenario)
                payoffs[own] = outcome.cell_payoffs[profile.cell_index(deviator_true, own)]
            truthful = payoffs[deviator_true]
            assert truthful >= max(payoffs.values()) - 1e-9


# -- shadow-price mechanism ------------------------------------------------------


def test_truthful_run_solves_reported_program(bench_gap):
    scenario = scale_capacity(bench_gap, 8)
    assignments = replicate_assignments(bench_gap.population.shares, 8, bench_gap.type_space)
    outcome = large_scale_vcg(Profile.from_agents(assignments, scenario.type_space), scenario)
    sol, pop = solve_agent_list(assignments, scenario)
    allocations = _agent_values(outcome, outcome.cell_allocations, assignments)
    for i, (theta, zeta) in enumerate(assignments):
        r = scenario.type_space.flat_index(theta, zeta)
        assert np.allclose(allocations[i], sol.z[r], atol=1e-12)
    assert np.allclose(outcome.prices, sol.p, atol=1e-12)
    assert sol.kkt_residual <= 1e-8


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_budget_identity_binding(beta, rng):
    scenario = random_scenario(rng, num_theta=2, num_zeta=2, num_resources=2, num_agents=12, beta=beta)
    assignments = replicate_assignments(scenario.population.shares, 12, scenario.type_space)
    outcome = large_scale_vcg(Profile.from_agents(assignments, scenario.type_space), scenario)
    total, predicted = budget_audit(outcome, scenario)
    assert total == pytest.approx(predicted, abs=1e-8 * max(1.0, abs(predicted)))
    expected = float(outcome.prices @ ((1 - beta) * scenario.capacities))
    assert predicted == pytest.approx(expected)
    if beta == 1.0:
        assert abs(total) <= 1e-8


def test_shadow_price_mechanism_costs_o_types_at_any_head_count(bench_incentive):
    # 10**12 agents held as four head counts: nothing may be sized by the head count
    from dataclasses import replace

    num_agents = 10**12
    population = Population(bench_incentive.population.shares, num_agents)
    scenario = scale_capacity(replace(bench_incentive, population=population), num_agents)
    started = time.perf_counter()
    outcome = large_scale_vcg(Profile.truthful(population, scenario.type_space), scenario)
    total, predicted = budget_audit(outcome, scenario)
    assert time.perf_counter() - started < 1.0
    assert abs(total - predicted) <= 1e-12 * abs(predicted)


def test_budget_audit_slack_fallback(bench1):
    from dataclasses import replace

    slack = replace(bench1, capacities=np.array([100.0]), beta=0.0)
    outcome = large_scale_vcg(Profile.from_agents([(0, 0)], slack.type_space), slack)
    total, predicted = budget_audit(outcome, slack)
    assert total == pytest.approx(0.0, abs=1e-12)  # zero price, zero payments
    assert predicted == pytest.approx(0.0, abs=1e-12)


def test_weak_budget_balance_across_beta(rng):
    for _ in range(25):
        beta = float(rng.uniform(0.0, 1.0))
        scenario = random_scenario(
            rng,
            num_theta=int(rng.integers(1, 3)),
            num_zeta=int(rng.integers(1, 3)),
            num_resources=int(rng.integers(1, 3)),
            num_agents=8,
            beta=beta,
            quadratic=bool(rng.integers(2)),
        )
        assignments = replicate_assignments(scenario.population.shares, 8, scenario.type_space)
        outcome = large_scale_vcg(Profile.from_agents(assignments, scenario.type_space), scenario)
        assert float(np.sum(_agent_values(outcome, outcome.cell_payments, assignments))) >= -1e-9


def test_individual_rationality_truthful(rng):
    for beta in (0.0, 1.0):
        scenario = random_scenario(rng, num_theta=2, num_zeta=1, num_resources=2, num_agents=8, beta=beta)
        assignments = replicate_assignments(scenario.population.shares, 8, scenario.type_space)
        outcome = large_scale_vcg(Profile.from_agents(assignments, scenario.type_space), scenario)
        assert ir_audit(outcome) >= -1e-9


def test_payoff_accounting_is_exact(rng):
    scenario = random_scenario(rng, num_theta=2, num_zeta=2, num_resources=1, num_agents=8)
    assignments = replicate_assignments(scenario.population.shares, 8, scenario.type_space)
    # one misreport; payoffs must still use true types
    profile = Profile.from_agents(assignments, scenario.type_space).with_report(assignments[0], (1, 1))
    outcome = large_scale_vcg(profile, scenario)
    reports = [(1, 1)] + assignments[1:]
    allocations = _agent_values(outcome, outcome.cell_allocations, assignments, reports)
    payments = _agent_values(outcome, outcome.cell_payments, assignments, reports)
    payoffs = _agent_values(outcome, outcome.cell_payoffs, assignments, reports)
    for i, (theta, _) in enumerate(assignments):
        expected = utility_value(scenario.utility, theta, allocations[i]) - payments[i]
        assert payoffs[i] == expected


def test_equal_treatment_of_equal_reports(rng):
    scenario = random_scenario(rng, num_theta=2, num_zeta=1, num_resources=1, num_agents=8)
    assignments = replicate_assignments(scenario.population.shares, 8, scenario.type_space)
    outcome = large_scale_vcg(Profile.from_agents(assignments, scenario.type_space), scenario)
    reports = assignments  # everyone reports truthfully
    allocations = _agent_values(outcome, outcome.cell_allocations, assignments, reports)
    payments = _agent_values(outcome, outcome.cell_payments, assignments, reports)
    for i, ri in enumerate(reports):
        for j, rj in enumerate(reports):
            if ri == rj and assignments[i] == assignments[j]:
                assert np.array_equal(allocations[i], allocations[j])
                assert payments[i] == payments[j]


def test_payments_invariant_under_agent_permutation(rng):
    scenario = random_scenario(rng, num_theta=2, num_zeta=2, num_resources=1, num_agents=8)
    assignments = replicate_assignments(scenario.population.shares, 8, scenario.type_space)
    outcome = large_scale_vcg(Profile.from_agents(assignments, scenario.type_space), scenario)
    perm = list(rng.permutation(len(assignments)))
    shuffled = [assignments[k] for k in perm]
    outcome_perm = large_scale_vcg(Profile.from_agents(shuffled, scenario.type_space), scenario)
    assert np.array_equal(
        _agent_values(outcome_perm, outcome_perm.cell_payments, shuffled),
        _agent_values(outcome, outcome.cell_payments, assignments)[perm],
    )


def test_mean_field_truth_dominates_menu(rng):
    for _ in range(10):
        scenario = random_scenario(
            rng, num_theta=2, num_zeta=2, num_resources=2, num_agents=None, quadratic=bool(rng.integers(2))
        )
        ts = scenario.type_space
        probes = [ts.unflatten(r) for r in range(ts.num_types)]
        truthful = large_scale_vcg(
            Profile.from_agents(probes, ts), scenario, report_distribution=scenario.population
        )
        for r, true_type in enumerate(probes):
            for alt in range(ts.num_types):
                if alt == r:
                    continue
                dev = large_scale_vcg(
                    Profile.from_agents([true_type], ts, [ts.unflatten(alt)]),
                    scenario,
                    report_distribution=scenario.population,
                )
                assert truthful.cell_payoffs[truthful.profile.cell_index(true_type, true_type)] >= (
                    dev.cell_payoffs[0] - 1e-9
                )


# -- exact-versus-shadow payment convergence -------------------------------------


def test_payment_gap_single_agent_records_shadow_total(bench1):
    gaps = shadow_payment_gap(Profile.from_agents([(0, 0)], bench1.type_space), bench1)
    # the lone agent's exact payment is zero, so the gap is the shadow total
    assert gaps[0] == pytest.approx(0.5 * 1.0)


def test_payment_gap_shrinks_with_replication():
    base = payment_gap_benchmark()
    gaps = {}
    for num_agents in (4, 8, 16, 32, 64):
        scenario = scale_capacity(base, num_agents)
        profile = Profile.truthful(Population(base.population.shares, num_agents), base.type_space)
        gaps[num_agents] = float(np.max(shadow_payment_gap(profile, scenario)))
    sizes = sorted(gaps)
    for small, big in zip(sizes, sizes[1:]):
        assert gaps[big] <= gaps[small] * 1.05
    assert gaps[64] <= gaps[8] / 4.0
