"""Profiles: construction, cells, and the cell-level mechanisms against
references computed agent by agent."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsvcg.generate import random_scenario, replicate_assignments, rng_for, scale_capacity
from lsvcg.mechanisms import large_scale_vcg, outcome_rows, vcg_exact
from lsvcg.model import Population, Profile, TypeSpace, ValidationError, empirical_population, utility_value
from lsvcg.solver import best_response, solve_weighted
from lsvcg.superimpose import AlgorithmConfig, obedience_check, run_algorithm, superimposed_outcome

ULPS = 4


def test_truthful_profile_matches_replicated_agent_order():
    ts = TypeSpace(2, 2, 1)
    population = Population(shares=[0.4, 0.2, 0.1, 0.3], num_agents=20)
    profile = Profile.truthful(population, ts)
    explicit = Profile.from_agents(replicate_assignments(population.shares, 20, ts), ts)
    assert np.array_equal(profile.counts, explicit.counts)
    assert np.array_equal(profile.counts, np.diag(np.diag(profile.counts)))
    assert profile.num_agents == 20


def test_cells_group_agents_by_true_type_and_report():
    ts = TypeSpace(2, 1, 1)
    agents = [(1, 0), (0, 0), (1, 0), (0, 0)]
    reports = [(0, 0), (0, 0), (1, 0), (0, 0)]
    profile = Profile.from_agents(agents, ts, reports)
    cells = profile.cells
    assert profile.counts.tolist() == [[2, 0], [1, 1]]
    assert cells.true_idx.tolist() == [0, 1, 1]
    assert cells.report_idx.tolist() == [0, 0, 1]
    assert cells.counts.tolist() == [2, 1, 1]
    assert [profile.cell_index(a, r) for a, r in zip(agents, reports)] == [1, 0, 2, 0]
    assert profile.report_counts().tolist() == [3.0, 1.0]


def test_with_report_changes_one_agent_only():
    ts = TypeSpace(2, 1, 1)
    profile = Profile.from_agents([(0, 0), (1, 0), (1, 0)], ts)
    deviant = profile.with_report((1, 0), (0, 0))
    assert deviant.counts.tolist() == [[1, 0], [1, 1]]  # one agent left (1, 1) for (1, 0)
    assert profile.counts.tolist() == [[1, 0], [0, 2]]
    assert np.array_equal(deviant.counts.sum(axis=1), profile.counts.sum(axis=1))
    assert deviant.with_report((1, 0), (0, 0)).counts.tolist() == [[1, 0], [2, 0]]
    with pytest.raises(ValidationError, match="reports truthfully"):
        deviant.with_report((1, 0), (0, 0)).with_report((1, 0), (0, 0))


def test_profile_validation():
    ts = TypeSpace(2, 1, 1)
    with pytest.raises(ValidationError, match=r"type \(2, 0\) outside the type space"):
        Profile.from_agents([(0, 0), (2, 0)], ts)
    with pytest.raises(ValidationError, match="equal length"):
        Profile.from_agents([(0, 0)], ts, [(0, 0), (1, 0)])
    with pytest.raises(ValidationError, match=r"\(2, 2\) integer matrix"):
        Profile(ts, np.array([0, 2]))
    with pytest.raises(ValidationError, match="nonnegative"):
        Profile(ts, np.array([[1, 0], [-1, 2]]))
    with pytest.raises(ValidationError, match="different type spaces"):
        large_scale_vcg(Profile.from_agents([(0, 0)], TypeSpace(1, 1, 1)), random_scenario(rng_for(1), num_agents=8))


def test_empirical_population_rejects_missing_type():
    with pytest.raises(ValidationError, match="at least one agent of every type"):
        empirical_population([(0, 0), (0, 0)], TypeSpace(2, 1, 1))
    with pytest.raises(ValidationError, match="empty assignment list"):
        empirical_population([], TypeSpace(2, 1, 1))


def test_outcome_rows_expand_cells_in_agent_order():
    scenario = random_scenario(rng_for(5), num_theta=2, num_zeta=2, num_resources=2, num_agents=8)
    ts = scenario.type_space
    agents = replicate_assignments(scenario.population.shares, 8, ts)[::-1]
    profile = Profile.from_agents(agents, ts).with_report(agents[0], (0, 1))
    outcome = large_scale_vcg(profile, scenario)
    rows = outcome_rows(outcome)
    assert [row["id"] for row in rows] == list(range(8))
    # agents are numbered cell by cell: sorted by (true type, report)
    reports = [(0, 1)] + agents[1:]
    numbered = sorted(zip(agents, reports), key=lambda pair: tuple(ts.flat_index(*t) for t in pair))
    for row, (agent, report) in zip(rows, numbered):
        c = profile.cell_index(agent, report)
        assert (row["true_theta"], row["true_zeta"]) == agent
        assert (row["report_theta"], row["report_zeta"]) == report
        assert [row["z_0"], row["z_1"]] == outcome.cell_allocations[c].tolist()
        assert row["payment"] == outcome.cell_payments[c] and row["payoff"] == outcome.cell_payoffs[c]


# -- property: the profile path equals the agent-by-agent computation ------------


def _close(value, reference, scale):
    """Within ULPS units in the last place of the largest summed term."""
    return abs(value - reference) <= ULPS * np.spacing(scale)


def _load(scenario, zeta, x):
    return scenario.influence.linear[zeta] * x + scenario.influence.quadratic[zeta] * x**2


def _report_counts(scenario, reports):
    counts = np.zeros(scenario.type_space.num_types)
    for report in reports:
        counts[scenario.type_space.flat_index(*report)] += 1.0
    return counts


def _check_agents(scenario, agents, reports, outcome, payment_of):
    """Compare ``outcome``, read at each agent's (true type, report) cell, with
    per-agent allocations from its prices' menu."""
    ts = scenario.type_space
    for i, ((theta, zeta), report) in enumerate(zip(agents, reports)):
        c = outcome.profile.cell_index((theta, zeta), report)
        x, h, scale = payment_of(i, ts.flat_index(*report), zeta)
        assert np.array_equal(outcome.cell_allocations[c], x)
        assert _close(outcome.cell_payments[c], h, scale)
        u = utility_value(scenario.utility, theta, x)
        assert _close(outcome.cell_payoffs[c], u - h, abs(u) + scale)


@st.composite
def explicit_populations(draw):
    num_theta = draw(st.integers(1, 3))
    num_zeta = draw(st.integers(1, 2))
    num_types = num_theta * num_zeta
    num_agents = draw(st.integers(num_types, num_types + 6))
    base = random_scenario(
        rng_for(draw(st.integers(0, 2**32 - 1))),
        num_theta=num_theta,
        num_zeta=num_zeta,
        num_resources=draw(st.integers(1, 3)),
        num_agents=num_agents,
        beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
        quadratic=draw(st.booleans()),
    )
    scenario = scale_capacity(base, num_agents)  # capacities as head-count totals
    ts = scenario.type_space
    ordered = replicate_assignments(scenario.population.shares, num_agents, ts)
    agents = [ordered[k] for k in draw(st.permutations(range(num_agents)))]
    # about half the agents misreport a random type; the others tell the truth
    draws = draw(st.lists(st.integers(0, 2 * num_types - 1), min_size=num_agents, max_size=num_agents))
    reports = [ts.unflatten(r) if r < num_types else agent for agent, r in zip(agents, draws)]
    return scenario, agents, reports


PROPERTY = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(explicit_populations())
def test_large_scale_vcg_matches_per_agent_reference(case):
    scenario, agents, reports = case
    outcome = large_scale_vcg(Profile.from_agents(agents, scenario.type_space, reports), scenario)
    solution = solve_weighted(scenario, _report_counts(scenario, reports), scenario.capacities)
    rebate = scenario.beta * scenario.capacities / len(agents)

    def payment_of(i, report, zeta):
        x = solution.z[report]
        load = _load(scenario, zeta, x)
        return x, float(solution.p @ (load - rebate)), float(np.abs(solution.p) @ (np.abs(load) + rebate))

    assert np.array_equal(outcome.prices, solution.p)
    _check_agents(scenario, agents, reports, outcome, payment_of)


@PROPERTY
@given(explicit_populations())
def test_vcg_exact_matches_per_agent_reference(case):
    scenario, agents, reports = case
    outcome = vcg_exact(Profile.from_agents(agents, scenario.type_space, reports), scenario)
    counts = _report_counts(scenario, reports)
    full = solve_weighted(scenario, counts, scenario.capacities)
    w = scenario.type_weights()
    per_type_utility = np.sum(w * np.log1p(full.z), axis=1)

    def payment_of(i, report, zeta):
        others = counts.copy()
        others[report] -= 1.0
        if others.sum() <= 0:
            return full.z[report], 0.0, 0.0
        rest = solve_weighted(scenario, others, scenario.capacities)
        rest_welfare = float(others @ np.sum(w * np.log1p(rest.z), axis=1))
        at_joint = float(counts @ per_type_utility) - per_type_utility[report]
        return full.z[report], rest_welfare - at_joint, abs(rest_welfare) + abs(at_joint)

    _check_agents(scenario, agents, reports, outcome, payment_of)


CONFIG = AlgorithmConfig(tolerance=1e-4, max_rounds=3000)


@PROPERTY
@given(explicit_populations())
def test_superimposed_outcome_matches_per_agent_reference(case):
    scenario, agents, reports = case
    trace = run_algorithm(Profile.from_agents(agents, scenario.type_space, reports), scenario, CONFIG)
    # every agent replies as its report, and the coordinator books its true load
    replies = [best_response(*r, trace.round_prices[-1], scenario) for r in reports]
    demand = sum(_load(scenario, zeta, x) for (_, zeta), x in zip(agents, replies)) / len(agents)
    assert np.allclose(trace.round_demand[-1], demand, rtol=1e-12, atol=0.0)
    for r in reports:
        assert np.array_equal(
            trace.final_menu[scenario.type_space.flat_index(*r)], best_response(*r, trace.final_prices, scenario)
        )
    if not trace.converged:
        with pytest.raises(ValidationError, match="unconverged"):
            superimposed_outcome(trace, scenario)
        return
    outcome = superimposed_outcome(trace, scenario)
    lam = trace.final_prices
    rebate = scenario.beta * scenario.capacities / len(agents)

    def payment_of(i, report, zeta):
        x = trace.final_menu[report]
        load = _load(scenario, zeta, x)
        return x, float(lam @ (load - rebate)), float(np.abs(lam) @ (np.abs(load) + rebate))

    _check_agents(scenario, agents, reports, outcome, payment_of)


@PROPERTY
@given(explicit_populations(), st.data())
def test_obedience_check_equals_explicit_runs(case, data):
    scenario, agents, _ = case
    ts = scenario.type_space
    deviator = data.draw(st.integers(0, len(agents) - 1))
    own = agents[deviator]

    def payoff(impersonated):
        reports = list(agents)
        reports[deviator] = impersonated
        profile = Profile.from_agents(agents, ts, reports)
        trace = run_algorithm(profile, scenario, CONFIG)
        return float(superimposed_outcome(trace, scenario).cell_payoffs[profile.cell_index(own, impersonated)])

    try:
        obedient = payoff(own)
        deviations = [payoff(ts.unflatten(r)) for r in range(ts.num_types) if ts.unflatten(r) != own]
    except ValidationError:  # some run did not converge: obedience_check must refuse too
        with pytest.raises(ValidationError, match="unconverged"):
            obedience_check(scenario, len(agents), own, CONFIG)
        return
    best = max(deviations, default=obedient)
    expected = (obedient, best, obedient - best if deviations else 0.0)
    assert obedience_check(scenario, len(agents), own, CONFIG) == expected
