import inspect

import numpy as np
import pytest

from conftest import single_type_benchmark
from lsvcg.generate import obedience_scenario, rng_for, scale_capacity
from lsvcg.mechanisms import large_scale_vcg
from lsvcg.model import Population, Profile, ValidationError
from lsvcg.superimpose import (
    AlgorithmConfig,
    _run_lanes,
    obedience_check,
    obedient_actions,
    run_algorithm,
    superimposed_outcome,
)


def _replicated_single_type(num_agents):
    from dataclasses import replace

    base = single_type_benchmark()
    scenario = replace(
        base,
        population=Population(shares=[1.0], num_agents=num_agents),
        capacities=base.capacities * num_agents,
    )
    return scenario, Profile.from_agents([(0, 0)] * num_agents, scenario.type_space)


def _first_and_last_types(profile):
    """True types of the first and the last agent, numbered cell by cell."""
    present = np.flatnonzero(profile.counts.sum(axis=1))
    return profile.type_space.unflatten(int(present[0])), profile.type_space.unflatten(int(present[-1]))


def test_obedient_run_reaches_centralized_solution():
    scenario, profile = _replicated_single_type(50)
    trace = run_algorithm(obedient_actions(profile), scenario)
    assert trace.converged
    assert trace.final_prices[0] == pytest.approx(0.5, abs=1e-6)
    assert np.allclose(trace.final_menu[0], 1.0, atol=1e-5)  # every agent is of type (0, 0)


def test_prices_stay_nonnegative_every_round():
    scenario, profile = _replicated_single_type(20)
    trace = run_algorithm(obedient_actions(profile), scenario)
    assert np.all(trace.round_prices >= 0.0)


def test_zero_step_never_moves_prices():
    scenario, profile = _replicated_single_type(10)
    trace = run_algorithm(obedient_actions(profile), scenario, AlgorithmConfig(gamma0=0.0, max_rounds=500))
    assert not trace.converged
    assert np.all(trace.round_prices == 0.0)


def test_zero_step_converges_when_capacity_slack():
    from dataclasses import replace

    scenario, profile = _replicated_single_type(10)
    slack = replace(scenario, capacities=scenario.capacities * 1e4)
    trace = run_algorithm(obedient_actions(profile), slack, AlgorithmConfig(gamma0=0.0, max_rounds=50))
    assert trace.converged and trace.rounds_used == 1


def test_single_deviator_barely_moves_prices():
    rng = rng_for(17, 0)
    scenario = scale_capacity(obedience_scenario(rng, num_agents=1000), 1000)
    profile = Profile.truthful(scenario.population, scenario.type_space)
    obedient = run_algorithm(obedient_actions(profile), scenario)
    first, last = _first_and_last_types(profile)
    deviant = run_algorithm(profile.with_report(first, last), scenario)
    assert np.max(np.abs(deviant.final_prices - obedient.final_prices)) <= 1e-3


def test_deviation_price_impact_scales_inversely_with_agents():
    # frozen constant for this scenario family: |dp| <= K / I
    from dataclasses import replace

    K = 2.0
    rng = rng_for(17, 1)
    base = obedience_scenario(rng, num_agents=200)
    for num_agents in (200, 400, 800):
        scenario = replace(
            base,
            population=Population(shares=base.population.shares, num_agents=num_agents),
            capacities=base.capacities * num_agents,
        )
        profile = Profile.truthful(scenario.population, scenario.type_space)
        obedient = run_algorithm(obedient_actions(profile), scenario)
        first, last = _first_and_last_types(profile)
        deviant = run_algorithm(profile.with_report(first, last), scenario)
        assert np.max(np.abs(deviant.final_prices - obedient.final_prices)) <= K / num_agents


def test_payments_read_only_trace_outputs():
    scenario, profile = _replicated_single_type(10)
    trace = run_algorithm(obedient_actions(profile), scenario)
    first = superimposed_outcome(trace, scenario)
    second = superimposed_outcome(trace, scenario)
    assert np.array_equal(first.cell_payments, second.cell_payments)


def test_unconverged_trace_rejected_by_overlay():
    scenario, profile = _replicated_single_type(10)
    trace = run_algorithm(obedient_actions(profile), scenario, AlgorithmConfig(gamma0=0.0, max_rounds=5))
    with pytest.raises(ValidationError, match="unconverged"):
        superimposed_outcome(trace, scenario)


def test_overlay_matches_shadow_price_mechanism():
    scenario, profile = _replicated_single_type(40)
    trace = run_algorithm(obedient_actions(profile), scenario)
    overlay = superimposed_outcome(trace, scenario)
    direct = large_scale_vcg(profile, scenario)
    assert np.max(np.abs(overlay.cell_payments - direct.cell_payments)) <= 2e-3


def test_strong_budget_balance_on_obedient_trace():
    from dataclasses import replace

    scenario, profile = _replicated_single_type(40)
    scenario = replace(scenario, beta=1.0)
    trace = run_algorithm(obedient_actions(profile), scenario)
    overlay = superimposed_outcome(trace, scenario)
    assert abs(float(overlay.profile.cells.counts @ overlay.cell_payments)) <= 1e-3


def test_algorithm_has_no_payment_code():
    # superimposability is structural: the loop never touches payments
    for loop in (run_algorithm, _run_lanes):
        source = inspect.getsource(loop)
        assert "payment" not in source and "payoff" not in source


def test_lanes_equal_solo_runs_bit_for_bit():
    # lanes of different head counts stop at different rounds: one agent alone
    # has capacity to spare and stops in round 1, 500 and 1000 agents converge
    # in a few dozen rounds, a deviation at 2000 in about 120, and 4000 agents
    # hit the round cap unconverged
    scenario = scale_capacity(obedience_scenario(rng_for(17, 0), num_agents=1000), 1000)
    ts = scenario.type_space

    def crowd(num_agents):
        return Profile.truthful(Population(shares=scenario.population.shares, num_agents=num_agents), ts)

    profiles = [
        crowd(1000),
        Profile.from_agents([(1, 0)], ts),
        crowd(4000),
        crowd(2000).with_report((0, 0), (1, 0)),
        crowd(500),
    ]
    config = AlgorithmConfig(max_rounds=200)
    solo = [run_algorithm(profile, scenario, config) for profile in profiles]
    assert solo[1].rounds_used == 1 and solo[1].converged
    assert solo[2].rounds_used == 200 and not solo[2].converged
    assert len({trace.rounds_used for trace in solo}) == len(solo)
    for lane, alone in zip(_run_lanes(profiles, scenario, config), solo):
        for name in ("round_prices", "round_demand", "final_prices", "final_menu", "final_excess"):
            assert getattr(lane, name).tobytes() == getattr(alone, name).tobytes(), name
            assert getattr(lane, name).shape == getattr(alone, name).shape, name
        assert (lane.converged, lane.rounds_used) == (alone.converged, alone.rounds_used)
        assert lane.profile is alone.profile


def test_obedience_margin_single_type_is_zero():
    scenario, _ = _replicated_single_type(10)
    obedient, best_dev, margin = obedience_check(scenario, 10, (0, 0))
    assert margin == 0.0 and obedient == best_dev


def test_obedience_check_refuses_any_unconverged_candidate():
    # the obedient run takes 63 rounds, type a impersonating b 61, b impersonating a 64
    scenario = scale_capacity(obedience_scenario(rng_for(17, 1), num_agents=10), 10)
    ts = scenario.type_space
    a, b = ts.unflatten(0), ts.unflatten(1)
    profile = Profile.truthful(scenario.population, ts)
    obeyed, a_as_b, b_as_a = (
        run_algorithm(p, scenario).rounds_used for p in (profile, profile.with_report(a, b), profile.with_report(b, a))
    )
    assert a_as_b < obeyed < b_as_a
    # the own report does not converge, the other does
    with pytest.raises(ValidationError, match="unconverged"):
        obedience_check(scenario, 10, a, AlgorithmConfig(max_rounds=a_as_b))
    # the own report converges, the other does not
    with pytest.raises(ValidationError, match="unconverged"):
        obedience_check(scenario, 10, b, AlgorithmConfig(max_rounds=obeyed))
    obedience_check(scenario, 10, b, AlgorithmConfig(max_rounds=b_as_a))
    single, _ = _replicated_single_type(10)
    with pytest.raises(ValidationError, match="unconverged"):
        obedience_check(single, 10, (0, 0), AlgorithmConfig(gamma0=0.0, max_rounds=5))


def test_obedience_margin_two_type():
    rng = rng_for(17, 2)
    scenario = scale_capacity(obedience_scenario(rng, num_agents=1000), 1000)
    obedient, best_dev, margin = obedience_check(scenario, 1000, scenario.type_space.unflatten(0))
    assert margin >= -1e-3 * abs(obedient)


def test_obedience_margin_does_not_worsen_with_scale():
    # margins converge to their large-population level at rate 1/I; the type
    # whose deviation gains from finite-size price effects approaches the
    # level from below, and scale can only help it
    from dataclasses import replace

    rng = rng_for(17, 3)
    base = obedience_scenario(rng, num_agents=1000)
    config = AlgorithmConfig(tolerance=1e-9)
    margins = {}
    for num_agents in (1000, 4000, 16000):
        scenario = replace(
            base,
            population=Population(shares=base.population.shares, num_agents=num_agents),
            capacities=base.capacities * num_agents,
        )
        for r in range(scenario.type_space.num_types):
            _, _, margins[num_agents, r] = obedience_check(
                scenario, num_agents, scenario.type_space.unflatten(r), config
            )
    for r in range(base.type_space.num_types):
        limit = margins[16000, r]
        assert abs(margins[4000, r] - limit) <= abs(margins[1000, r] - limit) + 1e-6
        if margins[1000, r] <= limit:  # deviation-favored side: scale never hurts
            assert margins[4000, r] >= margins[1000, r] - 1e-6
