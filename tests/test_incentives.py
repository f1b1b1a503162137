import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lsvcg.generate import incentive_benchmark, random_scenario, rng_for
from lsvcg.incentives import (
    decays_quadratically,
    incentive_gap,
    loglog_slope,
    misreport_gain_bound,
    verify_incentive_bound,
)
from lsvcg.mechanisms import large_scale_vcg, shadow_price_outcome
from lsvcg.model import InfluenceParams, Population, Profile, Scenario, TypeSpace, UtilityParams, ValidationError
from lsvcg.solver import clear_markets


def test_bound_formula_value():
    scenario = Scenario(
        type_space=TypeSpace(2, 1, 1),
        utility=UtilityParams(weights=[[0.4], [0.6]]),  # L sums to 1
        influence=InfluenceParams(linear=[[1.0]], quadratic=[[0.0]]),
        population=Population(shares=[0.5, 0.5], num_agents=2),
        capacities=[1.0],
        beta=0.0,
        z_max=60.0,
    )
    bound = misreport_gain_bound(scenario, scenario.population, 100)
    # 2/I^2 * |Z| * sum L * sum C^2 / (L_f^2 min rho^4) = 2e-4 / 0.0625
    assert bound == pytest.approx(3.2e-3, rel=1e-12)


def test_bound_inverse_square_scaling(bench_incentive):
    rho = bench_incentive.population
    b1 = misreport_gain_bound(bench_incentive, rho, 100)
    b2 = misreport_gain_bound(bench_incentive, rho, 200)
    assert b2 == pytest.approx(b1 / 4.0, rel=1e-12)


def test_bound_share_fourth_power_scaling():
    def with_min_share(min_share):
        return Scenario(
            type_space=TypeSpace(2, 1, 1),
            utility=UtilityParams(weights=[[1.0], [1.0]]),
            influence=InfluenceParams(linear=[[1.0]], quadratic=[[0.0]]),
            population=Population(shares=[min_share, 1 - min_share], num_agents=int(round(1 / min_share))),
            capacities=[1.0],
            beta=0.0,
            z_max=60.0,
        )

    b_half = misreport_gain_bound(with_min_share(0.5), with_min_share(0.5).population, 10)
    b_quarter = misreport_gain_bound(with_min_share(0.25), with_min_share(0.25).population, 10)
    assert b_quarter == pytest.approx(16.0 * b_half, rel=1e-12)


def test_mean_field_gaps_vanish(bench_incentive):
    report = incentive_gap(bench_incentive, bench_incentive.population, None)
    assert report.max_gap <= 1e-9
    assert report.epsilon_bound == 0.0


def test_frozen_gaps_are_mechanism_payoff_differences(bench_incentive):
    # the frozen-price measurement must measure the mechanism itself: each
    # gap is the difference of two mean-field probe payoffs of large_scale_vcg
    scenario = bench_incentive
    ts = scenario.type_space
    report = incentive_gap(scenario, scenario.population, None)

    def probe_payoff(truth: int, announced: int) -> float:
        probe = Profile.from_agents([ts.unflatten(truth)], ts, [ts.unflatten(announced)])
        return float(large_scale_vcg(probe, scenario, report_distribution=scenario.population).cell_payoffs[0])

    for r in range(ts.num_types):
        gains = {ts.unflatten(alt): probe_payoff(r, alt) - probe_payoff(r, r) for alt in range(ts.num_types) if alt != r}
        best = report.best_misreport[ts.unflatten(r)]
        assert gains[best] == max(gains.values())
        assert report.per_type_gap[ts.unflatten(r)] == max(0.0, gains[best])


def test_single_type_space_has_no_deviation(bench1):
    report = incentive_gap(bench1, bench1.population, 4)
    assert report.max_gap == 0.0
    assert report.best_misreport[(0, 0)] is None


def test_gaps_nonnegative_and_bounded(bench_incentive):
    sweep = verify_incentive_bound(bench_incentive, bench_incentive.population, [10, 40, 160])
    for _, gap, bound, holds in sweep.rows:
        assert gap >= 0.0
        assert holds and gap <= bound


def test_gap_decays_monotonically(bench_incentive):
    sweep = verify_incentive_bound(bench_incentive, bench_incentive.population, [10, 20, 40, 80])
    gaps = [row[1] for row in sweep.rows]
    for small, big in zip(gaps, gaps[1:]):
        assert big <= small * 1.05


def test_measured_decay_is_first_order(bench_incentive):
    # the profitable deviation understates influence; its windfall scales
    # with the 1/I price shift, so the fitted rate sits near -1
    sweep = verify_incentive_bound(bench_incentive, bench_incentive.population, [10, 40, 160, 640])
    assert sweep.slope == pytest.approx(-1.0, abs=0.1)


SIZES = [10, 20, 40, 80, 160, 320, 640, 1280]


@pytest.mark.parametrize(
    ("sizes", "gaps", "expected"),
    [
        (SIZES, [0.0] * len(SIZES), True),  # exact incentive compatibility
        (SIZES, [3.0 / n**2 for n in SIZES], True),
        (SIZES, [3.0 / n**3 for n in SIZES], True),
        (SIZES, [0.06 / n for n in SIZES], False),  # first order, as measured per head
        (SIZES, [0.06 / n**1.4 for n in SIZES], False),
        (SIZES, [3.0 / n**2 if n < 640 else 0.0 for n in SIZES], True),  # collapses to zero
        (SIZES, [0.0] * (len(SIZES) - 1) + [1e-12], False),  # a gain appears from zero
        # I^2 * gap never exceeds its first value, but the dip at I = 20 pulls
        # the fitted slope of the three positive gains up to -0.72
        ([10, 20, 80], [1.0, 1e-6, 1.0 / 64], False),
        ([10, 20, 80], [1.0, 0.25, 1.0 / 64], True),
    ],
)
def test_decays_quadratically_on_synthetic_gains(sizes, gaps, expected):
    assert decays_quadratically(sizes, gaps) is expected


def test_bound_column_matches_formula(bench_incentive):
    sweep = verify_incentive_bound(bench_incentive, bench_incentive.population, [10, 20])
    for num_agents, _, bound, _ in sweep.rows:
        assert bound == misreport_gain_bound(bench_incentive, bench_incentive.population, num_agents)


def test_non_integral_population_rejected(bench_incentive):
    with pytest.raises(ValidationError, match="integral"):
        incentive_gap(bench_incentive, bench_incentive.population, 7)


def test_empty_sweep_has_no_rows(bench_incentive):
    sweep = verify_incentive_bound(bench_incentive, bench_incentive.population, [])
    assert sweep.rows == [] and sweep.reports == [] and np.isnan(sweep.slope)


def test_non_integral_head_count_is_named(bench_incentive):
    with pytest.raises(ValidationError, match="integral.*got 15"):
        verify_incentive_bound(bench_incentive, bench_incentive.population, [10, 15, 20])


@pytest.mark.parametrize("num_agents", [0, -10, 10.5, float("nan"), float("inf")])
def test_bad_head_count_rejected_before_any_arithmetic(bench_incentive, num_agents):
    # 10.5 was once truncated to 10 and measured there
    rho = bench_incentive.population
    message = f"head counts must be positive integers, got {num_agents}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            incentive_gap(bench_incentive, rho, num_agents)
        with pytest.raises(ValidationError, match=message):
            verify_incentive_bound(bench_incentive, rho, [10, num_agents])


def test_deviation_bookkeeping_restores_counts_and_prices(bench_incentive):
    # moving one agent out and back must leave shares and prices bit-identical
    from lsvcg.solver import solve_weighted

    counts = bench_incentive.population.counts().astype(float)
    num_agents = bench_incentive.population.num_agents
    moved = counts.copy()
    moved[0] -= 1
    moved[1] += 1
    restored = moved.copy()
    restored[0] += 1
    restored[1] -= 1
    assert np.array_equal(restored / num_agents, counts / num_agents)
    before = solve_weighted(bench_incentive, counts / num_agents)
    after = solve_weighted(bench_incentive, restored / num_agents)
    assert np.array_equal(before.p, after.p) and np.array_equal(before.z, after.z)


def test_gaps_hold_against_sampled_opponent_profiles(bench_incentive):
    rng = rng_for(99, 4)
    num_agents = 40
    bound = misreport_gain_bound(bench_incentive, bench_incentive.population, num_agents)
    for _ in range(20):
        opponents = rng.multinomial(num_agents - 1, bench_incentive.population.shares)
        report = incentive_gap(
            bench_incentive, bench_incentive.population, num_agents, opponent_counts=opponents
        )
        assert report.max_gap <= bound * (1 + 1e-6)


def test_opponents_need_a_finite_population(bench_incentive):
    opponents = bench_incentive.population.counts()
    with pytest.raises(ValidationError, match="opponent_counts"):
        incentive_gap(bench_incentive, bench_incentive.population, None, opponent_counts=opponents)


def test_truthful_market_is_solved_once(bench_incentive, monkeypatch):
    # against truthful opponents only the R(R-1) misreports move the market;
    # against fixed opponents the market depends on the report alone, so
    # there is one per report.  All of a call's markets are cleared in one batch.
    import lsvcg.incentives

    clear_markets = lsvcg.incentives.clear_markets
    batches = []

    def counted(scenario, weights, capacities):
        batches.append(len(weights))
        return clear_markets(scenario, weights, capacities)

    monkeypatch.setattr(lsvcg.incentives, "clear_markets", counted)
    rho = bench_incentive.population
    num_types = bench_incentive.type_space.num_types
    opponents = rho.counts().copy()
    opponents[0] -= 1
    for num_agents, opponent_counts, expected in [
        (None, None, 1),
        (10, None, 1 + num_types * (num_types - 1)),
        (10, opponents, num_types),
    ]:
        batches.clear()
        incentive_gap(bench_incentive, rho, num_agents, opponent_counts=opponent_counts)
        assert batches == [expected]


def test_generic_types_lose_incentive_entirely(rng):
    # with distinct utility types and a single influence class, every
    # misreport is strictly worse in the large-population limit, so measured
    # gaps hit exactly zero once the population is large
    scenario = random_scenario(rng, num_theta=2, num_zeta=1, num_resources=1, num_agents=8, beta=0.0)
    report = incentive_gap(scenario, scenario.population, 4096)
    assert report.max_gap == 0.0


def test_loglog_slope_helper():
    x = np.array([10, 20, 40, 80])
    assert loglog_slope(x, 5.0 / x) == pytest.approx(-1.0, abs=1e-12)
    assert loglog_slope(x, 5.0 / x**2) == pytest.approx(-2.0, abs=1e-12)
    assert np.isnan(loglog_slope(x, np.zeros(4)))
    # a repeated size is one point, not a line
    assert np.isnan(loglog_slope([10, 10], [0.2, 0.1]))
    assert np.isnan(loglog_slope([10, 10, 20], [0.2, 0.1, 0.0]))
    assert loglog_slope([10, 10, 20], [0.2, 0.2, 0.1]) == pytest.approx(-1.0, abs=1e-12)


def _reference_report(scenario, rho, num_agents, opponent_counts=None):
    """The per-pair path: every (truth, report) market cleared on its own
    reported shares and the deviator charged through ``shadow_price_outcome``
    as a mean-field probe; ties go to the lowest report index."""
    ts = scenario.type_space
    num_types = ts.num_types
    eye = np.eye(num_types, dtype=int)

    def shares(truth, report):
        if num_agents is None:
            return rho.shares
        if opponent_counts is not None:
            return (opponent_counts + eye[report]) / num_agents
        counts = np.round(rho.shares * num_agents).astype(int)
        return (counts - eye[truth] + eye[report]) / num_agents

    def payoff(truth, report):
        prices, allocations, _ = clear_markets(scenario, shares(truth, report)[None], scenario.capacities)
        probe = np.zeros((num_types, num_types), dtype=int)
        probe[truth, report] = 1
        outcome = shadow_price_outcome(
            Profile(ts, probe), scenario, allocations[0], prices[0], np.zeros(ts.num_resources), mean_field=True
        )
        return float(outcome.cell_payoffs[0])

    per_type_gap, best_misreport = {}, {}
    for truth in range(num_types):
        truthful = payoff(truth, truth)
        best_gain, best = -math.inf, None
        for report in range(num_types):
            if report != truth:
                gain = payoff(truth, report) - truthful
                if gain > best_gain:
                    best_gain, best = gain, ts.unflatten(report)
        per_type_gap[ts.unflatten(truth)] = 0.0 if best is None else max(0.0, best_gain)
        best_misreport[ts.unflatten(truth)] = best
    bound = 0.0 if num_agents is None else misreport_gain_bound(scenario, rho, num_agents)
    return per_type_gap, best_misreport, bound


def _assert_matches_reference(report, scenario, rho, num_agents, opponent_counts=None):
    per_type_gap, best_misreport, bound = _reference_report(scenario, rho, num_agents, opponent_counts)
    assert report.num_agents == num_agents
    assert report.per_type_gap == per_type_gap
    assert report.best_misreport == best_misreport
    assert report.epsilon_bound == bound
    assert report.max_gap == max(per_type_gap.values())


def _eight_resource_scenario():
    return random_scenario(rng_for(0, 5), num_theta=4, num_zeta=2, num_resources=8, num_agents=20, quadratic=True)


def _eight_resource_twin():
    """The eight-resource scenario with type (1, 1) a 0.8-scaled twin of type
    (0, 0), as in ``incentive_benchmark``: impersonating it pays a positive gain,
    so the gaps are not all floored at zero."""
    scenario = _eight_resource_scenario()
    weights, linear, quadratic = (
        x.copy() for x in (scenario.utility.weights, scenario.influence.linear, scenario.influence.quadratic)
    )
    for table in (weights, linear, quadratic):
        table[1] = 0.8 * table[0]
    return replace(
        scenario, utility=UtilityParams(weights), influence=InfluenceParams(linear=linear, quadratic=quadratic)
    )


@pytest.mark.parametrize(
    ("make", "sizes"),
    [
        (incentive_benchmark, [10, 40, 160, 640]),
        (_eight_resource_scenario, [20, 40, 160, 640]),
        (_eight_resource_twin, [20, 40, 160, 640]),
    ],
    ids=["incentive-benchmark", "eight-resource-quadratic", "eight-resource-twin"],
)
def test_sweep_matches_the_per_pair_reference_bit_for_bit(make, sizes):
    scenario = make()
    rho = scenario.population
    sweep = verify_incentive_bound(scenario, rho, sizes)
    for num_agents, report in zip(sizes, sweep.reports):
        _assert_matches_reference(report, scenario, rho, num_agents)
    frozen = incentive_gap(scenario, rho, None)
    _assert_matches_reference(frozen, scenario, rho, None)


def test_fixed_opponents_match_the_per_pair_reference_bit_for_bit():
    scenario = _eight_resource_scenario()
    rho = scenario.population
    rng = rng_for(7, 2)
    for num_agents in (20, 80):
        opponents = rng.multinomial(num_agents - 1, rho.shares)
        report = incentive_gap(scenario, rho, num_agents, opponent_counts=opponents)
        _assert_matches_reference(report, scenario, rho, num_agents, opponents)


def test_grouping_head_counts_does_not_change_reports(monkeypatch):
    # 16 types x 8 resources: a head count needs 241 markets and a call takes
    # 512, so a three-count sweep is cleared in two calls
    import lsvcg.incentives

    scenario = random_scenario(rng_for(7, 3), num_theta=8, num_zeta=2, num_resources=8, num_agents=32, quadratic=True)
    rho = scenario.population
    sizes = [32, 64, 128]
    batches = []

    def counted(scenario, weights, capacities):
        batches.append(len(weights))
        return clear_markets(scenario, weights, capacities)

    monkeypatch.setattr(lsvcg.incentives, "clear_markets", counted)
    sweep = verify_incentive_bound(scenario, rho, sizes)
    assert batches == [2 * 241, 241]
    assert sweep.reports == [incentive_gap(scenario, rho, n) for n in sizes]
