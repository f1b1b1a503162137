import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvcg.generate import random_scenario, rng_for
from lsvcg.model import (
    InfluenceParams,
    Population,
    Scenario,
    TypeSpace,
    UtilityParams,
    ValidationError,
    empirical_population,
    load_scenario,
    save_scenario,
    utility_value,
)


def test_utility_value_at_zero_is_zero():
    u = UtilityParams(weights=[[1.0]])
    assert utility_value(u, 0, [0.0]) == 0.0


def test_utility_value_unit_log_terms():
    # each term log(1 + (e - 1)) = 1
    u = UtilityParams(weights=[[2.0, 3.0]])
    x = [math.e - 1.0, math.e - 1.0]
    assert utility_value(u, 0, x) == pytest.approx(5.0, abs=1e-12)


def test_utility_value_direct_evaluation():
    u = UtilityParams(weights=[[1.5]])
    assert utility_value(u, 0, [4.0]) == pytest.approx(1.5 * math.log(5.0), rel=1e-14)


def test_utility_value_rejects_negative_allocation():
    u = UtilityParams(weights=[[1.0]])
    with pytest.raises(ValidationError):
        utility_value(u, 0, [-0.1])


@st.composite
def utility_rows(draw):
    """Weights, types and allocation rows in C, Fortran and strided layouts."""
    num_theta, num_resources = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.05, 5.0, (num_theta, num_resources))
    theta = rng.integers(num_theta, size=(rows, cols))
    x = rng.uniform(0.0, 40.0, (rows, cols, 2 * num_resources))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        x = x[..., ::2]
    else:
        x = np.asarray(x[..., :num_resources], order=layout)
    return UtilityParams(weights=weights), theta, x


@given(case=utility_rows())
@settings(max_examples=200, deadline=None)
def test_utility_value_rows_equal_per_row_dots_bit_for_bit(case):
    u, theta, x = case
    values = utility_value(u, theta, x)
    assert values.shape == theta.shape
    for idx in np.ndindex(theta.shape):
        expected = float(np.dot(u.weights[theta[idx]], np.log1p(x[idx])))
        assert values[idx] == expected == utility_value(u, int(theta[idx]), x[idx])
    # one type broadcast over every row, and rows broadcast over types
    assert np.array_equal(utility_value(u, 0, x), [[np.dot(u.weights[0], np.log1p(r)) for r in row] for row in x])
    types = np.arange(u.weights.shape[0])
    assert np.array_equal(utility_value(u, types, x[0, 0]), [np.dot(w, np.log1p(x[0, 0])) for w in u.weights])


def test_influence_closed_forms():
    f = InfluenceParams(linear=[[1.0]], quadratic=[[0.0]])
    assert f.load(0, 2.0)[0] == pytest.approx(2.0)
    f2 = InfluenceParams(linear=[[1.0]], quadratic=[[0.5]])
    assert f2.load(0, 2.0)[0] == pytest.approx(4.0)
    assert f2.load(0, 0.0)[0] == 0.0
    assert f.slope(0, 7.3)[0] == pytest.approx(1.0)
    f3 = InfluenceParams(linear=[[2.0]], quadratic=[[1.0]])
    assert f3.slope(0, 3.0)[0] == pytest.approx(8.0)


def test_influence_rows_match_scalar_forms():
    rng = rng_for(1, 2)
    f = InfluenceParams(linear=rng.uniform(0.5, 2.0, (3, 4)), quadratic=rng.uniform(0.0, 1.0, (3, 4)))
    x = rng.uniform(0.0, 5.0, (3, 4))
    loads = f.load(np.arange(3), x)
    slopes = f.slope(np.arange(3), x)
    for z in range(3):
        for n in range(4):
            a, b, xz = float(f.linear[z, n]), float(f.quadratic[z, n]), float(x[z, n])
            assert loads[z, n] == f.load(z, xz)[n] == a * xz + b * xz * xz
            assert slopes[z, n] == f.slope(z, xz)[n] == a + 2.0 * b * xz


def test_influence_derivative_matches_finite_differences():
    rng = rng_for(1, 1)
    f = InfluenceParams(linear=rng.uniform(0.5, 2.0, (2, 2)), quadratic=rng.uniform(0.0, 1.0, (2, 2)))
    for _ in range(50):
        x = float(rng.uniform(0.1, 4.0))
        z, n = int(rng.integers(2)), int(rng.integers(2))
        h = 1e-6
        fd = (f.load(z, x + h)[n] - f.load(z, x - h)[n]) / (2 * h)
        assert f.slope(z, x)[n] == pytest.approx(fd, abs=1e-8 * max(1.0, abs(fd)))


@given(
    lam=st.floats(0.01, 0.99),
    x=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2),
    y=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_utility_concavity_and_monotonicity(lam, x, y):
    u = UtilityParams(weights=[[1.3, 0.7]])
    x, y = np.array(x), np.array(y)
    mid = lam * x + (1 - lam) * y
    assert utility_value(u, 0, mid) >= lam * utility_value(u, 0, x) + (1 - lam) * utility_value(u, 0, y) - 1e-12
    bigger = x + 0.5
    assert utility_value(u, 0, bigger) > utility_value(u, 0, x)


@given(
    lam=st.floats(0.01, 0.99),
    x=st.floats(0.0, 10.0),
    y=st.floats(0.0, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_influence_convexity(lam, x, y):
    f = InfluenceParams(linear=[[1.1]], quadratic=[[0.4]])
    mid = lam * x + (1 - lam) * y
    assert f.load(0, mid)[0] <= lam * f.load(0, x)[0] + (1 - lam) * f.load(0, y)[0] + 1e-12


def test_population_rejects_bad_shares():
    with pytest.raises(ValidationError):
        Population(shares=[0.5, 0.4], num_agents=10)  # does not sum to 1
    with pytest.raises(ValidationError):
        Population(shares=[1.0, 0.0], num_agents=10)  # zero share
    with pytest.raises(ValidationError):
        Population(shares=[0.55, 0.45], num_agents=10)  # 5.5 agents of a type


def test_empirical_population_counts():
    ts = TypeSpace(num_theta=2, num_zeta=1, num_resources=1)
    pop = empirical_population([(0, 0), (0, 0), (1, 0), (1, 0)], ts)
    assert pop.num_agents == 4
    assert np.allclose(pop.shares, [0.5, 0.5])

    one = empirical_population([(0, 0)], TypeSpace(1, 1, 1))
    assert one.num_agents == 1 and one.shares[0] == 1.0

    big = empirical_population([(0, 0)] * 60 + [(1, 0)] * 40, ts)
    assert np.allclose(big.shares, [0.6, 0.4])
    assert abs(big.shares.sum() - 1.0) <= 1e-12


def test_empirical_population_rejects_empty():
    with pytest.raises(ValidationError):
        empirical_population([], TypeSpace(1, 1, 1))


def test_minimal_document_round_trip(bench1):
    loaded = load_scenario(save_scenario(bench1))
    assert loaded.type_space == bench1.type_space
    assert np.array_equal(loaded.utility.weights, bench1.utility.weights)
    assert np.array_equal(loaded.capacities, bench1.capacities)
    assert loaded.beta == bench1.beta and loaded.z_max == bench1.z_max


def test_document_share_sum_validation(bench1):
    import json

    doc = json.loads(save_scenario(bench1))
    doc["population"]["shares"] = [0.9]
    with pytest.raises(ValidationError):
        load_scenario(json.dumps(doc))


def test_document_missing_field_names_it(bench1):
    import json

    doc = json.loads(save_scenario(bench1))
    del doc["capacities"]
    with pytest.raises(ValidationError, match="capacities"):
        load_scenario(json.dumps(doc))


def test_document_rejects_unknown_fields_by_name(bench1):
    import json

    doc = json.loads(save_scenario(bench1))
    doc["kernel"] = {}
    doc["horizon"] = 3
    with pytest.raises(ValidationError, match="unknown fields 'horizon', 'kernel'"):
        load_scenario(json.dumps(doc))


def test_document_rejects_undersized_cap(bench1):
    import json
    from dataclasses import replace

    # in-memory scenarios may have slack capacity, but documents must not
    slack = replace(bench1, z_max=0.5)
    doc = json.loads(save_scenario(slack))
    with pytest.raises(ValidationError, match="z_max"):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize("beta", [-0.1, 1.5, math.nan])
def test_scenario_is_the_one_beta_check(bench1, beta):
    # every charge reads scenario.beta, so a rebate share is set, and
    # checked, only by building a scenario
    from dataclasses import replace

    with pytest.raises(ValidationError, match=r"beta must lie in \[0, 1\]"):
        replace(bench1, beta=beta)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_random_scenario_round_trip_is_exact(seed):
    rng = rng_for(seed)
    scenario = random_scenario(
        rng,
        num_theta=int(rng.integers(1, 3)),
        num_zeta=int(rng.integers(1, 3)),
        num_resources=int(rng.integers(1, 3)),
        num_agents=8,
        quadratic=bool(rng.integers(2)),
    )
    loaded = load_scenario(save_scenario(scenario))
    assert np.array_equal(loaded.utility.weights, scenario.utility.weights)
    assert np.array_equal(loaded.influence.linear, scenario.influence.linear)
    assert np.array_equal(loaded.influence.quadratic, scenario.influence.quadratic)
    assert np.array_equal(loaded.population.shares, scenario.population.shares)
    assert loaded.population.num_agents == scenario.population.num_agents
    assert np.array_equal(loaded.capacities, scenario.capacities)
    assert loaded.beta == scenario.beta and loaded.z_max == scenario.z_max


def test_infinite_population_serializes_as_string():
    rng = rng_for(5)
    scenario = random_scenario(rng, num_agents=None)
    blob = save_scenario(scenario)
    assert b'"infinite"' in blob
    assert not load_scenario(blob).population.is_finite


def test_model_arrays_are_immutable(bench1):
    with pytest.raises(ValueError):
        bench1.utility.weights[0, 0] = 2.0
    with pytest.raises(ValueError):
        bench1.population.shares[0] = 0.5


def test_results_leave_the_callers_arrays_writable(bench1):
    from lsvcg.mechanisms import shadow_price_outcome
    from lsvcg.model import Profile
    from lsvcg.solver import solve_weighted

    weights, capacities = np.array([1.0]), np.array(bench1.capacities)
    solution = solve_weighted(bench1, weights, capacities)
    prices, slack = np.array(solution.p), np.array(solution.constraint_slack)
    menu = np.array(solution.z)
    probe = Profile(bench1.type_space, np.array([[1]]))
    outcome = shadow_price_outcome(probe, bench1, menu, prices, slack, mean_field=True)
    for arr in (weights, capacities, prices, slack, menu):
        arr[0] = arr[0]  # raises if a result froze the caller's array
    with pytest.raises(ValueError):
        solution.weights[0] = 0.0
    with pytest.raises(ValueError):
        outcome.prices[0] = 0.0
