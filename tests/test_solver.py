import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import lsvcg.solver
from lsvcg.generate import random_scenario, rng_for, single_type_benchmark
from lsvcg.model import (
    InfluenceParams,
    Population,
    UtilityParams,
    ValidationError,
    load_scenario,
    scenario_to_dict,
)
from lsvcg.solver import (
    PRICE_TOLERANCE,
    DegeneratePointError,
    SolverError,
    best_response,
    clear_markets,
    kkt_residual,
    price_sensitivity,
    sensitivity_norm_bound_check,
    solve_agent_list,
    solve_population,
    solve_weighted,
    aggregate_utility,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- best response -------------------------------------------------------------


def test_best_response_interior_closed_form(bench1):
    z = best_response(0, 0, [0.5], bench1)
    assert z[0] == pytest.approx(1.0, abs=1e-12)


def test_best_response_corner_at_high_price(bench1):
    assert best_response(0, 0, [1.0], bench1)[0] == 0.0
    assert best_response(0, 0, [3.7], bench1)[0] == 0.0


def test_best_response_caps_at_zero_price(bench1):
    assert best_response(0, 0, [0.0], bench1)[0] == bench1.z_max


def test_best_response_matches_grid_search():
    rng = rng_for(2, 0)
    for _ in range(20):
        scenario = random_scenario(rng, num_theta=2, num_zeta=2, num_resources=2, num_agents=8, quadratic=True)
        p = rng.uniform(0.05, 1.5, size=2)
        theta, zeta = int(rng.integers(2)), int(rng.integers(2))
        z = best_response(theta, zeta, p, scenario)
        w = scenario.utility.weights[theta]
        a = scenario.influence.linear[zeta]
        b = scenario.influence.quadratic[zeta]
        for n in range(2):
            grid = np.linspace(0.0, min(scenario.z_max, 50.0), 100_000)
            values = w[n] * np.log1p(grid) - p[n] * (a[n] * grid + b[n] * grid**2)
            assert z[n] == pytest.approx(grid[np.argmax(values)], abs=1e-4 * max(1.0, z[n]))


# -- market clearing -----------------------------------------------------------


def test_single_type_hand_solution(bench1):
    sol = solve_population(bench1)
    assert sol.z[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert sol.p[0] == pytest.approx(0.5, abs=1e-10)
    assert sol.kkt_residual <= 1e-8


def test_zero_price_when_capacity_slack(bench1):
    from dataclasses import replace

    big = replace(bench1, capacities=np.array([1e4]))
    sol = solve_population(big)
    assert sol.p[0] == 0.0
    assert sol.z[0, 0] == big.z_max  # cap-free optimum under the allocation cap


def test_identical_types_get_identical_rows():
    from lsvcg.model import InfluenceParams, Scenario, TypeSpace, UtilityParams

    scenario = Scenario(
        type_space=TypeSpace(num_theta=2, num_zeta=1, num_resources=1),
        utility=UtilityParams(weights=[[1.0], [1.0]]),
        influence=InfluenceParams(linear=[[1.0]], quadratic=[[0.0]]),
        population=Population(shares=[0.5, 0.5], num_agents=2),
        capacities=[1.0],
        beta=0.0,
        z_max=50.0,
    )
    sol = solve_population(scenario)
    assert np.array_equal(sol.z[0], sol.z[1])


def test_finite_solver_single_agent(bench1):
    sol, pop = solve_agent_list([(0, 0)], bench1)
    assert pop.num_agents == 1
    assert sol.z[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert sol.p[0] == pytest.approx(0.5, abs=1e-10)


def test_finite_solver_symmetric_split(bench1):
    from dataclasses import replace

    two = replace(bench1, capacities=np.array([2.0]))
    sol, pop = solve_agent_list([(0, 0), (0, 0)], two)
    assert pop.num_agents == 2
    assert sol.z[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_finite_solver_beats_random_feasible_points(rng):
    scenario = random_scenario(rng, num_theta=2, num_zeta=2, num_resources=2, num_agents=8, quadratic=True)
    assignments = [scenario.type_space.unflatten(r) for r in range(4)] * 2
    sol, pop = solve_agent_list(assignments, scenario)
    best = aggregate_utility(scenario, pop.shares, sol.z)
    a = scenario.type_linear()
    b = scenario.type_quadratic()
    caps = scenario.capacities / pop.num_agents
    found_better = False
    for _ in range(10_000):
        z = rng.uniform(0.0, 3.0, size=sol.z.shape)
        load = pop.shares @ (a * z + b * z * z)
        if np.any(load > caps):
            continue
        if aggregate_utility(scenario, pop.shares, z) > best + 1e-9:
            found_better = True
    assert not found_better


def test_solver_is_deterministic(rng):
    scenario = random_scenario(rng, num_theta=3, num_zeta=1, num_resources=2, num_agents=9)
    a = solve_population(scenario)
    b = solve_population(scenario)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.p, b.p)
    assert a.kkt_residual == b.kkt_residual


def test_type_permutation_permutes_rows(rng):
    from lsvcg.model import InfluenceParams, Scenario, TypeSpace, UtilityParams

    scenario = random_scenario(rng, num_theta=3, num_zeta=1, num_resources=2, num_agents=9)
    perm = [2, 0, 1]
    permuted = Scenario(
        type_space=scenario.type_space,
        utility=UtilityParams(weights=scenario.utility.weights[perm]),
        influence=scenario.influence,
        population=Population(
            shares=scenario.population.shares[perm], num_agents=scenario.population.num_agents
        ),
        capacities=scenario.capacities,
        beta=scenario.beta,
        z_max=scenario.z_max,
    )
    sol = solve_population(scenario)
    sol_perm = solve_population(permuted)
    assert np.allclose(sol_perm.z, sol.z[perm], atol=1e-12)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_aggregate_demand_monotone_in_price(seed):
    rng = rng_for(seed, 3)
    scenario = random_scenario(
        rng, num_theta=2, num_zeta=2, num_resources=1, num_agents=8, quadratic=bool(rng.integers(2))
    )
    a = scenario.type_linear()
    b = scenario.type_quadratic()
    shares = scenario.population.shares

    def demand(price):
        z = np.array([best_response(*scenario.type_space.unflatten(r), [price], scenario) for r in range(4)])
        return float(shares @ (a * z + b * z * z).ravel())

    prices = np.sort(rng.uniform(0.0, 2.0, size=12))
    demands = [demand(p) for p in prices]
    assert all(d1 >= d2 - 1e-9 for d1, d2 in zip(demands, demands[1:]))


def test_nonconvergence_raises_with_residual_report(bench_gap, monkeypatch):
    # clearing price 0.65 is not reachable in three halvings of [0, 1.6]
    monkeypatch.setattr(lsvcg.solver, "MAX_BISECTION_STEPS", 3)
    with pytest.raises(SolverError, match="demand - capacity") as exc:
        solve_population(bench_gap)
    assert "bracket" in str(exc.value) and "3 bisection steps" in str(exc.value)
    # in a batch, the error names the first market that fails, and its resource
    free = np.array([1e-12, 1e-12])  # demand at z_max fits: clears at zero, in no steps
    with pytest.raises(SolverError, match="market 1, resource 0 failed") as exc:
        clear_markets(bench_gap, np.array([free, bench_gap.population.shares]), bench_gap.capacities)
    assert "at bracket [0.6000000000000001, 0.8] after 3 bisection steps" in str(exc.value)


def test_batches_of_markets_change_nothing(bench_gap, rng, monkeypatch):
    scenario = random_scenario(rng, num_theta=2, num_zeta=2, num_resources=2, num_agents=None, quadratic=True)
    weights = rng.dirichlet(np.ones(4), size=7)
    whole = clear_markets(scenario, weights, scenario.capacities)
    monkeypatch.setattr(lsvcg.solver, "_BATCH_ELEMENTS", 2 * 4 * 2)  # two markets a batch
    batched = clear_markets(scenario, weights, scenario.capacities)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, batched))
    # a failure in a later batch is numbered among all the markets
    monkeypatch.setattr(lsvcg.solver, "_BATCH_ELEMENTS", 2 * 2 * 1)
    monkeypatch.setattr(lsvcg.solver, "MAX_BISECTION_STEPS", 3)
    free = np.array([1e-12, 1e-12])
    with pytest.raises(SolverError, match="market 3, resource 0 failed"):
        clear_markets(bench_gap, np.array([free, free, free, bench_gap.population.shares]), bench_gap.capacities)


# -- batched clearing against the scalar bisection ------------------------------


def _scalar_response_column(w, a, b, price, z_max):
    """Closed-form best responses on one resource at one price: with
    ``_scalar_price``, the per-resource path ``clear_markets`` replaced."""
    if price <= 0.0:
        return np.full(w.shape, z_max)
    z = np.zeros(w.shape)
    interior = w > price * a
    if np.any(interior):
        wi, ai, bi = w[interior], a[interior], b[interior]
        zi = np.empty(wi.shape)
        lin = bi == 0.0
        if np.any(lin):
            zi[lin] = wi[lin] / (price * ai[lin]) - 1.0
        quad = ~lin
        if np.any(quad):
            A = 2.0 * price * bi[quad]
            B = price * (ai[quad] + 2.0 * bi[quad])
            Cc = price * ai[quad] - wi[quad]
            zi[quad] = (-B + np.sqrt(B * B - 4.0 * A * Cc)) / (2.0 * A)
        z[interior] = zi
    return np.clip(z, 0.0, z_max)


def _scalar_price(demand, capacity, hi):
    """Scalar bisection: zero if demand at price zero fits, else the feasible end of [0, hi]."""
    if demand(0.0) <= capacity:
        return 0.0, 0
    lo, steps = 0.0, 0
    for _ in range(lsvcg.solver.MAX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        steps += 1
        if demand(mid) > capacity:
            lo = mid
        else:
            hi = mid
    assert abs(demand(hi) - capacity) <= PRICE_TOLERANCE * max(capacity, 1.0)
    return hi, steps


def _scalar_clearing(scenario, weights, capacities):
    """Prices, allocations and steps of one market, cleared resource by resource."""
    w = scenario.type_weights()
    a = scenario.type_linear()
    b = scenario.type_quadratic()
    p = np.zeros(scenario.type_space.num_resources)
    steps = 0
    for n in range(p.size):
        wn, an, bn = w[:, n], a[:, n], b[:, n]

        def demand(price):
            z = _scalar_response_column(wn, an, bn, price, scenario.z_max)
            return float(weights @ (an * z + bn * z * z))

        p[n], s = _scalar_price(demand, capacities[n], float(np.max(wn / an)))
        steps += s
    z = np.column_stack(
        [_scalar_response_column(w[:, n], a[:, n], b[:, n], p[n], scenario.z_max) for n in range(p.size)]
    )
    return p, z, steps


VARIANTS = ("plain", "free", "at_z_max", "tiny_share", "zero_weight", "strided")


@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(("linear", "quadratic", "mixed")),
    variant=st.sampled_from(VARIANTS),
)
@settings(max_examples=120, deadline=None)
def test_clear_markets_matches_the_scalar_bisection_bit_for_bit(seed, kind, variant):
    rng = rng_for(seed, 9)
    scenario = random_scenario(
        rng,
        num_theta=int(rng.integers(1, 4)),
        num_zeta=int(rng.integers(1, 4)),
        num_resources=int(rng.integers(1, 4)),
        num_agents=None,
        quadratic=kind != "linear",
    )
    influence = scenario.influence
    if kind == "mixed":
        quadratic = np.where(rng.random(influence.quadratic.shape) < 0.5, 0.0, influence.quadratic)
        scenario = replace(scenario, influence=InfluenceParams(influence.linear, quadratic))
    num_types, num_resources = scenario.type_space.num_types, scenario.type_space.num_resources
    weights = rng.dirichlet(np.ones(num_types), size=int(rng.integers(1, 6)))
    weights[0] = scenario.population.shares  # the market the capacities were drawn for
    caps = scenario.capacities.copy()
    if variant == "free":
        at_z_max = weights @ scenario.influence.load(scenario.type_zeta(), scenario.z_max)
        n = int(rng.integers(num_resources))
        caps[n] = at_z_max[:, n].max() * rng.uniform(1.0, 2.0)
    elif variant == "at_z_max":
        _, z, _ = _scalar_clearing(scenario, weights[0], caps)
        scenario = replace(scenario, z_max=float(np.quantile(z, rng.uniform(0.2, 0.8))))
    elif variant == "tiny_share":
        weights[:, int(rng.integers(num_types))] = 10.0 ** -rng.uniform(8, 15)
    elif variant == "zero_weight" and num_types > 1:
        weights[:, int(rng.integers(num_types))] = 0.0
    elif variant == "strided":
        scenario = replace(
            scenario,
            utility=UtilityParams(np.asfortranarray(scenario.utility.weights)),
            influence=InfluenceParams(
                np.asfortranarray(scenario.influence.linear), np.asfortranarray(scenario.influence.quadratic)
            ),
        )
        weights = np.asfortranarray(weights) if rng.random() < 0.5 else np.repeat(weights, 2, axis=1)[:, ::2]
        caps = np.repeat(caps, 2)[::2]

    prices, allocations, steps = clear_markets(scenario, weights, caps)
    assert prices.shape == (len(weights), num_resources)
    assert allocations.shape == (len(weights), num_types, num_resources)
    for k, market in enumerate(np.ascontiguousarray(weights)):
        p, z, s = _scalar_clearing(scenario, market, np.ascontiguousarray(caps))
        assert prices[k].tobytes() == p.tobytes()
        assert allocations[k].tobytes() == z.tobytes()
        assert steps[k] == s
    if variant == "free":
        assert np.all(prices[:, n] == 0.0)


def test_solve_weighted_is_the_single_market_case(rng):
    scenario = random_scenario(rng, num_theta=3, num_zeta=2, num_resources=2, num_agents=None, quadratic=True)
    solution = solve_weighted(scenario, scenario.population.shares)
    prices, allocations, steps = clear_markets(scenario, scenario.population.shares[None, :], scenario.capacities)
    assert solution.p.tobytes() == prices[0].tobytes() and solution.z.tobytes() == allocations[0].tobytes()
    assert solution.iterations == steps[0] > 0
    assert solution.z.flags.c_contiguous


@given(
    seed=st.integers(0, 2**31 - 1),
    capacity_scale=st.floats(-8.0, 6.0),
    z_max_scale=st.floats(-3.0, 1.0),
    tiny_share=st.floats(0.0, 15.0),
    quadratic=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_degenerate_documents_solve_or_raise_a_typed_error(seed, capacity_scale, z_max_scale, tiny_share, quadratic):
    # capacities x1e-8 to x1e6, z_max x1e-3 to x10, one share down to 1e-15
    rng = rng_for(seed, 10)
    scenario = random_scenario(
        rng,
        num_theta=int(rng.integers(1, 4)),
        num_zeta=int(rng.integers(1, 3)),
        num_resources=int(rng.integers(1, 4)),
        num_agents=None,
        quadratic=quadratic,
    )
    shares = scenario.population.shares.copy()
    shares[rng.integers(shares.size)] = 10.0**-tiny_share
    doc = scenario_to_dict(scenario)
    doc["population"]["shares"] = (shares / shares.sum()).tolist()
    doc["capacities"] = (scenario.capacities * 10.0**capacity_scale).tolist()
    doc["z_max"] = scenario.z_max * 10.0**z_max_scale
    try:
        loaded = load_scenario(json.dumps(doc))
    except ValidationError:
        return
    solution = solve_population(loaded)
    event("loaded")
    assert np.all(np.isfinite(solution.p)) and np.all(np.isfinite(solution.z))
    assert solution.kkt_residual <= 1e-9


# -- KKT residual --------------------------------------------------------------


def test_kkt_residual_zero_at_hand_solution(bench1):
    sol = solve_population(bench1)
    assert kkt_residual(sol, bench1) <= 1e-12


def test_kkt_residual_detects_perturbation(bench1):
    from dataclasses import replace as dc_replace

    sol = solve_population(bench1)
    z_perturbed = sol.z + 0.1
    bad = dc_replace(sol, z=z_perturbed)
    assert kkt_residual(bad, bench1) > 1e-3


def test_solver_residual_small_on_random_instances(rng):
    for _ in range(10):
        scenario = random_scenario(
            rng,
            num_theta=int(rng.integers(1, 3)),
            num_zeta=int(rng.integers(1, 3)),
            num_resources=int(rng.integers(1, 3)),
            num_agents=8,
            quadratic=bool(rng.integers(2)),
        )
        assert solve_population(scenario).kkt_residual <= 1e-8


# -- price sensitivity ---------------------------------------------------------


def test_sensitivity_hand_value(bench1):
    sol = solve_population(bench1)
    sens = price_sensitivity(bench1, bench1.population, sol)
    # D = 1, curvature 1/(1+1)^2 = 1/4, f(z*) = 1: dp/drho = 1/4.
    assert sens.dp_drho[0, 0] == pytest.approx(0.25, abs=1e-9)


def _finite_difference_jacobian(scenario, step=1e-5):
    shares = scenario.population.shares
    num_types = scenario.type_space.num_types
    fd = np.zeros((scenario.type_space.num_resources, num_types))
    for r in range(num_types):
        up, down = shares.copy(), shares.copy()
        up[r] += step
        down[r] -= step
        fd[:, r] = (solve_weighted(scenario, up).p - solve_weighted(scenario, down).p) / (2 * step)
    return fd


def test_sensitivity_matches_finite_differences(rng):
    for _ in range(5):
        scenario = random_scenario(rng, num_theta=2, num_zeta=2, num_resources=2, num_agents=8, quadratic=True)
        sol = solve_population(scenario)
        sens = price_sensitivity(scenario, scenario.population, sol)
        fd = _finite_difference_jacobian(scenario)
        rel = np.max(np.abs(fd - sens.dp_drho) / np.maximum(np.abs(fd), 1e-12))
        assert rel <= 1e-4


def test_sensitivity_scale_invariance(rng):
    # scaling weights and capacities together leaves (z, p) fixed and divides
    # the Jacobian by the scale factor
    scenario = random_scenario(rng, num_theta=2, num_zeta=1, num_resources=1, num_agents=8)
    sol = solve_population(scenario)
    sens = price_sensitivity(scenario, scenario.population, sol)
    kappa = 3.0
    scaled_weights = scenario.population.shares * kappa
    scaled = solve_weighted(scenario, scaled_weights, scenario.capacities * kappa)
    assert np.allclose(scaled.p, sol.p, atol=1e-10)
    sens_scaled = price_sensitivity(scenario, scaled_weights, scaled)
    assert np.allclose(sens_scaled.dp_drho, sens.dp_drho / kappa, rtol=1e-6)


def test_sensitivity_rejects_degenerate_points(bench1):
    from dataclasses import replace

    slack = replace(bench1, capacities=np.array([1e4]))
    sol = solve_population(slack)
    with pytest.raises(DegeneratePointError, match="degenerate"):
        price_sensitivity(slack, slack.population, sol)


def test_norm_bound_on_hand_instance(bench1):
    sol = solve_population(bench1)
    lhs, rhs, holds = sensitivity_norm_bound_check(bench1, bench1.population, sol)
    assert lhs == pytest.approx(0.25, abs=1e-9)
    assert rhs == pytest.approx(1.0, abs=1e-12)  # |Z|=1, sum L=1, C=1, I=1, rho=1
    assert holds


def test_norm_bound_needs_finite_population(rng):
    scenario = random_scenario(rng, num_agents=None)
    sol = solve_population(scenario)
    with pytest.raises(ValidationError):
        sensitivity_norm_bound_check(scenario, scenario.population, sol)


def test_weighted_solver_rejects_bad_weights(bench1):
    with pytest.raises(ValidationError):
        solve_weighted(bench1, np.array([-0.5]))
    with pytest.raises(ValidationError):
        solve_weighted(bench1, np.array([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weighted_solver_rejects_non_finite_inputs(bad):
    # a NaN residual passes a `residual > bound` gate, so these used to
    # return prices (9.96e-61, 0 or 1.0) with kkt_residual = nan
    scenario = load_scenario((SCENARIOS / "two_type.json").read_bytes())
    shares = scenario.population.shares
    caps = scenario.per_capita_capacities()
    with pytest.raises(ValidationError, match="weights must be finite"):
        solve_weighted(scenario, np.array([bad, *shares[1:]]), caps)
    with pytest.raises(ValidationError, match="capacities must be finite"):
        solve_weighted(scenario, shares, np.full_like(caps, bad))
    with pytest.raises(ValidationError, match="weights must be finite"):
        clear_markets(scenario, np.array([shares, [bad, *shares[1:]]]), caps)


def test_clear_markets_rejects_malformed_batches(bench_gap):
    shares = bench_gap.population.shares
    for weights in (shares, np.array([shares, [0.0, 0.0]]), np.ones((1, 3))):
        with pytest.raises(ValidationError, match="weights"):
            clear_markets(bench_gap, weights, bench_gap.capacities)
    with pytest.raises(ValidationError, match="capacities"):
        clear_markets(bench_gap, shares[None, :], np.ones(2))


def test_four_type_solution_matches_independent_nlp():
    # cross-check against a general-purpose constrained optimizer on the
    # product-type shape the grid oracle does not cover exhaustively
    from scipy.optimize import minimize

    rng = rng_for(2, 5)
    for _ in range(5):
        scenario = random_scenario(rng, num_theta=2, num_zeta=2, num_resources=2, num_agents=8, quadratic=True)
        sol = solve_population(scenario)
        shares = scenario.population.shares
        w = scenario.type_weights()
        a = scenario.type_linear()
        b = scenario.type_quadratic()
        shape = sol.z.shape

        def objective(flat):
            z = flat.reshape(shape)
            return -float(np.sum(shares[:, None] * w * np.log1p(z)))

        constraints = [
            {
                "type": "ineq",
                "fun": lambda flat, n=n: scenario.capacities[n]
                - float(shares @ (a[:, n] * flat.reshape(shape)[:, n] + b[:, n] * flat.reshape(shape)[:, n] ** 2)),
            }
            for n in range(shape[1])
        ]
        result = minimize(
            objective,
            x0=np.full(sol.z.size, 0.1),
            bounds=[(0.0, scenario.z_max)] * sol.z.size,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-12},
        )
        assert result.success
        ours = aggregate_utility(scenario, shares, sol.z)
        theirs = -result.fun
        assert ours >= theirs - 1e-6
        assert abs(ours - theirs) <= 1e-5 * max(1.0, abs(ours))
