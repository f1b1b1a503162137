import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsvcg.solver
from lsvcg.generate import random_scenario, rng_for, single_type_benchmark
from lsvcg.model import Population, ValidationError
from lsvcg.solver import (
    DegeneratePointError,
    SolverError,
    best_response,
    kkt_residual,
    price_sensitivity,
    sensitivity_norm_bound_check,
    solve_agent_list,
    solve_population,
    solve_weighted,
    aggregate_utility,
)


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
