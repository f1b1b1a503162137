"""Acceptance suite: one test per exit criterion, printed as pass/fail lines.

Run with ``pytest -v tests/test_acceptance.py``.  Criteria 6 and 9 check that
the best per-head misreport gain decays quadratically across population
sweeps.  Criterion 6b fits the decay exponent of the static benchmark, whose
measured gain decays at first order, so that assertion fails by design of the
measurement.  Criterion 9b checks the claim as an upper bound; the dynamic
benchmark's gains are exactly zero and meet it.  The accompanying
bound-domination assertions pass.  See the README and
``scripts/incentive_rate.py`` for the empirical analysis.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import lsvcg
from conftest import decays_quadratically
from lsvcg.generate import (
    dynamic_benchmark,
    incentive_benchmark,
    obedience_scenario,
    payment_gap_benchmark,
    random_scenario,
    replicate_assignments,
    rng_for,
    scale_capacity,
)
from lsvcg.dynamic import dynamic_incentive_gap, mean_field_step, mean_field_step_monte_carlo, plan_policy
from lsvcg.incentives import loglog_slope, verify_incentive_bound
from lsvcg.mechanisms import budget_audit, ir_audit, large_scale_vcg, shadow_payment_gap
from lsvcg.model import Population, Profile, empirical_population, utility_value
from lsvcg.solver import sensitivity_norm_bound_check, solve_weighted, price_sensitivity
from lsvcg.superimpose import AlgorithmConfig, obedience_check, obedient_actions, run_algorithm

SEED = 987650


def _report(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: solver against an exhaustive grid oracle ----------------------


def _per_type_usage_cap(scenario, shares, n):
    """Largest allocation each type could take alone on resource n."""
    a = scenario.type_linear()[:, n]
    b = scenario.type_quadratic()[:, n]
    budget = scenario.capacities[n] / shares
    with np.errstate(divide="ignore"):
        ub = np.where(b == 0, budget / a, (-a + np.sqrt(a * a + 4 * b * budget)) / (2 * np.where(b == 0, 1.0, b)))
    return np.minimum(ub, scenario.z_max)


def _grid_oracle_objective(scenario, points=200):
    """Best feasible aggregate utility found by exhaustive grid search.

    Per resource (the program separates), all but the last type range over a
    ``points``-level grid and the last type's allocation is completed onto
    the capacity surface in closed form, so binding optima are searched along
    the constraint at full grid resolution.
    """
    shares = scenario.population.shares
    w = scenario.type_weights()
    a = scenario.type_linear()
    b = scenario.type_quadratic()
    num_types = scenario.type_space.num_types
    total = 0.0
    for n in range(scenario.type_space.num_resources):
        cap = scenario.capacities[n]
        ubs = _per_type_usage_cap(scenario, shares, n)
        if num_types == 1:
            z_last = ubs[0]
            total += shares[0] * w[0, n] * np.log1p(z_last)
            continue
        axes = [np.linspace(0.0, ubs[r], points) for r in range(num_types - 1)]
        shape = [points] * (num_types - 1)
        load = np.zeros(shape)
        util = np.zeros(shape)
        for r, axis in enumerate(axes):
            view = [1] * (num_types - 1)
            view[r] = points
            g = axis.reshape(view)
            load = load + shares[r] * (a[r, n] * g + b[r, n] * g * g)
            util = util + shares[r] * w[r, n] * np.log1p(g)
        remaining = (cap - load) / shares[-1]
        feasible = remaining >= 0.0
        a_l, b_l = a[-1, n], b[-1, n]
        with np.errstate(divide="ignore", invalid="ignore"):
            if b_l == 0:
                z_last = remaining / a_l
            else:
                z_last = (-a_l + np.sqrt(a_l * a_l + 4 * b_l * np.maximum(remaining, 0.0))) / (2 * b_l)
        z_last = np.minimum(np.where(feasible, z_last, 0.0), scenario.z_max)
        value = util + shares[-1] * w[-1, n] * np.log1p(z_last)
        total += float(np.max(np.where(feasible, value, -np.inf)))
    return total


def test_criterion_1_solver_matches_grid_oracle():
    rng = rng_for(SEED, 1)
    shapes = [(1, 1)] * 6 + [(2, 1)] * 14 + [(1, 2)] * 10 + [(3, 1)] * 10 + [(1, 3)] * 4 + [(2, 2)] * 6
    started = time.perf_counter()
    worst_resid, worst_rel = 0.0, 0.0
    for num_theta, num_zeta in shapes:
        scenario = random_scenario(
            rng,
            num_theta=num_theta,
            num_zeta=num_zeta,
            num_resources=int(rng.integers(1, 3)),
            num_agents=8,
            quadratic=bool(rng.integers(2)),
        )
        solution = solve_weighted(scenario, scenario.population.shares)
        worst_resid = max(worst_resid, solution.kkt_residual)
        theta = np.arange(num_theta * num_zeta) // num_zeta
        solver_obj = float(scenario.population.shares @ utility_value(scenario.utility, theta, solution.z))
        oracle_obj = _grid_oracle_objective(scenario)
        worst_rel = max(worst_rel, abs(solver_obj - oracle_obj) / max(abs(solver_obj), 1e-12))
    elapsed = time.perf_counter() - started
    _report(
        "01",
        worst_resid <= 1e-8 and worst_rel <= 1e-4 and elapsed < 60.0,
        f"50 scenarios: max residual {worst_resid:.2e}, max objective gap {worst_rel:.2e}, {elapsed:.1f}s",
    )


# -- criteria 2-3: budget identity and individual rationality --------------------


def _binding_scenarios(stream):
    rng = rng_for(SEED, stream)
    for _ in range(100):
        yield random_scenario(
            rng,
            num_theta=int(rng.integers(1, 3)),
            num_zeta=int(rng.integers(1, 3)),
            num_resources=int(rng.integers(1, 3)),
            num_agents=int(rng.integers(2, 5)) * 4,
            quadratic=bool(rng.integers(2)),
        )


def test_criterion_2_budget_identity():
    started = time.perf_counter()
    worst = 0.0
    worst_strong = 0.0
    for scenario in _binding_scenarios(2):
        profile = Profile.truthful(scenario.population, scenario.type_space)
        for beta in (0.0, 0.5, 1.0):
            rebated = replace(scenario, beta=beta)
            outcome = large_scale_vcg(profile, rebated)
            total, predicted = budget_audit(outcome, rebated)
            scale = max(1.0, float(outcome.prices @ scenario.capacities))
            worst = max(worst, abs(total - predicted) / scale)
            if beta == 1.0:
                worst_strong = max(worst_strong, abs(total))
    elapsed = time.perf_counter() - started
    _report(
        "02",
        worst <= 1e-8 and worst_strong <= 1e-8 and elapsed < 60.0,
        f"100 scenarios x 3 betas: worst identity error {worst:.2e}, worst |sum h| at beta=1 {worst_strong:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_individual_rationality():
    worst = np.inf
    for scenario in _binding_scenarios(3):
        profile = Profile.truthful(scenario.population, scenario.type_space)
        for beta in (0.0, 0.5, 1.0):
            outcome = large_scale_vcg(profile, replace(scenario, beta=beta))
            worst = min(worst, ir_audit(outcome))
    _report("03", worst >= -1e-9, f"minimum truthful payoff across 100 scenarios x 3 betas: {worst:.2e}")


# -- criterion 4: frozen-price dominance of the truthful report ------------------


def test_criterion_4_mean_field_truthfulness():
    rng = rng_for(SEED, 4)
    worst_margin = np.inf
    for _ in range(100):
        scenario = random_scenario(
            rng,
            num_theta=int(rng.integers(1, 3)),
            num_zeta=int(rng.integers(1, 3)),
            num_resources=int(rng.integers(1, 3)),
            num_agents=None,
            quadratic=bool(rng.integers(2)),
        )
        report = lsvcg.incentive_gap(scenario, scenario.population, None)
        worst_margin = min(worst_margin, -report.max_gap)
    _report("04", worst_margin >= -1e-9, f"worst frozen-price truthfulness margin: {worst_margin:.2e}")


# -- criterion 5: exact-versus-shadow payment convergence -------------------------


def test_criterion_5_payment_gap_convergence():
    started = time.perf_counter()
    base = payment_gap_benchmark()
    gaps = {}
    for num_agents in (4, 8, 16, 32, 64):
        scenario = scale_capacity(base, num_agents)
        profile = Profile.truthful(Population(base.population.shares, num_agents), base.type_space)
        gaps[num_agents] = float(np.max(shadow_payment_gap(profile, scenario)))
    elapsed = time.perf_counter() - started
    sizes = sorted(gaps)
    monotone = all(gaps[b] <= gaps[a] * 1.05 for a, b in zip(sizes, sizes[1:]))
    quarter = gaps[64] <= gaps[8] / 4.0
    _report(
        "05",
        monotone and quarter and elapsed < 300.0,
        f"gaps {[round(gaps[k], 5) for k in sizes]}, gap(64)/gap(8) = {gaps[64] / gaps[8]:.3f}, {elapsed:.1f}s",
    )


# -- criterion 6: misreport gains against the quadratic ceiling -------------------

I_SWEEP = [10, 20, 40, 80, 160, 320, 640, 1280]


@pytest.fixture(scope="module")
def incentive_sweep():
    scenario = incentive_benchmark()
    started = time.perf_counter()
    sweep = verify_incentive_bound(scenario, scenario.population, I_SWEEP)
    elapsed = time.perf_counter() - started
    return sweep, elapsed


def test_criterion_6_bound_dominates_measured_gains(incentive_sweep):
    sweep, elapsed = incentive_sweep
    gaps = [row[1] for row in sweep.rows]
    all_hold = all(row[3] for row in sweep.rows)
    positive = all(g > 0 for g in gaps)
    _report(
        "06a",
        all_hold and positive and elapsed < 600.0,
        f"gaps {[f'{g:.2e}' for g in gaps]} all below bounds, {elapsed:.1f}s",
    )


def test_criterion_6_rate_window(incentive_sweep):
    # The profitable deviation understates influence, which moves prices by
    # one part in I and pays off on the agent's whole consumption: a
    # first-order effect.  The fitted exponent therefore sits at -1, outside
    # the second-order window asserted here; kept as specified and expected
    # to fail.  scripts/incentive_rate.py reproduces the measurement.
    sweep, _ = incentive_sweep
    _report("06b", -2.5 <= sweep.slope <= -1.5, f"fitted log-log slope {sweep.slope:.3f}, window [-2.5, -1.5]")


# -- criterion 7: price sensitivity against finite differences --------------------


def _renormalized_fd(scenario, step=1e-5):
    """Central differences along renormalized share perturbations."""
    shares = scenario.population.shares
    num_types = scenario.type_space.num_types
    fd = np.zeros((scenario.type_space.num_resources, num_types))
    for r in range(num_types):
        bump = np.zeros(num_types)
        bump[r] = step
        up = (shares + bump) / (1.0 + step)
        down = (shares - bump) / (1.0 - step)
        fd[:, r] = (solve_weighted(scenario, up).p - solve_weighted(scenario, down).p) / (2 * step)
    return fd


def test_criterion_7_sensitivity_and_norm_bound():
    rng = rng_for(SEED, 7)
    worst_rel = 0.0
    for _ in range(20):
        scenario = random_scenario(
            rng,
            num_theta=int(rng.integers(1, 3)),
            num_zeta=int(rng.integers(1, 3)),
            num_resources=int(rng.integers(1, 3)),
            num_agents=8,
            quadratic=bool(rng.integers(2)),
        )
        solution = solve_weighted(scenario, scenario.population.shares)
        jac = price_sensitivity(scenario, scenario.population, solution).dp_drho
        shares = scenario.population.shares
        directional = jac - (jac @ shares)[:, None]  # derivative along renormalized bumps
        fd = _renormalized_fd(scenario)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst_rel = max(worst_rel, float(np.max(np.abs(fd - directional))) / scale)

    # the ceiling feeds the misreport analysis, which needs at least two
    # types; single-type populations have no deviations and sit outside its
    # averaging slack
    shapes = [(2, 1), (1, 2), (3, 1), (1, 3), (2, 2)]
    held = 0
    for _ in range(100):
        num_theta, num_zeta = shapes[int(rng.integers(len(shapes)))]
        scenario = random_scenario(
            rng,
            num_theta=num_theta,
            num_zeta=num_zeta,
            num_resources=int(rng.integers(1, 3)),
            num_agents=num_theta * num_zeta * int(rng.integers(1, 5)),
            quadratic=bool(rng.integers(2)),
        )
        solution = solve_weighted(scenario, scenario.population.shares)
        _, _, holds = sensitivity_norm_bound_check(scenario, scenario.population, solution)
        held += bool(holds)
    _report(
        "07",
        worst_rel <= 1e-4 and held == 100,
        f"worst FD relative error {worst_rel:.2e} over 20 instances; norm bound held on {held}/100 draws",
    )


# -- criterion 8: obedience under the distributed algorithm -----------------------


def test_criterion_8_obedience_and_fixed_point():
    rng = rng_for(SEED, 8)
    started = time.perf_counter()
    config = AlgorithmConfig(tolerance=1e-8)
    worst_margin_ratio = np.inf
    worst_price_err = 0.0
    worst_alloc_err = 0.0
    for k in range(10):
        base = obedience_scenario(rng_for(SEED, 8, k), num_agents=1000)
        scenario = scale_capacity(base, 1000)
        assignments = replicate_assignments(scenario.population.shares, 1000, scenario.type_space)
        profile = Profile.from_agents(assignments, scenario.type_space)
        trace = run_algorithm(obedient_actions(profile), scenario, config)
        assert trace.converged
        pop = empirical_population(assignments, scenario.type_space)
        central = solve_weighted(scenario, pop.shares, scenario.capacities / pop.num_agents)
        worst_price_err = max(worst_price_err, float(np.max(np.abs(trace.final_prices - central.p))))
        menu_err = max(
            float(np.max(np.abs(trace.final_menu[r] - central.z[r])))
            for r in (scenario.type_space.flat_index(*t) for t in assignments)  # every agent reports its type
        )
        worst_alloc_err = max(worst_alloc_err, menu_err)
        for r in range(scenario.type_space.num_types):
            obedient, _, margin = obedience_check(scenario, 1000, scenario.type_space.unflatten(r), config)
            worst_margin_ratio = min(worst_margin_ratio, margin / max(abs(obedient), 1e-12))
    elapsed = time.perf_counter() - started
    _report(
        "08",
        worst_margin_ratio >= -1e-3 and worst_price_err <= 1e-6 and worst_alloc_err <= 1e-6 and elapsed < 600.0,
        f"worst margin/|payoff| {worst_margin_ratio:.2e}, price err {worst_price_err:.2e}, "
        f"allocation err {worst_alloc_err:.2e}, {elapsed:.1f}s",
    )


# -- criterion 9: dynamic reductions, bounds, and mean-field step ------------------


@pytest.fixture(scope="module")
def dynamic_gap_sweep():
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    started = time.perf_counter()
    per_i = {}
    for num_agents in I_SWEEP:
        rows = dynamic_incentive_gap(dyn, policy, num_agents)
        per_i[num_agents] = rows
    elapsed = time.perf_counter() - started
    return dyn, policy, per_i, elapsed


def test_criterion_9_dynamic_reductions_and_bounds(dynamic_gap_sweep):
    dyn, policy, per_i, elapsed = dynamic_gap_sweep
    started = time.perf_counter()
    fixed_point = plan_policy(dyn, "fixed-point")
    welfare_gap = abs(policy.welfare - fixed_point.welfare) / max(abs(policy.welfare), 1e-12)

    mean_field_rows = dynamic_incentive_gap(dyn, policy, None)
    worst_margin = -max(row.max_gap for row in mean_field_rows)

    bounds_hold = all(row.holds for rows in per_i.values() for row in rows)

    rng = rng_for(SEED, 9)
    z0 = policy.allocations[0]
    exact = mean_field_step(dyn.rho0, z0, dyn.kernel)
    empirical = mean_field_step_monte_carlo(dyn.rho0, z0, dyn.kernel, 1_000_000, rng)
    tv = 0.5 * float(np.abs(exact - empirical).sum())
    elapsed_total = elapsed + (time.perf_counter() - started)
    _report(
        "09a",
        welfare_gap <= 1e-4 and worst_margin >= -1e-9 and bounds_hold and tv <= 3e-3 and elapsed_total < 600.0,
        f"planner gap {welfare_gap:.2e}, mean-field margin {worst_margin:.2e}, "
        f"bounds hold at every I, Monte Carlo TV {tv:.2e}, {elapsed_total:.1f}s",
    )


def test_criterion_9_dynamic_rate_window(dynamic_gap_sweep):
    # The claim is an upper bound: per-head gains decay at least
    # quadratically.  So I^2 times the per-slot max gap may not grow along the
    # sweep, and where two or more gaps are positive their fitted exponent
    # must be -1.5 or steeper (decays_quadratically; a first-order decay fails
    # both).  With a single influence class every misreport changes what the
    # agent receives, so the frozen-price loss is first-order and the measured
    # gaps are exactly zero: exact incentive compatibility meets the bound,
    # and no exponent is fitted.
    _, _, per_i, _ = dynamic_gap_sweep
    max_gaps = [max(row.max_gap for row in per_i[n]) for n in I_SWEEP]
    slope = loglog_slope(I_SWEEP, max_gaps)
    _report(
        "09b",
        decays_quadratically(I_SWEEP, max_gaps),
        f"per-slot max gaps {[f'{g:.1e}' for g in max_gaps]}, fitted slope {slope}",
    )


# -- criterion 10: reproducibility -------------------------------------------------


def test_criterion_10_cli_byte_reproducibility(tmp_path):
    from lsvcg.cli import main
    from lsvcg.model import save_scenario

    scenario = replace(
        scale_capacity(payment_gap_benchmark(), 8),
        population=Population(shares=[0.5, 0.5], num_agents=8),
    )
    doc = tmp_path / "scenario.json"
    doc.write_bytes(save_scenario(scenario))
    identical = True
    for sub in ("solve", "lsvcg", "superimpose"):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{sub}_{tag}"
            assert main([sub, "--scenario", str(doc), "--out", str(out), "--seed", "11"]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        identical = identical and outs[0] == outs[1]
    _report("10", identical, "solve/lsvcg/superimpose reruns byte-identical")
