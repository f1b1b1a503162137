import math
from dataclasses import replace
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import lsvcg.dynamic
import lsvcg.solver
from lsvcg.dynamic import (
    DynamicScenario,
    Policy,
    TransitionKernel,
    dynamic_incentive_gap,
    dynamic_mechanism_step,
    load_dynamic_scenario,
    mean_field_step,
    mean_field_step_monte_carlo,
    plan_policy,
    plan_welfare,
    save_dynamic_scenario,
    value_u_sigma,
)
from lsvcg.generate import dynamic_benchmark, random_dynamic_scenario, random_scenario, rng_for
from lsvcg.incentives import gain_within_bound, misreport_gain_bound
from lsvcg.mechanisms import large_scale_vcg
from lsvcg.model import InfluenceParams, UtilityParams, ValidationError, utility_value
from lsvcg.solver import SolverError


def test_kernel_validation():
    with pytest.raises(ValidationError):
        TransitionKernel(probabilities=np.full((2, 2, 1), 0.4), bin_edges=[0.0, 1.0])
    with pytest.raises(ValidationError):
        TransitionKernel(probabilities=np.eye(2)[:, :, None], bin_edges=[1.0, 0.5])


def test_identity_kernel_freezes_distribution():
    dyn = dynamic_benchmark(kernel="identity")
    z = np.full((2, 1), 0.5)
    stepped = mean_field_step(dyn.rho0, z, dyn.kernel)
    assert np.array_equal(stepped, dyn.rho0)


def test_uniform_kernel_forgets_distribution():
    kernel = TransitionKernel(probabilities=np.full((2, 2, 1), 0.5), bin_edges=[0.0, 10.0])
    for rho in ([0.9, 0.1], [0.2, 0.8]):
        stepped = mean_field_step(rho, np.full((2, 1), 1.0), kernel)
        assert np.allclose(stepped, [0.5, 0.5])


def test_step_rejects_out_of_range_allocation():
    kernel = TransitionKernel(probabilities=np.eye(2)[:, :, None], bin_edges=[0.0, 1.0])
    with pytest.raises(ValidationError, match="bin range"):
        mean_field_step([0.5, 0.5], np.full((2, 1), 2.0), kernel)


@pytest.mark.parametrize("rho", [[np.nan, 1.0], [0.7, 0.7], [[0.5, 0.5]]])
def test_monte_carlo_step_rejects_what_the_exact_step_rejects(rho):
    dyn = dynamic_benchmark(kernel="allocation", discount=0.3, num_bins=4)
    z = np.array([[1.2], [3.4]])
    for step in (
        lambda: mean_field_step(rho, z, dyn.kernel),
        lambda: mean_field_step_monte_carlo(rho, z, dyn.kernel, 100, rng_for(31, 0)),
    ):
        with pytest.raises(ValidationError, match="state distribution must be a finite simplex vector"):
            step()


def test_flow_matches_monte_carlo():
    rng = rng_for(31, 0)
    dyn = dynamic_benchmark(kernel="allocation", discount=0.3, num_bins=4)
    z = np.array([[1.2], [3.4]])
    exact = mean_field_step(dyn.rho0, z, dyn.kernel)
    empirical = mean_field_step_monte_carlo(dyn.rho0, z, dyn.kernel, 1_000_000, rng)
    assert 0.5 * np.abs(exact - empirical).sum() <= 3e-3


def test_simplex_preserved_along_rollout():
    dyn = dynamic_benchmark(kernel="mixing")
    policy = plan_policy(dyn, "myopic")
    sums = policy.rho_path.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert np.all(policy.rho_path >= -1e-15)


# -- planning -------------------------------------------------------------------


def test_myopic_matches_oracle_when_kernel_ignores_allocations():
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    myopic = plan_policy(dyn, "myopic")
    oracle = plan_policy(dyn, "fixed-point")
    assert abs(myopic.welfare - oracle.welfare) <= 1e-4 * abs(myopic.welfare)


def test_tiny_discount_makes_oracle_myopic():
    dyn = dynamic_benchmark(kernel="allocation", discount=1e-6, num_bins=4)
    assert dyn.horizon == 1
    myopic = plan_policy(dyn, "myopic")
    oracle = plan_policy(dyn, "fixed-point")
    assert abs(myopic.welfare - oracle.welfare) <= 1e-3 * abs(myopic.welfare)


def test_oracle_never_below_myopic():
    dyn = dynamic_benchmark(kernel="allocation", discount=0.6, num_bins=6)
    myopic = plan_policy(dyn, "myopic")
    oracle = plan_policy(dyn, "fixed-point")
    assert oracle.welfare >= myopic.welfare - 1e-9


def test_fixed_point_is_myopic_when_the_kernel_ignores_allocations(rng):
    dyn = random_dynamic_scenario(rng, num_theta=4)
    myopic = plan_policy(dyn, "myopic")
    fixed_point = plan_policy(dyn, "fixed-point")
    for name in ("allocations", "prices", "rho_path", "value_table", "continuation"):
        assert np.array_equal(getattr(fixed_point, name), getattr(myopic, name))
    assert fixed_point.welfare == myopic.welfare


def test_unknown_planning_mode_is_rejected():
    with pytest.raises(ValidationError, match="planning mode"):
        plan_policy(dynamic_benchmark(kernel="mixing"), "lookahead-oracle")


def test_bellman_consistency_along_plan():
    # instantaneous welfare plus discounted next-state rollout telescopes
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    w = dyn.static.utility.weights
    tail = np.zeros(dyn.horizon + 1)
    for t in range(dyn.horizon - 1, -1, -1):
        inst = float(policy.rho_path[t] @ np.sum(w * np.log1p(policy.allocations[t]), axis=1))
        tail[t] = inst + dyn.discount * tail[t + 1]
    assert tail[0] == pytest.approx(policy.welfare, abs=1e-6)
    assert tail[0] == pytest.approx(plan_welfare(dyn, policy.allocations, policy.rho_path), abs=1e-12)


# -- discounted values ----------------------------------------------------------


def test_value_of_constant_policy_under_identity_kernel():
    dyn = dynamic_benchmark(kernel="identity", discount=0.5)
    policy = plan_policy(dyn, "myopic")  # distribution frozen -> same menu each slot
    for theta in range(dyn.num_types):
        z_policy = float(policy.allocations[0, theta, 0])
        u_inst = utility_value(dyn.static.utility, theta, policy.allocations[0, theta])
        closed = u_inst + dyn.discount / (1.0 - dyn.discount) * u_inst
        got = value_u_sigma(dyn, policy, theta, policy.allocations[0, theta], 0)
        truncation = dyn.discount**dyn.horizon / (1 - dyn.discount) * abs(u_inst)
        assert got == pytest.approx(closed, abs=truncation + 1e-9)


def test_value_reduces_to_instant_utility_without_discounting():
    dyn = dynamic_benchmark(kernel="mixing", discount=1e-6)
    policy = plan_policy(dyn, "myopic")
    z = np.array([0.7])
    got = value_u_sigma(dyn, policy, 0, z, 0)
    assert got == pytest.approx(utility_value(dyn.static.utility, 0, z), abs=1e-6)


def test_population_value_identity():
    # share-weighted agent values reproduce the plan's discounted welfare
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    total = sum(
        float(policy.rho_path[0, theta]) * value_u_sigma(dyn, policy, theta, policy.allocations[0, theta], 0)
        for theta in range(dyn.num_types)
    )
    assert total == pytest.approx(policy.welfare, abs=1e-6)


# -- per-slot mechanism -----------------------------------------------------------


def test_slot_reduces_to_static_mechanism_for_independent_kernel():
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    slot = dynamic_mechanism_step(dyn.rho0, dyn, policy, 0)
    ts = dyn.static.type_space
    probes = [ts.unflatten(r) for r in range(ts.num_types)]
    from lsvcg.model import Population, Profile

    static = replace(dyn.static, population=Population(shares=dyn.rho0, num_agents=None))
    outcome = large_scale_vcg(Profile.from_agents(probes, ts), static, report_distribution=dyn.rho0)
    assert np.allclose(slot.z, outcome.cell_allocations, atol=1e-6)  # probe r is cell r
    assert np.allclose(slot.p, outcome.prices, atol=1e-6)


def test_slot_payments_nonnegative_every_slot():
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    for t in range(dyn.horizon):
        slot = dynamic_mechanism_step(policy.rho_path[t], dyn, policy, t)
        assert np.all(slot.payments >= 0.0)


def test_slot_individual_rationality():
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    for t in range(dyn.horizon):
        slot = dynamic_mechanism_step(policy.rho_path[t], dyn, policy, t)
        assert np.min(slot.payoffs) >= -1e-9


def test_truthful_report_best_at_frozen_prices():
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    rows = dynamic_incentive_gap(dyn, policy, None)
    assert max(row.max_gap for row in rows) <= 1e-9
    assert all(row.holds for row in rows)


def test_finite_population_gaps_below_bound():
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    for num_agents in (10, 40, 160):
        rows = dynamic_incentive_gap(dyn, policy, num_agents)
        assert all(row.holds for row in rows)


@pytest.mark.parametrize("kernel", ["mixing", "allocation"])
def test_each_slot_bound_is_the_static_ceiling_at_its_shares(kernel):
    dyn = dynamic_benchmark(kernel=kernel, discount=0.9, num_bins=4)
    policy = plan_policy(dyn, "myopic")
    rows = dynamic_incentive_gap(dyn, policy, 20)
    assert len(rows) == dyn.horizon
    for t, row in enumerate(rows):
        expected = misreport_gain_bound(dyn.static, policy.rho_path[t], 20)
        assert np.float64(row.bound).tobytes() == np.float64(expected).tobytes()


def test_identity_kernel_keeps_bound_constant():
    dyn = dynamic_benchmark(kernel="identity", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    rows = dynamic_incentive_gap(dyn, policy, 20)
    bounds = {row.bound for row in rows}
    assert len(bounds) == 1


def test_allocation_dependent_slot_clears_and_charges():
    dyn = dynamic_benchmark(kernel="allocation", discount=0.5, num_bins=4)
    policy = plan_policy(dyn, "myopic")
    cap = float(dyn.static.capacities[0])
    for t in range(dyn.horizon):
        rho_t = policy.rho_path[t]
        slot = dynamic_mechanism_step(rho_t, dyn, policy, t)
        load = float(rho_t @ slot.z[:, 0])
        assert abs(load - cap) <= 1e-6 * max(cap, 1.0) or (slot.p[0] == 0.0 and load <= cap)
        assert np.array_equal(slot.payments, slot.z @ slot.p)
    assert all(row.holds for row in dynamic_incentive_gap(dyn, policy, 10))


def test_binned_slot_failure_reports_its_bracket(monkeypatch):
    dyn = dynamic_benchmark(kernel="allocation", discount=0.5, num_bins=4)
    policy = plan_policy(dyn, "myopic")
    monkeypatch.setattr(lsvcg.solver, "MAX_BISECTION_STEPS", 3)
    with pytest.raises(SolverError, match="demand - capacity") as exc:
        dynamic_mechanism_step(dyn.rho0, dyn, policy, 0)
    assert "bracket" in str(exc.value) and "3 bisection steps" in str(exc.value)


def test_a_failing_batch_market_names_its_slot(monkeypatch):
    # 23 steps clear every market of slot 0, which the batch lists first, but
    # not every market of slot 1
    dyn = dynamic_benchmark(kernel="allocation", discount=0.5, num_bins=4)
    policy = plan_policy(dyn, "myopic")
    monkeypatch.setattr(lsvcg.solver, "MAX_BISECTION_STEPS", 23)
    rho_0 = policy.rho_path[0]
    for shares in [rho_0, *_misreported_shares(rho_0, 10)]:
        dynamic_mechanism_step(shares, dyn, policy, 0)
    with pytest.raises(SolverError, match=r"^slot 1 market \[") as batch:
        dynamic_incentive_gap(dyn, policy, 10)
    failing = [s for s in _misreported_shares(policy.rho_path[1], 10) if f"market {s.tolist()}," in str(batch.value)]
    assert len(failing) == 1
    with pytest.raises(SolverError, match="^slot 1 market failed to clear") as scalar:
        dynamic_mechanism_step(failing[0], dyn, policy, 1)
    # the lane's residual, bracket and step count are the scalar bisection's
    tail = str(scalar.value).split("failed to clear")[1]
    assert str(batch.value).endswith(tail) and "after 23 bisection steps" in tail


def _two_bin_slots(w0: float, cont: list[float]):
    """The ``switching`` kernel (bins split at 0.8) with type 0's weight ``w0``,
    under a made-up policy: zero values, and a continuation that is zero but
    for type 0's second bin, ``cont[t]`` at slot ``t``."""
    base = dynamic_benchmark(kernel="switching", discount=0.5)
    static = replace(base.static, utility=UtilityParams(weights=[[w0], [1.5]]))
    dyn = DynamicScenario(static=static, kernel=base.kernel, discount=0.5, horizon=base.horizon, rho0=base.rho0)
    horizon = dyn.horizon
    continuation = np.zeros((horizon, 2, 2))
    continuation[: len(cont), 0, 1] = cont
    policy = Policy(
        mode="myopic",
        allocations=np.zeros((horizon, 2, 1)),
        prices=np.zeros((horizon, 1)),
        rho_path=np.tile(dyn.rho0, (horizon + 1, 1)),
        value_table=np.zeros((horizon + 1, 2)),
        continuation=continuation,
        welfare=0.0,
    )
    return dyn, policy


def test_clear_slots_keeps_the_scalar_rule_at_near_ties():
    # Type 0 reports a zero share, so its continuation cannot move the price.
    # At that price its first bin holds 0.8 and its second the static
    # response; the continuation of the second is set so that the two values
    # differ by less than the 1e-15 margin (slot 0), or by less than the last
    # bit of a log1p that np.log1p and math.log1p disagree on (slot 1, where
    # such a disagreement is found).  The bin taken there is the allocation.
    shares = np.array([0.0, 1.0])
    price = float(lsvcg.dynamic._clear_slot(shares, *_two_bin_slots(1.45, []), 0)[1][0])

    def second_bin_wins(w0, cont, log1p, margin):
        unclamped = w0 / price - 1.0
        first = w0 * log1p(0.8) + 0.0 - price * 0.8
        return w0 * log1p(unclamped) + cont - price * unclamped > first + margin

    def tie(w0, log1p, margin):
        """A continuation near the tie at which the scalar rule and the rule with
        ``log1p`` and ``margin`` pick different bins, or None."""
        unclamped = w0 / price - 1.0
        at_tie = w0 * math.log1p(0.8) - price * 0.8 - (w0 * math.log1p(unclamped) - price * unclamped)
        for cont in (at_tie + np.linspace(-3e-15, 3e-15, 601)).tolist():
            if second_bin_wins(w0, cont, math.log1p, 1e-15) != second_bin_wins(w0, cont, log1p, margin):
                return cont
        return None

    # type 0's weight stays below type 1's, so the price ceiling does not move
    w0, log_tie = 1.45, None
    for w in np.arange(1.40, 1.50, 1e-4).tolist():
        log_tie = tie(w, np.log1p, 1e-15)
        if log_tie is not None:
            w0 = w
            break
    conts = [tie(w0, math.log1p, 0.0)] + ([] if log_tie is None else [log_tie])
    assert conts[0] is not None
    dyn, policy = _two_bin_slots(w0, conts)
    slots = np.arange(len(conts))
    z, p, _ = lsvcg.dynamic._clear_slots(np.tile(shares, (len(conts), 1)), slots, dyn, policy)
    for t in slots:
        z_scalar, p_scalar = lsvcg.dynamic._clear_slot(shares, dyn, policy, int(t))
        assert p[t].tobytes() == p_scalar.tobytes() == np.array([price]).tobytes()
        assert z[t].tobytes() == z_scalar.tobytes()


@pytest.fixture(scope="module")
def binned_policies():
    policies = {}
    for kernel in ("allocation", "switching"):
        for discount in (0.5, 0.9):
            dyn = dynamic_benchmark(kernel=kernel, discount=discount, num_bins=4)
            for mode in ("myopic", "fixed-point"):
                policies[kernel, discount, mode] = dyn, plan_policy(dyn, mode)
    return policies


_SHARES = st.one_of(st.sampled_from([0.0, 1e-15, 0.5, 1.0 - 1e-15, 1.0]), st.floats(0.0, 1.0))


@given(
    preset=st.sampled_from(
        [(k, d, m) for k in ("allocation", "switching") for d in (0.5, 0.9) for m in ("myopic", "fixed-point")]
    ),
    markets=st.lists(st.tuples(st.integers(0, 10**6), _SHARES), min_size=1, max_size=10),
)
@settings(max_examples=80, deadline=None)
def test_clear_slots_matches_the_scalar_slot_bit_for_bit(binned_policies, preset, markets):
    dyn, policy = binned_policies[preset]
    slots = np.array([t % dyn.horizon for t, _ in markets])
    shares = np.array([[share, 1.0 - share] for _, share in markets])
    scalar_steps = []

    def recorded(demand, capacity, hi, tolerance):
        price, steps = lsvcg.solver._clear_price(demand, capacity, hi, tolerance)
        scalar_steps.append(steps)
        return price, steps

    cleared, failed = [], []
    with mock.patch.object(lsvcg.dynamic, "_clear_price", recorded):
        for k, t in enumerate(slots):
            try:
                cleared.append((k, *lsvcg.dynamic._clear_slot(shares[k], dyn, policy, int(t)), scalar_steps[-1]))
            except SolverError as exc:
                failed.append((k, str(exc)))
    event("a market fails to clear" if failed else "every market clears")
    if cleared:
        keep = [k for k, *_ in cleared]
        z, p, steps = lsvcg.dynamic._clear_slots(shares[keep], slots[keep], dyn, policy)
        assert z.shape == (len(keep), dyn.num_types, 1) and p.shape == (len(keep), 1)
        for i, (_, z_scalar, p_scalar, steps_scalar) in enumerate(cleared):
            assert z[i].tobytes() == z_scalar.tobytes()
            assert p[i].tobytes() == p_scalar.tobytes()
            assert steps[i] == steps_scalar
    for k, message in failed:
        with pytest.raises(SolverError) as exc:
            lsvcg.dynamic._clear_slots(shares[k : k + 1], slots[k : k + 1], dyn, policy)
        assert str(exc.value).split("failed to clear")[1] == message.split("failed to clear")[1]


def _gap_evaluations(dyn: DynamicScenario, policy: Policy, bracketed: bool = True):
    """Demand evaluations of one ``dynamic_incentive_gap(dyn, policy, 10)`` call, bracket
    included, and its per-type gaps; with ``bracketed`` false the slots bisect without one."""
    evaluations = []
    newton, clear_prices = lsvcg.dynamic._newton_brackets, lsvcg.dynamic._clear_prices

    def counted(evaluate):
        return lambda *args: evaluations.append(args) or evaluate(*args)

    def brackets(evaluate, *args):
        return newton(counted(evaluate), *args) if bracketed else None

    def cleared(demand, *args):
        return clear_prices(counted(demand), *args)

    with (
        mock.patch.object(lsvcg.dynamic, "_newton_brackets", brackets),
        mock.patch.object(lsvcg.dynamic, "_clear_prices", cleared),
    ):
        rows = dynamic_incentive_gap(dyn, policy, 10)
    return len(evaluations), [row.per_type_gap for row in rows]


def test_binned_gap_evaluates_demand_mostly_inside_its_brackets(binned_policies):
    # a bracket that fell back to [0, ceiling] would still clear bit for bit,
    # so the work is pinned: the plain bisection evaluates demand 56 or 57
    # times per gap (its halvings and the residual)
    evaluations, _ = _gap_evaluations(*binned_policies["allocation", 0.9, "myopic"])
    assert evaluations <= 12
    for dyn, policy in binned_policies.values():
        evaluations, gaps = _gap_evaluations(dyn, policy)
        plain, plain_gaps = _gap_evaluations(dyn, policy, bracketed=False)
        assert evaluations <= plain and gaps == plain_gaps


def _scalar_demand(dyn: DynamicScenario, policy: Policy, t: int, shares: np.ndarray, price: float) -> float:
    """Slot ``t``'s demand at ``shares`` and ``price`` under the scalar rule, summed as ``_clear_slot`` sums it."""
    w = dyn.static.utility.weights[:, 0].tolist()
    cont = policy.continuation[t]
    responses = [lsvcg.dynamic._binned_best_response(dyn, cont[theta], w[theta], price) for theta in range(len(w))]
    return float(sum(shares[theta] * z for theta, z in enumerate(responses)))


def _assert_brackets_are_sound(shares: np.ndarray, slots: np.ndarray, dyn: DynamicScenario, policy: Policy):
    """Every bracket ``_clear_slots`` hands its bisection holds the scalar rule's crossing:
    over capacity below ``low``, not over above ``high``, and the plain bisection's price inside."""
    brackets = []
    newton = lsvcg.dynamic._newton_brackets

    def recorded(*args):
        brackets.append(newton(*args))
        return brackets[-1]

    with mock.patch.object(lsvcg.dynamic, "_newton_brackets", recorded):
        try:
            lsvcg.dynamic._clear_slots(shares, slots, dyn, policy)
        except SolverError:
            pass
    low, high = (end[:, 0].tolist() for end in brackets[0])
    cap = float(dyn.static.capacities[0])
    for k, t in enumerate(slots.tolist()):

        def demand(price: float) -> float:
            return _scalar_demand(dyn, policy, t, shares[k], price)

        if demand(0.0) <= cap:
            continue
        ceiling = float(lsvcg.dynamic._price_ceiling(dyn, policy, t))
        below = [math.nextafter(low[k], 0.0)] + [low[k] * (1.0 - 2.0**-j) for j in (1, 8, 30, 50)]
        assert all(demand(price) > cap for price in below)
        if high[k] < ceiling:
            above = [math.nextafter(high[k], math.inf)] + [high[k] + (ceiling - high[k]) * 2.0**-j for j in (1, 8, 30)]
            assert not any(demand(price) > cap for price in above)
        # the plain bisection's price, whether or not it clears
        price, _ = lsvcg.solver._clear_price(demand, cap, ceiling, math.inf)
        assert low[k] < price <= high[k]


@given(
    preset=st.sampled_from(
        [(k, d, m) for k in ("allocation", "switching") for d in (0.5, 0.9) for m in ("myopic", "fixed-point")]
    ),
    markets=st.lists(st.tuples(st.integers(0, 10**6), _SHARES), min_size=1, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_binned_brackets_hold_the_scalar_crossing(binned_policies, preset, markets):
    dyn, policy = binned_policies[preset]
    slots = np.array([t % dyn.horizon for t, _ in markets])
    shares = np.array([[share, 1.0 - share] for _, share in markets])
    _assert_brackets_are_sound(shares, slots, dyn, policy)


def test_binned_brackets_hold_the_scalar_crossing_at_near_ties():
    # Type 0 (share 0.5) takes 0.8, the top of its first bin, at the price.
    # Its second bin would take the static response; that bin's continuation
    # runs over +-2e-15 around the value that ties the two bins at the
    # price, so the bracket's evaluations see near-ties, and at some slots
    # type 0 leaves its second bin, and demand jumps, at the clearing price.
    shares, w0 = np.array([0.5, 0.5]), 1.4
    dyn, policy = _two_bin_slots(w0, [-1.0])
    price = float(lsvcg.dynamic._clear_slot(shares, dyn, policy, 0)[1][0])
    unclamped = w0 / price - 1.0
    assert unclamped > 0.8
    tie = w0 * math.log1p(0.8) - price * 0.8 - (w0 * math.log1p(unclamped) - price * unclamped)
    dyn, policy = _two_bin_slots(w0, np.linspace(tie - 2e-15, tie + 2e-15, dyn.horizon).tolist())
    slots = np.arange(dyn.horizon)
    jumps = 0
    for t in slots.tolist():
        p = float(lsvcg.dynamic._clear_slot(shares, dyn, policy, t)[1][0])
        jumps += lsvcg.dynamic._binned_best_response(dyn, policy.continuation[t, 0], w0, math.nextafter(p, 0.0)) > 0.8
    assert jumps > 0
    _assert_brackets_are_sound(np.tile(shares, (dyn.horizon, 1)), slots, dyn, policy)


@pytest.mark.parametrize("kernel", ["mixing", "allocation"])
@pytest.mark.parametrize("num_agents", [None, 10])
def test_incentive_rows_carry_the_truthful_slot(kernel, num_agents):
    dyn = dynamic_benchmark(kernel=kernel, discount=0.5, num_bins=4)
    policy = plan_policy(dyn, "myopic")
    for t, row in enumerate(dynamic_incentive_gap(dyn, policy, num_agents)):
        fresh = dynamic_mechanism_step(policy.rho_path[t], dyn, policy, t)
        assert row.slot.t == fresh.t == t
        for name in ("z", "p", "payments", "payoffs"):
            assert np.array_equal(getattr(row.slot, name), getattr(fresh, name))


@pytest.mark.parametrize("num_agents", [None, 10])
def test_truthful_slot_is_priced_once(num_agents, monkeypatch):
    # a binned market reads the policy at its slot, so no two slots share one:
    # one truthful clearing per slot, plus one per (type, misreport) when finite,
    # all in one batch
    dyn = dynamic_benchmark(kernel="allocation", discount=0.5, num_bins=4)
    policy = plan_policy(dyn, "myopic")
    clear = lsvcg.dynamic._clear_slots
    batches = []

    def counted(shares, slots, dyn, policy):
        batches.append(sorted(slots.tolist()))
        return clear(shares, slots, dyn, policy)

    monkeypatch.setattr(lsvcg.dynamic, "_clear_slots", counted)
    dynamic_incentive_gap(dyn, policy, num_agents)
    num_types = dyn.num_types
    per_slot = 1 if num_agents is None else 1 + num_types * (num_types - 1)
    assert batches == [[t for t in range(dyn.horizon) for _ in range(per_slot)]]


def test_gap_when_a_type_has_no_whole_agent_at_any_slot():
    # at I = 2 type 1 of the mixing preset never holds a whole agent, so its
    # misreports are priced at no slot and their allocations are empty
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    assert np.all(policy.rho_path[:, 1] * 2 < 1.0)
    rows = dynamic_incentive_gap(dyn, policy, 2)
    assert len(rows) == dyn.horizon and all(set(row.per_type_gap) == {0} for row in rows)
    assert dyn.kernel.bin_of(np.empty((0, 1))).shape == (0,)


def _misreported_shares(rho_t: np.ndarray, num_agents: int):
    """Reported shares of every (type, misreport) market at one slot."""
    for theta, report in permutations(range(rho_t.size), 2):
        if rho_t[theta] * num_agents < 1.0 - 1e-9:
            continue
        shares = rho_t.copy()
        shares[theta] -= 1.0 / num_agents
        shares[report] += 1.0 / num_agents
        yield np.maximum(shares, 0.0)


@pytest.mark.parametrize("num_agents", [None, 10])
def test_each_distinct_mixing_market_is_solved_once(num_agents, monkeypatch):
    dyn = dynamic_benchmark(kernel="mixing", discount=0.9)
    clear_market = lsvcg.dynamic._clear_market
    inputs = []

    def counted(scenario, weights, capacities):
        inputs.append(np.asarray(weights, dtype=float).tobytes())
        return clear_market(scenario, weights, capacities)

    monkeypatch.setattr(lsvcg.dynamic, "_clear_market", counted)
    policy = plan_policy(dyn, "myopic")
    states = {rho.tobytes() for rho in policy.rho_path[:-1]}
    assert len(states) < dyn.horizon  # the flow reaches a bit-for-bit stationary state
    assert sorted(inputs) == sorted(states)

    clear_markets = lsvcg.dynamic.clear_markets

    def counted_batch(scenario, weights, capacities):
        inputs.extend(row.tobytes() for row in np.asarray(weights, dtype=float))
        return clear_markets(scenario, weights, capacities)

    monkeypatch.setattr(lsvcg.dynamic, "clear_markets", counted_batch)
    inputs.clear()
    dynamic_incentive_gap(dyn, policy, num_agents)
    # the truthful slots are the plan's; each distinct misreported market is cleared once
    expected = set()
    if num_agents is not None:
        for rho_t in policy.rho_path[:-1]:
            expected.update(shares.tobytes() for shares in _misreported_shares(rho_t, num_agents))
    assert sorted(inputs) == sorted(expected)


def _reference_plan(dyn: DynamicScenario, mode: str) -> Policy:
    """``plan_policy`` without the memo: every slot of every rollout is cleared afresh."""

    def myopic_slot(t, rho):
        solution = lsvcg.solver.solve_weighted(dyn.static, rho, dyn.static.capacities)
        return solution.z, solution.p

    policy = lsvcg.dynamic._policy(dyn, mode, myopic_slot)
    while mode == "fixed-point":
        previous = policy

        def mechanism_slot(t, rho):
            slot = dynamic_mechanism_step(rho, dyn, previous, t)
            return slot.z, slot.p

        policy = lsvcg.dynamic._policy(dyn, mode, mechanism_slot)
        if np.array_equal(policy.allocations, previous.allocations):
            break
    return policy


def _reference_gap(dyn: DynamicScenario, policy: Policy, num_agents: int | None):
    """``dynamic_incentive_gap`` with the scalar clearing on every truthful and
    misreported market, payments ``z @ p`` and :func:`value_u_sigma` payoffs:
    ``(per_type_gap, max_gap, holds, (z, p, payments, payoffs))`` per slot."""
    rows = []
    for t in range(dyn.horizon):
        rho_t = policy.rho_path[t]
        z, p = lsvcg.dynamic._clear_slot(rho_t, dyn, policy, t)
        payments = z @ p
        payoffs = np.array(
            [value_u_sigma(dyn, policy, theta, z[theta], t) - payments[theta] for theta in range(dyn.num_types)]
        )
        truthful_slot = z, p, payments, payoffs

        def payoff(theta, report):
            z, _, payments, _ = truthful_slot
            if num_agents is not None and report != theta:
                shares = rho_t.copy()
                shares[theta] -= 1.0 / num_agents
                shares[report] += 1.0 / num_agents
                if shares[theta] < -1e-12:
                    return -np.inf
                z, p = lsvcg.dynamic._clear_slot(np.maximum(shares, 0.0), dyn, policy, t)
                payments = z @ p
            return value_u_sigma(dyn, policy, theta, z[report], t) - float(payments[report])

        per_type = {}
        for theta in range(dyn.num_types):
            if num_agents is not None and rho_t[theta] * num_agents < 1.0 - 1e-9:
                continue
            truthful = payoff(theta, theta)
            best = 0.0
            for alt in range(dyn.num_types):
                if alt != theta:
                    best = max(best, payoff(theta, alt) - truthful)
            per_type[theta] = best
        max_gap = max(per_type.values()) if per_type else 0.0
        if num_agents is None:
            holds = max_gap <= 1e-9
        else:
            holds = gain_within_bound(max_gap, misreport_gain_bound(dyn.static, rho_t, num_agents))
        rows.append((per_type, max_gap, holds, truthful_slot))
    return rows


def _assert_same_plan_and_gaps(dyn: DynamicScenario, mode: str):
    policy = plan_policy(dyn, mode)
    reference = _reference_plan(dyn, mode)
    assert policy.mode == reference.mode and policy.welfare == reference.welfare
    # the plan's welfare shares the backup's utilities and equals the public formula bit for bit
    assert policy.welfare == plan_welfare(dyn, policy.allocations, policy.rho_path)
    for name in ("allocations", "prices", "rho_path", "value_table", "continuation"):
        assert np.array_equal(getattr(policy, name), getattr(reference, name)), name
    for num_agents in (None, 10):
        rows = dynamic_incentive_gap(dyn, policy, num_agents)
        assert len(rows) == dyn.horizon
        reference_rows = _reference_gap(dyn, reference, num_agents)
        for t, (row, (per_type, max_gap, holds, slot)) in enumerate(zip(rows, reference_rows)):
            assert row.per_type_gap == per_type and row.max_gap == max_gap and row.holds == holds
            assert row.slot.t == t
            for name, expected in zip(("z", "p", "payments", "payoffs"), slot):
                assert getattr(row.slot, name).tobytes() == expected.tobytes(), name
            step = dynamic_mechanism_step(policy.rho_path[t], dyn, policy, t)
            for name, expected in zip(("payments", "payoffs"), slot[2:]):
                assert getattr(step, name).tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("mode", ["myopic", "fixed-point"])
@pytest.mark.parametrize("kernel", ["mixing", "allocation", "switching"])
@pytest.mark.parametrize("discount", [0.5, 0.9])
def test_memoized_plan_and_gaps_equal_the_unmemoized_reference(kernel, discount, mode):
    _assert_same_plan_and_gaps(dynamic_benchmark(kernel=kernel, discount=discount, num_bins=4), mode)


@pytest.mark.parametrize("mode", ["myopic", "fixed-point"])
@pytest.mark.parametrize(("seed", "num_theta"), [(0, 2), (1, 2), (2, 3), (3, 1)])
def test_memoized_gaps_equal_the_reference_on_random_flows(seed, num_theta, mode):
    _assert_same_plan_and_gaps(random_dynamic_scenario(rng_for(seed, 0), num_theta=num_theta), mode)


@pytest.mark.parametrize("mode", ["myopic", "fixed-point"])
def test_array_payoffs_equal_value_u_sigma_on_several_resources(mode):
    # with more than one resource each utility is a dot product, whose
    # summation order the array payoffs must keep
    rng = rng_for(3, 0)
    base = random_scenario(rng, num_theta=3, num_zeta=1, num_resources=3, num_agents=None)
    static = replace(base, influence=InfluenceParams(linear=np.ones((1, 3)), quadratic=np.zeros((1, 3))))
    q = rng.dirichlet(np.full(3, 2.0), size=3).T
    kernel = TransitionKernel(probabilities=q[:, :, None], bin_edges=[0.0, static.z_max])
    dyn = DynamicScenario(static=static, kernel=kernel, discount=0.5, horizon=20, rho0=rng.dirichlet(np.full(3, 3.0)))
    _assert_same_plan_and_gaps(dyn, mode)


@pytest.mark.parametrize("t", [-1, "horizon"])
def test_slot_index_outside_the_horizon_is_rejected(t):
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    policy = plan_policy(dyn, "myopic")
    t = dyn.horizon if t == "horizon" else t
    with pytest.raises(ValidationError, match="outside the planned horizon"):
        dynamic_mechanism_step(dyn.rho0, dyn, policy, t)
    with pytest.raises(ValidationError, match="outside the planned horizon"):
        value_u_sigma(dyn, policy, 0, [0.5], t)


def test_dynamic_document_round_trip():
    dyn = dynamic_benchmark(kernel="allocation", discount=0.3, num_bins=4)
    loaded = load_dynamic_scenario(save_dynamic_scenario(dyn))
    assert np.array_equal(loaded.kernel.probabilities, dyn.kernel.probabilities)
    assert np.array_equal(loaded.kernel.bin_edges, dyn.kernel.bin_edges)
    assert loaded.discount == dyn.discount and loaded.horizon == dyn.horizon
    assert np.array_equal(loaded.rho0, dyn.rho0)


def test_horizon_must_cover_truncation():
    dyn = dynamic_benchmark(kernel="mixing", discount=0.5)
    with pytest.raises(ValidationError, match="horizon"):
        DynamicScenario(
            static=dyn.static,
            kernel=dyn.kernel,
            discount=0.9,
            horizon=3,
            rho0=dyn.rho0,
        )


# -- plans that move between allocation bins -------------------------------------


def _best_constant_welfare(dyn: DynamicScenario, grid_levels: int = 50) -> float:
    """Best discounted welfare of a feasible constant per-type allocation on a
    grid of ``grid_levels`` levels per type (one resource)."""
    num_types = dyn.num_types
    cap = float(dyn.static.capacities[0])
    z_ub = min(dyn.static.z_max, cap / max(float(np.min(dyn.rho0[dyn.rho0 > 0])), 1e-9))
    z_ub = min(z_ub, float(dyn.kernel.bin_edges[-1]))
    levels = np.linspace(0.0, z_ub, grid_levels)
    grids = np.meshgrid(*([levels] * num_types), indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)  # (M, T)

    inst_by_type = dyn.static.utility.weights[:, 0][None, :] * np.log1p(candidates)  # (M, T)
    bins = dyn.kernel.bin_of(candidates.ravel()).reshape(candidates.shape)
    q = np.transpose(dyn.kernel.probabilities, (1, 2, 0))  # (T, B, T')
    q_cand = q[np.arange(num_types)[None, :], bins]  # (M, T, T')

    rho = np.tile(dyn.rho0, (candidates.shape[0], 1))
    welfare = np.zeros(candidates.shape[0])
    alive = np.ones(candidates.shape[0], dtype=bool)
    for t in range(dyn.horizon):
        alive &= np.sum(rho * candidates, axis=1) <= cap + 1e-12 * max(cap, 1.0)
        welfare += dyn.discount**t * np.sum(rho * inst_by_type, axis=1)
        rho = np.einsum("mt,mtu->mu", rho, q_cand)
    return float(np.max(np.where(alive, welfare, -np.inf)))


@pytest.mark.parametrize("discount", [0.5, 0.9])
def test_switching_oracle_keeps_a_constant_plan_above_myopic(discount):
    # the myopic plan puts the two types in different bins; the fixed point,
    # which prices the continuation of each bin, beats it
    dyn = dynamic_benchmark(kernel="switching", discount=discount)
    myopic = plan_policy(dyn, "myopic")
    oracle = plan_policy(dyn, "fixed-point")
    assert set(dyn.kernel.bin_of(myopic.allocations[:, :, 0].ravel())) == {0, 1}
    assert oracle.welfare > myopic.welfare
    for mode in ("myopic", "fixed-point"):
        policy = plan_policy(dyn, mode)
        assert all(row.holds for row in dynamic_incentive_gap(dyn, policy, 10))
        assert all(row.holds for row in dynamic_incentive_gap(dyn, policy, None))


@pytest.mark.parametrize("discount", [0.5, 0.9])
def test_switching_fixed_point_meets_the_best_constant_plan(discount):
    dyn = dynamic_benchmark(kernel="switching", discount=discount)
    assert plan_policy(dyn, "fixed-point").welfare >= _best_constant_welfare(dyn)


@pytest.mark.parametrize("kernel", ["mixing", "allocation", "switching"])
@pytest.mark.parametrize("discount", [0.5, 0.9])
def test_fixed_point_slots_allocate_the_plan(kernel, discount):
    dyn = dynamic_benchmark(kernel=kernel, discount=discount, num_bins=4)
    policy = plan_policy(dyn, "fixed-point")
    assert policy.welfare >= plan_policy(dyn, "myopic").welfare
    for t in range(dyn.horizon):
        slot = dynamic_mechanism_step(policy.rho_path[t], dyn, policy, t)
        assert np.array_equal(slot.z, policy.allocations[t])
        assert np.array_equal(slot.p, policy.prices[t])
        assert np.array_equal(policy.rho_path[t + 1], mean_field_step(policy.rho_path[t], slot.z, dyn.kernel))


def test_fixed_point_that_does_not_settle_is_a_solver_error(monkeypatch):
    dyn = dynamic_benchmark(kernel="switching", discount=0.5)
    monkeypatch.setattr(lsvcg.dynamic, "MAX_PLAN_ITERATIONS", 1)
    with pytest.raises(SolverError, match=r"did not settle in 1 iterations: .* at \d+ of 20 slots"):
        plan_policy(dyn, "fixed-point")


@pytest.mark.parametrize("mode", ["myopic", "fixed-point"])
def test_switching_plan_follows_its_own_flow_and_continuation(mode):
    dyn = dynamic_benchmark(kernel="switching", discount=0.5)
    policy = plan_policy(dyn, mode)
    rho = dyn.rho0
    types = np.arange(dyn.num_types)
    w = dyn.static.utility.weights
    for t in range(dyn.horizon):
        assert np.array_equal(policy.rho_path[t], rho)
        rho = mean_field_step(rho, policy.allocations[t], dyn.kernel)
        bins = dyn.kernel.bin_of(policy.allocations[t][:, 0])
        inst = np.sum(w * np.log1p(policy.allocations[t]), axis=1)
        assert np.array_equal(policy.value_table[t], inst + policy.continuation[t, types, bins])
    assert np.array_equal(policy.rho_path[dyn.horizon], rho)


@pytest.mark.xfail(strict=True, raises=SolverError, reason="demand jumps where a type's best bin switches")
def test_binned_slot_clears_when_a_best_bin_switches_at_the_price():
    # at slot 0, type 0's best allocation drops from 1.0 (bin [1, 1.5)) to
    # 0.5 (bin [0.5, 1)) as the price crosses about 0.712, so demand jumps
    # from 1.2 to 0.9 over the capacity 1.0 and no price clears the market
    dyn = dynamic_benchmark(kernel="allocation", discount=0.5, num_bins=4)
    kernel = TransitionKernel(probabilities=dyn.kernel.probabilities, bin_edges=[0.0, 0.5, 1.0, 1.5, 40.0])
    dyn = DynamicScenario(static=dyn.static, kernel=kernel, discount=0.5, horizon=dyn.horizon, rho0=dyn.rho0)
    policy = plan_policy(dyn, "myopic")
    dynamic_mechanism_step(policy.rho_path[0], dyn, policy, 0)
