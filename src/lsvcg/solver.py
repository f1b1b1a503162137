"""Share-weighted allocation solver via per-resource dual bisection.

The program solved here is

    max_z  sum_r rho_r * U(theta_r, z_r)
    s.t.   sum_r rho_r * f_{zeta_r, n}(z_{r, n}) <= C_n   for every resource n,
           0 <= z <= z_max,

with one allocation row per flattened type.  Utility and influence are both
separable across resources, so the dual decouples: for each resource the
aggregate demand at price p is monotone nonincreasing, and the market-clearing
price is found by bisection to machine precision, for every (market, resource)
pair of a batch at once (``clear_markets``).  Head-count instances are
handled by rescaling capacities so that per-agent allocations coincide with
the per-type rows.

Also provides the exact KKT residual, the implicit-function-theorem
sensitivity of shadow prices to population shares, and the closed-form norm
bound on that sensitivity used by the incentive experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import Population, Scenario, ValidationError, _frozen_array, empirical_population

__all__ = [
    "PRICE_TOLERANCE",
    "MAX_BISECTION_STEPS",
    "SolverError",
    "DegeneratePointError",
    "PrimalDualSolution",
    "SensitivityResult",
    "best_response",
    "solve_population",
    "solve_agent_list",
    "solve_weighted",
    "clear_markets",
    "kkt_residual",
    "aggregate_utility",
    "price_sensitivity",
    "sensitivity_norm_bound_check",
]


class SolverError(RuntimeError):
    """The dual search failed to clear the market within its iteration budget."""


class DegeneratePointError(ValueError):
    """Sensitivity undefined at a degenerate point (slack constraint or corner)."""


#: Largest relative clearing miss ``|demand - capacity| / max(capacity, 1)``
#: a static market may leave.
PRICE_TOLERANCE = 1e-10
#: Step budget of every bisection; halving ``[0, hi]`` reaches machine
#: precision well within it.
MAX_BISECTION_STEPS = 200
# Array elements (markets x types x resources) that clear_markets bisects
# at once: each of its temporaries stays near half a megabyte.
_BATCH_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class PrimalDualSolution:
    """Optimal allocations, shadow prices, and diagnostics.

    ``z`` has one row per flattened type; ``capacities`` records the levels
    the instance was solved against (head-count solves rescale them).
    """

    z: np.ndarray  # (num_types, num_resources)
    p: np.ndarray  # (num_resources,)
    kkt_residual: float
    constraint_slack: np.ndarray  # (num_resources,)
    iterations: int
    weights: np.ndarray  # population weights the instance was solved with
    capacities: np.ndarray

    def __post_init__(self):
        for name in ("z", "p", "constraint_slack", "weights", "capacities"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


@dataclass(frozen=True)
class SensitivityResult:
    """Jacobian of shadow prices with respect to population weights."""

    dp_drho: np.ndarray  # (num_resources, num_types)

    def __post_init__(self):
        arr = _frozen_array(self.dp_drho)
        if not np.all(np.isfinite(arr)):
            raise SolverError("sensitivity Jacobian contains non-finite entries")
        object.__setattr__(self, "dp_drho", arr)


def best_response(theta: int, zeta: int, p, scenario: Scenario) -> np.ndarray:
    """Price-taking optimal allocation of a ``(theta, zeta)`` agent.

    Maximizes ``U(theta, x) - sum_n p_n f_{zeta,n}(x_n)`` over ``[0, z_max]^N``.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValidationError("prices must be nonnegative")
    return _response_matrix(scenario, p)[scenario.type_space.flat_index(theta, zeta)]


def _responder(scenario: Scenario):
    """Closed-form best responses on (market, resource) lanes.

    Returns ``respond``, ``load`` and ``hi``.  ``respond(p)`` maps positive
    prices ``p`` (K, N) to the maximizers ``z`` (K, N, R) of
    ``w log(1+z) - p (a z + b z^2)`` on ``[0, z_max]``.  Stationarity
    ``w/(1+z) = p (a + 2 b z)`` is linear in ``z`` where ``b = 0`` and a
    quadratic otherwise, solved for its positive root; a type takes zero
    where ``w <= p a``.  ``load(z)`` is every type's load ``a z + b z^2``,
    and ``hi`` (N,) the price ``max_r w/a`` above which no type demands
    anything.  The type tables are laid out (N, R) with C-contiguous rows,
    so demand sums over types are 1-D dots.
    """
    w = np.ascontiguousarray(scenario.type_weights().T)
    a = np.ascontiguousarray(scenario.type_linear().T)
    b = np.ascontiguousarray(scenario.type_quadratic().T)
    linear = b == 0.0
    all_linear, any_linear = bool(np.all(linear)), bool(np.any(linear))
    # Linear lanes solve the quadratic too, with a coefficient that keeps its
    # root finite; np.where then discards it.
    b_safe = np.where(linear, 1.0, b)
    two_b, a_2b = 2.0 * b_safe, a + 2.0 * b_safe
    z_max = scenario.z_max

    def respond(p: np.ndarray) -> np.ndarray:
        p = p[..., None]
        pa = p * a
        if all_linear:
            z = w / pa - 1.0
        else:
            A = p * two_b
            B = p * a_2b
            # Where w <= p a the clamp makes the root exactly zero; elsewhere
            # it changes nothing.
            C = np.minimum(pa - w, 0.0)
            z = (np.sqrt(B * B - 4.0 * A * C) - B) / (2.0 * A)
            if any_linear:
                z = np.where(linear, w / pa - 1.0, z)
        # Where w > p a the root is nonnegative; elsewhere it is not positive.
        return np.minimum(np.maximum(z, 0.0), z_max)

    def load(z: np.ndarray) -> np.ndarray:
        return a * z if all_linear else a * z + b * z * z

    return respond, load, np.max(w / a, axis=1)


def _allocations(respond, p: np.ndarray, z_max: float) -> np.ndarray:
    """``respond`` at nonnegative prices ``p`` (K, N): a lane at price zero takes ``z_max``."""
    free = p <= 0.0
    if not free.any():
        return respond(p)
    return np.where(free[..., None], z_max, respond(np.where(free, 1.0, p)))


def _response_matrix(scenario: Scenario, p: np.ndarray) -> np.ndarray:
    """Best responses of every flattened type at prices ``p`` ((R, N) array)."""
    respond = _responder(scenario)[0]
    return _allocations(respond, np.asarray(p, dtype=float)[None, :], scenario.z_max)[0].T.copy()


def _influence_matrix(scenario: Scenario, z: np.ndarray) -> np.ndarray:
    return scenario.influence.load(scenario.type_zeta(), z)


def _demand(weights: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Demand (K, N) of markets ``weights`` (K, R) at ``loads`` (K or 1, N, R).

    Each entry is one stacked 1-D dot over contiguous rows: that sums in the
    same order as ``weights[k] @ loads[k, n]``, which einsum, ``np.sum`` and
    matmul over strided rows do not.
    """
    return (loads[:, :, None, :] @ weights[:, None, :, None])[:, :, 0, 0]


def _clear_price(demand, capacity, hi: float, tolerance: float) -> tuple[float, int]:
    """Clearing price of a nonincreasing ``demand`` curve, and the bisection steps taken.

    The scalar twin of :func:`_clear_prices`, kept for the binned dynamic slot,
    whose demand is a Python loop over bins.  Zero if ``demand(0)`` fits
    ``capacity``; otherwise the feasible end of ``[0, hi]`` halved to machine
    precision or ``MAX_BISECTION_STEPS``.  Raises ``SolverError`` if demand
    there misses by more than ``tolerance * max(capacity, 1)``.
    """
    if demand(0.0) <= capacity:
        return 0.0, 0
    lo, steps = 0.0, 0
    for _ in range(MAX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        steps += 1
        if demand(mid) > capacity:
            lo = mid
        else:
            hi = mid
    residual = abs(demand(hi) - capacity)
    if not residual <= tolerance * max(capacity, 1.0):
        raise SolverError(
            f"failed to clear: |demand - capacity| = {residual:.3e} "
            f"at bracket [{lo!r}, {hi!r}] after {steps} bisection steps"
        )
    return hi, steps


def _clear_prices(
    demand, at_zero: np.ndarray, capacity: np.ndarray, hi: np.ndarray, tolerance: float, first_market: int
):
    """Clearing prices of (market, resource) lanes, and the bisection steps of each.

    Every lane follows :func:`_clear_price`'s rule: zero where its demand at
    price zero, ``at_zero`` (K, N), fits ``capacity`` (N,); otherwise the
    feasible end of ``[0, hi]`` halved until the midpoint equals an end, or
    for ``MAX_BISECTION_STEPS``.  ``demand`` maps positive prices (K, N) to
    demands.  Raises ``SolverError`` naming the first lane whose demand at its
    price misses by more than ``tolerance * max(capacity, 1)``; markets are
    numbered from ``first_market``.
    """
    free = at_zero <= capacity
    hi = np.broadcast_to(hi, at_zero.shape)
    # A free lane is pinned at lo == hi, so it never moves and costs no step.
    lo = np.where(free, hi, 0.0)
    steps = np.zeros(at_zero.shape, dtype=np.int64)
    for _ in range(MAX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        moving = (mid != lo) & (mid != hi)
        if not moving.any():
            break
        steps += moving
        # A lane that has stopped sits at mid == lo, where demand exceeds
        # capacity, or at mid == hi, where it does not unless hi is still the
        # top of the bracket: either way its price does not move.
        over = demand(mid) > capacity
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    residual = np.abs(demand(hi) - capacity)
    failed = ~free & ~(residual <= tolerance * np.maximum(capacity, 1.0))
    if failed.any():
        k, n = (int(i) for i in np.argwhere(failed)[0])
        raise SolverError(
            f"market {first_market + k}, resource {n} failed to clear: "
            f"|demand - capacity| = {residual[k, n]:.3e} at bracket "
            f"[{float(lo[k, n])!r}, {float(hi[k, n])!r}] after {int(steps[k, n])} bisection steps"
        )
    return np.where(free, 0.0, hi), steps


def clear_markets(scenario: Scenario, weights, capacities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clear K weighted markets that share the scenario and ``capacities``.

    Row ``k`` of ``weights`` (K, R) weighs the flattened types of market
    ``k``; rows need not sum to one, and a type may carry zero weight.  All
    (market, resource) prices are found in one array bisection, each bit for
    bit what a scalar bisection of that resource's demand gives; markets go
    in batches of ``_BATCH_ELEMENTS // (R * N)``, which bounds memory.
    Returns the prices (K, N), every type's allocation at them (K, R, N),
    and the bisection steps of each market (K,).
    """
    num_types, num_resources = scenario.type_space.num_types, scenario.type_space.num_resources
    weights = np.ascontiguousarray(weights, dtype=float)
    if (
        weights.ndim != 2
        or weights.shape[1] != num_types
        or not np.all(np.isfinite(weights))
        or np.any(weights < 0)
        or np.any(weights.sum(axis=1) <= 0)
    ):
        raise ValidationError(
            "weights must be finite and nonnegative with positive total, one per flattened type in each market"
        )
    caps = np.asarray(capacities, dtype=float)
    if caps.shape != (num_resources,) or not np.all(np.isfinite(caps)) or np.any(caps <= 0):
        raise ValidationError("capacities must be finite and strictly positive, one per resource")

    respond, load, hi = _responder(scenario)
    at_z_max = load(np.full((1, num_resources, num_types), scenario.z_max))
    num_markets = len(weights)
    prices = np.empty((num_markets, num_resources))
    allocations = np.empty((num_markets, num_types, num_resources))
    steps = np.empty(num_markets, dtype=np.int64)
    size = max(1, _BATCH_ELEMENTS // (num_types * num_resources))
    for start in range(0, num_markets, size):
        batch = slice(start, start + size)
        rows = weights[batch]
        prices[batch], lane_steps = _clear_prices(
            lambda p, rows=rows: _demand(rows, load(respond(p))),
            _demand(rows, at_z_max),
            caps,
            hi,
            PRICE_TOLERANCE,
            start,
        )
        allocations[batch] = _allocations(respond, prices[batch], scenario.z_max).transpose(0, 2, 1)
        steps[batch] = lane_steps.sum(axis=1)
    return prices, allocations, steps


def solve_weighted(scenario: Scenario, weights, capacities=None) -> PrimalDualSolution:
    """Solve the weighted program for arbitrary positive type weights.

    ``weights`` need not sum to one, and individual types may carry zero
    weight (their best-response rows are still reported, so a full menu of
    per-type allocations exists even for unrepresented reports).  This is the
    entry point shared by the share-normalized and head-count solvers and
    finite-difference probes; :func:`clear_markets` clears many markets at once.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1:
        raise ValidationError("weights must be one per flattened type")
    caps = scenario.capacities if capacities is None else np.asarray(capacities, dtype=float)
    prices, allocations, steps = clear_markets(scenario, weights[None, :], caps)
    z = allocations[0]
    solution = PrimalDualSolution(
        z=z,
        p=prices[0],
        kkt_residual=0.0,
        constraint_slack=_slack(scenario, weights, z, caps),
        iterations=int(steps[0]),
        weights=weights,
        capacities=caps,
    )
    return replace(solution, kkt_residual=kkt_residual(solution, scenario))


def _slack(scenario: Scenario, weights: np.ndarray, z: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Capacity minus the ``weights``-weighted load of allocations ``z`` (R, N)."""
    return capacities - weights @ _influence_matrix(scenario, z)


def solve_population(scenario: Scenario, rho: Population | None = None) -> PrimalDualSolution:
    """Solve the share-weighted program at the scenario's capacities."""
    pop = scenario.population if rho is None else rho
    return solve_weighted(scenario, pop.shares, scenario.capacities)


def solve_agent_list(
    assignments: Sequence[tuple[int, int]], scenario: Scenario
) -> tuple[PrimalDualSolution, Population]:
    """Solve the head-count program over an explicit agent list.

    The scenario's capacities are read as totals shared by the listed agents;
    dividing them by the head count reduces the problem to the share-weighted
    form, whose rows are exactly the per-agent allocations (agents of equal
    type receive equal amounts).  Shadow prices agree with the head-count
    program's own duals.
    """
    pop = empirical_population(assignments, scenario.type_space)
    solution = solve_weighted(scenario, pop.shares, scenario.capacities / pop.num_agents)
    return solution, pop


def aggregate_utility(scenario: Scenario, weights, z: np.ndarray) -> float:
    """Weighted aggregate utility of a per-type allocation matrix."""
    weights = np.asarray(weights, dtype=float)
    w = scenario.type_weights()
    return float(np.sum(weights[:, None] * w * np.log1p(z)))


def kkt_residual(solution: PrimalDualSolution, scenario: Scenario) -> float:
    """Exact optimality residual of a candidate primal-dual pair.

    Sum of three violation maxima: stationarity at interior coordinates
    (with signed one-sided checks at the clamped corners), complementary
    slackness, and primal infeasibility, at the solution's own weights and
    capacities.  Zero exactly at the optimum.
    """
    z, p = solution.z, solution.p
    grad_u = scenario.type_weights() / (1.0 + z)
    grad_cost = p[None, :] * scenario.influence.slope(scenario.type_zeta(), z)
    diff = grad_u - grad_cost

    interior = (z > 0.0) & (z < scenario.z_max)
    stationarity = float(np.max(np.abs(diff[interior]))) if np.any(interior) else 0.0
    at_zero = z <= 0.0
    if np.any(at_zero):
        stationarity = max(stationarity, float(np.max(np.maximum(diff[at_zero], 0.0))))
    at_cap = z >= scenario.z_max
    if np.any(at_cap):
        stationarity = max(stationarity, float(np.max(np.maximum(-diff[at_cap], 0.0))))

    load = solution.weights @ _influence_matrix(scenario, z)
    slack = solution.capacities - load
    complementarity = float(np.max(np.abs(p * slack))) if slack.size else 0.0
    infeasibility = float(np.max(np.maximum(-slack, 0.0)))
    return stationarity + complementarity + infeasibility


def _sensitivity_system(scenario: Scenario, weights: np.ndarray, solution: PrimalDualSolution):
    """Assemble the price-sensitivity linear system at a nondegenerate point.

    Differentiating the stationarity rows and the active capacity rows of the
    optimality system gives, for each resource (the chosen families are
    separable, so resources decouple into a diagonal system),

        [ sum_r rho_r f'_{r,n}^2 / (p_n f''_{r,n} - U''_{r,n}) ] dp_n = f_{s,n}(z_s) drho_s.
    """
    z, p = solution.z, solution.p
    eps = 1e-9
    if np.any(p <= eps):
        raise DegeneratePointError("sensitivity undefined at degenerate point: a shadow price is zero")
    if np.any(np.abs(solution.constraint_slack) > 1e-6 * np.maximum(solution.capacities, 1.0)):
        raise DegeneratePointError("sensitivity undefined at degenerate point: a capacity constraint is slack")
    if np.any(z <= eps) or np.any(z >= scenario.z_max * (1.0 - 1e-12)):
        raise DegeneratePointError("sensitivity undefined at degenerate point: an allocation sits at a corner")

    w = scenario.type_weights()
    b = scenario.type_quadratic()
    f_prime = scenario.influence.slope(scenario.type_zeta(), z)
    curvature = p[None, :] * (2.0 * b) + w / (1.0 + z) ** 2  # p f'' - U'' > 0
    system = np.diag(np.sum(weights[:, None] * f_prime**2 / curvature, axis=0))
    f_values = _influence_matrix(scenario, z)  # (R, N)
    return system, f_values


def price_sensitivity(
    scenario: Scenario,
    rho: Population | np.ndarray,
    solution: PrimalDualSolution,
) -> SensitivityResult:
    """Jacobian d p*/d rho of shadow prices with respect to type weights.

    Requires a nondegenerate solution: every capacity binding with positive
    price and every allocation strictly interior.  Validated against central
    finite differences of the solver; the closed form follows the implicit
    function theorem applied to the stationarity-plus-clearing system.
    """
    weights = rho.shares if isinstance(rho, Population) else np.asarray(rho, dtype=float)
    system, f_values = _sensitivity_system(scenario, weights, solution)
    # One column per type: solve (N x N) system against f_r(z_r).
    dp = np.linalg.solve(system, f_values.T)
    return SensitivityResult(dp_drho=dp)


def sensitivity_norm_bound_check(
    scenario: Scenario,
    rho: Population,
    solution: PrimalDualSolution,
) -> tuple[float, float, bool]:
    """Compare max_r |f_r(z_r) . dp/drho_r| against its closed-form ceiling.

    The ceiling is ``|Z| * sum_theta L_theta * sum_n C_n^2 /
    (I * L_f^2 * min_r rho_r^4)`` with the capacities of the solved instance;
    ``I`` is the scenario's head count, which must be finite.
    """
    if not rho.is_finite:
        raise ValidationError("the sensitivity norm bound requires a finite population")
    sens = price_sensitivity(scenario, rho, solution)
    f_values = _influence_matrix(scenario, solution.z)
    lhs = float(np.max(np.abs(np.sum(f_values * sens.dp_drho.T, axis=1))))

    l_theta_sum = float(np.sum(np.max(scenario.utility.weights, axis=1)))
    l_f = scenario.influence.derivative_lower_bound
    caps = solution.capacities
    min_rho = float(np.min(rho.shares))
    rhs = (
        scenario.type_space.num_zeta
        * l_theta_sum
        * float(np.sum(caps**2))
        / (rho.num_agents * l_f**2 * min_rho**4)
    )
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)
