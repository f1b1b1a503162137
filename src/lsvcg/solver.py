"""Share-weighted allocation solver via per-resource dual bisection.

The program solved here is

    max_z  sum_r rho_r * U(theta_r, z_r)
    s.t.   sum_r rho_r * f_{zeta_r, n}(z_{r, n}) <= C_n   for every resource n,
           0 <= z <= z_max,

with one allocation row per flattened type.  Utility and influence are both
separable across resources, so the dual decouples: for each resource the
aggregate demand at price p is monotone nonincreasing, and the market-clearing
price is found by bisection to machine precision.  Head-count instances are
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


def _best_response_column(w, a, b, price, z_max):
    """Vectorized per-type maximizer of w*log(1+z) - price*(a*z + b*z^2) on [0, z_max].

    ``w``, ``a``, ``b`` are aligned 1-D arrays for one resource; ``price`` is
    a scalar.  Stationarity w/(1+z) = price*(a + 2b z) is a quadratic in z,
    solved in closed form and clamped.
    """
    if price <= 0.0:
        return np.full(w.shape, z_max)
    z = np.zeros(w.shape)
    interior = w > price * a  # marginal utility at 0 exceeds marginal cost
    if np.any(interior):
        wi, ai, bi = w[interior], a[interior], b[interior]
        zi = np.empty(wi.shape)
        lin = bi == 0.0
        if np.any(lin):
            zi[lin] = wi[lin] / (price * ai[lin]) - 1.0
        quad = ~lin
        if np.any(quad):
            # 2pb z^2 + p(a + 2b) z + (pa - w) = 0, positive root.
            A = 2.0 * price * bi[quad]
            B = price * (ai[quad] + 2.0 * bi[quad])
            Cc = price * ai[quad] - wi[quad]
            zi[quad] = (-B + np.sqrt(B * B - 4.0 * A * Cc)) / (2.0 * A)
        z[interior] = zi
    return np.clip(z, 0.0, z_max)


def best_response(theta: int, zeta: int, p, scenario: Scenario) -> np.ndarray:
    """Price-taking optimal allocation of a ``(theta, zeta)`` agent.

    Maximizes ``U(theta, x) - sum_n p_n f_{zeta,n}(x_n)`` over ``[0, z_max]^N``.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValidationError("prices must be nonnegative")
    return _response_matrix(scenario, p)[scenario.type_space.flat_index(theta, zeta)]


def _response_matrix(scenario: Scenario, p: np.ndarray) -> np.ndarray:
    """Best responses of every flattened type at prices ``p`` ((R, N) array)."""
    w = scenario.type_weights()
    a = scenario.type_linear()
    b = scenario.type_quadratic()
    z = np.empty_like(w)
    for n in range(z.shape[1]):
        z[:, n] = _best_response_column(w[:, n], a[:, n], b[:, n], float(p[n]), scenario.z_max)
    return z


def _influence_matrix(scenario: Scenario, z: np.ndarray) -> np.ndarray:
    return scenario.influence.load(scenario.type_zeta(), z)


def _clear_price(demand, capacity, hi: float, tolerance: float) -> tuple[float, int]:
    """Clearing price of a nonincreasing ``demand`` curve, and the bisection steps taken.

    Zero if ``demand(0)`` fits ``capacity``; otherwise the feasible end of
    ``[0, hi]`` halved to machine precision or ``MAX_BISECTION_STEPS``.  Raises
    ``SolverError`` if demand there misses by more than ``tolerance * max(capacity, 1)``.
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
    if residual > tolerance * max(capacity, 1.0):
        raise SolverError(
            f"failed to clear: |demand - capacity| = {residual:.3e} "
            f"at bracket [{lo!r}, {hi!r}] after {steps} bisection steps"
        )
    return hi, steps


def solve_weighted(scenario: Scenario, weights, capacities=None) -> PrimalDualSolution:
    """Solve the weighted program for arbitrary positive type weights.

    ``weights`` need not sum to one, and individual types may carry zero
    weight (their best-response rows are still reported, so a full menu of
    per-type allocations exists even for unrepresented reports).  This is the
    entry point shared by the share-normalized and head-count solvers, the
    leave-one-out subproblems, and finite-difference probes.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (scenario.type_space.num_types,) or np.any(weights < 0) or weights.sum() <= 0:
        raise ValidationError("weights must be nonnegative with positive total, one per flattened type")
    caps = scenario.capacities if capacities is None else np.asarray(capacities, dtype=float)
    if np.any(caps <= 0):
        raise ValidationError("capacities must be strictly positive")

    w = scenario.type_weights()
    a = scenario.type_linear()
    b = scenario.type_quadratic()
    num_resources = scenario.type_space.num_resources
    p = np.zeros(num_resources)
    total_iters = 0

    for n in range(num_resources):
        wn, an, bn = w[:, n], a[:, n], b[:, n]

        def demand(price: float) -> float:
            z = _best_response_column(wn, an, bn, price, scenario.z_max)
            return float(weights @ (an * z + bn * z * z))

        try:
            # demand is zero at the top of the bracket
            p[n], steps = _clear_price(demand, caps[n], float(np.max(wn / an)), PRICE_TOLERANCE)
        except SolverError as exc:
            raise SolverError(f"market for resource {n} {exc}") from None
        total_iters += steps

    z = _response_matrix(scenario, p)
    slack = caps - weights @ _influence_matrix(scenario, z)
    solution = PrimalDualSolution(
        z=z,
        p=p,
        kkt_residual=0.0,
        constraint_slack=slack,
        iterations=total_iters,
        weights=weights,
        capacities=caps,
    )
    return replace(solution, kkt_residual=kkt_residual(solution, scenario))


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
