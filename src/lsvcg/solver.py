"""Share-weighted allocation solver via per-resource dual bisection.

The program solved here is

    max_z  sum_r rho_r * U(theta_r, z_r)
    s.t.   sum_r rho_r * f_{zeta_r, n}(z_{r, n}) <= C_n   for every resource n,
           0 <= z <= z_max,

with one allocation row per flattened type.  Utility and influence are both
separable across resources, so the dual decouples: for each resource the
aggregate demand at price p is monotone nonincreasing, and the market-clearing
price is found by bisection to machine precision, for every (market, resource)
pair of a batch at once (``clear_markets``), or for one market in Python
floats (``_clear_market``).  Head-count instances are handled by rescaling
capacities so that per-agent allocations coincide with the per-type rows.

Static clearings replay this bisection inside a proven bracket ``(low,
high)``: computed demand exceeds ``C + m`` at ``low`` and falls short of
``C - m`` at ``high``, where the margin ``m`` bounds twice the rounding error
of computed demand.  Exact demand is nonincreasing, so every midpoint below
``low`` computes "over capacity" and every one above ``high`` does not:
those steps go by position, and demand is evaluated only inside the
bracket.  The steps, and so prices, allocations, step counts and errors,
are the plain bisection's bit for bit; a loose bracket only costs
evaluations.  Per lane,

    m = 16 u ((R + 2) max(C, 1) + sum_r rho_r (a_r + 2 b_r z_max)),

``u = 2**-53``.  To first order in ``u``, barring underflow and overflow, it
is twice the error of computed demand near ``C``:

- ``c = w - p a`` carries ``u (p a + c)``, which moves the root of ``A z^2
  + B z = c`` by at most ``u (1 + z)``, its slope in ``c`` being ``1 / (2 A
  z + B) <= min(1 / (p a), z / c)``; the root's other roundings, none of
  them cancelling, add ``6 u z``.
- A load ``f = a z + b z^2`` has slope ``f' <= a + 2 b z_max`` and ``f' z
  <= 2 f``, so with its own three roundings it carries ``u (a + 2 b z_max)
  + 17 u f``, and weighting and summing ``R`` loads adds ``R u D``:
  computed demand is within ``k D + e`` of exact demand ``D``, with ``k =
  (R + 17) u`` and ``e = u sum_r rho_r (a_r + 2 b_r z_max)``.
- If computed demand at ``low`` exceeds ``C + m``, exact demand there, and
  so at every lower midpoint, exceeds ``(C + m - e) / (1 + k)``, and
  computed demand at those exceeds ``C`` if ``(1 - k) m >= 2 (k C + e)``,
  which holds as ``16 (R + 2) >= 2 (R + 17)`` for ``R >= 1``.  The high
  end is symmetric.

Safeguarded Newton steps on log demand against log price (Low and Lapsley
1999) find the brackets (``_newton_brackets``).  Binned dynamic slots, whose
demand jumps where a type's best bin switches, are bracketed by the same
steps and replay the same bisection in their one clearing
(``dynamic._clear_slots``); their brackets are proven by resolving every
near-tie between bins to the side that weakens the bracket, with no switch
price located.

Also provides the exact KKT residual, the implicit-function-theorem
sensitivity of shadow prices to population shares, and the closed-form norm
bound on that sensitivity used by the incentive experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Population, Scenario, ValidationError, _frozen_array

__all__ = [
    "PRICE_TOLERANCE",
    "MAX_BISECTION_STEPS",
    "SolverError",
    "DegeneratePointError",
    "PrimalDualSolution",
    "SensitivityResult",
    "best_response",
    "solve_weighted",
    "clear_markets",
    "kkt_residual",
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
# Newton steps a static clearing takes toward its bracket, at most.
_NEWTON_STEPS = 8
# Sixteen unit roundoffs: the factor of a bracket's margin (module docstring).
_ROUNDING = 16 * 2.0**-53


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
    z = _allocations(_responder(scenario)[0], p[None], scenario.z_max)
    return z[0, :, scenario.type_space.flat_index(theta, zeta)]


def _responder(scenario: Scenario):
    """Closed-form best responses on (market, resource) lanes.

    Returns ``respond``, ``load``, ``hi`` and the tables ``(w, a, b)``.
    ``respond(p)`` maps positive prices ``p`` (K, N) to the maximizers ``z``
    (K, N, R) of ``w log(1+z) - p (a z + b z^2)`` on ``[0, z_max]``.
    Stationarity ``w/(1+z) = p (a + 2 b z)`` is ``A z^2 + B z = c`` with ``A
    = 2 b p``, ``B = (a + 2 b) p`` and ``c = w - p a``, clamped at zero (a
    type takes zero where ``w <= p a``); every type takes its root as ``2 c
    / (B + sqrt(B^2 + 4 A c))``, which does not cancel as ``b -> 0`` and is
    ``c / (p a)`` at ``b = 0``.  ``load(z)`` is every type's load ``a z + b
    z^2``, and ``hi`` (N,) the price ``max_r w/a`` above which no type
    demands anything.  The type tables are laid out (N, R) with
    C-contiguous rows, so demand sums over types are 1-D dots.
    """
    w = np.ascontiguousarray(scenario.type_weights().T)
    a = np.ascontiguousarray(scenario.type_linear().T)
    b = np.ascontiguousarray(scenario.type_quadratic().T)
    two_b, a_2b = 2.0 * b, a + 2.0 * b
    z_max = scenario.z_max

    def respond(p: np.ndarray) -> np.ndarray:
        # 2 c / (B + sqrt(B^2 + 4 A c)), in place
        p = p[..., None]
        c = p * a
        np.subtract(w, c, out=c)
        np.maximum(c, 0.0, out=c)
        B = p * a_2b
        z = p * two_b
        z *= 4.0
        z *= c
        z += B * B
        np.sqrt(z, out=z)
        z += B
        del B
        c *= 2.0
        np.divide(c, z, out=z)
        return np.minimum(z, z_max, out=z)

    def load(z: np.ndarray) -> np.ndarray:
        return a * z + b * z * z

    return respond, load, np.max(w / a, axis=1), (w, a, b)


def _elasticities(z: np.ndarray, a: np.ndarray, b: np.ndarray, z_max: float) -> np.ndarray:
    """Every type's share ``f'^2 (1 + z) / (f' + 2 b (1 + z))`` of ``-p dD/dp`` at its best
    responses ``z`` (K, N, R), ``f' = a + 2 b z``, by stationarity ``w / (1 + z) = p f'``;
    zero where ``z`` is clamped.  Overwrites ``z``."""
    interior = (z > 0.0) & (z < z_max)
    slope = z * b
    slope *= 2.0
    slope += a
    z += 1.0
    curvature = z * b
    curvature *= 2.0
    curvature += slope
    slope *= slope
    slope *= z
    slope /= curvature
    slope *= interior
    return slope


def _allocations(respond, p: np.ndarray, z_max: float) -> np.ndarray:
    """``respond`` at nonnegative prices ``p`` (K, N): a lane at price zero takes ``z_max``."""
    free = p <= 0.0
    if not free.any():
        return respond(p)
    return np.where(free[..., None], z_max, respond(np.where(free, 1.0, p)))


def _influence_matrix(scenario: Scenario, z: np.ndarray) -> np.ndarray:
    return scenario.influence.load(scenario.type_zeta(), z)


def _demand(weights: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Demand (K, N) of markets ``weights`` (K, R) at ``loads`` (K or 1, N, R).

    Each entry is one stacked 1-D dot over contiguous rows: that sums in the
    same order as ``weights[k] @ loads[k, n]``, which einsum, ``np.sum`` and
    matmul over strided rows do not.
    """
    return (loads[:, :, None, :] @ weights[:, None, :, None])[:, :, 0, 0]


def _clear_price(demand, capacity, hi: float, tolerance: float, bracket=None) -> tuple[float, int]:
    """Clearing price of a nonincreasing ``demand`` curve, and the bisection steps taken.

    The scalar twin of :func:`_clear_prices`, for static markets cleared
    one at a time in :func:`_clear_market` (a myopic rollout, where each
    slot's market depends on the last).  On one market it runs four to six
    times faster than the array bisection, whose per-step overhead pays off
    only across many lanes.  It is also the reference the batched
    clearings, static and binned, are tested against.  Zero
    if ``demand(0)`` fits ``capacity``; otherwise the feasible end of
    ``[0, hi]`` halved to machine precision or ``MAX_BISECTION_STEPS``.
    Raises ``SolverError`` if demand there misses by more than
    ``tolerance * max(capacity, 1)``.

    A proven ``bracket`` ``(low, high)`` (module docstring) decides every
    midpoint below ``low`` as over capacity and every one above ``high`` as
    not, without calling ``demand``; the halvings, and so the price, the
    steps and any error, are those of the plain bisection.
    """
    if demand(0.0) <= capacity:
        return 0.0, 0
    low, high = bracket or (0.0, hi)
    lo, steps = 0.0, 0
    for _ in range(MAX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        steps += 1
        if mid < low or (mid <= high and demand(mid) > capacity):
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
    demand, at_zero: np.ndarray, capacity: np.ndarray, hi: np.ndarray, tolerance: float, market_name, bracket=None
):
    """Clearing prices of (market, resource) lanes, and the bisection steps of each.

    Every lane follows :func:`_clear_price`'s rule: zero where its demand at
    price zero, ``at_zero`` (K, N), fits ``capacity`` (N,); otherwise the
    feasible end of ``[0, hi]`` halved until the midpoint equals an end, or
    for ``MAX_BISECTION_STEPS``.  ``demand`` maps positive prices (K, N) to
    demands.  Raises ``SolverError`` naming the first lane whose demand at its
    price misses by more than ``tolerance * max(capacity, 1)``, its market
    ``k`` by ``market_name(k)``.

    With proven brackets ``(low, high)`` (K, N each; module docstring),
    lanes step by position until every moving lane's midpoint is inside its
    bracket, and only then is ``demand`` called; ``MAX_BISECTION_STEPS``
    bounds both kinds of step of a lane.
    """
    free = at_zero <= capacity
    hi = np.broadcast_to(hi, at_zero.shape)
    # A free lane is pinned at lo == hi, so it never moves and costs no step.
    lo = np.where(free, hi, 0.0)
    steps = np.zeros(at_zero.shape, dtype=np.int64)
    if bracket is not None:
        # A midpoint below low or above high differs from both ends, so a
        # positional step always moves; a free lane, whose midpoint is its
        # ends, must see none.
        low, high = bracket[0], np.where(free, np.inf, bracket[1])
    rounds = 0
    while True:
        mid = 0.5 * (lo + hi)
        # A lane steps at most once a round, so none can have used up its
        # budget in the first MAX_BISECTION_STEPS rounds.
        spare = None if rounds < MAX_BISECTION_STEPS else steps < MAX_BISECTION_STEPS
        rounds += 1
        if bracket is not None:
            below, above = mid < low, mid > high
            if spare is not None:
                below &= spare
                above &= spare
            known = below | above
            if known.any():
                steps += known
                lo = np.where(below, mid, lo)
                hi = np.where(above, mid, hi)
                continue
        moving = (mid != lo) & (mid != hi)
        if spare is not None:
            moving &= spare
        if not moving.any():
            break
        steps += moving
        over = demand(mid) > capacity
        if spare is None:
            # A lane that has stopped sits at mid == lo, where demand exceeds
            # capacity, or at mid == hi, where it does not unless hi is still
            # the top of the bracket: either way its price does not move.
            lo = np.where(over, mid, lo)
            hi = np.where(over, hi, mid)
        else:  # a lane out of budget does not move at all
            lo = np.where(moving & over, mid, lo)
            hi = np.where(moving & ~over, mid, hi)
    residual = np.abs(demand(hi) - capacity)
    failed = ~free & ~(residual <= tolerance * np.maximum(capacity, 1.0))
    if failed.any():
        k, n = (int(i) for i in np.argwhere(failed)[0])
        raise SolverError(
            f"{market_name(k)}, resource {n} failed to clear: "
            f"|demand - capacity| = {residual[k, n]:.3e} at bracket "
            f"[{float(lo[k, n])!r}, {float(hi[k, n])!r}] after {int(steps[k, n])} bisection steps"
        )
    return np.where(free, 0.0, hi), steps


def _start_price(w, a, b, capacity):
    """Price at which an unclamped type ``(w, a, b)`` (floats or arrays) loads ``capacity``:
    on a market's weight averages, its clearing price if influence is linear."""
    z = 2.0 * capacity / (a + (a * a + 4.0 * b * capacity) ** 0.5)
    return w / ((1.0 + z) * (a + 2.0 * b * z))


def _newton_brackets(evaluate, x, capacity, margin, hi, settled):
    """Proven brackets ``(low, high)`` of the clearing prices of lanes (K, N), from Newton steps.

    ``evaluate(x, slope)`` gives two demands at positive prices ``x`` (K,
    N): ``below``, such that every midpoint below ``x`` computes "over
    capacity" where ``below`` exceeds ``capacity`` by ``margin``, and
    ``above``, such that every one above ``x`` computes "not over" where
    ``above`` falls short of it by ``margin``; and, if ``slope``, ``-x
    dD/dx``.  Safeguarded Newton steps on log demand against log price (Low
    and Lapsley 1999) go from the start ``x`` (one that leaves the bracket
    halves it instead; a ``settled`` lane, which clears at price zero, keeps
    its start), until every lane not ``settled`` is within its
    margin or ``_NEWTON_STEPS`` are spent; then a probe three margins' worth
    of price to either side of the last iterate.  An end moves only to a
    price that proves it, so ``[0, hi]`` is the bracket of a lane that
    never finds one.
    """
    low, high = np.zeros(x.shape), np.broadcast_to(hi, x.shape)
    for _ in range(_NEWTON_STEPS):
        below, above, elastic = evaluate(x, True)
        over, under = below - capacity, above - capacity
        low = np.where(over > margin, x, low)
        high = np.where(under < -margin, x, high)
        ok = (below > 0.0) & (elastic > 0.0)
        elastic = np.where(ok, elastic, np.inf)
        newton = x * np.exp(np.minimum(np.log(np.where(ok, below / capacity, 1.0)) * below / elastic, 40.0))
        spread = 3.0 * margin * x / elastic
        x = np.where(settled, x, np.where((newton > low) & (newton < high), newton, 0.5 * (low + high)))
        if np.all(((over <= margin) & (under >= -margin)) | settled):
            break
    for probe in (x - spread, x + spread):
        inside = (probe > low) & (probe < high)
        below, above, _ = evaluate(np.where(inside, probe, x), False)
        low = np.where(inside & (below - capacity > margin), probe, low)
        high = np.where(inside & (above - capacity < -margin), probe, high)
    return low, high


def _brackets(responder, rows: np.ndarray, capacity, at_zero, z_max: float):
    """Proven brackets ``(low, high)`` (K, N each) of the clearing prices of markets ``rows`` (K, R).

    :func:`_newton_brackets` from :func:`_start_price`, where both demands
    are the computed demand and the margin is the module docstring's: an
    end moves only to a price whose demand clears capacity by the margin.
    ``responder`` is :func:`_responder`'s; its tables serve here too, since
    fresh ones would cost as much memory as respond's arrays when K is 1.
    """
    respond, load, hi, (w, a, b) = responder
    mass = rows.sum(axis=1, keepdims=True)
    x = _start_price(*((rows @ t.T) / mass for t in (w, a, b)), capacity / mass)
    margin = _ROUNDING * ((rows.shape[1] + 2) * np.maximum(capacity, 1.0) + rows @ (a + 2.0 * b * z_max).T)

    def evaluate(x: np.ndarray, slope: bool):
        z = respond(x)
        demand = _demand(rows, load(z))
        return demand, demand, _demand(rows, _elasticities(z, a, b, z_max)) if slope else None

    return _newton_brackets(evaluate, x, capacity, margin, hi, at_zero <= capacity)


def _checked_markets(scenario: Scenario, weights, capacities) -> tuple[np.ndarray, np.ndarray]:
    """``weights`` (K, R) and ``capacities`` (N,) as float arrays; a ``ValidationError`` if either is unusable."""
    weights = np.ascontiguousarray(weights, dtype=float)
    if (
        weights.ndim != 2
        or weights.shape[1] != scenario.type_space.num_types
        or not np.all(np.isfinite(weights))
        or np.any(weights < 0)
        or np.any(weights.sum(axis=1) <= 0)
    ):
        raise ValidationError(
            "weights must be finite and nonnegative with positive total, one per flattened type in each market"
        )
    caps = np.asarray(capacities, dtype=float)
    if caps.shape != (scenario.type_space.num_resources,) or not np.all(np.isfinite(caps)) or np.any(caps <= 0):
        raise ValidationError("capacities must be finite and strictly positive, one per resource")
    return weights, caps


def _response(w: float, a: float, b: float, p: float, z_max: float) -> float:
    """:func:`_responder`'s best response on one lane at a price ``p > 0``, in Python floats."""
    c = max(w - p * a, 0.0)
    B = p * (a + 2.0 * b)
    return min(2.0 * c / (B + math.sqrt(4.0 * (p * (2.0 * b)) * c + B * B)), z_max)


def _bracket(respond, total, lanes, weights, capacity: float, hi: float, z_max: float) -> tuple[float, float]:
    """:func:`_brackets` on one (market, resource) lane, in Python floats.

    ``respond(p)`` lists the best responses of ``lanes`` (the ``(w, a, b)``
    of every type) at a price ``p > 0``, and ``total`` weighs their loads
    by ``weights`` as the lane's demand does.
    """
    mass = sum(weights)
    x = _start_price(*(sum(r * t[i] for r, t in zip(weights, lanes)) / mass for i in range(3)), capacity / mass)
    steepest = sum(r * (a + 2.0 * b * z_max) for r, (_, a, b) in zip(weights, lanes))
    margin = _ROUNDING * ((len(lanes) + 2) * max(capacity, 1.0) + steepest)
    low, high, spread = 0.0, hi, 0.0
    for _ in range(_NEWTON_STEPS):
        z = respond(x)
        demand = total(z)
        excess = demand - capacity
        if excess > margin:
            low = x
        elif excess < -margin:
            high = x
        elastic = 0.0
        for r, (_, a, b), z_r in zip(weights, lanes, z):
            if 0.0 < z_r < z_max:
                slope = a + 2.0 * b * z_r
                elastic += r * slope * slope * (1.0 + z_r) / (slope + 2.0 * b * (1.0 + z_r))
        newton = -1.0
        if demand > 0.0 and elastic > 0.0:
            newton = x * math.exp(min(math.log(demand / capacity) * demand / elastic, 40.0))
            spread = 3.0 * margin * x / elastic
        x = newton if low < newton < high else 0.5 * (low + high)
        if abs(excess) <= margin:
            break
    for probe in (x - spread, x + spread):
        if low < probe < high:
            excess = total(respond(probe)) - capacity
            if excess > margin:
                low = probe
            elif excess < -margin:
                high = probe
    return low, high


def _clear_market(scenario: Scenario, weights, capacities) -> tuple[np.ndarray, np.ndarray, int]:
    """Clear one market resource by resource: ``(p (N,), z (R, N), steps)``.

    Bit for bit :func:`clear_markets` on ``weights[None]``, with its checks
    and errors (a failure names its resource): best responses take the same
    float operations in the same order (:func:`_response`), and demand is
    one ``np.dot`` over a contiguous row, as in :func:`_demand`.  For
    markets cleared one at a time, where arrays do not pay off.  Each
    resource that does not clear at zero is bracketed (:func:`_bracket`)
    before its bisection.
    """
    rows, caps = _checked_markets(scenario, np.asarray(weights, dtype=float)[None], capacities)
    tables = [t.T.tolist() for t in (scenario.type_weights(), scenario.type_linear(), scenario.type_quadratic())]
    prices, allocations, steps, z_max, row = [], [], 0, scenario.z_max, rows[0].tolist()
    last = None  # the responses demand was last evaluated at: the residual's, at the price
    for n, (cap, *lanes) in enumerate(zip(caps.tolist(), *tables)):
        lanes = list(zip(*lanes))  # (w, a, b) of every type

        def respond(p: float) -> list[float]:
            if p <= 0.0:
                return [z_max] * len(lanes)
            return [_response(w, a, b, p, z_max) for w, a, b in lanes]

        def total(z: list[float]) -> float:
            return np.dot(rows[0], [a * z + b * z * z for (_, a, b), z in zip(lanes, z)])

        def demand(p: float) -> float:
            nonlocal last
            last = respond(p)
            return total(last)

        hi = max(w / a for w, a, _ in lanes)
        bracket = _bracket(respond, total, lanes, row, cap, hi, z_max) if demand(0.0) > cap else None
        try:
            price, lane_steps = _clear_price(demand, cap, hi, PRICE_TOLERANCE, bracket)
        except SolverError as exc:
            raise SolverError(f"resource {n} {exc}") from None
        prices.append(price)
        allocations.append(last)
        steps += lane_steps
    return np.array(prices), np.array(allocations).T.copy(), steps


def clear_markets(scenario: Scenario, weights, capacities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clear K weighted markets that share the scenario and ``capacities``.

    Row ``k`` of ``weights`` (K, R) weighs the flattened types of market
    ``k``; rows need not sum to one, and a type may carry zero weight.  All
    (market, resource) prices of a batch are bracketed together
    (:func:`_brackets`) and then found in one array bisection that
    evaluates demand only inside the brackets, each bit for bit what a
    scalar bisection of that resource's demand gives; markets go in batches
    of ``_BATCH_ELEMENTS // (R * N)``, which bounds memory.
    Returns the prices (K, N), every type's allocation at them (K, R, N),
    and the bisection steps of each market (K,).
    """
    num_types, num_resources = scenario.type_space.num_types, scenario.type_space.num_resources
    weights, caps = _checked_markets(scenario, weights, capacities)
    responder = _responder(scenario)
    respond, load, hi, _ = responder
    at_z_max = load(np.full((1, num_resources, num_types), scenario.z_max))
    num_markets = len(weights)
    prices = np.empty((num_markets, num_resources))
    allocations = np.empty((num_markets, num_types, num_resources))
    steps = np.empty(num_markets, dtype=np.int64)
    size = max(1, _BATCH_ELEMENTS // (num_types * num_resources))
    z = None  # the responses demand was last evaluated at

    def demand(p: np.ndarray) -> np.ndarray:
        """Demand of the batch's markets ``rows``."""
        nonlocal z
        z = respond(p)
        return _demand(rows, load(z))

    for start in range(0, num_markets, size):
        batch = slice(start, start + size)
        rows = weights[batch]
        at_zero = _demand(rows, at_z_max)
        prices[batch], lane_steps = _clear_prices(
            demand,
            at_zero,
            caps,
            hi,
            PRICE_TOLERANCE,
            lambda k, start=start: f"market {start + k}",
            _brackets(responder, rows, caps, at_zero, scenario.z_max),
        )
        # the last evaluation is the residual's, at every lane's price but
        # the free ones, which take z_max at price zero
        allocations[batch] = np.where(prices[batch, :, None] <= 0.0, scenario.z_max, z).transpose(0, 2, 1)
        steps[batch] = lane_steps.sum(axis=1)
    return prices, allocations, steps


def solve_weighted(scenario: Scenario, weights, capacities=None) -> PrimalDualSolution:
    """Solve the weighted program for arbitrary positive type weights.

    ``weights`` need not sum to one, and individual types may carry zero
    weight (their best-response rows are still reported, so a full menu of
    per-type allocations exists even for unrepresented reports).  This is the
    entry point of the share-normalized program (the scenario's shares at its
    capacities), of the head-count program (the empirical shares of an agent
    list, with ``capacities`` the totals divided by its head count) and of
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
