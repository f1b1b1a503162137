"""Dynamic allocation with Markov types and a deterministic mean-field flow.

Agents carry a single utility type ``theta`` (the influence dimension is
dropped; loads are the allocations themselves), evolving between slots by a
transition kernel conditioned on the current type and a *bin* of the received
allocation.  In the infinite-population regime agent chains are independent,
so the population distribution ``rho_t`` follows the deterministic flow

    rho_{t+1}(theta') = sum_theta rho_t(theta) * Q(theta' | theta, bin(z_theta)).

A planner policy fixes per-slot per-type allocations; the discounted value of
holding a type under that policy backs up through a finite horizon chosen so
the tail weight ``delta^H`` is below a truncation tolerance.  The per-slot
mechanism prices capacity against reported shares, using instantaneous
utility plus the frozen policy continuation as each type's objective, and
charges ``p_t . z_t``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations
from typing import Literal

import numpy as np

from .incentives import _gain_bound_terms, gain_within_bound
from .model import (
    Scenario,
    ValidationError,
    _frozen_array,
    _read_document,
    _require,
    _require_number,
    scenario_from_dict,
    scenario_to_dict,
    utility_value,
)
from .solver import SolverError, _clear_market, _clear_prices, _newton_brackets, clear_markets

__all__ = [
    "TransitionKernel",
    "DynamicScenario",
    "Policy",
    "SlotOutcome",
    "DynamicIncentiveRow",
    "mean_field_step",
    "mean_field_step_monte_carlo",
    "plan_policy",
    "plan_welfare",
    "value_u_sigma",
    "dynamic_mechanism_step",
    "dynamic_incentive_gap",
    "load_dynamic_scenario",
    "save_dynamic_scenario",
]


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic type transitions conditioned on an allocation bin.

    ``probabilities[theta_next, theta_now, k]`` with bins delimited by
    ``bin_edges`` (length ``num_bins + 1``, increasing); allocations are
    binned on their first resource and must fall inside the covered range.
    A single bin makes the kernel allocation-independent.
    """

    probabilities: np.ndarray  # (T, T, B)
    bin_edges: np.ndarray  # (B + 1,)

    def __post_init__(self):
        q = _frozen_array(self.probabilities)
        edges = _frozen_array(self.bin_edges)
        if q.ndim != 3 or q.shape[0] != q.shape[1]:
            raise ValidationError("kernel.probabilities must have shape (T, T, num_bins)")
        if (
            edges.ndim != 1
            or edges.size != q.shape[2] + 1
            or not np.all(np.isfinite(edges))
            or np.any(np.diff(edges) <= 0)
        ):
            raise ValidationError("kernel.bin_edges must be finite and increasing with num_bins + 1 entries")
        if not np.all((q >= 0) & (q <= 1)):
            raise ValidationError("kernel.probabilities must be finite and lie in [0, 1]")
        col_sums = q.sum(axis=0)
        if np.any(np.abs(col_sums - 1.0) > 1e-12):
            raise ValidationError("kernel.probabilities must sum to 1 over theta_next for every (theta, bin)")
        object.__setattr__(self, "probabilities", q)
        object.__setattr__(self, "bin_edges", edges)

    @property
    def num_types(self) -> int:
        return self.probabilities.shape[0]

    @property
    def num_bins(self) -> int:
        return self.probabilities.shape[2]

    @property
    def allocation_independent(self) -> bool:
        return self.num_bins == 1

    def bin_of(self, z) -> np.ndarray:
        """Bin index of each allocation (scalar per type, first resource)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if z.ndim > 1:
            z = z[..., 0]
        edges = self.bin_edges
        tol = 1e-12 * max(1.0, abs(float(edges[-1])))
        if z.size and (z.min() < edges[0] - tol or z.max() > edges[-1] + tol):
            raise ValidationError(
                f"allocation outside the kernel's bin range [{edges[0]}, {edges[-1]}]"
            )
        return np.minimum(np.maximum(np.searchsorted(edges, z, side="right") - 1, 0), self.num_bins - 1)


@dataclass(frozen=True)
class DynamicScenario:
    """Markov-type problem: static core (single zeta, identity influence),
    kernel, discount, truncation horizon, and initial distribution."""

    static: Scenario
    kernel: TransitionKernel
    discount: float
    horizon: int
    rho0: np.ndarray  # (T,)
    truncation_tol: float = 1e-6

    def __post_init__(self):
        s = self.static
        if s.type_space.num_zeta != 1:
            raise ValidationError("dynamic scenarios use a single influence type")
        if not np.all(s.influence.linear == 1.0) or not np.all(s.influence.quadratic == 0.0):
            raise ValidationError("dynamic scenarios require identity influence (loads equal allocations)")
        if self.kernel.num_types != s.type_space.num_theta:
            raise ValidationError("kernel type count must match the static type space")
        if not (0.0 < self.discount < 1.0):
            raise ValidationError("discount must lie strictly inside (0, 1)")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer)) or self.horizon < 1:
            raise ValidationError("horizon must be a positive integer")
        if not (math.isfinite(self.truncation_tol) and self.truncation_tol > 0):
            raise ValidationError(f"truncation_tol must be finite and positive, got {self.truncation_tol!r}")
        if self.discount**self.horizon > self.truncation_tol:
            raise ValidationError(
                f"horizon too short: discount**horizon = {self.discount**self.horizon:.3e} "
                f"exceeds the truncation tolerance {self.truncation_tol:.1e}"
            )
        rho0 = _frozen_array(self.rho0)
        if rho0.shape != (s.type_space.num_theta,) or not _is_simplex(rho0, 0.0):
            raise ValidationError("rho0 must be a finite simplex vector over the utility types")
        object.__setattr__(self, "rho0", rho0)

    @property
    def num_types(self) -> int:
        return self.static.type_space.num_theta


@dataclass(frozen=True)
class Policy:
    """Open-loop per-slot per-type plan with its rollout artifacts.

    ``value_table[t, theta]`` is the discounted value of holding ``theta`` at
    slot ``t`` and following the plan thereafter (zero at the horizon).
    ``continuation[t, theta, k]`` is ``discount * E[value_table[t + 1, theta'] |
    theta, bin k]``: what an agent of type ``theta`` expects after landing in
    allocation bin ``k`` at slot ``t``.  It is the one continuation the
    backup, the slot pricing and the payoffs all read.
    """

    mode: str
    allocations: np.ndarray  # (H, T, N)
    prices: np.ndarray  # (H, N)
    rho_path: np.ndarray  # (H + 1, T)
    value_table: np.ndarray  # (H + 1, T)
    continuation: np.ndarray  # (H, T, B)
    welfare: float

    def __post_init__(self):
        for name in ("allocations", "prices", "rho_path", "value_table", "continuation"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


@dataclass(frozen=True)
class SlotOutcome:
    """One slot of the mechanism: menu, prices, per-type payments and payoffs."""

    t: int
    z: np.ndarray  # (T, N)
    p: np.ndarray  # (N,)
    payments: np.ndarray  # (T,)
    payoffs: np.ndarray  # (T,)

    def __post_init__(self):
        for name in ("z", "p", "payments", "payoffs"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


@dataclass(frozen=True)
class DynamicIncentiveRow:
    """Best per-head misreport gains at one slot, with the truthful slot they were measured against."""

    t: int
    per_type_gap: dict[int, float]
    max_gap: float
    bound: float
    holds: bool
    slot: SlotOutcome


def _is_simplex(rho: np.ndarray, floor: float) -> bool:
    """Whether every entry is finite and at least ``floor``, each row summing to one within 1e-12."""
    return bool(np.isfinite(rho).all() and (rho >= floor).all() and (np.abs(rho.sum(axis=-1) - 1.0) <= 1e-12).all())


def _per_type_allocations(z, num_types: int) -> np.ndarray:
    """Coerce ``z`` to one row per type, keeping only the binned resource."""
    arr = np.asarray(z, dtype=float)
    if arr.ndim == 1 and arr.size == num_types:
        return arr
    if arr.ndim == 2 and arr.shape[0] == num_types:
        return arr[:, 0]
    raise ValidationError("one allocation per type is required")


def _state_distribution(rho) -> np.ndarray:
    """``rho`` as a float vector, raising unless it is a finite simplex vector."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or not _is_simplex(rho, -1e-15):
        raise ValidationError("state distribution must be a finite simplex vector")
    return rho


def mean_field_step(rho, z, kernel: TransitionKernel) -> np.ndarray:
    """Deterministic population flow: one kernel application per type mass of
    the distribution ``rho``."""
    rho = _state_distribution(rho)
    bins = kernel.bin_of(_per_type_allocations(z, rho.size))
    q_cols = kernel.probabilities[:, np.arange(rho.size), bins]  # (T', T)
    return q_cols @ rho


def mean_field_step_monte_carlo(
    rho,
    z,
    kernel: TransitionKernel,
    num_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Empirical next-slot distribution from independent sampled transitions."""
    rho = _state_distribution(rho)
    bins = kernel.bin_of(_per_type_allocations(z, rho.size))
    counts = rng.multinomial(num_samples, rho)
    next_counts = np.zeros(rho.size, dtype=np.int64)
    for theta, count in enumerate(counts):
        if count == 0:
            continue
        row = kernel.probabilities[:, theta, bins[theta]]
        next_counts += rng.multinomial(int(count), row)
    return next_counts / num_samples


def _rollout(dyn: DynamicScenario, allocate):
    """Follow the mean-field flow from ``rho0``, allocating each slot by
    ``allocate(t, rho) -> (z (T, N), p (N,))``."""
    num_res = dyn.static.type_space.num_resources
    allocations = np.empty((dyn.horizon, dyn.num_types, num_res))
    prices = np.empty((dyn.horizon, num_res))
    rho_path = np.empty((dyn.horizon + 1, dyn.num_types))
    rho_path[0] = dyn.rho0
    types, kernel = np.arange(dyn.num_types), dyn.kernel
    for t in range(dyn.horizon):
        allocations[t], prices[t] = allocate(t, rho_path[t])
        # mean_field_step, whose check of each distribution is made once below
        rho_path[t + 1] = kernel.probabilities[:, types, kernel.bin_of(allocations[t])] @ rho_path[t]
    if not _is_simplex(rho_path[: dyn.horizon], -1e-15):
        raise ValidationError("state distribution must be a finite simplex vector")
    return allocations, prices, rho_path


def _value_table(dyn: DynamicScenario, allocations: np.ndarray, utilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Back up per-type discounted values of following a plan, with the
    continuation of every (slot, type, bin) (see :class:`Policy`), from the
    plan's instantaneous ``utilities`` (H, T)."""
    horizon, num_types = allocations.shape[0], dyn.num_types
    kernel = dyn.kernel
    types = np.arange(num_types)
    q = kernel.probabilities.reshape(num_types, num_types * kernel.num_bins)
    bins = kernel.bin_of(allocations)  # (H, T)
    table = np.zeros((horizon + 1, num_types))
    continuation = np.empty((horizon, num_types, kernel.num_bins))
    for t in range(horizon - 1, -1, -1):
        continuation[t] = dyn.discount * (table[t + 1] @ q).reshape(num_types, kernel.num_bins)
        table[t] = utilities[t] + continuation[t, types, bins[t]]
    return table, continuation


def _welfare(dyn: DynamicScenario, utilities: np.ndarray, rho_path: np.ndarray) -> float:
    """Discounted population welfare of a plan's instantaneous ``utilities`` (H, T) along ``rho_path``."""
    total = 0.0
    for t, utility in enumerate(utilities):
        total += dyn.discount**t * float(rho_path[t] @ utility)
    return total


def plan_welfare(dyn: DynamicScenario, allocations: np.ndarray, rho_path: np.ndarray) -> float:
    """Discounted population welfare of a plan along its own trajectory."""
    return _welfare(dyn, utility_value(dyn.static.utility, np.arange(dyn.num_types), allocations), rho_path)


#: Most mechanism rollouts the ``fixed-point`` planner makes before it gives
#: up on the allocations repeating (bins can cycle).
MAX_PLAN_ITERATIONS = 10


def _policy(dyn: DynamicScenario, mode: str, allocate) -> Policy:
    """Roll out ``allocate`` (see :func:`_rollout`) and back up its values."""
    allocations, prices, rho_path = _rollout(dyn, allocate)
    utilities = utility_value(dyn.static.utility, np.arange(dyn.num_types), allocations)
    value_table, continuation = _value_table(dyn, allocations, utilities)
    return Policy(
        mode=mode,
        allocations=allocations,
        prices=prices,
        rho_path=rho_path,
        value_table=value_table,
        continuation=continuation,
        welfare=_welfare(dyn, utilities, rho_path),
    )


def _cleared_once(clear):
    """Wrap ``clear(t, shares) -> (z, p)`` so that it clears each distinct market once.

    For slot-free clearings only (the static solve of the myopic rollout): a
    market is its reported shares.  A binned clearing reads the policy at
    ``t``, and a rollout visits each ``t`` once, so it has nothing to share.
    The memo lives as long as the wrapper, one rollout.
    """
    memo: dict = {}

    def clear_once(t: int, shares: np.ndarray):
        key = shares.tobytes()
        if key not in memo:
            memo[key] = clear(t, shares)
        return memo[key]

    return clear_once


def plan_policy(dyn: DynamicScenario, mode: Literal["myopic", "fixed-point"] = "myopic") -> Policy:
    """Build an open-loop plan.

    ``myopic`` solves the static program slot by slot (optimal whenever the
    kernel is allocation-independent, since the flow is then beyond the
    planner's control), one market at a time with the scalar bisection
    (:func:`~lsvcg.solver._clear_market`).  With an allocation-dependent
    kernel the slot mechanism, which prices each type's continuation, need
    not allocate what the myopic plan did.  ``fixed-point`` starts from the
    myopic plan and re-plans with the slot mechanism (:func:`_clear_slots`,
    one market per call) priced against the previous plan's continuation
    (policy iteration), until the allocations repeat bit for bit; every slot
    of the returned plan is then what the mechanism allocates.  It raises
    :class:`SolverError` if the allocations still move after
    ``MAX_PLAN_ITERATIONS`` mechanism rollouts.  On an allocation-independent
    kernel the slot mechanism allocates what the myopic plan does, so
    ``fixed-point`` returns the myopic rollout without a mechanism rollout.
    """
    if mode not in ("myopic", "fixed-point"):
        raise ValidationError(f"unknown planning mode {mode!r}")

    def myopic_slot(t, rho):
        p, z, _ = _clear_market(dyn.static, rho, dyn.static.capacities)
        return z, p

    policy = _policy(dyn, mode, _cleared_once(myopic_slot))
    if mode == "myopic" or dyn.kernel.allocation_independent:
        return policy
    for _ in range(MAX_PLAN_ITERATIONS):
        previous = policy

        def mechanism_slot(t, rho):
            z, p, _ = _clear_slots(rho[None], np.array([t]), dyn, previous)
            return z[0], p[0]

        policy = _policy(dyn, mode, mechanism_slot)
        if np.array_equal(policy.allocations, previous.allocations):
            return policy
    changed = int(np.count_nonzero(np.any(policy.allocations != previous.allocations, axis=(1, 2))))
    raise SolverError(
        f"the fixed-point plan did not settle in {MAX_PLAN_ITERATIONS} iterations: "
        f"the last one changed the allocation at {changed} of {dyn.horizon} slots"
    )


def _check_slot(policy: Policy, t: int) -> None:
    horizon = policy.allocations.shape[0]
    if not 0 <= t < horizon:
        raise ValidationError(f"slot index {t} outside the planned horizon [0, {horizon})")


def value_u_sigma(dyn: DynamicScenario, policy: Policy, theta: int, z, t: int) -> float:
    """Instantaneous utility of ``z`` at slot ``t`` plus the discounted policy continuation.

    The continuation rolls the agent's own type forward under the kernel
    (exact propagation over the finite type set) while the population follows
    the policy's mean-field path; it is read from ``policy.continuation``,
    frozen at planning time, at the bin of ``z``.
    """
    _check_slot(policy, t)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    bin_of_z = dyn.kernel.bin_of(z[:1])[0]
    return utility_value(dyn.static.utility, theta, z) + float(policy.continuation[t, theta, bin_of_z])


#: Largest relative clearing miss ``|demand - capacity| / max(capacity, 1)``
#: a binned slot may leave.
BINNED_PRICE_TOLERANCE = 1e-6
# Unit roundoffs in the tie width of a binned slot's bracket (_clear_slots).
_TIE_ROUNDING = 64 * 2.0**-53


def _price_ceiling(dyn: DynamicScenario, policy: Policy, t):
    """Top of the price bracket of slot ``t`` (an int or an array of slots) on a binned kernel.

    Above it no type demands anything: ``max w`` plus the widest gain in
    continuation a step across the first bin edge can buy, plus one.
    """
    next_values = policy.value_table[t + 1]
    cont_span = np.max(next_values, axis=-1) - np.min(next_values, axis=-1)
    first_edge = float(dyn.kernel.bin_edges[1])
    return float(np.max(dyn.static.utility.weights[:, 0])) + dyn.discount * cont_span / max(first_edge, 1e-9) + 1.0


def _check_single_resource(dyn: DynamicScenario) -> None:
    if dyn.static.type_space.num_resources != 1:
        raise ValidationError("allocation-dependent kernels are supported for a single resource only")


def _clear_slots(
    shares: np.ndarray, slots: np.ndarray, dyn: DynamicScenario, policy: Policy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clear the market of slot ``slots[k]`` at reported ``shares[k]``, for every ``k`` at once.

    Returns ``(z (K, T, N), p (K, N), steps (K,))``: every slot's prices and
    allocations, and the bisection steps each market takes.  It is the one
    slot clearing: the incentive gap clears its markets in one call, a
    ``fixed-point`` rollout and :func:`dynamic_mechanism_step` one market
    per call.  Each type's objective is its instantaneous utility plus the
    frozen policy continuation; an allocation-independent kernel reduces
    that exactly to the static program and goes to
    :func:`~lsvcg.solver.clear_markets`.  On a binned kernel each type
    maximizes ``w log(1 + z) + cont[bin(z)] - p z`` over the bin range:
    within a bin the continuation is constant, so the maximizer is the
    static log-utility response clamped to the bin, and bins are taken in
    index order, a later one winning only by more than ``1e-15`` (``z_cap``
    at price zero, logs by ``math.log1p``).  Demand sums type by type in
    index order, under the market's own slot's price ceiling; one array
    bisection (:func:`~lsvcg.solver._clear_prices`) clears every market,
    each bit for bit the scalar bisection of its demand, evaluating demand
    only inside each lane's bracket.  A failure names the market's slot and
    shares.

    The brackets come from :func:`~lsvcg.solver._newton_brackets`.  They
    start at ``sum s w / (sum s + C)``, the root when every type is interior
    to a bin, and take the slope ``sum s w / p`` over the types that are.
    They are proven without locating any type's switch price:

    - With each type's bin fixed, computed demand is nonincreasing in price:
      ``w - p`` (of exact sign), ``(w - p)/p`` (clamped to ``lo`` if negative),
      the clamps, the shares' products and the index-order sum all keep
      order under correct rounding.  Only the bin choice is not monotone.
    - The rule keeps a bin within ``1e-15`` of the best computed value (plus
      the rounding of that sum).  Each computed value is within ``5 u M`` of
      the bin's exact value ``v_k(p)``, the maximum of its objective over
      the bin; ``u = 2**-53``, and ``M = w log1p(z_cap) + max |cont| + P
      z_cap`` bounds each term at every price up to the ceiling ``P``.  The
      allocation's own rounding adds only second-order terms, since the
      objective is stationary in it.
    - A bin is tied at ``x`` if its computed value is within ``delta =
      1e-15 + 64 u M`` of the best there.  The errors at two prices come to
      about ``22 u M``.
    - Exact values have ``v_k - v_j`` nonincreasing in ``p`` for bins ``k >
      j``: its slope is ``z_j - z_k <= 0``.
    - Say the rule picks bin ``j`` at a midpoint ``m < L``, below ``k``, the
      lowest bin tied at ``L``.  The best bin at ``L`` is at least ``k`` and
      beats ``j`` there by more than ``delta`` less the errors at ``L``, so
      it beats ``j`` at ``m`` by more than the rule's margin and errors
      allow.  So the rule's bin at ``m`` is at least ``k``, and its
      allocation at ``m`` at least bin ``k``'s at ``L``.
    - So if demand at ``L``, with every tie resolved to its lowest bin,
      exceeds capacity, every midpoint below ``L`` computes "over capacity".
      Symmetrically, if demand at ``H``, with every tie resolved to its
      highest bin, is within capacity, every midpoint above ``H`` computes
      "not over".

    The Newton margin, twice the rounding error ``u (sum s + (T + 2) D)`` of
    computed demand, only sets where the steps stop and the probes land.
    """
    caps = dyn.static.capacities
    if dyn.kernel.allocation_independent:
        p, z, steps = clear_markets(dyn.static, shares, caps)
        return z, p, steps
    _check_single_resource(dyn)
    w = dyn.static.utility.weights[:, 0]
    edges = dyn.kernel.bin_edges
    z_cap = min(dyn.static.z_max, float(edges[-1]))
    bins = []  # (k, lo, hi, log1p(lo), log1p(hi)) of every bin the range reaches
    for k in range(dyn.kernel.num_bins):
        lo, hi = max(0.0, float(edges[k])), min(z_cap, float(edges[k + 1]))
        if lo <= hi:
            bins.append((k, lo, hi, math.log1p(lo), math.log1p(hi)))
    cont = policy.continuation[slots]  # (K, T, B)
    ceiling = _price_ceiling(dyn, policy, slots)[:, None]

    def options(price: np.ndarray):
        """Every bin's allocation and value (B', K, T each) at prices ``price`` (K, 1), and the
        unclamped response (K, T)."""
        positive = price > 0
        unclamped = np.where(positive, (w - price) / np.where(positive, price, 1.0), z_cap)
        # A bin's allocation is `unclamped` (then not negative) or one of its
        # ends, so these are the logs the scalar rule takes.  They come from
        # math.log1p, which np.log1p does not match in the last bit.
        inside = np.maximum(unclamped, 0.0).ravel().tolist()
        log_unclamped = np.fromiter(map(math.log1p, inside), float).reshape(unclamped.shape)
        z = np.empty((len(bins), *unclamped.shape))
        value = np.empty(z.shape)
        for i, (k, lo, hi, log_lo, log_hi) in enumerate(bins):
            z[i] = np.minimum(np.maximum(unclamped, lo), hi)
            log_z = np.where(unclamped < lo, log_lo, np.where(unclamped > hi, log_hi, log_unclamped))
            value[i] = w * log_z + cont[:, :, k] - price * z[i]
        return z, value, unclamped

    def respond(price: np.ndarray) -> np.ndarray:
        """Every type's best allocation (K, T) at prices ``price`` (K, 1)."""
        z, value, _ = options(price)
        best_value = np.full(value.shape[1:], -np.inf)
        best_z = np.zeros(value.shape[1:])
        for z_k, value_k in zip(z, value):
            better = value_k > best_value + 1e-15
            best_value = np.where(better, value_k, best_value)
            best_z = np.where(better, z_k, best_z)
        return best_z

    def total(z: np.ndarray) -> np.ndarray:
        demand = shares[:, 0] * z[:, 0]
        for theta in range(1, z.shape[1]):
            demand = demand + shares[:, theta] * z[:, theta]
        return demand[:, None]

    z = None  # the responses demand was last evaluated at

    def demand(price: np.ndarray) -> np.ndarray:
        nonlocal z
        z = respond(price)
        return total(z)

    delta = 1e-15 + _TIE_ROUNDING * (w * math.log1p(z_cap) + np.max(np.abs(cont), axis=2) + ceiling * z_cap)

    def tied(price: np.ndarray, slope: bool):
        """Demand (K, 1) at prices ``price`` with every tie resolved to its lowest bin, and to its
        highest; and, if ``slope``, ``-p dD/dp`` at the first.  A higher bin never allocates
        less, so those bins' allocations are the least and the most a tied bin allocates."""
        allocations, value, unclamped = options(price)
        near = value >= np.max(value, axis=0) - delta
        lowest = np.min(np.where(near, allocations, np.inf), axis=0)
        highest = np.max(np.where(near, allocations, 0.0), axis=0)
        elastic = ((shares * (lowest == unclamped)) @ w)[:, None] / price if slope else None
        return total(lowest), total(highest), elastic

    at_zero = demand(np.zeros((len(shares), 1)))
    free_z = z
    mass = shares.sum(axis=1, keepdims=True)
    margin = 2.0**-52 * (mass + (dyn.num_types + 2) * max(float(caps[0]), 1.0))
    p, steps = _clear_prices(
        demand,
        at_zero,
        caps,
        ceiling,
        BINNED_PRICE_TOLERANCE,
        lambda k: f"slot {slots[k]} market {shares[k].tolist()}",
        _newton_brackets(tied, (shares @ w)[:, None] / (mass + caps), caps, margin, ceiling, at_zero <= caps),
    )
    # the last evaluation is the residual's, at every lane's price but the
    # free ones, which take the responses at price zero
    return np.where(p > 0.0, z, free_z)[:, :, None], p, steps[:, 0]


def _values(dyn: DynamicScenario, policy: Policy, slots, types, z: np.ndarray) -> np.ndarray:
    """:func:`value_u_sigma` of type ``types`` holding ``z`` (..., N) at slot ``slots``, from arrays.

    ``slots``, ``types`` and the rows of ``z`` broadcast together.
    """
    return utility_value(dyn.static.utility, types, z) + policy.continuation[slots, types, dyn.kernel.bin_of(z)]


def _payments(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Each type's payment ``p . z`` (K, T) in markets cleared at ``z`` (K, T, N), ``p`` (K, N)."""
    return (z @ p[:, :, None])[:, :, 0]


def _charge(dyn: DynamicScenario, policy: Policy, slots: np.ndarray, z: np.ndarray, p: np.ndarray):
    """Payments and payoffs (K, T each) of slots ``slots`` cleared at ``(z, p)``: each
    type pays ``p . z`` for its own row and gets its :func:`value_u_sigma` less that payment."""
    payments = _payments(z, p)
    return payments, _values(dyn, policy, slots[:, None], np.arange(dyn.num_types), z) - payments


def dynamic_mechanism_step(reports: np.ndarray, dyn: DynamicScenario, policy: Policy, t: int) -> SlotOutcome:
    """Price slot ``t`` against reported shares and charge ``p . z`` per type.

    ``reports`` is the reported type distribution for the slot.  Each type's
    objective is its instantaneous utility plus the frozen policy
    continuation; with an allocation-independent kernel this reduces exactly
    to the static program.  The slot is one market of :func:`_clear_slots`,
    whose error names its slot and shares if it fails to clear.
    """
    reports = np.asarray(reports, dtype=float)
    if reports.shape != (dyn.num_types,) or np.any(reports < -1e-12) or abs(float(reports.sum()) - 1.0) > 1e-9:
        raise ValidationError("reports must be a distribution over the utility types")
    _check_slot(policy, t)
    slots = np.array([t])
    z, p, _ = _clear_slots(np.maximum(reports, 0.0)[None], slots, dyn, policy)
    payments, payoffs = _charge(dyn, policy, slots, z, p)
    return SlotOutcome(t=t, z=z[0], p=p[0], payments=payments[0], payoffs=payoffs[0])


def dynamic_incentive_gap(
    dyn: DynamicScenario,
    policy: Policy,
    num_agents: int | None,
) -> list[DynamicIncentiveRow]:
    """Per-slot best per-head misreport gains along the truthful trajectory.

    ``num_agents=None`` freezes prices (a lone report cannot move the slot
    shares); a finite head count moves the reported shares by exactly
    ``1/num_agents`` and re-clears the slot.  Gains are per head, as in
    ``incentives.incentive_gap``.  Each row compares the measured gap with the
    quadratic ceiling ``incentives.misreport_gain_bound`` evaluated at that
    slot's shares (``incentives.gain_within_bound``).

    The truthful slot is the plan's own slot when the plan is what the
    mechanism allocates (an allocation-independent kernel, or a
    ``fixed-point`` plan), and is cleared otherwise.  Every truthful and
    frozen-price payoff reads it, and the row carries it as ``slot``.  Every
    market the call needs is known up front, since the policy is frozen: the
    distinct ones (a market is its shares, and also its slot on a binned
    kernel) are cleared together by :func:`_clear_slots`, and every payoff is
    priced from the resulting arrays.  Each result equals
    :func:`dynamic_mechanism_step` on the same market.
    """
    num_types, horizon = dyn.num_types, dyn.horizon
    binned = not dyn.kernel.allocation_independent
    plan_is_mechanism = not binned or policy.mode == "fixed-point"
    rho = policy.rho_path[:horizon]
    slots = np.arange(horizon)
    if num_agents is not None:
        short = np.flatnonzero(np.any(rho <= 0, axis=1))
        if short.size:
            raise ValidationError(f"bound undefined: a type share hits zero at slot {short[0]}")
        # misreport_gain_bound at each slot's shares, its share-free terms computed once
        numerator, l_f_sq = _gain_bound_terms(dyn.static, num_agents)
        bounds = [numerator / (l_f_sq * min_rho**4) for min_rho in rho.min(axis=1).tolist()]
        # a type with no whole agent at a slot has no one to deviate
        present = ~(rho * num_agents < 1.0 - 1e-9)
    else:
        present = np.ones(rho.shape, dtype=bool)

    # Every market to clear, in groups (theta, report, slots, shares): the
    # truthful slots (theta None) unless the plan's are the mechanism's, and
    # each misreport at the slots where it is priced.
    groups = []
    if not plan_is_mechanism:
        groups.append((None, None, slots, np.maximum(rho, 0.0)))
    for theta, report in permutations(range(num_types), 2) if num_agents is not None else ():
        shares = rho.copy()
        shares[:, theta] -= 1.0 / num_agents
        shares[:, report] += 1.0 / num_agents
        # a negative share means fewer than one agent of this type at the slot
        priced = np.flatnonzero(present[:, theta] & ~(shares[:, theta] < -1e-12))
        groups.append((theta, report, priced, np.maximum(shares[priced], 0.0)))
    group_markets = []  # each group's rows in the cleared batch
    if groups:
        market_slots = np.concatenate([group[2] for group in groups])
        market_shares = np.concatenate([group[3] for group in groups])
        keys = np.column_stack([market_slots, market_shares]) if binned else market_shares
        _, first, market_of = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        z, p, _ = _clear_slots(market_shares[first], market_slots[first], dyn, policy)
        payments = _payments(z, p)
        group_markets = np.split(market_of.reshape(-1), np.cumsum([group[2].size for group in groups])[:-1])

    if plan_is_mechanism:
        truthful_z, truthful_p = policy.allocations, policy.prices
    else:
        truthful_z, truthful_p = z[group_markets[0]], p[group_markets[0]]
    truthful_payments, truthful = _charge(dyn, policy, slots, truthful_z, truthful_p)

    # payoff[t, theta, report]: a theta agent's payoff from announcing report at slot t
    if num_agents is None:
        # a lone report leaves the slot shares, and so the truthful slot, untouched
        types = np.arange(num_types)[:, None]
        payoff = _values(dyn, policy, slots[:, None, None], types, truthful_z[:, None]) - truthful_payments[:, None, :]
    else:
        payoff = np.full((horizon, num_types, num_types), -np.inf)
        for (theta, report, priced, _), markets in zip(groups, group_markets):
            if theta is not None:
                value = _values(dyn, policy, priced, theta, z[markets, report])
                payoff[priced, theta, report] = value - payments[markets, report]
    best = np.zeros(rho.shape)
    for theta, report in permutations(range(num_types), 2):
        gain = payoff[:, theta, report] - truthful[:, theta]
        best[:, theta] = np.where(gain > best[:, theta], gain, best[:, theta])

    rows: list[DynamicIncentiveRow] = []
    for t in range(horizon):
        per_type = {theta: float(best[t, theta]) for theta in range(num_types) if present[t, theta]}
        max_gap = max(per_type.values()) if per_type else 0.0
        if num_agents is None:
            bound, holds = 0.0, max_gap <= 1e-9
        else:
            bound = bounds[t]
            holds = gain_within_bound(max_gap, bound)
        slot = SlotOutcome(t=t, z=truthful_z[t], p=truthful_p[t], payments=truthful_payments[t], payoffs=truthful[t])
        rows.append(
            DynamicIncentiveRow(t=t, per_type_gap=per_type, max_gap=max_gap, bound=bound, holds=holds, slot=slot)
        )
    return rows


# -- Dynamic scenario document ------------------------------------------------


def save_dynamic_scenario(dyn: DynamicScenario) -> bytes:
    doc = scenario_to_dict(dyn.static)
    doc["kernel"] = {
        "probabilities": dyn.kernel.probabilities.tolist(),
        "bin_edges": dyn.kernel.bin_edges.tolist(),
    }
    doc["discount"] = dyn.discount
    doc["horizon"] = dyn.horizon
    doc["rho0"] = dyn.rho0.tolist()
    doc["truncation_tol"] = dyn.truncation_tol
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


_DYNAMIC_FIELDS = ("kernel", "discount", "horizon", "rho0", "truncation_tol")


def load_dynamic_scenario(source: bytes | str) -> DynamicScenario:
    doc = _read_document(source, "dynamic scenario")
    try:
        return DynamicScenario(
            static=scenario_from_dict({k: v for k, v in doc.items() if k not in _DYNAMIC_FIELDS}),
            kernel=TransitionKernel(
                probabilities=_require_number(doc, "kernel.probabilities"),
                bin_edges=_require_number(doc, "kernel.bin_edges"),
            ),
            discount=_require_number(doc, "discount"),
            horizon=_require(doc, "horizon"),
            rho0=_require_number(doc, "rho0"),
            truncation_tol=_require_number(doc, "truncation_tol") if "truncation_tol" in doc else 1e-6,
        )
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed dynamic scenario document: {exc}") from exc
