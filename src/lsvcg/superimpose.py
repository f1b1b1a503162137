"""Distributed price-broadcast allocation algorithm with a payment overlay.

The algorithm is the textbook dual-decomposition loop: a coordinator
broadcasts prices, every agent replies with its price-taking demand, and each
price moves by a projected subgradient step on the per-capita excess of the
*monitored* load, with diminishing step sizes.  When every agent obeys its
decision rule (replies as its own type), the loop converges to the same
primal-dual point as the centralized head-count solver.

Payments are superimposed afterwards: they read only the algorithm's outputs
(final prices, final allocations, observed loads), so the loop itself
contains no mechanism code and any allocation algorithm with the same
outputs yields bit-identical payments.  Deviations are modeled as
type-impersonation: a deviating agent replies with some other type's demand
in every round.  A :class:`~lsvcg.model.Profile` counts the agents of each
true type that impersonate each type (their report), and agents sharing both
behave identically, so the loop and the overlay work per group and per cell.
The loop runs several profiles in lockstep, one responder call per round for
all of them, and each profile stops at its own round; the obedience check
runs all its candidate reports this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import Outcome, shadow_price_outcome
from .model import InfluenceParams, Population, Profile, Scenario, ValidationError, _frozen_array
from .solver import _allocations, _responder  # shared closed-form best responses

__all__ = [
    "AlgorithmConfig",
    "AlgorithmTrace",
    "obedient_actions",
    "run_algorithm",
    "superimposed_outcome",
    "obedience_check",
]


def obedient_actions(profile: Profile) -> Profile:
    """The profile in which every agent obeys: it replies as its own type."""
    return Profile(profile.type_space, np.diag(profile.counts.sum(axis=1)))


@dataclass(frozen=True)
class AlgorithmConfig:
    """Step schedule gamma_0 / sqrt(k), per-capita excess tolerance, round cap."""

    gamma0: float | None = None  # None: 1 / (max_n population-mean linear coefficient)
    tolerance: float = 1e-6
    max_rounds: int = 100_000

    def __post_init__(self):
        if self.gamma0 is not None and self.gamma0 < 0:
            raise ValidationError("gamma0 must be nonnegative")
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if self.max_rounds < 1:
            raise ValidationError("max_rounds must be positive")


DEFAULT_ALGORITHM_CONFIG = AlgorithmConfig()


@dataclass(frozen=True, eq=False)
class AlgorithmTrace:
    """Round-by-round prices and aggregate monitored demand, plus final outputs.

    ``round_prices[k]`` is the broadcast at round ``k``;
    ``round_demand[k]`` the per-capita aggregate load it elicited.  Per-agent
    replies are recoverable from the group structure (agents sharing a true
    zeta and an impersonated type behave identically), so they are not stored
    per round.  ``final_menu`` is every type's reply at the final prices;
    an agent receives the row of the type it reports.
    """

    round_prices: np.ndarray  # (rounds, N)
    round_demand: np.ndarray  # (rounds, N), per capita
    final_prices: np.ndarray  # (N,)
    final_menu: np.ndarray  # (R, N)
    final_excess: np.ndarray  # (N,), per capita
    converged: bool
    rounds_used: int
    profile: Profile

    def __post_init__(self):
        for name in ("round_prices", "round_demand", "final_prices", "final_menu", "final_excess"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


def _default_gamma0(scenario: Scenario) -> float:
    mean_linear = scenario.population.shares @ scenario.type_linear()
    return 1.0 / float(np.max(mean_linear))


def run_algorithm(
    profile: Profile,
    scenario: Scenario,
    config: AlgorithmConfig = DEFAULT_ALGORITHM_CONFIG,
) -> AlgorithmTrace:
    """Simulate the synchronous price-broadcast loop for a profile of agents.

    Each agent replies as its reported (impersonated) type.
    ``scenario.capacities`` are totals shared by the profile's agents.  Each
    round the coordinator observes the true-zeta load of every reply
    (influence is monitored even when the reply impersonates another type)
    and moves each price by ``gamma_k * (aggregate load - capacity) / I``,
    projected at zero.  Stops when the per-capita excess is within tolerance
    on every resource, or at the round cap with ``converged=False``.  This is
    :func:`_run_lanes` on one profile.
    """
    return _run_lanes([profile], scenario, config)[0]


def _run_lanes(profiles: list[Profile], scenario: Scenario, config: AlgorithmConfig) -> list[AlgorithmTrace]:
    """Run the loop of :func:`run_algorithm` on several profiles in lockstep.

    Every profile is a lane with its own prices, head count and groups; each
    round answers all lanes' broadcasts with one call of the responder, built
    once.  A lane that converges stops: its prices, history and final menu
    are frozen at that round, so each trace equals the profile's solo run
    bit for bit.  This is the one price-update loop of the package.
    """
    ts = scenario.type_space
    keys, reductions = [], []  # per lane: its groups, and their head counts and rows in the flat index
    for profile in profiles:
        scenario.check_profile(profile)
        if profile.num_agents == 0:
            raise ValidationError("at least one agent is required")
        # Group agents by (true zeta, impersonated type): identical behavior.
        cells = profile.cells
        group_key = (cells.true_idx % ts.num_zeta) * ts.num_types + cells.report_idx
        group_counts = np.bincount(group_key, weights=cells.counts, minlength=ts.num_zeta * ts.num_types)
        start = sum(lane_keys.size for lane_keys in keys)
        keys.append(np.flatnonzero(group_counts))
        reductions.append((group_counts[keys[-1]], slice(start, start + keys[-1].size)))
    # One flat index of (lane, impersonated type, true zeta) over every lane's groups.
    lane_rows = np.repeat(np.arange(len(profiles)), [lane_keys.size for lane_keys in keys])
    zeta_rows, imp_rows = np.divmod(np.concatenate(keys), ts.num_types)
    influence = scenario.influence
    group_influence = InfluenceParams(influence.linear[zeta_rows], influence.quadratic[zeta_rows])
    num_agents = np.array([[profile.num_agents] for profile in profiles], dtype=float)
    caps_per_capita = scenario.capacities / num_agents
    gamma0 = _default_gamma0(scenario) if config.gamma0 is None else config.gamma0
    respond = _responder(scenario)[0]

    def replies(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every lane's menu (L, N, R) at prices ``p`` (L, N), and its per-capita load."""
        menus = _allocations(respond, p, scenario.z_max)
        loads = group_influence.load(..., menus[lane_rows, :, imp_rows])
        # each lane reduces over its own groups alone: a padded stacked matmul may round differently
        return menus, np.array([counts @ loads[rows] for counts, rows in reductions]) / num_agents

    p = np.zeros((len(profiles), ts.num_resources))
    live = np.ones(len(profiles), dtype=bool)  # a lane leaves only by converging
    rounds_used = np.zeros(len(profiles), dtype=int)
    prices_hist = []
    demand_hist = []
    for k in range(1, config.max_rounds + 1):
        demand = replies(p)[1]
        prices_hist.append(p.copy())
        demand_hist.append(demand)
        rounds_used[live] = k
        excess = demand - caps_per_capita
        within = np.max(np.abs(np.where(p > 0, excess, np.maximum(excess, 0.0))), axis=1) <= config.tolerance
        live &= ~within
        if not live.any():
            break
        p[live] = np.maximum(0.0, p[live] + (gamma0 / math.sqrt(k)) * excess[live])

    menus, demand = replies(p)
    prices_hist, demand_hist = np.array(prices_hist), np.array(demand_hist)
    return [
        AlgorithmTrace(
            round_prices=prices_hist[:rounds, lane],
            round_demand=demand_hist[:rounds, lane],
            final_prices=p[lane],
            final_menu=menus[lane].T.copy(),
            final_excess=demand[lane] - caps_per_capita[lane],
            converged=not live[lane],
            rounds_used=int(rounds),
            profile=profile,
        )
        for lane, (profile, rounds) in enumerate(zip(profiles, rounds_used))
    ]


def superimposed_outcome(trace: AlgorithmTrace, scenario: Scenario) -> Outcome:
    """Charge shadow-price payments computed purely from the trace outputs.

    ``h_i = sum_n lambda_n * (f_true(x_i) - scenario.beta * C_n / I)`` with the
    algorithm's own final prices and allocations for the trace's profile,
    through :func:`~lsvcg.mechanisms.shadow_price_outcome`; nothing is
    re-solved.
    """
    if not trace.converged:
        raise ValidationError("cannot superimpose payments on an unconverged trace")
    constraint_slack = -trace.final_excess * trace.profile.num_agents
    return shadow_price_outcome(trace.profile, scenario, trace.final_menu, trace.final_prices, constraint_slack)


def obedience_check(
    scenario: Scenario,
    num_agents: int,
    deviator_type: tuple[int, int],
    config: AlgorithmConfig = DEFAULT_ALGORITHM_CONFIG,
) -> tuple[float, float, float]:
    """Payoff of obeying versus the best impersonation, all others obedient.

    Replicates the scenario population to ``num_agents`` agents, runs the
    algorithm on every candidate action of a single ``deviator_type`` agent
    in lockstep (:func:`_run_lanes`; each run stops on its own, as it would
    alone), and returns ``(obedient_payoff, best_deviation_payoff, margin)``
    with ``margin = obedient - best deviation``.  Raises
    :class:`~lsvcg.model.ValidationError` if any candidate's run does not
    converge.
    """
    ts = scenario.type_space
    shares = scenario.population.shares
    counts = shares * num_agents
    if np.any(np.abs(counts - np.round(counts)) > 1e-9):
        raise ValidationError("num_agents times every population share must be integral")
    profile = obedient_actions(Profile.truthful(Population(shares=shares, num_agents=num_agents), ts))
    own = ts.flat_index(*deviator_type)
    reports = [ts.unflatten(r) for r in (own, *(r for r in range(ts.num_types) if r != own))]
    deviations = [profile.with_report(deviator_type, report) for report in reports]
    payoffs = [
        float(superimposed_outcome(trace, scenario).cell_payoffs[deviation.cell_index(deviator_type, report)])
        for report, deviation, trace in zip(reports, deviations, _run_lanes(deviations, scenario, config))
    ]
    obedient, *others = payoffs
    if not others:  # no alternative action exists
        return obedient, obedient, 0.0
    best_dev = max(others)
    return obedient, best_dev, obedient - best_dev
