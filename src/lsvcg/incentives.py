"""Finite-population incentives to misreport under the shadow-price mechanism.

The measurement replicates a base population to ``I`` agents while keeping
per-capita capacities fixed, so the market a single agent faces is the same
at every ``I`` and the only finite-population effect is the exact ``1/I``
shift of the reported shares when one agent deviates.  For each true type the
deviation gain against truthful opponents is recorded (floored at zero), and
compared with the closed-form quadratic ceiling

    bound(I) = (2 / I^2) * |Z| * sum_theta L_theta * sum_n C_n^2
               / (L_f^2 * min_r rho_r^4).

Gains are per head: the deviator's own payoff difference
``u(z) - p . (f_true(z) - beta C)`` between its best misreport and the truth.
``holds`` compares that per-head gain with the ceiling (``gain_within_bound``).

Note on observed rates: reported_counts that understate an agent's influence
depress prices by Theta(1/I) and yield a first-order windfall on the agent's
true consumption, so the measured best gain decays like 1/I on scenarios
where such reported_counts exist, while the ceiling decays like 1/I^2 with a much
larger constant.  Per head, the gain therefore crosses the ceiling at large
``I`` (from about ``I = 2e6`` on the scaled-twin benchmark).  See the
incentive-rate experiment script.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Population, Scenario, ValidationError, utility_value
from .solver import _BATCH_ELEMENTS, clear_markets

__all__ = [
    "IncentiveReport",
    "IncentiveSweep",
    "incentive_gap",
    "gain_within_bound",
    "misreport_gain_bound",
    "sweep_from_reports",
    "verify_incentive_bound",
    "loglog_slope",
    "decays_quadratically",
]


@dataclass(frozen=True)
class IncentiveReport:
    """Best per-head misreport gains per true type at one population size."""

    per_type_gap: dict[tuple[int, int], float]
    best_misreport: dict[tuple[int, int], tuple[int, int] | None]
    max_gap: float
    epsilon_bound: float
    num_agents: int | None  # None for the frozen-price (mean-field) regime


@dataclass(frozen=True)
class IncentiveSweep:
    """Rows of (I, max_gap, bound, holds) plus the fitted log-log slope of the
    per-head ``max_gap``."""

    rows: list[tuple[int, float, float, bool]]
    reports: list[IncentiveReport]
    slope: float


def misreport_gain_bound(scenario: Scenario, rho: Population | np.ndarray, num_agents: int) -> float:
    """Closed-form ceiling on any single agent's gain from misreporting.

    ``rho`` is a population or its shares.  ``holds`` flags compare the
    ceiling with per-head gains.  The paper's abstract does not state the
    normalization of the agent's utility the ceiling assumes; read against
    the deviator's share-weighted gain (per-head gain times
    ``1 / num_agents``) it would be a factor ``num_agents`` looser.
    """
    numerator, l_f_sq = _gain_bound_terms(scenario, num_agents)
    shares = rho.shares if isinstance(rho, Population) else np.asarray(rho, dtype=float)
    if np.any(shares <= 0):
        raise ValidationError("the gain bound requires every type share to be positive")
    return numerator / (l_f_sq * float(np.min(shares)) ** 4)


def _gain_bound_terms(scenario: Scenario, num_agents: int) -> tuple[float, float]:
    """The share-free numerator and ``l_f**2`` of :func:`misreport_gain_bound`, whose
    ceiling is ``numerator / (l_f**2 * min_rho**4)``."""
    if num_agents < 1:
        raise ValidationError("the gain bound needs a positive head count")
    l_theta_sum = float(np.sum(np.max(scenario.utility.weights, axis=1)))
    caps_sq = float(np.sum(scenario.capacities**2))
    numerator = (2.0 / num_agents**2) * scenario.type_space.num_zeta * l_theta_sum * caps_sq
    return numerator, scenario.influence.derivative_lower_bound**2


def gain_within_bound(gap: float, bound: float) -> bool:
    """Whether a per-head gain lies within the ceiling ``bound``, up to 1e-6 relative."""
    return gap <= bound * (1.0 + 1e-6)


def incentive_gap(
    scenario: Scenario,
    base_rho: Population,
    num_agents: int | None,
    opponent_counts: np.ndarray | None = None,
) -> IncentiveReport:
    """Best per-head deviation gain per true type against otherwise-truthful reports.

    ``num_agents=None`` freezes prices at ``base_rho`` (the infinite-population
    regime, where a lone deviation cannot move the reported shares).  With a
    finite ``num_agents`` the deviator's report moves the reported counts by
    exactly one agent and the program is re-solved, so the full price impact
    of the deviation is included.  ``opponent_counts`` optionally fixes the
    other agents' reports (integer counts summing to ``num_agents - 1``);
    by default opponents report truthfully, and the truthful market is
    solved once.  All the markets of a call are cleared together by
    :func:`~lsvcg.solver.clear_markets`, and every payoff is priced from
    arrays (:func:`_incentive_reports`, shared with :func:`verify_incentive_bound`).
    """
    return _incentive_reports(scenario, base_rho, [num_agents], opponent_counts)[0]


def _reported_shares(base_rho: Population, num_agents: int | None, opponent_counts: np.ndarray | None) -> np.ndarray:
    """Reported shares (M, R) of every market one head count needs: ``base_rho``
    frozen, the truthful market then the R(R-1) one-agent deviations in
    row-major (truth, report) order, or the R markets of a deviator joining
    fixed opponents."""
    if num_agents is None:
        if opponent_counts is not None:
            raise ValidationError("opponent_counts needs a finite num_agents")
        return base_rho.shares[None, :]
    if not (num_agents >= 1 and float(num_agents).is_integer()):
        raise ValidationError(f"head counts must be positive integers, got {num_agents}")
    counts = base_rho.shares * num_agents
    if np.any(np.abs(counts - np.round(counts)) > 1e-9):
        raise ValidationError(
            f"num_agents times every base share must be integral (replicated population), got {num_agents}"
        )
    num_types = len(counts)
    eye = np.eye(num_types, dtype=int)
    if opponent_counts is None:
        truth, report = np.nonzero(~eye.astype(bool))
        reported_counts = np.round(counts).astype(int)
        reported_counts = np.vstack([reported_counts, reported_counts - eye[truth] + eye[report]])
    else:
        opponent_counts = np.asarray(opponent_counts)
        if opponent_counts.shape != (num_types,) or np.any(opponent_counts < 0):
            raise ValidationError("opponent_counts must be nonnegative, one per flattened type")
        if int(opponent_counts.sum()) != num_agents - 1:
            raise ValidationError("opponent_counts must sum to num_agents - 1")
        reported_counts = opponent_counts + eye
    return reported_counts / num_agents


def _incentive_reports(
    scenario: Scenario, base_rho: Population, head_counts: list, opponent_counts: np.ndarray | None = None
) -> list[IncentiveReport]:
    """One :class:`IncentiveReport` per entry of ``head_counts``, as :func:`incentive_gap` defines it.

    Every head count is checked before any market is cleared.  The markets of
    whole head counts go to :func:`~lsvcg.solver.clear_markets` together, up
    to ``max(one head count's markets, _BATCH_ELEMENTS // (R * N))`` per call.
    The deviator of true type ``t`` announcing ``r`` receives row ``r`` of its
    market's allocation, loads it with its true zeta and pays
    ``p . (f_true(z) - beta C)`` as a mean-field probe, one stacked dot per
    payoff as :func:`~lsvcg.mechanisms.shadow_price_outcome` charges it.  Ties
    between misreports go to the lowest report index.
    """
    ts = scenario.type_space
    num_types = ts.num_types
    types = [ts.unflatten(r) for r in range(num_types)]
    markets = [_reported_shares(base_rho, n, opponent_counts) for n in head_counts]
    head_counts = [None if n is None else int(n) for n in head_counts]
    bounds = [0.0 if n is None else misreport_gain_bound(scenario, base_rho, n) for n in head_counts]

    true_idx, report_idx = np.arange(num_types)[:, None], np.arange(num_types)
    # market_of[t, r]: the market, within its head count's block, that prices
    # a true type t announcing r
    per_count = len(markets[0]) if markets else 1
    market_of = np.zeros((num_types, num_types), dtype=int)
    if opponent_counts is not None:
        market_of[:] = report_idx
    elif per_count > 1:
        market_of[true_idx != report_idx] = np.arange(1, per_count)
    true_zeta, true_theta = true_idx % ts.num_zeta, true_idx // ts.num_zeta
    rebate = scenario.beta * scenario.capacities
    per_call = max(per_count, _BATCH_ELEMENTS // (num_types * ts.num_resources)) // per_count

    reports = []
    for start in range(0, len(head_counts), per_call):
        group = slice(start, start + per_call)
        prices, allocations, _ = clear_markets(scenario, np.vstack(markets[group]), scenario.capacities)
        market = np.arange(0, len(prices), per_count)[:, None, None] + market_of  # (head count, truth, report)
        z = allocations[market, report_idx]
        load = scenario.influence.load(true_zeta, z)
        payments = ((load - rebate)[..., None, :] @ prices[market][..., :, None])[..., 0, 0]
        payoffs = utility_value(scenario.utility, true_theta, z) - payments
        gains = payoffs - np.diagonal(payoffs, axis1=1, axis2=2)[..., None]
        gains[:, report_idx, report_idx] = -np.inf  # the truth is no misreport; a lone type has none
        for num_agents, bound, gain, best in zip(head_counts[group], bounds[group], gains, np.argmax(gains, axis=2)):
            per_type_gap = {types[t]: max(0.0, float(gain[t, r])) for t, r in enumerate(best)}
            best_misreport = {types[t]: types[r] if num_types > 1 else None for t, r in enumerate(best)}
            reports.append(IncentiveReport(per_type_gap, best_misreport, max(per_type_gap.values()), bound, num_agents))
    return reports


def loglog_slope(x, y) -> float:
    """OLS slope of log(y) on log(x) over strictly positive points.

    NaN unless those points hold at least two distinct ``x``: no line is
    fitted through a single size.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if len(set(x[keep].tolist())) < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def decays_quadratically(sizes, gaps, rtol: float = 1e-6) -> bool:
    """Whether gains meet the quadratic-decay claim read as an upper bound.

    Along increasing ``sizes``, ``I^2 * gap`` may never exceed its value at the
    first size by more than ``rtol`` relative, and where two or more gains are
    positive their fitted log-log slope must be -1.5 or steeper.  Gains that
    are exactly zero meet the claim; a first-order decay fails both checks.
    """
    sizes = np.asarray(sizes, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    scaled = sizes**2 * gaps
    if np.any(scaled > scaled[0] * (1.0 + rtol)):
        return False
    return bool(np.count_nonzero(gaps > 0) < 2 or loglog_slope(sizes, gaps) <= -1.5)


def sweep_from_reports(reports: list[IncentiveReport]) -> IncentiveSweep:
    """Sweep rows and the fitted slope from finite-population reports, one per head count."""
    rows = [
        (r.num_agents, r.max_gap, r.epsilon_bound, gain_within_bound(r.max_gap, r.epsilon_bound))
        for r in reports
    ]
    return IncentiveSweep(
        rows=rows,
        reports=list(reports),
        slope=loglog_slope([row[0] for row in rows], [row[1] for row in rows]),
    )


def verify_incentive_bound(scenario: Scenario, rho: Population, i_list) -> IncentiveSweep:
    """Measure per-head gaps across a replication sweep and compare with the ceiling.

    Each entry of ``i_list`` gives the report :func:`incentive_gap` gives at
    that head count, from one shared kernel that clears the markets of
    several head counts in each :func:`~lsvcg.solver.clear_markets` call.
    """
    return sweep_from_reports(_incentive_reports(scenario, rho, list(i_list)))
