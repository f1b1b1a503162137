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

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import shadow_price_outcome
from .model import Population, Profile, Scenario, ValidationError
from .solver import _slack, clear_markets

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
    if num_agents < 1:
        raise ValidationError("the gain bound needs a positive head count")
    shares = rho.shares if isinstance(rho, Population) else np.asarray(rho, dtype=float)
    if np.any(shares <= 0):
        raise ValidationError("the gain bound requires every type share to be positive")
    l_theta_sum = float(np.sum(np.max(scenario.utility.weights, axis=1)))
    l_f = scenario.influence.derivative_lower_bound
    caps_sq = float(np.sum(scenario.capacities**2))
    min_rho = float(np.min(shares))
    return (2.0 / num_agents**2) * scenario.type_space.num_zeta * l_theta_sum * caps_sq / (
        l_f**2 * min_rho**4
    )


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
    :func:`~lsvcg.solver.clear_markets`.
    """
    ts = scenario.type_space
    num_types = ts.num_types

    # Every (truth, report) pair is priced on one of the markets in `reported`.
    market_of = np.zeros((num_types, num_types), dtype=int)
    if num_agents is None:
        if opponent_counts is not None:
            raise ValidationError("opponent_counts needs a finite num_agents")
        reported, bound = [base_rho.shares], 0.0
    else:
        counts = base_rho.shares * num_agents
        if np.any(np.abs(counts - np.round(counts)) > 1e-9):
            raise ValidationError("num_agents times every base share must be integral (replicated population)")
        counts = np.round(counts).astype(int)
        if opponent_counts is not None:
            opponent_counts = np.asarray(opponent_counts)
            if opponent_counts.shape != (num_types,) or np.any(opponent_counts < 0):
                raise ValidationError("opponent_counts must be nonnegative, one per flattened type")
            if int(opponent_counts.sum()) != num_agents - 1:
                raise ValidationError("opponent_counts must sum to num_agents - 1")
        # against truthful opponents a truthful report leaves the truthful market, row 0
        reported_counts = [counts] if opponent_counts is None else []
        for truth_idx in range(num_types):
            for report_idx in range(num_types):
                if opponent_counts is None:
                    if report_idx == truth_idx:
                        continue
                    dev = counts.copy()
                    dev[truth_idx] -= 1
                else:
                    dev = opponent_counts.copy()
                dev[report_idx] += 1
                market_of[truth_idx, report_idx] = len(reported_counts)
                reported_counts.append(dev)
        reported = [dev / num_agents for dev in reported_counts]
        bound = misreport_gain_bound(scenario, base_rho, num_agents)
    weights = np.array(reported)
    prices, allocations, _ = clear_markets(scenario, weights, scenario.capacities)

    def payoff(truth_idx: int, report_idx: int) -> float:
        """Per-head payoff of a ``truth_idx`` agent announcing ``report_idx``.

        Prices come from the per-capita program at the scenario capacities,
        frozen or re-solved with the deviator's report counted; the agent is
        charged as a mean-field probe, so it receives the rebate ``beta * C_n``.
        """
        m = market_of[truth_idx, report_idx]
        z = allocations[m]
        probe = np.zeros((num_types, num_types), dtype=int)
        probe[truth_idx, report_idx] = 1
        outcome = shadow_price_outcome(
            Profile(ts, probe),
            scenario,
            z,
            prices[m],
            _slack(scenario, weights[m], z, scenario.capacities),
            mean_field=True,
        )
        return float(outcome.cell_payoffs[0])

    per_type_gap: dict[tuple[int, int], float] = {}
    best_misreport: dict[tuple[int, int], tuple[int, int] | None] = {}
    for r in range(num_types):
        true_type = ts.unflatten(r)
        truthful = payoff(r, r)
        best_gain = -math.inf
        best = None
        for r_alt in range(num_types):
            if r_alt == r:
                continue
            gain = payoff(r, r_alt) - truthful
            if gain > best_gain:
                best_gain, best = gain, ts.unflatten(r_alt)
        if best is None:  # single-type space: no alternative report exists
            per_type_gap[true_type] = 0.0
            best_misreport[true_type] = None
        else:
            per_type_gap[true_type] = max(0.0, best_gain)
            best_misreport[true_type] = best

    return IncentiveReport(
        per_type_gap=per_type_gap,
        best_misreport=best_misreport,
        max_gap=max(per_type_gap.values()),
        epsilon_bound=bound,
        num_agents=num_agents,
    )


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
    """Measure per-head gaps across a replication sweep and compare with the ceiling."""
    return sweep_from_reports([incentive_gap(scenario, rho, int(n)) for n in i_list])
