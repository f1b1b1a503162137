"""Allocation mechanisms: exact VCG and the shadow-price payment rule.

Two payment rules over the same reporting game (each agent reports a type,
the planner allocates from the solved menu):

* :func:`vcg_exact` charges every agent the externality it imposes, computed
  from one leave-one-out solve per distinct report.  It is the small-scale
  oracle: exact, strategyproof, and expensive.
* :func:`large_scale_vcg` charges shadow prices for the agent's *monitored*
  (true-influence) load, minus a per-capita capacity rebate
  ``beta * C_n / I`` at the scenario's rebate share ``beta``.  Payments need only the market prices and observed
  loads, never a re-solve.

The charge itself is :func:`shadow_price_outcome`: given any solved menu and
its prices it is the one superimposable payment rule, shared by
:func:`large_scale_vcg`, the distributed algorithm's overlay and the
incentive probes.

Populations arrive as a :class:`~lsvcg.model.Profile` of head counts.
Agents of one (true type, report) cell receive the same allocation, payment
and payoff, so every rule computes once per occupied cell (at most ``R**2``
cells for ``R`` types), whatever the head count.

Capacity conventions.  With an explicit agent list, ``scenario.capacities``
are totals shared by those agents (matching :func:`~lsvcg.solver.solve_weighted`
at the list's empirical shares with ``capacities`` divided by its head count),
so the two mechanisms are directly comparable on one scenario.  With a report
*distribution* (mean-field mode), capacities are read per capita, the rebate
is ``beta * C_n``, and prices are independent of any single agent's report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Population, Profile, Scenario, ValidationError, _frozen_array, utility_value
from .solver import _slack, clear_markets, solve_weighted

__all__ = [
    "Outcome",
    "EXACT_VCG_MAX_AGENTS",
    "vcg_exact",
    "shadow_price_outcome",
    "large_scale_vcg",
    "budget_audit",
    "ir_audit",
    "shadow_payment_gap",
    "outcome_cell_rows",
    "outcome_rows",
]

#: Scale guard for the exact mechanism; beyond this many agents use
#: :func:`large_scale_vcg`.
EXACT_VCG_MAX_AGENTS = 200


@dataclass(frozen=True, eq=False)
class Outcome:
    """Results of one mechanism run, held per occupied cell of ``profile``.

    Row ``c`` of the ``cell_*`` arrays belongs to ``profile.cells`` entry
    ``c``, and every agent of that cell receives it.  Payoffs are always
    computed against *true* utility types: ``cell_payoffs[c] ==
    utility(true theta_c, cell_allocations[c]) - cell_payments[c]``.
    """

    profile: Profile
    cell_allocations: np.ndarray  # (C, N)
    cell_payments: np.ndarray  # (C,)
    cell_payoffs: np.ndarray  # (C,)
    prices: np.ndarray  # (N,)
    beta: float
    constraint_slack: np.ndarray  # slack of the solved program
    mean_field: bool = False

    def __post_init__(self):
        for name in ("cell_allocations", "cell_payments", "cell_payoffs", "prices", "constraint_slack"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


def _cell_loads(scenario: Scenario, cell_true: np.ndarray, cell_allocations: np.ndarray) -> np.ndarray:
    """Monitored load of each cell: its true zeta's influence at its allocation."""
    return scenario.influence.load(cell_true % scenario.type_space.num_zeta, cell_allocations)


def _cell_payoffs(
    scenario: Scenario, cell_true: np.ndarray, cell_allocations: np.ndarray, cell_payments: np.ndarray
) -> np.ndarray:
    """True-type utility of each cell's allocation minus its payment."""
    theta = cell_true // scenario.type_space.num_zeta
    return utility_value(scenario.utility, theta, cell_allocations) - cell_payments


def vcg_exact(profile: Profile, scenario: Scenario) -> Outcome:
    """Exact VCG outcome for an explicit agent profile (small-scale oracle).

    The allocation maximizes reported welfare subject to the reported-type
    loads fitting the total capacities.  Agent ``i`` pays the others'
    optimal welfare without it minus their reported welfare at the joint
    optimum.  Identical reports share identical subproblems, so the
    nominally ``I + 1`` solves reduce to one per distinct report plus one,
    all cleared together by :func:`~lsvcg.solver.clear_markets`.
    """
    scenario.check_profile(profile)
    num_agents = profile.num_agents
    if num_agents == 0:
        raise ValidationError("at least one agent is required")
    if num_agents > EXACT_VCG_MAX_AGENTS:
        raise ValidationError(
            f"exact VCG is guarded at {EXACT_VCG_MAX_AGENTS} agents; "
            "use large_scale_vcg for bigger populations"
        )

    counts = profile.report_counts()
    # The joint market, then one leave-one-out market per distinct report.
    markets, leave_out = [counts], []
    for r_idx in np.flatnonzero(counts > 0):
        others = counts.copy()
        others[r_idx] -= 1.0
        if others.sum() > 0:
            markets.append(others)
            leave_out.append(r_idx)
    weights = np.array(markets)
    prices, allocations, _ = clear_markets(scenario, weights, scenario.capacities)
    z = allocations[0]
    # utility of every flat type at every market's allocation (K, R)
    type_utility = utility_value(scenario.utility, np.arange(len(counts)) // scenario.type_space.num_zeta, allocations)
    per_type_utility = type_utility[0]
    reported_welfare = float(counts @ per_type_utility)

    payment_of_report = np.zeros(scenario.type_space.num_types)
    for r_idx, others, rest_utility in zip(leave_out, weights[1:], type_utility[1:]):
        rest_welfare = float(others @ rest_utility)
        others_at_joint = reported_welfare - per_type_utility[r_idx]
        payment_of_report[r_idx] = rest_welfare - others_at_joint

    cells = profile.cells
    cell_allocations = z[cells.report_idx]
    payments = payment_of_report[cells.report_idx]
    return Outcome(
        profile=profile,
        cell_allocations=cell_allocations,
        cell_payments=payments,
        cell_payoffs=_cell_payoffs(scenario, cells.true_idx, cell_allocations, payments),
        prices=prices[0],
        beta=scenario.beta,
        constraint_slack=_slack(scenario, counts, z, scenario.capacities),
    )


def shadow_price_outcome(
    profile: Profile,
    scenario: Scenario,
    menu: np.ndarray,
    prices: np.ndarray,
    constraint_slack: np.ndarray,
    mean_field: bool = False,
) -> Outcome:
    """Charge shadow prices on a solved menu: the superimposable payment rule.

    Each agent receives row ``menu[report]`` and pays
    ``sum_n prices_n * (f_true(z_report) - rebate_n)``, where the rebate is
    ``scenario.beta * C_n / I`` for a finite population of ``I = profile.num_agents``
    agents, and ``beta * C_n`` per capita in ``mean_field`` mode (the agents
    are then measure-zero probes).  ``menu`` and ``prices`` may come from any
    algorithm that solves the program; nothing is re-solved.
    """
    scenario.check_profile(profile)
    rebate = scenario.beta * scenario.capacities
    if not mean_field:
        rebate = rebate / profile.num_agents

    cells = profile.cells
    allocations = menu[cells.report_idx]
    payments = (_cell_loads(scenario, cells.true_idx, allocations) - rebate) @ prices
    return Outcome(
        profile=profile,
        cell_allocations=allocations,
        cell_payments=payments,
        cell_payoffs=_cell_payoffs(scenario, cells.true_idx, allocations, payments),
        prices=prices,
        beta=scenario.beta,
        constraint_slack=constraint_slack,
        mean_field=mean_field,
    )


def large_scale_vcg(
    profile: Profile,
    scenario: Scenario,
    report_distribution: Population | np.ndarray | None = None,
) -> Outcome:
    """Shadow-price mechanism outcome: solve the reported program, then charge.

    Finite mode (``report_distribution is None``): the profile's agents are
    the whole population; the reported-type program is solved at the
    scenario's total capacities and each agent pays
    ``sum_n p_n * (f_true(z_report) - beta * C_n / I)``.

    Mean-field mode: ``report_distribution`` fixes the reported population
    (and hence prices), capacities are per capita, the rebate is
    ``beta * C_n``, and the profile's agents are measure-zero probes whose
    reports cannot move prices.
    """
    scenario.check_profile(profile)
    mean_field = report_distribution is not None
    if not mean_field:
        if profile.num_agents == 0:
            raise ValidationError("at least one agent is required")
        weights = profile.report_counts()
    elif isinstance(report_distribution, Population):
        weights = report_distribution.shares
    else:
        weights = np.asarray(report_distribution, dtype=float)
    solution = solve_weighted(scenario, weights, scenario.capacities)
    return shadow_price_outcome(profile, scenario, solution.z, solution.p, solution.constraint_slack, mean_field)


def budget_audit(outcome: Outcome, scenario: Scenario) -> tuple[float, float]:
    """Total collected payments versus the closed-form prediction.

    With every capacity binding the prediction is
    ``sum_n p_n * (1 - beta) * C_n``; with slack it falls back to the
    observed-load form ``sum_n p_n * (sum_i f_i - beta * C_n)``.  Both sums
    over agents are head-count-weighted sums over cells.
    """
    if outcome.mean_field:
        raise ValidationError("budget audit applies to finite outcomes; mean-field rows are measure-zero probes")
    cells = outcome.profile.cells
    total = float(cells.counts @ outcome.cell_payments)
    caps = scenario.capacities
    binding = np.all(np.abs(outcome.constraint_slack) <= 1e-7 * np.maximum(caps, 1.0))
    if binding:
        predicted = float(outcome.prices @ ((1.0 - outcome.beta) * caps))
    else:
        loads = cells.counts @ _cell_loads(scenario, cells.true_idx, outcome.cell_allocations)
        predicted = float(outcome.prices @ (loads - outcome.beta * caps))
    return total, predicted


def ir_audit(outcome: Outcome) -> float:
    """Smallest payoff across agents; participation is rational when >= -1e-9."""
    return float(np.min(outcome.cell_payoffs))


def shadow_payment_gap(profile: Profile, scenario: Scenario) -> np.ndarray:
    """Per-cell |exact-VCG payment - shadow-price payment| for a profile.

    The shadow payment is ``sum_n lambda_n f_true(x_n)`` at the head-count
    optimum; under truth-telling the gap shrinks as the population grows,
    which is the convergence measurement behind the large-scale payment rule.
    """
    exact = vcg_exact(profile, scenario)
    cells = profile.cells
    shadow = _cell_loads(scenario, cells.true_idx, exact.cell_allocations) @ exact.prices
    return np.abs(exact.cell_payments - shadow)


def outcome_cell_rows(outcome: Outcome) -> list[dict]:
    """Export record of each occupied cell: every column except the agent id."""
    ts = outcome.profile.type_space
    cells = outcome.profile.cells
    rows = []
    for c, (true_r, report_r) in enumerate(zip(cells.true_idx.tolist(), cells.report_idx.tolist())):
        true_theta, true_zeta = ts.unflatten(true_r)
        report_theta, report_zeta = ts.unflatten(report_r)
        row = {
            "true_theta": true_theta,
            "true_zeta": true_zeta,
            "report_theta": report_theta,
            "report_zeta": report_zeta,
        }
        for n, value in enumerate(outcome.cell_allocations[c]):
            row[f"z_{n}"] = float(value)
        row["payment"] = float(outcome.cell_payments[c])
        row["payoff"] = float(outcome.cell_payoffs[c])
        rows.append(row)
    return rows


def outcome_rows(outcome: Outcome) -> list[dict]:
    """Flat record per agent for table export, agents numbered cell by cell."""
    cell_rows = outcome_cell_rows(outcome)
    agent_cells = np.repeat(np.arange(len(cell_rows)), outcome.profile.cells.counts)
    return [{"id": i, **cell_rows[c]} for i, c in enumerate(agent_cells.tolist())]
