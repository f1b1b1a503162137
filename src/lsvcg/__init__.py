"""Shadow-price mechanisms for capacity-constrained utility maximization.

Solvers for share-weighted and head-count allocation programs, exact-VCG and
shadow-price payment rules, finite-population misreport measurements, a
distributed price-broadcast algorithm with a superimposed payment overlay,
and a dynamic Markov-type extension with deterministic mean-field dynamics.
"""

__version__ = "0.1.0"

from .model import (
    INFINITE,
    InfluenceParams,
    Population,
    Profile,
    Scenario,
    TypeSpace,
    UtilityParams,
    ValidationError,
    empirical_population,
    load_scenario,
    save_scenario,
    utility_value,
)
from .solver import (
    DegeneratePointError,
    PrimalDualSolution,
    SensitivityResult,
    SolverError,
    best_response,
    kkt_residual,
    price_sensitivity,
    sensitivity_norm_bound_check,
    solve_weighted,
)
from .mechanisms import (
    Outcome,
    budget_audit,
    ir_audit,
    large_scale_vcg,
    outcome_cell_rows,
    outcome_rows,
    shadow_payment_gap,
    shadow_price_outcome,
    vcg_exact,
)
from .incentives import (
    IncentiveReport,
    IncentiveSweep,
    incentive_gap,
    loglog_slope,
    misreport_gain_bound,
    verify_incentive_bound,
)
from .superimpose import (
    AlgorithmConfig,
    AlgorithmTrace,
    obedience_check,
    obedient_actions,
    run_algorithm,
    superimposed_outcome,
)
from .dynamic import (
    DynamicScenario,
    Policy,
    SlotOutcome,
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
