"""Seeded scenario generators and the named benchmark instances.

All randomness flows through numpy Generators backed by the counter-based
Philox engine; :func:`rng_for` derives independent streams from one root seed
so sweeps can split work without correlating draws.

Binding scenarios are built backwards from target prices: pick a price inside
every type's interior-response region, evaluate the aggregate load there, and
call that the capacity.  The solver then recovers the target price with every
constraint binding and every allocation strictly interior, which is exactly
the nondegeneracy the sensitivity operations require.
"""

from __future__ import annotations

import numpy as np

from .dynamic import DynamicScenario, TransitionKernel
from .model import InfluenceParams, Population, Scenario, TypeSpace, UtilityParams

__all__ = [
    "rng_for",
    "random_scenario",
    "replicate_assignments",
    "scale_capacity",
    "payment_gap_benchmark",
    "incentive_benchmark",
    "obedience_scenario",
    "dynamic_benchmark",
    "random_dynamic_scenario",
]


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent Philox stream derived from a root seed and a stream path."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(stream))))


def _integral_shares(rng: np.random.Generator, num_types: int, num_agents: int) -> np.ndarray:
    """Strictly positive counts summing to ``num_agents``, as shares."""
    if num_agents < num_types:
        raise ValueError("need at least one agent per type")
    extra = rng.multinomial(num_agents - num_types, np.full(num_types, 1.0 / num_types))
    counts = 1 + extra
    return counts / num_agents


def random_scenario(
    rng: np.random.Generator,
    num_theta: int = 2,
    num_zeta: int = 1,
    num_resources: int = 1,
    num_agents: int | None = 8,
    beta: float = 0.5,
    quadratic: bool = False,
    price_fraction: tuple[float, float] = (0.35, 0.75),
) -> Scenario:
    """Random binding, interior scenario.

    Weights and linear coefficients are O(1); capacities are the aggregate
    load at a price drawn strictly inside every type's participation region,
    so the solved instance has positive prices and interior allocations.
    """
    num_types = num_theta * num_zeta
    weights = rng.uniform(0.6, 2.0, size=(num_theta, num_resources))
    linear = rng.uniform(0.5, 1.5, size=(num_zeta, num_resources))
    quad = rng.uniform(0.05, 0.4, size=(num_zeta, num_resources)) if quadratic else np.zeros((num_zeta, num_resources))

    if num_agents is None:
        shares = rng.dirichlet(np.full(num_types, 3.0))
        shares = 0.5 * shares + 0.5 / num_types  # keep every share well away from zero
        shares = shares / shares.sum()
        population = Population(shares=shares, num_agents=None)
    else:
        population = Population(shares=_integral_shares(rng, num_types, num_agents), num_agents=num_agents)

    w_types = np.repeat(weights, num_zeta, axis=0)
    a_types = np.tile(linear, (num_theta, 1))
    b_types = np.tile(quad, (num_theta, 1))

    capacities = np.empty(num_resources)
    z_needed = 0.0
    for n in range(num_resources):
        p_cut = np.min(w_types[:, n] / a_types[:, n])  # every type interior below this
        price = rng.uniform(*price_fraction) * p_cut
        # interior response at the target price, per type
        a, b, w = a_types[:, n], b_types[:, n], w_types[:, n]
        z = np.where(
            b == 0,
            w / (price * a) - 1.0,
            (-price * (a + 2 * b) + np.sqrt((price * (a + 2 * b)) ** 2 + 8 * price * b * (w - price * a)))
            / (4 * price * b + np.where(b == 0, 1.0, 0.0)),
        )
        z = np.maximum(z, 0.0)
        capacities[n] = float(population.shares @ (a * z + b * z * z))
        z_needed = max(z_needed, float(np.max(z)))

    z_max = max(4.0 * z_needed, 8.0)
    return Scenario(
        type_space=TypeSpace(num_theta=num_theta, num_zeta=num_zeta, num_resources=num_resources),
        utility=UtilityParams(weights=weights),
        influence=InfluenceParams(linear=linear, quadratic=quad),
        population=population,
        capacities=capacities,
        beta=beta,
        z_max=z_max,
    )


def replicate_assignments(shares: np.ndarray, num_agents: int, type_space: TypeSpace) -> list[tuple[int, int]]:
    """Agent list realizing ``shares`` exactly at head count ``num_agents``."""
    counts = shares * num_agents
    rounded = np.round(counts)
    if np.any(np.abs(counts - rounded) > 1e-9):
        raise ValueError(f"shares are not integral at {num_agents} agents")
    out: list[tuple[int, int]] = []
    for r, c in enumerate(rounded.astype(int)):
        out.extend([type_space.unflatten(r)] * c)
    return out


def scale_capacity(scenario: Scenario, factor: float) -> Scenario:
    """Same instance with capacities multiplied by ``factor`` (replica builds)."""
    from dataclasses import replace

    return replace(scenario, capacities=scenario.capacities * factor)


def payment_gap_benchmark() -> Scenario:
    """Two utility types for the exact-versus-shadow payment convergence runs.

    Capacities are per capita; replicate with :func:`scale_capacity` and
    :func:`replicate_assignments` to build the head-count instances.
    """
    return Scenario(
        type_space=TypeSpace(num_theta=2, num_zeta=1, num_resources=1),
        utility=UtilityParams(weights=[[1.0], [1.6]]),
        influence=InfluenceParams(linear=[[1.0]], quadratic=[[0.0]]),
        population=Population(shares=[0.5, 0.5], num_agents=2),
        capacities=[1.0],
        beta=0.5,
        z_max=60.0,
    )


def incentive_benchmark() -> Scenario:
    """Misreport-rate benchmark with a scaled twin type.

    Type (1, 1) has utility and influence both 0.8 times those of type
    (0, 0), so the two share one best-response curve: impersonating the twin
    changes nothing an agent receives, only the load the planner books, which
    moves prices by one part in the head count.  This keeps the best
    deviation gain strictly positive at every sweep size.  Shares are tenths
    so every sweep size divisible by ten is integral.
    """
    return Scenario(
        type_space=TypeSpace(num_theta=2, num_zeta=2, num_resources=1),
        utility=UtilityParams(weights=[[1.0], [0.8]]),
        influence=InfluenceParams(linear=[[1.0], [0.8]], quadratic=[[0.0], [0.0]]),
        population=Population(shares=[0.4, 0.2, 0.1, 0.3], num_agents=10),
        capacities=[1.0],
        beta=0.0,
        z_max=60.0,
    )


def obedience_scenario(rng: np.random.Generator, num_agents: int = 1000) -> Scenario:
    """Random two-type scenario with shares integral at ``num_agents``."""
    scenario = random_scenario(
        rng,
        num_theta=2,
        num_zeta=1,
        num_resources=1,
        num_agents=None,
        beta=0.5,
    )
    lo = 0.2 + 0.6 * rng.random()
    counts = max(1, round(lo * num_agents))
    shares = np.array([counts, num_agents - counts]) / num_agents
    from dataclasses import replace

    return replace(scenario, population=Population(shares=shares, num_agents=num_agents))


def _identity_kernel(num_types: int, z_cap: float) -> TransitionKernel:
    probs = np.eye(num_types)[:, :, None]
    return TransitionKernel(probabilities=probs, bin_edges=[0.0, z_cap])


def dynamic_benchmark(
    kernel: str = "mixing",
    discount: float = 0.5,
    num_bins: int = 1,
) -> DynamicScenario:
    """Two-type dynamic instance.

    ``kernel`` picks the transition structure: ``identity`` (distribution
    frozen), ``mixing`` (allocation-independent contraction toward a fixed
    point), ``allocation`` (higher allocations raise the odds of keeping
    the high-value type; requires ``num_bins > 1``), or ``switching`` (two
    bins split at 0.8: below it both types turn low-value with odds 0.9, at
    or above it high-value with odds 0.9; ``num_bins`` is ignored).  At the
    bin counts the tests and benchmarks use, only ``switching`` makes a plan
    visit more than one bin: ``allocation``'s first bin reaches beyond every
    cleared allocation.
    """
    static = Scenario(
        type_space=TypeSpace(num_theta=2, num_zeta=1, num_resources=1),
        utility=UtilityParams(weights=[[1.0], [1.5]]),
        influence=InfluenceParams(linear=[[1.0]], quadratic=[[0.0]]),
        population=Population(shares=[0.5, 0.5], num_agents=10),
        capacities=[1.0],
        beta=0.5,
        z_max=40.0,
    )
    horizon = int(np.ceil(np.log(1e-6) / np.log(discount)))
    if kernel == "identity":
        k = _identity_kernel(2, static.z_max)
    elif kernel == "mixing":
        q = np.array([[0.8, 0.3], [0.2, 0.7]])  # columns: current type
        k = TransitionKernel(probabilities=q[:, :, None], bin_edges=[0.0, static.z_max])
    elif kernel == "allocation":
        if num_bins < 2:
            num_bins = 4
        edges = np.linspace(0.0, static.z_max, num_bins + 1)
        probs = np.empty((2, 2, num_bins))
        for k_idx in range(num_bins):
            keep_high = 0.5 + 0.4 * (k_idx + 0.5) / num_bins  # more resources, stickier high type
            rise = 0.1 + 0.5 * (k_idx + 0.5) / num_bins
            probs[:, 0, k_idx] = [1.0 - rise, rise]
            probs[:, 1, k_idx] = [1.0 - keep_high, keep_high]
        k = TransitionKernel(probabilities=probs, bin_edges=edges)
    elif kernel == "switching":
        probs = np.empty((2, 2, 2))
        probs[:, :, 0] = [[0.9], [0.1]]  # every type turns low-value
        probs[:, :, 1] = [[0.1], [0.9]]  # every type turns high-value
        k = TransitionKernel(probabilities=probs, bin_edges=[0.0, 0.8, static.z_max])
    else:
        raise ValueError(f"unknown kernel preset {kernel!r}")
    return DynamicScenario(static=static, kernel=k, discount=discount, horizon=horizon, rho0=[0.6, 0.4])


def random_dynamic_scenario(rng: np.random.Generator, num_theta: int = 2, discount: float = 0.5) -> DynamicScenario:
    """Random allocation-independent dynamic instance for property tests."""
    base = random_scenario(rng, num_theta=num_theta, num_zeta=1, num_resources=1, num_agents=None)
    from dataclasses import replace

    static = replace(
        base,
        influence=InfluenceParams(
            linear=np.ones((1, 1)),
            quadratic=np.zeros((1, 1)),
        ),
    )
    q = rng.dirichlet(np.full(num_theta, 2.0), size=num_theta).T  # columns stochastic
    kernel = TransitionKernel(probabilities=q[:, :, None], bin_edges=[0.0, static.z_max])
    rho0 = rng.dirichlet(np.full(num_theta, 3.0))
    horizon = int(np.ceil(np.log(1e-6) / np.log(discount)))
    return DynamicScenario(static=static, kernel=kernel, discount=discount, horizon=horizon, rho0=rho0)
