import numpy as np
import pytest

from lsvcg.generate import incentive_benchmark, payment_gap_benchmark, rng_for
from lsvcg.incentives import loglog_slope
from lsvcg.model import InfluenceParams, Population, Scenario, TypeSpace, UtilityParams


def single_type_benchmark() -> Scenario:
    """One type, one resource, identity influence: z* = 1 at price 1/2."""
    return Scenario(
        type_space=TypeSpace(num_theta=1, num_zeta=1, num_resources=1),
        utility=UtilityParams(weights=[[1.0]]),
        influence=InfluenceParams(linear=[[1.0]], quadratic=[[0.0]]),
        population=Population(shares=[1.0], num_agents=1),
        capacities=[1.0],
        beta=1.0,
        z_max=50.0,
    )


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


@pytest.fixture
def bench1():
    """One type, one resource: z* = 1, p* = 0.5."""
    return single_type_benchmark()


@pytest.fixture
def bench_gap():
    return payment_gap_benchmark()


@pytest.fixture
def bench_incentive():
    return incentive_benchmark()


@pytest.fixture
def rng():
    return rng_for(20250811)
