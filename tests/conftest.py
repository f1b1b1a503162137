import pytest

from lsvcg.generate import incentive_benchmark, payment_gap_benchmark, rng_for
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
