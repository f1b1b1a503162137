#!/usr/bin/env python3
"""Regenerate the committed scenario documents under scenarios/."""

from dataclasses import replace
from pathlib import Path

from lsvcg.dynamic import save_dynamic_scenario
from lsvcg.generate import (
    dynamic_benchmark,
    incentive_benchmark,
    payment_gap_benchmark,
    random_scenario,
    rng_for,
    scale_capacity,
)
from lsvcg.model import Population, save_scenario


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "scenarios"
    out.mkdir(exist_ok=True)
    two_type = replace(
        scale_capacity(payment_gap_benchmark(), 8),
        population=Population(shares=[0.5, 0.5], num_agents=8),
    )
    (out / "two_type.json").write_bytes(save_scenario(two_type))
    (out / "incentive.json").write_bytes(save_scenario(incentive_benchmark()))
    (out / "dynamic.json").write_bytes(save_dynamic_scenario(dynamic_benchmark(kernel="mixing", discount=0.5)))
    # two resources and quadratic influence, with capacities as totals over ten agents
    quadratic = scale_capacity(
        random_scenario(rng_for(2026, 1), num_theta=2, num_zeta=2, num_resources=2, num_agents=10, quadratic=True),
        10,
    )
    (out / "quadratic.json").write_bytes(save_scenario(quadratic))
    for name in ("two_type.json", "incentive.json", "dynamic.json", "quadratic.json"):
        print(f"wrote scenarios/{name}")


if __name__ == "__main__":
    main()
