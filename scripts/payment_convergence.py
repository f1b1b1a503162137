#!/usr/bin/env python3
"""Exact-VCG payments versus shadow-price payments under replication.

Replicates a fixed two-type economy (population and capacity scaled
together) and prints the largest per-cell difference between the exact
leave-one-out payment and the shadow-price payment at each size, with the
observed decay exponent.  Agents of one (true type, report) cell pay alike,
so the largest per-cell gap is the largest over agents.
"""

import numpy as np

from lsvcg.generate import payment_gap_benchmark, scale_capacity
from lsvcg.incentives import loglog_slope
from lsvcg.mechanisms import shadow_payment_gap
from lsvcg.model import Population, Profile


def main() -> None:
    base = payment_gap_benchmark()
    sizes = [4, 8, 16, 32, 64, 128]
    gaps = []
    print(f"{'I':>6} {'max |exact - shadow|':>22}")
    for num_agents in sizes:
        scenario = scale_capacity(base, num_agents)
        profile = Profile.truthful(Population(base.population.shares, num_agents), base.type_space)
        gap = float(np.max(shadow_payment_gap(profile, scenario)))
        gaps.append(gap)
        print(f"{num_agents:>6} {gap:>22.6e}")
    print(f"fitted log-log exponent: {loglog_slope(sizes, gaps):.3f}")


if __name__ == "__main__":
    main()
