"""The benchmark's workloads: seeded input documents, the ops run on them,
and the check that decides whether each op's output is correct.

Every static document comes from ``generate.rng_for(seed, stream)``, so the
same seed gives the same bytes; the program only ever sees the documents
(plus, for ``obedience``, the scenario loaded back from one).  The two
``dynamic`` presets are fixed and ignore the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import lsvcg.cli
import lsvcg.superimpose
from lsvcg import generate, model
from lsvcg.dynamic import save_dynamic_scenario

POPULATION_AGENTS = 25_000  # a pass of about 2.5 s, so a 40 s run has a dozen or more (NOTES.md)
SWEEP_BASE_AGENTS = 20
SWEEP_I_LIST = "20,40,80,160,320,640"
SWEEP_WORKERS = "2"  # the CLI default would start min(32, cpu + 4) threads
VCG_AGENTS = 160
DYNAMIC_DISCOUNT = 0.9  # horizon 132

# The document loader checks z_max headroom against *total* capacities, which
# rejects correctly scaled head-count documents (see NOTES.md, defect a).
# Head-count documents therefore carry the smallest z_max the check accepts,
# times this margin; the raised cap never binds, so prices do not change.
Z_MAX_MARGIN = 2.0


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Path], object]  # runs the op with this output directory
    check: Callable[[Path, object], None]  # raises CheckFailed


@dataclass(frozen=True)
class Workload:
    name: str
    documents: list[tuple[str, str]]  # (loader, path from the checkout root), loaded by setup_s
    ops: list[Op]
    groups: dict[str, list[str]]  # gated metric name -> ops summed into it
    seeded: bool
    inputs: dict  # generation parameters, for the results


def accepted_z_max(scenario: model.Scenario) -> float:
    """Smallest z_max the loader's headroom check accepts, times the margin."""
    shares = scenario.population.shares
    a = shares @ scenario.type_linear()
    b = shares @ scenario.type_quadratic()
    c = scenario.capacities
    safe_b = np.where(b > 0, b, 1.0)
    z = np.where(b > 0, (np.sqrt(a * a + 4 * b * c) - a) / (2 * safe_b), c / a)
    return Z_MAX_MARGIN * float(np.max(z))


def head_count_document(scenario: model.Scenario) -> model.Scenario:
    """Capacities as totals over the population, z_max raised to pass the loader."""
    totals = generate.scale_capacity(scenario, scenario.population.num_agents)
    return replace(totals, z_max=accepted_z_max(totals))


def read_table(path: Path) -> list[dict[str, str]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def cli_op(name: str, subcommand: str, document: str, seed: int, check, *extra: str) -> Op:
    argv = [subcommand, "--scenario", document, "--seed", str(seed), *extra]

    def run(out: Path) -> None:
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured):
            code = lsvcg.cli.main([*argv, "--out", str(out)])  # looked up per call, so tracing sees it
        if code != 0:
            raise CheckFailed(f"lsvcg {subcommand} exited {code}: {captured.getvalue().strip()}")

    return Op(name, run, check)


def check_budget(out: Path, _result) -> None:
    row = read_table(out / "budget.csv")[0]
    total, predicted = float(row["total_payments"]), float(row["predicted"])
    if not abs(total - predicted) <= 1e-9 * max(1.0, abs(predicted)):
        raise CheckFailed(f"budget {total!r} != prediction {predicted!r}")


def check_sweep(out: Path, _result) -> None:
    bad = [row for row in read_table(out / "sweep.csv") if row["holds"] != "true"]
    if bad:
        raise CheckFailed(f"{len(bad)} sweep rows exceed the incentive bound, first {bad[0]}")


def check_individual_rationality(out: Path, _result) -> None:
    worst = min(float(row["payoff"]) for row in read_table(out / "outcome.csv"))
    if not worst >= -1e-9:
        raise CheckFailed(f"minimum payoff {worst!r} < -1e-9")


def check_kkt(out: Path, _result) -> None:
    residual = json.loads((out / "meta.json").read_text())["kkt_residual"]
    if not residual <= 1e-9:
        raise CheckFailed(f"kkt_residual {residual!r} > 1e-9")


def check_sensitivity(out: Path, _result) -> None:
    for row in read_table(out / "sensitivity.csv"):
        values = [float(v) for k, v in row.items() if k.startswith("dp_drho_")]
        if not values or not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite dp_drho for resource {row['resource']}")


def check_slots(out: Path, _result) -> None:
    bad = [row["t"] for row in read_table(out / "slots.csv") if not float(row["max_gap"]) <= float(row["bound"])]
    if bad:
        raise CheckFailed(f"max_gap exceeds bound at slots {bad}")


def check_obedience(_out: Path, result) -> None:
    # obedience_check raises on an unconverged run, so reaching here means
    # every run converged.
    _obedient, _best_deviation, margin = result
    if not math.isfinite(margin):
        raise CheckFailed(f"obedience margin {margin!r} is not finite")


def _write(root: Path, rel: str, data: bytes) -> str:
    (root / rel).write_bytes(data)
    return rel


def population(root: Path, work: str, seed: int) -> Workload:
    scenario = generate.random_scenario(
        generate.rng_for(seed, 1), num_theta=2, num_zeta=2, num_resources=2, num_agents=POPULATION_AGENTS
    )
    document = head_count_document(scenario)
    doc = _write(root, f"{work}/population.json", model.save_scenario(document))
    # The distributed algorithm keeps the generator's own cap: at the raised
    # cap it never converges (NOTES.md, defect b).
    obedience_scenario = replace(model.load_scenario((root / doc).read_bytes()), z_max=scenario.z_max)

    def obedience(_out: Path):
        return lsvcg.superimpose.obedience_check(obedience_scenario, POPULATION_AGENTS, (0, 0))

    return Workload(
        name="population",
        documents=[("static", doc)],
        ops=[
            cli_op("lsvcg", "lsvcg", doc, seed, check_budget),
            Op("obedience", obedience, check_obedience),
        ],
        groups={"op_a_s": ["lsvcg"], "op_b_s": ["obedience"]},
        seeded=True,
        inputs={"num_agents": POPULATION_AGENTS, "types": "2x2", "resources": 2, "influence": "linear",
                "z_max_document": document.z_max, "z_max_obedience": scenario.z_max},
    )


def markets(root: Path, work: str, seed: int) -> Workload:
    sweep = generate.random_scenario(
        generate.rng_for(seed, 2), num_theta=4, num_zeta=2, num_resources=2,
        num_agents=SWEEP_BASE_AGENTS, quadratic=True,
    )
    vcg = generate.random_scenario(
        generate.rng_for(seed, 3), num_theta=8, num_zeta=4, num_resources=8, num_agents=VCG_AGENTS, quadratic=True
    )
    wide = generate.random_scenario(
        generate.rng_for(seed, 4), num_theta=64, num_zeta=2, num_resources=64, num_agents=None, quadratic=True
    )
    # The sweep reads capacities per capita, so its document is not rescaled.
    sweep_doc = _write(root, f"{work}/sweep.json", model.save_scenario(sweep))
    vcg_doc = _write(root, f"{work}/vcg.json", model.save_scenario(head_count_document(vcg)))
    wide_doc = _write(root, f"{work}/wide.json", model.save_scenario(wide))
    return Workload(
        name="markets",
        documents=[("static", sweep_doc), ("static", vcg_doc), ("static", wide_doc)],
        ops=[
            cli_op("incentive_sweep", "incentive-sweep", sweep_doc, seed, check_sweep,
                   "--i-list", SWEEP_I_LIST, "--workers", SWEEP_WORKERS),
            cli_op("vcg", "vcg", vcg_doc, seed, check_individual_rationality),
            cli_op("solve", "solve", wide_doc, seed, check_kkt),
            cli_op("sensitivity", "sensitivity", wide_doc, seed, check_sensitivity),
        ],
        groups={"op_a_s": ["incentive_sweep", "vcg"], "op_b_s": ["solve", "sensitivity"]},
        seeded=True,
        inputs={"sweep": {"types": "4x2", "resources": 2, "base_agents": SWEEP_BASE_AGENTS, "i_list": SWEEP_I_LIST},
                "vcg": {"types": "8x4", "resources": 8, "num_agents": VCG_AGENTS},
                "wide": {"types": "64x2", "resources": 64, "num_agents": "infinite"}},
    )


def dynamic(root: Path, work: str, seed: int) -> Workload:
    mixing = generate.dynamic_benchmark("mixing", discount=DYNAMIC_DISCOUNT)
    binned = generate.dynamic_benchmark("allocation", discount=DYNAMIC_DISCOUNT, num_bins=4)
    mixing_doc = _write(root, f"{work}/dynamic.json", save_dynamic_scenario(mixing))
    binned_doc = _write(root, f"{work}/dynamic_binned.json", save_dynamic_scenario(binned))
    return Workload(
        name="dynamic",
        documents=[("dynamic", mixing_doc), ("dynamic", binned_doc)],
        ops=[
            cli_op("dynamic", "dynamic", mixing_doc, seed, check_slots, "--mode", "myopic"),
            cli_op("dynamic_binned", "dynamic", binned_doc, seed, check_slots, "--mode", "myopic"),
        ],
        groups={"op_a_s": ["dynamic"], "op_b_s": ["dynamic_binned"]},
        seeded=False,
        inputs={"discount": DYNAMIC_DISCOUNT, "horizon": mixing.horizon, "binned_bins": 4},
    )


BUILDERS = {"population": population, "markets": markets, "dynamic": dynamic}
