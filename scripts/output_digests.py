#!/usr/bin/env python3
"""Print a digest of every file the CLI writes, to compare two checkouts.

Runs every subcommand on every scenario document given (default:
``scenarios/*.json`` plus four generated documents, a wide one with 16 types
and 8 resources over an infinite population, a head-count one with 60 agents
and two near-linear head-count ones with 60 agents, whose quadratic influence
coefficients are scaled by 1e-4 and by 1e-8), ``dynamic`` in both planning modes
(``myopic`` and ``fixed-point``), ``dynamic`` on the ``mixing``,
``allocation`` and ``switching`` presets at discounts 0.5 and 0.9, and
``dynamic`` on a generated document with 3 types,
3 resources, 40 agents and an allocation-independent kernel (the only
digested rollout that clears more than one resource), and ``incentive-sweep``
with ``--i-list 20,40,80,160,320,640`` on a generated per-capita quadratic
document with 8 types (one a scaled twin of another, so some gaps are
positive), 8 resources and 20 agents (the only digested sweep that exits 0
with more than two resources; the generated documents above exit 2 on the
default list, whose head counts make their shares non-integral).  Each run
writes to a fresh temporary directory.
Prints one ``sha256  run/file`` line per output file and one ``exit N  run``
line per run, where ``run`` is ``subcommand/scenario``: ``scenario`` is the
file stem of a default document and the path, as given, of a document named
on the command line (so same-named documents in different directories stay
apart).  Lines that name the scenario's path (its header line and its
``meta.json`` field) are left out of the hash, so two checkouts give equal
printouts exactly when their outputs are byte-identical:

    PYTHONPATH=src python scripts/output_digests.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python scripts/output_digests.py > old.txt
    diff old.txt new.txt

Solver error messages go to standard error, which is not hashed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from lsvcg.cli import main
from lsvcg.dynamic import DynamicScenario, TransitionKernel, save_dynamic_scenario
from lsvcg.generate import dynamic_benchmark, random_scenario, rng_for, scale_capacity
from lsvcg.model import InfluenceParams, UtilityParams, save_scenario

ROOT = Path(__file__).resolve().parent.parent
STATIC_SUBCOMMANDS = ("solve", "vcg", "lsvcg", "incentive-sweep", "sensitivity", "superimpose")
DYNAMIC_MODES = ("myopic", "fixed-point")
SWEEP_I_LIST = "20,40,80,160,320,640"
PRESETS = [(kernel, discount) for kernel in ("mixing", "allocation", "switching") for discount in (0.5, 0.9)]


def digest(path: Path, scenario: str) -> str:
    """sha256 of ``path`` without the lines that contain ``scenario``."""
    lines = path.read_bytes().split(b"\n")
    kept = [line for line in lines if scenario.encode("utf-8") not in line]
    return hashlib.sha256(b"\n".join(kept)).hexdigest()


def run(label: str, scenario: Path, argv: list[str], scratch: Path) -> list[str]:
    out = Path(tempfile.mkdtemp(dir=scratch))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--scenario", str(scenario), "--out", str(out)])
    lines = [f"exit {code}  {label}"]
    for path in sorted(out.iterdir()):
        lines.append(f"{digest(path, str(scenario))}  {label}/{path.name}")
    return lines


def generated_documents(scratch: Path) -> list[Path]:
    """A wide static document, a head-count one (capacities are totals over its agents)
    and two near-linear head-count ones (quadratic coefficients x 1e-4 and x 1e-8,
    where a quadratic root that cancelled as they shrink would miss capacity)."""
    wide = random_scenario(rng_for(0, 1), num_theta=8, num_zeta=2, num_resources=8, num_agents=None, quadratic=True)
    finite = random_scenario(rng_for(0, 2), num_theta=3, num_zeta=2, num_resources=2, num_agents=60, quadratic=True)
    near = random_scenario(rng_for(0, 6), num_theta=3, num_zeta=2, num_resources=3, num_agents=60, quadratic=True)
    linear, quadratic = near.influence.linear, near.influence.quadratic
    documents = []
    for name, scenario in (
        ("wide", wide),
        ("head-count", scale_capacity(finite, 60)),
        ("near-linear", scale_capacity(replace(near, influence=InfluenceParams(linear, 1e-4 * quadratic)), 60)),
        ("nearer-linear", scale_capacity(replace(near, influence=InfluenceParams(linear, 1e-8 * quadratic)), 60)),
    ):
        documents.append(scratch / f"generated-{name}.json")
        documents[-1].write_bytes(save_scenario(scenario))
    return documents


def several_resource_dynamic() -> DynamicScenario:
    """3 types over 3 resources with identity influence, 40 agents and an
    allocation-independent kernel: every slot clears a 3-resource static market."""
    rng = rng_for(3, 0)
    base = random_scenario(rng, num_theta=3, num_zeta=1, num_resources=3, num_agents=40)
    static = replace(base, influence=InfluenceParams(linear=np.ones((1, 3)), quadratic=np.zeros((1, 3))))
    q = rng.dirichlet(np.full(3, 2.0), size=3).T
    kernel = TransitionKernel(probabilities=q[:, :, None], bin_edges=[0.0, static.z_max])
    return DynamicScenario(static=static, kernel=kernel, discount=0.5, horizon=20, rho0=rng.dirichlet(np.full(3, 3.0)))


def per_capita_sweep(scratch: Path) -> Path:
    """4 x 2 types over 8 quadratic resources with 20 agents; capacities stay per capita,
    as the sweep reads them.  Type (1, 1) is a 0.8-scaled twin of type (0, 0), as in
    ``generate.incentive_benchmark``, so impersonating it pays: with distinct types
    every gap is floored at zero and the payoffs would show only through the
    best-misreport columns."""
    scenario = random_scenario(rng_for(0, 5), num_theta=4, num_zeta=2, num_resources=8, num_agents=20, quadratic=True)
    weights, linear, quadratic = (
        x.copy() for x in (scenario.utility.weights, scenario.influence.linear, scenario.influence.quadratic)
    )
    for table in (weights, linear, quadratic):
        table[1] = 0.8 * table[0]
    scenario = replace(
        scenario, utility=UtilityParams(weights), influence=InfluenceParams(linear=linear, quadratic=quadratic)
    )
    doc = scratch / "generated-per-capita.json"
    doc.write_bytes(save_scenario(scenario))
    return doc


def runs(documents: list[tuple[str, Path]], scratch: Path):
    """(label, document, argv) of every run on the (name, document) pairs, then on the
    presets, then the per-capita sweep."""
    for name, doc in documents:
        for sub in STATIC_SUBCOMMANDS:
            yield f"{sub}/{name}", doc, [sub]
        for mode in DYNAMIC_MODES:
            yield f"dynamic-{mode}/{name}", doc, ["dynamic", "--mode", mode]
    dynamic_documents = {
        f"{kernel}-{discount}": dynamic_benchmark(kernel, discount=discount, num_bins=4)
        for kernel, discount in PRESETS
    }
    dynamic_documents["generated-3-resource"] = several_resource_dynamic()
    for name, dyn in dynamic_documents.items():
        doc = scratch / f"{name}.json"
        doc.write_bytes(save_dynamic_scenario(dyn))
        for mode in DYNAMIC_MODES:
            yield f"dynamic-{mode}/{name}", doc, ["dynamic", "--mode", mode]
    sweep_argv = ["incentive-sweep", "--i-list", SWEEP_I_LIST]
    yield "incentive-sweep/generated-per-capita", per_capita_sweep(scratch), sweep_argv


def main_digests(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "documents",
        nargs="*",
        type=Path,
        help="scenario documents (default: scenarios/*.json and four generated ones)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.documents:
            documents = [(str(doc), doc) for doc in args.documents]
        else:
            defaults = [*sorted((ROOT / "scenarios").glob("*.json")), *generated_documents(Path(tmp))]
            documents = [(doc.stem, doc) for doc in defaults]
        for label, doc, sub_argv in runs(documents, Path(tmp)):
            print("\n".join(run(label, doc, sub_argv, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
