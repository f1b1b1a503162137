"""Batch experiment runner.

One subcommand per module operation family, all driven by a scenario
document, a seed, and an output directory.  Every output table is
comma-separated UTF-8 with LF line endings, begins with a ``#``-prefixed
metadata comment block and a header row, and is byte-identical across reruns
of the same manifest; a ``meta.json`` record accompanies every run.  Wall
time is reported on standard error only, so it never perturbs the outputs.

Exit codes: 0 success, 2 validation problems (bad documents, bad flags),
3 solver failures (a market that does not clear, an unconverged distributed
run, or a sensitivity asked for at a degenerate point).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamic import dynamic_incentive_gap, load_dynamic_scenario, plan_policy
from .incentives import gain_within_bound, verify_incentive_bound
from .mechanisms import Outcome, budget_audit, large_scale_vcg, outcome_cell_rows, vcg_exact
from .model import Profile, ValidationError, load_scenario
from .solver import (
    MAX_BISECTION_STEPS,
    PRICE_TOLERANCE,
    DegeneratePointError,
    SolverError,
    price_sensitivity,
    sensitivity_norm_bound_check,
    solve_weighted,
)
from .superimpose import obedient_actions, run_algorithm, superimposed_outcome

__all__ = ["RunManifest", "main"]


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    scenario_path: str
    seed: int
    overrides: dict = field(default_factory=dict)


def _format(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _floats(values) -> str:
    """``_format``'s text of each float in ``values``, comma-joined."""
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


def _line(*values) -> str:
    """One table line of ``_format``'s text of ``values``."""
    return ",".join(map(_format, values)) + "\n"


def _float_rows(labels, block, tail: str = "") -> list[str]:
    """One line per row of the float ``block``: its label, the row, then ``tail``."""
    return [f"{label},{_floats(row)}{tail}\n" for label, row in zip(labels, block)]


def _write_outcome(path: Path, outcome: Outcome, manifest: RunManifest) -> None:
    """One row per agent, agents numbered cell by cell; each cell's agents are
    written as one block that shares the cell's formatted columns."""
    cell_rows = outcome_cell_rows(outcome)
    body, start = [], 0
    for row, count in zip(cell_rows, outcome.profile.cells.counts.tolist()):
        sep = f",{_line(*row.values())}"
        body += [sep.join(map(str, range(start, start + count))), sep]
        start += count
    _write_lines(path, ["id", *cell_rows[0]] if cell_rows else [], body, manifest)


def _write_lines(path: Path, header: list[str], body: list[str], manifest: RunManifest) -> None:
    """The metadata block, then, unless ``body`` is empty, the ``header`` row and
    ``body``'s newline-terminated chunks, streamed to ``path``."""
    lines = [
        f"# subcommand: {manifest.subcommand}",
        f"# scenario: {manifest.scenario_path}",
        f"# seed: {manifest.seed}",
        f"# version: {__version__}",
    ]
    for key in sorted(manifest.overrides):
        lines.append(f"# override {key}: {_format(manifest.overrides[key])}")
    if body:
        lines.append(",".join(header))
    with path.open("wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))
        for chunk in body:
            f.write(chunk.encode("utf-8"))


def _write_meta(out: Path, manifest: RunManifest, extra: dict | None = None) -> None:
    record = {
        "subcommand": manifest.subcommand,
        "scenario": manifest.scenario_path,
        "seed": manifest.seed,
        "version": __version__,
        "overrides": {k: manifest.overrides[k] for k in sorted(manifest.overrides)},
        "solver": {
            "price_tolerance": PRICE_TOLERANCE,
            "max_bisection_iters": MAX_BISECTION_STEPS,
        },
    }
    if extra:
        record.update(extra)
    (out / "meta.json").write_bytes(json.dumps(record, indent=2, sort_keys=True).encode("utf-8"))


def _read_scenario(args) -> bytes:
    """The bytes of ``--scenario``; a path that cannot be read (missing, a
    directory, unreadable) is a validation problem."""
    try:
        return Path(args.scenario).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read the scenario: {exc}") from exc


def _load_static(args):
    scenario = load_scenario(_read_scenario(args))
    if args.beta is not None:
        scenario = replace(scenario, beta=args.beta)
    return scenario


def _finite_profile(scenario) -> Profile:
    if not scenario.population.is_finite:
        raise ValidationError("this subcommand needs a finite population (num_agents is 'infinite')")
    return Profile.truthful(scenario.population, scenario.type_space)


def cmd_solve(args, manifest: RunManifest, out: Path) -> None:
    scenario = _load_static(args)
    solution = solve_weighted(scenario, scenario.population.shares, scenario.per_capita_capacities())
    ts = scenario.type_space
    resources = range(ts.num_resources)
    header = ["theta", "zeta", "share", *(f"z_{n}" for n in resources), *(f"p_{n}" for n in resources), "kkt_residual"]
    labels = ("{},{}".format(*ts.unflatten(r)) for r in range(ts.num_types))
    block = np.column_stack([solution.weights, solution.z])
    tail = f",{_floats(np.append(solution.p, solution.kkt_residual))}"  # the same on every row
    _write_lines(out / "solution.csv", header, _float_rows(labels, block, tail), manifest)
    _write_meta(out, manifest, {"iterations": solution.iterations, "kkt_residual": solution.kkt_residual})


def cmd_vcg(args, manifest: RunManifest, out: Path) -> None:
    scenario = _load_static(args)
    profile = _finite_profile(scenario)
    outcome = vcg_exact(profile, scenario)
    _write_outcome(out / "outcome.csv", outcome, manifest)
    _write_meta(out, manifest, {"num_agents": profile.num_agents})


def cmd_lsvcg(args, manifest: RunManifest, out: Path) -> None:
    scenario = _load_static(args)
    if scenario.population.is_finite:
        outcome = large_scale_vcg(_finite_profile(scenario), scenario)
        total, predicted = budget_audit(outcome, scenario)
    else:
        probes = np.eye(scenario.type_space.num_types, dtype=int)  # one truthful probe per type
        outcome = large_scale_vcg(
            Profile(scenario.type_space, probes), scenario, report_distribution=scenario.population
        )
        total = float(scenario.population.shares @ outcome.cell_payments)
        predicted = float(outcome.prices @ ((1.0 - outcome.beta) * scenario.capacities))
    _write_outcome(out / "outcome.csv", outcome, manifest)
    budget = [_line(total, predicted, outcome.beta)]
    _write_lines(out / "budget.csv", ["total_payments", "predicted", "beta"], budget, manifest)
    _write_meta(out, manifest, {"beta": outcome.beta})


def _parse_i_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"--i-list must be a comma-separated list of integers: {exc}") from exc
    if not values:
        raise ValidationError("--i-list must contain at least one head count")
    if min(values) < 1:
        raise ValidationError(f"--i-list head counts must be positive, got {min(values)}")
    return values


def _json_number(value: float) -> float | None:
    """``value``, or ``None`` where it is not finite: JSON has no NaN."""
    return value if np.isfinite(value) else None


def cmd_incentive_sweep(args, manifest: RunManifest, out: Path) -> None:
    scenario = _load_static(args)
    i_list = _parse_i_list(args.i_list)
    if args.workers is not None and args.workers < 1:
        raise ValidationError(f"--workers must be positive, got {args.workers}")
    sweep = verify_incentive_bound(scenario, scenario.population, i_list)
    header = ["I", "theta", "zeta", "best_misreport_theta", "best_misreport_zeta", "gap", "bound", "holds", "slope"]
    rows = [
        _line(
            report.num_agents,
            *true_type,
            *(report.best_misreport[true_type] or ("", "")),
            gap,
            report.epsilon_bound,
            gain_within_bound(gap, report.epsilon_bound),
            sweep.slope,
        )
        for report in sweep.reports
        for true_type, gap in sorted(report.per_type_gap.items())
    ]
    _write_lines(out / "sweep.csv", header, rows, manifest)
    _write_meta(out, manifest, {"i_list": i_list, "slope": _json_number(sweep.slope)})


def cmd_sensitivity(args, manifest: RunManifest, out: Path) -> None:
    scenario = _load_static(args)
    solution = solve_weighted(scenario, scenario.population.shares, scenario.per_capita_capacities())
    sens = price_sensitivity(scenario, scenario.population, solution)
    ts = scenario.type_space
    header = ["resource", *("dp_drho_{}_{}".format(*ts.unflatten(r)) for r in range(ts.num_types))]
    _write_lines(out / "sensitivity.csv", header, _float_rows(range(ts.num_resources), sens.dp_drho), manifest)
    if scenario.population.is_finite:
        lhs, rhs, holds = sensitivity_norm_bound_check(scenario, scenario.population, solution)
        _write_lines(out / "bound.csv", ["lhs", "rhs", "holds"], [_line(lhs, rhs, holds)], manifest)
        _write_meta(out, manifest, {"bound_holds": bool(holds)})
    else:
        _write_meta(out, manifest, {"bound_holds": None})


def cmd_superimpose(args, manifest: RunManifest, out: Path) -> None:
    scenario = _load_static(args)
    trace = run_algorithm(obedient_actions(_finite_profile(scenario)), scenario)
    resources = range(scenario.type_space.num_resources)
    header = ["round", *(f"p_{n}" for n in resources), *(f"demand_{n}" for n in resources)]
    rounds = range(1, trace.rounds_used + 1)
    block = np.hstack([trace.round_prices, trace.round_demand])
    _write_lines(out / "trace.csv", header, _float_rows(rounds, block), manifest)
    _write_meta(out, manifest, {"converged": bool(trace.converged), "rounds": trace.rounds_used})
    if not trace.converged:
        raise SolverError(
            f"the distributed algorithm did not converge in {trace.rounds_used} rounds: "
            f"worst per-capita excess {float(np.max(np.abs(trace.final_excess))):.3e}"
        )
    _write_outcome(out / "outcome.csv", superimposed_outcome(trace, scenario), manifest)


def cmd_dynamic(args, manifest: RunManifest, out: Path) -> None:
    dyn = load_dynamic_scenario(_read_scenario(args))
    policy = plan_policy(dyn, args.mode)
    num_agents = dyn.static.population.num_agents if dyn.static.population.is_finite else None
    gap_rows = dynamic_incentive_gap(dyn, policy, num_agents)
    types = range(dyn.num_types)
    header = ["t", *(f"rho_{theta}" for theta in types), *(f"z_{theta}" for theta in types), "p_0",
              *(f"payment_{theta}" for theta in types), "max_gap", "bound"]
    block = np.column_stack([
        policy.rho_path[: len(gap_rows)],
        [row.slot.z[:, 0] for row in gap_rows],
        [row.slot.p[0] for row in gap_rows],
        [row.slot.payments for row in gap_rows],
        [row.max_gap for row in gap_rows],
        [row.bound for row in gap_rows],
    ])
    _write_lines(out / "slots.csv", header, _float_rows(range(len(gap_rows)), block), manifest)
    _write_meta(out, manifest, {"mode": args.mode, "welfare": policy.welfare, "horizon": dyn.horizon})


_COMMANDS = {
    "solve": cmd_solve,
    "vcg": cmd_vcg,
    "lsvcg": cmd_lsvcg,
    "incentive-sweep": cmd_incentive_sweep,
    "sensitivity": cmd_sensitivity,
    "superimpose": cmd_superimpose,
    "dynamic": cmd_dynamic,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsvcg", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="path to a scenario document")
        p.add_argument("--seed", type=int, default=0, help="root seed recorded in every output")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        if name == "dynamic":
            p.add_argument("--mode", choices=["myopic", "fixed-point"], default="myopic")
            continue
        p.add_argument("--beta", type=float, default=None, help="override the scenario's rebate share")
        if name == "incentive-sweep":
            p.add_argument(
                "--i-list",
                default="10,20,40,80,160,320,640,1280",
                help="comma-separated head counts of the sweep",
            )
            p.add_argument(
                "--workers", type=int, default=None, help="accepted for compatibility (positive); has no effect"
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        subcommand=args.subcommand,
        scenario_path=args.scenario,
        seed=args.seed,
        overrides={} if getattr(args, "beta", None) is None else {"beta": args.beta},
    )
    started = time.perf_counter()
    try:
        _COMMANDS[args.subcommand](args, manifest, out)
    except ValidationError as exc:
        print(f"lsvcg: validation error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DegeneratePointError) as exc:
        print(f"lsvcg: solver error: {exc}", file=sys.stderr)
        return 3
    print(f"lsvcg: {args.subcommand} finished in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
