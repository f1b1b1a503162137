#!/usr/bin/env python3
"""lsvcg benchmark: one workload per invocation, closed loop, checked outputs.

    python3 perfbench/run.py --workload population --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up generates the workload's documents from ``--seed`` and times fresh
interpreters that import lsvcg and load them (``setup_s``).  Then one client
runs the workload's ops back to back, one pass after another, for
``--seconds`` seconds, checking every output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  Human-readable lines go to stdout first;
the last line is one JSON object.  Details (every op's median, p90 and
sample count, output digests, counters, machine, load) are written to
``.perfbench/results/``.

Every gated time is scaled by the speed of the machine at the moment it was
taken: a fixed reference workload runs before and after every op and
around every set-up sample, and a time t measured between reference times r reads
t * REFERENCE_S / mean(r).  The unscaled times are in the results file.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads; children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STATE = ".perfbench"  # everything the benchmark writes, relative to ROOT
WORKLOADS = ("population", "markets", "dynamic")
MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_TRACED_PASSES = 2  # of each kind in a --trace 1 run
# Median time of reference() on the development machine (NOTES.md), so that
# scaled times read as seconds on that machine.
REFERENCE_S = 0.0214

SETUP_CODE = """
import sys
import lsvcg
from lsvcg.dynamic import load_dynamic_scenario
from lsvcg.model import load_scenario
loaders = {"static": load_scenario, "dynamic": load_dynamic_scenario}
for arg in sys.argv[1:]:
    kind, path = arg.split("=", 1)
    with open(path, "rb") as fh:
        loaders[kind](fh.read())
"""

# Per-layer metrics of the traced run: span calls, span self time, counters.
LAYER_CALLS = (
    "solver.solve_weighted",
    "incentives.incentive_gap",
    "model.utility_value",
    "superimpose.run_algorithm",
    "dynamic.dynamic_mechanism_step",
)
LAYER_SELF = (
    "solver.solve_weighted",
    "solver.kkt_residual",
    "solver.price_sensitivity",
    "incentives.incentive_gap",
    "mechanisms.vcg_exact",
    "mechanisms.large_scale_vcg",
    "mechanisms.budget_audit",
    "mechanisms.outcome_rows",
    "model.utility_value",
    "model.load_scenario",
    "generate.replicate_assignments",
    "cli.main",
    "superimpose.run_algorithm",
    "superimpose.superimposed_outcome",
    "superimpose.obedient_actions",
    "dynamic.plan_policy",
    "dynamic.dynamic_incentive_gap",
    "dynamic.dynamic_mechanism_step",
)
LAYER_COUNTERS = {
    "solver.bisection_steps": "count",
    "solver.distinct_inputs": "count",
    "superimpose.rounds": "count",
    "mechanisms.agent_rows": "count",
    "cli.bytes_written": "bytes",
}


def reference() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work.

    It stands for the ops' own mix (bisection over small arrays, per-row
    Python, CSV formatting) and calls no lsvcg code, so a change to the
    program cannot move it; only the machine's speed does.
    """
    started = time.perf_counter()
    x = np.linspace(0.05, 0.95, 64)
    acc, parts = 0.0, []
    for i in range(4000):
        y = np.maximum(x * 1.001 - 0.3, 0.0)
        acc += float(y.sum()) + (i % 5) * 0.5
        if i % 8 == 0:
            parts.append(f"{acc:.6g},{i}")
    table = {k: 2 * k for k in range(20000)}
    acc += sum(v for k, v in table.items() if k % 3)
    ",".join(parts)
    return time.perf_counter() - started


def scaled(seconds: float, reference_s: float) -> float:
    """A time taken next to a reference run of reference_s, at reference speed."""
    return seconds * REFERENCE_S / reference_s


@dataclass
class OpRecord:
    seconds: float
    reference_s: float  # mean of the reference runs just before and after the op
    error: str | None
    digest: str
    bytes_written: int


@dataclass
class Pass:
    traced: bool
    ops: dict[str, OpRecord] = field(default_factory=dict)
    op_ids: list[int] = field(default_factory=list)
    references: list[float] = field(default_factory=list)  # one before and one after each op

    @property
    def wall(self) -> float:
        return sum(record.seconds for record in self.ops.values())


def summary(samples: list[float]) -> dict:
    """Median, p90 and sample count."""
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 else samples[0]
    return {"median": statistics.median(samples), "p90": p90, "n": len(samples), "samples": samples}


def output_digest(out: Path, result) -> tuple[str, int]:
    """sha256 over the op's output files (or its return value) and their size."""
    h = hashlib.sha256()
    size = 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    for path in files:
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data + b"\0")
    if not files:
        h.update(repr(result).encode())
    return h.hexdigest(), size


def measure_setup(documents: list[tuple[str, str]]) -> float:
    """Wall time of a fresh interpreter that imports lsvcg and loads every document."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", SETUP_CODE, *(f"{kind}={path}" for kind, path in documents)]
    started = time.perf_counter()
    # No timeout: Popen.wait with one polls in steps of up to 50 ms.
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - started


def run_pass(workload, work: str, tracer, first: Pass | None, next_op_id: int) -> Pass:
    record = Pass(traced=tracer is not None)
    if tracer is not None:
        tracer.install()
    try:
        for op in workload.ops:
            out = Path(work, "out", op.name)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            gc.collect()
            record.references.append(reference())
            op_id = next_op_id + len(record.op_ids)
            record.op_ids.append(op_id)
            error, result, seconds = None, None, None
            started = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run(out)
                else:
                    tracer.op_id = op_id
                    with tracer.span(f"op.{op.name}"):
                        result = op.run(out)
                seconds = time.perf_counter() - started
                op.check(out, result)
            except Exception as exc:  # a failing op is counted, and the run goes on
                error = f"{type(exc).__name__}: {exc}"
            if seconds is None:
                seconds = time.perf_counter() - started
            digest, size = output_digest(out, result)
            if error is None and first is not None and digest != first.ops[op.name].digest:
                error = "outputs differ from the first pass"
            if error is not None:
                print(f"perfbench: {workload.name}/{op.name} failed: {error}", file=sys.stderr)
            gc.collect()
            record.references.append(reference())
            reference_s = (record.references[-2] + record.references[-1]) / 2
            record.ops[op.name] = OpRecord(seconds, reference_s, error, digest, size)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return record


def run_passes(workload, work: str, seconds: float, tracer) -> tuple[list[Pass], list[tuple[float, float]]]:
    """Passes until the next one would end after the deadline, and set-up
    samples as (seconds, reference seconds)."""
    passes: list[Pass] = []
    setup: list[tuple[float, float]] = []
    durations: dict[bool, float] = {}
    deadline = time.perf_counter() + seconds
    next_op_id = 0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        enough = (
            len(passes) >= 2 * MIN_TRACED_PASSES
            if tracer is not None
            else len(passes) >= MIN_PASSES
        )
        if enough and time.perf_counter() + durations.get(traced, 0.0) > deadline:
            break
        started = time.perf_counter()
        before = reference()
        setup_s = measure_setup(workload.documents)
        p = run_pass(workload, work, tracer if traced else None, passes[0] if passes else None, next_op_id)
        setup.append((setup_s, (before + p.references[0]) / 2))
        durations[traced] = time.perf_counter() - started
        next_op_id += len(p.op_ids)
        passes.append(p)
    return passes, setup


def end_to_end_metrics(workload, passes: list[Pass], setup: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """Gated metrics, and summaries of the scaled and the unscaled times."""
    untraced = [p for p in passes if not p.traced]
    samples = {"setup_s": setup, "wall_s": [group_sample(list(p.ops.values())) for p in untraced]}
    for group, names in workload.groups.items():
        samples[group] = [group_sample([p.ops[n] for n in names]) for p in untraced]
    for op in workload.ops:
        samples[f"{op.name}_s"] = [(p.ops[op.name].seconds, p.ops[op.name].reference_s) for p in untraced]
    stats = {name: summary([scaled(t, r) for t, r in pairs]) for name, pairs in samples.items()}
    raw = {name: summary([t for t, _ in pairs]) for name, pairs in samples.items()}
    metrics = {name: {"value": stats[name]["median"], "unit": "s"} for name in ("setup_s", "wall_s", *workload.groups)}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    return metrics, stats, raw


def group_sample(records: list[OpRecord]) -> tuple[float, float]:
    """(seconds, reference seconds) of ops summed, so that it scales to the sum of their scaled times."""
    seconds = sum(r.seconds for r in records)
    return seconds, seconds * REFERENCE_S / sum(scaled(r.seconds, r.reference_s) for r in records)


def layer_metrics(passes: list[Pass], tracer) -> tuple[dict, list[dict], dict]:
    spans = tracer.arrays()
    self_time = tracer.self_times(spans)
    traced = [p for p in passes if p.traced]
    per_pass, counts = [], []
    for p in traced:
        layers = tracer.layer_stats(spans, self_time, p.op_ids)
        counters = tracer.op_counters(p.op_ids)
        counters["cli.bytes_written"] = sum(r.bytes_written for r in p.ops.values())
        values = {f"{name}.calls": layers[name]["calls"] for name in LAYER_CALLS}
        values.update({f"{name}.self_s": layers[name]["self_s"] for name in LAYER_SELF})
        values.update({name: counters.get(name, 0) for name in LAYER_COUNTERS})
        solves = layers["solver.solve_weighted"]["calls"]
        runs = layers["superimpose.run_algorithm"]["calls"]
        values["solver.distinct_input_ratio"] = counters["solver.distinct_inputs"] / solves if solves else 0.0
        values["superimpose.converged_ratio"] = counters.get("superimpose.converged_runs", 0) / runs if runs else 0.0
        sweep = p.ops.get("incentive_sweep")
        values["incentives.concurrency"] = layers["incentives.incentive_gap"]["total_s"] / sweep.seconds if sweep else 0.0
        per_pass.append(values)
        counts.append({**{name: s["calls"] for name, s in layers.items()}, **counters})
    untraced_wall = statistics.median(p.wall for p in passes if not p.traced)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics = {}
    for name in per_pass[0]:
        if name.endswith(".calls") or name in LAYER_COUNTERS:
            unit, value = LAYER_COUNTERS.get(name, "count"), per_pass[0][name]
        else:
            unit, value = ("s" if name.endswith("_s") else "ratio"), statistics.median(v[name] for v in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics, counts, spans


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{key}": value for key, value in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "lsvcg" / "__init__.py").is_file():
        print(f"perfbench: no lsvcg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # One CPU for the run, its threads and the interpreters it starts, so
    # that the reference runs on the CPU the ops run on (NOTES.md).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import lsvcg
    from tracing import Tracer
    from workloads import BUILDERS

    if Path(lsvcg.__file__).resolve().parent != (ROOT / "src" / "lsvcg").resolve():
        print(f"perfbench: imported lsvcg from {lsvcg.__file__}, not from this checkout", file=sys.stderr)
        return 2

    load_start = loadavg()
    work = f"{STATE}/work/{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    Path(work).mkdir(parents=True)
    workload = BUILDERS[args.workload](ROOT, work, args.seed)
    tracer = Tracer() if args.trace else None
    passes, setup = run_passes(workload, work, args.seconds, tracer)

    records = [r for p in passes for r in p.ops.values()]
    attempted, failed = len(records), sum(r.error is not None for r in records)
    correct = failed == 0
    metrics, stats, raw = end_to_end_metrics(workload, passes, setup)
    references = [r for p in passes for r in p.references]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_depend_on_seed": workload.seeded,
        "inputs": workload.inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "loadavg_start": load_start,
        "passes": {"untraced": sum(not p.traced for p in passes), "traced": sum(p.traced for p in passes)},
        "timings_s": stats,
        "unscaled_timings_s": raw,
        "reference_s": {**summary(references), "nominal": REFERENCE_S},
        "peak_rss_mb": metrics["peak_rss_mb"]["value"],
        "error_rate": failed / attempted,
        "errors": sorted({r.error for r in records if r.error}),
        "digests": {name: rec.digest for name, rec in passes[0].ops.items()},
        "bytes_written": {name: rec.bytes_written for name, rec in passes[0].ops.items()},
    }
    if tracer is not None:
        metrics, counts, spans = layer_metrics(passes, tracer)
        repeat = all(c == counts[0] for c in counts)
        correct = correct and repeat
        result["counters"] = counts[0]
        result["counters_repeat"] = repeat
        tracer.save(Path(STATE, "results", f"{args.workload}-spans.npz"), spans)
        if not repeat:
            print("perfbench: work counters differ between traced passes", file=sys.stderr)
    result["loadavg_end"] = loadavg()
    result["metrics"] = metrics

    results_dir = Path(STATE, "results")
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2))
    shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} inputs_depend_on_seed={str(workload.seeded).lower()} "
          f"passes={result['passes']} loadavg={load_start}->{result['loadavg_end']}")
    for name, s in stats.items():
        print(f"{args.workload:<10} {name:<20} median {s['median']:.4f} s  p90 {s['p90']:.4f} s  n {s['n']}"
              f"  (unscaled median {raw[name]['median']:.4f} s)")
    print(f"{args.workload:<10} {'reference':<20} median {statistics.median(references):.4f} s  "
          f"n {len(references)}  (nominal {REFERENCE_S} s)")
    print(f"{args.workload:<10} {'peak_rss_mb':<20} {result['peak_rss_mb']:.1f} MB")
    print(f"{args.workload:<10} {'error_rate':<20} {result['error_rate']:.4f} ({failed}/{attempted} ops)")
    if tracer is not None:
        for name, m in metrics.items():
            print(f"{args.workload:<10} {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
