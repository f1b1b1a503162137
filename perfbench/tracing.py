"""Span tracing for the traced benchmark run.

Every public function (``__all__``) of the traced lsvcg modules is wrapped,
and the wrapper is patched into every lsvcg module that holds the name, so
``solve_weighted`` is traced whether it is reached through ``solver``,
``mechanisms``, ``incentives`` or ``dynamic``.  A span records its name,
start, end, parent and op id.  Spans stay in memory until the run ends.

Each thread keeps its own span stack.  ``ThreadPoolExecutor.map`` inside
``incentive-sweep`` does not carry context into its workers, so the op id is
a plain attribute the benchmark sets, and a span opened on an empty worker
stack takes as parent the span open on the main thread.
"""

from __future__ import annotations

import array
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("cli", "model", "generate", "solver", "mechanisms", "incentives", "superimpose", "dynamic")


def _solver_input(args, kwargs):
    scenario = args[0]
    weights = args[1] if len(args) > 1 else kwargs["weights"]
    caps = args[2] if len(args) > 2 else kwargs.get("capacities")
    caps = scenario.capacities if caps is None else caps
    return np.asarray(weights, dtype=float).tobytes() + b"|" + np.asarray(caps, dtype=float).tobytes()


def _observe_solve(tracer, args, kwargs, result):
    tracer.add({"solver.bisection_steps": result.iterations}, distinct=_solver_input(args, kwargs))


def _observe_run_algorithm(tracer, args, kwargs, result):
    tracer.add({"superimpose.rounds": result.rounds_used, "superimpose.converged_runs": int(result.converged)})


def _observe_outcome_rows(tracer, args, kwargs, result):
    tracer.add({"mechanisms.agent_rows": len(result)})


# Work counters read off return values; each is deterministic.
OBSERVERS = {
    "solver.solve_weighted": _observe_solve,
    "superimpose.run_algorithm": _observe_run_algorithm,
    "mechanisms.outcome_rows": _observe_outcome_rows,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.thread = array.array("q")
        self.op_id = -1  # set by the benchmark before each op
        self.counters: dict[int, dict[str, int]] = {}  # op id -> counter -> total
        self.solver_inputs: dict[int, set[bytes]] = {}  # op id -> distinct solve inputs
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._local.tid = 0
        self._threads = 1
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        for module_name in MODULES:
            module = importlib.import_module(f"lsvcg.{module_name}")
            for attr in module.__all__:
                func = getattr(module, attr)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    self._wrappers[id(func)] = self._wrap(func, f"{module_name}.{attr}")

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._local.tid = self._threads
                self._threads += 1
        return stack

    def enter(self, nid: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.thread.append(self._local.tid)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self.enter(self._intern(name))
        try:
            yield
        finally:
            self.exit(idx)

    def add(self, counts: dict[str, int], distinct: bytes | None = None) -> None:
        with self._lock:
            totals = self.counters.setdefault(self.op_id, {})
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
            if distinct is not None:
                self.solver_inputs.setdefault(self.op_id, set()).add(distinct)

    def _wrap(self, func, name: str):
        tracer, nid, observe = self, self._intern(name), OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = tracer.enter(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every lsvcg module attribute that names a traced function."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "lsvcg" and not module_name.startswith("lsvcg."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
        }

    def self_times(self, spans: dict[str, np.ndarray]) -> np.ndarray:
        """Span duration minus the part of it that its child spans cover."""
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        # Children on other threads can overlap one another: take their union.
        thread = spans["thread"]
        cross = has_parent & (thread != thread[np.where(has_parent, parent, 0)])
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == p)
            lo = np.maximum(spans["start"][kids], spans["start"][p])
            hi = np.minimum(spans["end"][kids], spans["end"][p])
            order = np.argsort(lo)
            union, reach = 0.0, -np.inf
            for a, b in zip(lo[order], hi[order]):
                if b > reach:
                    union += b - max(a, reach)
                    reach = b
            covered[p] = union
        return duration - covered

    def layer_stats(self, spans: dict[str, np.ndarray], self_time: np.ndarray, op_ids) -> dict[str, dict]:
        """Calls, total and self time per span name over the given ops."""
        mask = np.isin(spans["op"], list(op_ids))
        names = spans["name_id"][mask]
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=(spans["end"] - spans["start"])[mask], minlength=size)
        own = np.bincount(names, weights=self_time[mask], minlength=size)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def op_counters(self, op_ids) -> dict[str, int]:
        totals: dict[str, int] = {}
        distinct: set[bytes] = set()
        for op in op_ids:
            for key, value in self.counters.get(op, {}).items():
                totals[key] = totals.get(key, 0) + value
            distinct |= self.solver_inputs.get(op, set())
        totals["solver.distinct_inputs"] = len(distinct)
        return totals

    def save(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), **spans)
