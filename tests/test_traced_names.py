"""Every function perfbench's traced run indexes is public in its lsvcg module.

The tracer wraps only functions named in the ``__all__`` of the module that
defines them, and a traced run looks up every name of ``LAYER_CALLS``,
``LAYER_SELF`` and ``OBSERVERS``; a name missing from ``__all__`` stops
every ``--trace 1`` run with a ``KeyError``.  The literals are read from the
benchmark's source, which is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(path: Path, name: str):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            if isinstance(node.value, ast.Dict):  # keys only: the values are functions
                return [ast.literal_eval(key) for key in node.value.keys]
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


TRACED = sorted(
    {
        *_literal(PERFBENCH / "run.py", "LAYER_CALLS"),
        *_literal(PERFBENCH / "run.py", "LAYER_SELF"),
        *_literal(PERFBENCH / "tracing.py", "OBSERVERS"),
    }
)


def test_the_traced_lists_are_read():
    assert "model.utility_value" in TRACED and "solver.solve_weighted" in TRACED


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_public(name):
    module_name, function = name.split(".")
    module = importlib.import_module(f"lsvcg.{module_name}")
    assert function in module.__all__
    # the tracer wraps a public name only where it is defined
    func = getattr(module, function)
    assert inspect.isfunction(func) and func.__module__ == module.__name__
