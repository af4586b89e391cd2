"""Every lu3q name the benchmark harness reaches resolves.

bench/spans.py wraps the (module, attribute) pairs of its WRAPPED table, and
the harness calls functions such as invariants.squared_family through module
attributes.  A rename or deletion in lu3q breaks only the traced benchmark,
whose smoke test is outside this suite, so these tests read bench/ (and
write nothing there) and check each name.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lu3q import canonicalize, decompose, random_mixed

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans(monkeypatch):
    """bench/spans.py as a module, without a bytecode cache or a sys.modules entry."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lu3q_attributes(path):
    """(module, attribute) for each `name.attribute` in path where name was
    bound by `from lu3q import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "lu3q"
               for alias in node.names}
    return sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_spans_wrapped_attributes_resolve(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.WRAPPED
               if not hasattr(module, attr)]
    assert not missing


def test_family_costs_runs(monkeypatch, rng):
    spans = load_spans(monkeypatch)
    tensor = canonicalize(decompose(random_mixed(rng))).tensor
    costs = spans.family_costs([tensor], reps=1)
    assert sorted(costs) == [f"invariants.family.{k}_us"
                             for k in ("extras", "generic", "sign", "squared")]


@pytest.mark.parametrize("script", ["spans.py", "workloads.py", "run.py"])
def test_bench_module_attributes_resolve(script):
    names = lu3q_attributes(BENCH / script)
    assert names, f"no lu3q module attributes found in bench/{script}"
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(f"lu3q.{mod}"), attr)]
    assert not missing
