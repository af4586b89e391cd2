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

from lu3q import (Fingerprint, all_invariants, canonicalize, decompose, first_mismatch,
                  full_fingerprint, generic_fingerprint, random_mixed, sign_resolution,
                  single_zero_extras, squared_family)
from conftest import zeroed_tensor

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


def test_entry_hooks_count_fingerprint_entries(monkeypatch, rng):
    """The hooks that count evaluated and compared entries read the families'
    results and first_mismatch's witness as lu3q returns them."""
    spans = load_spans(monkeypatch)
    b = decompose(random_mixed(rng))
    forms = [canonicalize(zeroed_tensor(rng, slots)) for slots in ([("a", 1)], [("a", 0), ("b", 1)])]
    results = [generic_fingerprint(b), single_zero_extras(b, "a"), squared_family(b),
               sign_resolution(b), all_invariants(b)]
    results += [full_fingerprint(cf.tensor, cf.orbit_class) for cf in forms]
    assert [spans._entries(r) for r in results] == [75, 15, 189, 30, 339, 90, 339]

    tracer = spans.Tracer()
    spans._on_entries(tracer, None, (b,), results[0])
    assert tracer.counts["entries_evaluated"] == 75
    fp = results[0]
    values = fp.values.copy()
    values[40] += 1.0
    failing = (fp, Fingerprint(fp.orbit_class, fp.names, values))
    witness = first_mismatch(*failing)
    assert witness[0] == fp.names[40]
    spans._on_mismatch(tracer, None, failing, witness)
    assert tracer.counts["entries_compared"] == 41
    spans._on_mismatch(tracer, None, (fp, fp), first_mismatch(fp, fp))
    assert tracer.counts["entries_compared"] == 41 + 75


@pytest.mark.parametrize("script", ["spans.py", "workloads.py", "run.py"])
def test_bench_module_attributes_resolve(script):
    names = lu3q_attributes(BENCH / script)
    assert names, f"no lu3q module attributes found in bench/{script}"
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(f"lu3q.{mod}"), attr)]
    assert not missing
