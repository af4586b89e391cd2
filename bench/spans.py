"""Spans around lu3q's public functions, recorded from outside the package.

Tracer.install replaces the module-level names that a calling module looks
up (lu3q.canonical.canonicalize, lu3q.invariants.gram, lu3q.cli.equivalent,
...) with wrappers that record a span: name, operation index, parent span,
start and end.  Spans stay in memory; per_layer() reduces them to the
metrics named in BENCHMARK.json and write() stores them as JSON lines.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from lu3q import canonical, cli, invariants, pauli, recover, serialize
from lu3q.errors import SingularSystemError

CLASSES = ("generic", "single-zero", "two-zero-diff", "two-zero-same", "degenerate", "other")
SOLVERS = ("recover.solve_single_zero", "recover.recover_two_zero")

# Layers whose call count per operation and mean self time are reported.
TIMED_LAYERS = (
    "pauli.decompose", "canonical.canonicalize", "rotations.act",
    "invariants.generic_fingerprint", "invariants.first_mismatch",
    "invariants.full_fingerprint", "invariants.all_invariants",
) + SOLVERS

PER_LAYER = (
    [f"{name}.calls_per_op" for name in TIMED_LAYERS]
    + [f"{name}.self_us" for name in TIMED_LAYERS]
    + ["invariants.entries_compared_per_op", "invariants.contexts_per_op",
       "invariants.entries_evaluated_per_op",
       "invariants.family.generic_us", "invariants.family.extras_us",
       "invariants.family.squared_us", "invariants.family.sign_us",
       "canonical.equivalent.self_us"]
    + [f"canonical.equivalent.{kind}.p50_us" for kind in CLASSES]
    + ["recover.reevaluations_per_op", "recover.reevaluation.self_us", "recover.singular_errors",
       "import.numpy_ms", "import.lu3q_ms", "serialize.load_input.self_us",
       "serialize.dumps.self_us", "states.min_eigenvalue.self_us", "cli.main.self_us"]
)


def unit(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def _entries(result):
    return len(result.entries) if hasattr(result, "entries") else len(result)


def _on_entries(tracer, span, args, result):
    tracer.counts["entries_evaluated"] += _entries(result)


def _on_mismatch(tracer, span, args, result):
    fp1 = args[0]
    if result is None:
        tracer.counts["entries_compared"] += len(fp1.entries)
    else:
        tracer.counts["entries_compared"] += [n for n, _ in fp1.entries].index(result[0]) + 1


def _on_equivalent(tracer, span, args, result):
    # Only pairs that run their class's whole path: an inequivalent verdict
    # usually stops at the generic fingerprints, whatever the class.
    if result.verdict != "inequivalent":
        tracer.by_class[result.classes[0].split(":")[0]].append(span[4] - span[3])


# (module, attribute, span name, hook run on the result outside the span)
WRAPPED = (
    (canonical, "equivalent", "canonical.equivalent", _on_equivalent),
    (canonical, "decompose", "pauli.decompose", None),
    (canonical, "canonicalize", "canonical.canonicalize", None),
    (canonical, "act", "rotations.act", None),
    (canonical, "generic_fingerprint", "invariants.generic_fingerprint", _on_entries),
    (canonical, "first_mismatch", "invariants.first_mismatch", _on_mismatch),
    (canonical, "full_fingerprint", "invariants.full_fingerprint", _on_entries),
    (canonical, "all_invariants", "invariants.all_invariants", _on_entries),
    (invariants, "gram", "invariants.gram", None),
    (invariants, "full_fingerprint", "invariants.full_fingerprint", _on_entries),
    (pauli, "decompose", "pauli.decompose", None),
    (recover, "solve_single_zero", "recover.solve_single_zero", None),
    (recover, "recover_two_zero", "recover.recover_two_zero", None),
    (recover, "single_zero_extras", "recover.reevaluation", _on_entries),
    (recover, "squared_family", "recover.reevaluation", _on_entries),
    (recover, "sign_resolution", "recover.reevaluation", _on_entries),
    (cli, "main", "cli.main", None),
    (cli, "equivalent", "canonical.equivalent", _on_equivalent),
    (cli, "decompose", "pauli.decompose", None),
    (cli, "min_eigenvalue", "states.min_eigenvalue", None),
    (serialize, "load_input", "serialize.load_input", None),
    (serialize, "dumps", "serialize.dumps", None),
)


class Tracer:
    """Span recorder.  A span is [name, op, parent index, start, end, error]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.by_class = defaultdict(list)
        self._originals = []

    def wrap(self, fn, name, hook=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, span, args, result)
            return result

        return traced

    def install(self):
        for module, attr, name, hook in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def per_layer(self, ops, rounds):
        """Per-layer metrics from the spans of `ops` operations in `rounds` passes."""
        calls = Counter()
        self_time = defaultdict(float)
        covered = defaultdict(float)
        for s in self.spans:
            if s[2] >= 0:
                covered[s[2]] += s[4] - s[3]
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_time[s[0]] += s[4] - s[3] - covered[i]

        def self_us(name):
            return 1e6 * self_time[name] / calls[name] if calls[name] else 0.0

        out = {}
        for name in TIMED_LAYERS:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.self_us"] = self_us(name)
        out["invariants.entries_compared_per_op"] = self.counts["entries_compared"] / ops
        out["invariants.contexts_per_op"] = calls["invariants.gram"] / ops
        out["invariants.entries_evaluated_per_op"] = self.counts["entries_evaluated"] / ops
        out["canonical.equivalent.self_us"] = self_us("canonical.equivalent")
        for kind in CLASSES:
            times = self.by_class.get(kind)
            out[f"canonical.equivalent.{kind}.p50_us"] = 1e6 * float(np.median(times)) if times else 0.0
        out["recover.reevaluations_per_op"] = calls["recover.reevaluation"] / ops
        out["recover.reevaluation.self_us"] = self_us("recover.reevaluation")
        singular = sum(1 for s in self.spans
                       if s[0] in SOLVERS and s[5] == SingularSystemError.__name__)
        out["recover.singular_errors"] = singular / rounds
        for name in ("serialize.load_input", "serialize.dumps", "states.min_eigenvalue", "cli.main"):
            out[f"{name}.self_us"] = self_us(name)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "op": s[1], "parent": s[2],
                                     "start": s[3], "end": s[4], "error": s[5]}) + "\n")


def family_costs(tensors, reps=3):
    """Mean microseconds per call of each invariant family on the given
    canonical tensors, median over reps passes."""
    fams = {
        "generic": invariants.generic_fingerprint,
        "extras": lambda t: invariants.single_zero_extras(t, "a"),
        "squared": invariants.squared_family,
        "sign": invariants.sign_resolution,
    }
    out = {}
    for key, fn in fams.items():
        passes = []
        for _ in range(reps):
            t0 = perf_counter()
            for t in tensors:
                fn(t)
            passes.append((perf_counter() - t0) / len(tensors))
        out[f"invariants.family.{key}_us"] = 1e6 * float(np.median(passes))
    return out
