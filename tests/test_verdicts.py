"""Recorded `equivalent` verdicts and `lu3q compare` output, one case per return.

tests/data/verdicts.json holds pairs of positive density matrices, with the
verdict, witness, classes and exit code `equivalent` gave for them and the
exact bytes `lu3q compare` wrote.  The cases reach every return of the
staged comparison: a generic witness, a density-spectrum witness, `tri:` and
`sgn:` witnesses from the tail of the class fingerprint, `equivalent` for
generic, single-zero and two-zero classes, `equivalent-up-to-sign`, the
`inconclusive` of degenerate and `other` classes and the class-mismatch
`inconclusive` of a rotated I/8.  Re-record only when a verdict change is
intended:

  PYTHONPATH=src python tests/test_verdicts.py
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import numpy as np
import pytest

from lu3q import density_from_dict, density_to_dict, equivalent, serialize
from lu3q.cli import main

DATA = Path(__file__).resolve().parent / "data" / "verdicts.json"


@functools.cache
def recorded():
    return json.loads(DATA.read_text(encoding="utf-8"))


def compare_output(rho1, rho2, tmp):
    paths = []
    for name, rho in (("a.json", rho1), ("b.json", rho2)):
        path = Path(tmp) / name
        path.write_text(serialize.density_to_json(rho))
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["compare", *paths])
    return code, out.getvalue()


def load_pair(case):
    return density_from_dict(case["rho1"]), density_from_dict(case["rho2"])


@pytest.mark.parametrize("label", [c["label"] for c in recorded()])
def test_verdict_matches_recording(label, tmp_path):
    case = next(c for c in recorded() if c["label"] == label)
    rho1, rho2 = load_pair(case)
    v = equivalent(rho1, rho2)
    assert (v.verdict, v.witness, list(v.classes), v.exit_code) == (
        case["verdict"], case["witness"], case["classes"], case["exit_code"])
    assert compare_output(rho1, rho2, tmp_path) == (case["exit_code"], case["compare"])


def test_recording_reaches_every_return():
    seen = {(c["verdict"], (c["witness"] or "").split(":")[0]) for c in recorded()}
    assert seen >= {("inequivalent", "trX^1"), ("inequivalent", "spec"),
                    ("inequivalent", "tri"), ("inequivalent", "sgn"),
                    ("equivalent", ""), ("equivalent-up-to-sign", ""), ("inconclusive", "")}
    kinds = {(c["verdict"], c["classes"][0].split(":")[0]) for c in recorded()}
    assert kinds >= {("equivalent", k) for k in ("generic", "single-zero", "two-zero-diff",
                                                 "two-zero-same")}
    assert kinds >= {("inconclusive", "degenerate"), ("inconclusive", "other")}
    assert any(c["verdict"] == "inconclusive" and c["classes"][0] != c["classes"][1]
               for c in recorded())


def record():
    """Rebuild tests/data/verdicts.json from the current code."""
    import dataclasses
    import sys
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import zeroed_tensor
    from lu3q import (BlochTensor, LocalRotation, act, conjugate, decompose, example_state,
                      ghz_state, haar_su2, random_mixed, reconstruct)

    rng = np.random.default_rng(20261019)

    def positive(b):
        """b with its non-identity part scaled to 0.9 of the largest positive scale."""
        low = np.linalg.eigvalsh(reconstruct(b) * 8.0 - np.eye(8))[0]
        return BlochTensor.from_components(b.components() * (0.9 / -low))

    def rotated(rho):
        return conjugate(rho, haar_su2(rng), haar_su2(rng), haar_su2(rng))

    def reflected(b, d1, d2, d3):
        """b under the local sign matrices d1, d2, d3 (determinant -1 allowed)."""
        d1, d2, d3 = (np.asarray(d, dtype=float) for d in (d1, d2, d3))
        return BlochTensor(d1 * b.alpha, d2 * b.beta, d3 * b.gamma,
                           d1[:, None] * b.R * d2, d1[:, None] * b.S * d3,
                           d2[:, None] * b.T * d3, d1[:, None, None] * d2[:, None] * d3 * b.Q)

    def flip(i):
        d = np.ones(3)
        d[i] = -1.0
        return d

    def zeroed(slots, **parts):
        b = dataclasses.replace(zeroed_tensor(rng, slots), **parts)
        return positive(act(b, LocalRotation.random(rng)))

    def self_pair(b):
        rho = reconstruct(b)
        return rho, rotated(rho)

    def reflected_pair(slots, axes, **parts):
        """A canonical state and its reflection in the given axes (None: no
        reflection) of each qubit, both rotated.  Reflections in all three
        qubits make a transpose followed by a local unitary, so the density
        spectrum is kept; one reflection is a partial transpose."""
        b = positive(dataclasses.replace(zeroed_tensor(rng, slots), **parts))
        ds = [np.ones(3) if i is None else flip(i) for i in axes]
        return rotated(reconstruct(b)), rotated(reconstruct(reflected(b, *ds)))

    zeros = np.zeros((3, 3))
    two_diff = [("a", 0), ("b", 1)]
    three = [("a", 0), ("b", 1), ("g", 2)]
    pairs = [
        ("generic-equivalent", self_pair(decompose(random_mixed(rng)))),
        ("generic-witness", (random_mixed(rng), random_mixed(rng))),
        ("family-witness", (example_state(0.1, 0, 0.1), example_state(0.1, 0, 0.2))),
        ("family-equivalent", (example_state(0.1, 0, 0.15), example_state(-0.1, 0, 0.15))),
        ("single-zero-equivalent", self_pair(zeroed([("b", 2)]))),
        ("two-zero-diff-equivalent", self_pair(zeroed(two_diff))),
        ("two-zero-same-equivalent", self_pair(zeroed([("g", 0), ("g", 1)]))),
        ("two-zero-up-to-sign", self_pair(zeroed(two_diff, R=zeros, S=zeros, T=zeros))),
        ("degenerate-inconclusive", (ghz_state(), rotated(ghz_state()))),
        ("other-inconclusive", self_pair(zeroed(three))),
        ("class-mismatch-inconclusive", (np.eye(8, dtype=complex) / 8,
                                         rotated(np.eye(8, dtype=complex) / 8))),
        ("partial-transpose-spectrum", reflected_pair([("a", 0)], (0, None, None))),
        ("transpose-tri", reflected_pair(three, (0, 1, 2))),
        ("transpose-sgn", reflected_pair([("a", 0), ("a", 1), ("a", 2), ("b", 1), ("g", 2)],
                                         (0, 1, 2), T=zeros)),
    ]
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, (rho1, rho2) in pairs:
            case = {"label": label, "rho1": density_to_dict(rho1), "rho2": density_to_dict(rho2)}
            rho1, rho2 = load_pair(case)
            assert min(np.linalg.eigvalsh(rho1)[0], np.linalg.eigvalsh(rho2)[0]) > -1e-12, label
            v = equivalent(rho1, rho2)
            case.update(verdict=v.verdict, witness=v.witness, classes=list(v.classes),
                        exit_code=v.exit_code)
            case["compare"] = compare_output(rho1, rho2, tmp)[1]
            print(label, v.verdict, v.witness, v.classes, v.reason)
            cases.append(case)
    DATA.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    record()
