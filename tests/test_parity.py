"""Recorded `lu3q fingerprint` and `lu3q reconstruct` output for every zero pattern.

tests/data/parity.json holds one rotated zeroed tensor per single-zero,
two-zero-diff and two-zero-same pattern, with the CLI JSON the code gave
before reconstruction was rewritten around one relabeled frame.  The test
requires the same names, keys, labels, flags and notes in the same order,
invariant values to 1e-14 relative and recovered values to 1e-12 times the
tensor scale.  Re-record only when an output change is intended:

  PYTHONPATH=src python tests/test_parity.py
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from lu3q import LocalRotation, act, serialize
from lu3q.cli import main

DATA = Path(__file__).resolve().parent / "data" / "parity.json"

# (label, zero slots as (vector, 0-based index)) for every recorded case
PATTERNS = (
    [(f"single-zero:{v}{i + 1}", [(v, i)]) for v in "abg" for i in range(3)]
    + [(f"two-zero-diff:{v1}{i + 1},{v2}{j + 1}", [(v1, i), (v2, j)])
       for v1, v2 in (("a", "b"), ("a", "g"), ("b", "g")) for i, j in ((0, 1), (2, 2), (1, 0))]
    + [(f"two-zero-same:{v}{i + 1},{v}{j + 1}", [(v, i), (v, j)])
       for v in "abg" for i, j in ((0, 2), (0, 1))]
)

VALUE_REL = 1e-14
RECOVERY_REL = 1e-12


def cli_json(command, path, capsys):
    code = main([command, str(path)])
    return code, json.loads(capsys.readouterr().out)


@functools.cache
def recorded():
    return {c["label"]: c for c in json.loads(DATA.read_text(encoding="utf-8"))}


def close(a, b, tol):
    assert abs(a - b) <= tol, (a, b, tol)


@pytest.mark.parametrize("label", [label for label, _ in PATTERNS])
def test_cli_output_matches_recording(label, tmp_path, capsys):
    case = recorded()[label]
    path = tmp_path / "state.json"
    path.write_text(serialize.dumps(case["input"]))
    scale = float(np.linalg.norm(serialize.loads_state(path.read_text())[1].components()))

    code, fp = cli_json("fingerprint", path, capsys)
    want = case["fingerprint"]
    assert code == 0
    assert fp["class"] == want["class"] == label
    assert [n for n, _ in fp["entries"]] == [n for n, _ in want["entries"]]
    for (name, got), (_, exp) in zip(fp["entries"], want["entries"]):
        assert abs(got - exp) <= VALUE_REL * max(abs(got), abs(exp)), (name, got, exp)

    code, rec = cli_json("reconstruct", path, capsys)
    want = case["reconstruct"]
    assert code == 0
    assert list(rec) == list(want)
    assert rec["class"] == want["class"]
    assert rec["ambiguity"] == want["ambiguity"]
    assert rec.get("notes") == want.get("notes")
    assert list(rec["components"]) == list(want["components"])
    for key, value in rec["components"].items():
        close(value, want["components"][key], RECOVERY_REL * scale)
    assert list(rec.get("squares", {})) == list(want.get("squares", {}))
    for key, value in rec.get("squares", {}).items():
        close(value, want["squares"][key], RECOVERY_REL * scale)


def record():
    """Rebuild tests/data/parity.json from the current code."""
    import contextlib
    import io
    import sys
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import zeroed_tensor

    rng = np.random.default_rng(20261018)
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        for label, slots in PATTERNS:
            b = act(zeroed_tensor(rng, slots), LocalRotation.random(rng))
            path.write_text(serialize.bloch_to_json(b))
            case = {"label": label, "input": json.loads(path.read_text())}
            for command in ("fingerprint", "reconstruct"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main([command, str(path)]) == 0, (label, command)
                case[command] = json.loads(out.getvalue())
            assert case["fingerprint"]["class"] == label, (label, case["fingerprint"]["class"])
            cases.append(case)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    record()
