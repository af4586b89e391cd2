"""Command-line interface: exit codes, JSON output, determinism."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from lu3q import decompose, example_state, ghz_state, serialize
from lu3q.cli import main
from conftest import physical_bloch, zeroed_tensor


@pytest.fixture
def family_file(tmp_path):
    def write(name, a, b, c):
        path = tmp_path / name
        path.write_text(serialize.density_to_json(example_state(a, b, c)))
        return str(path)
    return write


def test_example_emits_valid_density(tmp_path, capsys):
    out = tmp_path / "state.json"
    assert main(["example", "--a", "0.1", "--c", "0.2", "--out", str(out)]) == 0
    kind, rho = serialize.load_input(str(out))
    assert kind == "density"
    assert np.max(np.abs(rho - example_state(0.1, 0.0, 0.2))) < 1e-16


def test_example_defaults_to_stdout(capsys):
    assert main(["example"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "matrix" in doc


def test_decompose_round_trips_floats(tmp_path, family_file):
    src = family_file("in.json", 0.13, 0.07, -0.11)
    out = tmp_path / "bloch.json"
    assert main(["decompose", src, "--out", str(out)]) == 0
    kind, b = serialize.load_input(str(out))
    assert kind == "bloch"
    direct = decompose(example_state(0.13, 0.07, -0.11))
    assert np.array_equal(b.components(), direct.components())


def test_decompose_rejects_bloch_input(tmp_path, rng, capsys):
    path = tmp_path / "b.json"
    path.write_text(serialize.bloch_to_json(physical_bloch(rng)))
    assert main(["decompose", str(path)]) == 3
    assert "error" in capsys.readouterr().err


def test_fingerprint_same_bytes_for_density_and_bloch(tmp_path, family_file, capsys):
    src = family_file("rho.json", 0.1, 0.0, 0.2)
    bloch = tmp_path / "bloch.json"
    assert main(["decompose", src, "--out", str(bloch)]) == 0
    out1, out2 = tmp_path / "fp1.json", tmp_path / "fp2.json"
    assert main(["fingerprint", src, "--out", str(out1)]) == 0
    assert main(["fingerprint", str(bloch), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["class"] == "single-zero:a1"
    assert len(doc["entries"]) == 90


def test_fingerprint_generic_has_75_entries(tmp_path, rng, capsys):
    path = tmp_path / "b.json"
    path.write_text(serialize.bloch_to_json(physical_bloch(rng)))
    out = tmp_path / "fp.json"
    assert main(["fingerprint", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["class"] == "generic"
    assert len(doc["entries"]) == 75


def test_compare_equivalent_exit_zero(tmp_path, family_file, capsys):
    a = family_file("a.json", 0.1, 0.0, 0.15)
    b = family_file("b.json", -0.1, 0.0, 0.15)
    assert main(["compare", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "equivalent"
    assert doc["witness"] is None


def test_compare_inequivalent_exit_one(tmp_path, family_file, capsys):
    a = family_file("a.json", 0.1, 0.0, 0.1)
    b = family_file("b.json", 0.1, 0.0, 0.2)
    assert main(["compare", a, b]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "inequivalent"
    assert doc["witness"] == "trX^1"


def test_compare_inconclusive_exit_two(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    path.write_text(serialize.density_to_json(ghz_state()))
    assert main(["compare", str(path), str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "inconclusive"


def test_compare_output_deterministic(tmp_path, family_file):
    a = family_file("a.json", 0.05, 0.02, -0.03)
    b = family_file("b.json", 0.04, 0.01, -0.02)
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    main(["compare", a, b, "--out", str(out1)])
    main(["compare", a, b, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_orbit_test_passes_and_is_deterministic(tmp_path, family_file):
    src = family_file("rho.json", 0.1, 0.0, 0.2)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["orbit-test", src, "--trials", "5", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["ok"] is True
    assert doc["trials"] == 5
    assert doc["max_invariant_deviation"] < 1e-9
    assert doc["max_oracle_mismatch"] < 1e-10


def test_orbit_test_detects_corrupted_action(tmp_path, family_file, capsys):
    src = family_file("rho.json", 0.1, 0.0, 0.2)
    code = main(["orbit-test", src, "--trials", "3", "--seed", "1", "--corrupt-action"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False


def test_orbit_test_rejects_bad_trials(tmp_path, family_file, capsys):
    src = family_file("rho.json", 0.1, 0.0, 0.2)
    assert main(["orbit-test", src, "--trials", "0"]) == 3
    capsys.readouterr()


def test_reconstruct_single_zero(tmp_path, family_file, capsys):
    src = family_file("rho.json", 0.1, 0.0, 0.2)
    assert main(["reconstruct", src]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "single-zero:a1"
    assert doc["ambiguity"] == []
    assert len(doc["components"]) == 15
    assert all(k[0] in "RSQ" for k in doc["components"])


def test_reconstruct_two_zero_same_reports_ambiguity(tmp_path, rng, capsys):
    b = zeroed_tensor(rng, [("g", 0), ("g", 1)])
    path = tmp_path / "b.json"
    path.write_text(serialize.bloch_to_json(b))
    assert main(["reconstruct", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "two-zero-same:g1,g2"
    assert "squares" in doc and len(doc["squares"]) == 30
    assert len(doc["ambiguity"]) > 0
    assert "notes" in doc


def test_reconstruct_generic_is_compute_error(tmp_path, rng, capsys):
    path = tmp_path / "b.json"
    path.write_text(serialize.bloch_to_json(physical_bloch(rng)))
    assert main(["reconstruct", str(path)]) == 4
    assert "error" in capsys.readouterr().err


def test_malformed_json_exit_three(tmp_path, rng, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["fingerprint", str(path)]) == 3
    assert main(["compare", str(path), str(path)]) == 3
    capsys.readouterr()
    # non-finite numbers: Python's json reads NaN and Infinity, and 1e400 overflows to inf
    density = serialize.density_to_json(example_state(0.1, 0.0, 0.2))
    bloch = serialize.bloch_to_json(physical_bloch(rng))
    for token in ("NaN", "Infinity", "-Infinity", "1e400"):
        bad_density, bad_bloch = tmp_path / "bad_density.json", tmp_path / "bad_bloch.json"
        # the first number of each file becomes the token
        bad_density.write_text(re.sub(r"\[[^\[\],]+", "[" + token, density, count=1))
        bad_bloch.write_text(re.sub(r"\[[^\[\],]+", "[" + token, bloch, count=1))
        for args in (["decompose", str(bad_density)], ["fingerprint", str(bad_density)],
                     ["compare", str(bad_density), str(bad_density)],
                     ["fingerprint", str(bad_bloch)], ["compare", str(bad_bloch), str(bad_bloch)]):
            assert main(args) == 3, (token, args)
            assert "finite" in capsys.readouterr().err


def test_missing_file_exit_three(tmp_path, capsys):
    assert main(["decompose", str(tmp_path / "absent.json")]) == 3
    capsys.readouterr()


def test_usage_errors_exit_three(capsys):
    assert main([]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["compare", "--nope", "a", "b"]) == 3
    assert main(["example", "--a", "xyz"]) == 3
    capsys.readouterr()


def test_nonpositive_tolerance_exit_three(tmp_path, family_file, capsys):
    src = family_file("rho.json", 0.1, 0.0, 0.2)
    assert main(["fingerprint", src, "--tol-abs", "0"]) == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "decompose" in capsys.readouterr().out


def test_positivity_warning_on_unphysical_input(capsys):
    assert main(["example", "--a", "0.9", "--b", "0.9", "--c", "0.9"]) == 0
    err = capsys.readouterr().err
    assert "not positive semidefinite" in err


def test_subprocess_entry_point(tmp_path):
    run = lambda *args: subprocess.run(
        [sys.executable, "-c", "from lu3q.cli import run; run()", *args],
        capture_output=True, text=True)
    src = tmp_path / "rho.json"
    proc = run("example", "--a", "0.1", "--c", "0.2")
    assert proc.returncode == 0
    src.write_text(proc.stdout)
    assert run("compare", str(src), str(src)).returncode == 0
    assert run().returncode == 3
