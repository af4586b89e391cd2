"""Command-line interface: exit codes, JSON output, determinism."""

import dataclasses
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from lu3q import FormatError, act, cli, decompose, example_state, ghz_state, serialize
from lu3q.cli import main
from conftest import physical_bloch, random_density, zeroed_tensor
from test_canonical import huge_offdiagonal_state


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


def test_bloch_input_builds_no_density(tmp_path, family_file, capsys, monkeypatch):
    """fingerprint and reconstruct read a Bloch input's tensor as given: no
    density is rebuilt, and the output is that of the density input."""
    src = family_file("rho.json", 0.1, 0.0, 0.2)
    bloch = tmp_path / "bloch.json"
    assert main(["decompose", src, "--out", str(bloch)]) == 0
    real, calls = cli.reconstruct, []
    monkeypatch.setattr(cli, "reconstruct", lambda b: calls.append(b) or real(b))
    for command in ("fingerprint", "reconstruct"):
        assert main([command, src]) == 0
        want = capsys.readouterr()
        assert main([command, str(bloch)]) == 0
        assert capsys.readouterr() == want
    assert calls == []


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


def test_orbit_test_detects_corrupted_action(family_file, capsys, monkeypatch):
    src = family_file("rho.json", 0.1, 0.0, 0.2)

    def corrupted(b, g):
        out = act(b, g)
        return dataclasses.replace(out, alpha=out.alpha + 0.05)

    monkeypatch.setattr(cli, "act", corrupted)
    code = main(["orbit-test", src, "--trials", "3", "--seed", "1"])
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


def test_reconstruct_checks_the_class_before_any_invariant(tmp_path, rng, capsys, monkeypatch):
    calls = []
    real = cli.full_fingerprint
    monkeypatch.setattr(cli, "full_fingerprint", lambda *a: calls.append(a) or real(*a))
    for rho, tag in ((np.eye(8) / 8, "degenerate:"), (random_density(rng), "generic")):
        path = tmp_path / "rho.json"
        path.write_text(serialize.density_to_json(rho))
        assert main(["reconstruct", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("lu3q: error: reconstruction covers single-zero and two-zero "
                              f"classes; input is {tag}")
    assert calls == []


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
    # a non-numeric entry and a ragged matrix in density JSON
    string_entry, ragged = json.loads(density), json.loads(density)
    string_entry["matrix"][0][0][0] = "x"
    ragged["matrix"][0] = ragged["matrix"][0][:7]
    for what, bad in (("string entry", string_entry), ("ragged", ragged)):
        path = tmp_path / "bad_matrix.json"
        path.write_text(json.dumps(bad))
        for args in (["decompose", str(path)], ["fingerprint", str(path)],
                     ["compare", str(path), str(path)]):
            assert main(args) == 3, (what, args)
            assert "matrix entries must be numbers" in capsys.readouterr().err


def test_bad_input_exits_three_with_one_error_line(tmp_path, family_file, capsys):
    good = family_file("good.json", 0.1, 0.0, 0.2)
    density = json.loads(serialize.density_to_json(example_state(0.1, 0.0, 0.2)))
    not_hermitian, bad_trace = json.loads(json.dumps(density)), json.loads(json.dumps(density))
    not_hermitian["matrix"][0][1][0] += 0.01
    bad_trace["matrix"][0][0][0] += 0.01
    files = {"not_hermitian": json.dumps(not_hermitian).encode(),
             "bad_trace": json.dumps(bad_trace).encode(),
             "latin1": '{"dim": 8, "matrix": "\xe9"}'.encode("latin-1"),
             "deep": b"[" * 2000 + b"]" * 2000}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        for args in (["decompose", str(path)], ["fingerprint", str(path)],
                     ["compare", str(path), good], ["compare", good, str(path)]):
            assert main(args) == 3, (name, args)
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("lu3q: error: "), (name, args, err)
    assert main(["orbit-test", good, "--trials", "1", "--seed", "-1"]) == 3
    assert capsys.readouterr().err == "lu3q: error: --seed must be non-negative\n"


def test_stdin_is_decoded_like_a_file(tmp_path, capsys, monkeypatch):
    doc = json.loads(serialize.density_to_json(example_state(0.1, 0.0, 0.2)))
    doc["note"] = "caf\xe9"
    for encoding, code in (("utf-8", 0), ("latin-1", 3)):
        path = tmp_path / f"{encoding}.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode(encoding))
        assert main(["fingerprint", str(path)]) == code, encoding
        from_file = capsys.readouterr()
        # the interpreter's own stdin decoding, as under a C locale
        stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8",
                                 errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["fingerprint", "-"]) == code, encoding
        assert capsys.readouterr() == from_file, encoding


def test_compare_takes_stdin_for_one_input_only(family_file, capsys, monkeypatch):
    text = serialize.density_to_json(example_state(0.1, 0.0, 0.2))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))
    assert main(["compare", "-", "-"]) == 3
    assert capsys.readouterr().err == "lu3q: error: stdin ('-') can be given for one input only\n"
    # the refusal read nothing: stdin still serves one of the inputs
    assert main(["compare", "-", family_file("rho2.json", -0.1, 0.0, 0.2)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"


def test_dumps_rejects_what_json_cannot_hold():
    for value, what in ((float("nan"), "NaN"), (float("-inf"), "infinity"),
                        (np.float64("inf"), "infinity"), (object(), "type object")):
        with pytest.raises(FormatError, match=what):
            serialize.dumps({"x": [value]})


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
    comparison, classes = ("--tol-abs", "--tol-rel"), ("--zero-tol", "--deg-tol")
    for args, flags in ((["compare", src, src], comparison + classes),
                        (["fingerprint", src], classes), (["reconstruct", src], classes),
                        (["orbit-test", src], comparison)):
        for flag in flags:
            for value in ("0", "-1", "nan", "inf"):
                assert main([*args, f"{flag}={value}"]) == 3, (args, flag, value)
                assert "positive finite" in capsys.readouterr().err
    # a subcommand takes only the tolerances it reads
    assert main(["fingerprint", src, "--tol-abs=1e-9"]) == 3
    assert "unrecognized arguments: --tol-abs" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "decompose" in capsys.readouterr().out


def test_positivity_warning_on_unphysical_input(capsys):
    assert main(["example", "--a", "0.9", "--b", "0.9", "--c", "0.9"]) == 0
    err = capsys.readouterr().err
    assert "not positive semidefinite" in err


def run_module(*args):
    return subprocess.run([sys.executable, "-m", "lu3q.cli", *args],
                          capture_output=True, text=True)


def test_subprocess_entry_point(tmp_path):
    src = tmp_path / "rho.json"
    proc = run_module("example", "--a", "0.1", "--c", "0.17")
    assert proc.returncode == 0
    src.write_text(proc.stdout)
    kind, rho = serialize.load_input(str(src))
    assert kind == "density" and np.array_equal(rho, example_state(0.1, 0.0, 0.17))
    assert run_module("compare", str(src), str(src)).returncode == 0
    assert run_module().returncode == 3


def test_stdout_is_the_standard_encoding(tmp_path, family_file, capsys):
    """Every JSON-printing subcommand writes what json.dumps writes for its own
    output: floats as their shortest repr, one line, a final newline."""
    src, other = family_file("rho.json", 0.1, 0.0, 0.2), family_file("rho2.json", 0.1, 0.0, 0.3)
    for args in (["example", "--a", "0.1", "--c", "0.2"], ["decompose", src], ["fingerprint", src],
                 ["compare", src, other], ["orbit-test", src, "--trials", "2"],
                 ["reconstruct", src]):
        main(args)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out)) + "\n", args


def test_orbit_test_reports_on_large_accepted_input(tmp_path, capsys):
    """Rounding in the rotated oracle density grows with the entries; the
    input passed validation, so the oracle does not check the rotation again."""
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 5] = rho[5, 0] = 1e6
    rho[2, 3] = rho[3, 2] = 5e5
    path = tmp_path / "big.json"
    path.write_text(serialize.density_to_json(rho))
    assert main(["orbit-test", str(path), "--trials", "3"]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["trials", "max_invariant_deviation", "max_oracle_mismatch", "ok"]


def test_fingerprint_overflow_is_compute_error(tmp_path, capsys):
    """Without an np.errstate here: the overflow on the way must not warn, which
    this suite's warning filter would turn into an exception."""
    path = tmp_path / "huge.json"
    path.write_text(serialize.density_to_json(huge_offdiagonal_state(1e100)))
    assert main(["fingerprint", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "lu3q: error: invariant trX^2 is not finite: inf"


def test_overflow_prints_only_the_positivity_warning_and_one_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(serialize.density_to_json(huge_offdiagonal_state(1e100)))
    warning = "warning: input is not positive semidefinite (smallest eigenvalue -1.000e+100)"
    error = "lu3q: error: invariant trX^2 is not finite: inf"
    for args, lines in ((["fingerprint", path], [warning, error]),
                        (["compare", path, path], [warning, warning, error + " vs inf"]),
                        (["orbit-test", path, "--trials", "2"], [warning, error + " vs inf"])):
        proc = run_module(*map(str, args))
        assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (4, "", lines), args


def test_rejected_payloads_exit_three(tmp_path, rng, capsys):
    bloch = json.loads(serialize.bloch_to_json(physical_bloch(rng)))
    no_beta = {k: v for k, v in bloch.items() if k != "beta"}
    short_alpha = dict(bloch, alpha=[0.1, 0.2])
    wide = {"dim": 8, "matrix": [[[0.0, 0.0, 0.0]] * 8] * 8}
    for payload, message in (([], "top-level JSON value must be an object"),
                             ({"dim": 8}, "neither a 'matrix' nor an 'alpha' key"),
                             (wide, "matrix must be 8x8 with [re, im] entries"),
                             (no_beta, "bad coefficient payload: 'beta'"),
                             (short_alpha, "alpha must have shape (3,)")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["fingerprint", str(path)]) == 3, payload
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0], (message, err)
