"""The operation each workload times and the checks its outputs must pass.

Every call into lu3q goes through a module attribute (canonical.equivalent,
recover.solve_single_zero, ...) so that the traced run can replace those
names with timing wrappers without touching the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np

from lu3q import canonical, cli, invariants, pauli, recover
from lu3q.errors import SingularSystemError

import inputs

VERDICT_CODES = {"equivalent": 0, "inequivalent": 1, "equivalent-up-to-sign": 2, "inconclusive": 2}
RECOVERY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Pair workloads: generic-pairs, nongeneric-pairs
# ---------------------------------------------------------------------------

def compare(case):
    return canonical.equivalent(case.rho1, case.rho2)


def check_verdict(case, verdict, witness, classes):
    """None when the verdict is right for how the pair was built, else why not."""
    if classes[0].split(":")[0] != case.kind:
        return f"first state built as {case.kind} but classified {classes[0]}"
    if not case.rotated:
        if verdict != "inequivalent" or witness is None:
            return f"cross pair gave {verdict} (witness {witness})"
        return None
    allowed = {"equivalent"}
    if case.kind in ("degenerate", "other"):
        allowed.add("inconclusive")
    if case.up_to_sign_ok:
        allowed.add("equivalent-up-to-sign")
    if verdict not in allowed:
        return f"rotated copy gave {verdict} (witness {witness}), allowed {sorted(allowed)}"
    return None


# ---------------------------------------------------------------------------
# reconstruct: the steps of `lu3q reconstruct` on a density input
# ---------------------------------------------------------------------------

def reconstruct(case):
    cf = canonical.canonicalize(pauli.decompose(case.rho1))
    fp = invariants.full_fingerprint(cf.tensor, cf.orbit_class)
    if cf.orbit_class.kind == "single-zero":
        return cf, recover.solve_single_zero(fp, cf)
    return cf, recover.recover_two_zero(fp, cf)


_KEY = re.compile(r"^([RSTQ])\[(\d),(\d)(?:,(\d))?\](?:\^2)?$")


def _entry(t, key):
    m = _KEY.match(key)
    if m is None:
        raise ValueError(f"unrecognised component key {key!r}")
    idx = tuple(int(g) - 1 for g in m.group(2, 3, 4) if g is not None)
    return float(getattr(t, m.group(1))[idx])


def check_reconstruct(case, result):
    cf, sol = result
    t = cf.tensor
    if cf.orbit_class.tag != case.label:
        return f"built as {case.label} but classified {cf.orbit_class.tag}"
    comps = t.components()
    scale = float(np.linalg.norm(case.frames[0]))
    tol = RECOVERY_TOL * scale
    # The canonical point is the construction frame up to a diagonal rotation
    # of determinant one on each qubit.
    if np.abs(case.frames - comps).max(axis=1).min() > tol:
        return "canonical tensor is not the construction frame up to det-one sign flips"
    if case.kind == "single-zero":
        vec, slot = cf.orbit_class.slots[0]
        p = slot - 1
        rows = {"a": (t.R[p, :], t.S[p, :], t.Q[p, :, :]),
                "b": (t.R[:, p], t.T[p, :], t.Q[:, p, :]),
                "g": (t.S[:, p], t.T[:, p], t.Q[:, :, p])}[vec]
        for got, want in zip((sol.first, sol.second, sol.q_slab), rows):
            if np.max(np.abs(np.asarray(got) - want)) > tol:
                return f"recovered {sol.targets} differ from the canonical tensor"
        return None
    for key, val in sol.squares.items():
        if abs(val - _entry(t, key) ** 2) > RECOVERY_TOL * scale ** 2:
            return f"square {key} = {val!r}, canonical {_entry(t, key) ** 2!r}"
    for grp in sol.groups:
        got = np.array(list(grp.components.values()))
        want = np.array([_entry(t, k) for k in grp.components])
        signs = (1.0,) if grp.resolved else (1.0, -1.0)
        if min(np.max(np.abs(s * got - want)) for s in signs) > tol:
            return f"sign group {grp.label} (resolved={grp.resolved}) differs from the canonical tensor"
    return None


# ---------------------------------------------------------------------------
# cli-compare: one `python -m lu3q.cli compare A B` process per pair
# ---------------------------------------------------------------------------

def write_pair_files(cases, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for i, case in enumerate(cases):
        paths = []
        for side, (rho, layout) in enumerate(zip((case.rho1, case.rho2), case.layouts)):
            path = os.path.join(out_dir, f"pair{i:02d}-{'ab'[side]}-{layout}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inputs.payload(rho, layout), fh)
            paths.append(path)
        case.paths = tuple(paths)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def cli_process(case, root, env):
    proc = subprocess.run([sys.executable, "-m", "lu3q.cli", "compare", *case.paths],
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def cli_in_process(case):
    """cli.main in this interpreter; the traced run uses it to see the layers."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["compare", *case.paths])
    return code, buf.getvalue()


def check_cli(case, result):
    code, stdout = result
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code} with no JSON verdict"
    if VERDICT_CODES.get(out["verdict"]) != code:
        return f"exit code {code} disagrees with verdict {out['verdict']}"
    if out["verdict"] != case.in_process:
        return f"process verdict {out['verdict']} but in-process {case.in_process}"
    return check_verdict(case, out["verdict"], out["witness"], out["classes"])


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

def operation(workload, root=None, in_process=False):
    """The timed operation of a workload, as a function of one case."""
    if workload == "reconstruct":
        return reconstruct
    if workload != "cli-compare":
        return compare
    if in_process:
        return cli_in_process
    env = child_env(root)
    return lambda case: cli_process(case, root, env)


def check(workload, case, result):
    if workload == "reconstruct":
        return check_reconstruct(case, result)
    if workload == "cli-compare":
        return check_cli(case, result)
    return check_verdict(case, result.verdict, result.witness, result.classes)


def attempt(op, case):
    """Run one operation: (result, None), or (None, exception) if it raised.
    run.py counts every exception as a failed operation and goes on."""
    try:
        return op(case), None
    except Exception as exc:
        return None, exc


def is_known_fault(exc):
    """Fault (a): SingularSystemError from the reconstruction solvers."""
    return isinstance(exc, SingularSystemError)
