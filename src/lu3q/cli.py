"""Command-line front end.

Subcommands:
  decompose    density-matrix JSON -> coefficient-tensor JSON
  fingerprint  state JSON -> canonical class tag and invariant list
  compare      two state JSONs -> equivalence verdict (exit 0/1/2)
  orbit-test   randomized invariance self-check against the conjugation oracle
  reconstruct  recover the components a nongeneric class leaves undetermined
  example      emit a member of the built-in example family as density JSON

Exit codes: 0 success / Equivalent, 1 Inequivalent or failed orbit test,
2 EquivalentUpToSign or Inconclusive, 3 usage or input errors, 4 compute
errors (singular systems, inconsistent invariants, unsupported classes).
"""

from __future__ import annotations

import argparse
import sys
import types

import numpy as np

from . import serialize
from .canonical import Tolerances, canonicalize, equivalent
from .errors import (FormatError, InconsistentInvariantsError,
                     NotHermitianError, NotRotationError,
                     NotSpecialUnitaryError, SingularSystemError,
                     TraceNotOneError, WrongClassError)
from .invariants import Fingerprint, all_invariants, first_mismatch, full_fingerprint
from .pauli import component_key, decompose, reconstruct
from .recover import recover_two_zero, solve_single_zero
from .rotations import LocalRotation, act, conjugate, haar_su2
from .states import example_state, min_eigenvalue

EXIT_USAGE = 3
EXIT_COMPUTE = 4

_POSITIVITY_WARN = -1e-9


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, which collides with verdict codes."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    defaults = Tolerances()
    tol = argparse.ArgumentParser(add_help=False)
    for name, what in (("tol_abs", "absolute tolerance for invariant comparison"),
                       ("tol_rel", "relative tolerance for invariant comparison"),
                       ("zero_tol", "threshold for structural zeros in canonical vectors"),
                       ("deg_tol", "relative spectral-gap threshold for degeneracy")):
        value = getattr(defaults, name)
        shown = f"{value:.0e}".replace("e-0", "e-")
        tol.add_argument("--" + name.replace("_", "-"), type=float, default=value,
                         help=f"{what} (default {shown})")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p = _Parser(prog="lu3q",
                description="Local-unitary equivalence of three-qubit states "
                            "via polynomial invariants.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", parents=[out],
                       help="expand a density matrix into its coefficient tensor")
    d.add_argument("input", help="density-matrix JSON file ('-' for stdin)")

    f = sub.add_parser("fingerprint", parents=[tol, out],
                       help="canonical class and class-complete invariant list")
    f.add_argument("input", help="state JSON file ('-' for stdin)")

    c = sub.add_parser("compare", parents=[tol, out],
                       help="decide local-unitary equivalence of two states")
    c.add_argument("input_a", help="first state JSON file")
    c.add_argument("input_b", help="second state JSON file")

    o = sub.add_parser("orbit-test", parents=[tol, out],
                       help="verify invariance under random local unitaries")
    o.add_argument("input", help="state JSON file ('-' for stdin)")
    o.add_argument("--trials", type=int, default=100, help="number of random rotations")
    o.add_argument("--seed", type=int, default=0, help="random seed")
    o.add_argument("--corrupt-action", action="store_true", help=argparse.SUPPRESS)

    r = sub.add_parser("reconstruct", parents=[tol, out],
                       help="recover components left open by a nongeneric class")
    r.add_argument("input", help="state JSON file ('-' for stdin)")

    e = sub.add_parser("example", parents=[out],
                       help="emit a member of the built-in example family")
    e.add_argument("--a", type=float, default=0.0, help="first diagonal Q component")
    e.add_argument("--b", type=float, default=0.0, help="second diagonal Q component")
    e.add_argument("--c", type=float, default=0.0, help="third diagonal Q component")
    return p


def _write_out(text, out):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _warn_positivity(rho):
    low = min_eigenvalue(rho)
    if low < _POSITIVITY_WARN:
        print(f"warning: input is not positive semidefinite "
              f"(smallest eigenvalue {low:.3e})", file=sys.stderr)


def _load_state(path):
    """Returns (tensor, density); density is reconstructed for Bloch inputs."""
    kind, val = serialize.load_input(path)
    if kind == "density":
        _warn_positivity(val)
        return decompose(val), val
    return val, reconstruct(val)


def _tolerances(args):
    tols = Tolerances(args.tol_abs, args.tol_rel, args.zero_tol, args.deg_tol)
    for name in ("tol_abs", "tol_rel", "zero_tol", "deg_tol"):
        if getattr(tols, name) <= 0:
            raise FormatError(f"--{name.replace('_', '-')} must be positive")
    return tols


def _cmd_decompose(args):
    kind, val = serialize.load_input(args.input)
    if kind != "density":
        raise FormatError("decompose expects a density-matrix JSON input")
    _warn_positivity(val)
    _write_out(serialize.bloch_to_json(decompose(val)), args.out)
    return 0


def _cmd_fingerprint(args):
    tols = _tolerances(args)
    b, _ = _load_state(args.input)
    cf = canonicalize(b, zero_tol=tols.zero_tol, deg_tol=tols.deg_tol)
    fp = full_fingerprint(cf.tensor, cf.orbit_class)
    _write_out(serialize.dumps(fp.to_dict()), args.out)
    return 0


def _cmd_compare(args):
    tols = _tolerances(args)
    _, rho1 = _load_state(args.input_a)
    _, rho2 = _load_state(args.input_b)
    verdict = equivalent(rho1, rho2, tols)
    _write_out(serialize.dumps(verdict.to_dict()), args.out)
    return verdict.exit_code


def _cmd_orbit_test(args):
    tols = _tolerances(args)
    if args.trials < 1:
        raise FormatError("--trials must be at least 1")
    b, rho = _load_state(args.input)
    rng = np.random.default_rng(args.seed)
    base = Fingerprint("all", all_invariants(b))

    max_dev = 0.0
    max_mismatch = 0.0
    ok = True
    for _ in range(args.trials):
        u1, u2, u3 = haar_su2(rng), haar_su2(rng), haar_su2(rng)
        rot = LocalRotation.from_su2(u1, u2, u3)
        if args.corrupt_action:
            L = rot.L.copy()
            L[0, 1] += 0.05
            rot = types.SimpleNamespace(L=L, M=rot.M, N=rot.N)
        b_rot = act(b, rot)
        fp = Fingerprint("all", all_invariants(b_rot))
        max_dev = max(max_dev, float(np.abs(fp.values() - base.values()).max()))
        if first_mismatch(base, fp, tols.tol_abs, tols.tol_rel) is not None:
            ok = False
        b_oracle = decompose(conjugate(rho, u1, u2, u3))
        b_direct = act(b, LocalRotation.from_su2(u1, u2, u3))
        mismatch = float(np.max(np.abs(b_oracle.components() - b_direct.components())))
        max_mismatch = max(max_mismatch, mismatch)
        if mismatch > tols.tol_abs:
            ok = False
    report = {
        "trials": args.trials,
        "max_invariant_deviation": max_dev,
        "max_oracle_mismatch": max_mismatch,
        "ok": ok,
    }
    _write_out(serialize.dumps(report), args.out)
    return 0 if ok else 1


def _cmd_reconstruct(args):
    tols = _tolerances(args)
    b, _ = _load_state(args.input)
    cf = canonicalize(b, zero_tol=tols.zero_tol, deg_tol=tols.deg_tol)
    fp = full_fingerprint(cf.tensor, cf.orbit_class)
    result = {"class": cf.orbit_class.tag}
    kind = cf.orbit_class.kind
    if kind == "single-zero":
        sol = solve_single_zero(fp, cf)
        zq = "abg".index(sol.zero_vector)

        def key(u, v):
            """Key of the entry at u, v on the remaining qubits, ascending."""
            idx = [u, v]
            idx.insert(zq, sol.slot)
            return component_key(tuple(idx))

        comps = {}
        for j in range(3):
            comps[key(j + 1, 0)] = float(sol.first[j])
            comps[key(0, j + 1)] = float(sol.second[j])
        for u in range(3):
            for v in range(3):
                comps[key(u + 1, v + 1)] = float(sol.q_slab[u, v])
        result["components"] = comps
        result["ambiguity"] = []
    elif kind in ("two-zero-diff", "two-zero-same"):
        rec = recover_two_zero(fp, cf)
        comps = {}
        for grp in rec.groups:
            comps.update(grp.components)
        result["components"] = comps
        result["squares"] = rec.squares
        result["ambiguity"] = [grp.label for grp in rec.groups if not grp.resolved]
        if rec.notes:
            result["notes"] = rec.notes
    else:
        raise WrongClassError(
            f"reconstruction covers single-zero and two-zero classes; input is {cf.orbit_class.tag}")
    _write_out(serialize.dumps(result), args.out)
    return 0


def _cmd_example(args):
    rho = example_state(args.a, args.b, args.c)
    _warn_positivity(rho)
    _write_out(serialize.density_to_json(rho), args.out)
    return 0


_HANDLERS = {
    "decompose": _cmd_decompose,
    "fingerprint": _cmd_fingerprint,
    "compare": _cmd_compare,
    "orbit-test": _cmd_orbit_test,
    "reconstruct": _cmd_reconstruct,
    "example": _cmd_example,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except (FormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"lu3q: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularSystemError, InconsistentInvariantsError, WrongClassError,
            NotHermitianError, TraceNotOneError, NotSpecialUnitaryError,
            NotRotationError, ValueError) as exc:
        print(f"lu3q: error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
