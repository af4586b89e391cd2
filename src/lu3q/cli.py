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

import numpy as np

from . import serialize
from .canonical import Tolerances, canonicalize, equivalent
from .errors import FormatError, InconsistentInvariantsError, SingularSystemError, WrongClassError
from .invariants import all_invariants, first_mismatch, full_fingerprint
from .pauli import _expand, decompose, reconstruct, validate_density
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
    # each subcommand takes only the tolerances it reads
    comparison, classes = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    for group, name, what in (
            (comparison, "tol_abs", "absolute tolerance for invariant comparison"),
            (comparison, "tol_rel", "relative tolerance for invariant comparison"),
            (classes, "zero_tol", "threshold for structural zeros in canonical vectors"),
            (classes, "deg_tol", "relative spectral-gap threshold for degeneracy")):
        value = getattr(defaults, name)
        shown = f"{value:.0e}".replace("e-0", "e-")
        group.add_argument("--" + name.replace("_", "-"), type=float, default=value,
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
    d.set_defaults(handler=_cmd_decompose)

    f = sub.add_parser("fingerprint", parents=[classes, out],
                       help="canonical class and class-complete invariant list")
    f.add_argument("input", help="state JSON file ('-' for stdin)")
    f.set_defaults(handler=_cmd_fingerprint)

    c = sub.add_parser("compare", parents=[comparison, classes, out],
                       help="decide local-unitary equivalence of two states")
    c.add_argument("input_a", help="first state JSON file")
    c.add_argument("input_b", help="second state JSON file")
    c.set_defaults(handler=_cmd_compare)

    o = sub.add_parser("orbit-test", parents=[comparison, out],
                       help="verify invariance under random local unitaries")
    o.add_argument("input", help="state JSON file ('-' for stdin)")
    o.add_argument("--trials", type=int, default=100, help="number of random rotations")
    o.add_argument("--seed", type=int, default=0, help="random seed")
    o.set_defaults(handler=_cmd_orbit_test)

    r = sub.add_parser("reconstruct", parents=[classes, out],
                       help="recover components left open by a nongeneric class")
    r.add_argument("input", help="state JSON file ('-' for stdin)")
    r.set_defaults(handler=_cmd_reconstruct)

    e = sub.add_parser("example", parents=[out],
                       help="emit a member of the built-in example family")
    e.add_argument("--a", type=float, default=0.0, help="first diagonal Q component")
    e.add_argument("--b", type=float, default=0.0, help="second diagonal Q component")
    e.add_argument("--c", type=float, default=0.0, help="third diagonal Q component")
    e.set_defaults(handler=_cmd_example)
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
    """Returns (density, tensor) as given: the one the input does not hold is
    None.  A density input is checked as decompose checks it but not decomposed."""
    kind, val = serialize.load_input(path)
    if kind == "bloch":
        return None, val
    _warn_positivity(val)
    validate_density(val)
    return val, None


def _tolerances(args):
    """Tolerances from the flags the subcommand takes; the others keep their defaults."""
    try:
        return Tolerances(**{k: getattr(args, k, v) for k, v in vars(Tolerances()).items()})
    except ValueError as exc:
        raise FormatError(f"bad tolerance option: {exc}") from exc


def _cmd_decompose(args):
    rho, _ = _load_state(args.input)
    if rho is None:
        raise FormatError("decompose expects a density-matrix JSON input")
    _write_out(serialize.bloch_to_json(decompose(rho)), args.out)
    return 0


def _canonical(args):
    """The canonical form of the input state."""
    tols = _tolerances(args)
    rho, b = _load_state(args.input)
    return canonicalize(decompose(rho) if b is None else b,
                        zero_tol=tols.zero_tol, deg_tol=tols.deg_tol)


def _cmd_fingerprint(args):
    cf = _canonical(args)
    fp = full_fingerprint(cf.tensor, cf.orbit_class)
    bad = ~np.isfinite(fp.values)
    if bad.any():   # an overflow in an accepted input: a compute error, as in compare
        i = int(bad.argmax())
        raise ValueError(f"invariant {fp.names[i]} is not finite: {float(fp.values[i])!r}")
    _write_out(serialize.dumps(fp.to_dict()), args.out)
    return 0


def _cmd_compare(args):
    tols = _tolerances(args)
    if args.input_a == args.input_b == "-":
        raise FormatError("stdin ('-') can be given for one input only")
    # equivalent decomposes each density itself
    rhos = [reconstruct(b) if rho is None else rho
            for rho, b in map(_load_state, (args.input_a, args.input_b))]
    verdict = equivalent(*rhos, tols)
    _write_out(serialize.dumps(verdict.to_dict()), args.out)
    return verdict.exit_code


def _cmd_orbit_test(args):
    tols = _tolerances(args)
    if args.trials < 1:
        raise FormatError("--trials must be at least 1")
    if args.seed < 0:
        raise FormatError("--seed must be non-negative")
    rho, b = _load_state(args.input)
    rho, b = (reconstruct(b), b) if rho is None else (rho, decompose(rho))
    rng = np.random.default_rng(args.seed)
    base = all_invariants(b)

    max_dev = 0.0
    max_mismatch = 0.0
    ok = True
    for _ in range(args.trials):
        u1, u2, u3 = haar_su2(rng), haar_su2(rng), haar_su2(rng)
        b_rot = act(b, LocalRotation.from_su2(u1, u2, u3))
        fp = all_invariants(b_rot)
        max_dev = max(max_dev, float(np.abs(fp.values - base.values).max()))
        if first_mismatch(base, fp, tols.tol_abs, tols.tol_rel) is not None:
            ok = False
        # the rotated density is not checked again: its rounding grows with the entries
        b_oracle = _expand(conjugate(rho, u1, u2, u3)[None])[0]
        mismatch = float(np.max(np.abs(b_oracle.components() - b_rot.components())))
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
    cf = _canonical(args)
    kind = cf.orbit_class.kind
    # the class decides whether there is anything to solve, before any invariant is evaluated
    if kind not in ("single-zero", "two-zero-diff", "two-zero-same"):
        raise WrongClassError(
            f"reconstruction covers single-zero and two-zero classes; input is {cf.orbit_class.tag}")
    fp = full_fingerprint(cf.tensor, cf.orbit_class)
    rec = (solve_single_zero if kind == "single-zero" else recover_two_zero)(fp, cf)
    result = {"class": cf.orbit_class.tag,
              "components": {k: v for grp in rec.groups for k, v in grp.components.items()}}
    if rec.squares:
        result["squares"] = rec.squares
    result["ambiguity"] = [grp.label for grp in rec.groups if not grp.resolved]
    if rec.notes:
        result["notes"] = rec.notes
    _write_out(serialize.dumps(result), args.out)
    return 0


def _cmd_example(args):
    rho = example_state(args.a, args.b, args.c)
    _warn_positivity(rho)
    _write_out(serialize.density_to_json(rho), args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # an overflow in an accepted input surfaces as a non-finite result, which
        # each subcommand reports as one error line, so numpy need not warn on the way
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(args)
    except (FormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"lu3q: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # WrongClassError and the other checks are ValueErrors
    except (SingularSystemError, InconsistentInvariantsError, ValueError) as exc:
        print(f"lu3q: error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
