"""Recover tensor components from invariant values at a canonical point.

Every zero pattern is solved in one frame.  BlochTensor.permute relabels the
qubits so that the qubits holding the zeros come first and the others follow
in ascending order: a zero in beta or gamma becomes a zero in alpha, and
zeros in (alpha, gamma) or (beta, gamma) become zeros in (alpha, beta).  Each
solver below is written once, for that alpha (or alpha-beta) case.  Every
Vandermonde system is built and solved by _Frame.grid_solve, which names
its grid through invariants.grid_names as the families do; only the
line-product systems of _line_products are not.  Each distinct system is
solved once, against all the right-hand sides that share it.  Frame qubit n is
qubit perm[n] of the canonical tensor.  Invariant names are built from
canonical qubit indices by the builders of the invariants module, and
recovered entries are keyed by their Pauli index (i, j, k) through
pauli.component_key, so mapping a frame quantity back is a tuple permutation.

A single zero in alpha at slot p leaves row p of R and S and the slab
Q[p,:,:] undetermined by the generic invariants; the extra triple-product
invariants fix them through Vandermonde systems built from the canonical
Gram spectra.  Zeros in alpha and beta leave R[p,q] and the fiber Q[p,q,:];
two zeros in alpha leave two rows of R and S and two slabs of Q.  The
squared family pins magnitudes and in-row products, and the sign-resolution
invariants fix the remaining signs when they do not vanish.  Those cover
zeros in (alpha, beta) only: the other pairs report magnitudes.

Both solvers return their entries already keyed, in one report shape:
groups of SignGroup (components by key, in output order, and whether their
signs are pinned), squares by key and notes.  A single-zero solve is one
resolved group, its coupling entries interleaved and then its slab, with
no squares.  Only this module maps frame indices to component keys.

Known-component contributions are always subtracted by re-evaluating the
exact invariant on a copy of the tensor with the unknowns zeroed, never by
separate closed forms.  Those re-evaluations pin the Gram matrices to the
canonical spectra: the invariants weight components by the Grams of the
full tensor, which zeroing part of Q would otherwise perturb.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (InconsistentInvariantsError, SingularSystemError,
                     WrongClassError)
from .invariants import (_PAIRS, _R3, _VEC_NAMES, Fingerprint, coupling_square_name,
                         extra_name, extra_q_name, grid_names, q_square_name, sign_name,
                         sign_q_name, sign_resolution, single_zero_extras,
                         slab_square_name, squared_family, vector_square_name)
from .pauli import _coefficients, _from_coefficients, component_key
from .tensor_ops import triple_cofactor

__all__ = [
    "VandermondeSystem",
    "vandermonde_system",
    "SingleZeroSolution",
    "solve_single_zero",
    "SignGroup",
    "TwoZeroRecovery",
    "recover_two_zero",
]

MIN_DET = 1e-10        # smallest relative determinant a solve accepts
SQUARE_FLOOR = -1e-9   # a solved square below this is inconsistent
ZERO_SQUARE = 1e-8     # a solved square at or below this is an exact zero
SIGN_DEN_TOL = 1e-9    # smallest sign-invariant response that fixes a sign


def _power_matrix(spec):
    """Rows r=0..2 of spec_i^r: the 3x3 Vandermonde system in the given spectrum."""
    return np.vander(np.asarray(spec, dtype=float), 3, increasing=True).T


def _rel_det(mat):
    n = mat.shape[0]
    scale = np.linalg.norm(mat) / np.sqrt(n)
    if scale == 0.0:
        return 0.0
    return float(abs(np.linalg.det(mat)) / scale ** n)


def _checked_solve(mats, rhs, what):
    """Solve the Kronecker product of mats against rhs, gating singularity on each factor."""
    for i, m in enumerate(mats):
        rd = _rel_det(m)
        if rd < MIN_DET:
            factor = f"factor {i + 1} " if len(mats) > 1 else ""
            raise SingularSystemError(
                f"{what}: {factor}relative determinant {rd:.3e} below {MIN_DET:.1e}", rd)
    return np.linalg.solve(functools.reduce(np.kron, mats), rhs)


def _clamp(squares, what):
    """Solved squares with rounding below zero set to zero; far below zero is inconsistent."""
    bad = squares[squares < SQUARE_FLOOR]
    if bad.size:
        raise InconsistentInvariantsError(
            f"{what}: squared value {bad[0]:.3e} below {SQUARE_FLOOR:.0e}")
    return np.maximum(squares, 0.0)


class _Frame:
    """A canonical form and its fingerprint, seen with the zero qubits first."""

    def __init__(self, cf, fp):
        cls = cf.orbit_class
        # zero qubits first, in order, then the other qubits ascending
        self.perm = tuple(dict.fromkeys([*(_VEC_NAMES.index(v) for v, _ in cls.slots), 0, 1, 2]))
        self.inverse = tuple(self.perm.index(n) for n in range(3))
        # a per-qubit tuple (Pauli index or powers) from frame to canonical qubit order
        self.orig = operator.itemgetter(*self.inverse)
        self.tensor = cf.tensor.permute(self.perm)
        self.vectors = (self.tensor.alpha, self.tensor.beta, self.tensor.gamma)
        self.spectra = [np.array(cls.spectra[q]) for q in self.perm]
        self.slots = [s for _, s in cls.slots]   # Pauli indices on frame qubits 0 (and 1)
        self.grams = tuple(np.diag(np.array(s, dtype=float)) for s in cls.spectra)
        self.fp = fp

    def key(self, idx):
        return component_key(self.orig(idx))

    def known(self, mask, values=0.0):
        """Canonical tensor with the frame coefficients under mask set to values."""
        vals = _coefficients(self.tensor)
        vals[mask] = values
        return _from_coefficients(np.ascontiguousarray(vals.transpose(self.inverse)))

    def measured(self, known, names, what):
        """Fingerprint values of names less their values in the Fingerprint known."""
        try:
            return self.fp.take(names) - known.take(names)
        except KeyError as exc:
            raise ValueError(f"fingerprint lacks entry {exc} needed for {what}") from exc

    def grid_solve(self, known, name, qubits, lams, what):
        """Solve values(r, s, ...) = (lams[0] x lams[1] x ...) M for M.

        Axis a of M and argument a of name belong to frame qubit qubits[a].
        A name that returns a list of names gives M a last axis, one column
        per name: the columns share the system and are solved together.
        The system is built with its axes in canonical qubit order, so every
        relabeling of a pattern solves the same system: these Kronecker
        systems are ill-conditioned enough that another row order moves the
        solution by up to 1e-10 relative.
        """
        n = len(qubits)
        order = sorted(range(n), key=lambda a: self.perm[qubits[a]])
        names = np.array(grid_names(name, n), dtype=object)
        cols = names.shape[1:]
        axes = [*order, *range(n, n + len(cols))]
        names = names.reshape((3,) * n + cols).transpose(axes).reshape(names.shape)
        d = self.measured(known, names.ravel(), what).reshape(names.shape)
        sol = _checked_solve([lams[a] for a in order], d, what)
        return sol.reshape((3,) * n + cols).transpose(np.argsort(axes))


def _row_mask(slots):
    """Frame coefficients with one of slots on qubit 0, apart from the zero vector itself."""
    m = np.zeros((4, 4, 4), dtype=bool)
    m[slots] = True
    m[slots, 0, 0] = False
    return m


@dataclass(frozen=True)
class VandermondeSystem:
    """Vandermonde pair for a single-zero solve.

    Lambda and F come from the first remaining vector (its squared Gram
    spectrum and components), Theta and G from the second, in (a, b, g)
    order with the zero vector removed.
    """

    Lambda: np.ndarray
    Theta: np.ndarray
    F: np.ndarray
    G: np.ndarray
    vectors: tuple


def _single_zero_frame(cf, fp):
    """The frame of a single-zero form and the Vandermonde pair of its qubits 1 and 2."""
    cls = cf.orbit_class
    if cls.kind != "single-zero":
        raise WrongClassError(f"expected a single-zero class, got {cls.tag}")
    fr = _Frame(cf, fp)
    return fr, VandermondeSystem(
        Lambda=_power_matrix(fr.spectra[1]),
        Theta=_power_matrix(fr.spectra[2]),
        F=np.diag(fr.vectors[1]),
        G=np.diag(fr.vectors[2]),
        vectors=(_VEC_NAMES[fr.perm[1]], _VEC_NAMES[fr.perm[2]]),
    )


def vandermonde_system(cf):
    """The Vandermonde pair of a single-zero canonical form (reads no fingerprint value)."""
    return _single_zero_frame(cf, Fingerprint(cf.orbit_class.tag))[1]


@dataclass
class SingleZeroSolution:
    """Recovered row/column of two coupling matrices and one slab of Q.

    first and second are indexed by the first and second remaining qubit,
    q_slab by both in ascending order; groups, squares and notes hold the
    same entries in the report shape of TwoZeroRecovery.
    """

    first: np.ndarray
    second: np.ndarray
    q_slab: np.ndarray
    targets: tuple
    groups: list
    squares: dict
    notes: list


def solve_single_zero(fp, cf):
    """Solve the Vandermonde systems for a single-zero canonical form.

    Returns a SingleZeroSolution; raises WrongClassError for other classes
    and SingularSystemError when a system determinant or the triple-product
    prefactor is below threshold.
    """
    fr, vsys = _single_zero_frame(cf, fp)
    zq, p = fr.perm[0], fr.slots[0]

    v = fr.vectors[0]
    pref = triple_cofactor(v, fr.grams[zq] @ v)[p - 1]
    pref_scale = float(np.linalg.norm(v) ** 2 * fr.spectra[0][0])
    if abs(pref) < MIN_DET * max(pref_scale, 1e-300):
        raise SingularSystemError(
            f"triple-product prefactor {pref:.3e} too small to solve", abs(pref))

    known = single_zero_extras(fr.known(_row_mask([p])), _VEC_NAMES[zq], fr.grams)

    A1, A2 = vsys.Lambda @ vsys.F, vsys.Theta @ vsys.G
    first = fr.grid_solve(known, functools.partial(extra_name, zq, fr.perm[1]), (1,), [A1],
                          "first coupling system") / pref
    second = fr.grid_solve(known, functools.partial(extra_name, zq, fr.perm[2]), (2,), [A2],
                           "second coupling system") / pref
    q_slab = fr.grid_solve(known, functools.partial(extra_q_name, zq), (1, 2), [A1, A2],
                           "Q slab system") / pref
    targets = tuple(fr.key(idx) for idx in ((p, ":", 0), (p, 0, ":"), (p, ":", ":")))
    comps = {}
    for j in _R3:
        comps[fr.key((p, j, 0))] = float(first[j - 1])
        comps[fr.key((p, 0, j))] = float(second[j - 1])
    for r, s in itertools.product(_R3, repeat=2):
        comps[fr.key((p, r, s))] = float(q_slab[r - 1, s - 1])
    return SingleZeroSolution(first, second, q_slab, targets,
                              [SignGroup(", ".join(targets), comps, True)], {}, [])


@dataclass
class SignGroup:
    """Components sharing one sign freedom; resolved means the signs are pinned."""

    label: str
    components: dict
    resolved: bool


@dataclass
class TwoZeroRecovery:
    """Recovered squares and sign-grouped component values for a two-zero class."""

    case: str
    squares: dict
    groups: list
    notes: list


def _line_products(squares, sums, spec, weights, what):
    """Product matrices P[n]_jk = x_j x_k of lines x = x[n] from their squares and squared sums.

    The squared sums obey sums[n, tau] = sum_jk (spec_j spec_k)^tau w_j w_k P[n]_jk,
    so the off-diagonal products of every line follow from one Vandermonde-like solve.
    """
    diag = np.stack([np.sum(squares * (spec ** 2) ** tau * weights ** 2, axis=-1)
                     for tau in range(3)], axis=-1)
    B = np.array([[2.0 * (spec[j] * spec[k]) ** tau * weights[j] * weights[k]
                   for (j, k) in _PAIRS] for tau in range(3)])
    offdiag = _checked_solve((B,), (sums - diag).T, what).T
    P = squares[:, :, None] * np.eye(3)
    j, k = zip(*_PAIRS)
    P[:, j, k] = P[:, k, j] = offdiag
    return P


def _row_group(label, keys, P):
    """The row keyed by keys from its rank-1 PSD product matrix, pivoting on the largest diagonal.

    An all-zero row is resolved; otherwise the row's overall sign is open.
    """
    diag = np.diag(P)
    pivot = int(np.argmax(diag))
    if diag[pivot] <= ZERO_SQUARE:
        return SignGroup(label, {k: 0.0 for k in keys}, True)
    vals = np.where(diag <= ZERO_SQUARE, 0.0, P[:, pivot] / np.sqrt(diag[pivot]))
    return SignGroup(label, {k: float(v) for k, v in zip(keys, vals)}, False)


def _resolve_linear_sign(fr, sgn_known, sgn_unit, names):
    """Best sign estimate from invariants linear in the unknown block.

    sgn_known and sgn_unit hold the sign-resolution values of the known part and
    of it plus the unit block.  Returns (value, resolved): value solves measured =
    known + value*unit using the first equation with the largest unit contribution.
    """
    measured = fr.measured(sgn_known, names, "sign resolution")
    contrib = sgn_unit.take(names) - sgn_known.take(names)
    i = int(np.abs(contrib).argmax())
    if abs(contrib[i]) <= SIGN_DEN_TOL:
        return 0.0, False
    return measured[i] / contrib[i], True


def _recover_diff(fr):
    """Zeros at frame slots p, q of vectors 0 and 1: R[p,q] and the fiber Q[p,q,:]."""
    P = fr.perm
    p, q = fr.slots
    spec, weights = fr.spectra[2], fr.vectors[2]
    mask = np.zeros((4, 4, 4), dtype=bool)
    mask[p, q] = True
    t_known = fr.known(mask)
    sq_known = squared_family(t_known, fr.grams)

    ckey = fr.key((p, q, 0))
    c2 = float(_clamp(fr.measured(sq_known, [coupling_square_name(P[0], P[1], 1, 1)], ckey),
                      ckey)[0])
    fiber_sq = _clamp(fr.grid_solve(sq_known, lambda t: q_square_name(*fr.orig((1, 1, t))), (2,),
                                    [_power_matrix(spec)], "fiber square system"), "Q fiber")
    m = fr.measured(sq_known, [slab_square_name(P[2], n, P[0], 1, P[1], 1) for n in _R3],
                    "fiber products")
    prod = _line_products(fiber_sq[None], m[None], spec, weights, "fiber product system")[0]

    keys = [fr.key((p, q, k)) for k in _R3]
    fiber = _row_group(fr.key((p, q, ":")), keys, prod)
    squares = {f"{ckey}^2": c2}
    squares.update({f"{k}^2": float(s) for k, s in zip(keys, fiber_sq)})

    c_mag = float(np.sqrt(c2))
    if P[:2] != (0, 1):
        notes = [f"sign-resolution invariants cover zeros in (a, b); "
                 f"pair ({_VEC_NAMES[P[0]]}, {_VEC_NAMES[P[1]]}) reports magnitudes only"]
        coupling = SignGroup(ckey, {ckey: c_mag}, bool(c2 <= ZERO_SQUARE))
        return TwoZeroRecovery("different-vectors", squares, [coupling, fiber], notes)

    vals = list(fiber.components.values())
    if c2 > ZERO_SQUARE or not fiber.resolved:
        # one tensor holds both unit blocks: the coupling's entries read R and never Q,
        # the fiber's read Q and never R, and the Grams are pinned
        sgn_known = sign_resolution(t_known, fr.grams)
        sgn_unit = sign_resolution(fr.known(mask, [1.0, *vals]), fr.grams)
    if c2 <= ZERO_SQUARE:
        coupling = SignGroup(ckey, {ckey: 0.0}, True)
    else:
        val, ok = _resolve_linear_sign(
            fr, sgn_known, sgn_unit,
            [sign_name(path, r) for path in ((0, 1, 2), (1, 0, 2)) for r in _R3])
        coupling = SignGroup(ckey, {ckey: np.copysign(c_mag, val) if ok else c_mag}, ok)
    if not fiber.resolved:
        sigma, ok = _resolve_linear_sign(
            fr, sgn_known, sgn_unit,
            [sign_q_name(v, r, s) for v in (0, 1) for r in _R3 for s in _R3])
        sign = np.copysign(1.0, sigma) if ok else 1.0
        fiber = SignGroup(fiber.label, {k: float(sign * x) for k, x in zip(keys, vals)}, ok)
    return TwoZeroRecovery("different-vectors", squares, [coupling, fiber], [])


def _slab_sign_groups(slab_label, magnitudes, edges, key):
    """Connected sign components of a 3x3 slab from in-row/in-column products.

    magnitudes: 3x3 non-negative entry magnitudes; edges: dict mapping node
    pairs ((u,v),(u',v')) to product values; key(u, v): component key of a
    node.  Nodes whose squared magnitude is at or below ZERO_SQUARE are
    collected into one resolved zero group.
    """
    nodes = [(u, v) for u in range(3) for v in range(3)]
    live = {n for n in nodes if magnitudes[n] ** 2 > ZERO_SQUARE}
    adj = {n: [] for n in live}
    for (n1, n2), prod in edges.items():
        if n1 in live and n2 in live and abs(prod) > ZERO_SQUARE:
            adj[n1].append((n2, prod))
            adj[n2].append((n1, prod))
    groups = []
    seen = set()
    comp_idx = 0
    for start in sorted(live, key=lambda n: -magnitudes[n]):
        if start in seen:
            continue
        comp_idx += 1
        sign = {start: 1.0}
        queue = [start]
        seen.add(start)
        while queue:
            cur = queue.pop()
            for nxt, prod in adj[cur]:
                want = np.copysign(1.0, prod) * sign[cur]
                if nxt in sign:
                    if sign[nxt] != want:
                        raise InconsistentInvariantsError(
                            f"{slab_label}: contradictory sign products in component {comp_idx}")
                else:
                    sign[nxt] = want
                    seen.add(nxt)
                    queue.append(nxt)
        comps = {key(u, v): float(s * magnitudes[u, v]) for (u, v), s in sorted(sign.items())}
        groups.append(SignGroup(f"{slab_label}#{comp_idx}", comps, False))
    zeros = sorted(n for n in nodes if n not in live)
    if zeros:
        groups.append(SignGroup(f"{slab_label}#zeros", {key(u, v): 0.0 for u, v in zeros}, True))
    return groups


def _recover_same(fr):
    """Zeros at two frame slots of vector 0: those rows of R and S and slabs of Q."""
    P = fr.perm
    lam = [_power_matrix(x) for x in fr.spectra]
    lam4 = [_power_matrix(x ** 2) for x in fr.spectra]
    sq_known = squared_family(fr.known(_row_mask(fr.slots)), fr.grams)

    def solve(name, qubits, what, lams=lam4):
        """The rows of the zero slots: the others solve to rounding around the exact zero
        their known part leaves, so they are neither checked nor used."""
        sol = fr.grid_solve(sq_known, name, qubits, [lams[q] for q in qubits], what)
        return sol[np.array(fr.slots) - 1]

    def coupling_squares(o):
        """Squares of the frame coupling of qubits 0 and o, indexed [row, column]."""
        letter = fr.key(tuple(":" if n in (0, o) else 0 for n in range(3)))[0]
        return _clamp(solve(lambda r, s: coupling_square_name(P[0], P[o], r, s), (0, o),
                            f"{letter} squares", lam), letter)

    C = [coupling_squares(o) for o in (1, 2)]
    # squared sums along each row of the frame coupling (0, o), indexed [row, s]
    W = [solve(lambda r: [vector_square_name(P[0], P[o], r, s) for s in _R3], (0,), "row sums")
         for o in (1, 2)]
    Q2 = _clamp(solve(lambda r, s, t: q_square_name(*fr.orig((r, s, t))), (0, 1, 2),
                      "Q squares", lam), "Q")
    # squared sums along the qubit-o lines of the slabs, indexed [row, line on the other qubit, t]
    U = [solve(lambda r, s: [slab_square_name(P[o], t, P[0], r, P[3 - o], s) for t in _R3],
               (0, 3 - o), "Q line sums") for o in (1, 2)]
    # one product system per qubit n + 1: its two coupling rows, then its slab lines [row, line]
    lines = (Q2.transpose(0, 2, 1), Q2)
    lp1, lp2 = (_line_products(np.concatenate([C[n], lines[n].reshape(6, 3)]),
                               np.concatenate([W[n], U[n].reshape(6, 3)]),
                               fr.spectra[n + 1], fr.vectors[n + 1], "row products")
                for n in range(2))

    squares = {}
    groups = []
    notes = ["per-row and per-slab sign freedoms are independent; the implemented "
             "invariant set does not couple them"]
    for i, x in enumerate(fr.slots):
        for j in range(3):
            squares[f"{fr.key((x, j + 1, 0))}^2"] = float(C[0][i, j])
            squares[f"{fr.key((x, 0, j + 1))}^2"] = float(C[1][i, j])
            for k in range(3):
                squares[f"{fr.key((x, j + 1, k + 1))}^2"] = float(Q2[i, j, k])
        groups.append(_row_group(fr.key((x, ":", 0)), [fr.key((x, j, 0)) for j in _R3], lp1[i]))
        groups.append(_row_group(fr.key((x, 0, ":")), [fr.key((x, 0, k)) for k in _R3], lp2[i]))
        cols, rows = lp1[2 + 3 * i:5 + 3 * i], lp2[2 + 3 * i:5 + 3 * i]   # [k][j, j'], [j][k, k']
        edges = {((j, k), (jp, k)): cols[k, j, jp] for k in range(3) for j, jp in _PAIRS}
        edges.update({((j, k), (j, kp)): rows[j, k, kp] for j in range(3) for k, kp in _PAIRS})
        groups.extend(_slab_sign_groups(fr.key((x, ":", ":")), np.sqrt(Q2[i]), edges,
                                        lambda u, v: fr.key((x, u + 1, v + 1))))
    return TwoZeroRecovery("same-vector", squares, groups, notes)


def recover_two_zero(fp, cf):
    """Recover the components a two-zero canonical form leaves undetermined.

    Different vectors: one coupling entry and one fiber of Q, magnitudes from
    the squared family and signs from the sign-resolution invariants when
    those are nonzero (zeros in alpha and beta; other pairs report magnitudes).
    Same vector: two rows/columns of two coupling matrices and two slabs of
    Q, each up to the per-row and per-component sign freedoms reported in
    the returned groups.
    """
    solver = {"two-zero-diff": _recover_diff,
              "two-zero-same": _recover_same}.get(cf.orbit_class.kind)
    if solver is None:
        raise WrongClassError(f"expected a two-zero class, got {cf.orbit_class.tag}")
    return solver(_Frame(cf, fp))
