"""Canonical points on local-unitary orbits and the equivalence decision.

Canonicalization diagonalizes the three Gram matrices by proper rotations
with non-increasing diagonals.  The residual freedom (per factor: the four
det=+1 diagonal sign matrices) is fixed by lexicographically maximizing the
rotated alpha, beta, gamma, skipping components below zero_tol.  Orbit
classes are read off the canonical vectors' zero patterns; spectra with a
gap at or below deg_tol (relative to the largest Gram eigenvalue) have no
well-defined canonical point and classify as degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import (all_invariants, Fingerprint, first_mismatch,
                         full_fingerprint, generic_fingerprint)
from .pauli import BlochTensor, decompose
from .rotations import LocalRotation, act
from .tensor_ops import gram

__all__ = [
    "Tolerances",
    "OrbitClass",
    "CanonicalForm",
    "Verdict",
    "canonicalize",
    "classify",
    "equivalent",
]

ZERO_TOL = 1e-7
DEG_TOL = 1e-7

_SIGN_CHOICES = (
    np.array([1.0, 1.0, 1.0]),
    np.array([1.0, -1.0, -1.0]),
    np.array([-1.0, 1.0, -1.0]),
    np.array([-1.0, -1.0, 1.0]),
)


@dataclass(frozen=True)
class Tolerances:
    tol_abs: float = 1e-9
    tol_rel: float = 1e-8
    zero_tol: float = ZERO_TOL
    deg_tol: float = DEG_TOL

    def __post_init__(self):
        for name in ("tol_abs", "tol_rel", "zero_tol", "deg_tol"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a nonnegative finite number, got {value}")


@dataclass(frozen=True)
class OrbitClass:
    """Orbit classification: kind, zero slots and the canonical Gram spectra."""

    kind: str
    slots: tuple = ()
    reason: str = ""
    spectra: tuple = ()

    @property
    def tag(self):
        if self.kind in ("single-zero", "two-zero-diff", "two-zero-same", "other"):
            return f"{self.kind}:" + ",".join(f"{v}{i}" for v, i in self.slots)
        if self.kind == "degenerate" and self.reason:
            return f"degenerate:{self.reason}"
        return self.kind

    def matches(self, other):
        """Same class for comparison purposes (degenerate matches by kind)."""
        if self.kind != other.kind:
            return False
        if self.kind == "degenerate":
            return True
        return self.slots == other.slots


@dataclass(frozen=True)
class CanonicalForm:
    tensor: object
    rotation: LocalRotation
    orbit_class: OrbitClass


@dataclass(frozen=True)
class Verdict:
    verdict: str
    witness: object
    classes: tuple
    reason: str = ""

    def to_dict(self):
        return {"verdict": self.verdict, "witness": self.witness,
                "classes": list(self.classes)}

    @property
    def exit_code(self):
        return {"equivalent": 0, "inequivalent": 1}.get(self.verdict, 2)


def _diagonalizing_rotation(g):
    """Proper rotation L with L g L^T diagonal, eigenvalues non-increasing."""
    w, v = np.linalg.eigh(g)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    if np.linalg.det(v) < 0:
        v = v.copy()
        v[:, 2] = -v[:, 2]
    return w, v.T


def _lex_sign(vec, zero_tol):
    """Sign triple (det +1) maximizing vec lexicographically, zeros skipped."""
    mask = np.abs(vec) > zero_tol
    best = _SIGN_CHOICES[0]
    best_key = tuple((best * vec)[mask])
    for cand in _SIGN_CHOICES[1:]:
        key = tuple((cand * vec)[mask])
        if key > best_key:
            best, best_key = cand, key
    return best


def _classify(spectra, b_canonical, zero_tol, deg_tol):
    scale = max(float(s[0]) for s in spectra)
    spectra_t = tuple(tuple(float(x) for x in s) for s in spectra)
    for name, s in zip("XYZ", spectra):
        for i in range(2):
            gap = s[i] - s[i + 1]
            if gap <= deg_tol * scale:
                reason = f"{name} gap {i + 1}"
                return OrbitClass("degenerate", (), reason, spectra_t)
    slots = []
    for vn, v in (("a", b_canonical.alpha), ("b", b_canonical.beta),
                  ("g", b_canonical.gamma)):
        for i in range(3):
            if abs(v[i]) <= zero_tol:
                slots.append((vn, i + 1))
    slots = tuple(slots)
    if len(slots) == 0:
        return OrbitClass("generic", (), "", spectra_t)
    if len(slots) == 1:
        return OrbitClass("single-zero", slots, "", spectra_t)
    if len(slots) == 2:
        kind = "two-zero-same" if slots[0][0] == slots[1][0] else "two-zero-diff"
        return OrbitClass(kind, slots, "", spectra_t)
    return OrbitClass("other", slots, "", spectra_t)


def canonicalize(b, zero_tol=ZERO_TOL, deg_tol=DEG_TOL):
    """Canonical form of a coefficient tensor.

    Returns CanonicalForm(tensor, rotation, orbit_class) with
    tensor == act(b, rotation), diagonal non-increasing Gram matrices and
    the residual signs fixed by the lexicographic rule.
    """
    X, Y, Z = gram(b.Q)
    wx, L = _diagonalizing_rotation(X)
    wy, M = _diagonalizing_rotation(Y)
    wz, N = _diagonalizing_rotation(Z)
    b1 = act(b, LocalRotation(L, M, N))
    dl = _lex_sign(b1.alpha, zero_tol)
    dm = _lex_sign(b1.beta, zero_tol)
    dn = _lex_sign(b1.gamma, zero_tol)
    rot = LocalRotation(dl[:, None] * L, dm[:, None] * M, dn[:, None] * N)
    # act(b, rot) is b1 with the sign triples applied, and flipping signs is exact
    b2 = BlochTensor(dl * b1.alpha, dm * b1.beta, dn * b1.gamma,
                     dl[:, None] * b1.R * dm, dl[:, None] * b1.S * dn, dm[:, None] * b1.T * dn,
                     dl[:, None, None] * dm[:, None] * dn * b1.Q)
    cls = _classify((wx, wy, wz), b2, zero_tol, deg_tol)
    return CanonicalForm(b2, rot, cls)


def classify(b, zero_tol=ZERO_TOL, deg_tol=DEG_TOL):
    """Orbit class of a coefficient tensor (canonicalizes internally)."""
    return canonicalize(b, zero_tol, deg_tol).orbit_class


def _close(a, b, tols):
    return abs(a - b) <= tols.tol_abs + tols.tol_rel * max(abs(a), abs(b))


def equivalent(rho1, rho2, tols=None):
    """Decide local-unitary equivalence of two density matrices.

    Verdicts: "equivalent", "inequivalent" (with the first differing
    invariant as witness), "equivalent-up-to-sign" (two-zero classes whose
    sign-resolution invariants all vanish), "inconclusive" (degenerate or
    other classes with equal fingerprints, or mismatched classes with no
    differing invariant).  Symmetric in its arguments.
    """
    tols = tols or Tolerances()
    b1, b2 = decompose(rho1), decompose(rho2)

    fp1, fp2 = generic_fingerprint(b1), generic_fingerprint(b2)
    cf1 = canonicalize(b1, tols.zero_tol, tols.deg_tol)
    cf2 = canonicalize(b2, tols.zero_tol, tols.deg_tol)
    classes = (cf1.orbit_class.tag, cf2.orbit_class.tag)

    diff = first_mismatch(fp1, fp2, tols.tol_abs, tols.tol_rel)
    if diff is not None:
        return Verdict("inequivalent", diff[0], classes,
                       f"{diff[0]}: {diff[1]:.12g} vs {diff[2]:.12g}")

    ev1 = np.linalg.eigvalsh(np.asarray(rho1, dtype=complex))
    ev2 = np.linalg.eigvalsh(np.asarray(rho2, dtype=complex))
    for i in range(8):
        if not _close(ev1[i], ev2[i], tols):
            return Verdict("inequivalent", f"spec:rho[{i}]", classes,
                           f"state spectra differ at position {i}")
    for name, s1, s2 in zip("XYZ", cf1.orbit_class.spectra, cf2.orbit_class.spectra):
        for i in range(3):
            if not _close(s1[i], s2[i], tols):
                return Verdict("inequivalent", f"spec:{name}[{i}]", classes,
                               f"Gram spectra of {name} differ at position {i}")

    if not cf1.orbit_class.matches(cf2.orbit_class):
        all1 = Fingerprint("all", all_invariants(b1))
        all2 = Fingerprint("all", all_invariants(b2))
        diff = first_mismatch(all1, all2, tols.tol_abs, tols.tol_rel)
        if diff is not None:
            return Verdict("inequivalent", diff[0], classes,
                           f"{diff[0]}: {diff[1]:.12g} vs {diff[2]:.12g}")
        return Verdict("inconclusive", None, classes,
                       f"orbit classes differ ({classes[0]} vs {classes[1]}) "
                       "but no listed invariant separates the states")

    kind = cf1.orbit_class.kind
    if kind != "generic":
        ffp1 = full_fingerprint(b1, cf1.orbit_class)
        ffp2 = full_fingerprint(b2, cf1.orbit_class)
        diff = first_mismatch(ffp1, ffp2, tols.tol_abs, tols.tol_rel)
        if diff is not None:
            return Verdict("inequivalent", diff[0], classes,
                           f"{diff[0]}: {diff[1]:.12g} vs {diff[2]:.12g}")
    if kind in ("generic", "single-zero"):
        return Verdict("equivalent", None, classes)
    if kind in ("two-zero-diff", "two-zero-same"):
        sgn_max = max(max(abs(v) for n, v in ffp1.entries if n.startswith("sgn:")),
                      max(abs(v) for n, v in ffp2.entries if n.startswith("sgn:")))
        if sgn_max <= tols.tol_abs:
            return Verdict("equivalent-up-to-sign", None, classes,
                           "all sign-resolution invariants vanish; residual signs undetermined")
        return Verdict("equivalent", None, classes)
    return Verdict("inconclusive", None, classes,
                   f"fingerprints agree but completeness is not established for class {classes[0]}")
