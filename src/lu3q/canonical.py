"""Canonical points on local-unitary orbits and the equivalence decision.

Canonicalization diagonalizes the three Gram matrices by proper rotations
with non-increasing diagonals.  The residual freedom (per factor: the four
det=+1 diagonal sign matrices) is fixed by lexicographically maximizing the
rotated alpha, beta, gamma, skipping components below zero_tol.  Orbit
classes are read off the canonical vectors' zero patterns; spectra with a
gap at or below deg_tol (relative to the largest Gram eigenvalue) have no
well-defined canonical point and classify as degenerate.

The sign flips keep every |component|, so the class is already fixed in the
Gram eigen-frames.  equivalent classifies there and never builds the rotation
or the canonical tensor.  Every stage takes a leading batch axis: equivalent
runs a pair as one stack of two, whose one Gram computation serves both
classifications, the Gram traces (compared before any invariant context is
built) and every invariant family; the scalar functions (canonicalize,
classify, the fingerprints) are the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import (_GRAM_NAMES, _TRACE_NAMES, _VEC_NAMES, TOL_ABS, TOL_REL, Fingerprint,
                         _Ctx, _families, _is_real, _powers, _traces, first_mismatch)
# Unused here; kept importable because bench/spans.py wraps them in this module.
from .invariants import all_invariants, full_fingerprint, generic_fingerprint  # noqa: F401
from .pauli import _expand, decompose, validate_density  # noqa: F401 (decompose as above)
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
    """The four comparison thresholds; each must be a positive finite number, not a bool."""

    tol_abs: float = TOL_ABS
    tol_rel: float = TOL_REL
    zero_tol: float = ZERO_TOL
    deg_tol: float = DEG_TOL

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (_is_real(value) and np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class OrbitClass:
    """Orbit classification: kind, zero slots and the canonical Gram spectra."""

    kind: str
    slots: tuple = ()
    reason: str = ""
    spectra: tuple = ()

    @property
    def tag(self):
        """kind, then any zero slots or else any reason: "single-zero:a3", "degenerate:X gap 1"."""
        if self.slots:
            return f"{self.kind}:" + ",".join(f"{v}{i}" for v, i in self.slots)
        return f"{self.kind}:{self.reason}" if self.reason else self.kind

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


def _lex_sign(vec, mask):
    """Sign triple (det +1) maximizing vec[mask] lexicographically."""
    return max(_SIGN_CHOICES, key=lambda c: tuple((c * vec)[mask]))   # first of equal keys


def _classify(spectra, masks, deg_tol):
    """Orbit class from the Gram spectra (a 3x3 array, one spectrum a row) and
    the non-zero masks of alpha, beta, gamma."""
    spectra_t = tuple(map(tuple, spectra.tolist()))
    scale = max(s[0] for s in spectra_t)
    for name, s in zip(_GRAM_NAMES, spectra_t):
        for i in range(2):
            gap = s[i] - s[i + 1]
            if gap <= deg_tol * scale:
                reason = f"{name} gap {i + 1}"
                return OrbitClass("degenerate", (), reason, spectra_t)
    slots = tuple((vn, i + 1) for vn, mask in zip(_VEC_NAMES, masks) for i in range(3) if not mask[i])
    if len(slots) == 0:
        return OrbitClass("generic", (), "", spectra_t)
    if len(slots) == 1:
        return OrbitClass("single-zero", slots, "", spectra_t)
    if len(slots) == 2:
        kind = "two-zero-same" if slots[0][0] == slots[1][0] else "two-zero-diff"
        return OrbitClass(kind, slots, "", spectra_t)
    return OrbitClass("other", slots, "", spectra_t)


def _frame(bs, grams, zero_tol, deg_tol):
    """Where the Gram eigen-frames put the tensors bs, given their stacked Grams: the
    rotations that diagonalize the Grams (eigenvalues non-increasing), the rotated
    alpha, beta, gamma, their non-zero masks (each (N, 3, ...)) and the N classes."""
    # one eigh on all the stacked Grams gives the same bits as separate calls
    w, u = np.linalg.eigh(np.stack(grams, axis=1))
    u = u[..., [2, 1, 0]]
    u[np.linalg.det(u) < 0, :, 2] *= -1.0
    rotations = u.swapaxes(2, 3)
    vecs = (rotations @ np.array([(b.alpha, b.beta, b.gamma) for b in bs])[..., None])[..., 0]
    # one structural-zero test; the sign flips of canonicalize keep every |component|
    masks = np.abs(vecs) > zero_tol
    return rotations, vecs, masks, [_classify(s[:, ::-1], m, deg_tol) for s, m in zip(w, masks)]


def canonicalize(b, zero_tol=ZERO_TOL, deg_tol=DEG_TOL):
    """Canonical form of a coefficient tensor.

    Returns CanonicalForm(tensor, rotation, orbit_class) with
    tensor == act(b, rotation), diagonal non-increasing Gram matrices and
    the residual signs fixed by the lexicographic rule.  ValueError unless
    zero_tol and deg_tol are positive finite numbers.
    """
    Tolerances(zero_tol=zero_tol, deg_tol=deg_tol)
    rotations, vecs, masks, classes = _frame((b,), gram(b.Q[None]), zero_tol, deg_tol)
    signs = [_lex_sign(v, m)[:, None] for v, m in zip(vecs[0], masks[0])]
    rot = LocalRotation(*(d * g for d, g in zip(signs, rotations[0])))
    return CanonicalForm(act(b, rot), rot, classes[0])


def classify(b, zero_tol=ZERO_TOL, deg_tol=DEG_TOL):
    """Orbit class of a coefficient tensor, read off its Gram eigen-frames;
    the tolerances are checked as canonicalize checks them."""
    Tolerances(zero_tol=zero_tol, deg_tol=deg_tol)
    return _frame((b,), gram(b.Q[None]), zero_tol, deg_tol)[-1][0]


# the spectrum stage: the 8 density eigenvalues, then each Gram spectrum
_SPECTRUM_NAMES = (tuple(f"spec:rho[{i}]" for i in range(8))
                   + tuple(f"spec:{name}[{i}]" for name in _GRAM_NAMES for i in range(3)))


def _stages(rhos, bs, P, classes, orbit_class):
    """Fingerprints that equivalent compares in turn, a list per stage: the Gram traces
    from the Gram powers P, then on a context built on P only if they agree, the generic
    family, the density and Gram spectra and the other families of orbit_class."""
    yield [Fingerprint("traces", _TRACE_NAMES, t.ravel()) for t in _traces(P).swapaxes(0, 1)]
    families = _families(_Ctx(bs, P=P), orbit_class)
    yield next(families)
    yield [Fingerprint("spectra", _SPECTRUM_NAMES, np.concatenate((e, np.ravel(c.spectra))))
           for e, c in zip(np.linalg.eigvalsh(rhos), classes)]
    yield from families


def equivalent(rho1, rho2, tols=None):
    """Decide local-unitary equivalence of two density matrices.

    Verdicts: "equivalent", "inequivalent" (with the first differing
    invariant or spectrum entry as witness), "equivalent-up-to-sign"
    (two-zero classes whose sign-resolution invariants all vanish),
    "inconclusive" (degenerate or other classes with equal fingerprints, or
    mismatched classes with no differing invariant).  The 9 Gram traces,
    the generic family's first entries, are compared first, from the Grams
    that classify the states and before any invariant context is built; then
    the generic family, the spectra, then the rest of the class fingerprint,
    or of all 339 invariants when the classes differ.  Symmetric in its
    arguments.  Raises ValueError when an entry is NaN or infinite before any
    entry differs (see first_mismatch).  The two states go through every stage
    as one stack.
    """
    tols = tols or Tolerances()
    rhos = np.stack([validate_density(rho) for rho in (rho1, rho2)])
    bs = _expand(rhos)
    grams = gram(np.stack([b.Q for b in bs]))
    c1, c2 = _frame(bs, grams, tols.zero_tol, tols.deg_tol)[-1]
    classes = (c1.tag, c2.tag)
    same = c1.matches(c2)
    for s1, s2 in _stages(rhos, bs, _powers(grams, 2), (c1, c2), c1 if same else None):
        diff = first_mismatch(s1, s2, tols.tol_abs, tols.tol_rel)
        if diff is not None:
            name, v1, v2 = diff
            return Verdict("inequivalent", name, classes, f"{name}: {v1:.12g} vs {v2:.12g}")

    if not same:
        return Verdict("inconclusive", None, classes,
                       f"orbit classes differ ({classes[0]} vs {classes[1]}) "
                       "but no listed invariant separates the states")
    kind = c1.kind
    if kind in ("generic", "single-zero"):
        return Verdict("equivalent", None, classes)
    if kind in ("two-zero-diff", "two-zero-same"):
        # the last stage of a two-zero class is its sign-resolution family
        if np.abs(np.concatenate((s1.values, s2.values))).max() <= tols.tol_abs:
            return Verdict("equivalent-up-to-sign", None, classes,
                           "all sign-resolution invariants vanish; residual signs undetermined")
        return Verdict("equivalent", None, classes)
    return Verdict("inconclusive", None, classes,
                   f"fingerprints agree but completeness is not established for class {classes[0]}")
