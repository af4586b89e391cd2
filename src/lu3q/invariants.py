"""Polynomial local-unitary invariants of the coefficient tensor.

Four families are emitted, each as a Fingerprint of names and values with a
fixed enumeration order so fingerprints compare positionally:

  generic (75):    traces tr G^r of the Gram matrices, vector quadratics
                   v.G^{r-1}v, the triple products (v, Gv, G^2 v), the
                   bilinear couplings a.X^{r-1} R Y^{s-1} b (and S, T
                   analogues), and the trilinear Q contractions.
  extras (15/vec): triple-product invariants that replace the information
                   lost when one vector component vanishes at the canonical
                   point.
  squared (189):   traces and squared norms quadratic in R, S, T, Q; these
                   determine the remaining components up to signs when two
                   vector components vanish.
  sign (30):       triple products that pin down the residual signs for two
                   zeros in alpha and beta.

Power indices r, s, t always run 1..3 and enter as G^{r-1}, so only the
0th..2nd matrix powers appear (plus cubes inside the trace family).  A
family computes each power grid as one array and names its entries through
grid_names, first power outermost (r, then s, then t); recover reads the
grids it solves back through the same helper.  A family's names depend on
nothing but the family, so they are built on its first evaluation only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import flatten, gram, triple_cofactor

__all__ = [
    "Fingerprint",
    "generic_fingerprint",
    "single_zero_extras",
    "squared_family",
    "sign_resolution",
    "all_invariants",
    "full_fingerprint",
    "fingerprint_families",
    "first_mismatch",
    "q_trilinear",
    "q_trilinear_flat",
]

TOL_ABS = 1e-9
TOL_REL = 1e-8

_VEC_NAMES = ("a", "b", "g")
_GRAM_NAMES = "XYZ"
_PAIRS = ((0, 1), (0, 2), (1, 2))   # _PAIRS[2 - q] holds the qubits other than q
_R3 = (1, 2, 3)
_SIGN_PATHS = ((1, 2), (0, 2), (0, 1, 2), (1, 0, 2))
# R, S, T for the couplings of qubits (0,1), (0,2), (1,2); "t" marks the transpose
_COUPLING = {(p, q): "RST"[p + q - 1] + ("t" if p > q else "")
             for p in range(3) for q in range(3) if p != q}


# Name builders.  Qubits 0, 1, 2 carry vectors a, b, g and Grams X, Y, Z, and may
# come in any order, so code working on relabeled qubits finds the names of the
# original tensor.  Cached: every fingerprint asks for the same few hundred names.

@functools.cache
def extra_name(q, o, r):
    """Extra for a zero in vector q: its cofactor against C_qo G_o^{r-1} v_o."""
    return f"tri:{_VEC_NAMES[q]},{_COUPLING[q, o]}{_VEC_NAMES[o]}:r={r}"


@functools.cache
def extra_q_name(q, r, s):
    """Extra for a zero in vector q from Q; r, s weight the other qubits, ascending."""
    o1, o2 = _PAIRS[2 - q]
    return f"tri:{_VEC_NAMES[q]},Q{_VEC_NAMES[o1]}{_VEC_NAMES[o2]}:r={r},s={s}"


@functools.cache
def coupling_square_name(p, q, rp, rq):
    """tr(C_pq G_q^{rq-1} C_pq^T G_p^{rp-1})."""
    if p > q:
        p, q, rp, rq = q, p, rq, rp
    c = _COUPLING[p, q]
    return f"sq:{c}{_GRAM_NAMES[q]}{c}{_GRAM_NAMES[p]}:r={rq},s={rp}"


@functools.cache
def q_square_name(r, s, t):
    """Squared norm of Q weighted by X^{r-1}, Y^{s-1}, Z^{t-1}."""
    return f"sq:QXQYZ:r={r},s={s},t={t}"


@functools.cache
def vector_square_name(q, o, r, s):
    """Squared norm of G_q^{r-1} C_qo G_o^{s-1} v_o."""
    return f"sq:{_GRAM_NAMES[q]}{_COUPLING[q, o]}{_GRAM_NAMES[o]}{_VEC_NAMES[o]}:r={r},s={s}"


@functools.cache
def slab_square_name(q, t, p1, r1, p2, r2):
    """Squared norm of Q contracted with G_q^{t-1} v_q, weighted by powers r1, r2 of p1, p2."""
    if p1 > p2:
        p1, r1, p2, r2 = p2, r2, p1, r1
    g, v = _GRAM_NAMES, _VEC_NAMES
    return f"sq:{g[p1]}{g[p2]}Q{q + 1}{g[q]}{v[q]}:r={r1},s={r2},t={t}"


@functools.cache
def sign_name(path, r):
    """Cofactor of vector path[0] against the couplings along path, ending in Z^{r-1} g."""
    chain = "".join(_COUPLING[p, q] for p, q in zip(path, path[1:]))
    return f"sgn:{_VEC_NAMES[path[0]]}{chain}g:r={r}"


@functools.cache
def sign_q_name(q, r, s):
    """Cofactor of vector q (0 or 1) against Q contracted with G_o^{r-1} C_o2 Z^{s-1}, o = 1-q."""
    return f"sgn:{_VEC_NAMES[q]}Q{_COUPLING[1 - q, 2]}:r={r},s={s}"


class _Ctx:
    """Per-tensor arrays every family reads: Gram powers, weighted vectors, cofactors, couplings.

    P[q][r-1] is G_q^{r-1}, one (3, 3, 3) array per qubit.

    When grams is given, those matrices replace the ones derived from b.Q;
    reconstruction uses this to evaluate families on a partially zeroed
    tensor with the weights of the original canonical point.
    """

    def __init__(self, b, grams=None):
        self.b = b
        self.G = gram(b.Q) if grams is None else grams
        eye = np.eye(3)
        self.P = [np.array([eye, g, g @ g]) for g in self.G]
        # column r-1 holds G^{r-1} v
        self.V = [np.stack([p @ v for p in powers], axis=1)
                  for powers, v in zip(self.P, (b.alpha, b.beta, b.gamma))]
        self.cof = [triple_cofactor(v[:, 0], v[:, 1]) for v in self.V]
        self.C = {(0, 1): b.R, (1, 0): b.R.T, (0, 2): b.S, (2, 0): b.S.T,
                  (1, 2): b.T, (2, 1): b.T.T}


def grid_names(name, ndim):
    """Names of an ndim power grid, first power outermost: name(1,..,1), name(1,..,2), ..."""
    return [name(*powers) for powers in itertools.product(_R3, repeat=ndim)]


# Each family's names, by tag: they depend on nothing else, so _evaluate
# builds them once, on the family's first evaluation.
_NAMES = {}


def _evaluate(tag, family, ctx, *args):
    """Fingerprint tagged tag of family(ctx, *args), a generator of (namer, grid) blocks.

    A grid is an array of values, or one value, whose entries are named through
    grid_names(namer, grid.ndim).  A block is named as it is yielded, because
    a namer may close over the family's loop variables.
    """
    names = _NAMES.get(tag)
    fresh, values = [], []
    for namer, grid in family(ctx, *args):
        if names is None:
            fresh += grid_names(namer, np.ndim(grid))
        values.append(np.ravel(grid))
    if names is None:
        names = _NAMES[tag] = tuple(fresh)
    return Fingerprint(tag, names, np.concatenate(values))


def _axes(*qubits):
    return "".join("ijk"[q] for q in qubits)


def _generic_blocks(ctx):
    b = ctx.b
    for n, g, g2 in zip(_GRAM_NAMES, ctx.G, (p[2] for p in ctx.P)):
        traces = np.array([np.trace(g), np.trace(g2), np.einsum("ij,ji->", g2, g)])
        yield (lambda r: f"tr{n}^{r}"), traces
    for vn, gn, cols, v in zip(_VEC_NAMES, _GRAM_NAMES, ctx.V, (b.alpha, b.beta, b.gamma)):
        yield (lambda r: f"{vn}{gn}{vn}:r={r}"), v @ cols
    for q, vn in enumerate(_VEC_NAMES):
        yield (lambda: f"tri:{vn}"), _chain(ctx, (q,), 3)
    for p, q in _PAIRS:
        label = f"{_VEC_NAMES[p]}{_COUPLING[p, q]}{_VEC_NAMES[q]}"
        yield (lambda r, s: f"{label}:r={r},s={s}"), ctx.V[p].T @ ctx.C[p, q] @ ctx.V[q]
    yield (lambda r, s, t: f"Q:r={r},s={s},t={t}"), np.einsum("ir,js,kt,ijk->rst", *ctx.V, b.Q)


def _chain(ctx, path, r):
    """Cofactor of vector path[0] against the couplings along path, ending in G^{r-1} v.

    The sign entries sgn:bTg and sgn:aSg are the extras tri:b,Tg and tri:a,Sg,
    evaluated again by the same operations, so they carry the same bits.
    """
    v = ctx.V[path[-1]][:, r - 1]
    for p, q in zip(path[-2::-1], path[:0:-1]):
        v = ctx.C[p, q] @ v
    return float(ctx.cof[path[0]] @ v)


def _extras_blocks(ctx, q):
    """The 15 extra invariants for a vanishing component of vector q."""
    o1, o2 = _PAIRS[2 - q]
    for o in (o1, o2):
        yield functools.partial(extra_name, q, o), np.array([_chain(ctx, (q, o), r) for r in _R3])
    # [r, s] = Q contracted with G^{r-1} v_o1 and G^{s-1} v_o2.  Row-major operands and
    # np.dot keep the bits the tests pin: strided columns or grid @ cof sum in another order
    grid = np.einsum(f"ijk,r{_axes(o1)},s{_axes(o2)}->rs{_axes(q)}", ctx.b.Q,
                     ctx.V[o1].T.copy(), ctx.V[o2].T.copy())
    yield functools.partial(extra_q_name, q), np.dot(grid, ctx.cof[q])


def _squared_blocks(ctx):
    b, C, V, P = ctx.b, ctx.C, ctx.V, ctx.P
    for p, q in _PAIRS:
        yield ((lambda r, s: coupling_square_name(p, q, s, r)),
               np.einsum("ij,rjk,lk,sli->rs", C[p, q], P[q], C[p, q], P[p]))
    # one five-operand einsum: the two-zero-same Q-square solve amplifies a new summation order
    yield q_square_name, np.einsum("ria,abc,sbe,tcf,ief->rst", P[0], b.Q, P[1], P[2], b.Q)
    for pair in _PAIRS:
        for q, o in (pair, pair[::-1]):
            w = P[q] @ (C[q, o] @ V[o])   # [r, :, s] = G_q^{r-1} C_qo G_o^{s-1} v_o
            yield functools.partial(vector_square_name, q, o), np.einsum("ris,ris->rs", w, w)
    for q in range(3):
        o1, o2 = _PAIRS[2 - q]
        w = np.einsum(f"ijk,{_axes(q)}t->t{_axes(o1, o2)}", b.Q, V[q])   # [t] = Q . G_q^{t-1} v_q
        m = P[o1][:, None, None] @ w @ P[o2][None, :, None]   # [r, s, t] = G^{r-1} w_t G^{s-1}
        yield ((lambda r, s, t: slab_square_name(q, t, o1, r, o2, s)),
               np.einsum("rstxy,rstxy->rst", m, m))


def _sign_blocks(ctx):
    P = ctx.P
    for path in _SIGN_PATHS:
        yield functools.partial(sign_name, path), np.array([_chain(ctx, path, r) for r in _R3])
    for q in (0, 1):
        o = 1 - q
        m = (P[o] @ ctx.C[o, 2])[:, None] @ P[2]   # [r, s] = G_o^{r-1} C_o2 Z^{s-1}
        grid = np.einsum(f"ijk,rs{_axes(o, 2)}->rs{_axes(q)}", ctx.b.Q, m)
        yield functools.partial(sign_q_name, q), np.dot(grid, ctx.cof[q])


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """Invariant values for one orbit class: values[i] is named names[i], fixed order."""

    orbit_class: str
    names: tuple = ()
    values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @functools.cached_property
    def _index(self):
        return {name: i for i, name in enumerate(self.names)}

    @property
    def entries(self):
        """(name, value) pairs, in order."""
        return list(zip(self.names, self.values.tolist()))

    def get(self, name):
        return float(self.values[self._index[name]])

    def take(self, names):
        """Array of the values of names, in the given order; KeyError for a missing name."""
        return self.values[[self._index[name] for name in names]]

    def __len__(self):
        return len(self.names)

    def to_dict(self):
        return {"class": self.orbit_class, "entries": self.entries}

    @classmethod
    def from_dict(cls, data):
        entries = data["entries"]
        return cls(str(data["class"]), tuple(str(name) for name, _ in entries),
                   np.array([float(val) for _, val in entries]))


def _extras(ctx, q):
    return _evaluate("extras:" + _VEC_NAMES[q], _extras_blocks, ctx, q)


def _join(tag, parts):
    """One Fingerprint tagged tag of the given Fingerprints, in order."""
    parts = list(parts)
    return Fingerprint(tag, sum((p.names for p in parts), ()),
                       np.concatenate([p.values for p in parts]))


def generic_fingerprint(b):
    """The 75 generic invariants, as a Fingerprint tagged "generic"."""
    return next(fingerprint_families(b))


def single_zero_extras(b, vector, grams=None):
    """The 15 extra invariants for a zero component of vector "a", "b" or "g"."""
    if vector not in _VEC_NAMES:
        raise ValueError(f'vector must be one of "a", "b", "g", got {vector!r}')
    return _extras(_Ctx(b, grams), _VEC_NAMES.index(vector))


def squared_family(b, grams=None):
    """The 189 squared invariants (traces and norms quadratic in R, S, T, Q)."""
    return _evaluate("squared", _squared_blocks, _Ctx(b, grams))


def sign_resolution(b, grams=None):
    """The 30 sign-resolution invariants for zeros in alpha and beta."""
    return _evaluate("sign", _sign_blocks, _Ctx(b, grams))


def fingerprint_families(b, orbit_class=None, grams=None):
    """Fingerprints of the families in a class's fingerprint, in fingerprint order.

    One context serves every family, and each family is evaluated only when
    it is reached.  generic -> the 75 generic invariants; single-zero -> those
    and the 15 extras of the zero vector; any other class, or None -> all 339
    (generic, the extras of a, b and g, squared, sign; every entry is a
    genuine invariant on any tensor).  grams, when given, must be gram(b.Q):
    a caller that already holds them saves recomputing them.
    """
    ctx = _Ctx(b, grams)
    yield _evaluate("generic", _generic_blocks, ctx)
    kind = getattr(orbit_class, "kind", None)
    if kind == "single-zero":
        yield _extras(ctx, _VEC_NAMES.index(orbit_class.slots[0][0]))
    elif kind != "generic":
        for q in range(3):
            yield _extras(ctx, q)
        yield _evaluate("squared", _squared_blocks, ctx)
        yield _evaluate("sign", _sign_blocks, ctx)


def all_invariants(b):
    """Every invariant the package defines, tagged "all": 75 + 3*15 + 189 + 30 = 339 entries."""
    return _join("all", fingerprint_families(b))


def full_fingerprint(b, orbit_class):
    """Class-dependent fingerprint: the families fingerprint_families lists for the class."""
    return _join(orbit_class.tag, fingerprint_families(b, orbit_class))


def first_mismatch(fp1, fp2, tol_abs=TOL_ABS, tol_rel=TOL_REL):
    """First entry where two fingerprints disagree, or None.

    Entries compare positionally with |a - b| <= tol_abs + tol_rel*max(|a|,|b|),
    all in one array comparison.  Returns (name, value 1, value 2).
    Raises ValueError if the name sequences differ (incomparable classes), or
    if an entry that is NaN or infinite on either side comes before any
    finite entry that fails: such an entry neither passes nor is a witness.
    ValueError also unless each tolerance is finite and not negative.
    """
    for what, tol in (("tol_abs", tol_abs), ("tol_rel", tol_rel)):
        if not 0.0 <= tol < np.inf:
            raise ValueError(f"{what} must be a non-negative finite number, got {tol}")
    names = fp1.names
    if names != fp2.names:
        raise ValueError("fingerprints enumerate different invariants and cannot be compared")
    a, b = fp1.values, fp2.values
    with np.errstate(invalid="ignore", over="ignore"):   # non-finite differences fail below
        diff = np.abs(a - b)
        ok = (diff <= tol_abs + tol_rel * np.maximum(np.abs(a), np.abs(b))) & np.isfinite(diff)
    if ok.all():
        return None
    i = int(ok.argmin())
    v1, v2 = float(a[i]), float(b[i])
    if not (np.isfinite(v1) and np.isfinite(v2)):
        raise ValueError(f"invariant {names[i]} is not finite: {v1!r} vs {v2!r}")
    return names[i], v1, v2


def q_trilinear(b, r, s, t):
    """sum_ijk (X^{r-1}a)_i (Y^{s-1}b)_j (Z^{t-1}g)_k Q_ijk, summed directly."""
    ctx = _Ctx(b)
    return float(np.einsum("i,j,k,ijk->", ctx.V[0][:, r - 1], ctx.V[1][:, s - 1],
                           ctx.V[2][:, t - 1], b.Q))


def q_trilinear_flat(b, r, s, t):
    """Same contraction through the axis-1 flattening and a Kronecker product."""
    ctx = _Ctx(b)
    q1 = flatten(b.Q, 1)
    big = np.kron(ctx.P[1][s - 1], ctx.P[2][t - 1])
    return float(ctx.V[0][:, r - 1] @ q1 @ big @ np.kron(b.beta, b.gamma))
