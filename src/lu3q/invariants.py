"""Polynomial local-unitary invariants of the coefficient tensor.

Four families are emitted, each as named (name, value) entries with a fixed
enumeration order so fingerprints compare positionally:

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
grids it solves back through the same helper.
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
    "grid_names",
    "extra_name", "extra_q_name", "coupling_square_name", "q_square_name",
    "vector_square_name", "slab_square_name", "sign_name", "sign_q_name",
]

TOL_ABS = 1e-9
TOL_REL = 1e-8

_VEC_NAMES = ("a", "b", "g")
_GRAM_NAMES = "XYZ"
_PAIRS = ((0, 1), (0, 2), (1, 2))   # _PAIRS[2 - q] holds the qubits other than q
_R3 = (1, 2, 3)
_GRID2 = tuple(itertools.product(_R3, repeat=2))
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
    """Per-tensor cache: Gram powers, power-weighted vectors, couplings, per qubit, and chains.

    When grams is given, those matrices replace the ones derived from b.Q;
    reconstruction uses this to evaluate families on a partially zeroed
    tensor with the weights of the original canonical point.
    """

    def __init__(self, b, grams=None):
        self.b = b
        self.G = gram(b.Q) if grams is None else grams
        eye = np.eye(3)
        self.P = [[eye, g, g @ g] for g in self.G]
        # column r-1 holds G^{r-1} v
        self.V = [np.stack([p @ v for p in powers], axis=1)
                  for powers, v in zip(self.P, (b.alpha, b.beta, b.gamma))]
        self.cof = [triple_cofactor(v[:, 0], v[:, 1]) for v in self.V]
        self.chains = {}   # _chain values by (path, r)
        self.C = {(0, 1): b.R, (1, 0): b.R.T, (0, 2): b.S, (2, 0): b.S.T,
                  (1, 2): b.T, (2, 1): b.T.T}


def grid_names(name, ndim):
    """Names of an ndim power grid, first power outermost: name(1,..,1), name(1,..,2), ..."""
    return [name(*powers) for powers in itertools.product(_R3, repeat=ndim)]


def _block(name, grid):
    """(name, value) entries of a power grid, named through grid_names."""
    return list(zip(grid_names(name, grid.ndim), grid.ravel().tolist()))


def _axes(*qubits):
    return "".join("ijk"[q] for q in qubits)


def _generic_entries(ctx):
    b = ctx.b
    out = []
    for n, g, g2 in zip(_GRAM_NAMES, ctx.G, (p[2] for p in ctx.P)):
        traces = np.array([np.trace(g), np.trace(g2), np.einsum("ij,ji->", g2, g)])
        out += _block(lambda r: f"tr{n}^{r}", traces)
    for vn, gn, cols, v in zip(_VEC_NAMES, _GRAM_NAMES, ctx.V, (b.alpha, b.beta, b.gamma)):
        out += _block(lambda r: f"{vn}{gn}{vn}:r={r}", v @ cols)
    out += [(f"tri:{vn}", _chain(ctx, (q,), 3)) for q, vn in enumerate(_VEC_NAMES)]
    for p, q in _PAIRS:
        label = f"{_VEC_NAMES[p]}{_COUPLING[p, q]}{_VEC_NAMES[q]}"
        out += _block(lambda r, s: f"{label}:r={r},s={s}", ctx.V[p].T @ ctx.C[p, q] @ ctx.V[q])
    tri = np.einsum("ir,js,kt,ijk->rst", *ctx.V, b.Q)
    out += _block(lambda r, s, t: f"Q:r={r},s={s},t={t}", tri)
    return out


def _chain(ctx, path, r):
    """Cofactor of vector path[0] against the couplings along path, ending in G^{r-1} v.

    Memoized on the context: the sign entries sgn:bTg and sgn:aSg are the
    extras tri:b,Tg and tri:a,Sg, and one context serves both families.
    """
    key = path, r
    if key not in ctx.chains:
        v = ctx.V[path[-1]][:, r - 1]
        for p, q in zip(path[-2::-1], path[:0:-1]):
            v = ctx.C[p, q] @ v
        ctx.chains[key] = float(ctx.cof[path[0]] @ v)
    return ctx.chains[key]


def _extras_entries(ctx, q):
    """The 15 extra invariants for a vanishing component of vector q."""
    o1, o2 = _PAIRS[2 - q]
    out = [(extra_name(q, o, r), _chain(ctx, (q, o), r)) for o in (o1, o2) for r in _R3]
    contract = f"ijk,{_axes(o1)},{_axes(o2)}->{_axes(q)}"
    for r, s in _GRID2:
        w = np.einsum(contract, ctx.b.Q, ctx.V[o1][:, r - 1], ctx.V[o2][:, s - 1])
        out.append((extra_q_name(q, r, s), float(ctx.cof[q] @ w)))
    return out


def _squared_entries(ctx):
    b, C, V = ctx.b, ctx.C, ctx.V
    P = [np.stack(powers) for powers in ctx.P]   # P[q][r-1] = G_q^{r-1}
    out = []
    for p, q in _PAIRS:
        grid = np.einsum("ij,rjk,lk,sli->rs", C[p, q], P[q], C[p, q], P[p])
        out += _block(lambda r, s: coupling_square_name(p, q, s, r), grid)
    # one five-operand einsum: the two-zero-same Q-square solve amplifies a new summation order
    out += _block(q_square_name, np.einsum("ria,abc,sbe,tcf,ief->rst", P[0], b.Q, P[1], P[2], b.Q))
    for pair in _PAIRS:
        for q, o in (pair, pair[::-1]):
            w = P[q] @ (C[q, o] @ V[o])   # [r, :, s] = G_q^{r-1} C_qo G_o^{s-1} v_o
            out += _block(functools.partial(vector_square_name, q, o),
                          np.einsum("ris,ris->rs", w, w))
    for q in range(3):
        o1, o2 = _PAIRS[2 - q]
        w = np.einsum(f"ijk,{_axes(q)}t->t{_axes(o1, o2)}", b.Q, V[q])   # [t] = Q . G_q^{t-1} v_q
        m = P[o1][:, None, None] @ w @ P[o2][None, :, None]   # [r, s, t] = G^{r-1} w_t G^{s-1}
        out += _block(lambda r, s, t: slab_square_name(q, t, o1, r, o2, s),
                      np.einsum("rstxy,rstxy->rst", m, m))
    return out


def _sign_entries(ctx):
    b, P = ctx.b, ctx.P
    out = [(sign_name(path, r), _chain(ctx, path, r)) for path in _SIGN_PATHS for r in _R3]
    for q in (0, 1):
        o = 1 - q
        contract = f"ijk,{_axes(o, 2)}->{_axes(q)}"
        for r, s in _GRID2:
            w = np.einsum(contract, b.Q, P[o][r - 1] @ ctx.C[o, 2] @ P[2][s - 1])
            out.append((sign_q_name(q, r, s), float(ctx.cof[q] @ w)))
    return out


@dataclass
class Fingerprint:
    """Named invariant values for one orbit class, fixed enumeration order."""

    orbit_class: str
    entries: list = field(default_factory=list)

    def names(self):
        return [name for name, _ in self.entries]

    def values(self):
        return np.array([val for _, val in self.entries])

    def get(self, name):
        return dict(self.entries)[name]

    def __len__(self):
        return len(self.entries)

    def to_dict(self):
        return {"class": self.orbit_class,
                "entries": [[name, val] for name, val in self.entries]}

    @classmethod
    def from_dict(cls, data):
        entries = [(str(name), float(val)) for name, val in data["entries"]]
        return cls(orbit_class=str(data["class"]), entries=entries)


def generic_fingerprint(b):
    """The 75 generic invariants, as a Fingerprint tagged "generic"."""
    return Fingerprint("generic", next(fingerprint_families(b)))


def single_zero_extras(b, vector, grams=None):
    """The 15 extra invariants for a zero component of vector "a", "b" or "g"."""
    if vector not in _VEC_NAMES:
        raise ValueError(f'vector must be one of "a", "b", "g", got {vector!r}')
    return _extras_entries(_Ctx(b, grams), _VEC_NAMES.index(vector))


def squared_family(b, grams=None):
    """The 189 squared invariants (traces and norms quadratic in R, S, T, Q)."""
    return _squared_entries(_Ctx(b, grams))


def sign_resolution(b, grams=None):
    """The 30 sign-resolution invariants for zeros in alpha and beta."""
    return _sign_entries(_Ctx(b, grams))


def fingerprint_families(b, orbit_class=None):
    """Entry lists of the families in a class's fingerprint, in fingerprint order.

    One context serves every family, and each family is evaluated only when
    it is reached.  generic -> the 75 generic invariants; single-zero -> those
    and the 15 extras of the zero vector; any other class, or None -> all 339
    (generic, the extras of a, b and g, squared, sign; every entry is a
    genuine invariant on any tensor).
    """
    ctx = _Ctx(b)
    yield _generic_entries(ctx)
    kind = getattr(orbit_class, "kind", None)
    if kind == "single-zero":
        yield _extras_entries(ctx, _VEC_NAMES.index(orbit_class.slots[0][0]))
    elif kind != "generic":
        for q in range(3):
            yield _extras_entries(ctx, q)
        yield _squared_entries(ctx)
        yield _sign_entries(ctx)


def all_invariants(b):
    """Every invariant the package defines: 75 + 3*15 + 189 + 30 = 339 entries."""
    return list(itertools.chain.from_iterable(fingerprint_families(b)))


def full_fingerprint(b, orbit_class):
    """Class-dependent fingerprint: the families fingerprint_families lists for the class."""
    return Fingerprint(orbit_class.tag, list(itertools.chain.from_iterable(
        fingerprint_families(b, orbit_class))))


def first_mismatch(fp1, fp2, tol_abs=TOL_ABS, tol_rel=TOL_REL):
    """First entry where two fingerprints disagree, or None.

    Entries compare positionally with |a - b| <= tol_abs + tol_rel*max(|a|,|b|).
    Raises ValueError if the name sequences differ (incomparable classes).
    """
    if fp1.names() != fp2.names():
        raise ValueError("fingerprints enumerate different invariants and cannot be compared")
    for (name, v1), (_, v2) in zip(fp1.entries, fp2.entries):
        if abs(v1 - v2) > tol_abs + tol_rel * max(abs(v1), abs(v2)):
            return name, v1, v2
    return None


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
