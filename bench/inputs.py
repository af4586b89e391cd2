"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports lu3q: states, local unitaries, Pauli coefficients and
the facts the correctness checks rely on (density spectra, vanishing
cofactors, the canonical-frame tensor a state was built from) are computed
independently of the program under test.

Coefficients follow the program's convention: c[i, j, k] = tr(rho s_i s_j s_k)
with s_0 the identity, so rho = sum_ijk c[i, j, k] s_i s_j s_k / 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
STRINGS = np.array([[[np.kron(np.kron(PAULI[i], PAULI[j]), PAULI[k])
                      for k in range(4)] for j in range(4)] for i in range(4)])

# A cross pair must differ in its density spectrum by at least this much, so
# that "inequivalent" is the only right verdict.
CROSS_SPECTRUM_GAP = 1e-3
# Positive states are scaled to this share of the largest positive scale.
POSITIVE_MARGIN = 0.99
# Seed of the noisy reconstruction slice: those inputs never depend on
# --seed, so the failures they cause repeat exactly in every run.
FIXED_SEED = 7
NOISE_WEIGHT = 0.7

# ---------------------------------------------------------------------------
# Pauli algebra and local unitaries
# ---------------------------------------------------------------------------

def density(coeffs):
    """8x8 density matrix of a (4, 4, 4) coefficient array."""
    return np.einsum("ijk,ijkab->ab", coeffs, STRINGS) / 8.0


def coefficients(rho):
    """(4, 4, 4) real coefficient array tr(rho s_i s_j s_k) of a matrix."""
    return np.einsum("ijkab,ba->ijk", STRINGS, rho).real


def assemble(alpha, beta, gamma, R, S, T, Q):
    c = np.zeros((4, 4, 4))
    c[0, 0, 0] = 1.0
    c[1:, 0, 0], c[0, 1:, 0], c[0, 0, 1:] = alpha, beta, gamma
    c[1:, 1:, 0], c[1:, 0, 1:], c[0, 1:, 1:] = R, S, T
    c[1:, 1:, 1:] = Q
    return c


def parts(c):
    """(alpha, beta, gamma, R, S, T, Q) of a coefficient array."""
    return (c[1:, 0, 0], c[0, 1:, 0], c[0, 0, 1:],
            c[1:, 1:, 0], c[1:, 0, 1:], c[0, 1:, 1:], c[1:, 1:, 1:])


def flat(c):
    """The 63 non-identity coefficients in the order alpha, beta, gamma, R, S, T, Q."""
    return np.concatenate([p.ravel() for p in parts(c)])


# Diagonal rotations of determinant one: the only rotations that keep a
# diagonal Gram matrix with distinct eigenvalues diagonal and in order.
DET_ONE_SIGNS = ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))


def det_one_frames(c):
    """(64, 63) array: flat(c) under each local diagonal rotation of
    determinant one, one row per rotation."""
    rows = []
    for d1, d2, d3 in itertools.product(DET_ONE_SIGNS, repeat=3):
        e1, e2, e3 = (np.array((1.0,) + d) for d in (d1, d2, d3))
        rows.append(flat(np.einsum("i,j,k,ijk->ijk", e1, e2, e3, c)))
    return np.array(rows)


def haar_su2(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def local_unitary(rng):
    """kron(u1, u2, u3) for three Haar-random SU(2) elements."""
    return np.kron(np.kron(haar_su2(rng), haar_su2(rng)), haar_su2(rng))


def conjugated(rho, u):
    return u @ rho @ u.conj().T


def grams(Q):
    """Gram matrices of the three flattenings of a 3x3x3 tensor."""
    m = [Q.reshape(3, 9), Q.transpose(1, 0, 2).reshape(3, 9), Q.transpose(2, 0, 1).reshape(3, 9)]
    return [x @ x.T for x in m]


def spectrum_gap(rho1, rho2):
    return float(np.max(np.abs(np.linalg.eigvalsh(rho1) - np.linalg.eigvalsh(rho2))))


def sign_cofactors_vanish(rho, tol=1e-9):
    """True when a x Xa and b x Yb both vanish, so every sgn: invariant does."""
    alpha, beta, _, _, _, _, Q = parts(coefficients(rho))
    X, Y, _ = grams(Q)
    return bool(np.linalg.norm(np.cross(alpha, X @ alpha)) <= tol
                and np.linalg.norm(np.cross(beta, Y @ beta)) <= tol)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def scaled_to_positive(c):
    """Scale the non-identity coefficients to POSITIVE_MARGIN of the largest
    factor that keeps the density matrix positive semidefinite."""
    traceless = c.copy()
    traceless[0, 0, 0] = 0.0
    low = np.linalg.eigvalsh(density(traceless) * 8.0)[0]
    out = traceless * (POSITIVE_MARGIN / -low)
    out[0, 0, 0] = 1.0
    return out


def canonical_q(rng, min_ratio=0.15, min_entry=0.02):
    """Random Q rotated into the frame where its three Gram matrices are
    diagonal with decreasing, well separated, nonzero spectra, and with
    every entry at least min_entry of the largest."""
    while True:
        q = rng.standard_normal((3, 3, 3))
        frames, specs = [], []
        for g in grams(q):
            w, v = np.linalg.eigh(g)
            frames.append(v[:, ::-1].T)
            specs.append(w[::-1])
        q = np.einsum("ia,jb,kc,abc->ijk", *frames, q)
        ok = all(s[2] > min_ratio * s[0] and min(s[0] - s[1], s[1] - s[2]) > min_ratio * s[0]
                 for s in specs)
        if ok and np.abs(q).min() >= min_entry * np.abs(q).max():
            return q


def bounded(rng, shape, lo=0.25, hi=1.0):
    """Entries of magnitude lo..hi with random signs."""
    return rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)


def zeroed_coefficients(rng, zero_slots):
    """Canonical-frame coefficients with the given zero slots ((vector, index)),
    scaled to a positive state.

    Every other component is bounded away from zero.  At the scale of a
    positive state, the recovery solvers zero any entry whose square is below
    an absolute floor and refuse systems by a scale-dependent determinant, so
    a normally distributed entry that happens to lie near zero fails on some
    seeds only (see CHANGES.md); such inputs cannot be kept in a workload
    whose failed share must repeat exactly.
    """
    vecs = {v: bounded(rng, 3) for v in "abg"}
    for vec, idx in zero_slots:
        vecs[vec][idx] = 0.0
    c = assemble(vecs["a"], vecs["b"], vecs["g"], bounded(rng, (3, 3)),
                 bounded(rng, (3, 3)), bounded(rng, (3, 3)), canonical_q(rng))
    return scaled_to_positive(c)


def example_coefficients(rng):
    """The package's example family with b = 0: alpha = (a, a, 0),
    beta = gamma = (a, a, c), Q = diag(a, 0, c); positive for these ranges."""
    a = rng.uniform(0.05, 0.1) * rng.choice([-1.0, 1.0])
    c = rng.uniform(0.15, 0.3) * rng.choice([-1.0, 1.0])
    Q = np.zeros((3, 3, 3))
    Q[0, 0, 0], Q[2, 2, 2] = a, c
    z = np.zeros((3, 3))
    return assemble([a, a, 0.0], [a, a, c], [a, a, c], z, z, z, Q)


def wishart(rng, rank):
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def _pure(amplitudes):
    v = np.zeros(8, dtype=complex)
    for idx, amp in amplitudes.items():
        v[idx] = amp
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def ghz():
    return _pure({0: 1.0, 7: 1.0})


def w_state():
    return _pure({1: 1.0, 2: 1.0, 4: 1.0})


def white_mix(rho, p):
    return p * rho + (1.0 - p) * np.eye(8) / 8.0


def product(rng):
    """Product of three mixed qubits with Bloch vectors of norm 0.3..0.9."""
    out = np.ones((1, 1), dtype=complex)
    for _ in range(3):
        n = rng.standard_normal(3)
        n *= rng.uniform(0.3, 0.9) / np.linalg.norm(n)
        out = np.kron(out, 0.5 * (PAULI[0] + np.einsum("i,iab->ab", n, PAULI[1:])))
    return out


# ---------------------------------------------------------------------------
# Cases: one operation of a workload and what its output must satisfy
# ---------------------------------------------------------------------------

@dataclass
class Case:
    """One operation.  kind is the orbit class the input was built in;
    rotated pairs compare a state with its own local conjugation, cross
    pairs compare states whose spectra differ."""

    kind: str
    label: str
    rho1: np.ndarray
    rho2: np.ndarray = None
    rotated: bool = True
    frames: np.ndarray = None      # reconstruct: det_one_frames of the built coefficients
    noisy: bool = False
    up_to_sign_ok: bool = False
    layouts: tuple = ("density", "density")   # cli-compare: JSON layout of each side
    paths: tuple = ()                          # cli-compare: the written JSON files
    in_process: str = None                     # cli-compare: verdict of equivalent()


class _Family:
    """A named state family: draw(rng) returns (rho, canonical coefficients);
    partner(rng), when given, draws the other side of a cross pair."""

    def __init__(self, kind, label, draw, partner=None):
        self.kind, self.label, self.draw = kind, label, draw
        self.partner = partner or (lambda rng: draw(rng)[0])


def _coeff_family(kind, label, make):
    def draw(rng):
        c = make(rng)
        return density(c), c
    return _Family(kind, label, draw)


def _rho_family(kind, label, make, partner=None):
    return _Family(kind, label, lambda rng: (make(rng), None), partner)


DIFF_SLOTS = ((("a", 2), ("b", 0)), (("a", 0), ("g", 1)), (("b", 1), ("g", 2)))
SAME_SLOTS = ((("a", 0), ("a", 2)), (("b", 0), ("b", 1)), (("g", 1), ("g", 2)))
OTHER_SLOTS = ((("a", 0), ("b", 1), ("g", 2)), (("a", 1), ("a", 2), ("b", 0)))


def _slots_label(slots):
    return ",".join(f"{v}{i + 1}" for v, i in slots)


def _zeroed(kind, slots):
    return _coeff_family(kind, f"{kind}:{_slots_label(slots)}",
                         lambda rng: zeroed_coefficients(rng, slots))


EXAMPLE = _coeff_family("single-zero", "example", example_coefficients)
SINGLE = [_zeroed("single-zero", ((v, i),)) for v, i in (("a", 1), ("b", 2), ("g", 0))]
DIFF = [_zeroed("two-zero-diff", s) for s in DIFF_SLOTS]
SAME = [_zeroed("two-zero-same", s) for s in SAME_SLOTS]
OTHER = [_zeroed("other", s) for s in OTHER_SLOTS]


def _ghz_mix(rng):
    return white_mix(ghz(), rng.uniform(0.3, 0.9))


# The fixed degenerate states are crossed with a white-noise mix, which keeps
# the orbit family but moves the spectrum.
DEGENERATE = [
    _rho_family("degenerate", "ghz", lambda rng: ghz(), _ghz_mix),
    _rho_family("degenerate", "w", lambda rng: w_state(),
                lambda rng: white_mix(w_state(), rng.uniform(0.3, 0.9))),
    _rho_family("degenerate", "product", product),
    _rho_family("degenerate", "identity", lambda rng: np.eye(8, dtype=complex) / 8.0, _ghz_mix),
    _rho_family("degenerate", "ghz-mix", _ghz_mix),
]


def _wishart_family(rank):
    """Rank-r Wishart states, crossed with rank 9 - r: pure states share one
    spectrum, so a cross partner of equal rank 1 could never qualify."""
    return _rho_family("generic", f"wishart-rank{rank}", lambda rng: wishart(rng, rank),
                       lambda rng: wishart(rng, 9 - rank))


def _partner(family, rho, rng):
    """A state of the same family whose spectrum differs from rho's."""
    while True:
        other = family.partner(rng)
        if spectrum_gap(rho, other) >= CROSS_SPECTRUM_GAP:
            return other


def pair_cases(rng, family, rotated):
    rho, _ = family.draw(rng)
    if rotated:
        other = conjugated(rho, local_unitary(rng))
        ok = family.kind.startswith("two-zero") and sign_cofactors_vanish(rho)
        return Case(family.kind, family.label, rho, other, True, up_to_sign_ok=ok)
    return Case(family.kind, family.label, rho, _partner(family, rho, rng), False)


NONGENERIC_FAMILIES = [EXAMPLE] * 3 + DIFF * 2 + SAME * 2 + OTHER + DEGENERATE


def nongeneric_pairs(seed):
    """Every non-generic family, each rotated once and crossed twice.

    A cross pair stops after the generic fingerprints and costs about a
    quarter of a rotated one.  With as many cross as rotated pairs the median
    fell in the gap between the two groups, and with more rotated pairs at
    the uneven low edge of the rotated group; either way it jumped between
    runs.  Two cross pairs per rotated one put it inside the cross group.
    """
    rng = np.random.default_rng([seed, 2])
    cases = []
    for fam in NONGENERIC_FAMILIES:
        cases.append(pair_cases(rng, fam, True))
        cases.append(pair_cases(rng, fam, False))
        cases.append(pair_cases(rng, fam, False))
    return cases


RECONSTRUCT_FAMILIES = SINGLE * 4 + DIFF * 4 + SAME * 4
NOISY_FAMILIES = [DIFF[0], SAME[0], DIFF[2], SAME[1]]


def _reconstruct_case(rng, family, noise=0.0):
    rho, c = family.draw(rng)
    if noise:
        c = c * (1.0 - noise)
        c[0, 0, 0] = 1.0
        rho = density(c)
    return Case(family.kind, family.label, conjugated(rho, local_unitary(rng)),
                frames=det_one_frames(c), noisy=bool(noise))


def reconstruct_cases(seed):
    """36 seeded single-zero and two-zero states plus the fixed noisy slice,
    interleaved so each stretch of ten holds one noisy state."""
    rng = np.random.default_rng([seed, 3])
    clean = [_reconstruct_case(rng, fam) for fam in RECONSTRUCT_FAMILIES]
    noisy_rng = np.random.default_rng(FIXED_SEED)
    noisy = [_reconstruct_case(noisy_rng, fam, NOISE_WEIGHT) for fam in NOISY_FAMILIES]
    cases = []
    for i, case in enumerate(noisy):
        cases.extend(clean[9 * i:9 * i + 9])
        cases.append(case)
    return cases


LAYOUTS = (("density", "density"), ("bloch", "bloch"), ("density", "bloch"), ("bloch", "density"))


def cli_cases(seed):
    """Ten pairs from the two pair workloads, cycling through the layouts."""
    rng = np.random.default_rng([seed, 4])
    gen = _wishart_family(8)
    picks = [(gen, True), (gen, False), (gen, True), (gen, False),
             (EXAMPLE, True), (DIFF[0], True), (SAME[1], True), (DEGENERATE[0], True),
             (EXAMPLE, False), (SAME[2], False)]
    cases = []
    for i, (fam, rotated) in enumerate(picks):
        case = pair_cases(rng, fam, rotated)
        case.layouts = LAYOUTS[i % len(LAYOUTS)]
        cases.append(case)
    return cases


BUILDERS = {
    "nongeneric-pairs": nongeneric_pairs,
    "reconstruct": reconstruct_cases,
    "cli-compare": cli_cases,
}


# ---------------------------------------------------------------------------
# JSON layouts accepted by the command line
# ---------------------------------------------------------------------------

def density_payload(rho):
    return {"dim": 8, "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}


def bloch_payload(rho):
    names = ("alpha", "beta", "gamma", "R", "S", "T", "Q")
    return {n: p.tolist() for n, p in zip(names, parts(coefficients(rho)))}


def payload(rho, layout):
    return density_payload(rho) if layout == "density" else bloch_payload(rho)
