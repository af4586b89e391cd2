"""Reference states: the explicit example family, GHZ/W, products, random mixed states."""

from __future__ import annotations

import numpy as np

from .pauli import PAULI, _hermitian

__all__ = [
    "example_state",
    "ghz_state",
    "w_state",
    "product_state",
    "random_mixed",
    "min_eigenvalue",
]

BLOCH_NORM_TOL = 1e-12   # how far past 1 a product-state Bloch vector may reach


def example_state(a, b, c):
    """Three-parameter family of 8x8 density matrices, written out entrywise.

    Its Pauli coefficients are alpha = (a, a, 0), beta = gamma = (a, a, c),
    R = S = T = 0 and Q diagonal with Q_111 = a, Q_222 = b, Q_333 = c.  The
    matrix is positive definite for a = +-0.1, b = 0 and |c| <= 0.3, and the
    states (a, b, c) and (-a, b, c) lie on the same local-unitary orbit.
    """
    x = 1.0 - 1.0j
    xb = 1.0 + 1.0j
    ax, axb = a * x, a * xb
    apb, amb = a + 1j * b, a - 1j * b
    mat = np.array([
        [1 + 3 * c, ax, ax, 0, ax, 0, 0, apb],
        [axb, 1 - c, 0, ax, 0, ax, amb, 0],
        [axb, 0, 1 - c, ax, 0, amb, ax, 0],
        [0, axb, axb, 1 - c, apb, 0, 0, ax],
        [axb, 0, 0, amb, 1 + c, ax, ax, 0],
        [0, axb, apb, 0, axb, 1 + c, 0, ax],
        [0, apb, axb, 0, axb, 0, 1 + c, ax],
        [amb, 0, 0, axb, 0, axb, axb, 1 - 3 * c],
    ], dtype=complex)
    return mat / 8.0


def ghz_state():
    """(|000> + |111>)/sqrt(2) as a density matrix."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def w_state():
    """(|001> + |010> + |100>)/sqrt(3) as a density matrix."""
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1.0 / np.sqrt(3.0)
    return np.outer(v, v.conj())


def product_state(n1, n2, n3):
    """Product of three single-qubit states with Bloch vectors n1, n2, n3.

    Each vector may have norm < 1 (mixed marginals); norm > 1 is rejected.
    """
    factors = []
    for n in (n1, n2, n3):
        n = np.asarray(n, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"Bloch vector must have 3 components, got shape {n.shape}")
        if np.linalg.norm(n) > 1.0 + BLOCH_NORM_TOL:
            raise ValueError(f"Bloch vector norm {np.linalg.norm(n):.6f} exceeds 1")
        factors.append(0.5 * sum((x * s for x, s in zip(n, PAULI[1:])), PAULI[0]))
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


def random_mixed(rng, rank=8):
    """Random mixed state of the given rank: normalized Wishart G G+ / tr."""
    if not 1 <= rank <= 8:
        raise ValueError(f"rank must be 1..8, got {rank}")
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def min_eigenvalue(rho):
    """Smallest eigenvalue of a Hermitian 8x8 matrix (positivity report)."""
    return float(np.linalg.eigvalsh(_hermitian(rho)).min())
