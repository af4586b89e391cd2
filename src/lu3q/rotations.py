"""Local unitary action: SU(2) elements, their SO(3) images and the tensor action.

The adjoint rotation O of u in SU(2) is fixed by  u s_i u+ = sum_j O_ji s_j.
With that convention a conjugation rho -> (u1*u2*u3) rho (u1*u2*u3)+ acts on
the coefficients as

  alpha -> L alpha,  beta -> M beta,  gamma -> N gamma,
  R -> L R M^T,  S -> L S N^T,  T -> M T N^T,
  Q_ijk -> L_ia M_jb N_kc Q_abc,

where L, M, N are the adjoints of u1, u2, u3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRotationError, NotSpecialUnitaryError
from .pauli import PAULI, BlochTensor, validate_density

__all__ = ["adjoint", "haar_su2", "LocalRotation", "act", "conjugate"]

UNITARITY_TOL = 1e-10


def _check_special(mat, size, dtype, error, word):
    """mat as a size x size array of dtype, checked to be unitary (orthogonal when real)
    with determinant 1; word names the unitarity check in the error."""
    mat = np.asarray(mat, dtype=dtype)
    if mat.shape != (size, size):
        raise error(f"expected a {size}x{size} matrix, got shape {mat.shape}")
    dev = np.abs(mat.conj().T @ mat - np.eye(size)).max()
    if dev > UNITARITY_TOL:
        raise error(f"{word} deviation {dev:.3e} exceeds {UNITARITY_TOL:.1e}")
    det_dev = abs(np.linalg.det(mat) - 1.0)
    if det_dev > UNITARITY_TOL:
        raise error(f"determinant deviates from 1 by {det_dev:.3e}")
    return mat


def adjoint(u):
    """SO(3) image of u in SU(2), O[j, i] = (1/2) Re tr(s_j u s_i u+).

    Satisfies adjoint(u @ v) = adjoint(u) @ adjoint(v) and adjoint(-u) = adjoint(u).
    """
    u = _check_special(u, 2, complex, NotSpecialUnitaryError, "unitarity")
    return 0.5 * np.einsum("jab,iba->ji", PAULI[1:], u @ PAULI[1:] @ u.conj().T).real


def haar_su2(rng):
    """Haar-random SU(2) element.

    (a, b) uniform on the unit 3-sphere gives u = [[a, b], [-conj(b), conj(a)]].
    """
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    a = v[0] + 1j * v[1]
    b = v[2] + 1j * v[3]
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


@dataclass(frozen=True)
class LocalRotation:
    """Triple of proper rotations (L, M, N) acting on qubits 1, 2, 3."""

    L: np.ndarray
    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        for name in ("L", "M", "N"):
            mat = _check_special(getattr(self, name), 3, float, NotRotationError,
                                 "orthogonality")
            mat = mat.copy()
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.eye(3), np.eye(3))

    @classmethod
    def from_su2(cls, u1, u2, u3):
        return cls(adjoint(u1), adjoint(u2), adjoint(u3))

    @classmethod
    def random(cls, rng):
        return cls.from_su2(haar_su2(rng), haar_su2(rng), haar_su2(rng))

    def compose(self, other):
        """Rotation applying other first, then self."""
        return LocalRotation(self.L @ other.L, self.M @ other.M, self.N @ other.N)


def act(b, g):
    """Apply the local rotation triple g to a coefficient tensor."""
    L, M, N = g.L, g.M, g.N
    return BlochTensor(
        alpha=L @ b.alpha,
        beta=M @ b.beta,
        gamma=N @ b.gamma,
        R=L @ b.R @ M.T,
        S=L @ b.S @ N.T,
        T=M @ b.T @ N.T,
        Q=np.einsum("ia,jb,kc,abc->ijk", L, M, N, b.Q),
    )


def conjugate(rho, u1, u2, u3):
    """Conjugate a density matrix by u1 x u2 x u3 (the oracle for act)."""
    rho = validate_density(rho)
    for u in (u1, u2, u3):
        _check_special(u, 2, complex, NotSpecialUnitaryError, "unitarity")
    big = np.kron(np.kron(u1, u2), u3)
    return big @ rho @ big.conj().T
