"""Pauli-basis representation of three-qubit density matrices.

Conventions used throughout the package:

  rho = (1/8) ( I*I*I
              + alpha_i  s_i*I*I + beta_i  I*s_i*I + gamma_i I*I*s_i
              + R_ij s_i*s_j*I + S_ij s_i*I*s_j + T_ij I*s_i*s_j
              + Q_ijk s_i*s_j*s_k )

with * the tensor product, s_1 = sigma_x, s_2 = sigma_y, s_3 = sigma_z and
implicit sums over 1..3.  Qubit 1 is the leftmost tensor factor, so basis
state |q1 q2 q3> has index 4*q1 + 2*q2 + q3.  Every coefficient equals the
expectation value tr(rho * P) of the corresponding Pauli string P.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NotHermitianError, TraceNotOneError

__all__ = [
    "PAULI",
    "BlochTensor",
    "pauli_string",
    "component_key",
    "decompose",
    "reconstruct",
    "validate_density",
    "density_to_dict",
    "density_from_dict",
    "bloch_to_dict",
    "bloch_from_dict",
]

HERMITICITY_TOL = 1e-10

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# All 64 Pauli strings, indexed [i, j, k, :, :] with i, j, k in 0..3.
_STRINGS = np.zeros((4, 4, 4, 8, 8), dtype=complex)
for _i in range(4):
    for _j in range(4):
        for _k in range(4):
            _STRINGS[_i, _j, _k] = np.kron(np.kron(PAULI[_i], PAULI[_j]), PAULI[_k])


def pauli_string(i, j, k):
    """Return the 8x8 matrix s_i * s_j * s_k, indices 0..3 with 0 = identity."""
    for idx in (i, j, k):
        if idx not in (0, 1, 2, 3):
            raise ValueError(f"Pauli index must be 0..3, got {idx}")
    return _STRINGS[i, j, k].copy()


def _as_matrix(rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise FormatError(f"expected an 8x8 matrix, got shape {rho.shape}")
    return rho


def _finite(arr, what):
    """arr, or FormatError if it holds a NaN or an infinity (also from an overflow)."""
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{what} must be finite numbers (NaN or infinity found)")
    return arr


def validate_density(rho, tol=HERMITICITY_TOL):
    """Check finiteness, Hermiticity and unit trace of an 8x8 matrix.

    Raises FormatError for a NaN or infinite entry, NotHermitianError or
    TraceNotOneError with the measured deviation.  Positivity is
    deliberately not enforced here; use states.min_eigenvalue to report it.
    Returns the validated complex array.
    """
    rho = _finite(_as_matrix(rho), "density matrix entries")
    herm_dev = np.abs(rho - rho.conj().T).max()
    if herm_dev > tol:
        raise NotHermitianError(f"Hermiticity deviation {herm_dev:.3e} exceeds {tol:.1e}")
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > tol:
        raise TraceNotOneError(f"trace deviates from 1 by {trace_dev:.3e} (tol {tol:.1e})")
    return rho


@dataclass(frozen=True)
class BlochTensor:
    """Real coefficients (alpha, beta, gamma, R, S, T, Q) of a three-qubit state.

    Arrays are stored read-only; build modified copies with dataclasses.replace.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    R: np.ndarray
    S: np.ndarray
    T: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        shapes = {"alpha": (3,), "beta": (3,), "gamma": (3,),
                  "R": (3, 3), "S": (3, 3), "T": (3, 3), "Q": (3, 3, 3)}
        for name, shape in shapes.items():
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def zero(cls):
        return cls(np.zeros(3), np.zeros(3), np.zeros(3),
                   np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)),
                   np.zeros((3, 3, 3)))

    def components(self):
        """Flatten to the 63-vector (alpha, beta, gamma, R, S, T, Q), row-major."""
        return np.concatenate([
            self.alpha, self.beta, self.gamma,
            self.R.ravel(), self.S.ravel(), self.T.ravel(), self.Q.ravel(),
        ])

    @classmethod
    def from_components(cls, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (63,):
            raise ValueError(f"expected 63 components, got shape {vec.shape}")
        return cls(vec[0:3], vec[3:6], vec[6:9],
                   vec[9:18].reshape(3, 3), vec[18:27].reshape(3, 3),
                   vec[27:36].reshape(3, 3), vec[36:63].reshape(3, 3, 3))

    def allclose(self, other, atol=1e-12):
        return bool(np.allclose(self.components(), other.components(), atol=atol, rtol=0.0))

    def permute(self, perm):
        """Relabel the qubits: qubit i of the result is qubit perm[i] of self.

        The coupling of new qubits i and j is the old coupling of perm[i] and
        perm[j], transposed when perm[i] > perm[j], and Q becomes
        Q.transpose(perm).  The density matrix has its tensor factors
        reordered the same way.
        """
        perm = tuple(perm)
        if sorted(perm) != [0, 1, 2]:
            raise ValueError(f"perm must be a permutation of (0, 1, 2), got {perm}")
        # a C-ordered copy, so that sums over the new arrays run in the usual order
        return _from_coefficients(np.ascontiguousarray(_coefficients(self).transpose(perm)))


def _coefficients(b):
    """The 4x4x4 array of all 64 Pauli coefficients, [0, 0, 0] = 1."""
    vals = np.zeros((4, 4, 4))
    vals[0, 0, 0] = 1.0
    vals[1:, 0, 0] = b.alpha
    vals[0, 1:, 0] = b.beta
    vals[0, 0, 1:] = b.gamma
    vals[1:, 1:, 0] = b.R
    vals[1:, 0, 1:] = b.S
    vals[0, 1:, 1:] = b.T
    vals[1:, 1:, 1:] = b.Q
    return vals


def _from_coefficients(vals):
    """BlochTensor of a 4x4x4 Pauli coefficient array (inverse of _coefficients)."""
    return BlochTensor(
        alpha=vals[1:, 0, 0],
        beta=vals[0, 1:, 0],
        gamma=vals[0, 0, 1:],
        R=vals[1:, 1:, 0],
        S=vals[1:, 0, 1:],
        T=vals[0, 1:, 1:],
        Q=vals[1:, 1:, 1:],
    )


_KEY_MATRIX = {(1, 1, 0): "R", (1, 0, 1): "S", (0, 1, 1): "T", (1, 1, 1): "Q"}


@functools.cache   # reconstruction asks for the same few dozen keys on every call
def component_key(idx):
    """Key such as "R[2,3]" or "Q[:,2,:]" for the coefficient of Pauli index (i, j, k).

    0 is the identity on that qubit, 1..3 select s_1..s_3, and ":" stands
    for all three.  Only coupling and Q coefficients have keys.
    """
    support = tuple(int(i != 0) for i in idx)
    if support not in _KEY_MATRIX:
        raise ValueError(f"no component key for Pauli index {tuple(idx)}")
    return _KEY_MATRIX[support] + "[" + ",".join(str(i) for i in idx if i != 0) + "]"


def decompose(rho, tol=HERMITICITY_TOL):
    """Expand a validated density matrix in the Pauli basis.

    Returns the BlochTensor of all 63 non-identity coefficients.  The map is
    linear in rho; decompose(reconstruct(b)) == b up to rounding.
    """
    rho = validate_density(rho, tol)
    return _from_coefficients(np.einsum("ijkab,ba->ijk", _STRINGS, rho).real)


def reconstruct(b):
    """Assemble the 8x8 matrix from Pauli coefficients (inverse of decompose)."""
    return np.einsum("ijk,ijkab->ab", _coefficients(b), _STRINGS) / 8.0


# ---------------------------------------------------------------------------
# JSON-facing dict codecs.  Complex entries are [re, im] pairs, row-major.
# ---------------------------------------------------------------------------

def density_to_dict(rho):
    rho = _as_matrix(rho)
    matrix = [[[float(rho[r, c].real), float(rho[r, c].imag)] for c in range(8)]
              for r in range(8)]
    return {"dim": 8, "matrix": matrix}


def density_from_dict(data):
    if not isinstance(data, dict) or "matrix" not in data:
        raise FormatError('density payload must be an object with a "matrix" key')
    if data.get("dim") != 8:
        raise FormatError(f'expected "dim": 8, got {data.get("dim")!r}')
    arr = np.asarray(data["matrix"], dtype=float)
    if arr.shape != (8, 8, 2):
        raise FormatError(f"matrix must be 8x8 with [re, im] entries, got shape {arr.shape}")
    return _finite(arr[..., 0] + 1j * arr[..., 1], "density matrix entries")


def bloch_to_dict(b):
    return {
        "alpha": b.alpha.tolist(),
        "beta": b.beta.tolist(),
        "gamma": b.gamma.tolist(),
        "R": b.R.tolist(),
        "S": b.S.tolist(),
        "T": b.T.tolist(),
        "Q": b.Q.tolist(),
    }


def bloch_from_dict(data):
    if not isinstance(data, dict) or "alpha" not in data:
        raise FormatError('coefficient payload must be an object with an "alpha" key')
    try:
        b = BlochTensor(
            alpha=np.asarray(data["alpha"], dtype=float),
            beta=np.asarray(data["beta"], dtype=float),
            gamma=np.asarray(data["gamma"], dtype=float),
            R=np.asarray(data["R"], dtype=float),
            S=np.asarray(data["S"], dtype=float),
            T=np.asarray(data["T"], dtype=float),
            Q=np.asarray(data["Q"], dtype=float),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad coefficient payload: {exc}") from exc
    _finite(b.components(), "coefficients")
    return b
