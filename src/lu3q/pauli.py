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

One table, _LAYOUT, places each BlochTensor field in the 4x4x4 Pauli
coefficient array; every function that lists the fields reads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NotHermitianError, TraceNotOneError

__all__ = [
    "BlochTensor",
    "pauli_string",
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

# Each BlochTensor field, in field order (also that of the 63-vector and of the JSON
# keys), and its block of the 4x4x4 coefficient array: 0 on an axis is the identity.
_LAYOUT = {
    "alpha": np.s_[1:, 0, 0],
    "beta": np.s_[0, 1:, 0],
    "gamma": np.s_[0, 0, 1:],
    "R": np.s_[1:, 1:, 0],
    "S": np.s_[1:, 0, 1:],
    "T": np.s_[0, 1:, 1:],
    "Q": np.s_[1:, 1:, 1:],
}
_SHAPES = {name: np.empty((4, 4, 4))[block].shape for name, block in _LAYOUT.items()}
_ENDS = np.cumsum([np.prod(shape) for shape in _SHAPES.values()]).tolist()
_SPANS = [(slice(s, e), shape) for s, e, shape in zip([0] + _ENDS, _ENDS, _SHAPES.values())]

# All 64 Pauli strings, indexed [i, j, k, :, :] with i, j, k in 0..3.  np.kron of
# stacks works blockwise on every axis, so [i, j, k] is kron(kron(s_i, s_j), s_k).
_STRINGS = np.kron(np.kron(PAULI[:, None, None], PAULI[None, :, None]), PAULI[None, None, :])


def pauli_string(i, j, k):
    """Return the 8x8 matrix s_i * s_j * s_k, indices 0..3 with 0 = identity.

    ValueError unless each index is an integer 0..3; a bool, which numpy reads as a mask, is not."""
    for idx in (i, j, k):
        if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)) or not 0 <= idx <= 3:
            raise ValueError(f"Pauli index must be an integer 0..3, got {idx!r}")
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


def _hermitian(rho):
    """rho as a complex 8x8 array; FormatError unless finite, NotHermitianError unless Hermitian."""
    rho = _finite(_as_matrix(rho), "density matrix entries")
    herm_dev = np.abs(rho - rho.conj().T).max()
    if herm_dev > HERMITICITY_TOL:
        raise NotHermitianError(
            f"Hermiticity deviation {herm_dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return rho


def validate_density(rho):
    """Check finiteness, Hermiticity and unit trace of an 8x8 matrix.

    Raises FormatError for a NaN or infinite entry, NotHermitianError or
    TraceNotOneError with the measured deviation.  Positivity is
    deliberately not enforced here; use states.min_eigenvalue to report it.
    Returns the validated complex array.
    """
    rho = _hermitian(rho)
    trace_dev = abs(rho.trace() - 1.0)
    if trace_dev > HERMITICITY_TOL:
        raise TraceNotOneError(
            f"trace deviates from 1 by {trace_dev:.3e} (tol {HERMITICITY_TOL:.1e})")
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
        for name, shape in _SHAPES.items():
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def components(self):
        """Flatten to the 63-vector (alpha, beta, gamma, R, S, T, Q), row-major."""
        return np.concatenate([getattr(self, name).ravel() for name in _LAYOUT])

    @classmethod
    def from_components(cls, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (63,):
            raise ValueError(f"expected 63 components, got shape {vec.shape}")
        return cls(*[vec[span].reshape(shape) for span, shape in _SPANS])

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
    for name, block in _LAYOUT.items():
        vals[block] = getattr(b, name)
    return vals


def _from_coefficients(vals):
    """BlochTensor of a 4x4x4 Pauli coefficient array (inverse of _coefficients)."""
    return BlochTensor(*[vals[block] for block in _LAYOUT.values()])


_KEY_MATRIX = {tuple(int(ix != 0) for ix in block): name
               for name, block in _LAYOUT.items() if len(_SHAPES[name]) > 1}


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


def decompose(rho):
    """Expand a validated density matrix in the Pauli basis.

    Returns the BlochTensor of all 63 non-identity coefficients.  The map is
    linear in rho; decompose(reconstruct(b)) == b up to rounding.
    """
    return _expand(validate_density(rho))


def _expand(rho):
    """decompose without the checks, for a complex 8x8 array already known good."""
    return _from_coefficients(np.einsum("ijkab,ba->ijk", _STRINGS, rho).real)


def reconstruct(b):
    """Assemble the 8x8 matrix from Pauli coefficients (inverse of decompose)."""
    return np.einsum("ijk,ijkab->ab", _coefficients(b), _STRINGS) / 8.0


# ---------------------------------------------------------------------------
# JSON-facing dict codecs.  Complex entries are [re, im] pairs, row-major.
# ---------------------------------------------------------------------------

def density_to_dict(rho):
    rho = _as_matrix(rho)
    return {"dim": 8, "matrix": np.stack((rho.real, rho.imag), axis=-1).tolist()}


def density_from_dict(data):
    if not isinstance(data, dict) or "matrix" not in data:
        raise FormatError('density payload must be an object with a "matrix" key')
    if data.get("dim") != 8:
        raise FormatError(f'expected "dim": 8, got {data.get("dim")!r}')
    try:
        arr = np.asarray(data["matrix"], dtype=float)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"matrix entries must be numbers in an 8x8x2 array: {exc}") from exc
    if arr.shape != (8, 8, 2):
        raise FormatError(f"matrix must be 8x8 with [re, im] entries, got shape {arr.shape}")
    return _finite(arr[..., 0] + 1j * arr[..., 1], "density matrix entries")


def bloch_to_dict(b):
    return {name: getattr(b, name).tolist() for name in _LAYOUT}


def bloch_from_dict(data):
    if not isinstance(data, dict) or "alpha" not in data:
        raise FormatError('coefficient payload must be an object with an "alpha" key')
    try:
        b = BlochTensor(*[np.asarray(data[name], dtype=float) for name in _LAYOUT])
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad coefficient payload: {exc}") from exc
    _finite(b.components(), "coefficients")
    return b
