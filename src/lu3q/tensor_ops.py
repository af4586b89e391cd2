"""Flattenings, Gram matrices and small determinant helpers for the 3x3x3 tensor Q.

Flattening layouts (1-indexed in the math, 0-indexed in code):

  axis 1:  M[i, 3(j-1)+k] = Q_ijk
  axis 2:  M[j, 3(i-1)+k] = Q_ijk
  axis 3:  M[k, 3(i-1)+j] = Q_ijk

That is, the chosen axis is moved to the front and the other two keep their
order, the first remaining index slowest, which matches the column ordering
of np.kron for the paired transformation laws.  flatten, refold and gram
read these axis orders from one table, _ORDER.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["flatten", "refold", "gram", "triple", "triple_cofactor"]

# _ORDER[axis - 1]: the axes of Q in the order the flattening along axis lays them out,
# counted 1..3 after the batch axis 0 of a (N, 3, 3, 3) stack
_ORDER = ((1, 2, 3), (2, 1, 3), (3, 1, 2))


def _check_axis(axis):
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")


def flatten(Q, axis):
    """3x9 flattening of Q along the given axis (1, 2 or 3); leading axes are batch axes."""
    _check_axis(axis)
    Q = np.asarray(Q, dtype=float)
    if Q.shape[-3:] != (3, 3, 3):
        raise ValueError(f"Q must be 3x3x3, got {Q.shape}")
    return Q.reshape(-1, 3, 3, 3).transpose(0, *_ORDER[axis - 1]).reshape(Q.shape[:-3] + (3, 9))


def refold(mat, axis):
    """Inverse of flatten: rebuild the 3x3x3 tensor from a 3x9 matrix."""
    _check_axis(axis)
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 9):
        raise ValueError(f"flattening must be 3x9, got {mat.shape}")
    return mat.reshape(3, 3, 3).transpose(np.argsort(_ORDER[axis - 1]))


class GramTriple(NamedTuple):
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray


def gram(Q):
    """Gram matrices of the three flattenings: X_ii' = sum_jk Q_ijk Q_i'jk etc.

    All three are symmetric positive semidefinite and share their trace.  Leading axes
    of Q are batch axes (a pair in equivalent), each stacked Gram with the bits of one.
    """
    flats = (flatten(Q, axis) for axis in (1, 2, 3))
    return GramTriple(*(m @ m.swapaxes(-1, -2) for m in flats))


def triple(a, b, c):
    """Scalar triple product (a, b, c) = det [a b c], columns.

    Written as the cofactor expansion along the third column so every triple
    product in the package goes through one code path.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.dot(triple_cofactor(a, b), np.asarray(c, dtype=float)))


def triple_cofactor(a, b):
    """Cofactors of the third column of [a b c]: triple(a, b, c) = cof . c.
    Vectors lie along the last axis; leading axes are batch axes."""
    a, b = np.asarray(a), np.asarray(b)
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]

