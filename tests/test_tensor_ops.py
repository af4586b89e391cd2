"""Flattening layouts, Gram matrices and triple products against loop oracles."""

import numpy as np
import pytest

from lu3q import LocalRotation, flatten, gram, refold, triple, triple_cofactor


def oracle_flatten(q, axis):
    """Explicit-loop flattening with the documented column layouts."""
    out = np.zeros((3, 9))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if axis == 1:
                    out[i, 3 * j + k] = q[i, j, k]
                elif axis == 2:
                    out[j, 3 * i + k] = q[i, j, k]
                else:
                    out[k, 3 * i + j] = q[i, j, k]
    return out


def test_flatten_matches_loop_oracle(rng):
    for _ in range(10):
        q = rng.normal(size=(3, 3, 3))
        for axis in (1, 2, 3):
            assert np.array_equal(flatten(q, axis), oracle_flatten(q, axis))


def test_refold_is_exact_inverse(rng):
    q = rng.normal(size=(3, 3, 3))
    for axis in (1, 2, 3):
        assert np.array_equal(refold(flatten(q, axis), axis), q)


def test_flatten_rejects_bad_axis(rng):
    q = rng.normal(size=(3, 3, 3))
    with pytest.raises(ValueError):
        flatten(q, 0)
    with pytest.raises(ValueError):
        flatten(q, 4)


def test_gram_and_refold_reject_wrong_shapes():
    with pytest.raises(ValueError, match="3x3x3"):
        gram(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="3x9"):
        refold(np.zeros((3, 8)), 1)


def test_gram_matrices_match_flattenings(rng):
    """gram is bit for bit the product of each flattening with its transpose,
    and a stack of tensors gives each one's Grams bit for bit."""
    for _ in range(200):
        q = rng.normal(size=(3, 3, 3))
        g = gram(q)
        for mat, axis in ((g.X, 1), (g.Y, 2), (g.Z, 3)):
            f = flatten(q, axis)
            assert np.array_equal(mat, f @ f.T)
        q2 = rng.normal(size=(3, 3, 3))
        for stacked, one, two in zip(gram(np.stack([q, q2])), g, gram(q2)):
            assert stacked.tobytes() == np.stack([one, two]).tobytes()
        assert abs(np.trace(g.X) - np.trace(g.Y)) < 1e-12
        assert abs(np.trace(g.X) - np.trace(g.Z)) < 1e-12
    with pytest.raises(ValueError):
        gram(np.zeros((3, 9)))


def test_flattening_covariance_under_rotations(rng):
    """Rotating the tensor maps each flattening by L . (M x N)^T and cyclic."""
    for _ in range(25):
        q = rng.normal(size=(3, 3, 3))
        rot = LocalRotation.random(rng)
        L, M, N = rot.L, rot.M, rot.N
        q_rot = np.einsum("ia,jb,kc,abc->ijk", L, M, N, q)
        assert np.max(np.abs(flatten(q_rot, 1) - L @ flatten(q, 1) @ np.kron(M, N).T)) < 1e-12
        assert np.max(np.abs(flatten(q_rot, 2) - M @ flatten(q, 2) @ np.kron(L, N).T)) < 1e-12
        assert np.max(np.abs(flatten(q_rot, 3) - N @ flatten(q, 3) @ np.kron(L, M).T)) < 1e-12


def test_gram_covariance_under_rotations(rng):
    for _ in range(10):
        q = rng.normal(size=(3, 3, 3))
        rot = LocalRotation.random(rng)
        q_rot = np.einsum("ia,jb,kc,abc->ijk", rot.L, rot.M, rot.N, q)
        g, gr = gram(q), gram(q_rot)
        assert np.max(np.abs(gr.X - rot.L @ g.X @ rot.L.T)) < 1e-12
        assert np.max(np.abs(gr.Y - rot.M @ g.Y @ rot.M.T)) < 1e-12
        assert np.max(np.abs(gr.Z - rot.N @ g.Z @ rot.N.T)) < 1e-12


def test_triple_product_equals_determinant(rng):
    for _ in range(10):
        a, b, c = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        det = np.linalg.det(np.column_stack([a, b, c]))
        assert abs(triple(a, b, c) - det) < 1e-12


def test_triple_cofactor_is_cross_product(rng):
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert np.max(np.abs(triple_cofactor(a, b) - np.cross(a, b))) < 1e-13
