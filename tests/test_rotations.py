"""SU(2) adjoint map, Haar sampling and the conjugation oracle."""

import itertools

import numpy as np
import pytest

from lu3q import (BlochTensor, LocalRotation, NotRotationError,
                  NotSpecialUnitaryError, act, adjoint, conjugate, decompose,
                  haar_su2, reconstruct)
from lu3q.pauli import PAULI
from conftest import physical_bloch, random_bloch, random_density

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_adjoint_of_identity():
    assert np.max(np.abs(adjoint(np.eye(2, dtype=complex)) - np.eye(3))) < 1e-14


def test_adjoint_of_z_rotation():
    # u = exp(-i pi/2 sz) = diag(-i, i) rotates x -> -x, y -> -y, z -> z
    u = np.diag([-1j, 1j])
    o = adjoint(u)
    assert np.max(np.abs(o - np.diag([-1.0, -1.0, 1.0]))) < 1e-14


def test_adjoint_convention_column_action(rng):
    """u sigma_i u+ = sum_j O_ji sigma_j, so Bloch vectors map v -> O v."""
    sig = [_SX, _SY, _SZ]
    for _ in range(20):
        u = haar_su2(rng)
        o = adjoint(u)
        for i in range(3):
            lhs = u @ sig[i] @ u.conj().T
            rhs = sum(o[j, i] * sig[j] for j in range(3))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_adjoint_is_homomorphism(rng):
    for _ in range(200):
        u, v = haar_su2(rng), haar_su2(rng)
        assert np.max(np.abs(adjoint(u @ v) - adjoint(u) @ adjoint(v))) < 1e-10


def test_adjoint_gives_proper_rotation(rng):
    for _ in range(50):
        o = adjoint(haar_su2(rng))
        assert np.max(np.abs(o @ o.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12


def test_adjoint_rejects_non_unitary():
    with pytest.raises(NotSpecialUnitaryError):
        adjoint(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_adjoint_rejects_wrong_shape():
    with pytest.raises(NotSpecialUnitaryError, match="2x2"):
        adjoint(np.eye(3))


def per_entry_adjoint(u):
    """adjoint with one einsum per entry: O[j, i] = (1/2) Re tr(s_j u s_i u+)."""
    udag = u.conj().T
    out = np.empty((3, 3))
    for i in range(3):
        rotated = u @ PAULI[i + 1] @ udag
        for j in range(3):
            out[j, i] = 0.5 * np.einsum("ab,ba->", PAULI[j + 1], rotated).real
    return out


def test_adjoint_bit_identical_to_per_entry_reference(rng):
    units = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
    units += [haar_su2(rng) for _ in range(2000)]
    for u in units:
        assert np.array_equal(adjoint(u), per_entry_adjoint(u)), u


def test_haar_su2_is_special_unitary(rng):
    for _ in range(100):
        u = haar_su2(rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_haar_su2_first_entry_moment(rng):
    # E |u_00|^2 = 1/2 for Haar-distributed SU(2)
    vals = [abs(haar_su2(rng)[0, 0]) ** 2 for _ in range(4000)]
    assert abs(np.mean(vals) - 0.5) < 0.03


def test_local_rotation_validates():
    with pytest.raises(NotRotationError):
        LocalRotation(np.eye(3) * 2, np.eye(3), np.eye(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotRotationError):
        LocalRotation(refl, np.eye(3), np.eye(3))


def test_compose_matches_sequential_action(rng):
    b = physical_bloch(rng)
    g1, g2 = LocalRotation.random(rng), LocalRotation.random(rng)
    once = act(b, g1.compose(g2))
    twice = act(act(b, g2), g1)
    assert np.max(np.abs(once.components() - twice.components())) < 1e-12


def test_action_matches_conjugation_oracle(rng):
    """decompose(U rho U+) equals act(decompose(rho)) for local unitaries."""
    for _ in range(200):
        rho = random_density(rng)
        u1, u2, u3 = haar_su2(rng), haar_su2(rng), haar_su2(rng)
        left = decompose(conjugate(rho, u1, u2, u3))
        right = act(decompose(rho), LocalRotation.from_su2(u1, u2, u3))
        assert np.max(np.abs(left.components() - right.components())) < 1e-10


def test_action_preserves_density_reconstruction(rng):
    rho = random_density(rng)
    b = decompose(rho)
    u1, u2, u3 = haar_su2(rng), haar_su2(rng), haar_su2(rng)
    rho_rot = reconstruct(act(b, LocalRotation.from_su2(u1, u2, u3)))
    assert np.max(np.abs(rho_rot - conjugate(rho, u1, u2, u3))) < 1e-12


def test_identity_rotation_is_neutral(rng):
    b = physical_bloch(rng)
    same = act(b, LocalRotation.identity())
    assert np.max(np.abs(same.components() - b.components())) == 0.0


def test_permute_commutes_with_act(rng):
    b = random_bloch(rng)
    rot = LocalRotation.random(rng)
    mats = (rot.L, rot.M, rot.N)
    for perm in itertools.permutations(range(3)):
        relabeled = LocalRotation(*(mats[p] for p in perm))
        lhs = act(b, rot).permute(perm)
        rhs = act(b.permute(perm), relabeled)
        assert np.max(np.abs(lhs.components() - rhs.components())) < 1e-12
