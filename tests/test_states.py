"""Reference states: the example family, standard pure states, random mixed."""

import numpy as np
import pytest

from lu3q import (BlochTensor, FormatError, NotHermitianError, decompose,
                  example_state, ghz_state, min_eigenvalue, product_state,
                  random_mixed, reconstruct, w_state)


def family_tensor(a, b, c):
    """The Bloch tensor the example family is built from."""
    q = np.zeros((3, 3, 3))
    q[0, 0, 0], q[1, 1, 1], q[2, 2, 2] = a, b, c
    return BlochTensor(
        alpha=np.array([a, a, 0.0]),
        beta=np.array([a, a, c]),
        gamma=np.array([a, a, c]),
        R=np.zeros((3, 3)), S=np.zeros((3, 3)), T=np.zeros((3, 3)), Q=q,
    )


def test_example_state_equals_tensor_route(rng):
    for _ in range(20):
        a, b, c = rng.uniform(-0.3, 0.3, 3)
        direct = example_state(a, b, c)
        via_tensor = reconstruct(family_tensor(a, b, c))
        assert np.max(np.abs(direct - via_tensor)) < 1e-14


def test_example_state_entries():
    a, b, c = 0.1, 0.0, 0.2
    rho = example_state(a, b, c)
    assert abs(rho[0, 0] - (1 + 3 * c) / 8) < 1e-15
    assert abs(rho[0, 7] - (a + 1j * b) / 8) < 1e-15
    x = 1 - 1j
    assert abs(rho[0, 1] - a * x / 8) < 1e-15
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
    assert abs(np.trace(rho) - 1.0) < 1e-15


def test_example_state_zero_params_is_maximally_mixed():
    assert np.max(np.abs(example_state(0, 0, 0) - np.eye(8) / 8)) == 0.0


def test_example_state_decomposes_to_stated_slots(rng):
    for _ in range(20):
        a, b, c = rng.uniform(-0.25, 0.25, 3)
        t = decompose(example_state(a, b, c))
        assert np.max(np.abs(t.alpha - [a, a, 0])) < 1e-14
        assert np.max(np.abs(t.beta - [a, a, c])) < 1e-14
        assert np.max(np.abs(t.gamma - [a, a, c])) < 1e-14
        assert np.max(np.abs(t.R)) < 1e-14
        assert np.max(np.abs(t.S)) < 1e-14
        assert np.max(np.abs(t.T)) < 1e-14
        q = np.zeros((3, 3, 3))
        q[0, 0, 0], q[1, 1, 1], q[2, 2, 2] = a, b, c
        assert np.max(np.abs(t.Q - q)) < 1e-14


def test_example_family_affine_sign_map(rng):
    a, b, c = rng.uniform(-0.2, 0.2, 3)
    flipped = example_state(-a, -b, c)
    # flipping (a, b) conjugates every a- or b-linear entry
    direct = example_state(a, b, c)
    diff = flipped + direct
    assert np.max(np.abs(np.diag(diff) - np.diag(direct) * 2)) < 1e-14


def test_min_eigenvalue_reference_values():
    assert abs(min_eigenvalue(np.eye(8, dtype=complex) / 8) - 0.125) < 1e-15
    assert min_eigenvalue(ghz_state()) > -1e-14
    assert min_eigenvalue(example_state(0.5, 0, 0)) < -1e-3


def test_min_eigenvalue_rejects_non_hermitian():
    bad = np.eye(8, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        min_eigenvalue(bad)
    with pytest.raises(FormatError):
        min_eigenvalue(np.eye(4, dtype=complex) / 4)
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(FormatError):
        min_eigenvalue(bad)


def test_ghz_and_w_are_pure_states():
    for rho in (ghz_state(), w_state()):
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.max(np.abs(rho @ rho - rho)) < 1e-13


def test_product_state_of_z_vectors():
    rho = product_state((0, 0, 1), (0, 0, 1), (0, 0, 1))
    expect = np.zeros((8, 8), dtype=complex)
    expect[0, 0] = 1.0
    assert np.max(np.abs(rho - expect)) < 1e-14


def test_product_state_rejects_long_vectors():
    with pytest.raises(ValueError):
        product_state((0, 0, 2), (0, 0, 1), (0, 0, 1))


def test_product_state_rejects_short_vectors():
    with pytest.raises(ValueError, match="3 components"):
        product_state((0, 1), (0, 0, 1), (0, 0, 1))


def test_random_mixed_contract(rng):
    rho = random_mixed(np.random.default_rng(7), rank=8)
    again = random_mixed(np.random.default_rng(7), rank=8)
    assert np.array_equal(rho, again)
    assert abs(np.trace(rho).real - 1.0) < 1e-13
    assert min_eigenvalue(rho) > 0
    low = random_mixed(rng, rank=3)
    assert np.linalg.matrix_rank(low, tol=1e-10) == 3
    with pytest.raises(ValueError):
        random_mixed(rng, rank=0)
    with pytest.raises(ValueError):
        random_mixed(rng, rank=9)
