"""Pauli expansion against a brute-force oracle built independently here."""

import itertools

import numpy as np
import pytest

from lu3q import (BlochTensor, FormatError, NotHermitianError,
                  TraceNotOneError, bloch_from_dict, bloch_to_dict, decompose,
                  density_from_dict, density_to_dict, ghz_state, pauli_string,
                  reconstruct, validate_density)
from lu3q.pauli import PAULI, _STRINGS, component_key
from conftest import random_bloch, random_density

# oracle: independent Pauli matrices and kron-loop strings
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = [np.eye(2, dtype=complex), _SX, _SY, _SZ]


def oracle_string(i, j, k):
    return np.kron(np.kron(_SINGLE[i], _SINGLE[j]), _SINGLE[k])


def oracle_decompose(rho):
    """Coefficients tr(rho P) for every Pauli string, via explicit loops."""
    coef = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                coef[i, j, k] = np.trace(rho @ oracle_string(i, j, k)).real
    return coef


def test_pauli_strings_match_oracle():
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert np.max(np.abs(pauli_string(i, j, k) - oracle_string(i, j, k))) == 0.0


def test_pauli_table_bit_identical_to_per_entry_reference():
    """The string table is the Kronecker products of the package's Pauli matrices,
    byte for byte: the signs of the zeros as well as the values."""
    ref = np.array([np.kron(np.kron(PAULI[i], PAULI[j]), PAULI[k])
                    for i, j, k in np.ndindex(4, 4, 4)]).reshape(4, 4, 4, 8, 8)
    assert np.array_equal(_STRINGS, ref)
    assert _STRINGS.tobytes() == ref.tobytes()


def test_pauli_string_index_validation():
    with pytest.raises(ValueError):
        pauli_string(4, 0, 0)
    with pytest.raises(ValueError):
        pauli_string(0, -1, 0)
    # a bool is an int to Python and a mask to numpy; a float is no index at all
    for bad in (True, False, 1.0):
        with pytest.raises(ValueError):
            pauli_string(bad, 0, 0)
        with pytest.raises(ValueError):
            pauli_string(0, 0, bad)
    assert np.array_equal(pauli_string(np.int64(3), 0, 0), oracle_string(3, 0, 0))


def test_decompose_matches_oracle(rng):
    for _ in range(20):
        rho = random_density(rng)
        coef = oracle_decompose(rho)
        b = decompose(rho)
        assert np.max(np.abs(b.alpha - coef[1:, 0, 0])) < 1e-13
        assert np.max(np.abs(b.beta - coef[0, 1:, 0])) < 1e-13
        assert np.max(np.abs(b.gamma - coef[0, 0, 1:])) < 1e-13
        assert np.max(np.abs(b.R - coef[1:, 1:, 0])) < 1e-13
        assert np.max(np.abs(b.S - coef[1:, 0, 1:])) < 1e-13
        assert np.max(np.abs(b.T - coef[0, 1:, 1:])) < 1e-13
        assert np.max(np.abs(b.Q - coef[1:, 1:, 1:])) < 1e-13


def test_reconstruct_inverts_decompose(rng):
    for _ in range(20):
        rho = random_density(rng)
        assert np.max(np.abs(reconstruct(decompose(rho)) - rho)) < 1e-14


def test_reconstruct_left_inverts_on_tensors(rng):
    for _ in range(10):
        b = random_bloch(rng)
        b2 = decompose_unchecked(b)
        assert np.max(np.abs(b2.components() - b.components())) < 1e-13


def decompose_unchecked(b):
    """decompose(reconstruct(b)) without the density checks getting in the way."""
    rho = reconstruct(b)
    # reconstruct always yields a Hermitian trace-one matrix by construction
    return decompose(rho)


def test_decompose_is_linear(rng):
    r1, r2 = random_density(rng), random_density(rng)
    lam = 0.3
    mix = lam * r1 + (1 - lam) * r2
    c1, c2, cm = (decompose(r).components() for r in (r1, r2, mix))
    assert np.max(np.abs(cm - (lam * c1 + (1 - lam) * c2))) < 1e-13


def test_ghz_tensor_values():
    b = decompose(ghz_state())
    assert np.max(np.abs(b.alpha)) < 1e-14
    assert np.max(np.abs(b.beta)) < 1e-14
    assert np.max(np.abs(b.gamma)) < 1e-14
    for mat in (b.R, b.S, b.T):
        expect = np.zeros((3, 3))
        expect[2, 2] = 1.0
        assert np.max(np.abs(mat - expect)) < 1e-14
    expect_q = np.zeros((3, 3, 3))
    expect_q[0, 0, 0] = 1.0
    expect_q[0, 1, 1] = expect_q[1, 0, 1] = expect_q[1, 1, 0] = -1.0
    assert np.max(np.abs(b.Q - expect_q)) < 1e-14


def test_identity_over_eight_is_all_zero():
    b = decompose(np.eye(8, dtype=complex) / 8)
    assert np.max(np.abs(b.components())) == 0.0


def test_validate_density_rejects_bad_inputs():
    good = np.eye(8, dtype=complex) / 8
    with pytest.raises(NotHermitianError):
        bad = good.copy()
        bad[0, 1] = 0.5
        validate_density(bad)
    with pytest.raises(TraceNotOneError):
        validate_density(np.eye(8, dtype=complex))
    with pytest.raises(FormatError):
        validate_density(np.eye(4, dtype=complex) / 4)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_validate_density_rejects_non_finite_entries(value):
    """NaN fails every comparison, so without this check it passes the Hermiticity test."""
    rho = np.eye(8, dtype=complex) / 8
    rho[2, 5] = rho[5, 2] = value
    with pytest.raises(FormatError, match="finite"):
        validate_density(rho)
    with pytest.raises(FormatError, match="finite"):
        decompose(rho)


def test_bloch_tensor_shape_validation():
    with pytest.raises(ValueError):
        BlochTensor(np.zeros(4), np.zeros(3), np.zeros(3), np.zeros((3, 3)),
                    np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        BlochTensor(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((3, 3)),
                    np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))


def test_components_round_trip(rng):
    b = random_bloch(rng)
    again = BlochTensor.from_components(b.components())
    assert np.max(np.abs(again.components() - b.components())) == 0.0
    assert len(b.components()) == 63


def test_density_dict_round_trip(rng):
    rho = random_density(rng)
    d = density_to_dict(rho)
    assert d["dim"] == 8
    back = density_from_dict(d)
    assert np.max(np.abs(back - rho)) == 0.0


def test_bloch_dict_round_trip(rng):
    b = random_bloch(rng)
    back = bloch_from_dict(bloch_to_dict(b))
    assert np.max(np.abs(back.components() - b.components())) == 0.0


def test_density_dict_rejects_malformed():
    with pytest.raises(FormatError):
        density_from_dict({"dim": 4, "matrix": [[[1.0, 0.0]] * 4] * 4})
    with pytest.raises(FormatError):
        density_from_dict({"matrix": "nope"})
    good = [[[0.0, 0.0]] * 8 for _ in range(8)]
    for bad in ([["x", 0.0]] + good[0][1:], good[0][:7]):   # a string entry, a short row
        with pytest.raises(FormatError, match="matrix entries must be numbers"):
            density_from_dict({"dim": 8, "matrix": [bad] + good[1:]})


PERMUTATIONS = list(itertools.permutations(range(3)))


def test_permute_round_trip(rng):
    b = random_bloch(rng)
    for perm in PERMUTATIONS:
        again = b.permute(perm).permute(np.argsort(perm))
        assert np.array_equal(again.components(), b.components())
    swapped = b.permute((1, 0, 2))
    assert np.array_equal(swapped.alpha, b.beta) and np.array_equal(swapped.R, b.R.T)
    assert np.array_equal(swapped.S, b.T) and np.array_equal(swapped.Q, b.Q.transpose(1, 0, 2))
    with pytest.raises(ValueError):
        b.permute((0, 0, 1))


def test_permute_matches_qubit_swap_of_density(rng):
    """Oracle: reorder the tensor factors of the 8x8 matrix directly."""
    for _ in range(5):
        b = random_bloch(rng)
        rho = reconstruct(b).reshape((2,) * 6)
        for perm in PERMUTATIONS:
            swapped = rho.transpose(*perm, *(3 + p for p in perm)).reshape(8, 8)
            assert np.max(np.abs(reconstruct(b.permute(perm)) - swapped)) < 1e-15


def test_components_layout_matches_oracle(rng):
    """Position n of the 63-vector holds tr(rho P_n), P_n running over alpha (0:3),
    beta, gamma, R, S, T and Q (36:63), each block row-major."""
    supports = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    order = [idx for support in supports
             for idx in itertools.product(*[(1, 2, 3) if s else (0,) for s in support])]
    assert len(order) == 63 and order[:3] == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert order[36:38] == [(1, 1, 1), (1, 1, 2)]
    for _ in range(5):
        rho = random_density(rng)
        coef = oracle_decompose(rho)
        expected = np.array([coef[idx] for idx in order])
        assert np.max(np.abs(decompose(rho).components() - expected)) < 1e-13
        assert np.max(np.abs(reconstruct(BlochTensor.from_components(expected)) - rho)) < 1e-13


def test_component_key():
    assert component_key((2, 3, 0)) == "R[2,3]"
    assert component_key((1, 0, ":")) == "S[1,:]"
    assert component_key((0, 3, 1)) == "T[3,1]"
    assert component_key((":", 2, ":")) == "Q[:,2,:]"
    with pytest.raises(ValueError):
        component_key((1, 0, 0))


def test_dict_codecs_reject_empty_payloads():
    with pytest.raises(FormatError, match='"matrix" key'):
        density_from_dict({})
    with pytest.raises(FormatError, match='"alpha" key'):
        bloch_from_dict({})


def test_from_components_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected 63 components"):
        BlochTensor.from_components(np.zeros(62))
