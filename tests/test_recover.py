"""Recovery of components hidden by zero Bloch-vector entries."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from lu3q import recover
from lu3q import (BlochTensor, Fingerprint, InconsistentInvariantsError,
                  LocalRotation, SingularSystemError, WrongClassError, act,
                  canonicalize, conjugate, decompose, full_fingerprint, generic_fingerprint,
                  haar_su2, reconstruct, recover_two_zero, solve_single_zero,
                  vandermonde_system)
from conftest import bounded_vector, canonical_q, zeroed_tensor


def tensor_entry(t, key):
    name, idx = key.split("[")
    ids = tuple(int(x) - 1 for x in idx.rstrip("]").split(","))
    return float(getattr(t, name)[ids])


def rotated_case(rng, zero_slots):
    """Canonical form and fingerprint of a rotated copy of a zeroed tensor."""
    b = act(zeroed_tensor(rng, zero_slots), LocalRotation.random(rng))
    cf = canonicalize(b)
    fp = full_fingerprint(b, cf.orbit_class)
    return cf, fp


def test_vandermonde_determinant_example():
    t = BlochTensor(np.array([0.0, 0.5, 0.4]), np.array([0.6, 0.3, 0.2]),
                    np.array([0.7, 0.4, 0.1]), np.zeros((3, 3)),
                    np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3, 3)))
    cls = SimpleNamespace(kind="single-zero", slots=(("a", 1),),
                          spectra=((9.0, 4.0, 1.0), (4.0, 1.0, 0.0), (3.0, 2.0, 1.0)),
                          tag="single-zero:a1")
    vsys = vandermonde_system(SimpleNamespace(orbit_class=cls, tensor=t))
    assert vsys.vectors == ("b", "g")
    assert abs(abs(np.linalg.det(vsys.Lambda)) - 12.0) < 1e-12
    assert np.max(np.abs(vsys.F - np.diag(t.beta))) == 0.0


def test_vandermonde_matches_pairwise_difference_product(rng):
    for _ in range(10):
        spec = np.sort(rng.uniform(0.1, 3.0, size=3))[::-1]
        cls = SimpleNamespace(kind="single-zero", slots=(("g", 2),),
                              spectra=(tuple(spec), (3.0, 2.0, 1.0), (5.0, 4.0, 3.0)),
                              tag="single-zero:g2")
        t = BlochTensor(np.ones(3), np.ones(3), np.ones(3), np.zeros((3, 3)),
                        np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3, 3)))
        vsys = vandermonde_system(SimpleNamespace(orbit_class=cls, tensor=t))
        det = np.linalg.det(vsys.Lambda)
        expect = np.prod([spec[n] - spec[m] for m in range(3) for n in range(m + 1, 3)])
        assert abs(det - expect) < 1e-10 * max(1.0, abs(expect))


def test_vandermonde_system_wrong_class(rng):
    cf = canonicalize(zeroed_tensor(rng, []))
    with pytest.raises(WrongClassError):
        vandermonde_system(cf)


def test_single_zero_round_trip_all_vectors_and_slots(rng):
    for vec in "abg":
        for slot in range(3):
            cf, fp = rotated_case(rng, [(vec, slot)])
            assert cf.orbit_class.tag == f"single-zero:{vec}{slot + 1}"
            sol = solve_single_zero(fp, cf)
            t = cf.tensor
            p = slot
            if vec == "a":
                truth = (t.R[p, :], t.S[p, :], t.Q[p, :, :])
            elif vec == "b":
                truth = (t.R[:, p], t.T[p, :], t.Q[:, p, :])
            else:
                truth = (t.S[:, p], t.T[:, p], t.Q[:, :, p])
            assert np.max(np.abs(sol.first - truth[0])) < 1e-8
            assert np.max(np.abs(sol.second - truth[1])) < 1e-8
            assert np.max(np.abs(sol.q_slab - truth[2])) < 1e-8


def test_single_zero_wrong_class(rng):
    cf = canonicalize(zeroed_tensor(rng, []))
    fp = full_fingerprint(cf.tensor, cf.orbit_class)
    with pytest.raises(WrongClassError):
        solve_single_zero(fp, cf)


def test_single_zero_needs_the_extra_invariants(rng):
    cf, _ = rotated_case(rng, [("b", 0)])
    with pytest.raises(ValueError, match="fingerprint lacks entry 'tri:b,Rta:r=1'"):
        solve_single_zero(generic_fingerprint(cf.tensor), cf)


def test_single_zero_singular_threshold(rng, monkeypatch):
    cf, fp = rotated_case(rng, [("a", 0)])
    monkeypatch.setattr(recover, "MIN_DET", 1e6)
    with pytest.raises(SingularSystemError):
        solve_single_zero(fp, cf)


def test_two_zero_diff_round_trip_all_pairs(rng):
    for (v1, v2) in (("a", "b"), ("a", "g"), ("b", "g")):
        for (p, q) in ((0, 1), (2, 2), (1, 0)):
            cf, fp = rotated_case(rng, [(v1, p), (v2, q)])
            assert cf.orbit_class.tag == f"two-zero-diff:{v1}{p + 1},{v2}{q + 1}"
            rec = recover_two_zero(fp, cf)
            assert rec.case == "different-vectors"
            for key, value in rec.squares.items():
                truth = tensor_entry(cf.tensor, key[:-2]) ** 2
                assert abs(value - truth) < 1e-7, (key, value, truth)
            for g in rec.groups:
                vals = np.array(list(g.components.values()))
                truth = np.array([tensor_entry(cf.tensor, k) for k in g.components])
                if (v1, v2) == ("a", "b"):
                    assert g.resolved
                    assert np.max(np.abs(vals - truth)) < 1e-6, g.label
                else:
                    assert np.max(np.abs(np.abs(vals) - np.abs(truth))) < 1e-6, g.label
            if (v1, v2) == ("a", "b"):
                assert rec.notes == []
            else:
                assert any("magnitudes" in n for n in rec.notes)


def test_two_zero_same_round_trip(rng):
    for vec in "abg":
        cf, fp = rotated_case(rng, [(vec, 0), (vec, 2)])
        assert cf.orbit_class.tag == f"two-zero-same:{vec}1,{vec}3"
        rec = recover_two_zero(fp, cf)
        assert rec.case == "same-vector"
        # no entry of either slab is zero, so each slab is one sign component
        assert [g.label[-2:] for g in rec.groups if "#" in g.label] == ["#1", "#1"]
        for key, value in rec.squares.items():
            truth = tensor_entry(cf.tensor, key[:-2]) ** 2
            assert abs(value - truth) < 1e-6, (key, value, truth)
        for g in rec.groups:
            vals = np.array(list(g.components.values()))
            truth = np.array([tensor_entry(cf.tensor, k) for k in g.components])
            err = min(np.max(np.abs(vals - truth)), np.max(np.abs(vals + truth)))
            assert err < 1e-6, (g.label, vals, truth)


def synthetic_diff_tensor(coupling, fiber):
    """Two-zero (a3, b3) tensor already in the canonical frame.

    The Q support is chosen so the three Gram matrices stay diagonal with
    distinct descending spectra whatever the fiber Q[3,3,:] holds, as long
    as fiber[0]*fiber[2] == -0.02.
    """
    Q = np.zeros((3, 3, 3))
    Q[0, 0, 0], Q[0, 0, 2] = 0.4, 0.05
    Q[1, 1, 1] = 0.3
    Q[2, 2, :] = fiber
    R = np.array([[0.21, -0.13, 0.0], [0.05, 0.17, 0.0], [0.0, 0.0, coupling]])
    S = np.array([[0.11, 0.07, -0.09], [-0.04, 0.12, 0.06], [0.0, 0.0, 0.0]])
    T = np.array([[0.08, -0.05, 0.1], [0.13, 0.02, -0.07], [0.06, 0.11, 0.04]])
    return BlochTensor(np.array([0.6, 0.45, 0.0]), np.array([0.7, 0.35, 0.0]),
                       np.array([0.55, 0.4, 0.3]), R, S, T, Q)


def test_two_zero_diff_named_values():
    b = synthetic_diff_tensor(-0.4, np.array([0.2, 0.0, -0.1]))
    cf = canonicalize(b)
    assert cf.orbit_class.tag == "two-zero-diff:a3,b3"
    assert np.max(np.abs(cf.tensor.components() - b.components())) < 1e-12
    rec = recover_two_zero(full_fingerprint(b, cf.orbit_class), cf)
    assert abs(rec.squares["R[3,3]^2"] - 0.16) < 1e-9
    assert abs(rec.squares["Q[3,3,1]^2"] - 0.04) < 1e-9
    assert abs(rec.squares["Q[3,3,2]^2"]) < 1e-9
    assert abs(rec.squares["Q[3,3,3]^2"] - 0.01) < 1e-9
    by_label = {g.label: g for g in rec.groups}
    gc = by_label["R[3,3]"]
    assert gc.resolved and abs(gc.components["R[3,3]"] + 0.4) < 1e-7
    gf = by_label["Q[3,3,:]"]
    assert gf.resolved
    got = [gf.components[f"Q[3,3,{k}]"] for k in (1, 2, 3)]
    assert np.max(np.abs(np.array(got) - [0.2, 0.0, -0.1])) < 1e-7


def all_zero_block_tensor():
    """Two-zero (a3, b3) tensor whose coupling entry and fiber are both zero."""
    Q = np.zeros((3, 3, 3))
    Q[0, 0, 0] = 0.4
    Q[1, 1, 1] = 0.3
    Q[0, 1, 2] = 0.15
    return dataclasses.replace(synthetic_diff_tensor(0.0, np.array([0.0, 0.0, 0.0])), Q=Q)


def test_two_zero_diff_all_zero_block():
    b = all_zero_block_tensor()
    cf = canonicalize(b)
    assert cf.orbit_class.tag == "two-zero-diff:a3,b3"
    rec = recover_two_zero(full_fingerprint(b, cf.orbit_class), cf)
    for value in rec.squares.values():
        assert abs(value) < 1e-9
    for g in rec.groups:
        assert g.resolved
        for value in g.components.values():
            assert value == 0.0


def test_two_zero_diff_one_sign_evaluation_serves_both_signs(monkeypatch):
    """With both signs of an (a, b) state open, the known part and one tensor holding
    both unit blocks are evaluated; with none open, no sign entry is."""
    open_b = synthetic_diff_tensor(-0.4, np.array([0.2, 0.0, -0.1]))
    cases = []
    for b in (open_b, all_zero_block_tensor()):
        cf = canonicalize(b)
        fp = full_fingerprint(b, cf.orbit_class)
        cases.append((cf, fp, recover_two_zero(fp, cf)))
    calls = []
    real = recover.sign_resolution
    monkeypatch.setattr(recover, "sign_resolution",
                        lambda t, grams=None: calls.append(t) or real(t, grams))
    for (cf, fp, expected), count in zip(cases, (2, 0)):
        calls.clear()
        rec = recover_two_zero(fp, cf)
        assert len(calls) == count
        assert rec == expected
    assert all(g.resolved for g in cases[0][2].groups)


def test_pinned_grams_build_a_stack_of_one(rng, monkeypatch):
    """recover pins its Grams as three (3, 3) arrays; each family it reevaluates on
    them builds a context of one tensor, not a stack of three."""
    from lu3q import invariants

    cf, fp = rotated_case(rng, [("a", 1), ("b", 2)])
    grams = recover._Frame(cf, fp).grams
    assert [np.shape(g) for g in grams] == [(3, 3)] * 3
    stacks = []
    real = invariants._evaluate
    monkeypatch.setattr(invariants, "_evaluate", lambda tag, family, ctx, *args:
                        stacks.append(ctx.P.shape[1]) or real(tag, family, ctx, *args))
    sizes = [len(recover.squared_family(cf.tensor, grams)),
             len(recover.sign_resolution(cf.tensor, grams)),
             len(recover.single_zero_extras(cf.tensor, "a", grams))]
    assert (sizes, stacks) == ([189, 30, 15], [1, 1, 1])


def assert_recovers_canonical(rec, t, tol=1e-7):
    """Squares and resolved groups equal the canonical tensor; unresolved groups in magnitude."""
    for key, value in rec.squares.items():
        assert abs(value - tensor_entry(t, key[:-2]) ** 2) < tol, key
    for g in rec.groups:
        vals = np.array(list(g.components.values()))
        truth = np.array([tensor_entry(t, k) for k in g.components])
        if not g.resolved:
            vals, truth = np.abs(vals), np.abs(truth)
        assert np.max(np.abs(vals - truth)) < tol, (g.label, vals, truth)


def test_two_zero_same_diagonal_q_reports_zero_groups(rng):
    Q = np.zeros((3, 3, 3))
    Q[0, 0, 0], Q[1, 1, 1], Q[2, 2, 2] = 0.9, 0.6, 0.3
    b = BlochTensor(np.array([0.0, 0.5, 0.0]), bounded_vector(rng), bounded_vector(rng),
                    rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), Q)
    cf = canonicalize(act(b, LocalRotation.random(rng)))
    assert cf.orbit_class.tag == "two-zero-same:a1,a3"
    rec = recover_two_zero(full_fingerprint(cf.tensor, cf.orbit_class), cf)
    labels = [g.label for g in rec.groups]
    assert "Q[1,:,:]#zeros" in labels and "Q[3,:,:]#zeros" in labels
    assert_recovers_canonical(rec, cf.tensor)


def test_two_zero_diff_without_couplings_leaves_fiber_sign_open(rng):
    alpha, beta, zero = bounded_vector(rng), bounded_vector(rng), np.zeros((3, 3))
    alpha[0] = beta[1] = 0.0
    b = BlochTensor(alpha, beta, bounded_vector(rng), zero, zero, zero, canonical_q(rng))
    cf = canonicalize(act(b, LocalRotation.random(rng)))
    assert cf.orbit_class.tag == "two-zero-diff:a1,b2"
    rec = recover_two_zero(full_fingerprint(cf.tensor, cf.orbit_class), cf)
    # every sign-resolution invariant of the fiber passes through R, S or T
    assert [g.label for g in rec.groups if not g.resolved] == ["Q[1,2,:]"]
    assert_recovers_canonical(rec, cf.tensor)


def test_slab_sign_groups_rejects_contradictory_triangle():
    # the products around the triangle (1,1)-(1,2)-(1,3) multiply to a negative number
    rows = np.ones((3, 3, 3))
    rows[0, 0, 2] = rows[0, 2, 0] = -1.0
    with pytest.raises(InconsistentInvariantsError, match="contradictory sign products"):
        recover._slab_sign_groups("Q[1,:,:]", np.ones((3, 3)), np.zeros((3, 3, 3)), rows,
                                  lambda u, v: f"Q[1,{u + 1},{v + 1}]")


def test_two_zero_same_slab_splits_into_two_sign_components(rng):
    """Q[1,:,:] holds one entry alone in its row and column, and two more sharing a row
    away from it: two sign components, each recovered up to its own sign."""
    Q = np.zeros((3, 3, 3))
    Q[0, 0, 0], Q[0, 1, 1], Q[0, 1, 2], Q[1, 0, 2] = 0.9, 0.5, 0.4, 0.8
    # keeps all three Grams diagonal
    Q[2, 2, 1] = 0.3
    Q[2, 2, 2] = -Q[0, 1, 1] * Q[0, 1, 2] / Q[2, 2, 1]
    b = BlochTensor(np.array([0.0, 0.6, 0.0]), bounded_vector(rng), bounded_vector(rng),
                    rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), Q)
    cf = canonicalize(act(b, LocalRotation.random(rng)))
    assert cf.orbit_class.tag == "two-zero-same:a1,a3"
    rec = recover_two_zero(full_fingerprint(cf.tensor, cf.orbit_class), cf)
    labels = [g.label for g in rec.groups]
    assert {"Q[1,:,:]#1", "Q[1,:,:]#2", "Q[1,:,:]#zeros"} <= set(labels), labels
    assert_recovers_canonical(rec, cf.tensor)
    for g in rec.groups:
        vals = np.array(list(g.components.values()))
        truth = np.array([tensor_entry(cf.tensor, k) for k in g.components])
        assert min(np.max(np.abs(vals - truth)), np.max(np.abs(vals + truth))) < 1e-7, g.label


def test_two_zero_wrong_class(rng):
    cf = canonicalize(zeroed_tensor(rng, [("a", 1)]))
    fp = full_fingerprint(cf.tensor, cf.orbit_class)
    with pytest.raises(WrongClassError):
        recover_two_zero(fp, cf)


def test_zero_factor_is_singular_with_magnitude_zero():
    with pytest.raises(SingularSystemError) as info:
        recover._checked_solve([np.eye(3), np.zeros((3, 3))], np.ones(9), "zero factor")
    assert info.value.magnitude == 0.0
    assert "factor 2 relative determinant 0.000e+00" in str(info.value)


def test_two_zero_singular_threshold(rng, monkeypatch):
    cf, fp = rotated_case(rng, [("a", 0), ("b", 0)])
    monkeypatch.setattr(recover, "MIN_DET", 1e6)
    with pytest.raises(SingularSystemError):
        recover_two_zero(fp, cf)


def test_two_zero_inconsistent_fingerprint(rng):
    cf, fp = rotated_case(rng, [("a", 1), ("b", 2)])
    values = fp.values.copy()
    values[fp.names.index("sq:RYRX:r=1,s=1")] -= 10.0
    bad = Fingerprint(fp.orbit_class, fp.names, values)
    with pytest.raises(InconsistentInvariantsError):
        recover_two_zero(bad, cf)


def test_two_zero_same_checks_only_the_reported_squares():
    """Outside the zero slots the solved squares are rounding around the exact zero the
    known part leaves.  In this seeded state one of them lies below SQUARE_FLOOR, which
    is no inconsistency: every reported square is recovered, the smallest true one 4e-5."""
    rng = np.random.default_rng(1312)
    cf, fp = rotated_case(rng, [("g", 0), ("g", 2)])
    rec = recover_two_zero(fp, cf)
    assert_recovers_canonical(rec, cf.tensor, tol=1e-8 * np.linalg.norm(cf.tensor.components()))


def test_each_distinct_system_is_solved_once(rng, monkeypatch):
    """Solves and determinant gates per recovery: a two-zero-same state has 9 distinct
    systems (two coupling-square, two row-sum, one Q-square, two Q line-sum and one
    line-product system per remaining qubit), each solved against all its columns."""
    cases = [(rotated_case(rng, slots), solver) for slots, solver in (
        ([("b", 0), ("b", 2)], recover_two_zero),
        ([("a", 1), ("g", 0)], recover_two_zero),
        ([("g", 1)], solve_single_zero))]
    counts = {"solve": 0, "gate": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(recover, "_checked_solve", counted("solve", recover._checked_solve))
    monkeypatch.setattr(recover, "_rel_det", counted("gate", recover._rel_det))
    for ((cf, fp), solver), expected in zip(cases, ((9, 15), (2, 2), (3, 4))):
        counts.update(solve=0, gate=0)
        solver(fp, cf)
        assert (counts["solve"], counts["gate"]) == expected, cf.orbit_class.tag


@pytest.mark.xfail(strict=True, raises=SingularSystemError,
                   reason="ROADMAP item 1: the squared-spectrum Vandermonde rows "
                   "scale as sigma^0, sigma^4 and sigma^8, and the absolute MIN_DET gate "
                   "rejects them from about 1.5 times the unit scale")
def test_two_zero_same_recovers_at_three_times_scale():
    rng = np.random.default_rng(1)
    for v in "abg":
        for i, j in ((0, 1), (0, 2), (1, 2)):
            b = act(zeroed_tensor(rng, [(v, i), (v, j)]), LocalRotation.random(rng))
            b = BlochTensor.from_components(3.0 * b.components())
            cf = canonicalize(b)
            rec = recover_two_zero(full_fingerprint(b, cf.orbit_class), cf)
            assert_recovers_canonical(rec, cf.tensor, tol=1e-8 * np.linalg.norm(b.components()))


@pytest.mark.xfail(strict=True, raises=SingularSystemError,
                   reason="defect (a), ROADMAP item 1: the absolute MIN_DET gate rejects the "
                   "fiber product and row sum systems of every noisy two-zero state")
def test_two_zero_recovers_noisy_states():
    """Each two-zero pattern mixed towards I/8 (0.3 of the way from I/8 to a positive
    state near the edge of the positive cone), then rotated."""
    rng = np.random.default_rng(12)
    slots = [(v, i) for v in "abg" for i in range(3)]
    for pattern in itertools.combinations(slots, 2):
        d = reconstruct(zeroed_tensor(rng, pattern)) - np.eye(8) / 8
        t = 0.99 / (8 * abs(np.linalg.eigvalsh(d)[0]))
        b = decompose(conjugate(np.eye(8) / 8 + 0.3 * t * d,
                                haar_su2(rng), haar_su2(rng), haar_su2(rng)))
        cf = canonicalize(b)
        rec = recover_two_zero(full_fingerprint(b, cf.orbit_class), cf)
        assert_recovers_canonical(rec, cf.tensor, tol=1e-8 * np.linalg.norm(b.components()))
