"""Canonical form, orbit classification and the equivalence decision."""

import numpy as np
import pytest

from lu3q import (LocalRotation, Tolerances, act, canonicalize, classify,
                  conjugate, decompose, equivalent, example_state, ghz_state,
                  gram, haar_su2, product_state, random_mixed, reconstruct,
                  w_state)
from conftest import bounded_vector, canonical_q, physical_bloch, zeroed_tensor
from lu3q import BlochTensor


def well_conditioned_tensor(rng):
    """Tensor already in the diagonal-Gram frame, no small components."""
    return BlochTensor(bounded_vector(rng), bounded_vector(rng), bounded_vector(rng),
                       rng.normal(size=(3, 3)), rng.normal(size=(3, 3)),
                       rng.normal(size=(3, 3)), canonical_q(rng))


def test_canonicalize_diagonalizes_grams(rng):
    for _ in range(20):
        b = physical_bloch(rng)
        cf = canonicalize(b)
        for mat in gram(cf.tensor.Q):
            off = mat - np.diag(np.diag(mat))
            assert np.max(np.abs(off)) < 1e-9
            d = np.diag(mat)
            assert d[0] >= d[1] - 1e-12 and d[1] >= d[2] - 1e-12


def test_canonicalize_rotation_reproduces_tensor(rng):
    for _ in range(20):
        b = physical_bloch(rng)
        cf = canonicalize(b)
        again = act(b, cf.rotation)
        assert np.max(np.abs(again.components() - cf.tensor.components())) < 1e-12


def test_canonical_form_constant_on_orbit(rng):
    """LU-equivalent well-conditioned tensors share one canonical point."""
    for _ in range(15):
        b = well_conditioned_tensor(rng)
        cf1 = canonicalize(b)
        cf2 = canonicalize(act(b, LocalRotation.random(rng)))
        assert cf1.orbit_class.tag == cf2.orbit_class.tag
        assert np.max(np.abs(cf1.tensor.components() - cf2.tensor.components())) < 1e-9


def test_classify_example_family_state():
    cf = canonicalize(decompose(example_state(0.1, 0.0, 0.2)))
    assert cf.orbit_class.tag == "single-zero:a1"
    assert np.max(np.abs(np.array(cf.orbit_class.spectra[0]) - [0.04, 0.01, 0.0])) < 1e-12


def test_classify_generic(rng):
    b = well_conditioned_tensor(rng)
    assert classify(b).kind == "generic"


def test_classify_zero_patterns(rng):
    assert classify(zeroed_tensor(rng, [("a", 2)])).tag == "single-zero:a3"
    assert classify(zeroed_tensor(rng, [("b", 0)])).tag == "single-zero:b1"
    assert classify(zeroed_tensor(rng, [("a", 1), ("b", 2)])).tag == "two-zero-diff:a2,b3"
    assert classify(zeroed_tensor(rng, [("a", 0), ("g", 0)])).tag == "two-zero-diff:a1,g1"
    assert classify(zeroed_tensor(rng, [("b", 0), ("b", 2)])).tag == "two-zero-same:b1,b3"
    cls = classify(zeroed_tensor(rng, [("a", 0), ("a", 1), ("b", 1)]))
    assert cls.kind == "other"


def test_classify_degenerate_states():
    assert classify(decompose(ghz_state())).kind == "degenerate"
    assert classify(decompose(np.eye(8, dtype=complex) / 8)).kind == "degenerate"


def test_degenerate_classes_match_by_kind(rng):
    c1 = classify(decompose(ghz_state()))
    c2 = classify(decompose(np.eye(8, dtype=complex) / 8))
    assert c1.matches(c2)


def test_equivalent_example_family_pair():
    v = equivalent(example_state(0.1, 0, 0.15), example_state(-0.1, 0, 0.15))
    assert v.verdict == "equivalent"
    assert v.exit_code == 0
    assert v.to_dict() == {"verdict": "equivalent", "witness": None,
                           "classes": ["single-zero:a1", "single-zero:a1"]}


def test_equivalent_separates_family_members():
    v = equivalent(example_state(0.1, 0, 0.1), example_state(0.1, 0, 0.2))
    assert v.verdict == "inequivalent"
    assert v.witness == "trX^1"
    assert v.exit_code == 1


def test_equivalent_is_symmetric(rng):
    r1 = reconstruct(well_conditioned_tensor(rng))
    r2 = reconstruct(well_conditioned_tensor(rng))
    v12, v21 = equivalent(r1, r2), equivalent(r2, r1)
    assert v12.verdict == v21.verdict
    v11 = equivalent(r1, r1)
    assert v11.verdict == "equivalent"


def test_equivalent_accepts_conjugated_state(rng):
    for _ in range(10):
        rho = reconstruct(well_conditioned_tensor(rng))
        rho2 = conjugate(rho, haar_su2(rng), haar_su2(rng), haar_su2(rng))
        assert equivalent(rho, rho2).verdict == "equivalent"


def test_two_zero_without_sign_information_is_up_to_sign(rng):
    zeros = np.zeros((3, 3))
    b = zeroed_tensor(rng, [("a", 0), ("b", 1)])
    import dataclasses
    b = dataclasses.replace(b, R=zeros, S=zeros, T=zeros)
    rho = reconstruct(b)
    v = equivalent(rho, rho)
    assert v.verdict == "equivalent-up-to-sign"
    assert v.exit_code == 2


def test_two_zero_with_sign_information_is_equivalent(rng):
    b = zeroed_tensor(rng, [("a", 0), ("b", 1)])
    rho = reconstruct(b)
    v = equivalent(rho, rho)
    assert v.verdict == "equivalent"


@pytest.mark.parametrize("case", ["two-zero", "identity"])
def test_equivalent_builds_one_invariant_context_per_state(case, rng, monkeypatch):
    """Every family is evaluated from one context per state, whichever path runs."""
    import lu3q.invariants

    calls = []
    real_gram = lu3q.invariants.gram
    monkeypatch.setattr(lu3q.invariants, "gram", lambda q: calls.append(q) or real_gram(q))
    if case == "two-zero":
        rho = reconstruct(zeroed_tensor(rng, [("a", 0), ("b", 1)]))
    else:
        rho = np.eye(8, dtype=complex) / 8
    v = equivalent(rho, conjugate(rho, haar_su2(rng), haar_su2(rng), haar_su2(rng)))
    # the rotated copy of I/8 classifies by rounding noise and takes the all-invariant path
    assert v.verdict == ("equivalent" if case == "two-zero" else "inconclusive")
    assert len(calls) == 2


def test_degenerate_agreement_is_inconclusive():
    v = equivalent(ghz_state(), ghz_state())
    assert v.verdict == "inconclusive"
    assert v.exit_code == 2


def test_perturbed_component_detected(rng):
    b = physical_bloch(rng)
    rho = reconstruct(b)
    comps = b.components()
    comps[10] += 1e-3
    rho2 = reconstruct(BlochTensor.from_components(comps))
    v = equivalent(rho, rho2)
    assert v.verdict == "inequivalent"
    assert v.witness is not None


def test_nongeneric_rotations_never_separate(rng):
    """Conjugated copies of nongeneric states must not compare inequivalent."""
    seeds = [decompose(example_state(0.1, 0, 0.2)),
             decompose(ghz_state()),
             decompose(w_state()),
             decompose(product_state((0, 0, 1), (1, 0, 0), (0.6, 0.0, 0.8))),
             decompose(random_mixed(rng, rank=2)),
             zeroed_tensor(rng, [("a", 1)]),
             zeroed_tensor(rng, [("a", 0), ("b", 0)]),
             zeroed_tensor(rng, [("g", 0), ("g", 2)])]
    for b in seeds:
        rho = reconstruct(b)
        for _ in range(12):
            rho2 = conjugate(rho, haar_su2(rng), haar_su2(rng), haar_su2(rng))
            v = equivalent(rho, rho2)
            assert v.verdict != "inequivalent", (v.verdict, v.witness)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(tol_abs=-1.0)


def test_custom_tolerances_change_verdict():
    r1 = example_state(0.1, 0, 0.1)
    r2 = example_state(0.1, 0, 0.100001)
    loose = Tolerances(tol_abs=1.0, tol_rel=1.0)
    assert equivalent(r1, r2, loose).verdict != "inequivalent"
    assert equivalent(r1, r2).verdict == "inequivalent"
