"""Canonical form, orbit classification and the equivalence decision."""

import dataclasses
import itertools

import numpy as np
import pytest

from lu3q import (LocalRotation, Tolerances, act, all_invariants, canonicalize, classify,
                  conjugate, decompose, equivalent, example_state, first_mismatch,
                  generic_fingerprint, ghz_state, gram, haar_su2, product_state, random_mixed,
                  reconstruct, w_state)
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


def test_frame_class_is_canonical_class(rng):
    """classify, which equivalent shares, reads the class off the Gram
    eigen-frames without the canonical tensor; it must give canonicalize's class
    bit for bit, with the spectra of three separate eigendecompositions."""
    slots = [(v, i) for v in "abg" for i in range(3)]
    patterns = [[s] for s in slots] + [list(p) for p in itertools.combinations(slots, 2)]
    i8 = np.eye(8, dtype=complex) / 8
    i8_rotated = conjugate(i8, haar_su2(rng), haar_su2(rng), haar_su2(rng))
    tensors = ([zeroed_tensor(rng, p) for p in patterns]
               + [physical_bloch(rng) for _ in range(10)]
               + [decompose(rho) for rho in (ghz_state(), w_state(), i8, i8_rotated)])
    kinds = set()
    for b in tensors:
        got, want = classify(b), canonicalize(b).orbit_class
        assert (got.tag, got.reason) == (want.tag, want.reason)
        assert np.array(got.spectra).tobytes() == np.array(want.spectra).tobytes()
        separate = [np.linalg.eigh(g)[0][::-1] for g in gram(b.Q)]
        assert np.array(got.spectra).tobytes() == np.array(separate).tobytes()
        kinds.add(got.kind)
    # the rotated I/8 is classified by rounding noise, as "other" here
    assert kinds == {"single-zero", "two-zero-diff", "two-zero-same", "generic", "degenerate",
                     "other"}


@pytest.mark.xfail(strict=True, reason="defect (g), ROADMAP item 1: the absolute zero_tol and "
                   "deg_tol read the rounding noise of a rotated I/8 as structure")
def test_rotated_maximally_mixed_state_is_degenerate():
    rng = np.random.default_rng(3)
    i8 = np.eye(8, dtype=complex) / 8
    kinds = [classify(decompose(conjugate(i8, haar_su2(rng), haar_su2(rng), haar_su2(rng)))).kind
             for _ in range(200)]
    assert kinds == ["degenerate"] * 200


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
def test_equivalent_builds_one_invariant_context_per_pair(case, rng, monkeypatch):
    """One stacked Gram computation per pair serves both classes and every
    family, whichever path runs, and equivalent never builds a rotated tensor."""
    import lu3q.canonical
    import lu3q.invariants

    if case == "two-zero":
        rho = reconstruct(zeroed_tensor(rng, [("a", 0), ("b", 1)]))
    else:
        rho = np.eye(8, dtype=complex) / 8
    rho2 = conjugate(rho, haar_su2(rng), haar_su2(rng), haar_su2(rng))
    grams, acts = [], []
    real_gram, real_act = lu3q.canonical.gram, lu3q.canonical.act
    for module in (lu3q.canonical, lu3q.invariants):
        monkeypatch.setattr(module, "gram", lambda q: grams.append(q) or real_gram(q))
    monkeypatch.setattr(lu3q.canonical, "act", lambda b, g: acts.append(g) or real_act(b, g))
    v = equivalent(rho, rho2)
    # the rotated copy of I/8 classifies by rounding noise and takes the all-invariant path
    assert v.verdict == ("equivalent" if case == "two-zero" else "inconclusive")
    assert len(grams) == 1 and np.shape(grams[0]) == (2, 3, 3, 3)
    assert acts == []


def huge_offdiagonal_state(mag, extra=0.0):
    """Hermitian, trace 1, far from positive: its higher invariants overflow."""
    rho = np.eye(8, dtype=complex) / 8
    for (i, j), v in (((0, 5), mag), ((2, 3), 0.5 * mag), ((1, 6), extra * mag)):
        rho[i, j] = rho[j, i] = v
    return rho


def test_equivalent_rejects_non_finite_invariants():
    rho = huge_offdiagonal_state(1e100)
    # numpy overflows on the way; whether it warns is not what is tested
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="is not finite"):
            equivalent(rho, rho)
        # a finite entry that fails first is still the witness
        v = equivalent(rho, huge_offdiagonal_state(1e100, 0.3))
    assert (v.verdict, v.witness) == ("inequivalent", "trX^1")


def stacking_corpus():
    """A rotated tensor of each of the 45 single- and two-zero patterns, random
    densities of ranks 1, 2, 4 and 8, GHZ, W, I/8 and a state whose higher
    invariants overflow, as BlochTensors."""
    rng = np.random.default_rng(2026)
    slots = [(v, i) for v in "abg" for i in range(3)]
    patterns = [[s] for s in slots] + [list(p) for p in itertools.combinations(slots, 2)]
    tensors = [act(zeroed_tensor(rng, p), LocalRotation.random(rng)) for p in patterns]
    tensors += [decompose(random_mixed(rng, rank=r)) for r in (1, 2, 4, 8)]
    rhos = (ghz_state(), w_state(), np.eye(8, dtype=complex) / 8, huge_offdiagonal_state(1e100))
    return tensors + [decompose(rho) for rho in rhos]


def test_stacked_stages_equal_single_evaluations():
    """equivalent runs a pair through every stage as one stack of two; each row
    must carry the bits of the scalar path (the stack of one), whichever row
    the state is in, and the verdict must not depend on the order."""
    from lu3q.canonical import DEG_TOL, ZERO_TOL, _frame
    from lu3q.invariants import _Ctx, _families
    from lu3q.pauli import _expand

    def same_bits(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def outcome(rho_a, rho_b):
        try:
            v = equivalent(rho_a, rho_b)
        except ValueError as exc:
            return "ValueError", str(exc).split(":")[0], ()
        return v.verdict, v.witness, v.classes

    corpus = stacking_corpus()
    assert len(corpus) == 45 + 4 + 4
    with np.errstate(over="ignore", invalid="ignore"):
        for pair in zip(corpus, corpus[1:] + corpus[:1]):
            rhos = np.stack([reconstruct(b) for b in pair])
            single = [list(_families(_Ctx((b,)))) for b in pair]
            frames = [_frame((b,), gram(b.Q[None]), ZERO_TOL, DEG_TOL) for b in pair]
            stacked = list(_families(_Ctx(pair)))
            frame = _frame(pair, gram(np.stack([b.Q for b in pair])), ZERO_TOL, DEG_TOL)
            expanded = _expand(rhos)
            spectra = np.linalg.eigvalsh(rhos)
            for n, b in enumerate(pair):
                assert [fps[n].names for fps in stacked] == [fps[0].names for fps in single[n]]
                for fps, one in zip(stacked, single[n]):
                    assert same_bits(fps[n].values, one[0].values), (fps[n].orbit_class, n)
                for got, want in zip(frame[:3], frames[n][:3]):
                    assert same_bits(got[n], want[0])
                assert frame[-1][n] == frames[n][-1][0]
                assert same_bits(expanded[n].components(), _expand(rhos[n][None])[0].components())
                assert same_bits(spectra[n], np.linalg.eigvalsh(rhos[n]))
            forward, backward = outcome(*rhos), outcome(*rhos[::-1])
            assert forward[:2] == backward[:2] and forward[2] == backward[2][::-1]


def test_equivalent_evaluates_each_family_once_per_pair(rng, monkeypatch):
    """Both states go through a family in one evaluation: a rotated two-zero-same
    pair evaluates its 6 families once each, and a cross pair stops at the Gram
    traces, before any family is evaluated."""
    import lu3q.invariants

    calls = []
    real = lu3q.invariants._evaluate
    monkeypatch.setattr(lu3q.invariants, "_evaluate",
                        lambda tag, *args: calls.append(tag) or real(tag, *args))
    slots = [("a", 0), ("a", 2)]
    rho = reconstruct(zeroed_tensor(rng, slots))
    v = equivalent(rho, conjugate(rho, haar_su2(rng), haar_su2(rng), haar_su2(rng)))
    assert v.classes[0].startswith("two-zero-same") and v.verdict != "inequivalent", v
    assert calls == ["generic", "extras:a", "extras:b", "extras:g", "squared", "sign"]
    calls.clear()
    v = equivalent(rho, reconstruct(zeroed_tensor(rng, slots)))
    assert (v.verdict, v.witness) == ("inequivalent", "trX^1")
    assert calls == []


def test_trace_stage_is_the_generic_prefix(monkeypatch):
    """equivalent compares the 9 Gram traces before it builds any invariant context:
    they must be the first 9 generic entries of each state, names and bits, so the
    first differing or non-finite entry, and with it the witness or the error, is the
    one the generic family gives."""
    import lu3q.canonical

    first = []
    real = lu3q.canonical.first_mismatch

    def recording(fp1, fp2, *tols):
        if not first:
            first.extend((fp1, fp2))
        return real(fp1, fp2, *tols)

    monkeypatch.setattr(lu3q.canonical, "first_mismatch", recording)
    corpus = stacking_corpus()[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for pair in zip(corpus, corpus[1:] + corpus[:1]):
            rhos = [reconstruct(b) for b in pair]
            first.clear()
            equivalent(*rhos)
            for fp, rho in zip(first, rhos):
                generic = generic_fingerprint(decompose(rho))
                assert fp.names == generic.names[:9]
                assert np.array_equal(fp.values, generic.values[:9])
    # the traces read Q alone: the same Q with alpha scaled passes them
    rng = np.random.default_rng(23)
    b = act(zeroed_tensor(rng, [("a", 1)]), LocalRotation.random(rng))
    rho1, rho2 = reconstruct(b), reconstruct(dataclasses.replace(b, alpha=0.9 * b.alpha))
    for pair in ((rho1, rho2), (rho2, rho1)):
        assert equivalent(*pair).witness == "aXa:r=1"
    huge = huge_offdiagonal_state(1e100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^invariant trX\^2 is not finite: inf vs inf$"):
            equivalent(huge, huge)
        assert equivalent(huge, huge_offdiagonal_state(1e100, 0.3)).witness == "trX^1"


def reflect(b, qubit, axis):
    """b with one Bloch axis of qubit reversed: every coefficient carrying
    Pauli index axis + 1 on qubit changes sign.  A det -1 map, not a rotation."""
    d = np.ones(3)
    d[axis] = -1.0
    vec = ("alpha", "beta", "gamma")[qubit]
    fields = {vec: d * getattr(b, vec), "Q": b.Q * d.reshape([3 if n == qubit else 1 for n in range(3)])}
    for name, (p, q) in (("R", (0, 1)), ("S", (0, 2)), ("T", (1, 2))):
        if qubit in (p, q):
            fields[name] = getattr(b, name) * (d[:, None] if qubit == p else d)
    return dataclasses.replace(b, **fields)


@pytest.mark.parametrize("slots", [[("a", 0), ("a", 1)], [("a", 0), ("a", 2)], [("a", 1), ("a", 2)],
                                   [("b", 0), ("b", 2)], [("g", 1), ("g", 2)]])
def test_two_zero_same_reflection_is_not_equivalent(slots, rng):
    """Reversing a zero axis of the zero-carrying qubit leaves all 339 invariants
    unchanged but leaves the orbit; a rotated copy of the result must not compare
    equivalent, and compare separates it through the density spectrum, as the
    README says."""
    qubit = "abg".index(slots[0][0])
    for _ in range(2):
        b = BlochTensor.from_components(0.05 * zeroed_tensor(rng, slots).components())
        rho = reconstruct(b)
        for _, axis in slots:
            reflected = reflect(b, qubit, axis)
            assert first_mismatch(all_invariants(b), all_invariants(reflected)) is None
            mirrored = reconstruct(reflected)
            v = equivalent(rho, conjugate(mirrored, haar_su2(rng), haar_su2(rng), haar_su2(rng)))
            assert v.classes[0] == v.classes[1] and v.classes[0].startswith("two-zero-same")
            assert v.verdict not in ("equivalent", "equivalent-up-to-sign"), v
            assert v.witness.startswith("spec:rho"), v


def test_degenerate_agreement_is_inconclusive():
    v = equivalent(ghz_state(), ghz_state())
    assert v.verdict == "inconclusive"
    assert v.exit_code == 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a degenerate Gram spectrum leaves a "
                   "continuous stabilizer, and no stage decides the degenerate classes yet")
def test_textbook_states_equal_their_rotations():
    """GHZ, W and noisy GHZ against Haar conjugations of themselves; today every
    pair is inconclusive (degenerate:X gap 1 for GHZ, gap 2 for W)."""
    rng = np.random.default_rng(4)
    noisy = 0.3 * ghz_state() + 0.7 * np.eye(8, dtype=complex) / 8
    verdicts = [equivalent(rho, conjugate(rho, haar_su2(rng), haar_su2(rng), haar_su2(rng))).verdict
                for rho in (ghz_state(), w_state(), noisy) for _ in range(5)]
    assert verdicts == ["equivalent"] * 15


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


@pytest.mark.xfail(strict=True, reason="defect (b): rounding noise of an entry that vanishes "
                   "on the orbit is read as a witness; ROADMAP item 1 (scale-covariant "
                   "thresholds) fixes it and must drop this marker")
def test_rotated_non_positive_two_zero_same_states_never_separate():
    """zeroed_tensor with zeros a1, a2 is accepted but not positive; no rotated copy may
    compare inequivalent.  sgn:aQT and tri:a,Qbg vanish on its orbit, since a x Xa = 0."""
    separated = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        b = zeroed_tensor(rng, [("a", 0), ("a", 1)])
        rho = reconstruct(b)
        for _ in range(50):
            v = equivalent(rho, reconstruct(act(b, LocalRotation.random(rng))))
            if v.verdict == "inequivalent":
                separated.append((seed, v.witness))
    assert separated == []


def test_tolerances_validation():
    """A bool, a string or None is not a number, whatever numpy would make of it."""
    for name in ("tol_abs", "tol_rel", "zero_tol", "deg_tol"):
        for bad in (0.0, -1.0, float("nan"), float("inf"), True, np.True_, "1e-9", None):
            with pytest.raises(ValueError, match=name):
                Tolerances(**{name: bad})
        assert getattr(Tolerances(**{name: np.float64(0.5)}), name) == 0.5
        assert getattr(Tolerances(**{name: 2}), name) == 2


def test_canonicalize_and_classify_validate_tolerances(rng):
    b = physical_bloch(rng)
    for name in ("zero_tol", "deg_tol"):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            for fn in (canonicalize, classify):
                with pytest.raises(ValueError, match=name):
                    fn(b, **{name: bad})


def test_custom_tolerances_change_verdict():
    r1 = example_state(0.1, 0, 0.1)
    r2 = example_state(0.1, 0, 0.100001)
    loose = Tolerances(tol_abs=1.0, tol_rel=1.0)
    assert equivalent(r1, r2, loose).verdict != "inequivalent"
    assert equivalent(r1, r2).verdict == "inequivalent"
