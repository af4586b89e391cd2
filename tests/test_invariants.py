"""Invariant families: enumeration freeze, oracles, rotation invariance."""

import itertools

import numpy as np
import pytest

from lu3q import (BlochTensor, Fingerprint, LocalRotation, act, all_invariants,
                  first_mismatch, generic_fingerprint, gram, q_trilinear,
                  q_trilinear_flat, sign_resolution, single_zero_extras,
                  squared_family, triple_cofactor)
from conftest import physical_bloch, random_bloch, zeroed_tensor


def expected_generic_names():
    names = []
    for g in "XYZ":
        names += [f"tr{g}^{r}" for r in (1, 2, 3)]
    for v, g in (("a", "X"), ("b", "Y"), ("g", "Z")):
        names += [f"{v}{g}{v}:r={r}" for r in (1, 2, 3)]
    names += ["tri:a", "tri:b", "tri:g"]
    for label in ("aRb", "aSg", "bTg"):
        names += [f"{label}:r={r},s={s}" for r in (1, 2, 3) for s in (1, 2, 3)]
    names += [f"Q:r={r},s={s},t={t}"
              for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
    return names


def expected_extras_names(vec):
    fam = {"a": ("Rb", "Sg", "Qbg"), "b": ("Rta", "Tg", "Qag"),
           "g": ("Sta", "Ttb", "Qab")}[vec]
    names = [f"tri:{vec},{fam[0]}:r={r}" for r in (1, 2, 3)]
    names += [f"tri:{vec},{fam[1]}:r={r}" for r in (1, 2, 3)]
    names += [f"tri:{vec},{fam[2]}:r={r},s={s}" for r in (1, 2, 3) for s in (1, 2, 3)]
    return names


def expected_squared_names():
    names = []
    for label in ("RYRX", "SZSX", "TZTY"):
        names += [f"sq:{label}:r={r},s={s}" for r in (1, 2, 3) for s in (1, 2, 3)]
    names += [f"sq:QXQYZ:r={r},s={s},t={t}"
              for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
    for label in ("XRYb", "YRtXa", "XSZg", "ZStXa", "YTZg", "ZTtYb"):
        names += [f"sq:{label}:r={r},s={s}" for r in (1, 2, 3) for s in (1, 2, 3)]
    for label in ("YZQ1Xa", "XZQ2Yb", "XYQ3Zg"):
        names += [f"sq:{label}:r={r},s={s},t={t}"
                  for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
    return names


def expected_sign_names():
    names = []
    for label in ("bTg", "aSg", "aRTg", "bRtSg"):
        names += [f"sgn:{label}:r={r}" for r in (1, 2, 3)]
    for label in ("aQT", "bQS"):
        names += [f"sgn:{label}:r={r},s={s}" for r in (1, 2, 3) for s in (1, 2, 3)]
    return names


def test_enumeration_counts_and_order(rng):
    b = random_bloch(rng)
    fp = generic_fingerprint(b)
    assert list(fp.names) == expected_generic_names()
    assert len(fp) == 75
    for vec in "abg":
        assert list(single_zero_extras(b, vec).names) == expected_extras_names(vec)
    assert list(squared_family(b).names) == expected_squared_names()
    assert list(sign_resolution(b).names) == expected_sign_names()
    all_names = list(all_invariants(b).names)
    expected = (expected_generic_names() + expected_extras_names("a")
                + expected_extras_names("b") + expected_extras_names("g")
                + expected_squared_names() + expected_sign_names())
    assert all_names == expected
    assert len(all_names) == 339


def test_trace_invariants_match_eigenvalue_sums(rng):
    b = random_bloch(rng)
    fp = generic_fingerprint(b)
    for mat, g in zip(gram(b.Q), "XYZ"):
        eig = np.linalg.eigvalsh(mat)
        for r in (1, 2, 3):
            assert abs(fp.get(f"tr{g}^{r}") - np.sum(eig ** r)) < 1e-10 * max(1, np.sum(eig ** r))


def test_grid_invariants_match_power_oracle(rng):
    b = random_bloch(rng)
    fp = generic_fingerprint(b)
    X, Y, Z = gram(b.Q)
    powers = lambda m: [np.eye(3), m, m @ m]
    Xp, Yp, Zp = powers(X), powers(Y), powers(Z)
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            direct = b.alpha @ Xp[r - 1] @ b.R @ Yp[s - 1] @ b.beta
            assert abs(fp.get(f"aRb:r={r},s={s}") - direct) < 1e-10 * max(1, abs(direct))
            direct = b.beta @ Yp[r - 1] @ b.T @ Zp[s - 1] @ b.gamma
            assert abs(fp.get(f"bTg:r={r},s={s}") - direct) < 1e-10 * max(1, abs(direct))


def test_triple_invariants_match_determinant(rng):
    b = random_bloch(rng)
    fp = generic_fingerprint(b)
    X, _, _ = gram(b.Q)
    det = np.linalg.det(np.column_stack([b.alpha, X @ b.alpha, X @ X @ b.alpha]))
    assert abs(fp.get("tri:a") - det) < 1e-9 * max(1, abs(det))


def test_squared_family_matches_norm_oracle(rng):
    """All 13 squared blocks against their definitions, with the tensor's own and pinned Grams."""
    powers = lambda m: [np.eye(3), m, m @ m]
    close = lambda got, want: abs(got - want) < 1e-9 * max(1, abs(want))
    for _ in range(3):
        b = random_bloch(rng)
        for grams in (None, gram(random_bloch(rng).Q)):
            sq = dict(squared_family(b, grams).entries)
            G = [powers(m) for m in (gram(b.Q) if grams is None else grams)]
            vecs = (b.alpha, b.beta, b.gamma)
            couple = {(0, 1): b.R, (1, 0): b.R.T, (0, 2): b.S, (2, 0): b.S.T,
                      (1, 2): b.T, (2, 1): b.T.T}
            # Q contracted with a vector on axis 0, 1, 2: rows and columns on the other two
            slab = ("ijk,i->jk", "ijk,j->ik", "ijk,k->ij")
            checked = 0
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    for label, p, q, c in (("RYRX", 0, 1, b.R), ("SZSX", 0, 2, b.S),
                                           ("TZTY", 1, 2, b.T)):
                        direct = np.trace(c @ G[q][r - 1] @ c.T @ G[p][s - 1])
                        assert close(sq[f"sq:{label}:r={r},s={s}"], direct), (label, r, s)
                        checked += 1
                    for label, q, o in (("XRYb", 0, 1), ("YRtXa", 1, 0), ("XSZg", 0, 2),
                                        ("ZStXa", 2, 0), ("YTZg", 1, 2), ("ZTtYb", 2, 1)):
                        v = G[q][r - 1] @ couple[q, o] @ G[o][s - 1] @ vecs[o]
                        assert close(sq[f"sq:{label}:r={r},s={s}"], v @ v), (label, r, s)
                        checked += 1
                    for t in (1, 2, 3):
                        direct = np.einsum("ia,jb,kc,abc,ijk->", G[0][r - 1], G[1][s - 1],
                                           G[2][t - 1], b.Q, b.Q)
                        assert close(sq[f"sq:QXQYZ:r={r},s={s},t={t}"], direct), (r, s, t)
                        checked += 1
                        for label, q, p1, p2 in (("YZQ1Xa", 0, 1, 2), ("XZQ2Yb", 1, 0, 2),
                                                 ("XYQ3Zg", 2, 0, 1)):
                            w = np.einsum(slab[q], b.Q, G[q][t - 1] @ vecs[q])
                            m = G[p1][r - 1] @ w @ G[p2][s - 1]
                            name = f"sq:{label}:r={r},s={s},t={t}"
                            assert close(sq[name], np.sum(m * m)), name
                            checked += 1
            assert checked == len(sq) == 189


def test_sign_family_matches_cofactor_oracle(rng):
    b = random_bloch(rng)
    sg = dict(sign_resolution(b).entries)
    X, Y, Z = gram(b.Q)
    cof_a = np.cross(b.alpha, X @ b.alpha)
    cof_b = np.cross(b.beta, Y @ b.beta)
    powers = lambda m: [np.eye(3), m, m @ m]
    Zp = powers(Z)
    for r in (1, 2, 3):
        direct = cof_b @ b.T @ Zp[r - 1] @ b.gamma
        assert abs(sg[f"sgn:bTg:r={r}"] - direct) < 1e-9 * max(1, abs(direct))
        direct = cof_a @ b.R @ b.T @ Zp[r - 1] @ b.gamma
        assert abs(sg[f"sgn:aRTg:r={r}"] - direct) < 1e-9 * max(1, abs(direct))
        direct = cof_b @ b.R.T @ b.S @ Zp[r - 1] @ b.gamma
        assert abs(sg[f"sgn:bRtSg:r={r}"] - direct) < 1e-9 * max(1, abs(direct))


def test_sign_entries_shared_with_extras_are_bit_identical(rng):
    """sgn:bTg and sgn:aSg are the extras tri:b,Tg and tri:a,Sg; they must stay equal exactly."""
    shared = [(f"sgn:{s}:r={r}", f"tri:{t}:r={r}")
              for s, t in (("bTg", "b,Tg"), ("aSg", "a,Sg")) for r in (1, 2, 3)]
    for _ in range(30):
        b = random_bloch(rng)
        every = dict(all_invariants(b).entries)
        for grams in (None, gram(random_bloch(rng).Q)):
            sg = dict(sign_resolution(b, grams).entries)
            ex = dict(single_zero_extras(b, "a", grams).entries
                      + single_zero_extras(b, "b", grams).entries)
            for sign, extra in shared:
                assert every[sign] == every[extra], (sign, extra)
                assert sg[sign] == ex[extra], (sign, extra, grams is None)


def per_entry_q_cofactor_grids(b):
    """The extras-Q and sign-Q grids with one contraction per entry, by name.

    Each entry is cof_q . einsum(contract, Q, ...), as the package first
    computed it, with the Gram powers, power-weighted vectors and cofactors
    formed as the package forms them.
    """
    eye = np.eye(3)
    P = [np.array([eye, g, g @ g]) for g in gram(b.Q)]
    V = [np.stack([p @ v for p in powers], axis=1)
         for powers, v in zip(P, (b.alpha, b.beta, b.gamma))]
    cof = [triple_cofactor(v[:, 0], v[:, 1]) for v in V]
    vec, ax, out = "abg", "ijk", {}
    for q, (o1, o2) in enumerate(((1, 2), (0, 2), (0, 1))):
        contract = f"ijk,{ax[o1]},{ax[o2]}->{ax[q]}"
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                out[f"tri:{vec[q]},Q{vec[o1]}{vec[o2]}:r={r},s={s}"] = float(
                    cof[q] @ np.einsum(contract, b.Q, V[o1][:, r - 1], V[o2][:, s - 1]))
    for q, label in ((0, "aQT"), (1, "bQS")):
        o = 1 - q
        contract = f"ijk,{ax[o]}k->{ax[q]}"
        left = [p @ (b.T if q == 0 else b.S) for p in P[o]]
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                out[f"sgn:{label}:r={r},s={s}"] = float(
                    cof[q] @ np.einsum(contract, b.Q, left[r - 1] @ P[2][s - 1]))
    return out


def test_q_cofactor_grids_bit_identical_to_per_entry_reference(rng):
    """The batched grids give every entry of the per-entry contraction, bit for bit.

    Physical states, and every two-zero pattern rotated at three scales,
    including the entries that vanish on the orbit and carry only rounding.
    """
    slots = [(v, i) for v in "abg" for i in range(3)]
    tensors = [physical_bloch(rng) for _ in range(20)]
    for pair in itertools.combinations(slots, 2):
        b = act(zeroed_tensor(rng, pair), LocalRotation.random(rng))
        tensors += [BlochTensor.from_components(scale * b.components())
                    for scale in (0.08, 1.0, 3.0)]
    assert len(tensors) == 20 + 36 * 3
    for b in tensors:
        ref = per_entry_q_cofactor_grids(b)
        got = all_invariants(b).take(list(ref))
        assert np.array_equal(got, np.array(list(ref.values()))), list(ref)


def test_extras_closed_form_at_canonical_point(rng):
    """With X diagonal and alpha_3 = 0 the cofactor collapses to one term."""
    for _ in range(10):
        b = zeroed_tensor(rng, [("a", 2)])
        x2 = np.diag(gram(b.Q).X)
        pref = b.alpha[0] * b.alpha[1] * (x2[1] - x2[0])
        Y, Z = gram(b.Q).Y, gram(b.Q).Z
        powers = lambda m: [np.eye(3), m, m @ m]
        Yp, Zp = powers(Y), powers(Z)
        extras = dict(single_zero_extras(b, "a").entries)
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                w = np.einsum("jk,j,k->", b.Q[2], Yp[r - 1] @ b.beta, Zp[s - 1] @ b.gamma)
                assert abs(extras[f"tri:a,Qbg:r={r},s={s}"] - pref * w) < 1e-10 * max(1, abs(pref * w))


def test_extras_of_each_vector_are_the_alpha_extras_after_relabeling(rng):
    for _ in range(20):
        b = physical_bloch(rng)
        for vec, perm in (("a", (0, 1, 2)), ("b", (1, 0, 2)), ("g", (2, 0, 1))):
            direct = single_zero_extras(b, vec).values
            relabeled = single_zero_extras(b.permute(perm), "a").values
            assert np.max(np.abs(direct - relabeled)) <= 1e-14 * np.max(np.abs(direct))


def test_all_invariants_are_rotation_invariant(rng):
    for _ in range(30):
        b = physical_bloch(rng)
        base = all_invariants(b).values
        rot = LocalRotation.random(rng)
        vals = all_invariants(act(b, rot)).values
        assert np.all(np.abs(vals - base) <= 1e-12 + 1e-8 * np.maximum(np.abs(vals), np.abs(base)))


def test_q_trilinear_dual_routes_agree(rng):
    for _ in range(100):
        b = random_bloch(rng)
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                for t in (1, 2, 3):
                    d = abs(q_trilinear(b, r, s, t) - q_trilinear_flat(b, r, s, t))
                    assert d < 1e-12 * max(1.0, abs(q_trilinear(b, r, s, t)))


def test_q_trilinear_matches_generic_entry(rng):
    b = random_bloch(rng)
    fp = generic_fingerprint(b)
    for r in (1, 2, 3):
        for t in (1, 2, 3):
            assert abs(fp.get(f"Q:r={r},s=2,t={t}") - q_trilinear(b, r, 2, t)) < 1e-10


def test_fingerprint_get_and_dict_round_trip(rng):
    b = random_bloch(rng)
    fp = generic_fingerprint(b)
    assert fp.get("trX^1") == fp.values[0]
    with pytest.raises(KeyError):
        fp.get("no-such-invariant")
    again = Fingerprint.from_dict(fp.to_dict())
    assert again.orbit_class == fp.orbit_class
    assert again.names == fp.names
    assert np.array_equal(again.values, fp.values)


def test_first_mismatch_finds_perturbed_entry(rng):
    b = physical_bloch(rng)
    fp1 = generic_fingerprint(b)
    fp2 = generic_fingerprint(b)
    assert first_mismatch(fp1, fp2) is None
    fp2 = perturbed(fp2, {40: 1.0})
    name, v1, v2 = first_mismatch(fp1, fp2)
    assert name == fp2.names[40]
    assert abs((v2 - v1) - 1.0) < 1e-12
    fp3 = from_pairs([("other", 0.0)], "generic")
    with pytest.raises(ValueError):
        first_mismatch(fp1, fp3)


def reference_first_mismatch(fp1, fp2, tol_abs, tol_rel):
    """The entry-by-entry loop that first_mismatch replaces."""
    if fp1.names != fp2.names:
        raise ValueError("different names")
    for (name, v1), (_, v2) in zip(fp1.entries, fp2.entries):
        if abs(v1 - v2) > tol_abs + tol_rel * max(abs(v1), abs(v2)):
            return name, v1, v2
    return None


def perturbed(fp, changes):
    values = fp.values.copy()
    for i, delta in changes.items():
        values[i] += delta
    return Fingerprint(fp.orbit_class, fp.names, values)


def from_pairs(entries, tag="x"):
    return Fingerprint.from_dict({"class": tag, "entries": entries})


def test_first_mismatch_matches_reference_loop(rng):
    fp = all_invariants(physical_bloch(rng))
    tols = (1e-9, 1e-8)
    cases = [{}, {17: 1e-3}, {250: 1e-6}, {40: 1e-5, 41: 1e-2, 300: 1.0}]
    for _ in range(100):   # one to five changes, at a scale below, near or above the tolerance
        idx = rng.choice(len(fp), size=rng.integers(1, 6), replace=False)
        scale = rng.choice([1e-12, 1e-7, 1.0])
        cases.append({int(i): float(scale * rng.normal()) for i in idx})
    found = []
    for changes in cases:
        other = perturbed(fp, changes)
        got = first_mismatch(fp, other, *tols)
        assert got == reference_first_mismatch(fp, other, *tols)
        found.append(got is not None)
    assert 20 < sum(found) < len(found) - 20
    # several failing entries: the first wins, not the largest
    name, v1, v2 = first_mismatch(fp, perturbed(fp, {40: 1e-5, 41: 1e-2, 300: 1.0}), *tols)
    assert name == fp.entries[40][0] and (v1, v2) == (fp.entries[40][1], fp.entries[40][1] + 1e-5)


def test_first_mismatch_rejects_non_finite_entries():
    """A NaN or infinite entry neither passes nor is a witness, unless a
    failing finite entry comes first; numpy warns of nothing on the way."""
    for v1, v2 in ((np.inf, -np.inf), (np.nan, 1.0), (np.inf, np.inf), (1.0, np.inf),
                   (np.nan, np.nan)):
        with pytest.raises(ValueError, match="q is not finite"):
            first_mismatch(from_pairs([("p", 1.0), ("q", v1)]), from_pairs([("p", 1.0), ("q", v2)]))
    inf = from_pairs([("p", 1.0), ("q", np.inf)])
    assert first_mismatch(inf, from_pairs([("p", 2.0), ("q", np.nan)])) == ("p", 1.0, 2.0)
    # finite values whose difference overflows still differ
    assert first_mismatch(from_pairs([("p", 1e308)]), from_pairs([("p", -1e308)])) == \
        ("p", 1e308, -1e308)


def test_first_mismatch_boundary_and_names():
    # dyadic values: |a - b| equals tol_abs + tol_rel * max(|a|, |b|) exactly, which passes
    at = from_pairs([("p", 1.0), ("q", -3.0)])
    for other, want in (([("p", 2.0), ("q", -3.0)], None),
                        ([("p", 2.0), ("q", -3.0 - 2.0 ** -40)], None),
                        ([("p", 2.0 + 2.0 ** -51), ("q", -3.0)], ("p", 1.0, 2.0 + 2.0 ** -51)),
                        ([("p", 1.0), ("q", -5.5)], ("q", -3.0, -5.5))):
        fp = from_pairs(other)
        assert first_mismatch(at, fp, 0.5, 0.25) == want
        assert reference_first_mismatch(at, fp, 0.5, 0.25) == want
    empty = from_pairs([])
    assert first_mismatch(empty, empty) is None
    for names in (["p", "r"], ["q", "p"], ["p"], ["p", "q", "r"]):
        with pytest.raises(ValueError):
            first_mismatch(at, from_pairs([(n, 1.0) for n in names]))


def test_first_mismatch_validates_tolerances(rng):
    """A bound that is NaN, infinite or negative would make a fingerprint differ
    from itself, and a bool or a string is not a number; zero is a valid bound."""
    fp = all_invariants(physical_bloch(rng))
    for name in ("tol_abs", "tol_rel"):
        for bad in (-1.0, float("nan"), float("inf"), True, False, np.True_, "1e-9", None):
            with pytest.raises(ValueError, match=name):
                first_mismatch(fp, fp, **{name: bad})
    assert first_mismatch(fp, fp, tol_abs=0.0, tol_rel=0.0) is None


def test_single_zero_extras_rejects_unknown_vector(rng):
    with pytest.raises(ValueError, match="vector must be one of"):
        single_zero_extras(physical_bloch(rng), "x")
