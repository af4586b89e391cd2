"""Invariant families: enumeration freeze, oracles, rotation invariance."""

import numpy as np
import pytest

from lu3q import (Fingerprint, LocalRotation, act, all_invariants,
                  first_mismatch, generic_fingerprint, gram, q_trilinear,
                  q_trilinear_flat, sign_resolution, single_zero_extras,
                  squared_family)
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
    assert fp.names() == expected_generic_names()
    assert len(fp) == 75
    for vec in "abg":
        assert [n for n, _ in single_zero_extras(b, vec)] == expected_extras_names(vec)
    assert [n for n, _ in squared_family(b)] == expected_squared_names()
    assert [n for n, _ in sign_resolution(b)] == expected_sign_names()
    all_names = [n for n, _ in all_invariants(b)]
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
            sq = dict(squared_family(b, grams))
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
    sg = dict(sign_resolution(b))
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
        every = dict(all_invariants(b))
        for grams in (None, gram(random_bloch(rng).Q)):
            sg = dict(sign_resolution(b, grams))
            ex = dict(single_zero_extras(b, "a", grams) + single_zero_extras(b, "b", grams))
            for sign, extra in shared:
                assert every[sign] == every[extra], (sign, extra)
                assert sg[sign] == ex[extra], (sign, extra, grams is None)


def test_extras_closed_form_at_canonical_point(rng):
    """With X diagonal and alpha_3 = 0 the cofactor collapses to one term."""
    for _ in range(10):
        b = zeroed_tensor(rng, [("a", 2)])
        x2 = np.diag(gram(b.Q).X)
        pref = b.alpha[0] * b.alpha[1] * (x2[1] - x2[0])
        Y, Z = gram(b.Q).Y, gram(b.Q).Z
        powers = lambda m: [np.eye(3), m, m @ m]
        Yp, Zp = powers(Y), powers(Z)
        extras = dict(single_zero_extras(b, "a"))
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                w = np.einsum("jk,j,k->", b.Q[2], Yp[r - 1] @ b.beta, Zp[s - 1] @ b.gamma)
                assert abs(extras[f"tri:a,Qbg:r={r},s={s}"] - pref * w) < 1e-10 * max(1, abs(pref * w))


def test_extras_of_each_vector_are_the_alpha_extras_after_relabeling(rng):
    for _ in range(20):
        b = physical_bloch(rng)
        for vec, perm in (("a", (0, 1, 2)), ("b", (1, 0, 2)), ("g", (2, 0, 1))):
            direct = np.array([v for _, v in single_zero_extras(b, vec)])
            relabeled = np.array([v for _, v in single_zero_extras(b.permute(perm), "a")])
            assert np.max(np.abs(direct - relabeled)) <= 1e-14 * np.max(np.abs(direct))


def test_all_invariants_are_rotation_invariant(rng):
    for _ in range(30):
        b = physical_bloch(rng)
        base = np.array([v for _, v in all_invariants(b)])
        rot = LocalRotation.random(rng)
        vals = np.array([v for _, v in all_invariants(act(b, rot))])
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
    assert fp.get("trX^1") == fp.values()[0]
    with pytest.raises(KeyError):
        fp.get("no-such-invariant")
    again = Fingerprint.from_dict(fp.to_dict())
    assert again.orbit_class == fp.orbit_class
    assert again.names() == fp.names()
    assert np.array_equal(again.values(), fp.values())


def test_first_mismatch_finds_perturbed_entry(rng):
    b = physical_bloch(rng)
    fp1 = generic_fingerprint(b)
    fp2 = generic_fingerprint(b)
    assert first_mismatch(fp1, fp2) is None
    fp2.entries[40] = (fp2.entries[40][0], fp2.entries[40][1] + 1.0)
    name, v1, v2 = first_mismatch(fp1, fp2)
    assert name == fp2.entries[40][0]
    assert abs((v2 - v1) - 1.0) < 1e-12
    fp3 = Fingerprint("generic", [("other", 0.0)])
    with pytest.raises(ValueError):
        first_mismatch(fp1, fp3)
