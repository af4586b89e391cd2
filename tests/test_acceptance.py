"""Acceptance gate: one checked claim per test, one [PASS]/[FAIL] line each."""

import itertools
import time

import numpy as np

from lu3q import (LocalRotation, act, all_invariants, canonicalize, conjugate,
                  decompose, equivalent, example_state, flatten,
                  full_fingerprint, first_mismatch, haar_su2, min_eigenvalue,
                  q_trilinear, q_trilinear_flat, random_mixed, reconstruct,
                  recover_two_zero, refold, solve_single_zero,
                  vandermonde_system)
from lu3q.cli import main
from conftest import (physical_bloch, random_bloch, record_acceptance,
                      zeroed_tensor)


def check(name, condition, detail=""):
    tagline = f"[PASS] {name}" if condition else f"[FAIL] {name}  {detail}"
    record_acceptance(tagline)
    print(tagline)
    assert condition, tagline


C_GRID = [s * (0.01 + 0.04 * k) for k in range(8) for s in (1.0, -1.0)]


def test_1_family_line_pairs_equivalent(tmp_path):
    start = time.perf_counter()
    worst = 0.0
    exits = []
    for c in sorted(C_GRID):
        rho1, rho2 = example_state(0.1, 0.0, c), example_state(-0.1, 0.0, c)
        cf1, cf2 = canonicalize(decompose(rho1)), canonicalize(decompose(rho2))
        fp1 = full_fingerprint(cf1.tensor, cf1.orbit_class)
        fp2 = full_fingerprint(cf2.tensor, cf2.orbit_class)
        diff = first_mismatch(fp1, fp2, tol_abs=1e-9, tol_rel=0.0)
        if diff is not None:
            worst = max(worst, abs(diff[1] - diff[2]))
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["example", "--a", "0.1", "--c", repr(c), "--out", str(f1)])
        main(["example", "--a", "-0.1", "--c", repr(c), "--out", str(f2)])
        exits.append(main(["compare", str(f1), str(f2), "--out", str(tmp_path / "v.json")]))
    elapsed = time.perf_counter() - start
    check("1: rho(0.1,0,c) ~ rho(-0.1,0,c) on the c-grid: fingerprints agree "
          "at 1e-9, compare exits 0, under 1 s",
          worst == 0.0 and all(e == 0 for e in exits) and elapsed < 1.0,
          f"worst={worst:.2e} exits={sorted(set(exits))} elapsed={elapsed:.3f}s")


def test_2_family_positivity_grid():
    lows = [min_eigenvalue(example_state(a, 0.0, c))
            for c in np.linspace(-0.3, 0.3, 61) for a in (0.1, -0.1)]
    check("2: min eigenvalue of rho(+-0.1,0,c) >= -1e-12 on the 61-point c-grid",
          min(lows) >= -1e-12, f"min={min(lows):.3e}")


def test_3_invariance_and_soundness_500_trials():
    rng = np.random.default_rng(3)
    worst = 0.0
    verdicts = set()
    for _ in range(500):
        rho = random_mixed(rng)
        b = decompose(rho)
        u1, u2, u3 = haar_su2(rng), haar_su2(rng), haar_su2(rng)
        b2 = act(b, LocalRotation.from_su2(u1, u2, u3))
        v1 = all_invariants(b).values
        v2 = all_invariants(b2).values
        rel = np.abs(v1 - v2) / np.maximum(1e-4, np.maximum(np.abs(v1), np.abs(v2)))
        ok = np.abs(v1 - v2) <= np.maximum(1e-12, 1e-8 * np.maximum(np.abs(v1), np.abs(v2)))
        worst = max(worst, float(rel.max())) if not ok.all() else worst
        if not ok.all():
            break
        verdicts.add(equivalent(rho, conjugate(rho, u1, u2, u3)).verdict)
    check("3: 500 random state x random rotation trials leave all 339 "
          "invariants fixed (rel 1e-8, floor 1e-12) and never decide inequivalent",
          worst == 0.0 and "inequivalent" not in verdicts,
          f"worst rel={worst:.2e} verdicts={sorted(verdicts)}")


def test_4_conjugation_oracle_and_homomorphism():
    rng = np.random.default_rng(4)
    worst_oracle = 0.0
    for _ in range(200):
        rho = random_mixed(rng)
        b = decompose(rho)
        u1, u2, u3 = haar_su2(rng), haar_su2(rng), haar_su2(rng)
        b_direct = act(b, LocalRotation.from_su2(u1, u2, u3))
        b_oracle = decompose(conjugate(rho, u1, u2, u3))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(
            b_direct.components() - b_oracle.components()))))
    worst_hom = 0.0
    for _ in range(200):
        u, v = haar_su2(rng), haar_su2(rng)
        prod = LocalRotation.from_su2(u @ v, np.eye(2), np.eye(2)).L
        split = (LocalRotation.from_su2(u, np.eye(2), np.eye(2)).L
                 @ LocalRotation.from_su2(v, np.eye(2), np.eye(2)).L)
        worst_hom = max(worst_hom, float(np.max(np.abs(prod - split))))
    check("4: conjugation oracle matches the adjoint action to 1e-10 over 200 "
          "trials; adjoint is a homomorphism to 1e-10 over 200 pairs",
          worst_oracle < 1e-10 and worst_hom < 1e-10,
          f"oracle={worst_oracle:.2e} hom={worst_hom:.2e}")


def test_5_codec_round_trip():
    rng = np.random.default_rng(5)
    worst = 0.0
    folds_exact = True
    for k in range(100):
        rho = random_mixed(rng, rank=1 + k % 8)
        b = decompose(rho)
        worst = max(worst, float(np.max(np.abs(reconstruct(b) - rho))))
        for axis in (1, 2, 3):
            folds_exact &= np.array_equal(refold(flatten(b.Q, axis), axis), b.Q)
    check("5: reconstruct(decompose(rho)) = rho to 1e-12 on 100 random "
          "densities; flatten/refold bit-exact",
          worst < 1e-12 and folds_exact, f"worst={worst:.2e} exact={folds_exact}")


def test_6_trilinear_dual_route():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        b = physical_bloch(rng)
        for r, s, t in itertools.product((1, 2, 3), repeat=3):
            worst = max(worst, abs(q_trilinear(b, r, s, t) - q_trilinear_flat(b, r, s, t)))
    check("6: trilinear sum form and flattened Kronecker form agree to 1e-12 "
          "on 100 state tensors for all 27 exponent triples",
          worst < 1e-12, f"worst={worst:.2e}")


def test_7_reconstruction_desk_scale():
    rng = np.random.default_rng(7)
    worst_single = 0.0
    n_single = 0
    while n_single < 100:
        vec = "abg"[rng.integers(3)]
        slot = int(rng.integers(3))
        cf = canonicalize(zeroed_tensor(rng, [(vec, slot)]))
        vsys = vandermonde_system(cf)
        if (abs(np.linalg.det(vsys.Lambda @ vsys.F)) < 1e-3
                or abs(np.linalg.det(vsys.Theta @ vsys.G)) < 1e-3):
            continue
        n_single += 1
        sol = solve_single_zero(full_fingerprint(cf.tensor, cf.orbit_class), cf)
        t, p = cf.tensor, slot
        truth = {"a": (t.R[p, :], t.S[p, :], t.Q[p, :, :]),
                 "b": (t.R[:, p], t.T[p, :], t.Q[:, p, :]),
                 "g": (t.S[:, p], t.T[:, p], t.Q[:, :, p])}[vec]
        worst_single = max(worst_single,
                           float(np.max(np.abs(sol.first - truth[0]))),
                           float(np.max(np.abs(sol.second - truth[1]))),
                           float(np.max(np.abs(sol.q_slab - truth[2]))))

    def entry(t, key):
        name, idx = key.split("[")
        ids = tuple(int(x) - 1 for x in idx.rstrip("]").split(","))
        return float(getattr(t, name)[ids])

    cases = ([("a", "b")] * 20 + [("a", "g")] * 8 + [("b", "g")] * 7
             + [(v, v) for v in "abg" for _ in range(5)])
    worst_sq = 0.0
    signs_ok = True
    for v1, v2 in cases:
        if v1 == v2:
            i, j = sorted(rng.choice(3, size=2, replace=False))
            slots = [(v1, int(i)), (v1, int(j))]
        else:
            slots = [(v1, int(rng.integers(3))), (v2, int(rng.integers(3)))]
        cf = canonicalize(zeroed_tensor(rng, slots))
        fp = full_fingerprint(cf.tensor, cf.orbit_class)
        rec = recover_two_zero(fp, cf)
        for key, value in rec.squares.items():
            worst_sq = max(worst_sq, abs(value - entry(cf.tensor, key[:-2]) ** 2))
        if (v1, v2) == ("a", "b"):
            sgn_mag = max(abs(v) for n, v in fp.entries if n.startswith("sgn:"))
            if sgn_mag > 1e-6:
                for g in rec.groups:
                    vals = np.array([g.components[k] for k in g.components])
                    truth = np.array([entry(cf.tensor, k) for k in g.components])
                    signs_ok &= g.resolved and bool(np.max(np.abs(vals - truth)) < 1e-6)
    check("7: 100 well-conditioned single-zero solves recover the hidden "
          "rows and slab to 1e-8; 50 two-zero recoveries reproduce squares to "
          "1e-8 and resolve signs when the sign invariants exceed 1e-6",
          worst_single < 1e-8 and worst_sq < 1e-8 and signs_ok,
          f"single={worst_single:.2e} squares={worst_sq:.2e} signs_ok={signs_ok}")


def test_8_separation_witness_and_perturbations():
    v = equivalent(example_state(0.1, 0.0, 0.1), example_state(0.1, 0.0, 0.2))
    named = v.verdict == "inequivalent" and bool(v.witness)
    rng = np.random.default_rng(8)
    b = physical_bloch(rng)
    rho = reconstruct(b)
    all_detected = True
    for i in range(63):
        comps = b.components()
        comps[i] += 1e-3
        vi = equivalent(rho, reconstruct(type(b).from_components(comps)))
        all_detected &= vi.verdict == "inequivalent"
    check("8: rho(0.1,0,0.1) vs rho(0.1,0,0.2) inequivalent with a named "
          "witness; every single-component 1e-3 perturbation detected",
          named and all_detected,
          f"verdict={v.verdict} witness={v.witness} all_detected={all_detected}")


def test_9_flattening_covariance_laws():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        b = random_bloch(rng)
        g = LocalRotation.random(rng)
        q2 = act(b, g).Q
        pairs = ((1, g.L, np.kron(g.M, g.N)), (2, g.M, np.kron(g.L, g.N)),
                 (3, g.N, np.kron(g.L, g.M)))
        for axis, left, right in pairs:
            law = left @ flatten(b.Q, axis) @ right.T
            worst = max(worst, float(np.max(np.abs(flatten(q2, axis) - law))))
    check("9: all three flattenings obey their covariance laws to 1e-12 "
          "over 100 random trials",
          worst < 1e-12, f"worst={worst:.2e}")
