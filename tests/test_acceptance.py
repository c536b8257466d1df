"""Acceptance gate: the headline guarantees, one printed verdict per test.

Each test exercises one contract end to end at its stated tolerance and
prints a single PASS/FAIL line, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist.  Tolerances here are the shipped ones; loosening them
is a contract change, not a test fix.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np

from dilations.builders import (build_n_dilation, build_simultaneous_n_dilation,
                                compress_word, compressed_power,
                                ConvexCombination, rationalize_family,
                                shift_dilation, verify_dilation, zero_augment,
                                zero_augment_targets)
from dilations.cli import run
from dilations.cyclic import (check_orbit_identity, double_coset_count,
                              lhs_word_sum, orbit_partition, rhs_word_sum)
from dilations.hull import (SUBCONVEX, hull_membership, permutation_generators,
                            positive_isometry_scan, snap_matrix)
from dilations.isometries import all_signed_permutations, decompose_contraction
from dilations.linalg import OperatorMatrix, PNorm
from dilations.schaffer import cross_validate

F = Fraction
GRID_PS = (PNorm(F(2)), PNorm(F(3)), PNorm(F(3, 2)))


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} {name}{suffix}")
    return ok


def _rand_weights(m: int, rng: random.Random) -> tuple[Fraction, ...]:
    raw = [rng.randint(1, 9) for _ in range(m)]
    return tuple(F(a, sum(raw)) for a in raw)


def test_exact_certification_grid():
    """Every (m, N, d, p) cell, 20 seeded draws, residual identically 0."""
    start = time.perf_counter()
    pools = {d: all_signed_permutations(d) for d in (1, 2, 3)}
    cells = failures = 0
    for m, N, d in itertools.product((1, 2, 3), (1, 2, 3, 4), (1, 2, 3)):
        for p in GRID_PS:
            cells += 1
            for draw in range(20):
                rng = random.Random(f"{m}-{N}-{d}-{p.p}-{draw}")
                isos = tuple(rng.choice(pools[d]).matrix() for _ in range(m))
                combo = ConvexCombination(isos, _rand_weights(m, rng))
                triple = build_n_dilation(combo, N, p)
                report = verify_dilation(triple, {"T": combo.operator()}, N)
                if not (report.passed and report.max_residual == 0.0):
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    assert _verdict("exact-certification-grid", ok,
                    f"{cells} cells x 20 draws, {elapsed:.1f}s")


def test_simultaneous_families():
    """Shared-pool families, common m <= 6, all words up to N exact."""
    start = time.perf_counter()
    eye = OperatorMatrix.identity(2)
    swap = OperatorMatrix([[0, 1], [1, 0]])
    neg = OperatorMatrix([[-1, 0], [0, 1]])
    fam3 = rationalize_family({
        "A": ConvexCombination((eye, swap), (F(1, 2), F(1, 2))),
        "B": ConvexCombination((swap, neg), (F(1, 3), F(2, 3))),
        "C": ConvexCombination((eye, neg), (F(1, 6), F(5, 6))),
    }, 3)
    assert all(c.m == 6 for c in fam3.values())
    ok = True
    for N in (1, 2, 3):
        triple = build_simultaneous_n_dilation(fam3, N, PNorm(F(3)))
        targets = {k: v.operator() for k, v in fam3.items()}
        report = verify_dilation(triple, targets, N)
        ok = ok and report.passed and report.max_residual == 0.0

    rot3 = OperatorMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    fam2 = rationalize_family({
        "A": ConvexCombination((OperatorMatrix.identity(3), rot3),
                               (F(1, 2), F(1, 2))),
        "B": ConvexCombination((rot3, rot3 @ rot3), (F(1, 4), F(3, 4))),
    }, 2)
    assert all(c.m == 4 for c in fam2.values())
    triple = build_simultaneous_n_dilation(fam2, 2, PNorm(F(3, 2)))
    targets = {k: v.operator() for k, v in fam2.items()}
    report = verify_dilation(triple, targets, 2)
    ok = ok and report.passed and report.max_residual == 0.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _verdict("simultaneous-families", ok, f"{elapsed:.1f}s")


def test_word_sum_identities():
    """Shift-averaging identities, orbit refinements, and counting facts."""
    failures = []
    for m in (1, 2, 3):
        for N in (1, 2, 3, 4, 5):
            rng = random.Random(1000 * m + N)
            for _ in range(10):
                w = list(_rand_weights(m, rng))
                for n in range(N + 1):
                    if lhs_word_sum(m, N, n, w) != rhs_word_sum(m, N, n, w):
                        failures.append(("weighted", m, N, n))
            for orbit in orbit_partition(m, N).orbits:
                for n in range(N + 1):
                    if not check_orbit_identity(orbit, n):
                        failures.append(("orbit", m, N, n))
    for N in range(1, 9):
        if not double_coset_count(N).uniform:
            failures.append(("fibres", N))
        for m in (1, 2, 3):
            part = orbit_partition(m, N)
            for orbit in part.orbits:
                if N % orbit.size or orbit.size * orbit.stabilizer_size != N:
                    failures.append(("stabilizer", m, N))
            if part.total != m ** N:
                failures.append(("partition", m, N))
    assert _verdict("word-sum-identities", not failures,
                    f"{len(failures)} failures" if failures else "exhaustive")


def test_zero_augmentation_words():
    """Words with the zero label vanish exactly; the rest multiply out."""
    swap = OperatorMatrix([[0, 1], [1, 0]])
    neg = OperatorMatrix([[-1, 0], [0, 1]])
    rot = OperatorMatrix([[0, -1], [1, 0]])
    zero = OperatorMatrix.zeros(2, 2)
    families = ({"A": swap}, {"A": swap, "B": neg},
                {"A": swap, "B": neg, "C": rot})
    bad = 0
    for members in families:
        targets = zero_augment_targets(members)
        labels = tuple(members) + ("0",)
        for N in (1, 2, 3, 4):
            triple = zero_augment(members, N, PNorm(F(3)))
            for n in range(N + 1):
                for word in itertools.product(labels, repeat=n):
                    got = compress_word(triple, word)
                    if "0" in word:
                        want = zero
                    else:
                        want = OperatorMatrix.identity(2)
                        for lbl in word:
                            want = want @ targets[lbl]
                    if got != want:
                        bad += 1
    assert _verdict("zero-augmentation-words", bad == 0,
                    f"{bad} mismatches" if bad else "all words exact")


def test_shift_dilation_contractions():
    """20 random l^1 contractions: exact powers, U an isometry, Q contractive."""
    bad = []
    for seed in range(20):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        W = rng.randint(1, 6)
        T = OperatorMatrix([[F(rng.randint(-3, 3), rng.randint(4, 9))
                             for _ in range(d)] for _ in range(d)])
        nrm = T.one_norm()
        if nrm > 1:
            T = T.scale(F(1) / nrm)       # exact rescale, lands on the sphere
        triple = shift_dilation(T, W)
        u, q = triple.U_family["T"].to_matrix(), triple.Q.to_matrix()
        if any(compressed_power(triple, n) != T.power(n) for n in range(W + 1)):
            bad.append(("powers", seed))
        cols_ok = all(
            sorted(u[i, j] for i in range(u.rows)) == [0] * (u.rows - 1) + [1]
            for j in range(u.cols))
        if not (cols_ok and u @ u.transpose() == OperatorMatrix.identity(u.rows)
                and u.power(W + 1) == OperatorMatrix.identity(u.rows)):
            bad.append(("isometry", seed))
        if any(sum(abs(q[i, j]) for i in range(q.rows)) > 1
               for j in range(q.cols)):
            bad.append(("readout", seed))
    assert _verdict("shift-dilation-contractions", not bad,
                    f"failing seeds {bad}" if bad else "20 seeds exact")


def test_hilbert_pipeline():
    """Decomposition and both dilation routes agree on 100 contractions."""
    start = time.perf_counter()
    bad = 0
    for i in range(100):
        rng = np.random.default_rng(i)
        d = 1 + i % 4
        a = rng.standard_normal((d, d))
        T = OperatorMatrix(0.95 * a / np.linalg.svd(a)[1][0])
        decomp = decompose_contraction(T)
        recon = decomp.reconstruct()
        if np.max(np.abs(recon.to_ndarray() - T.to_ndarray())) > 1e-9:
            bad += 1
            continue
        if abs(sum(decomp.weights) - 1.0) > 1e-12:
            bad += 1
            continue
        report = cross_validate(T, 3)
        if report.max_oracle > 1e-9 or report.max_decomposition > 1e-6:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 30.0
    assert _verdict("hilbert-pipeline", ok, f"100 draws, {elapsed:.1f}s")


def test_positive_scan_and_hull_obstruction(tmp_path):
    """Positive isometries are permutations; the snapped root matrix is
    certified outside the subconvex permutation hull while the half-half
    matrix is certified inside with weights (1/2, 1/2)."""
    ok = True
    for p in (PNorm(F(3)), PNorm(F(3, 2))):
        for d in (1, 2, 3, 4):
            ok = ok and positive_isometry_scan(d, p).matches_permutations

    s = 2.0 ** (-2.0 / 3.0)          # 2^(-1/q) for p = 3
    T, snap_err = snap_matrix(OperatorMatrix(np.array([[s, s], [0.0, 0.0]])))
    gens, names = permutation_generators(2)
    res = hull_membership(T, gens, mode=SUBCONVEX, names=names)
    ok = ok and snap_err < 1e-9 and not res.member
    ok = ok and res.certificate.verify(T, gens, SUBCONVEX)
    # the certificate reflects (T e)_1 = 2^(1/3) > 1 on the all-ones vector
    ok = ok and T[0, 0] + T[0, 1] > 1
    ok = ok and float(res.certificate.violation) > 0

    mat = tmp_path / "half.json"
    mat.write_text(json.dumps({"rows": 2, "cols": 2,
                               "data": [["1/2", "1/2"], ["1/2", "1/2"]]}))
    out = tmp_path / "report.json"
    code = run(["hull-check", "--matrix", str(mat), "--generators", "perms",
                "--out", str(out)])
    doc = json.loads(out.read_text())
    membership = doc["provenance"]["membership"]
    ok = ok and code == 0 and membership["status"] == "member"
    ok = ok and membership["coefficients"] == {"id": "1/2", "swap": "1/2"}

    snap = tmp_path / "root.json"
    snap.write_text(json.dumps({"rows": 2, "cols": 2,
                                "data": [[s, s], [0.0, 0.0]]}))
    out2 = tmp_path / "root_report.json"
    code2 = run(["hull-check", "--matrix", str(snap), "--generators", "perms",
                 "--mode", "subconvex", "--out", str(out2)])
    doc2 = json.loads(out2.read_text())
    ok = ok and code2 == 0
    ok = ok and doc2["provenance"]["membership"]["status"] == "non-member"
    assert _verdict("positive-scan-and-hull-obstruction", ok)


def test_contract_boundary():
    """N-dilations are not dilations: one step past N the equality breaks,
    while every M <= N still verifies exactly."""
    eye = OperatorMatrix.identity(2)
    swap = OperatorMatrix([[0, 1], [1, 0]])
    combo = ConvexCombination((eye, swap), (F(1, 2), F(1, 2)))
    T = combo.operator()               # idempotent, T^2 = T
    triple = build_n_dilation(combo, 1, PNorm(F(3)))
    breaks = compressed_power(triple, 2) != T.power(2)

    seeded_break = False
    pool = all_signed_permutations(2)
    for seed in range(5):
        rng = random.Random(seed)
        a, b = rng.sample(range(len(pool)), 2)
        c = ConvexCombination((pool[a].matrix(), pool[b].matrix()),
                              (F(1, 3), F(2, 3)))
        t = build_n_dilation(c, 2, PNorm(F(3)))
        if compressed_power(t, 3) != c.operator().power(3):
            seeded_break = True

    mono = True
    triple3 = build_n_dilation(combo, 3, PNorm(F(3)))
    for M in range(4):
        report = verify_dilation(triple3, {"T": T}, M)
        mono = mono and report.passed and report.max_residual == 0.0
    ok = breaks and seeded_break and mono
    assert _verdict("contract-boundary", ok)
