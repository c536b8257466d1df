import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilations import builders
from dilations.builders import (INFINITE_GUARANTEE, BlockDiagonalOperator,
                                ConvexCombination, FirstBlockMap, ScaledBlockMap,
                                build_n_dilation,
                                build_simultaneous_n_dilation, check_word,
                                compress_word,
                                compressed_power, rationalize_family,
                                rationalize_weights, shift_dilation,
                                trivial_dilation, verify_dilation,
                                zero_augment, zero_augment_targets)
from dilations.cyclic import enumerate_indices
from dilations.isometries import all_signed_permutations
from dilations.linalg import (EXACT, FLOAT64, ModeError, OperatorMatrix,
                              PNorm, lp_norm, lp_norm_pow_p,
                              operator_residual)

F = Fraction
P3 = PNorm(F(3))
P2 = PNorm(F(2))

I2 = OperatorMatrix.identity(2)
SWAP = OperatorMatrix([[0, 1], [1, 0]])
NEG = OperatorMatrix([[-1, 0], [0, 1]])


def _combo(weights, isos=None, labels=None):
    isos = isos if isos is not None else (I2, SWAP)
    return ConvexCombination(tuple(isos), tuple(weights), labels)


def test_dimension_one_oracle():
    # T = (1/2)(1) + (1/2)(-1) = 0, so Q U J must be the zero operator
    plus = OperatorMatrix([[1]])
    minus = OperatorMatrix([[-1]])
    combo = ConvexCombination((plus, minus), (F(1, 2), F(1, 2)))
    triple = build_n_dilation(combo, 1, P3)
    assert compressed_power(triple, 0) == OperatorMatrix([[1]])
    assert compressed_power(triple, 1) == OperatorMatrix([[0]])


def test_convex_combination_validation():
    with pytest.raises(ValueError):
        _combo((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        _combo((F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError):
        ConvexCombination((I2,), (F(1, 2),))
    dropped = ConvexCombination((I2, SWAP), (F(1), F(0)))
    assert dropped.m == 1


def test_combination_operator():
    combo = _combo((F(1, 3), F(2, 3)))
    op = combo.operator()
    assert op[0, 0] == F(1, 3) and op[0, 1] == F(2, 3)


def test_builder_requires_isometries():
    bad = OperatorMatrix([[F(1, 2), 0], [0, 1]])
    with pytest.raises(ValueError):
        build_n_dilation(ConvexCombination((bad,), (F(1),)), 2, P3)


def test_block_structure_of_u():
    """Each alpha block routes slot k through its isometry into slot k+1."""
    combo = _combo((F(1, 2), F(1, 2)))
    N, d = 3, 2
    triple = build_n_dilation(combo, N, P3)
    u = triple.U_family["T"]
    indices = enumerate_indices(2, N)
    assert u.count == len(indices) == 8
    for alpha, block in zip(indices, u.blocks):
        for k in range(N):
            expect = combo.isometries[alpha.values[k] - 1]
            col = (k + 1) % N
            for i in range(d):
                row = block.row_entries(k * d + i)
                for c in range(N):
                    seg = row[c * d:(c + 1) * d]
                    if c == col:
                        assert seg == expect.row_entries(i)
                    else:
                        assert seg == [0, 0]


def test_n_equals_one_is_block_diagonal():
    combo = _combo((F(1, 4), F(3, 4)))
    triple = build_n_dilation(combo, 1, P3)
    u = triple.U_family["T"]
    assert u.count == 2 and u.size == 2
    assert u.blocks[0] == I2 and u.blocks[1] == SWAP


def test_qj_identity_every_builder():
    combo = _combo((F(1, 6), F(5, 6)))
    t1 = build_n_dilation(combo, 2, P3)
    assert compress_word(t1, ()) == I2

    fam = rationalize_family({"A": _combo((F(1, 2), F(1, 2))),
                              "B": _combo((F(1, 3), F(2, 3)), (NEG, SWAP))}, 2)
    t2 = build_simultaneous_n_dilation(fam, 2, P3)
    assert compress_word(t2, ()) == I2

    t3 = zero_augment({"A": SWAP}, 2, P3)
    assert compress_word(t3, ()) == I2

    t4 = shift_dilation(OperatorMatrix([[F(1, 2)]]), 3)
    assert compress_word(t4, ()) == OperatorMatrix([[1]])

    t5 = trivial_dilation({"A": SWAP}, P3)
    assert compress_word(t5, ()) == I2

    assert all(isinstance(u, BlockDiagonalOperator)
               for t in (t1, t2, t3, t4, t5) for u in t.U_family.values())


def test_embedding_is_isometric_exact():
    for p, weights in ((P3, (F(1, 3), F(2, 3))), (P2, (F(1, 2), F(1, 2)))):
        triple = build_n_dilation(_combo(weights), 2, p)
        j = triple.J
        for x in ([1, 0], [0, 1], [1, 1], [F(1, 2), F(-1, 3)]):
            assert j.image_norm_pow_p(x, p) == lp_norm_pow_p(x, p)


def test_readout_is_contractive_float():
    rng = np.random.default_rng(42)
    triple = build_n_dilation(_combo((F(1, 3), F(2, 3))), 2, P3)
    q = triple.Q.to_matrix()
    big = q.cols
    for _ in range(1000):
        y = rng.standard_normal(big)
        qy = q.to_ndarray() @ y
        assert lp_norm(qy, P3) <= lp_norm(y, P3) + 1e-12


def test_compressed_powers_match_exactly():
    for m, weights in ((2, (F(1, 2), F(1, 2))), (2, (F(1, 5), F(4, 5)))):
        combo = _combo(weights)
        T = combo.operator()
        for N in (1, 2, 3):
            triple = build_n_dilation(combo, N, P3)
            for n in range(N + 1):
                assert compressed_power(triple, n) == T.power(n)


def test_dilation_monotonicity():
    combo = _combo((F(1, 3), F(2, 3)))
    T = combo.operator()
    triple = build_n_dilation(combo, 3, P3)
    for M in range(4):
        report = verify_dilation(triple, {"T": T}, M)
        assert report.passed and report.max_residual == 0.0


def test_failure_beyond_guarantee():
    combo = _combo((F(1, 2), F(1, 2)))
    T = combo.operator()
    triple = build_n_dilation(combo, 1, P3)
    # (I + swap)/2 squares to itself, but the length-2 compression returns I
    got = compressed_power(triple, 2)
    assert got == I2
    assert got != T.power(2)
    report = verify_dilation(triple, {"T": T}, 2)
    assert report.passed           # out-of-contract words don't fail the verdict
    assert report.out_of_contract_requested
    beyond = [c for c in report.checks if not c.in_contract]
    assert beyond and any(not c.passed for c in beyond)


def test_verify_rejects_unknown_label():
    triple = build_n_dilation(_combo((F(1, 2), F(1, 2))), 1, P3)
    with pytest.raises(ValueError):
        verify_dilation(triple, {"X": I2}, 1)
    with pytest.raises(ValueError):
        compress_word(triple, ("X",))


def test_word_cap_sampling_deterministic():
    fam = rationalize_family({"A": _combo((F(1, 2), F(1, 2))),
                              "B": _combo((F(1, 2), F(1, 2)), (NEG, I2))}, 3)
    triple = build_simultaneous_n_dilation(fam, 3, P3)
    targets = {k: v.operator() for k, v in fam.items()}
    r1 = verify_dilation(triple, targets, 3, word_cap=9)
    r2 = verify_dilation(triple, targets, 3, word_cap=9)
    assert len(r1.checks) == 9
    assert [c.word for c in r1.checks] == [c.word for c in r2.checks]
    r3 = verify_dilation(triple, targets, 3, word_cap=9, seed=7)
    assert [c.word for c in r1.checks] != [c.word for c in r3.checks]


def test_trivial_dilation_unbounded_guarantee():
    triple = trivial_dilation({"A": SWAP, "B": NEG}, P3)
    assert triple.n_guarantee == INFINITE_GUARANTEE
    report = verify_dilation(triple, {"A": SWAP, "B": NEG}, 5)
    assert report.passed and not report.out_of_contract_requested


def test_simultaneous_requires_equal_weights():
    fam = {"A": _combo((F(1, 3), F(2, 3)))}
    with pytest.raises(ValueError):
        build_simultaneous_n_dilation(fam, 2, P3)


def test_simultaneous_mixed_words_exact():
    fam = rationalize_family({
        "A": _combo((F(1, 2), F(1, 2))),
        "B": _combo((F(2, 3), F(1, 3)), (NEG, SWAP)),
    }, 2)
    triple = build_simultaneous_n_dilation(fam, 2, P3)
    targets = {k: v.operator() for k, v in fam.items()}
    for word in itertools.chain.from_iterable(
            itertools.product(("A", "B"), repeat=n) for n in range(3)):
        got = compress_word(triple, word)
        want = OperatorMatrix.identity(2)
        for lbl in word:
            want = want @ targets[lbl]
        assert got == want


def test_rationalize_weights_expansion():
    combo = ConvexCombination((I2, SWAP, NEG), (F(1, 2), F(1, 3), F(1, 6)),
                              labels=("A", "B", "C"))
    flat = rationalize_weights(combo)
    assert flat.m == 6
    assert flat.labels == ("A", "A", "A", "B", "B", "C")
    assert all(w == F(1, 6) for w in flat.weights)
    assert flat.operator() == combo.operator()
    with pytest.raises(ValueError):
        rationalize_weights(combo, m_cap=5)


def test_zero_augment_words():
    members = {"A": SWAP, "B": NEG}
    N = 3
    triple = zero_augment(members, N, P3)
    targets = zero_augment_targets(members)
    zero = OperatorMatrix.zeros(2, 2)
    for n in range(N + 1):
        for word in itertools.product(("A", "B", "0"), repeat=n):
            got = compress_word(triple, word)
            if "0" in word:
                assert got == zero
            else:
                want = OperatorMatrix.identity(2)
                for lbl in word:
                    want = want @ targets[lbl]
                assert got == want


def test_zero_augment_guards():
    with pytest.raises(ValueError):
        zero_augment({"0": SWAP}, 2, P3)
    with pytest.raises(ValueError):
        zero_augment({"A": SWAP}, 0, P3)
    with pytest.raises(ValueError):
        zero_augment({}, 2, P3)


def test_zero_augment_breaks_past_window():
    # a word of N+1 zeros wraps around the cycle and comes back nonzero
    triple = zero_augment({"A": SWAP}, 2, P3)
    assert compress_word(triple, ("0",) * 2) == OperatorMatrix.zeros(2, 2)
    assert compress_word(triple, ("0",) * 3) != OperatorMatrix.zeros(2, 2)


def test_shift_dilation_exact_powers():
    T = OperatorMatrix([[F(1, 3), F(1, 3)], [F(1, 3), F(1, 3)]])
    W = 5
    triple = shift_dilation(T, W)
    for n in range(W + 1):
        assert compress_word(triple, ("T",) * n) == T.power(n)
    assert compress_word(triple, ("T",) * (W + 1)) != T.power(W + 1)


def test_shift_dilation_u_is_l1_isometry():
    T = OperatorMatrix([[F(1, 2)]])
    W = 4
    triple = shift_dilation(T, W)
    u = triple.U_family["T"].to_matrix()
    # every column is exactly one basis vector: an invertible l^1 isometry
    for j in range(u.cols):
        col = [u[i, j] for i in range(u.rows)]
        assert sorted(col) == [0] * (u.rows - 1) + [1]
    assert u.power(W + 1) == OperatorMatrix.identity(u.rows)
    assert u.one_norm() == 1


def test_shift_dilation_q_column_contractive():
    T = OperatorMatrix([[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    triple = shift_dilation(T, 4)
    q = triple.Q.to_matrix()
    for j in range(q.cols):
        assert sum(abs(q[i, j]) for i in range(q.rows)) <= 1


def test_shift_dilation_rejects_expanding():
    with pytest.raises(ValueError):
        shift_dilation(OperatorMatrix([[F(3, 2)]]), 2)


def test_float_mode_pipeline():
    theta = 0.4
    rot = OperatorMatrix(np.array([[math.cos(theta), -math.sin(theta)],
                                   [math.sin(theta), math.cos(theta)]]))
    combo = ConvexCombination((rot, rot.transpose()), (F(1, 2), F(1, 2)))
    T = combo.operator()
    triple = build_n_dilation(combo, 2, P2)
    assert triple.mode == FLOAT64
    report = verify_dilation(triple, {"T": T}, 2)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_factored_compress_matches_dense():
    """The factored-base compression agrees with literal Q @ U^n @ J."""
    combo = _combo((F(1, 3), F(2, 3)))
    T = combo.operator()
    triple = build_n_dilation(combo, 2, P3)
    q = triple.Q.to_matrix().to_ndarray()
    j = triple.J.to_matrix().to_ndarray()
    u = triple.U_family["T"].to_matrix().to_ndarray()
    for n in range(3):
        dense = q @ np.linalg.matrix_power(u, n) @ j
        fact = compressed_power(triple, n).to_float().to_ndarray()
        assert np.max(np.abs(dense - fact)) < 1e-12


def test_scaled_block_map_validation():
    with pytest.raises(ValueError):
        ScaledBlockMap("sideways", (F(1, 2),), F(1, 3), 1, 1, EXACT)
    with pytest.raises(ValueError):
        ScaledBlockMap("embed", (F(1, 2),), F(3, 2), 1, 1, EXACT)
    with pytest.raises(ValueError):
        ScaledBlockMap("embed", (F(-1, 2),), F(1, 3), 1, 1, EXACT)


@pytest.mark.parametrize("orientation, reads", [
    ("embed", (I2, SWAP)),                   # only a read-out map reads block rows
    ("readout", (I2,)),                      # one matrix per block
    ("readout", (I2, OperatorMatrix.identity(3))),
    ("readout", (I2, SWAP.to_float())),
])
def test_first_block_map_reads_validation(orientation, reads):
    with pytest.raises(ValueError, match="reads"):
        FirstBlockMap(orientation, 2, 2, EXACT, reads)


def test_block_diagonal_operator_modes():
    blocks = [I2, SWAP]
    exact = BlockDiagonalOperator.from_blocks(blocks)
    fl = BlockDiagonalOperator.from_blocks([I2.to_float(), SWAP.to_float()])
    assert exact.mode == EXACT and fl.mode == FLOAT64
    with pytest.raises(ModeError):
        exact @ fl
    prod = exact @ exact
    assert prod.blocks[1] == OperatorMatrix.identity(2)
    assert operator_residual((fl @ fl).to_matrix(),
                             exact.to_matrix().to_float() @ exact.to_matrix().to_float()) == 0.0
    third = OperatorMatrix([[F(1, 3), F(2, 3)], [0, 1]])
    thirds = BlockDiagonalOperator.from_blocks([third, I2])
    assert (thirds.denominator, thirds.bound) == (3, 3)
    assert thirds.stack.tolist() == [[[1, 2], [0, 3]], [[3, 0], [0, 3]]]
    assert (thirds @ thirds).blocks == [third @ third, I2]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 10 ** 6), st.data())
def test_random_exact_dilations_property(d, N, seed, data):
    rng = random.Random(seed)
    pool = all_signed_permutations(d)
    m = data.draw(st.integers(1, 3))
    isos = tuple(rng.choice(pool).matrix() for _ in range(m))
    raw = [rng.randint(1, 7) for _ in range(m)]
    weights = tuple(F(a, sum(raw)) for a in raw)
    combo = ConvexCombination(isos, weights)
    p = data.draw(st.sampled_from((P3, P2, PNorm(F(3, 2)))))
    triple = build_n_dilation(combo, N, p)
    T = combo.operator()
    for n in range(N + 1):
        assert compressed_power(triple, n) == T.power(n)


# ---------------------------------------------------------------------------
# integer block kernel and prefix walk

R5 = OperatorMatrix([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
R13 = OperatorMatrix([[F(5, 13), F(12, 13)], [F(-12, 13), F(5, 13)]])


def _dense_block_compression(triple, n):
    """Q U^n J summed block by block with OperatorMatrix arithmetic only."""
    j = triple.J
    d, copies = j.dim, j.copies
    out = OperatorMatrix.zeros(d, d)
    for base, block in zip(j.bases, triple.U_family["T"].blocks):
        power = block.power(n)
        for k in range(copies):
            for c in range(copies):
                sub = OperatorMatrix([[power[k * d + i, c * d + jj] for jj in range(d)]
                                      for i in range(d)])
                out = out + sub.scale(base)
    return out


@pytest.mark.parametrize("isos, weights", [
    ((R5, R5.transpose()), (F(1, 3), F(2, 3))),
    ((R13, I2), (F(3, 4), F(1, 4))),
    ((R5, R13, SWAP), (F(1, 6), F(1, 2), F(1, 3))),
])
def test_rational_orthogonal_kernel_matches_oracles(isos, weights):
    combo = ConvexCombination(isos, weights)
    T = combo.operator()
    for N in (1, 2, 3, 4):
        if combo.m ** N * N * N > 400:
            continue
        triple = build_n_dilation(combo, N, P2)
        u = triple.U_family["T"]
        assert u.stack.dtype == np.int64 and u.denominator > 1
        for n in range(N + 1):
            got = compressed_power(triple, n)
            assert got == T.power(n)
            assert got == _dense_block_compression(triple, n)


def test_kernel_past_int64_matches_python_ints():
    # 3^n leaves int64 at n = 40; the stack must be promoted, never wrap
    dense = OperatorMatrix([[3, 0], [1, 2]])
    op = BlockDiagonalOperator.from_blocks([dense])
    acc, want = op, dense
    for _ in range(45):
        acc, want = acc @ op, want @ dense
    assert acc.stack.dtype == object
    assert want[0, 0] == 3 ** 46 > 2 ** 63
    assert acc.blocks[0] == want
    # the whole pipeline: 5^28 R5^28 has numerators past 2^63
    triple = build_n_dilation(ConvexCombination((R5,), (F(1),)), 28, P2)
    assert compressed_power(triple, 28) == R5.power(28)


def test_kernel_entries_are_python_scalars():
    for combo, p in ((_combo((F(1, 3), F(2, 3))), P3),
                     (ConvexCombination((R5, R13), (F(1, 2), F(1, 2))), P2)):
        triple = build_n_dilation(combo, 2, p)
        mats = [compressed_power(triple, n) for n in range(3)]
        mats += triple.U_family["T"].blocks
        for mat in mats:
            for i in range(mat.rows):
                assert all(type(x) in (int, Fraction) for x in mat.row_entries(i))


def _count_block_products(monkeypatch) -> list:
    products = []
    matmul = BlockDiagonalOperator.__matmul__

    def counted(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(BlockDiagonalOperator, "__matmul__", counted)
    return products


def test_single_label_walk_shares_prefixes(monkeypatch):
    products = _count_block_products(monkeypatch)
    N = 5
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, N, P3)
    report = verify_dilation(triple, {"T": combo.operator()}, N)
    assert report.passed and len(report.checks) == N + 1
    assert len(products) <= N


def _three_member_family(N):
    return rationalize_family({"A": _combo((F(1, 2), F(1, 2))),
                               "B": _combo((F(1, 3), F(2, 3)), (NEG, SWAP)),
                               "C": _combo((F(1, 6), F(5, 6)), (SWAP, NEG))}, N)


def test_walk_one_product_per_extension(monkeypatch):
    fam = _three_member_family(3)
    triple = build_simultaneous_n_dilation(fam, 3, P3)
    products = _count_block_products(monkeypatch)
    report = verify_dilation(triple, {k: v.operator() for k, v in fam.items()}, 3)
    assert report.passed and len(report.checks) == 1 + 3 + 9 + 27
    # words of length 0 and 1 need no product, every longer word exactly one
    assert len(products) == 9 + 27


@pytest.mark.parametrize("word_cap", [builders.WORD_CAP, 11])
def test_walk_matches_check_word(word_cap):
    fam = _three_member_family(2)
    triple = build_simultaneous_n_dilation(fam, 2, P3)
    targets = {k: v.operator() for k, v in fam.items()}
    report = verify_dilation(triple, targets, 3, word_cap=word_cap, seed=3)
    words = builders._word_set(list(targets), 3, word_cap, random.Random(3))
    assert len(words) == min(word_cap, 1 + 3 + 9 + 27)
    assert report.checks == tuple(check_word(triple, targets, w, 1e-9) for w in words)
    assert any(not c.passed for c in report.checks if not c.in_contract)


def test_explicit_words_keep_their_order():
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 2, P3)
    targets = {"T": combo.operator()}
    words = [("T", "T"), (), ("T", "T", "T"), ("T",), ("T", "T")]
    report = verify_dilation(triple, targets, words=words)
    assert [c.word for c in report.checks] == words
    assert report.checks == tuple(check_word(triple, targets, w, 1e-9) for w in words)
    assert report.out_of_contract_requested and report.passed
    with pytest.raises(ValueError):
        verify_dilation(triple, targets, 2, words=words)
    with pytest.raises(ValueError):
        verify_dilation(triple, targets, words=[("X",)])


def test_size_cap_before_enumeration(monkeypatch):
    def never(*args):
        raise AssertionError("indices enumerated past the size cap")

    monkeypatch.setattr(builders, "_slot_rows", never)
    with pytest.raises(ValueError, match="over the cap"):
        build_n_dilation(_combo((F(1, 2), F(1, 2))), 22, P3)
    fam = {"A": _combo((F(1, 2), F(1, 2))), "B": _combo((F(1, 2), F(1, 2)), (NEG, SWAP))}
    with pytest.raises(ValueError, match="over the cap"):
        build_simultaneous_n_dilation(fam, 22, P3)


@pytest.mark.parametrize("iso", [SWAP, OperatorMatrix(np.eye(50))],
                         ids=["d2-exact", "d50-float"])
def test_one_term_slot_cap_before_index_arrays(monkeypatch, iso):
    # m = 1 passes the m^N row test for any N, but a compression gathers the
    # N sub-blocks of size d, so N is capped by the bytes of N * d * d entries
    def never(*args):
        raise AssertionError("N-long index arrays made past the slot cap")

    monkeypatch.setattr(builders, "_slot_rows", never)
    monkeypatch.setattr(builders, "_class_keys", never)
    one = _combo((F(1),), (iso,))
    cap = builders.GATHER_BYTES_CAP // (iso.rows ** 2 * 8)
    builds = (build_n_dilation,
              lambda combo, N, p: next(builders.build_n_dilation_parts(combo, N, p)),
              lambda combo, N, p: build_simultaneous_n_dilation({"A": combo}, N, p))
    for build in builds:
        with pytest.raises(ValueError, match=f"dilation too large: N={cap + 1} sub-blocks"):
            build(one, cap + 1, P2)
    with pytest.raises(AssertionError, match="past the slot cap"):
        build_n_dilation(one, cap, P2)


def test_simultaneous_size_cap_before_copies_and_isometry_checks(monkeypatch):
    def never(*args):
        raise AssertionError("terms copied or checked past the size cap")

    family = {"A": _combo((F(1, 10 ** 6), 1 - F(1, 10 ** 6)))}
    monkeypatch.setattr(builders, "_expand_to_denominator", never)
    with pytest.raises(ValueError, match="dilation too large: 1 x 1000000\\^2"):
        rationalize_family(family, 2, m_cap=10 ** 9)
    monkeypatch.undo()
    fam = {"A": _combo((F(1, 2), F(1, 2))), "B": _combo((F(1, 2), F(1, 2)), (NEG, SWAP))}
    monkeypatch.setattr(builders, "is_lp_isometry", never)
    with pytest.raises(ValueError, match="over the cap"):
        build_simultaneous_n_dilation(fam, 24, P3)


def test_word_set_cap_before_enumeration(monkeypatch):
    def never(*args):
        raise AssertionError("words enumerated past the word-set cap")

    monkeypatch.setattr(builders, "_word_set", never)
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 2, P3)
    for max_len in (10 ** 9, 10 ** 5):
        with pytest.raises(ValueError, match="word set too large"):
            verify_dilation(triple, {"T": combo.operator()}, max_len)


def test_word_set_visits_only_the_lengths_it_samples():
    # a small word cap keeps the word set under the label cap however large
    # max_len is; the lengths that get no word must not be listed either
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 2, P3)
    report, peak = _traced_peak(
        lambda: verify_dilation(triple, {"T": combo.operator()}, 10 ** 6, word_cap=100))
    assert [len(c.word) for c in report.checks] == list(range(100))
    assert peak < 4 * 2 ** 20


def test_word_set_cap_counts_the_labels_of_the_word_set(monkeypatch):
    # the check refuses exactly the word sets whose words hold more labels
    # than the cap, counted here by building each word set
    for r, max_len, cap in itertools.product((1, 2, 3), range(9), (1, 2, 7, 30, 500)):
        labels = [str(i) for i in range(r)]
        held = sum(map(len, builders._word_set(labels, max_len, cap, random.Random(0))))
        for limit in (held - 1, held):
            monkeypatch.setattr(builders, "WORD_LABEL_CAP", limit)
            if held > limit:
                with pytest.raises(ValueError, match="word set too large"):
                    builders.check_word_set(r, max_len, cap)
            else:
                builders.check_word_set(r, max_len, cap)


def test_walk_keeps_no_prefix_per_word():
    # 200 sampled words of lengths 200..400 over two labels share almost no
    # prefixes; keying every prefix of every word would hold ~10^7 labels
    # (tens of MiB), while the words themselves hold ~6 * 10^4
    triple = zero_augment({"A": SWAP}, 400, P3)
    rng = random.Random(5)
    words = [tuple(rng.choice("A0") for _ in range(rng.randint(200, 400)))
             for _ in range(200)]
    targets = zero_augment_targets({"A": SWAP})
    report, peak = _traced_peak(lambda: verify_dilation(triple, targets, words=words))
    assert report.passed and len(report.checks) == 200
    assert peak < 8 * 2 ** 20


def test_size_cap_counts_the_real_stack():
    # m = 2, N = 21, d = 2: 2^21 slot-0 sub-blocks of 2 x 2 are 64 MiB, the
    # cap itself; with all 21 sub-blocks of a block stored they were 1.3 GiB
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 21, P3)
    u = triple.U_family["T"]
    assert u.stack.nbytes == 64 * 2 ** 20 == builders.STACK_BYTES_CAP
    assert compress_word(triple, ("T",)) == combo.operator()
    del triple, u
    with pytest.raises(ValueError, match="over the cap"):
        build_n_dilation(combo, 22, P3)


# ---------------------------------------------------------------------------
# block-monomial operators

def _layout_operator(blocks, tau, copies, shift):
    """The operator with stack[a] = blocks[a], laid out by (tau, copies, shift)."""
    return builders._slot0_operator(blocks, np.arange(len(blocks)), np.asarray(tau, np.intp),
                                    copies, shift, blocks[0].mode)


@st.composite
def _monomial_triple(draw, exact: bool):
    """Three operators on one random layout, with random shifts and sub-blocks.

    tau is a random permutation of the outer blocks whose cycle lengths
    divide `copies`, so tau^copies = 1.  Exact entries are fractions whose
    numerators may reach 2^40, so that products can leave int64; float
    entries are quarters of small integers, whose products and sums are
    exact in any order.
    """
    count = draw(st.integers(1, 4))
    copies = draw(st.integers(1, 4))
    s = draw(st.integers(1, 3))
    big = draw(st.booleans())
    order = draw(st.permutations(range(count)))
    tau, i = [None] * count, 0
    while i < count:
        length = draw(st.sampled_from([n for n in range(1, min(copies, count - i) + 1)
                                       if copies % n == 0]))
        cycle = order[i:i + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            tau[a] = b
        i += length

    def entry():
        if exact:
            num = draw(st.integers(-2 ** 40, 2 ** 40) if big else st.integers(-9, 9))
            return F(num, draw(st.sampled_from((1, 1, 2, 3, 5))))
        return draw(st.integers(-8, 8)) / 4

    def operator():
        blocks = [OperatorMatrix([[entry() for _ in range(s)] for _ in range(s)],
                                 EXACT if exact else FLOAT64) for _ in range(count)]
        return _layout_operator(blocks, tau, copies, draw(st.integers(0, copies - 1)))

    return operator(), operator(), operator()


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(_monomial_triple))
def test_block_monomial_product_matches_dense(ops):
    a, b, c = ops
    for left, right in ((a, b), (b, a), (a @ b, c)):
        prod = left @ right
        assert prod.to_matrix() == left.to_matrix() @ right.to_matrix()
        assert (prod.count, prod.size, prod.copies) == (a.count, a.size, a.copies)
    if a.mode == EXACT and a.bound * b.bound >= 2 ** 63:
        assert (a @ b).stack.dtype == object


def test_block_monomial_promotes_past_int64():
    big = OperatorMatrix([[2 ** 40, 1], [0, -(2 ** 40)]])
    # two outer blocks of two block rows, swapped by tau; each row multiplies
    # big by big, one block column to the right
    op = _layout_operator([big, big], [1, 0], 2, 1)
    assert op.stack.dtype == np.int64
    sq = op @ op
    assert sq.stack.dtype == object
    assert sq.to_matrix() == op.to_matrix() @ op.to_matrix()
    assert sq.to_matrix()[6, 6] == 2 ** 80


def test_block_monomial_layout_checks():
    a = _layout_operator([I2, SWAP], [1, 0], 2, 1)
    for other in (BlockDiagonalOperator.from_blocks([I2, SWAP]),    # copies differ
                  _layout_operator([I2, SWAP], [0, 1], 2, 1),       # tau differs
                  _layout_operator([I2], [0], 2, 1)):               # counts differ
        with pytest.raises(ValueError, match="block partitions differ"):
            a @ other


def test_n_dilation_u_is_one_sub_block_per_row():
    combo = _combo((F(1, 3), F(2, 3)))
    N, d = 3, 2
    u = build_n_dilation(combo, N, P3).U_family["T"]
    # the slot-0 layout: one sub-block per alpha, the isometry of its slot 0
    assert u.stack.shape == (2 ** N, d, d) and (u.count, u.copies) == (8, N)
    rows = np.arange(2 ** N)
    assert u.stack.tolist() == [combo.isometries[r >> 2].entries() for r in range(8)]
    # perm is tau, the rotation by one slot: slot k of tau(alpha) is slot k+1
    assert u.perm.tolist() == u.tau.tolist() == (rows % 4 * 2 + rows // 4).tolist()
    assert u.shift == 1


HALVES = OperatorMatrix([[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
_DENSE_CASES = {
    "signed-p3": lambda: (zero_augment({"A": SWAP, "B": NEG}, 3, P3), 3),
    "rational-p2": lambda: (zero_augment({"A": R5, "B": R13, "C": SWAP}, 3, P2), 3),
    "float-p2": lambda: (zero_augment(
        {"A": OperatorMatrix(np.array([[math.cos(0.4), -math.sin(0.4)],
                                       [math.sin(0.4), math.cos(0.4)]])),
         "B": OperatorMatrix(np.array([[math.cos(2.1), math.sin(2.1)],
                                       [math.sin(2.1), -math.cos(2.1)]]))}, 3, P2), 3),
    # past the window the cycle wraps, and the oracle must agree there too
    **{f"shift-{mode}-W{w}": (lambda t=t, w=w: (shift_dilation(t, w), w + 2))
       for w in range(1, 5) for mode, t in (("exact", HALVES), ("float", HALVES.to_float()))},
    "trivial-p3": lambda: (trivial_dilation({"A": SWAP, "B": NEG}, P3), 4),
}


@pytest.mark.parametrize("case", list(_DENSE_CASES))
def test_zero_augment_compression_matches_dense(case):
    triple, max_len = _DENSE_CASES[case]()
    q, j = triple.Q.to_matrix(), triple.J.to_matrix()
    for n in range(max_len + 1):
        for word in itertools.product(triple.labels, repeat=n):
            dense = OperatorMatrix.identity(j.rows, triple.mode)
            for lbl in word:
                dense = dense @ triple.U_family[lbl].to_matrix()
            want = (q @ dense) @ j
            assert compress_word(triple, word) == want


def test_compressed_powers_repeat_compressed_power():
    theta = 0.9
    rot = OperatorMatrix(np.array([[math.cos(theta), -math.sin(theta)],
                                   [math.sin(theta), math.cos(theta)]]))
    for combo, p in ((ConvexCombination((rot, rot.transpose(), NEG.to_float()),
                                        (F(1, 2), F(1, 3), F(1, 6))), P2),
                     (ConvexCombination((R5, R13), (F(1, 4), F(3, 4))), P2),
                     (_combo((F(1, 3), F(2, 3))), P3)):
        triple = build_n_dilation(combo, 3, p)
        powers = builders.compressed_powers(triple, 3)
        assert powers == [compressed_power(triple, n) for n in range(4)]


@pytest.mark.parametrize("word_cap", [0, -4])
def test_verify_rejects_word_cap_below_one(word_cap):
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 2, P3)
    with pytest.raises(ValueError, match="word_cap"):
        verify_dilation(triple, {"T": combo.operator()}, 2, word_cap=word_cap)


def test_verify_rejects_empty_word_list():
    # an empty explicit word list checks no word; it must not read as a pass
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 2, P3)
    with pytest.raises(ValueError, match="at least one word"):
        verify_dilation(triple, {"T": combo.operator()}, words=[])


# ---------------------------------------------------------------------------
# slot-0 kernel against the full stack

class _FullStack:
    """A block-monomial operator that stores every block row's sub-block.

    Sub-block i sits in block row i and block column perm[i], both counted
    over all outer blocks.  Row i of A @ B is A.stack[i] @ B.stack[A.perm[i]]
    with perm B.perm[A.perm].  Exact stacks hold Python int numerators over
    `denominator`, so nothing can overflow.
    """

    def __init__(self, stack, perm, count, copies, denominator):
        self.stack, self.perm, self.count, self.copies = stack, perm, count, copies
        self.denominator = denominator

    def __matmul__(self, other):
        return _FullStack(np.matmul(self.stack, other.stack[self.perm]), other.perm[self.perm],
                          self.count, self.copies, self.denominator * other.denominator)

    def identity_like(self):
        n, d = self.stack.shape[:2]
        eye = np.eye(d, dtype=self.stack.dtype)
        return _FullStack(np.array([eye] * n), np.arange(n), self.count, self.copies, 1)


def _full_stack(u):
    """The full stack of u, one stored sub-block per block row.

    Built from the dense blocks alone: each block row's one nonzero sub-block
    and its column, found by looking, not from u's slot-0 layout.
    """
    d, copies = u.stack.shape[1], u.copies
    subs, perm = [], []
    for a, block in enumerate(u.blocks):
        dense = np.array([block.row_entries(i) for i in range(block.rows)], dtype=object)
        for k in range(copies):
            row = dense[k * d:(k + 1) * d]
            cols = [c for c in range(copies) if np.any(row[:, c * d:(c + 1) * d] != 0)]
            assert len(cols) == 1
            subs.append(row[:, cols[0] * d:(cols[0] + 1) * d])
            perm.append(a * copies + cols[0])
    perm = np.array(perm)
    if u.mode == FLOAT64:
        return _FullStack(np.array(subs, dtype=float), perm, u.count, copies, 1)
    den = math.lcm(*(F(x).denominator for sub in subs for x in sub.flat))
    nums = [[[F(x).numerator * (den // F(x).denominator) for x in row] for row in sub]
            for sub in subs]
    return _FullStack(np.array(nums, dtype=object).reshape(len(subs), d, d), perm,
                      u.count, copies, den)


def _full_stack_compression(triple, full, word):
    """Q U_w J on the full stack, summed block row by block row as before slot 0."""
    j, q = triple.J, triple.Q
    acc = full[word[0]] if word else full[next(iter(full))].identity_like()
    for lbl in word[1:]:
        acc = acc @ full[lbl]
    d = j.dim
    sums = acc.stack.reshape(acc.count, acc.copies, d, d).sum(axis=1)
    if triple.mode == FLOAT64:
        return OperatorMatrix(np.einsum("b,bij->ij", j.scales() * q.scales(), sums))
    per_class = np.zeros((len(j.class_bases), d, d), dtype=object)
    np.add.at(per_class, j.classes, sums.astype(object))
    out = sum((OperatorMatrix(c.tolist()).scale(b) for b, c in zip(j.class_bases, per_class)),
              OperatorMatrix.zeros(d, d))
    return out.scale(F(1, acc.denominator))


def _orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return OperatorMatrix(q * np.sign(np.diag(r)))


@st.composite
def _slot0_case(draw):
    """A random N-dilation (one combination or an equal-weight family) and words.

    Exact cases mix signed permutations with the rational rotations R5 and
    R13 and may carry weights with denominators near 2^30, so that long words
    and fine weights push both the stack and the class numerators past
    int64.  Float cases use random orthogonal matrices, whose products and
    sums round.
    """
    exact = draw(st.booleans())
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    N = draw(st.integers(1, 4 if m < 3 else 3))
    family = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = [sp.matrix() for sp in all_signed_permutations(d)] + ([R5, R13] if d == 2 else [])

    def isometry():
        return pool[int(rng.integers(len(pool)))] if exact else _orthogonal(d, rng)

    if family == 1:
        top = draw(st.sampled_from((9, 2 ** 30)))
        raw = [draw(st.integers(1, top)) for _ in range(m)]
        combos = {"T": ConvexCombination(tuple(isometry() for _ in range(m)),
                                         tuple(F(a, sum(raw)) for a in raw))}
    else:
        combos = {name: ConvexCombination(tuple(isometry() for _ in range(m)), (F(1, m),) * m)
                  for name in ("A", "B")}
    labels = st.sampled_from(sorted(combos))
    words = draw(st.lists(st.lists(labels, max_size=6).map(tuple), min_size=1, max_size=4))
    if exact and draw(st.booleans()):
        words.append(tuple(draw(st.lists(labels, min_size=8, max_size=20))))
    p = P2 if not exact or d == 2 else P3
    return combos, N, p, words


@settings(max_examples=60, deadline=None)
@given(_slot0_case())
def test_slot0_compression_matches_the_full_stack(case):
    combos, N, p, words = case
    if len(combos) == 1:
        triple = build_n_dilation(combos["T"], N, p)
    else:
        triple = build_simultaneous_n_dilation(combos, N, p)
    full = {lbl: _full_stack(u) for lbl, u in triple.U_family.items()}
    for word in words:
        got = compress_word(triple, word)
        want = _full_stack_compression(triple, full, word)
        if triple.mode == EXACT:
            assert got == want
        else:
            # one dot sums in another order than the slot-by-slot oracle
            assert np.max(np.abs(got.to_ndarray() - want.to_ndarray())) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(_slot0_case(), st.integers(1, 6))
def test_rotation_closed_parts_sum_to_one_part(case, rows_per_part):
    combos, N, p, words = case
    combo = next(iter(combos.values()))
    triple = build_n_dilation(combo, N, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builders, "STACK_BYTES_CAP", rows_per_part * combo.dim ** 2 * 8)
        parts = list(builders.build_n_dilation_parts(combo, N, p))
    assert sum(part.U_family["T"].count for part in parts) == combo.m ** N
    for word in {tuple("T" for _ in w) for w in words}:
        whole = compress_word(triple, word)
        summed = [compress_word(part, word) for part in parts]
        summed = sum(summed[1:], summed[0])
        if triple.mode == EXACT:
            assert summed == whole
        else:
            assert np.max(np.abs(summed.to_ndarray() - whole.to_ndarray())) <= 1e-12


def _traced_peak(call):
    """call() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float_compression_builds_no_rotation_index():
    # m = 2, d = 1, N = 18: the stack is 2 MiB, but the rotations of every
    # alpha, as an index, would take 18 times that; the compression is one
    # dot with the stack and holds no more than a quarter of that index
    one = OperatorMatrix(np.ones((1, 1)))
    combo = ConvexCombination((one, one.scale(-1)), (F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 18, P3)
    u = triple.U_family["T"]
    middle = u @ u @ u
    got, peak = _traced_peak(lambda: builders._compress(triple, middle))
    assert peak < 18 * 2 ** 18 * 8 // 4
    assert abs(got.to_ndarray()[0, 0] - (-1 / 3) ** 3) < 1e-12


def test_parts_hold_one_chunk_of_orbits(monkeypatch):
    # m = 2, N = 20: an array over all 2^20 alphas takes 8 MiB; the first
    # part of at most 64 rows needs the orbits of one chunk of rows only
    combo = _combo((F(1, 3), F(2, 3)))
    monkeypatch.setattr(builders, "STACK_BYTES_CAP", 64 * 2 * 2 * 8)
    parts = builders.build_n_dilation_parts(combo, 20, P3)
    first, peak = _traced_peak(lambda: next(parts))
    assert peak < 2 ** 20 * 8 // 2
    rows = first.U_family["T"].count
    assert 20 <= rows <= 64 and first.space.dim == 20 * rows * 2


def test_slot0_compression_promotes_past_int64():
    # R13^15 keeps the stack in int64 (row sums 17^15 < 2^63), but the class
    # numerators over 3 * 45^3 push the weighted sum past int64
    combo = ConvexCombination((R13, R13.transpose()), (F(1, 45), F(44, 45)))
    triple = build_n_dilation(combo, 3, P2)
    word = ("T",) * 15
    u = triple.U_family["T"]
    middle = u
    for _ in word[1:]:
        middle = middle @ u
    assert middle.stack.dtype == np.int64
    assert middle.bound < 2 ** 63 <= middle.bound * triple.J._coefficients[2]
    full = {"T": _full_stack(triple.U_family["T"])}
    assert compress_word(triple, word) == _full_stack_compression(triple, full, word)


def test_weight_classes_must_be_rotation_invariant():
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 2, P3)
    # rows 01 and 10 form one tau orbit; giving them different classes breaks
    # the slot-0 compression, so the triple is refused
    bases = (F(1, 18), F(1, 9), F(1, 9), F(2, 9))
    j = ScaledBlockMap("embed", bases, F(1, 3), 2, 2, EXACT)
    q = ScaledBlockMap("readout", bases, F(2, 3), 2, 2, EXACT)
    with pytest.raises(ValueError, match="invariant"):
        builders.DilationTriple(triple.space, j, q, triple.U_family, 2)
    # the same bases as one class per orbit are accepted
    classes = np.array([0, 1, 1, 2])
    j = ScaledBlockMap("embed", bases[::2] + bases[3:], F(1, 3), 2, 2, EXACT, classes)
    q = ScaledBlockMap("readout", bases[::2] + bases[3:], F(2, 3), 2, 2, EXACT, classes)
    ok = builders.DilationTriple(triple.space, j, q, triple.U_family, 2)
    assert compressed_power(ok, 2) == combo.operator().power(2)


def test_swapped_exponents_are_refused():
    # T = (1/3) I + (2/3) R at p = 3, N = 4: with J's and Q's exponents
    # swapped Q U^n J still equals T^n, but J is no isometry
    R = OperatorMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    combo = ConvexCombination((OperatorMatrix.identity(3), R), (F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 4, P3)
    j, q = triple.J, triple.Q
    swapped = [ScaledBlockMap(m.orientation, m.class_bases, e, m.copies, m.dim, EXACT, m.classes)
               for m, e in ((j, q.exponent), (q, j.exponent))]
    with pytest.raises(ValueError, match="not 1/p and 1/q"):
        builders.DilationTriple(triple.space, *swapped, triple.U_family, 4)
    with pytest.raises(ValueError, match="not 1/p and 1/q"):
        builders.DilationTriple(builders.SpaceDescriptor(triple.space.dim, PNorm(F(4)), ""),
                                j, q, triple.U_family, 4)


def test_triple_refuses_parts_that_do_not_fit():
    combo = _combo((F(1, 3), F(2, 3)))
    triple = build_n_dilation(combo, 2, P3)
    space, j, q, u = triple.space, triple.J, triple.Q, triple.U_family["T"]
    floats = ConvexCombination(tuple(t.to_float() for t in combo.isometries), combo.weights)
    fu = build_n_dilation(floats, 2, P3).U_family["T"]
    with pytest.raises(ValueError, match="one mode"):
        builders.DilationTriple(space, j, q, {"T": u, "S": fu}, 2)
    with pytest.raises(ValueError, match="one mode"):
        builders.DilationTriple(space, j, q, {"T": fu}, 2)
    with pytest.raises(ValueError, match="one kind"):
        builders.DilationTriple(space, j, FirstBlockMap("readout", 2, 2, EXACT), {"T": u}, 2)
    with pytest.raises(ValueError, match="one kind"):
        builders.DilationTriple(space, q, j, {"T": u}, 2)
    reversed_q = ScaledBlockMap("readout", q.class_bases[::-1], q.exponent, q.copies, q.dim,
                                EXACT, q.classes)
    with pytest.raises(ValueError, match="scalings do not match"):
        builders.DilationTriple(space, j, reversed_q, {"T": u}, 2)
    one = OperatorMatrix.identity(1)
    for other in (_layout_operator([I2, I2], [1, 0], 2, 1),           # count differs
                  _layout_operator([I2] * 4, [0, 1, 2, 3], 1, 0),     # copies differ
                  _layout_operator([one] * 4, u.tau, 2, 1)):          # sub-block size differs
        with pytest.raises(ValueError, match="sub-block size"):
            builders.DilationTriple(space, j, q, {"T": u, "S": other}, 2)
    augmented = zero_augment({"A": SWAP}, 3, P3)
    with pytest.raises(ValueError, match="sub-block size"):
        builders.DilationTriple(augmented.space, augmented.J, augmented.Q,
                                {"A": _layout_operator([SWAP], [0], 2, 0)}, 3)
    with pytest.raises(ValueError, match="first-block maps do not match"):
        builders.DilationTriple(augmented.space, augmented.J,
                                FirstBlockMap("readout", 3, 2, EXACT), augmented.U_family, 3)


def test_float_compression_never_gathers_orbits(monkeypatch):
    def never(*args):
        raise AssertionError("a compression gathered the slot rotations")

    monkeypatch.setattr(BlockDiagonalOperator, "_orbits", never)
    rot = OperatorMatrix(np.array([[math.cos(0.7), -math.sin(0.7)],
                                   [math.sin(0.7), math.cos(0.7)]]))
    combo = ConvexCombination((rot, rot.transpose(), NEG.to_float()), (F(1, 2), F(1, 3), F(1, 6)))
    T = combo.operator()
    triple = build_n_dilation(combo, 3, P2)
    assert verify_dilation(triple, {"T": T}, 3).max_residual <= 1e-12
    for n, got in enumerate(builders.compressed_powers(triple, 3)):
        assert got == compressed_power(triple, n)
        assert operator_residual(got, T.power(n)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_float_and_exact_triples_agree(data):
    # one rational combination (or equal-weight family), once exact and once
    # as floats: the float compressions round, but stay within 1e-12
    d, m, N = (data.draw(st.integers(1, 3)) for _ in range(3))
    pool = [sp.matrix() for sp in all_signed_permutations(d)] + ([R5, R13] if d == 2 else [])
    p = P2 if d == 2 else P3

    def isometries():
        return tuple(data.draw(st.sampled_from(pool)) for _ in range(m))

    if data.draw(st.booleans()):
        raw = [data.draw(st.integers(1, 9)) for _ in range(m)]
        family = {"T": ConvexCombination(isometries(), tuple(F(a, sum(raw)) for a in raw))}
    else:
        family = {name: ConvexCombination(isometries(), (F(1, m),) * m) for name in "AB"}
    floats = {name: ConvexCombination(tuple(t.to_float() for t in c.isometries), c.weights)
              for name, c in family.items()}
    if len(family) == 1:
        exact, fl = build_n_dilation(family["T"], N, p), build_n_dilation(floats["T"], N, p)
    else:
        exact = build_simultaneous_n_dilation(family, N, p)
        fl = build_simultaneous_n_dilation(floats, N, p)
    assert (exact.mode, fl.mode) == (EXACT, FLOAT64)
    words = data.draw(st.lists(st.lists(st.sampled_from(sorted(family)), max_size=6).map(tuple),
                               min_size=1, max_size=4))
    for word in words:
        diff = compress_word(exact, word).to_ndarray() - compress_word(fl, word).to_ndarray()
        assert np.max(np.abs(diff)) <= 1e-12


def test_negative_powers_are_refused():
    triple = build_n_dilation(_combo((F(1, 3), F(2, 3))), 2, P3)
    with pytest.raises(ValueError, match="negative"):
        compressed_power(triple, -1)
    with pytest.raises(ValueError, match="negative"):
        builders.compressed_powers(triple, -2)


def test_scales_are_computed_once_per_map():
    triple = build_n_dilation(_combo((F(1, 3), F(2, 3))), 3, P3)
    j = triple.J
    scales = j.scales()
    assert j.scales() is scales and not scales.flags.writeable
    e = float(j.exponent)
    assert scales.tolist() == [float(j.class_bases[c]) ** e for c in j.classes.tolist()]
    with pytest.raises(ValueError, match="positive"):
        ScaledBlockMap("embed", (F(1, 2), F(0)), F(1, 3), 1, 1, EXACT)


# ---------------------------------------------------------------------------
# exact targets as integer numerators

def test_target_past_int64_is_promoted():
    # weights over 45 at N = 12: the target T^12 has denominator 45^12 > 2^63
    combo = _combo((F(7, 45), F(38, 45)), (SWAP, NEG))
    T = combo.operator()
    power = T.power(12)
    assert power.numerators.dtype == object and power.denominator == 45 ** 12 > 2 ** 63
    want, t = [[F(int(i == j)) for j in range(2)] for i in range(2)], T.entries()
    for _ in range(12):
        want = [[sum(want[i][k] * t[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]
    assert power.entries() == want
    triple = build_n_dilation(combo, 12, P3)
    report = verify_dilation(triple, {"T": T}, 12)
    assert report.passed and report.max_residual == 0.0 and len(report.checks) == 13


def test_wrong_target_fails_with_the_fraction_residual():
    combo = _combo((F(1, 3), F(2, 3)))
    T = combo.operator()
    wrong = T + OperatorMatrix([[0, F(1, 7)], [0, 0]])
    triple = build_n_dilation(combo, 3, P3)
    report = verify_dilation(triple, {"T": wrong}, 3)
    assert not report.passed
    for check in report.checks:
        n = len(check.word)
        residual = operator_residual(compressed_power(triple, n), wrong.power(n))
        assert check.residual == residual
        assert check.passed == (residual == 0.0) == (n == 0)
