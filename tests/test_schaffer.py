"""Block-unitary dilations on Hilbert space and the cross-validation bridge."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilations import builders, schaffer
from dilations.builders import (BlockDiagonalOperator, ConvexCombination,
                                build_n_dilation, build_n_dilation_parts,
                                compressed_powers)
from dilations.isometries import decompose_contraction, rationalize_decomposition
from dilations.linalg import OperatorMatrix, PNorm, operator_residual
from dilations.schaffer import (cross_validate, defect_root, schaffer_dilation,
                                spectral_norm)
from test_isometries import product_rule


def _random_contraction(rng, d, scale=0.9):
    a = rng.standard_normal((d, d))
    return OperatorMatrix(scale * a / np.linalg.svd(a)[1][0])


def test_zero_scalar_halmos():
    dil = schaffer_dilation(OperatorMatrix(np.zeros((1, 1))), 1)
    u = dil.U.to_ndarray()
    assert np.array_equal(u, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert dil.compression(0)[0, 0] == 1.0
    assert dil.compression(1)[0, 0] == 0.0


def test_identity_dilates_to_block_diagonal():
    eye = OperatorMatrix(np.eye(3))
    dil = schaffer_dilation(eye, 2)
    for n in range(3):
        assert operator_residual(dil.compression(n), eye) == 0.0
    assert dil.orthogonality_defect() < 1e-14


def test_defect_root_scalar():
    got = defect_root(OperatorMatrix(np.array([[0.5]])))[0, 0]
    assert abs(got - math.sqrt(3) / 4 * 2) < 1e-12
    assert abs(got - math.sqrt(1 - 0.25)) < 1e-12


def test_defect_root_squares_back():
    rng = np.random.default_rng(11)
    T = _random_contraction(rng, 4)
    D = defect_root(T)
    t = T.to_ndarray()
    lhs = D.to_ndarray() @ D.to_ndarray()
    assert np.max(np.abs(lhs - (np.eye(4) - t.T @ t))) < 1e-10


def test_defect_root_rejects_expansion():
    with pytest.raises(ValueError):
        defect_root(OperatorMatrix(np.array([[2.0]])))


def test_halmos_block_layout():
    rng = np.random.default_rng(7)
    T = _random_contraction(rng, 2)
    t = T.to_ndarray()
    dil = schaffer_dilation(T, 1)
    u = dil.U.to_ndarray()
    assert u.shape == (4, 4)
    d_t = defect_root(T).to_ndarray()
    d_tt = defect_root(T.transpose()).to_ndarray()
    assert np.max(np.abs(u[:2, :2] - t)) == 0.0
    assert np.max(np.abs(u[:2, 2:] - d_tt)) < 1e-12
    assert np.max(np.abs(u[2:, :2] - d_t)) < 1e-12
    assert np.max(np.abs(u[2:, 2:] + t.T)) == 0.0


def test_tall_block_layout():
    rng = np.random.default_rng(9)
    d, N = 2, 3
    T = _random_contraction(rng, d)
    t = T.to_ndarray()
    u = schaffer_dilation(T, N).U.to_ndarray()
    assert u.shape == ((N + 1) * d, (N + 1) * d)
    assert np.max(np.abs(u[:d, :d] - t)) == 0.0
    assert np.max(np.abs(u[:d, N * d:] - defect_root(T.transpose()).to_ndarray())) < 1e-12
    assert np.max(np.abs(u[d:2 * d, :d] - defect_root(T).to_ndarray())) < 1e-12
    assert np.max(np.abs(u[d:2 * d, N * d:] + t.T)) == 0.0
    for j in range(2, N + 1):
        block = u[j * d:(j + 1) * d, (j - 1) * d:j * d]
        assert np.array_equal(block, np.eye(d))
    # all remaining blocks vanish
    mask = np.ones_like(u, dtype=bool)
    mask[:2 * d, :d] = False
    mask[:2 * d, N * d:] = False
    for j in range(2, N + 1):
        mask[j * d:(j + 1) * d, (j - 1) * d:j * d] = False
    assert np.max(np.abs(u[mask])) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))
def test_dilation_is_unitary_and_compresses(seed, d, N):
    rng = np.random.default_rng(seed)
    T = _random_contraction(rng, d)
    dil = schaffer_dilation(T, N)
    assert dil.orthogonality_defect() <= 1e-10
    for n in range(N + 1):
        assert operator_residual(dil.compression(n), T.power(n)) <= 1e-9


def test_compression_breaks_past_n():
    # the 2x2 reflection squares to the identity, so n = 2 compresses to 1
    dil = schaffer_dilation(OperatorMatrix(np.array([[0.5]])), 1)
    u = dil.U.to_ndarray()
    assert np.max(np.abs(u @ u - np.eye(2))) < 1e-12
    assert abs(dil.compression(2)[0, 0] - 1.0) < 1e-12
    assert abs(dil.compression(2)[0, 0] - 0.25) == pytest.approx(0.75, abs=1e-12)


def test_rejects_expanding_input():
    with pytest.raises(ValueError):
        schaffer_dilation(OperatorMatrix(np.array([[1.5]])), 2)
    with pytest.raises(ValueError):
        schaffer_dilation(OperatorMatrix(np.ones((2, 3))), 1)


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    assert spectral_norm(OperatorMatrix(a)) == pytest.approx(
        np.linalg.norm(a, 2), abs=1e-10)


def test_cross_validate_orthogonal_input():
    theta = 0.7
    rot = OperatorMatrix(np.array([[math.cos(theta), -math.sin(theta)],
                                   [math.sin(theta), math.cos(theta)]]))
    report = cross_validate(rot, 3)
    assert report.max_oracle <= 1e-10
    assert report.max_decomposition <= 1e-10
    assert report.reconstruction_error <= 1e-10
    assert abs(report.weight_sum - 1) <= 1e-12


def test_cross_validate_random_contraction():
    rng = np.random.default_rng(21)
    T = _random_contraction(rng, 3)
    report = cross_validate(T, 3)
    assert report.d == 3 and report.N == 3
    assert len(report.oracle_residuals) == 4
    assert report.max_oracle <= 1e-9
    assert report.max_decomposition <= 1e-6
    assert report.rationalization_error <= 1e-8


@pytest.mark.parametrize("N", [1, 2, 4])
def test_cross_validate_runs_one_product_per_power(N, monkeypatch):
    """The decomposition curve multiplies one running product: N - 1 block products."""
    products = []
    matmul = BlockDiagonalOperator.__matmul__

    def counted(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(BlockDiagonalOperator, "__matmul__", counted)
    T = _random_contraction(np.random.default_rng(5), 3)
    report = cross_validate(T, N)
    assert len(report.decomposition_residuals) == N + 1
    assert report.max_decomposition <= 1e-6
    assert len(products) == max(N - 1, 0)


def test_dilation_size_cap(monkeypatch):
    # d * (N + 1) = 256 builds; past it nothing is rooted or allocated
    def never(*args):
        raise AssertionError("built past the size cap")

    T = OperatorMatrix([[0.5, 0.1], [0.0, 0.6]])
    assert schaffer_dilation(T, 127).U.rows == schaffer.DIM_CAP
    monkeypatch.setattr(schaffer, "defect_root", never)
    monkeypatch.setattr(schaffer, "spectral_norm", never)
    for N in (128, 10 ** 12):
        with pytest.raises(ValueError, match="dilation too large"):
            schaffer_dilation(T, N)


def test_cross_validate_caps(monkeypatch):
    def never(*args):
        raise AssertionError("dilation built past the dimension cap")

    monkeypatch.setattr(schaffer, "schaffer_dilation", never)
    with pytest.raises(ValueError, match="above svd cap 16"):
        cross_validate(OperatorMatrix(np.zeros((17, 17))), 2)
    with pytest.raises(ValueError):
        cross_validate(OperatorMatrix(np.zeros((2, 2))), 5)


def test_cross_validate_at_d_8():
    """d = 8, N = 4: nine terms, 9^4 alpha blocks, against the Schaffer oracle."""
    T = _random_contraction(np.random.default_rng(8), 8, 0.95)
    assert len(decompose_contraction(T).terms) == 9
    report = cross_validate(T, 4)
    assert len(report.oracle_residuals) == len(report.decomposition_residuals) == 5
    assert report.max_oracle <= 1e-12
    assert report.max_decomposition <= 1e-12
    assert abs(report.weight_sum - 1) <= 1e-12


def test_alpha_ranges_sum_to_the_whole_dilation(monkeypatch):
    """Compressions summed over small alpha ranges equal the one-range dilation."""
    d, N, p2 = 2, 2, PNorm(2)
    T = _random_contraction(np.random.default_rng(17), d)
    decomp = decompose_contraction(T)
    weights, _ = rationalize_decomposition(decomp, 10 ** 9)
    float_combo = ConvexCombination(tuple(decomp.factors), tuple(weights))
    r5 = OperatorMatrix([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
    exact_combo = ConvexCombination(
        (r5, r5.transpose(), OperatorMatrix([[0, 1], [1, 0]])), (F(1, 6), F(1, 2), F(1, 3)))
    combos = (float_combo, exact_combo)
    whole = [compressed_powers(build_n_dilation(c, N, p2), N) for c in combos]
    assert len(list(build_n_dilation_parts(float_combo, N, p2))) == 1
    report = cross_validate(T, N)

    # three alpha rows per part; at N = 2 every tau orbit has one or two rows
    monkeypatch.setattr(builders, "STACK_BYTES_CAP", 3 * d * d * 8)
    for combo, one_range in zip(combos, whole):
        triples = list(build_n_dilation_parts(combo, N, p2))
        rows = [part.U_family["T"].count for part in triples]
        assert sum(rows) == combo.m ** N and max(rows) <= 3
        assert len(triples) >= -(-combo.m ** N // 3) > 1
        parts = [compressed_powers(part, N) for part in triples]
        summed = [sum(powers[1:], powers[0]) for powers in zip(*parts)]
        target = combo.operator()
        for n in range(N + 1):
            want = np.linalg.matrix_power(target.to_float().to_ndarray(), n)
            if combo is exact_combo:
                assert summed[n] == one_range[n] == target.power(n)
            else:
                assert np.max(np.abs(summed[n].to_ndarray()
                                     - one_range[n].to_ndarray())) < 1e-12
            assert np.max(np.abs(summed[n].to_float().to_ndarray() - want)) < 1e-9
    ranged = cross_validate(T, N)
    assert np.max(np.abs(np.subtract(ranged.decomposition_residuals,
                                     report.decomposition_residuals))) < 1e-12


def test_cross_validate_at_the_old_streamed_size(monkeypatch):
    """d = 4, N = 4: the product rule's 16^4 alpha blocks stream over several parts
    and sum to T^n; cross_validate's threshold rule needs 5^4 blocks, one part."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    T = OperatorMatrix(0.95 * a / np.linalg.svd(a)[1][0])
    N, p2 = 4, PNorm(2)
    # 16,384 alpha rows of 4 x 4 float entries a part
    monkeypatch.setattr(builders, "STACK_BYTES_CAP", 16384 * 4 * 4 * 8)

    decomp = product_rule(T)
    assert len(decomp.terms) == 16
    weights, _ = rationalize_decomposition(decomp, schaffer._CROSS_SNAP_DENOMINATOR)
    combo = ConvexCombination(tuple(decomp.factors), tuple(weights))
    parts, rows = [], 0
    for part in build_n_dilation_parts(combo, N, p2):
        rows += part.U_family["T"].count
        parts.append(compressed_powers(part, N))
    assert rows == 16 ** 4 and len(parts) >= 4
    for n, powers in enumerate(zip(*parts)):
        summed = sum(powers[1:], powers[0]).to_ndarray()
        assert np.max(np.abs(summed - np.linalg.matrix_power(T.to_ndarray(), n))) <= 1e-6

    counted = []
    build_parts = schaffer.build_n_dilation_parts

    def counting(*args):
        for part in build_parts(*args):
            counted.append(part.U_family["T"].count)
            yield part

    monkeypatch.setattr(schaffer, "build_n_dilation_parts", counting)
    assert len(decompose_contraction(T).terms) == 5
    report = cross_validate(T, 4)
    assert counted == [5 ** 4]
    assert len(report.decomposition_residuals) == 5
    assert report.max_oracle <= 1e-6
    assert report.max_decomposition <= 1e-6
