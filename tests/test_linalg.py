import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilations.linalg import (EXACT, FLOAT64, ModeError, OperatorMatrix,
                              PNorm, SpaceDescriptor, as_fraction, block_diag,
                              lp_norm, lp_norm_pow_p, operator_residual,
                              sym_eig)

F = Fraction


def test_matmul_exact_oracle():
    # hand computation: [[1/2,1/2],[0,1]] @ [[1,0],[0,1/3]]
    a = OperatorMatrix([[F(1, 2), F(1, 2)], [0, 1]])
    b = OperatorMatrix([[1, 0], [0, F(1, 3)]])
    c = a @ b
    assert c[0, 0] == F(1, 2)
    assert c[0, 1] == F(1, 6)
    assert c[1, 0] == 0
    assert c[1, 1] == F(1, 3)
    assert c.mode == EXACT


def test_mode_detection_and_mixing():
    assert OperatorMatrix([[1, 2], [3, 4]]).mode == EXACT
    assert OperatorMatrix([[1.0, 2.0]]).mode == FLOAT64
    with pytest.raises(ModeError):
        OperatorMatrix([[F(1, 2), 0.5]])
    coerced = OperatorMatrix([[F(1, 2), 1]], mode=FLOAT64)
    assert coerced.mode == FLOAT64
    assert coerced[0, 0] == 0.5


def test_cross_mode_operations_raise():
    a = OperatorMatrix([[1]])
    b = OperatorMatrix([[1.0]])
    with pytest.raises(ModeError):
        a @ b
    with pytest.raises(ModeError):
        a + b
    with pytest.raises(ModeError):
        operator_residual(a, b)
    with pytest.raises(ModeError):
        b.scale(F(1, 2)) @ a


def test_exact_scale_rejects_floats():
    a = OperatorMatrix([[1, 2]])
    with pytest.raises(ModeError):
        a.scale(0.5)
    assert a.scale(F(1, 2))[0, 1] == 1


def test_residual_exact_is_zero_iff_equal():
    a = OperatorMatrix([[F(1, 3), 0], [0, 1]])
    b = OperatorMatrix([[F(1, 3), 0], [0, 1]])
    assert operator_residual(a, b) == 0.0
    c = OperatorMatrix([[F(1, 3), 0], [0, F(2, 3)]])
    assert operator_residual(a, c) == pytest.approx(1 / 3)


def test_power_and_transpose():
    a = OperatorMatrix([[0, 1], [1, 0]])
    assert a.power(2) == OperatorMatrix.identity(2)
    assert a.power(0) == OperatorMatrix.identity(2)
    t = OperatorMatrix([[1, 2], [3, 4]]).transpose()
    assert t[0, 1] == 3


def test_pnorm_conjugate_identity():
    for p_text in ("2", "3", "3/2", "7/5"):
        norm = PNorm.parse(p_text)
        assert 1 / norm.p + 1 / norm.q == 1   # exact Fraction identity
    with pytest.raises(ValueError):
        PNorm(F(1))
    with pytest.raises(ValueError):
        PNorm(F(1, 2))


def test_space_descriptor_allows_missing_norm():
    s = SpaceDescriptor(4, None, "l^1 window")
    assert s.norm is None
    with pytest.raises(ValueError):
        SpaceDescriptor(0, PNorm(F(2)), "empty")


def test_lp_norm_pow_p_oracle():
    # |1|^3 + |1|^3 = 2
    assert lp_norm_pow_p([1, 1], PNorm(F(3))) == 2
    assert lp_norm_pow_p([F(-1, 2), F(1, 2)], PNorm(F(2))) == F(1, 2)
    with pytest.raises(ValueError):
        lp_norm_pow_p([1], PNorm(F(3, 2)))
    with pytest.raises(ModeError):
        lp_norm_pow_p([0.5], PNorm(F(2)))


def test_lp_norm_matches_numpy():
    v = [0.3, -1.2, 0.5]
    for p in (2, 3, 1.5):
        norm = PNorm.parse(F(p).limit_denominator(10))
        want = float(np.sum(np.abs(v) ** float(norm.p)) ** (1 / float(norm.p)))
        assert lp_norm(v, norm) == pytest.approx(want, rel=1e-12)


def test_block_diag_and_assemble():
    a = OperatorMatrix([[1]])
    b = OperatorMatrix([[2, 0], [0, 2]])
    d = block_diag([a, b])
    assert d.shape == (3, 3)
    assert d[1, 1] == 2 and d[0, 1] == 0


def test_one_norm_is_max_column_sum():
    a = OperatorMatrix([[F(1, 2), F(-3, 4)], [F(1, 4), F(1, 4)]])
    assert a.one_norm() == F(1)  # column 1: 3/4 + 1/4
    f = a.to_float()
    assert f.one_norm() == pytest.approx(1.0)


def test_sym_eig_oracle():
    # [[2,1],[1,2]] has eigenvalues 1 and 3
    evals, vecs = sym_eig(OperatorMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert evals == pytest.approx([1.0, 3.0], abs=1e-12)
    v = vecs.to_ndarray()
    assert np.max(np.abs(v.T @ v - np.eye(2))) < 1e-12


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 1000))
def test_sym_eig_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a + a.T
    evals, vecs = sym_eig(OperatorMatrix(a))
    v = vecs.to_ndarray()
    recon = v @ np.diag(evals) @ v.T
    assert np.max(np.abs(recon - a)) < 1e-9
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
    assert evals == sorted(evals)


_small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _exact_matrix(n):
    return st.lists(
        st.lists(_small_fraction, min_size=n, max_size=n),
        min_size=n, max_size=n).map(OperatorMatrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(_exact_matrix(n), _exact_matrix(n), _exact_matrix(n))))
def test_matmul_associative_exact(ms):
    a, b, c = ms
    assert (a @ b) @ c == a @ (b @ c)
    eye = OperatorMatrix.identity(a.rows)
    assert a @ eye == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_as_fraction_parsing():
    assert as_fraction("2/3") == F(2, 3)
    assert as_fraction(5) == 5
    with pytest.raises(ModeError):
        as_fraction(0.5)
    with pytest.raises(ModeError):
        as_fraction(True)
