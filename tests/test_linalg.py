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


def test_from_numerators():
    m = OperatorMatrix.from_numerators(np.array([[1, 2], [3, 6]]), 6)
    assert m.mode == EXACT and m.denominator == 6
    assert m.entries() == [[F(1, 6), F(1, 3)], [F(1, 2), 1]]
    assert m == OperatorMatrix([[F(1, 6), F(1, 3)], [F(1, 2), 1]])
    assert OperatorMatrix.from_numerators(np.eye(2)) == OperatorMatrix.identity(2, FLOAT64)
    for bad in ((np.eye(2), 2), (np.array([[1]]), 0), (np.array([1, 2]), 1),
                (np.array([[True]]), 1)):
        with pytest.raises(ValueError):
            OperatorMatrix.from_numerators(*bad)


def test_as_fraction_parsing():
    assert as_fraction("2/3") == F(2, 3)
    assert as_fraction(5) == 5
    with pytest.raises(ModeError):
        as_fraction(0.5)
    with pytest.raises(ModeError):
        as_fraction(True)


# ---------------------------------------------------------------------------
# oracle: the list-of-Fraction exact arithmetic OperatorMatrix used to run


class _FractionRows:
    """Exact matrices as lists of int/Fraction rows, with the former exact
    OperatorMatrix formulas; a reference for the numerator representation."""

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]

    def __matmul__(self, other):
        out = [[0] * len(other.rows[0]) for _ in self.rows]
        for i, arow in enumerate(self.rows):
            for k, aik in enumerate(arow):
                if aik:
                    for j, bkj in enumerate(other.rows[k]):
                        if bkj:
                            out[i][j] = out[i][j] + aik * bkj
        return _FractionRows(out)

    def __add__(self, other):
        return _FractionRows([[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return _FractionRows([[c * x for x in r] for r in self.rows])

    def transpose(self):
        return _FractionRows([list(col) for col in zip(*self.rows)])

    def power(self, n):
        d = len(self.rows)
        acc = _FractionRows([[1 if i == j else 0 for j in range(d)] for i in range(d)])
        for _ in range(n):
            acc = acc @ self
        return acc

    def __eq__(self, other):
        return all(ra == rb for ra, rb in zip(self.rows, other.rows))

    def one_norm(self):
        return max(sum(abs(r[j]) for r in self.rows) for j in range(len(self.rows[0])))

    def to_ndarray(self):
        return np.array([[float(x) for x in r] for r in self.rows], dtype=float)

    def residual(self, other):
        worst = 0.0
        for ra, rb in zip(self.rows, other.rows):
            for x, y in zip(ra, rb):
                if x != y:
                    worst = max(worst, abs(float(x - y)))
        return worst


# numerators up to 2^70 over small denominators and over ones past 2^63
_rational = st.builds(F, st.integers(-2 ** 70, 2 ** 70),
                      st.one_of(st.integers(1, 12), st.integers(2 ** 63, 2 ** 80)))


def _rational_rows(n):
    return st.lists(st.lists(_rational, min_size=n, max_size=n), min_size=n, max_size=n)


def _same(got: OperatorMatrix, want: _FractionRows) -> bool:
    """Equal entries, and the float conversion equal bit for bit."""
    return (got.entries() == want.rows and got == OperatorMatrix(want.rows)
            and got.to_ndarray().tobytes() == want.to_ndarray().tobytes())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(_rational_rows(n), _rational_rows(n))),
       _rational, st.integers(0, 3))
def test_exact_arithmetic_matches_fraction_rows(rows, c, k):
    (ra, rb), (a, b) = map(_FractionRows, rows), map(OperatorMatrix, rows)
    assert _same(a, ra) and _same(b, rb)
    assert _same(a @ b, ra @ rb)
    assert _same(a + b, ra + rb)
    assert _same(a - b, ra - rb)
    assert _same(a.scale(c), ra.scale(c))
    assert _same(a.transpose(), ra.transpose())
    assert _same(a.power(k), ra.power(k))
    assert (a == b) == (ra == rb)
    # a denominator that is not the least one changes no comparison
    assert a.scale(F(1, 7)).scale(7) == a and (a.scale(F(1, 7)).scale(7) == b) == (ra == rb)
    assert a.one_norm() == ra.one_norm()
    assert operator_residual(a, b) == ra.residual(rb)
    assert operator_residual(a @ b, b @ a) == (ra @ rb).residual(rb @ ra)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 1000), st.floats(-3, 3))
def test_float_arithmetic_is_plain_numpy(n, seed, c):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a, b = OperatorMatrix(x), OperatorMatrix(y)
    for got, want in ((a @ b, x @ y), (a + b, x + y), (a - b, x + y * -1.0),
                      (a.scale(c), x * c), (a.transpose(), x.T),
                      (a.power(3), np.eye(n) @ x @ x @ x),
                      (block_diag([a, b]), np.block([[x, np.zeros((n, n))],
                                                     [np.zeros((n, n)), y]]))):
        assert got.denominator == 1 and got.to_ndarray().tobytes() == want.tobytes()
    assert a.one_norm() == float(np.max(np.sum(np.abs(x), axis=0)))
    assert operator_residual(a, b) == float(np.max(np.abs(x - y)))
    assert a.row_entries(0) == x[0].tolist() and a[0, 0] == float(x[0, 0])
