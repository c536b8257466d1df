import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilations.isometries import (OrthogonalDecomposition, SignedPermutation,
                                  all_permutations, all_signed_permutations,
                                  decompose_contraction, is_lp_isometry,
                                  rationalize_decomposition, svd)
from dilations.linalg import EXACT, OperatorMatrix, PNorm, lp_norm_pow_p

F = Fraction


def product_rule(T: OperatorMatrix) -> OrthogonalDecomposition:
    """The 2^d sign-flip oracle: each singular value flips on its own.

    The factor for a sign pattern s is U diag(s) V^t and its weight is the
    product of (1 + s_k sigma_k)/2; weights below 1e-14 are dropped.
    """
    u, sigma, v = svd(T)
    sigma = [min(s, 1.0) for s in sigma]
    ua, va = u.to_ndarray(), v.to_ndarray()
    terms = []
    for pattern in itertools.product((1.0, -1.0), repeat=T.rows):
        w = math.prod(0.5 * (1.0 + s * sg) for s, sg in zip(pattern, sigma))
        if w >= 1e-14:
            terms.append((w, OperatorMatrix(ua @ np.diag(pattern) @ va.T)))
    return OrthogonalDecomposition(tuple(terms))


def test_signed_permutation_matrix_oracle():
    # column j goes to signs[j] * e_perm[j]
    sp = SignedPermutation((1, 0), (1, -1))
    m = sp.matrix()
    assert m.row_entries(0) == [0, -1]
    assert m.row_entries(1) == [1, 0]
    assert m.mode == EXACT


def test_enumeration_counts():
    assert len(all_permutations(3)) == 6
    assert len(all_signed_permutations(3)) == 48
    assert len(all_signed_permutations(1)) == 2
    with pytest.raises(ValueError):
        all_signed_permutations(6)


def test_is_lp_isometry_p3():
    p = PNorm(F(3))
    for sp in all_signed_permutations(2):
        assert is_lp_isometry(sp.matrix(), p)
    assert not is_lp_isometry(OperatorMatrix([[F(1, 2), F(1, 2)],
                                              [F(1, 2), F(1, 2)]]), p)
    # scaling breaks isometry even for a permutation pattern
    assert not is_lp_isometry(OperatorMatrix([[2, 0], [0, 2]]), p)


def test_is_lp_isometry_p2_rotation():
    theta = 0.7
    rot = OperatorMatrix(np.array([[math.cos(theta), -math.sin(theta)],
                                   [math.sin(theta), math.cos(theta)]]))
    assert is_lp_isometry(rot, PNorm(F(2)))
    assert not is_lp_isometry(rot, PNorm(F(3)))


def test_p_neq_2_isometry_preserves_norms_of_sums():
    """Signed permutations preserve the exact p-mass of vectors and sums."""
    p = PNorm(F(3))
    basis = [[1, 0], [0, 1]]
    for sp in all_signed_permutations(2):
        m = sp.matrix()
        for x, y in itertools.product(basis, basis):
            v = [a + b for a, b in zip(x, y)]
            image = [sum(m[i, j] * v[j] for j in range(2)) for i in range(2)]
            assert lp_norm_pow_p(image, p) == lp_norm_pow_p(v, p)


def test_svd_reconstructs():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            a = rng.standard_normal((d, d))
            u, sigma, v = svd(OperatorMatrix(a))
            ua, va = u.to_ndarray(), v.to_ndarray()
            recon = ua @ np.diag(sigma) @ va.T
            assert np.max(np.abs(recon - a)) < 1e-9
            assert np.max(np.abs(ua.T @ ua - np.eye(d))) < 1e-9
            assert np.max(np.abs(va.T @ va - np.eye(d))) < 1e-9
            assert sigma == sorted(sigma, reverse=True)


def test_svd_rank_deficient():
    a = np.zeros((3, 3))
    a[0, 0] = 2.0
    u, sigma, v = svd(OperatorMatrix(a))
    assert sigma[0] == pytest.approx(2.0)
    assert sigma[1] == 0.0 and sigma[2] == 0.0
    ua = u.to_ndarray()
    assert np.max(np.abs(ua.T @ ua - np.eye(3))) < 1e-9


def test_decompose_scalar_oracle():
    # T = (1/2): weights (1+1/2)/2 = 3/4 on (1) and (1-1/2)/2 = 1/4 on (-1)
    decomp = decompose_contraction(OperatorMatrix([[0.5]]))
    weights = sorted(decomp.weights, reverse=True)
    assert weights == pytest.approx([0.75, 0.25])
    factors = sorted(f[0, 0] for f in decomp.factors)
    assert factors == pytest.approx([-1.0, 1.0])


def test_decompose_rejects_expansion():
    with pytest.raises(ValueError):
        decompose_contraction(OperatorMatrix([[1.5]]))
    # d + 1 factors of size d: svd's cap of 16 bounds them
    assert len(decompose_contraction(OperatorMatrix(np.eye(16) * 0.5)).terms) == 2
    with pytest.raises(ValueError, match="above svd cap 16"):
        decompose_contraction(OperatorMatrix(np.ones((17, 17)) * 0.05))


def test_decompose_random_contractions():
    rng = np.random.default_rng(11)
    for trial in range(500):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d))
        a = a / (np.linalg.svd(a)[1][0] + 1e-12) * float(rng.uniform(0, 1))
        decomp = decompose_contraction(OperatorMatrix(a))
        assert abs(sum(decomp.weights) - 1.0) < 1e-12
        assert all(w > 0 for w in decomp.weights)
        recon = decomp.reconstruct().to_ndarray()
        assert np.max(np.abs(recon - a)) < 1e-9
        for f in decomp.factors:
            fa = f.to_ndarray()
            assert np.max(np.abs(fa.T @ fa - np.eye(d))) < 1e-8


def _orthogonal(rng, d):
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


# singular values from a few levels, so repeats, zeros and ones are common
_SIGMAS = st.lists(st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                   min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(sigmas=_SIGMAS, seed=st.integers(0, 2 ** 32 - 1))
def test_threshold_rule_against_the_product_rule(sigmas, seed):
    d = len(sigmas)
    rng = np.random.default_rng(seed)
    a = _orthogonal(rng, d) @ np.diag(sigmas) @ _orthogonal(rng, d).T
    T = OperatorMatrix(a)
    decomp = decompose_contraction(T)
    u, sigma, v = svd(T)
    ua, va = u.to_ndarray(), v.to_ndarray()

    assert 1 <= len(decomp.terms) <= d + 1
    assert all(w >= 0 for w in decomp.weights)
    assert abs(sum(decomp.weights) - 1.0) <= 1e-12
    # read each sign pattern back off its factor: diag(U^t F V)
    patterns = [np.diag(ua.T @ f.to_ndarray() @ va) for f in decomp.factors]
    for s in patterns:
        assert np.max(np.abs(np.abs(s) - 1.0)) <= 1e-9
    plus = [np.flatnonzero(s > 0).tolist() for s in patterns]
    # nested: each pattern is +1 on a longer prefix than the one before
    assert all(p == list(range(len(p))) for p in plus)
    assert all(len(a) < len(b) for a, b in zip(plus, plus[1:]))
    mean = sum(w * np.sign(s) for w, s in zip(decomp.weights, patterns))
    assert np.max(np.abs(mean - np.minimum(sigma, 1.0))) <= 1e-12
    for f in decomp.factors:
        fa = f.to_ndarray()
        assert np.max(np.abs(fa.T @ fa - np.eye(d))) <= 1e-9
    for rule in (decomp, product_rule(T)):
        assert np.max(np.abs(rule.reconstruct().to_ndarray() - a)) <= 1e-9


def test_rationalize_decomposition_roundtrip():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    a = 0.8 * a / np.linalg.svd(a)[1][0]
    decomp = decompose_contraction(OperatorMatrix(a))
    snapped, err = rationalize_decomposition(decomp, 64)
    assert sum(snapped) == 1
    assert err == max(abs(float(s) - w)
                      for s, w in zip(snapped, decomp.weights))
    assert err < 0.05
    # the rationalized combination reproduces the decomposition's own matrix
    recon = np.zeros((3, 3))
    for w, f in zip(snapped, decomp.factors):
        recon += float(w) * f.to_ndarray()
    own = decomp.reconstruct().to_ndarray()
    assert np.max(np.abs(recon - own)) < 0.1


def test_rationalize_fine_denominator():
    decomp = decompose_contraction(OperatorMatrix([[0.5]]))
    snapped, err = rationalize_decomposition(decomp, 10 ** 9)
    assert err < 1e-9
    assert sum(snapped) == 1
