"""Invertible isometries of finite l^p spaces, and contraction decompositions.

For p other than 2 the invertible isometries of a finite l^p space are the
signed permutation matrices, so isometry testing away from the Hilbert case
is a structural pattern check, done exactly when the entries are exact.  At
p = 2 the isometries are the orthogonal matrices and a Gram identity is the
right test.

The Hilbert-space route to dilations starts from an SVD: any contraction is
an average of orthogonal matrices obtained by flipping signs of its singular
values.  Each singular value sigma is E[sign(sigma - u)] for u uniform on
[-1, 1], and one draw of u sets the signs of all of them at once, so the
average has at most d + 1 terms: the sign patterns are nested thresholds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import EXACT, FLOAT64, OperatorMatrix, PNorm

_SIGNED_PERM_CAP = 5
_SVD_DIM_CAP = 16
_WEIGHT_DROP = 1e-14
_ISO_TOL = 1e-10


@dataclass(frozen=True)
class SignedPermutation:
    """Maps basis vector e_j to signs[j] * e_{perm[j]} (0-based)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        d = len(self.perm)
        if sorted(self.perm) != list(range(d)):
            raise ValueError("perm must be a bijection of 0..d-1")
        if len(self.signs) != d or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1, one per column")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def matrix(self, mode: str = EXACT) -> OperatorMatrix:
        d = self.dim
        data = np.zeros((d, d), dtype=float if mode == FLOAT64 else object)
        for j, (i, sign) in enumerate(zip(self.perm, self.signs)):
            data[i, j] = int(sign)
        return OperatorMatrix.from_numerators(data)


def all_permutations(d: int, cap: int = _SIGNED_PERM_CAP) -> list[SignedPermutation]:
    """The d! permutation operators, in lexicographic order of their maps."""
    if d > cap:
        raise ValueError(f"dimension {d} above enumeration cap {cap}")
    plus = (1,) * d
    return [SignedPermutation(p, plus) for p in itertools.permutations(range(d))]


def all_signed_permutations(d: int, cap: int = _SIGNED_PERM_CAP) -> list[SignedPermutation]:
    """All 2^d * d! signed permutation operators, deterministically ordered."""
    if d > cap:
        raise ValueError(f"dimension {d} above enumeration cap {cap}")
    out = []
    for p in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            out.append(SignedPermutation(p, signs))
    return out


def _is_signed_perm_pattern(T: OperatorMatrix, tol) -> bool:
    """One entry of magnitude 1 (within tol) per row and column, the rest 0.

    Entries are numerators over T's denominator, so tol scales with it.
    """
    mag, den = np.abs(T.numerators), T.denominator
    hits = mag > tol * den
    return bool((~hits | (np.abs(mag - den) <= tol * den)).all()
                and (hits.sum(axis=0) == 1).all() and (hits.sum(axis=1) == 1).all())


def is_lp_isometry(T: OperatorMatrix, norm: PNorm, tol: float = _ISO_TOL) -> bool:
    """Decide whether T is an invertible isometry of l^p in dimension d.

    p = 2: Gram check T^t T = I (exact, or within tol for float entries).
    p != 2: T must be a signed permutation matrix; for float entries the
    pattern is read with the same tolerance.
    """
    if not T.is_square:
        raise ValueError("isometry test needs a square matrix")
    if norm.p == 2:
        gram = T.transpose() @ T
        eye = OperatorMatrix.identity(T.rows, T.mode)
        if T.mode == EXACT:
            return gram == eye
        return float(np.max(np.abs(gram.to_ndarray() - np.eye(T.rows)))) <= tol
    return _is_signed_perm_pattern(T, 0 if T.mode == EXACT else tol)


def svd(T: OperatorMatrix) -> tuple[OperatorMatrix, list[float], OperatorMatrix]:
    """Singular value decomposition T = U diag(sigma) V^t, sigma descending.

    LAPACK (via numpy) returns full orthonormal U and V, also for defective
    inputs such as nilpotent matrices.  Singular values below
    1e-12 * max(sigma_0, 1) are reported as exactly 0.0.
    """
    if not T.is_square:
        raise ValueError("svd implemented for square matrices")
    d = T.rows
    if d > _SVD_DIM_CAP:
        raise ValueError(f"dimension {d} above svd cap {_SVD_DIM_CAP}")
    u, s, vt = np.linalg.svd(T.to_ndarray())
    floor = 1e-12 * max(float(s[0]), 1.0)
    sigma = [float(x) if x > floor else 0.0 for x in s]
    return OperatorMatrix(u), sigma, OperatorMatrix(vt.T.copy())


@dataclass(frozen=True)
class OrthogonalDecomposition:
    """A contraction written as a convex combination of orthogonal matrices."""

    terms: tuple[tuple[float, OperatorMatrix], ...]

    @property
    def weights(self) -> list[float]:
        return [w for w, _ in self.terms]

    @property
    def factors(self) -> list[OperatorMatrix]:
        return [f for _, f in self.terms]

    def reconstruct(self) -> OperatorMatrix:
        acc = np.zeros(self.terms[0][1].shape)
        for w, f in self.terms:
            acc = acc + w * f.to_ndarray()
        return OperatorMatrix(acc)


def decompose_contraction(T: OperatorMatrix, tol: float = 1e-9) -> OrthogonalDecomposition:
    """Write a norm-contraction as a convex combination of orthogonal matrices.

    With T = U diag(sigma) V^t, sigma in [0, 1] and descending, and the
    edges 1, sigma_1, ..., sigma_d, -1, the k-th term (k = 0..d) has the
    sign pattern s = (+1 on the first k coordinates, -1 on the rest), the
    factor U diag(s) V^t and the weight (edge_k - edge_{k+1})/2: the chance
    that u uniform on [-1, 1] falls between those edges.  The weights sum
    to 1 and average the patterns to sigma.  Weights below 1e-14 are
    dropped, so at most d + 1 terms survive.
    """
    if T.mode != FLOAT64:
        T = T.to_float()
    if not T.is_square:
        raise ValueError("decomposition needs a square matrix")
    u, sigma, v = svd(T)
    if sigma[0] > 1.0 + tol:
        raise ValueError(f"operator norm {sigma[0]:.12g} exceeds 1 + tol")
    d = T.rows
    # svd's sigma is descending, so the clamped edges are too
    edges = np.concatenate(([1.0], np.clip(sigma, 0.0, 1.0), [-1.0]))
    ua, va = u.to_ndarray(), v.to_ndarray()
    terms = []
    for k in range(d + 1):
        w = 0.5 * float(edges[k] - edges[k + 1])
        if w < _WEIGHT_DROP:
            continue
        pattern = np.where(np.arange(d) < k, 1.0, -1.0)
        terms.append((w, OperatorMatrix((ua * pattern) @ va.T)))
    return OrthogonalDecomposition(tuple(terms))


def rationalize_decomposition(decomp: OrthogonalDecomposition,
                              max_denominator: int = 64
                              ) -> tuple[list[Fraction], float]:
    """Snap decomposition weights to fractions and renormalize to sum 1.

    Returns the exact weights and the largest absolute snapping error
    (measured after renormalization, so it is the honest figure).
    """
    snapped = [Fraction(w).limit_denominator(max_denominator) for w in decomp.weights]
    total = sum(snapped)
    if total == 0:
        raise ValueError("all weights snapped to zero")
    snapped = [w / total for w in snapped]
    err = max(abs(float(s) - w) for s, w in zip(snapped, decomp.weights))
    return snapped, err
