"""Classical unitary N-dilation of a real contraction, used as an oracle.

The block layout is the Schaeffer/Egervary one on N+1 blocks of size d:
row 0 is [T, 0, ..., 0, D(T^t)], row 1 is [D(T), 0, ..., 0, -T^t], and rows
2..N carry the identity one block below the diagonal.  For N = 1 the
subdiagonal rows are absent and the matrix is the plain Halmos form
[[T, D(T^t)], [D(T), -T^t]].  Compressing U^n back to block 0 reproduces
T^n for every n up to N, which makes this construction an independent check
on the convex-combination pipeline in the Hilbert case p = 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .builders import ConvexCombination, build_n_dilation_parts, compressed_powers
from .isometries import decompose_contraction, rationalize_decomposition
from .linalg import EXACT, OperatorMatrix, PNorm, sym_eig

DIM_CAP = 256        # d*(N+1): oracle's N+1 dense powers of U, ~1 s at 256 and ~16 s at 512
                     # on one BLAS thread of a 2-vCPU x86 host
_NORM_TOL = 1e-12
_EIG_FLOOR = -1e-10
_CROSS_POWER_CAP = 4
_CROSS_SNAP_DENOMINATOR = 10 ** 9


def spectral_norm(T: OperatorMatrix) -> float:
    """Largest singular value, from the eigenvalues of T^t T."""
    t = T.to_float() if T.mode == EXACT else T
    evals, _ = sym_eig(t.transpose() @ t)
    return math.sqrt(max(evals[-1], 0.0))


def defect_root(T: OperatorMatrix) -> OperatorMatrix:
    """The defect operator (I - T^t T)^(1/2) of a contraction.

    Eigenvalues of I - T^t T are clamped into [0, 1] before rooting;
    negatives below -1e-10 mean T is genuinely expanding and raise.
    """
    t = T.to_float() if T.mode == EXACT else T
    if not t.is_square:
        raise ValueError("defect operator needs a square matrix")
    d = t.rows
    gram = t.transpose() @ t
    body = OperatorMatrix(np.eye(d) - gram.to_ndarray())
    evals, vecs = sym_eig(body)
    if evals[0] < _EIG_FLOOR:
        raise ValueError(f"not a contraction: defect eigenvalue {evals[0]:.3e}")
    roots = np.array([math.sqrt(min(max(e, 0.0), 1.0)) for e in evals])
    v = vecs.to_ndarray()
    return OperatorMatrix((v * roots) @ v.T)


@dataclass(frozen=True)
class UnitaryNDilation:
    """Orthogonal matrix on N+1 blocks whose corner powers reproduce T^n."""

    U: OperatorMatrix
    d: int
    N: int

    def compression(self, n: int) -> OperatorMatrix:
        """Top-left d x d corner of U^n."""
        if n < 0:
            raise ValueError("nonnegative powers only")
        arr = np.linalg.matrix_power(self.U.to_ndarray(), n)
        return OperatorMatrix(arr[: self.d, : self.d].copy())

    def orthogonality_defect(self) -> float:
        u = self.U.to_ndarray()
        return float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))


def schaffer_dilation(T: OperatorMatrix, N: int) -> UnitaryNDilation:
    """Block unitary N-dilation of a contraction on R^d.

    Requires the spectral norm of T to be at most 1 (up to 1e-12, then
    clamped inside the defect roots), and d*(N+1) at most DIM_CAP.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if not T.is_square:
        raise ValueError("need a square matrix")
    if T.rows * (N + 1) > DIM_CAP:
        raise ValueError(f"dilation too large: {N + 1} blocks of size {T.rows} are over "
                         f"the cap of {DIM_CAP} dimensions")
    t = T.to_float() if T.mode == EXACT else T
    nrm = spectral_norm(t)
    if nrm > 1.0 + _NORM_TOL:
        raise ValueError(f"spectral norm {nrm:.12g} exceeds 1")
    d = t.rows
    a = t.to_ndarray()
    dt = defect_root(t).to_ndarray()
    dtt = defect_root(t.transpose()).to_ndarray()
    big = d * (N + 1)
    u = np.zeros((big, big))
    u[0:d, 0:d] = a
    u[0:d, N * d:] = dtt
    u[d:2 * d, 0:d] = dt
    u[d:2 * d, N * d:] = -a.T
    for j in range(2, N + 1):
        u[j * d:(j + 1) * d, (j - 1) * d:j * d] = np.eye(d)
    return UnitaryNDilation(OperatorMatrix(u), d, N)


@dataclass(frozen=True)
class CrossValidationReport:
    """Residual curves of the two dilation routes against the powers of T.

    The oracle curve comes from compressing the block unitary; the
    decomposition curve goes through the sign-flip convex combination of
    at most d + 1 orthogonal matrices (each singular value written as
    E[sign(sigma - u)] for u uniform on [-1, 1]) and the cyclic dilation
    built from it, so it also absorbs the weight-snapping error.
    """

    d: int
    N: int
    oracle_residuals: tuple[float, ...]
    decomposition_residuals: tuple[float, ...]
    reconstruction_error: float
    weight_sum: float
    rationalization_error: float

    @property
    def max_oracle(self) -> float:
        return max(self.oracle_residuals)

    @property
    def max_decomposition(self) -> float:
        return max(self.decomposition_residuals)


def cross_validate(T: OperatorMatrix, N: int,
                   snap_denominator: int = _CROSS_SNAP_DENOMINATOR) -> CrossValidationReport:
    """Run both dilation routes on a Hilbert-space contraction and compare.

    Route one decomposes T into a convex combination of orthogonal matrices
    (weights snapped to rationals) and compresses the cyclic dilation built
    from it; route two compresses the classical block unitary.  The report
    holds one residual per power n = 0..N for each route.
    """
    t = T.to_float() if T.mode == EXACT else T
    if not t.is_square:
        raise ValueError("need a square matrix")
    if not 1 <= N <= _CROSS_POWER_CAP:
        raise ValueError(f"cross validation supports 1 <= N <= {_CROSS_POWER_CAP}")
    # first, so that svd's dimension cap refuses a large d before the oracle is built
    decomp = decompose_contraction(t)

    a = t.to_ndarray()
    targets = [np.linalg.matrix_power(a, n) for n in range(N + 1)]

    oracle = schaffer_dilation(t, N)
    oracle_res = tuple(
        float(np.max(np.abs(oracle.compression(n).to_ndarray() - targets[n])))
        for n in range(N + 1))

    weight_sum = float(sum(decomp.weights))
    recon_err = float(np.max(np.abs(decomp.reconstruct().to_ndarray() - a)))
    rat_weights, rat_err = rationalize_decomposition(decomp, snap_denominator)
    combo = ConvexCombination(tuple(decomp.factors), tuple(rat_weights))
    # map drops each part before the next is built
    parts = list(map(functools.partial(compressed_powers, n_max=N),
                     build_n_dilation_parts(combo, N, PNorm(2))))
    decomp_res = tuple(
        float(np.max(np.abs(sum(powers[1:], powers[0]).to_ndarray() - targets[n])))
        for n, powers in enumerate(zip(*parts)))
    return CrossValidationReport(t.rows, N, oracle_res, decomp_res,
                                 recon_err, weight_sum, rat_err)
