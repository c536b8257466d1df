"""Matrix and norm arithmetic over two scalar modes.

Everything downstream runs on :class:`OperatorMatrix`, which carries its
entries either in ``exact`` mode (Python ints and ``fractions.Fraction``,
closed under sums, products and rational scalings, never rounded) or in
``float64`` mode (a numpy array).  The exact mode is what makes
zero-tolerance certification of the dilation identities possible; the float
mode serves the Hilbert-space pipeline where square roots are unavoidable.

Modes never mix silently: combining an exact matrix with a float one raises
:class:`ModeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

EXACT = "exact"
FLOAT64 = "float64"

_SYMMETRY_TOL = 1e-12


class ModeError(ValueError):
    """Raised when exact and float64 operands meet in one operation."""


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_fraction(x) -> Fraction:
    """Coerce an exact scalar (int, Fraction, or 'num/den' string) to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ModeError(f"not an exact scalar: {x!r}")


@dataclass(frozen=True)
class PNorm:
    """An l^p norm with rational p > 1 and exact Hoelder conjugate q.

    q = p / (p - 1), so 1/p + 1/q = 1 holds as an identity of fractions,
    not merely up to rounding.
    """

    p: Fraction

    def __post_init__(self):
        p = as_fraction(self.p)
        if p <= 1:
            raise ValueError(f"p must be > 1, got {p}")
        object.__setattr__(self, "p", p)

    @classmethod
    def parse(cls, text: str | int | Fraction) -> "PNorm":
        return cls(as_fraction(text))

    @property
    def q(self) -> Fraction:
        return self.p / (self.p - 1)

    @property
    def is_integer(self) -> bool:
        return self.p.denominator == 1

    def __str__(self) -> str:
        return str(self.p)


@dataclass(frozen=True)
class SpaceDescriptor:
    """Dimension, norm and a human-readable account of how a space was built.

    norm is None for the one l^1 construction (the cyclic shift window),
    since PNorm deliberately excludes p = 1; the structure string says so.
    """

    dim: int
    norm: PNorm | None
    structure: str

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("space dimension must be positive")


def _detect_mode(rows) -> str:
    saw_float = False
    saw_fraction = False
    for row in rows:
        for x in row:
            if isinstance(x, bool):
                raise ValueError("bool is not a matrix entry")
            if isinstance(x, Fraction):
                saw_fraction = True
            elif isinstance(x, int):
                pass
            elif isinstance(x, (float, np.floating)):
                saw_float = True
            else:
                raise ValueError(f"unsupported entry type: {type(x).__name__}")
    if saw_float and saw_fraction:
        raise ModeError("rows mix Fraction and float entries; convert explicitly")
    return FLOAT64 if saw_float else EXACT


class OperatorMatrix:
    """A dense rows x cols matrix in one scalar mode.

    Exact mode stores a list of row lists with int/Fraction entries; float64
    mode stores a numpy array.  All arithmetic preserves the mode and raises
    ModeError across modes.
    """

    __slots__ = ("rows", "cols", "mode", "_data")

    def __init__(self, data, mode: str | None = None):
        if isinstance(data, np.ndarray):
            arr = np.asarray(data, dtype=float)
            if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ValueError("need a non-empty 2-d array")
            self.rows, self.cols = int(arr.shape[0]), int(arr.shape[1])
            self.mode = FLOAT64
            self._data = arr
            return
        rows = [list(r) for r in data]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        ncol = len(rows[0])
        if any(len(r) != ncol for r in rows):
            raise ValueError("ragged rows")
        detected = _detect_mode(rows)
        # exact literals may be coerced into float mode, never the reverse
        if mode not in (None, detected, FLOAT64):
            raise ModeError(f"requested mode {mode} but entries are {detected}")
        self.rows, self.cols = len(rows), ncol
        self.mode = mode or detected
        if self.mode == FLOAT64:
            self._data = np.array([[float(x) for x in r] for r in rows], dtype=float)
        else:
            self._data = rows

    @classmethod
    def _from_exact_rows(cls, rows: list[list]) -> "OperatorMatrix":
        """Internal fast path: rows are already validated exact lists."""
        m = object.__new__(cls)
        m.rows = len(rows)
        m.cols = len(rows[0])
        m.mode = EXACT
        m._data = rows
        return m

    @classmethod
    def identity(cls, n: int, mode: str = EXACT) -> "OperatorMatrix":
        if mode == FLOAT64:
            return cls(np.eye(n))
        return cls._from_exact_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, mode: str = EXACT) -> "OperatorMatrix":
        if mode == FLOAT64:
            return cls(np.zeros((rows, cols)))
        return cls._from_exact_rows([[0] * cols for _ in range(rows)])

    # -- access -----------------------------------------------------------

    def __getitem__(self, ij) -> Fraction | int | float:
        i, j = ij
        if self.mode == FLOAT64:
            return float(self._data[i, j])
        return self._data[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row_entries(self, i: int):
        if self.mode == FLOAT64:
            return [float(x) for x in self._data[i]]
        return list(self._data[i])

    def to_ndarray(self) -> np.ndarray:
        if self.mode == FLOAT64:
            return self._data.copy()
        return np.array([[float(x) for x in r] for r in self._data], dtype=float)

    def to_float(self) -> "OperatorMatrix":
        return OperatorMatrix(self.to_ndarray())

    def __repr__(self) -> str:
        return f"OperatorMatrix({self.rows}x{self.cols}, {self.mode})"

    # -- arithmetic -------------------------------------------------------

    def _check_mode(self, other: "OperatorMatrix"):
        if self.mode != other.mode:
            raise ModeError(f"mode mismatch: {self.mode} vs {other.mode}")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_mode(other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        if self.mode == FLOAT64:
            return OperatorMatrix(self._data @ other._data)
        out = [[0] * other.cols for _ in range(self.rows)]
        bdata = other._data
        for i, arow in enumerate(self._data):
            orow = out[i]
            for k, aik in enumerate(arow):
                if aik:
                    for j, bkj in enumerate(bdata[k]):
                        if bkj:
                            orow[j] = orow[j] + aik * bkj
        return OperatorMatrix._from_exact_rows(out)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError(f"dimension mismatch: {self.shape} + {other.shape}")
        if self.mode == FLOAT64:
            return OperatorMatrix(self._data + other._data)
        return OperatorMatrix._from_exact_rows(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)]
        )

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "OperatorMatrix":
        return self.scale(-1)

    def scale(self, c) -> "OperatorMatrix":
        if self.mode == FLOAT64:
            return OperatorMatrix(self._data * float(c))
        if not is_exact_scalar(c):
            raise ModeError("exact matrices only scale by exact rationals")
        return OperatorMatrix._from_exact_rows([[c * x for x in r] for r in self._data])

    def transpose(self) -> "OperatorMatrix":
        if self.mode == FLOAT64:
            return OperatorMatrix(self._data.T.copy())
        return OperatorMatrix._from_exact_rows([list(col) for col in zip(*self._data)])

    def power(self, n: int) -> "OperatorMatrix":
        if not self.is_square:
            raise ValueError("power needs a square matrix")
        if n < 0:
            raise ValueError("negative powers not supported")
        acc = OperatorMatrix.identity(self.rows, self.mode)
        for _ in range(n):
            acc = acc @ self
        return acc

    # -- comparisons and norms -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if self.mode != other.mode or self.shape != other.shape:
            return False
        if self.mode == FLOAT64:
            return bool(np.array_equal(self._data, other._data))
        return all(ra == rb for ra, rb in zip(self._data, other._data))

    __hash__ = None  # mutable payload; not hashable

    def one_norm(self):
        """Maximum absolute column sum (the l1 -> l1 operator norm)."""
        if self.mode == FLOAT64:
            return float(np.max(np.sum(np.abs(self._data), axis=0)))
        sums = [sum(abs(r[j]) for r in self._data) for j in range(self.cols)]
        return max(sums)


def operator_residual(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Largest absolute entry of a - b, as a float64 in either mode.

    Exact mode returns 0.0 exactly when the matrices agree entrywise.
    Comparing across modes is a ModeError, never a tolerance question.
    """
    if a.mode != b.mode:
        raise ModeError(f"mode mismatch: {a.mode} vs {b.mode}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.mode == FLOAT64:
        return float(np.max(np.abs(a._data - b._data)))
    worst = 0.0
    for ra, rb in zip(a._data, b._data):
        for x, y in zip(ra, rb):
            if x != y:
                worst = max(worst, abs(float(x - y)))
    return worst


def lp_norm(vector: Sequence, norm: PNorm) -> float:
    """l^p norm of a vector, always returned as float64.

    Accepts exact or float entries; exact entries are converted for the
    final root, which is irrational in general.
    """
    p = float(norm.p)
    total = 0.0
    for x in vector:
        total += abs(float(x)) ** p
    return total ** (1.0 / p)


def lp_norm_pow_p(vector: Sequence, norm: PNorm) -> Fraction:
    """Exact sum of |x_k|^p for integer p and exact entries.

    This is the quantity that certifies isometry without touching roots.
    Non-integer p or float entries cannot be certified exactly and raise.
    """
    if not norm.is_integer:
        raise ValueError(f"exact p-power norm needs integer p, got p={norm.p}")
    p = int(norm.p)
    total = Fraction(0)
    for x in vector:
        if not is_exact_scalar(x):
            raise ModeError("exact p-power norm needs exact entries")
        total += Fraction(abs(x)) ** p
    return total


def block_diag(blocks: Sequence[OperatorMatrix]) -> OperatorMatrix:
    """Direct sum of square blocks, all in one mode."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("block_diag of an empty sequence")
    mode = blocks[0].mode
    for b in blocks:
        if b.mode != mode:
            raise ModeError("block_diag blocks must share one mode")
        if not b.is_square:
            raise ValueError("block_diag blocks must be square")
    dim = sum(b.rows for b in blocks)
    if mode == FLOAT64:
        out = np.zeros((dim, dim))
        at = 0
        for b in blocks:
            out[at:at + b.rows, at:at + b.rows] = b._data
            at += b.rows
        return OperatorMatrix(out)
    rows = [[0] * dim for _ in range(dim)]
    at = 0
    for b in blocks:
        for i, r in enumerate(b._data):
            rows[at + i][at:at + b.cols] = list(r)
        at += b.rows
    return OperatorMatrix._from_exact_rows(rows)


def sym_eig(matrix: OperatorMatrix) -> tuple[list[float], OperatorMatrix]:
    """Eigendecomposition of a symmetric float64 matrix (LAPACK, via numpy).

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvectors as columns.
    """
    if matrix.mode != FLOAT64:
        raise ModeError("sym_eig operates on float64 matrices")
    if not matrix.is_square:
        raise ValueError("sym_eig needs a square matrix")
    a = matrix.to_ndarray()
    if float(np.max(np.abs(a - a.T))) > _SYMMETRY_TOL:
        raise ValueError("matrix not symmetric within 1e-12")
    evals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return [float(x) for x in evals], OperatorMatrix(vecs)
