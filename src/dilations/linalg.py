"""Matrix and norm arithmetic over two scalar modes, in one representation.

Everything downstream runs on :class:`OperatorMatrix`: a 2-d numpy array of
numerators over one positive integer denominator.  In ``float64`` mode the
array holds the entries and the denominator is 1.  In ``exact`` mode it
holds Python ints (``dtype=object``) over a common denominator, so sums,
products and rational scalings stay exact and never overflow, and
``fractions.Fraction`` values are built only where single entries are read
out.  The exact mode is what makes zero-tolerance certification of the
dilation identities possible; the float mode serves the Hilbert-space
pipeline where square roots are unavoidable.  Both run the same array code:
with denominator 1 every float formula is the plain numpy one.

Modes never mix silently: combining an exact matrix with a float one raises
:class:`ModeError`.
"""

from __future__ import annotations

import math
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
    """A dense rows x cols matrix: a numpy array of numerators over one denominator.

    Float64 mode holds the entries as a float64 array over denominator 1.
    Exact mode holds integer numerators as Python ints (``dtype=object``,
    so nothing overflows) over one positive common denominator, which need
    not be the least.  Every operation therefore has one body for both
    modes: a product multiplies the arrays and the denominators, a sum
    brings both to the lcm of the denominators, and equality
    cross-multiplies.  Operands of different modes raise ModeError.
    """

    __slots__ = ("rows", "cols", "mode", "_data", "_den")

    def __init__(self, data, mode: str | None = None):
        if isinstance(data, np.ndarray):
            arr = np.asarray(data, dtype=float)
            if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ValueError("need a non-empty 2-d array")
            self._set(arr, 1)
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
        if (mode or detected) == FLOAT64:
            self._set(np.array([[float(x) for x in r] for r in rows], dtype=float), 1)
            return
        den = math.lcm(*(x.denominator for r in rows for x in r))
        self._set(np.array([[x.numerator * (den // x.denominator) for x in r] for r in rows],
                           dtype=object), den)

    def _set(self, data: np.ndarray, den: int):
        self._data, self._den = data, den
        self.rows, self.cols = data.shape
        self.mode = EXACT if data.dtype == object else FLOAT64

    @classmethod
    def _of(cls, data: np.ndarray, den: int) -> "OperatorMatrix":
        """Internal fast path: data is float64 over 1, or Python ints over den."""
        m = object.__new__(cls)
        m._set(data, den)
        return m

    @classmethod
    def from_numerators(cls, nums: np.ndarray, den: int = 1) -> "OperatorMatrix":
        """The matrix nums / den: a float64 array over 1, or integer numerators over den > 0."""
        if nums.dtype.kind in "iu":
            nums = nums.astype(object)
        if nums.ndim != 2 or not (nums.dtype == object and den >= 1
                                  or nums.dtype == np.float64 and den == 1):
            raise ValueError("need a 2-d float64 array over 1, or integers over a positive "
                             "denominator")
        return cls._of(nums, den)

    @classmethod
    def identity(cls, n: int, mode: str = EXACT) -> "OperatorMatrix":
        data = _zeros((n, n), mode)
        np.fill_diagonal(data, 1)
        return cls._of(data, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int, mode: str = EXACT) -> "OperatorMatrix":
        return cls._of(_zeros((rows, cols), mode), 1)

    # -- access -----------------------------------------------------------

    @property
    def numerators(self) -> np.ndarray:
        """The numerator array, float64 or Python ints; shared, so never modify it."""
        return self._data

    @property
    def denominator(self) -> int:
        return self._den

    def _entry(self, x):
        """One numerator as an entry: a float, or an int or Fraction over the denominator."""
        if self.mode == FLOAT64:
            return float(x)
        return x if self._den == 1 else Fraction(x, self._den)

    def __getitem__(self, ij) -> Fraction | int | float:
        i, j = ij
        return self._entry(self._data[i, j])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row_entries(self, i: int):
        return [self._entry(x) for x in self._data[i].tolist()]

    def entries(self) -> list[list]:
        """Every row's entries, read from the array at once."""
        rows, den = self._data.tolist(), self._den
        return rows if den == 1 else [[Fraction(x, den) for x in row] for row in rows]

    def to_ndarray(self) -> np.ndarray:
        """The entries as float64, each correctly rounded (Python int true division)."""
        return (self._data if self._den == 1 else self._data / self._den).astype(float)

    def to_float(self) -> "OperatorMatrix":
        return OperatorMatrix._of(self.to_ndarray(), 1)

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
        return OperatorMatrix._of(self._data @ other._data, self._den * other._den)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError(f"dimension mismatch: {self.shape} + {other.shape}")
        a, b, den = _over_lcm(self, other)
        return OperatorMatrix._of(a + b, den)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "OperatorMatrix":
        return self.scale(-1)

    def scale(self, c) -> "OperatorMatrix":
        if self.mode == FLOAT64:
            return OperatorMatrix._of(self._data * float(c), 1)
        if not is_exact_scalar(c):
            raise ModeError("exact matrices only scale by exact rationals")
        return OperatorMatrix._of(_times(self._data, c.numerator), self._den * c.denominator)

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix._of(self._data.T.copy(), self._den)

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
        # the shapes agree, so comparing the nested lists compares entrywise
        return _times(self._data, other._den).tolist() == _times(other._data, self._den).tolist()

    __hash__ = None  # mutable payload; not hashable

    def one_norm(self):
        """Maximum absolute column sum (the l1 -> l1 operator norm)."""
        return self._entry(np.max(np.sum(np.abs(self._data), axis=0)))


def _zeros(shape: tuple[int, int], mode: str) -> np.ndarray:
    return np.zeros(shape, dtype=float if mode == FLOAT64 else object)


def _times(nums: np.ndarray, k: int) -> np.ndarray:
    return nums if k == 1 else nums * k


def _over_lcm(a: OperatorMatrix, b: OperatorMatrix) -> tuple[np.ndarray, np.ndarray, int]:
    """a's and b's numerators over the lcm of their denominators, and that lcm."""
    den = math.lcm(a._den, b._den)
    return _times(a._data, den // a._den), _times(b._data, den // b._den), den


def operator_residual(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Largest absolute entry of a - b, as a float64 in either mode.

    Exact mode returns 0.0 exactly when the matrices agree entrywise, and
    otherwise the correctly rounded exact maximum.  Comparing across modes
    is a ModeError, never a tolerance question.
    """
    if a.mode != b.mode:
        raise ModeError(f"mode mismatch: {a.mode} vs {b.mode}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    x, y, den = _over_lcm(a, b)
    return float(np.max(np.abs(x - y)) / den)


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
    """Direct sum of square blocks, all in one mode, over the lcm of their denominators."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("block_diag of an empty sequence")
    mode = blocks[0].mode
    for b in blocks:
        if b.mode != mode:
            raise ModeError("block_diag blocks must share one mode")
        if not b.is_square:
            raise ValueError("block_diag blocks must be square")
    den = math.lcm(*(b.denominator for b in blocks))
    dim = sum(b.rows for b in blocks)
    out = _zeros((dim, dim), mode)
    at = 0
    for b in blocks:
        out[at:at + b.rows, at:at + b.rows] = _times(b.numerators, den // b.denominator)
        at += b.rows
    return OperatorMatrix._of(out, den)


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
