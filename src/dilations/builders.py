"""Constructors of dilation triples, and the word-level verifier.

A dilation triple (J, U_family, Q) on a bigger space certifies operator
products by compression: for a word w = (l_1, ..., l_n) of operator labels,
Q U_{l_1} ... U_{l_n} J should equal the product of the target operators.
Each builder guarantees that equality for words up to a stated length
(n_guarantee), and :func:`verify_dilation` checks it word by word.

The central construction dilates a convex combination sum(w_k T_k) of
invertible l^p isometries.  Its big space is indexed by all assignments
alpha of the m isometries to N cyclic slots; the isometry picked by slot k
feeds slot k from slot k+1 (cyclically), and the embedding and read-out
carry the factored weights (base_alpha)^(1/p) and (base_alpha)^(1/q).
Because the two exponents sum to 1 exactly, the composition Q U^n J only
ever multiplies a rational base by rational matrix entries, so the whole
verification runs in exact arithmetic with zero tolerance.

:class:`DilationTriple` checks once that J, Q and every U fit together;
after that a compression validates nothing.  Every word product, of U and
of the targets, comes from one prefix walk, multiplied left to right, and a
compression is one dot of per-block coefficients with U_w's stack in both
modes.  Exact matrices are integer numerators over one denominator, in
:class:`OperatorMatrix` as in the block kernel.  Only
:class:`BlockDiagonalOperator`, where the volume is, keeps its numerators
in int64 while a bound proves that safe: ``_integer_stack`` brings
matrices in, and a compression hands its numerators back as Python ints.
An exact word is decided by one ``==`` and a float word by its residual.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .linalg import (EXACT, FLOAT64, ModeError, OperatorMatrix, PNorm,
                     SpaceDescriptor, as_fraction, block_diag,
                     lp_norm_pow_p, operator_residual)
from .isometries import is_lp_isometry

INFINITE_GUARANTEE = math.inf
WORD_CAP = 10_000
WORD_LABEL_CAP = 100 * WORD_CAP   # labels in all of a word set's words: WORD_CAP of length 100
STACK_BYTES_CAP = 64 * 2 ** 20    # a builder's U stacks, at 8 bytes per entry
GATHER_BYTES_CAP = 64 * 2 ** 20   # N sub-blocks of 8-byte entries: bounds the N-long slot arrays

_L1_CONTRACTION_TOL = 1e-12


@dataclass(frozen=True)
class ConvexCombination:
    """A convex combination of same-size operator matrices with exact weights.

    Weights are coerced to Fraction, must be nonnegative and sum to 1
    exactly; zero-weight terms are dropped on construction.  Whether the
    matrices really are isometries depends on p, so that check belongs to
    the builders.
    """

    isometries: tuple[OperatorMatrix, ...]
    weights: tuple[Fraction, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        isos = tuple(self.isometries)
        weights = tuple(as_fraction(w) for w in self.weights)
        labels = tuple(self.labels) if self.labels is not None else None
        if not isos:
            raise ValueError("need at least one term")
        if len(weights) != len(isos):
            raise ValueError("one weight per isometry")
        if labels is not None and len(labels) != len(isos):
            raise ValueError("one label per isometry")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if sum(weights) != 1:
            raise ValueError("weights must sum to 1 exactly")
        if any(w == 0 for w in weights):
            keep = [i for i, w in enumerate(weights) if w != 0]
            isos = tuple(isos[i] for i in keep)
            labels = tuple(labels[i] for i in keep) if labels is not None else None
            weights = tuple(weights[i] for i in keep)
        d = isos[0].rows
        mode = isos[0].mode
        for t in isos:
            if not t.is_square or t.rows != d:
                raise ValueError("isometries must be square and share one size")
            if t.mode != mode:
                raise ModeError("isometries must share one scalar mode")
        object.__setattr__(self, "isometries", isos)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return len(self.isometries)

    @property
    def dim(self) -> int:
        return self.isometries[0].rows

    @property
    def mode(self) -> str:
        return self.isometries[0].mode

    def operator(self) -> OperatorMatrix:
        """The combined operator sum(w_k T_k)."""
        acc = OperatorMatrix.zeros(self.dim, self.dim, self.mode)
        for w, t in zip(self.weights, self.isometries):
            acc = acc + t.scale(w)
        return acc


@dataclass(frozen=True, eq=False)
class ScaledBlockMap:
    """Embedding or read-out with per-block coefficients kept factored.

    Block b has the base ``class_bases[classes[b]]``: the builders hand over
    one base per weight class and each block's class, so no per-block base is
    stored.  Without `classes` there is one block per base.  An "embed" map
    sends x to one block per class entry, each block holding `copies` copies
    of x scaled by base**exponent.  A "readout" map sums the coordinates of
    every block, scaling each by its base**exponent.  The exponents of a
    builder's J and Q add up to 1, so composing through a block-diagonal
    middle factor multiplies matching bases back into plain rationals;
    nothing irrational is ever evaluated in exact mode.
    """

    orientation: str            # "embed" | "readout"
    class_bases: tuple[Fraction, ...]
    exponent: Fraction
    copies: int
    dim: int
    mode: str
    classes: np.ndarray | None = None

    def __post_init__(self):
        if self.orientation not in ("embed", "readout"):
            raise ValueError("orientation must be 'embed' or 'readout'")
        if not self.class_bases:
            raise ValueError("need at least one block")
        # a Fraction keeps its sign on the numerator
        if any(b.numerator <= 0 for b in self.class_bases):
            raise ValueError("bases must be positive rationals")
        if not (0 < self.exponent < 1):
            raise ValueError("exponent must lie strictly between 0 and 1")
        if self.copies < 1 or self.dim < 1:
            raise ValueError("copies and dim must be positive")
        classes = (np.arange(len(self.class_bases)) if self.classes is None
                   else np.asarray(self.classes))
        if (classes.ndim != 1 or not len(classes)
                or not np.issubdtype(classes.dtype, np.integer)
                or classes.min() < 0 or classes.max() >= len(self.class_bases)):
            raise ValueError("classes must give every block an index into the bases")
        object.__setattr__(self, "classes", classes)

    @property
    def block_count(self) -> int:
        return len(self.classes)

    @property
    def bases(self) -> tuple[Fraction, ...]:
        """Each block's base, expanded from the class index."""
        return tuple(self.class_bases[c] for c in self.classes.tolist())

    def scales(self) -> np.ndarray:
        """base**exponent per block as floats, for :meth:`to_matrix` (cached, read-only).

        A compression never needs them: the exponents of J and Q cancel, so
        it weights each block by its base, from ``_coefficients``.
        """
        return self._scales

    @cached_property
    def _scales(self) -> np.ndarray:
        e = float(self.exponent)
        out = np.array([float(b) ** e for b in self.class_bases])[self.classes]
        out.flags.writeable = False
        return out

    @cached_property
    def _coefficients(self) -> tuple[int, np.ndarray, int | None]:
        """Each block's base as (D, per-block coefficients, bound); the compression's weights.

        In float mode the coefficients are the bases as floats over D = 1,
        with no bound.  In exact mode they are integer numerators over one
        denominator D, int64 when every numerator fits, else Python ints;
        the bound, their sum, bounds any integer combination of them with
        entries of absolute value at most 1.
        """
        if self.mode == FLOAT64:
            return 1, np.array([float(b) for b in self.class_bases])[self.classes], None
        den = math.lcm(*(b.denominator for b in self.class_bases))
        nums = [b.numerator * (den // b.denominator) for b in self.class_bases]
        counts = np.bincount(self.classes, minlength=len(nums)).tolist()
        dtype = np.int64 if max(nums) < _INT64_LIMIT else object
        return den, np.array(nums, dtype=dtype)[self.classes], sum(map(operator.mul, nums, counts))

    def to_matrix(self) -> OperatorMatrix:
        """Materialize as a float64 matrix (the scales are irrational)."""
        scales = np.repeat(self.scales(), self.copies * self.dim)
        embed = np.tile(np.eye(self.dim), (self.block_count * self.copies, 1))
        embed *= scales[:, None]
        return OperatorMatrix(embed if self.orientation == "embed" else embed.T)

    def image_norm_pow_p(self, x: Sequence, norm: PNorm) -> Fraction:
        """Exact sum of |(Jx)_i|^p for an embed map with exponent 1/p.

        Each block contributes copies * base**(p*exponent) * sum|x_i|^p and
        p * exponent is exactly 1, so the factor is the rational base itself.
        """
        if self.orientation != "embed":
            raise ValueError("image norm is defined for embed maps")
        e = self.exponent * norm.p
        if e.denominator != 1:
            raise ValueError("p does not cancel this map's exponent exactly")
        body = lp_norm_pow_p(x, norm)
        blocks = np.bincount(self.classes, minlength=len(self.class_bases)).tolist()
        factor = sum(b ** int(e) * k for b, k in zip(self.class_bases, blocks))
        return factor * self.copies * body


@dataclass(frozen=True)
class FirstBlockMap:
    """Embedding into, or read-out of, the first of `blocks` stacked copies of a space.

    A read-out map with `reads` reads block row k through ``reads[k]`` and
    sums; without it, it reads block row 0 alone, as the identity.  Between
    an "embed" and a "readout" map a block operator therefore compresses to
    the sum of ``reads[k]`` times its sub-block in block row k and block
    column 0, which is why the compression never materializes them.
    """

    orientation: str            # "embed" | "readout"
    blocks: int
    dim: int
    mode: str
    reads: tuple[OperatorMatrix, ...] | None = None

    def __post_init__(self):
        if self.reads is not None and (
                self.orientation != "readout" or len(self.reads) != self.blocks
                or any(r.shape != (self.dim, self.dim) or r.mode != self.mode
                       for r in self.reads)):
            raise ValueError("reads must give a read-out map one dim x dim matrix per block")

    def to_matrix(self) -> OperatorMatrix:
        """The dense map: the read-out blocks side by side, or their transpose for "embed"."""
        reads = self.reads or ((OperatorMatrix.identity(self.dim, self.mode),)
                               + (OperatorMatrix.zeros(self.dim, self.dim, self.mode),)
                               * (self.blocks - 1))
        readout = OperatorMatrix([[x for r in reads for x in r.row_entries(i)]
                                  for i in range(self.dim)], self.mode)
        return readout if self.orientation == "readout" else readout.transpose()


class BlockDiagonalOperator:
    """Direct sum of `count` equal square blocks, each one block-monomial.

    Each outer block is a grid of `copies` x `copies` sub-blocks of size
    s x s with exactly one nonzero sub-block per block row.  ``stack[a]`` is
    the sub-block in block row 0 of outer block a, and ``tau`` is a
    permutation of the outer blocks with tau^copies = 1.  Block row k of
    outer block a holds ``stack[tau^k a]`` in block column
    (k + shift) mod copies, so the operator commutes with tau and `copies`
    sub-blocks cost the memory of one.  The builders' special cases:

    - the N-dilation builders: tau is the slot rotation of the alphas,
      copies = N and shift = 1;
    - :meth:`from_blocks`: tau is the identity and copies = 1, the plain
      block-diagonal operator of the stack;
    - ``zero_augment``'s members, and ``shift_dilation``'s U: one outer
      block, one sub-block placed ``shift`` block columns to the right.

    ``perm`` is tau^shift.  A product is one gather and one batched
    ``np.matmul``: row a of A @ B is ``A.stack[a] @ B.stack[A.perm[a]]``,
    its perm is ``B.perm[A.perm]`` and the shifts add.  Both modes keep the
    stack as a numpy array.  In float mode it holds the entries and the
    denominator is 1.  In exact mode it holds integer numerators over one
    common positive ``denominator``: signed permutations have D = 1,
    rational orthogonal matrices D = 5, 13, 65, ....  ``bound`` caps the
    largest absolute row sum of the numerators; it multiplies along
    products, and the stack stays int64 only while the bound proves that
    nothing overflows, after which it is promoted to Python ints
    (``dtype=object``).
    """

    __slots__ = ("mode", "count", "copies", "stack", "perm", "denominator", "bound",
                 "tau", "shift")

    def __init__(self, mode, stack, tau, copies, shift, perm, denominator, bound):
        """Internal: the arrays already follow the class invariants; see :meth:`from_blocks`."""
        self.mode, self.stack, self.count = mode, stack, len(stack)
        self.tau, self.copies, self.shift, self.perm = tau, copies, shift, perm
        self.denominator, self.bound = denominator, bound

    @classmethod
    def from_blocks(cls, blocks) -> "BlockDiagonalOperator":
        """The block-diagonal operator with the square sub-blocks `blocks`."""
        blocks = list(blocks)
        if not blocks:
            raise ValueError("need at least one block")
        size = blocks[0].rows
        mode = blocks[0].mode
        for b in blocks:
            if not b.is_square or b.rows != size:
                raise ValueError("blocks must be square and equally sized")
            if b.mode != mode:
                raise ModeError("blocks must share one mode")
        rows = np.arange(len(blocks))
        return _slot0_operator(blocks, rows, rows, 1, 0, mode)

    def identity_like(self) -> "BlockDiagonalOperator":
        """The identity on this operator's block layout."""
        n, s = self.stack.shape[:2]
        dtype = float if self.mode == FLOAT64 else np.int64
        stack = np.broadcast_to(np.eye(s, dtype=dtype), (n, s, s)).copy()
        return BlockDiagonalOperator(self.mode, stack, self.tau, self.copies, 0,
                                     np.arange(n), 1, None if self.mode == FLOAT64 else 1)

    @property
    def size(self) -> int:
        """Rows of one outer block."""
        return self.copies * int(self.stack.shape[1])

    @property
    def dim(self) -> int:
        return self.count * self.size

    def _orbits(self) -> np.ndarray:
        """Stack rows: [a, k] = tau^k a feeds block row k of block a."""
        rows = np.empty((self.count, self.copies), dtype=np.intp)
        rows[:, 0] = np.arange(self.count)
        for k in range(1, self.copies):
            rows[:, k] = self.tau[rows[:, k - 1]]
        return rows

    @property
    def blocks(self) -> list[OperatorMatrix]:
        """The outer blocks, materialized densely."""
        s, copies = self.stack.shape[1], self.copies
        dense = np.zeros((self.count, copies, s, copies, s), dtype=self.stack.dtype)
        outer, row = np.indices((self.count, copies))
        dense[outer, row, :, (row + self.shift) % copies, :] = self.stack[self._orbits()]
        dense = dense.reshape(self.count, self.size, self.size)
        return [OperatorMatrix.from_numerators(block, self.denominator) for block in dense]

    def __matmul__(self, other: "BlockDiagonalOperator") -> "BlockDiagonalOperator":
        if not isinstance(other, BlockDiagonalOperator):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeError("mode mismatch in block product")
        if ((self.copies, self.stack.shape) != (other.copies, other.stack.shape)
                or (self.tau is not other.tau and not np.array_equal(self.tau, other.tau))):
            raise ValueError("block partitions differ")
        bound = None if self.mode == FLOAT64 else self.bound * other.bound
        return BlockDiagonalOperator(
            self.mode, _gathered_matmul(self.stack, other.stack, self.perm, bound),
            self.tau, self.copies, (self.shift + other.shift) % self.copies,
            other.perm[self.perm], self.denominator * other.denominator, bound)

    def to_matrix(self) -> OperatorMatrix:
        return block_diag(self.blocks)

    def __repr__(self) -> str:
        return f"BlockDiagonalOperator({self.count} x {self.size}x{self.size}, {self.mode})"


_INT64_LIMIT = 2 ** 63
_ROW_CHUNK = 2 ** 12     # stack rows per chunk of the per-row temporaries


def _gathered_matmul(a: np.ndarray, b: np.ndarray, rows: np.ndarray,
                     bound: int | None) -> np.ndarray:
    """a[i] @ b[rows[i]] for every i.

    Both are promoted to Python ints once `bound` (None in float mode) no
    longer proves int64 safe.
    """
    if bound is not None and bound >= _INT64_LIMIT:
        a, b = a.astype(object), b.astype(object)
    return np.matmul(a, b[rows])


def _integer_stack(mats) -> tuple[np.ndarray, int, int]:
    """Exact square matrices as (numerator stack, least common denominator, row-sum bound)."""
    den = math.lcm(*(t.denominator for t in mats))
    nums = np.stack([t.numerators * (den // t.denominator) for t in mats])
    # the matrices' own denominators need not be least; the stack's is
    common = math.gcd(den, *nums.ravel().tolist())
    nums, den = nums // common, den // common
    bound = int(np.max(np.sum(np.abs(nums), axis=2)))
    return (nums.astype(np.int64) if bound < _INT64_LIMIT else nums), den, bound


@dataclass(frozen=True)
class DilationTriple:
    """(J, U_family, Q) on a bigger space, certified for words up to n_guarantee."""

    space: SpaceDescriptor
    J: ScaledBlockMap | FirstBlockMap
    Q: ScaledBlockMap | FirstBlockMap
    U_family: dict[str, BlockDiagonalOperator]
    n_guarantee: int | float

    def __post_init__(self):
        # everything a compression relies on is a property of the triple,
        # checked here once, so _compress checks nothing per word
        j, q, us = self.J, self.Q, list(self.U_family.values())
        if not us:
            raise ValueError("need at least one operator")
        modes = {x.mode for x in (j, q, *us)}
        if len(modes) > 1:
            raise ModeError(f"J, Q and every U must share one mode, got {sorted(modes)}")
        if type(j) is not type(q) or (j.orientation, q.orientation) != ("embed", "readout"):
            raise ValueError("J and Q must be an embed and a read-out map of one kind")
        if isinstance(j, FirstBlockMap):
            if (q.blocks, q.dim) != (j.blocks, j.dim):
                raise ValueError("J and Q first-block maps do not match")
            layout = (1, j.blocks, j.dim)
        else:
            if ((q.class_bases, q.copies, q.dim) != (j.class_bases, j.copies, j.dim)
                    or (q.classes is not j.classes and not np.array_equal(q.classes, j.classes))):
                raise ValueError("J and Q block scalings do not match")
            # J and Q split each block's base as base^(1/p) and base^(1/q), so
            # J is an isometry and the exponents cancel in Q U_w J; the mass J
            # carries is not checked, as a part of build_n_dilation_parts holds
            # only some of it
            norm = self.space.norm
            if norm is None or (j.exponent, q.exponent) != (1 / norm.p, 1 / norm.q):
                raise ValueError(f"J and Q exponents {j.exponent} and {q.exponent} are not "
                                 f"1/p and 1/q of the space's norm l^{norm}")
            layout = (j.block_count, j.copies, j.dim)
        for label, u in self.U_family.items():
            if (u.count, u.copies, u.stack.shape[1]) != layout:
                raise ValueError(f"U {label!r} has (blocks, copies, sub-block size) "
                                 f"{(u.count, u.copies, u.stack.shape[1])}, J and Q {layout}")
        # _compress counts the block rows of U as `copies` copies of its
        # stack, which holds only if tau keeps every block in its weight class
        if isinstance(j, ScaledBlockMap):
            for tau in {id(u.tau): u.tau for u in us}.values():
                if not np.array_equal(j.classes[tau], j.classes):
                    raise ValueError(
                        "J's weight classes are not invariant under U's slot rotation")

    @property
    def mode(self) -> str:
        """The one scalar mode of J, Q and every U."""
        return next(iter(self.U_family.values())).mode

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.U_family)


@dataclass(frozen=True)
class WordCheck:
    word: tuple[str, ...]
    residual: float
    passed: bool
    in_contract: bool


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of Q U_w J against the target product, word by word.

    Words longer than the triple's guarantee are reported but do not count
    toward the verdict or max_residual; they probe beyond the contract.
    """

    checks: tuple[WordCheck, ...]
    max_residual: float
    mode: str
    tolerance: float
    passed: bool
    out_of_contract_requested: bool

    def failing(self) -> list[WordCheck]:
        return [c for c in self.checks if c.in_contract and not c.passed]


# ---------------------------------------------------------------------------
# builders


def _require_isometries(named, p: PNorm):
    for name, t in named:
        if not t.is_square:
            raise ValueError(f"operator {name!r} is not square")
        if not is_lp_isometry(t, p):
            raise ValueError(f"operator {name!r} is not an invertible l^{p} isometry")


def trivial_dilation(isometries: Mapping[str, OperatorMatrix], p: PNorm) -> DilationTriple:
    """Isometries dilate themselves: J = Q = identity, every word exact.

    Each U is one outer block holding one sub-block, the isometry itself.
    """
    items = list(isometries.items())
    if not items:
        raise ValueError("need at least one isometry")
    d = items[0][1].rows
    mode = items[0][1].mode
    for name, t in items:
        if t.rows != d or t.mode != mode:
            raise ValueError("isometries must share size and mode")
    _require_isometries(items, p)
    space = SpaceDescriptor(d, p, f"X itself, dim {d}")
    u_family = {name: BlockDiagonalOperator.from_blocks([t]) for name, t in items}
    return DilationTriple(space, FirstBlockMap("embed", 1, d, mode),
                          FirstBlockMap("readout", 1, d, mode), u_family,
                          INFINITE_GUARANTEE)


def _slot0_operator(mats, first: np.ndarray, tau: np.ndarray, copies: int, shift: int,
                    mode: str) -> BlockDiagonalOperator:
    """The operator with ``stack[a] = mats[first[a]]``, laid out by (tau, copies, shift).

    In an N-dilation block a routes slot k through the isometry its slot k
    picks, reading from slot k+1 cyclically.  That is the slot-0 sub-block
    of block tau^k a, so U stores only the isometry of slot 0.
    """
    if mode == EXACT:
        mats, den, bound = _integer_stack(mats)
    else:
        mats, den, bound = np.stack([t.to_ndarray() for t in mats]), 1, None
    perm = np.arange(len(tau))
    for _ in range(shift):
        perm = tau[perm]
    return BlockDiagonalOperator(mode, mats[first], tau, copies, shift, perm, den, bound)


def _rows_under_cap(d: int, stacks: int = 1) -> int:
    """Alpha rows whose `stacks` slot-0 U stacks fit STACK_BYTES_CAP: d*d entries a row."""
    return STACK_BYTES_CAP // (stacks * d * d * 8)


def _check_size(m: int, N: int, d: int, stacks: int = 1):
    """Refuse, before anything is enumerated, U stacks over STACK_BYTES_CAP."""
    rows = _rows_under_cap(d, stacks)
    # past the cap's bit length m >= 2 is over it, so no huge power is formed
    if m ** min(N, rows.bit_length() + 1) > rows:
        raise ValueError(
            f"dilation too large: {stacks} x {m}^{N} blocks of one sub-block of size {d} "
            f"are over the cap of {STACK_BYTES_CAP} bytes, which holds {rows} blocks")


def _slot_rows(m: int, N: int, rows: np.ndarray) -> np.ndarray:
    """Alpha rows as a (len(rows), N) array of 0-based symbols.

    The alphas run over {0..m-1}^N in lexicographic order, so row r spells r
    in base m with slot 0 the most significant digit.
    """
    return rows[:, None] // m ** np.arange(N - 1, -1, -1) % m


def _turn(m: int, N: int, rows: np.ndarray) -> np.ndarray:
    """The slot rotation tau on alpha rows: slot k of tau(alpha) is slot k+1 of alpha."""
    head = m ** (N - 1)
    return rows % head * m + rows // head


def _class_keys(m: int, N: int, rows: np.ndarray) -> np.ndarray:
    """One integer per alpha row naming the multiset of its symbols.

    weight(alpha) depends only on that multiset, so it is invariant under
    tau.  The key spells the sorted slots in base m, below m^N, which int64
    holds for any dilation whose alpha rows can be enumerated at all.
    """
    place = m ** np.arange(N)
    return np.concatenate([np.sort(_slot_rows(m, N, rows[i:i + _ROW_CHUNK]), axis=1) @ place
                           for i in range(0, len(rows), _ROW_CHUNK)])


def _scaled_maps(bases, classes, N: int, d: int, p: PNorm, mode: str):
    """J and Q of an N-dilation: powers 1/p and 1/q of the same block bases."""
    one_over_p = 1 / p.p
    return (ScaledBlockMap("embed", bases, one_over_p, N, d, mode, classes),
            ScaledBlockMap("readout", bases, 1 - one_over_p, N, d, mode, classes))


def _validated_combo(combo: ConvexCombination, N: int, p: PNorm) -> ConvexCombination:
    if N < 1:
        raise ValueError("N must be at least 1")
    # with m = 1, m^N is one row whatever N is, so STACK_BYTES_CAP never binds,
    # but the slot arrays of a build are N long: GATHER_BYTES_CAP bounds N
    if N * combo.dim ** 2 * 8 > GATHER_BYTES_CAP:
        raise ValueError(f"dilation too large: N={N} sub-blocks of size {combo.dim} are over "
                         f"the cap of {GATHER_BYTES_CAP} bytes")
    names = combo.labels or tuple(f"term {i}" for i in range(combo.m))
    _require_isometries(zip(names, combo.isometries), p)
    return combo


def _n_dilation(combo: ConvexCombination, N: int, p: PNorm, label: str,
                rows: np.ndarray) -> DilationTriple:
    """The N-dilation triple on the alpha rows `rows`: sorted, and closed under tau."""
    m, d, mode = combo.m, combo.dim, combo.mode
    total = m ** N
    _, first, classes = np.unique(_class_keys(m, N, rows), return_index=True,
                                  return_inverse=True)
    ws = combo.weights
    bases = tuple(Fraction(math.prod(ws[s].numerator for s in row),
                           N * math.prod(ws[s].denominator for s in row))
                  for row in _slot_rows(m, N, rows[first]).tolist())
    j, q = _scaled_maps(bases, classes, N, d, p, mode)
    structure = f"l^{p} direct sum of N*m^N copies of X, N={N}, m={m}, dim X={d}"
    turned = _turn(m, N, rows)
    if len(rows) < total:
        structure += f", {len(rows)} of the {total} alpha rows"
        turned = np.searchsorted(rows, turned)
    space = SpaceDescriptor(N * len(rows) * d, p, structure)
    u = _slot0_operator(combo.isometries, rows // m ** (N - 1), turned, N, 1 % N, mode)
    return DilationTriple(space, j, q, {label: u}, N)


def build_n_dilation(combo: ConvexCombination, N: int, p: PNorm,
                     label: str = "T") -> DilationTriple:
    """Dilation triple for one convex combination of l^p isometries.

    The big space is a direct sum over all m^N slot assignments alpha of N
    copies of X, ordered lexicographically in alpha and then by slot.  Each
    alpha block of U routes slot k through the isometry alpha picks for it,
    reading from slot k+1 cyclically.  Rotating alpha by one slot (tau)
    rotates its block the same way, so U stores only the slot-0 sub-block of
    each alpha; the block's share of the weight, weight(alpha)/N, is split
    between J (power 1/p) and Q (power 1/q).
    """
    combo = _validated_combo(combo, N, p)
    _check_size(combo.m, N, combo.dim)
    return _n_dilation(combo, N, p, label, np.arange(combo.m ** N))


def build_n_dilation_parts(combo: ConvexCombination, N: int, p: PNorm,
                           label: str = "T") -> Iterator[DilationTriple]:
    """build_n_dilation's triple over parts of the alpha rows, each within the size cap.

    U is block diagonal over alpha and J, Q act block by block, so Q U_w J
    of the whole dilation is the sum of the parts' compressions.  A part
    is a union of whole tau orbits, taken in the order of their least rows:
    the compression of a slot-0 U needs a rotation-closed set of alphas.
    A part holds at most the cap's rows unless one orbit alone is larger.
    The orbits are found a chunk of rows at a time, so besides the part
    being built no array spans more than a chunk.  When the whole stack
    fits the cap there is one part, build_n_dilation's triple.
    """
    combo = _validated_combo(combo, N, p)
    m, step, total = combo.m, _rows_under_cap(combo.dim), combo.m ** N
    if total <= step:
        yield _n_dilation(combo, N, p, label, np.arange(total))
        return
    part, size = [], 0      # the orbits gathered for the next part, and their rows
    for start in range(0, total, _ROW_CHUNK):
        turns = [np.arange(start, min(start + _ROW_CHUNK, total))]
        for _ in range(N - 1):
            turns.append(_turn(m, N, turns[-1]))
        turns = np.stack(turns, axis=1)
        # each orbit once, from its least row; tau^k fixes that row N/size times
        orbits = turns[turns.min(axis=1) == turns[:, 0]]
        ends = np.cumsum(N // np.count_nonzero(orbits == orbits[:, :1], axis=1))
        i = 0
        while i < len(orbits):
            done = ends[i - 1] if i else 0
            # the most orbits that fit the part, and at least one in a new part
            stop = max(np.searchsorted(ends, done + step - size, "right"), i + (not part))
            if stop > i:
                part.append(orbits[i:stop])
                size += int(ends[stop - 1] - done)
                i = stop
            if i < len(orbits):
                yield _n_dilation(combo, N, p, label, np.unique(np.concatenate(part)))
                part, size = [], 0
    yield _n_dilation(combo, N, p, label, np.unique(np.concatenate(part)))


def build_simultaneous_n_dilation(family: Mapping[str, ConvexCombination],
                                  N: int, p: PNorm) -> DilationTriple:
    """One (J, Q) pair dilating a whole family of equal-weight combinations.

    Every member must already be in equal-weight form over the same count m
    (see rationalize_weights / rationalize_family); all members then share
    the block space and the constant base 1/(N*m^N), and words mixing the
    members' isometries verify up to length N.
    """
    members = list(family.items())
    if not members:
        raise ValueError("need at least one family member")
    m = members[0][1].m
    d = members[0][1].dim
    mode = members[0][1].mode
    for name, combo in members:
        if combo.m != m:
            raise ValueError(f"member {name!r} has m={combo.m}, expected {m}")
        if combo.dim != d or combo.mode != mode:
            raise ValueError("family members must share dimension and mode")
        if any(w != Fraction(1, m) for w in combo.weights):
            raise ValueError(f"member {name!r} is not in equal-weight form")
    _check_size(m, N, d, stacks=len(members))
    for _, combo in members:
        _validated_combo(combo, N, p)
    rows = np.arange(m ** N)
    first, tau = rows // m ** (N - 1), _turn(m, N, rows)
    u_family = {name: _slot0_operator(combo.isometries, first, tau, N, 1 % N, mode)
                for name, combo in members}
    j, q = _scaled_maps((Fraction(1, N * m ** N),), np.zeros(len(rows), dtype=np.intp),
                        N, d, p, mode)
    dim = N * m ** N * d
    space = SpaceDescriptor(
        dim, p,
        f"shared l^{p} direct sum for {len(members)} members, N={N}, m={m}, dim X={d}")
    return DilationTriple(space, j, q, u_family, N)


def rationalize_weights(combo: ConvexCombination, m_cap: int = 64) -> ConvexCombination:
    """Equal-weight form: each isometry repeated (weight * lcd) times.

    The least common denominator of the weights becomes the new m; the
    represented operator is unchanged.
    """
    return _expand_to_denominator(combo, _common_denominator(combo.weights, m_cap))


def _common_denominator(weights, m_cap: int) -> int:
    lcd = math.lcm(*(w.denominator for w in weights))
    if lcd > m_cap:
        raise ValueError(f"common denominator {lcd} exceeds cap {m_cap}")
    return lcd


def _expand_to_denominator(combo: ConvexCombination, lcd: int) -> ConvexCombination:
    """Each weight w as w * lcd terms of weight 1/lcd; lcd is a multiple of its denominator."""
    isos, labels = [], []
    for i, w in enumerate(combo.weights):
        count = w.numerator * (lcd // w.denominator)
        isos.extend([combo.isometries[i]] * count)
        if combo.labels is not None:
            labels.extend([combo.labels[i]] * count)
    return ConvexCombination(tuple(isos), (Fraction(1, lcd),) * lcd,
                             tuple(labels) if combo.labels is not None else None)


def rationalize_family(family: Mapping[str, ConvexCombination], N: int,
                       m_cap: int = 64) -> dict[str, ConvexCombination]:
    """Rationalize every member to one common equal-weight count for an N-dilation.

    The family's simultaneous N-dilation over that count is refused if it is
    over the size cap, before any term is copied.
    """
    if not family:
        raise ValueError("empty family")
    lcd = _common_denominator([w for combo in family.values() for w in combo.weights], m_cap)
    _check_size(lcd, N, next(iter(family.values())).dim, stacks=len(family))
    return {name: _expand_to_denominator(combo, lcd) for name, combo in family.items()}


def zero_augment(u_family: Mapping[str, OperatorMatrix], N: int,
                 p: PNorm) -> DilationTriple:
    """Adjoin the zero operator to a family of isometries on Y.

    On N+1 stacked copies of Y the nonzero members act diagonally while the
    label "0" acts as the block cycle pushing content away from the first
    block; any word of length <= N that uses "0" therefore reads out zero,
    and words without "0" reduce to the plain product.  Every U is one outer
    block of N+1 block rows that stores one sub-block: a member on the
    diagonal (shift 0), "0" as I one block column to the right (shift 1).
    J and Q embed into and read out of the first block.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    items = list(u_family.items())
    if not items:
        raise ValueError("need at least one isometry")
    if "0" in u_family:
        raise ValueError("label '0' is reserved for the adjoined zero operator")
    s = items[0][1].rows
    mode = items[0][1].mode
    for name, t in items:
        if t.rows != s or t.mode != mode:
            raise ValueError("family members must share size and mode")
    _require_isometries(items, p)
    b, one = N + 1, np.zeros(1, dtype=np.intp)
    family_out = {name: _slot0_operator([t], one, one, b, 0, mode) for name, t in items}
    family_out["0"] = _slot0_operator([OperatorMatrix.identity(s, mode)], one, one, b, 1, mode)
    space = SpaceDescriptor(b * s, p, f"l^{p} stack of {b} copies of Y, dim Y={s}")
    return DilationTriple(space, FirstBlockMap("embed", b, s, mode),
                          FirstBlockMap("readout", b, s, mode), family_out, N)


def zero_augment_targets(u_family: Mapping[str, OperatorMatrix]) -> dict[str, OperatorMatrix]:
    """Verification targets for a zero-augmented triple: the family plus 0."""
    items = dict(u_family)
    first = next(iter(items.values()))
    items["0"] = OperatorMatrix.zeros(first.rows, first.rows, first.mode)
    return items


def shift_dilation(T: OperatorMatrix, window: int, label: str = "T") -> DilationTriple:
    """Cyclic truncation of the shift dilation for an l^1 contraction.

    U rotates W+1 blocks one step (an invertible l^1 isometry): one outer
    block whose block row k holds I in block column k - 1 (mod W+1), the
    shift W.  J injects into block 0 and Q reads sum(T^k x_k), so Q U^n J
    lands on T^n exactly for n <= W; one step further the window wraps and
    the equality breaks, hence n_guarantee = W.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if not T.is_square:
        raise ValueError("need a square matrix")
    nrm = T.one_norm()
    limit = 1 if T.mode == EXACT else 1.0 + _L1_CONTRACTION_TOL
    if nrm > limit:
        raise ValueError(f"not an l^1 contraction: max column sum {nrm}")
    d, mode = T.rows, T.mode
    b = window + 1
    powers = [OperatorMatrix.identity(d, mode)]
    for _ in range(window):
        powers.append(powers[-1] @ T)
    one = np.zeros(1, dtype=np.intp)
    u = _slot0_operator([OperatorMatrix.identity(d, mode)], one, one, b, window, mode)
    space = SpaceDescriptor(
        b * d, None, f"l^1 cyclic window of {b} blocks of dim {d}")
    return DilationTriple(space, FirstBlockMap("embed", b, d, mode),
                          FirstBlockMap("readout", b, d, mode, tuple(powers)),
                          {label: u}, window)


# ---------------------------------------------------------------------------
# verification


def _prefix_products(triple: DilationTriple, words: Sequence[tuple[str, ...]],
                     targets: Mapping[str, OperatorMatrix] | None = None) -> Iterator[tuple]:
    """(word, U_w, T_w) for each distinct word, in sorted order; the one place words multiply.

    In sorted order each word comes right after its prefixes, and each step
    extends a prefix by one label with one product, left to right.  A stack
    holds (prefix length, U product, target product) along the current
    word, and keeps a prefix only at a length where a later word leaves the
    current one; the others are replaced by their extensions.  The empty
    word's products are identities, and T_w is None without targets.
    """
    identity = (None if targets is None else
                OperatorMatrix.identity(next(iter(targets.values())).rows, triple.mode))
    distinct = sorted(set(words))
    # leaves[j]: the lengths at which a later word leaves distinct[j], the
    # running minima of the common prefix lengths of neighbours from j on;
    # none exceeds len(distinct[j]), so all of them are no more than the labels
    leaves, running = [frozenset()] * len(distinct), []
    for j in range(len(distinct) - 2, -1, -1):
        a, b = distinct[j], distinct[j + 1]
        common = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        while running and running[-1] >= common:
            running.pop()
        running.append(common)
        leaves[j] = frozenset(running)
    stack: list = []
    for word, keep in zip(distinct, leaves):
        # the stack holds prefixes of word, the longest its common prefix with the last word
        for i in range(stack[-1][0] if stack else 0, len(word)):
            u, t = triple.U_family[word[i]], None if targets is None else targets[word[i]]
            if stack:
                length, pu, pt = stack[-1]
                u, t = pu @ u, None if targets is None else pt @ t
                if length not in keep:
                    stack.pop()
            stack.append((i + 1, u, t))
        if word:
            yield (word, *stack[-1][1:])
        else:
            yield word, next(iter(triple.U_family.values())).identity_like(), identity
        while stack and stack[-1][0] not in keep:
            stack.pop()


def _compress(triple: DilationTriple, middle: BlockDiagonalOperator) -> OperatorMatrix:
    """Q U_w J for a product U_w of the triple's U; DilationTriple checked that they fit."""
    j, q = triple.J, triple.Q
    if isinstance(j, FirstBlockMap):
        # J feeds block column 0, and only block row -shift holds its
        # sub-block, stack[0], there; Q reads that row through reads[row],
        # or without reads reads row 0 alone
        row = -middle.shift % middle.copies
        if q.reads is None and row:
            return OperatorMatrix.zeros(j.dim, j.dim, j.mode)
        sub = OperatorMatrix.from_numerators(middle.stack[0], middle.denominator)
        return sub if q.reads is None else q.reads[row] @ sub
    # the exponents cancel, so block a contributes base(a) times the sum of
    # its N block rows, stack[tau^k a]; base is tau-invariant (DilationTriple
    # checks it), so summed over a that is N times sum(base(a) * stack[a]):
    # one dot, over integers in exact mode
    den, coeffs, bound = j._coefficients
    stack = middle.stack
    if bound is not None and bound * middle.bound >= _INT64_LIMIT:
        coeffs, stack = coeffs.astype(object), stack.astype(object)
    nums = (coeffs @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])
    return OperatorMatrix.from_numerators(nums, den * middle.denominator).scale(j.copies)


def compress_word(triple: DilationTriple, word: Sequence[str]) -> OperatorMatrix:
    """Q U_w J for a word of labels; exact when the triple is exact."""
    for lbl in word:
        if lbl not in triple.U_family:
            raise ValueError(f"unknown operator label {lbl!r}")
    _, middle, _ = next(_prefix_products(triple, [tuple(word)]))
    return _compress(triple, middle)


def _power_label(triple: DilationTriple, label: str | None) -> str:
    if label is None:
        if len(triple.U_family) != 1:
            raise ValueError("triple has several operators; pass a label")
        label = next(iter(triple.U_family))
    if label not in triple.U_family:
        raise ValueError(f"unknown operator label {label!r}")
    return label


def _check_power(n: int):
    if n < 0:
        raise ValueError("negative powers not supported")


def compressed_power(triple: DilationTriple, n: int, label: str | None = None) -> OperatorMatrix:
    """Q U^n J for a single-operator triple (or a chosen label)."""
    _check_power(n)
    return compress_word(triple, (_power_label(triple, label),) * n)


def compressed_powers(triple: DilationTriple, n_max: int,
                      label: str | None = None) -> list[OperatorMatrix]:
    """Q U^n J for n = 0..n_max from one running product: n_max - 1 block products.

    Entry n is bit for bit :func:`compressed_power` ``(triple, n, label)``:
    both multiply in the prefix walk, left to right.
    """
    _check_power(n_max)
    label = _power_label(triple, label)
    # sorted, the powers come in the order of n
    return [_compress(triple, middle) for _, middle, _ in
            _prefix_products(triple, [(label,) * n for n in range(n_max + 1)])]


def _word_budget(label_count: int, max_len: int, cap: int) -> Iterator[tuple[int, int, bool]]:
    """(length, word count, whole) for each length that gets a word; whole: all of its words.

    Whole lengths are taken in increasing order while they fit the cap;
    once one does not, the rest of the cap is spread over the remaining
    lengths, `share` words each and one more for the first `extra` of them.
    With share 0 only those `extra` lengths are yielded, so at most `cap`
    lengths are, however large max_len is.
    """
    words = 0
    for n in range(max_len + 1):
        count = label_count ** n
        if words + count <= cap:
            words += count
            yield n, count, True
            continue
        left, k = cap - words, max_len - n + 1
        share, extra = divmod(left, k)
        for idx in range(min(k, left)):
            yield n + idx, share + (idx < extra), False
        return


def check_word_set(label_count: int, max_len: int, word_cap: int):
    """Refuse, before anything is built, a word set over WORD_LABEL_CAP labels in all.

    The count is the one :func:`_word_set` would hold for `label_count`
    labels, `max_len` and `word_cap`, worked out without making a word.  A
    negative max_len, a word_cap below 1 or no labels are left to
    verify_dilation to refuse.
    """
    if max_len < 0 or word_cap < 1 or label_count < 1:
        return
    # every length after the first adds at least its length in labels, so
    # this stops after ~sqrt(2 * WORD_LABEL_CAP) lengths however large the inputs
    total = 0
    for n, count, _ in _word_budget(label_count, max_len, word_cap):
        total += n * count
        if total > WORD_LABEL_CAP:
            raise ValueError(
                f"word set too large: up to {word_cap} words of length at most {max_len} "
                f"over {label_count} labels hold over {WORD_LABEL_CAP} labels in all")


def _word_set(labels: Sequence[str], max_len: int, cap: int,
              rng: random.Random) -> list[tuple[str, ...]]:
    """All words up to max_len, falling back to seeded sampling past the cap.

    :func:`_word_budget` splits the cap over the lengths; a length that does
    not fit whole gets uniform random words.
    """
    words: list[tuple[str, ...]] = []
    for n, count, whole in _word_budget(len(labels), max_len, cap):
        if whole:
            words.extend(itertools.product(labels, repeat=n))
        else:
            words.extend(tuple(rng.choice(labels) for _ in range(n)) for _ in range(count))
    return words


def _walk(triple: DilationTriple, targets: Mapping[str, OperatorMatrix],
          words: Sequence[tuple[str, ...]], tolerance: float) -> list[WordCheck]:
    """Decide every word; the one place a word verdict is made.

    Q U_w J must equal the target product exactly in exact mode, and lie
    within `tolerance` of it in float mode.  The products come from
    :func:`_prefix_products`, shared along common prefixes.  The checks come
    back in the order of `words`, repeats included.
    """
    exact = triple.mode == EXACT
    for t in targets.values():
        if t.mode != triple.mode:
            raise ModeError(f"mode mismatch: {triple.mode} vs {t.mode}")
    decided: dict[tuple[str, ...], WordCheck] = {}
    for word, middle, want in _prefix_products(triple, words, targets):
        got = _compress(triple, middle)
        if exact:
            passed = got == want
            residual = 0.0 if passed else operator_residual(got, want)
        else:
            residual = operator_residual(got, want)
            passed = residual <= tolerance
        decided[word] = WordCheck(word, residual, passed, len(word) <= triple.n_guarantee)
    return [decided[word] for word in words]


def check_word(triple: DilationTriple, targets: Mapping[str, OperatorMatrix],
               word: Sequence[str], tolerance: float) -> WordCheck:
    """Compare Q U_w J with the product of the targets along one word.

    An exact triple passes only when the two matrices are equal; a float
    triple passes when their residual is within tolerance.  The float
    residual is reported in both modes.  Every label of the word must name
    both an operator of the triple and a target.
    """
    return _walk(triple, targets, [tuple(word)], tolerance)[0]


def verify_dilation(triple: DilationTriple, targets: Mapping[str, OperatorMatrix],
                    max_len: int | None = None, tolerance: float = 1e-9, seed: int = 42,
                    word_cap: int = WORD_CAP,
                    words: Sequence[Sequence[str]] | None = None) -> VerificationReport:
    """Check Q U_w J against the target product, word by word.

    The words are either every word up to max_len (sampled with `seed` once
    there are more than `word_cap`) or the explicit `words`, in their order;
    give exactly one of the two.  Words are decided as :func:`check_word`
    decides them, with products shared along common prefixes.  Words beyond
    the triple's guarantee still run but are flagged and excluded from the
    verdict.
    """
    if (max_len is None) == (words is None):
        raise ValueError("give exactly one of max_len and words")
    if max_len is not None and max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if word_cap < 1:
        raise ValueError(f"word_cap must be at least 1, got {word_cap}")
    labels = list(targets)
    if not labels:
        raise ValueError("need at least one target operator")
    for lbl in labels:
        if lbl not in triple.U_family:
            raise ValueError(f"unknown operator label {lbl!r}")
    target_dim = targets[labels[0]].rows
    for lbl in labels:
        t = targets[lbl]
        if not t.is_square or t.rows != target_dim:
            raise ValueError("targets must be square and equally sized")
    if words is None:
        check_word_set(len(labels), max_len, word_cap)
        words = _word_set(labels, max_len, word_cap, random.Random(seed))
    else:
        words = [tuple(w) for w in words]
        if not words:
            raise ValueError("need at least one word to check")
        for word in words:
            for lbl in word:
                if lbl not in targets:
                    raise ValueError(f"unknown operator label {lbl!r}")
        max_len = max(map(len, words), default=0)
    checks = _walk(triple, targets, words, tolerance)
    in_c = [c for c in checks if c.in_contract]
    max_res = max((c.residual for c in in_c), default=0.0)
    passed = all(c.passed for c in in_c)
    return VerificationReport(tuple(checks), max_res, triple.mode,
                              float(tolerance), passed, max_len > triple.n_guarantee)
