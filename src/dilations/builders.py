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
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .cyclic import enumerate_indices, weight_of
from .linalg import (EXACT, FLOAT64, ModeError, OperatorMatrix, PNorm,
                     SpaceDescriptor, as_fraction, block_diag,
                     lp_norm_pow_p, operator_residual)
from .isometries import is_lp_isometry

INFINITE_GUARANTEE = math.inf
WORD_CAP = 10_000

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


@dataclass(frozen=True)
class ScaledBlockMap:
    """Embedding or read-out with per-block coefficients kept factored.

    An "embed" map sends x to one block per base, each block holding
    `copies` copies of x scaled by base**exponent.  A "readout" map sums
    the coordinates of every block, scaling block b by bases[b]**exponent.
    The exponents of a builder's J and Q add up to 1, so composing through
    a block-diagonal middle factor multiplies matching bases back into
    plain rationals; nothing irrational is ever evaluated in exact mode.
    """

    orientation: str            # "embed" | "readout"
    bases: tuple[Fraction, ...]
    exponent: Fraction
    copies: int
    dim: int
    mode: str

    def __post_init__(self):
        if self.orientation not in ("embed", "readout"):
            raise ValueError("orientation must be 'embed' or 'readout'")
        if not self.bases:
            raise ValueError("need at least one block")
        if any(b <= 0 for b in self.bases):
            raise ValueError("bases must be positive rationals")
        if not (0 < self.exponent < 1):
            raise ValueError("exponent must lie strictly between 0 and 1")
        if self.copies < 1 or self.dim < 1:
            raise ValueError("copies and dim must be positive")

    @property
    def block_count(self) -> int:
        return len(self.bases)

    @property
    def big_dim(self) -> int:
        return self.block_count * self.copies * self.dim

    def scales(self) -> np.ndarray:
        e = float(self.exponent)
        return np.array([float(b) ** e for b in self.bases])

    def to_matrix(self) -> OperatorMatrix:
        """Materialize as a float64 matrix (the scales are irrational)."""
        d, big = self.dim, self.big_dim
        scales = self.scales()
        if self.orientation == "embed":
            out = np.zeros((big, d))
        else:
            out = np.zeros((d, big))
        at = 0
        for s in scales:
            for _ in range(self.copies):
                if self.orientation == "embed":
                    out[at:at + d, :] = s * np.eye(d)
                else:
                    out[:, at:at + d] = s * np.eye(d)
                at += d
        return OperatorMatrix(out)

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
        factor = sum((b ** int(e)) * self.copies for b in self.bases)
        return factor * body


class BlockDiagonalOperator:
    """Direct sum of equally sized square blocks, one scalar mode.

    Exact mode keeps a list of OperatorMatrix blocks; float mode keeps a
    stacked (count, size, size) array so products run batched.
    """

    __slots__ = ("mode", "count", "size", "_blocks", "_stack")

    def __init__(self, *, blocks=None, stack=None):
        if (blocks is None) == (stack is None):
            raise ValueError("give exactly one of blocks or stack")
        if stack is not None:
            arr = np.asarray(stack, dtype=float)
            if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
                raise ValueError("stack must be (count, size, size)")
            self.mode = FLOAT64
            self.count, self.size = int(arr.shape[0]), int(arr.shape[1])
            self._stack = arr
            self._blocks = None
            return
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
        if mode == FLOAT64:
            self.mode = FLOAT64
            self.count, self.size = len(blocks), size
            self._stack = np.stack([b.to_ndarray() for b in blocks])
            self._blocks = None
        else:
            self.mode = EXACT
            self.count, self.size = len(blocks), size
            self._blocks = blocks
            self._stack = None

    @classmethod
    def from_blocks(cls, blocks) -> "BlockDiagonalOperator":
        return cls(blocks=blocks)

    @classmethod
    def identity(cls, count: int, size: int, mode: str) -> "BlockDiagonalOperator":
        if mode == FLOAT64:
            return cls(stack=np.broadcast_to(np.eye(size), (count, size, size)).copy())
        eye = OperatorMatrix.identity(size)
        return cls(blocks=[eye] * count)

    @property
    def dim(self) -> int:
        return self.count * self.size

    @property
    def blocks(self) -> list[OperatorMatrix]:
        if self.mode == EXACT:
            return list(self._blocks)
        return [OperatorMatrix(self._stack[i]) for i in range(self.count)]

    @property
    def stack(self) -> np.ndarray:
        if self.mode != FLOAT64:
            raise ModeError("stack view exists in float mode only")
        return self._stack

    def __matmul__(self, other: "BlockDiagonalOperator") -> "BlockDiagonalOperator":
        if not isinstance(other, BlockDiagonalOperator):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeError("mode mismatch in block product")
        if self.count != other.count or self.size != other.size:
            raise ValueError("block partitions differ")
        if self.mode == FLOAT64:
            return BlockDiagonalOperator(stack=np.matmul(self._stack, other._stack))
        return BlockDiagonalOperator(
            blocks=[a @ b for a, b in zip(self._blocks, other._blocks)])

    def to_matrix(self) -> OperatorMatrix:
        return block_diag(self.blocks)

    def __repr__(self) -> str:
        return f"BlockDiagonalOperator({self.count} x {self.size}x{self.size}, {self.mode})"


@dataclass(frozen=True)
class DilationTriple:
    """(J, U_family, Q) on a bigger space, certified for words up to n_guarantee."""

    space: SpaceDescriptor
    J: ScaledBlockMap | OperatorMatrix
    Q: ScaledBlockMap | OperatorMatrix
    U_family: dict[str, OperatorMatrix | BlockDiagonalOperator]
    n_guarantee: int | float
    mode: str

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
    """Isometries dilate themselves: J = Q = identity, every word exact."""
    items = list(isometries.items())
    if not items:
        raise ValueError("need at least one isometry")
    d = items[0][1].rows
    mode = items[0][1].mode
    for name, t in items:
        if t.rows != d or t.mode != mode:
            raise ValueError("isometries must share size and mode")
    _require_isometries(items, p)
    eye = OperatorMatrix.identity(d, mode)
    space = SpaceDescriptor(d, p, f"X itself, dim {d}")
    return DilationTriple(space, eye, eye, dict(items), INFINITE_GUARANTEE, mode)


def _alpha_blocks_exact(isos, indices, N, d):
    blocks = []
    s = N * d
    for alpha in indices:
        rows = [[0] * s for _ in range(s)]
        for k in range(N):
            t = isos[alpha.values[k] - 1]
            off = ((k + 1) % N) * d
            for i in range(d):
                rows[k * d + i][off:off + d] = list(t._data[i])
        blocks.append(OperatorMatrix._from_exact_rows(rows))
    return BlockDiagonalOperator(blocks=blocks)


def _alpha_blocks_float(isos, indices, N, d):
    mats = [t.to_ndarray() for t in isos]
    s = N * d
    stack = np.zeros((len(indices), s, s))
    for b, alpha in enumerate(indices):
        for k in range(N):
            off = ((k + 1) % N) * d
            stack[b, k * d:(k + 1) * d, off:off + d] = mats[alpha.values[k] - 1]
    return BlockDiagonalOperator(stack=stack)


def _validated_combo(combo: ConvexCombination, p: PNorm) -> ConvexCombination:
    names = combo.labels or tuple(f"term {i}" for i in range(combo.m))
    _require_isometries(zip(names, combo.isometries), p)
    return combo


def build_n_dilation(combo: ConvexCombination, N: int, p: PNorm,
                     label: str = "T") -> DilationTriple:
    """Dilation triple for one convex combination of l^p isometries.

    The big space is a direct sum over all m^N slot assignments alpha of N
    copies of X, ordered lexicographically in alpha and then by slot.  Each
    alpha block of U routes slot k through the isometry alpha picks for it,
    reading from slot k+1 cyclically; the block's share of the weight,
    weight(alpha)/N, is split between J (power 1/p) and Q (power 1/q).
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    combo = _validated_combo(combo, p)
    m, d, mode = combo.m, combo.dim, combo.mode
    indices = enumerate_indices(m, N)
    bases = tuple(weight_of(alpha, combo.weights) / N for alpha in indices)
    if mode == EXACT:
        u = _alpha_blocks_exact(combo.isometries, indices, N, d)
    else:
        u = _alpha_blocks_float(combo.isometries, indices, N, d)
    one_over_p = 1 / p.p
    j = ScaledBlockMap("embed", bases, one_over_p, N, d, mode)
    q = ScaledBlockMap("readout", bases, 1 - one_over_p, N, d, mode)
    dim = N * m ** N * d
    space = SpaceDescriptor(
        dim, p, f"l^{p} direct sum of N*m^N copies of X, N={N}, m={m}, dim X={d}")
    return DilationTriple(space, j, q, {label: u}, N, mode)


def build_simultaneous_n_dilation(family: Mapping[str, ConvexCombination],
                                  N: int, p: PNorm) -> DilationTriple:
    """One (J, Q) pair dilating a whole family of equal-weight combinations.

    Every member must already be in equal-weight form over the same count m
    (see rationalize_weights / rationalize_family); all members then share
    the block space and the constant base 1/(N*m^N), and words mixing the
    members' isometries verify up to length N.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
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
        _validated_combo(combo, p)
    indices = enumerate_indices(m, N)
    base = Fraction(1, N * m ** N)
    bases = (base,) * len(indices)
    u_family = {}
    for name, combo in members:
        if mode == EXACT:
            u_family[name] = _alpha_blocks_exact(combo.isometries, indices, N, d)
        else:
            u_family[name] = _alpha_blocks_float(combo.isometries, indices, N, d)
    one_over_p = 1 / p.p
    j = ScaledBlockMap("embed", bases, one_over_p, N, d, mode)
    q = ScaledBlockMap("readout", bases, 1 - one_over_p, N, d, mode)
    dim = N * m ** N * d
    space = SpaceDescriptor(
        dim, p,
        f"shared l^{p} direct sum for {len(members)} members, N={N}, m={m}, dim X={d}")
    return DilationTriple(space, j, q, u_family, N, mode)


def rationalize_weights(combo: ConvexCombination, m_cap: int = 64) -> ConvexCombination:
    """Equal-weight form: each isometry repeated (weight * lcd) times.

    The least common denominator of the weights becomes the new m; the
    represented operator is unchanged.
    """
    lcd = 1
    for w in combo.weights:
        lcd = lcd * w.denominator // math.gcd(lcd, w.denominator)
    if lcd > m_cap:
        raise ValueError(f"common denominator {lcd} exceeds cap {m_cap}")
    return _expand_to_denominator(combo, lcd)


def _expand_to_denominator(combo: ConvexCombination, lcd: int) -> ConvexCombination:
    isos, labels = [], []
    for i, w in enumerate(combo.weights):
        count = int(w * lcd)
        if count != w * lcd:
            raise ValueError("weights do not share the requested denominator")
        isos.extend([combo.isometries[i]] * count)
        if combo.labels is not None:
            labels.extend([combo.labels[i]] * count)
    return ConvexCombination(tuple(isos), (Fraction(1, lcd),) * lcd,
                             tuple(labels) if combo.labels is not None else None)


def rationalize_family(family: Mapping[str, ConvexCombination],
                       m_cap: int = 64) -> dict[str, ConvexCombination]:
    """Rationalize every member to one common equal-weight count."""
    if not family:
        raise ValueError("empty family")
    lcd = 1
    for combo in family.values():
        for w in combo.weights:
            lcd = lcd * w.denominator // math.gcd(lcd, w.denominator)
    if lcd > m_cap:
        raise ValueError(f"common denominator {lcd} exceeds cap {m_cap}")
    return {name: _expand_to_denominator(combo, lcd) for name, combo in family.items()}


def _block_cycle(b: int, s: int, step: int, mode: str) -> OperatorMatrix:
    """b x b grid of size-s blocks; block row k holds I in block column k + step (mod b)."""
    rows = [[0] * (b * s) for _ in range(b * s)]
    for blk in range(b):
        src = ((blk + step) % b) * s
        for i in range(s):
            rows[blk * s + i][src + i] = 1
    return OperatorMatrix(rows, mode)


def _first_block(b: int, s: int, mode: str) -> OperatorMatrix:
    """Embedding of a size-s space as the first of b stacked blocks."""
    return OperatorMatrix([[int(i == j) for j in range(s)] for i in range(b * s)], mode)


def zero_augment(u_family: Mapping[str, OperatorMatrix], N: int,
                 p: PNorm) -> DilationTriple:
    """Adjoin the zero operator to a family of isometries on Y.

    On N+1 stacked copies of Y the nonzero members act diagonally while the
    label "0" acts as the block cycle pushing content away from the first
    block; any word of length <= N that uses "0" therefore reads out zero,
    and words without "0" reduce to the plain product.
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
    b = N + 1
    j = _first_block(b, s, mode)
    family_out: dict[str, OperatorMatrix | BlockDiagonalOperator] = {
        name: block_diag([t] * b) for name, t in items}
    family_out["0"] = _block_cycle(b, s, 1, mode)
    space = SpaceDescriptor(b * s, p, f"l^{p} stack of {b} copies of Y, dim Y={s}")
    return DilationTriple(space, j, j.transpose(), family_out, N, mode)


def zero_augment_targets(u_family: Mapping[str, OperatorMatrix]) -> dict[str, OperatorMatrix]:
    """Verification targets for a zero-augmented triple: the family plus 0."""
    items = dict(u_family)
    first = next(iter(items.values()))
    items["0"] = OperatorMatrix.zeros(first.rows, first.rows, first.mode)
    return items


def shift_dilation(T: OperatorMatrix, window: int, label: str = "T") -> DilationTriple:
    """Cyclic truncation of the shift dilation for an l^1 contraction.

    U rotates W+1 blocks one step (an invertible l^1 isometry), J injects
    into block 0 and Q reads sum(T^k x_k), so Q U^n J lands on T^n exactly
    for n <= W; one step further the window wraps and the equality breaks,
    hence n_guarantee = W.
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
    q = OperatorMatrix([[x for t in powers for x in t.row_entries(i)] for i in range(d)],
                       mode)
    u = _block_cycle(b, d, -1, mode)
    space = SpaceDescriptor(
        b * d, None, f"l^1 cyclic window of {b} blocks of dim {d}")
    return DilationTriple(space, _first_block(b, d, mode), q, {label: u}, window, mode)


# ---------------------------------------------------------------------------
# verification


def _identity_operator(triple: DilationTriple):
    sample = next(iter(triple.U_family.values()))
    if isinstance(sample, BlockDiagonalOperator):
        return BlockDiagonalOperator.identity(sample.count, sample.size, triple.mode)
    return OperatorMatrix.identity(sample.rows, triple.mode)


def _word_operator(triple: DilationTriple, word: Sequence[str]):
    acc = _identity_operator(triple)
    for lbl in word:
        acc = acc @ triple.U_family[lbl]
    return acc


def compress_word(triple: DilationTriple, word: Sequence[str]) -> OperatorMatrix:
    """Q U_w J for a word of labels; exact when the triple is exact."""
    for lbl in word:
        if lbl not in triple.U_family:
            raise ValueError(f"unknown operator label {lbl!r}")
    return _compress(triple, _word_operator(triple, word))


def compressed_power(triple: DilationTriple, n: int, label: str | None = None) -> OperatorMatrix:
    """Q U^n J for a single-operator triple (or a chosen label)."""
    if label is None:
        if len(triple.U_family) != 1:
            raise ValueError("triple has several operators; pass a label")
        label = next(iter(triple.U_family))
    return compress_word(triple, (label,) * n)


def _compress(triple: DilationTriple, middle) -> OperatorMatrix:
    j, q = triple.J, triple.Q
    if isinstance(j, ScaledBlockMap):
        if not isinstance(middle, BlockDiagonalOperator):
            raise ValueError("structured triple needs a block-diagonal middle factor")
        if not isinstance(q, ScaledBlockMap) or q.bases != j.bases:
            raise ValueError("J and Q block scalings do not match")
        if j.exponent + q.exponent != 1:
            raise ValueError("J and Q exponents must sum to 1")
        if middle.count != j.block_count or middle.size != j.copies * j.dim:
            raise ValueError("block partition mismatch")
        d, copies = j.dim, j.copies
        if triple.mode == EXACT:
            out = [[0] * d for _ in range(d)]
            for base, block in zip(j.bases, middle._blocks):
                data = block._data
                sub = [[0] * d for _ in range(d)]
                for k in range(copies):
                    for i in range(d):
                        row = data[k * d + i]
                        srow = sub[i]
                        for off in range(0, copies * d, d):
                            for jj in range(d):
                                x = row[off + jj]
                                if x:
                                    srow[jj] = srow[jj] + x
                for i in range(d):
                    orow = out[i]
                    srow = sub[i]
                    for jj in range(d):
                        if srow[jj]:
                            orow[jj] = orow[jj] + base * srow[jj]
            return OperatorMatrix._from_exact_rows(out)
        stack = middle.stack
        sums = stack.reshape(middle.count, copies, d, copies, d).sum(axis=(1, 3))
        coeffs = j.scales() * q.scales()
        return OperatorMatrix(np.einsum("b,bij->ij", coeffs, sums))
    middle_m = middle.to_matrix() if isinstance(middle, BlockDiagonalOperator) else middle
    return (q @ middle_m) @ j


def _word_set(labels: Sequence[str], max_len: int, cap: int,
              rng: random.Random) -> list[tuple[str, ...]]:
    """All words up to max_len, falling back to seeded sampling past the cap.

    Lengths are exhausted in increasing order while they fit; once a length
    no longer fits, the leftover budget is spread evenly over the remaining
    lengths and filled with uniform random words.
    """
    words: list[tuple[str, ...]] = []
    r = len(labels)
    for n in range(max_len + 1):
        count = r ** n
        if len(words) + count <= cap:
            words.extend(itertools.product(labels, repeat=n))
            continue
        budget = cap - len(words)
        lengths = list(range(n, max_len + 1))
        share, extra = divmod(budget, len(lengths))
        for idx, ln in enumerate(lengths):
            take = share + (1 if idx < extra else 0)
            for _ in range(take):
                words.append(tuple(rng.choice(labels) for _ in range(ln)))
        break
    return words


def check_word(triple: DilationTriple, targets: Mapping[str, OperatorMatrix],
               word: Sequence[str], tolerance: float) -> WordCheck:
    """Compare Q U_w J with the product of the targets along one word.

    An exact triple passes only when the two matrices are equal; a float
    triple passes when their residual is within tolerance.  The float
    residual is reported in both modes.  Every label of the word must name
    both an operator of the triple and a target.
    """
    word = tuple(word)
    got = _compress(triple, _word_operator(triple, word))
    want = OperatorMatrix.identity(next(iter(targets.values())).rows, triple.mode)
    for lbl in word:
        want = want @ targets[lbl]
    residual = operator_residual(got, want)
    passed = got == want if triple.mode == EXACT else residual <= tolerance
    return WordCheck(word, residual, passed, len(word) <= triple.n_guarantee)


def verify_dilation(triple: DilationTriple, targets: Mapping[str, OperatorMatrix],
                    max_len: int, tolerance: float = 1e-9, seed: int = 42,
                    word_cap: int = WORD_CAP) -> VerificationReport:
    """Check Q U_w J against the target product for every word up to max_len.

    Each word is decided by :func:`check_word`.  Words beyond the triple's
    guarantee still run but are flagged and excluded from the verdict.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
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
    beyond = max_len > triple.n_guarantee
    words = _word_set(labels, max_len, word_cap, random.Random(seed))
    checks = [check_word(triple, targets, word, tolerance) for word in words]
    in_c = [c for c in checks if c.in_contract]
    max_res = max((c.residual for c in in_c), default=0.0)
    passed = all(c.passed for c in in_c)
    return VerificationReport(tuple(checks), max_res, triple.mode,
                              float(tolerance), passed, beyond)
