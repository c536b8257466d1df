"""Membership in the (sub)convex hull of a finite set of isometries.

The decision runs as an exact rational LP: variables are generator weights,
the constraints force entrywise reconstruction of the target plus the
simplex condition (weights summing to exactly 1, or at most 1 in subconvex
mode).  A feasible point is itself the membership witness; an infeasible
run yields a Farkas dual, which this module converts into a separating
functional and, where possible, a rank-one evaluation pair (u, v) with
<u, G v> <= c for every generator G but <u, T v> > c.  Everything is exact,
so both outcomes are machine-checkable certificates rather than numerics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .isometries import (SignedPermutation, all_permutations,
                         all_signed_permutations, is_lp_isometry)
from .linalg import EXACT, OperatorMatrix, PNorm
from .simplex import solve_equalities

GENERATOR_CAP = 5000
SNAP_DENOMINATOR = 10 ** 6

CONVEX = "convex"
SUBCONVEX = "subconvex"


def snap_to_rational(value: float, max_denominator: int = SNAP_DENOMINATOR) -> Fraction:
    """Nearest fraction with bounded denominator (continued-fraction snap)."""
    return Fraction(value).limit_denominator(max_denominator)


def snap_matrix(T: OperatorMatrix,
                max_denominator: int = SNAP_DENOMINATOR) -> tuple[OperatorMatrix, float]:
    """Snap a float matrix onto the rational grid; also report the max error.

    Exact input passes through with error 0.
    """
    if T.mode == EXACT:
        return T, 0.0
    rows = []
    err = 0.0
    for i in range(T.rows):
        row = []
        for x in T.row_entries(i):
            f = snap_to_rational(x, max_denominator)
            err = max(err, abs(float(f) - x))
            row.append(f)
        rows.append(row)
    return OperatorMatrix(rows), err


@dataclass(frozen=True)
class SeparationCertificate:
    """Exact evidence that T lies outside the hull of the generators.

    The functional Y (with its bound) always separates: <Y, G> <= bound for
    every generator while <Y, T> exceeds it.  When Y factors as u v^T, or a
    search over coordinate and all-ones vectors finds one, the same
    statement is realized as the evaluation pair <u, . v>; slacks are the
    per-generator margins bound - <u, G v> (functional margins if no pair).
    """

    functional: OperatorMatrix
    functional_bound: Fraction
    functional_value: Fraction
    u: tuple[Fraction, ...] | None
    v: tuple[Fraction, ...] | None
    bound: Fraction | None
    value: Fraction | None
    slacks: tuple[Fraction, ...]

    @property
    def has_pair(self) -> bool:
        return self.u is not None

    @property
    def violation(self) -> Fraction:
        if self.has_pair:
            return self.value - self.bound
        return self.functional_value - self.functional_bound

    def verify(self, T: OperatorMatrix, generators: Sequence[OperatorMatrix],
               mode: str = CONVEX) -> bool:
        """Re-derive every inequality by direct rational evaluation."""
        if _pairing(self.functional, T) <= self.functional_bound:
            return False
        if any(_pairing(self.functional, g) > self.functional_bound
               for g in generators):
            return False
        if mode == SUBCONVEX and self.functional_bound < 0:
            return False
        if self.has_pair:
            # <u, G v> as a one-row times G times a one-column matrix
            u, v = OperatorMatrix([self.u]), OperatorMatrix([self.v]).transpose()
            if (u @ T @ v)[0, 0] <= self.bound:
                return False
            if any((u @ g @ v)[0, 0] > self.bound for g in generators):
                return False
            if mode == SUBCONVEX and self.bound < 0:
                return False
        return True


@dataclass(frozen=True)
class MembershipResult:
    """Verdict plus the witness: weights on members, certificate otherwise."""

    status: str                  # "member" | "non-member"
    mode: str                    # "convex" | "subconvex"
    generator_names: tuple[str, ...]
    coefficients: dict[str, Fraction] | None
    slack: Fraction | None       # unused simplex mass in subconvex mode
    reconstruction: OperatorMatrix | None
    certificate: SeparationCertificate | None

    @property
    def member(self) -> bool:
        return self.status == "member"


def _pairing(y: OperatorMatrix, g: OperatorMatrix) -> Fraction:
    """sum_ij y_ij g_ij, one integer sum over the product of the denominators."""
    return Fraction(np.sum(y.numerators * g.numerators), y.denominator * g.denominator)


def _rank_one_factor(y: OperatorMatrix):
    """Exact u, v with y = u v^T, or None when rank(y) > 1.

    v is y's first nonzero row and u_i = y_{i,c} / v_c at v's first nonzero
    column c; y is rank one when every 2x2 minor through (row, c) vanishes,
    which the numerators decide without the denominator.
    """
    nums = y.numerators.tolist()
    pivot = next((row for row in nums if any(row)), None)
    if pivot is None:
        return None
    c = next(j for j, x in enumerate(pivot) if x)
    if any(row[j] * pivot[c] != row[c] * pivot[j] for row in nums for j in range(y.cols)):
        return None
    return (tuple(Fraction(row[c], pivot[c]) for row in nums),
            tuple(Fraction(x, y.denominator) for x in pivot))


def _candidate_vectors(d: int):
    ones = tuple(Fraction(1) for _ in range(d))
    yield ones
    yield tuple(-x for x in ones)
    for i in range(d):
        e = tuple(Fraction(1 if j == i else 0) for j in range(d))
        yield e
        yield tuple(-x for x in e)


def _search_pair(T: OperatorMatrix, generators: Sequence[OperatorMatrix],
                 mode: str):
    """Best separating evaluation pair among coordinate and all-ones vectors.

    Candidate 2a + s is (-1)^s times base vector a (the all-ones vector,
    then e_0, ..., e_{d-1}), so <u, G v> for pair (2a + s, 2b + t) is
    (-1)^(s+t) times cell (a, b) of G's bordered pairings.  One integer
    table per matrix, over a common denominator, thus gives every pairing,
    and a pair's largest generator value is its cell's maximum over the
    generators, or minus the minimum when the sign is negative.  Pairs are
    ranked u-major, then v, keeping the first of equal gaps.  Returns
    (gap, u, v, bound, value, per-generator values), or None when no
    candidate pair separates.
    """
    mats = [T, *generators]
    den = math.lcm(*(m.denominator for m in mats))
    # rows of `border`: the all-ones vector, then e_0, ..., e_{d-1}; so the
    # numerators of border M border^T over den are den * <x, M y> for each pair
    border = OperatorMatrix([[1] * T.rows] + OperatorMatrix.identity(T.rows).entries())
    target, *tables = [(border @ m @ border.transpose()).numerators * (den // m.denominator)
                       for m in mats]
    tables = np.stack(tables)
    highest, lowest = tables.max(axis=0).tolist(), tables.min(axis=0).tolist()
    target = target.tolist()
    k = T.rows + 1
    best = None
    for iu in range(2 * k):
        for iv in range(2 * k):
            a, b, sign = iu // 2, iv // 2, (-1) ** (iu + iv)
            bound = highest[a][b] if sign > 0 else -lowest[a][b]
            if mode == SUBCONVEX:
                bound = max(bound, 0)
            gap = sign * target[a][b] - bound
            if gap > 0 and (best is None or gap > best[0]):
                best = (gap, iu, iv, bound)
    if best is None:
        return None
    gap, iu, iv, bound = best
    a, b, sign = iu // 2, iv // 2, (-1) ** (iu + iv)
    cands = list(_candidate_vectors(T.rows))
    return (Fraction(gap, den), cands[iu], cands[iv], Fraction(bound, den),
            Fraction(sign * target[a][b], den),
            [Fraction(sign * val, den) for val in tables[:, a, b].tolist()])


def hull_membership(T: OperatorMatrix, generators: Sequence[OperatorMatrix],
                    mode: str = CONVEX,
                    names: Sequence[str] | None = None) -> MembershipResult:
    """Decide T in hull{generators} by exact LP; certify either answer.

    Convex mode demands weights summing to exactly 1; subconvex allows a
    deficit, tracked as the slack.  All inputs must be exact; snap float
    data first (snap_matrix) so the LP statement itself is rational.
    """
    if mode not in (CONVEX, SUBCONVEX):
        raise ValueError(f"mode must be 'convex' or 'subconvex', got {mode!r}")
    if T.mode != EXACT:
        raise ValueError("membership target must be exact; snap it first")
    if not T.is_square:
        raise ValueError("membership target must be square")
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if len(gens) > GENERATOR_CAP:
        raise ValueError(f"generator count {len(gens)} exceeds cap {GENERATOR_CAP}")
    d = T.rows
    for g in gens:
        if g.mode != EXACT:
            raise ValueError("generators must be exact")
        if g.shape != T.shape:
            raise ValueError("generator shape differs from target")
    if names is None:
        names = tuple(f"G{i}" for i in range(len(gens)))
    else:
        names = tuple(names)
        if len(names) != len(gens):
            raise ValueError("one name per generator")
    repeated = sorted(n for n, count in Counter(names).items() if count > 1)
    if repeated:
        raise ValueError(f"generator names must be distinct; repeated: {repeated}")

    r = len(gens)
    slack_col = 1 if mode == SUBCONVEX else 0
    rows, rhs = [], []
    entries, target = [g.entries() for g in gens], T.entries()
    for a in range(d):
        for b in range(d):
            rows.append([g[a][b] for g in entries] + [0] * slack_col)
            rhs.append(target[a][b])
    rows.append([1] * (r + slack_col))
    rhs.append(1)

    outcome = solve_equalities(rows, rhs)
    if outcome.feasible:
        weights = outcome.solution[:r]
        slack = outcome.solution[r] if slack_col else None
        recon = OperatorMatrix.zeros(d, d)
        for w, g in zip(weights, gens):
            if w:
                recon = recon + g.scale(w)
        if recon != T:
            raise ArithmeticError("feasible LP point does not reconstruct the target")
        coeffs = {name: w for name, w in zip(names, weights)}
        return MembershipResult("member", mode, names, coeffs, slack, recon, None)

    y = outcome.dual
    functional = OperatorMatrix([[y[a * d + b] for b in range(d)] for a in range(d)])
    c = -y[d * d]
    f_value = _pairing(functional, T)
    g_values = [_pairing(functional, g) for g in gens]

    factored = _rank_one_factor(functional)
    if factored is not None:
        u, v = factored
        slacks = tuple(c - val for val in g_values)
        cert = SeparationCertificate(functional, c, f_value, u, v, c, f_value, slacks)
    else:
        found = _search_pair(T, gens, mode)
        if found is not None:
            _, u, v, bound, t_val, vals = found
            slacks = tuple(bound - val for val in vals)
            cert = SeparationCertificate(functional, c, f_value, u, v,
                                         bound, t_val, slacks)
        else:
            slacks = tuple(c - val for val in g_values)
            cert = SeparationCertificate(functional, c, f_value, None, None,
                                         None, None, slacks)
    if not cert.verify(T, gens, mode):
        raise ArithmeticError("separation certificate failed direct re-evaluation")
    return MembershipResult("non-member", mode, names, None, None, None, cert)


def _perm_name(perm: tuple[int, ...]) -> str:
    d = len(perm)
    if perm == tuple(range(d)):
        return "id"
    if d == 2:
        return "swap"
    return "perm(" + ",".join(map(str, perm)) + ")"


def permutation_generators(d: int) -> tuple[list[OperatorMatrix], list[str]]:
    """All d! permutation matrices with readable names."""
    mats, names = [], []
    for sp in all_permutations(d):
        mats.append(sp.matrix())
        names.append(_perm_name(sp.perm))
    return mats, names


def signed_permutation_generators(d: int) -> tuple[list[OperatorMatrix], list[str]]:
    """All 2^d d! signed permutation matrices with readable names."""
    mats, names = [], []
    for sp in all_signed_permutations(d):
        mats.append(sp.matrix())
        names.append("sperm(" + ",".join(
            f"{'+' if s > 0 else '-'}{p}" for p, s in zip(sp.perm, sp.signs)) + ")")
    return mats, names


def default_generators(d: int, norm: PNorm,
                       positive: bool = False) -> tuple[list[OperatorMatrix], list[str]]:
    """Canonical generator set for l^p_d, p != 2.

    The invertible isometries are the signed permutations (the positive ones
    the plain permutations), so those are the natural hulls to test against.
    At p = 2 the isometry group is a continuum and no finite default exists;
    callers must supply their own generators there.
    """
    if norm.p == 2:
        raise ValueError("no default generator set at p = 2; supply one")
    if positive:
        return permutation_generators(d)
    return signed_permutation_generators(d)


@dataclass(frozen=True)
class PositiveScanReport:
    """Outcome of enumerating positive invertible isometries on l^p_d."""

    d: int
    p: Fraction
    signed_count: int
    positive: tuple[SignedPermutation, ...]
    permutation_count: int
    matches_permutations: bool


def positive_isometry_scan(d: int, norm: PNorm) -> PositiveScanReport:
    """Filter the invertible l^p isometries (p != 2) down to the positive ones.

    Enumerates all signed permutations, keeps those with no negative matrix
    entry, and records whether they are exactly the d! permutations.
    """
    if norm.p == 2:
        raise ValueError("scan applies to p != 2 only")
    if d < 1 or d > 4:
        raise ValueError("scan supports 1 <= d <= 4")
    signed = all_signed_permutations(d)
    positive = []
    for sp in signed:
        mat = sp.matrix()
        if not is_lp_isometry(mat, norm):
            raise ArithmeticError("signed permutation failed the isometry check")
        if (mat.numerators >= 0).all():
            positive.append(sp)
    perm_set = {sp.perm for sp in all_permutations(d)}
    matches = (len(positive) == len(perm_set)
               and all(sp.signs == (1,) * d for sp in positive)
               and {sp.perm for sp in positive} == perm_set)
    return PositiveScanReport(d, norm.p, len(signed), tuple(positive),
                              math.factorial(d), matches)
