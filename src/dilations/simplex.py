"""Exact phase-1 simplex over the rationals with Bland's anti-cycling rule.

Solves feasibility of A x = b, x >= 0 exactly.  On success it returns a
basic feasible point; on failure it returns the Farkas dual read off the
optimal phase-1 tableau, a vector y with yT A <= 0 entrywise and yT b > 0,
which is an exact certificate that no feasible x exists.

The tableau is fraction-free: each row holds integer numerators over its
own positive denominator, kept in lowest terms by one gcd per row update.
Every entry equals the rational the textbook tableau would hold, so the
pivots, the basis path and the returned point are those of plain rational
pivoting; ``Fraction`` objects are built only for the returned values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import as_fraction


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of the feasibility run.

    Exactly one of solution / dual is set: solution when feasible, the
    Farkas certificate when not.  objective is the final phase-1 value
    (the minimal total artificial mass), zero precisely in the feasible
    case.
    """

    feasible: bool
    solution: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None
    objective: Fraction


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar, denominator positive."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    f = as_fraction(x)
    return f.numerator, f.denominator


def _integer_row(values: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators over the least common denominator of one row."""
    den = math.lcm(*[q for _, q in values])
    return [p * (den // q) for p, q in values], den


def solve_equalities(rows: Sequence[Sequence], rhs: Sequence) -> Phase1Result:
    """Find x >= 0 with A x = b, or a Farkas dual proving there is none."""
    k = len(rows)
    if k == 0:
        raise ValueError("no constraints")
    a = [[_ratio(x) for x in row] for row in rows]
    n = len(a[0])
    if any(len(row) != n for row in a):
        raise ValueError("ragged constraint matrix")
    b = [_ratio(x) for x in rhs]
    if len(b) != k:
        raise ValueError("rhs length does not match constraint count")

    flipped = [b[i][0] < 0 for i in range(k)]
    # columns: n real, k artificial, then the rhs; row i is nums[i] / dens[i]
    nums, dens = [], []
    for i in range(k):
        sign = -1 if flipped[i] else 1
        real = [(sign * p, q) for p, q in a[i]]
        art = [(1 if j == i else 0, 1) for j in range(k)]
        row, den = _integer_row(real + art + [(sign * b[i][0], b[i][1])])
        nums.append(row)
        dens.append(den)
    basis = list(range(n, n + k))
    in_basis = set(basis)
    total = n + k

    while True:
        cost_rows = [r for r in range(k) if basis[r] >= n]
        # The phase-1 cost row sums the rows that hold an artificial, scaled
        # to the lcm of their denominators.  Star-arguments come from lists:
        # a tuple grown from a generator is not taken from CPython's tuple
        # free lists but is returned to them, so every call would leave one
        # more behind (up to 2,000 per size).
        common = math.lcm(*[dens[r] for r in cost_rows])
        scaled = [(nums[r], common // dens[r]) for r in cost_rows]
        # Bland: the lowest column with a negative reduced cost enters.  An
        # artificial starts in the basis and may not re-enter once it leaves,
        # so only real columns compete; column j's reduced cost is
        # -sum(row[j] * s) / common.
        entering = next((j for j in range(n) if j not in in_basis
                         and sum(row[j] * s for row, s in scaled) > 0), -1)
        if entering < 0:
            break
        # ratio rhs / t per row, compared cross-multiplied; the row
        # denominators cancel
        leaving = -1
        for r in range(k):
            t = nums[r][entering]
            if t > 0:
                if leaving < 0:
                    leaving = r
                    continue
                lhs = nums[r][total] * nums[leaving][entering]
                rhs_ = nums[leaving][total] * t
                if lhs < rhs_ or (lhs == rhs_ and basis[r] < basis[leaving]):
                    leaving = r
        if leaving < 0:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        _pivot(nums, dens, leaving, entering)
        in_basis.discard(basis[leaving])
        in_basis.add(entering)
        basis[leaving] = entering

    # scaled and common still describe the final tableau's cost rows
    objective = Fraction(sum(row[total] * s for row, s in scaled), common)
    if objective == 0:
        x = [Fraction(0)] * n
        for r in range(k):
            if basis[r] < n:
                x[basis[r]] = Fraction(nums[r][total], dens[r])
        return Phase1Result(True, tuple(x), None, objective)
    dual = []
    for i in range(k):
        y_i = Fraction(sum(row[n + i] * s for row, s in scaled), common)
        dual.append(-y_i if flipped[i] else y_i)
    return Phase1Result(False, None, tuple(dual), objective)


def _pivot(nums: list[list[int]], dens: list[int], row: int, col: int):
    """Pivot on (row, col), whose entry is positive; rows stay in lowest terms."""
    prow = nums[row]
    p = prow[col]
    g = math.gcd(*prow)
    if g > 1:
        prow = [y // g for y in prow]
        p //= g
    nums[row], dens[row] = prow, p
    for r, other in enumerate(nums):
        if r == row:
            continue
        f = other[col]
        if f:
            new = [x * p - f * y for x, y in zip(other, prow)]
            den = dens[r] * p
            g = math.gcd(den, *new)
            if g > 1:
                new = [x // g for x in new]
                den //= g
            nums[r], dens[r] = new, den
