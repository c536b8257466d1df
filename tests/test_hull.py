"""Hull membership, separation certificates, and the exact simplex core."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilations.hull import (CONVEX, GENERATOR_CAP, SUBCONVEX,
                            _candidate_vectors, _search_pair, default_generators, hull_membership,
                            permutation_generators, positive_isometry_scan,
                            signed_permutation_generators, snap_matrix,
                            snap_to_rational)
from dilations.linalg import OperatorMatrix, PNorm
from dilations.simplex import Phase1Result, solve_equalities

F = Fraction
P3 = PNorm(F(3))


def test_generator_is_its_own_hull_point():
    gens, names = permutation_generators(3)
    res = hull_membership(gens[2], gens, names=names)
    assert res.member
    assert res.coefficients[names[2]] == 1
    assert sum(res.coefficients.values()) == 1
    assert res.reconstruction == gens[2]


def test_doubly_stochastic_average():
    T = OperatorMatrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    gens, names = permutation_generators(2)
    res = hull_membership(T, gens, names=names)
    assert res.member
    assert res.coefficients == {"id": F(1, 2), "swap": F(1, 2)}
    assert res.slack is None


def test_subconvex_member_with_slack():
    T = OperatorMatrix([[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]])
    gens, names = permutation_generators(2)
    sub = hull_membership(T, gens, mode=SUBCONVEX, names=names)
    assert sub.member
    assert sub.coefficients == {"id": F(1, 4), "swap": F(1, 4)}
    assert sub.slack == F(1, 2)
    # with full mass required the same matrix falls outside
    conv = hull_membership(T, gens, mode=CONVEX, names=names)
    assert not conv.member
    cert = conv.certificate
    assert cert is not None and cert.verify(T, gens, CONVEX)


def test_snapped_root_matrix_obstruction():
    """A row of two 2^(-2/3) entries maps (1,1) to 2^(1/3) > 1 in the first
    coordinate, so no subconvex combination of signed permutations gives it."""
    s = 2.0 ** (-2.0 / 3.0)
    T, err = snap_matrix(OperatorMatrix(np.array([[s, s], [0.0, 0.0]])))
    assert err < 1e-9
    gens, names = signed_permutation_generators(2)
    res = hull_membership(T, gens, mode=SUBCONVEX, names=names)
    assert not res.member
    cert = res.certificate
    assert cert.verify(T, gens, SUBCONVEX)
    assert cert.has_pair
    # the direct obstruction: e_1 against the all-ones vector
    e1, ones = (F(1), F(0)), (F(1), F(1))
    value = sum(u_i * sum(T[i, j] * ones[j] for j in range(2))
                for i, u_i in enumerate(e1))
    assert value > 1
    for g in gens:
        assert sum(u_i * sum(g[i, j] * ones[j] for j in range(2))
                   for i, u_i in enumerate(e1)) <= 1
    assert cert.violation > 0
    assert float(cert.functional_value) == pytest.approx(2 ** (1 / 3), abs=1e-6)


def test_subconvex_bound_stays_nonnegative():
    # zero is in every subconvex hull, so any valid certificate bound is >= 0
    s = 2.0 ** (-2.0 / 3.0)
    T, _ = snap_matrix(OperatorMatrix(np.array([[s, s], [0.0, 0.0]])))
    gens, _ = signed_permutation_generators(2)
    cert = hull_membership(T, gens, mode=SUBCONVEX).certificate
    assert cert.functional_bound >= 0
    if cert.has_pair:
        assert cert.bound >= 0


def test_membership_idempotent_on_reconstruction():
    gens, names = signed_permutation_generators(2)
    rng = random.Random(3)
    raw = [rng.randint(0, 5) for _ in gens]
    weights = [F(a, sum(raw)) for a in raw]
    T = OperatorMatrix.zeros(2, 2)
    for w, g in zip(weights, gens):
        T = T + g.scale(w)
    res = hull_membership(T, gens, names=names)
    assert res.member
    again = hull_membership(res.reconstruction, gens, names=names)
    assert again.member and again.reconstruction == T


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_random_subconvex_combinations_are_members(seed, d):
    rng = random.Random(seed)
    gens, names = permutation_generators(d)
    raw = [rng.randint(0, 4) for _ in gens]
    denom = sum(raw) + rng.randint(0, 6)
    if denom == 0:
        return
    weights = [F(a, denom) for a in raw]
    T = OperatorMatrix.zeros(d, d)
    for w, g in zip(weights, gens):
        T = T + g.scale(w)
    res = hull_membership(T, gens, mode=SUBCONVEX, names=names)
    assert res.member
    assert res.slack == 1 - sum(weights)
    assert res.reconstruction == T
    # row and column sums of any subconvex mix of permutations stay below 1
    for i in range(d):
        assert sum(T[i, j] for j in range(d)) <= 1
        assert sum(T[j, i] for j in range(d)) <= 1


def test_scaled_identity_leaves_convex_hull():
    gens, names = permutation_generators(3)
    T = OperatorMatrix.identity(3).scale(F(2, 3))
    res = hull_membership(T, gens, names=names)
    assert not res.member
    assert res.certificate.verify(T, gens, CONVEX)
    sub = hull_membership(T, gens, mode=SUBCONVEX, names=names)
    assert sub.member and sub.slack == F(1, 3)


@pytest.mark.parametrize("bogus", [lambda y: [F(0)] * len(y), lambda y: [-x for x in y]],
                         ids=["zero", "negated"])
def test_bogus_farkas_dual_is_caught(bogus, monkeypatch):
    # the certificate's own re-derivation is the one check of the LP's dual
    gens, names = permutation_generators(3)
    T = OperatorMatrix.identity(3).scale(F(2, 3))
    real = solve_equalities

    def bogus_solve(rows, rhs):
        res = real(rows, rhs)
        return Phase1Result(False, None, tuple(bogus(res.dual)), res.objective)

    monkeypatch.setattr("dilations.hull.solve_equalities", bogus_solve)
    with pytest.raises(ArithmeticError, match="certificate failed"):
        hull_membership(T, gens, names=names)


def test_exact_input_required():
    gens, _ = permutation_generators(2)
    with pytest.raises(ValueError):
        hull_membership(OperatorMatrix(np.eye(2)), gens)


def test_generator_cap():
    gens, _ = permutation_generators(2)
    bloated = gens * (GENERATOR_CAP // 2 + 1)
    with pytest.raises(ValueError):
        hull_membership(OperatorMatrix.identity(2), bloated)


def test_default_generators_by_norm():
    mats, names = default_generators(2, P3)
    assert len(mats) == 8 and len(names) == 8
    pos, pos_names = default_generators(3, P3, positive=True)
    assert len(pos) == 6
    assert all(all(m[i, j] >= 0 for i in range(3) for j in range(3))
               for m in pos)
    with pytest.raises(ValueError):
        default_generators(2, PNorm(F(2)))


def test_positive_scan_matches_permutations():
    for d, total, positive in ((1, 2, 1), (2, 8, 2), (3, 48, 6), (4, 384, 24)):
        report = positive_isometry_scan(d, P3)
        assert report.signed_count == total
        assert len(report.positive) == positive
        assert report.permutation_count == positive
        assert report.matches_permutations
    with pytest.raises(ValueError):
        positive_isometry_scan(5, P3)
    with pytest.raises(ValueError):
        positive_isometry_scan(2, PNorm(F(2)))


def test_snap_to_rational_idempotent_on_exact():
    assert snap_to_rational(0.5) == F(1, 2)
    got = snap_to_rational(1 / 3)
    assert abs(got - F(1, 3)) < F(1, 10 ** 6)


def test_snap_matrix_reports_worst_error():
    T = OperatorMatrix(np.array([[0.5, 1 / 3], [0.25, 0.2]]))
    exact, err = snap_matrix(T)
    assert exact.mode == "exact"
    worst = max(abs(float(exact[i, j]) - T[i, j])
                for i in range(2) for j in range(2))
    assert err == worst


# ---------------------------------------------------------------------------
# exact phase-1 simplex


def test_simplex_feasible_solution():
    rows = [[1, 1], [1, -1]]
    rhs = [2, 0]
    res = solve_equalities(rows, rhs)
    assert res.feasible
    x = res.solution
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(F(a) * v for a, v in zip(row, x)) == b


def test_simplex_handles_negative_rhs():
    res = solve_equalities([[-1]], [-3])
    assert res.feasible and list(res.solution) == [F(3)]


def test_simplex_infeasible_gives_farkas_dual():
    rows = [[1, 0], [1, 0]]
    rhs = [1, 2]
    res = solve_equalities(rows, rhs)
    assert not res.feasible
    y = res.dual
    n = len(rows[0])
    for j in range(n):
        assert sum(y[i] * rows[i][j] for i in range(len(rows))) <= 0
    assert sum(y[i] * b for i, b in zip(range(len(rows)), rhs)) > 0


def test_simplex_infeasible_positivity_gap():
    # x1 + x2 = -1 has no nonnegative solution
    res = solve_equalities([[1, 1]], [-1])
    assert not res.feasible
    y = res.dual
    assert y[0] * 1 <= 0 and y[0] * (-1) > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 5))
def test_simplex_random_systems_property(seed, m, n):
    rng = random.Random(seed)
    rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    x0 = [F(rng.randint(0, 4)) for _ in range(n)]
    rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
    res = solve_equalities(rows, rhs)
    assert res.feasible
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, res.solution)) == b
    assert all(v >= 0 for v in res.solution)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_simplex_verdicts_are_certified(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 3), rng.randint(1, 4)
    rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
    res = solve_equalities(rows, rhs)
    if res.feasible:
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, res.solution)) == b
        assert all(v >= 0 for v in res.solution)
    else:
        y = res.dual
        for j in range(n):
            assert sum(y[i] * rows[i][j] for i in range(m)) <= 0
        assert sum(y[i] * rhs[i] for i in range(m)) > 0


# ---------------------------------------------------------------------------
# rational oracles for the integer simplex and the batched pair search


def _reference_solve_equalities(rows, rhs):
    """Textbook phase-1 simplex over Fraction, with Bland's rule.

    The rational tableau the integer-row solver must reproduce entry for
    entry: same pivots, same basis path, same returned point or dual.
    """
    k = len(rows)
    a = [[F(x) for x in row] for row in rows]
    n = len(a[0])
    b = [F(x) for x in rhs]
    flipped = [False] * k
    for i in range(k):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
            flipped[i] = True
    zero, one = F(0), F(1)
    tab = [a[i] + [one if j == i else zero for j in range(k)] + [b[i]]
           for i in range(k)]
    basis = list(range(n, n + k))
    total = n + k
    retired = [False] * k
    while True:
        cost_rows = [r for r in range(k) if basis[r] >= n]
        entering = -1
        for j in range(total):
            if j >= n and (retired[j - n] or j in basis):
                continue
            if j < n and j in basis:
                continue
            rc = (one if j >= n else zero) - sum(tab[r][j] for r in cost_rows)
            if rc < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving, best = -1, None
        for r in range(k):
            t = tab[r][entering]
            if t > 0:
                ratio = tab[r][total] / t
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leaving]):
                    best, leaving = ratio, r
        if basis[leaving] >= n:
            retired[basis[leaving] - n] = True
        piv = tab[leaving][entering]
        tab[leaving] = [x / piv for x in tab[leaving]]
        prow = tab[leaving]
        for r, other in enumerate(tab):
            f = other[entering]
            if r != leaving and f:
                tab[r] = [x - f * y for x, y in zip(other, prow)]
        basis[leaving] = entering
    cost_rows = [r for r in range(k) if basis[r] >= n]
    objective = sum((tab[r][total] for r in cost_rows), zero)
    if objective == 0:
        x = [zero] * n
        for r in range(k):
            if basis[r] < n:
                x[basis[r]] = tab[r][total]
        return Phase1Result(True, tuple(x), None, objective)
    dual = []
    for i in range(k):
        y_i = sum((tab[r][n + i] for r in cost_rows), zero)
        dual.append(-y_i if flipped[i] else y_i)
    return Phase1Result(False, None, tuple(dual), objective)


_BIG = 2 ** 64 + 13                    # denominators past int64
_DENOMINATORS = (1, 1, 1, 2, 3, 5, _BIG, 3 ** 41)


@st.composite
def _linear_systems(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from(_DENOMINATORS))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        # feasible by construction; zeros in x0 make degenerate vertices
        weight = st.builds(F, st.integers(0, 2), st.sampled_from(_DENOMINATORS))
        x0 = draw(st.lists(weight, min_size=n, max_size=n))
        rhs = [sum(p * q for p, q in zip(row, x0)) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(_linear_systems())
@example(([[1, 0, 1], [1, 1, 0]], [1, 1]))          # ratio tie on the first pivot
@example(([[1, 1, 0], [1, 0, 1], [0, 1, 1]], [0, 0, 0]))   # all-degenerate
@example(([[-1, 2], [1, 1]], [-3, 4]))               # a flipped row
@example(([[1, 0], [1, 0]], [1, 2]))                 # infeasible
@example(([[F(1, _BIG), F(2, 3 ** 41)], [F(-1, 7), F(1, _BIG)]],
          [F(1, 2 ** 70), F(-5, _BIG)]))
def test_integer_simplex_matches_rational_tableau(system):
    rows, rhs = system
    assert solve_equalities(rows, rhs) == _reference_solve_equalities(rows, rhs)


def test_integer_simplex_known_points():
    # points worked out by hand, independent of either solver
    tie = solve_equalities([[1, 0, 1], [1, 1, 0]], [1, 1])
    assert tie.feasible and tie.solution == (F(1), F(0), F(0))
    flipped = solve_equalities([[-1, 2], [1, 1]], [-3, 4])
    assert flipped.feasible and flipped.solution == (F(11, 3), F(1, 3))
    infeasible = solve_equalities([[1, 0], [1, 0]], [1, 2])
    assert not infeasible.feasible and infeasible.objective == 1
    big = solve_equalities([[F(1, _BIG), F(2, 3 ** 41)]], [F(1, 2 ** 70)])
    assert big.feasible and big.solution == (F(_BIG, 2 ** 70), F(0))


def _evaluate(u, g, v):
    """<u, g v> by a loop over Fraction entries."""
    total = F(0)
    for i, row in enumerate(g.entries()):
        total += u[i] * sum((F(x) * v[j] for j, x in enumerate(row)), F(0))
    return total


def _reference_search_pair(T, generators, mode):
    """Every candidate pair evaluated one by one in Fraction, u-major."""
    best = None
    for u in _candidate_vectors(T.rows):
        for v in _candidate_vectors(T.rows):
            vals = [_evaluate(u, g, v) for g in generators]
            bound = max(vals)
            if mode == SUBCONVEX and bound < 0:
                bound = F(0)
            t_val = _evaluate(u, T, v)
            if t_val > bound:
                gap = t_val - bound
                if best is None or gap > best[0]:
                    best = (gap, u, v, bound, t_val, vals)
    return best


@st.composite
def _pair_searches(draw):
    d, g = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    entry = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4, 6)))
    if draw(st.booleans()):
        # a common denominator past int64
        entry = st.builds(F, st.integers(-4, 4), st.sampled_from((1, _BIG, 3 ** 41)))

    def matrix():
        return OperatorMatrix(draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                            min_size=d, max_size=d)))

    return matrix(), [matrix() for _ in range(g)], draw(st.sampled_from((CONVEX, SUBCONVEX)))


@settings(max_examples=150, deadline=None)
@given(_pair_searches())
def test_batched_pair_search_matches_fraction_loop(case):
    T, gens, mode = case
    assert _search_pair(T, gens, mode) == _reference_search_pair(T, gens, mode)


def test_pair_search_clamps_subconvex_bound_to_zero():
    # every pairing of -I against (1, 1) is negative; zero is still in the
    # subconvex hull, so the bound is 0, not -2
    T = OperatorMatrix([[F(1, 2), F(1, 2)], [0, 0]])
    gens = [OperatorMatrix([[-1, 0], [0, -1]])]
    found = _search_pair(T, gens, SUBCONVEX)
    assert found == _reference_search_pair(T, gens, SUBCONVEX)
    gap, u, v, bound, t_val, vals = found
    assert bound == 0 and max(vals) < 0 and gap == t_val
    convex = _search_pair(T, gens, CONVEX)
    assert convex == _reference_search_pair(T, gens, CONVEX)
    assert convex[3] == max(convex[5]) < 0


def test_pair_search_keeps_the_first_of_tied_pairs():
    # 2I against I: (1, 1) and (-1, -1) both gap 2, the largest; the first wins
    T, gens = OperatorMatrix([[2, 0], [0, 2]]), [OperatorMatrix.identity(2)]
    found = _search_pair(T, gens, CONVEX)
    assert found == _reference_search_pair(T, gens, CONVEX)
    ones = (F(1), F(1))
    assert found[0] == 2 and found[1] == ones and found[2] == ones
    minus = (F(-1), F(-1))
    assert _evaluate(minus, T, minus) - _evaluate(minus, gens[0], minus) == 2


def test_pair_search_on_numerators_past_int64():
    # the common denominator is _BIG * 3^41, so every scaled entry is a big int
    T = OperatorMatrix([[F(3, _BIG), 1], [0, F(1, 3 ** 41)]])
    gens = [OperatorMatrix([[F(1, _BIG), 0], [0, 1]]), OperatorMatrix([[0, 1], [1, 0]])]
    for mode in (CONVEX, SUBCONVEX):
        found = _search_pair(T, gens, mode)
        assert found is not None
        assert found == _reference_search_pair(T, gens, mode)


def test_repeated_generator_names_are_refused():
    T = OperatorMatrix([[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]])
    gens, _ = permutation_generators(2)
    with pytest.raises(ValueError, match="repeated"):
        hull_membership(T, gens, names=["a", "a"])
    res = hull_membership(T, gens, names=["a", "b"])
    assert res.coefficients == {"a": F(3, 4), "b": F(1, 4)}
