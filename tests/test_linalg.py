import ast
import random
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from helpers import (
    assert_echelon_result,
    assert_left_looking,
    fraction_space,
    rand_matrix,
    rand_vector,
    reference_frozen,
    reference_solve_affine,
    spy_echelon_schedule,
)
from padicsat import linalg
from padicsat.errors import InputError, InternalError
from padicsat.linalg import (
    PivotCosts,
    back_substitute,
    cheapest_column,
    doubled_offset,
    eliminate,
    frozen_coordinates,
    inverse_permutation,
    matrix,
    pivot_minimal_echelon,
    solve_affine,
)
from padicsat.rational import INF, NEG_INF, int_valuation
from padicsat.testkit import (
    carried_matrix,
    determinant,
    echelon_matrix,
    identity,
    mat_mul,
    mat_vec,
    permutation_matrix,
    smith_normal_form,
)


def test_matrix_helpers():
    A = matrix([[1, 2], [3, 4]])
    assert mat_mul(A, identity(2)) == A
    assert mat_vec(A, [Fraction(1), Fraction(0)]) == [Fraction(1), Fraction(3)]
    assert determinant(A) == -2
    with pytest.raises(InputError):
        matrix([[1, 2], [3]])


def test_products_with_a_matrix_without_rows():
    x = [Fraction(1), Fraction(2)]
    assert mat_vec([], x) == []
    assert mat_vec([], []) == []
    assert mat_mul([], identity(2)) == []
    assert mat_mul([], []) == []
    A = matrix([[1, 2], [3, 4]])
    assert mat_mul(A, [[], []]) == [[], []]  # 2x2 times 2x0
    with pytest.raises(InputError):
        mat_vec(A, x[:1])
    with pytest.raises(InputError):
        mat_mul(A, identity(3))
    with pytest.raises(InputError):
        mat_mul(A, [])  # a 2x2 times no rows


def test_permutation_matrix_convention():
    # P[i][j] = 1 iff j = sigma[i]; right-multiplying permutes columns so that
    # (A P) column j equals A column sigma^-1(j)
    sigma = (2, 0, 1)
    P = permutation_matrix(sigma)
    A = matrix([[10, 20, 30]])
    AP = mat_mul(A, P)
    inv = inverse_permutation(sigma)
    assert [AP[0][j] for j in range(3)] == [A[0][inv[j]] for j in range(3)]


def test_solve_affine_inconsistent():
    assert solve_affine(matrix([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)], 2) is None


def test_solve_affine_properties():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(0, 4)
        n = rng.randint(1, 5)
        A = rand_matrix(rng, m, n, mag=6)
        x = rand_vector(rng, n, mag=6)
        b = mat_vec(A, x)
        solution = solve_affine(A, b, n)
        assert solution is not None  # b was built from a solution
        particular, basis = fraction_space(solution, n)
        assert len(particular) == n and all(len(vec) == n for vec in basis)
        assert mat_vec(A, particular) == b
        for vec in basis:
            assert mat_vec(A, vec) == [Fraction(0)] * m
        # dimension = n - rank: check by brute rank via determinant-free elim
        rank = len(solve_affine(A, [Fraction(0)] * m, n)[1])
        assert rank == len(basis)
        # a random combination still solves the system
        combo = particular[:]
        for vec in basis:
            c = Fraction(rng.randint(-3, 3))
            combo = [a + c * v for a, v in zip(combo, vec)]
        assert mat_vec(A, combo) == b


def test_solve_affine_without_rows_spans_every_column():
    # the width is the caller's, not the first row's: no equations leave
    # all of Q^3, with 0 as the canonical particular solution
    solution = solve_affine([], [], 3)
    assert solution == ([], [0, 1, 2], [], 1)
    particular, basis = fraction_space(solution, 3)
    assert len(basis) == 3
    assert particular == [Fraction(0)] * 3
    assert basis == identity(3)
    with pytest.raises(InputError):
        solve_affine([[Fraction(1), Fraction(2)]], [Fraction(0)], 3)


def _affine_system(rng):
    """A random rational system: entries a / (p^k q) with k <= 3, sparse or
    dense rows, sometimes a dependent row or a zero column, and a consistent
    or a random right-hand side; (A, b, n) with n the number of columns."""
    p = rng.choice((2, 3, 5))
    m, n = rng.randint(0, 7), rng.randint(1, 7)
    density = rng.choice((0.2, 0.5, 0.9, 1.0))

    def entry():
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.randint(-12, 12), p ** rng.randint(0, 3) * rng.randint(1, 5))

    A = [[entry() for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.3:  # a dependent row
        r, s = rng.randrange(m), rng.randrange(m)
        a, c = entry(), entry()
        A.append([a * x + c * y for x, y in zip(A[r], A[s])])
    if rng.random() < 0.2:
        zero_col = rng.randrange(n)
        for row in A:
            row[zero_col] = Fraction(0)
    if rng.random() < 0.6:
        x = [entry() for _ in range(n)]
        b = [sum((a * y for a, y in zip(row, x)), Fraction(0)) for row in A]
    else:
        b = [entry() for _ in A]
    return A, b, n


def test_solve_affine_matches_fraction_reference(monkeypatch):
    # the integer-row solve must give the reference's canonical particular
    # solution and basis exactly, and frozen_coordinates the reference's
    # basis scan, by column and value; every pivot row it eliminates with and
    # every back-substitution row F_r stays within the Hadamard bound of the
    # scaled integer rows, which a solve that divided by too little would
    # outgrow
    sources = []

    def eliminating(row, den, top, col, columns, start, bound=0):
        sources.append(top)
        return eliminate(row, den, top, col, columns, start, bound)

    def substituting(rows, pivots, columns, minor):
        F = back_substitute(rows, pivots, columns, minor)
        sources.extend(F)
        return F

    monkeypatch.setattr(linalg, "eliminate", eliminating)
    monkeypatch.setattr(linalg, "back_substitute", substituting)
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(1200):
        A, b, n = _affine_system(rng)
        m = len(A)
        sources.clear()
        solution = solve_affine(A, b, n)
        expected = reference_solve_affine(A, b, n)
        if expected is None:
            assert solution is None
            seen["inconsistent"] += 1
            continue
        assert fraction_space(solution, n) == expected
        pivots, free, F, minor = solution
        assert all(type(x) is int for F_r in F for x in F_r)
        assert type(minor) is int and minor > 0
        frozen = [(c, Fraction(num, minor)) for c, num in frozen_coordinates(pivots, F)]
        assert frozen == reference_frozen(*expected)
        seen["frozen"] += bool(frozen)
        seen["no rows"] += m == 0
        bound2 = 1  # squared Hadamard bound: prod over rows of max(1, |row|^2)
        for row in [(*a, rhs) for a, rhs in zip(A, b)]:
            den = lcm(*(x.denominator for x in row))
            bound2 *= max(1, sum(int(x * den) ** 2 for x in row))
        assert all(x * x <= bound2 for source in sources for x in source)
        seen["m > n" if m > n else "m < n" if m < n else "m = n"] += 1
        seen["rank-deficient" if len(free) > max(0, n - m) else "full rank"] += 1
        seen["eliminated"] += bool(sources)
    for key in ("inconsistent", "m > n", "m < n", "m = n", "rank-deficient", "eliminated",
                "frozen", "no rows"):
        assert seen[key] >= 50, (key, seen)


def test_a_row_off_its_exact_value_raises_internal_error(monkeypatch):
    # a row step that returns a wrong den leaves the next pivot row off its
    # Fraction value, and the leading minor's update, 1 * 1 * |1| / 7, then
    # has a remainder: both bounded eliminations stop there instead of
    # dividing by a wrong bound
    def off(row, den, top, col, columns, start, bound=0):
        return 7 * eliminate(row, den, top, col, columns, start, bound)

    A = matrix([[1, 1], [1, 2]])
    assert pivot_minimal_echelon(A, PivotCosts(3, (0, 0), (0, 0)), identity(2)).rank == 2
    assert fraction_space(solve_affine(A, [Fraction(0)] * 2, 2), 2)[0] == [0, 0]
    monkeypatch.setattr(linalg, "eliminate", off)
    with pytest.raises(InternalError, match="not exact"):
        pivot_minimal_echelon(A, PivotCosts(3, (0, 0), (0, 0)), identity(2))
    with pytest.raises(InternalError, match="not exact"):
        solve_affine(A, [Fraction(0)] * 2, 2)


def test_echelon_frozen_example():
    # [[2, 1]] at p = 2 with zero offsets: the 1 is the cheaper pivot, so the
    # columns swap
    costs = PivotCosts(2, (0, 0), (0, 0))
    res = pivot_minimal_echelon(matrix([[2, 1]]), costs, identity(1))
    assert echelon_matrix(res) == [[Fraction(1), Fraction(2)]]
    assert res.sigma == (1, 0)
    assert res.pivots == (0,)
    assert_echelon_result(matrix([[2, 1]]), costs, res)


def test_echelon_neg_inf_offset_wins():
    # a -inf column offset makes any nonzero entry there the cheapest pivot,
    # but a zero entry never pivots, even under a -inf offset
    costs = PivotCosts(2, (0, NEG_INF), (0, 0))
    for rows, sigma in (([[4, 1]], (1, 0)), ([[4, 0]], (0, 1))):
        A = matrix(rows)
        res = pivot_minimal_echelon(A, costs, identity(1))
        assert res.sigma == sigma
        assert_echelon_result(A, costs, res)


def test_echelon_zero_matrix():
    A = matrix([[0, 0], [0, 0]])
    costs = PivotCosts(3, (0, 0), (0, 0))
    res = pivot_minimal_echelon(A, costs, identity(2))
    assert res.pivots == ()
    assert echelon_matrix(res) == A
    assert_echelon_result(A, costs, res)


def test_cheapest_column_matches_brute_force(monkeypatch):
    # the least doubled cost over the row's nonzero entries, the leftmost of
    # a tie, on rows with -inf and +inf offsets and many ties; an entry whose
    # offset already reaches the best cost is passed over unvalued
    rng = random.Random(404)
    for trial in range(3000):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 7)
        row = [rng.choice((0, 1, -1, p, 2 * p, p * p, -p**3, 7)) for _ in range(n)]
        row.append(rng.randint(-3, 3))  # a carried column, never a pivot
        if not any(row[:n]):
            continue
        offsets = [
            doubled_offset(rng.choice((NEG_INF, INF, -1, 0, 0, 1, 2)), rng.randint(0, 1))
            for _ in range(n)
        ]
        nonzero = [j for j in range(n + 1) if row[j]]
        cost = [
            NEG_INF if offsets[j] == NEG_INF else 2 * int_valuation(row[j], p) + offsets[j]
            for j in range(n)
        ]
        want = min((j for j in nonzero if j < n), key=lambda j: (cost[j], j))
        assert cheapest_column(row, nonzero, n, p, offsets) == want, trial
    valued = []

    def spy(a, p):
        valued.append(a)
        return int_valuation(a, p)

    monkeypatch.setattr(linalg, "int_valuation", spy)
    assert cheapest_column([3, 5, 9, 1], [0, 1, 2, 3], 4, 5, [0, 0, 1, -1]) == 3
    assert valued == [3, 1]


def test_echelon_check_sees_each_fixed_row(monkeypatch):
    # check(row, den, r, col_of) sees row r as it ends in the echelon, up to
    # the final gcd and the later swaps past r, and its first value other
    # than None is returned in place of the echelon.  The elimination is
    # left-looking: a row is cleared only when the elimination reaches it,
    # so a stopped run's row steps are the full run's up to the stopping
    # check, the clears into rows 0..stop and into the rows the zero-row
    # search read, and the full run has one row step for each (row, pivot)
    # pair it clears
    runs = spy_echelon_schedule(monkeypatch, linalg)
    rng = random.Random(77)
    counts = Counter()
    for trial in range(200):
        p = rng.choice((2, 3, 5))
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = _fractional_matrix(rng, m, n, p, 0.7)
        if m > 2 and trial % 4 == 0:  # a row the elimination zeroes
            A[1] = [3 * x for x in A[0]]
        offsets = tuple(rng.choice((NEG_INF, 0, 1, 2)) for _ in range(n))
        costs = PivotCosts(p, offsets, (0,) * n)
        b = [[Fraction(rng.randint(-9, 9))] for _ in range(m)]
        seen = []

        def check(row, den, r, col_of):
            by_column = [None] * n
            for j, c in enumerate(col_of):
                by_column[c] = Fraction(row[j], den)
            seen.append((r, by_column, Fraction(row[n], den)))

        full = linalg.pivot_minimal_echelon(A, costs, b, check)
        schedule = runs[-1]
        assert full == linalg.pivot_minimal_echelon(A, costs, b), trial
        assert [r for r, _, _ in seen] == list(full.pivots), trial
        for r, by_column, rhs in seen:
            final = full.rows[r]
            assert by_column == [Fraction(final[full.sigma[c]], full.dens[r]) for c in range(n)]
            assert rhs == Fraction(final[n], full.dens[r])
        assert_left_looking(schedule)
        counts["zero-row steps"] += any(e[0] is None for e in schedule)
        if not full.pivots:
            continue
        stop = rng.choice(full.pivots)
        assert linalg.pivot_minimal_echelon(
            A, costs, b, lambda *args: args[2] == stop or None
        ) is True
        stopped = runs[-1]
        assert stopped[-1] == ("check", stop), trial
        assert stopped == schedule[:len(stopped)], trial
        counts["stopped early"] += len(stopped) < len(schedule)
    assert min(counts.values()) >= 20, counts


def _fractional_matrix(rng, m, n, p, density):
    """Entries a / (p^k q) with k up to 3, so row denominators carry p."""
    return [
        [
            Fraction(rng.randint(-9, 9), p ** rng.randint(0, 3) * rng.randint(1, 4))
            if rng.random() < density
            else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(m)
    ]


def test_echelon_random_properties():
    # (density, seed base, max rows, max columns, fractional): the sparse pass
    # checks that row updates skipping the pivot row's zero entries keep
    # B = U A P, det U != 0 and the cost-minimal pivots; the fractional pass
    # that the integer rows' denominators shift no pivot choice
    passes = ((0.8, 50, 5, 6, False), (0.2, 150, 8, 10, False), (0.7, 250, 6, 7, True))
    for density, seed_base, max_m, max_n, fractional in passes:
        for p in (2, 3, 5):
            rng = random.Random(seed_base + p)
            for _ in range(60):
                m = rng.randint(1, max_m)
                n = rng.randint(1, max_n)
                if fractional:
                    A = _fractional_matrix(rng, m, n, p, density)
                else:
                    A = rand_matrix(rng, m, n, mag=9, density=density)
                offsets = tuple(
                    rng.choice([NEG_INF] + list(range(-4, 5))) for _ in range(n)
                )
                biases = tuple(
                    rng.randint(0, 1) if p == 2 and offsets[j] != NEG_INF else 0
                    for j in range(n)
                )
                costs = PivotCosts(p, offsets, biases)
                res = pivot_minimal_echelon(A, costs, identity(m))
                assert_echelon_result(A, costs, res)
                # a right-hand side column is carried through the same row
                # operations
                b = [[sum(row)] for row in A]
                carried = carried_matrix(pivot_minimal_echelon(A, costs, b))
                assert carried == mat_mul(carried_matrix(res), b)


def test_echelon_entry_growth_polynomial():
    # doubling the dimension must not explode entry bit lengths
    def max_bits(M):
        return max(
            (abs(x.numerator).bit_length() + x.denominator.bit_length()
             for row in M for x in row),
            default=1,
        )

    rng = random.Random(99)
    sizes = (4, 8, 16, 32)
    growth = []
    for n in sizes:
        A = rand_matrix(rng, n, n, mag=9)
        res = pivot_minimal_echelon(A, PivotCosts(2, (0,) * n, (0,) * n), identity(n))
        growth.append(max_bits(echelon_matrix(res)))
    for n, bits in zip(sizes, growth):
        assert bits <= 8 * n * 5  # linear-in-n bound with generous constant


def test_smith_frozen_example():
    U, D, V = smith_normal_form([[2, 0], [0, 3]])
    assert [D[i][i] for i in range(2)] == [1, 6]


def test_smith_rejects_non_int():
    with pytest.raises(InputError):
        smith_normal_form([[Fraction(1, 2)]])


def test_smith_random_properties():
    rng = random.Random(31)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        U, D, V = smith_normal_form(A)
        UM = matrix(U)
        VM = matrix(V)
        assert mat_mul(UM, mat_mul(matrix(A), VM)) == matrix(D)
        assert abs(determinant(UM)) == 1
        assert abs(determinant(VM)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


SOLVER_MODULES = ("complete", "solver_geq", "solver_leq", "simplex", "dispatch", "combiner")


def _names_read(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_every_linalg_function_has_a_solver_caller():
    # linalg holds only what the solvers call: each top-level function is
    # read by a solver module that imports it, or by a linalg function that
    # is itself reached that way; audit-only algebra belongs in testkit
    package = Path(linalg.__file__).parent
    tree = ast.parse((package / "linalg.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached = set()
    for name in SOLVER_MODULES:
        module = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        local_to_name = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(module)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg"
            for alias in node.names
        }
        read = _names_read(module)
        reached |= {f for local, f in local_to_name.items() if local in read and f in functions}
    frontier = list(reached)
    while frontier:
        for callee in _names_read(functions[frontier.pop()]) & (functions.keys() - reached):
            reached.add(callee)
            frontier.append(callee)
    assert sorted(functions.keys() - reached) == []
    assert {"eliminate", "subtract_multiple", "dims"} <= reached  # reached through linalg
