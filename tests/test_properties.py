"""Property tests for the integer paths: row scaling, the fraction-free row
step, the eliminations built on it, the valuation merge and the search
state's row substitutions."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_rows_canonical,
    fraction_space,
    integer_state,
    primitive_equations,
    reference_echelon,
    reference_solve_affine,
    row_valuations,
    state_equations,
    substitute_reference,
    zeroed_equations,
)
from padicsat.complete import _fix_digit, _force_zero, _relaxation
from padicsat.linalg import (
    PivotCosts,
    eliminate,
    integer_row,
    nonzero_columns,
    pivot_minimal_echelon,
    solve_affine,
)
from padicsat.model import VarProfile
from padicsat.rational import INF, NEG_INF, PowerSum, merged_valuation, valuation

entry = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4).filter(lambda q: abs(q) < 10**6),
    st.just(Fraction(0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(entry, max_size=12))
def test_integer_row_of_mixed_entries_is_the_fraction_one(row):
    assert integer_row(row) == integer_row([Fraction(x) for x in row])


@st.composite
def row_steps(draw):
    """(row, den, top, col, start): a canonical row over den > 0 and a top
    row, both zero left of start, with top[col] != 0."""
    width = draw(st.integers(1, 8))
    start = draw(st.integers(0, width - 1))
    col = draw(st.integers(start, width - 1))
    ints = st.integers(-10**4, 10**4)
    tail = st.lists(ints, min_size=width - start, max_size=width - start)
    top = [0] * start + draw(tail)
    if top[col] == 0:
        top[col] = draw(ints.filter(bool))
    row = [0] * start + draw(tail)
    den = draw(st.integers(1, 10**4))
    g = gcd(den, *row)
    return [x // g for x in row], den // g, top, col, start


@settings(max_examples=400, deadline=None)
@given(row_steps())
@example(([0, 2, 4], 3, [0, 1, 2], 1, 1))  # the row clears to all zeros
@example(([5, 3], 2, [-4, 6], 0, 0))  # a negative pivot
def test_eliminate_is_the_fraction_row_update(case):
    row, den, top, col, start = case
    R = [Fraction(x, den) for x in row]
    expected = [r - R[col] / top[col] * t for r, t in zip(R, top)]
    columns = nonzero_columns(top, start)
    out = row[:]
    new_den = eliminate(out, den, top, col, columns, start)
    assert [Fraction(x, new_den) for x in out] == expected
    assert new_den > 0 and gcd(new_den, *out) == 1
    assert out[col] == 0
    # den 0 keeps no scale: the row becomes the primitive multiple
    free = row[:]
    assert eliminate(free, 0, top, col, columns, start) == 0
    assert gcd(*free) in (0, 1)  # 0: cleared to all zeros
    j = next((j for j, q in enumerate(expected) if q), None)
    if j is None:
        assert not any(free)
    else:
        scale = free[j] / expected[j]
        assert scale and [scale * q for q in expected] == free


@settings(max_examples=400, deadline=None)
@given(row_steps(), st.integers(1, 10**3), st.integers(1, 50))
@example(([0, 2, 4], 3, [0, 1, 2], 1, 1), 1, 1)  # the row clears to all zeros
@example(([5, 3], 2, [-4, 6], 0, 0), 7, 3)  # a negative pivot, a row times 3
def test_bounded_eliminate_is_the_fraction_row_update(case, k, scale):
    # any bound that makes the result integral gives the Fraction update, on
    # a row that need not be canonical (row and den times scale), over a
    # den that divides the bound; the least such bound is the lcm of the
    # result's denominators, and k times it is one too
    row, den, top, col, start = case
    R = [Fraction(x, den) for x in row]
    expected = [r - R[col] / top[col] * t for r, t in zip(R, top)]
    bound = k * lcm(*(q.denominator for q in expected))
    out = [x * scale for x in row]
    new_den = eliminate(out, den * scale, top, col, nonzero_columns(top, start), start, bound)
    assert [Fraction(x, new_den) for x in out] == expected
    assert new_den > 0 and bound % new_den == 0
    assert out[col] == 0


@st.composite
def dense_systems(draw):
    """(A, rhs block, costs, x): up to 20 x 24, entries ints or a / (p^k q),
    some rows combinations of others (rank deficiency), -inf offsets, the
    p = 2 exact flags as biases, two carried columns, and a vector x to
    plant a consistent right-hand side A x."""
    # the shape and mix come from a seeded generator, not from hypothesis,
    # which would keep most draws small
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = rng.choice((2, 3, 5))
    m, n = rng.randint(1, 20), rng.randint(1, 24)
    fractional = rng.choice((0.0, 0.3, 1.0))
    density = rng.choice((0.3, 0.9, 1.0))

    def entry():
        if rng.random() >= density:
            return 0
        a = rng.randint(-9, 9)
        if rng.random() < fractional:
            return Fraction(a, p ** rng.randint(0, 3) * rng.randint(1, 4))
        return a

    A = [[entry() for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(0, m - 1)):  # dependent rows
        r, s = rng.randrange(m), rng.randrange(m)
        a, c = Fraction(entry()), Fraction(entry())
        A[rng.randrange(m)] = [a * x + c * y for x, y in zip(A[r], A[s])]
    rhs = [[entry(), entry()] for _ in range(m)]
    offsets = tuple(rng.choice([NEG_INF, *range(-4, 5)]) for _ in range(n))
    biases = tuple(
        rng.randint(0, 1) if p == 2 and offsets[j] != NEG_INF else 0 for j in range(n)
    )
    x = [Fraction(entry()) for _ in range(n)]
    return A, rhs, PivotCosts(p, offsets, biases), x


def as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(dense_systems())
def test_echelon_is_the_fraction_one(system):
    # the bounded row steps and the one content division a row at the end
    # give the canonical integers of the Fraction echelon and its carried
    # block, with the same column order and rank
    A, rhs, costs, _ = system
    result = pivot_minimal_echelon(A, costs, rhs)
    B, carried, sigma, rank = reference_echelon(as_fractions(A), costs, as_fractions(rhs))
    assert (result.sigma, result.pivots) == (sigma, tuple(range(rank)))
    for row, den, b, c in zip(result.rows, result.dens, B, carried):
        assert [Fraction(x, den) for x in row] == [*b, *c]
        assert den > 0 and gcd(den, *row) == 1


@settings(max_examples=60, deadline=None)
@given(dense_systems(), st.booleans())
def test_solve_affine_is_the_fraction_one(system, planted):
    # the bounded forward steps and the Cramer back-substitution give, read
    # as Fractions, the reference's canonical particular solution and basis,
    # or its None
    A, rhs, _, x = system
    n = len(x)
    if planted:  # consistent: x solves it
        b = [sum((a * y for a, y in zip(row, x)), Fraction(0)) for row in A]
    else:
        b = [row[0] for row in rhs]
    solution = solve_affine(A, b, n)
    expected = reference_solve_affine(as_fractions(A), b, n)
    if expected is None:
        assert solution is None
    else:
        assert fraction_space(solution, n) == expected


triple = st.tuples(
    st.integers(-50, 50), st.integers(1, 30), st.integers(-4, 4)
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.lists(triple, max_size=8))
@example(3, [(1, 1, 0), (-1, 1, 0)])
@example(3, [(1, 1, 1), (-1, 3, 2)])
@example(2, [(0, 1, 0)])
@example(5, [])
def test_merged_valuation_is_the_power_sum_one(p, terms):
    ps = PowerSum(p, [(Fraction(a, b), e) for a, b, e in terms])
    got = merged_valuation(p, terms)
    assert got == ps.valuation()
    # exponents stay small here, so the value itself is the independent check
    assert got == valuation(ps.materialize(), p)


@st.composite
def substitution_runs(draw):
    """(p, equations, steps): Fraction equations over x0.., each with a
    nonzero coefficient, and zero or digit substitutions, each step a
    (kind, variable pick, digit pick, v) with v in [-3, 3]."""
    p = draw(st.sampled_from((2, 3, 5)))
    names = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    coefficient = st.builds(
        lambda sign, power, unit, den: Fraction(sign * p**power * unit, den),
        st.sampled_from((1, -1)), st.integers(0, 3), st.integers(1, 7),
        st.sampled_from((1, p, p * p, 7)),
    )
    equations = []
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        coeffs = {v: draw(coefficient) for v in support}
        rhs = draw(st.one_of(st.just(Fraction(0)), st.fractions(-50, 50, max_denominator=p**3)))
        equations.append((coeffs, rhs))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(("zero", "digit")), st.integers(0, 10),
                  st.integers(1, 4), st.integers(-3, 3)),
        max_size=6,
    ))
    return p, equations, steps


@settings(max_examples=300, deadline=None)
@given(substitution_runs())
@example((3, [({"x0": Fraction(1, 3), "x1": Fraction(1)}, Fraction(1, 3))],
          [("digit", 0, 1, 0)]))  # (1, 3 | 1) reads its rhs as 1 - 1 = 0
@example((2, [({"x0": Fraction(1)}, Fraction(0))], [("digit", 0, 1, -3)]))
@example((5, [({"x0": Fraction(2), "x1": Fraction(5, 7)}, Fraction(1))],
          [("zero", 1, 1, 0)]))  # reading x1 as 0 leaves (14 | 7)
def test_row_substitutions_are_the_fraction_ones(run):
    # a forced zero narrows its variable to v >= +inf and a digit child its
    # variable to the remainder's profile, and both leave the rows as they
    # were; read over the remainders, with each zeroed variable read as 0,
    # the rows are the Fraction substitution, and each cached rhs valuation
    # is that of the rhs less its digit terms.  As in the search, the root's
    # relaxation runs before any digit child
    p, equations, steps = run
    profiles = {v: VarProfile(0, INF, frozenset()) for v in sorted({
        v for coeffs, _ in equations for v in coeffs
    })}
    state = integer_state(p, equations, profiles)
    assert state_equations(state) == primitive_equations(equations)
    if not _relaxation(state):
        return
    reference = state_equations(state)
    for k, (kind, pick, digit, v) in enumerate(steps):
        live = sorted(v for v, prof in state.profiles.items() if prof.lower != INF)
        if not live:
            break
        var = live[pick % len(live)]
        if kind == "zero" or var in state.consts:
            entry = ("zero", var)
            rows, valuations = list(state.rows), list(state.valuations)
            assert _force_zero(state, var) is None
            assert (state.rows, state.valuations) == (rows, valuations)
            assert (state.profiles[var].lower, state.profiles[var].upper) == (INF, INF)
        else:
            entry = ("digit", var, 1 + (digit - 1) % (p - 1), v)
            rows = list(state.rows)
            _fix_digit(state, *entry[1:])
            assert state.rows == rows
        reference = substitute_reference(p, reference, entry)
        zeroed = zeroed_equations(state)
        assert (zeroed is None) == (reference is None)
        if reference is None:  # the search's relaxation prunes such a state
            assert not _relaxation(state)
            break
        assert primitive_equations(zeroed) == primitive_equations(reference)
        assert_rows_canonical(state)
        assert state.valuations == row_valuations(state)
