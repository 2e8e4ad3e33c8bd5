"""Property tests for the integer paths: row scaling and the valuation merge."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicsat.linalg import integer_row
from padicsat.rational import PowerSum, merged_valuation, valuation

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
