"""Text format: parsing, error positions, serialization round trips."""

import random
from fractions import Fraction

import pytest

from padicsat.errors import ParseError
from padicsat.model import Equation, Instance, OrderConstraint, ValConstraint
from padicsat.parser import parse_instance, serialize_instance
from padicsat.testkit import random_instance


def test_parse_full_example():
    text = """
    # a system over x, y with every line kind
    vars x y
    eq 2 x + 3 y = 5/4
    eq 1 x - 1 y = 0   # comments run to end of line
    val 2 : v(x) >= 0
    val 3 : v(y) <= 2
    ord 1 x - 1 y <= 7/2
    ord 2 x < -3
    """
    inst = parse_instance(text)
    assert inst.variables == ("x", "y")
    assert inst.equations == (
        Equation((Fraction(2), Fraction(3)), Fraction(5, 4)),
        Equation((Fraction(1), Fraction(-1)), Fraction(0)),
    )
    assert inst.valuations == (
        ValConstraint(2, "x", ">=", 0),
        ValConstraint(3, "y", "<=", 2),
    )
    assert inst.orders == (
        OrderConstraint((Fraction(1), Fraction(-1)), "<=", Fraction(7, 2)),
        OrderConstraint((Fraction(2), Fraction(0)), "<", Fraction(-3)),
    )


def test_parse_desugars_strict_valuations():
    inst = parse_instance("vars x\nval 3 : v(x) < 2\nval 5 : v(x) > -1\n")
    assert inst.valuations == (
        ValConstraint(3, "x", "<=", 1),
        ValConstraint(5, "x", ">=", 0),
    )


def test_parse_merges_repeated_terms():
    inst = parse_instance("vars x y\neq 1 x + 2 x - 1 y = 3\n")
    assert inst.equations[0] == Equation((Fraction(3), Fraction(-1)), Fraction(3))


def test_parse_negative_coefficient_spellings():
    # "- 2 y" and "-2 y" both mean the same term
    spaced = parse_instance("vars x y\neq 1 x - 2 y = 0\n")
    glued = parse_instance("vars x y\neq 1 x -2 y = 0\n")
    assert spaced.equations == glued.equations
    leading = parse_instance("vars x y\neq -3/2 x + 1 y = -1\n")
    assert leading.equations[0].coeffs[0] == Fraction(-3, 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_instance("vars x\neq 1 x + 1 z = 0\n")
    assert err.value.line == 2
    assert err.value.column == 12
    assert "unknown variable 'z'" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_instance("vars x\neq 1 x ?\n")
    assert err.value.line == 2
    assert "unexpected character '?'" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_instance("vars x\neq 1 x =\n")
    assert err.value.line == 2
    assert "unexpected end of line" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_instance("vars x\neq 1 x = 2 junk\n")
    assert err.value.line == 2
    assert "trailing input 'junk'" in str(err.value)


def test_parse_rejects_numbers_past_the_digit_limit():
    long = "7" * 5000
    for text, column in (
        (f"vars x\neq {long} x = 1\n", 4),
        (f"vars x\neq 1 x = 1/{long}\n", 10),
        (f"vars x\nval 3 : v(x) >= {long}\n", 17),
    ):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.column) == (2, column)
        assert "too long" in str(err.value)


def test_parse_requires_vars_first():
    with pytest.raises(ParseError) as err:
        parse_instance("eq 1 x = 0\nvars x\n")
    assert err.value.line == 1
    assert "vars line must come before" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_instance("# only comments\n")
    assert "missing vars line" in str(err.value)

    with pytest.raises(ParseError):
        parse_instance("vars x\nvars y\n")
    with pytest.raises(ParseError):
        parse_instance("vars x x\n")
    with pytest.raises(ParseError):
        parse_instance("vars\n")


def test_parse_rejects_malformed_val_lines():
    with pytest.raises(ParseError) as err:
        parse_instance("vars x\nval 4 : v(x) >= 0\n")
    assert err.value.line == 2
    assert "prime" in str(err.value)

    with pytest.raises(ParseError):
        parse_instance("vars x\nval 2 : v(y) >= 0\n")  # undeclared variable
    with pytest.raises(ParseError):
        parse_instance("vars x\nval 2 : v(x) >= 1/2\n")  # fractional bound
    with pytest.raises(ParseError):
        parse_instance("vars x\nval 2 : w(x) >= 0\n")  # not v(...)
    with pytest.raises(ParseError):
        parse_instance("vars x\nval 2 v(x) >= 0\n")  # missing colon


def test_parse_rejects_other_malformed_lines():
    with pytest.raises(ParseError) as err:
        parse_instance("vars x\nfoo 1 x = 0\n")
    assert "unknown keyword 'foo'" in str(err.value)

    with pytest.raises(ParseError):
        parse_instance("vars x\neq 1/0 x = 0\n")  # zero denominator
    with pytest.raises(ParseError):
        parse_instance("vars x\nord 1 x == 0\n")  # == is not an order relation
    with pytest.raises(ParseError):
        parse_instance("vars x\neq 1 x + = 0\n")  # dangling operator


def test_serialize_frozen_form():
    inst = Instance(
        ("x", "y", "z"),
        equations=(
            Equation((Fraction(2), Fraction(-3, 2), Fraction(0)), Fraction(5, 4)),
            Equation((Fraction(0), Fraction(0), Fraction(0)), Fraction(0)),
        ),
        valuations=(ValConstraint(3, "y", "!=", -1),),
        orders=(OrderConstraint((Fraction(-1), Fraction(0), Fraction(1)), "<", Fraction(2)),),
    )
    assert serialize_instance(inst) == (
        "vars x y z\n"
        "eq 2 x - 3/2 y = 5/4\n"
        "eq 0 x = 0\n"
        "val 3 : v(y) != -1\n"
        "ord -1 x + 1 z < 2\n"
    )


def test_round_trip_random_instances():
    # the generator only emits weak valuation relations, so the round trip
    # must reproduce each instance exactly
    rng = random.Random(20260823)
    for trial in range(60):
        inst = random_instance(
            rng.randrange(10**6),
            fragment=rng.choice(("geq", "leq", "eq", "mixed")),
            num_vars=rng.randint(1, 5),
            num_eqs=rng.randint(0, 3),
            num_orders=rng.randint(0, 2),
            primes=rng.choice(((2,), (3,), (2, 3), (2, 5))),
        )
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst, f"trial {trial}:\n{text}"
        assert serialize_instance(again) == text


def test_round_trip_is_idempotent_even_with_strict_input():
    text = "vars x\nval 3 : v(x) < 2\n"
    once = parse_instance(text)
    assert parse_instance(serialize_instance(once)) == once
