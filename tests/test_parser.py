"""Text format: parsing, error positions, serialization round trips."""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from padicsat import parser
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


# ---------------------------------------------------------------------------
# the error contract: exact messages and positions, pinned before any rewrite

# (text, message, line, column); together the rows reach every
# `raise ParseError` in parser.py
MALFORMED = [
    ("vars x\neq 1 x ?\n", "unexpected character '?'", 2, 8),
    ("vars x\neq 1/ x = 1\n", "unexpected character '/'", 2, 5),
    ("vars a1\neq 1 a1/2 = 0\n", "unexpected character '/'", 2, 8),
    ("vars x!\n", "unexpected character '!'", 1, 7),
    ("vars x\neq 1 x =\n", "unexpected end of line, expected a right-hand side", 2, 9),
    ("vars x\neq\n", "unexpected end of line, expected a coefficient", 2, 3),
    ("vars x\neq 1\n", "unexpected end of line, expected a variable name", 2, 5),
    ("vars x\neq 1 x +\n", "unexpected end of line, expected a coefficient", 2, 9),
    ("vars x\nval\n", "unexpected end of line, expected a prime", 2, 4),
    ("vars x\nval 2\n", "unexpected end of line, expected :", 2, 6),
    ("vars x\nval 2 :\n", "unexpected end of line, expected v(...)", 2, 8),
    ("vars x\nval 2 : v\n", "unexpected end of line, expected (", 2, 10),
    ("vars x\nval 2 : v(\n", "unexpected end of line, expected a variable name", 2, 11),
    ("vars x\nval 2 : v(x\n", "unexpected end of line, expected )", 2, 12),
    ("vars x\nval 2 : v(x) >=\n", "unexpected end of line, expected an integer bound", 2, 16),
    ("1 x\n", "expected a keyword, found '1'", 1, 1),
    ("vars x\neq x = 1\n", "expected a coefficient, found 'x'", 2, 4),
    ("vars x\neq 1 2 = 1\n", "expected a variable name, found '2'", 2, 6),
    ("vars x 3\n", "expected a variable name, found '3'", 1, 8),
    ("vars x\nval 2 v(x) >= 0\n", "expected :, found 'v'", 2, 7),
    ("vars x\nval 2 : w(x) >= 0\n", "expected v(...), found 'w'", 2, 9),
    ("vars x\nval 2 : v x >= 0\n", "expected (, found 'x'", 2, 11),
    ("vars x\nval 2 : v(x >= 0\n", "expected ), found '>='", 2, 13),
    ("vars x\nval x : v(x) >= 0\n", "expected a prime, found 'x'", 2, 5),
    ("vars x\neq 1 x = 2 junk\n", "trailing input 'junk'", 2, 12),
    ("vars x\nval 2 : v(x) >= 0 0\n", "trailing input '0'", 2, 19),
    ("vars x\neq 1 x = 1 + 1 x\n", "trailing input '+'", 2, 12),
    ("vars x\neq " + "7" * 5000 + " x = 1\n", "number with 5000 characters is too long", 2, 4),
    ("vars x\neq -" + "7" * 5000 + " x = 1\n", "number with 5001 characters is too long", 2, 4),
    ("vars x\neq 1 x = 1/" + "7" * 5000 + "\n", "number with 5000 characters is too long", 2, 10),
    ("vars x\neq " + "7" * 5000 + "/0 x = 1\n", "zero denominator", 2, 4),
    ("vars x\nval " + "7" * 5000 + " : v(x) >= 0\n", "number with 5000 characters is too long", 2, 5),
    ("vars x\nval 3 : v(x) >= " + "7" * 5000 + "\n", "number with 5000 characters is too long", 2, 17),
    ("vars x\neq 1/0 x = 0\n", "zero denominator", 2, 4),
    ("vars x\neq 1 x = -5/0\n", "zero denominator", 2, 10),
    ("vars x\neq \u0663 x = 1\n", "unexpected character '\u0663'", 2, 4),
    ("vars x\nval \u0663 : v(x) >= 0\n", "unexpected character '\u0663'", 2, 5),
    ("vars x\nval 3/2 : v(x) >= 0\n", "expected a prime, found the fraction 3/2", 2, 5),
    ("vars x\nval 2 : v(x) >= 1/2\n", "expected an integer bound, found the fraction 1/2", 2, 17),
    ("vars x\neq 1 x + 1 z = 0\n", "unknown variable 'z'", 2, 12),
    ("vars x\nval 2 : v(y) >= 0\n", "unknown variable 'y'", 2, 11),
    ("vars x\neq 1 x\n", "missing relation in eq line: expected one of =", 2, 7),
    ("vars x\nord 2 x\n", "missing relation in ord line: expected one of <=, <", 2, 8),
    ("vars x\neq 1 x + = 0\n", "expected a coefficient, found '='", 2, 10),
    ("vars x\neq 1 x 1 x = 0\n", "expected +, -, or one of =, found '1'", 2, 8),
    ("vars x\nord 1 x == 0\n", "expected +, -, or one of <=, <, found '=='", 2, 9),
    ("vars x\nord 1 x = 0\n", "expected +, -, or one of <=, <, found '='", 2, 9),
    ("vars x\neq 1 x <= 0\n", "expected +, -, or one of =, found '<='", 2, 8),
    ("vars x\nvars y\n", "duplicate vars line", 2, 1),
    ("vars x y x\n", "duplicate variable 'x'", 1, 10),
    ("vars\n", "vars line declares nothing", 1, 1),
    ("  eq 1 x = 0\nvars x\n", "the vars line must come before any constraint", 1, 3),
    ("foo 1 x\nvars x\n", "the vars line must come before any constraint", 1, 1),
    ("vars x\nval 2 : v(x)\n", "expected a valuation relation (>=, <=, ==, !=, <, >)", 2, 13),
    ("vars x\nval 2 : v( x )\n", "expected a valuation relation (>=, <=, ==, !=, <, >)", 2, 15),
    ("vars x\nval 2 : v(x) = 0\n", "expected a valuation relation (>=, <=, ==, !=, <, >)", 2, 14),
    ("vars x\nval 4 : v(x) >= 0\n", "modulus 4 is not prime", 2, 1),
    ("vars x\nval -3 : v(x) >= 0\n", "modulus -3 is not prime", 2, 1),
    (
        "vars x\neq 1 x = 1\n  val 318665857834031151167461 : v(x) >= 1\n",
        "modulus 318665857834031151167461 is not prime",
        3,
        3,
    ),
    (
        "vars x\nval 3317044064679887385961981 : v(x) >= 1\n",
        "modulus 3317044064679887385961981 is too large: primality is only "
        "decided below 3317044064679887385961981",
        2,
        1,
    ),
    ("vars x\nfoo 1 x = 0\n", "unknown keyword 'foo' (expected vars, eq, val, or ord)", 2, 1),
    ("# only comments\n\n", "missing vars line", 1, 1),
]


@pytest.mark.parametrize("text, message, line, column", MALFORMED)
def test_parse_error_table(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    got = (str(err.value).split(": ", 1)[1], err.value.line, err.value.column)
    assert got == (message, line, column)


def test_each_distinct_word_is_lexed_once_per_parse(monkeypatch):
    inst = random_instance(1, fragment="geq", primes=(3,), num_vars=64, num_eqs=32)
    text = serialize_instance(inst)
    lex_word = parser._lex_word
    lexed = []

    def spy(word):
        lexed.append(word)
        return lex_word(word)

    monkeypatch.setattr(parser, "_lex_word", spy)
    assert parse_instance(text) == inst
    assert sorted(lexed) == sorted(set(text.split()))
    # the table lives for one call: a second parse lexes every word again
    parse_instance(text)
    assert len(lexed) == 2 * len(set(text.split()))


# valid texts the fuzzer starts from: every line kind, comments, strict
# relations, glued and spaced minus signs, fractions and repeated terms
FUZZ_SEEDS = [
    "# a system\nvars x y z\neq 2 x + 3 y = 5/4\neq 1 x - 1 z = 0  # note\n"
    "val 2 : v(x) >= 0\nval 3 : v(y) != -1\nval 5 : v(z) < 2\n"
    "ord 1 x - 1 y <= 7/2\nord -2 x < -3\n",
    "vars a b\n\neq 1 a -2 b + 3/7 a = -1/3\nval 7 : v( a ) > -2\nval 2:v(b)==1\n",
    "vars u_1 v2\neq -3/2 u_1 - -4 v2 = 0\nord 0 u_1 < 0\nval 3 : v(v2) <= 4\n",
]


def _fuzz_sources():
    rng = random.Random(20261018)
    sources = list(FUZZ_SEEDS)
    for _ in range(9):
        inst = random_instance(
            rng.randrange(10**6),
            fragment=rng.choice(("geq", "leq", "eq", "mixed")),
            num_vars=rng.randint(1, 4),
            num_eqs=rng.randint(0, 3),
            num_orders=rng.randint(0, 2),
            primes=rng.choice(((2,), (3,), (2, 3), (2, 5))),
        )
        sources.append(serialize_instance(inst))
    return sources


# inserted characters: the token alphabet, whitespace and line breaks, and a
# few that no token reads (a Unicode digit is not a numeral's digit; a Unicode
# space is read as \s)
_FUZZ_ALPHABET = "0123456789/-+=<>!:()vxyzeqo_ \t\n#?.*\x0c٣\xa0"


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        if op == 0:  # insert a character
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(_FUZZ_ALPHABET) + text[i:]
        elif op == 1 and text:  # delete a character
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        elif op == 2 and len(text) > 1:  # swap two adjacent characters
            i = rng.randrange(len(text) - 1)
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
        else:  # swap two whitespace-separated tokens
            parts = re.split(r"(\s+)", text)
            words = [k for k, part in enumerate(parts) if part and not part.isspace()]
            if len(words) > 1:
                a, b = rng.sample(words, 2)
                parts[a], parts[b] = parts[b], parts[a]
                text = "".join(parts)
    return text


def test_parse_outcomes_of_mutated_texts_are_pinned():
    # 4200 mutated texts, each outcome (the parsed instance's repr, or the
    # error's message, line and column) hashed in order; the digest pins
    # what the parser accepts and every error it reports.  The sources
    # include random_instance texts, so changing that generator changes the
    # digest as well.
    rng = random.Random(7)
    digest = hashlib.sha256()
    errors = 0
    for source in _fuzz_sources():
        for _ in range(350):
            text = _mutate(source, rng)
            try:
                outcome = repr(parse_instance(text))
            except ParseError as err:
                errors += 1
                outcome = f"error {err.line}:{err.column}: {err}"
            digest.update(outcome.encode() + b"\0")
    assert 1000 < errors < 4000  # both outcomes are well represented
    assert digest.hexdigest() == (
        "9f8bc0001ce07b62a797106123275d78825652a9f2e6505b78ed164372bb1884"
    )
