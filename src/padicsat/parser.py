"""Line-oriented text format for instances.

    # comments run to end of line
    vars x y
    eq 2 x + 3 y = 5/4
    val 2 : v(x) >= 0
    val 3 : v(y) < 2
    ord 1 x - 1 y <= 7/2

One `vars` line comes first; `eq` lines take rational coefficients (every
term carries an explicit coefficient), `val` lines constrain one variable's
valuation at one prime, `ord` lines are rational order constraints with <=
or <.  Strict valuation relations are desugared while parsing (`< c` becomes
`<= c-1`, `> c` becomes `>= c+1`), so parsed instances only carry the four
weak relations.  serialize_instance() writes the same format back; for such
instances parsing the output reproduces them exactly.

Tokens are numerals (`-?digits(/digits)?` over the ASCII digits 0-9; other
Unicode digits are not read), ASCII names, and the operators
`>= <= == != - + = : ( ) < >`; whitespace between them is optional, so
`1x`, `-2 y` and `- 2 y` all read as terms.  A numeral longer than the
interpreter's int conversion limit is an error, and every ParseError carries
the line and column of the token it is about.

A line is lexed word by word: it is split at whitespace, and each distinct
word is lexed once per parse, its tokens kept in a table that lives for the
call, so a dense row's repeated names and coefficients cost a lookup.  The
lexer is greedy: `a1/2` stops at the `/`, it is not `a` and `1/2`.  A word
that does not lex hands the line to the line lexer, whose first unread
character is the error's column.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError, ParseError
from .model import Equation, Instance, OrderConstraint, ValConstraint

_TOKEN_PATTERN = r"-?[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|>=|<=|==|!=|[-+=:()<>]"
_TOKEN = re.compile(_TOKEN_PATTERN)
# tokens and whitespace from the start of a line: the match ends at the
# first character that no token reads
_LEXABLE = re.compile(rf"(?:\s*(?:{_TOKEN_PATTERN}))*\s*")

_VAL_RELS = (">=", "<=", "==", "!=", "<", ">")
_ZERO = Fraction(0)

# A line is walked as the list of its token strings, closed by "" so that
# reading past the last token reads the empty string.  A token's kind shows in
# its first character; columns are only worked out for an error.


def _lex_word(word: str) -> list[str] | None:
    """The tokens of a word without whitespace, or None if the greedy line
    lexer stops inside it.  Tokens hold no whitespace, so a line's tokens
    are its words' tokens in order, and a line lexes iff each word does."""
    if _LEXABLE.match(word).end() != len(word):
        return None
    return _TOKEN.findall(word)


def _is_number(tok: str) -> bool:
    return tok[:1].isdecimal() or (tok[:1] == "-" and len(tok) > 1)


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _column(body: str, k: int) -> int:
    """1-based column of token k of body; past the last token, the column
    just after it."""
    end = 0
    for j, m in enumerate(_TOKEN.finditer(body)):
        if j == k:
            return m.start() + 1
        end = m.end()
    return end + 1


def _error(message: str, number: int, body: str, k: int) -> ParseError:
    return ParseError(message, number, _column(body, k))


def _expected(what: str, number: int, body: str, toks: list[str], k: int) -> ParseError:
    if toks[k]:
        return _error(f"expected {what}, found {toks[k]!r}", number, body, k)
    return _error(f"unexpected end of line, expected {what}", number, body, k)


def _to_int(text: str, number: int, body: str, k: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise _error(
            f"number with {len(text)} characters is too long", number, body, k
        ) from None


def _rational(toks: list[str], k: int, what: str, number: int, body: str) -> Fraction:
    tok = toks[k]
    if not _is_number(tok):
        raise _expected(what, number, body, toks, k)
    num, slash, den = tok.partition("/")
    if not slash:
        return Fraction(_to_int(num, number, body, k))
    d = _to_int(den, number, body, k)
    if d == 0:
        raise _error("zero denominator", number, body, k)
    return Fraction(_to_int(num, number, body, k), d)


def _integer(toks: list[str], k: int, what: str, number: int, body: str) -> int:
    tok = toks[k]
    if not _is_number(tok):
        raise _expected(what, number, body, toks, k)
    if "/" in tok:
        raise _error(f"expected {what}, found the fraction {tok}", number, body, k)
    return _to_int(tok, number, body, k)


def _linear_row(toks, index, stops, line_kind, numbers, number, body):
    """coeff var (+|- coeff var)* followed by one of stops and a right-hand
    side, from token 1 to the end of the line.  index maps each variable name
    to its column; numbers maps each signed numeral text to its Fraction."""
    coeffs = [_ZERO] * len(index)
    negative = False
    k = 1
    while True:
        tok = toks[k]
        key = "-" + tok if negative else tok
        c = numbers.get(key)
        if c is None:
            c = _rational(toks, k, "a coefficient", number, body)
            c = numbers[key] = -c if negative else c
        name = toks[k + 1]
        j = index.get(name)
        if j is None:
            if _is_name(name):
                raise _error(f"unknown variable {name!r}", number, body, k + 1)
            raise _expected("a variable name", number, body, toks, k + 1)
        if coeffs[j] is not _ZERO:  # a repeated name adds up
            c += coeffs[j]
        coeffs[j] = c
        sep = toks[k + 2]
        if sep == "+":
            negative = False
            k += 3
        elif sep == "-":
            negative = True
            k += 3
        elif sep in stops:
            rhs = numbers.get(toks[k + 3])
            if rhs is None:
                rhs = numbers[toks[k + 3]] = _rational(
                    toks, k + 3, "a right-hand side", number, body
                )
            if toks[k + 4]:
                raise _error(f"trailing input {toks[k + 4]!r}", number, body, k + 4)
            return tuple(coeffs), sep, rhs
        elif sep[:1] == "-":
            # "1 x -2 y": the minus lexed as part of the number, which is
            # the next coefficient
            negative = False
            k += 2
        elif not sep:
            raise _error(
                f"missing relation in {line_kind} line: expected one of "
                + ", ".join(stops),
                number,
                body,
                k + 2,
            )
        else:
            raise _error(
                f"expected +, -, or one of {', '.join(stops)}, found {sep!r}",
                number,
                body,
                k + 2,
            )


def _val_constraint(toks, index, number, body) -> ValConstraint:
    """p : v(var) rel bound, from token 1 to the end of the line."""
    p = _integer(toks, 1, "a prime", number, body)
    for k, want, what in ((2, ":", ":"), (3, "v", "v(...)"), (4, "(", "(")):
        if toks[k] != want:
            raise _expected(what, number, body, toks, k)
    name = toks[5]
    if name not in index:
        if _is_name(name):
            raise _error(f"unknown variable {name!r}", number, body, 5)
        raise _expected("a variable name", number, body, toks, 5)
    if toks[6] != ")":
        raise _expected(")", number, body, toks, 6)
    rel = toks[7]
    if rel not in _VAL_RELS:
        # past the last token the column is the one after the ")"
        raise _error(
            "expected a valuation relation (>=, <=, ==, !=, <, >)", number, body, 7
        )
    bound = _integer(toks, 8, "an integer bound", number, body)
    if toks[9]:
        raise _error(f"trailing input {toks[9]!r}", number, body, 9)
    try:
        return ValConstraint(p, name, rel, bound).desugared()
    except InputError as exc:  # not a prime, or too large to decide
        raise _error(str(exc), number, body, 0) from None


def parse_instance(text: str) -> Instance:
    variables: tuple[str, ...] | None = None
    index: dict[str, int] = {}  # variable name -> column
    numbers: dict[str, Fraction] = {}  # signed numeral text -> its value
    words: dict[str, list[str]] = {}  # whitespace-free word -> its tokens
    equations = []
    valuations = []
    orders = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = []
        for word in body.split():
            lexed = words.get(word)
            if lexed is None:
                lexed = _lex_word(word)
                if lexed is None:  # the line lexer finds the column
                    end = _LEXABLE.match(body).end()
                    raise ParseError(
                        f"unexpected character {body[end]!r}", number, end + 1
                    )
                words[word] = lexed
            toks += lexed
        if not toks:
            continue
        toks.append("")
        keyword = toks[0]
        if keyword == "vars":
            if variables is not None:
                raise _error("duplicate vars line", number, body, 0)
            for k, name in enumerate(toks[1:-1], start=1):
                if not _is_name(name):
                    raise _expected("a variable name", number, body, toks, k)
                if name in index:
                    raise _error(f"duplicate variable {name!r}", number, body, k)
                index[name] = k - 1
            if not index:
                raise _error("vars line declares nothing", number, body, 0)
            variables = tuple(index)
        elif not _is_name(keyword):
            raise _expected("a keyword", number, body, toks, 0)
        elif variables is None:
            raise _error(
                "the vars line must come before any constraint", number, body, 0
            )
        elif keyword == "eq":
            coeffs, _, rhs = _linear_row(toks, index, ("=",), "eq", numbers, number, body)
            equations.append(Equation(coeffs, rhs))
        elif keyword == "val":
            valuations.append(_val_constraint(toks, index, number, body))
        elif keyword == "ord":
            coeffs, rel, rhs = _linear_row(
                toks, index, ("<=", "<"), "ord", numbers, number, body
            )
            orders.append(OrderConstraint(coeffs, rel, rhs))
        else:
            raise _error(
                f"unknown keyword {keyword!r} (expected vars, eq, val, or ord)",
                number,
                body,
                0,
            )
    if variables is None:
        raise ParseError("missing vars line", 1, 1)
    return Instance(variables, tuple(equations), tuple(valuations), tuple(orders))


def _format_row(coeffs, variables, rel: str, rhs: Fraction, keyword: str) -> str:
    parts = [keyword]
    started = False
    for c, name in zip(coeffs, variables):
        if c == 0:
            continue
        if not started:
            parts.append(f"{c} {name}")
            started = True
        elif c < 0:
            parts.append(f"- {-c} {name}")
        else:
            parts.append(f"+ {c} {name}")
    if not started:
        parts.append(f"0 {variables[0]}")
    parts.append(rel)
    parts.append(str(rhs))
    return " ".join(parts)


def serialize_instance(inst: Instance) -> str:
    lines = ["vars " + " ".join(inst.variables)]
    for eq in inst.equations:
        lines.append(_format_row(eq.coeffs, inst.variables, "=", eq.rhs, "eq"))
    for vc in inst.valuations:
        lines.append(f"val {vc.prime} : v({vc.var}) {vc.rel} {vc.bound}")
    for oc in inst.orders:
        lines.append(_format_row(oc.coeffs, inst.variables, oc.rel, oc.rhs, "ord"))
    return "\n".join(lines) + "\n"
