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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .model import Equation, Instance, OrderConstraint, ValConstraint

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>-?\d+(?:/\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>>=|<=|==|!=|[-+=:()<>])"
)

_VAL_RELS = (">=", "<=", "==", "!=", "<", ">")


class _Line:
    def __init__(self, text: str, number: int):
        self.number = number
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, column)
        # finditer skips what no token matches: a gap before a match, or
        # after the last one, starts at an unexpected character
        pos = 0
        for m in _TOKEN.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
            kind = m.lastgroup
            if kind != "ws":
                self.tokens.append((kind, m.group(), m.start() + 1))
        if pos != len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", number, pos + 1)
        self.cursor = 0

    def peek(self):
        if self.cursor < len(self.tokens):
            return self.tokens[self.cursor]
        return None

    def take(self, kind: str | None = None, text: str | None = None, what: str = ""):
        tok = self.peek()
        if tok is None:
            if self.tokens:
                _, last_text, last_col = self.tokens[-1]
                col = last_col + len(last_text)
            else:
                col = 1
            raise ParseError(
                f"unexpected end of line, expected {what or text or kind}",
                self.number,
                col,
            )
        tkind, ttext, col = tok
        if (kind is not None and tkind != kind) or (
            text is not None and ttext != text
        ):
            raise ParseError(
                f"expected {what or text or kind}, found {ttext!r}", self.number, col
            )
        self.cursor += 1
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(
                f"trailing input {tok[1]!r}", self.number, tok[2]
            )


def _to_int(line: _Line, text: str, col: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise ParseError(
            f"number with {len(text)} characters is too long", line.number, col
        ) from None


def _rational(line: _Line, what: str = "a rational number") -> Fraction:
    _, text, col = line.take("num", what=what)
    num, slash, den = text.partition("/")
    if not slash:
        return Fraction(_to_int(line, num, col))
    d = _to_int(line, den, col)
    if d == 0:
        raise ParseError("zero denominator", line.number, col)
    return Fraction(_to_int(line, num, col), d)


def _integer(line: _Line, what: str = "an integer") -> int:
    _, text, col = line.take("num", what=what)
    if "/" in text:
        raise ParseError(f"expected {what}, found the fraction {text}", line.number, col)
    return _to_int(line, text, col)


def _linear_row(line: _Line, index: dict[str, int], stop_ops, line_kind: str):
    """coeff var (+|- coeff var)* followed by one of stop_ops; index maps each
    variable name to its column."""
    coeffs = [Fraction(0)] * len(index)
    sign = 1
    while True:
        c = _rational(line, "a coefficient")
        if sign < 0:
            c = -c
        _, name, col = line.take("ident", what="a variable name")
        j = index.get(name)
        if j is None:
            raise ParseError(f"unknown variable {name!r}", line.number, col)
        coeffs[j] = coeffs[j] + c if coeffs[j] else c  # a repeated name adds up
        tok = line.peek()
        if tok is None:
            raise ParseError(
                f"missing relation in {line_kind} line: expected one of "
                + ", ".join(stop_ops),
                line.number,
                col + len(name),
            )
        kind, text, col = tok
        if text in stop_ops:
            line.cursor += 1
            rhs = _rational(line, "a right-hand side")
            line.done()
            return tuple(coeffs), text, rhs
        if text == "+":
            sign = 1
            line.cursor += 1
        elif text == "-":
            sign = -1
            line.cursor += 1
        elif kind == "num" and text.startswith("-"):
            # "1 x -2 y": the minus lexed as part of the number; leave the
            # token for the next coefficient.
            sign = 1
        else:
            raise ParseError(
                f"expected +, -, or one of {', '.join(stop_ops)}, found {text!r}",
                line.number,
                col,
            )


def parse_instance(text: str) -> Instance:
    variables: tuple[str, ...] | None = None
    index: dict[str, int] = {}  # variable name -> column
    equations = []
    valuations = []
    orders = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        line = _Line(body, number)
        kind, keyword, col = line.take("ident", what="a keyword")
        if keyword == "vars":
            if variables is not None:
                raise ParseError("duplicate vars line", number, col)
            names = []
            while line.peek() is not None:
                _, name, ncol = line.take("ident", what="a variable name")
                if name in names:
                    raise ParseError(f"duplicate variable {name!r}", number, ncol)
                names.append(name)
            if not names:
                raise ParseError("vars line declares nothing", number, col)
            variables = tuple(names)
            index = {name: j for j, name in enumerate(variables)}
            continue
        if variables is None:
            raise ParseError(
                "the vars line must come before any constraint", number, col
            )
        if keyword == "eq":
            coeffs, _, rhs = _linear_row(line, index, ("=",), "eq")
            equations.append(Equation(coeffs, rhs))
        elif keyword == "val":
            p = _integer(line, "a prime")
            line.take(text=":")
            line.take(text="v", what="v(...)")
            line.take(text="(")
            _, name, ncol = line.take("ident", what="a variable name")
            if name not in index:
                raise ParseError(f"unknown variable {name!r}", number, ncol)
            line.take(text=")")
            tok = line.peek()
            if tok is None or tok[1] not in _VAL_RELS:
                raise ParseError(
                    "expected a valuation relation (>=, <=, ==, !=, <, >)",
                    number,
                    tok[2] if tok else ncol + len(name) + 1,
                )
            line.cursor += 1
            bound = _integer(line, "an integer bound")
            line.done()
            try:
                valuations.append(ValConstraint(p, name, tok[1], bound).desugared())
            except Exception as exc:
                raise ParseError(str(exc), number, col) from None
        elif keyword == "ord":
            coeffs, rel, rhs = _linear_row(line, index, ("<=", "<"), "ord")
            orders.append(OrderConstraint(coeffs, rel, rhs))
        else:
            raise ParseError(
                f"unknown keyword {keyword!r} (expected vars, eq, val, or ord)",
                number,
                col,
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
