"""The evidence checkers: every answer's evidence is checked here, by code
that shares only the rational core and the model with the solvers.

verify_witness checks a claimed satisfying assignment against an instance:
equations one exponent at a time, valuation constraints symbolically, order
constraints on materialized values.  It groups the witness's terms by
exponent into sparse integer columns once per check, takes one integer dot
product per exponent and equation, and hands the resulting terms to
rational.merged_valuation, whose answer is +inf exactly when the equation
holds.  No p**e is materialized for an equation, and a residual PowerSum is
built only to word a rejection.  Order rows are checked on integers too: the
materialized point is written over one common denominator, x = X / D, each
row is scaled to integers over its lcm, and one integer dot product is
compared with the scaled rhs; a Fraction total is built only to word a
rejection.

check_certificate checks a Farkas certificate from simplex.lp_feasible
against the original equality, weak and strict blocks, on Fractions.

Its only imports inside the package are rational, errors and model; a test
keeps it that way, so no solver's internals can vouch for their own answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InputError, OverflowGuardError
from .model import Equation, Instance, OrderConstraint
from .rational import (
    DEFAULT_EXPONENT_GUARD,
    INF,
    PowerSum,
    _ratio,
    as_fraction,
    merged_valuation,
    valuation,
)


# ---------------------------------------------------------------------------
# sat witnesses


@dataclass
class CheckResult:
    ok: bool
    code: str = ""
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def accept(cls) -> "CheckResult":
        return cls(True)

    @classmethod
    def reject(cls, code: str, detail: str) -> "CheckResult":
        return cls(False, code, detail)


def _coordinate_valuation(value, p: int, guard: int):
    """Valuation of a witness coordinate at prime p, or None if unobtainable."""
    if isinstance(value, PowerSum):
        if value.prime == p:
            return value.valuation()
        try:
            return valuation(value.materialize(guard), p)
        except OverflowGuardError:
            return None
    return valuation(as_fraction(value), p)


def _exponent_columns(values: list) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """The witness's terms grouped by exponent, once per check.

    Each entry (e, den, column) lists the pairs (j, num) with num/den * p**e a
    term of coordinate j, den the lcm of the exponent's denominators; a
    rational coordinate is one term at exponent 0.  O(terms) in all.
    """
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for j, x in enumerate(values):
        for c, e in x.terms if isinstance(x, PowerSum) else ((x, 0),):
            if c:
                groups.setdefault(e, []).append((j, c.numerator, c.denominator))
    out = []
    for e, group in groups.items():
        den = math.lcm(*[d for _, _, d in group])
        out.append((e, den, [(j, num * (den // d)) for j, num, d in group]))
    return out


def _residual_is_zero(p: int, eq: Equation, columns) -> bool:
    """Whether sum_j c_j x_j - rhs vanishes: the equation scaled to integers
    over its lcm, one integer dot product per exponent, and the valuation
    merge of the (dot, den, e) triples with the rhs, +inf exactly at 0."""
    ratios = [_ratio(c) for c in eq.coeffs]
    rhs_num, rhs_den = _ratio(eq.rhs)
    scale = math.lcm(rhs_den, *[d for _, d in ratios])
    coeffs = [num * (scale // d) for num, d in ratios]
    triples = [
        (sum([coeffs[j] * num for j, num in column]), den, e)
        for e, den, column in columns
    ]
    triples.append((-rhs_num * (scale // rhs_den), 1, 0))
    return merged_valuation(p, triples) == INF


def _digits(n: int) -> int:
    """Decimal digits of |n| (1 for 0), counted without str."""
    n = abs(n)
    # 0.30102999566 < log10(2): a lower bound on the digits, then counted up
    k = (max(n.bit_length(), 1) - 1) * 30102999566 // 10**11 + 1
    while n >= 10**k:
        k += 1
    return k


def _longest(x: PowerSum | Fraction) -> int:
    """Digits of the longest numerator or denominator in x."""
    coeffs = [c for c, _ in x.terms] if isinstance(x, PowerSum) else [x]
    return max([_digits(part) for c in coeffs for part in c.as_integer_ratio()], default=1)


def _equation_rejection(idx: int, eq: Equation, values: list, p: int | None) -> CheckResult:
    """The rejection of a failed equation, worded by its residual; a residual
    past the interpreter's int/str digit limit is worded by its size."""
    if p is not None:
        residual = PowerSum.combination(p, [(-1, eq.rhs), *zip(eq.coeffs, values)])
        try:
            detail = f"equation {idx} has nonzero residual {residual}"
        except ValueError:
            detail = (
                f"equation {idx} has a nonzero residual of valuation {residual.valuation()} "
                f"whose longest coefficient has {_longest(residual)} digits"
            )
        return CheckResult.reject("equation", detail)
    total = sum((c * x for c, x in zip(eq.coeffs, values)), Fraction(0))
    try:
        detail = f"equation {idx} evaluates to {total}, expected {eq.rhs}"
    except ValueError:
        detail = (
            f"equation {idx} evaluates to a rational of {_longest(total)} digits, "
            f"not its right-hand side"
        )
    return CheckResult.reject("equation", detail)


def _order_holds(oc: OrderConstraint, X: list[int], D: int) -> bool:
    """Whether the order row holds at x = X / D (D > 0): the row scaled to
    integers over its lcm, zero coefficients skipped, compared with the rhs
    scaled by the same lcm and by D."""
    ratios = [(j, _ratio(c)) for j, c in enumerate(oc.coeffs) if c]
    rhs_num, rhs_den = _ratio(oc.rhs)
    scale = math.lcm(rhs_den, *[d for _, (_, d) in ratios])
    lhs = sum([num * (scale // d) * X[j] for j, (num, d) in ratios])
    cap = rhs_num * (scale // rhs_den) * D
    return lhs < cap if oc.rel == "<" else lhs <= cap


def verify_witness(
    inst: Instance,
    witness: Mapping[str, object],
    guard: int = DEFAULT_EXPONENT_GUARD,
) -> CheckResult:
    """Exactly check a claimed satisfying assignment against an instance.

    Witness coordinates may be PowerSums (all over one prime) or plain
    rationals.  Equations are checked one exponent at a time on integer
    columns (see the module docstring) and valuation constraints
    symbolically, each (variable, prime) valuation computed once; order
    constraints require materialization, and if the guard refuses, the
    witness is rejected with an explanation rather than guessed about.
    Order rows are compared on integers (see _order_holds).
    """
    values = {}
    for var in inst.variables:
        if var not in witness:
            return CheckResult.reject("missing-variable", f"no value for {var!r}")
        v = witness[var]
        if not isinstance(v, PowerSum):
            try:
                v = as_fraction(v)
            except (InputError, ValueError):
                return CheckResult.reject(
                    "bad-coordinate", f"{var!r} is neither a power sum nor a rational"
                )
        values[var] = v
    primes_used = {v.prime for v in values.values() if isinstance(v, PowerSum)}
    if len(primes_used) > 1:
        return CheckResult.reject(
            "mixed-primes", f"power-sum coordinates over several primes: {sorted(primes_used)}"
        )
    p = next(iter(primes_used), None)
    ordered = [values[var] for var in inst.variables]
    columns = _exponent_columns(ordered)
    for idx, eq in enumerate(inst.equations):
        # without power sums every exponent is 0, where any prime decides
        if not _residual_is_zero(p or 2, eq, columns):
            return _equation_rejection(idx, eq, ordered, p)
    memo: dict[tuple[str, int], object] = {}
    for vc in inst.valuations:
        vc = vc.desugared()
        key = (vc.var, vc.prime)
        if key not in memo:
            memo[key] = _coordinate_valuation(values[vc.var], vc.prime, guard)
        v = memo[key]
        if v is None:
            return CheckResult.reject(
                "guard",
                f"cannot obtain v_{vc.prime}({vc.var}) without materializing past the guard",
            )
        holds = {
            ">=": v >= vc.bound,
            "<=": v <= vc.bound,
            "==": v == vc.bound,
            "!=": v != vc.bound,
        }[vc.rel]
        if not holds:
            return CheckResult.reject(
                "valuation",
                f"v_{vc.prime}({vc.var}) = {v} violates {vc.rel} {vc.bound}",
            )
    if inst.orders:
        concrete = []
        for var, v in zip(inst.variables, ordered):
            if isinstance(v, PowerSum):
                try:
                    v = v.materialize(guard)
                except OverflowGuardError:
                    return CheckResult.reject(
                        "guard",
                        f"order constraints need {var!r} materialized, which exceeds the guard",
                    )
            concrete.append(v)
        # the point over one common denominator: x = X / D with D > 0
        D = math.lcm(*[v.denominator for v in concrete])
        X = [v.numerator * (D // v.denominator) for v in concrete]
        for idx, oc in enumerate(inst.orders):
            if not _order_holds(oc, X, D):
                total = sum((c * x for c, x in zip(oc.coeffs, concrete)), Fraction(0))
                return CheckResult.reject(
                    "order", f"order constraint {idx}: {total} {oc.rel} {oc.rhs} fails"
                )
    return CheckResult.accept()


# ---------------------------------------------------------------------------
# Farkas certificates


def check_certificate(A, b, C, d, E, f, lam, mu, nu) -> tuple[bool, str]:
    """Independently verify a Farkas certificate against the original blocks.

    Valid when the multipliers combine the rows to 0 = value with value < 0,
    or to 0 <= value' where strictness (nu != 0) forces 0 < value' while
    value' <= 0.  A row whose multiplier is 0 adds nothing and is not read.
    Returns (ok, explanation).
    """
    if len(lam) != len(A) or len(mu) != len(C) or len(nu) != len(E):
        return False, "multiplier lengths do not match the blocks"
    if any(m < 0 for m in mu):
        return False, "a weak multiplier is negative"
    if any(m < 0 for m in nu):
        return False, "a strict multiplier is negative"
    widths = {len(r) for r in (*A, *C, *E)}
    if len(widths) > 1:
        return False, "rows of unequal width"
    totals = [Fraction(0)] * max(widths, default=0)
    for mults, rows in ((lam, A), (mu, C), (nu, E)):
        for m, row in zip(mults, rows):
            if m:
                for j, a in enumerate(row):
                    if a:
                        totals[j] += m * a
    for j, total in enumerate(totals):
        if total != 0:
            return False, f"combined coefficient of column {j} is {total}, not 0"
    value = Fraction(0)
    for mults, rhs in ((lam, b), (mu, d), (nu, f)):
        for m, r in zip(mults, rhs):
            if m:
                value += m * r
    if value < 0:
        return True, f"value {value} < 0 refutes the weak relaxation"
    if value <= 0 and any(m > 0 for m in nu):
        return True, f"value {value} <= 0 with a strict row engaged"
    return False, f"value {value} refutes nothing"
