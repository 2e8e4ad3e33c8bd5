"""The evidence checkers: every answer's evidence is checked here, by code
that shares only the rational core and the model with the solvers.

verify_witness checks a claimed satisfying assignment against an instance:
equations one exponent at a time, valuation constraints symbolically, order
constraints on materialized values.  Every row, equation or order, is read
in one integer form (_integer_form): its nonzero coefficients and its rhs
scaled to integers over one lcm.  The witness's terms are written once per
check over one denominator per exponent and listed by coordinate, so an
equation walks only its nonzero coefficients and their coordinates' terms,
summing one integer per exponent, and hands the resulting terms to
rational.merged_valuation, whose answer is +inf exactly when the equation
holds.  No p**e is materialized for an equation, and a residual PowerSum is
built only to word a rejection.  Order rows are checked on integers too: the
materialized point is written over one common denominator, x = X / D, and
one integer dot product is compared with the scaled rhs; a Fraction total
is built only to word a rejection.

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


def _exponent_terms(values: list) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """The witness's terms over one denominator per exponent, once per check.

    Returns the exponents, the k-th as (den, e) with den the lcm of the
    denominators of the terms at e, and per coordinate j the pairs (k, num)
    with num/den * p**e a term of x_j; a rational coordinate is one term at
    exponent 0.  O(terms) in all, however many exponents there are.
    """
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for j, x in enumerate(values):
        for c, e in x.terms if isinstance(x, PowerSum) else ((x, 0),):
            if c:
                groups.setdefault(e, []).append((j, c.numerator, c.denominator))
    exponents = []
    terms: list[list[tuple[int, int]]] = [[] for _ in values]
    for k, (e, group) in enumerate(groups.items()):
        den = math.lcm(*[d for _, _, d in group])
        exponents.append((den, e))
        for j, num, d in group:
            terms[j].append((k, num * (den // d)))
    return exponents, terms


def _integer_form(coeffs, rhs) -> tuple[list[tuple[int, int]], int]:
    """A row's nonzero coefficients, as pairs (j, num), and its rhs, scaled
    to integers over the lcm of their denominators; each coefficient is
    read once, as its ratio."""
    rhs_num, rhs_den = _ratio(rhs)
    scale, ratios = rhs_den, []
    for j, c in enumerate(coeffs):
        # _ratio's Fraction case inline: every parsed coefficient is one
        num, den = c.as_integer_ratio() if type(c) is Fraction else _ratio(c)
        if num:
            ratios.append((j, num, den))
            if scale % den:
                scale = math.lcm(scale, den)
    return [(j, num * (scale // d)) for j, num, d in ratios], rhs_num * (scale // rhs_den)


def _residual_is_zero(p: int, eq: Equation, exponents, terms) -> bool:
    """Whether sum_j c_j x_j - rhs vanishes: the equation in integer form,
    one integer sum per exponent over the terms of its nonzero
    coefficients' coordinates, and the valuation merge of the (sum, den, e)
    triples with the rhs, +inf exactly at 0.  The exponents and those terms
    are each at most the witness's terms."""
    coeffs, rhs = _integer_form(eq.coeffs, eq.rhs)
    sums = [0] * len(exponents)
    for j, a in coeffs:
        for k, num in terms[j]:
            sums[k] += a * num
    triples = [(total, *exponent) for total, exponent in zip(sums, exponents)]
    triples.append((-rhs, 1, 0))
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
    """Whether the order row holds at x = X / D (D > 0): the row in integer
    form, compared with its scaled rhs times D."""
    coeffs, rhs = _integer_form(oc.coeffs, oc.rhs)
    lhs = sum([a * X[j] for j, a in coeffs])
    cap = rhs * D
    return lhs < cap if oc.rel == "<" else lhs <= cap


def verify_witness(
    inst: Instance,
    witness: Mapping[str, object],
    guard: int = DEFAULT_EXPONENT_GUARD,
) -> CheckResult:
    """Exactly check a claimed satisfying assignment against an instance.

    Witness coordinates may be PowerSums (all over one prime) or plain
    rationals.  Equations are checked one exponent at a time on integers
    (see the module docstring) and valuation constraints
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
    exponents, terms = _exponent_terms(ordered)
    for idx, eq in enumerate(inst.equations):
        # without power sums every exponent is 0, where any prime decides
        if not _residual_is_zero(p or 2, eq, exponents, terms):
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
