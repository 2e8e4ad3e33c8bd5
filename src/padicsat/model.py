"""Instance model: constraint containers, normalization, classification.

An :class:`Instance` couples three constraint families over one declared
variable tuple: exact linear equations, per-prime valuation constraints, and
rational order constraints.  :func:`normalize` folds the valuation constraints
into one window-plus-exclusions profile per (variable, prime) pair, keeping
the constraints themselves for witness checks, and :func:`classify` maps the
surviving constraint-kind sets to solver fragments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError
from .rational import (
    INF,
    NEG_INF,
    ExtInt,
    PowerSum,
    as_fraction,
    check_prime,
    is_finite,
)

VAL_RELATIONS = ("<=", ">=", "==", "!=", "<", ">")
ORD_RELATIONS = ("<", "<=")


@dataclass(frozen=True)
class Equation:
    """sum_j coeffs[j] * x_j = rhs, coefficients aligned with Instance.variables."""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction

    @classmethod
    def of(cls, coeffs, rhs) -> "Equation":
        return cls(tuple(as_fraction(c) for c in coeffs), as_fraction(rhs))


@dataclass(frozen=True)
class ValConstraint:
    """v_prime(var) rel bound, with rel one of <=, >=, ==, !=, <, >.

    The strict forms are plain sugar over the integers: < c means <= c-1 and
    > c means >= c+1.  They are folded away by normalize (and already by the
    parser), so downstream code only ever sees the four weak relations.
    """

    prime: int
    var: str
    rel: str
    bound: int

    def __post_init__(self):
        check_prime(self.prime)
        if self.rel not in VAL_RELATIONS:
            raise InputError(f"unknown valuation relation {self.rel!r}")
        if not isinstance(self.bound, int) or isinstance(self.bound, bool):
            raise InputError(f"valuation bound must be an int, got {self.bound!r}")

    def desugared(self) -> "ValConstraint":
        if self.rel == "<":
            return ValConstraint(self.prime, self.var, "<=", self.bound - 1)
        if self.rel == ">":
            return ValConstraint(self.prime, self.var, ">=", self.bound + 1)
        return self


@dataclass(frozen=True)
class OrderConstraint:
    """sum_j coeffs[j] * x_j rel rhs with rel in {<, <=}."""

    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in ORD_RELATIONS:
            raise InputError(f"unknown order relation {self.rel!r}")

    @classmethod
    def of(cls, coeffs, rel, rhs) -> "OrderConstraint":
        return cls(tuple(as_fraction(c) for c in coeffs), rel, as_fraction(rhs))


@dataclass(frozen=True)
class Instance:
    variables: tuple[str, ...]
    equations: tuple[Equation, ...] = ()
    valuations: tuple[ValConstraint, ...] = ()
    orders: tuple[OrderConstraint, ...] = ()

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise InputError("duplicate variable names")
        n = len(self.variables)
        for eq in self.equations:
            if len(eq.coeffs) != n:
                raise InputError("equation width does not match variable count")
        names = set(self.variables)
        for vc in self.valuations:
            if vc.var not in names:
                raise InputError(f"valuation constraint on undeclared variable {vc.var!r}")
        for oc in self.orders:
            if len(oc.coeffs) != n:
                raise InputError("order constraint width does not match variable count")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({vc.prime for vc in self.valuations}))


# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class VarProfile:
    """Folded valuation constraints for one (variable, prime) pair.

    The allowed valuations are {v in Z : lower <= v <= upper, v not in
    excluded}, plus +inf (i.e. the value 0) iff allow_infinity.  exact is set
    at p = 2 when an equality constraint pinned the valuation; the >=-solver
    consumes it as its half-step flag.
    """

    lower: ExtInt = NEG_INF
    upper: ExtInt = INF
    excluded: frozenset[int] = frozenset()
    exact: bool = False
    allow_infinity: bool = True

    def admits(self, v: ExtInt) -> bool:
        if v == INF:
            return self.allow_infinity and self.upper == INF
        return self.lower <= v <= self.upper and v not in self.excluded

    def is_unconstrained(self) -> bool:
        return (
            self.lower == NEG_INF
            and self.upper == INF
            and not self.excluded
            and self.allow_infinity
        )


@dataclass(frozen=True)
class ImmediateUnsat:
    """Normalization already refuted the instance (empty profile window)."""

    prime: int
    var: str
    reason: str

    def verdict(self) -> "Verdict":
        return Verdict.unsat(
            "empty-window",
            f"v_{self.prime}({self.var}): {self.reason}",
            prime=self.prime,
            var=self.var,
        )


@dataclass
class NormalizedInstance:
    """Per-(prime, variable) profiles folded from valuation constraints.

    valuations keeps the folded constraints as written (a per-prime view
    keeps that prime's), so witnesses are checked against them, not the fold.
    """

    variables: tuple[str, ...]
    equations: tuple[Equation, ...]
    valuations: tuple[ValConstraint, ...]
    profiles: dict[int, dict[str, VarProfile]]   # prime -> var -> profile
    kinds: dict[int, frozenset[str]]             # prime -> relation kinds present
    orders: tuple[OrderConstraint, ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.profiles))

    def profile(self, p: int, var: str) -> VarProfile:
        return self.profiles.get(p, {}).get(var, VarProfile())

    def require_prime(self, p: int | None) -> None:
        """Raise InputError if a valuation constraint is at a prime other than p."""
        if self.primes and self.primes != (p,):
            raise InputError(
                f"valuation constraints at primes {list(self.primes)}, not p = {p}"
            )


def normalize(inst: Instance) -> NormalizedInstance | ImmediateUnsat:
    """Fold the valuation constraints into per-(variable, prime) profiles.

    Returns ImmediateUnsat when some profile's window is plainly empty:
    a finite lower bound above the upper bound, or a pinned valuation that is
    itself excluded.
    """
    folded: dict[int, dict[str, dict]] = {}
    kinds: dict[int, set[str]] = {}
    for raw in inst.valuations:
        vc = raw.desugared()
        slot = folded.setdefault(vc.prime, {}).setdefault(
            vc.var,
            {"lower": NEG_INF, "upper": INF, "excluded": set(), "exact": False},
        )
        kinds.setdefault(vc.prime, set()).add(vc.rel)
        if vc.rel == ">=":
            slot["lower"] = max(slot["lower"], vc.bound)
        elif vc.rel == "<=":
            slot["upper"] = min(slot["upper"], vc.bound)
        elif vc.rel == "==":
            slot["lower"] = max(slot["lower"], vc.bound)
            slot["upper"] = min(slot["upper"], vc.bound)
            if vc.prime == 2:
                slot["exact"] = True
        else:  # "!="
            slot["excluded"].add(vc.bound)
    profiles: dict[int, dict[str, VarProfile]] = {}
    for p, by_var in folded.items():
        profiles[p] = {}
        for var, slot in by_var.items():
            lo, up = slot["lower"], slot["upper"]
            if is_finite(lo) and lo > up:
                return ImmediateUnsat(p, var, f"empty window [{lo}, {up}]")
            if is_finite(lo) and lo == up and lo in slot["excluded"]:
                return ImmediateUnsat(
                    p, var, f"valuation pinned to {lo}, which is excluded"
                )
            profiles[p][var] = VarProfile(
                lower=lo,
                upper=up,
                excluded=frozenset(slot["excluded"]),
                exact=slot["exact"],
                allow_infinity=up == INF,
            )
    return NormalizedInstance(
        variables=inst.variables,
        equations=inst.equations,
        valuations=inst.valuations,
        profiles=profiles,
        kinds={p: frozenset(s) for p, s in kinds.items()},
        orders=inst.orders,
    )


# ---------------------------------------------------------------------------
# fragment classification


class Fragment(enum.Enum):
    GEQ = "GEQ"    # only lower bounds (plus pinned valuations when p = 2)
    LEQ = "LEQ"    # only upper bounds and exclusions
    HARD = "HARD"  # anything mixing the two sides, or == at p >= 3
    NONE = "NONE"  # no valuation constraints for this prime

    @property
    def label(self) -> str:
        return "NP-complete fragment" if self is Fragment.HARD else "in P"


def classify_kinds(p: int, kinds: frozenset[str]) -> Fragment:
    if not kinds:
        return Fragment.NONE
    geq_kinds = {">=", "=="} if p == 2 else {">="}
    if kinds <= geq_kinds:
        return Fragment.GEQ
    if kinds <= {"<=", "!="}:
        return Fragment.LEQ
    return Fragment.HARD


@dataclass
class FragmentClass:
    per_prime: dict[int, Fragment]
    has_orders: bool

    @property
    def multi_prime(self) -> bool:
        return len(self.per_prime) > 1

    def describe(self) -> str:
        if not self.per_prime and not self.has_orders:
            return "NONE"
        parts = [f"{p}:{frag.value}" for p, frag in sorted(self.per_prime.items())]
        if self.has_orders:
            parts.append("ord")
        return ",".join(parts) if parts else "NONE"


def classify(norm: NormalizedInstance) -> FragmentClass:
    """Fragment per prime, decided purely from which relation kinds occur."""
    return FragmentClass(
        per_prime={p: classify_kinds(p, norm.kinds.get(p, frozenset())) for p in norm.primes},
        has_orders=bool(norm.orders),
    )


# ---------------------------------------------------------------------------
# size measure


def _bits(n: int) -> int:
    """ceil(log2 n) for n >= 1, as an exact bit-length computation."""
    return (n - 1).bit_length()


def height(x) -> int:
    """Size of one entry: 1 + ceil(log2 |num|) + ceil(log2 den); h(0) = h(inf) = 1."""
    if x == INF or x == NEG_INF:
        return 1
    q = as_fraction(x)
    if q == 0:
        return 1
    return 1 + _bits(abs(q.numerator)) + _bits(q.denominator)


def instance_size(inst: Instance) -> int:
    """Total encoding size: max block dimension plus the sum of entry heights.

    Blocks counted: the equation matrix and right-hand sides, the order matrix
    and right-hand sides, and for every valuation constraint its prime and
    bound as 1x1 blocks.
    """
    n = len(inst.variables)
    dims = [1]
    if inst.equations:
        dims += [len(inst.equations), n]
    if inst.orders:
        dims += [len(inst.orders), n]
    total = 0
    for eq in inst.equations:
        total += sum(height(c) for c in eq.coeffs) + height(eq.rhs)
    for oc in inst.orders:
        total += sum(height(c) for c in oc.coeffs) + height(oc.rhs)
    for vc in inst.valuations:
        total += height(vc.prime) + height(vc.bound)
    return max(dims) + total


# ---------------------------------------------------------------------------
# verdicts


class Status(str, enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class Verdict:
    """Uniform solver answer.

    witness maps variable names (or column indices, for the matrix-level
    solvers) to PowerSums or plain Fractions.  Unsat and Unknown answers carry
    a machine-readable code plus a human-readable reason; diagnostics holds
    anything extra a caller may want to audit (thresholds, certificates,
    conversion traces, per-prime results).
    """

    status: Status
    witness: Mapping | Sequence | None = None
    code: str = ""
    reason: str = ""
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def sat(cls, witness=None, **diagnostics) -> "Verdict":
        return cls(Status.SAT, witness=witness, diagnostics=diagnostics)

    @classmethod
    def unsat(cls, code: str, reason: str, **diagnostics) -> "Verdict":
        return cls(Status.UNSAT, code=code, reason=reason, diagnostics=diagnostics)

    @classmethod
    def unknown(cls, code: str, reason: str, **diagnostics) -> "Verdict":
        return cls(Status.UNKNOWN, code=code, reason=reason, diagnostics=diagnostics)

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status is Status.UNKNOWN
