"""Exact rational arithmetic: p-adic valuations, leading digits, power sums.

Everything here is computed exactly with `fractions.Fraction`, or with
integers where a power sum merges its terms or takes its valuation; no
floats enter any arithmetic path.  The valuation of a sum of terms is one
integer-triple merge, merged_valuation, shared by PowerSum.valuation and
solve_geq's p = 2 exact-flag pivot check, which so builds no PowerSum.  The
two float infinities are used only as order sentinels for the extended
integers Z u {-inf, +inf}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from typing import Iterable, Union

from .errors import InputError, OverflowGuardError

INF = float("inf")
NEG_INF = float("-inf")

#: An element of Z u {-inf, +inf}: a plain int, or one of the two sentinels.
ExtInt = Union[int, float]

#: Largest |exponent| a power sum will materialize by default.
DEFAULT_EXPONENT_GUARD = 1 << 20

RationalLike = Union[int, str, Fraction]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "a/b" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


def is_finite(v: ExtInt) -> bool:
    return v != INF and v != NEG_INF


# ---------------------------------------------------------------------------
# primality

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13: the least odd composite that is a strong pseudoprime to every base
# in _SMALL_PRIMES (Sorenson and Webster, 2015).  Without the base 41 the
# bound is psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41: exact for n < PRIME_TEST_LIMIT;
    from there on a strong probable-prime test only, so check_prime refuses
    such moduli."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_KNOWN_PRIMES: set[int] = set()


def check_prime(p: int) -> int:
    # the type test comes first: 2.0 == 2, so the cache alone would pass it
    if not isinstance(p, int) or isinstance(p, bool):
        raise InputError(f"modulus {p!r} is not prime")
    if p not in _KNOWN_PRIMES:
        if p >= PRIME_TEST_LIMIT:
            raise InputError(
                f"modulus {p} is too large: primality is only decided below "
                f"{PRIME_TEST_LIMIT}"
            )
        if not is_prime(p):
            raise InputError(f"modulus {p!r} is not prime")
        _KNOWN_PRIMES.add(p)
    return p


# ---------------------------------------------------------------------------
# valuations

# factors of p that int_valuation divides out one at a time before it squares
_TRIAL_DIVISIONS = 5


def int_valuation(n: int, p: int) -> ExtInt:
    """Largest e with p**e dividing n, or +inf for n == 0.

    The first few factors of p are divided out one at a time, as most
    valuations met are small; what is left goes to repeated squaring of the
    divisor, so huge powers (think 3**(10**6)) cost O(log e) big-int
    divisions instead of e of them.
    """
    if n == 0:
        return INF
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    for v in range(_TRIAL_DIVISIONS):
        if n % p:
            return v
        n //= p
    powers = []
    q = p
    while n % q == 0:
        powers.append(q)
        q *= q
    v = _TRIAL_DIVISIONS
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def valuation(q: RationalLike, p: int) -> ExtInt:
    """p-adic valuation of a rational; valuation(0, p) is +inf.

    For q = a/b in lowest terms this is v_p(a) - v_p(b); only one of the two
    terms can be nonzero.
    """
    check_prime(p)
    if type(q) is int:
        return int_valuation(q, p)
    q = as_fraction(q)
    if q == 0:
        return INF
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def leading_digit(q: RationalLike, p: int) -> int:
    """The unique digit i in 1..p-1 with v_p(q - i * p**v_p(q)) > v_p(q).

    Equivalently: write q = u * p**n with u a p-adic unit; the digit is the
    residue of u mod p.  Defined for q != 0 only.
    """
    check_prime(p)
    q = as_fraction(q)
    if q == 0:
        raise InputError("leading digit of 0 is undefined")
    a, b = q.numerator, q.denominator
    a //= p ** int_valuation(a, p)
    b //= p ** int_valuation(b, p)
    return a * pow(b, -1, p) % p


# ---------------------------------------------------------------------------
# power sums

def _ratio(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an int, Fraction or "a/b" string."""
    return (x if type(x) is int or type(x) is Fraction else as_fraction(x)).as_integer_ratio()


def _ratio_sum(ratios: list[tuple[int, int]]) -> Fraction:
    """The sum of (numerator, denominator) pairs: one integer sum over the
    lcm of the denominators, then one Fraction."""
    den = lcm(*[d for _, d in ratios])
    return Fraction(sum(num * (den // d) for num, d in ratios), den)


def merged_valuation(p: int, terms: Iterable[tuple[int, int, int]]) -> ExtInt:
    """v_p of the sum of a/b * p**c over integer triples (a, b, c) with b > 0.

    Terms may repeat exponents and a may be 0; nothing is materialized.  Each
    nonzero term is first rewritten as an integer triple with a p-adic unit
    a'/b': (c + v_p(a) - v_p(b), a / p**v_p(a), b / p**v_p(b)).  If the lowest
    exponent is then attained exactly once it is the valuation, by the
    ultrametric equality case.  Otherwise the two lowest terms are merged as
    integers, a1 b2 + a2 b1 over b1 b2 (still a unit denominator), and the
    loop repeats; every merge removes a term, so at most len(terms) merges
    run.  The sum of no nonzero term is 0, of valuation +inf.
    """
    heap = []
    for a, b, exp in terms:
        if a:
            va, vb = int_valuation(a, p), int_valuation(b, p)
            heap.append((exp + va - vb, a // p**va, b // p**vb))
    heapify(heap)
    while heap:
        low, a1, b1 = heappop(heap)
        if not heap or heap[0][0] > low:
            return low
        _, a2, b2 = heappop(heap)
        a = a1 * b2 + a2 * b1
        if a:
            v = int_valuation(a, p)
            heappush(heap, (low + v, a // p**v, b1 * b2))
    return INF


def _normalized_terms(terms: Iterable[tuple[RationalLike, int]]) -> tuple[tuple[Fraction, int], ...]:
    """Sort by exponent, merge equal exponents and drop zero coefficients.

    The merge is the integer one of _ratio_sum, one Fraction per exponent
    rather than one Fraction addition per term; a lone coefficient is kept.
    """
    groups: dict[int, list[RationalLike]] = {}
    for coeff, exp in terms:
        if not isinstance(exp, int) or isinstance(exp, bool):
            raise InputError(f"power-sum exponent must be an int, got {exp!r}")
        groups.setdefault(exp, []).append(coeff)
    out = []
    for exp in sorted(groups):
        group = groups[exp]
        c = as_fraction(group[0]) if len(group) == 1 else _ratio_sum([_ratio(x) for x in group])
        if c:
            out.append((c, exp))
    return tuple(out)


@dataclass(frozen=True)
class PowerSum:
    """A finite formal sum of terms a * p**c with rational a and integer c.

    The normal form keeps exponents strictly increasing and coefficients
    nonzero; the empty sum denotes 0.  The represented value can be far too
    large to write down (exponents near 10**6 are routine), so arithmetic and
    valuation never materialize p**c unless explicitly asked to.
    """

    prime: int
    terms: tuple[tuple[Fraction, int], ...] = ()

    def __post_init__(self):
        check_prime(self.prime)
        object.__setattr__(self, "terms", _normalized_terms(self.terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PowerSum":
        return cls(p, ())

    @classmethod
    def from_rational(cls, p: int, q: RationalLike) -> "PowerSum":
        """The one-term sum q * p**0."""
        return cls(p, ((as_fraction(q), 0),))

    @classmethod
    def combination(
        cls, p: int, items: Iterable[tuple[RationalLike, "PowerSum | RationalLike"]]
    ) -> "PowerSum":
        """sum of a * x over (a, x) in items; x a PowerSum at p or a rational.

        Each product a * c of a scalar and a term coefficient stays an integer
        pair until the merge, so no Fraction is built per term.
        """
        groups: dict[int, list[tuple[int, int]]] = {}
        for scalar, x in items:
            an, ad = _ratio(scalar)
            if not an:
                continue
            if isinstance(x, PowerSum):
                if x.prime != p:
                    raise InputError(f"mixed primes {p} and {x.prime}")
                terms = x.terms
            else:
                terms = ((as_fraction(x), 0),)
            for c, e in terms:
                cn, cd = c.as_integer_ratio()
                groups.setdefault(e, []).append((an * cn, ad * cd))
        return cls(p, tuple((_ratio_sum(groups[e]), e) for e in groups))

    # -- ring-ish operations -----------------------------------------------

    def _require_same_prime(self, other: "PowerSum") -> None:
        if self.prime != other.prime:
            raise InputError(f"mixed primes {self.prime} and {other.prime}")

    def __add__(self, other: "PowerSum") -> "PowerSum":
        if not isinstance(other, PowerSum):
            return NotImplemented
        self._require_same_prime(other)
        return PowerSum(self.prime, self.terms + other.terms)

    def __neg__(self) -> "PowerSum":
        return PowerSum(self.prime, tuple((-c, e) for c, e in self.terms))

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        if not isinstance(other, PowerSum):
            return NotImplemented
        return self + (-other)

    def scale(self, r: RationalLike) -> "PowerSum":
        """Multiply by a rational scalar."""
        r = as_fraction(r)
        if r == 0:
            return PowerSum.zero(self.prime)
        return PowerSum(self.prime, tuple((c * r, e) for c, e in self.terms))

    def shift(self, k: int) -> "PowerSum":
        """Multiply by p**k, i.e. translate every exponent by k."""
        return PowerSum(self.prime, tuple((c, e + k) for c, e in self.terms))

    def is_zero(self) -> bool:
        """Whether the represented value is zero.

        Terms at distinct exponents can still cancel numerically, e.g.
        1@1 + (-1/3)@2 over p = 3; an empty term list is sufficient but not
        necessary.  The valuation merge decides the general case exactly.
        """
        if not self.terms:
            return True
        if len(self.terms) == 1:
            return False
        return self.valuation() == INF

    # -- the interesting part ----------------------------------------------

    def valuation(self) -> ExtInt:
        """p-adic valuation of the represented value, without materializing."""
        return merged_valuation(
            self.prime, [(c.numerator, c.denominator, e) for c, e in self.terms]
        )

    def materialize(self, guard: int = DEFAULT_EXPONENT_GUARD) -> Fraction:
        """Evaluate to an exact Fraction; refuse exponents beyond the guard."""
        total = Fraction(0)
        p = Fraction(self.prime)
        for coeff, exp in self.terms:
            if abs(exp) > guard:
                raise OverflowGuardError(
                    f"exponent {exp} exceeds materialization guard {guard}"
                )
            total += coeff * p ** exp
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}@{e}" for c, e in self.terms)
