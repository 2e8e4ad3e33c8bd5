import random
from fractions import Fraction

import pytest

from padicsat.errors import InputError, OverflowGuardError
from padicsat.linalg import PivotCosts, inverse_permutation, pivot_minimal_echelon
from padicsat.rational import (
    DEFAULT_EXPONENT_GUARD,
    INF,
    NEG_INF,
    PRIME_TEST_LIMIT,
    PowerSum,
    check_prime,
    int_valuation,
    is_prime,
    leading_digit,
    valuation,
)

PRIMES = (2, 3, 5, 97)


def rand_fraction(rng, mag=10**6):
    num = rng.randint(-mag, mag)
    den = rng.randint(1, mag)
    return Fraction(num, den)


def rand_nonzero(rng, mag=10**6):
    while True:
        q = rand_fraction(rng, mag)
        if q != 0:
            return q


def test_valuation_frozen_examples():
    assert valuation(18, 3) == 2
    assert valuation(Fraction(3, 8), 2) == -3
    assert valuation(0, 5) == INF
    assert valuation(1, 7) == 0
    assert valuation(Fraction(-50, 27), 3) == -3
    assert valuation(2**40, 2) == 40


def test_int_valuation_huge():
    # doubling strategy keeps huge powers cheap
    n = 3**12345 * 7
    assert int_valuation(n, 3) == 12345
    assert int_valuation(2**100000, 2) == 100000
    assert int_valuation(0, 5) == INF


def test_int_valuation_matches_repeated_division():
    # the trial divisions, the hand-over to repeated squaring at every
    # small valuation, and one valuation near 10**4
    def naive(n, p):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    rng = random.Random(20261020)
    for p in (3, 5, 7):
        for v in [*range(13), 9_999 + rng.randrange(3)]:
            for _ in range(4):
                unit = rng.randrange(1, 10**30)
                unit += (unit % p == 0)  # keep it prime to p
                n = rng.choice((1, -1)) * unit * p**v
                assert int_valuation(n, p) == naive(abs(n), p) == v


def test_valuation_rejects_non_prime():
    with pytest.raises(InputError):
        valuation(10, 4)
    with pytest.raises(InputError):
        valuation(10, 1)


def test_is_prime_basics():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert is_prime(97)
    assert not is_prime(91)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)


# psi_12: the least odd composite that is a strong pseudoprime to the prime
# bases 2..37
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_up_to_37():
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(PSI_12)
    assert is_prime(2**61 - 1)
    assert is_prime(3317044064679887385961813)  # the last prime below the limit
    assert PRIME_TEST_LIMIT == 3317044064679887385961981


def test_check_prime_refuses_moduli_from_the_limit_up():
    assert check_prime(3317044064679887385961813) == 3317044064679887385961813
    for n in (PSI_12, PRIME_TEST_LIMIT - 2):
        with pytest.raises(InputError, match="is not prime"):
            check_prime(n)
    for n in (PRIME_TEST_LIMIT, 2**89 - 1):  # 2**89 - 1 is prime
        with pytest.raises(InputError, match="too large"):
            check_prime(n)


def test_check_prime_refuses_a_non_int_equal_to_a_checked_prime():
    assert check_prime(3) == 3
    for p in (3.0, Fraction(3), True):
        with pytest.raises(InputError, match="is not prime"):
            check_prime(p)


def test_valuation_multiplicativity_and_ultrametric():
    # v(ab) = v(a) + v(b); v(a+b) >= min(v(a), v(b)), equality when they differ
    for p in PRIMES:
        rng = random.Random(1000 + p)
        for _ in range(1000):
            a = rand_nonzero(rng)
            b = rand_nonzero(rng)
            va, vb = valuation(a, p), valuation(b, p)
            assert valuation(a * b, p) == va + vb
            vs = valuation(a + b, p)
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)


def test_leading_digit_frozen_examples():
    assert leading_digit(7, 2) == 1
    assert leading_digit(10, 5) == 2
    assert leading_digit(Fraction(2, 3), 3) == 2


def test_leading_digit_characterization():
    # the digit is the unique i in 1..p-1 with v(q - i p**n) > n
    for p in (2, 3, 5, 97):
        rng = random.Random(2000 + p)
        for _ in range(60):
            q = rand_nonzero(rng, mag=10**4)
            n = valuation(q, p)
            digit = leading_digit(q, p)
            assert 1 <= digit <= p - 1
            step = Fraction(p) ** n
            assert valuation(q - digit * step, p) > n
            for other in range(1, min(p, 12)):
                if other != digit:
                    assert valuation(q - other * step, p) == n


def test_leading_digit_rejects_zero():
    with pytest.raises(InputError):
        leading_digit(0, 3)


def test_pivot_sum_convention():
    # +inf absorbs in the pivot cost, so a zero entry can never win a pivot
    # contest, even in a column whose offset is -inf; a nonzero entry there
    # costs -inf, and a finite one 2 v_p(a) + 2 offset + bias
    costs = PivotCosts(2, (NEG_INF, 3, 4), (0, 1, 0))

    def doubled(a, j):
        if a == 0:
            return INF
        if costs.offsets[j] == NEG_INF:
            return NEG_INF
        return 2 * valuation(a, 2) + 2 * costs.offsets[j] + costs.biases[j]

    assert doubled(Fraction(4), 1) == 11 and doubled(Fraction(2), 2) == 10
    for row in ([0, 4, 0], [5, 4, 2], [0, 4, 2], [0, 4, 4], [0, 0, 3], [0, 1, 1]):
        result = pivot_minimal_echelon([row], costs, [[0]])
        pivot = inverse_permutation(result.sigma)[0]  # the column at position 0
        assert pivot == min(range(3), key=lambda j: (doubled(row[j], j), j)), row


def test_powersum_normal_form():
    s = PowerSum(3, ((Fraction(1), 5), (Fraction(2), 0), (Fraction(-1), 5)))
    assert s.terms == ((Fraction(2), 0),)
    t = PowerSum(3, ((Fraction(1, 2), 1), (Fraction(-1, 2), 1)))
    assert t.is_zero()
    assert t.valuation() == INF
    assert PowerSum.zero(5).materialize() == 0
    # value zero without term-wise cancellation: 1*3 + (-1/3)*9 = 0
    hidden = PowerSum(3, ((Fraction(1), 1), (Fraction(-1, 3), 2)))
    assert hidden.terms  # the representation is not empty
    assert hidden.is_zero()
    assert hidden.materialize() == 0


def test_powersum_frozen_examples():
    # 1*2**0 + 1*2**3 = 9 has valuation 0; 2**3 - 2**3 + 2**5 has valuation 5
    assert PowerSum(2, ((1, 0), (1, 3))).valuation() == 0
    assert PowerSum(2, ((1, 3), (-1, 3), (1, 5))).valuation() == 5
    # cancellation that climbs: 1*3**0 + 2*3**0 = 3 at p = 3
    assert PowerSum(3, ((1, 0), (2, 0))).valuation() == 1
    # merge case where the coefficients carry their own valuations
    assert PowerSum(3, ((6, 0), (3, 1))).valuation() == 1
    # (1/3)*3**2 + 3**1 = 6, a single factor of 3
    assert PowerSum(3, ((Fraction(1, 3), 2), (1, 1))).valuation() == 1


def test_powersum_valuation_matches_materialized():
    for p in (2, 3, 5, 97):
        rng = random.Random(3000 + p)
        for _ in range(200):
            k = rng.randint(0, 5)
            terms = tuple(
                (rand_fraction(rng, mag=500), rng.randint(-30, 30)) for _ in range(k)
            )
            s = PowerSum(p, terms)
            assert s.valuation() == valuation(s.materialize(), p)


def test_powersum_valuation_merges_match_materialized():
    # few exponents and coefficients carrying powers of p, so the unit
    # rewriting lands terms on one exponent and merges cascade; in a quarter
    # of the sums every term's negation is added at a shifted exponent, which
    # makes a zero the normal form cannot see
    climbs = hidden_zeros = 0
    for p in (2, 3, 5):
        rng = random.Random(3100 + p)
        for _ in range(400):
            terms = []
            for _ in range(rng.randint(1, 6)):
                sign = rng.choice((-1, 1))
                unit = Fraction(sign * rng.randint(1, 2 * p), rng.randint(1, p + 1))
                power = Fraction(p) ** rng.randint(-2, 2)
                terms.append((unit * power, rng.randint(-2, 2)))
            if rng.random() < 0.25:
                shifts = [rng.randint(-2, 2) for _ in terms]
                terms += [(-c * Fraction(p) ** k, e - k) for (c, e), k in zip(terms, shifts)]
            s = PowerSum(p, tuple(terms))
            expected = valuation(s.materialize(), p)
            assert s.valuation() == expected, (p, terms)
            assert s.is_zero() == (expected == INF)
            if expected == INF:
                hidden_zeros += bool(s.terms)
            else:
                lowest = min(e + valuation(c, p) for c, e in s.terms)
                climbs += expected > lowest
    assert climbs > 40 and hidden_zeros > 200


def test_powersum_arithmetic_matches_materialized():
    rng = random.Random(4)
    for _ in range(100):
        a = PowerSum(5, tuple((rand_fraction(rng, 99), rng.randint(-8, 8)) for _ in range(3)))
        b = PowerSum(5, tuple((rand_fraction(rng, 99), rng.randint(-8, 8)) for _ in range(3)))
        r = rand_fraction(rng, 50)
        assert (a + b).materialize() == a.materialize() + b.materialize()
        assert (a - b).materialize() == a.materialize() - b.materialize()
        assert a.scale(r).materialize() == a.materialize() * r
        assert a.shift(3).materialize() == a.materialize() * 5**3


def _reference_terms(terms):
    """The normal form by one Fraction addition per term."""
    merged = {}
    for coeff, exp in terms:
        merged[exp] = merged.get(exp, Fraction(0)) + Fraction(coeff)
    return tuple(sorted(((c, e) for e, c in merged.items() if c != 0), key=lambda t: t[1]))


def _random_terms(rng, k):
    # few exponents, so that terms collide and often cancel; int, Fraction
    # and string coefficients
    terms = []
    for _ in range(k):
        c = rand_fraction(rng, mag=rng.choice((3, 40, 10**6)))
        form = rng.random()
        terms.append((c.numerator if c.denominator == 1 and form < 0.3 else
                       str(c) if form > 0.8 else c, rng.randint(-4, 4)))
    if terms and rng.random() < 0.2:  # cancel one term outright
        c, e = rng.choice(terms)
        terms.append((-Fraction(c), e))
    return terms


def test_normalized_terms_match_fraction_reference():
    rng = random.Random(71)
    for _ in range(1500):
        p = rng.choice(PRIMES)
        terms = _random_terms(rng, rng.randint(0, 12))
        s = PowerSum(p, tuple(terms))
        assert s.terms == _reference_terms(terms)
        assert all(type(c) is Fraction for c, _ in s.terms)
        assert s.materialize() == sum(
            (Fraction(c) * Fraction(p) ** e for c, e in terms), Fraction(0)
        )


def test_combination_matches_fraction_reference():
    rng = random.Random(72)
    empty = 0
    for _ in range(1500):
        p = rng.choice(PRIMES)
        items, flat = [], []
        for _ in range(rng.randint(0, 6)):
            a = rng.choice((0, 1, -1, rng.randint(-9, 9), rand_fraction(rng, 50)))
            if rng.random() < 0.3:  # a rational input sits at exponent 0
                x = rand_fraction(rng, 50)
                flat.append((a * x, 0))
            else:
                x = PowerSum(p, tuple(_random_terms(rng, rng.randint(0, 5))))
                flat += [(a * c, e) for c, e in x.terms]
            items.append((a, x))
        if items and rng.random() < 0.2:  # the negated sum: cancels to empty
            items += [(-a, x) for a, x in items]
            flat += [(-c, e) for c, e in flat]
        s = PowerSum.combination(p, items)
        assert s.prime == p
        assert s.terms == _reference_terms(flat)
        assert s.materialize() == sum(
            (a * (x.materialize() if isinstance(x, PowerSum) else x) for a, x in items),
            Fraction(0),
        )
        empty += not s.terms
    assert empty >= 100
    assert PowerSum.combination(3, [(0, PowerSum(3, ((1, 2),))), (5, 0)]).terms == ()
    with pytest.raises(InputError):
        PowerSum.combination(3, [(1, PowerSum(3, ((1, 0),))), (1, PowerSum(2, ((1, 0),)))])


def test_powersum_guard():
    big = PowerSum(2, ((1, 10**6),))
    # within the default guard: materialization is permitted and exact
    assert big.materialize() == Fraction(2) ** (10**6)
    assert big.valuation() == 10**6
    over = PowerSum(2, ((1, DEFAULT_EXPONENT_GUARD + 1),))
    with pytest.raises(OverflowGuardError):
        over.materialize()
    # a tighter explicit guard rejects the million too
    with pytest.raises(OverflowGuardError):
        big.materialize(guard=1000)


def test_powersum_mixed_primes_rejected():
    with pytest.raises(InputError):
        PowerSum(2, ((1, 0),)) + PowerSum(3, ((1, 0),))


def test_powersum_str():
    assert str(PowerSum.zero(2)) == "0"
    assert str(PowerSum(2, ((Fraction(5, 4), 0), (-1, 20)))) == "5/4@0 + -1@20"
