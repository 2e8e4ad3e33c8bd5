"""Seeded benchmark corpus with reference answers known by construction.

Every case carries the instance as text (what the timed operation parses),
the generated Instance (what the checker verifies evidence against) and the
expected status.  No reference comes from a solver:

* planted-sat systems have right-hand side b = A x0 for a plant x0 that meets
  every bound, so x0 itself proves satisfiability;
* planted-unsat systems are square with A = L U, L unit lower and U unit upper
  triangular over the integers, so det A = 1 and the plant, which breaks one
  bound, is the only solution;
* order boxes are feasible at their centre; pinched boxes fix a coordinate
  with two opposite weak rows; infeasible order systems contain an explicit
  contradiction between two rows;
* colorings are answered by ``brute_color``, a plain backtracking search.

A corpus is a list of rounds.  Each round holds one case of every class of
the workload, so a run that executes whole rounds always sees the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from padicsat import (
    Equation,
    Instance,
    OrderConstraint,
    ValConstraint,
    serialize_instance,
)
from padicsat.testkit import Graph, brute_color, encode_coloring

POLY_PRIME = 3
POLY_SIZES = (16, 32, 48, 64)
POLY_ROUNDS = 3

# random graphs per round as (vertices, edges, 3-colorable): G(n, 0.5) drawn
# by rejection until it has the stratum's edge count and colorability.  The
# strata keep every random case cheaper than K5, so the rounds' slow end is
# the fixed complete graphs and not the luck of the draw.
HARD_STRATA = (
    (5, 5, True),
    (5, 5, True),
    (5, 7, False),
    (5, 7, False),
    (6, 7, True),
    (6, 7, True),
    (6, 8, True),
    (6, 8, True),
    (7, 9, True),
    (7, 9, True),
)
HARD_ENCODINGS = ((3, 1), (2, 2))  # (p, e): colors = p**e
HARD_ROUNDS = 6

ORDER_BOX_DIMS = (4, 8, 12, 16)  # 2 weak rows per dimension: 8 to 32 rows
ORDER_PINCHED_DIMS = (4, 6, 8)
ORDER_INFEASIBLE_DIMS = (6, 8, 10)
ORDER_PRIME_SETS = ((2, 3), (2, 5), (2, 3, 5))
ORDER_PRIME_VARS = 5
ORDER_ROUNDS = 8


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    instance: Instance
    expected: str  # "sat" or "unsat"
    # construction data the tests audit: triangular factors, graphs, plants
    source: dict = field(default_factory=dict, compare=False)


def _case(name: str, inst: Instance, expected: str, **source) -> Case:
    return Case(name, serialize_instance(inst), inst, expected, source)


# ---------------------------------------------------------------------------
# shared pieces


def _unit(rng: random.Random, primes, mag: int = 9) -> int:
    """A nonzero integer in [-mag, mag] that none of the primes divides."""
    while True:
        u = rng.randint(-mag, mag)
        if u and all(u % q for q in primes):
            return u


def _plant(rng: random.Random, powers: dict[int, int]) -> Fraction:
    """A rational u * prod q**e with v_q exactly e for every (q, e) given."""
    x = Fraction(_unit(rng, powers))
    for q, e in powers.items():
        x *= Fraction(q) ** e
    return x


def _random_matrix(rng: random.Random, m: int, n: int, mag: int = 9, density: float = 0.9):
    return [
        [rng.randint(-mag, mag) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


def unit_triangular(rng: random.Random, n: int, lower: bool, mag: int = 2):
    """An integer n x n triangular matrix with ones on the diagonal."""
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
        for j in range(i) if lower else range(i + 1, n):
            if rng.random() < 0.5:
                out[i][j] = rng.randint(-mag, mag)
    return out


def _mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def _system_matrix(rng: random.Random, n: int, sat: bool, mag: int = 9):
    """(A, factors): n/2 random rows for a planted-sat case; for planted-unsat
    a square A = L U with unit-triangular factors, so det A = 1 and the plant
    is the only solution."""
    if sat:
        return _random_matrix(rng, n // 2, n, mag), {}
    L = unit_triangular(rng, n, lower=True)
    U = unit_triangular(rng, n, lower=False)
    return _mat_mul(L, U), {"L": L, "U": U}


def _equations(A, x0) -> tuple[Equation, ...]:
    return tuple(
        Equation(
            tuple(Fraction(a) for a in row),
            sum((a * x for a, x in zip(row, x0)), Fraction(0)),
        )
        for row in A
    )


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{j}" for j in range(n))


# ---------------------------------------------------------------------------
# poly: single-prime GEQ and LEQ at n = 16..64


def _poly_geq(rng: random.Random, n: int, sat: bool) -> Case:
    p = POLY_PRIME
    floors = [rng.randint(-3, 3) for _ in range(n)]
    vals = [f + rng.choice((0, 0, 1, 2)) for f in floors]
    broken = None
    A, factors = _system_matrix(rng, n, sat)
    if not sat:
        broken = rng.randrange(n)
        vals[broken] = floors[broken] - 1
    x0 = [_plant(rng, {p: v}) for v in vals]
    names = _names(n)
    inst = Instance(
        names,
        _equations(A, x0),
        tuple(ValConstraint(p, names[j], ">=", floors[j]) for j in range(n)),
    )
    kind = "sat" if sat else "unsat"
    return _case(f"geq-{kind}-n{n}", inst, kind, plant=x0, broken=broken, **factors)


def _poly_leq(rng: random.Random, n: int, sat: bool) -> Case:
    p = POLY_PRIME
    caps = [rng.randint(-3, 3) for _ in range(n)]
    excluded = [
        frozenset(c - rng.randint(0, 4) for _ in range(rng.randint(0, 2))) for c in caps
    ]
    vals = []
    for cap, excl in zip(caps, excluded):
        allowed = [v for v in range(cap - 4, cap + 1) if v not in excl]
        vals.append(rng.choice(allowed))
    broken = None
    A, factors = _system_matrix(rng, n, sat)
    if not sat:
        broken = rng.randrange(n)
        vals[broken] = min(excluded[broken]) if excluded[broken] else caps[broken] + 1
    x0 = [_plant(rng, {p: v}) for v in vals]
    names = _names(n)
    constraints = []
    for j in range(n):
        constraints.append(ValConstraint(p, names[j], "<=", caps[j]))
        for d in sorted(excluded[j]):
            constraints.append(ValConstraint(p, names[j], "!=", d))
    inst = Instance(names, _equations(A, x0), tuple(constraints))
    kind = "sat" if sat else "unsat"
    return _case(f"leq-{kind}-n{n}", inst, kind, plant=x0, broken=broken, **factors)


def _poly_round(rng: random.Random) -> list[Case]:
    return [
        make(rng, n, sat)
        for n in POLY_SIZES
        for make in (_poly_geq, _poly_leq)
        for sat in (True, False)
    ]


# ---------------------------------------------------------------------------
# hard: coloring encodings searched by branch-and-propagate


def _coloring(g: Graph, label: str, p: int, e: int) -> Case:
    colorable = brute_color(g, p**e)
    expected = "sat" if colorable else "unsat"
    return _case(
        f"color-{label}-p{p}e{e}", encode_coloring(g, p, e), expected, graph=g, colors=p**e
    )


def _stratum_graph(rng: random.Random, n: int, edges: int, colorable: bool) -> Graph:
    while True:
        g = Graph.random(rng.randrange(2**31), n, 0.5)
        if len(g.edges) == edges and brute_color(g, 3) == colorable:
            return g


def _hard_round(rng: random.Random) -> list[Case]:
    graphs = [(_stratum_graph(rng, *stratum), f"g{stratum[0]}") for stratum in HARD_STRATA]
    graphs += [(Graph.complete(5), "k5"), (Graph.complete(6), "k6")]
    return [_coloring(g, label, p, e) for g, label in graphs for p, e in HARD_ENCODINGS]


# ---------------------------------------------------------------------------
# orders: strictify and the exact LP


def _box_rows(lows, highs):
    n = len(lows)
    rows = []
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        rows.append(OrderConstraint(tuple(unit), "<=", highs[j]))
        rows.append(OrderConstraint(tuple(-c for c in unit), "<=", -lows[j]))
    return rows


def _rational(rng: random.Random, mag: int = 20) -> Fraction:
    return Fraction(rng.randint(-mag, mag), rng.randint(1, 4))


def _order_box(rng: random.Random, d: int) -> Case:
    lows = [_rational(rng) for _ in range(d)]
    highs = [lo + Fraction(rng.randint(1, 12), rng.randint(1, 3)) for lo in lows]
    inst = Instance(_names(d), orders=tuple(_box_rows(lows, highs)))
    return _case(f"box-d{d}", inst, "sat")


def _order_pinched(rng: random.Random, d: int) -> Case:
    lows = [_rational(rng) for _ in range(d)]
    highs = [lo + Fraction(rng.randint(1, 12), rng.randint(1, 3)) for lo in lows]
    # fixed positions: how many LPs a restart repeats depends on where the
    # pinched rows sit, and that should not vary from seed to seed
    pinched = [d // 2, d - 1]
    for j in pinched:
        highs[j] = lows[j]
    rows = _box_rows(lows, highs)
    # a strict row through the box interior keeps the LP's slack objective busy
    coeffs = tuple(Fraction(1) for _ in range(d))
    centre = [(lo + hi) / 2 for lo, hi in zip(lows, highs)]
    level = sum((c * x for c, x in zip(coeffs, centre)), Fraction(0)) + 1
    rows.append(OrderConstraint(coeffs, "<", level))
    inst = Instance(_names(d), orders=tuple(rows))
    return _case(f"pinched-d{d}", inst, "sat", pinched=sorted(pinched))


def _order_infeasible(rng: random.Random, d: int, strict: bool) -> Case:
    lows = [_rational(rng) for _ in range(d)]
    highs = [lo + Fraction(rng.randint(1, 12), rng.randint(1, 3)) for lo in lows]
    rows = _box_rows(lows, highs)
    j = rng.randrange(d)
    coeffs = [Fraction(0)] * d
    coeffs[j] = Fraction(1)
    if strict:
        # x_j >= low_j from the box, and x_j < low_j
        rows.append(OrderConstraint(tuple(coeffs), "<", lows[j]))
    else:
        # x_j >= low_j from the box, and x_j <= low_j - gap
        rows.append(OrderConstraint(tuple(coeffs), "<=", lows[j] - Fraction(1, rng.randint(1, 5))))
    rng.shuffle(rows)
    inst = Instance(_names(d), orders=tuple(rows))
    label = "strict" if strict else "weak"
    return _case(f"infeasible-{label}-d{d}", inst, "unsat", contradiction=j)


def _multi_prime(rng: random.Random, n: int, primes: tuple[int, ...], sat: bool) -> Case:
    exps = [{q: rng.randint(-2, 2) for q in primes} for _ in range(n)]
    floors = [{q: e - rng.randint(0, 1) for q, e in ex.items()} for ex in exps]
    broken = None
    A, factors = _system_matrix(rng, n, sat, mag=5)
    if not sat:
        # the smallest prime is decided first, so every unsat case stops there
        broken = (rng.randrange(n), primes[0])
        j, q = broken
        exps[j][q] = floors[j][q] - 1
    x0 = [_plant(rng, ex) for ex in exps]
    names = _names(n)
    vals = tuple(
        ValConstraint(q, names[j], ">=", floors[j][q]) for j in range(n) for q in primes
    )
    orders = []
    for k in range(rng.randint(2, 3)):
        coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        level = sum((c * x for c, x in zip(coeffs, x0)), Fraction(0))
        slack = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        orders.append(OrderConstraint(coeffs, "<" if k % 2 else "<=", level + slack))
    inst = Instance(names, _equations(A, x0), vals, tuple(orders))
    kind = "sat" if sat else "unsat"
    return _case(
        f"primes{'x'.join(map(str, primes))}-{kind}", inst, kind, plant=x0, broken=broken, **factors
    )


def _orders_round(rng: random.Random) -> list[Case]:
    cases = [_order_box(rng, d) for d in ORDER_BOX_DIMS]
    cases += [_order_pinched(rng, d) for d in ORDER_PINCHED_DIMS]
    cases += [
        _order_infeasible(rng, d, strict) for d in ORDER_INFEASIBLE_DIMS for strict in (False, True)
    ]
    for primes in ORDER_PRIME_SETS:
        for sat in (True, False):
            cases.append(_multi_prime(rng, ORDER_PRIME_VARS, primes, sat))
    return cases


# ---------------------------------------------------------------------------


_ROUNDS = {
    "poly": (_poly_round, POLY_ROUNDS),
    "hard": (_hard_round, HARD_ROUNDS),
    "orders": (_orders_round, ORDER_ROUNDS),
}


def build(workload: str, seed: int) -> list[list[Case]]:
    """The corpus of one workload: a list of rounds, fixed by the seed."""
    make_round, rounds = _ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make_round(rng) for _ in range(rounds)]
