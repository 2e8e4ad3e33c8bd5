"""Verification and test-support tools: exact witness checking, a coloring
encoder, an independent divisibility oracle, and seeded instance generators.

Everything here is deliberately independent of the solvers' internals; the
witness checker shares only the rational core, and the oracle decides
lower-bound systems through the Smith normal form rather than any echelon
computation, so the two routes can cross-check each other.

The witness checker tests equations one exponent at a time: it groups the
witness's terms by exponent into sparse integer columns once per check,
takes one integer dot product per exponent and equation, and hands the
resulting terms to rational.merged_valuation, whose answer is +inf exactly
when the equation holds.  No p**e is materialized for an equation, and a
residual PowerSum is built only to word a rejection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InputError, OverflowGuardError
from .linalg import smith_normal_form
from .model import Equation, Instance, OrderConstraint, ValConstraint
from .rational import (
    DEFAULT_EXPONENT_GUARD,
    INF,
    NEG_INF,
    PowerSum,
    _ratio,
    as_fraction,
    check_prime,
    int_valuation,
    is_finite,
    merged_valuation,
    valuation,
)
from .solver_geq import GeqProblem
from .solver_leq import LeqProblem


# ---------------------------------------------------------------------------
# witness checking


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


def _equation_rejection(idx: int, eq: Equation, values: list, p: int | None) -> CheckResult:
    """The rejection of a failed equation, worded by its residual."""
    if p is not None:
        residual = PowerSum.combination(p, [(-1, eq.rhs), *zip(eq.coeffs, values)])
        return CheckResult.reject(
            "equation", f"equation {idx} has nonzero residual {residual}"
        )
    total = sum((c * x for c, x in zip(eq.coeffs, values)), Fraction(0))
    return CheckResult.reject(
        "equation", f"equation {idx} evaluates to {total}, expected {eq.rhs}"
    )


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
        concrete = {}
        for var, v in values.items():
            if isinstance(v, PowerSum):
                try:
                    concrete[var] = v.materialize(guard)
                except OverflowGuardError:
                    return CheckResult.reject(
                        "guard",
                        f"order constraints need {var!r} materialized, which exceeds the guard",
                    )
            else:
                concrete[var] = v
        for idx, oc in enumerate(inst.orders):
            total = sum(
                (c * concrete[var] for c, var in zip(oc.coeffs, inst.variables)),
                Fraction(0),
            )
            holds = total < oc.rhs if oc.rel == "<" else total <= oc.rhs
            if not holds:
                return CheckResult.reject(
                    "order", f"order constraint {idx}: {total} {oc.rel} {oc.rhs} fails"
                )
    return CheckResult.accept()


# ---------------------------------------------------------------------------
# matrix-level problems as instances (for uniform verification)


def instance_of_geq_problem(prob: GeqProblem) -> Instance:
    n = len(prob.floors)
    names = tuple(f"x{j}" for j in range(n))
    eqs = tuple(Equation(row, rhs) for row, rhs in zip(prob.A, prob.b))
    vals = []
    for j in range(n):
        f = prob.floors[j]
        if not is_finite(f):
            continue
        rel = "==" if prob.exact[j] else ">="
        vals.append(ValConstraint(prob.prime, names[j], rel, f))
    return Instance(names, eqs, tuple(vals))


def instance_of_leq_problem(prob: LeqProblem) -> Instance:
    n = len(prob.caps)
    names = tuple(f"x{j}" for j in range(n))
    eqs = tuple(Equation(row, rhs) for row, rhs in zip(prob.A, prob.b))
    vals = []
    for j in range(n):
        if is_finite(prob.caps[j]):
            vals.append(ValConstraint(prob.prime, names[j], "<=", prob.caps[j]))
        for d in sorted(prob.excluded[j]):
            vals.append(ValConstraint(prob.prime, names[j], "!=", d))
    return Instance(names, eqs, tuple(vals))


def witness_map(prob, witness_list) -> dict:
    """Pair a matrix-level witness list with the canonical x0..xn names."""
    n = len(prob.floors) if isinstance(prob, GeqProblem) else len(prob.caps)
    return {f"x{j}": witness_list[j] for j in range(n)}


# ---------------------------------------------------------------------------
# independent oracle for lower-bound systems


def smith_oracle_geq(prob: GeqProblem, guard: int = DEFAULT_EXPONENT_GUARD):
    """Decide a >=-system by scaling columns and reading Smith invariants.

    Substituting x_j = p**floor_j * z_j turns the constraint set into
    "z integral at p"; with D = U M V the system M z = u has such a solution
    iff v_p((Uu)_i) >= v_p(d_i) on the diagonal and (Uu)_i = 0 beyond the
    rank.  Unconstrained columns (floor -inf) are eliminated rationally first.
    Decision only; shares nothing with the echelon route.
    """
    from .model import Verdict  # local import keeps module init light

    if any(prob.exact):
        raise InputError("oracle handles plain lower bounds only (no exact flags)")
    p = prob.prime
    rows = [list(r) + [rhs] for r, rhs in zip(prob.A, prob.b)]
    floors = list(prob.floors)
    keep = list(range(len(floors)))
    # rational elimination of unconstrained columns
    for j in sorted(range(len(floors)), reverse=True):
        if is_finite(floors[j]):
            continue
        col = keep.index(j)
        src = next((i for i in range(len(rows)) if rows[i][col] != 0), None)
        if src is not None:
            pivot_row = rows[src]
            for i in range(len(rows)):
                if i != src and rows[i][col] != 0:
                    f = rows[i][col] / pivot_row[col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], pivot_row)]
            del rows[src]
        for row in rows:
            del row[col]
        del keep[col]
    if not rows:
        return Verdict.sat()
    scale = []
    for j in keep:
        c = floors[j]
        if abs(c) > guard:
            raise OverflowGuardError(f"floor {c} exceeds oracle guard {guard}")
        scale.append(Fraction(p) ** c)
    int_rows = []
    for row in rows:
        scaled = [a * s for a, s in zip(row[:-1], scale)] + [row[-1]]
        lcm = 1
        for x in scaled:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        int_rows.append([int(x * lcm) for x in scaled])
    M = [r[:-1] for r in int_rows]
    u = [r[-1] for r in int_rows]
    n = len(keep)
    U, D, V = smith_normal_form(M) if n else (
        [[int(i == j) for j in range(len(M))] for i in range(len(M))],
        [[] for _ in M],
        [],
    )
    y = [sum(U[i][k] * u[k] for k in range(len(u))) for i in range(len(u))]
    diag = [D[i][i] for i in range(min(len(M), n))]
    r = sum(1 for d in diag if d != 0)
    for i in range(len(u)):
        if i < r:
            if int_valuation(y[i], p) < int_valuation(diag[i], p):
                return Verdict.unsat(
                    "oracle-divisibility",
                    f"invariant factor {diag[i]} does not divide transformed rhs {y[i]} at {p}",
                )
        elif y[i] != 0:
            return Verdict.unsat(
                "oracle-rank", f"row {i} beyond the rank has nonzero rhs {y[i]}"
            )
    return Verdict.sat()


# ---------------------------------------------------------------------------
# graphs and coloring encodings


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise InputError("self-loops are not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(
            self, "edges", tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        )

    @classmethod
    def complete(cls, k: int) -> "Graph":
        return cls(k, tuple((u, v) for u in range(k) for v in range(u + 1, k)))

    @classmethod
    def cycle(cls, k: int) -> "Graph":
        if k < 3:
            raise InputError("cycles need at least 3 vertices")
        return cls(k, tuple((i, (i + 1) % k) for i in range(k)))

    @classmethod
    def random(cls, seed: int, n: int, density: float = 0.5) -> "Graph":
        rng = random.Random(seed)
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        )
        return cls(n, edges)


def encode_coloring(g: Graph, p: int, e: int) -> Instance:
    """Instance satisfiable iff g is p**e-colorable.

    Vertices become p-integral variables x_v; every edge gets a difference
    variable w with x_v + w = x_u, constrained to 0 <= v_p(w) <= e - 1, i.e.
    the endpoints differ mod p**e.  The redundant lower bound keeps the
    difference variables on finite windows.
    """
    check_prime(p)
    if e < 1:
        raise InputError("need p**e >= 2, so e >= 1")
    names = [f"x{v}" for v in range(g.n)]
    wnames = [f"w_{u}_{v}" for u, v in g.edges]
    variables = tuple(names + wnames)
    index = {name: i for i, name in enumerate(variables)}
    eqs = []
    for (u, v), w in zip(g.edges, wnames):
        coeffs = [Fraction(0)] * len(variables)
        coeffs[index[f"x{v}"]] += 1
        coeffs[index[w]] += 1
        coeffs[index[f"x{u}"]] -= 1
        eqs.append(Equation(tuple(coeffs), Fraction(0)))
    vals = [ValConstraint(p, name, ">=", 0) for name in names]
    for w in wnames:
        vals.append(ValConstraint(p, w, "<=", e - 1))
        vals.append(ValConstraint(p, w, ">=", 0))
    return Instance(variables, tuple(eqs), tuple(vals))


def brute_color(g: Graph, k: int) -> bool:
    """Backtracking k-colorability for small graphs (|V| <= 10)."""
    if g.n > 10:
        raise InputError("brute_color is for graphs with at most 10 vertices")
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = [-1] * g.n

    def place(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(k):
            if all(colors[w] != c for w in adj[v]):
                colors[v] = c
                if place(v + 1):
                    return True
                colors[v] = -1
        return False

    return place(0)


# ---------------------------------------------------------------------------
# seeded random generators


def random_geq_problem(
    seed: int,
    max_dim: int = 6,
    coeff_mag: int = 50,
    bound_mag: int = 4,
    primes: tuple[int, ...] = (2, 3, 5, 97),
    allow_exact: bool = False,
    allow_unbounded: bool = False,
    density: float = 0.85,
) -> GeqProblem:
    rng = random.Random(seed)
    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    p = rng.choice(primes)
    A = [
        [
            Fraction(rng.randint(-coeff_mag, coeff_mag)) if rng.random() < density else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    b = [Fraction(rng.randint(-coeff_mag, coeff_mag)) for _ in range(m)]
    floors = []
    exact = []
    for _ in range(n):
        if allow_unbounded and rng.random() < 0.2:
            floors.append(NEG_INF)
            exact.append(False)
        else:
            floors.append(rng.randint(-bound_mag, bound_mag))
            exact.append(allow_exact and p == 2 and rng.random() < 0.4)
    return GeqProblem.of(A, b, p, tuple(floors), tuple(exact))


def random_leq_problem(
    seed: int,
    max_dim: int = 6,
    coeff_mag: int = 50,
    bound_mag: int = 4,
    primes: tuple[int, ...] = (2, 3, 5, 97),
    density: float = 0.85,
) -> LeqProblem:
    rng = random.Random(seed)
    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    p = rng.choice(primes)
    A = [
        [
            Fraction(rng.randint(-coeff_mag, coeff_mag)) if rng.random() < density else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    b = [Fraction(rng.randint(-coeff_mag, coeff_mag)) for _ in range(m)]
    caps = []
    excluded = []
    for _ in range(n):
        caps.append(INF if rng.random() < 0.3 else rng.randint(-bound_mag, bound_mag))
        excluded.append(
            frozenset(
                rng.randint(-bound_mag - 2, bound_mag + 2)
                for _ in range(rng.randint(0, 3))
            )
        )
    return LeqProblem.of(A, b, p, tuple(caps), tuple(excluded))


def random_instance(
    seed: int,
    fragment: str = "mixed",
    num_vars: int = 4,
    num_eqs: int = 2,
    coeff_mag: int = 9,
    bound_mag: int = 3,
    primes: tuple[int, ...] = (2, 3),
    num_orders: int = 0,
    cover_all_vars: bool = False,
) -> Instance:
    """Deterministic instance generator.

    fragment selects which valuation relations may appear: "geq" (>=, plus ==
    at p = 2), "leq" (<=, !=), "eq" (==), "mixed" (everything).  With
    cover_all_vars every variable is given a nonzero coefficient in at least
    one equation, which pins all witness coordinates.
    """
    rng = random.Random(seed)
    names = tuple(f"x{i}" for i in range(num_vars))
    eqs = []
    for _ in range(num_eqs):
        coeffs = [Fraction(rng.randint(-coeff_mag, coeff_mag)) for _ in range(num_vars)]
        eqs.append(
            Equation(tuple(coeffs), Fraction(rng.randint(-coeff_mag, coeff_mag)))
        )
    if cover_all_vars and num_eqs:
        for j in range(num_vars):
            if all(eq.coeffs[j] == 0 for eq in eqs):
                i = rng.randrange(num_eqs)
                coeffs = list(eqs[i].coeffs)
                coeffs[j] = Fraction(rng.choice([c for c in range(-coeff_mag, coeff_mag + 1) if c]))
                eqs[i] = Equation(tuple(coeffs), eqs[i].rhs)
    rels_by_fragment = {
        "geq": (">=",),
        "leq": ("<=", "!="),
        "eq": ("==",),
        "mixed": (">=", "<=", "==", "!="),
    }
    try:
        rels = rels_by_fragment[fragment]
    except KeyError:
        raise InputError(f"unknown fragment {fragment!r}") from None
    vals = []
    for name in names:
        for p in primes:
            for _ in range(rng.randint(0, 2)):
                choices = rels
                if fragment == "geq" and p == 2:
                    choices = (">=", "==")
                vals.append(
                    ValConstraint(
                        p, name, rng.choice(choices), rng.randint(-bound_mag, bound_mag)
                    )
                )
    orders = []
    for _ in range(num_orders):
        coeffs = [Fraction(rng.randint(-coeff_mag, coeff_mag)) for _ in range(num_vars)]
        orders.append(
            OrderConstraint(
                tuple(coeffs),
                rng.choice(("<", "<=")),
                Fraction(rng.randint(-coeff_mag, coeff_mag)),
            )
        )
    return Instance(names, tuple(eqs), tuple(vals), tuple(orders))
