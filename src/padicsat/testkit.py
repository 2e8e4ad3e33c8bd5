"""Test-support tools: the audit algebra, a coloring encoder, an independent
divisibility oracle, an independent order decider, and seeded instance
generators.

No solver imports this module.  It reads GeqProblem and LeqProblem only as
data: the oracle decides lower-bound systems through the Smith normal form
rather than any echelon computation, so the two routes can cross-check each
other.  The audit algebra is what the tests use to check the solvers'
linear algebra on Fractions: matrix products, permutation matrices, the
determinant, the Fraction views of an echelon result, and the Smith form.
The evidence checkers live in certify.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# verify_witness is bound here as well: perfbench's tracer looks the witness
# check up by the module path testkit.verify_witness, its span label
from .certify import verify_witness
from .errors import InputError, OverflowGuardError
from .linalg import EchelonResult, Matrix, Vector, dims
from .model import Equation, Instance, OrderConstraint, ValConstraint, Verdict
from .rational import (
    DEFAULT_EXPONENT_GUARD,
    INF,
    NEG_INF,
    check_prime,
    int_valuation,
    is_finite,
)
from .solver_geq import GeqProblem
from .solver_leq import LeqProblem


# ---------------------------------------------------------------------------
# audit algebra on Fractions


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A B; an A without rows has no width to check, and A B is []."""
    m, k = dims(A)
    k2, n = dims(B)
    if m and k != k2:
        raise InputError(f"shape mismatch {m}x{k} * {k2}x{n}")
    out = zeros(m, n)
    for i in range(m):
        Ai = A[i]
        for j in range(n):
            out[i][j] = sum((Ai[t] * B[t][j] for t in range(k)), Fraction(0))
    return out


def mat_vec(A: Matrix, x: Vector) -> Vector:
    """A x; an A without rows has no width to check, and A x is []."""
    m, n = dims(A)
    if m and len(x) != n:
        raise InputError("shape mismatch in mat_vec")
    return [sum((A[i][j] * x[j] for j in range(n)), Fraction(0)) for i in range(m)]


def permutation_matrix(sigma: tuple[int, ...]) -> Matrix:
    """P with P[i][j] = 1 iff j == sigma[i] (so P acts on columns from the right)."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise InputError(f"not a permutation of 0..{n - 1}: {sigma}")
    P = zeros(n, n)
    for i, j in enumerate(sigma):
        P[i][j] = Fraction(1)
    return P


def determinant(A: Matrix) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    m, n = dims(A)
    if m != n:
        raise InputError("determinant of non-square matrix")
    work = [row[:] for row in A]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        top = work[col]
        pivot = top[col]
        det *= pivot
        for i in range(col + 1, n):
            if work[i][col] != 0:
                factor = work[i][col] / pivot
                work[i] = [a - factor * t for a, t in zip(work[i], top)]
    return det


def echelon_matrix(result: EchelonResult) -> Matrix:
    """The echelon block B of a result, as Fractions."""
    return [
        [Fraction(x, d) for x in r[: result.width]]
        for r, d in zip(result.rows, result.dens)
    ]


def carried_matrix(result: EchelonResult) -> Matrix:
    """The carried block U @ rhs of a result, as Fractions."""
    return [
        [Fraction(x, d) for x in r[result.width :]]
        for r, d in zip(result.rows, result.dens)
    ]


def smith_normal_form(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with D = U @ A @ V diagonal, U and V unimodular,
    diagonal entries nonnegative and each dividing the next.

    Classic elementary-operation algorithm: pull the smallest nonzero entry of
    the working submatrix to the corner, clear its row and column with
    Euclidean steps (swapping back whenever a remainder survives, which
    strictly shrinks the corner), and when the corner divides everything left,
    move on.  A row-add step repairs the divisibility chain when some interior
    entry is not a multiple of the corner.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    for row in A:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError("smith_normal_form expects integer entries")
    D = [list(row) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    for t in range(min(m, n)):
        entries = [
            (abs(D[i][j]), i, j)
            for i in range(t, m)
            for j in range(t, n)
            if D[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            # clear column t below the corner
            restart = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    add_row(i, t, -q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
                        restart = True
            if restart:
                continue
            # clear row t right of the corner
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    add_col(j, t, -q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
                        restart = True
            if restart:
                continue
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if D[i][j] % D[t][t] != 0
                ),
                None,
            )
            if offender is None:
                break
            add_row(t, offender[0], 1)
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
    return U, D, V


# ---------------------------------------------------------------------------
# matrix-level problems as instances (for uniform verification)


def instance_of_geq_problem(prob: GeqProblem) -> Instance:
    """The problem as an instance over x0..xn; a +inf floor is the equation
    x_j = 0."""
    n = len(prob.floors)
    names = tuple(f"x{j}" for j in range(n))
    eqs = [Equation(row, rhs) for row, rhs in zip(prob.A, prob.b)]
    vals = []
    for j in range(n):
        f = prob.floors[j]
        if f == INF:
            eqs.append(Equation(tuple(Fraction(int(k == j)) for k in range(n)), Fraction(0)))
        if not is_finite(f):
            continue
        rel = "==" if prob.exact[j] else ">="
        vals.append(ValConstraint(prob.prime, names[j], rel, f))
    return Instance(names, tuple(eqs), tuple(vals))


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
    rank.  Unconstrained columns (floor -inf) are eliminated rationally
    first, and a column with floor +inf (x_j = 0) is deleted.  Decision only;
    shares nothing with the echelon route.
    """
    if any(prob.exact):
        raise InputError("oracle handles plain lower bounds only (no exact flags)")
    p = prob.prime
    rows = [list(r) + [rhs] for r, rhs in zip(prob.A, prob.b)]
    floors = list(prob.floors)
    keep = list(range(len(floors)))
    # rational elimination of unconstrained columns, deletion of zero ones
    for j in sorted(range(len(floors)), reverse=True):
        if is_finite(floors[j]):
            continue
        col = keep.index(j)
        src = next((i for i in range(len(rows)) if rows[i][col] != 0), None)
        if src is not None and floors[j] == NEG_INF:
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
# an independent order decider


def fourier_motzkin_feasible(equalities, weak, strict) -> bool:
    """Whether a x = b, c x <= d and e x < f have a rational solution.

    Each block is a list of (coeffs, rhs) rows, as strictify takes them.
    Fourier-Motzkin elimination with strictness, exact and without the LP:
    an equality is two weak rows, each row (coeffs | rhs) is kept as
    primitive integers, and eliminating x_j adds every pair of rows with
    opposite signs at j, each scaled by the other's |entry| so that x_j
    cancels, strict when either row is.  Once no variable is left each row
    reads 0 <= rhs or 0 < rhs.  The row count can square with each
    variable, so this is for systems of up to about three variables.
    """

    def add(rows: set, row: tuple[int, ...], is_strict: bool) -> bool:
        # False when a row without variables fails
        if not any(row[:-1]):
            return row[-1] > 0 if is_strict else row[-1] >= 0
        g = math.gcd(*row)
        rows.add((tuple([c // g for c in row]), is_strict))
        return True

    def integers(coeffs, rhs, sign: int) -> tuple[int, ...]:
        row = [Fraction(c) * sign for c in (*coeffs, rhs)]
        den = math.lcm(*[c.denominator for c in row])
        return tuple([c.numerator * (den // c.denominator) for c in row])

    blocks = [
        *[(integers(r, q, 1), False) for r, q in (*equalities, *weak)],
        *[(integers(r, q, -1), False) for r, q in equalities],
        *[(integers(r, q, 1), True) for r, q in strict],
    ]
    rows: set[tuple[tuple, bool]] = set()
    for row, is_strict in blocks:
        if not add(rows, row, is_strict):
            return False
    n = len(blocks[0][0]) - 1 if blocks else 0
    for j in range(n):
        upper = [row for row in rows if row[0][j] > 0]
        lower = [row for row in rows if row[0][j] < 0]
        rows = {row for row in rows if row[0][j] == 0}
        for cu, su in upper:
            for cl, sl in lower:
                a, b = cu[j], -cl[j]
                combined = tuple(b * x + a * y for x, y in zip(cu, cl))
                if not add(rows, combined, su or sl):
                    return False
    return True


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
    vals = [ValConstraint(p, name, ">=", 0) for name in names]
    for w in wnames:
        vals.append(ValConstraint(p, w, "<=", e - 1))
        vals.append(ValConstraint(p, w, ">=", 0))
    return Instance(variables, tuple(_edge_equations(g, variables)), tuple(vals))


def _edge_equations(g: Graph, variables: tuple[str, ...]) -> list[Equation]:
    """x_v + w = x_u for every edge (u, v), w named w_u_v."""
    index = {name: i for i, name in enumerate(variables)}
    eqs = []
    for u, v in g.edges:
        coeffs = [Fraction(0)] * len(variables)
        coeffs[index[f"x{v}"]] += 1
        coeffs[index[f"w_{u}_{v}"]] += 1
        coeffs[index[f"x{u}"]] -= 1
        eqs.append(Equation(tuple(coeffs), Fraction(0)))
    return eqs


def encode_three_coloring_eq(g: Graph) -> Instance:
    """Instance satisfiable iff g is 3-colorable, in the paper's NP-hard
    fragment: equations plus v_3(.) == c and nothing else.

    Vertex v gets x_v = a_v + b_v with v_3(a_v) = v_3(b_v) = 0: a sum of two
    3-adic units takes every residue mod 3, and x_v's residue is v's color.
    Every edge gets x_v + w = x_u with v_3(w) = 0, so its endpoints' colors
    differ.
    """
    wnames = [f"w_{u}_{v}" for u, v in g.edges]
    units = [f"{c}{v}" for v in range(g.n) for c in "ab"]
    variables = tuple([f"x{v}" for v in range(g.n)] + units + wnames)
    index = {name: i for i, name in enumerate(variables)}
    eqs = _edge_equations(g, variables)
    for v in range(g.n):
        coeffs = [Fraction(0)] * len(variables)
        coeffs[index[f"x{v}"]] = Fraction(1)
        coeffs[index[f"a{v}"]] = coeffs[index[f"b{v}"]] = Fraction(-1)
        eqs.append(Equation(tuple(coeffs), Fraction(0)))
    vals = tuple(ValConstraint(3, name, "==", 0) for name in units + wnames)
    return Instance(variables, tuple(eqs), vals)


def encode_two_coloring_geq(g: Graph) -> Instance:
    """Instance satisfiable iff g is 2-colorable, in a fragment that is in P:
    2-integral vertex variables x_v and x_v + w = x_u with v_2(w) == 0 on
    every edge, so its endpoints differ mod 2.  It classifies as 2:GEQ.
    """
    wnames = [f"w_{u}_{v}" for u, v in g.edges]
    names = [f"x{v}" for v in range(g.n)]
    variables = tuple(names + wnames)
    vals = [ValConstraint(2, name, ">=", 0) for name in names]
    vals += [ValConstraint(2, w, "==", 0) for w in wnames]
    return Instance(variables, tuple(_edge_equations(g, variables)), tuple(vals))


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
