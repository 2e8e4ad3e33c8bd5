"""Polynomial-time solver for equations plus valuation lower bounds.

Decides systems A x = b with v_p(x_j) >= floors[j], where floors[j] = -inf
leaves x_j unconstrained and floors[j] = +inf means x_j = 0 (v_p(0) = +inf);
at p = 2 a coordinate may instead be pinned to its floor exactly
(v_2(x_j) = floors[j]) via the exact flag.

The method: bring A to row echelon form choosing pivots of minimal cost
v_p(a) + floors[j] + exact[j]/2 (column swaps allowed).  In that frame the
system is satisfiable iff the zero rows of the echelon form have zero right-
hand sides and each pivot row passes a single valuation comparison; a witness
follows by assigning p**floor to every non-pivot column (0 under an infinite
floor) and solving for the pivots.  Each pivot is then a power sum with one
term per distinct free exponent (and the rhs at exponent 0), and its
coefficients come from one integer back-substitution over the echelon's
rows (geq_witness).  An entry in a +inf
column costs +inf, so it pivots only in a row whose other entries are all
in such columns, and that row's comparison then needs a zero right-hand
side.

A and b may hold ints: the search's relaxation passes its integer rows as
they are, and the echelon takes an all-int row without building a Fraction.
Both checks run on the echelon's integer rows: row i is its Fraction row
times d_i, which shifts every valuation in the row by v_p(d_i) and keeps
each comparison; the shift comes back only in the reported required/actual.
At p = 2 an exact flag adds terms to a pivot row's right-hand side; their
valuation is rational.merged_valuation's integer merge, the one
PowerSum.valuation runs, with no PowerSum built.

The checks run in this order.  Each pivot row gets its pivot-bound check
(pivot_shortfall) as soon as the elimination fixes it, after its column
swap and before any row below reads it; no later step changes that row or
the check's outcome, so the first row that fails stops the elimination
there and refutes the system ("pivot-bound").  The elimination is
left-looking, so a row below the failing one has not been cleared, or even
scaled to integers, when it stops.  Only when every pivot row passes are
the zero rows checked ("rank-deficient-rhs").  So a system with
both defects is reported by its first failing pivot row, the row a
certificate u = row i of U would read.  geq_echelon returns the unsat
verdict with no echelon when a pivot row stopped it, and otherwise the
echelon with the zero rows' verdict, or with None when the problem is sat;
geq_witness solves a sat echelon's nonzero rows, with the floors by
position and the echelon's minor, into a witness by position, and solve_geq
is the two in turn, the witness permuted back by sigma.  The branch-
and-decide search runs pivot_shortfall on the rows it re-prices, and
geq_witness on a leaf's rows, which are already such an echelon but carry
no minor (the product of the |pivots| stands in); there a digit variable
x = d*p^v + r is costed with r's floor, each row's rhs valuation has the
terms a*d*p^v moved in, and a free x gets d*p^v.  With witness=False a
sat answer carries that echelon (diagnostics["echelon"]) in place of a
witness; it serves only the search's root relaxation, whose echelon the
root adopts.  Unsat answers are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .errors import InputError
from .linalg import (
    EchelonResult,
    PivotCosts,
    back_substitute,
    inverse_permutation,
    matrix,
    pivot_minimal_echelon,
    vector,
)
from .model import Status, Verdict
from .rational import (
    NEG_INF,
    ExtInt,
    PowerSum,
    int_valuation,
    is_finite,
    merged_valuation,
)


@dataclass(frozen=True)
class GeqProblem:
    """A x = b over Q with v_p(x_j) >= floors[j] (= floors[j] when exact[j]).

    floors[j] is an int, -inf (x_j unconstrained) or +inf (x_j = 0).
    exact[j] requires prime == 2 and a finite floor; it strengthens the bound
    to equality, which at p = 2 costs nothing (the pivot rule absorbs it as
    a half step).
    """

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    prime: int
    floors: tuple[ExtInt, ...]
    exact: tuple[bool, ...] = ()
    # the pivot costs; building them checks the prime and the floors
    _costs: PivotCosts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.floors)
        if not self.exact:
            object.__setattr__(self, "exact", (False,) * n)
        if len(self.exact) != n:
            raise InputError("floors and exact must have equal length")
        object.__setattr__(self, "_costs", PivotCosts(
            self.prime, self.floors, tuple(int(x) for x in self.exact)
        ))
        for row in self.A:
            if len(row) != n:
                raise InputError("matrix width does not match floor count")
        if len(self.b) != len(self.A):
            raise InputError("rhs length does not match row count")
        for j, f in enumerate(self.floors):
            if self.exact[j]:
                if self.prime != 2:
                    raise InputError("exact valuation flags require p = 2")
                if not is_finite(f):
                    raise InputError("exact valuation flags require a finite floor")

    @classmethod
    def of(cls, A, b, prime, floors, exact=None) -> "GeqProblem":
        n = len(tuple(floors))
        return cls(
            tuple(tuple(row) for row in matrix(A)),
            tuple(vector(b)),
            prime,
            tuple(floors),
            tuple(bool(x) for x in exact) if exact is not None else (False,) * n,
        )

    def costs(self) -> PivotCosts:
        return self._costs


def pivot_shortfall(
    p: int,
    row: list[int],
    piv: int,
    offset: ExtInt,
    flagged: list[tuple[int, ExtInt]],
    rhs_val: ExtInt | None = None,
) -> tuple[int, ExtInt] | None:
    """The pivot-bound check of an echelon row that pivots at position piv.

    row is (B | carried b) as integers, the right-hand side last; it must be
    zero left of piv, as every echelon row is, so a flagged position there
    adds no term.  offset is the pivot's floor plus its exact flag, and
    flagged holds (j, floor) for the positions j whose exact flag is set.
    rhs_val is the right-hand side's valuation, read when no exact flag adds
    terms to it (the search's has its digit terms moved in); None takes it
    off the row.  Returns None when the row passes, else (needed, got): the
    valuation the pivot needs on the right-hand side, v_p(pivot) + offset,
    and the one it has.  A -inf floor at the pivot passes vacuously, and a
    +inf one needs a zero right-hand side.
    """
    if offset == NEG_INF:
        return None
    needed = int_valuation(row[piv], p) + offset
    # exact flags add integer terms -a p^floor to the right-hand side
    terms = [(-row[j], 1, floor) for j, floor in flagged if row[j]]
    if terms:
        got = merged_valuation(p, [(row[-1], 1, 0), *terms])
    else:
        got = int_valuation(row[-1], p) if rhs_val is None else rhs_val
    return None if needed <= got else (needed, got)


def geq_echelon(prob: GeqProblem) -> tuple[EchelonResult | None, Verdict | None]:
    """The cost-minimal echelon of (A | b) and the unsat verdict, None if sat.

    Each pivot row is checked as soon as the elimination fixes it, and the
    first that fails stops the elimination: that verdict comes with no
    echelon.  The zero rows are checked once every pivot row has passed.
    """
    p = prob.prime
    n = len(prob.floors)
    floors, exact = prob.floors, prob.exact
    any_exact = any(exact)

    def check(row, den, r, col_of):  # floors and flags read through col_of
        c = col_of[r]
        flagged = []
        if any_exact:
            flagged = [(j, floors[col_of[j]]) for j in range(r, n) if exact[col_of[j]]]
        shortfall = pivot_shortfall(p, row, r, floors[c] + exact[c], flagged)
        if shortfall is None:
            return None
        shift = int_valuation(den, p)  # back to the Fraction row
        required, actual = shortfall[0] - shift, shortfall[1] - shift
        return Verdict.unsat(
            "pivot-bound",
            f"pivot row {r} needs valuation >= {required} on the right-hand side, got {actual}",
            row=r,
            required=required,
            actual=actual,
        )

    result = pivot_minimal_echelon(prob.A, prob.costs(), [[x] for x in prob.b], check)
    if isinstance(result, Verdict):
        return None, result
    rows, dens = result.rows, result.dens  # row i: (B | U b) times dens[i]
    for i in range(result.rank, len(rows)):
        if rows[i][n] != 0:
            rhs = Fraction(rows[i][n], dens[i])
            return result, Verdict.unsat(
                "rank-deficient-rhs",
                f"echelon row {i} is zero but its right-hand side is {rhs}",
                row=i,
            )
    return result, None


def geq_witness(
    p: int,
    rows: list[list[int]],
    floors: list[ExtInt],
    digits: dict | None = None,
    minor: int | None = None,
) -> list[PowerSum]:
    """A PowerSum witness of a sat echelon, by position.

    rows are the echelon's nonzero rows (B | carried b) as integers, row i
    pivoting at position i; floors are by position, and digits maps a digit
    variable's position to (d, v).  The free positions (from len(rows) on)
    get d*p^v when they are a digit variable's, else p**floor (d = 1), 0
    under an infinite floor.  The pivots' values are then linear in the
    powers p^v: the free columns are summed, d times each, into one integer
    column per exponent v, the rhs joins exponent 0 with d = -1, and one
    integer back-substitution (linalg.back_substitute) gives F_v, minor times
    the reduced echelon form at each, so pivot i is the sum of
    -F_v[i]/minor p^v.  minor is EchelonResult.minor when the rows are an
    echelon's; without it the product of the |pivots| serves, as the
    adjugate of an upper-triangular integer block is integral.  A row's
    common factor cancels, so any multiple of an echelon row serves.
    """
    n = len(floors)
    k = len(rows)
    w: list[PowerSum | None] = [None] * n
    groups: dict[int, list[tuple[int, int]]] = {0: [(n, -1)]}  # v -> [(j, d)]
    for j in range(k, n):
        d, v = (digits or {}).get(j, (1, floors[j]))
        if is_finite(v):
            groups.setdefault(v, []).append((j, d))
            w[j] = PowerSum(p, ((Fraction(d), v),))
        else:
            w[j] = PowerSum.zero(p)
    if not k:
        return w
    if minor is None:
        minor = prod(abs(row[i]) for i, row in enumerate(rows))
    exponents = sorted(groups)
    summed = [
        row[:k] + [sum(d * row[j] for j, d in groups[v]) for v in exponents] for row in rows
    ]
    F = back_substitute(summed, range(k), range(k, k + len(exponents)), minor)
    for i, F_i in enumerate(F):
        w[i] = PowerSum(p, tuple((Fraction(-x, minor), v) for x, v in zip(F_i, exponents) if x))
    return w


def solve_geq(prob: GeqProblem, *, witness: bool = True) -> Verdict:
    """Decide prob; a sat answer carries a PowerSum witness, or with
    witness=False the echelon."""
    result, unsat = geq_echelon(prob)
    if unsat is not None:
        return unsat
    diagnostics = {"rank": result.rank, "sigma": result.sigma}
    if not witness:
        return Verdict(Status.SAT, diagnostics={**diagnostics, "echelon": result})
    col_of = inverse_permutation(result.sigma)  # position -> original column
    w = geq_witness(
        prob.prime, result.rows[:result.rank], [prob.floors[c] for c in col_of],
        minor=result.minor,
    )
    witness = [w[j] for j in result.sigma]  # position sigma[c] holds column c
    return Verdict(Status.SAT, witness=witness, diagnostics=diagnostics)
