"""Polynomial-time solver for equations plus valuation lower bounds.

Decides systems A x = b with v_p(x_j) >= floors[j], where floors[j] = -inf
leaves x_j unconstrained and floors[j] = +inf means x_j = 0 (v_p(0) = +inf);
at p = 2 a coordinate may instead be pinned to its floor exactly
(v_2(x_j) = floors[j]) via the exact flag.

The method: bring A to row echelon form choosing pivots of minimal cost
v_p(a) + floors[j] + exact[j]/2 (column swaps allowed).  In that frame the
system is satisfiable iff the zero rows of the echelon form have zero right-
hand sides and each pivot row passes a single valuation comparison; a witness
follows by assigning p**floor to every non-pivot column (0 under a +inf
floor) and back-substituting in power-sum arithmetic.  An entry in a +inf
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

geq_echelon runs the two checks and returns the echelon with the unsat
verdict, or with None when the problem is sat; geq_witness back-substitutes
a sat echelon's nonzero rows, with the floors by position, into a witness
by position, and solve_geq is the two in turn, the witness permuted back by
sigma.  The pivot-bound check of one row is pivot_shortfall.  The branch-
and-decide search runs pivot_shortfall on the rows it re-prices, and
geq_witness on a leaf's rows, which are already such an echelon; there a
digit variable x = d*p^v + r is priced with r's floor, each row's rhs
valuation has the terms a*d*p^v moved in, and a free x gets d*p^v.  With
witness=False a sat answer carries that echelon (diagnostics["echelon"])
in place of a witness; it serves only the search's root relaxation, whose
echelon the root adopts.  Unsat answers are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .linalg import (
    EchelonResult,
    PivotCosts,
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
    p: int, row: list[int], piv: int, floors: list[ExtInt], exact: list[int], rhs_val: ExtInt
) -> tuple[int, ExtInt] | None:
    """The pivot-bound check of an echelon row that pivots at position piv.

    row is (B | carried b) as integers, floors are by position and exact
    lists the positions whose exact flag is set, ascending; rhs_val is the
    right-hand side's valuation, read when no exact flag adds terms to it
    (the search's has its digit terms moved in).  Returns None when the row
    passes, else (needed, got): the valuation the pivot needs on the
    right-hand side, v_p(pivot) + floor + exact flag, and the one it has.
    A -inf floor at the pivot passes vacuously, and a +inf one needs a zero
    right-hand side.
    """
    floor = floors[piv]
    if floor == NEG_INF:
        return None
    n = len(floors)
    needed = int_valuation(row[piv], p) + floor + int(piv in exact)
    # exact flags add integer terms -a p^floor to the right-hand side
    terms = [(-row[j], 1, floors[j]) for j in exact if j >= piv and row[j]]
    got = merged_valuation(p, [(row[n], 1, 0), *terms]) if terms else rhs_val
    return None if needed <= got else (needed, got)


def geq_echelon(prob: GeqProblem) -> tuple[EchelonResult, Verdict | None]:
    """The cost-minimal echelon of (A | b) and the unsat verdict, None if sat."""
    p = prob.prime
    n = len(prob.floors)
    m = len(prob.A)
    result: EchelonResult = pivot_minimal_echelon(
        prob.A, prob.costs(), [[x] for x in prob.b]
    )
    rows, dens = result.rows, result.dens  # row i: (B | U b) times dens[i]
    col_of = inverse_permutation(result.sigma)  # position -> original column
    floors2 = [prob.floors[col_of[j]] for j in range(n)]
    exact_positions = [j for j in range(n) if prob.exact[col_of[j]]]
    for i in range(result.rank, m):
        if rows[i][n] != 0:
            rhs = Fraction(rows[i][n], dens[i])
            return result, Verdict.unsat(
                "rank-deficient-rhs",
                f"echelon row {i} is zero but its right-hand side is {rhs}",
                row=i,
            )
    for i, piv in enumerate(result.pivots):
        rhs_val = int_valuation(rows[i][n], p)
        shortfall = pivot_shortfall(p, rows[i], piv, floors2, exact_positions, rhs_val)
        if shortfall is not None:
            shift = int_valuation(dens[i], p)  # back to the Fraction row
            required, actual = shortfall[0] - shift, shortfall[1] - shift
            return result, Verdict.unsat(
                "pivot-bound",
                f"pivot row {i} needs valuation >= {required} on the right-hand side, got {actual}",
                row=i,
                required=required,
                actual=actual,
            )
    return result, None


def geq_witness(
    p: int, rows: list[list[int]], floors: list[ExtInt], digits: dict | None = None
) -> list[PowerSum]:
    """A PowerSum witness of a sat echelon, by position.

    rows are the echelon's nonzero rows (B | carried b) as integers, row i
    pivoting at position i; floors are by position, and digits maps a digit
    variable's position to (d, v).  The free positions (from len(rows) on)
    get d*p^v when they are a digit variable's, else p**floor, 0 under an
    infinite floor, and the pivots are back-substituted; a row's common
    factor cancels from its equation, so any multiple of an echelon row
    serves.
    """
    n = len(floors)
    k = len(rows)
    w: list[PowerSum | None] = [None] * n
    for j in range(k, n):
        d, v = (digits or {}).get(j, (1, floors[j]))
        w[j] = PowerSum(p, ((Fraction(d), v),) if is_finite(v) else ())
    for i in range(k - 1, -1, -1):
        row = rows[i]
        w[i] = PowerSum.combination(
            p, [(1, row[n]), *((-row[j], w[j]) for j in range(i + 1, n) if row[j])]
        ).scale(Fraction(1, row[i]))
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
        prob.prime, result.rows[:result.rank], [prob.floors[c] for c in col_of]
    )
    witness = [w[j] for j in result.sigma]  # position sigma[c] holds column c
    return Verdict(Status.SAT, witness=witness, diagnostics=diagnostics)
