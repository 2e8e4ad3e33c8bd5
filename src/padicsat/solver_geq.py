"""Polynomial-time solver for equations plus valuation lower bounds.

Decides systems A x = b with v_p(x_j) >= floors[j], where floors[j] = -inf
leaves x_j unconstrained; at p = 2 a coordinate may instead be pinned to its
floor exactly (v_2(x_j) = floors[j]) via the exact flag.

The method: bring A to row echelon form choosing pivots of minimal cost
v_p(a) + floors[j] + exact[j]/2 (column swaps allowed).  In that frame the
system is satisfiable iff the zero rows of the echelon form have zero right-
hand sides and each pivot row passes a single valuation comparison; a witness
follows by assigning p**floor to every non-pivot column and back-substituting
in power-sum arithmetic.

With witness=False the solver stops after the two checks: the witness-free
relaxation test of the branch-and-decide search needs only the status, so it
skips the back-substitution.  Unsat answers are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    INF,
    NEG_INF,
    ExtInt,
    PowerSum,
    check_prime,
    is_finite,
    valuation,
)


@dataclass(frozen=True)
class GeqProblem:
    """A x = b over Q with v_p(x_j) >= floors[j] (= floors[j] when exact[j]).

    floors[j] is an int or -inf.  exact[j] requires prime == 2 and a finite
    floor; it strengthens the bound to equality, which at p = 2 costs nothing
    (the pivot rule absorbs it as a half step).
    """

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    prime: int
    floors: tuple[ExtInt, ...]
    exact: tuple[bool, ...] = ()

    def __post_init__(self):
        check_prime(self.prime)
        n = len(self.floors)
        if not self.exact:
            object.__setattr__(self, "exact", (False,) * n)
        if len(self.exact) != n:
            raise InputError("floors and exact must have equal length")
        for row in self.A:
            if len(row) != n:
                raise InputError("matrix width does not match floor count")
        if len(self.b) != len(self.A):
            raise InputError("rhs length does not match row count")
        for j, f in enumerate(self.floors):
            if f != NEG_INF and not isinstance(f, int):
                raise InputError(f"floor must be an int or -inf, got {f!r}")
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
        return PivotCosts(
            self.prime, self.floors, tuple(int(x) for x in self.exact)
        )


def solve_geq(prob: GeqProblem, *, witness: bool = True) -> Verdict:
    """Decide prob; a sat answer carries a PowerSum witness unless witness=False."""
    p = prob.prime
    n = len(prob.floors)
    m = len(prob.A)
    result: EchelonResult = pivot_minimal_echelon(
        prob.A, prob.costs(), [[x] for x in prob.b]
    )
    B = result.echelon
    b2 = [row[0] for row in result.carried]
    col_of = inverse_permutation(result.sigma)  # position -> original column
    floors2 = [prob.floors[col_of[j]] for j in range(n)]
    exact2 = [prob.exact[col_of[j]] for j in range(n)]
    k = result.rank
    for i in range(k, m):
        if b2[i] != 0:
            return Verdict.unsat(
                "rank-deficient-rhs",
                f"echelon row {i} is zero but its right-hand side is {b2[i]}",
                row=i,
            )
    for i, piv in enumerate(result.pivots):
        if floors2[piv] == NEG_INF:
            continue  # pivot cost -inf: the comparison holds vacuously
        lhs = valuation(B[i][piv], p) + floors2[piv] + int(exact2[piv])
        terms = [(b2[i], 0)]
        for j in range(piv, n):
            if exact2[j] and B[i][j] != 0:
                terms.append((-B[i][j], floors2[j]))
        rhs_val = PowerSum(p, tuple(terms)).valuation()
        if not lhs <= rhs_val:
            return Verdict.unsat(
                "pivot-bound",
                f"pivot row {i} needs valuation >= {lhs} on the right-hand side, got {rhs_val}",
                row=i,
                required=lhs,
                actual=rhs_val,
            )
    diagnostics = {"rank": k, "sigma": result.sigma}
    if not witness:
        return Verdict(Status.SAT, diagnostics=diagnostics)
    # witness: free columns get p**floor, pivots are back-substituted
    w: list[PowerSum | None] = [None] * n
    pivot_cols = set(result.pivots)
    for j in range(n):
        if j in pivot_cols:
            continue
        if is_finite(floors2[j]):
            w[j] = PowerSum(p, ((Fraction(1), floors2[j]),))
        else:
            w[j] = PowerSum.zero(p)
    for i in range(k - 1, -1, -1):
        piv = result.pivots[i]
        terms = [(b2[i], 0)]  # one PowerSum of all the terms, normalized once
        for j in range(piv + 1, n):
            if B[i][j] != 0:
                terms += [(-c * B[i][j], e) for c, e in w[j].terms]
        w[piv] = PowerSum(p, tuple(terms)).scale(1 / B[i][piv])
    values = [None] * n
    for j in range(n):
        values[col_of[j]] = w[j]
    return Verdict(Status.SAT, witness=values, diagnostics=diagnostics)
