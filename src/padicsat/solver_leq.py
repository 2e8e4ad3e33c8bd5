"""Polynomial-time solver for equations plus valuation upper bounds.

Decides systems A x = b where every coordinate carries an allowed valuation
set of the form (-inf, cap] minus finitely many excluded integers (cap = +inf
means only the exclusions bite, and the value 0 is allowed).  The key fact:
once the affine solution space is nonempty and no frozen coordinate violates
its allowed set, the system is satisfiable, and a witness can be written down
as a short power sum by spreading the kernel basis across disjoint valuation
bands so no cancellation can push a coordinate's valuation up to its cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .linalg import frozen_coordinates, matrix, solve_affine, vector
from .model import Status, VarProfile, Verdict
from .rational import INF, NEG_INF, ExtInt, PowerSum, check_prime, is_finite, valuation


@dataclass(frozen=True)
class LeqProblem:
    """A x = b over Q with v_p(x_j) <= caps[j] and v_p(x_j) not in excluded[j].

    caps[j] is an int or +inf; +inf additionally permits x_j = 0.  Excluded
    sets are finite sets of integers.
    """

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    prime: int
    caps: tuple[ExtInt, ...]
    excluded: tuple[frozenset[int], ...]

    def __post_init__(self):
        check_prime(self.prime)
        n = len(self.caps)
        if len(self.excluded) != n:
            raise InputError("caps and excluded must have equal length")
        for row in self.A:
            if len(row) != n:
                raise InputError("matrix width does not match cap count")
        if len(self.b) != len(self.A):
            raise InputError("rhs length does not match row count")
        for cap in self.caps:
            if cap != INF and not isinstance(cap, int):
                raise InputError(f"cap must be an int or +inf, got {cap!r}")

    @classmethod
    def of(cls, A, b, prime, caps, excluded) -> "LeqProblem":
        return cls(
            tuple(tuple(row) for row in matrix(A)),
            tuple(vector(b)),
            prime,
            tuple(caps),
            tuple(frozenset(d) for d in excluded),
        )


def _first_forbidden(cap: ExtInt, excl: frozenset[int]) -> ExtInt:
    """Smallest integer outside the allowed set; +inf when every int is allowed."""
    prof = VarProfile(NEG_INF, cap, excl)
    return min(prof.excluded, default=prof.upper + 1)


def solve_leq(prob: LeqProblem) -> Verdict:
    """Decide an upper-bound system and produce a power-sum witness.

    Unsat exactly when the equations are inconsistent or some coordinate that
    is frozen by them (zero in every kernel vector) has a valuation outside
    its allowed set.  Otherwise the witness is

        x = y0 + sum_k p**(-2 k e) y_k

    over the kernel basis y_1..y_d, with e chosen so large that the terms
    occupy pairwise disjoint valuation bands: each coordinate's valuation is
    then decided by its last contributing kernel vector and lands strictly
    below every forbidden integer.
    """
    p = prob.prime
    n = len(prob.caps)
    space = solve_affine(prob.A, prob.b, n)
    if space is None:
        return Verdict.unsat("no-solution", "the linear system is inconsistent")
    y0 = space.particular
    kernel = space.basis
    for j in frozen_coordinates(space):
        v = valuation(y0[j], p)
        if not VarProfile(NEG_INF, prob.caps[j], prob.excluded[j]).admits(v):
            return Verdict.unsat(
                "fixed-out-of-range",
                f"coordinate {j} is fixed with valuation {v}, outside its allowed set",
                coordinate=j,
                valuation=v,
            )
    columns = [[y0[j]] + [vec[j] for vec in kernel] for j in range(n)]
    thresholds = [_first_forbidden(prob.caps[j], prob.excluded[j]) for j in range(n)]
    entry_vals = [
        abs(valuation(c, p))
        for col in columns
        for c in col
        if c != 0
    ]
    depth = max(entry_vals, default=0)
    drop = max([0] + [-t for t in thresholds if is_finite(t)])
    e = depth + drop + 1
    witness = []
    for j in range(n):
        terms = [(columns[j][k], -2 * k * e) for k in range(len(columns[j]))]
        witness.append(PowerSum(p, tuple(terms)))
    return Verdict(
        Status.SAT,
        witness=witness,
        diagnostics={"step": e, "thresholds": thresholds, "dimension": len(kernel)},
    )
