"""Polynomial-time solver for equations plus valuation upper bounds.

Decides systems A x = b where every coordinate carries an allowed valuation
set of the form (-inf, cap] minus finitely many excluded integers (cap = +inf
means only the exclusions bite, and the value 0 is allowed).  The key fact:
once the affine solution space is nonempty and no frozen coordinate violates
its allowed set, the system is satisfiable.  A witness is the particular
solution plus one kernel direction z, nonzero on every coordinate that is not
frozen, scaled by p**-E: with E large, each such coordinate's valuation is
v(z_j) - E, below its first forbidden valuation (the small-model argument of
Guepin, Haase and Worrell).  Each coordinate is a power sum of two terms, and
the whole solve runs on the integers of linalg.solve_affine: the frozen
coordinates are linalg.frozen_coordinates, and the particular solution and
the kernel direction are read off its rows of F over the minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .linalg import frozen_coordinates, matrix, solve_affine, vector
from .model import Status, VarProfile, Verdict
from .rational import INF, NEG_INF, ExtInt, PowerSum, check_prime, int_valuation, is_finite


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


def _direction(F: list[list[int]], d: int) -> tuple[list[int], list[int]]:
    """A kernel direction nonzero on every coordinate that is not frozen.

    z = sum_f c_f y_f over the kernel basis of solve_affine's F, whose d
    free columns come first: z_f = c_f, and z at pivot r is -S_r / minor with
    S_r = sum_f c_f F[r][f].  Each c_f is the least positive integer that
    zeroes no S_r that is already nonzero; a row rules out at most one value,
    so c_f <= rank + 1, and once S_r is nonzero it stays so.  Returns
    (c, S).
    """
    S = [0] * len(F)
    c = []
    for k in range(d):
        ruled_out = set()
        for s, F_r in zip(S, F):
            a = F_r[k]
            if s and a and s % a == 0:
                ruled_out.add(-s // a)
        c_f = next(i for i in range(1, len(ruled_out) + 2) if i not in ruled_out)
        S = [s + c_f * F_r[k] for s, F_r in zip(S, F)]
        c.append(c_f)
    return c, S


def solve_leq(prob: LeqProblem) -> Verdict:
    """Decide an upper-bound system and produce a power-sum witness.

    Unsat exactly when the equations are inconsistent or some coordinate that
    is frozen by them (zero in every kernel vector) has a valuation outside
    its allowed set; they are checked in ascending order.  Otherwise the
    witness is

        x = y0 + p**(-E) z

    with y0 the particular solution and z a kernel direction nonzero on
    every coordinate that is not frozen (_direction).  E, the diagnostics'
    step, is the least integer >= 0 with v(z_j) - E < min(v(y0_j), t_j) on
    each such coordinate, t_j its first forbidden valuation: then
    v(x_j) = v(z_j) - E < t_j.  The only Fractions built are the witness's.
    """
    p = prob.prime
    n = len(prob.caps)
    solution = solve_affine(prob.A, prob.b, n)
    if solution is None:
        return Verdict.unsat("no-solution", "the linear system is inconsistent")
    pivots, free, F, minor = solution
    v_minor = int_valuation(minor, p)
    for c, num in frozen_coordinates(pivots, F):
        v = int_valuation(num, p) - v_minor
        if not VarProfile(NEG_INF, prob.caps[c], prob.excluded[c]).admits(v):
            return Verdict.unsat(
                "fixed-out-of-range",
                f"coordinate {c} is fixed with valuation {v}, outside its allowed set",
                coordinate=c,
                valuation=v,
            )
    thresholds = [_first_forbidden(prob.caps[j], prob.excluded[j]) for j in range(n)]
    coeffs, S = _direction(F, len(free))
    # v(z_j) - min(v(y0_j), t_j) on each coordinate that is not frozen: on a
    # free one y0_j = 0 and z_j = c_f, on pivot r y0_j = F_r[-1] / minor and
    # z_j = -S_r / minor, S_r != 0
    gaps = [int_valuation(c_f, p) - thresholds[f]
            for f, c_f in zip(free, coeffs) if is_finite(thresholds[f])]
    for c, F_r, s in zip(pivots, F, S):
        if s:
            low = min(int_valuation(F_r[-1], p) - v_minor, thresholds[c])
            if is_finite(low):
                gaps.append(int_valuation(s, p) - v_minor - low)
    step = max([0] + [gap + 1 for gap in gaps])
    zero = Fraction(0)
    y0, z = [zero] * n, [zero] * n
    for f, c_f in zip(free, coeffs):
        z[f] = Fraction(c_f)
    for c, F_r, s in zip(pivots, F, S):
        y0[c], z[c] = Fraction(F_r[-1], minor), Fraction(-s, minor)
    witness = [PowerSum(p, ((y, 0), (zj, -step))) for y, zj in zip(y0, z)]
    return Verdict(
        Status.SAT,
        witness=witness,
        diagnostics={"step": step, "thresholds": thresholds, "dimension": len(free)},
    )
