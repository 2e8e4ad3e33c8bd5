"""Fragment dispatch for single-prime instances without order constraints.

Routes a normalized instance to the matching decision procedure: pure lower
bounds go to the echelon solver, pure upper bounds and exclusions to the
kernel-spreading solver, mixed instances to the branch-and-decide solver, and
valuation-free instances to plain linear algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .linalg import solve_affine
from .model import (
    Fragment,
    ImmediateUnsat,
    Instance,
    NormalizedInstance,
    Status,
    Verdict,
    classify_kinds,
    normalize,
)
from .rational import is_finite
from .solver_geq import GeqProblem, solve_geq
from .solver_leq import LeqProblem, solve_leq


def geq_problem_of(norm: NormalizedInstance, p: int) -> GeqProblem:
    profs = [norm.profile(p, v) for v in norm.variables]
    return GeqProblem.of(
        [list(eq.coeffs) for eq in norm.equations],
        [eq.rhs for eq in norm.equations],
        p,
        tuple(prof.lower for prof in profs),
        tuple(prof.exact for prof in profs),
    )


def leq_problem_of(norm: NormalizedInstance, p: int) -> LeqProblem:
    profs = [norm.profile(p, v) for v in norm.variables]
    return LeqProblem.of(
        [list(eq.coeffs) for eq in norm.equations],
        [eq.rhs for eq in norm.equations],
        p,
        tuple(prof.upper for prof in profs),
        tuple(prof.excluded for prof in profs),
    )


def _named(norm: NormalizedInstance, verdict: Verdict) -> Verdict:
    if verdict.is_sat and verdict.witness is not None:
        verdict.witness = dict(zip(norm.variables, verdict.witness))
    return verdict


def solve_single_prime(
    norm: NormalizedInstance,
    p: int | None,
    window: int | None = None,
) -> Verdict:
    """Decide norm at its one prime p, or by linear algebra when p is None."""
    if norm.orders:
        raise InputError("order constraints must go through the combiner")
    norm.require_prime(p)
    if p is None:
        # no valuation constraints at all: plain linear algebra
        space = solve_affine(
            [list(eq.coeffs) for eq in norm.equations],
            [eq.rhs for eq in norm.equations],
        )
        if space is None:
            return Verdict.unsat("no-solution", "the linear system is inconsistent")
        witness = dict(zip(norm.variables, space.particular))
        v = Verdict.sat(witness=witness)
        v.diagnostics["fragment"] = Fragment.NONE.value
        return v
    frag = classify_kinds(p, norm.kinds.get(p, frozenset()))
    if frag is Fragment.GEQ:
        verdict = _named(norm, solve_geq(geq_problem_of(norm, p)))
    elif frag is Fragment.LEQ:
        verdict = _named(norm, solve_leq(leq_problem_of(norm, p)))
    elif frag is Fragment.HARD:
        from .complete import solve_complete

        verdict = solve_complete(norm, p, window=window)
    else:
        return solve_single_prime(norm, None, window)
    verdict.diagnostics["fragment"] = frag.value
    return verdict


def solve_instance(
    inst: Instance,
    window: int | None = None,
) -> Verdict:
    """Decide a single-prime instance (no order constraints).

    Multi-prime instances and order constraints are rejected here; the
    combiner is the entry point for those.
    """
    if inst.orders:
        raise InputError("order constraints must go through the combiner")
    res = normalize(inst)
    if isinstance(res, ImmediateUnsat):
        return res.verdict()
    primes = res.primes
    if len(primes) > 1:
        raise InputError("multi-prime instances must go through the combiner")
    return solve_single_prime(res, primes[0] if primes else None, window)
