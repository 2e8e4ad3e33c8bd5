"""Combining rational order constraints with p-adic valuation constraints.

The order side is handled by exact linear programming.  strictify() first
decides the order system outright, then discovers which weak rows are
implicit equalities: a weak row that cannot be made strict alongside the
rest is forced to equality everywhere, so it is converted and the analysis
restarts.  Each restart consumes one weak row, so there are at most as many
restarts as weak rows.  What survives can be made simultaneously strict, and
averaging the per-row strict points produces one witness for all of them.

solve_combined() then runs the valuation side against the equality system
augmented with the converted rows.  Each prime is dispatched independently;
with several primes, or with both orders and valuations, the combined
satisfiable answer is decision-only (witness None) and the per-part evidence
sits in the diagnostics.  Purely rational instances get an exact witness,
re-checked by testkit.verify_witness before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dispatch import solve_single_prime
from .errors import InternalError
from .model import (
    Equation,
    ImmediateUnsat,
    Instance,
    NormalizedInstance,
    Status,
    Verdict,
    normalize,
)
from .simplex import LpFeasible, LpInfeasible, lp_feasible
from .testkit import verify_witness

Rows = list[tuple[tuple[Fraction, ...], Fraction]]


@dataclass
class StrictifyResult:
    feasible: bool
    # a point satisfying every equality, every strict row strictly, and every
    # surviving weak row strictly; None when infeasible
    witness: tuple[Fraction, ...] | None
    # weak rows found to be implicit equalities, as (original index, row)
    converted: list[tuple[int, tuple[tuple[Fraction, ...], Fraction]]]
    certificate: LpInfeasible | None = None
    restarts: int = 0


def strictify(equalities: Rows, weak: Rows, strict: Rows) -> StrictifyResult:
    """Decide the order system and expose its implicit equalities."""
    eq_rows = [list(r) for r, _ in equalities]
    eq_rhs = [v for _, v in equalities]
    remaining = list(enumerate(weak))
    converted: list[tuple[int, tuple[tuple[Fraction, ...], Fraction]]] = []
    restarts = 0
    while True:
        weak_rows = [list(r) for _, (r, _) in remaining]
        weak_rhs = [v for _, (_, v) in remaining]
        strict_rows = [list(r) for r, _ in strict]
        strict_rhs = [v for _, v in strict]
        base = lp_feasible(
            eq_rows, eq_rhs, weak_rows, weak_rhs, strict_rows, strict_rhs
        )
        if isinstance(base, LpInfeasible):
            return StrictifyResult(
                False, None, converted, certificate=base, restarts=restarts
            )
        points = []
        converted_now = False
        for pos, (idx, (row, rhs)) in enumerate(remaining):
            others_rows = [
                list(r) for k, (_, (r, _)) in enumerate(remaining) if k != pos
            ]
            others_rhs = [
                v for k, (_, (_, v)) in enumerate(remaining) if k != pos
            ]
            probe = lp_feasible(
                eq_rows,
                eq_rhs,
                others_rows,
                others_rhs,
                strict_rows + [list(row)],
                strict_rhs + [rhs],
            )
            if isinstance(probe, LpInfeasible):
                # the row can never be strict: it holds with equality on the
                # whole solution set, so convert and start over
                converted.append((idx, (row, rhs)))
                eq_rows.append(list(row))
                eq_rhs.append(rhs)
                remaining = [r for k, r in enumerate(remaining) if k != pos]
                converted_now = True
                restarts += 1
                break
            points.append(probe.x)
        if converted_now:
            continue
        if not points:
            witness = base.x
        else:
            k = len(points)
            witness = tuple(
                sum((pt[j] for pt in points), Fraction(0)) / k
                for j in range(len(points[0]))
            )
        return StrictifyResult(True, witness, converted, restarts=restarts)


def _order_blocks(inst: Instance):
    weak: Rows = []
    strict: Rows = []
    for oc in inst.orders:
        if oc.rel == "<=":
            weak.append((oc.coeffs, oc.rhs))
        else:
            strict.append((oc.coeffs, oc.rhs))
    return weak, strict


def solve_combined(
    inst: Instance,
    window: int | None = None,
) -> Verdict:
    """Full decision procedure: equations, valuations, and order constraints.

    Single-prime instances without orders keep their exact witnesses.  When
    several primes or order constraints are combined the procedure decides
    satisfiability part by part over a shared equality system; the verdict is
    then decision-only and diagnostics carry the per-part evidence.
    """
    norm = normalize(inst)
    if isinstance(norm, ImmediateUnsat):
        return norm.verdict()
    primes = norm.primes
    if not inst.orders and len(primes) <= 1:
        return solve_single_prime(norm, primes[0] if primes else None, window)

    diagnostics: dict = {"parts": {}}
    equalities: Rows = [(eq.coeffs, eq.rhs) for eq in inst.equations]
    augmented = list(inst.equations)
    order_witness = None
    if inst.orders:
        weak, strict = _order_blocks(inst)
        result = strictify(equalities, weak, strict)
        diagnostics["order-restarts"] = result.restarts
        diagnostics["implicit-equalities"] = [idx for idx, _ in result.converted]
        if not result.feasible:
            cert = result.certificate
            diagnostics["certificate"] = {
                "lam": cert.lam,
                "mu": cert.mu,
                "nu": cert.nu,
                "value": cert.value,
            }
            return Verdict.unsat(
                "orders-infeasible",
                "the order constraints are infeasible over the rationals",
                **diagnostics,
            )
        order_witness = result.witness
        diagnostics["parts"]["orders"] = Status.SAT.value
        for _, (row, rhs) in result.converted:
            augmented.append(Equation(row, rhs))

    # the valuation side runs against the augmented equality system
    sub = Instance(
        variables=inst.variables,
        equations=tuple(augmented),
        valuations=inst.valuations,
        orders=(),
    )
    sub_norm = normalize(sub)
    if isinstance(sub_norm, ImmediateUnsat):
        return sub_norm.verdict()
    unknowns = []
    for p in primes:
        per_prime = NormalizedInstance(
            variables=sub_norm.variables,
            equations=sub_norm.equations,
            profiles={p: sub_norm.profiles.get(p, {})},
            kinds={p: sub_norm.kinds.get(p, frozenset())},
            orders=(),
        )
        verdict = solve_single_prime(per_prime, p, window)
        diagnostics["parts"][p] = verdict.status.value
        if verdict.is_unsat:
            return Verdict.unsat(
                "prime-unsat",
                f"the valuation system at p = {p} is unsatisfiable: "
                f"{verdict.reason or verdict.code}",
                prime=p,
                sub_code=verdict.code,
                **diagnostics,
            )
        if verdict.is_unknown:
            unknowns.append((p, verdict))
    if not primes and order_witness is None:
        # no orders and no primes cannot reach here (delegated above)
        raise InternalError("nothing to combine")
    if unknowns:
        p, verdict = unknowns[0]
        return Verdict.unknown(
            verdict.code or "unknown",
            f"the valuation system at p = {p} could not be decided: "
            f"{verdict.reason or ''}",
            prime=p,
            **diagnostics,
        )
    if inst.orders and not primes:
        # purely rational: the averaged strict point is a full witness
        witness = dict(zip(inst.variables, order_witness))
        check = verify_witness(inst, witness)
        if not check:
            raise InternalError(f"order witness rejected: {check.detail}")  # pragma: no cover
        return Verdict(Status.SAT, witness=witness, diagnostics=diagnostics)
    if order_witness is not None:
        diagnostics["order-witness"] = dict(zip(inst.variables, order_witness))
    return Verdict(Status.SAT, witness=None, diagnostics=diagnostics)
