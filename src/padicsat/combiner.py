"""Combining rational order constraints with p-adic valuation constraints.

The order side is handled by exact linear programming.  strictify() first
decides the order system outright.  If it is feasible, the implicit
equalities (weak rows that hold with equality on the whole solution set) are
found in conversion rounds: one LP asks for every remaining weak row to be
strict at once.  A feasible answer is the witness.  An infeasible one comes
with a checked Farkas certificate, and since the system itself is feasible
that certificate has value 0, so every weak row it engages is an implicit
equality; all of them are converted together and the next round starts.
Each round converts at least one row, so there are at most as many rounds as
weak rows, and weak rows without implicit equalities take two LPs.

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
    # a point satisfying every equality, every strict row strictly, every
    # converted row with equality and every other weak row strictly; None
    # when infeasible
    witness: tuple[Fraction, ...] | None
    # weak rows found to be implicit equalities, as (original index, row)
    converted: list[tuple[int, tuple[tuple[Fraction, ...], Fraction]]]
    certificate: LpInfeasible | None = None
    # conversion rounds: all-strict LPs that came back infeasible
    restarts: int = 0


def _block(rows: Rows) -> tuple[list[list[Fraction]], list[Fraction]]:
    return [list(r) for r, _ in rows], [v for _, v in rows]


def strictify(equalities: Rows, weak: Rows, strict: Rows) -> StrictifyResult:
    """Decide the order system and expose its implicit equalities."""
    base = lp_feasible(*_block(equalities), *_block(weak), *_block(strict))
    if isinstance(base, LpInfeasible):
        return StrictifyResult(False, None, [], certificate=base)
    witness = base.x
    remaining = list(enumerate(weak))
    converted: list[tuple[int, tuple[tuple[Fraction, ...], Fraction]]] = []
    restarts = 0
    while remaining:
        attempt = lp_feasible(
            *_block(equalities + [row for _, row in converted]),
            [],
            [],
            *_block(strict + [row for _, row in remaining]),
        )
        if isinstance(attempt, LpFeasible):
            witness = attempt.x
            break
        # base.x satisfies every row, so sum nu_i (row_i . x - rhs_i) equals
        # -value and has no positive term: a valid certificate has value 0,
        # no weight on the original strict rows, and every weak row it
        # engages holds with equality on the whole solution set
        nu_strict, nu_weak = attempt.nu[: len(strict)], attempt.nu[len(strict) :]
        if attempt.value != 0 or any(nu_strict) or not any(nu_weak):
            raise InternalError(
                "strictify certificate contradicts the feasible base system"
            )
        converted += [item for nu, item in zip(nu_weak, remaining) if nu > 0]
        remaining = [item for nu, item in zip(nu_weak, remaining) if nu == 0]
        restarts += 1
    converted.sort(key=lambda item: item[0])
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

    # the valuation side runs against the augmented equality system, one
    # prime at a time; the profiles depend on the valuations alone, so the
    # first normalization already holds them
    unknowns = []
    for p in primes:
        per_prime = NormalizedInstance(
            variables=norm.variables,
            equations=tuple(augmented),
            valuations=tuple(vc for vc in norm.valuations if vc.prime == p),
            profiles={p: norm.profiles[p]},
            kinds={p: norm.kinds[p]},
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
        # purely rational: the strict point is a full witness
        witness = dict(zip(inst.variables, order_witness))
        check = verify_witness(inst, witness)
        if not check:
            raise InternalError(f"order witness rejected: {check.detail}")  # pragma: no cover
        return Verdict(Status.SAT, witness=witness, diagnostics=diagnostics)
    if order_witness is not None:
        diagnostics["order-witness"] = dict(zip(inst.variables, order_witness))
    return Verdict(Status.SAT, witness=None, diagnostics=diagnostics)
