"""Combining rational order constraints with p-adic valuation constraints.

The order side is handled by exact linear programming.  strictify() decides
the order system and finds its implicit equalities (weak rows that hold with
equality on the whole solution set) in rounds of one LP each.  A round asks
for every remaining weak row to be strict at once, next to the original
strict rows, with the equalities plus the rows converted so far as
equalities.  A feasible answer is the witness.  An infeasible one comes with
a Farkas certificate that lp_feasible has already checked; for every x,

    sum lam_i (a_i . x - b_i) + sum nu_i (row_i . x - rhs_i) = -value.

- Value 0 with weight only on weak rows: on any solution of the original
  system the lam terms vanish (the converted rows are implicit equalities by
  induction) and each nu term is <= 0, so each engaged term is 0.  Every
  engaged weak row is an implicit equality; all of them are converted
  together and the next round starts.  Converting keeps the solution set, so
  this needs no feasible base point and holds when the set is empty too.
- Anything else refutes: value < 0, or value 0 with an original strict row
  engaged.  A solution of the original system would make the left side
  <= 0, and < 0 with a strict row engaged, so the system is empty.  In the
  first round the certificate already refutes the original blocks (its weak
  rows' multipliers become mu), and it is re-checked there.  After a
  conversion the round's equalities are not the original ones, so one more
  LP on the original blocks gives a certificate in their terms; if that LP
  finds a point, something is wrong, and strictify raises InternalError.

Each conversion round converts at least one row, so there are at most as
many conversion rounds as weak rows.  A system whose weak rows can all be
strict takes one LP; an unsat one takes one LP unless a conversion came
first.

solve_combined() then runs the valuation side against the equality system
augmented with the converted rows.  Each prime is dispatched independently;
with several primes, or with both orders and valuations, the combined
satisfiable answer is decision-only (witness None) and the per-part evidence
sits in the diagnostics.  Purely rational instances get an exact witness,
re-checked by certify.verify_witness before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certify import check_certificate, verify_witness
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
    # conversion rounds: round LPs whose certificate converted weak rows
    restarts: int = 0


def _block(rows: Rows) -> tuple[list[list[Fraction]], list[Fraction]]:
    return [list(r) for r, _ in rows], [v for _, v in rows]


def strictify(equalities: Rows, weak: Rows, strict: Rows) -> StrictifyResult:
    """Decide the order system and expose its implicit equalities."""
    remaining = list(enumerate(weak))
    converted: list[tuple[int, tuple[tuple[Fraction, ...], Fraction]]] = []
    restarts = 0
    while True:
        attempt = lp_feasible(
            *_block(equalities + [row for _, row in converted]),
            [],
            [],
            *_block(strict + [row for _, row in remaining]),
        )
        if isinstance(attempt, LpFeasible):
            converted.sort(key=lambda item: item[0])
            return StrictifyResult(True, attempt.x, converted, restarts=restarts)
        # sum lam_i (a_i . x - b_i) + sum nu_i (row_i . x - rhs_i) = -value
        # for every x; see the module docstring for the two cases
        nu_strict, nu_weak = attempt.nu[: len(strict)], attempt.nu[len(strict) :]
        if attempt.value == 0 and not any(nu_strict) and any(nu_weak):
            converted += [item for nu, item in zip(nu_weak, remaining) if nu > 0]
            remaining = [item for nu, item in zip(nu_weak, remaining) if nu == 0]
            restarts += 1
            continue
        original = (*_block(equalities), *_block(weak), *_block(strict))
        if converted:
            # the converted rows are equalities of this round, not of the
            # original system: refute the original blocks directly
            certificate = lp_feasible(*original)
            if isinstance(certificate, LpFeasible):
                raise InternalError(
                    "strictify refuted a system whose conversions kept it feasible"
                )
        else:
            # the round's blocks are the original ones with the weak rows
            # moved into the strict block
            certificate = LpInfeasible(attempt.lam, nu_weak, nu_strict, attempt.value)
            ok, why = check_certificate(
                *original, certificate.lam, certificate.mu, certificate.nu
            )
            if not ok:
                raise InternalError(f"strictify certificate refutes nothing: {why}")
        return StrictifyResult(False, None, [], certificate=certificate, restarts=restarts)


def _order_blocks(inst: Instance):
    weak: Rows = []
    strict: Rows = []
    for oc in inst.orders:
        if oc.rel == "<=":
            weak.append((oc.coeffs, oc.rhs))
        else:
            strict.append((oc.coeffs, oc.rhs))
    return weak, strict


def solve_combined(inst: Instance) -> Verdict:
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
        return solve_single_prime(norm, primes[0] if primes else None)

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
    for p in primes:
        per_prime = NormalizedInstance(
            variables=norm.variables,
            equations=tuple(augmented),
            valuations=tuple(vc for vc in norm.valuations if vc.prime == p),
            profiles={p: norm.profiles[p]},
            kinds={p: norm.kinds[p]},
            orders=(),
        )
        verdict = solve_single_prime(per_prime, p)
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
    if not primes and order_witness is None:
        # no orders and no primes cannot reach here (delegated above)
        raise InternalError("nothing to combine")
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
