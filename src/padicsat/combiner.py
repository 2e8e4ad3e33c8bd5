"""Combining rational order constraints with p-adic valuation constraints.

The order side is handled by exact linear programming.  strictify() decides
the order system and finds its implicit equalities (weak rows that hold with
equality on the whole solution set) in rounds of one LP each.  A round keeps
the equalities as equalities and the rows converted so far as weak rows, and
asks for every remaining weak row to be strict at once, next to the original
strict rows.  Every row of a round is an original row with its original
relation, except that the remaining weak rows are asked to be strict, so a
feasible answer solves the original system and is the witness.  An
infeasible one comes with a Farkas certificate that lp_feasible has already
checked; for every x,

    sum lam_i (a_i . x - b_i) + sum mu_j (c_j . x - d_j)
        + sum nu_k (e_k . x - f_k) = -value.

- Value 0 with no original strict row engaged and some remaining weak row
  engaged: on any solution of the original system the lam terms vanish and
  every mu and nu term is <= 0, so with sum 0 each engaged term is 0.  Every
  engaged remaining weak row is an implicit equality; all of them are
  converted together and the next round starts.  Converting keeps the
  solution set, so this needs no feasible point and holds when the set is
  empty too.
- Anything else refutes: value < 0, or value 0 with an original strict row
  engaged.  A solution of the original system would make the left side
  <= 0, and < 0 with a strict row engaged, so the system is empty.  The
  round's certificate refutes the original blocks as it stands once the
  multipliers of the converted and remaining weak rows go back to the weak
  rows' original indices; it is checked there before it is handed out.

Each conversion round converts at least one row, so there are at most as
many conversion rounds as weak rows, and every system takes one LP more
than it has conversion rounds.

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
    # a solution of the original system with every strict row and every
    # unconverted weak row strict; the converted rows are tight there, as at
    # every solution; None when infeasible
    witness: tuple[Fraction, ...] | None
    # weak rows found to be implicit equalities, as (original index, row)
    converted: list[tuple[int, tuple[tuple[Fraction, ...], Fraction]]]
    # multipliers on the original (equality, weak, strict) blocks
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
            *_block(equalities),
            *_block([row for _, row in converted]),
            *_block(strict + [row for _, row in remaining]),
        )
        if isinstance(attempt, LpFeasible):
            converted.sort(key=lambda item: item[0])
            return StrictifyResult(True, attempt.x, converted, restarts=restarts)
        # the certificate's identity and its two cases: see the module docstring
        nu_strict, nu_weak = attempt.nu[: len(strict)], attempt.nu[len(strict) :]
        if attempt.value == 0 and not any(nu_strict) and any(nu_weak):
            converted += [item for nu, item in zip(nu_weak, remaining) if nu > 0]
            remaining = [item for nu, item in zip(nu_weak, remaining) if nu == 0]
            restarts += 1
            continue
        # the weak multipliers go back to their rows' original indices
        order = [idx for idx, _ in converted + remaining]
        mu = tuple(m for _, m in sorted(zip(order, attempt.mu + nu_weak)))
        certificate = LpInfeasible(attempt.lam, mu, nu_strict, attempt.value)
        original = (*_block(equalities), *_block(weak), *_block(strict))
        ok, why = check_certificate(*original, certificate.lam, certificate.mu, certificate.nu)
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
    if not primes:
        # purely rational: with no prime the orders brought us here, and the
        # feasible strictify above set the strict point, a full witness
        witness = dict(zip(inst.variables, order_witness))
        check = verify_witness(inst, witness)
        if not check:
            raise InternalError(f"order witness rejected: {check.detail}")  # pragma: no cover
        return Verdict(Status.SAT, witness=witness, diagnostics=diagnostics)
    if order_witness is not None:
        diagnostics["order-witness"] = dict(zip(inst.variables, order_witness))
    return Verdict(Status.SAT, witness=None, diagnostics=diagnostics)
