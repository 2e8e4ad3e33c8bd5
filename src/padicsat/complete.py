"""Branch-and-decide solver for single-prime instances mixing bound directions.

The polynomial solvers each handle one direction of valuation bounds.  When an
instance mixes lower bounds with upper bounds or exclusions, satisfiability is
decided here by a recursive search:

* lower bounds are tightened by min-plus propagation over the equations, with
  a divergence threshold that forces a coordinate to zero once its bound grows
  past anything the instance can express;
* finitely windowed variables are branched on, smallest window first.  At
  p >= 3 pinning a valuation to one value still leaves p-1 leading digits, so
  a pinned variable is split by digit substitution x = i*p^v + p^(v+1)*y;
  at p = 2 the single digit makes a pinned valuation an exact constraint the
  echelon solver handles natively;
* a variable bounded below with an exclusion above the bound is split around
  the exclusion;
* once every variable fits one of the polynomial fragments the state is cut
  into connected components and each is delegated.

States whose lower-bound relaxation is already unsatisfiable are pruned.  The
relaxation test is witness-free: it asks `solve_geq` for the status only, so a
search node pays for the echelon and the pivot-bound checks but never for a
PowerSum back-substitution.  A component mixing unbounded directions cannot be
enumerated; it yields Unknown unless a search window is supplied, in which
case an exhausted search reports "unsat-within-window" (still Unknown:
solutions below the window may exist).

The search is one sequential depth-first loop: children are generated lazily
and tried in order, and the first satisfiable child ends the search, so a
wide valuation window costs only the candidates actually tried.  Window
emptiness and edge trimming work on the excluded set, never on the window's
width.  A satisfiable answer is re-checked by testkit.verify_witness against
the equations and the valuation constraints as written (the ones the
normalized instance was folded from) before it is returned; a rejected
witness raises InternalError, never a wrong answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InternalError
from .model import Instance, NormalizedInstance, Verdict
from .rational import (
    INF,
    NEG_INF,
    ExtInt,
    PowerSum,
    is_finite,
    valuation,
)
from .solver_geq import GeqProblem, solve_geq
from .solver_leq import LeqProblem, solve_leq
from .testkit import verify_witness

PROPAGATION_ROUNDS_FACTOR = 4


@dataclass
class _Prof:
    lower: ExtInt
    upper: ExtInt
    excluded: frozenset[int]

    def copy(self) -> "_Prof":
        return _Prof(self.lower, self.upper, self.excluded)

    def empty(self) -> bool:
        lo, up = self.lower, self.upper
        if is_finite(lo) and is_finite(up):
            return up - lo + 1 <= sum(1 for d in self.excluded if lo <= d <= up)
        return False


Equation = tuple[dict[str, Fraction], Fraction]


@dataclass
class _State:
    prime: int
    equations: list[Equation]
    profiles: dict[str, _Prof]
    # substitution log, innermost last; entries are
    # ("zero", var) or ("digit", var, digit, v, fresh)
    log: list[tuple] = field(default_factory=list)

    def copy(self) -> "_State":
        return _State(
            self.prime,
            [(dict(coeffs), rhs) for coeffs, rhs in self.equations],
            {v: p.copy() for v, p in self.profiles.items()},
            list(self.log),
        )


class _Search:
    def __init__(self, prime: int, window: int | None):
        self.prime = prime
        self.window = window
        self.fresh = itertools.count()

    def fresh_var(self) -> str:
        return f"$d{next(self.fresh)}"


def _substitute_zero(state: _State, var: str) -> bool:
    """Replace var by 0.  Returns False if that empties an equation badly."""
    state.log.append(("zero", var))
    del state.profiles[var]
    kept: list[Equation] = []
    for coeffs, rhs in state.equations:
        if var in coeffs:
            coeffs = {v: c for v, c in coeffs.items() if v != var}
        if not coeffs:
            if rhs != 0:
                return False
            continue
        kept.append((coeffs, rhs))
    state.equations = kept
    return True


def _substitute_digit(state: _State, var: str, digit: int, v: int, fresh: str) -> bool:
    """Replace var by digit*p^v + p^(v+1)*fresh with fresh ranging over v >= 0."""
    p = state.prime
    state.log.append(("digit", var, digit, v, fresh))
    del state.profiles[var]
    state.profiles[fresh] = _Prof(0, INF, frozenset())
    unit = Fraction(p) ** v
    kept: list[Equation] = []
    for coeffs, rhs in state.equations:
        if var in coeffs:
            a = coeffs.pop(var)
            rhs = rhs - a * digit * unit
            coeffs[fresh] = coeffs.get(fresh, Fraction(0)) + a * unit * p
            if coeffs[fresh] == 0:
                del coeffs[fresh]
        if not coeffs:
            if rhs != 0:
                return False
            continue
        kept.append((coeffs, rhs))
    state.equations = kept
    return True


def _divergence_threshold(state: _State) -> int:
    """A lower bound propagated past this can only come from a zero forcing.

    Any finite valuation of a solution coordinate is bounded by the magnitudes
    already present in the instance: profile bounds, coefficient valuations,
    and the total valuation spread of the equations.
    """
    p = state.prime
    mag = 0
    for prof in state.profiles.values():
        for x in (prof.lower, prof.upper):
            if is_finite(x):
                mag = max(mag, abs(x))
        for d in prof.excluded:
            mag = max(mag, abs(d))
    spread = 0
    for coeffs, rhs in state.equations:
        vals = [valuation(a, p) for a in coeffs.values()]
        if rhs != 0:
            vals.append(valuation(rhs, p))
        mag = max(mag, max(abs(v) for v in vals))
        spread += max(vals) - min(vals)
    return mag + spread + 1


def _check_profiles(state: _State) -> Verdict | None:
    for var in sorted(state.profiles):
        if state.profiles[var].empty():
            return Verdict.unsat("empty-window", f"no admissible valuation for {var}",
                                 var=var)
    return None


def _propagate(state: _State) -> Verdict | None:
    """Min-plus tightening of lower bounds; substitutes forced zeros in place."""
    p = state.prime
    threshold = _divergence_threshold(state)
    rounds = PROPAGATION_ROUNDS_FACTOR * max(1, len(state.profiles))
    for _ in range(rounds):
        changed = False
        restart = True
        while restart:
            restart = False
            for coeffs, rhs in state.equations:
                vals = {var: valuation(a, p) for var, a in coeffs.items()}
                terms: dict[str, ExtInt] = {}
                for var, v in vals.items():
                    lo = state.profiles[var].lower
                    terms[var] = NEG_INF if lo == NEG_INF else v + lo
                # the two smallest of the terms and the rhs valuation: the
                # minimum over all but one term is the second if that term
                # is the first
                first: ExtInt = INF if rhs == 0 else valuation(rhs, p)
                second: ExtInt = INF
                for t in terms.values():
                    if t < first:
                        first, second = t, first
                    elif t < second:
                        second = t
                for var, v in vals.items():
                    floor_others = second if terms[var] == first else first
                    if floor_others == NEG_INF:
                        continue
                    prof = state.profiles[var]
                    if floor_others == INF:
                        new_lower: ExtInt = INF
                    else:
                        new_lower = floor_others - v
                    if new_lower == NEG_INF or new_lower <= prof.lower:
                        continue
                    changed = True
                    force_zero = new_lower == INF or (
                        new_lower > threshold and prof.upper == INF
                    )
                    if force_zero:
                        if prof.upper != INF:
                            return Verdict.unsat(
                                "forced-zero",
                                f"{var} must vanish but has a finite upper bound",
                                var=var,
                            )
                        if not _substitute_zero(state, var):
                            return Verdict.unsat(
                                "forced-zero",
                                f"setting {var} = 0 contradicts an equation",
                                var=var,
                            )
                        restart = True
                        break
                    prof.lower = new_lower
                    if prof.empty():
                        return Verdict.unsat(
                            "empty-window",
                            f"propagation emptied the window of {var}",
                            var=var,
                        )
                if restart:
                    break
        if not changed:
            return None
    return None


def _tighten_singletons(state: _State) -> None:
    """Trim excluded window edges; a window left with one value is pinned.

    Pure tightening: the admissible set of each variable is unchanged.  After
    this pass a pinned variable always reads lower == upper with no
    exclusions, which is what the branch chooser and the p = 2 exact-flag
    leaf test key on.
    """
    for prof in state.profiles.values():
        if not (is_finite(prof.lower) and is_finite(prof.upper)):
            continue
        if not prof.excluded:
            continue
        # each step passes one excluded value, so at most |excluded| steps
        lo, up = prof.lower, prof.upper
        while lo <= up and lo in prof.excluded:
            lo += 1
        while up >= lo and up in prof.excluded:
            up -= 1
        if lo > up:
            continue  # caught by the emptiness check
        prof.lower = lo
        prof.upper = up
        prof.excluded = frozenset(d for d in prof.excluded if lo < d < up)


def _geq_problem(
    state: _State, members: list[str], eqs: list[Equation]
) -> GeqProblem:
    """The lower-bound problem of eqs, one column per member in list order.

    At p = 2 a valuation pinned to an admissible value becomes the echelon
    solver's exact flag.
    """
    p = state.prime
    index = {v: j for j, v in enumerate(members)}
    a = [[Fraction(0)] * len(members) for _ in eqs]
    for row, (coeffs, _) in zip(a, eqs):
        for var, c in coeffs.items():
            row[index[var]] = c
    profs = [state.profiles[v] for v in members]
    return GeqProblem.of(
        a,
        [rhs for _, rhs in eqs],
        p,
        tuple(prof.lower for prof in profs),
        tuple(
            p == 2
            and is_finite(prof.lower)
            and prof.lower == prof.upper
            and prof.lower not in prof.excluded
            for prof in profs
        ),
    )


def _relaxation_prunes(state: _State) -> bool:
    """True if even the lower-bound relaxation of this state is unsatisfiable."""
    problem = _geq_problem(state, sorted(state.profiles), state.equations)
    return solve_geq(problem, witness=False).is_unsat


def _branch_target(state: _State) -> tuple[str, str, object] | None:
    """Pick the next variable to branch on, or None at a leaf state.

    Finite windows come first, smallest first (a pinned valuation at p >= 3
    is a digit substitution; at p = 2 it is an exact constraint the echelon
    leaf takes directly); then exclusion splits on variables bounded below.
    Assumes singleton windows were already tightened to pinned form.
    """
    p = state.prime
    best: tuple[int, str] | None = None
    for var in sorted(state.profiles):
        prof = state.profiles[var]
        if not (is_finite(prof.lower) and is_finite(prof.upper)):
            continue
        if prof.lower == prof.upper:
            if p == 2:
                continue  # exact constraint; the echelon leaf takes it
            return ("digit", var, prof.lower)
        size = prof.upper - prof.lower + 1 - len(prof.excluded)
        if best is None or size < best[0]:
            best = (size, var)
    if best is not None:
        var = best[1]
        prof = state.profiles[var]
        excluded = prof.excluded
        # lazy: the search stops at the first satisfiable candidate
        candidates = (
            v for v in range(prof.lower, prof.upper + 1) if v not in excluded
        )
        return ("window", var, candidates)
    for var in sorted(state.profiles):
        prof = state.profiles[var]
        if prof.upper == INF and is_finite(prof.lower):
            above = [d for d in prof.excluded if d >= prof.lower]
            if above:
                return ("split", var, min(above))
    return None


def _geq_compatible(state: _State, var: str) -> bool:
    p = state.prime
    prof = state.profiles[var]
    if p == 2 and is_finite(prof.lower) and prof.lower == prof.upper:
        return prof.lower not in prof.excluded
    if prof.upper != INF:
        return False
    if prof.lower == NEG_INF:
        return not prof.excluded
    return all(d < prof.lower for d in prof.excluded)


def _components(state: _State) -> list[tuple[list[str], list[Equation]]]:
    parent: dict[str, str] = {v: v for v in state.profiles}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u: str, v: str) -> None:
        parent[find(u)] = find(v)

    for coeffs, _ in state.equations:
        vs = list(coeffs)
        for other in vs[1:]:
            union(vs[0], other)
    groups: dict[str, list[str]] = {}
    for v in sorted(state.profiles):
        groups.setdefault(find(v), []).append(v)
    out = []
    for root in sorted(groups):
        members = groups[root]
        eqs = [eq for eq in state.equations if find(next(iter(eq[0]))) == root]
        out.append((members, eqs))
    return out


def _solve_component(
    state: _State, members: list[str], eqs: list[Equation]
) -> Verdict:
    problem = _geq_problem(state, members, eqs)
    if all(_geq_compatible(state, v) for v in members):
        verdict = solve_geq(problem)
    elif all(state.profiles[v].lower == NEG_INF for v in members):
        caps = tuple(state.profiles[v].upper for v in members)
        excluded = tuple(state.profiles[v].excluded for v in members)
        verdict = solve_leq(
            LeqProblem.of(problem.A, problem.b, state.prime, caps, excluded)
        )
    else:
        return Verdict.unknown(
            "mixed-unbounded",
            "a component mixes unbounded lower and upper constraints",
            variables=[v for v in members if not _geq_compatible(state, v)],
        )
    if verdict.is_sat and verdict.witness is not None:
        verdict.witness = dict(zip(members, verdict.witness))
    return verdict


def _apply_window(state: _State, search: _Search) -> list[str]:
    """Assume v >= window for every variable unbounded below.  Returns them."""
    assert search.window is not None
    touched = []
    for var in sorted(state.profiles):
        prof = state.profiles[var]
        if not _geq_compatible(state, var) and prof.lower == NEG_INF:
            prof.lower = search.window
            touched.append(var)
    return touched


def _solve_leaves(state: _State, search: _Search) -> Verdict:
    components = _components(state)
    witness: dict[str, PowerSum] = {}
    unknowns: list[Verdict] = []
    for members, eqs in components:
        verdict = _solve_component(state, members, eqs)
        if verdict.is_unsat:
            return verdict
        if verdict.is_unknown:
            unknowns.append(verdict)
            continue
        witness.update(verdict.witness or {})
    if unknowns:
        if search.window is None:
            return unknowns[0]
        windowed = state.copy()
        touched = _apply_window(windowed, search)
        if not touched:
            return unknowns[0]
        verdict = _solve_state(windowed, search)
        if verdict.is_unsat:
            return Verdict.unknown(
                "unsat-within-window",
                f"no solution with v >= {search.window} on {', '.join(touched)}; "
                "solutions below the window may exist",
                window=search.window,
                variables=touched,
            )
        return verdict
    # express the witness in the root variables before handing it upward
    return Verdict.sat(witness=_reconstruct(state, witness))


def _reconstruct(state: _State, witness: dict[str, PowerSum]) -> dict[str, PowerSum]:
    """Undo the substitution log, innermost first."""
    p = state.prime
    for entry in reversed(state.log):
        if entry[0] == "zero":
            witness[entry[1]] = PowerSum.zero(p)
        else:
            _, var, digit, v, fresh = entry
            tail = witness.pop(fresh, PowerSum.zero(p))
            witness[var] = PowerSum(p, ((Fraction(digit), v),)) + tail.shift(v + 1)
    return witness


def _children(state: _State, target: tuple[str, str, object], search: _Search):
    kind, var, data = target
    if kind == "window":
        for v in data:
            child = state.copy()
            prof = child.profiles[var]
            prof.lower = v
            prof.upper = v
            prof.excluded = frozenset()
            yield child
    elif kind == "digit":
        # name every digit's fresh variable before the first child is solved,
        # so the names (and with them the sorted branch order) do not depend
        # on how deep earlier children search
        fresh = [search.fresh_var() for _ in range(1, state.prime)]
        for digit, name in zip(range(1, state.prime), fresh):
            child = state.copy()
            if _substitute_digit(child, var, digit, data, name):
                yield child
    else:  # split around an excluded value above the lower bound
        low = state.copy()
        prof = low.profiles[var]
        prof.upper = data - 1
        prof.excluded = frozenset(d for d in prof.excluded if d < data)
        yield low
        high = state.copy()
        prof = high.profiles[var]
        prof.lower = data + 1
        prof.excluded = frozenset(d for d in prof.excluded if d > data)
        yield high


def _solve_state(state: _State, search: _Search) -> Verdict:
    failed = _check_profiles(state)
    if failed is not None:
        return failed
    failed = _propagate(state)
    if failed is not None:
        return failed
    failed = _check_profiles(state)
    if failed is not None:
        return failed
    _tighten_singletons(state)
    if _relaxation_prunes(state):
        return Verdict.unsat(
            "relaxation", "already the lower-bound relaxation is unsatisfiable"
        )
    target = _branch_target(state)
    if target is None:
        return _solve_leaves(state, search)
    explored = False
    unknown: Verdict | None = None
    for child in _children(state, target, search):
        explored = True
        verdict = _solve_state(child, search)
        if verdict.is_sat:
            return verdict
        if verdict.is_unknown and unknown is None:
            unknown = verdict
    if not explored:
        return Verdict.unsat(
            "branches-exhausted", f"no admissible branch for {target[1]}"
        )
    if unknown is not None:
        return unknown
    return Verdict.unsat("branches-exhausted", "every branch is unsatisfiable")


def solve_complete(
    norm: NormalizedInstance,
    prime: int | None = None,
    window: int | None = None,
) -> Verdict:
    """Decide a single-prime normalized instance with arbitrary bound mix.

    `window`, when given, bounds the search for variables that are only
    bounded above: the solver additionally assumes v >= window for them.  A
    satisfiable answer is then still exact; an exhausted search reports
    Unknown with code "unsat-within-window".
    """
    if norm.orders:
        raise InputError("order constraints must go through the combiner")
    if prime is None:
        if not norm.primes:
            raise InputError("a prime is required for valuation-free instances")
        prime = norm.primes[0]
    norm.require_prime(prime)  # multi-prime instances go through the combiner
    equations: list[Equation] = []
    for eq in norm.equations:
        coeffs = {
            v: c for v, c in zip(norm.variables, eq.coeffs) if c != 0
        }
        if not coeffs:
            if eq.rhs != 0:
                return Verdict.unsat("no-solution", "an equation reads 0 = nonzero")
            continue
        equations.append((coeffs, eq.rhs))
    profiles = {}
    for var in norm.variables:
        prof = norm.profile(prime, var)
        profiles[var] = _Prof(prof.lower, prof.upper, prof.excluded)
    state = _State(prime, equations, profiles)
    search = _Search(prime, window)
    verdict = _solve_state(state, search)
    if verdict.is_sat:
        names = set(norm.variables)
        witness = {
            var: ps for var, ps in (verdict.witness or {}).items() if var in names
        }
        for var in norm.variables:
            if var not in witness:
                witness[var] = PowerSum.zero(prime)
        check = verify_witness(
            Instance(norm.variables, norm.equations, norm.valuations), witness
        )
        if not check:
            raise InternalError(f"assembled witness rejected: {check.detail}")
        verdict.witness = witness
    return verdict
