"""Branch-and-decide solver for single-prime instances mixing bound directions.

The polynomial solvers each handle one direction of valuation bounds.  When an
instance mixes lower bounds with upper bounds or exclusions, satisfiability is
decided here by a branch-and-propagate search:

* lower bounds are tightened by min-plus propagation over the valuations each
  state keeps of its rows' coefficients and right-hand sides: in a row
  a_k x_k is minus the sum of the other terms and the rhs, so
  v(x_k) >= m - v(a_k), m the least floor of those terms' valuations.  At
  p = 2 the bound is m + 1 - v(a_k) when the terms at m are all exact and
  even in number, a nonzero rhs counting as one exact term: a pinned
  valuation (`VarProfile.exact_at`) makes a term 2^m times an odd number, as
  the rhs is, and 2^m*odd + 2^m*odd = 2^(m+1)*k.  At p >= 3 two units can
  sum to a unit, so there is no such rule.  A row is quiet when its last
  visit raised nothing and neither the row nor the profile of a variable in
  it has changed since; propagation skips quiet rows and still makes the
  raises of full passes, in the same order.  Adopted echelon rows, and
  every narrowing of a profile (a raise, a forced zero, a child, a leaf's
  floor raise), wake the rows they touch.  A bound raised to +inf forces
  its coordinate to zero: x = 0 is the narrowing v(x) >= +inf (unsat under
  a finite upper bound), the variable keeps its column, and its terms read
  +inf.  Bounds can also climb without end when the rows alone freeze a
  coordinate at 0 (x = 3y with y = 3x), so the first time one propagation
  call raises more bounds than there are variables, the rows' affine
  solution space is solved once (no solution makes the state unsat).  A
  coordinate frozen at 0 is forced to zero, one frozen at a nonzero value
  outside its admissible set makes the state unsat, and any other is left
  alone, its valuation finite; so the work on such a cycle does not grow
  with the bounds written.  The rule is exact: diverging lower bounds mean
  the coordinate vanishes on the lower-bound relaxation's solution set, an
  open subset of the affine solution space, so it is frozen at 0 whenever
  that set is nonempty, and an empty one is caught by the relaxation prune.
  A zero is forced only where a row's other terms and rhs all read +inf, or
  by the frozen pass, so the rows alone freeze every zeroed coordinate at
  0, and no affine solve needs a row x_z = 0;
* finitely windowed variables are branched on, smallest window first.  At
  p >= 3 a pinned valuation v still leaves p-1 leading digits, so a pinned x
  is split by digit: x = d*p^v + r with v(r) >= v + 1.  The child records
  (d, v) in `_State.consts` and narrows x to the remainder's profile, so x's
  column and profile stand for r from then on; every valuation of a linear
  form's constant (a row's rhs, a frozen coordinate) is read with the digit
  terms a*d*p^v moved into it (`_less_digits`).  At p = 2 the single digit
  makes a pinned valuation an exact constraint the echelon solver handles
  natively.  Unit scaling cuts the first digit split of a homogeneous state
  to its child d = 1: while no digit is fixed and every row's rhs is 0,
  x -> u*x for an integer u prime to p keeps every row and every valuation
  (so every window, exclusion and forced zero), and u = d^-1 mod p maps a
  solution with digit d to one with digit 1.  This is lex-leader symmetry
  breaking for the group of p-adic units (Crawford, Ginsberg, Luks & Roy,
  KR 1996).  A fixed digit is kept only by u = 1 mod p, so the cut fires
  at most once on any path;
* a variable bounded below with an exclusion above the bound is split around
  the exclusion;
* once no variable is left to branch on, the state is a leaf, decided from
  its relaxation's echelon as below.

A state keeps its equations as primitive integer rows (A | b) over one
column list: an equivalent reduced system, not the equations as written.
The root's rows are the instance's equations, each scaled to the integer
row with content 1, over the variables in name order.  No step renames or
deletes a column, and none but the relaxation rewrites a row.  The search
has one variable order, the names': the profiles keep it, and every walk
over the variables (propagation within a row, branching, the frozen pass,
a leaf's floored and open variables) goes through the profiles, reading a
variable's column from one index, which copies share and an adopted
echelon replaces.  So no answer depends on the order of the instance's
vars line.

States whose lower-bound relaxation is already unsatisfiable are pruned.
The relaxation is the cost-minimal echelon of the integer rows and its
pivot-bound checks, with no Fraction and no PowerSum back-substitution.
When it is sat, the state takes that echelon's nonzero rows, made
primitive, as its rows, and the echelon's pivot order as its column order,
so row i pivots at column i; its children inherit both.  The echelon is
U (A | b) with U invertible, so the new rows have exactly the solutions of
the old ones, and the zero rows it drops all read 0 = 0, as the relaxation
is sat.  Propagation then reads rows that can show bounds no original row
shows.

Only the root, which has no digit variable, hands its rows to `solve_geq`
for the relaxation.  Every other state keeps, with its rows, a stale flag
per row: every narrowing of a profile, as it wakes the rows that hold the
variable, marks them stale, and the adopted echelon starts with none.  A
zeroed variable's floor is +inf, so an entry in its column costs +inf and
pivots only in a row with nothing cheaper, whose check then needs a zero
rhs.  The relaxation is one pass over the rows that writes the state it
decides.  It re-prices and re-checks only the stale rows, each against the
profiles of its own nonzero columns, and eliminates only below a row whose
pivot moved, marking each row it changes stale.  Each row is checked at its
own step, as `geq_echelon` checks them, and the pass stops at the first
that fails, leaving a state the search drops: a check reads only the row's
entries and their columns' profiles, which later column swaps permute
together.  The first swap copies the rows, columns and index the parent
shares, and later swaps edit those copies.  A check reads the row's rhs
valuation with its digit terms moved in, which changes only with a digit
child, and that narrows its variable.  Only the relaxation rewrites a row,
so the rows that hold a variable when it narrows are the ones that hold it
at the next relaxation, and every row that is not stale is unchanged since
its echelon: zero left of its diagonal, with its diagonal entry still its
cheapest, which a tie keeps, as the leftmost.  A stale row none of whose
costs moved is the same.  That makes the result exactly the echelon
`pivot_minimal_echelon` computes on the same rows in the same column order.
The pivot choice (`linalg.cheapest_column`) and the pivot-bound check
(`solver_geq.pivot_shortfall`) are the ones `solve_geq` runs.

The relaxation is the search's only lower-bound decision.  A leaf's rows are
its relaxation's echelon, row i pivoting at column i, and no profile has
narrowed since, so it hands them with its profiles' floors, the ones that
echelon's costs were read from, and its digit terms to `geq_witness`, which
back-substitutes them into a witness w by column.  At a leaf every floored
variable (a finite lower bound) fits the lower-bound fragment, as none is
left to branch on; when every other variable does too, w is the answer.
Otherwise the leaf has open variables (no lower bound, but an upper bound
or exclusions), and it is decided as one system, not component by
component, from all its rows and w, after Guepin, Haase & Worrell's
small-model argument (LICS 2019).  Write the solutions of its rows
as x = x0 + N t, read off `solve_affine`'s integers (pivots, free columns,
F, minor): x0 is 0 at the free columns and F_r[-1] / minor at pivot r, and
N has one column per free column, its row N_j e_k at free column free[k]
and -F_r[:-1] / minor at pivot r.  Let G be the floored variables.  A span
test below solves the integer rows minor N_j and reads each v(l_g) off that
solve's own integers.  A kernel basis vector never leaves its connected
component, so a span test reads the same over the whole leaf as over u's
component.

* Frozen: an open u with N_u = 0 (`frozen_coordinates`) is fixed,
  x_u = x0_u on every solution, whatever G is, so x_u = w_u.  v(w_u)
  outside u's admissible set is unsat ("fixed-out-of-range"); otherwise u
  stays at w_u and is no longer open.
* Bounded case: some remaining open u has N_u = sum over g in G of l_g N_g.
  Then x_u = c + sum l_g r_g on every solution, for one constant c, where
  r_g is g's remainder x_g - d*p^v for a digit variable g and x_g for any
  other.  By the ultrametric inequality v(x_u) >= min(v(c), m), m the least
  v(l_g) + lower_g over l_g != 0, a bound every solution meets, finite as
  N_u != 0 makes some l_g nonzero.  It is min(v(w_u), m): w is a solution,
  so c = w_u - sum l_g r_g(w), and w meets every floor, so each
  v(l_g r_g(w)) >= m.  u's floor is raised to it and the leaf is decided
  again; the raise changes no solution, and u now has a finite window or
  exclusions above its floor, so the search branches on it.
* Free case: no remaining open u is such a combination.  Then for each of
  them there is a kernel direction d with d_g = 0 on G and d_u != 0 (N_u
  vanishes on the common kernel of the N_g exactly when it lies in their
  span).  So no open u is frozen in the homogeneous system
  [A; e_g for g in G] z = 0, and `solve_leq`, handed those integer rows,
  finds a z in it with each open u's valuation at most
  min(upper_u, v(w_u) - 1) and outside u's exclusions, every other column
  unconstrained: the upper-bound fragment is unsat only on a frozen
  coordinate out of range.  w + z keeps every G coordinate and every
  equation, and each open u gets v(z_u), as v(z_u) < v(w_u) or both are 0
  (under a cap of +inf, which admits 0).  z moves no frozen coordinate, a
  zeroed one included, and a variable neither floored, open nor zeroed has
  no constraint.  So the leaf is sat iff its lower-bound relaxation is.

The search ends: a raise turns a variable without a lower bound into one
with a floor, floors only rise, and a digit child leaves its variable a
floor, so along every branch the count of variables unbounded below falls
at each raise, and a leaf without raises is decided outright.

The search is one sequential depth-first loop over a stack of children
iterators, one per branching state from the root down, so the interpreter's
recursion limit does not bound its depth.  Children are generated lazily and
tried in order, the first satisfiable child ends the search, and an
exhausted iterator is popped, so a wide valuation window costs only the
candidates actually tried.  A leaf that raised a floor is decided again as
the same state.  A leaf's answer is the search's, with every variable: its
rows are over the instance's variables, and `geq_witness` gives a free digit
variable its digit term d*p^v (remainder 0) and a free zeroed one 0.
Profiles are immutable `VarProfile`s, shared between a state and its
children; a narrowing stores a new one.  A profile is canonical by
construction (its finite edges admissible, its exclusions strictly inside),
so a window is empty exactly when its edges cross.  Every state's windows
are nonempty, so emptiness is tested only where a window can narrow: over
every profile at the root, at each bound propagation raises, and over the
floors a leaf raised, in name order.  A window child pins an admissible
value, a digit child leaves a floor and no cap, a split's low child keeps
its admissible lower edge below the least exclusion, and its high child has
no cap.  A satisfiable answer is re-checked by certify.verify_witness
against the equations and the valuation constraints as written (the ones the
normalized instance was folded from) before it is returned; a rejected
witness raises InternalError, never a wrong answer.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from math import gcd

from .certify import verify_witness
from .errors import InputError, InternalError
from .linalg import (
    cheapest_column,
    doubled_offset,
    eliminate,
    frozen_coordinates,
    integer_row,
    inverse_permutation,
    nonzero_columns,
    solve_affine,
)
from .model import Instance, NormalizedInstance, VarProfile, Verdict
from .rational import (
    INF,
    NEG_INF,
    ExtInt,
    PowerSum,
    int_valuation,
    is_finite,
    merged_valuation,
)
from .solver_geq import GeqProblem, geq_witness, pivot_shortfall, solve_geq
from .solver_leq import LeqProblem, solve_leq

PROPAGATION_ROUNDS_FACTOR = 4
# a forced zero: v >= +inf, which admits only the value 0
_ZERO = VarProfile(INF, INF, frozenset())


@dataclass
class _State:
    """One search node: the equations as integer rows and the variables' bounds.

    rows[i] is one equation (A | b) over `columns`, as integers with content
    1 and a nonzero coefficient; together the rows are a system equivalent
    to the instance's equations, not those equations themselves (module
    docstring).  The columns are the variables of `profiles`, and they are
    the instance's: a digit child records its variable's leading term in
    `consts` and narrows the variable to its remainder's profile, so that
    variable's column and profile stand for the remainder.  A narrowing
    replaces the variable's immutable profile, so copies share their
    profiles.  The profiles are in name order, the search's one variable
    order, and `index` maps a variable to its column.  Copies share the
    rows, `columns` and `index`; a relaxation whose pivot moves first copies
    all three and then edits its copies in place, so it never edits what a
    parent shares.

    After a sat relaxation the rows are its echelon and the columns are in
    its pivot order: row i is zero left of column i and nonzero at it.
    `stale` then marks the rows that hold a variable narrowed since, the
    only rows the next relaxation re-prices.  A forced zero is a narrowing
    to v >= +inf, and no step but the relaxation rewrites a row, so the
    columns never change.
    """

    prime: int
    columns: list[str]
    rows: list[list[int]]
    profiles: dict[str, VarProfile]
    # per digit variable x, its leading term (d, v): x = d*p^v + r with
    # v(r) >= v + 1.  Copied with the profiles; a digit child adds its entry
    consts: dict[str, tuple[int, int]] = field(default_factory=dict)
    # per row, the valuations of its nonzero coefficients by variable, in
    # name order, and of its rhs less its digit terms.  Computed with the
    # rows, then kept in step by the digit children and the relaxation
    valuations: list[tuple[dict[str, int], ExtInt]] | None = None
    # per row: its last propagation visit raised nothing, and since then
    # neither the row nor the profile of a variable in it has changed
    quiet: list[bool] | None = field(default=None, compare=False)
    # per row: the profile of a variable in it has narrowed since the state
    # adopted its echelon, so the next relaxation re-prices the row.  None
    # only at the root, before its relaxation
    stale: list[bool] | None = field(default=None, compare=False)
    # variable -> its column.  Built with the columns and shared by copies;
    # a relaxation whose pivot moves copies it and swaps its entries
    index: dict[str, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.index is None:
            self.index = {c: j for j, c in enumerate(self.columns)}
        if self.valuations is None:
            self.valuations = [self.row_valuation(row) for row in self.rows]
        if self.quiet is None:
            self.quiet = [False] * len(self.rows)

    def row_valuation(self, row: list[int]) -> tuple[dict[str, int], ExtInt]:
        """What `valuations` keeps for row, a row over `columns`."""
        p, index = self.prime, self.index
        vals = {v: int_valuation(row[index[v]], p) for v in self.profiles if row[index[v]]}
        return vals, self.rhs_valuation(row, vals)

    def rhs_valuation(self, row: list[int], support: Iterable[str]) -> ExtInt:
        """v_p of row's rhs less the terms a*d*p^v of its digit variables;
        support holds the variables of row's nonzero coefficients."""
        consts, index = self.consts, self.index
        terms = [(row[index[x]], *consts[x]) for x in support if x in consts] if consts else ()
        return _less_digits(self.prime, row[-1], terms)

    def copy(self) -> "_State":
        return _State(self.prime, self.columns, list(self.rows), dict(self.profiles),
                      dict(self.consts), list(self.valuations), list(self.quiet),
                      None if self.stale is None else list(self.stale), self.index)


def _primitive(row: list[int]) -> list[int]:
    """row divided by its content; row has a nonzero entry."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _less_digits(p: int, q: int, terms: Iterable[tuple]) -> ExtInt:
    """v_p(q - sum of a*d*p^v over terms (a, d, v)): a linear form's integer
    constant q with each digit variable's term a*x = a*d*p^v + a*r moved
    into it.

    The terms are summed exactly per exponent, those at exponent 0 into q,
    and the sums merged with q by rational.merged_valuation, so no p^v is
    built.
    """
    sums: dict[int, int] = {}
    for a, d, v in terms:
        if v:
            sums[v] = sums.get(v, 0) + a * d
        else:
            q -= a * d
    if not sums:
        return int_valuation(q, p)
    return merged_valuation(p, [(q, 1, 0)] + [(-s, 1, v) for v, s in sums.items()])


def _fix_digit(state: _State, var: str, digit: int, v: int) -> None:
    """Give var, pinned at valuation v, the leading term digit*p^v.

    var = digit*p^v + r with v(r) >= v + 1: var is narrowed to r's profile
    and its column stands for r.  No row changes; each row holding var
    re-reads its rhs valuation with the new digit term moved in.
    """
    state.consts[var] = (digit, v)
    for i, (vals, _) in enumerate(state.valuations):
        if var in vals:
            state.valuations[i] = (vals, state.rhs_valuation(state.rows[i], vals))
    _narrow(state, var, VarProfile(v + 1, INF, frozenset()))


def _narrow(state: _State, var: str, prof: VarProfile) -> None:
    """Store var's narrowed profile, and wake every row that holds var and
    mark it stale (after the root's relaxation)."""
    state.profiles[var] = prof
    quiet, stale = state.quiet, state.stale
    for i, (vals, _) in enumerate(state.valuations):
        if var in vals:
            quiet[i] = False
            if stale is not None:
                stale[i] = True


def _check_profiles(state: _State, names: Iterable[str]) -> Verdict | None:
    """The first of names, given in name order, whose window is empty."""
    for var in names:
        if state.profiles[var].empty():
            return Verdict.unsat("empty-window", f"no admissible valuation for {var}",
                                 var=var)
    return None


def _force_zero(state: _State, var: str) -> Verdict | None:
    """Narrow var to v >= +inf, the value 0, which every solution needs;
    unsat under a finite upper bound."""
    if state.profiles[var].upper != INF:
        return Verdict.unsat(
            "forced-zero", f"{var} must vanish but has a finite upper bound", var=var
        )
    _narrow(state, var, _ZERO)
    return None


def _system(state: _State) -> tuple[list[list[int]], list[int]]:
    """The state's rows as solve_affine's (A, b)."""
    n = len(state.columns)
    return [row[:n] for row in state.rows], [row[n] for row in state.rows]


def _substitute_frozen(state: _State) -> Verdict | None:
    """Settle the coordinates the equations alone fix; zeros are forced.

    A coordinate frozen at 0 (a digit variable's: at its digit term) takes
    the force-zero path; one frozen at a nonzero value outside its
    admissible set makes the state unsat, and one inside it is left alone:
    its valuation is finite, so propagation cannot diverge on it.
    """
    solution = solve_affine(*_system(state), len(state.columns))
    if solution is None:
        return Verdict.unsat("no-solution", "the equations are inconsistent")
    pivots, _, F, minor = solution
    p = state.prime
    frozen = dict(frozen_coordinates(pivots, F))
    for var in state.profiles:
        num = frozen.get(state.index[var])
        if num is None:
            continue
        # v(num/minor - d*p^v) = v(num - minor*d*p^v) - v(minor)
        digit = state.consts.get(var)
        v = _less_digits(p, num, [(minor, *digit)] if digit else []) - int_valuation(minor, p)
        failed = _force_zero(state, var) if v == INF else _fixed_outside(state, var, v)
        if failed is not None:
            return failed
    return None


def _fixed_outside(state: _State, var: str, v: ExtInt) -> Verdict | None:
    """Unsat when the equations fix var with valuation v outside its
    admissible set."""
    if state.profiles[var].admits(v):
        return None
    return Verdict.unsat(
        "fixed-out-of-range",
        f"{var} is fixed with valuation {v}, outside its admissible set",
        var=var,
        valuation=v,
    )


def _propagate(state: _State) -> Verdict | None:
    """Min-plus tightening of lower bounds, with the parity rule at p = 2;
    skips quiet rows (module docstring).

    A bound raised to +inf forces its variable to zero.  Lower bounds can
    also climb without end, one step per round, when the equations freeze a
    coordinate at 0; so the first time one call has raised more bounds than
    there are variables, _substitute_frozen settles the frozen coordinates
    exactly.  Neither rewrites a row, so each round is one pass over them.
    """
    rounds = PROPAGATION_ROUNDS_FACTOR * len(state.profiles)
    raises = 0
    frozen_checked = False
    parity = state.prime == 2
    for _ in range(rounds):
        changed = False
        for i, (vals, rhs_val) in enumerate(state.valuations):
            if state.quiet[i]:
                continue  # its visit would raise nothing
            state.quiet[i] = True  # until a raise below wakes it
            terms: dict[str, ExtInt] = {}
            for var, v in vals.items():
                lo = state.profiles[var].lower
                terms[var] = NEG_INF if lo == NEG_INF else v + lo
            # the two smallest of the terms and the rhs valuation: the
            # minimum over all but one term is the second if that term is
            # the first
            first: ExtInt = rhs_val
            second: ExtInt = INF
            for t in terms.values():
                if t < first:
                    first, second = t, first
                elif t < second:
                    second = t
            # parity: at first and at second, the number of terms, the rhs
            # among them, and how many of those are not exact
            tally = None
            if parity and second != NEG_INF:
                tally = {first: [0, 0], second: [0, 0]}
                if rhs_val in tally:
                    tally[rhs_val][0] += 1
                for var, t in terms.items():
                    if t in tally:
                        tally[t][0] += 1
                        tally[t][1] += not state.profiles[var].exact_at(2)
            for var, v in vals.items():
                floor_others = second if terms[var] == first else first
                if floor_others == NEG_INF:
                    continue
                prof = state.profiles[var]
                if floor_others == INF:
                    new_lower: ExtInt = INF
                else:
                    new_lower = floor_others - v
                    if tally is not None:
                        others, inexact = tally[floor_others]
                        if terms[var] == floor_others:
                            others -= 1
                            inexact -= not prof.exact_at(2)
                        if not inexact and others % 2 == 0:
                            new_lower += 1
                if new_lower == NEG_INF or new_lower <= prof.lower:
                    continue
                changed = True
                raises += 1
                if new_lower == INF:
                    failed = _force_zero(state, var)
                    if failed is not None:
                        return failed
                    continue
                prof = VarProfile(new_lower, prof.upper, prof.excluded)
                _narrow(state, var, prof)
                if prof.empty():
                    return Verdict.unsat(
                        "empty-window",
                        f"propagation emptied the window of {var}",
                        var=var,
                    )
                if raises > len(state.profiles) and not frozen_checked:
                    frozen_checked = True
                    failed = _substitute_frozen(state)
                    if failed is not None:
                        return failed
        if not changed:
            return None
    return None


def _relaxation(state: _State) -> bool:
    """Decide the state's lower-bound relaxation, over its columns.

    When it is sat the state has adopted its echelon: its nonzero rows, made
    primitive, over the columns in pivot order and their index, with each
    row's valuations and quiet flag, and no row stale (module docstring).
    Only the root has no echelon yet: its rows go to `solve_geq`, in column
    order, as they are, since a row's multiple has the same solutions, and
    every adopted row is woken.  Every other state's _reprice builds the
    same echelon from its stale rows.  A zeroed variable's floor is +inf,
    which `solve_geq` reads as x = 0.  An unsat relaxation may leave the
    state partly written; the search drops it.
    """
    if state.stale is not None:
        return _reprice(state)
    profs = [state.profiles[v] for v in state.columns]
    A, b = _system(state)
    verdict = solve_geq(GeqProblem(
        tuple(map(tuple, A)), tuple(b), state.prime,
        tuple(prof.lower for prof in profs), tuple(prof.exact_at(state.prime) for prof in profs)
    ), witness=False)
    if verdict.is_unsat:
        return False
    result = verdict.diagnostics["echelon"]
    col_of = inverse_permutation(result.sigma)  # position -> column
    state.columns = [state.columns[c] for c in col_of]
    state.index = {c: j for j, c in enumerate(state.columns)}
    state.rows = [_primitive(row) for row in result.rows[:result.rank]]
    state.valuations = [state.row_valuation(row) for row in state.rows]
    state.quiet, state.stale = [False] * len(state.rows), [False] * len(state.rows)
    return True


def _reprice(state: _State) -> bool:
    """_relaxation from the state's adopted echelon, in one pass over the
    rows that writes the echelon it decides into the state.

    This is pivot_minimal_echelon's loop on the same rows in the same column
    order, and it ends in the same echelon, but it prices only the stale
    rows and the ones an elimination changed, each against the profiles of
    its own nonzero columns.  The rows are independent: an echelon's
    nonzero rows, which no other step rewrites.  So no row is eliminated to
    zero, and no row swap or zero row can occur.  A row that is not stale
    holds no variable narrowed since the state adopted its echelon, and no
    elimination has touched it, so it is still zero left of its old pivot,
    which is still its cheapest entry, so the pivot choice keeps it (the
    leftmost of a tie), and its pivot-bound check still passes, as its rhs
    valuation (digit terms moved in) changes only with a digit child, which
    narrows its variable.  A stale row none of whose costs moved keeps its
    pivot and passes its check for the same reason.

    Each priced row is checked at its own step, as `geq_echelon` does, and
    the pass stops at the first that fails.  The check reads only the row's
    entries and their columns' profiles, which a later column swap permutes
    together, so it reads what the finished echelon would.  It reads the
    row's rhs valuation from `valuations`, computed afresh for a row an
    elimination changed.  Until some pivot moves, every row below step r is
    untouched, so zero at column r, and there is nothing to eliminate.  So
    every edit follows the first column swap, which copies the rows,
    `columns` and `index` the parent shares; later swaps edit the copies.
    """
    p, n, m = state.prime, len(state.columns), len(state.rows)
    rows, columns, index = state.rows, state.columns, state.index
    profiles, vals, stale = state.profiles, state.valuations, state.stale
    moved = False  # a pivot moved, and the state has its own rows, columns and index
    for r in range(m):
        top = rows[r]
        if stale[r]:
            nonzero = nonzero_columns(top, r)
            if not nonzero or nonzero[0] >= n:
                raise InternalError(f"search row {r} lost its pivot: {top}")
            offsets = {}  # by position, for the row's nonzero coefficients
            for j in nonzero[:-1] if top[n] else nonzero:
                prof = profiles[columns[j]]
                offsets[j] = doubled_offset(prof.lower, prof.exact_at(p))
            best = cheapest_column(top, nonzero, n, p, offsets)
            if best != r:
                if not moved:
                    moved = True
                    state.rows = rows = [row[:] for row in rows]
                    state.columns = columns = list(columns)
                    state.index = index = dict(index)
                    top = rows[r]
                for row in rows:
                    row[r], row[best] = row[best], row[r]
                columns[r], columns[best] = columns[best], columns[r]
                index[columns[r]], index[columns[best]] = r, best
        if moved:
            nonzero = nonzero_columns(top, r)
            for i in range(r + 1, m):
                if rows[i][r]:
                    eliminate(rows[i], 0, top, r, nonzero, r)
                    vals[i], stale[i], state.quiet[i] = None, True, False
        if stale[r]:
            if vals[r] is None:
                vals[r] = state.row_valuation(top)
            # exact flags are set only at p = 2
            flagged = [(j, profiles[columns[j]].lower) for j in nonzero
                       if j < n and profiles[columns[j]].exact_at(2)] if p == 2 else []
            prof = profiles[columns[r]]
            offset = prof.lower + prof.exact_at(p)
            if pivot_shortfall(p, top, r, offset, flagged, vals[r][1]) is not None:
                return False
    state.stale = [False] * m
    return True


def _geq_compatible(state: _State, var: str) -> bool:
    prof = state.profiles[var]
    return prof.exact_at(state.prime) or (prof.upper == INF and not prof.excluded)


def _solve_mixed(state: _State, open_: list[int], w: list[PowerSum]) -> Verdict | None:
    """Decide a leaf with open variables (module docstring), given their
    columns in name order and the relaxation's witness w by column.

    Returns None after raising the floors of the open variables the floored
    ones bound, unsat if a raise emptied a window or an open coordinate the
    equations fix is out of range, or sat with the leaf's witness by column.
    """
    p = state.prime
    columns = state.columns
    n = len(columns)
    A, b = _system(state)
    floored = [state.index[v] for v, prof in state.profiles.items() if is_finite(prof.lower)]
    pivots, free, F, minor = solve_affine(A, b, n)  # w solves it
    frozen = {c for c, _ in frozen_coordinates(pivots, F)}
    for u in open_:
        if u in frozen:  # x_u is w_u on every solution
            failed = _fixed_outside(state, columns[u], w[u].valuation())
            if failed is not None:
                return failed
    open_ = [u for u in open_ if u not in frozen]
    # minor N_j as integers: -F_r[:-1] at pivot r, minor e_k at free[k]
    N = {c: [-x for x in F_r[:-1]] for c, F_r in zip(pivots, F)}
    for k, f in enumerate(free):
        N[f] = [minor * (i == k) for i in range(len(free))]
    span_rows = [[N[g][k] for g in floored] for k in range(len(free))]
    lows = [state.profiles[columns[g]].lower for g in floored]
    narrowed = []
    for u in open_:
        # N_u = sum l_g N_g; the particular l is 0 at the span's free
        # columns and F_r[-1] / minor at its pivot r
        span = solve_affine(span_rows, N[u], len(floored))
        if span is None:
            continue
        span_pivots, _, span_F, span_minor = span
        v_minor = int_valuation(span_minor, p)
        var = columns[u]
        # finite: N_u != 0, so some l_g != 0
        bound = min(
            [w[u].valuation()]
            + [int_valuation(F_r[-1], p) - v_minor + lows[i]
               for i, F_r in zip(span_pivots, span_F) if F_r[-1]]
        )
        prof = state.profiles[var]
        _narrow(state, var, VarProfile(bound, prof.upper, prof.excluded))
        narrowed.append(var)
    if narrowed:
        return _check_profiles(state, narrowed)
    # the free case: z in the kernel with z_g = 0 on G, and each open u below
    # v(w_u) so that v(w_u + z_u) = v(z_u)
    caps: list[ExtInt] = [INF] * n
    excluded = [frozenset()] * n
    for u in open_:
        prof = state.profiles[columns[u]]
        caps[u] = min(prof.upper, w[u].valuation() - 1)
        excluded[u] = prof.excluded
    rows = [*A, *([int(j == g) for j in range(n)] for g in floored)]
    verdict = solve_leq(
        LeqProblem(tuple(map(tuple, rows)), (0,) * len(rows), p, tuple(caps), tuple(excluded))
    )
    if not verdict.is_sat:
        raise InternalError(f"the free case has no kernel witness: {verdict.reason}")
    return Verdict.sat(witness=[wj + zj for wj, zj in zip(w, verdict.witness)])


def _solve_leaf(state: _State) -> Verdict | None:
    """Decide a leaf from its sat relaxation, which it has just adopted
    (module docstring); a sat answer maps every variable to a value.  None
    after a raised floor: the state is decided again, with fewer variables
    unbounded below."""
    columns, index = state.columns, state.index
    # the rows are that echelon already: row i pivots at column i, costed
    # with the profiles' floors, as nothing has narrowed since
    digits = {index[v]: digit for v, digit in state.consts.items()}
    w = geq_witness(state.prime, state.rows, [state.profiles[v].lower for v in columns], digits)
    open_ = [index[v] for v in state.profiles if not _geq_compatible(state, v)]
    if open_:
        verdict = _solve_mixed(state, open_, w)
        if verdict is None or verdict.is_unsat:
            return verdict
        w = verdict.witness
    return Verdict.sat(witness=dict(zip(columns, w)))


def _child(state: _State, narrowing, *args) -> _State:
    """A copy of state with narrowing(copy, *args) applied."""
    child = state.copy()
    narrowing(child, *args)
    return child


def _children(state: _State) -> Iterator[_State] | None:
    """The children of the next variable to branch on, lazily and in order,
    or None at a leaf; none has an empty window (module docstring).

    Finite windows come first, smallest first: a pinned valuation at p >= 3
    is split by its leading digit (at p = 2 it is an exact constraint the
    echelon leaf takes directly), any other window into its admissible
    valuations, and the search stops at the first satisfiable one.  Then a
    variable bounded below is split around its least exclusion.

    Unit scaling: while no digit is fixed and every row's rhs is 0, a digit
    split has only its child d = 1.  On such a state x -> u*x, for an
    integer u with p not dividing u, maps solutions to solutions: it keeps
    every homogeneous row and every valuation, so every window, exclusion
    and forced zero.  With u = d^-1 mod p it maps a solution whose split
    variable has digit d to one with digit 1, so child d is sat only if
    child 1 is.  Once a digit is fixed only u = 1 mod p keeps it, so the cut
    fires at most once on any path.
    """
    p = state.prime
    best: tuple[int, str] | None = None
    for var, prof in state.profiles.items():
        if not (is_finite(prof.lower) and is_finite(prof.upper)) or prof.exact_at(p):
            continue
        if prof.lower == prof.upper:
            homogeneous = not state.consts and not any(row[-1] for row in state.rows)
            return (_child(state, _fix_digit, var, d, prof.lower)
                    for d in range(1, 2 if homogeneous else p))
        size = prof.upper - prof.lower + 1 - len(prof.excluded)
        if best is None or size < best[0]:
            best = (size, var)
    if best is not None:
        var = best[1]
        prof = state.profiles[var]
        return (_child(state, _narrow, var, VarProfile(v, v, frozenset()))
                for v in range(prof.lower, prof.upper + 1) if v not in prof.excluded)
    for var, prof in state.profiles.items():
        if prof.upper == INF and is_finite(prof.lower) and prof.excluded:
            x = min(prof.excluded)  # above the lower edge
            return (_child(state, _narrow, var, VarProfile(lower, upper, prof.excluded))
                    for lower, upper in ((prof.lower, x - 1), (x + 1, prof.upper)))
    return None


def _decide(state: _State) -> Verdict | Iterator[_State]:
    """Propagate state, whose every window is nonempty, decide its
    relaxation, and return its verdict or, if it branches, its children.
    A leaf that raised a floor is decided again."""
    while True:
        failed = _propagate(state)
        if failed is not None:
            return failed
        if not _relaxation(state):
            return Verdict.unsat(
                "relaxation", "already the lower-bound relaxation is unsatisfiable"
            )
        children = _children(state)
        if children is not None:
            return children
        verdict = _solve_leaf(state)
        if verdict is not None:
            return verdict


def _solve_state(root: _State) -> Verdict:
    """Search from root, whose every window is nonempty, in one depth-first
    loop over a stack of children iterators: a sat child ends the search, and
    an exhausted iterator is popped.  A sat answer maps each variable to a
    value."""
    outcome = _decide(root)
    if isinstance(outcome, Verdict):
        return outcome  # the root is refuted or decided as a leaf
    frames = [outcome]
    while frames:
        for child in frames[-1]:
            outcome = _decide(child)
            if not isinstance(outcome, Verdict):
                frames.append(outcome)
                break
            if outcome.is_sat:
                return outcome
        else:
            frames.pop()
    return Verdict.unsat("branches-exhausted", "every branch is unsatisfiable")


def solve_complete(norm: NormalizedInstance, prime: int | None = None) -> Verdict:
    """Decide a single-prime normalized instance with arbitrary bound mix."""
    if norm.orders:
        raise InputError("order constraints must go through the combiner")
    if prime is None:
        if not norm.primes:
            raise InputError("a prime is required for valuation-free instances")
        prime = norm.primes[0]
    norm.require_prime(prime)  # multi-prime instances go through the combiner
    # the search's one variable order is the names': the columns start in it
    # (fewer eliminations in the echelon than the declaration order), and the
    # profiles, with each row's valuations, keep it
    columns = sorted(norm.variables)
    position = {v: k for k, v in enumerate(norm.variables)}
    rows = []
    for eq in norm.equations:
        if not any(eq.coeffs):
            if eq.rhs != 0:
                return Verdict.unsat("no-solution", "an equation reads 0 = nonzero")
            continue
        row = integer_row([*(eq.coeffs[position[v]] for v in columns), eq.rhs])[0]
        rows.append(_primitive(row))
    profiles = {var: norm.profile(prime, var) for var in columns}
    state = _State(prime, columns, rows, profiles)
    verdict = _check_profiles(state, profiles)
    if verdict is None:
        verdict = _solve_state(state)
    if verdict.is_sat:
        check = verify_witness(
            Instance(norm.variables, norm.equations, norm.valuations), verdict.witness
        )
        if not check:
            raise InternalError(f"assembled witness rejected: {check.detail}")
    return verdict
