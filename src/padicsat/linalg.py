"""Exact linear algebra over the rationals.

Matrices come in as lists of lists of Fractions and every result is exact.
Three eliminations run on integer rows, each row an exact multiple of its
Fraction row built by integer_row over one positive denominator, and clear
entries through one fraction-free row step, eliminate.  So every pivot,
sign and ratio test is the Fraction one, and Fractions are built only when
a value is read.

The cost-driven echelon and the affine solve know each step's divisor in
advance.  By Sylvester's identity, as in Bareiss's multistep elimination, a
row times its starting scale times the leading minor of the pivots so far
is integral (next_minor tracks the minor and checks it), so eliminate
divides the update by its share of that bound in the same pass, with no gcd
over the row, and an entry never outgrows a minor of the scaled matrix.
The echelon is left-looking: a row is scaled to integers and cleared by
the pivots above it only when the elimination reaches it, each pivot with
its own step's bound, so every integer is the one a right-looking loop
would hold, and a stop at a failing pivot row has cleared no row below it.
It divides each row by its content once at the end, so its rows are the
canonical ones, and returns the last leading minor with them
(EchelonResult.minor).  Cramer's rule (back_substitute) solves such rows in
integers at chosen columns: the affine solve at its free and right-hand
side columns, solver_geq's witness at one summed column per exponent.
The simplex tableau in simplex.py and the search's re-pricing in
complete.py have no such bound: their steps subtract over the pivot row's
nonzero_columns and divide the row by its gcd with its denominator (by its
content for the re-pricing, which keeps rows only up to a factor).

There is one affine solve, solve_affine, and it answers in integers: the
pivot columns, the free columns, F, minor times the reduced echelon form at
the free and right-hand side columns, and the minor.  Its callers read the
particular solution, the kernel and the frozen coordinates off those
integers, and build a Fraction only where they read a value.  A coordinate
is frozen, the same on every solution, exactly when it is a pivot whose row
of F is zero at every free column; frozen_coordinates is the one place that
rule is written.

The module holds only what the solvers call: affine solution spaces and row
echelon forms that pick pivots by a per-column cost.  The Fraction algebra
that audits them (products, the determinant, the Smith normal form) is in
testkit.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import TypeVar

from .errors import InputError, InternalError
from .rational import (
    INF,
    NEG_INF,
    ExtInt,
    as_fraction,
    check_prime,
    int_valuation,
    is_finite,
)

Matrix = list[list[Fraction]]
Vector = list[Fraction]
T = TypeVar("T")


def matrix(rows) -> Matrix:
    """Deep-copy and coerce a nested iterable into a Fraction matrix."""
    out = [[as_fraction(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise InputError("ragged matrix")
    return out


def vector(entries) -> Vector:
    return [as_fraction(x) for x in entries]


def dims(A: Matrix) -> tuple[int, int]:
    return len(A), len(A[0]) if A else 0


def inverse_permutation(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, j in enumerate(sigma):
        inv[j] = i
    return tuple(inv)


def nonzero_columns(row: Vector, start: int) -> list[int]:
    return [j for j in range(start, len(row)) if row[j]]


def subtract_multiple(row: list, factor, source: list, columns: list[int]) -> None:
    """row -= factor * source in place, at the given columns only.

    columns must hold every nonzero entry of source: the echelons pass the
    pivot row's nonzero columns from the pivot on (the pivot row is zero left
    of it), the simplex tableau passes them from 0.
    """
    for j in columns:
        row[j] -= factor * source[j]


def integer_row(entries) -> tuple[list[int], int]:
    """(numerators, den): the rationals as integers over their lcm denominator.

    An all-int row is returned as it is, over 1.  Otherwise an int entry is
    taken as (x, 1) without building a Fraction (an all-Fraction row skips
    the per-entry type tests), and a row whose lcm denominator is 1 skips
    the scaling pass.
    """
    types = set(map(type, entries))
    if types <= {int}:
        return list(entries), 1
    if types == {Fraction}:
        ratios = [x.as_integer_ratio() for x in entries]
    else:
        ratios = [
            (x, 1) if type(x) is int
            else (x if type(x) is Fraction else as_fraction(x)).as_integer_ratio()
            for x in entries
        ]
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return [num for num, _ in ratios], 1
    return [num * (den // d) for num, d in ratios], den


def eliminate(
    row: list[int],
    den: int,
    top: list[int],
    col: int,
    columns: list[int],
    start: int,
    bound: int = 0,
) -> int:
    """Clear row at col with top, fraction-free, in place; returns the new den.

    row / den stands for the Fraction row R and top for any multiple of the
    Fraction row T, with top[col] != 0.  The update is R - (R[col]/T[col]) T:
    with a and piv the entries row[col] and top[col] divided by their gcd and
    signed so that piv > 0, it is (piv row - a top) / raw, raw = den piv.

    With a bound, an integer known to make bound times the result integral
    (by Sylvester's identity, a row's starting scale times the leading minor
    of the echelon so far), raw's part q = raw / gcd(raw, bound) divides
    every entry of piv row - a top, so the update and that division are one
    pass over the row (with no division when q = 1), and the new den is
    raw / q.  den must be positive; the row is exact but need not be
    canonical.

    Without one, the row becomes piv row - a top over raw, and both are
    divided by g = gcd(den, row) when g > 1 (a row cleared to all zeros has
    g = 0).  A canonical row, den > 0 and gcd(den, row) = 1, stays
    canonical, so the integers are the unique ones for the Fraction result.
    den = 0 keeps no scale: it stays 0 and g is the row's content, so the row
    becomes the primitive multiple of the result, for a caller that needs the
    row only up to a nonzero factor.

    Both rows must be zero left of start, and columns must hold every nonzero
    column of top; only row[start:] is touched.
    """
    a, piv = row[col], top[col]
    g = gcd(a, piv)
    if piv < 0:
        g = -g
    a, piv = a // g, piv // g
    den *= piv
    if bound:
        q = den // gcd(den, bound)
        if q != 1:
            row[start:] = [(piv * x - a * t) // q for x, t in zip(row[start:], top[start:])]
        elif piv != 1:
            row[start:] = [piv * x - a * t for x, t in zip(row[start:], top[start:])]
        else:
            subtract_multiple(row, a, top, columns)
        return den // q
    if piv != 1:
        row[start:] = [x * piv for x in row[start:]]
    subtract_multiple(row, a, top, columns)
    g = gcd(den, *row[start:])
    if g > 1:
        row[start:] = [x // g for x in row[start:]]
        den //= g
    return den


def next_minor(minor: int, scale: int, pivot: int, den: int) -> int:
    """The leading minor one pivot on: minor scale |pivot| / den, exact.

    The minors are those of the integer matrix whose row i is scale_i times
    the Fraction row i, scale_i the den integer_row gave it; minor is |det|
    of its leading block so far.  The next pivot row stands for the Fraction
    row pivot_row / den, so scale pivot / den is that matrix's Schur pivot,
    the ratio of the next leading minor to this one.  A remainder means a
    row has left its exact value: InternalError.
    """
    out, rem = divmod(minor * scale * abs(pivot), den)
    if rem:
        raise InternalError(f"leading minor {minor} * {scale} * {pivot} / {den} is not exact")
    return out


# ---------------------------------------------------------------------------
# affine solution spaces


def solve_affine(
    A: Matrix, b: Vector, n: int
) -> tuple[list[int], list[int], list[list[int]], int] | None:
    """Solve A x = b over Q, x in Q^n: (pivots, free, F, minor), or None when
    it is inconsistent.

    pivots are the pivot columns, ascending, and free the other columns,
    ascending.  minor > 0 is |det| of the pivot block of A's rows scaled to
    integers, and F[r] is minor times reduced echelon row r at the columns
    [*free, n]: on the solution with free coordinates t, x at pivots[r] is
    (F[r][-1] - sum_k F[r][k] t[free[k]]) / minor.  So the particular
    solution is 0 at the free columns and F[r][-1] / minor at pivot r, and
    the kernel has one basis vector per free column free[k]: 1 there, 0 at
    the other free columns and -F[r][k] / minor at pivot r.  Both are
    canonical, so any exact elimination gives these rationals.

    The forward phase is the bounded eliminate, each row's bound its
    integer_row scale times the leading minor; back_substitute then gives F.
    n is the width even when A has no rows; entries may be ints or
    Fractions.
    """
    m = len(A)
    if len(b) != m:
        raise InputError("rhs length does not match row count")
    if any(len(row) != n for row in A):
        raise InputError("matrix width does not match the column count")
    # each row of (A | b) over its lcm denominator, its scale
    M, dens = [], []
    for a, rhs in zip(A, b):
        row, den = integer_row((*a, rhs))
        M.append(row)
        dens.append(den)
    scales = dens[:]
    minor = 1  # |det| of the scaled rows' leading block, the pivots so far
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        pivot_row = next((i for i in range(row, m) if M[i][col] != 0), None)
        if pivot_row is None:
            continue
        for seq in (M, dens, scales):
            seq[row], seq[pivot_row] = seq[pivot_row], seq[row]
        top = M[row]
        minor = next_minor(minor, scales[row], top[col], dens[row])
        columns = nonzero_columns(top, col)  # the rhs column n included
        for i in range(row + 1, m):
            if M[i][col] != 0:
                dens[i] = eliminate(M[i], dens[i], top, col, columns, col, scales[i] * minor)
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if M[i][n] != 0:
            return None
    pivot_set = set(pivot_cols)
    free = [f for f in range(n) if f not in pivot_set]
    return pivot_cols, free, back_substitute(M, pivot_cols, [*free, n], minor), minor


def back_substitute(
    rows: list[list[int]], pivots: list[int], columns: list[int], minor: int
) -> list[list[int]]:
    """Cramer's back-substitution: F_r, minor times reduced row r, at columns.

    rows[r], r < len(pivots), is an echelon row pivoting at pivots[r], any
    multiple of its Fraction row, and minor is |det| of the pivot block of
    the integer-scaled rows it was eliminated from.  By Cramer's rule minor
    times the reduced row echelon form is integral, so F_r = (minor row_r -
    sum over s > r of row_r[pivots[s]] F_s) / row_r[pivots[r]] divides
    exactly, and the row's own scale cancels from it.  columns leave out the
    pivot columns, where F_r is minor at pivots[r] and 0 elsewhere.
    """
    k = len(pivots)
    F: list[list[int]] = [[]] * k
    for r in range(k - 1, -1, -1):
        row = rows[r]
        acc = [minor * row[j] for j in columns]
        for s in range(r + 1, k):
            a = row[pivots[s]]
            if a:
                acc = [x - a * y for x, y in zip(acc, F[s])]
        piv = row[pivots[r]]
        F[r] = [x // piv for x in acc]
    return F


def frozen_coordinates(pivots: list[int], F: list[list[int]]) -> list[tuple[int, int]]:
    """(column, numerator) of each coordinate solve_affine's equations fix,
    ascending: the pivot rows whose free entries are all zero, each
    coordinate numerator / minor on every solution.  A free coordinate is
    never fixed."""
    return [(c, F_r[-1]) for c, F_r in zip(pivots, F) if not any(F_r[:-1])]


# ---------------------------------------------------------------------------
# cost-driven row echelon form


def doubled_offset(offset: ExtInt, bias: int) -> ExtInt:
    """2 offset + bias, the column's share of a doubled pivot cost; -inf
    under a -inf offset and +inf under a +inf one."""
    return NEG_INF if offset == NEG_INF else 2 * offset + bias


@dataclass(frozen=True)
class PivotCosts:
    """Per-entry pivot cost v_p(a) + offset_j + bias_j / 2.

    An offset is an int, -inf or +inf.  A zero entry always costs +inf (it
    can never be a pivot), even when its column offset is -inf; that is the
    single place the inf + (-inf) = inf convention applies.  A nonzero entry
    under a +inf offset (a column whose variable must be 0) also costs +inf,
    so it pivots only in a row with nothing cheaper.  Costs are compared on
    the doubled integer scale so no halves ever appear.
    """

    prime: int
    offsets: tuple[ExtInt, ...]
    biases: tuple[int, ...]
    # 2 * offset_j + bias_j per column, -inf where the offset is -inf
    doubled_offsets: tuple[ExtInt, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_prime(self.prime)
        if len(self.offsets) != len(self.biases):
            raise InputError("offsets and biases must have equal length")
        for c in self.offsets:
            if is_finite(c) and not isinstance(c, int):
                raise InputError(f"offset must be an int or +-inf, got {c!r}")
        if any(b not in (0, 1) for b in self.biases):
            raise InputError("biases must be 0 or 1")
        object.__setattr__(self, "doubled_offsets", tuple(
            map(doubled_offset, self.offsets, self.biases)
        ))


@dataclass
class EchelonResult:
    """B = U @ A @ P(sigma), in row echelon form with cost-minimal pivots.

    U is the invertible m x m product of the row operations; it is not kept,
    only its action on the caller's right-hand sides (carried = U @ rhs).
    """

    rows: list[list[int]]       # row i of (B | carried), times dens[i]
    dens: list[int]             # positive
    width: int                  # columns of B; the rest of each row is carried
    sigma: tuple[int, ...]      # column permutation; B's col j holds A's col sigma^-1(j)
    pivots: tuple[int, ...]     # pivot column positions of the nonzero rows
    # |det| of the pivot block of the rows of (A | rhs) scaled to integers, as
    # back_substitute takes it
    minor: int

    @property
    def rank(self) -> int:
        return len(self.pivots)


def cheapest_column(
    row: list[int],
    columns: list[int],
    n: int,
    p: int,
    doubled_offsets: Sequence[ExtInt] | Mapping[int, ExtInt],
) -> int:
    """The pivot position of row: the cheapest of its entries at columns.

    columns are the row's nonzero positions, ascending, the first one below
    n (positions from n on are carried and never pivots); doubled_offsets[j]
    is the doubled_offset of the column at position j, read from any lookup
    by position that holds the row's nonzero positions below n (a list by
    position, or a dict of just those).  A zero entry costs +inf, so the
    nonzero columns hold the cheapest entry: the least doubled cost
    2 v_p(a) plus the doubled offset, the leftmost of a tie (the first
    column when every cost is +inf under +inf offsets), and the first -inf
    offset ends the search.  An entry's doubled cost is at least its doubled
    offset, so an entry whose offset reaches the best cost so far cannot win
    and its valuation is not taken.
    """
    best, best_cost = columns[0], INF
    for j in columns:
        if j >= n:
            break
        offset = doubled_offsets[j]
        if offset == NEG_INF:
            return j
        if offset >= best_cost:
            continue
        cost = 2 * int_valuation(row[j], p) + offset
        if cost < best_cost:
            best, best_cost = j, cost
    return best


def pivot_minimal_echelon(
    A: Matrix,
    costs: PivotCosts,
    rhs: Matrix,
    check: Callable[[list[int], int, int, list[int]], T | None] | None = None,
) -> EchelonResult | T:
    """Gaussian elimination with full column choice by minimal pivot cost.

    At each step the working submatrix's top row is made nonzero by a row
    swap, the cheapest entry of that row (ties: leftmost) is swapped into the
    diagonal position, and it becomes the pivot row of that column.  The
    result is a row echelon form in which every pivot minimizes the cost over
    its row's remaining columns.

    The order is left-looking.  An input row is scaled by integer_row when
    the elimination first reaches it, as step r's top row or in the search
    for a nonzero one below, and is then cleared by pivots 0..r-1, pivot s
    with step s's bound: the row's starting scale times the leading minor
    once pivot s is in.  A later column swap permutes only positions past
    the pivots, so the integers are those of clearing every row below at
    every step.  Each pivot row keeps its nonzero-column list, updated at
    each later swap, for eliminate.  Once the loop ends, the rows from the
    rank on are cleared through every pivot, and the result carries the last
    leading minor (minor), as back_substitute takes it.

    rhs is an m x k block that undergoes the same row operations as A; pass
    the right-hand side of A x = b as one column, or testkit.identity(m) to read the
    transform U itself from the result's carried block.

    check, when given, is called at step r as check(row, den, r, col_of) once
    row r is fixed: after its column swap, before any row below reads it.
    row / den is the echelon's Fraction row r (the final gcd is not yet
    taken, so row is a multiple of the returned one), and col_of[j] the
    original column at position j.  Neither row r nor the rows above it
    change after that, and later swaps only permute the positions past r.
    The first value other than None that check returns stops the
    elimination there, with only rows 0..r (and those the search for a
    nonzero row read) cleared, and is returned in place of the echelon.
    """
    m, n = dims(A)
    if m == 0:
        n = len(costs.offsets)  # no rows: take the width from the costs
    elif len(costs.offsets) != n:
        raise InputError("cost vector length does not match column count")
    if len(rhs) != m:
        raise InputError("rhs row count does not match the matrix")
    if any(len(a) != n for a in A) or len({len(b) for b in rhs}) > 1:
        raise InputError("ragged matrix")
    # the rows reached so far, a prefix of the input: row i of (A | rhs) over
    # its lcm denominator dens[i], times its starting scale scales[i]
    rows: list[list[int]] = []
    dens: list[int] = []
    scales: list[int] = []
    minors = [1]  # minors[s]: |det| of the leading block of the first s pivots
    pivot_columns: list[list[int]] = []  # pivot row s's nonzero positions from s on
    col_of = list(range(n))  # col_of[j]: original column currently at position j
    p, offsets = costs.prime, list(costs.doubled_offsets)  # offsets[j]: at position j

    def clear(i: int) -> list[int]:
        """Row i cleared through every pivot so far, pivot s with its own
        step's bound.  The next input row is first scaled to integers, in the
        current column order.  A row already cleared through some pivots is
        zero at their positions, which later swaps never move, so it walks
        every pivot and skips those."""
        if i == len(rows):
            a = A[i]
            row, den = integer_row([a[c] for c in col_of] + list(rhs[i]))
            rows.append(row)
            dens.append(den)
            scales.append(den)
        row, den, scale = rows[i], dens[i], scales[i]
        for s, nonzero in enumerate(pivot_columns):
            if row[s]:
                den = eliminate(row, den, rows[s], s, nonzero, s, scale * minors[s + 1])
        dens[i] = den
        return row

    r = 0
    while r < m and r < n:
        top = clear(r)
        columns = nonzero_columns(top, r)  # the carried columns from n on included
        if not columns or columns[0] >= n:
            swap = next((i for i in range(r + 1, m) if any(clear(i)[r:n])), None)
            if swap is None:
                break
            for seq in (rows, dens, scales):
                seq[r], seq[swap] = seq[swap], seq[r]
            top = rows[r]
            columns = nonzero_columns(top, r)
        best = cheapest_column(top, columns, n, p, offsets)
        if best != r:
            col_of[r], col_of[best] = col_of[best], col_of[r]
            offsets[r], offsets[best] = offsets[best], offsets[r]
            top[r], top[best] = top[best], top[r]
            if not top[best]:  # the top row's nonzero entry at best moved to r
                columns[columns.index(best)] = r
            # the rows reached past r are zero from r on; a pivot row nonzero
            # at just one of the two positions moves it in its column list
            for row, nonzero in zip(rows, pivot_columns):
                x, y = row[r], row[best]
                if x or y:
                    row[r], row[best] = y, x
                    if not x:
                        nonzero[nonzero.index(best)] = r
                    elif not y:
                        nonzero[nonzero.index(r)] = best
        if check is not None:
            stop = check(top, dens[r], r, col_of)
            if stop is not None:
                return stop
        minors.append(next_minor(minors[-1], scales[r], top[r], dens[r]))
        pivot_columns.append(columns)
        r += 1
    for i in range(r, m):  # the zero rows, which the caller reads
        clear(i)
    # the bounded steps keep each row exact, not canonical: one gcd a row
    for i, (row, den) in enumerate(zip(rows, dens)):
        g = gcd(den, *row)
        if g > 1:
            rows[i] = [x // g for x in row]
            dens[i] = den // g
    sigma = [0] * n
    for pos, orig in enumerate(col_of):
        sigma[orig] = pos
    # row i < r pivots at position i: each row was cleared left of its
    # diagonal, and the rows from r on are zero
    return EchelonResult(rows, dens, n, tuple(sigma), tuple(range(r)), minors[-1])
