"""Exact linear algebra over the rationals.

Matrices come in as lists of lists of Fractions and every result is exact.
Three eliminations run on integer rows, each row an exact multiple of its
Fraction row built by integer_row, and clear entries through one fraction-
free row step, eliminate: the cost-driven echelon and the simplex tableau in
simplex.py keep each row over one positive denominator, and the affine solve
keeps its rows only up to a factor.  So an entry never outgrows a minor of
the scaled matrix, and every pivot, sign and ratio test is the Fraction one;
Fractions are built only when a value is read.  Each row update goes through
subtract_multiple over the pivot row's nonzero_columns, so a sparse matrix
costs what its nonzeros cost.

The module holds only what the solvers call: affine solution spaces and row
echelon forms that pick pivots by a per-column cost.  The Fraction algebra
that audits them (products, the determinant, the Smith normal form) is in
testkit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError
from .rational import (
    INF,
    NEG_INF,
    ExtInt,
    as_fraction,
    check_prime,
    int_valuation,
)

Matrix = list[list[Fraction]]
Vector = list[Fraction]


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
    taken as (x, 1) without building a Fraction, and a row whose lcm
    denominator is 1 skips the scaling pass.
    """
    if set(map(type, entries)) <= {int}:
        return list(entries), 1
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
    row: list[int], den: int, top: list[int], col: int, columns: list[int], start: int
) -> int:
    """Clear row at col with top, fraction-free, in place; returns the new den.

    row / den stands for the Fraction row R and top for any multiple of the
    Fraction row T, with top[col] != 0.  The update is R - (R[col]/T[col]) T:
    with a and piv the entries row[col] and top[col] divided by their gcd and
    signed so that piv > 0, row becomes piv row - a top over den piv, and
    both are divided by g = gcd(den, row) when g > 1 (a row cleared to all
    zeros has g = 0).  A canonical row, den > 0 and gcd(den, row) = 1, stays
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
    if piv != 1:
        row[start:] = [x * piv for x in row[start:]]
    subtract_multiple(row, a, top, columns)
    den *= piv
    g = gcd(den, *row[start:])
    if g > 1:
        row[start:] = [x // g for x in row[start:]]
        den //= g
    return den


# ---------------------------------------------------------------------------
# affine solution spaces


@dataclass
class SolutionSpace:
    """All solutions of A x = b, as particular + span(basis)."""

    particular: Vector
    basis: list[Vector]


def solve_affine(A: Matrix, b: Vector, n: int) -> SolutionSpace | None:
    """Solve A x = b over Q, x in Q^n.  Returns None when it is inconsistent.

    The particular solution sets all free coordinates to 0; the basis spans
    the kernel of A, one vector per free coordinate, e_f on the free ones.
    Both are canonical, so any exact elimination gives these Fractions.  n is
    the width even when A has no rows; entries may be ints or Fractions.
    """
    m = len(A)
    if len(b) != m:
        raise InputError("rhs length does not match row count")
    if any(len(row) != n for row in A):
        raise InputError("matrix width does not match the column count")
    # each row of (A | b) over its lcm denominator: a row's multiple has the
    # same solutions, so the denominators are dropped and eliminate keeps
    # none (den 0)
    M = [integer_row((*A[i], b[i]))[0] for i in range(m)]
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        pivot_row = next((i for i in range(row, m) if M[i][col] != 0), None)
        if pivot_row is None:
            continue
        M[row], M[pivot_row] = M[pivot_row], M[row]
        columns = nonzero_columns(M[row], col)  # the rhs column n included
        for i in range(row + 1, m):
            if M[i][col] != 0:
                eliminate(M[i], 0, M[row], col, columns, col)
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if M[i][n] != 0:
            return None
    # clear above the pivots too, last pivot first: a pivot row is then
    # already zero at every later pivot column, so it adds no fill there
    for r in range(len(pivot_cols) - 1, 0, -1):
        col = pivot_cols[r]
        columns = nonzero_columns(M[r], col)
        for i in range(r):
            if M[i][col] != 0:
                eliminate(M[i], 0, M[r], col, columns, pivot_cols[i])
    # row r now reads piv x_c + sum over free f of a_f x_f = rhs
    pivot_set = set(pivot_cols)
    free = [f for f in range(n) if f not in pivot_set]
    # one shared zero and one shared one: Fractions are immutable
    zero, one = Fraction(0), Fraction(1)
    particular = [zero] * n
    basis = [[zero] * n for _ in free]
    for vec, f in zip(basis, free):
        vec[f] = one
    for r, c in enumerate(pivot_cols):
        top = M[r]
        piv = top[c]
        particular[c] = Fraction(top[n], piv)
        for vec, f in zip(basis, free):
            if top[f]:
                vec[c] = Fraction(-top[f], piv)
    return SolutionSpace(particular, basis)


def frozen_coordinates(space: SolutionSpace) -> list[int]:
    """The coordinates zero in every kernel vector, ascending: each takes its
    particular value on every solution."""
    return [
        j for j in range(len(space.particular))
        if all(vec[j] == 0 for vec in space.basis)
    ]


# ---------------------------------------------------------------------------
# cost-driven row echelon form


def doubled_offset(offset: ExtInt, bias: int) -> ExtInt:
    """2 offset + bias, the column's share of a doubled pivot cost; -inf
    under a -inf offset."""
    return NEG_INF if offset == NEG_INF else 2 * offset + bias


@dataclass(frozen=True)
class PivotCosts:
    """Per-entry pivot cost v_p(a) + offset_j + bias_j / 2.

    A zero entry always costs +inf (it can never be a pivot), even when its
    column offset is -inf; that is the single place the inf + (-inf) = inf
    convention applies.  Costs are compared on the doubled integer scale so no
    halves ever appear.
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
            if c != NEG_INF and not isinstance(c, int):
                raise InputError(f"offset must be an int or -inf, got {c!r}")
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

    @property
    def rank(self) -> int:
        return len(self.pivots)


def cheapest_column(
    row: list[int], columns: list[int], n: int, p: int, doubled_offsets: list[ExtInt]
) -> int:
    """The pivot position of row: the cheapest of its entries at columns.

    columns are the row's nonzero positions, ascending, the first one below
    n (positions from n on are carried and never pivots); doubled_offsets[j]
    is the doubled_offset of the column at position j.  A zero entry costs
    +inf and every nonzero one less, so the nonzero columns hold the
    cheapest entry: the least doubled cost 2 v_p(a) plus the doubled offset,
    the leftmost of a tie, and the first -inf offset ends the search.
    """
    best, best_cost = columns[0], INF
    for j in columns:
        if j >= n:
            break
        offset = doubled_offsets[j]
        if offset == NEG_INF:
            return j
        cost = 2 * int_valuation(row[j], p) + offset
        if cost < best_cost:
            best, best_cost = j, cost
    return best


def pivot_minimal_echelon(A: Matrix, costs: PivotCosts, rhs: Matrix) -> EchelonResult:
    """Gaussian elimination with full column choice by minimal pivot cost.

    At each step the working submatrix's top row is made nonzero by a row
    swap, the cheapest entry of that row (ties: leftmost) is swapped into the
    diagonal position, and the entries below it are eliminated.  The result is
    a row echelon form in which every pivot minimizes the cost over its row's
    remaining columns.

    rhs is an m x k block that undergoes the same row operations as A; pass
    the right-hand side of A x = b as one column, or testkit.identity(m) to read the
    transform U itself from the result's carried block.
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
    rows, dens = [], []
    for a, b in zip(A, rhs):  # each row of (A | rhs) over its lcm denominator
        row, den = integer_row((*a, *b))
        rows.append(row)
        dens.append(den)
    col_of = list(range(n))  # col_of[j]: original column currently at position j
    p, offsets = costs.prime, list(costs.doubled_offsets)  # offsets[j]: at position j
    r = 0
    while r < m and r < n:
        top = rows[r]
        columns = nonzero_columns(top, r)  # the carried columns from n on included
        if not columns or columns[0] >= n:
            swap = next((i for i in range(r + 1, m) if any(rows[i][r:n])), None)
            if swap is None:
                break
            rows[r], rows[swap] = rows[swap], rows[r]
            dens[r], dens[swap] = dens[swap], dens[r]
            top = rows[r]
            columns = nonzero_columns(top, r)
        best = cheapest_column(top, columns, n, p, offsets)
        if best != r:
            for row in rows:
                row[r], row[best] = row[best], row[r]
            col_of[r], col_of[best] = col_of[best], col_of[r]
            offsets[r], offsets[best] = offsets[best], offsets[r]
            columns = nonzero_columns(top, r)
        for i in range(r + 1, m):
            if rows[i][r]:
                dens[i] = eliminate(rows[i], dens[i], top, r, columns, r)
        r += 1
    sigma = [0] * n
    for pos, orig in enumerate(col_of):
        sigma[orig] = pos
    # row i < r pivots at position i: the rows below each pivot were cleared
    # left of it, and the rows from r on are zero
    return EchelonResult(rows, dens, n, tuple(sigma), tuple(range(r)))
