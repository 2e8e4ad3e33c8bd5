"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of Fractions and every result is exact.
Four eliminations share one row-update step, subtract_multiple over the
pivot row's nonzero_columns: the determinant, affine solution spaces and the
cost-driven echelon here, and the simplex tableau in simplex.py.  A row update
touches only the pivot row's nonzero entries, so a sparse matrix costs what
its nonzeros cost; since x - f*0 = x, the values are those of a dense update.
The module provides the workhorses the solvers need: affine solution spaces,
row echelon forms that pick pivots by a per-column cost, and the Smith normal
form over Z used by the independent divisibility oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .rational import (
    INF,
    NEG_INF,
    ExtInt,
    RationalLike,
    as_fraction,
    check_prime,
    is_finite,
    valuation,
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


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def dims(A: Matrix) -> tuple[int, int]:
    return len(A), len(A[0]) if A else 0


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    m, k = dims(A)
    k2, n = dims(B)
    if k != k2:
        raise InputError(f"shape mismatch {m}x{k} * {k2}x{n}")
    out = zeros(m, n)
    for i in range(m):
        Ai = A[i]
        for j in range(n):
            out[i][j] = sum((Ai[t] * B[t][j] for t in range(k)), Fraction(0))
    return out


def mat_vec(A: Matrix, x: Vector) -> Vector:
    m, n = dims(A)
    if len(x) != n:
        raise InputError("shape mismatch in mat_vec")
    return [sum((A[i][j] * x[j] for j in range(n)), Fraction(0)) for i in range(m)]


def permutation_matrix(sigma: tuple[int, ...]) -> Matrix:
    """P with P[i][j] = 1 iff j == sigma[i] (so P acts on columns from the right)."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise InputError(f"not a permutation of 0..{n - 1}: {sigma}")
    P = zeros(n, n)
    for i, j in enumerate(sigma):
        P[i][j] = Fraction(1)
    return P


def inverse_permutation(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, j in enumerate(sigma):
        inv[j] = i
    return tuple(inv)


def nonzero_columns(row: Vector, start: int) -> list[int]:
    return [j for j in range(start, len(row)) if row[j]]


def subtract_multiple(
    row: Vector, factor: Fraction, source: Vector, columns: list[int]
) -> None:
    """row -= factor * source in place, at the given columns only.

    columns must hold every nonzero entry of source: the eliminations here
    pass the pivot row's nonzero columns from the pivot on (both rows are zero
    left of it), the simplex tableau passes them from 0.
    """
    for j in columns:
        row[j] -= factor * source[j]


def determinant(A: Matrix) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    m, n = dims(A)
    if m != n:
        raise InputError("determinant of non-square matrix")
    work = [row[:] for row in A]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        top = work[col]
        pivot = top[col]
        det *= pivot
        columns = nonzero_columns(top, col)
        for i in range(col + 1, n):
            if work[i][col] != 0:
                subtract_multiple(work[i], work[i][col] / pivot, top, columns)
    return det


# ---------------------------------------------------------------------------
# affine solution spaces


@dataclass
class SolutionSpace:
    """All solutions of A x = b, as particular + span(basis)."""

    particular: Vector
    basis: list[Vector]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def solve_affine(A: Matrix, b: Vector) -> SolutionSpace | None:
    """Solve A x = b over Q.  Returns None when the system is inconsistent.

    The particular solution sets all free coordinates to 0; the basis spans
    the kernel of A, one vector per free coordinate.
    """
    m, n = dims(A)
    if len(b) != m:
        raise InputError("rhs length does not match row count")
    M = [[as_fraction(x) for x in A[i]] + [as_fraction(b[i])] for i in range(m)]
    # forward elimination only: the echelon form keeps sparse inputs sparse,
    # where a full Gauss-Jordan reduction would densify them
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        pivot_row = next((i for i in range(row, m) if M[i][col] != 0), None)
        if pivot_row is None:
            continue
        M[row], M[pivot_row] = M[pivot_row], M[row]
        pivot = M[row][col]
        columns = nonzero_columns(M[row], col)  # the rhs column n included
        for i in range(row + 1, m):
            if M[i][col] != 0:
                subtract_multiple(M[i], M[i][col] / pivot, M[row], columns)
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if M[i][n] != 0:
            return None

    pivot_set = set(pivot_cols)

    def back_substitute(rhs_of, free_value_of):
        # echelon rows have zeros left of their pivots, so row r only
        # involves columns >= pivot_cols[r]
        vec = [
            free_value_of(c) if c not in pivot_set else Fraction(0)
            for c in range(n)
        ]
        for r in range(len(pivot_cols) - 1, -1, -1):
            c = pivot_cols[r]
            acc = rhs_of(r)
            for j in range(c + 1, n):
                if M[r][j] != 0 and vec[j] != 0:
                    acc -= M[r][j] * vec[j]
            vec[c] = acc / M[r][c]
        return vec

    particular = back_substitute(lambda r: M[r][n], lambda c: Fraction(0))
    basis = [
        back_substitute(lambda r: Fraction(0), lambda c: Fraction(int(c == f)))
        for f in range(n)
        if f not in pivot_set
    ]
    return SolutionSpace(particular, basis)


# ---------------------------------------------------------------------------
# cost-driven row echelon form


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

    def __post_init__(self):
        check_prime(self.prime)
        if len(self.offsets) != len(self.biases):
            raise InputError("offsets and biases must have equal length")
        for c in self.offsets:
            if not (is_finite(c) and isinstance(c, int)) and c != NEG_INF:
                raise InputError(f"offset must be an int or -inf, got {c!r}")
        if any(b not in (0, 1) for b in self.biases):
            raise InputError("biases must be 0 or 1")

    @classmethod
    def uniform(cls, p: int, n: int) -> "PivotCosts":
        return cls(p, (0,) * n, (0,) * n)

    def doubled_cost(self, a: Fraction, j: int) -> ExtInt:
        """2 * cost of entry a in original column j, as an exact ExtInt."""
        if a == 0:
            return INF
        c = self.offsets[j]
        if c == NEG_INF:
            return NEG_INF
        return 2 * valuation(a, self.prime) + 2 * c + self.biases[j]


@dataclass
class EchelonResult:
    """B = U @ A @ P(sigma), in row echelon form with cost-minimal pivots.

    U is the invertible m x m product of the row operations; it is not kept,
    only its action on the caller's right-hand sides (carried = U @ rhs).
    """

    carried: Matrix             # U @ rhs, m x k
    sigma: tuple[int, ...]      # column permutation; B's col j holds A's col sigma^-1(j)
    echelon: Matrix
    pivots: tuple[int, ...]     # pivot column positions of the nonzero rows

    @property
    def rank(self) -> int:
        return len(self.pivots)


def pivot_minimal_echelon(A: Matrix, costs: PivotCosts, rhs: Matrix) -> EchelonResult:
    """Gaussian elimination with full column choice by minimal pivot cost.

    At each step the working submatrix's top row is made nonzero by a row
    swap, the cheapest entry of that row (ties: leftmost) is swapped into the
    diagonal position, and the entries below it are eliminated.  The result is
    a row echelon form in which every pivot minimizes the cost over its row's
    remaining columns.

    rhs is an m x k block that undergoes the same row operations as A; pass
    the right-hand side of A x = b as one column, or identity(m) to read the
    transform U itself from the result's carried block.
    """
    m, n = dims(A)
    if m == 0:
        n = len(costs.offsets)  # no rows: take the width from the costs
    elif len(costs.offsets) != n:
        raise InputError("cost vector length does not match column count")
    if len(rhs) != m:
        raise InputError("rhs row count does not match the matrix")
    B = matrix(A)
    R = matrix(rhs)
    col_of = list(range(n))  # col_of[j]: original column currently at position j
    r = 0
    while r < m and r < n:
        top = B[r]
        columns = nonzero_columns(top, r)
        if not columns:
            swap = next(
                (i for i in range(r + 1, m) if any(B[i][j] != 0 for j in range(r, n))),
                None,
            )
            if swap is None:
                break
            B[r], B[swap] = B[swap], B[r]
            R[r], R[swap] = R[swap], R[r]
            top = B[r]
            columns = nonzero_columns(top, r)
        # a zero entry costs +inf and every nonzero one less, so the nonzero
        # columns hold the cheapest entry
        best = min(columns, key=lambda j: (costs.doubled_cost(top[j], col_of[j]), j))
        if best != r:
            for row in B:
                row[r], row[best] = row[best], row[r]
            col_of[r], col_of[best] = col_of[best], col_of[r]
            columns = nonzero_columns(top, r)
        pivot = top[r]
        carried = nonzero_columns(R[r], 0)
        for i in range(r + 1, m):
            if B[i][r] != 0:
                factor = B[i][r] / pivot
                subtract_multiple(B[i], factor, top, columns)
                subtract_multiple(R[i], factor, R[r], carried)
        r += 1
    sigma = [0] * n
    for pos, orig in enumerate(col_of):
        sigma[orig] = pos
    # row i < r pivots at position i: the rows below each pivot were cleared
    # left of it, and the rows from r on are zero
    return EchelonResult(R, tuple(sigma), B, tuple(range(r)))


# ---------------------------------------------------------------------------
# Smith normal form over Z


def smith_normal_form(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with D = U @ A @ V diagonal, U and V unimodular,
    diagonal entries nonnegative and each dividing the next.

    Classic elementary-operation algorithm: pull the smallest nonzero entry of
    the working submatrix to the corner, clear its row and column with
    Euclidean steps (swapping back whenever a remainder survives, which
    strictly shrinks the corner), and when the corner divides everything left,
    move on.  A row-add step repairs the divisibility chain when some interior
    entry is not a multiple of the corner.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    for row in A:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError("smith_normal_form expects integer entries")
    D = [list(row) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    for t in range(min(m, n)):
        entries = [
            (abs(D[i][j]), i, j)
            for i in range(t, m)
            for j in range(t, n)
            if D[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            # clear column t below the corner
            restart = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    add_row(i, t, -q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
                        restart = True
            if restart:
                continue
            # clear row t right of the corner
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    add_col(j, t, -q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
                        restart = True
            if restart:
                continue
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if D[i][j] % D[t][t] != 0
                ),
                None,
            )
            if offender is None:
                break
            add_row(t, offender[0], 1)
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
    return U, D, V
