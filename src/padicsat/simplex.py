"""Exact rational linear programming for strict/weak order systems.

Decides systems  A x = b,  C x <= d,  E x < f  over the rationals.  The
strict block is handled through a slack objective: maximize t subject to
E x + t <= f and t <= 1; the strict system is feasible exactly when the
optimum t* is positive.  Bland's rule makes the search terminate.  The
tableau holds exact integer rows that clear through linalg.eliminate, so the
pivots, points and certificates are those of a Fraction tableau.

Phase 1 starts from the slack basis where it can: an inequality row whose
rhs is >= 0 (weak, strict and t <= 1 rows) starts with its own slack basic,
and only equality rows and rows negated for a negative rhs start on their
artificial.  Every row still has an artificial column and every artificial
still costs 1 in phase 1, so the duals are read off that identity block as
before (see _Tableau.solve).

Infeasibility is returned with a Farkas certificate (lam, mu, nu):
multipliers with lam^T A + mu^T C + nu^T E = 0, mu >= 0, nu >= 0, whose
combined right-hand side  value = lam^T b + mu^T d + nu^T f  refutes the
system: value < 0 refutes even the weak relaxation, and value <= 0 with
nu != 0 refutes strictness.  Certificates are re-verified by
certify.check_certificate before being handed out; a failure there is an
internal error, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .certify import check_certificate
from .errors import InputError, InternalError
from .linalg import eliminate, integer_row, nonzero_columns
from .rational import as_fraction

Row = list[Fraction]


@dataclass(frozen=True)
class LpFeasible:
    """A strictly feasible point; threshold is the slack optimum t* > 0."""

    x: tuple[Fraction, ...]
    threshold: Fraction


@dataclass(frozen=True)
class LpInfeasible:
    """Farkas multipliers refuting the system; see certify.check_certificate."""

    lam: tuple[Fraction, ...]
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]
    value: Fraction


def _as_rows(rows) -> list[Row]:
    return [[as_fraction(c) for c in row] for row in rows] if rows else []


class _Tableau:
    """Simplex tableau with Bland's rule, each row integers over one denominator.

    Row i of (T | rhs) stands for rows[i] / dens[i] with dens[i] > 0, in
    linalg.eliminate's canonical form; row m is the cost row, whose rhs entry
    is minus the objective.  A basic column holds its row's den there and 0 in
    every other row.  A pivot clears only the rows with a nonzero in the pivot
    column.  Signs and ratios are read off the integers, since every den is
    positive; Fractions are built only when a value is read.

    The start basis takes a row's slack where the row keeps its sign and has
    one, and the row's artificial otherwise; both are unit columns of their
    row, so the start tableau is already canonical.  The artificial columns
    form an identity block whatever the start basis, so a column's reduced
    cost c_j - y^T a_j at the end of a phase gives y_i = c_art - zrow[art_i]
    for every row, basic artificial or not.
    """

    def __init__(
        self,
        rows: list[list[int]],
        dens: list[int],
        num_real: int,
        slacks: list[int | None],
    ):
        """rows: the real columns and the rhs of each row, over dens.

        slacks[i] is the real column of row i's slack, which holds den in
        row i and 0 in every other row, or None for an equality row.
        """
        self.m = m = len(rows)
        self.num_real = num_real
        self.width = num_real + m
        self.flips = []
        self.rows = []
        self.basis = []
        # one artificial per row, after the real columns; a row with a
        # negative rhs is negated first, its artificial is not.  A row that
        # keeps its sign and has a slack starts with the slack basic, every
        # other row with its artificial
        for i, (row, den, slack) in enumerate(zip(rows, dens, slacks)):
            sign = -1 if row[-1] < 0 else 1
            self.flips.append(sign)
            artificial = [0] * m
            artificial[i] = den
            self.rows.append([sign * c for c in row[:-1]] + artificial + [sign * row[-1]])
            self.basis.append(num_real + i if slack is None or sign < 0 else slack)
        self.rows.append([])  # the cost row, set by _set_cost
        self.dens = [*dens, 1]

    def _pivot(self, i: int, j: int) -> None:
        rows, dens = self.rows, self.dens
        top = rows[i]
        g = gcd(*top) if top[j] > 0 else -gcd(*top)
        if g != 1:
            top = rows[i] = [c // g for c in top]
        dens[i] = top[j]
        # unlike an echelon row, a tableau row has nonzeros left of its pivot
        columns = nonzero_columns(top, 0)
        for k in range(self.m + 1):
            if k != i and rows[k][j]:
                dens[k] = eliminate(rows[k], dens[k], top, j, columns, 0)
        self.basis[i] = j

    def _run(self, limit: int) -> None:
        """Pivot until no column below limit has a negative reduced cost."""
        rows, basis = self.rows, self.basis
        while True:
            zrow = rows[self.m]  # den > 0: the sign of the Fraction entry
            entering = next(
                (j for j in range(limit) if zrow[j] < 0 and j not in basis), None
            )
            if entering is None:
                return
            # rhs_i / a_i against the best so far: each row's den cancels
            leaving = None
            for i in range(self.m):
                a = rows[i][entering]
                if a > 0:
                    rhs = rows[i][-1]
                    if (
                        leaving is None
                        or (cross := rhs * best_a - best_rhs * a) < 0
                        or (cross == 0 and basis[i] < basis[leaving])
                    ):
                        best_rhs, best_a, leaving = rhs, a, i
            if leaving is None:
                raise InternalError("slack program claims an unbounded objective")
            self._pivot(leaving, entering)

    def _set_cost(self, cost: list[int]) -> None:
        """Install cost (over den 1) as the cost row, reduced by the basis."""
        zrow = self.rows[self.m] = [*cost, 0]
        den = 1
        for i, j in enumerate(self.basis):
            if zrow[j]:
                top = self.rows[i]
                den = eliminate(zrow, den, top, j, nonzero_columns(top, 0), 0)
        self.dens[self.m] = den

    def _dual(self, i: int) -> Fraction:
        """The cost row's entry at row i's artificial column."""
        return Fraction(self.rows[self.m][self.num_real + i], self.dens[self.m])

    def _purge_artificials(self) -> None:
        """Pivot zero-valued basic artificials out before phase 2.

        Later pivots rewrite every row's right-hand side, so an artificial
        left in the basis could silently climb back above zero.  A row whose
        real entries are all zero is redundant; its artificial stays, but no
        phase-2 pivot can touch that row (the entering column is always real
        and has a zero entry there).
        """
        for i in range(self.m):
            if self.basis[i] < self.num_real:
                continue
            for j in range(self.num_real):
                if self.rows[i][j] != 0:
                    self._pivot(i, j)
                    break

    def solve(self, cost_real: list[int]):
        """Two phases; returns (objective, duals y for the original rows)."""
        m = self.m
        self._set_cost([0] * self.num_real + [1] * m)
        self._run(self.width)
        # the phase-1 optimum sums the basic artificials' rhs, all >= 0
        if self.rows[m][-1] < 0:
            # duals off the artificial columns: y_i = 1 - zrow[artificial i]
            return None, [self.flips[i] * (1 - self._dual(i)) for i in range(m)]
        self._purge_artificials()
        self._set_cost(cost_real + [0] * m)
        self._run(self.num_real)
        objective = Fraction(-self.rows[m][-1], self.dens[m])
        return objective, [-self.flips[i] * self._dual(i) for i in range(m)]

    def value_of(self, j: int) -> Fraction:
        for i in range(self.m):
            if self.basis[i] == j:
                return Fraction(self.rows[i][-1], self.dens[i])
        return Fraction(0)


def lp_feasible(A, b, C, d, E, f) -> LpFeasible | LpInfeasible:
    """Decide A x = b, C x <= d, E x < f over the rationals.

    Every row of the three blocks must have the same width and every block
    its right-hand side per row; otherwise InputError.  The returned object
    is always re-checked: a feasible point is plugged into every row, a
    certificate goes through check_certificate.
    """
    widths = {len(r) for r in (*A, *C, *E)}
    if len(widths) > 1:
        raise InputError(f"order rows of unequal widths {sorted(widths)}")
    if (len(A), len(C), len(E)) != (len(b), len(d), len(f)):
        raise InputError("a right-hand side does not match its block's rows")
    n = widths.pop() if widths else 0
    b = [as_fraction(v) for v in b]
    d = [as_fraction(v) for v in d]
    f = [as_fraction(v) for v in f]
    mA, mC, mE = len(A), len(C), len(E)
    # columns: u (n), w (n), t+, t-, weak slacks (mC), strict slacks (mE), t slack
    num_real = 2 * n + 2 + mC + mE + 1
    # each row of (block | rhs) as integers over its lcm denominator den; the
    # Fraction row's slack and t entries of +-1 become +-den, so every int row
    # is den times its Fraction row
    scaled = [integer_row((*row, q)) for row, q in zip((*A, *C, *E), (*b, *d, *f))]
    rows = []
    for i, (nums, den) in enumerate(scaled):
        r = [0] * (num_real + 1)
        r[:n] = nums[:n]
        r[n : 2 * n] = [-c for c in nums[:n]]
        if i >= mA:
            r[2 * n + 2 + i - mA] = den  # the weak or strict slack
        if i >= mA + mC:
            r[2 * n], r[2 * n + 1] = den, -den
        r[-1] = nums[n]
        rows.append(r)
    # t <= 1 keeps the objective bounded
    r = [0] * (num_real + 1)
    r[2 * n], r[2 * n + 1], r[2 * n + 2 + mC + mE], r[-1] = 1, -1, 1, 1
    rows.append(r)

    slacks = [None] * mA + [2 * n + 2 + k for k in range(mC + mE + 1)]
    tableau = _Tableau(rows, [den for _, den in scaled] + [1], num_real, slacks)
    cost = [0] * num_real
    cost[2 * n], cost[2 * n + 1] = -1, 1  # minimize -t
    objective, y = tableau.solve(cost)

    def certificate() -> LpInfeasible:
        # tuples of lists, not of generators: a generator's tuple is resized
        # into place, and such tuples pile up in CPython's tuple free lists
        neg = [-v for v in y]
        lam = tuple(neg[:mA])
        mu = tuple(neg[mA : mA + mC])
        nu = tuple(neg[mA + mC : mA + mC + mE])
        value = Fraction(0)
        for m, v in zip(lam, b):
            value += m * v
        for m, v in zip(mu, d):
            value += m * v
        for m, v in zip(nu, f):
            value += m * v
        ok, why = check_certificate(
            _as_rows(A), b, _as_rows(C), d, _as_rows(E), f, lam, mu, nu
        )
        if not ok:
            raise InternalError(f"extracted Farkas certificate is invalid: {why}")
        return LpInfeasible(lam, mu, nu, value)

    if objective is None or -objective <= 0:
        return certificate()
    # a tuple of a list, as lam, mu and nu are
    x = tuple([tableau.value_of(j) - tableau.value_of(n + j) for j in range(n)])
    # x = X / D: each scaled row meets its rhs iff nums . X meets rhs * D
    D = lcm(*[v.denominator for v in x])
    X = [v.numerator * (D // v.denominator) for v in x]
    for i, (nums, _) in enumerate(scaled):
        lhs, cap = sum(c * v for c, v in zip(nums, X)), nums[n] * D
        if i < mA and lhs != cap:
            raise InternalError("simplex point misses an equality row")
        if mA <= i < mA + mC and lhs > cap:
            raise InternalError("simplex point breaks a weak row")
        if i >= mA + mC and lhs >= cap:
            raise InternalError("simplex point is not strictly inside")
    return LpFeasible(x, -objective)
