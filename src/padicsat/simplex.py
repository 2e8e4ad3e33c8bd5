"""Exact rational linear programming for strict/weak order systems.

Decides systems  A x = b,  C x <= d,  E x < f  over the rationals.  The
strict block is handled through a slack objective: maximize t subject to
E x + t <= f and t <= 1; the strict system is feasible exactly when the
optimum t* is positive.  Everything runs in Fraction arithmetic with Bland's
rule, so the search terminates and the answers are exact.  Tableau pivots use
linalg's row-update step, the one its Gaussian eliminations share.

Infeasibility is returned with a Farkas certificate (lam, mu, nu):
multipliers with lam^T A + mu^T C + nu^T E = 0, mu >= 0, nu >= 0, whose
combined right-hand side  value = lam^T b + mu^T d + nu^T f  refutes the
system: value < 0 refutes even the weak relaxation, and value <= 0 with
nu != 0 refutes strictness.  Certificates are re-verified by an independent
checker before being handed out; a failure there is an internal error, never
a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError
from .linalg import nonzero_columns, subtract_multiple
from .rational import as_fraction

Row = list[Fraction]


@dataclass(frozen=True)
class LpFeasible:
    """A strictly feasible point; threshold is the slack optimum t* > 0."""

    x: tuple[Fraction, ...]
    threshold: Fraction


@dataclass(frozen=True)
class LpInfeasible:
    """Farkas multipliers refuting the system; see check_certificate."""

    lam: tuple[Fraction, ...]
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]
    value: Fraction


def _as_rows(rows) -> list[Row]:
    return [[as_fraction(c) for c in row] for row in rows] if rows else []


def check_certificate(A, b, C, d, E, f, lam, mu, nu) -> tuple[bool, str]:
    """Independently verify a Farkas certificate against the original blocks.

    Valid when the multipliers combine the rows to 0 = value with value < 0,
    or to 0 <= value' where strictness (nu != 0) forces 0 < value' while
    value' <= 0.  Returns (ok, explanation).
    """
    if len(lam) != len(A) or len(mu) != len(C) or len(nu) != len(E):
        return False, "multiplier lengths do not match the blocks"
    if any(m < 0 for m in mu):
        return False, "a weak multiplier is negative"
    if any(m < 0 for m in nu):
        return False, "a strict multiplier is negative"
    n = max(
        [len(r) for r in A] + [len(r) for r in C] + [len(r) for r in E],
        default=0,
    )
    for j in range(n):
        total = Fraction(0)
        for m, row in zip(lam, A):
            total += m * row[j]
        for m, row in zip(mu, C):
            total += m * row[j]
        for m, row in zip(nu, E):
            total += m * row[j]
        if total != 0:
            return False, f"combined coefficient of column {j} is {total}, not 0"
    value = Fraction(0)
    for m, rhs in zip(lam, b):
        value += m * rhs
    for m, rhs in zip(mu, d):
        value += m * rhs
    for m, rhs in zip(nu, f):
        value += m * rhs
    if value < 0:
        return True, f"value {value} < 0 refutes the weak relaxation"
    if value <= 0 and any(m > 0 for m in nu):
        return True, f"value {value} <= 0 with a strict row engaged"
    return False, f"value {value} refutes nothing"


class _Tableau:
    """Simplex tableau over Fractions with Bland's rule.

    Pivots update only the pivot row's nonzero columns (linalg's row step).
    """

    def __init__(self, rows: list[Row], rhs: list[Fraction], num_real: int):
        self.m = len(rows)
        self.num_real = num_real
        self.flips = []
        self.rows = []
        self.rhs = []
        for row, q in zip(rows, rhs):
            if q < 0:
                self.flips.append(Fraction(-1))
                self.rows.append([-c for c in row])
                self.rhs.append(-q)
            else:
                self.flips.append(Fraction(1))
                self.rows.append(list(row))
                self.rhs.append(q)
        # one artificial per row, appended after the real columns
        for i in range(self.m):
            for k in range(self.m):
                self.rows[i].append(Fraction(1 if k == i else 0))
        self.width = num_real + self.m
        self.basis = [num_real + i for i in range(self.m)]

    def _pivot(self, zrow: Row, i: int, j: int) -> None:
        inv = Fraction(1) / self.rows[i][j]
        top = self.rows[i] = [c * inv if c else c for c in self.rows[i]]
        self.rhs[i] *= inv
        # unlike an echelon row, a tableau row has nonzeros left of its pivot
        columns = nonzero_columns(top, 0)
        for k in range(self.m):
            factor = self.rows[k][j]
            if k != i and factor != 0:
                subtract_multiple(self.rows[k], factor, top, columns)
                self.rhs[k] -= factor * self.rhs[i]
        if zrow[j] != 0:
            subtract_multiple(zrow, zrow[j], top, columns)
        self.basis[i] = j

    def _run(self, zrow: Row, allow: list[bool]) -> None:
        while True:
            entering = None
            for j in range(self.width):
                if allow[j] and zrow[j] < 0 and j not in self.basis:
                    entering = j
                    break
            if entering is None:
                return
            leaving = None
            best = None
            for i in range(self.m):
                a = self.rows[i][entering]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leaving])
                    ):
                        best = ratio
                        leaving = i
            if leaving is None:
                raise InternalError("slack program claims an unbounded objective")
            self._pivot(zrow, leaving, entering)

    def _zrow_for(self, cost: Row) -> Row:
        zrow = list(cost)
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb != 0:
                row = self.rows[i]
                subtract_multiple(zrow, cb, row, nonzero_columns(row, 0))
        return zrow

    def _purge_artificials(self, zrow: Row) -> None:
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
                    self._pivot(zrow, i, j)
                    break

    def solve(self, cost_real: Row):
        """Two phases; returns (objective, duals y for the original rows)."""
        phase1 = [Fraction(0)] * self.num_real + [Fraction(1)] * self.m
        zrow = self._zrow_for(phase1)
        self._run(zrow, [True] * self.width)
        infeasibility = sum(
            (self.rhs[i] for i in range(self.m) if self.basis[i] >= self.num_real),
            Fraction(0),
        )
        if infeasibility > 0:
            # duals off the artificial columns: y_i = 1 - zrow[artificial i]
            y = [
                self.flips[i] * (Fraction(1) - zrow[self.num_real + i])
                for i in range(self.m)
            ]
            return None, y
        self._purge_artificials(zrow)
        cost = list(cost_real) + [Fraction(0)] * self.m
        zrow = self._zrow_for(cost)
        allow = [True] * self.num_real + [False] * self.m
        self._run(zrow, allow)
        objective = sum(
            (cost[self.basis[i]] * self.rhs[i] for i in range(self.m)),
            Fraction(0),
        )
        y = [-self.flips[i] * zrow[self.num_real + i] for i in range(self.m)]
        return objective, y

    def value_of(self, j: int) -> Fraction:
        for i in range(self.m):
            if self.basis[i] == j:
                return self.rhs[i]
        return Fraction(0)


def lp_feasible(A, b, C, d, E, f) -> LpFeasible | LpInfeasible:
    """Decide A x = b, C x <= d, E x < f over the rationals.

    The returned object is always re-checked: a feasible point is plugged
    into every row, a certificate goes through check_certificate.
    """
    n = max([len(r) for r in A] + [len(r) for r in C] + [len(r) for r in E], default=0)
    A = _as_rows(A)
    C = _as_rows(C)
    E = _as_rows(E)
    b = [as_fraction(v) for v in b]
    d = [as_fraction(v) for v in d]
    f = [as_fraction(v) for v in f]
    mA, mC, mE = len(A), len(C), len(E)
    # columns: u (n), w (n), t+, t-, weak slacks (mC), strict slacks (mE), t slack
    num_real = 2 * n + 2 + mC + mE + 1
    rows: list[Row] = []
    rhs: list[Fraction] = []

    def blank() -> Row:
        return [Fraction(0)] * num_real

    for i, row in enumerate(A):
        r = blank()
        for j, cval in enumerate(row):
            r[j] = cval
            r[n + j] = -cval
        rows.append(r)
        rhs.append(b[i])
    for i, row in enumerate(C):
        r = blank()
        for j, cval in enumerate(row):
            r[j] = cval
            r[n + j] = -cval
        r[2 * n + 2 + i] = Fraction(1)
        rows.append(r)
        rhs.append(d[i])
    for i, row in enumerate(E):
        r = blank()
        for j, cval in enumerate(row):
            r[j] = cval
            r[n + j] = -cval
        r[2 * n] = Fraction(1)
        r[2 * n + 1] = Fraction(-1)
        r[2 * n + 2 + mC + i] = Fraction(1)
        rows.append(r)
        rhs.append(f[i])
    # t <= 1 keeps the objective bounded
    r = blank()
    r[2 * n] = Fraction(1)
    r[2 * n + 1] = Fraction(-1)
    r[2 * n + 2 + mC + mE] = Fraction(1)
    rows.append(r)
    rhs.append(Fraction(1))

    tableau = _Tableau(rows, rhs, num_real)
    cost = blank()
    cost[2 * n] = Fraction(-1)  # minimize -t
    cost[2 * n + 1] = Fraction(1)
    objective, y = tableau.solve(cost)

    def certificate() -> LpInfeasible:
        lam = tuple(-y[i] for i in range(mA))
        mu = tuple(-y[mA + i] for i in range(mC))
        nu = tuple(-y[mA + mC + i] for i in range(mE))
        value = Fraction(0)
        for m, v in zip(lam, b):
            value += m * v
        for m, v in zip(mu, d):
            value += m * v
        for m, v in zip(nu, f):
            value += m * v
        ok, why = check_certificate(A, b, C, d, E, f, lam, mu, nu)
        if not ok:
            raise InternalError(f"extracted Farkas certificate is invalid: {why}")
        return LpInfeasible(lam, mu, nu, value)

    if objective is None or -objective <= 0:
        return certificate()
    x = tuple(
        tableau.value_of(j) - tableau.value_of(n + j) for j in range(n)
    )
    threshold = -objective
    for row, target in zip(A, b):
        if sum(c * v for c, v in zip(row, x)) != target:
            raise InternalError("simplex point misses an equality row")
    for row, cap in zip(C, d):
        if sum(c * v for c, v in zip(row, x)) > cap:
            raise InternalError("simplex point breaks a weak row")
    for row, cap in zip(E, f):
        if sum(c * v for c, v in zip(row, x)) >= cap:
            raise InternalError("simplex point is not strictly inside")
    return LpFeasible(x, threshold)
