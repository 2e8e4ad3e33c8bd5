"""Exact rational linear algebra: affine solution spaces read off integers,
cost-minimal echelon forms, and the Smith normal form."""

import random
from fractions import Fraction

from padicsat.linalg import (
    NEG_INF,
    PivotCosts,
    matrix,
    pivot_minimal_echelon,
    solve_affine,
)
from padicsat.testkit import (
    carried_matrix,
    echelon_matrix,
    identity,
    mat_mul,
    permutation_matrix,
    smith_normal_form,
)

F = Fraction

# --- solving A x = b over the rationals --------------------------------

# solve_affine returns the full solution set in integers: the pivot
# columns, the free columns, F and a positive minor, where F[r] is minor
# times the reduced echelon row of pivot r at the free columns and the
# right-hand side.  Everything is exact, so there is no roundoff to reason
# about.
A = matrix([[2, 4, -2], [1, 2, 3]])
b = [F(6), F(11)]
pivots, free, Fr, minor = solve_affine(A, b, 3)
print("pivots:", pivots, " free:", free, " F:", Fr, " minor:", minor)

# The particular solution is 0 at the free columns and F[r][-1] / minor at
# pivot r; the kernel has one basis vector per free column f, 1 at f and
# -F[r][k] / minor at pivot r.
particular = [F(0)] * 3
basis = [[F(int(j == f)) for j in range(3)] for f in free]
for c, row in zip(pivots, Fr):
    particular[c] = F(row[-1], minor)
    for vec, x in zip(basis, row):
        vec[c] = F(-x, minor)
print("particular:", [str(x) for x in particular])
print("kernel basis:", [[str(x) for x in vec] for vec in basis])

# Any kernel combination stays a solution; check one by hand.
x = [p + 5 * k for p, k in zip(particular, basis[0])]
for row, rhs in zip(A, b):
    assert sum(c * v for c, v in zip(row, x)) == rhs
print("particular + 5 * basis[0] still solves the system")

# An inconsistent system yields None rather than a least-squares answer.
print("inconsistent:", solve_affine(matrix([[1, 1], [1, 1]]), [F(0), F(1)], 2))
print()

# --- echelon form with valuation-aware pivoting ------------------------

# pivot_minimal_echelon factors B = U * A * P where U is invertible and P
# permutes columns.  Pivots are chosen to minimize a p-adic cost: a pivot
# of large valuation in a column with a large offset is expensive, because
# eliminating with it smears that valuation over the other rows.  U is not
# returned; it is applied to the right-hand side block passed in, so passing
# the identity reads U itself back.
rng = random.Random(7)
A = matrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)])
costs = PivotCosts(prime=3, offsets=(0, 2, NEG_INF, -1), biases=(0, 0, 0, 0))
result = pivot_minimal_echelon(A, costs, identity(3))

print("A:")
for row in A:
    print("  ", [str(x) for x in row])
print("echelon B:")
for row in echelon_matrix(result):
    print("  ", [str(x) for x in row])
print("rank:", result.rank, " pivot columns (in permuted order):", result.pivots)

# The factorization is exact and auditable.
B = mat_mul(carried_matrix(result), mat_mul(A, permutation_matrix(result.sigma)))
assert B == echelon_matrix(result)
print("checked: B == U * A * P entry for entry")

# A column whose offset is NEG_INF (no lower bound on that variable) is
# never an attractive pivot home; zero entries are never pivots at all.
print()

# --- Smith normal form over the integers -------------------------------

# smith_normal_form(A) = (U, D, V) with U A V = D diagonal and each
# diagonal entry dividing the next.  It answers integer solvability
# questions and backs the independent oracle in testkit, next to which it
# lives with the rest of the audit algebra (products, permutation matrices,
# the determinant).
A = [[2, 4], [6, 10]]
U, D, V = smith_normal_form(A)
print("D =", D)
UAV = mat_mul(mat_mul(matrix(U), matrix(A)), matrix(V))
assert [[int(x) for x in row] for row in UAV] == D
print("checked: U A V == D, invariant factors", [D[i][i] for i in range(2)])
