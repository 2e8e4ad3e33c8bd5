"""The two polynomial fragments: all-lower-bound and all-upper-bound systems.

Constraining every variable's valuation from the same side keeps the decision
problem in polynomial time.  Lower bounds (v_p(x) >= c) interact with the
linear equations through cost-minimal elimination; upper bounds (v_p(x) <= c,
plus forbidden values v_p(x) != d) only bite when the equations freeze a
variable to a single value.
"""

from fractions import Fraction

from padicsat import GeqProblem, LeqProblem, solve_geq, solve_leq, verify_witness
from padicsat.rational import NEG_INF
from padicsat.testkit import (
    instance_of_geq_problem,
    instance_of_leq_problem,
    random_geq_problem,
    smith_oracle_geq,
    witness_map,
)

F = Fraction

# --- lower bounds ------------------------------------------------------

# x + y = 1/9 over p = 3 with v_3(x) >= 0 and v_3(y) >= 0 is hopeless: both
# summands would have valuation >= 0, but the right side has valuation -2.
prob = GeqProblem.of([[1, 1]], [F(1, 9)], 3, (0, 0), (False, False))
verdict = solve_geq(prob)
print("x + y = 1/9, v3 >= 0:", verdict.status.value, "--", verdict.reason)

# Relax one bound and the same system becomes easy.
prob = GeqProblem.of([[1, 1]], [F(1, 9)], 3, (0, -2), (False, False))
verdict = solve_geq(prob)
print("after relaxing v3(y) >= -2:", verdict.status.value)
named = witness_map(prob, verdict.witness)
print("witness:", {k: str(v) for k, v in named.items()})
assert verify_witness(instance_of_geq_problem(prob), named)

# A bound of NEG_INF means "unconstrained".  Such a column is the cheapest
# possible pivot -- it can absorb whatever valuation the elimination pushes
# into it -- so the solver routes the equation through it and parks the
# bounded variables at their floors.
prob = GeqProblem.of([[2, 3, 5]], [F(7)], 2, (4, NEG_INF, 1), (False,) * 3)
verdict = solve_geq(prob)
named = witness_map(prob, verdict.witness)
print("one free column:", verdict.status.value, {k: str(v) for k, v in named.items()})
print()

# The testkit carries an independent oracle for this fragment (rational
# elimination + Smith normal form divisibility).  Cross-checking a batch of
# random systems takes well under a second.
agree = 0
for seed in range(100):
    p = random_geq_problem(seed)
    assert solve_geq(p).status == smith_oracle_geq(p).status
    agree += 1
print(f"oracle cross-check: {agree}/100 agreements")
print()

# --- upper bounds and forbidden values ---------------------------------

# Upper bounds cannot clash with each other (small valuations are easy to
# reach), so unsatisfiability must come from the equations pinning a value.
# Here 3x = 3 freezes x = 1, whose valuation 0 violates v_2(x) <= -1.
prob = LeqProblem.of([[3]], [F(3)], 2, (-1,), (frozenset(),))
verdict = solve_leq(prob)
print("3x = 3, v2(x) <= -1:", verdict.status.value, "--", verdict.reason)

# With slack in the system the solver adds one kernel direction z, nonzero
# on every coordinate the equations leave free, scaled by p**-E: each such
# coordinate then has valuation v(z_j) - E, below every cap and exclusion at
# once, and is a power sum of two terms.
prob = LeqProblem.of(
    [[1, 1, 0], [0, 1, 1]],
    [F(2), F(4)],
    2,
    (3, 0, 2),
    (frozenset({1}), frozenset(), frozenset({2, 0})),
)
verdict = solve_leq(prob)
named = witness_map(prob, verdict.witness)
print("kernel-direction witness:", {k: str(v) for k, v in named.items()})
assert verify_witness(instance_of_leq_problem(prob), named)
print("verified against caps", prob.caps, "and exclusions", prob.excluded)
