from collections import Counter
from fractions import Fraction

import pytest

from helpers import reference_frozen, reference_solve_affine, reference_solve_leq
from padicsat.certify import verify_witness
from padicsat.errors import InputError
from padicsat.linalg import solve_affine
from padicsat.rational import INF, is_finite
from padicsat.solver_leq import LeqProblem, solve_leq, _direction, _first_forbidden
from padicsat.testkit import (
    instance_of_leq_problem,
    random_leq_problem,
    witness_map,
)


def test_first_forbidden():
    assert _first_forbidden(-1, frozenset()) == 0
    assert _first_forbidden(INF, frozenset()) == INF
    assert _first_forbidden(INF, frozenset({3, 7})) == 3
    assert _first_forbidden(5, frozenset({-2})) == -2
    assert _first_forbidden(5, frozenset({8})) == 6


def test_worked_example():
    # x + y = 1 with v_2(x) <= -1 and y unconstrained
    prob = LeqProblem.of([[1, 1]], [1], 2, (-1, INF), (set(), set()))
    verdict = solve_leq(prob)
    assert verdict.is_sat
    assert verdict.diagnostics["step"] == 1
    assert verdict.diagnostics["thresholds"] == [0, INF]
    ws = verdict.witness
    assert ws[0].materialize() + ws[1].materialize() == 1
    assert ws[0].valuation() <= -1
    check = verify_witness(
        instance_of_leq_problem(prob), witness_map(prob, ws)
    )
    assert check.ok, check.detail


def test_inconsistent_system():
    prob = LeqProblem.of([[1], [1]], [0, 1], 3, (INF,), (set(),))
    verdict = solve_leq(prob)
    assert verdict.is_unsat
    assert verdict.code == "no-solution"


def test_fixed_coordinate_violation():
    # x = 4 forces v_2(x) = 2; cap 1 refutes, cap 2 admits
    bad = solve_leq(LeqProblem.of([[1]], [4], 2, (1,), (set(),)))
    assert bad.is_unsat
    assert bad.code == "fixed-out-of-range"
    assert bad.diagnostics["coordinate"] == 0
    good = solve_leq(LeqProblem.of([[1]], [4], 2, (2,), (set(),)))
    assert good.is_sat


def test_fixed_zero_needs_infinite_cap():
    # x = 0 has valuation +inf, allowed only when the cap is +inf
    prob = LeqProblem.of([[1]], [0], 5, (3,), (set(),))
    assert solve_leq(prob).is_unsat
    free = LeqProblem.of([[1]], [0], 5, (INF,), (set(),))
    assert solve_leq(free).is_sat


def test_exclusions_only():
    # no equations: x just has to dodge the excluded valuations
    prob = LeqProblem.of([], [], 2, (INF,), ({0, -2},))
    verdict = solve_leq(prob)
    assert verdict.is_sat
    v = verdict.witness[0].valuation()
    assert v not in {0, -2}
    check = verify_witness(instance_of_leq_problem(prob), witness_map(prob, verdict.witness))
    assert check.ok, check.detail


def test_input_validation():
    with pytest.raises(InputError):
        LeqProblem.of([[1, 2]], [1], 4, (0, 0), (set(), set()))  # 4 not prime
    with pytest.raises(InputError):
        LeqProblem.of([[1]], [1], 2, (Fraction(1, 2),), (set(),))


def test_random_sat_witnesses_and_margin():
    sat = unsat = 0
    for seed in range(250):
        prob = random_leq_problem(seed, max_dim=5, coeff_mag=9, bound_mag=3)
        verdict = solve_leq(prob)
        if verdict.is_unsat:
            unsat += 1
            # audit the stated reason
            space = reference_solve_affine(list(prob.A), list(prob.b), len(prob.caps))
            if verdict.code == "no-solution":
                assert space is None
            else:
                j = verdict.diagnostics["coordinate"]
                assert j in dict(reference_frozen(*space))
            continue
        sat += 1
        ws = verdict.witness
        check = verify_witness(instance_of_leq_problem(prob), witness_map(prob, ws))
        assert check.ok, check.detail
        # margin: every non-fixed coordinate lands strictly below the first
        # forbidden valuation
        _, basis = reference_solve_affine(list(prob.A), list(prob.b), len(prob.caps))
        thresholds = verdict.diagnostics["thresholds"]
        for j in range(len(prob.caps)):
            if any(vec[j] != 0 for vec in basis):
                v = ws[j].valuation()
                if is_finite(thresholds[j]):
                    assert v < thresholds[j]
                assert len(ws[j].terms) <= 2
    assert sat > 30 and unsat > 30  # the generator exercises both sides


def test_matches_the_fraction_reference():
    # the integer solve decides as the Fraction reference solve and its
    # frozen coordinates do, with the same unsat answers and sat diagnostics
    # but the step; the sparse draws up to 6 x 6 reach fixed coordinates, and
    # the dense ones up to 24 x 24 include wide shapes (m <= n / 2, n >= 12)
    # with kernels of up to 20 dimensions
    draws = [random_leq_problem(seed, max_dim=6, density=0.5) for seed in range(150)]
    draws += [random_leq_problem(seed, max_dim=24) for seed in range(60)]
    codes = Counter()
    wide = 0
    for prob in draws:
        verdict, expected = solve_leq(prob), reference_solve_leq(prob)
        assert verdict.status == expected.status
        n = len(prob.caps)
        if verdict.is_unsat:
            codes[verdict.code] += 1
            assert (verdict.code, verdict.reason, verdict.diagnostics) == (
                expected.code, expected.reason, expected.diagnostics
            )
            continue
        codes["sat"] += 1
        wide += len(prob.A) <= n // 2 and n >= 12
        diagnostics = dict(verdict.diagnostics)
        assert diagnostics.pop("step") >= 0
        assert diagnostics == expected.diagnostics
        assert all(len(x.terms) <= 2 for x in verdict.witness)
        check = verify_witness(instance_of_leq_problem(prob), witness_map(prob, verdict.witness))
        assert check.ok, check.detail
    assert min(codes["sat"], codes["no-solution"], codes["fixed-out-of-range"]) >= 10, codes
    assert wide >= 5


def test_direction_skips_a_coefficient_that_cancels():
    # x0 + x2 - x3 = 0 and x1 + 2 x2 - x3 = 0, pivots x0, x1, free x2, x3:
    # after c_2 = 1 the pivots hold S = (1, 2), so c_3 = 1 would zero x0 and
    # c_3 = 2 would zero x1; c_3 = 3 keeps both, and z = (2, 1, 1, 3)
    A = [[1, 0, 1, -1], [0, 1, 2, -1]]
    pivots, free, F, minor = solve_affine(A, [0, 0], 4)
    assert (pivots, free, minor) == ([0, 1], [2, 3], 1)
    assert _direction(F, 2) == ([1, 3], [-2, -1])
    # every coordinate at most -1 at p = 2: z's valuations (1, 0, 0, 0)
    # less the step 2 are the coordinates'
    prob = LeqProblem.of(A, [0, 0], 2, (-1, -1, -1, -1), [set()] * 4)
    verdict = solve_leq(prob)
    assert verdict.is_sat and verdict.diagnostics["step"] == 2
    assert [x.valuation() for x in verdict.witness] == [-1, -2, -2, -2]
    check = verify_witness(instance_of_leq_problem(prob), witness_map(prob, verdict.witness))
    assert check.ok, check.detail


def test_huge_bounds_stay_symbolic():
    # |cap| around a million: decision and verification must not materialize
    prob = LeqProblem.of([[1, 1]], [1], 2, (-(10**6), INF), (set(), set()))
    verdict = solve_leq(prob)
    assert verdict.is_sat
    assert verdict.witness[0].valuation() <= -(10**6)
    assert len(verdict.witness[0].terms) <= 2
    check = verify_witness(instance_of_leq_problem(prob), witness_map(prob, verdict.witness))
    assert check.ok, check.detail
