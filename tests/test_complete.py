"""Dispatcher routing and the branch-and-decide solver for mixed instances."""

import collections
import hashlib
import inspect
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicsat import complete, solver_geq
from padicsat.certify import verify_witness
from padicsat.complete import (
    PROPAGATION_ROUNDS_FACTOR,
    _propagate,
    _fix_digit,
    _State,
    solve_complete,
)
from padicsat.combiner import solve_combined
from padicsat.dispatch import solve_instance, solve_single_prime
from padicsat.errors import InputError, InternalError
from padicsat.model import (
    Equation,
    Fragment,
    ImmediateUnsat,
    Instance,
    OrderConstraint,
    ValConstraint,
    VarProfile,
    Verdict,
    classify,
    normalize,
)
from padicsat.parser import parse_instance
from padicsat.rational import INF, NEG_INF, PowerSum, is_finite, valuation
from padicsat.solver_geq import solve_geq
from padicsat.solver_leq import solve_leq
from padicsat.dispatch import geq_problem_of, leq_problem_of
from padicsat.linalg import inverse_permutation, pivot_minimal_echelon
from padicsat.solver_geq import GeqProblem, geq_echelon
from padicsat.testkit import (
    Graph,
    brute_color,
    carried_matrix,
    echelon_matrix,
    encode_coloring,
    encode_three_coloring_eq,
    identity,
    random_instance,
)

from helpers import (
    assert_echelon_result,
    assert_rows_canonical,
    digit_rhs,
    integer_state,
    powersum_witness,
    primitive_equations,
    reference_frozen,
    reference_solve_affine,
    row_valuations,
    state_equations,
    substitute_reference,
    zeroed_equations,
)


def inst(variables, equations=(), valuations=(), orders=()):
    return Instance(
        variables=tuple(variables),
        equations=tuple(equations),
        valuations=tuple(valuations),
        orders=tuple(orders),
    )


def val(p, var, rel, bound):
    return ValConstraint(p, var, rel, bound)


# ---------------------------------------------------------------------------
# dispatcher routing


def test_dispatch_rejects_orders_and_multi_prime():
    with_orders = inst(["x"], orders=[OrderConstraint.of([1], "<", 1)])
    with pytest.raises(InputError):
        solve_instance(with_orders)
    two_primes = inst(
        ["x"], valuations=[val(2, "x", ">=", 0), val(3, "x", ">=", 0)]
    )
    with pytest.raises(InputError):
        solve_instance(two_primes)


def test_single_prime_rejects_constraints_at_another_prime():
    # deciding at p = 5 would ignore v_3(x) >= 1 and answer x = 1
    i = inst(["x"], [Equation.of([1], 1)], [val(3, "x", ">=", 1)])
    with pytest.raises(InputError):
        solve_single_prime(normalize(i), 5)


def test_complete_rejects_constraints_at_another_prime():
    # x = 1 has v_3(x) = 0, so the instance is unsat; at p = 5 the window
    # would be ignored and the answer would read sat
    i = inst(
        ["x"],
        [Equation.of([1], 1)],
        [val(3, "x", ">=", 1), val(3, "x", "<=", 4)],
    )
    assert solve_instance(i).is_unsat
    with pytest.raises(InputError):
        solve_complete(normalize(i), prime=5)


def test_dispatch_immediate_unsat():
    i = inst(["x"], valuations=[val(2, "x", ">=", 5), val(2, "x", "<=", 3)])
    verdict = solve_instance(i)
    assert verdict.is_unsat and verdict.code == "empty-window"
    assert verdict.diagnostics["var"] == "x"


def test_dispatch_no_valuations_gives_rational_witness():
    i = inst(["x", "y"], equations=[Equation.of([1, 1], 2)])
    verdict = solve_instance(i)
    assert verdict.is_sat
    assert verdict.diagnostics["fragment"] == "NONE"
    assert sum(verdict.witness.values()) == 2
    assert all(isinstance(v, Fraction) for v in verdict.witness.values())
    assert verify_witness(i, verdict.witness)

    bad = inst(
        ["x", "y"],
        equations=[Equation.of([1, 1], 2), Equation.of([1, 1], 3)],
    )
    assert solve_instance(bad).is_unsat


def test_dispatch_geq_fragment_named_witness():
    i = inst(
        ["x", "y"],
        equations=[Equation.of([1, 1], 6)],
        valuations=[val(3, "x", ">=", 1), val(3, "y", ">=", 1)],
    )
    verdict = solve_instance(i)
    assert verdict.is_sat
    assert verdict.diagnostics["fragment"] == "GEQ"
    assert set(verdict.witness) == {"x", "y"}
    assert verify_witness(i, verdict.witness)


def test_dispatch_leq_fragment_named_witness():
    i = inst(
        ["x", "y"],
        equations=[Equation.of([1, 1], 1)],
        valuations=[val(2, "x", "<=", -1), val(2, "y", "!=", 0)],
    )
    verdict = solve_instance(i)
    assert verdict.is_sat
    assert verdict.diagnostics["fragment"] == "LEQ"
    assert verify_witness(i, verdict.witness)


def test_dichotomy_pinned_sums():
    # v_2(x) = v_2(y) = 1 forces x, y in 2 + 4Z_2; their sum fills 4 + 8Z_2,
    # so 2 is unreachable, 4 is reachable; at p = 3 both digits are free and
    # x + y = 3 with v_3(x) = v_3(y) = 0 works.
    even = [val(2, "x", "==", 1), val(2, "y", "==", 1)]
    verdict = solve_instance(inst(["x", "y"], [Equation.of([1, 1], 2)], even))
    assert verdict.is_unsat

    i4 = inst(["x", "y"], [Equation.of([1, 1], 4)], even)
    verdict = solve_instance(i4)
    assert verdict.is_sat and verify_witness(i4, verdict.witness)

    i3 = inst(
        ["x", "y"],
        [Equation.of([1, 1], 3)],
        [val(3, "x", "==", 0), val(3, "y", "==", 0)],
    )
    verdict = solve_instance(i3)
    assert verdict.is_sat
    assert verdict.diagnostics["fragment"] == "HARD"
    assert verify_witness(i3, verdict.witness)
    assert verdict.witness["x"].valuation() == 0
    assert verdict.witness["y"].valuation() == 0


# ---------------------------------------------------------------------------
# complete solver behavior


def solve_hard(i):
    """Force an instance through the branch-and-decide solver.

    Returns None for trials that exercise nothing here: normalization may
    already refute a random instance, and one with no valuation constraints
    at all belongs to the valuation-free fragment.
    """
    norm = normalize(i)
    if isinstance(norm, ImmediateUnsat) or not norm.primes:
        return None
    return solve_complete(norm)


def _cli_capped(args, text=None, timeout=30):
    """The CLI's answer in its own process under a time and memory cap, so
    a regression fails instead of exhausting the machine."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "padicsat.cli", *args],
        input=text,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=cap_memory,
    )


def test_wide_window_is_not_walked():
    # a valuation window 10^9 wide with one exclusion: emptiness, edge
    # trimming and window branching must not walk every value in it
    text = (
        "vars x\neq 1 x = 9\nval 3 : v(x) >= 0\n"
        "val 3 : v(x) <= 1000000000\nval 3 : v(x) != 3\n"
    )
    proc = _cli_capped(["solve", "-", "--witness"], text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "sat"
    # the digit child x = 1*9 + r reads r = 0, and x is its row's pivot
    assert "x = 9@0" in proc.stdout


@pytest.mark.parametrize("v", [-10**6, 10**6])
def test_far_window_is_not_scaled_into_the_rows(tmp_path, v):
    # v_3(x) == v at distance 10^6 from 0: the digit child records
    # x = d*3^v + r and no row is scaled by 3^|v|, so solve and check of
    # the JSON witness each answer well inside the caps
    path = tmp_path / "far.txt"
    path.write_text(f"vars x y\neq 1 x + 1 y = 1\nval 3 : v(x) == {v}\nval 3 : v(y) <= 0\n")
    proc = _cli_capped(["solve", str(path), "--json", "--witness"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "sat"
    assert payload["witness"]["x"]["terms"] == [["1", v]]
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(payload["witness"]))
    check = _cli_capped(["check", str(path), str(witness)], timeout=10)
    assert check.returncode == 0 and check.stdout.strip() == "valid", check.stderr


def test_propagation_empties_a_capped_window():
    # x = 3y with v(y) >= 0 forces v(x) >= 1, clashing with v(x) <= 0
    i = inst(
        ["x", "y"],
        [Equation.of([1, -3], 0)],
        [val(3, "y", ">=", 0), val(3, "x", "<=", 0)],
    )
    verdict = solve_hard(i)
    assert verdict.is_unsat


def test_propagation_pins_then_digit_branches():
    # y = 1 - x with v_3(x) >= 1 pins v_3(y) to 0
    i = inst(
        ["x", "y"],
        [Equation.of([1, 1], 1)],
        [val(3, "x", ">=", 1), val(3, "y", "<=", 0)],
    )
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verify_witness(i, verdict.witness)
    assert verdict.witness["y"].valuation() == 0


def _count_substitutions(monkeypatch):
    """Count the search's digit children and forced zeros."""
    counts = collections.Counter()
    for kind, name in (("digit", "_fix_digit"), ("zero", "_force_zero")):
        real = getattr(complete, name)

        def spy(*args, real=real, kind=kind):
            counts[kind] += 1
            return real(*args)

        monkeypatch.setattr(complete, name, spy)
    return counts


def test_a_digit_child_lifts_a_zero_substituted_fresh_variable(monkeypatch):
    # x = 3 with v_3(x) == 1: the digit child x = 1*3 + r, v(r) >= 2, reads
    # its row's rhs as 3 - 3 = 0, so propagation forces r = 0; the leaf's
    # answer is its row x = 3 solved as written, with no lift
    i = inst(["x"], [Equation.of([1], 3)], [val(3, "x", "==", 1)])
    counts = _count_substitutions(monkeypatch)
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verdict.witness == {"x": PowerSum(3, ((Fraction(3), 0),))}
    assert counts == {"digit": 1, "zero": 1}


def test_a_witness_is_lifted_through_nested_digits(monkeypatch):
    # x + y = 6 with both valuations pinned to 0 at p = 5: the leaf sits
    # under two digit levels, x = 2 + r and y = 4 + s, and its answer is the
    # search's: the free remainders are 0, so each variable is its digit
    i = inst(
        ["x", "y"], [Equation.of([1, 1], 6)], [val(5, "x", "==", 0), val(5, "y", "==", 0)]
    )
    counts = _count_substitutions(monkeypatch)
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verdict.witness == {
        "x": PowerSum(5, ((Fraction(2), 0),)),
        "y": PowerSum(5, ((Fraction(4), 0),)),
    }
    assert counts == {"digit": 6}


def test_an_all_zero_equation_is_skipped():
    # 0 = 0 gives the search no row: the answer is the one without it
    i = inst(
        ["x", "y"], [Equation.of([1, 1], 6)], [val(5, "x", "==", 0), val(5, "y", "==", 0)]
    )
    zero = inst(i.variables, [Equation.of([0, 0], 0), *i.equations], i.valuations)
    assert len(normalize(zero).equations) == 2
    assert solve_hard(zero) == solve_hard(i)


def test_propagation_stops_after_its_rounds(monkeypatch):
    # x = 3y + z and y = 3x give z = -8x: nothing is frozen, so x's and y's
    # floors climb toward z's 10^6 two steps a round, and propagation
    # returns after its PROPAGATION_ROUNDS_FACTOR * 3 rounds, far below
    i = inst(
        ["x", "y", "z"],
        [Equation.of([1, -3, -1], 0), Equation.of([-3, 1, 0], 0)],
        [val(3, "z", ">=", 10**6), val(3, "x", ">=", 0), val(3, "x", "!=", 5)],
    )
    floors = []
    real = complete._propagate

    def spy(state):
        verdict = real(state)
        floors.append((verdict, {v: prof.lower for v, prof in state.profiles.items()}))
        return verdict

    monkeypatch.setattr(complete, "_propagate", spy)
    verdict = solve_hard(i)
    assert floors[0] == (None, {"x": 22, "y": 23, "z": 10**6})
    assert verdict.is_sat
    assert verdict.witness["x"] == PowerSum(3, ((Fraction(-1, 8), 10**6),))
    assert verify_witness(i, verdict.witness)


def test_rejected_witness_raises_internal_error(monkeypatch):
    i = encode_coloring(Graph.complete(3), 3, 1)
    assert solve_hard(i).is_sat
    solve_state = complete._solve_state
    calls = []

    def corrupted(state):
        # the search is one loop, so _solve_state runs once, on the root, and
        # its sat answer is corrupted before solve_complete checks it
        calls.append(state)
        verdict = solve_state(state)
        out = verdict.witness
        var = min(out)
        out[var] = out[var] + PowerSum.from_rational(state.prime, 1)
        return verdict

    monkeypatch.setattr(complete, "_solve_state", corrupted)
    with pytest.raises(InternalError, match="assembled witness rejected"):
        solve_hard(i)
    assert len(calls) == 1


def test_forced_zero_against_finite_cap():
    i = inst(
        ["x"],
        [Equation.of([2], 0)],
        [val(2, "x", ">=", 0), val(2, "x", "<=", 5)],
    )
    verdict = solve_hard(i)
    assert verdict.is_unsat

    ok = inst(
        ["x"],
        [Equation.of([2], 0)],
        [val(3, "x", ">=", 0), val(3, "x", "!=", 2)],
    )
    verdict = solve_hard(ok)
    assert verdict.is_sat
    assert verdict.witness["x"].is_zero()
    assert verify_witness(ok, verdict.witness)


def test_divergent_propagation_forces_zeros():
    # x = 3y and y = 3x only admit x = y = 0; the lower bounds diverge and
    # the frozen-coordinate pass cuts the climb short
    i = inst(
        ["x", "y"],
        [Equation.of([1, -3], 0), Equation.of([-3, 1], 0)],
        [val(3, "x", ">=", 0), val(3, "x", "!=", -5), val(3, "y", ">=", 0)],
    )
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verdict.witness["x"].is_zero() and verdict.witness["y"].is_zero()
    assert verify_witness(i, verdict.witness)


@pytest.mark.parametrize("rel", ["<=", "!="])
def test_frozen_cycle_work_does_not_grow_with_the_bound(monkeypatch, rel):
    # x = 3y, y = 3x with v(x), v(y) >= 0: the lower bounds climb by one per
    # equation and round, and without the frozen-coordinate pass the search
    # walks them up to B.  With it, one solve_affine per propagation call
    # settles x = y = 0, so the counts are the same at B = 2*10^4 and 10^9:
    # v(x) <= B is then unsat, v(x) != B sat with x = y = 0.
    counts = collections.Counter()
    real_affine, real_propagate = complete.solve_affine, complete._propagate

    def affine(A, b, n):
        counts["solve_affine"] += 1
        return real_affine(A, b, n)

    def propagate(state):
        before = counts["solve_affine"]
        verdict = real_propagate(state)
        counts["propagate"] += 1
        assert counts["solve_affine"] - before <= 1
        # fail, rather than hang, if the search starts walking the window
        assert counts["propagate"] < 1000
        return verdict

    class RaiseCountingProfiles(dict):
        # a narrowing stores a new profile; count those with a higher floor
        def __setitem__(self, var, prof):
            if var in self and prof.lower > self[var].lower:
                counts["raises"] += 1
            super().__setitem__(var, prof)

    class CountingState(_State):
        def __post_init__(self):
            self.profiles = RaiseCountingProfiles(self.profiles)
            super().__post_init__()

    monkeypatch.setattr(complete, "solve_affine", affine)
    monkeypatch.setattr(complete, "_propagate", propagate)
    monkeypatch.setattr(complete, "_State", CountingState)
    work = {}
    for bound in (2 * 10**4, 10**9):
        counts.clear()
        i = inst(
            ["x", "y"],
            [Equation.of([1, -3], 0), Equation.of([-3, 1], 0)],
            [val(3, "x", ">=", 0), val(3, "y", ">=", 0), val(3, "x", rel, bound)],
        )
        verdict = solve_hard(i)
        if rel == "<=":
            assert verdict.is_unsat
        else:
            assert verdict.is_sat
            assert verdict.witness["x"].is_zero() and verdict.witness["y"].is_zero()
            assert verify_witness(i, verdict.witness)
        assert counts["solve_affine"] >= 1 and counts["raises"] >= 1
        work[bound] = dict(counts)
    assert work[2 * 10**4] == work[10**9], work


def _digit_heavy_draw(seed):
    """A small instance at p = 3 or 5 whose pins make digit children: 2-4
    variables, 1-3 rows of coefficients +-{1, 2}*p^(0..1) over a random
    support, rhs 0 with probability 0.3, at most one constraint per
    variable, == twice as likely as >= or <=, bounds in 0..2, and
    v(x_last) <= 4."""
    rng = random.Random(seed)
    p = rng.choice((3, 5))
    names = tuple(f"x{j}" for j in range(rng.randint(2, 4)))

    def coefficient():
        return rng.choice((1, -1)) * rng.choice((1, 2)) * p ** rng.randint(0, 1)

    equations = []
    for _ in range(rng.randint(1, 3)):
        support = set(rng.sample(names, rng.randint(1, len(names))))
        coeffs = [coefficient() if v in support else 0 for v in names]
        rhs = 0 if rng.random() < 0.3 else coefficient()
        equations.append(Equation.of(coeffs, rhs))
    valuations = [
        val(p, v, rng.choice(("==", "==", ">=", "<=")), rng.randint(0, 2))
        for v in names
        for _ in range(rng.randint(0, 1))
    ]
    return inst(names, equations, [*valuations, val(p, names[-1], "<=", 4)])


def test_a_zeroed_variable_is_frozen_by_the_rows_alone(monkeypatch):
    # at every forced zero inside real searches, the state's rows alone
    # freeze the variable at 0, a digit variable at its digit term d*p^v (its
    # remainder at 0), or have no solution at all (only at the root, before
    # its relaxation).  That is why the affine solves of the frozen pass and
    # of a leaf need no row x_z = 0
    outcomes = collections.Counter()
    real = complete._force_zero

    def spy(state, var):
        verdict = real(state, var)
        if verdict is not None:
            return verdict
        n = len(state.columns)
        space = reference_solve_affine(
            [row[:n] for row in state.rows], [row[n] for row in state.rows], n
        )
        if space is None:
            assert state.stale is None
            outcomes["inconsistent root"] += 1
            return verdict
        j = state.columns.index(var)
        frozen = dict(reference_frozen(*space))
        assert j in frozen, (var, state.rows)
        d, v = state.consts.get(var, (0, 0))
        assert frozen[j] == d * Fraction(state.prime) ** v, (var, state.rows)
        outcomes["digit" if var in state.consts else "under a digit" if state.consts else "zero"] += 1
        return verdict

    monkeypatch.setattr(complete, "_force_zero", spy)
    for seed in range(3000):
        for i in (_zero_heavy_draw(seed), _digit_heavy_draw(seed)):
            verdict = solve_combined(i)
            if verdict.is_sat:
                assert verify_witness(i, verdict.witness), seed
    assert outcomes["zero"] >= 250 and outcomes["digit"] >= 60, outcomes


def test_exclusion_split_above_lower_bound():
    i = inst(["x"], valuations=[val(5, "x", ">=", 0), val(5, "x", "!=", 2)])
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verify_witness(i, verdict.witness)
    v = verdict.witness["x"].valuation()
    assert v >= 0 and v != 2


def test_pinned_pair_at_two_routes_to_exact_leaf():
    # >= plus <= lands in the mixed fragment, but the tightened windows are
    # exact p = 2 constraints the echelon leaf decides
    pins = [
        val(2, "x", ">=", 1),
        val(2, "x", "<=", 1),
        val(2, "y", ">=", 1),
        val(2, "y", "<=", 1),
    ]
    unsat = solve_hard(inst(["x", "y"], [Equation.of([1, 1], 2)], pins))
    assert unsat.is_unsat
    i4 = inst(["x", "y"], [Equation.of([1, 1], 4)], pins)
    sat = solve_hard(i4)
    assert sat.is_sat and verify_witness(i4, sat.witness)


def test_window_enumeration_with_pinned_partner():
    i = inst(
        ["x", "y"],
        [Equation.of([1, 1], 3)],
        [
            val(3, "x", ">=", 0),
            val(3, "x", "<=", 1),
            val(3, "y", "==", 2),
        ],
    )
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verify_witness(i, verdict.witness)
    assert verdict.witness["x"].valuation() == 1  # 3 - 9u always has v = 1


def test_independent_components_merge_witnesses():
    i = inst(
        ["x", "y", "u", "v"],
        [Equation.of([1, -2, 0, 0], 0), Equation.of([0, 0, 1, 1], 1)],
        [
            val(2, "x", ">=", 1),
            val(2, "y", ">=", 0),
            val(2, "u", "<=", -1),
            val(2, "v", "!=", 0),
        ],
    )
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert set(verdict.witness) == {"x", "y", "u", "v"}
    assert verify_witness(i, verdict.witness)


def test_mixed_open_variable_is_decided():
    # x has a floor and y none: y is free of x (z absorbs any y), so the
    # lower-bound relaxation decides and y is pushed below its cap
    i = inst(
        ["x", "y", "z"],
        [Equation.of([1, 1, 1], 0)],
        [val(2, "x", ">=", 0), val(2, "y", "<=", 0)],
    )
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verify_witness(i, verdict.witness)


def test_open_variables_below_the_floor_are_found():
    # no solution has v(y), v(z) >= 0, but y = z = 1/2, x = 0 is one below
    i = inst(
        ["x", "y", "z"],
        [Equation.of([1, 1, 1], 1)],
        [
            val(2, "x", ">=", 0),
            val(2, "y", "<=", -1),
            val(2, "z", "<=", -1),
        ],
    )
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verify_witness(i, verdict.witness)
    assert verdict.witness["y"].valuation() <= -1
    assert verdict.witness["z"].valuation() <= -1


def _spy_mixed(monkeypatch):
    """Record what each call of complete._solve_mixed returns."""
    results = []
    real = complete._solve_mixed

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(complete, "_solve_mixed", spy)
    return results


def test_floor_raise_refutes_an_open_variable(monkeypatch):
    # random_instance(736, fragment="mixed", primes=(3,)).  Eliminating the
    # free x3 gives 41 x0 = -14 + 73 x1 + 105 x2, so v_3(x0) = 0 on every
    # solution while v_3(x0) <= -1 is required.  Neither equation shows it,
    # and the relaxation's echelon pivots on the unfloored x0 and x3, so no
    # row it leaves shows it to propagation either.  _solve_mixed raises
    # x0's floor and finds the window empty
    i = inst(
        ["x0", "x1", "x2", "x3"],
        [Equation.of([-1, -7, -7, -8], 6), Equation.of([-6, 3, 7, -7], 7)],
        [val(3, "x0", "<=", -1), val(3, "x1", ">=", 2), val(3, "x2", ">=", 1)],
    )
    results = _spy_mixed(monkeypatch)
    verdict = solve_hard(i)
    assert verdict.is_unsat
    assert results and all(
        r is not None and r.code == "empty-window" and r.diagnostics == {"var": "x0"}
        for r in results
    ), results


def test_floor_raise_then_branch(monkeypatch):
    # adding the equations eliminates the free w: 2y = 2 + x + 3z, so
    # v_3(y) >= 0, which neither equation shows alone.  The raise pins
    # v_3(y) to 0 and y is split by its leading digit
    i = inst(
        ["x", "y", "z", "w"],
        [Equation.of([-1, 1, 0, 1], 1), Equation.of([0, 1, -3, -1], 1)],
        [val(3, "x", ">=", 0), val(3, "z", ">=", 0), val(3, "y", "<=", 0)],
    )
    results = _spy_mixed(monkeypatch)
    digits = []
    real_digit = complete._fix_digit

    def digit(state, var, *args):
        digits.append(var)
        real_digit(state, var, *args)

    monkeypatch.setattr(complete, "_fix_digit", digit)
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verify_witness(i, verdict.witness)
    assert verdict.witness["y"].valuation() == 0
    assert results[0] is None and "y" in digits


@pytest.mark.parametrize("seed, prime, code, reason, diagnostics, shape", [
    # the leaf's two equations fix x2 = -10/103, a unit, though
    # v_3(x2) <= -3; no variable in them is floored
    (2102, 3, "fixed-out-of-range",
     "x2 is fixed with valuation 0, outside its admissible set",
     {"var": "x2", "valuation": 0, "fragment": "HARD"}, (3, 2)),
    # the equations fix x2 = 11/7, a unit, beside the floored x1, though
    # v_2(x2) <= -1: the rule holds whatever is floored
    (18, 2, "fixed-out-of-range",
     "x2 is fixed with valuation 0, outside its admissible set",
     {"var": "x2", "valuation": 0, "fragment": "HARD"}, (3, 2)),
    # the second equation less the fourth reads x1 = 0, beside the floored
    # x3, though v_2(x1) <= 0 caps it away from the value 0
    (1545, 2, "fixed-out-of-range",
     "x1 is fixed with valuation inf, outside its admissible set",
     {"var": "x1", "valuation": INF, "fragment": "HARD"}, (6, 4)),
])
def test_a_frozen_open_coordinate_is_settled_at_the_leaf(
    seed, prime, code, reason, diagnostics, shape
):
    num_vars, num_eqs = shape
    i = random_instance(
        seed, fragment="mixed", primes=(prime,), num_vars=num_vars, num_eqs=num_eqs
    )
    verdict = solve_combined(i)
    assert verdict.is_unsat
    assert (verdict.code, verdict.reason, verdict.diagnostics) == (code, reason, diagnostics)


# the five settings of the mixed fuzz: default primes (2, 3), then one prime
MIXED_SETTINGS = [
    {},
    {"primes": (3,)},
    {"primes": (2,)},
    {"primes": (5,), "num_vars": 5, "num_eqs": 3},
    {"primes": (3,), "num_vars": 6, "bound_mag": 4},
]


def test_mixed_draws_are_decided_and_cross_examined(monkeypatch):
    # no answer is Unknown, every sat witness verifies, and every unsat
    # answer stays unsat with v_p(x) >= -8 on every variable and prime: that
    # floored instance has no variable unbounded below, so it never reaches
    # _solve_mixed and is decided by a different route
    results = _spy_mixed(monkeypatch)
    counts = collections.Counter()
    for setting in MIXED_SETTINGS:
        for seed in range(200):
            i = random_instance(seed, fragment="mixed", **setting)
            verdict = solve_combined(i)
            counts[verdict.status.value] += 1
            assert not verdict.is_unknown, (setting, seed)
            if verdict.is_sat and verdict.witness is not None:
                assert verify_witness(i, verdict.witness), (setting, seed)
            if verdict.is_unsat:
                floors = tuple(
                    val(p, x, ">=", -8)
                    for p in sorted({vc.prime for vc in i.valuations})
                    for x in i.variables
                )
                calls = len(results)
                floored = inst(i.variables, i.equations, i.valuations + floors)
                assert solve_combined(floored).is_unsat, (setting, seed)
                assert len(results) == calls
    assert results  # the rule ran on the draws themselves
    assert counts["sat"] > 300 and counts["unsat"] > 300



def test_bounded_raise_matches_the_constant_formula(monkeypatch):
    # _solve_mixed reads a bounded open u's floor off the relaxation's
    # witness w as min(v(w_u), m), m the least v(l_g) + lower_g over
    # l_g != 0.  The reference is the formula it replaced: x_u = c + sum
    # l_g x_g with c = x0_u - sum l_g x0_g, each floored digit variable's
    # term l_g*d*p^v moved into c, and the floor min(v(c), m).  At every
    # leaf w meets each floor with the digit terms taken off, which the
    # proof needs, and a frozen open u reads the same valuation from w_u
    # as from x0_u
    counts = collections.Counter()
    real = complete._solve_mixed

    def spy(state, open_, w):
        p, columns = state.prime, state.columns
        n = len(columns)
        floored = sorted(
            (j for j, v in enumerate(columns) if is_finite(state.profiles[v].lower)),
            key=columns.__getitem__,
        )
        for g in floored:
            d, v = state.consts.get(columns[g], (0, 0))
            r = w[g] - PowerSum(p, ((Fraction(d), v),)) if d else w[g]
            assert r.valuation() >= state.profiles[columns[g]].lower
        x0, basis = reference_solve_affine(
            [row[:n] for row in state.rows], [row[n] for row in state.rows], n
        )
        frozen = [j for j, _ in reference_frozen(x0, basis)]
        expected = {}
        for u in open_:
            if u in frozen:
                assert w[u].valuation() == valuation(x0[u], p)
                counts["frozen"] += 1
                continue
            span = reference_solve_affine(
                [[vec[g] for g in floored] for vec in basis], [vec[u] for vec in basis],
                len(floored),
            )
            if span is None:
                continue
            lam = span[0]
            c = x0[u] - sum(l * x0[g] for l, g in zip(lam, floored))
            digits = [(l, *state.consts[columns[g]])
                      for l, g in zip(lam, floored) if l and columns[g] in state.consts]
            bound = min(
                [valuation(c + sum(l * d * Fraction(p) ** v for l, d, v in digits), p)]
                + [valuation(l, p) + state.profiles[columns[g]].lower
                   for l, g in zip(lam, floored) if l]
            )
            prof = state.profiles[columns[u]]
            expected[columns[u]] = VarProfile(bound, prof.upper, prof.excluded)
            counts["digit terms"] += bool(digits)
            counts["sum x0 nonzero"] += c != x0[u]
        verdict = real(state, open_, w)
        assert {var: state.profiles[var] for var in expected} == expected
        counts["leaves"] += 1
        counts["raises"] += len(expected)
        return verdict

    monkeypatch.setattr(complete, "_solve_mixed", spy)
    settings = MIXED_SETTINGS + [
        {"primes": (3,), "bound_mag": 1},
        {"primes": (3,), "coeff_mag": 3},
        {"primes": (3,), "num_vars": 5, "num_eqs": 3, "bound_mag": 2},
    ]
    for setting in settings:
        for seed in range(1000):
            solve_combined(random_instance(seed, fragment="mixed", **setting))
    assert counts["leaves"] >= 2000 and counts["raises"] >= 400, counts
    assert counts["digit terms"] >= 5 and counts["sum x0 nonzero"] >= 5, counts
    assert counts["frozen"] >= 1, counts


def test_leaf_witness_matches_the_powersum_reference(monkeypatch):
    # a leaf has no tracked minor, so geq_witness back-substitutes over the
    # product of the |pivots|; its terms are the PowerSum back-substitution's
    # at every leaf of coloring searches and mixed draws, digit terms included
    counts = collections.Counter()
    real = complete.geq_witness

    def spy(p, rows, floors, digits=None):
        w = real(p, rows, floors, digits)
        assert [x.terms for x in w] == [x.terms for x in powersum_witness(p, rows, floors, digits)]
        exponents = {(digits or {}).get(j, (1, floors[j]))[1] for j in range(len(rows), len(floors))}
        counts["leaves"] += 1
        counts["digit terms"] += bool(digits)
        counts["3+ exponents"] += len(exponents - {INF, NEG_INF}) >= 3
        return w

    monkeypatch.setattr(complete, "geq_witness", spy)
    for p, e in ((3, 1), (2, 2), (5, 1)):
        for seed in range(12):
            solve_combined(encode_coloring(Graph.random(seed, 6, 0.5), p, e))
    wide = [  # more variables and wider floors: more exponents a leaf
        {"primes": (2,), "num_vars": 7, "num_eqs": 2, "bound_mag": 4},
        {"primes": (3,), "num_vars": 8, "num_eqs": 2, "bound_mag": 6},
        {"primes": (5,), "num_vars": 7, "num_eqs": 3, "bound_mag": 5},
    ]
    for setting in MIXED_SETTINGS + wide:
        for seed in range(300):
            solve_combined(random_instance(seed, fragment="mixed", **setting))
    assert counts["leaves"] >= 1000 and min(counts.values()) >= 100, counts


def _pinned_verdicts():
    for p in (2, 3, 5):
        for seed in range(300):
            yield random_instance(seed, fragment="mixed", primes=(p,))
    for p, e in ((3, 1), (2, 2)):
        for seed in range(20):
            yield encode_coloring(Graph.random(seed, 6, 0.5), p, e)


def test_search_answers_are_pinned():
    # every verdict's status, code, reason and diagnostics, hashed in order
    # over 900 mixed draws and 40 coloring encodings, and every sat witness
    # checked: a change to the search's bookkeeping must not change a single
    # decision or unsat answer.  A sat witness is any that verifies
    digest = hashlib.sha256()
    statuses = collections.Counter()
    for i in _pinned_verdicts():
        verdict = solve_combined(i)
        statuses[verdict.status.value] += 1
        if verdict.is_sat:
            assert verify_witness(i, verdict.witness)
        key = (verdict.status.value, verdict.code, verdict.reason, verdict.diagnostics)
        digest.update(repr(key).encode() + b"\0")
    assert statuses["sat"] > 300 and statuses["unsat"] > 300, statuses
    assert digest.hexdigest() == (
        "9aeff6f86ffec786f5b61a4bc8a40f58990f1878b719ed9bc850107cd6d70d17"
    ), statuses


@pytest.mark.parametrize("text", [
    # the rows fix x2 = 334/417, a unit at p = 5, and the frozen pass runs
    # under x2's digit child: it reads x2's remainder 334/417 - d, not x2
    "vars x0 x1 x2\neq 10 x0 - 5 x1 - 1 x2 = -2\neq -1 x0 - 1 x1 - 5 x2 = -5\n"
    "eq 10 x0 + 2 x1 - 5 x2 = 0\nval 5 : v(x2) == 0\n",
    # under the digit children of x0 and x1, the open x2 is a combination of
    # floored variables, some of them digit variables: their digit terms
    # join the bounded case's constant, which then reads valuation 0
    "vars x0 x1 x2 x3 x4\neq 1 x0 - 1 x1 + 3 x2 + 6 x3 + 6 x4 = 0\n"
    "eq 2 x0 + 2 x1 - 6 x2 + 3 x3 + 3 x4 = 0\nval 3 : v(x0) == 0\n"
    "val 3 : v(x1) == 0\nval 3 : v(x2) <= 1\n",
], ids=["frozen", "bounded"])
def test_digit_terms_move_into_the_frozen_and_bounded_constants(text):
    # reading either constant without the digit terms refutes these sat
    # instances
    i = parse_instance(text)
    verdict = solve_combined(i)
    assert verdict.is_sat and verify_witness(i, verdict.witness)


def _digit_searches():
    """Mixed draws at p = 3, 5 and 7 with 8, 10 and 12 variables, 45 seeds
    each, then acceptance 11's == encodings: K3, K4 and 60 random graphs."""
    for p in (3, 5, 7):
        for n in (8, 10, 12):
            for seed in range(45):
                yield random_instance(
                    seed, fragment="mixed", primes=(p,), num_vars=n, num_eqs=n // 2
                )
    graphs = [Graph.complete(3), Graph.complete(4)]
    graphs += [Graph.random(seed, 4 + seed % 3, 0.5) for seed in range(60)]
    for g in graphs:
        yield encode_three_coloring_eq(g)


def test_digit_search_states_are_pinned(monkeypatch):
    # each search's status, code and number of states (_propagate calls),
    # hashed in order, on searches rich in digit children.  An unsound
    # shortcut in how a digit child reads its rows can keep every status of
    # an unsat family while it cuts states; the digest was last computed
    # when unit scaling cut the first digit split of homogeneous states, and
    # every sat witness verifies
    states = collections.Counter()
    real_propagate, real_digit = complete._propagate, complete._fix_digit

    def propagate(state):
        states["search"] += 1
        return real_propagate(state)

    def digit(*args):
        states["digit children"] += 1
        return real_digit(*args)

    monkeypatch.setattr(complete, "_propagate", propagate)
    monkeypatch.setattr(complete, "_fix_digit", digit)
    digest = hashlib.sha256()
    statuses = collections.Counter()
    for i in _digit_searches():
        states["search"] = 0
        verdict = solve_combined(i)
        statuses[verdict.status.value] += 1
        states["all"] += states["search"]
        if verdict.is_sat:
            assert verify_witness(i, verdict.witness)
        digest.update(repr((verdict.status.value, verdict.code, states["search"])).encode() + b"\0")
    assert statuses == {"sat": 193, "unsat": 274}, statuses
    assert states["all"] == 34746 and states["digit children"] >= 10000, states
    assert digest.hexdigest() == (
        "5414c7ba3a5c559625b5790ddb5cc82e6ee782cbb6df42f92c8c7035a9cd75b9"
    ), statuses


def _digit_children(monkeypatch):
    """Record the search's digit children as (variable, digit, the digits
    fixed before it)."""
    children = []
    real = complete._fix_digit

    def spy(state, var, digit, v):
        children.append((var, digit, tuple(state.consts.items())))
        return real(state, var, digit, v)

    monkeypatch.setattr(complete, "_fix_digit", spy)
    return children


@pytest.mark.parametrize("text, children", [
    # homogeneous at p = 5: x's split, the first, tries only d = 1; then
    # y = x/4 needs digit 4 (4*4 = 1 mod 5), and y's split, under x's digit,
    # tries all four
    ("vars x y\neq 1 x - 4 y = 0\nval 5 : v(x) == 0\nval 5 : v(y) == 0\n",
     [("x", 1, ()), *(("y", d, (("x", (1, 0)),)) for d in (1, 2, 3, 4))]),
    # the row y = 1 has rhs 1, so x's split tries every digit up to x = 4
    ("vars x y\neq 1 x - 4 y = 0\neq 1 y = 1\nval 5 : v(x) == 0\nval 5 : v(y) == 0\n",
     [*(("x", d, ()) for d in (1, 2, 3, 4)), ("y", 1, (("x", (4, 0)),))]),
], ids=["homogeneous", "nonzero-rhs"])
def test_unit_scaling_cuts_only_the_first_homogeneous_split(monkeypatch, text, children):
    # unit scaling: while no digit is fixed and every row's rhs is 0, a
    # digit split has only its child d = 1; otherwise it has all p - 1
    i = parse_instance(text)
    tried = _digit_children(monkeypatch)
    verdict = solve_combined(i)
    assert verdict.is_sat and verify_witness(i, verdict.witness)
    assert tried == children


def test_unit_scaling_cuts_one_split_of_an_exhausted_search(monkeypatch):
    # K4 in the window encoding at (3, 1) is homogeneous and unsat, so its
    # search tries every child it has: the first split only d = 1, and every
    # split under a fixed digit both digits
    tried = _digit_children(monkeypatch)
    assert solve_combined(encode_coloring(Graph.complete(4), 3, 1)).is_unsat
    splits = collections.defaultdict(list)
    for var, digit, fixed in tried:
        splits[fixed, var].append(digit)
    assert [digits for (fixed, _), digits in splits.items() if not fixed] == [[1]]
    later = [digits for (fixed, _), digits in splits.items() if fixed]
    assert later and all(digits == [1, 2] for digits in later), splits


@pytest.mark.parametrize("text", [
    # the only digit of x is 2, and the row's rhs is not 0
    "vars x\neq 1 x = 2\nval 3 : v(x) == 0\n",
    # homogeneous: x's digit is cut to 1, and then y's must be 2
    "vars x y\neq 1 x - 2 y = 0\nval 3 : v(x) == 0\nval 3 : v(y) == 0\n",
], ids=["digit2", "unitpair"])
def test_unit_scaling_keeps_the_digits_a_solution_needs(text):
    i = parse_instance(text)
    verdict = solve_combined(i)
    assert verdict.is_sat and verify_witness(i, verdict.witness)


def _homogeneous_searches():
    """Searches whose rows are all homogeneous: colorings at (3, 1), (5, 1)
    and (3, 2), == encodings, and mixed draws at p = 3, 5 and 7 that reach
    the search, with every rhs set to 0."""
    graphs = [Graph.complete(4), Graph.complete(6)]
    graphs += [Graph.random(seed, 6 + seed % 3, 0.7) for seed in range(16)]
    for g in graphs:
        for p, e in ((3, 1), (5, 1), (3, 2)):
            yield encode_coloring(g, p, e)
    for g in [Graph.complete(4), *(Graph.random(seed, 4 + seed % 2, 0.6) for seed in range(10))]:
        yield encode_three_coloring_eq(g)
    for p in (3, 5, 7):
        for seed in range(200):
            i = random_instance(seed, fragment="mixed", primes=(p,), num_vars=4 + seed % 5,
                                num_eqs=2 + seed % 3)
            i = Instance(i.variables, tuple(Equation(eq.coeffs, Fraction(0)) for eq in i.equations),
                         i.valuations)
            norm = normalize(i)
            if (not isinstance(norm, ImmediateUnsat)
                    and classify(norm).per_prime.get(p) is Fragment.HARD):
                yield i


def _with_unit(i):
    """i with a fresh variable z, the row z = 1 and v_p(z) >= 0: the same
    status, and a nonzero rhs, which turns unit scaling off."""
    p = i.valuations[0].prime
    n = len(i.variables)
    return Instance(
        (*i.variables, "z"),
        (*(Equation((*eq.coeffs, Fraction(0)), eq.rhs) for eq in i.equations),
         Equation.of([0] * n + [1], 1)),
        (*i.valuations, val(p, "z", ">=", 0)),
    )


def test_unit_scaling_keeps_every_status(monkeypatch):
    # each homogeneous search against itself with unit scaling turned off by
    # an extra row z = 1: the same status, every sat witness verifies, and
    # the cut saves digit children
    tried = _digit_children(monkeypatch)
    outcomes = collections.Counter()
    for i in _homogeneous_searches():
        answers = []
        for case in (i, _with_unit(i)):
            start = len(tried)
            verdict = solve_combined(case)
            assert not verdict.is_unknown
            if verdict.is_sat:
                assert verify_witness(case, verdict.witness)
            answers.append((verdict.status, len(tried) - start))
        assert answers[0][0] == answers[1][0], i
        outcomes[answers[0][0].value] += 1
        outcomes["cut"] += answers[0][1] < answers[1][1]
    assert outcomes["sat"] >= 250 and outcomes["unsat"] >= 80, outcomes
    assert outcomes["cut"] >= 60, outcomes


def _permuted(i, rng):
    """i with its vars line shuffled, and each equation's coefficients with it."""
    order = list(range(len(i.variables)))
    rng.shuffle(order)
    return Instance(
        tuple(i.variables[j] for j in order),
        tuple(Equation(tuple(eq.coeffs[j] for j in order), eq.rhs) for eq in i.equations),
        i.valuations,
    )


def _order_free_searches():
    """HARD draws at p = 2, 3 and 5 with 6-12 variables and n/2 or n - 2
    rows, colorings at (3, 1) and (2, 2), and == encodings, K4 and K5
    included."""
    for p in (2, 3, 5):
        for n in range(6, 13):
            for seed in range(24):
                i = random_instance(seed, fragment="mixed", primes=(p,), num_vars=n,
                                    num_eqs=n // 2 if seed % 2 else n - 2)
                norm = normalize(i)
                if (not isinstance(norm, ImmediateUnsat)
                        and classify(norm).per_prime.get(p) is Fragment.HARD):
                    yield i
    graphs = [Graph.complete(4), Graph.complete(5)]
    graphs += [Graph.random(seed, 5 + seed % 3, 0.5) for seed in range(8)]
    for g in graphs:
        yield encode_coloring(g, 3, 1)
        yield encode_coloring(g, 2, 2)
    for g in [Graph.complete(4), *(Graph.random(seed, 4 + seed % 2, 0.5) for seed in range(8))]:
        yield encode_three_coloring_eq(g)


def test_the_search_does_not_read_the_vars_line_order(monkeypatch):
    # the search has one variable order, the names', so shuffling the vars
    # line (and each equation's coefficients with it) changes no status,
    # code, reason, diagnostics or witness, nor the number of states
    calls = collections.Counter()
    real = complete._propagate

    def propagate(state):
        calls["states"] += 1
        return real(state)

    monkeypatch.setattr(complete, "_propagate", propagate)
    rng = random.Random(36)
    outcomes = collections.Counter()
    for i in _order_free_searches():
        answers = []
        for case in (i, _permuted(i, rng)):
            calls["states"] = 0
            verdict = solve_hard(case)
            answers.append((verdict.status, verdict.code, verdict.reason,
                            verdict.diagnostics, verdict.witness, calls["states"]))
        assert answers[0] == answers[1], i
        outcomes[verdict.status.value] += 1
    assert outcomes["sat"] >= 120 and outcomes["unsat"] >= 60, outcomes


def _zero_heavy_draw(seed):
    """A small single-prime instance whose rows often force a variable to 0:
    2-5 variables, 1-4 rows of coefficients +-{1, 2, 3}*p^(0..2) over a
    random support, rhs 0 with probability 0.6, 0-2 constraints of each
    relation per variable with bounds in -1..3, and v(x_last) <= 4."""
    rng = random.Random(seed)
    p = rng.choice((2, 3, 5))
    names = tuple(f"x{j}" for j in range(rng.randint(2, 5)))

    def coefficient():
        return rng.choice((1, -1)) * rng.choice((1, 2, 3)) * p ** rng.randint(0, 2)

    equations = []
    for _ in range(rng.randint(1, 4)):
        support = set(rng.sample(names, rng.randint(1, len(names))))
        coeffs = [coefficient() if v in support else 0 for v in names]
        rhs = 0 if rng.random() < 0.6 else coefficient()
        equations.append(Equation.of(coeffs, rhs))
    valuations = [
        val(p, v, rng.choice((">=", "<=", "==", "!=")), rng.randint(-1, 3))
        for v in names
        for _ in range(rng.randint(0, 2))
    ]
    return inst(names, equations, [*valuations, val(p, names[-1], "<=", 4)])


def test_zero_heavy_answers_are_pinned(monkeypatch):
    # the search's status on 2,000 draws whose rows often force a zero,
    # hashed in order ("refuted" where normalization already refutes the
    # draw), and every sat witness checked; many draws force a zero, and
    # many of those refute it under a finite cap
    forced = collections.Counter()
    real = complete._force_zero

    def spy(state, var):
        verdict = real(state, var)
        forced["refuted" if verdict is not None else "narrowed"] += 1
        return verdict

    monkeypatch.setattr(complete, "_force_zero", spy)
    digest = hashlib.sha256()
    statuses = collections.Counter()
    for seed in range(2000):
        i = _zero_heavy_draw(seed)
        verdict = solve_hard(i)
        status = "refuted" if verdict is None else verdict.status.value
        statuses[status] += 1
        if status == "sat":
            assert verify_witness(i, verdict.witness), seed
        digest.update(status.encode() + b"\0")
    assert min(statuses.values()) >= 400 and len(statuses) == 3, statuses
    assert min(forced.values()) >= 200, forced
    assert digest.hexdigest() == (
        "e33e56e7e8aa255493dd951b34b3814f69875ffe17521e8cd46392e5537fda5d"
    ), statuses


# ---------------------------------------------------------------------------
# agreement with the polynomial solvers on their own fragments


def test_agreement_with_geq_solver():
    rng = random.Random(9001)
    sat = unsat = 0
    for trial in range(80):
        p = rng.choice([2, 3, 5])
        i = random_instance(
            rng.randrange(1 << 30),
            fragment="geq",
            num_vars=rng.randint(1, 4),
            num_eqs=rng.randint(1, 3),
            coeff_mag=6,
            bound_mag=3,
            primes=(p,),
        )
        norm = normalize(i)
        if isinstance(norm, ImmediateUnsat):
            continue
        direct = solve_geq(geq_problem_of(norm, p))
        routed = solve_complete(norm, prime=p)
        assert direct.status == routed.status, f"trial {trial}"
        if routed.is_sat:
            sat += 1
            assert verify_witness(i, routed.witness)
        else:
            unsat += 1
    assert sat > 10 and unsat > 10


def test_agreement_with_leq_solver():
    rng = random.Random(9002)
    sat = unsat = 0
    for trial in range(80):
        p = rng.choice([2, 3, 5])
        i = random_instance(
            rng.randrange(1 << 30),
            fragment="leq",
            num_vars=rng.randint(1, 4),
            num_eqs=rng.randint(1, 3),
            coeff_mag=6,
            bound_mag=3,
            primes=(p,),
        )
        norm = normalize(i)
        if isinstance(norm, ImmediateUnsat):
            continue
        direct = solve_leq(leq_problem_of(norm, p))
        routed = solve_complete(norm, prime=p)
        assert direct.status == routed.status, f"trial {trial}"
        if routed.is_sat:
            sat += 1
            assert verify_witness(i, routed.witness)
        else:
            unsat += 1
    assert sat > 10 and unsat > 10


# ---------------------------------------------------------------------------
# analytic cross-checks for the digit branching


def test_single_variable_pinned_analytic():
    rng = random.Random(9003)
    for trial in range(120):
        p = rng.choice([3, 5])
        a = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        c = rng.randint(-3, 3)
        i = inst(
            ["x"],
            [Equation((a,), b)],
            [val(p, "x", "==", c)],
        )
        expected = b != 0 and valuation(b / a, p) == c
        verdict = solve_hard(i)
        assert verdict.is_sat == expected, f"trial {trial}: {a}x={b}, v_{p}=c{c}"
        if verdict.is_sat:
            assert verify_witness(i, verdict.witness)
            assert verdict.witness["x"].valuation() == c


def expected_two_pinned(a, b, r, p, c, d):
    """a*x + b*y = r with v(x) = c, v(y) = d exactly, over p >= 3."""
    alpha = valuation(a, p) + c
    beta = valuation(b, p) + d
    rho = valuation(r, p)  # INF for r = 0
    if alpha != beta:
        return rho == min(alpha, beta)
    return rho >= alpha


def test_two_variable_pinned_analytic():
    rng = random.Random(9004)
    agree_sat = agree_unsat = 0
    for trial in range(150):
        p = rng.choice([3, 5])
        a = Fraction(rng.choice([x for x in range(-6, 7) if x]))
        b = Fraction(rng.choice([x for x in range(-6, 7) if x]))
        r = Fraction(rng.randint(-8, 8))
        c = rng.randint(-2, 2)
        d = rng.randint(-2, 2)
        i = inst(
            ["x", "y"],
            [Equation((a, b), r)],
            [val(p, "x", "==", c), val(p, "y", "==", d)],
        )
        expected = expected_two_pinned(a, b, r, p, c, d)
        verdict = solve_hard(i)
        assert verdict.is_sat == expected, (
            f"trial {trial}: {a}x+{b}y={r}, v_{p}(x)={c}, v_{p}(y)={d}"
        )
        if verdict.is_sat:
            agree_sat += 1
            assert verify_witness(i, verdict.witness)
            assert verdict.witness["x"].valuation() == c
            assert verdict.witness["y"].valuation() == d
        else:
            agree_unsat += 1
    assert agree_sat > 20 and agree_unsat > 20


def test_mixed_fuzz_witnesses_verify():
    rng = random.Random(9005)
    sat = 0
    for trial in range(60):
        i = random_instance(
            rng.randrange(1 << 30),
            fragment="mixed",
            num_vars=rng.randint(2, 4),
            num_eqs=rng.randint(1, 3),
            coeff_mag=5,
            bound_mag=2,
            primes=(rng.choice([2, 3, 5]),),
        )
        verdict = solve_hard(i)
        assert verdict is None or not verdict.is_unknown, f"trial {trial}"
        if verdict is not None and verdict.is_sat:
            sat += 1
            assert verify_witness(i, verdict.witness), f"trial {trial}"
    assert sat > 15


def _frozen_reference(state):
    """The frozen-coordinate pass, read straight off the Fraction reference
    solve's canonical particular solution and kernel basis, with x_z = 0 for
    each zeroed z."""
    names = sorted(state.profiles)
    equations = state_equations(state) + [
        ({v: 1}, 0) for v in names if state.profiles[v].lower == INF
    ]
    space = reference_solve_affine(
        [[coeffs.get(v, 0) for v in names] for coeffs, _ in equations],
        [rhs for _, rhs in equations],
        len(names),
    )
    if space is None:
        return Verdict.unsat("no-solution", "the equations are inconsistent")
    particular, basis = space
    for j, var in enumerate(names):
        if any(vec[j] != 0 for vec in basis):
            continue
        prof = state.profiles[var]
        value = particular[j]
        if value == 0:
            if prof.upper != INF:
                return Verdict.unsat(
                    "forced-zero",
                    f"{var} must vanish but has a finite upper bound",
                    var=var,
                )
            state.profiles[var] = VarProfile(INF, INF)
            continue
        v = valuation(value, state.prime)
        if not (prof.lower <= v <= prof.upper and v not in prof.excluded):
            return Verdict.unsat(
                "fixed-out-of-range",
                f"{var} is fixed with valuation {v}, outside its admissible set",
                var=var,
                valuation=v,
            )
    return None


def _propagate_reference(state, parity_raises=None):
    """complete._propagate with the minimum over the other terms rebuilt for
    every variable: O(k^2) per equation of k terms, on the Fraction equations
    and their valuations rather than the integer rows' cached ones.  At
    p = 2, when the other terms at that minimum m are all exact, a nonzero
    rhs counting as one exact term, and even in number, they sum to 2^(m+1)
    times an integer, so the bound is one higher; parity_raises, a list, gets
    the variable of each raise to such a bound."""
    p = state.prime
    raises = 0
    frozen_checked = False
    for _ in range(PROPAGATION_ROUNDS_FACTOR * max(1, len(state.profiles))):
        changed = False
        for coeffs, rhs in state_equations(state):
            terms, exact = {}, {}
            for var, a in coeffs.items():
                prof = state.profiles[var]
                lo = prof.lower
                terms[var] = NEG_INF if lo == NEG_INF else valuation(a, p) + lo
                exact[var] = p == 2 and is_finite(lo) and lo == prof.upper
            rhs_val = INF if rhs == 0 else valuation(rhs, p)
            for var, a in coeffs.items():
                others = [(t, exact[w]) for w, t in terms.items() if w != var]
                if rhs != 0:
                    others.append((rhs_val, True))
                floor_others = min([t for t, _ in others] + [INF])
                if floor_others == NEG_INF:
                    continue
                prof = state.profiles[var]
                new_lower = (
                    INF if floor_others == INF else floor_others - valuation(a, p)
                )
                at_floor = [e for t, e in others if t == floor_others]
                if (p == 2 and new_lower != INF and all(at_floor)
                        and len(at_floor) % 2 == 0):
                    new_lower += 1
                    if parity_raises is not None and prof.lower < new_lower:
                        parity_raises.append(var)
                if new_lower == NEG_INF or new_lower <= prof.lower:
                    continue
                changed = True
                raises += 1
                if new_lower == INF:
                    if prof.upper != INF:
                        return Verdict.unsat(
                            "forced-zero",
                            f"{var} must vanish but has a finite upper bound",
                            var=var,
                        )
                    state.profiles[var] = VarProfile(INF, INF)
                    continue
                prof = VarProfile(new_lower, prof.upper, prof.excluded)
                state.profiles[var] = prof
                if prof.empty():
                    return Verdict.unsat(
                        "empty-window",
                        f"propagation emptied the window of {var}",
                        var=var,
                    )
                if raises > len(state.profiles) and not frozen_checked:
                    frozen_checked = True
                    failed = _frozen_reference(state)
                    if failed is not None:
                        return failed
        if not changed:
            return None
    return None


def _random_state(rng):
    p = rng.choice((2, 3, 5))
    names = [f"x{i}" for i in range(rng.randint(1, 6))]
    equations = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {
            v: Fraction(rng.choice((1, -1)) * p ** rng.randint(0, 3) * rng.randint(1, 4),
                        rng.choice((1, 1, p)))
            for v in rng.sample(names, rng.randint(1, len(names)))
        }
        rhs = Fraction(0) if rng.random() < 0.4 else Fraction(rng.randint(-30, 30))
        equations.append((coeffs, rhs))
    profiles = {}
    for v in names:
        lower = NEG_INF if rng.random() < 0.3 else rng.randint(-2, 3)
        upper = INF if rng.random() < 0.6 else rng.randint(0, 5)
        excluded = frozenset(rng.randint(-2, 5) for _ in range(rng.randint(0, 2)))
        profiles[v] = VarProfile(lower, upper, excluded)
    state = integer_state(p, equations, profiles)
    assert state_equations(state) == primitive_equations(equations)
    return state


def _parity_state(rng):
    """A state at p = 2 rich in exact terms that share a valuation: unit or
    twice-unit coefficients, and most valuations pinned to 0 or 1."""
    names = [f"x{i}" for i in range(rng.randint(2, 4))]
    equations = []
    for _ in range(rng.randint(1, 2)):
        coeffs = {
            v: Fraction(rng.choice((1, -1, 3, -3)) * 2 ** rng.randint(0, 1))
            for v in rng.sample(names, rng.randint(2, len(names)))
        }
        rhs = Fraction(0) if rng.random() < 0.3 else Fraction(
            rng.choice((1, -1, 3, 5)) * 2 ** rng.randint(0, 2)
        )
        equations.append((coeffs, rhs))
    profiles = {}
    for v in names:
        e = rng.randint(0, 1)
        if rng.random() < 0.7:
            profiles[v] = VarProfile(e, e)
        else:
            profiles[v] = VarProfile(NEG_INF if rng.random() < 0.5 else e, INF)
    return integer_state(2, equations, profiles)


def test_propagate_matches_quadratic_reference():
    rng = random.Random(4242)
    outcomes = collections.Counter()
    for trial in range(400):
        state = _parity_state(rng) if trial % 4 == 3 else _random_state(rng)
        before = state.copy()
        reference = state.copy()
        parity_raises = []
        got, want = _propagate(state), _propagate_reference(reference, parity_raises)
        assert got == want, trial
        assert state == reference, trial
        # the trials where a bound rose to the parity rule's bound
        outcomes["parity"] += bool(parity_raises)
        if got is not None:
            outcomes[got.code] += 1
        elif any(prof.lower == INF for prof in state.profiles.values()):
            outcomes["zero-forced"] += 1
        else:
            outcomes["tightened" if state != before else "unchanged"] += 1
    five = ("forced-zero", "empty-window", "zero-forced", "tightened", "unchanged")
    assert all(outcomes[c] >= 10 for c in (*five, "parity")), outcomes
    # the frozen-coordinate pass's own unsat answers
    frozen = ("no-solution", "fixed-out-of-range")
    assert all(outcomes[c] >= 1 for c in frozen), outcomes
    assert set(outcomes) == {*five, *frozen, "parity"}, outcomes


def test_parity_bounds_hold_on_every_solution():
    # one row a*x + sum a_j y_j = b at p = 2 with every y_j pinned: each
    # y_j = 2^(v_j) u_j with u_j odd gives x, and every such solution that
    # meets x's floor meets the bounds propagation leaves, which needs the
    # answer not to be unsat.  Parity raises x past min-plus in many trials
    rng = random.Random(2025)
    units = (-3, -1, 1, 3, 5, 7)
    outcomes = collections.Counter()
    for trial in range(300):
        names = [f"y{j}" for j in range(rng.randint(1, 3))]
        coeffs = {v: rng.choice((1, -1, 3, -5)) * 2 ** rng.randint(0, 2) for v in ["x", *names]}
        rhs = 0 if rng.random() < 0.3 else rng.choice((1, -1, 3, 7)) * 2 ** rng.randint(0, 3)
        pinned = {v: rng.randint(-1, 2) for v in names}
        floor = NEG_INF if rng.random() < 0.5 else rng.randint(-2, 3)
        profiles = {"x": VarProfile(floor, INF), **{v: VarProfile(e, e) for v, e in pinned.items()}}
        state = integer_state(2, [({v: Fraction(a) for v, a in coeffs.items()}, Fraction(rhs))],
                              profiles)
        verdict = _propagate(state)
        solutions = 0
        for us in itertools.product(units, repeat=len(names)):
            ys = {v: Fraction(2) ** pinned[v] * u for v, u in zip(names, us)}
            x = (rhs - sum(coeffs[v] * y for v, y in ys.items())) / coeffs["x"]
            if valuation(x, 2) < floor:
                continue
            solutions += 1
            assert verdict is None, (trial, coeffs, rhs, pinned, floor, verdict)
            assert valuation(x, 2) >= state.profiles["x"].lower, (trial, coeffs, rhs, pinned)
        least = min([valuation(coeffs[v], 2) + e for v, e in pinned.items()]
                    + [valuation(Fraction(rhs), 2)])
        if verdict is not None:
            outcomes["unsat"] += 1
        elif state.profiles["x"].lower == least + 1 - valuation(coeffs["x"], 2):
            outcomes["parity raise"] += 1
        outcomes["with solutions" if solutions else "without"] += 1
    assert min(outcomes.values()) >= 30 and len(outcomes) == 4, outcomes


def _quiet_searches():
    for p, e in ((2, 2), (3, 1)):
        for seed in range(12):
            yield encode_coloring(Graph.random(seed, 5 + seed % 4, 0.5), p, e)
    for p in (2, 3, 5):
        for seed in range(100):
            yield random_instance(seed, fragment="mixed", primes=(p,))
    # draws where a split child's narrowed lower edge lets a row raise
    for seed in (785, 831):
        yield random_instance(seed, fragment="mixed")
    for seed in (360, 641):
        yield random_instance(seed, fragment="mixed", primes=(2,), num_vars=6, num_eqs=4)


def test_quiet_rows_are_skipped_exactly(monkeypatch):
    # at every propagation inside real searches, the same call on a copy of
    # the state with every row woken gives the same verdict, profiles, rows,
    # valuations and log, and on None the same quiet rows: skipping a quiet
    # row is exactly a full pass
    real = complete._propagate
    calls = collections.Counter()

    def spy(state):
        woken = state.copy()
        woken.quiet = [False] * len(woken.rows)
        skipped = sum(state.quiet)
        got, want = real(state), real(woken)
        assert got == want
        assert state == woken
        if got is None:
            assert state.quiet == woken.quiet
        calls["calls"] += 1
        calls["with quiet rows"] += skipped > 0
        return got

    monkeypatch.setattr(complete, "_propagate", spy)
    for i in _quiet_searches():
        verdict = solve_combined(i)
        if verdict.is_sat and verdict.witness is not None:
            assert verify_witness(i, verdict.witness)
    assert calls["with quiet rows"] >= 300, calls


def test_substitutions_keep_cached_valuations():
    # after every digit substitution, digits at negative v and fractional
    # coefficients included, every forced zero, and after propagation: a
    # digit child leaves the rows as they are, and the rows stay canonical;
    # read over the digit variables' remainders, with each zeroed variable
    # read as 0, they are the Fraction substitution, and the coefficient
    # and rhs valuations _State caches for propagation match the integer
    # rows, each rhs less its digit terms as a Fraction.  A forced zero
    # narrows its variable to v >= +inf and leaves the rows and their
    # valuations as they were; when the substitution reads 0 = nonzero, the
    # lower-bound relaxation refutes the state.  As in the search, the
    # root's relaxation runs before any digit child, so that refutation is
    # an incremental one
    rng = random.Random(777)
    kinds = collections.Counter()
    for trial in range(300):
        state = _random_state(rng)
        assert state.valuations == row_valuations(state), trial
        assert_rows_canonical(state)
        if not complete._relaxation(state):
            kinds["root pruned"] += 1
            continue
        reference = state_equations(state)
        for step in range(4):
            live = sorted(v for v, prof in state.profiles.items() if prof.lower != INF)
            if not live:
                break
            var = rng.choice(live)
            if rng.random() < 0.4 or var in state.consts:
                entry = ("zero", var)
                rows, valuations = list(state.rows), list(state.valuations)
                complete._narrow(state, var, complete._ZERO)
                assert (state.rows, state.valuations) == (rows, valuations), (trial, step)
                prof = state.profiles[var]
                assert (prof.lower, prof.upper) == (INF, INF) and not prof.empty()
                kinds["zero"] += 1
            else:
                v = rng.randint(-3, 3)
                digit = rng.randint(1, state.prime - 1)
                entry = ("digit", var, digit, v)
                rows = list(state.rows)
                _fix_digit(state, *entry[1:])
                assert state.rows == rows and state.consts[var] == (digit, v), (trial, step)
                assert state.profiles[var] == VarProfile(v + 1, INF), (trial, step)
                kinds["digit-negative-v" if v < 0 else "digit"] += 1
            reference = substitute_reference(state.prime, reference, entry)
            zeroed = zeroed_equations(state)
            assert (zeroed is None) == (reference is None), (trial, step)
            assert state.valuations == row_valuations(state), (trial, step)
            copied = state.copy()
            assert copied.valuations == state.valuations, (trial, step)
            if reference is None:  # the search's relaxation prunes such a state
                assert not complete._relaxation(state), (trial, step)
                kinds["contradiction"] += 1
                break
            assert primitive_equations(zeroed) == primitive_equations(reference), (trial, step)
            assert_rows_canonical(state)
        else:
            if _propagate(state) is None:
                assert_rows_canonical(state)
                assert state.valuations == row_valuations(state), trial
    assert min(kinds.values()) >= 20 and len(kinds) == 5, kinds


# ---------------------------------------------------------------------------
# the rows a state adopts from its sat relaxation


def test_adopted_rows_have_the_same_solutions():
    # a sat relaxation replaces the rows by the echelon's nonzero rows, over
    # the columns in pivot order: the affine solution space, canonical in
    # the reference solve for one column order, stays the same by variable, the
    # rows stay canonical with their valuations cached, and the parent's
    # rows, which its other children share, are not edited.  Half the states
    # get a combination of two rows as one more row, which the echelon drops
    rng = random.Random(4343)
    outcomes = collections.Counter()
    # each adopted echelon then gets a child with one floor raised, whose
    # relaxation re-prices the rows, columns and index the parent shares:
    # those stay as they are, and the child's rows have the parent's solutions
    narrow = random.Random(4344)
    children = collections.Counter()
    for trial in range(400):
        state = _random_state(rng)
        if trial % 2:
            (a, ra), (b, rb) = rng.choices(state_equations(state), k=2)
            coeffs = {v: a.get(v, 0) + 2 * b.get(v, 0) for v in state.profiles}
            coeffs = {v: c for v, c in coeffs.items() if c}
            if coeffs:
                extra = (coeffs, ra + 2 * rb)
                state = integer_state(
                    state.prime, [*state_equations(state), extra], state.profiles
                )
        if _propagate(state) is not None:
            continue
        n = len(state.columns)
        rows = [list(row) for row in state.rows]
        before = state.copy()
        columns, index = list(before.columns), dict(before.index)
        space = reference_solve_affine([row[:n] for row in rows], [row[n] for row in rows], n)
        if not complete._relaxation(state):
            outcomes["pruned"] += 1
            continue
        assert before.rows == rows, trial
        assert (before.columns, before.index) == (columns, index), trial
        assert before.index == {c: j for j, c in enumerate(before.columns)}, trial
        assert state.index == {c: j for j, c in enumerate(state.columns)}, trial
        # the adopted columns are in pivot order: compare by variable name
        assert sorted(state.columns) == before.columns and state.profiles == before.profiles
        index = {c: j for j, c in enumerate(state.columns)}
        back = [[row[index[c]] for c in before.columns] + [row[n]] for row in state.rows]
        after = reference_solve_affine([row[:n] for row in back], [row[n] for row in back], n)
        assert after == space, trial
        assert_rows_canonical(state)
        assert state.valuations == row_valuations(state), trial
        outcomes["fewer rows" if len(state.rows) < len(rows) else "adopted"] += 1
        rows, columns, index = [list(row) for row in state.rows], list(state.columns), dict(state.index)
        child = state.copy()
        var = narrow.choice(columns[:len(rows)])  # a pivot's variable
        lower = max(child.profiles[var].lower, -3) + narrow.randint(1, 3)
        complete._narrow(child, var, VarProfile(lower, INF))
        if not complete._relaxation(child):
            children["pruned"] += 1
            continue
        assert (state.rows, state.columns, state.index) == (rows, columns, index), trial
        assert state.index == {c: j for j, c in enumerate(state.columns)}, trial
        assert child.index == {c: j for j, c in enumerate(child.columns)}, trial
        back = [[row[child.index[c]] for c in columns] + [row[n]] for row in child.rows]
        space = reference_solve_affine([row[:n] for row in rows], [row[n] for row in rows], n)
        after = reference_solve_affine([row[:n] for row in back], [row[n] for row in back], n)
        assert after == space, trial
        assert_rows_canonical(child)
        assert child.valuations == row_valuations(child), trial
        children["pivot moved" if child.columns != columns else "pivots kept"] += 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 3, outcomes
    assert min(children.values()) >= 20 and len(children) == 3, children


def _audit_adopted_rows(A, b, costs, adopted):
    """Acceptance 07's audit of the from-scratch echelon with its transform
    U, and the adopted rows are its nonzero rows (B | U b), made primitive."""
    result = pivot_minimal_echelon(A, costs, identity(len(A)))
    assert_echelon_result(A, costs, result)
    B, U = echelon_matrix(result), carried_matrix(result)
    assert len(adopted) == result.rank
    for i, row in enumerate(adopted):
        n = len(B[i])
        assert [Fraction(x, row[i]) for x in row[:n]] == [x / B[i][i] for x in B[i]]
        Ub = sum(u * x for u, x in zip(U[i], b))
        assert Fraction(row[n], row[i]) == Ub / B[i][i]


def _incremental_searches():
    for p, e in ((3, 1), (2, 2), (2, 1), (5, 1)):
        for seed in range(12):
            yield encode_coloring(Graph.random(seed, 4 + seed % 5, 0.5), p, e)
    for p in (2, 3, 5):
        for seed in range(150):
            yield random_instance(seed, fragment="mixed", primes=(p,))
    for seed in range(6):
        yield encode_three_coloring_eq(Graph.random(seed, 4 + seed % 3, 0.5))
    # the 4-colorings the parity test counts: at p = 2 a pivot that moves
    # can be exact, and its check then reads its own 2^floor term
    yield encode_coloring(Graph.complete(6), 2, 2)
    for seed in range(12):
        yield encode_coloring(Graph.random(seed, 9, 0.7), 2, 2)


def test_child_relaxations_are_the_echelon_from_scratch(monkeypatch):
    # at every relaxation that starts from an echelon record, inside real
    # searches: geq_echelon on a copy of the same rows in the same column
    # order, each rhs less its digit terms as a Fraction, gives the same
    # answer, and on sat pivot_minimal_echelon on the rows as they are gives
    # the rows and column order the state adopts.  Every 16th such echelon
    # also passes acceptance 07's audit
    real = complete._relaxation
    outcomes = collections.Counter()

    def spy(state):
        if state.stale is None:
            return real(state)
        n = len(state.columns)
        columns, rows = list(state.columns), [list(row) for row in state.rows]
        profs = [state.profiles[c] for c in columns]
        floors, exact = [q.lower for q in profs], [q.exact_at(state.prime) for q in profs]
        A, b = [row[:n] for row in rows], [row[n] for row in rows]
        folded = [
            digit_rhs(state, dict(zip(columns, row)), row[n]) for row in rows
        ]
        problem = GeqProblem(
            tuple(map(tuple, A)), tuple(folded), state.prime, tuple(floors), tuple(exact)
        )
        _, unsat = geq_echelon(problem)
        result = pivot_minimal_echelon(A, problem.costs(), [[x] for x in b])
        outcomes["with digits"] += folded != b
        sat = real(state)
        assert sat == (unsat is None), (columns, rows)
        if not sat:
            outcomes["unsat"] += 1
            return sat
        col_of = inverse_permutation(result.sigma)
        assert state.columns == [columns[c] for c in col_of], (columns, rows)
        adopted = [complete._primitive(row) for row in result.rows[:result.rank]]
        assert state.rows == adopted, (columns, rows)
        # no row is stale right after the echelon is adopted
        assert not any(state.stale)
        outcomes["rows kept" if state.rows == rows else "rows changed"] += 1
        if (outcomes["rows kept"] + outcomes["rows changed"]) % 16 == 0:
            _audit_adopted_rows(A, b, problem.costs(), state.rows)
            outcomes["audited"] += 1
        return sat

    monkeypatch.setattr(complete, "_relaxation", spy)
    for i in _incremental_searches():
        verdict = solve_combined(i)
        if verdict.is_sat:
            assert verify_witness(i, verdict.witness)
    assert outcomes["audited"] >= 50 and outcomes["with digits"] >= 300, outcomes
    assert len(outcomes) == 5, outcomes
    assert min(outcomes[k] for k in ("unsat", "rows kept", "rows changed")) >= 300, outcomes


def test_threshold_search_is_pinned(monkeypatch):
    # the n = 18 threshold graph of seed 100 (average degree 4.6): the
    # incremental relaxations search the tree the parent searched.  A state
    # is counted by its _propagate calls, one per decision
    states = []
    real = complete._propagate

    def spy(state):
        states.append(None)
        return real(state)

    monkeypatch.setattr(complete, "_propagate", spy)
    g = Graph.random(100, 18, 4.6 / 17)
    assert solve_combined(encode_coloring(g, 3, 1)).is_unsat
    assert len(states) == 1302



def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # the chain x_k - x_(k+1) = 0 with v_3(x_k) == 0 on 300 variables is sat,
    # every x_k = 1, and its search goes one digit child deeper per
    # variable.  The search is one loop, so it answers with the recursion
    # limit only 150 frames above the caller's depth
    n = 300
    i = inst(
        [f"x{k}" for k in range(n)],
        [Equation.of([int(j == k) - int(j == k + 1) for j in range(n)], 0)
         for k in range(n - 1)],
        [val(3, f"x{k}", "==", 0) for k in range(n)],
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 150)
    try:
        verdict = solve_combined(i)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.is_sat
    assert verify_witness(i, verdict.witness)

@pytest.mark.parametrize("i, sat", [
    (encode_coloring(Graph.complete(5), 3, 1), False),
    (encode_coloring(Graph.cycle(5), 3, 1), True),
    (inst(
        ["x", "y", "z", "w"],
        [Equation.of([-1, 1, 0, 1], 1), Equation.of([0, 1, -3, -1], 1)],
        [val(3, "x", ">=", 0), val(3, "z", ">=", 0), val(3, "y", "<=", 0)],
    ), True),
    # x = 3y and y = 3x freeze x = y = 0, so z = 1: the frozen pass forces
    # the zeros, which narrow x and y and keep their columns
    (inst(
        ["x", "y", "z"],
        [Equation.of([1, -3, 0], 0), Equation.of([-3, 1, 0], 0), Equation.of([1, 0, 1], 1)],
        [val(3, "x", ">=", 0), val(3, "z", "<=", 0)],
    ), True),
], ids=["K5", "C5", "mixed", "zeroed"])
def test_one_echelon_from_scratch_per_search(monkeypatch, i, sat):
    # only the root's relaxation runs pivot_minimal_echelon; every child
    # starts from its parent's echelon record, a forced zero keeps that
    # record, and a leaf builds its witness from the relaxation's echelon
    # instead of eliminating again.  The search decides more than one state
    # (_propagate runs once per decision)
    calls = collections.Counter()

    def spy(target, name):
        real = getattr(target, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, wrapper)

    spy(solver_geq, "pivot_minimal_echelon")
    spy(complete, "solve_complete")
    spy(complete, "_propagate")
    verdict = solve_combined(i)
    assert verdict.is_sat == sat and not verdict.is_unknown
    if sat:
        assert verify_witness(i, verdict.witness)
    assert calls["solve_complete"] == 1 < calls["_propagate"], calls
    assert calls["pivot_minimal_echelon"] == calls["solve_complete"], calls


@pytest.mark.parametrize("seed, n, parent_states", [(11, 10, 1583), (8, 8, 499)])
def test_coloring_search_states_are_pinned(monkeypatch, seed, n, parent_states):
    # 3-coloring encodings at (p, e) = (3, 1), both unsat: propagation on the
    # adopted rows refutes most states that searching the original rows
    # visited (parent_states, before the rows were adopted); a state is
    # counted by its _propagate calls
    states = []
    real = complete._propagate

    def spy(state):
        states.append(state)
        return real(state)

    monkeypatch.setattr(complete, "_propagate", spy)
    g = Graph.random(seed, n, 0.6)
    verdict = solve_combined(encode_coloring(g, 3, 1))
    assert verdict.is_unsat and not brute_color(g, 3)
    assert len(states) <= 100 < parent_states, len(states)


def test_parity_prunes_the_four_colorings_at_two(monkeypatch):
    # 4-colorings in the window encoding at (p, e) = (2, 2): two edge units
    # pinned at one valuation cancel their leading digit, which propagation
    # reads.  Before it read parity, K6 took 99 states and the twelve random
    # graphs 3,769.  A state is counted by its _propagate calls
    states = []
    real = complete._propagate

    def spy(state):
        states.append(None)
        return real(state)

    monkeypatch.setattr(complete, "_propagate", spy)
    graphs = [Graph.complete(6)] + [Graph.random(seed, 9, 0.7) for seed in range(12)]
    counts = []
    for g in graphs:
        i = encode_coloring(g, 2, 2)
        verdict = solve_combined(i)
        assert verdict.is_sat == brute_color(g, 4) and not verdict.is_unknown
        if verdict.is_sat:
            assert verify_witness(i, verdict.witness)
        counts.append(len(states))
        states.clear()
    assert counts[0] <= 39 and sum(counts[1:]) <= 731, counts
