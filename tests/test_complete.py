"""Dispatcher routing and the branch-and-decide solver for mixed instances."""

import collections
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicsat import complete
from padicsat.complete import (
    PROPAGATION_ROUNDS_FACTOR,
    _divergence_threshold,
    _propagate,
    _Prof,
    _State,
    _substitute_zero,
    solve_complete,
)
from padicsat.dispatch import solve_instance, solve_single_prime
from padicsat.errors import InputError, InternalError
from padicsat.model import (
    Equation,
    ImmediateUnsat,
    Instance,
    OrderConstraint,
    ValConstraint,
    Verdict,
    normalize,
)
from padicsat.rational import INF, NEG_INF, PowerSum, valuation
from padicsat.solver_geq import solve_geq
from padicsat.solver_leq import solve_leq
from padicsat.dispatch import geq_problem_of, leq_problem_of
from padicsat.testkit import Graph, encode_coloring, random_instance, verify_witness


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


def solve_hard(i, window=None):
    """Force an instance through the branch-and-decide solver.

    Returns None for trials that exercise nothing here: normalization may
    already refute a random instance, and one with no valuation constraints
    at all belongs to the valuation-free fragment.
    """
    norm = normalize(i)
    if isinstance(norm, ImmediateUnsat) or not norm.primes:
        return None
    return solve_complete(norm, window=window)


def test_wide_window_is_not_walked():
    # a valuation window 10^9 wide with one exclusion: emptiness, edge
    # trimming and window branching must not walk every value in it.  The
    # run gets its own process under a time and memory cap, so a regression
    # fails instead of exhausting the machine.
    text = (
        "vars x\neq 1 x = 9\nval 3 : v(x) >= 0\n"
        "val 3 : v(x) <= 1000000000\nval 3 : v(x) != 3\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "padicsat.cli", "solve", "-", "--witness"],
        input=text,
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
        preexec_fn=cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "sat"
    assert "x = 1@2" in proc.stdout


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


def test_rejected_witness_raises_internal_error(monkeypatch):
    i = encode_coloring(Graph.complete(3), 3, 1)
    assert solve_hard(i).is_sat
    reconstruct = complete._reconstruct

    def corrupted(state, witness):
        out = reconstruct(state, witness)
        var = min(out)
        out[var] = out[var] + PowerSum.from_rational(state.prime, 1)
        return out

    monkeypatch.setattr(complete, "_reconstruct", corrupted)
    with pytest.raises(InternalError, match="assembled witness rejected"):
        solve_hard(i)


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
    # the threshold cuts the climb short
    i = inst(
        ["x", "y"],
        [Equation.of([1, -3], 0), Equation.of([-3, 1], 0)],
        [val(3, "x", ">=", 0), val(3, "x", "!=", -5), val(3, "y", ">=", 0)],
    )
    verdict = solve_hard(i)
    assert verdict.is_sat
    assert verdict.witness["x"].is_zero() and verdict.witness["y"].is_zero()
    assert verify_witness(i, verdict.witness)


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


def test_mixed_unbounded_without_window_is_unknown():
    i = inst(
        ["x", "y", "z"],
        [Equation.of([1, 1, 1], 0)],
        [val(2, "x", ">=", 0), val(2, "y", "<=", 0)],
    )
    verdict = solve_hard(i)
    assert verdict.is_unknown
    assert verdict.code == "mixed-unbounded"


def test_window_turns_unknown_into_answer():
    i = inst(
        ["x", "y", "z"],
        [Equation.of([1, 1, 1], 1)],
        [
            val(2, "x", ">=", 0),
            val(2, "y", "<=", -1),
            val(2, "z", "<=", -1),
        ],
    )
    assert solve_hard(i).is_unknown
    # within v >= 0 there is no solution, but y = z = 1/2 lives below
    capped = solve_hard(i, window=0)
    assert capped.is_unknown and capped.code == "unsat-within-window"
    found = solve_hard(i, window=-1)
    assert found.is_sat
    assert verify_witness(i, found.witness)


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
        verdict = solve_hard(i, window=-3)
        if verdict is not None and verdict.is_sat:
            sat += 1
            assert verify_witness(i, verdict.witness), f"trial {trial}"
    assert sat > 15


def _propagate_reference(state):
    """complete._propagate with the minimum over the other terms rebuilt for
    every variable: O(k^2) per equation of k terms."""
    p = state.prime
    threshold = _divergence_threshold(state)
    for _ in range(PROPAGATION_ROUNDS_FACTOR * max(1, len(state.profiles))):
        changed = False
        restart = True
        while restart:
            restart = False
            for coeffs, rhs in state.equations:
                terms = {}
                for var, a in coeffs.items():
                    lo = state.profiles[var].lower
                    terms[var] = NEG_INF if lo == NEG_INF else valuation(a, p) + lo
                rhs_val = INF if rhs == 0 else valuation(rhs, p)
                for var, a in coeffs.items():
                    others = [t for w, t in terms.items() if w != var]
                    floor_others = min(others + [rhs_val])
                    if floor_others == NEG_INF:
                        continue
                    prof = state.profiles[var]
                    new_lower = (
                        INF if floor_others == INF else floor_others - valuation(a, p)
                    )
                    if new_lower == NEG_INF or new_lower <= prof.lower:
                        continue
                    changed = True
                    if new_lower == INF or (new_lower > threshold and prof.upper == INF):
                        if prof.upper != INF:
                            return Verdict.unsat(
                                "forced-zero",
                                f"{var} must vanish but has a finite upper bound",
                                var=var,
                            )
                        if not _substitute_zero(state, var):
                            return Verdict.unsat(
                                "forced-zero",
                                f"setting {var} = 0 contradicts an equation",
                                var=var,
                            )
                        restart = True
                        break
                    prof.lower = new_lower
                    if prof.empty():
                        return Verdict.unsat(
                            "empty-window",
                            f"propagation emptied the window of {var}",
                            var=var,
                        )
                if restart:
                    break
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
        profiles[v] = _Prof(lower, upper, excluded)
    return _State(p, equations, profiles)


def test_propagate_matches_quadratic_reference():
    rng = random.Random(4242)
    outcomes = collections.Counter()
    for trial in range(400):
        state = _random_state(rng)
        before = state.copy()
        reference = state.copy()
        got, want = _propagate(state), _propagate_reference(reference)
        assert got == want, trial
        assert state == reference, trial
        if got is not None:
            outcomes[got.code] += 1
        elif state.log:
            outcomes["zero-substituted"] += 1
        else:
            outcomes["tightened" if state != before else "unchanged"] += 1
    assert min(outcomes.values()) >= 10 and len(outcomes) == 5, outcomes
