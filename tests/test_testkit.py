"""Support code: witness checking (certify), the divisibility oracle, colorings,
generators."""

import random
import sys
from fractions import Fraction

import pytest

import padicsat.simplex
import padicsat.testkit
from padicsat.certify import verify_witness
from padicsat.dispatch import solve_instance
from padicsat.errors import InputError, OverflowGuardError
from padicsat.model import Equation, Instance, OrderConstraint, ValConstraint
from padicsat.rational import INF, NEG_INF, PowerSum, as_fraction, valuation
from padicsat.solver_geq import GeqProblem, solve_geq
from padicsat.solver_leq import solve_leq
from padicsat.testkit import (
    Graph,
    brute_color,
    encode_coloring,
    encode_three_coloring_eq,
    encode_two_coloring_geq,
    fourier_motzkin_feasible,
    instance_of_geq_problem,
    instance_of_leq_problem,
    random_geq_problem,
    random_instance,
    random_leq_problem,
    smith_oracle_geq,
    witness_map,
)


def test_checker_bindings_are_the_certify_functions():
    # the benchmark looks the checkers up by these module paths
    # (testkit.verify_witness, simplex.check_certificate and the package's
    # verify_witness), so each must stay bound to the one in certify
    assert padicsat.verify_witness is padicsat.certify.verify_witness
    assert padicsat.testkit.verify_witness is padicsat.certify.verify_witness
    assert padicsat.simplex.check_certificate is padicsat.certify.check_certificate


def simple_instance():
    return Instance(
        ("x", "y"),
        equations=(Equation((Fraction(1), Fraction(1)), Fraction(3)),),
        valuations=(ValConstraint(3, "x", ">=", 0),),
    )


def test_verify_witness_accepts_and_pinpoints_failures():
    inst = simple_instance()
    good = {"x": PowerSum.from_rational(3, 1), "y": Fraction(2)}
    assert verify_witness(inst, good)

    assert verify_witness(inst, {"x": Fraction(1)}).code == "missing-variable"
    assert (
        verify_witness(inst, {"x": object(), "y": Fraction(2)}).code == "bad-coordinate"
    )
    mixed = {"x": PowerSum.from_rational(3, 1), "y": PowerSum.from_rational(5, 2)}
    assert verify_witness(inst, mixed).code == "mixed-primes"
    wrong_sum = {"x": Fraction(1), "y": Fraction(1)}
    assert verify_witness(inst, wrong_sum).code == "equation"
    bad_val = {"x": Fraction(1, 3), "y": Fraction(8, 3)}
    assert verify_witness(inst, bad_val).code == "valuation"


def test_verify_witness_words_a_residual_past_the_digit_limit():
    # x = 1 + 10**5000 * 3**40 with y = 2 leaves x + y - 3 a residual whose
    # coefficient has 5,001 digits, past the int/str limit (Python 3.10.7 on): the
    # rejection names its valuation and size instead of printing it, and a
    # rational witness's total likewise
    inst = simple_instance()
    huge = 10**5000
    far = {"x": PowerSum(3, ((Fraction(1), 0), (Fraction(huge), 40))), "y": Fraction(2)}
    result = verify_witness(inst, far)
    assert result.code == "equation"
    near = {"x": Fraction(huge + 1), "y": Fraction(2)}
    assert verify_witness(inst, near).code == "equation"
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert result.detail == (
            "equation 0 has a nonzero residual of valuation 40 "
            "whose longest coefficient has 5001 digits"
        )
        assert verify_witness(inst, near).detail == (
            "equation 0 evaluates to a rational of 5001 digits, not its right-hand side"
        )


def test_verify_witness_checks_orders():
    inst = Instance(
        ("x",),
        orders=(OrderConstraint((Fraction(1),), "<", Fraction(2)),),
    )
    assert verify_witness(inst, {"x": Fraction(1)})
    assert verify_witness(inst, {"x": Fraction(2)}).code == "order"
    assert verify_witness(inst, {"x": PowerSum.from_rational(2, 1)})


def test_verify_witness_order_rejection_is_pinned():
    inst = Instance(
        ("x", "y"),
        orders=(
            OrderConstraint((Fraction(1), Fraction(0)), "<=", Fraction(5)),
            OrderConstraint((Fraction(1, 2), Fraction(-2, 3)), "<", Fraction(1, 6)),
        ),
    )
    point = {"x": Fraction(1, 3), "y": Fraction(0)}
    check = verify_witness(inst, point)
    assert (check.code, check.detail) == ("order", "order constraint 1: 1/6 < 1/6 fails")
    # the same point meets the row with <=
    row = inst.orders[1]
    weak = Instance(inst.variables, orders=(OrderConstraint(row.coeffs, "<=", row.rhs),))
    assert verify_witness(weak, point)


def _concrete(witness, variables):
    return [
        v.materialize() if isinstance(v, PowerSum) else as_fraction(v)
        for v in (witness[var] for var in variables)
    ]


def _order_reference(inst, witness):
    """The first order row that fails under Fraction evaluation, as
    (index, total), or None: the reference for the integer row check."""
    values = _concrete(witness, inst.variables)
    for idx, oc in enumerate(inst.orders):
        total = sum((c * v for c, v in zip(oc.coeffs, values)), Fraction(0))
        if not (total < oc.rhs if oc.rel == "<" else total <= oc.rhs):
            return idx, total
    return None


def test_verify_witness_order_rows_agree_with_fraction_evaluation():
    rng = random.Random(519)

    def rational():
        return Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 7, 12]))

    counts = dict.fromkeys(["accept", "reject", "tight <=", "tight <", "power sum"], 0)
    for trial in range(800):
        n = rng.randint(1, 4)
        names = tuple(f"x{j}" for j in range(n))
        p = rng.choice([2, 3, 5])
        if rng.random() < 0.3:
            # power sums over one prime, with negative exponents too
            witness = {
                var: PowerSum(p, tuple((rational(), e) for e in rng.sample(range(-3, 6), 2)))
                for var in names
            }
            counts["power sum"] += 1
        else:
            witness = {var: rational() for var in names}
        values = _concrete(witness, names)
        orders = []
        for _ in range(rng.randint(1, 3)):
            coeffs = tuple(rational() if rng.random() < 0.7 else Fraction(0) for _ in names)
            total = sum((c * v for c, v in zip(coeffs, values)), Fraction(0))
            rhs = total + rng.choice([Fraction(0), Fraction(0), rational() / 5])
            rel = rng.choice(["<", "<="])
            orders.append(OrderConstraint(coeffs, rel, rhs))
            if rhs == total:
                counts[f"tight {rel}"] += 1
        inst = Instance(names, orders=tuple(orders))
        check = verify_witness(inst, witness)
        expected = _order_reference(inst, witness)
        if expected is None:
            assert check, f"trial {trial}: {check.detail}"
            counts["accept"] += 1
        else:
            idx, total = expected
            oc = inst.orders[idx]
            assert (check.code, check.detail) == (
                "order",
                f"order constraint {idx}: {total} {oc.rel} {oc.rhs} fails",
            ), f"trial {trial}"
            counts["reject"] += 1
    assert min(counts.values()) > 100, counts


def test_verify_witness_guard_refusals():
    # a valuation at a different prime forces materialization; the guard may veto
    inst = Instance(("x",), valuations=(ValConstraint(2, "x", ">=", 0),))
    deep = {"x": PowerSum(3, ((Fraction(1), 100),))}
    assert verify_witness(inst, deep)  # 3**100 is odd, v_2 = 0
    assert verify_witness(inst, deep, guard=50).code == "guard"

    ordered = Instance(
        ("x",),
        orders=(OrderConstraint((Fraction(1),), "<=", Fraction(10) ** 60),),
    )
    assert verify_witness(ordered, deep)
    assert verify_witness(ordered, deep, guard=50).code == "guard"


def _reference_check(inst, witness):
    """The equation and valuation checks as one PowerSum.combination per
    equation and one valuation per constraint; the reference the exponent
    columns of verify_witness are held to.  Orders and the guard are left
    out: no case here has either."""
    values = {
        var: x if isinstance(x, PowerSum) else as_fraction(x) for var, x in witness.items()
    }
    primes = {x.prime for x in values.values() if isinstance(x, PowerSum)}
    for idx, eq in enumerate(inst.equations):
        terms = [(c, values[var]) for c, var in zip(eq.coeffs, inst.variables)]
        if primes:
            residual = PowerSum.combination(next(iter(primes)), [(-1, eq.rhs), *terms])
            if not residual.is_zero():
                return False, "equation", f"equation {idx} has nonzero residual {residual}"
        else:
            total = sum((c * x for c, x in terms), Fraction(0))
            if total != eq.rhs:
                return False, "equation", f"equation {idx} evaluates to {total}, expected {eq.rhs}"
    for vc in inst.valuations:
        vc = vc.desugared()
        x = values[vc.var]
        v = x.valuation() if isinstance(x, PowerSum) else valuation(x, vc.prime)
        holds = {
            ">=": v >= vc.bound,
            "<=": v <= vc.bound,
            "==": v == vc.bound,
            "!=": v != vc.bound,
        }[vc.rel]
        if not holds:
            return (
                False,
                "valuation",
                f"v_{vc.prime}({vc.var}) = {v} violates {vc.rel} {vc.bound}",
            )
    return True, "", ""


def _solved_witnesses(p):
    """(instance, witness) of solved GEQ, LEQ and HARD instances at p."""
    out = []
    for seed in range(40):
        geq = random_geq_problem(seed, max_dim=5, primes=(p,), allow_unbounded=True)
        verdict = solve_geq(geq)
        if verdict.is_sat:
            out.append((instance_of_geq_problem(geq), witness_map(geq, verdict.witness)))
        leq = random_leq_problem(seed, max_dim=5, primes=(p,))
        verdict = solve_leq(leq)
        if verdict.is_sat:
            out.append((instance_of_leq_problem(leq), witness_map(leq, verdict.witness)))
        hard = random_instance(seed, fragment="mixed", primes=(p,), num_eqs=3)
        verdict = solve_instance(hard)
        if verdict.is_sat:
            out.append((hard, verdict.witness))
    return out


def _mutants(witness, p, rng):
    """The witness with one term added to one coordinate, and with one
    coordinate replaced by a rational."""
    var = rng.choice(sorted(witness))
    coeff = Fraction(rng.choice((1, -2, 3)), rng.randint(1, 4))
    term = PowerSum(p, ((coeff, rng.randint(-3, 3)),))
    added = dict(witness)
    x = witness[var]
    added[var] = x + term if isinstance(x, PowerSum) else PowerSum.from_rational(p, x) + term
    replaced = dict(witness)
    replaced[var] = Fraction(rng.randint(-9, 9), rng.choice((1, p, p * p, 7)))
    return [added, replaced]


def _extreme_cases():
    """Exponents at +-10**6, int coefficients, and rational and PowerSum
    coordinates mixed, accepted and rejected."""
    big = 10**6
    far = PowerSum(3, ((Fraction(2), -big), (Fraction(1, 5), 0), (Fraction(-7), big)))
    inst = Instance(
        ("x", "y", "z"),
        equations=(
            Equation((1, -1, 0), 0),  # int coefficients
            Equation((Fraction(1, 2), Fraction(-1, 2), 3), Fraction(3, 4)),
        ),
        valuations=(ValConstraint(3, "x", ">=", -big), ValConstraint(3, "z", "==", 0)),
    )
    witnesses = [
        {"x": far, "y": far, "z": Fraction(1, 4)},
        {"x": far, "y": far + PowerSum(3, ((Fraction(1), big),)), "z": Fraction(1, 4)},
        {"x": far, "y": far, "z": Fraction(3, 4)},
        {"x": far.shift(-1), "y": far.shift(-1), "z": Fraction(1, 4)},
        {"x": far, "y": far, "z": PowerSum(3, ((Fraction(1, 4), 0),))},
        {"x": 2, "y": 2, "z": "1/4"},
        {"x": 2, "y": Fraction(3), "z": "1/4"},
    ]
    # x = 0 with x written as terms at +-10**6 that cancel, and that do not
    cancel = Instance(
        ("x", "y"),
        equations=(Equation((Fraction(1), Fraction(0)), Fraction(0)),),
        valuations=(ValConstraint(3, "x", "<=", 5),),
    )
    spread = PowerSum(3, ((Fraction(1), big), (Fraction(-1), -big)))
    out = [(inst, w) for w in witnesses]
    out.append((cancel, {"x": spread - spread, "y": Fraction(1)}))
    out.append((cancel, {"x": spread, "y": Fraction(1)}))
    capped = Instance(("x",), valuations=(ValConstraint(3, "x", "<=", 5),))
    out.append((capped, {"x": spread.shift(2 * big)}))
    return out


def test_verify_witness_matches_the_combination_reference():
    rng = random.Random(1414)
    cases = _extreme_cases()
    for p in (2, 3, 5):
        for inst, witness in _solved_witnesses(p):
            cases.append((inst, witness))
            # the valuations alone too, which a mutant fails more often
            # than the equations let it be seen
            alone = Instance(inst.variables, valuations=inst.valuations)
            for mutant in _mutants(witness, p, rng):
                cases += [(inst, mutant), (alone, mutant)]
    codes = {}
    for inst, witness in cases:
        result = verify_witness(inst, witness)
        got = (result.ok, result.code, result.detail)
        assert got == _reference_check(inst, witness), (inst, witness)
        codes[result.code] = codes.get(result.code, 0) + 1
    assert codes[""] > 100 and codes["equation"] > 50 and codes["valuation"] > 20, codes


def test_oracle_known_answers():
    # x = 3 with v_3(x) >= 1 is fine, >= 2 is not
    sat = GeqProblem.of([[1]], [3], 3, (1,), (False,))
    assert smith_oracle_geq(sat).is_sat
    unsat = GeqProblem.of([[1]], [3], 3, (2,), (False,))
    v = smith_oracle_geq(unsat)
    assert v.is_unsat and v.code == "oracle-divisibility"

    rank = GeqProblem.of([[0]], [5], 3, (0,), (False,))
    v = smith_oracle_geq(rank)
    assert v.is_unsat and v.code == "oracle-rank"

    with pytest.raises(InputError):
        smith_oracle_geq(GeqProblem.of([[1]], [2], 2, (1,), (True,)))
    with pytest.raises(OverflowGuardError):
        smith_oracle_geq(GeqProblem.of([[1]], [3], 3, (10,), (False,)), guard=5)


def test_oracle_eliminates_unconstrained_columns():
    # x is free (floor -inf) and absorbs the first equation entirely
    sat = GeqProblem.of(
        [[1, 1], [0, 1]], [Fraction(1, 3), 3], 3, (NEG_INF, 0), (False, False)
    )
    assert smith_oracle_geq(sat).is_sat
    unsat = GeqProblem.of(
        [[1, 1], [0, 1]], [Fraction(1, 3), Fraction(1, 3)], 3, (NEG_INF, 0), (False, False)
    )
    assert smith_oracle_geq(unsat).is_unsat

    # all columns free: satisfiable iff the system is consistent over Q
    free = GeqProblem.of([[1, 1]], [7], 5, (NEG_INF, NEG_INF), (False, False))
    assert smith_oracle_geq(free).is_sat
    contradictory = GeqProblem.of(
        [[1, 1], [2, 2]], [1, 3], 5, (NEG_INF, NEG_INF), (False, False)
    )
    assert smith_oracle_geq(contradictory).is_unsat


def test_an_inf_floor_reads_as_zero():
    # floor +inf is x = 0: the oracle deletes the column, and the instance
    # carries the equation x0 = 0, so x0 = 1, x1 = 0 solves the rows and
    # meets x1's floor but is rejected
    prob = GeqProblem.of([[1, 1]], [1], 3, (INF, 0))
    assert smith_oracle_geq(prob).is_sat
    assert smith_oracle_geq(GeqProblem.of([[1, 1]], [1], 3, (INF, 1))).is_unsat
    assert smith_oracle_geq(GeqProblem.of([[1, 0]], [1], 3, (INF, 0))).is_unsat
    instance = instance_of_geq_problem(prob)
    one, zero = Fraction(1), Fraction(0)
    assert verify_witness(instance, {"x0": zero, "x1": one})
    assert not verify_witness(instance, {"x0": one, "x1": zero})


def test_oracle_agrees_with_solver_on_unbounded_problems():
    rng = random.Random(4040)
    sat = unsat = 0
    for trial in range(150):
        prob = random_geq_problem(
            rng.randrange(10**6),
            max_dim=4,
            coeff_mag=12,
            bound_mag=3,
            allow_unbounded=True,
        )
        verdict = solve_geq(prob)
        oracle = smith_oracle_geq(prob)
        assert verdict.status == oracle.status, (trial, prob)
        if verdict.is_sat:
            sat += 1
            named = witness_map(prob, verdict.witness)
            assert verify_witness(instance_of_geq_problem(prob), named), (trial, prob)
        else:
            unsat += 1
    assert sat > 20 and unsat > 20


def test_graph_validation_and_builders():
    with pytest.raises(InputError):
        Graph(2, ((0, 0),))  # self loop
    with pytest.raises(InputError):
        Graph(2, ((0, 1), (1, 0)))  # duplicate edge
    with pytest.raises(InputError):
        Graph(2, ((0, 5),))  # out of range
    assert len(Graph.complete(4).edges) == 6
    assert len(Graph.cycle(5).edges) == 5
    assert Graph.random(1, 6).edges == Graph.random(1, 6).edges


def test_coloring_encodings_match_brute_force():
    # (graph, p, e): p**e-colorability with known answers
    cases = [
        (Graph.complete(3), 2, 1, False),   # K3 is not 2-colorable
        (Graph.cycle(4), 2, 1, True),       # bipartite
        (Graph.cycle(5), 2, 1, False),      # odd cycle
        (Graph.complete(3), 3, 1, True),    # K3 is 3-colorable
        (Graph.complete(4), 3, 1, False),
        (Graph.complete(4), 2, 2, True),    # 4 colors
    ]
    for g, p, e, expected in cases:
        assert brute_color(g, p**e) == expected
        inst = encode_coloring(g, p, e)
        verdict = solve_instance(inst)
        assert verdict.is_sat == expected, (g, p, e)
        if verdict.is_sat:
            assert verify_witness(inst, verdict.witness)


def test_dichotomy_encodings_stay_in_their_fragments():
    # the p = 3 side writes v_3(.) == 0 and nothing else; the p = 2 side
    # floors the vertices and pins the edge differences to units
    g = Graph.cycle(5)
    three = encode_three_coloring_eq(g)
    assert {(c.prime, c.rel, c.bound) for c in three.valuations} == {(3, "==", 0)}
    assert len(three.variables) == 3 * g.n + len(g.edges)
    assert len(three.valuations) == 2 * g.n + len(g.edges)
    two = encode_two_coloring_geq(g)
    assert {(c.prime, c.rel, c.bound) for c in two.valuations} == {(2, ">=", 0), (2, "==", 0)}
    assert len(two.variables) == len(two.valuations) == g.n + len(g.edges)
    assert two.equations == encode_coloring(g, 2, 1).equations
    assert solve_instance(three).is_sat and not solve_instance(two).is_sat


def test_coloring_random_graphs_small():
    rng = random.Random(99)
    for trial in range(8):
        g = Graph.random(rng.randrange(10**6), rng.randint(2, 5))
        p, e = rng.choice(((2, 1), (3, 1), (2, 2)))
        inst = encode_coloring(g, p, e)
        verdict = solve_instance(inst)
        assert not verdict.is_unknown, (trial, g)
        assert verdict.is_sat == brute_color(g, p**e), (trial, g, p, e)
    # G(n, 0.5) up to eight vertices at 3 and 4 colors; five of these 48
    # encodings are unsat
    for seed in range(6):
        for n in range(5, 9):
            g = Graph.random(seed, n, 0.5)
            for p, e in ((3, 1), (2, 2)):
                inst = encode_coloring(g, p, e)
                verdict = solve_instance(inst)
                assert verdict.is_sat == brute_color(g, p**e), (seed, g, p, e)
                if verdict.is_sat:
                    assert verify_witness(inst, verdict.witness)


def test_encode_coloring_validation():
    with pytest.raises(InputError):
        encode_coloring(Graph.complete(3), 4, 1)  # 4 is not prime
    with pytest.raises(InputError):
        encode_coloring(Graph.complete(3), 2, 0)
    with pytest.raises(InputError):
        brute_color(Graph(11, ()), 2)


def test_random_instance_fragments():
    geq = random_instance(11, fragment="geq", primes=(2, 3))
    for vc in geq.valuations:
        assert vc.rel == ">=" or (vc.rel == "==" and vc.prime == 2)
    leq = random_instance(11, fragment="leq")
    assert {vc.rel for vc in leq.valuations} <= {"<=", "!="}
    with pytest.raises(InputError):
        random_instance(0, fragment="nonsense")
    covered = random_instance(13, num_vars=5, num_eqs=2, cover_all_vars=True)
    for j in range(5):
        assert any(eq.coeffs[j] != 0 for eq in covered.equations)
    assert random_instance(42) == random_instance(42)


def test_fourier_motzkin_decides_small_order_systems():
    F = Fraction
    # 0 < x < 1, and x <= 1 with 1 <= x, pinned: fine weak, empty strict
    assert fourier_motzkin_feasible([], [], [((1,), 1), ((-1,), 0)])
    pinched = [((1,), 1), ((-1,), -1)]
    assert fourier_motzkin_feasible([], pinched, [])
    assert not fourier_motzkin_feasible([], pinched, [((1,), 1)])
    # x + y = 1 with x < 0 and y < 0; then with x < 1/2 and y <= 1/2
    eq = [((1, 1), 1)]
    assert not fourier_motzkin_feasible(eq, [], [((1, 0), 0), ((0, 1), 0)])
    assert not fourier_motzkin_feasible(eq, [((0, F(2)), 1)], [((F(2), 0), 1)])
    assert fourier_motzkin_feasible(eq, [((0, F(2)), 1)], [((F(3), 0), 2)])
    # rows without variables decide on their own
    assert not fourier_motzkin_feasible([], [((0, 0), F(-1, 3))], [])
    assert not fourier_motzkin_feasible([], [], [((0, 0), 0)])
    assert fourier_motzkin_feasible([((0, 0), 0)], [((0, 0), 0)], [((0, 0), 1)])
    assert fourier_motzkin_feasible([], [], [])
