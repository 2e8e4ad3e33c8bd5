"""Exact LP feasibility, Farkas certificates, strictification, and the
combined decision procedure for orders plus valuations."""

import random
from fractions import Fraction

import pytest

from padicsat.combiner import solve_combined, strictify
from padicsat.dispatch import solve_instance
from padicsat.errors import InternalError
from padicsat.model import Equation, Instance, OrderConstraint, ValConstraint
from padicsat.simplex import (
    LpFeasible,
    LpInfeasible,
    check_certificate,
    lp_feasible,
)
from padicsat.testkit import random_instance, verify_witness


def inst(variables, equations=(), valuations=(), orders=()):
    return Instance(
        variables=tuple(variables),
        equations=tuple(equations),
        valuations=tuple(valuations),
        orders=tuple(orders),
    )


F = Fraction


# ---------------------------------------------------------------------------
# the LP core


def test_open_interval_is_strictly_feasible():
    # 0 < x < 1
    res = lp_feasible([], [], [], [], [[1], [-1]], [1, 0])
    assert isinstance(res, LpFeasible)
    assert 0 < res.x[0] < 1
    assert res.threshold > 0


def test_pinched_strict_row_is_infeasible():
    # x <= 1 and 1 <= x pin x = 1; x < 1 cannot hold
    res = lp_feasible([], [], [[1], [-1]], [1, -1], [[1]], [1])
    assert isinstance(res, LpInfeasible)
    assert res.value <= 0 and any(m > 0 for m in res.nu)
    ok, why = check_certificate(
        [], [], [[1], [-1]], [1, -1], [[1]], [1], res.lam, res.mu, res.nu
    )
    assert ok, why


def test_weak_contradiction_gives_negative_value():
    # x <= 0 and 1 <= x clash already without any strict row
    res = lp_feasible([], [], [[1], [-1]], [0, -1], [], [])
    assert isinstance(res, LpInfeasible)
    assert res.value < 0
    assert res.nu == ()


def test_equality_with_strict_rows():
    # x + y = 1 while x < 0 and y < 0
    res = lp_feasible([[1, 1]], [1], [], [], [[1, 0], [0, 1]], [0, 0])
    assert isinstance(res, LpInfeasible)
    ok, why = check_certificate(
        [[1, 1]], [1], [], [], [[1, 0], [0, 1]], [0, 0], res.lam, res.mu, res.nu
    )
    assert ok, why

    res = lp_feasible([[1, 1]], [1], [], [], [[1, 0]], [1])
    assert isinstance(res, LpFeasible)
    x, y = res.x
    assert x + y == 1 and x < 1


def test_certificate_checker_rejects_junk():
    ok, _ = check_certificate([], [], [[1]], [0], [], [], (), (F(-1),), ())
    assert not ok  # negative weak multiplier
    ok, _ = check_certificate([], [], [[1]], [5], [], [], (), (F(1),), ())
    assert not ok  # combines to x <= 5, refutes nothing
    ok, _ = check_certificate([[1]], [0], [], [], [], [], (F(1),), (), ())
    assert not ok  # 0 = 0 is not a refutation


def test_lp_fuzz_planted_and_contradicted():
    rng = random.Random(512)
    feas = infeas = 0
    for trial in range(120):
        n = rng.randint(1, 4)
        x0 = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]

        def row():
            return [F(rng.randint(-4, 4)) for _ in range(n)]

        A, b, C, d, E, f = [], [], [], [], [], []
        for _ in range(rng.randint(0, 2)):
            r = row()
            A.append(r)
            b.append(sum(c * v for c, v in zip(r, x0)))
        for _ in range(rng.randint(0, 3)):
            r = row()
            C.append(r)
            d.append(sum(c * v for c, v in zip(r, x0)) + F(rng.randint(0, 3)))
        for _ in range(rng.randint(0, 3)):
            r = row()
            E.append(r)
            f.append(sum(c * v for c, v in zip(r, x0)) + F(rng.randint(1, 3)))
        if rng.random() < 0.4:
            # plant a contradiction on top
            r = row()
            s = sum(c * v for c, v in zip(r, x0))
            C.append(r)
            d.append(s)
            E.append([-c for c in r])
            f.append(-s)
            res = lp_feasible(A, b, C, d, E, f)
            assert isinstance(res, LpInfeasible), f"trial {trial}"
            ok, why = check_certificate(
                A, b, C, d, E, f, res.lam, res.mu, res.nu
            )
            assert ok, f"trial {trial}: {why}"
            infeas += 1
        else:
            res = lp_feasible(A, b, C, d, E, f)
            assert isinstance(res, LpFeasible), f"trial {trial}"
            x = res.x
            for r, t in zip(A, b):
                assert sum(c * v for c, v in zip(r, x)) == t
            for r, t in zip(C, d):
                assert sum(c * v for c, v in zip(r, x)) <= t
            for r, t in zip(E, f):
                assert sum(c * v for c, v in zip(r, x)) < t
            feas += 1
    assert feas > 30 and infeas > 20


# Small systems with their exact answers: free variables (x = u - w), equality
# rows, rows flipped for a negative right-hand side, degenerate ratio-test
# ties and strict-infeasible blocks.  Every value is pinned, so a change in
# any tableau entry, Bland's-rule choice or dual read-off shows up here.
PINNED_LPS = [
    (
        ([[1, -1]], [2], [[1, 1]], [4], [[-1, 0]], [0]),
        LpFeasible((F(1), F(-1)), F(1)),
    ),
    (
        ([[2, -1, 0]], [-3], [[0, 1, 1], [1, 0, -1]], [-1, 2], [[1, 1, 1]], [3]),
        LpFeasible((F(-2, 3), F(5, 3), F(-8, 3)), F(1)),
    ),
    (
        ([], [], [[1, 0], [0, 1], [1, 1], [-1, 2]], [0, 0, 0, 0], [[-1, -1]], [1]),
        LpFeasible((F(0), F(0)), F(1)),
    ),
    (
        ([], [], [[-1, 0], [0, -1], [-1, -1], [1, -1]], [0, 0, 0, 0], [[1, 1]], [0]),
        LpInfeasible((), (F(1), F(1), F(0), F(0)), (F(1),), F(0)),
    ),
    (
        ([], [], [[1, 0]], [1], [[1, 0], [-1, 0]], [0, 0]),
        LpInfeasible((), (F(0),), (F(1, 2), F(1, 2)), F(0)),
    ),
    (
        ([], [], [[1, 1], [-1, -1]], [1, -2], [], []),
        LpInfeasible((), (F(1), F(1)), (), F(-1)),
    ),
    (
        ([[1, 1]], [1], [], [], [[1, 0], [0, 1]], [0, 1]),
        LpInfeasible((F(-1, 2),), (), (F(1, 2), F(1, 2)), F(0)),
    ),
    (
        (
            [[1, 1, 1], [1, -1, 0]],
            [F(3, 2), F(1, 3)],
            [[1, 0, 0], [0, 0, -1]],
            [1, 0],
            [[0, 1, 0], [-1, 0, 0]],
            [2, 0],
        ),
        LpFeasible((F(11, 12), F(7, 12), F(0)), F(11, 12)),
    ),
]


@pytest.mark.parametrize("blocks, expected", PINNED_LPS)
def test_lp_outputs_are_pinned(blocks, expected):
    assert lp_feasible(*blocks) == expected


# ---------------------------------------------------------------------------
# strictification


def test_strictify_converts_pinched_pair():
    # x <= 1 and 1 <= x can never be strict: both become equalities
    res = strictify([], [((F(1),), F(1)), ((F(-1),), F(-1))], [])
    assert res.feasible
    assert [idx for idx, _ in res.converted] == [0, 1]
    # one certificate engages both rows: a single conversion round
    assert res.restarts == 1
    assert res.witness == (F(1),)


def test_strictify_keeps_independent_rows_strict():
    # 0 <= x <= 1 survives with a point strictly inside
    res = strictify([], [((F(1),), F(1)), ((F(-1),), F(0))], [])
    assert res.feasible
    assert res.converted == []
    assert 0 < res.witness[0] < 1


def test_strictify_reports_infeasible_base():
    res = strictify([], [((F(1),), F(0))], [((F(-1),), F(0))])
    # x <= 0 and -x < 0 means x > 0: infeasible
    assert not res.feasible
    assert res.certificate is not None


def test_strictify_tautology_row_becomes_trivial_equality():
    res = strictify([], [((F(0),), F(0))], [])
    assert res.feasible
    assert [idx for idx, _ in res.converted] == [0]


def _dot(row, x):
    return sum((c * v for c, v in zip(row, x)), F(0))


def test_strictify_matches_per_row_reference():
    # reference: weak row i is an implicit equality iff it cannot be strict
    # while the other weak rows stay weak
    rng = random.Random(513)
    pinched = 0
    for trial in range(60):
        n = rng.randint(1, 3)
        x0 = [F(rng.randint(-3, 3)) for _ in range(n)]

        def row():
            return tuple(F(rng.randint(-3, 3)) for _ in range(n))

        eqs = []
        if rng.random() < 0.4:
            r = row()
            eqs.append((r, _dot(r, x0)))
        weak = []
        for _ in range(rng.randint(1, 4)):
            r = row()
            weak.append((r, _dot(r, x0) + F(rng.choice([0, 1, 2]))))
        if rng.random() < 0.5:
            r = row()
            weak += [(r, _dot(r, x0)), (tuple(-c for c in r), -_dot(r, x0))]
        rng.shuffle(weak)
        strict = []
        for _ in range(rng.randint(0, 2)):
            r = row()
            strict.append((r, _dot(r, x0) + F(rng.choice([1, 2]))))

        def rows(block):
            return [list(r) for r, _ in block], [v for _, v in block]

        expected = set()
        for i, (r, rhs) in enumerate(weak):
            others = rows([w for k, w in enumerate(weak) if k != i])
            strict_i = rows(strict + [(r, rhs)])
            if isinstance(lp_feasible(*rows(eqs), *others, *strict_i), LpInfeasible):
                expected.add(i)
        res = strictify(eqs, weak, strict)
        assert res.feasible, f"trial {trial}"
        converted = [idx for idx, _ in res.converted]
        assert converted == sorted(expected), f"trial {trial}"
        pinched += len(expected) > 0
        x = res.witness
        for r, rhs in eqs:
            assert _dot(r, x) == rhs, f"trial {trial}: equality broken"
        for idx, (r, rhs) in enumerate(weak):
            if idx in expected:
                assert _dot(r, x) == rhs, f"trial {trial}: converted row not tight"
            else:
                assert _dot(r, x) < rhs, f"trial {trial}: surviving row not strict"
        for r, rhs in strict:
            assert _dot(r, x) < rhs, f"trial {trial}: strict row not strict"
    assert pinched > 15


def test_strictify_box_takes_two_lps(monkeypatch):
    import padicsat.combiner as combiner

    calls = []

    def counting(*blocks):
        calls.append(1)
        return lp_feasible(*blocks)

    monkeypatch.setattr(combiner, "lp_feasible", counting)
    d = 16
    weak = []
    for j in range(d):
        unit = tuple(F(1 if k == j else 0) for k in range(d))
        weak.append((unit, F(j + 1)))
        weak.append((tuple(-c for c in unit), F(-j)))
    res = strictify([], weak, [])
    assert res.feasible and res.converted == [] and res.restarts == 0
    assert all(j < x < j + 1 for j, x in enumerate(res.witness))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "nu, value",
    # strict block order: the original strict row, then the weak row
    [((F(0), F(1)), F(-1)), ((F(1), F(1)), F(0)), ((F(0), F(0)), F(0))],
)
def test_strictify_rejects_impossible_round_certificate(monkeypatch, nu, value):
    # the base system is feasible, so a round certificate with value < 0, a
    # weight on an original strict row, or no engaged weak row is a bug
    import padicsat.combiner as combiner

    answers = iter([lp_feasible([], [], [[F(1)]], [F(1)], [[F(-1)]], [F(0)])])

    def scripted(*blocks):
        return next(answers, LpInfeasible((), (), nu, value))

    monkeypatch.setattr(combiner, "lp_feasible", scripted)
    with pytest.raises(InternalError):
        strictify([], [((F(1),), F(1))], [((F(-1),), F(0))])


# ---------------------------------------------------------------------------
# the combined procedure


def test_combined_delegates_single_prime():
    rng = random.Random(514)
    agreements = 0
    for trial in range(40):
        p = rng.choice([2, 3, 5])
        i = random_instance(
            rng.randrange(1 << 30),
            fragment=rng.choice(["geq", "leq"]),
            num_vars=rng.randint(1, 4),
            num_eqs=rng.randint(1, 2),
            coeff_mag=6,
            bound_mag=3,
            primes=(p,),
        )
        direct = solve_instance(i, window=-2)
        combined = solve_combined(i, window=-2)
        assert direct.status == combined.status, f"trial {trial}"
        agreements += 1
        if combined.is_sat and combined.witness is not None:
            assert verify_witness(i, combined.witness)
    assert agreements == 40


def test_combined_pure_orders_with_equations():
    i = inst(
        ["x", "y"],
        equations=[Equation.of([1, 1], 1)],
        orders=[OrderConstraint.of([1, -1], "<", 0)],
    )
    verdict = solve_combined(i)
    assert verdict.is_sat
    assert verdict.witness is not None
    assert verify_witness(i, verdict.witness)
    x, y = verdict.witness["x"], verdict.witness["y"]
    assert x + y == 1 and x < y

    bad = inst(
        ["x", "y"],
        equations=[Equation.of([1, 1], 1)],
        orders=[
            OrderConstraint.of([1, 0], "<", 0),
            OrderConstraint.of([0, 1], "<", 0),
        ],
    )
    verdict = solve_combined(bad)
    assert verdict.is_unsat and verdict.code == "orders-infeasible"
    assert "certificate" in verdict.diagnostics


def test_combined_implicit_equality_feeds_valuations():
    # x <= 1 and 1 <= x pin x = 1, so v_2(x) must be 0
    orders = [
        OrderConstraint.of([1], "<=", 1),
        OrderConstraint.of([-1], "<=", -1),
    ]
    sat = solve_combined(
        inst(["x"], valuations=[ValConstraint(2, "x", "==", 0)], orders=orders)
    )
    assert sat.is_sat
    assert sat.diagnostics["implicit-equalities"] == [0, 1]

    unsat = solve_combined(
        inst(["x"], valuations=[ValConstraint(2, "x", ">=", 1)], orders=orders)
    )
    assert unsat.is_unsat and unsat.code == "prime-unsat"
    assert unsat.diagnostics["prime"] == 2


def test_combined_orders_and_two_primes_decision_only():
    # 0 < x < 1 with v_2(x) >= 1 and v_3(x) >= 1: x = 6/7 shows all three
    # parts mesh; the verdict is decision-only with per-part evidence
    i = inst(
        ["x"],
        valuations=[ValConstraint(2, "x", ">=", 1), ValConstraint(3, "x", ">=", 1)],
        orders=[
            OrderConstraint.of([1], "<", 1),
            OrderConstraint.of([-1], "<", 0),
        ],
    )
    verdict = solve_combined(i)
    assert verdict.is_sat
    assert verdict.witness is None
    parts = verdict.diagnostics["parts"]
    assert parts["orders"] == "sat" and parts[2] == "sat" and parts[3] == "sat"
    # the rational order witness is reported for auditing
    w = verdict.diagnostics["order-witness"]["x"]
    assert 0 < w < 1


def test_combined_multi_prime_without_orders():
    i = inst(
        ["x", "y"],
        equations=[Equation.of([1, 1], 2)],
        valuations=[ValConstraint(2, "x", ">=", 1), ValConstraint(3, "y", ">=", 1)],
    )
    verdict = solve_combined(i)
    assert verdict.is_sat and verdict.witness is None
    assert verdict.diagnostics["parts"][2] == "sat"
    assert verdict.diagnostics["parts"][3] == "sat"

    pinned = inst(
        ["x", "y"],
        equations=[Equation.of([1, 0], 1), Equation.of([0, 1], 1)],
        valuations=[ValConstraint(2, "x", ">=", 1), ValConstraint(3, "y", ">=", 0)],
    )
    verdict = solve_combined(pinned)
    assert verdict.is_unsat and verdict.code == "prime-unsat"
    assert verdict.diagnostics["prime"] == 2


def test_combined_unknown_propagates():
    i = inst(
        ["x", "y", "z"],
        equations=[Equation.of([1, 1, 1], 0)],
        valuations=[
            ValConstraint(2, "x", ">=", 0),
            ValConstraint(2, "y", "<=", 0),
            ValConstraint(3, "z", ">=", 0),
        ],
    )
    verdict = solve_combined(i)
    assert verdict.is_unknown
    assert verdict.diagnostics["prime"] == 2


def test_combined_empty_window_short_circuits():
    i = inst(
        ["x"],
        valuations=[ValConstraint(2, "x", ">=", 3), ValConstraint(2, "x", "<=", 1)],
        orders=[OrderConstraint.of([1], "<", 5)],
    )
    verdict = solve_combined(i)
    assert verdict.is_unsat and verdict.code == "empty-window"
