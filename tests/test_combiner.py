"""Exact LP feasibility, Farkas certificates, strictification, and the
combined decision procedure for orders plus valuations."""

import itertools
import random
from fractions import Fraction

import pytest

from padicsat.certify import check_certificate, verify_witness
from padicsat.combiner import solve_combined, strictify
from padicsat.dispatch import solve_instance
from padicsat.errors import InputError, InternalError
from padicsat.model import Equation, Instance, OrderConstraint, ValConstraint
from padicsat.simplex import LpFeasible, LpInfeasible, lp_feasible
from padicsat.testkit import fourier_motzkin_feasible, random_instance


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
    # x <= 0 and x < 5 combine under nu = -1 to 0 = -5, which the value test
    # alone accepts, although x = 0 satisfies both rows
    assert check_certificate([], [], [[1]], [0], [[1]], [5], (), (F(1),), (F(-1),)) == (
        False, "a strict multiplier is negative"
    )


def test_certificate_checker_rejects_ragged_blocks():
    assert check_certificate(
        [[1]], [1], [[-1, 0]], [-2], [], [], [1], [1], []
    ) == (False, "rows of unequal width")


class _Unreadable(list):
    """A row that fails the test when its entries are read."""

    def __iter__(self):
        raise AssertionError("a row with multiplier 0 was read")

    __getitem__ = __iter__


def test_certificate_checker_skips_rows_with_multiplier_zero():
    # x + y = 1 and x + y >= 2 refute each other; the third row, x <= 7,
    # carries multiplier 0 and must not be read
    ok, why = check_certificate(
        [[1, 1]], [1], [[-1, -1], _Unreadable([1, 0])], [-2, 7], [], [],
        (F(1),), (F(1), F(0)), (),
    )
    assert ok, why
    assert why == "value -1 < 0 refutes the weak relaxation"


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


def _assert_evidence(blocks, res, label):
    A, b, C, d, E, f = blocks
    if isinstance(res, LpInfeasible):
        ok, why = check_certificate(A, b, C, d, E, f, res.lam, res.mu, res.nu)
        assert ok, f"{label}: {why}"
        return
    assert res.threshold > 0, label
    for r, t in zip(A, b):
        assert _dot(r, res.x) == t, label
    for r, t in zip(C, d):
        assert _dot(r, res.x) <= t, label
    for r, t in zip(E, f):
        assert _dot(r, res.x) < t, label


def test_lp_fuzz_fractional_rows():
    # coefficients k/q with q up to 6, so the rows' denominators differ, and
    # plants with negative coordinates, so many right-hand sides are negative
    rng = random.Random(514)
    feas = infeas = negative = 0
    for trial in range(200):
        n = rng.randint(1, 4)
        x0 = [F(rng.randint(-6, 4), rng.randint(1, 4)) for _ in range(n)]

        def row():
            return [F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]

        def slack():
            return F(rng.randint(1, 5), rng.randint(1, 6))

        A, b, C, d, E, f = [], [], [], [], [], []
        for _ in range(rng.randint(0, 2)):
            r = row()
            A.append(r)
            b.append(_dot(r, x0))
        for _ in range(rng.randint(0, 3)):
            r = row()
            C.append(r)
            d.append(_dot(r, x0) + rng.choice([F(0), slack()]))
        for _ in range(rng.randint(0, 3)):
            r = row()
            E.append(r)
            f.append(_dot(r, x0) + slack())
        kind = rng.random()
        if kind < 0.35:
            # x0 pinned by a weak row, then excluded by a strict one
            r = row()
            s = _dot(r, x0)
            C.append(r)
            d.append(s)
            E.append([-c for c in r])
            f.append(-s)
        elif kind < 0.5:
            # two weak rows: r.x <= cap and r.x >= cap + s with s > 0
            r = row()
            cap = _dot(r, x0) + slack()
            C.append(r)
            d.append(cap)
            C.append([-c for c in r])
            d.append(-cap - slack())
        negative += sum(1 for t in b + d + f if t < 0)
        blocks = (A, b, C, d, E, f)
        res = lp_feasible(*blocks)
        if kind < 0.5:
            assert isinstance(res, LpInfeasible), f"trial {trial}"
            infeas += 1
        else:
            assert isinstance(res, LpFeasible), f"trial {trial}"
            feas += 1
        _assert_evidence(blocks, res, f"trial {trial}")
    assert feas > 60 and infeas > 60 and negative > 100


def test_lp_rejects_ragged_blocks():
    # an infeasible and a feasible system whose rows differ in width
    with pytest.raises(InputError):
        lp_feasible([[1]], [1], [[-1, 0]], [-2], [], [])
    with pytest.raises(InputError):
        lp_feasible([], [], [[1, 0]], [1], [[1]], [2])
    # a right-hand side shorter than its block
    with pytest.raises(InputError):
        lp_feasible([[1, 0]], [], [[0, 1]], [1], [], [])


# Small systems with their exact answers: free variables (x = u - w), equality
# rows, rows flipped for a negative right-hand side, degenerate ratio-test
# ties and strict-infeasible blocks.  Every value is pinned, so a change in
# any tableau entry, start basis, Bland's-rule choice or dual read-off shows
# up here; test_pinned_answers_are_evidence checks each pin on its own.
PINNED_LPS = [
    (
        ([[1, -1]], [2], [[1, 1]], [4], [[-1, 0]], [0]),
        LpFeasible((F(2), F(0)), F(1)),
    ),
    (
        ([[2, -1, 0]], [-3], [[0, 1, 1], [1, 0, -1]], [-1, 2], [[1, 1, 1]], [3]),
        LpFeasible((F(-2), F(-1), F(0)), F(1)),
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
    # the tableau keeps each row as integers over one denominator: rows
    # whose denominators differ within a row and across rows
    (
        (
            [[F(1, 2), F(1, 3)]],
            [F(5, 6)],
            [[F(2, 5), F(-1, 7)], [F(-3, 4), F(5, 6)]],
            [F(1, 4), F(2, 9)],
            [[F(-1, 3), F(1, 2)]],
            [F(2, 3)],
        ),
        LpFeasible((F(85, 86), F(175, 172)), F(503, 1032)),
    ),
    # negative fractional right-hand sides flip their rows
    (
        (
            [[F(3, 4), F(-1, 6)]],
            [F(-5, 8)],
            [[F(-1, 2), F(1, 3)]],
            [F(-3, 4)],
            [[F(1, 6), F(2, 9)]],
            [F(5, 2)],
        ),
        LpFeasible((F(-2), F(-21, 4)), F(1)),
    ),
    # all-zero rows in every block
    (
        (
            [[0, 0], [F(1, 3), F(2, 5)]],
            [0, F(7, 10)],
            [[0, 0]],
            [F(1, 2)],
            [[0, 0], [F(1, 3), F(-2, 3)]],
            [F(1, 7), F(1, 5)],
        ),
        LpFeasible((F(771, 560), F(135, 224)), F(1, 7)),
    ),
    # an all-zero weak row with a negative fractional rhs refutes the system
    (
        (
            [[F(1, 4), 0]],
            [F(-1, 3)],
            [[F(1, 2), F(1, 3)], [0, 0]],
            [F(1, 6), F(-1, 2)],
            [[0, F(-2, 7)]],
            [F(3, 5)],
        ),
        LpInfeasible((F(0),), (F(0), F(1)), (F(0),), F(-1, 2)),
    ),
    # strict-infeasible fractional rows: 3x + 2y < 1 and 3x + 2y > 1
    (
        (
            [],
            [],
            [[F(1, 5), F(-1, 9)]],
            [F(4, 3)],
            [[F(1, 2), F(1, 3)], [F(-3, 4), F(-1, 2)]],
            [F(1, 6), F(-1, 4)],
        ),
        LpInfeasible((), (F(0),), (F(3, 5), F(2, 5)), F(0)),
    ),
    # weak-infeasible fractional rows next to a fractional equality
    (
        (
            [[F(2, 3), F(-1, 4)]],
            [F(1, 12)],
            [[F(1, 2), F(1, 5)], [F(-1, 3), F(-2, 15)]],
            [F(-1, 10), F(-1, 9)],
            [],
            [],
        ),
        LpInfeasible((F(0),), (F(2, 3), F(1)), (), F(-8, 45)),
    ),
]


@pytest.mark.parametrize("blocks, expected", PINNED_LPS)
def test_lp_outputs_are_pinned(blocks, expected):
    assert lp_feasible(*blocks) == expected


@pytest.mark.parametrize("blocks, expected", PINNED_LPS)
def test_pinned_answers_are_evidence(blocks, expected):
    # each pinned point meets its blocks in Fractions, and each pinned
    # certificate refutes them, without running the LP
    _assert_evidence(blocks, expected, "pin")


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


def _blocks(rows):
    return [list(r) for r, _ in rows], [q for _, q in rows]


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


def _random_order_system(rng):
    """Equalities, weak and strict rows in up to three variables: mostly
    around a planted point, with tight rows and pinched pairs, else free."""
    n = rng.randint(1, 3)
    x0 = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    planted = rng.random() < 0.7

    def row():
        return tuple(F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n))

    def rhs(r, slack):
        return _dot(r, x0) + slack if planted else F(rng.randint(-4, 4), rng.randint(1, 2))

    eqs, weak, strict = [], [], []
    for _ in range(rng.choice([0, 0, 1, 2])):
        r = row()
        eqs.append((r, rhs(r, 0)))
    for _ in range(rng.randint(0, 4)):
        r = row()
        weak.append((r, rhs(r, F(rng.choice([0, 0, 1, 2])))))
    if rng.random() < 0.4:
        r = row()
        cap = rhs(r, 0)
        weak += [(r, cap), (tuple(-c for c in r), -cap)]
    for _ in range(rng.randint(0, 2)):
        r = row()
        strict.append((r, rhs(r, F(rng.choice([0, 1, 2])))))
    rng.shuffle(weak)
    return eqs, weak, strict


def test_strictify_agrees_with_fourier_motzkin(monkeypatch):
    # the decider shares no code with the LP: statuses must agree, a weak
    # row is converted iff making it strict alone empties the system, every
    # certificate refutes the original blocks, also after a conversion, and
    # every system takes one LP per round
    calls = _scripted_lps(monkeypatch, itertools.repeat(lp_feasible))
    rng = random.Random(518)
    sat = unsat = unsat_after_conversion = converted_rows = 0
    for trial in range(2000):
        eqs, weak, strict = _random_order_system(rng)
        calls.clear()
        res = strictify(eqs, weak, strict)
        assert len(calls) == res.restarts + 1, f"trial {trial}"
        assert res.feasible == fourier_motzkin_feasible(eqs, weak, strict), f"trial {trial}"
        if not res.feasible:
            cert = res.certificate
            ok, why = check_certificate(
                *_blocks(eqs), *_blocks(weak), *_blocks(strict), cert.lam, cert.mu, cert.nu
            )
            assert ok, f"trial {trial}: {why}"
            unsat += 1
            unsat_after_conversion += res.restarts > 0
            continue
        expected = [
            i
            for i, w in enumerate(weak)
            if not fourier_motzkin_feasible(eqs, weak[:i] + weak[i + 1 :], strict + [w])
        ]
        assert [idx for idx, _ in res.converted] == expected, f"trial {trial}"
        x = res.witness
        for r, q in eqs:
            assert _dot(r, x) == q, f"trial {trial}"
        for i, (r, q) in enumerate(weak):
            assert (_dot(r, x) == q) if i in expected else (_dot(r, x) < q), f"trial {trial}"
        for r, q in strict:
            assert _dot(r, x) < q, f"trial {trial}"
        sat += 1
        converted_rows += len(expected)
    assert sat > 1200 and unsat > 400 and converted_rows > 1000
    assert unsat_after_conversion > 80


def _scripted_lps(monkeypatch, answers):
    """Make strictify's LPs return the given answers in turn; returns the
    list of the blocks each call received."""
    import padicsat.combiner as combiner

    answers, calls = iter(answers), []

    def scripted(*blocks):
        calls.append(blocks)
        answer = next(answers)
        return answer(*blocks) if callable(answer) else answer

    monkeypatch.setattr(combiner, "lp_feasible", scripted)
    return calls


def test_strictify_box_takes_one_lp(monkeypatch):
    calls = _scripted_lps(monkeypatch, [lp_feasible])
    d = 16
    weak = []
    for j in range(d):
        unit = tuple(F(1 if k == j else 0) for k in range(d))
        weak.append((unit, F(j + 1)))
        weak.append((tuple(-c for c in unit), F(-j)))
    res = strictify([], weak, [])
    assert res.feasible and res.converted == [] and res.restarts == 0
    assert all(j < x < j + 1 for j, x in enumerate(res.witness))
    assert len(calls) == 1


def test_strictify_maps_first_round_refutation_onto_original_blocks(monkeypatch):
    # x + y = 1, x <= 0 (weak) and y < 1 (strict) clash: y = 1 - x >= 1
    eqs = [((F(1), F(1)), F(1))]
    weak = [((F(1), F(0)), F(0)), ((F(0), F(-1)), F(5))]
    strict = [((F(0), F(1)), F(1))]
    answers = []

    def recording(*blocks):
        answers.append(lp_feasible(*blocks))
        return answers[-1]

    calls = _scripted_lps(monkeypatch, [recording])
    res = strictify(eqs, weak, strict)
    assert not res.feasible and len(calls) == 1
    (round_answer,) = answers
    assert isinstance(round_answer, LpInfeasible)
    # the round's strict block is the strict rows, then the weak rows
    cert = res.certificate
    assert cert == LpInfeasible(
        round_answer.lam, round_answer.nu[1:], round_answer.nu[:1], round_answer.value
    )
    ok, why = check_certificate(
        *_blocks(eqs), *_blocks(weak), *_blocks(strict), cert.lam, cert.mu, cert.nu
    )
    assert ok, why
    # both the weak and the strict row are engaged, so both halves moved
    assert any(cert.mu) and any(cert.nu)


def test_strictify_refutes_after_a_conversion_on_the_original_rows(monkeypatch):
    # x <= 1 and 1 <= x pinch x to 1, which -x < -1 then excludes
    eqs = []
    weak = [((F(1),), F(1)), ((F(-1),), F(-1))]
    strict = [((F(-1),), F(-1))]
    calls = _scripted_lps(monkeypatch, [lp_feasible, lp_feasible])
    res = strictify(eqs, weak, strict)
    assert not res.feasible and res.restarts == 1
    # the first round converts both weak rows; the second keeps them weak
    # and refutes
    assert len(calls) == 2
    assert calls[1] == ([], [], [[F(1)], [F(-1)]], [F(1), F(-1)], [[F(-1)]], [F(-1)])
    cert = res.certificate
    ok, why = check_certificate(
        *_blocks(eqs), *_blocks(weak), *_blocks(strict), cert.lam, cert.mu, cert.nu
    )
    assert ok, why


def test_strictify_rejects_reindexed_certificate_that_refutes_nothing(monkeypatch):
    # round 1 converts both weak rows; round 2 engages only those, at value
    # 0, which is neither a conversion nor a refutation of the original rows
    calls = _scripted_lps(
        monkeypatch,
        [
            LpInfeasible((), (), (F(0), F(1), F(1)), F(0)),
            LpInfeasible((), (F(1), F(1)), (F(0),), F(0)),
        ],
    )
    with pytest.raises(InternalError, match="refutes nothing"):
        strictify([], [((F(1),), F(1)), ((F(-1),), F(-1))], [((F(1),), F(5))])
    assert len(calls) == 2
    # the converted rows are the second round's weak block
    assert calls[1][2:4] == ([[F(1)], [F(-1)]], [F(1), F(-1)])


def test_strictify_rejects_first_round_certificate_that_refutes_nothing(monkeypatch):
    # value 0 and no engaged row: neither a conversion nor a refutation
    _scripted_lps(monkeypatch, [LpInfeasible((), (), (F(0), F(0)), F(0))])
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
        direct = solve_instance(i)
        combined = solve_combined(i)
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


def test_combined_mixed_parts_are_decided():
    # at p = 2, x has a floor and y none: the search decides that part too
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
    assert verdict.is_sat and verdict.witness is None
    assert verdict.diagnostics["parts"] == {2: "sat", 3: "sat"}


def test_combined_empty_window_short_circuits():
    i = inst(
        ["x"],
        valuations=[ValConstraint(2, "x", ">=", 3), ValConstraint(2, "x", "<=", 1)],
        orders=[OrderConstraint.of([1], "<", 5)],
    )
    verdict = solve_combined(i)
    assert verdict.is_unsat and verdict.code == "empty-window"


def test_constraint_free_instance_gets_a_full_witness():
    # no equation and no constraint: every declared variable still gets 0
    i = Instance(("x", "y"))
    verdict = solve_combined(i)
    assert verdict.is_sat
    assert verdict.witness == {"x": 0, "y": 0}
    assert verify_witness(i, verdict.witness)
