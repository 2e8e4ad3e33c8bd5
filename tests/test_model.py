"""Instance model: normalization, fragment classification, size measure."""

import random
from fractions import Fraction

import pytest

from padicsat import model
from padicsat.errors import InputError
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
    classify_kinds,
    height,
    instance_size,
    normalize,
)
from padicsat.rational import INF, NEG_INF
from padicsat.testkit import random_instance


def inst(variables, equations=(), valuations=(), orders=()):
    return Instance(
        variables=tuple(variables),
        equations=tuple(equations),
        valuations=tuple(valuations),
        orders=tuple(orders),
    )


def test_validation_rejects_malformed_instances():
    with pytest.raises(InputError):
        inst(["x", "x"])  # duplicate name
    with pytest.raises(InputError):
        inst(["x"], equations=[Equation.of([1, 2], 0)])  # wrong width
    with pytest.raises(InputError):
        inst(["x"], valuations=[ValConstraint(2, "y", ">=", 0)])  # undeclared
    with pytest.raises(InputError):
        ValConstraint(4, "x", ">=", 0)  # 4 is not prime
    with pytest.raises(InputError):
        ValConstraint(2, "x", "~", 0)  # unknown relation


def test_the_zeros_of_a_row_are_one_object():
    # a dense row of zeros holds one shared Fraction, not one per
    # coefficient, whatever form each zero is written in
    eq = Equation.of([0, 1, Fraction(0), "0", "0/5", -2], 0)
    zeros = [c for c in (*eq.coeffs, eq.rhs) if c == 0]
    assert len(zeros) == 5 and all(z is zeros[0] for z in zeros)
    assert eq.coeffs[1] == 1 and eq.coeffs[5] == -2
    oc = OrderConstraint.of([0, "0", 3], "<=", Fraction(0))
    assert oc.coeffs[0] is oc.coeffs[1] is oc.rhs is zeros[0]
    with pytest.raises(InputError):
        Equation.of([0.0], 0)  # a float is not an exact rational, zero or not


def test_desugared_strict_relations():
    assert ValConstraint(3, "x", "<", 5).desugared() == ValConstraint(3, "x", "<=", 4)
    assert ValConstraint(3, "x", ">", 5).desugared() == ValConstraint(3, "x", ">=", 6)
    weak = ValConstraint(3, "x", ">=", 5)
    assert weak.desugared() == weak


def test_normalize_folds_profiles():
    i = inst(
        ["x", "y"],
        valuations=[
            ValConstraint(3, "x", ">=", -1),
            ValConstraint(3, "x", ">=", 2),
            ValConstraint(3, "x", "<=", 7),
            ValConstraint(3, "x", "!=", 4),
            ValConstraint(5, "y", "!=", 0),
        ],
    )
    norm = normalize(i)
    assert not isinstance(norm, ImmediateUnsat)
    px = norm.profile(3, "x")
    assert (px.lower, px.upper, px.excluded) == (2, 7, frozenset({4}))
    assert px.exact_at(3) is False
    py = norm.profile(5, "y")
    assert (py.lower, py.upper, py.excluded) == (NEG_INF, INF, frozenset({0}))
    # untouched pairs give the unconstrained profile
    assert norm.profile(3, "y").is_unconstrained()
    assert norm.profile(7, "x").is_unconstrained()
    assert norm.primes == (3, 5)


def test_normalize_equality_pins_and_marks_exact_at_two():
    i = inst(
        ["x", "y"],
        valuations=[
            ValConstraint(2, "x", "==", 3),
            ValConstraint(3, "y", "==", 1),
        ],
    )
    norm = normalize(i)
    px = norm.profile(2, "x")
    assert (px.lower, px.upper, px.exact_at(2)) == (3, 3, True)
    py = norm.profile(3, "y")
    assert (py.lower, py.upper, py.exact_at(3)) == (1, 1, False)


def test_normalize_detects_empty_windows():
    bad = normalize(
        inst(
            ["x"],
            valuations=[
                ValConstraint(2, "x", ">=", 5),
                ValConstraint(2, "x", "<=", 3),
            ],
        )
    )
    assert isinstance(bad, ImmediateUnsat)
    assert (bad.prime, bad.var, bad.reason) == (2, "x", "empty window [5, 3]")

    pinned = normalize(
        inst(
            ["x"],
            valuations=[
                ValConstraint(3, "x", "==", 2),
                ValConstraint(3, "x", "!=", 2),
            ],
        )
    )
    assert isinstance(pinned, ImmediateUnsat)
    assert pinned.reason == "valuation pinned to 2, which is excluded"

    # a window the exclusions cover is as empty as a crossed one
    covered = normalize(
        inst(
            ["x"],
            valuations=[
                ValConstraint(3, "x", ">=", 3),
                ValConstraint(3, "x", "<=", 4),
                ValConstraint(3, "x", "!=", 3),
                ValConstraint(3, "x", "!=", 4),
            ],
        )
    )
    assert isinstance(covered, ImmediateUnsat)
    assert (covered.prime, covered.var, covered.reason) == (
        3, "x", "every valuation in [3, 4] is excluded"
    )


def _fields(prof):
    return (prof.lower, prof.upper, prof.excluded)


def test_profile_edges_move_past_exclusions():
    assert _fields(VarProfile(0, 5, frozenset({0, 1, 3, 5}))) == (2, 4, frozenset({3}))
    assert _fields(VarProfile(NEG_INF, 3, frozenset({3, 2, 0}))) == (
        NEG_INF, 1, frozenset({0})
    )
    assert _fields(VarProfile(-1, INF, frozenset({-1, 0, 4}))) == (1, INF, frozenset({4}))
    # the walk passes one excluded value per step, however wide the window
    assert _fields(VarProfile(0, 10**18, frozenset(range(5)))) == (5, 10**18, frozenset())


def test_profile_drops_exclusions_outside_the_window():
    assert _fields(VarProfile(2, 7, frozenset({-1, 4, 9}))) == (2, 7, frozenset({4}))
    assert _fields(VarProfile(NEG_INF, 3, frozenset({5, 1}))) == (
        NEG_INF, 3, frozenset({1})
    )
    assert _fields(VarProfile(0, INF, frozenset({-3, -1}))) == (0, INF, frozenset())
    assert VarProfile(0, INF, frozenset({-3})) == VarProfile(0, INF)


def test_profile_is_empty_iff_its_edges_cross():
    covered = VarProfile(3, 4, frozenset({3, 4}))
    assert _fields(covered) == (5, 2, frozenset()) and covered.empty()
    assert VarProfile(3, 3, frozenset({3})).empty()
    assert VarProfile(5, 4).empty()
    assert not VarProfile(3, 3).empty()
    assert not VarProfile(3, 5, frozenset({4})).empty()
    assert not VarProfile(NEG_INF, 0, frozenset({0, -1})).empty()
    assert not VarProfile(0, INF, frozenset({0, 1})).empty()


def test_a_lower_edge_of_inf_admits_only_zero():
    # v >= +inf is the constraint x = 0: with no cap it admits only +inf,
    # and under a finite cap the window is empty
    zero = VarProfile(INF, INF, frozenset({2}))
    assert _fields(zero) == (INF, INF, frozenset()) and not zero.empty()
    assert zero.admits(INF)
    assert not any(zero.admits(v) for v in (NEG_INF, -10**9, -1, 0, 1, 10**9))
    assert VarProfile(INF, 3).empty()
    assert VarProfile(INF, 3, frozenset({3})).empty()


def test_profile_admits_the_value_zero_iff_uncapped():
    assert VarProfile(0, INF, frozenset({2})).admits(INF)
    assert VarProfile().admits(INF)
    assert not VarProfile(NEG_INF, 7).admits(INF)
    assert not VarProfile(0, 0).admits(INF)


def test_profile_admits_its_raw_set():
    # over small windows, empty ones included: admits is the definition
    # {lower <= v <= upper, v not excluded} (+inf iff upper is +inf), empty
    # holds iff nothing is admitted, and rebuilding a profile from its own
    # fields changes nothing
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    edge = st.one_of(st.just(None), st.integers(-4, 4))

    @hypothesis.given(edge, edge, st.frozensets(st.integers(-6, 6), max_size=8))
    def check(lo, up, excluded):
        lower = NEG_INF if lo is None else lo
        upper = INF if up is None else up
        prof = VarProfile(lower, upper, excluded)
        for v in [*range(-8, 9), INF]:
            raw = (v == INF and upper == INF) or (
                v != INF and lower <= v <= upper and v not in excluded
            )
            assert prof.admits(v) == raw, v
        if lo is not None and up is not None:
            assert prof.empty() == (not any(map(prof.admits, range(lo, up + 1))))
        else:
            assert not prof.empty()
        assert VarProfile(prof.lower, prof.upper, prof.excluded) == prof

    check()


def test_classification_table():
    assert classify_kinds(2, frozenset()) is Fragment.NONE
    assert classify_kinds(2, frozenset({">="})) is Fragment.GEQ
    assert classify_kinds(2, frozenset({">=", "=="})) is Fragment.GEQ
    assert classify_kinds(3, frozenset({">="})) is Fragment.GEQ
    assert classify_kinds(3, frozenset({"=="})) is Fragment.HARD
    assert classify_kinds(3, frozenset({"<=", "!="})) is Fragment.LEQ
    assert classify_kinds(2, frozenset({"!="})) is Fragment.LEQ
    assert classify_kinds(5, frozenset({">=", "<="})) is Fragment.HARD
    assert classify_kinds(2, frozenset({"==", "<="})) is Fragment.HARD
    assert Fragment.HARD.label == "NP-complete fragment"
    assert Fragment.GEQ.label == "in P"


def test_classify_summary():
    i = inst(
        ["x", "y"],
        valuations=[
            ValConstraint(2, "x", ">=", 0),
            ValConstraint(3, "y", "<=", 1),
            ValConstraint(3, "y", ">=", 0),
        ],
        orders=[OrderConstraint.of([1, 0], "<", 2)],
    )
    norm = normalize(i)
    fc = classify(norm)
    assert fc.per_prime == {2: Fragment.GEQ, 3: Fragment.HARD}
    assert fc.has_orders and fc.multi_prime
    assert fc.describe() == "2:GEQ,3:HARD,ord"
    assert classify(normalize(inst(["x"]))).describe() == "NONE"


def test_height_frozen_values():
    assert height(0) == 1
    assert height(1) == 1
    assert height(-1) == 1
    assert height(Fraction(3, 8)) == 6  # 1 + 2 + 3
    assert height(Fraction(-5, 3)) == 6  # 1 + 3 + 2
    assert height(INF) == 1 and height(NEG_INF) == 1


def test_instance_size_frozen_example():
    # two equations x + y = 0, x - y = 0: max dimension 2, eight unit entries
    i = inst(
        ["x", "y"],
        equations=[Equation.of([1, 1], 0), Equation.of([1, -1], 0)],
    )
    assert instance_size(i) == 8


def test_instance_size_counts_valuations_and_orders():
    base = inst(["x"])
    assert instance_size(base) == 1  # just the dimension floor
    with_val = inst(["x"], valuations=[ValConstraint(3, "x", ">=", 4)])
    # prime 3 has height 1+2=3, bound 4 height 1+2+0... h(4)=1+2=3
    assert instance_size(with_val) == 1 + height(3) + height(4)
    with_ord = inst(["x"], orders=[OrderConstraint.of([Fraction(3, 8)], "<", 1)])
    assert instance_size(with_ord) == 1 + height(Fraction(3, 8)) + height(1)


def test_instance_size_calls_height_only_on_nonzero_entries(monkeypatch):
    # a zero entry of an equation or order row counts h(0) = 1 without a
    # call to height; the size is still the maximum block dimension plus the
    # height of every entry
    def all_entries(i):
        rows = (*i.equations, *i.orders)
        dims = [1, *(d for block in (i.equations, i.orders) if block
                     for d in (len(block), len(i.variables)))]
        entries = [x for row in rows for x in (*row.coeffs, row.rhs)]
        entries += [x for vc in i.valuations for x in (vc.prime, vc.bound)]
        return rows, max(dims) + sum(map(height, entries))

    seen = []
    real = model.height
    monkeypatch.setattr(model, "height", lambda x: seen.append(x) or real(x))
    zeros = 0
    for seed in range(300):
        i = random_instance(
            seed, num_vars=2 + seed % 6, num_eqs=seed % 4, num_orders=seed % 3,
            primes=(2, 3, 5),
        )
        rows, want = all_entries(i)
        seen.clear()
        assert instance_size(i) == want, seed
        nonzero = [x for row in rows for x in (*row.coeffs, row.rhs) if x]
        valuations = [x for vc in i.valuations for x in (vc.prime, vc.bound)]
        assert seen == nonzero + valuations, seed
        zeros += sum(x == 0 for row in rows for x in row.coeffs)
    assert zeros >= 100, zeros


def test_normalize_is_idempotent_on_profiles():
    rng = random.Random(77)
    rels = [">=", "<=", "==", "!=", "<", ">"]
    for trial in range(50):
        vals = [
            ValConstraint(
                rng.choice([2, 3, 5]),
                rng.choice(["x", "y"]),
                rng.choice(rels),
                rng.randint(-4, 4),
            )
            for _ in range(rng.randint(0, 6))
        ]
        i = inst(["x", "y"], valuations=vals)
        norm = normalize(i)
        if isinstance(norm, ImmediateUnsat):
            continue
        # rebuild an instance spelling out each profile, renormalize, compare
        spelled = []
        for p in norm.primes:
            for var in ["x", "y"]:
                prof = norm.profile(p, var)
                if prof.is_unconstrained():
                    continue
                if prof.lower != NEG_INF:
                    rel = "==" if prof.lower == prof.upper else ">="
                    spelled.append(ValConstraint(p, var, rel, prof.lower))
                if prof.upper != INF and prof.lower != prof.upper:
                    spelled.append(ValConstraint(p, var, "<=", prof.upper))
                for d in prof.excluded:
                    spelled.append(ValConstraint(p, var, "!=", d))
        again = normalize(inst(["x", "y"], valuations=spelled))
        assert not isinstance(again, ImmediateUnsat)
        for p in norm.primes:
            for var in ["x", "y"]:
                a, b = norm.profile(p, var), again.profile(p, var)
                assert (a.lower, a.upper, a.excluded) == (
                    b.lower,
                    b.upper,
                    b.excluded,
                ), f"trial {trial}: profile drift at p={p} var={var}"


def test_verdict_helpers():
    sat = Verdict.sat(witness={"x": 1})
    assert sat.is_sat and not sat.is_unsat and not sat.is_unknown
    unsat = Verdict.unsat("why", "because", extra=3)
    assert unsat.is_unsat and unsat.code == "why"
    assert unsat.diagnostics["extra"] == 3
    unk = Verdict.unknown("why", "because")
    assert unk.is_unknown and unk.code == "why"
