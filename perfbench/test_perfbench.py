"""Tests of the benchmark itself: corpus, references, tracer, metric names.

    python3 -m pytest perfbench -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
import run
import tracer

BENCHMARK = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(scope="module")
def built():
    return {w: corpus.build(w, SEED) for w in run.WORKLOADS}


def _cases(rounds):
    return [case for rnd in rounds for case in rnd]


# ---------------------------------------------------------------------------
# corpus


def test_same_seed_same_corpus(built):
    for workload, rounds in built.items():
        again = corpus.build(workload, SEED)
        assert [(c.name, c.text, c.expected) for c in _cases(again)] == [
            (c.name, c.text, c.expected) for c in _cases(rounds)
        ]
    other = corpus.build("poly", SEED + 1)
    assert [c.text for c in _cases(other)] != [c.text for c in _cases(built["poly"])]


def test_every_round_has_the_same_classes(built):
    for rounds in built.values():
        # case names carry the class, never the seed's draw
        assert len({tuple(c.name for c in r) for r in rounds}) == 1


def test_text_round_trips(built):
    from padicsat import parse_instance

    for rounds in built.values():
        for case in rounds[0]:
            assert parse_instance(case.text) == case.instance


# ---------------------------------------------------------------------------
# references by construction


def test_triangular_factors_have_unit_diagonal(built):
    factored = [
        c for w in ("poly", "orders") for c in _cases(built[w]) if "L" in c.source
    ]
    assert factored
    for case in factored:
        L, U = case.source["L"], case.source["U"]
        n = len(L)
        for i in range(n):
            assert L[i][i] == 1 and U[i][i] == 1
            assert all(L[i][j] == 0 for j in range(i + 1, n))
            assert all(U[i][j] == 0 for j in range(i))
        A = [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert [list(eq.coeffs) for eq in case.instance.equations] == A


def test_plants_prove_sat_and_break_one_bound_when_unsat(built):
    from padicsat import Instance, verify_witness

    planted = [c for w in ("poly", "orders") for c in _cases(built[w]) if "plant" in c.source]
    assert planted
    for case in planted:
        inst = case.instance
        witness = dict(zip(inst.variables, case.source["plant"]))
        result = verify_witness(inst, witness)
        if case.expected == "sat":
            assert result.ok, (case.name, result.detail)
        else:
            # the plant solves the equations and orders: only a valuation fails
            assert result.code == "valuation", (case.name, result)
            no_vals = Instance(inst.variables, inst.equations, orders=inst.orders)
            assert verify_witness(no_vals, witness).ok


def test_order_references(built):
    from padicsat import verify_witness

    for case in _cases(built["orders"]):
        rows = case.instance.orders
        if case.name.startswith(("box", "pinched")):
            lows = [-oc.rhs for oc in rows[1::2]]
            highs = [oc.rhs for oc in rows[0::2]]
            centre = {v: (lo + hi) / 2 for v, lo, hi in zip(case.instance.variables, lows, highs)}
            assert case.expected == "sat"
            assert verify_witness(case.instance, centre).ok, case.name
        elif case.name.startswith("infeasible"):
            j = case.source["contradiction"]
            lower = max(-oc.rhs for oc in rows if oc.coeffs[j] == -1)
            upper = [oc for oc in rows if oc.coeffs[j] == 1 and sum(map(abs, oc.coeffs)) == 1]
            assert case.expected == "unsat"
            assert any(oc.rhs < lower or (oc.rel == "<" and oc.rhs <= lower) for oc in upper)


def test_colorings_against_brute_force(built):
    from padicsat.testkit import Graph, brute_color

    cases = _cases(built["hard"])
    assert {c.expected for c in cases} == {"sat", "unsat"}
    for case in cases:
        g, colors = case.source["graph"], case.source["colors"]
        assert case.expected == ("sat" if brute_color(g, colors) else "unsat")
    for k in (5, 6):
        for colors in (3, 4):
            assert not brute_color(Graph.complete(k), colors)


# ---------------------------------------------------------------------------
# checking


def test_check_rejects_wrong_status_and_bad_evidence(built):
    import padicsat
    from padicsat import Status, Verdict

    case = next(c for c in _cases(built["poly"]) if c.expected == "sat")
    assert run.check(padicsat, case, Verdict(Status.UNSAT, code="x")) is not None
    assert run.check(padicsat, case, Verdict(Status.UNKNOWN, code="x")) is not None
    bad = {v: Fraction(0) for v in case.instance.variables}
    assert "witness rejected" in run.check(padicsat, case, Verdict.sat(witness=bad))

    infeasible = next(c for c in _cases(built["orders"]) if c.name.startswith("infeasible"))
    verdict = padicsat.solve_combined(infeasible.instance)
    assert run.check(padicsat, infeasible, verdict) is None
    cert = verdict.diagnostics["certificate"]
    cert["mu"] = tuple(Fraction(0) for _ in cert["mu"])
    cert["nu"] = tuple(Fraction(0) for _ in cert["nu"])
    assert "certificate rejected" in run.check(padicsat, infeasible, verdict)


# ---------------------------------------------------------------------------
# tracer


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "padicsat" or name.startswith("padicsat."))
        for attr, value in vars(module).items()
    }


def test_uninstall_restores_every_binding(built):
    import padicsat

    originals = tracer.originals()
    before = _bindings()
    t = tracer.Tracer()
    count = t.install()
    # the defining modules, the package and the from-imports are all wrapped
    for module, attr in (
        ("padicsat.linalg", "pivot_minimal_echelon"),
        ("padicsat.solver_geq", "pivot_minimal_echelon"),
        ("padicsat.complete", "solve_geq"),
        ("padicsat.combiner", "lp_feasible"),
        ("padicsat", "solve_combined"),
    ):
        assert getattr(sys.modules[module], attr) is not before[(module, attr)]
    assert count >= len(originals)
    case = next(c for c in _cases(built["hard"]) if c.expected == "unsat")
    assert run.operation(padicsat, case) is None
    t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {s.name for s in t.spans}
    assert {"complete.solve_complete", "solver_geq.solve_geq", "linalg.pivot_minimal_echelon"} <= names


def test_self_time_subtracts_children():
    spans = [
        tracer.Span(1, "solver_geq.solve_geq", 10_000_000, 14_000_000, 0, 0, True),
        tracer.Span(0, "complete.solve_complete", 0, 20_000_000, -1, 0, None),
    ]
    metrics = tracer.layer_metrics(spans, ops=2)
    assert metrics["complete.solve_complete.self_ms"][0] == pytest.approx(8.0)
    assert metrics["solver_geq.solve_geq.self_ms"][0] == pytest.approx(2.0)
    assert metrics["complete.solve_complete.geq_calls_per_call"][0] == 1
    assert metrics["complete.solve_complete.geq_unsat_share"][0] == 1


# ---------------------------------------------------------------------------
# metric names


def _names(section):
    return {m["name"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", Path(run.HERE) / "out")
    code = run.main(["--workload", "orders", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _names(section)
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
