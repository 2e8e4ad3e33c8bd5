"""Span tracing at padicsat's layer boundaries, installed from outside.

`Tracer.install` replaces every module-global binding of each boundary
function, in every loaded ``padicsat`` module, by a wrapper that records one
span per call: (id, name, start, end, parent id, operation id, note).  This
catches the ``from .x import f`` copies, e.g. ``complete.solve_geq`` and
``combiner.lp_feasible``, as well as the defining module's own name.
`Tracer.uninstall` puts every original object back, so code measured after it
runs unmodified.  Spans stay in memory until `write` is called.

The note is a small value read from the call's arguments or result (matrix
cells, unsat or infeasible outcome, restarts, rejects); it is taken after the
span's end time, so its cost is not charged to the span itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import NamedTuple

BOUNDARIES = (
    "parser.parse_instance",
    "model.normalize",
    "combiner.solve_combined",
    "combiner.strictify",
    "dispatch.solve_single_prime",
    "complete.solve_complete",
    "solver_geq.solve_geq",
    "solver_leq.solve_leq",
    "linalg.pivot_minimal_echelon",
    "linalg.solve_affine",
    "simplex.lp_feasible",
    "simplex.check_certificate",
    "testkit.verify_witness",
)


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # -1 at the top of an operation
    op: int
    note: object


def _echelon_cells(bound, result) -> int:
    """m * n of the matrix handed to the echelon."""
    return len(bound["A"]) * len(bound["costs"].offsets)


def _tableau_cols(bound, result) -> tuple[int, bool]:
    """(columns of the tableau lp_feasible builds for these blocks, infeasible?).

    Mirrors the construction in simplex.lp_feasible: x = u - w (2n), t+ and
    t-, one slack per weak and strict row and one for t <= 1, plus one
    artificial column per row.
    """
    A, C, E = bound["A"], bound["C"], bound["E"]
    n = max([len(r) for r in A] + [len(r) for r in C] + [len(r) for r in E], default=0)
    rows = len(A) + len(C) + len(E) + 1
    real = 2 * n + 2 + len(C) + len(E) + 1
    return real + rows, type(result).__name__ == "LpInfeasible"


def _witness_terms(bound, result) -> int:
    """PowerSum terms in the witness a verdict returns."""
    witness = result.witness
    values = witness.values() if isinstance(witness, dict) else witness or ()
    return sum(len(v.terms) for v in values if hasattr(v, "terms"))


# name -> (needs bound arguments, note function)
_NOTES = {
    "combiner.solve_combined": (False, _witness_terms),
    "linalg.pivot_minimal_echelon": (True, _echelon_cells),
    "simplex.lp_feasible": (True, _tableau_cols),
    "solver_geq.solve_geq": (False, lambda bound, result: result.is_unsat),
    "combiner.strictify": (False, lambda bound, result: result.restarts),
    "testkit.verify_witness": (False, lambda bound, result: not result.ok),
}


def _modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "padicsat" or name.startswith("padicsat."))
    ]


def originals() -> dict[str, object]:
    """The boundary function objects, looked up in their defining modules."""
    out = {}
    for label in BOUNDARIES:
        module, func = label.split(".")
        out[label] = getattr(importlib.import_module(f"padicsat.{module}"), func)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        needs_args, note = _NOTES.get(label, (False, None))
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                value = None
                if note is not None and result is not None:
                    bound = signature.bind(*args, **kwargs).arguments if needs_args else None
                    value = note(bound, result)
                spans.append(Span(sid, label, start, end, parent, self.op, value))

        return wrapper

    def install(self) -> int:
        """Wrap every binding of every boundary function; returns the count."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        by_id = {id(fn): label for label, fn in originals().items()}
        wrappers = {}
        for module in _modules():
            for attr, value in list(vars(module).items()):
                label = by_id.get(id(value))
                if label is None:
                    continue
                if label not in wrappers:
                    wrappers[label] = self._wrap(label, value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[label])
        return len(self._restore)

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers for `ops` operations, as name -> (value, unit).

    calls, self_ms, cells and witness terms are per operation; shares and
    per-call ratios are over the calls they name.  Self time is a span's duration minus the
    durations of its direct children.
    """
    by_id = {s.id: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns

    def inside(span: Span, label: str) -> bool:
        parent = span.parent
        while parent >= 0:
            outer = by_id[parent]
            if outer.name == label:
                return True
            parent = outer.parent
        return False

    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += s.end_ns - s.start_ns - child_ns[s.id]
        if s.note is not None:
            notes[s.name].append(s.note)

    out: dict[str, tuple[float, str]] = {}
    for label in BOUNDARIES:
        out[f"{label}.calls"] = (calls[label] / ops, "count/op")
        out[f"{label}.self_ms"] = (self_ns[label] / 1e6 / ops, "ms/op")

    out["linalg.pivot_minimal_echelon.cells"] = (
        sum(notes["linalg.pivot_minimal_echelon"]) / ops,
        "count/op",
    )
    geq = notes["solver_geq.solve_geq"]
    out["solver_geq.solve_geq.unsat_share"] = (_share(sum(geq), len(geq)), "share")

    searches = calls["complete.solve_complete"]
    # a call that raised has no note; it counts as a call that did not prune
    searched = [
        bool(s.note)
        for s in spans
        if s.name == "solver_geq.solve_geq" and inside(s, "complete.solve_complete")
    ]
    out["complete.solve_complete.geq_calls_per_call"] = (_share(len(searched), searches), "count/call")
    out["complete.solve_complete.geq_unsat_share"] = (_share(sum(searched), len(searched)), "share")

    out["testkit.verify_witness.rejects"] = (sum(notes["testkit.verify_witness"]), "count")
    out["witness.terms"] = (sum(notes["combiner.solve_combined"]) / ops, "count/op")

    strictifies = calls["combiner.strictify"]
    lps_inside = sum(
        1 for s in spans if s.name == "simplex.lp_feasible" and inside(s, "combiner.strictify")
    )
    out["combiner.strictify.lp_per_call"] = (_share(lps_inside, strictifies), "count/call")
    out["combiner.strictify.restarts"] = (
        _share(sum(notes["combiner.strictify"]), strictifies),
        "count/call",
    )

    lps = notes["simplex.lp_feasible"]
    out["simplex.lp_feasible.infeasible_share"] = (
        _share(sum(infeasible for _, infeasible in lps), len(lps)),
        "share",
    )
    out["simplex.lp_feasible.tableau_cols"] = (
        _share(sum(cols for cols, _ in lps), len(lps)),
        "count/call",
    )
    return out
