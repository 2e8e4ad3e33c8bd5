"""padicsat benchmark: instance text in, checked verdict out.

    python3 perfbench/run.py --workload poly|hard|orders --seed N --seconds S --trace 0|1

One process, one thread, one client in a closed loop.  Each operation takes
a case's instance text through parse_instance, solve_combined (default
threads=1) and the evidence check: sat witnesses go to verify_witness, order
Farkas certificates to simplex.check_certificate, and the status is compared
with the reference answer the corpus built by construction.

The loop runs whole rounds of the corpus (one case of every class each),
at least MIN_ROUNDS, until --seconds have passed, so every run sees the same
mix.  Operation times are normalised by a speed probe run between operations
(see probe()).  With --trace 0 it prints the end-to-end metrics.  With
--trace 1 it runs half of --seconds untraced, then the same rounds traced,
prints the per-layer metrics and the tracing overhead, and writes the spans
to perfbench/out/.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

Exits 2 without a result when the program's source is not beside the
benchmark (src/padicsat in the same checkout).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# Times are normalised to a machine on which probe() takes this long; see probe().
PROBE_NOMINAL_S = 0.001
MIN_ROUNDS = 3  # every timed pass runs at least this many rounds
TAIL_BEYOND = 10  # samples the tail percentile keeps beyond it in every run
WORKLOADS = ("poly", "hard", "orders")


def load_program():
    """Import padicsat from this checkout's src/, or exit 2 if it is not there."""
    init = SRC / "padicsat" / "__init__.py"
    if not init.is_file():
        print(f"no program source at {init}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    padicsat = importlib.import_module("padicsat")
    if Path(padicsat.__file__).resolve() != init.resolve():
        print(f"padicsat imported from {padicsat.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    return padicsat


def set_up(workload: str, seed: int):
    """Import the program afresh and build the corpus; (padicsat, rounds)."""
    for name in list(sys.modules):
        if name in ("padicsat", "corpus") or name.startswith("padicsat."):
            del sys.modules[name]
    padicsat = load_program()
    corpus = importlib.import_module("corpus")
    return padicsat, corpus.build(workload, seed)


# ---------------------------------------------------------------------------
# one operation: parse -> decide -> check


def order_blocks(inst):
    """(A, b, C, d, E, f): equality, weak and strict rows of the instance."""
    A = [list(eq.coeffs) for eq in inst.equations]
    b = [eq.rhs for eq in inst.equations]
    weak = [oc for oc in inst.orders if oc.rel == "<="]
    strict = [oc for oc in inst.orders if oc.rel == "<"]
    return (
        A,
        b,
        [list(oc.coeffs) for oc in weak],
        [oc.rhs for oc in weak],
        [list(oc.coeffs) for oc in strict],
        [oc.rhs for oc in strict],
    )


def check(padicsat, case, verdict) -> str | None:
    """Why the verdict fails its case, or None when it and its evidence hold."""
    status = verdict.status.value
    if status != case.expected:
        return f"status {status} ({verdict.code}), expected {case.expected}"
    inst = case.instance
    if verdict.is_sat:
        if verdict.witness is not None:
            target, witness = inst, verdict.witness
        elif "order-witness" in verdict.diagnostics:
            # decision-only answer: its order point must meet equations and orders
            target = padicsat.Instance(inst.variables, inst.equations, orders=inst.orders)
            witness = verdict.diagnostics["order-witness"]
        else:
            return None
        result = padicsat.verify_witness(target, witness)
        return None if result.ok else f"witness rejected: {result.code}: {result.detail}"
    if verdict.code == "orders-infeasible":
        cert = verdict.diagnostics["certificate"]
        ok, why = padicsat.simplex.check_certificate(
            *order_blocks(inst), cert["lam"], cert["mu"], cert["nu"]
        )
        return None if ok else f"certificate rejected: {why}"
    return None


def operation(padicsat, case) -> str | None:
    """Parse, decide and check one case; the failure reason, or None."""
    try:
        verdict = padicsat.solve_combined(padicsat.parse_instance(case.text))
        return check(padicsat, case, verdict)
    except Exception as exc:  # any raise is a failed operation, counted and shown
        return f"raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# the closed loop


def probe() -> float:
    """Wall time of a fixed pure-Python workload: the machine's current speed.

    On a shared machine the effective CPU speed drifts by tens of percent
    over seconds to minutes.  Each operation's wall time is scaled by
    PROBE_NOMINAL_S over the mean of the probes right before and after it,
    which cancels most of that drift while keeping the program's own cost.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i % 17 - 8, i % 5 + 1)
    return time.perf_counter() - t0


def normalise(wall: float, before: float, after: float) -> float:
    """Wall time scaled to a machine on which probe() takes PROBE_NOMINAL_S."""
    return wall * 2 * PROBE_NOMINAL_S / (before + after)


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)  # normalised seconds
    wall: list[float] = field(default_factory=list)  # seconds as measured
    failures: list[tuple[str, str]] = field(default_factory=list)
    elapsed: float = 0.0
    rounds: int = 0


def run_rounds(padicsat, rounds, seconds=None, count=None, tracer=None) -> Pass:
    """Run whole rounds until `seconds` have passed (and at least MIN_ROUNDS
    rounds have run), or exactly `count` rounds."""
    out = Pass()
    start = time.perf_counter()
    before = probe()
    while True:
        for case in rounds[out.rounds % len(rounds)]:
            if tracer is not None:
                tracer.op = len(out.latencies)
            t0 = time.perf_counter()
            failure = operation(padicsat, case)
            wall = time.perf_counter() - t0
            after = probe()
            out.wall.append(wall)
            out.latencies.append(normalise(wall, before, after))
            before = after
            if failure is not None:
                out.failures.append((case.name, failure))
        out.rounds += 1
        out.elapsed = time.perf_counter() - start
        if count is not None:
            done = out.rounds >= count
        else:
            done = out.rounds >= MIN_ROUNDS and out.elapsed >= seconds
        if done:
            return out


def tail_percentile(round_size: int) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it in every run.

    Every run has at least MIN_ROUNDS * round_size samples.  Fixing the
    percentile per workload, instead of per run, keeps it on the same place
    of the round's mix however many rounds a run fits in.
    """
    return 100.0 * (1 - TAIL_BEYOND / (MIN_ROUNDS * round_size))


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A weighted mean of all order statistics with Beta(q(n+1), (1-q)(n+1))
    weights (taken at the midpoints of the n rank intervals), so it moves
    less from run to run than the one or two order statistics at the rank.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [
        (a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
        for i in range(n)
    ]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(sample: Pass, percentile: float, setup_s: float) -> dict[str, tuple[float, str]]:
    n = len(sample.latencies)
    return {
        "verdict_p50_ms": (quantile(sample.latencies, 0.5) * 1e3, "ms"),
        "verdict_tail_ms": (quantile(sample.latencies, percentile / 100) * 1e3, "ms"),
        "verdicts_per_s": ((n - len(sample.failures)) / sum(sample.latencies), "1/s"),
        "checked_share": ((n - len(sample.failures)) / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        padicsat, rounds = set_up(args.workload, args.seed)
        wall = time.perf_counter() - t0
        after = probe()
        setups.append(normalise(wall, before, after))
        before = after
    setup_s = statistics.median(setups)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(rounds[0])} cases; "
        f"set-up median {setup_s:.3f} s of {SETUP_REPEATS} "
        f"({min(setups):.3f} to {max(setups):.3f}); "
        f"process start to first operation {time.perf_counter() - _PROCESS_START:.3f} s"
    )

    # a traced run spends half its time untraced, as the overhead baseline
    sample = run_rounds(padicsat, rounds, seconds=args.seconds / (2 if args.trace else 1))
    n = len(sample.latencies)
    pct = tail_percentile(len(rounds[0]))
    beyond = n - math.ceil(pct / 100 * n)
    print(f"{n} operations in {sample.rounds} rounds, {sample.elapsed:.2f} s; "
          f"verdict_tail_ms is p{pct:.1f} ({beyond} of {n} samples beyond it)")
    print(f"as measured, before normalising: p50 {quantile(sample.wall, 0.5) * 1e3:.2f} ms, "
          f"p{pct:.1f} {quantile(sample.wall, pct / 100) * 1e3:.2f} ms, "
          f"{n / sample.elapsed:.3f} verdicts/s over the loop's wall time")
    metrics = end_to_end(sample, pct, setup_s)
    failures = sample.failures

    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        bindings = tracer.install()
        try:
            traced = run_rounds(padicsat, rounds, count=sample.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        overhead = 100.0 * (sum(traced.latencies) / sum(sample.latencies) - 1.0)
        metrics = tracing.layer_metrics(tracer.spans, len(traced.latencies))
        metrics["trace.overhead_pct"] = (overhead, "%")
        print(f"traced the same {traced.rounds} rounds through {bindings} bindings: "
              f"{len(tracer.spans)} spans in {spans_path.relative_to(HERE.parent)}, "
              f"overhead {overhead:+.1f}% of untraced operation time")
        failures = failures + traced.failures
        n += len(traced.latencies)

    for name, why in failures:
        print(f"FAILED {name}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit}")
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
