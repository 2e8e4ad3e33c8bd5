"""Command-line front end.

Exit codes: 0 satisfiable, 1 unsatisfiable, 2 unknown (reserved: no input
answers it at present), 3 usage or input errors, 4 internal failures.
`solve --json` emits one JSON object with the status, the fragment
classification, an optional witness, and basic stats; infinite diagnostic
values, such as an unbounded threshold, are written as the strings "inf"
and "-inf", since JSON has no infinity.

Witness coordinates are power sums over the instance's prime, serialized as
{"p": prime, "terms": [[coefficient, exponent], ...]} with rational
coefficients as strings; plain rational coordinates use "p": 0 and a single
term at exponent 0.  A "value" field with the exact rational value is added
whenever materializing it fits under the exponent guard (--guard, a positive
integer) and the interpreter can print its digits; the coefficients are
written and read with the interpreter's int/str digit limit lifted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction

from .certify import verify_witness
from .combiner import solve_combined
from .dispatch import geq_problem_of
from .errors import InputError, InternalError, OverflowGuardError, ParseError
from .model import (
    Fragment,
    ImmediateUnsat,
    Instance,
    Status,
    classify,
    instance_size,
    normalize,
)
from .parser import parse_instance, serialize_instance
from .rational import (
    DEFAULT_EXPONENT_GUARD,
    INF,
    NEG_INF,
    PowerSum,
    as_fraction,
    check_prime,
)
from .testkit import random_instance, smith_oracle_geq

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {
    Status.SAT: EXIT_SAT,
    Status.UNSAT: EXIT_UNSAT,
    Status.UNKNOWN: EXIT_UNKNOWN,
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here says 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _guard(args) -> int:
    if args.guard < 1:
        raise InputError(f"--guard must be a positive integer, got {args.guard}")
    return args.guard


@contextmanager
def _unlimited_digits():
    """Lift the interpreter's int/str digit limit (Python 3.10.7 on) until
    the block ends."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _coordinate_json(value, guard: int) -> dict:
    if isinstance(value, PowerSum):
        with _unlimited_digits():
            out = {"p": value.prime, "terms": [[str(c), e] for c, e in value.terms]}
        try:
            out["value"] = str(value.materialize(guard))
        except (OverflowGuardError, ValueError):
            pass  # past the guard, or past the interpreter's digit limit
        return out
    with _unlimited_digits():
        q = str(as_fraction(value))
    return {"p": 0, "terms": [[q, 0]], "value": q}


def _coordinate_text(value) -> str:
    with _unlimited_digits():
        if isinstance(value, PowerSum):
            return f"{value}  (v_{value.prime} = {value.valuation()})"
        return str(as_fraction(value))


def _fragment_string(inst: Instance) -> str | None:
    norm = normalize(inst)
    if isinstance(norm, ImmediateUnsat):
        return None
    return classify(norm).describe()


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and obj in (INF, NEG_INF):
        # JSON has no infinity; json.dumps would print a bare Infinity
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def _cmd_solve(args) -> int:
    guard = _guard(args)
    inst = parse_instance(_read_source(args.file))
    started = time.perf_counter()
    verdict = solve_combined(inst)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    fragment = _fragment_string(inst)
    if args.json:
        payload = {
            "status": verdict.status.value,
            "fragment": fragment,
            "stats": {
                "size": instance_size(inst),
                "time_ms": round(elapsed_ms, 3),
            },
        }
        if verdict.code:
            payload["code"] = verdict.code
        if verdict.reason:
            payload["reason"] = verdict.reason
        if verdict.is_sat:
            payload["witness"] = (
                {
                    var: _coordinate_json(value, guard)
                    for var, value in verdict.witness.items()
                }
                if args.witness and verdict.witness is not None
                else None
            )
        if verdict.diagnostics and args.witness:
            payload["diagnostics"] = _jsonable(verdict.diagnostics)
        print(json.dumps(payload, allow_nan=False))
    else:
        print(verdict.status.value)
        if verdict.code:
            print(f"code: {verdict.code}")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
        if fragment:
            print(f"fragment: {fragment}")
        if verdict.is_sat and args.witness:
            if verdict.witness is None:
                print("witness: decision only")
                for part, status in verdict.diagnostics.get("parts", {}).items():
                    print(f"  part {part}: {status}")
            else:
                for var in inst.variables:
                    print(f"{var} = {_coordinate_text(verdict.witness[var])}")
    return _STATUS_EXIT[verdict.status]


def _exponent(e) -> int:
    if isinstance(e, bool) or not isinstance(e, int):
        raise InputError(f"exponent {e!r} is not an integer")
    return e


def _coordinate_from_json(entry):
    if isinstance(entry, str):
        with _unlimited_digits():
            return Fraction(entry)
    if not isinstance(entry, dict):
        raise InputError("must be a string or an object")
    p = entry.get("p")
    # as_fraction refuses JSON floats, which would round exact coefficients
    with _unlimited_digits():
        terms = [(as_fraction(c), _exponent(e)) for c, e in entry.get("terms", [])]
    if p == 0:
        if len(terms) != 1 or terms[0][1] != 0:
            raise InputError("a rational coordinate must have one term at exponent 0")
        return terms[0][0]
    return PowerSum(p, tuple(terms))


def _witness_from_json(raw: str) -> dict:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"witness is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("witness JSON must be an object mapping variables")
    witness = {}
    for var, entry in data.items():
        try:
            witness[var] = _coordinate_from_json(entry)
        except (InputError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise InputError(f"coordinate {var!r} is malformed: {exc}") from None
    return witness


def _cmd_check(args) -> int:
    guard = _guard(args)
    inst = parse_instance(_read_source(args.file))
    witness = _witness_from_json(_read_source(args.witness))
    result = verify_witness(inst, witness, guard=guard)
    if result:
        print("valid")
        return EXIT_SAT
    print(f"invalid ({result.code}): {result.detail}")
    return EXIT_UNSAT


def _cmd_classify(args) -> int:
    inst = parse_instance(_read_source(args.file))
    norm = normalize(inst)
    if isinstance(norm, ImmediateUnsat):
        print(f"unsat at normalization: v_{norm.prime}({norm.var}) {norm.reason}")
        return EXIT_UNSAT
    fc = classify(norm)
    print(fc.describe())
    for p, frag in sorted(fc.per_prime.items()):
        print(f"p = {p}: {frag.value} ({frag.label})")
    if fc.has_orders:
        print("order constraints present (rational LP side)")
    if not fc.per_prime and not fc.has_orders:
        print("no valuation or order constraints (plain linear algebra)")
    return EXIT_SAT


def _cmd_gen(args) -> int:
    try:
        primes = tuple(check_prime(int(p)) for p in args.primes.split(","))
    except ValueError:
        raise InputError(
            f"--primes must be comma-separated primes, got {args.primes!r}"
        ) from None
    if args.vars < 1:
        raise InputError(f"--vars must be at least 1, got {args.vars}")
    for option in ("eqs", "orders", "coeff_mag", "bound_mag"):
        value = getattr(args, option)
        if value < 0:
            flag = "--" + option.replace("_", "-")
            raise InputError(f"{flag} must be nonnegative, got {value}")
    if args.cover and args.coeff_mag < 1:
        raise InputError("--cover needs a nonzero coefficient: --coeff-mag >= 1")
    inst = random_instance(
        args.seed,
        fragment=args.fragment,
        num_vars=args.vars,
        num_eqs=args.eqs,
        coeff_mag=args.coeff_mag,
        bound_mag=args.bound_mag,
        primes=primes,
        num_orders=args.orders,
        cover_all_vars=args.cover,
    )
    sys.stdout.write(serialize_instance(inst))
    return EXIT_SAT


def _cmd_oracle(args) -> int:
    inst = parse_instance(_read_source(args.file))
    norm = normalize(inst)
    if isinstance(norm, ImmediateUnsat):
        print("unsat")
        return EXIT_UNSAT
    if norm.orders:
        raise InputError("the oracle handles valuation instances, not orders")
    primes = norm.primes
    if len(primes) != 1:
        raise InputError("the oracle needs exactly one prime")
    p = primes[0]
    fc = classify(norm)
    if fc.per_prime[p] is not Fragment.GEQ:
        raise InputError("the oracle decides lower-bound instances only")
    problem = geq_problem_of(norm, p)
    if any(problem.exact):
        raise InputError("the oracle does not take exact valuation pins")
    verdict = smith_oracle_geq(problem)
    print(verdict.status.value)
    return _STATUS_EXIT[verdict.status]


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="padicsat",
        description="decide linear systems with p-adic valuation and order constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_guard(p):
        p.add_argument(
            "--guard",
            type=int,
            default=DEFAULT_EXPONENT_GUARD,
            metavar="G",
            help="exponent guard for materializing power sums, a positive "
            "integer (default: 2**20)",
        )

    p_solve = sub.add_parser("solve", help="decide an instance file (- for stdin)")
    p_solve.add_argument("file", nargs="?", default="-")
    p_solve.add_argument("--witness", action="store_true", help="print the witness")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    add_guard(p_solve)
    p_solve.set_defaults(run=_cmd_solve)

    p_check = sub.add_parser("check", help="verify a witness JSON against an instance")
    p_check.add_argument("file")
    p_check.add_argument("witness", help="JSON file mapping variables to coordinates")
    add_guard(p_check)
    p_check.set_defaults(run=_cmd_check)

    p_classify = sub.add_parser("classify", help="report the fragment of an instance")
    p_classify.add_argument("file", nargs="?", default="-")
    p_classify.set_defaults(run=_cmd_classify)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--fragment",
        choices=("geq", "leq", "eq", "mixed"),
        default="mixed",
    )
    p_gen.add_argument("--vars", type=int, default=4)
    p_gen.add_argument("--eqs", type=int, default=2)
    p_gen.add_argument("--orders", type=int, default=0)
    p_gen.add_argument("--primes", default="2,3")
    p_gen.add_argument("--coeff-mag", type=int, default=9)
    p_gen.add_argument("--bound-mag", type=int, default=3)
    p_gen.add_argument(
        "--cover",
        action="store_true",
        help="give every variable a nonzero coefficient somewhere",
    )
    p_gen.set_defaults(run=_cmd_gen)

    p_oracle = sub.add_parser(
        "oracle",
        help="decide a lower-bound instance through the independent "
        "divisibility oracle",
    )
    p_oracle.add_argument("file", nargs="?", default="-")
    p_oracle.set_defaults(run=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for -h as well (code 0)
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InternalError, OverflowGuardError) as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # any other crash must not surface as exit 1, which means unsat
        traceback.print_exc(file=sys.stderr)
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
