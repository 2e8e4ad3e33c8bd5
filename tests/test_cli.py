"""Command-line interface: exit codes, output formats, subcommands."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padicsat.cli import main
from padicsat.parser import parse_instance
from padicsat.certify import verify_witness

SAT_GEQ = "vars x y\neq 1 x + 1 y = 3\nval 3 : v(x) >= 0\nval 3 : v(y) >= 0\n"
UNSAT_PINNED = "vars x y\neq 1 x + 1 y = 2\nval 2 : v(x) == 1\nval 2 : v(y) == 1\n"
MIXED_OPEN = (
    "vars x y z\neq 1 x + 1 y + 1 z = 0\nval 3 : v(x) <= 5\nval 3 : v(y) >= 0\n"
)
# every valuation of x's window [3, 4] is excluded
COVERED = (
    "vars x\nval 3 : v(x) >= 3\nval 3 : v(x) <= 4\nval 3 : v(x) != 3\n"
    "val 3 : v(x) != 4\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_exit_codes(tmp_path, capsys):
    assert main(["solve", write(tmp_path, "sat.txt", SAT_GEQ)]) == 0
    assert "sat" in capsys.readouterr().out.splitlines()[0]

    assert main(["solve", write(tmp_path, "unsat.txt", UNSAT_PINNED)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "unsat"

    # x has no lower bound and y a floor: decided, sat (x = y = 1, z = -2)
    path = write(tmp_path, "open.txt", MIXED_OPEN)
    assert main(["solve", path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "sat"
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(json.dumps(payload["witness"]))
    assert main(["check", path, str(witness_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_solve_json_reports_why_unsat(tmp_path, capsys):
    # normalization refutes a window the exclusions cover, before any
    # fragment is chosen; classify stops there too
    path = write(tmp_path, "covered.txt", COVERED)
    assert main(["solve", path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["fragment"], payload["code"], payload["reason"]) == (
        "unsat", None, "empty-window", "v_3(x): every valuation in [3, 4] is excluded"
    )
    assert main(["classify", path]) == 1
    assert "every valuation in [3, 4] is excluded" in capsys.readouterr().out


def test_solve_text_witness_prints_power_sums(tmp_path, capsys):
    # text mode prints each coordinate with its valuation, the same
    # coordinates solve --json --witness gives
    from padicsat.cli import _witness_from_json

    path = write(tmp_path, "open.txt", MIXED_OPEN)
    assert main(["solve", path, "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["solve", path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    witness = _witness_from_json(json.dumps(payload["witness"]))
    for var in ("x", "y", "z"):
        coordinate = witness[var]
        assert f"{var} = {coordinate}  (v_3 = {coordinate.valuation()})" in lines, lines


def test_python_dash_m_exit_codes(tmp_path):
    # python -m padicsat runs the same main: 0 sat, 1 unsat, 3 for a file
    # that is not there (with no __main__ Python exits 1, the unsat code)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run(path):
        return subprocess.run(
            [sys.executable, "-m", "padicsat", "solve", path],
            capture_output=True, text=True, env=env, timeout=60,
        )

    sat = run(write(tmp_path, "sat.txt", SAT_GEQ))
    assert sat.returncode == 0, sat.stderr
    assert sat.stdout.splitlines()[0] == "sat"
    unsat = run(write(tmp_path, "unsat.txt", UNSAT_PINNED))
    assert unsat.returncode == 1, unsat.stderr
    assert unsat.stdout.splitlines()[0] == "unsat"
    missing = run(str(tmp_path / "missing.txt"))
    assert missing.returncode == 3, missing.stderr
    assert missing.stdout == ""


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(SAT_GEQ))
    assert main(["solve"]) == 0
    assert "sat" in capsys.readouterr().out


def test_solve_json_witness_schema(tmp_path, capsys):
    path = write(tmp_path, "sat.txt", SAT_GEQ)
    assert main(["solve", path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "sat"
    assert payload["fragment"] == "3:GEQ"
    assert set(payload["witness"]) == {"x", "y"}
    for entry in payload["witness"].values():
        assert entry["p"] in (0, 3)
        for coeff, exp in entry["terms"]:
            assert isinstance(coeff, str) and isinstance(exp, int)
    assert payload["stats"]["size"] > 0
    assert payload["stats"]["time_ms"] >= 0

    # the JSON witness round-trips through the checker
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(json.dumps(payload["witness"]))
    assert main(["check", path, str(witness_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_solve_json_rational_witness(tmp_path, capsys):
    path = write(tmp_path, "plain.txt", "vars x y\neq 1 x + 1 y = 5/2\n")
    assert main(["solve", path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "sat"
    assert payload["fragment"] == "NONE"
    for entry in payload["witness"].values():
        assert entry["p"] == 0
        assert entry["terms"][0][1] == 0
        assert "value" in entry


def test_solve_guard_controls_value_field(tmp_path, capsys):
    path = write(tmp_path, "deep.txt", "vars x\nval 3 : v(x) >= 40\n")
    assert main(["solve", path, "--json", "--witness"]) == 0
    with_value = json.loads(capsys.readouterr().out)
    assert main(["solve", path, "--json", "--witness", "--guard", "5"]) == 0
    without_value = json.loads(capsys.readouterr().out)
    entry = with_value["witness"]["x"]
    assert "value" in entry and entry["value"] != "0"
    assert "value" not in without_value["witness"]["x"]


def test_solve_json_omits_value_past_digit_limit(monkeypatch, capsys):
    # 3**20000 fits under the exponent guard but has more decimal digits
    # than the interpreter converts to a string
    monkeypatch.setattr("sys.stdin", io.StringIO("vars x\nval 3 : v(x) >= 20000\n"))
    assert main(["solve", "-", "--json", "--witness"]) == 0
    entry = json.loads(capsys.readouterr().out)["witness"]["x"]
    assert entry["terms"] == [["1", 20000]]
    assert "value" not in entry


def test_witness_coefficients_past_the_digit_limit_round_trip(tmp_path, capsys):
    # a coefficient of 4,000 digits, which the parser accepts, in both rows
    # gives witness coefficients of about 8,000 digits: solve prints them as
    # text and as JSON, and check reads the JSON back.  The interpreter's
    # int/str digit limit is lifted only meanwhile.  A wrong witness whose
    # residual is as long is rejected, not a crash
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    big = 10**3999 + 1
    path = write(tmp_path, "big.txt", (
        f"vars x y z\neq {big} x + 3 y + 1 z = 7\neq 9 x + {big} y + 11 z = 7\n"
        "val 3 : v(x) >= 0\nval 3 : v(y) >= 0\nval 3 : v(z) >= 0\n"
    ))
    assert main(["solve", path, "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sat" and max(map(len, lines)) > 8000
    assert main(["solve", path, "--json", "--witness"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    digits = [
        len(part)
        for entry in witness.values()
        for c, _ in entry["terms"]
        for part in c.lstrip("-").split("/")
    ]
    assert max(digits) > 4300 and "value" not in witness["x"]
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(json.dumps(witness))
    assert main(["check", path, str(witness_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    # one more term on z with 5,001 digits: its residual is past the limit
    # too, and check words it by its size and exits 1
    witness["z"]["terms"].append(["1" + "0" * 5000, 40])
    witness_path.write_text(json.dumps(witness))
    assert main(["check", path, str(witness_path)]) == 1
    assert capsys.readouterr().out.startswith("invalid (equation): equation 0 has")
    assert get_limit() == limit


def test_unexpected_exception_exits_internal(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("padicsat.cli.solve_combined", crash)
    assert main(["solve", write(tmp_path, "sat.txt", SAT_GEQ)]) == 4
    assert "internal failure: RuntimeError: boom" in capsys.readouterr().err


def test_check_rejects_bad_witness(tmp_path, capsys):
    path = write(tmp_path, "sat.txt", SAT_GEQ)
    witness_path = tmp_path / "bad.json"
    witness_path.write_text(json.dumps({"x": "1/3", "y": "8/3"}))
    assert main(["check", path, str(witness_path)]) == 1
    assert "invalid" in capsys.readouterr().out

    witness_path.write_text("not json")
    assert main(["check", path, str(witness_path)]) == 3
    assert "error" in capsys.readouterr().err

    witness_path.write_text(json.dumps(["1", "2"]))
    assert main(["check", path, str(witness_path)]) == 3
    assert "witness JSON must be an object mapping variables" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        "abc",
        {"p": 0, "terms": [[]]},
        {"p": 2, "terms": [["1", "z"]]},
        {"p": 2, "terms": 5},
        {"p": 2, "terms": [["1/0", 1]]},
        {"p": 3, "terms": [["1", 1.5]]},
        {"p": 0, "terms": [[1.5, 0]]},
        5,
        {"p": 0, "terms": [["1", 0], ["2", 0]]},
        {"p": 0, "terms": [["1", 1]]},
        {"p": 3.0, "terms": [["1", 0]]},
    ],
)
def test_check_reports_malformed_coordinate(tmp_path, capsys, entry):
    path = write(tmp_path, "sat.txt", SAT_GEQ)
    witness_path = tmp_path / "bad.json"
    witness_path.write_text(json.dumps({"x": entry, "y": "1"}))
    assert main(["check", path, str(witness_path)]) == 3
    err = capsys.readouterr().err
    assert "'x'" in err
    assert "internal failure" not in err


def test_check_refuses_a_float_prime_after_the_int_one_is_checked(tmp_path, capsys):
    # 2.0 == 2, so the checked-prime cache alone would pass the float prime,
    # and the checker would divide by 2.0 ** v in floating point; x - y is -4
    path = write(tmp_path, "eq.txt", "vars x y\neq 1 x - 1 y = 0\nval 2 : v(x) >= 0\n")
    witness_path = tmp_path / "float.json"
    witness_path.write_text(json.dumps({
        "x": {"p": 2.0, "terms": [["2305843009213693954", 0]]},
        "y": {"p": 2.0, "terms": [["1152921504606846979", 1]]},
    }))
    assert main(["check", path, str(witness_path)]) == 3
    out, err = capsys.readouterr()
    assert "valid" not in out
    assert "is malformed" in err


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"vars x\neq 1 x = \xff\n")
    for command in ("solve", "classify", "oracle"):
        assert main([command, str(bad)]) == 3
        err = capsys.readouterr().err
        assert f"cannot read {bad}: not UTF-8" in err
        assert "internal failure" not in err and "Traceback" not in err
    path = write(tmp_path, "sat.txt", SAT_GEQ)
    assert main(["check", path, str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"cannot read {bad}: not UTF-8" in err
    assert "internal failure" not in err


def test_solve_json_has_no_bare_infinity(capsys, monkeypatch):
    text = "vars x y\neq 1 x + 1 y = 2\nval 3 : v(x) <= 1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["solve", "-", "--json", "--witness"]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["diagnostics"]["thresholds"] == [2, "inf"]


def test_classify_output(tmp_path, capsys):
    path = write(
        tmp_path,
        "mixed.txt",
        "vars x y\nval 2 : v(x) >= 0\nval 3 : v(y) <= 1\nval 3 : v(y) >= 0\n"
        "ord 1 x < 1\n",
    )
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "2:GEQ,3:HARD,ord"
    assert "p = 2: GEQ (in P)" in out
    assert "p = 3: HARD (NP-complete fragment)" in out
    assert "order constraints" in out


def test_gen_output_parses_and_is_deterministic(capsys):
    assert main(["gen", "--seed", "7", "--vars", "3", "--eqs", "2", "--orders", "1"]) == 0
    first = capsys.readouterr().out
    inst = parse_instance(first)
    assert len(inst.variables) == 3
    assert len(inst.equations) == 2
    assert len(inst.orders) == 1
    assert main(["gen", "--seed", "7", "--vars", "3", "--eqs", "2", "--orders", "1"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "options",
    [
        ["--primes", "2,x"],
        ["--primes", ""],
        ["--primes", "4"],
        ["--vars", "0"],
        ["--eqs", "-2", "--cover"],
        ["--eqs", "-1"],
        ["--orders", "-1"],
        ["--coeff-mag", "-1"],
        ["--bound-mag", "-1"],
        ["--coeff-mag", "0", "--cover"],
    ],
)
def test_gen_rejects_bad_options(capsys, options):
    assert main(["gen", *options]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_oracle_agrees_with_solver(tmp_path, capsys):
    for seed in range(12):
        p = main(["gen", "--seed", str(seed), "--fragment", "geq", "--primes", "3"])
        assert p == 0
        text = capsys.readouterr().out
        path = write(tmp_path, f"g{seed}.txt", text)
        solver_code = main(["solve", path])
        capsys.readouterr()
        oracle_code = main(["oracle", path])
        capsys.readouterr()
        assert solver_code in (0, 1)
        assert oracle_code == solver_code, text


def test_oracle_rejects_other_fragments(tmp_path, capsys):
    # (file, exit code, what stderr says, or stdout for an answer)
    table = [
        ("vars x\nval 3 : v(x) <= 1\n", 3, "lower-bound"),
        ("vars x\nval 3 : v(x) >= 0\nord 1 x <= 1\n", 3, "not orders"),
        ("vars x y\nval 3 : v(x) >= 0\nval 5 : v(y) >= 0\n", 3, "exactly one prime"),
        ("vars x\nval 2 : v(x) == 1\n", 3, "exact valuation pins"),
        # normalization refutes it before a fragment is asked for
        ("vars x\nval 3 : v(x) >= 2\nval 3 : v(x) <= 1\n", 1, "unsat"),
    ]
    for text, code, message in table:
        assert main(["oracle", write(tmp_path, "case.txt", text)]) == code, text
        out, err = capsys.readouterr()
        assert message in (err if code == 3 else out.strip()), (text, out, err)


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 3
    capsys.readouterr()
    assert main(["frobnicate"]) == 3
    capsys.readouterr()
    assert main(["solve", "--no-such-flag"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: padicsat")
    assert "padicsat: error: unrecognized arguments: --no-such-flag" in err
    assert main(["solve", write(tmp_path, "sat.txt", SAT_GEQ), "--guard", "x"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: padicsat solve")
    assert "error: argument --guard: invalid int value: 'x'" in err
    assert main(["solve", "--threads", "2", write(tmp_path, "sat.txt", SAT_GEQ)]) == 3
    capsys.readouterr()
    assert main(["solve", "--window", "-10", write(tmp_path, "sat.txt", SAT_GEQ)]) == 3
    capsys.readouterr()
    assert main(["solve", str(tmp_path / "missing.txt")]) == 3
    assert "cannot read" in capsys.readouterr().err
    assert main(["-h"]) == 0
    assert "solve" in capsys.readouterr().out


def test_parse_error_reports_position(tmp_path, capsys):
    path = write(tmp_path, "broken.txt", "vars x\neq 1 q = 0\n")
    assert main(["solve", path]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "line 2" in err


def test_composite_modulus_is_an_input_error(tmp_path, capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes
    # Miller-Rabin to every prime base up to 37
    text = "vars x\neq 1 x = 1\nval 318665857834031151167461 : v(x) >= 1\n"
    assert main(["solve", write(tmp_path, "psi12.txt", text)]) == 3
    err = capsys.readouterr().err
    assert "line 3" in err and "is not prime" in err


def test_guard_must_be_a_positive_integer(tmp_path, capsys):
    # a guard below 1 is an input error (3), never "invalid witness" (1):
    # checking the order row needs x materialized, which no such guard allows
    path = write(tmp_path, "ord.txt", "vars x\nord 1 x <= 2\n")
    witness = write(tmp_path, "w.json", '{"x": {"p": 3, "terms": [["1", 0]]}}')
    assert main(["check", path, witness]) == 0
    assert main(["check", path, witness, "--guard", "1"]) == 0
    for guard in ("0", "-1"):
        capsys.readouterr()
        assert main(["solve", path, "--guard", guard]) == 3
        assert main(["check", path, witness, "--guard", guard]) == 3
        err = capsys.readouterr().err
        assert err.count(f"--guard must be a positive integer, got {guard}") == 2


def test_multi_prime_decision_only(tmp_path, capsys):
    text = (
        "vars x y\n"
        "eq 1 x + 1 y = 3\n"
        "val 2 : v(x) >= 0\n"
        "val 3 : v(y) >= 0\n"
        "ord 1 x <= 2\n"
    )
    path = write(tmp_path, "multi.txt", text)
    assert main(["solve", path, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "decision only" in out
    assert main(["solve", path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "sat"
    assert payload["witness"] is None
    assert payload["fragment"] == "2:GEQ,3:GEQ,ord"


def test_witness_print_verifies(tmp_path, capsys):
    # the human-readable witness agrees with what the checker accepts
    path = write(tmp_path, "sat.txt", SAT_GEQ)
    assert main(["solve", path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from padicsat.cli import _witness_from_json

    witness = _witness_from_json(json.dumps(payload["witness"]))
    assert verify_witness(parse_instance(SAT_GEQ), witness)


def test_constraint_free_witness_prints_every_variable(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("vars x y\n"))
    assert main(["solve", "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sat"
    assert "x = 0" in out and "y = 0" in out
    monkeypatch.setattr("sys.stdin", io.StringIO("vars x y\n"))
    assert main(["solve", "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["witness"]) == {"x", "y"}
