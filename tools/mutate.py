"""Mutation testing of the search's propagation, its relaxation and the
pivot-bound check.

Each mutant changes one operator or literal inside one site function: it
swaps < and <=, > and >=, == and !=, + and -, `and` and `or`, drops a
`not`, or flips an int literal 0 or 1.  The mutated function replaces the
original in a copy of src/, and the tests below run against that copy; a
mutant is killed when they fail or time out, and live when they pass.  Run
from anywhere, with pytest installed:

    python tools/mutate.py           # run every mutant, one verdict line each
    python tools/mutate.py --list    # list the mutants, run none

--list exits nonzero when a site is missing, so a renamed site is noticed.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SITES = ["complete._propagate", "complete._reprice", "complete._relaxation",
         "solver_geq.pivot_shortfall"]
TESTS = ["tests/test_complete.py", "tests/test_properties.py"]
TIMEOUT = 900  # seconds per test run; a mutant that hangs counts as killed
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}


def site_function(tree: ast.Module, site: str) -> ast.FunctionDef:
    name = site.split(".")[1]
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    sys.exit(f"mutation site {site} not found")


def points(func: ast.FunctionDef):
    """Each mutation point of func as (line, label, apply), in walk order;
    apply() makes the change in place."""
    parents = {id(child): node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]()
                    yield node.lineno, f"{SYMBOLS[type(op)]} -> {SYMBOLS[type(new)]}", \
                        lambda ops=node.ops, k=k, new=new: ops.__setitem__(k, new)
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]()
            yield node.lineno, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[type(new)]}", \
                lambda node=node, new=new: setattr(node, "op", new)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.lineno, "drop not", lambda node=node: replace(parents[id(node)], node)
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1):
            yield node.lineno, f"{node.value} -> {1 - node.value}", \
                lambda node=node: setattr(node, "value", 1 - node.value)


def replace(parent: ast.AST, node: ast.UnaryOp) -> None:
    """Put node's operand where node is in parent."""
    for name, value in ast.iter_fields(parent):
        if value is node:
            setattr(parent, name, node.operand)
        elif isinstance(value, list) and node in value:
            value[value.index(node)] = node.operand


def mutants():
    """(site, line, label, module file name, mutated module source) per mutant."""
    for site in SITES:
        path = ROOT / "src" / "padicsat" / f"{site.split('.')[0]}.py"
        source = path.read_text()
        for k in range(len(list(points(site_function(ast.parse(source), site))))):
            func = site_function(ast.parse(source), site)
            line, label, apply = sorted(points(func), key=lambda point: point[0])[k]
            apply()
            lines = source.splitlines(keepends=True)
            mutated = lines[:func.lineno - 1] + [ast.unparse(func) + "\n"] + lines[func.end_lineno:]
            yield site, line, label, path.name, "".join(mutated)


def tests_pass(src: Path) -> bool:
    # no bytecode cache: a .pyc is checked only against its source's mtime in
    # whole seconds and its size, so two mutants of one length written within
    # a second would otherwise run the first one's bytecode
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true", help="list the mutants, run none")
    if parser.parse_args().list:
        for site, line, label, _, _ in mutants():
            print(f"{site} line {line}: {label}")
        return
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not tests_pass(src):
            sys.exit("the tests fail without a mutant")
        for site, line, label, name, mutated in mutants():
            target = src / "padicsat" / name
            original = target.read_text()
            target.write_text(mutated)
            verdict = "live" if tests_pass(src) else "killed"
            target.write_text(original)
            print(f"{verdict:6} {site} line {line}: {label}", flush=True)


if __name__ == "__main__":
    main()
