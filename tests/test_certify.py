"""The evidence checkers' boundary: certify imports only the rational core,
the errors and the model, and no solver module reaches testkit.  Also
certificates that check_certificate must reject."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import padicsat
from padicsat.certify import check_certificate

PACKAGE = Path(padicsat.__file__).parent
SOLVER_MODULES = ("complete", "solver_geq", "solver_leq", "simplex", "dispatch", "combiner")


def _imports(module: str) -> set[str]:
    """The package modules a module imports, at its top or inside a function."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("padicsat.")}
        elif isinstance(node, ast.ImportFrom):
            path = node.module or ""
            if node.level == 0:
                if path.split(".")[0] != "padicsat":
                    continue
                path = path.removeprefix("padicsat").lstrip(".")
            elif node.level > 1:
                continue
            if path:
                out.add(path.split(".")[0])
            else:  # from . import x
                out |= {a.name for a in node.names}
    return out


def _reached(module: str) -> set[str]:
    """module and every package module it imports, transitively."""
    seen, frontier = {module}, [module]
    while frontier:
        for dep in _imports(frontier.pop()) - seen:
            seen.add(dep)
            frontier.append(dep)
    return seen


def test_certify_imports_only_the_rational_core():
    assert _reached("certify") <= {"certify", "rational", "errors", "model"}


def test_no_solver_module_reaches_testkit():
    assert padicsat.solve_combined.__module__ == "padicsat.combiner"
    # the walk follows imports inside functions: dispatch loads complete lazily
    assert {"dispatch", "complete", "simplex", "certify"} <= _reached("combiner")
    for module in (*SOLVER_MODULES, "__init__"):
        assert "testkit" not in _reached(module), module


def test_importing_the_package_leaves_testkit_unloaded():
    code = "import sys, padicsat; print('padicsat.testkit' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_a_certificate_of_positive_value_refutes_nothing():
    # the strict rows x < 1 and -x < 0, which 0 < x < 1 satisfies, combine
    # with both multipliers 1 to 0 < 1: value 1 is not <= 0
    F = Fraction
    ok, why = check_certificate([], [], [], [], [[1], [-1]], [1, 0], (), (), (F(1), F(1)))
    assert not ok and why == "value 1 refutes nothing"


def test_a_certificate_with_one_block_of_the_wrong_length_is_rejected():
    # x = 1 and -x <= -2 add up to 0 = -1 (lam = mu = 1), x < 5 is not
    # engaged (nu = 0); one multiplier too many, in any one block, is rejected
    F = Fraction
    blocks = ([[1]], [1], [[-1]], [-2], [[1]], [5])
    lam, mu, nu = (F(1),), (F(1),), (F(0),)
    assert check_certificate(*blocks, lam, mu, nu)[0]
    for wrong in ((*lam, F(0)), mu, nu), (lam, (*mu, F(0)), nu), (lam, mu, (*nu, F(0))):
        ok, why = check_certificate(*blocks, *wrong)
        assert not ok and why == "multiplier lengths do not match the blocks", wrong
