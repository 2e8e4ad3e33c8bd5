"""The evidence checkers' boundary: certify imports only the rational core,
the errors and the model, and no solver module reaches testkit."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import padicsat

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
