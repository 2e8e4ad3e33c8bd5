"""No module under src/, tests/ or demos/ imports a name it never reads.

No linter runs on this repository, so this walk is the guard: it parses each
file with ast and compares the names its imports bind, at the top or inside
a function, with the names the file reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)
# bindings kept for lookups by module path: perfbench's tracer wraps
# testkit.verify_witness and simplex.check_certificate under those names
KEPT = {
    ("src/padicsat/testkit.py", "verify_witness"),
    ("src/padicsat/simplex.py", "check_certificate"),
}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the source never reads; the
    names a module lists in __all__ count as read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = (
        "import os, sys\nfrom math import gcd as g, lcm\nimport a.b\n"
        "def f():\n    from x import y\n    return sys.argv, g, a.b\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "lcm"), (5, "y")]
    assert unused_imports("from m import x\n__all__ = ['x']\n") == []


def test_no_unused_imports():
    assert len(SOURCES) > 30
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in SOURCES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.relative_to(ROOT).as_posix(), name) not in KEPT
    ]
    assert found == []
