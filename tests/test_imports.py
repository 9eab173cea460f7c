"""Every module-level import in src/confhom, in the tests and in the
benchmark scripts is used: a name bound by an import must be read somewhere
in its module, or re-exported via __all__.  The files are only parsed."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "confhom"
BENCH = TESTS.parent / "perfbench"


def unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", (sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
             + sorted(BENCH.glob("*.py"))),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(b)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "d")]
