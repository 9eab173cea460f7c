"""Every import in src/confhom, in the tests and in the benchmark scripts
is used: a name bound by a module-level import must be read somewhere in
its module, or re-exported via __all__, and one bound inside a function
must be read in that function.  Every module-level private function,
class and assigned name of src/confhom is named outside its own
definition, by its module or by another of these files.  No module but
swiatkowski.py reads the digit layout of a half-edge key, and none but
abrams.py the item layout of a cube key.  The files are only parsed."""

import ast
import functools
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "confhom"
BENCH = TESTS.parent / "perfbench"
FILES = (sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
         + sorted(BENCH.glob("*.py")))


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(scope):
    """Import statements of a module or function, outside nested functions
    and classes."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(tree):
    """(line, name) of each name an import binds that its scope never
    reads: the whole module for a module-level import, the function for an
    import inside a function."""
    out = []
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, SCOPES)]:
        bound = {}
        for node in _imports(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
            elif node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in scope.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__"
                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        out += [(line, name) for name, line in bound.items()
                if name not in used]
    return sorted(out)


@pytest.mark.parametrize(
    "path", FILES,
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(b)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "d")]


def test_the_scan_finds_an_unused_import_in_a_function():
    tree = ast.parse("import os\n"
                     "def f():\n"
                     "    from a import b, c\n"
                     "    if os:\n"
                     "        import sys\n"
                     "    def g():\n"
                     "        import re\n"
                     "        return b\n")
    assert unused_imports(tree) == [(3, "c"), (5, "sys"), (7, "re")]


def names(node):
    """Identifiers a tree names: variables, attributes and string constants,
    which getattr and monkeypatch use."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _defined(node):
    """Names a module-level statement defines: a function's or a class's,
    or the plain names an assignment binds."""
    if isinstance(node, SCOPES + (ast.ClassDef,)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def unnamed_private_names(tree, elsewhere):
    """Module-level private functions, classes and assigned names of `tree`
    named neither in `elsewhere` nor in their module outside the statement
    that defines them."""
    tops = [(node, names(node)) for node in tree.body]
    out = []
    for top, _ in tops:
        for name in _defined(top):
            if (name.startswith("_") and not name.startswith("__")
                    and name not in set(elsewhere).union(
                        *(ns for node, ns in tops if node is not top))):
                out.append(name)
    return out


@functools.lru_cache(maxsize=None)
def _names_in(path):
    return frozenset(names(ast.parse(path.read_text())))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_private_function_is_named(path):
    elsewhere = set().union(*(_names_in(p) for p in FILES if p != path))
    assert unnamed_private_names(ast.parse(path.read_text()),
                                 elsewhere) == []


def test_the_scan_finds_an_unnamed_private_function():
    tree = ast.parse("def _a():\n    return _a()\n"
                     "def _b(): pass\ndef _c(): pass\ndef __d__(): pass\n"
                     "x = _b\n")
    assert unnamed_private_names(tree, {"_c"}) == ["_a"]


def test_the_scan_finds_an_unnamed_private_class_and_assignment():
    tree = ast.parse("class _A(dict):\n    def f(self):\n        return _A\n"
                     "class _B: pass\nclass _C: pass\n"
                     "_X = _Y = 1\n_Z: int = 2\n_P, (_Q, r) = 1, (2, 3)\n"
                     "__all__ = ['_Y']\n_X += 1\ny = _B\n")
    assert unnamed_private_names(tree, {"_C", "_P"}) == ["_A", "_Z", "_Q"]


# the digit layout of a half-edge key, which only `SwEncoding` reads:
# every other module goes through `decode`, `encode` and `part`
CELL_FORMAT = frozenset({"state_tables", "splace"})
# the item layout of a cube key, which only `AbramsEncoding` reads: every
# other module goes through `encode_part`, `occupancy` and `items`
CUBE_FORMAT = frozenset({"vsets", "edge_ends", "edge_items", "nv"})


def cell_format_reads(tree):
    """(line, attribute) of each attribute of the half-edge cell format a
    tree names."""
    return sorted((n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in CELL_FORMAT)


def cube_format_reads(tree):
    """(line, attribute) of each attribute of the cube item layout a tree
    names."""
    return sorted((n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in CUBE_FORMAT)


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "swiatkowski.py"],
    ids=lambda p: p.name)
def test_only_the_encoding_reads_the_cell_format(path):
    assert cell_format_reads(ast.parse(path.read_text())) == []


def test_the_scan_finds_a_read_of_the_cell_format():
    tree = ast.parse("s = enc.state_tables[i][c]\n"
                     "e = enc.eplace\n"
                     "def f(enc):\n"
                     "    return enc.splace[0] + state_tables\n")
    assert cell_format_reads(tree) == [(1, "state_tables"), (4, "splace")]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "abrams.py"],
    ids=lambda p: p.name)
def test_only_the_cube_encoding_reads_the_cube_format(path):
    assert cube_format_reads(ast.parse(path.read_text())) == []


def test_the_scan_finds_a_read_of_the_cube_format():
    tree = ast.parse("b = enc.vsets[k] | enc.edge_ends[j][0]\n"
                     "nv = enc.n_items - len(edge_items)\n"
                     "def f(enc):\n"
                     "    return enc.edge_items[enc.nv]\n")
    assert cube_format_reads(tree) == [
        (1, "edge_ends"), (1, "vsets"), (4, "edge_items"), (4, "nv")]
