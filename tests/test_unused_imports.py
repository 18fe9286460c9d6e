"""Every name a ``periodica`` module or a test file imports is used there.

``__init__.py`` is left out: it imports names to re-export them.  The check
reads each file's syntax tree (stdlib ``ast``): a name bound by an import
must occur as a name somewhere in the file.

The orphan checks read the same trees: every private helper of ``periodica``
is mentioned outside its own definition, and so is every public function,
class and method, somewhere in ``src/``, ``tests/`` or ``perfbench/``.

The surface check is stricter: tests do not count.  Every public function,
class and method is mentioned in ``src/`` or ``perfbench/`` or named in
README's "Library sketch", and every name ``periodica`` exports is
mentioned by the command-line modules or ``perfbench/`` or named there.
A construction only the tests use belongs in ``tests/oracles.py``.
"""

import ast
import glob
import os
import re

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "periodica")
MODULES = sorted(os.path.basename(p)
                 for p in glob.glob(os.path.join(SRC, "*.py"))
                 if not p.endswith("__init__.py"))
TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(TESTS, "..")
TEST_FILES = sorted(os.path.basename(p)
                    for p in glob.glob(os.path.join(TESTS, "*.py")))


def _unused_imports(source: str) -> list:
    """The names bound by imports in ``source`` that no expression uses,
    with the line of their import."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_check_sees_unused_and_used_imports():
    src = ("import os, os.path as osp\n"
           "from typing import Dict, List\n"
           "def f(x: List[int]):\n"
           "    import json\n"
           "    return os.sep\n")
    assert _unused_imports(src) == [(1, "osp"), (2, "Dict"), (4, "json")]


def test_every_module_is_checked():
    assert {"linalg.py", "rep.py", "percomplex.py", "derivedper.py",
            "formats.py", "randomcx.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), "r", encoding="utf-8") as fh:
        assert _unused_imports(fh.read()) == []


def test_every_test_file_is_checked():
    assert {"conftest.py", "oracles.py", "test_acceptance.py",
            "test_unused_imports.py"} <= set(TEST_FILES)


@pytest.mark.parametrize("test_file", TEST_FILES)
def test_no_unused_imports_in_tests(test_file):
    with open(os.path.join(TESTS, test_file), "r", encoding="utf-8") as fh:
        assert _unused_imports(fh.read()) == []


# -- orphaned definitions ------------------------------------------------------


def _defs(tree: ast.Module, private: bool) -> list:
    """The top-level functions and classes of a module and the methods of
    its top-level classes, either the private ones (``_name``, not
    ``__name__``) or the public ones."""
    out = []
    for node in tree.body:
        scope = [node]
        if isinstance(node, ast.ClassDef):
            scope += node.body
        out += [d for d in scope
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                and not d.name.endswith("__")
                and d.name.startswith("_") == private]
    return out


def _private_defs(file: str, tree: ast.Module) -> list:
    return _defs(tree, True)


def _public_src_defs(file: str, tree: ast.Module) -> list:
    return _defs(tree, False) if file.startswith("src/") else []


def _mentions(tree: ast.Module, strings: bool) -> list:
    """(line, name) of each name and attribute in ``tree`` and, with
    ``strings``, of each word of a string that is not a docstring."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.append((n.lineno, n.id))
        elif isinstance(n, ast.Attribute):
            out.append((n.lineno, n.attr))
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str) and id(n) not in docs):
            out += [(n.lineno, w) for w in re.findall(r"\w+", n.value)]
    return out


def _orphans(sources: dict, defs, strings: bool = False) -> list:
    """(file, line, name) of each definition ``defs(file, tree)`` picks in
    ``sources`` (file name -> text) that no name or attribute outside its
    own definition mentions, in any of the files; with ``strings`` a word of
    a string that is not a docstring counts as a mention too."""
    trees = {f: ast.parse(text) for f, text in sources.items()}
    uses = [(f, line, name) for f, tree in trees.items()
            for line, name in _mentions(tree, strings)]
    return sorted(
        (f, d.lineno, d.name) for f, tree in trees.items()
        for d in defs(f, tree)
        if not any(name == d.name and not (uf == f and d.lineno <= line
                                           <= d.end_lineno)
                   for uf, line, name in uses))


def test_the_orphan_check_sees_unused_and_used_helpers():
    a = ("def _used(): pass\n"
         "def _unused(): pass\n"
         "def _only_itself(n): return _only_itself(n - 1)\n"
         "class _K:\n"
         "    def _m(self): pass\n"
         "    def _called(self): pass\n"
         "    def __init__(self): self._called()\n"
         "def f(): return _used(), _K()\n")
    b = "from c import _elsewhere\nx = _elsewhere()\n"
    c = "def _elsewhere(): pass\n"
    assert _orphans({"a.py": a, "b.py": b, "c.py": c}, _private_defs) == [
        ("a.py", 2, "_unused"), ("a.py", 3, "_only_itself"), ("a.py", 5, "_m")]


def test_no_orphaned_private_helpers():
    sources = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "r", encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert _orphans(sources, _private_defs) == []


def test_the_orphan_check_sees_unused_and_used_public_names():
    a = ("def used(): pass\n"
         "def unused(): pass\n"
         "def only_itself(n): return only_itself(n - 1)\n"
         "def documented(): pass\n"
         "class K:\n"
         "    \"\"\"Not a use of documented.\"\"\"\n"
         "    def m(self): pass\n"
         "    def named(self): pass\n"
         "    def __init__(self): pass\n"
         "x = used(), K()\n")
    b = "NAMES = ['a.K.named']\ndef helper(): pass\n"
    assert _orphans({"src/a.py": a, "tests/b.py": b}, _public_src_defs,
                    strings=True) == [
        ("src/a.py", 2, "unused"), ("src/a.py", 3, "only_itself"),
        ("src/a.py", 4, "documented"), ("src/a.py", 7, "m")]


def _read(*patterns: str) -> dict:
    """File name relative to the repository root -> text, for each file
    that matches one of ``patterns``."""
    sources = {}
    for pattern in patterns:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, "r", encoding="utf-8") as fh:
                sources[os.path.relpath(path, ROOT)] = fh.read()
    return sources


def test_no_orphaned_public_names():
    # a name in a string counts: perfbench's tracer wraps methods by name
    sources = _read("src/periodica/*.py", "tests/*.py", "perfbench/*.py")
    assert any(f.startswith("perfbench/") for f in sources)
    assert _orphans(sources, _public_src_defs, strings=True) == []


# -- the public surface ------------------------------------------------------------

CLI_MODULES = ("cli.py", "reproduce.py", "formats.py", "reports.py")


def _sketch_names(readme: str) -> set:
    """The words of the code spans in README's "Library sketch" section."""
    sketch = readme.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    return {w for span in re.findall(r"`([^`]+)`", sketch)
            for w in re.findall(r"\w+", span)}


def _surface_gaps(sources: dict, readme: str) -> list:
    """The public names of ``sources`` (``src/`` and ``perfbench/`` files)
    that nothing outside the tests reaches: (file, line, name) of each
    public definition that no ``src/`` or ``perfbench/`` file mentions
    (strings count), then ("export", 0, name) of each name
    ``src/periodica/__init__.py`` imports that neither a command-line module
    nor a ``perfbench/`` file mentions; a name in the Library sketch counts
    as reached."""
    named = _sketch_names(readme)
    gaps = [o for o in _orphans(sources, _public_src_defs, strings=True)
            if o[2] not in named]
    init = ast.parse(sources["src/periodica/__init__.py"])
    exports = [a.asname or a.name for node in init.body
               if isinstance(node, ast.ImportFrom) for a in node.names]
    used = {name for f, text in sources.items()
            if f.startswith("perfbench/") or os.path.basename(f) in CLI_MODULES
            for _, name in _mentions(ast.parse(text), strings=True)}
    return gaps + [("export", 0, e) for e in exports
                   if e not in used and e not in named]


def test_the_surface_check_sees_unreached_names():
    init = ("from .rep import Rep, named, unused\n"
            "from .cli import main\n")
    rep = ("class Rep:\n"
           "    def only_tested(self): pass\n"
           "def named(): pass\n"
           "def unused(): pass\n"
           "def helper(): pass\n")
    cli = "from .rep import Rep, helper\ndef main(): return Rep, helper()\n"
    readme = ("# x\n\n## Library sketch\n\n| `rep` | `named()` |\n\n"
              "## Later\n\n`unused` `only_tested`\n")
    sources = {"src/periodica/__init__.py": init, "src/periodica/rep.py": rep,
               "src/periodica/cli.py": cli,
               "perfbench/run.py": "from periodica.cli import main\nmain()\n"}
    assert _surface_gaps(sources, readme) == [
        ("src/periodica/rep.py", 2, "only_tested"),
        ("src/periodica/rep.py", 4, "unused"), ("export", 0, "unused")]


def test_public_surface_is_reached_outside_the_tests():
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        readme = fh.read()
    sources = _read("src/periodica/*.py", "perfbench/*.py")
    assert {"src/periodica/__init__.py", "src/periodica/cli.py",
            "perfbench/workloads.py"} <= set(sources)
    assert _surface_gaps(sources, readme) == []
