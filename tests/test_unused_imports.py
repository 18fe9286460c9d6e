"""Every name a ``periodica`` module imports is used in that module.

``__init__.py`` is left out: it imports names to re-export them.  The check
reads each module's syntax tree (stdlib ``ast``): a name bound by an import
must occur as a name somewhere in the module.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "periodica")
MODULES = sorted(os.path.basename(p)
                 for p in glob.glob(os.path.join(SRC, "*.py"))
                 if not p.endswith("__init__.py"))


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


# -- orphaned private helpers ---------------------------------------------------


def _private_defs(tree: ast.Module) -> list:
    """The private top-level functions and classes of a module and the
    private methods of its top-level classes (``_name``, not ``__name__``)."""
    out = []
    for node in tree.body:
        scope = [node]
        if isinstance(node, ast.ClassDef):
            scope += node.body
        out += [d for d in scope
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                and d.name.startswith("_") and not d.name.endswith("__")]
    return out


def _orphans(sources: dict) -> list:
    """(file, line, name) of each private definition in ``sources`` (file
    name -> text) that no name or attribute outside its own definition
    mentions, in any of the files."""
    trees = {f: ast.parse(text) for f, text in sources.items()}
    uses = [(f, n.lineno, n.id if isinstance(n, ast.Name) else n.attr)
            for f, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]
    return sorted(
        (f, d.lineno, d.name) for f, tree in trees.items()
        for d in _private_defs(tree)
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
    assert _orphans({"a.py": a, "b.py": b, "c.py": c}) == [
        ("a.py", 2, "_unused"), ("a.py", 3, "_only_itself"), ("a.py", 5, "_m")]


def test_no_orphaned_private_helpers():
    sources = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "r", encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    assert _orphans(sources) == []
