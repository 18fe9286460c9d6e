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
