"""No nested function in ``periodica`` refers to its own name.

A nested function that calls itself (a memoised recursion, say) holds its
own closure cell, and the cell holds the function: a reference cycle.  It
keeps everything the closure reaches (modules, their algebras) alive until
the cyclic collector runs, instead of freeing it when the call returns.
The check reads each module's syntax tree (stdlib ``ast``), like the
import and orphan checks in ``test_unused_imports.py``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "periodica")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _self_referring(source: str) -> list:
    """(line, dotted name) of each function nested directly in a function
    whose body mentions the function's own name."""
    out = []

    def visit(node, path, in_function):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, SCOPES):
                visit(child, path, in_function)
                continue
            name = path + [child.name]
            is_function = not isinstance(child, ast.ClassDef)
            if is_function and in_function and any(
                    isinstance(n, ast.Name) and n.id == child.name
                    for stmt in child.body for n in ast.walk(stmt)):
                out.append((child.lineno, ".".join(name)))
            visit(child, name, is_function)

    visit(ast.parse(source), [], False)
    return out


def test_the_check_sees_nested_functions_that_name_themselves():
    src = ("def outer():\n"
           "    def walk(n):\n"
           "        return walk(n - 1) if n else 0\n"
           "    def fine(n):\n"
           "        return n\n"
           "    return walk(3) + fine(2)\n"
           "def top(n):\n"
           "    return top(n - 1) if n else 0\n"
           "class K:\n"
           "    def m(self):\n"
           "        def inner():\n"
           "            def deeper():\n"
           "                return deeper, inner\n"
           "            return deeper\n"
           "        class L:\n"
           "            def method(self):\n"
           "                return method\n"
           "        return inner, L\n")
    assert _self_referring(src) == [
        (2, "outer.walk"), (11, "K.m.inner"), (12, "K.m.inner.deeper")]


def test_no_nested_function_names_itself():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "r", encoding="utf-8") as fh:
            found += [(os.path.basename(path), line, name)
                      for line, name in _self_referring(fh.read())]
    assert found == []
