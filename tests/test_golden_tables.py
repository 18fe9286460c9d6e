"""The golden reports are pinned in two tables that must not drift apart.

``tests/test_formats_cli.py`` checks each report in ``tests/golden/`` against
its command line, and ``perfbench/workloads.py`` replays the same command
lines as benchmark jobs from its own copy of the table.  A golden that no
test names would be checked by nothing.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _golden_cases(path):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GOLDEN_CASES"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no GOLDEN_CASES table in {path}")


def test_perfbench_replays_the_tested_goldens():
    tests = _golden_cases(os.path.join(ROOT, "tests", "test_formats_cli.py"))
    bench = _golden_cases(os.path.join(ROOT, "perfbench", "workloads.py"))
    assert tests and bench == tests


def test_every_golden_is_named_by_a_test():
    text = ""
    for path in glob.glob(os.path.join(ROOT, "tests", "*.py")):
        with open(path, "r", encoding="utf-8") as fh:
            text += fh.read()
    goldens = sorted(os.listdir(os.path.join(ROOT, "tests", "golden")))
    assert goldens
    assert [g for g in goldens if g not in text] == []
