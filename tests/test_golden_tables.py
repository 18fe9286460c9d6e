"""The CLI goldens are listed once, in ``tests/golden/manifest.json``.

The manifest maps each golden's file name to its argv, with sample paths
relative to the repository root.  ``tests/test_formats_cli.py`` runs every
entry in process and ``tests/check_installed.py`` (CI) runs every entry
through the installed console script; both compare byte for byte.
``perfbench/workloads.py`` replays six entries as benchmark jobs from its
own copy, ``GOLDEN_CASES``, which must agree with the manifest.  Every other
file under ``tests/golden/`` is opened by a named reader, so no golden is
checked by nothing.
"""

import ast
import json
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
# the goldens that are no CLI report, and the test file that opens each
READERS = {
    "closure_grid.json": "test_stablecat.py",
    "closure_n4_fp4294967311.json": "test_stablecat.py",
    "closure_n5_fp2_seed5.json": "test_stablecat.py",
}


def _manifest():
    with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


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
    bench = _golden_cases(os.path.join(ROOT, "perfbench", "workloads.py"))
    manifest = _manifest()
    assert bench
    assert {name: manifest.get(name) for name in bench} == bench


def test_every_manifest_entry_has_its_file():
    missing = [name for name in sorted(_manifest())
               if not os.path.isfile(os.path.join(GOLDEN, name))]
    assert missing == []


def test_every_golden_is_named_by_a_test():
    others = set(os.listdir(GOLDEN)) - set(_manifest()) - {"manifest.json"}
    assert sorted(others) == sorted(READERS)
    for name, reader in READERS.items():
        with open(os.path.join(ROOT, "tests", reader), encoding="utf-8") as fh:
            assert f'"{name}"' in fh.read(), (name, reader)
