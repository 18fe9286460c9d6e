"""The span names perfbench's per-layer metrics read must exist in periodica.

``perfbench/tracer.py`` looks its spans up by dotted name and reports 0 for a
name it never wrapped, so deleting or renaming a traced function would zero a
metric without any error.  This test resolves each name instead.
"""

import importlib
import os
import re

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                      "tracer.py")


def _traced_names():
    with open(TRACER, "r", encoding="utf-8") as fh:
        text = fh.read()
    return sorted(set(re.findall(r'\b(?:total|calls|self_s)\("([\w.]+)"\)',
                                 text)))


def test_tracer_reads_some_names():
    names = _traced_names()
    assert "rep.minimal_resolution" in names
    assert "hochschild.bimodule_resolution" in names
    assert "stablecat.algebra_period" in names


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module, *attrs = name.split(".")
    if name.startswith("linalg.kernel."):
        # the elimination kernels are wrapped on linalg's backend module
        module, attrs = "_kernels_py", attrs[1:]
    obj = importlib.import_module(f"periodica.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
