"""The benchmark's workloads still build and pass against the library.

Builds the three workloads of ``perfbench/workloads.py`` at seed 0 and runs
one job of each kind, so an API change that breaks the benchmark (a return
shape, a renamed function) fails here rather than only in a benchmark run.
"""

import importlib.util
import os
import time

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _kind(name: str, job_id: str) -> str:
    """derived_q: the id's first word; stable_fp: the field and whether the
    job is a tilting closure; envelope_q: a single kind."""
    if name == "derived_q":
        return job_id.split()[0]
    if name == "stable_fp":
        return job_id.split()[0] + (" closure" if "closure" in job_id
                                    else " module")
    return "period"


def _first_of_each_kind(name: str):
    jobs = _workloads()[name](0, ROOT)
    picked = {}
    for job_id, fn in jobs:
        picked.setdefault(_kind(name, job_id), (job_id, fn))
    return list(picked.values())


@pytest.mark.parametrize("name", ["envelope_q", "stable_fp", "derived_q"])
def test_one_job_of_each_kind_passes_quickly(name):
    picked = _first_of_each_kind(name)
    assert len(picked) == {"envelope_q": 1, "stable_fp": 4,
                           "derived_q": 7}[name]
    for job_id, fn in picked:
        start = time.perf_counter()
        assert fn() is True, job_id
        assert time.perf_counter() - start < 2.0, job_id
