#!/usr/bin/env python3
"""periodica benchmark: end-to-end metrics, or the per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): envelope_q, stable_fp, derived_q.

Each round runs the workload's whole job list closed-loop in a fresh
interpreter (perfbench/worker.py), so every cache starts cold; round r uses
the seed ``1000 * seed + r``.  Rounds repeat until ``--seconds`` would be
exceeded (at least one).  Every job's verdict is checked.  Times are
seconds at a reference CPU speed (perfbench/refclock.py); the medians of
the raw wall and set-up times are printed and recorded beside them.

``--trace 0`` reports the end-to-end metrics: the median over rounds of the
job list's wall time; the median job and the tail job (the highest
percentile with at least ten jobs beyond it), where a job's time is the
median of its times over the rounds; the median of at least five set-ups
(interpreter start to the first job); and the median peak RSS.  ``--trace 1`` runs each
round twice, plain and traced, and reports the per-layer metrics of the
traced runs plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
stamped with the Python version, elimination backend, CPU count, seed and
source revision, goes to perfbench/out/.  Exits 2 without a result when the
periodica sources are missing and 1 when a round cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("envelope_q", "stable_fp", "derived_q")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10          # jobs that must lie beyond the tail percentile
DEADLINE_S = 170          # the whole run, rounds and set-ups included
END_TO_END_UNITS = {"wall_s": "s", "job_s_p50": "s", "job_s_tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class RoundFailed(Exception):
    """A worker process could not finish its round."""


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def source_stamp() -> dict:
    """Git commit when the checkout is a repository, and a hash of the
    package sources either way."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "periodica")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


class Runner:
    """Spawns worker rounds against one deadline."""

    def __init__(self, workload: str, started: float):
        self.workload = workload
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        for var in ("PERIODICA_BOUND", "PERIODICA_FIELD"):
            self.env.pop(var, None)   # they would change the golden reports

    def spawn(self, seed: int, *extra: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RoundFailed("out of time")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
               "--workload", self.workload, "--seed", str(seed), *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RoundFailed("round exceeded the deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RoundFailed(proc.stderr.strip()[-2000:]
                              or f"worker exited {proc.returncode}")
        doc = json.loads(lines[-1])
        doc["seed"] = seed
        doc["raw_setup_s"] = doc["ready"] - spawned
        doc["setup_s"] = doc["raw_setup_s"] * doc["setup_rate"]
        return doc

    def rounds(self, seed: int, seconds: int, run_round) -> list:
        """Call ``run_round(round_seed)`` until the next round would end
        after ``seconds``; at least once."""
        out = []
        begun = time.monotonic()
        while True:
            t = time.monotonic()
            out.append(run_round(1000 * seed + len(out)))
            now = time.monotonic()
            if now - begun + (now - t) > seconds:
                return out


def tail(times: list) -> tuple:
    """(value, percentile): the job time with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(runner: Runner, seed: int, seconds: int) -> tuple:
    rounds = runner.rounds(seed, seconds, lambda s: runner.spawn(s))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        extra = runner.spawn(1000 * seed + len(setups), "--setup-only")
        setups.append(extra["setup_s"])
    per_job = {}                  # job id -> its times over the rounds
    for r in rounds:
        for job_id, took, _, _ in r["jobs"]:
            per_job.setdefault(job_id, []).append(took)
    job_times = [statistics.median(t) for t in per_job.values()]
    tail_s, tail_pct = tail(job_times)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "job_s_p50": statistics.median(job_times),
        "job_s_tail": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    notes = {"setup_samples": setups,
             "tail_percentile": tail_pct,
             "jobs_per_round": len(job_times),
             "raw_wall_s": statistics.median(r["raw_wall_s"] for r in rounds),
             "raw_setup_s": statistics.median(r["raw_setup_s"] for r in rounds)}
    return metrics, rounds, notes


def per_layer(runner: Runner, seed: int, seconds: int) -> tuple:
    os.makedirs(OUT, exist_ok=True)

    def pair(s):
        spans = os.path.join(OUT, f"{runner.workload}-seed{s}.spans.gz")
        return runner.spawn(s), runner.spawn(s, "--trace", spans)

    pairs = runner.rounds(seed, seconds, pair)
    traced = [t for _, t in pairs]
    metrics = {key: statistics.fmean(t["layers"][key] for t in traced)
               for key in traced[0]["layers"]}
    metrics["trace.overhead_s"] = statistics.fmean(
        t["wall_s"] - p["wall_s"] for p, t in pairs)
    rounds = [r for p in pairs for r in p]
    return metrics, rounds, {"traced_rounds": len(traced)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    needed = [os.path.join(SRC, "periodica", "__init__.py"),
              os.path.join(ROOT, "tests", "golden")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"periodica sources not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, started)
    try:
        runner.spawn(1000 * args.seed, "--setup-only")  # compiles bytecode
        measure = per_layer if args.trace else end_to_end
        metrics, rounds, notes = measure(runner, args.seed, args.seconds)
    except RoundFailed as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["jobs"]) for r in rounds)
    failures = [[r["seed"], *j] for r in rounds for j in r["jobs"] if not j[2]]
    stamp = {"python": rounds[0]["python"], "backend": rounds[0]["backend"],
             "nproc": os.cpu_count(), "seed": args.seed,
             **source_stamp()}
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp, "notes": notes,
              "metrics": metrics, "failures": failures,
              "rounds": [{"seed": r["seed"], "wall_s": r.get("wall_s"),
                          "raw_wall_s": r.get("raw_wall_s"),
                          "setup_s": r["setup_s"],
                          "raw_setup_s": r["raw_setup_s"],
                          "peak_rss_mb": r["peak_rss_mb"], "jobs": r["jobs"]}
                         for r in rounds]}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}")
    print("stamp " + "  ".join(f"{k} {v}" for k, v in stamp.items()))
    for key, value in notes.items():
        print(f"{key} {value}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"failed_ratio {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.6g}")
    for seed, job_id, _, _, error in failures:
        print(f"FAILED round seed {seed}: {job_id} "
              f"({error or 'wrong verdict'})")
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
