"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--trace FILE]

Imports periodica, builds the workload's inputs and, unless ``--setup-only``,
runs every job closed-loop (the next job starts after the previous verdict).
Prints one JSON line with the CLOCK_MONOTONIC times at which this script
started (``began``) and the first job was ready to start (``ready``), the
reference-speed seconds per raw second between the two (``setup_rate``),
per-job times and verdicts, peak RSS and the backend.  Times are read from
``RefClock`` (reference-speed seconds); raw wall times ride along.  With
``--trace FILE`` every public periodica function is wrapped first; the
per-layer metrics join the JSON line and the spans go to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from refclock import RefClock


def main() -> int:
    began = time.monotonic()
    raw = time.perf_counter
    t_began = raw()
    clock = RefClock()
    clock.start()
    ref_began = clock.now()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="FILE")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    import periodica
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(clock.now)
        tracer.install()
    import workloads                     # after install: it imports wrappers

    t0 = clock.now()
    jobs = workloads.build(args.workload, args.seed, root)
    ready = time.monotonic()
    out = {"began": began, "ready": ready,
           "setup_rate": (clock.now() - ref_began) / (raw() - t_began),
           "backend": periodica.backend(), "python": sys.version.split()[0],
           "jobs": []}
    if not args.setup_only:
        t_jobs, raw_jobs = clock.now(), raw()
        for i, (job_id, fn) in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            error = None
            start = clock.now()
            try:
                ok = bool(fn())
            except Exception as exc:     # a refusal or crash fails the job
                ok, error = False, type(exc).__name__
            out["jobs"].append([job_id, clock.now() - start, ok, error])
        end = clock.now()
        out["wall_s"] = end - t_jobs
        out["raw_wall_s"] = raw() - raw_jobs
        if tracer is not None:
            out["layers"] = tracer.layer_metrics(end - t0)
    clock.stop()
    if tracer is not None:
        tracer.dump(args.trace)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
