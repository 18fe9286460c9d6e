"""The three benchmark workloads: seeded inputs, jobs and their verdict checks.

A job is one public library call (or one CLI invocation) that returns a
verdict the job checks against a closed form, an independent computation or
golden bytes.  ``build(name, seed, root)`` builds the inputs and returns
``[(job_id, fn), ...]`` in seed-permuted order; ``fn()`` returns True when the
verdict is right.  The seed permutes the order and supplies every seed the
library takes; it never changes the grid of algebras.
"""

from __future__ import annotations

import io
import math
import os
import random
from contextlib import redirect_stdout

from periodica import (DerivedContext, Field, QQ, StableContext,
                       algebra_period, check_periodic_tilting_stable,
                       ext_sum_check, fold, hereditary_decompose,
                       homotopy_hom, iso_q, linear_a, nakayama,
                       stable_end_algebra, stalk_tilting_check)
from periodica.cli import main as cli_main
from periodica.families import all_intervals, serial_module
from periodica.percomplex import bounded_homotopy_hom_dim
from periodica.randomcx import (random_bounded_projectives,
                                random_periodic_complex)
from periodica.reproduce import reproduce_ex5_9, reproduce_lemma4_1

# N(n,m) for 1 <= n <= 6, 2 <= m <= 5; N(6,6) takes minutes and N(7,7)
# exceeds build_algebra's 200000-walk cap.
ENVELOPE_GRID = [(n, m) for m in range(2, 6) for n in range(1, 7)]
PERIOD_BOUND = 16
STABLE_PRIMES = (2, 4294967311)
STABLE_NS = range(3, 7)
DERIVED_EXT_KS = (2, 3, 4)
DERIVED_KS = (2, 3)
DERIVED_MS = (2, 3)
RANDOM_JOBS = 20           # Prop. 3.10 pairs and Prop. 3.25 complexes per (k, m)
GOLDEN_CASES = {
    "ex5_6_n1_m2_f2.json": ["reproduce", "ex5.6", "--n", "1", "--m", "2",
                            "--field", "fp 2"],
    "ex5_8_n3.json": ["reproduce", "ex5.8", "--n", "3"],
    "ex5_9.json": ["reproduce", "ex5.9"],
    "lemma4_1_ka2_m2.json": ["reproduce", "lemma4.1", "--name", "kA2",
                             "--m", "2"],
    "prop3_10_seed7.json": ["reproduce", "prop3.10", "--name", "kA2",
                            "--m", "2", "--seed", "7", "--pairs", "10"],
    "prop3_25_seed7.json": ["reproduce", "prop3.25", "--name", "kA2",
                            "--m", "2", "--seed", "7", "--count", "10"],
}


# -- envelope_q: bimodule periods of cyclic Nakayama algebras over Q ----------------


def envelope_q(seed: int, root: str):
    field = Field.rationals()
    jobs = []
    for n, m in ENVELOPE_GRID:
        alg = nakayama(n, m, field)
        expected = 2 * math.lcm(n, m) // m          # Ex. 5.6

        def job(alg=alg, expected=expected):
            period = algebra_period(alg, PERIOD_BOUND, seed)
            return period.exact and period.value == expected
        jobs.append((f"period N({n},{m})", job))
    return jobs


# -- stable_fp: Ex. 5.8 over GF(2) and GF(4294967311) --------------------------------


def stable_fp(seed: int, root: str):
    jobs = []
    for p in STABLE_PRIMES:
        field = Field.gf(p)
        for n in STABLE_NS:
            alg = nakayama(n, n, field)
            ctx = StableContext(alg, seed)
            for a in range(1, n + 1):
                for l in range(1, n):
                    M = serial_module(alg, a, l)
                    # Sigma M(a,l) = M(a+l, n-l) and Sigma^2 M = M
                    E = serial_module(alg, (a + l - 1) % n + 1, n - l)

                    def job(ctx=ctx, M=M, E=E):
                        S = ctx.suspension_power(M, 1)
                        return (S.dims == E.dims and iso_q(S, E, seed)
                                and iso_q(ctx.suspension_power(M, 2), M, seed))
                    jobs.append((f"GF({p}) N({n},{n}) M({a},{l})", job))
            parts = [serial_module(alg, 1, l) for l in range(1, n)]

            def closure(ctx=ctx, parts=parts, n=n):
                tilt = check_periodic_tilting_stable(ctx, parts, 2)
                end = stable_end_algebra(ctx, parts, target_linear_a=n - 1)
                return (tilt["pass"] and tilt["closure_size"] == n * (n - 1)
                        and end["iso_found"] and end["dim"] == n * (n - 1) // 2)
            jobs.append((f"GF({p}) N({n},{n}) tilting closure", closure))
    return jobs


# -- derived_q: derived Hom, Ext sums, Hochschild tables and the CLI over Q ----------


def _ext_jobs(jobs):
    for k in DERIVED_EXT_KS:
        alg = linear_a(k, QQ)
        intervals = all_intervals(alg)
        for m in DERIVED_MS:
            ctx = DerivedContext(alg, m)
            for (ab, M) in intervals:
                for (cd, N) in intervals:
                    jobs.append((f"ext-sum kA{k} m={m} {ab}->{cd}",
                                 lambda ctx=ctx, M=M, N=N:
                                 ext_sum_check(ctx, M, N)["match"]))


def _stalk_tilting(ctx, k, m):
    rep = stalk_tilting_check(ctx)
    expected = [ctx.algebra.dim if i % m == 0 else 0 for i in range(m)]
    return (rep["pass"] and len(rep["generation"]) == k
            and all(w["reaches_simple"] for w in rep["generation"])
            and [r["dim"] for r in rep["rigidity"]] == expected)


def _fold_pair(alg, m, job_seed):
    """Prop. 3.10: folded Hom equals the sum over m-step shifts."""
    rng = random.Random(job_seed)
    X = random_bounded_projectives(alg, rng)
    Y = random_bounded_projectives(alg, rng)
    lhs = homotopy_hom(fold(X, m)[0], fold(Y, m)[0], 0)[0]
    span = (X.hi - X.lo) + (Y.hi - Y.lo) + 2 * m
    rhs = sum(bounded_homotopy_hom_dim(X, Y, s)
              for s in range(-(span // m) * m, span + 1, m))
    return lhs == rhs


def _split(ctx, m, job_seed):
    """Prop. 3.25: a hereditary complex splits into its cohomology stalks."""
    V = random_periodic_complex(ctx.algebra, m, random.Random(job_seed))
    rep = hereditary_decompose(ctx, V)
    return rep["verified"] and (rep["cohomology"] == rep["stalk_cohomology"]
                                or not rep["stalks"])


def _lemma4_1(alg, m):
    rep = reproduce_lemma4_1(alg, m)
    return (rep["pass"] and rep["vanishing_ok"]
            and rep["formality"]["verdict"] == "PASS")


def _ex5_9():
    rep = reproduce_ex5_9()
    return (rep["pass"] and rep["stalk_certificates"]["count_certified"] == 4
            and rep["formality"]["verdict"] == "FAIL")


def _golden(argv, expected):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(list(argv))
    return code == 0 and out.getvalue() == expected


def derived_q(seed: int, root: str):
    rng = random.Random(seed)
    jobs = []
    _ext_jobs(jobs)
    for k in DERIVED_EXT_KS:
        alg = linear_a(k, QQ)
        for m in DERIVED_MS:
            ctx = DerivedContext(alg, m)
            jobs.append((f"stalk tilting kA{k} m={m}",
                         lambda ctx=ctx, k=k, m=m: _stalk_tilting(ctx, k, m)))
    for k in DERIVED_KS:
        alg = linear_a(k, QQ)
        for m in DERIVED_MS:
            ctx = DerivedContext(alg, m)
            for t in range(RANDOM_JOBS):
                s1, s2 = rng.getrandbits(32), rng.getrandbits(32)
                jobs.append((f"prop3.10 kA{k} m={m} #{t}",
                             lambda alg=alg, m=m, s=s1: _fold_pair(alg, m, s)))
                jobs.append((f"prop3.25 kA{k} m={m} #{t}",
                             lambda ctx=ctx, m=m, s=s2: _split(ctx, m, s)))
            jobs.append((f"lemma4.1 kA{k} m={m}",
                         lambda alg=alg, m=m: _lemma4_1(alg, m)))
    jobs.append(("ex5.9", _ex5_9))
    golden_dir = os.path.join(root, "tests", "golden")
    for name, argv in sorted(GOLDEN_CASES.items()):
        with open(os.path.join(golden_dir, name), encoding="utf-8") as fh:
            expected = fh.read()
        jobs.append((f"cli {' '.join(argv)}",
                     lambda argv=argv, expected=expected:
                     _golden(argv, expected)))
    return jobs


WORKLOADS = {"envelope_q": envelope_q, "stable_fp": stable_fp,
             "derived_q": derived_q}


def build(name: str, seed: int, root: str):
    """Inputs and jobs of one workload, in the order the seed picks."""
    jobs = WORKLOADS[name](seed, root)
    random.Random(seed).shuffle(jobs)
    return jobs
