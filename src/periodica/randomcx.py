"""Seeded random complexes for property checks and reproduction runs.

Both samplers draw their differentials by one rejection loop: one Hom basis
per differential, all maps redrawn with coefficients in {-1, 0, 1} until
every listed composite vanishes, zero maps once the caller's tries run out.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .families import all_intervals, is_linear_a
from .percomplex import BoundedComplex, PeriodicComplex
from .quiver import FinDimAlgebra
from .rep import HomBasis, Morphism, Rep, block_sum


def _draw_differentials(rng: random.Random, ends: Sequence[Tuple[Rep, Rep]],
                        composites: Sequence[Tuple[int, int]],
                        tries: int) -> List[Morphism]:
    """Maps on ``ends`` with maps[b] @ maps[a] = 0 for (a, b) in composites."""
    spaces = [HomBasis(M, N) for M, N in ends]
    for _ in range(tries):
        maps = [space.from_coords([rng.randint(-1, 1) for _ in space.basis])
                for space in spaces]
        if all((maps[b] @ maps[a]).is_zero() for a, b in composites):
            return maps
    return [Morphism.zero(M, N) for M, N in ends]


def _indecomposable_pool(alg: FinDimAlgebra) -> List[Rep]:
    if is_linear_a(alg):
        return [M for _, M in all_intervals(alg)]
    return [Rep.projective(alg, v) for v in range(1, alg.quiver.n + 1)] + \
           [Rep.simple(alg, v) for v in range(1, alg.quiver.n + 1)]


def random_periodic_complex(alg: FinDimAlgebra, m: int, rng: random.Random,
                            max_summands: int = 2) -> PeriodicComplex:
    """A random m-periodic complex with components from the indecomposable
    pool and differentials sampled inside the d^2 = 0 constraint."""
    pool = _indecomposable_pool(alg)
    comps = []
    for _ in range(m):
        parts = [pool[rng.randrange(len(pool))]
                 for _ in range(rng.randint(1, max_summands))]
        comps.append(block_sum(parts))
    ends = [(comps[i], comps[(i + 1) % m]) for i in range(m)]
    return PeriodicComplex(alg, m, comps, _draw_differentials(
        rng, ends, [(i, (i + 1) % m) for i in range(m)], 60))


def random_bounded_projectives(alg: FinDimAlgebra, rng: random.Random,
                               span: int = 3,
                               max_summands: int = 2) -> BoundedComplex:
    """A random bounded complex of projectives (for folding checks)."""
    projs = [Rep.projective(alg, v) for v in range(1, alg.quiver.n + 1)]
    lo = -rng.randint(0, span)
    degs = range(lo, lo + rng.randint(1, span))
    comps = {}
    for j in degs:
        parts = [projs[rng.randrange(len(projs))]
                 for _ in range(rng.randint(1, max_summands))]
        comps[j] = block_sum(parts)
    ends = [(comps[j], comps[j + 1]) for j in degs[:-1]]
    composites = [(k, k + 1) for k in range(len(ends) - 1)]
    diffs = _draw_differentials(rng, ends, composites, 80)
    return BoundedComplex(alg, comps, dict(zip(degs, diffs)))
