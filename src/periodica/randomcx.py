"""Seeded random complexes for property checks and reproduction runs."""

from __future__ import annotations

import random
from typing import List

from .families import all_intervals, is_linear_a
from .percomplex import BoundedComplex, PeriodicComplex
from .quiver import FinDimAlgebra
from .rep import HomBasis, Morphism, Rep, block_sum


def _random_map(rng: random.Random, space: HomBasis) -> Morphism:
    """The combination of ``space``'s basis maps with coefficients drawn
    from -1, 0, 1."""
    return space.from_coords([rng.randint(-1, 1) for _ in space.basis])


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
    spaces = [HomBasis(comps[i], comps[(i + 1) % m]) for i in range(m)]
    for _ in range(60):
        chosen = [_random_map(rng, space) for space in spaces]
        if all((chosen[(i + 1) % m] @ chosen[i]).is_zero() for i in range(m)):
            return PeriodicComplex(alg, m, comps, chosen)
    zero = [Morphism.zero(comps[i], comps[(i + 1) % m]) for i in range(m)]
    return PeriodicComplex(alg, m, comps, zero)


def random_bounded_projectives(alg: FinDimAlgebra, rng: random.Random,
                               span: int = 3,
                               max_summands: int = 2) -> BoundedComplex:
    """A random bounded complex of projectives (for folding checks)."""
    projs = [Rep.projective(alg, v) for v in range(1, alg.quiver.n + 1)]
    lo = -rng.randint(0, span)
    comps = {}
    for j in range(lo, lo + rng.randint(1, span)):
        parts = [projs[rng.randrange(len(projs))]
                 for _ in range(rng.randint(1, max_summands))]
        comps[j] = block_sum(parts)
    degs = sorted(comps)
    for _ in range(80):
        diffs = {}
        for j in degs:
            if j + 1 in comps:
                diffs[j] = _random_map(rng, HomBasis(comps[j], comps[j + 1]))
        ok = True
        for j in degs:
            if j in diffs and (j + 1) in diffs:
                if not (diffs[j + 1] @ diffs[j]).is_zero():
                    ok = False
                    break
        if ok:
            return BoundedComplex(alg, comps, diffs)
    return BoundedComplex(alg, comps, {})
