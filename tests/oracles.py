"""Constructions the library no longer uses, kept as independent oracles.

``direct_sum`` builds a sum of modules with its canonical injections and
projections; ``sub_rep`` reads a submodule's action through one solve per
arrow.  The library reads both off block placements and echelon forms, and
the tests compare the two.  ``check_minimal`` and ``check_exact`` test a
``Resolution`` against the definitions.
"""

from typing import List, Sequence, Tuple

from periodica.common import PreconditionError
from periodica.linalg import Mat
from periodica.rep import (Morphism, Rep, Resolution, block_map, block_sum,
                           radical_subspaces)


def direct_sum(parts: Sequence[Rep]) -> Tuple[Rep, List[Morphism],
                                              List[Morphism]]:
    """Direct sum (``block_sum``) with its canonical injections and
    projections."""
    S = block_sum(parts)
    ids = [Morphism.identity(p) for p in parts]
    injs = [block_map(p, S, parts, [p], {(k, 0): ids[k]})
            for k, p in enumerate(parts)]
    projs = [block_map(S, p, [p], parts, {(0, k): ids[k]})
             for k, p in enumerate(parts)]
    return S, injs, projs


def sub_rep(M: Rep, bases: Sequence[Mat]) -> Tuple[Rep, Morphism]:
    """Subrepresentation spanned columnwise by ``bases`` (must be
    invariant), its action solved arrow by arrow."""
    act = []
    for ai, a in enumerate(M.algebra.quiver.arrows):
        X = bases[a.source - 1].solve_matrix(M.act[ai] @ bases[a.target - 1])
        if X is None:
            raise PreconditionError("subspaces are not arrow-invariant")
        act.append(X)
    K = Rep(M.algebra, [b.cols for b in bases], act)
    return K, Morphism(K, M, list(bases))


def check_minimal(res: Resolution) -> bool:
    """Every differential must land inside rad * (previous term)."""
    for j, d in enumerate(res.maps):
        rad = radical_subspaces(res.terms[j])
        for v in range(len(rad)):
            if rad[v].solve_matrix(d.blocks[v]) is None:
                return False
    return True


def check_exact(res: Resolution) -> bool:
    """d^2 = 0 and homology vanishes strictly below the truncation."""
    seq = [res.aug] + res.maps
    for j in range(len(seq) - 1):
        if not (seq[j] @ seq[j + 1]).is_zero():
            return False
    for j in range(len(seq) - 1):
        zdim = sum(b.cols - b.rank() for b in seq[j].blocks)
        bdim = sum(b.rank() for b in seq[j + 1].blocks)
        if zdim != bdim:
            return False
    return True
