"""Built-in algebra families and the enveloping-algebra construction.

Orientation conventions (these make the pinned homological formulas come out
right under the fixed right-module convention):

* ``linear_a(k)``: the A_k quiver with arrows i -> i+1.  P(1) is the simple
  at vertex 1 and P(k) is the longest projective.
* ``nakayama(n, m)``: the cyclic quiver on Z_n with arrows v -> v+1 and
  rad^m = 0.  ``serial_module(alg, a, l)`` is the uniserial of length l whose
  socle is the simple at vertex a; its composition factors climb
  S_a, S_{a+1}, ..., S_{a+l-1}.  For these labels the syzygy formula reads
  Omega M(a, l) = M(a+l, n-l) when n = m.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .common import PreconditionError
from .fields import Field
from .linalg import Mat
from .quiver import (AlgebraPresentation, FinDimAlgebra, Quiver, build_algebra,
                     enveloping_algebra)
from .rep import Rep


def linear_a(k: int, field: Field) -> FinDimAlgebra:
    """Path algebra of the linear A_k quiver (no relations)."""
    if k < 1:
        raise PreconditionError("need at least one vertex")
    arrows = [(f"a{i}", i, i + 1) for i in range(1, k)]
    pres = AlgebraPresentation(Quiver(k, arrows), field, [], max(2, k),
                               label=f"kA{k}")
    return build_algebra(pres)


def nakayama(n: int, m: int, field: Field) -> FinDimAlgebra:
    """The self-injective Nakayama algebra kQ_n / rad^m (cyclic quiver)."""
    if n < 1 or m < 2:
        raise PreconditionError("need n >= 1 and m >= 2")
    arrows = [(f"a{v}", v, v % n + 1) for v in range(1, n + 1)]
    if n == 1:
        arrows = [("x", 1, 1)]
    pres = AlgebraPresentation(Quiver(n, arrows), field, [], m,
                               label=f"N({n},{m})")
    return build_algebra(pres)


def dual_numbers(field: Field) -> FinDimAlgebra:
    """k[x]/(x^2)."""
    return nakayama(1, 2, field)


def semisimple_product(n: int, field: Field) -> FinDimAlgebra:
    """k x k x ... x k (n factors): n vertices, no arrows."""
    pres = AlgebraPresentation(Quiver(n, []), field, [], 2, label=f"k^{n}")
    return build_algebra(pres)


def is_cyclic_nakayama(alg: FinDimAlgebra) -> bool:
    """True when the quiver is a single oriented cycle v -> v+1 (mod n)."""
    q = alg.quiver
    if len(q.arrows) != q.n:
        return False
    nxt: Dict[int, int] = {}
    for a in q.arrows:
        if a.source in nxt:
            return False
        nxt[a.source] = a.target
    seen = set()
    v = 1
    for _ in range(q.n):
        if v in seen or v not in nxt:
            return False
        seen.add(v)
        v = nxt[v]
    return v == 1 and len(seen) == q.n


def is_linear_a(alg: FinDimAlgebra) -> bool:
    """True for the path algebra of a linearly ordered A_k quiver."""
    q = alg.quiver
    if alg.presentation.relations or len(q.arrows) != q.n - 1:
        return q.n == 1 and not q.arrows
    expected = {(i, i + 1) for i in range(1, q.n)}
    return {(a.source, a.target) for a in q.arrows} == expected


def serial_module(alg: FinDimAlgebra, a: int, l: int) -> Rep:
    """M(a, l): the uniserial of length l with socle S_a (cyclic Nakayama).

    Realized as the quotient of the projective with top S_{a+l-1} by its
    l-th radical layer, so l is at most that projective's length, which is
    its dimension (it is uniserial).  The basis walks of length >= l span
    that layer, so the quotient restricts the projective's matrices to the
    shorter ones.
    """
    if not is_cyclic_nakayama(alg):
        raise PreconditionError("serial modules need a cyclic Nakayama algebra")
    n = alg.quiver.n
    a = (a - 1) % n + 1
    top = (a + l - 2) % n + 1
    length = alg.projective_dims[top - 1]
    if not (1 <= l <= length):
        raise PreconditionError(f"length must be in 1..{length}")
    P = Rep.projective(alg, top)
    keep = [[r for r, bi in enumerate(lst) if alg.length[bi] < l]
            for lst in alg.projective_basis[top - 1]]
    act = []
    for m, ar in zip(P.act, alg.quiver.arrows):
        rows, cols, d = keep[ar.source - 1], keep[ar.target - 1], m.data
        act.append(Mat(alg.field, len(rows), len(cols),
                       [d[r * m.cols + c] for r in rows for c in cols]))
    return Rep(alg, [len(k) for k in keep], act)


def interval_module(alg: FinDimAlgebra, a: int, b: int) -> Rep:
    """The interval module over linear A_k supported on vertices a..b."""
    if not is_linear_a(alg):
        raise PreconditionError("interval modules need a linear A_k algebra")
    q = alg.quiver
    if not (1 <= a <= b <= q.n):
        raise PreconditionError("bad interval")
    f = alg.field
    dims = [1 if a <= v <= b else 0 for v in range(1, q.n + 1)]
    act = []
    for ar in q.arrows:
        m = Mat.zeros(f, dims[ar.source - 1], dims[ar.target - 1])
        if a <= ar.source and ar.target <= b:
            m.data[0] = f.one()
        act.append(m)
    return Rep(alg, dims, act)


def all_intervals(alg: FinDimAlgebra) -> List[Tuple[Tuple[int, int], Rep]]:
    q = alg.quiver
    out = []
    for a in range(1, q.n + 1):
        for b in range(a, q.n + 1):
            out.append(((a, b), interval_module(alg, a, b)))
    return out


def enveloping(alg: FinDimAlgebra) -> Tuple[FinDimAlgebra, Rep]:
    """The enveloping algebra A^op (x) A and A as a right module over it.

    The bimodule components sit at vertex pairs (u, v) and carry e_u A e_v,
    on the basis walks v -> u (``projective_basis[u - 1][v - 1]``); the
    left leg acts by left multiplication, the right leg by right
    multiplication.
    """
    E = enveloping_algebra(alg)
    f = alg.field
    # local[pair_vertex(n, u, v) - 1]: the basis at (u, v)
    local = [lst for row in alg.projective_basis for lst in row]
    pos = {bi: r for lst in local for r, bi in enumerate(lst)}
    dims = [len(lst) for lst in local]
    act = []
    for ar, (leg, ai) in zip(E.quiver.arrows, E.arrow_legs):
        m = Mat.zeros(f, dims[ar.source - 1], dims[ar.target - 1])
        a = alg.arrow_index[ai]
        for c, bi in enumerate(local[ar.target - 1]):
            # the A^op leg multiplies on the left, the A leg on the right
            for k, coeff in (alg.mult(a, bi) if leg == 0 else alg.mult(bi, a)):
                m.data[pos[k] * m.cols + c] = coeff
        act.append(m)
    B = Rep(E, dims, act, check=True)
    return E, B
