"""Constructions the library no longer uses, kept as independent oracles.

``direct_sum`` builds a sum of modules with its canonical injections and
projections; ``sub_rep`` reads a submodule's action through one solve per
arrow; ``quotient`` projects k^n onto a complement of a column span.  The
library reads these off block placements and echelon forms, and the tests
compare the two.  ``radical_subspaces`` and ``socle_subspaces`` span
rad(M) and soc(M) vertex by vertex, ``table_injective`` builds I(v) from A's
own multiplication table and ``self_injective_by_socles`` decides
self-injectivity from the socles of the projectives; the library reads tops
off one echelon form per vertex, and injectives, envelopes and
self-injectivity off the projective side of the opposite algebra.
``check_minimal`` and ``check_exact`` test a ``Resolution`` against the
definitions.  ``is_quasi_iso_via_cohomology`` decides a quasi-isomorphism
by inverting every induced map on cohomology
(``induced_map_on_cohomology``), where the library asks whether the cone
is acyclic; ``is_homotopy`` checks a witness f - g = d(h).
``sample_algebra`` loads a sample presentation over any field.
"""

import glob
import os
from typing import Dict, List, Sequence, Tuple

from periodica.common import PreconditionError
from periodica.fields import Field
from periodica.formats import parse_algebra_text
from periodica.linalg import Mat
from periodica.percomplex import GradedMorphism, _cohom_data
from periodica.quiver import FinDimAlgebra, build_algebra
from periodica.rep import Morphism, Rep, Resolution, block_map, block_sum


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


def quotient(ambient_dim: int, sub: Mat) -> Tuple[int, Mat]:
    """Quotient of k^n by the column span of ``sub``.

    Returns ``(dim, projection)`` with ``projection @ sub == 0``; the
    projection is onto the coordinates fc that are not pivots of the rref R
    of ``sub``'s transpose, read straight off R: it is the identity on those
    columns and -R[k, fc] at the k-th pivot column, i.e. the transpose of
    that rref's kernel basis.
    """
    if sub.rows != ambient_dim:
        raise ValueError("subspace columns must live in the ambient space")
    K = sub.transpose().kernel_basis()
    return K.cols, K.transpose()


def radical_subspaces(M: Rep) -> List[Mat]:
    """(M rad)_v = sum of images of arrows starting at v."""
    q = M.algebra.quiver
    out = []
    for v in range(1, q.n + 1):
        m = Mat.zeros(M.field, M.dims[v - 1], 0)
        for ai in q.arrows_from[v]:
            m = m.hstack(M.act[ai])
        out.append(m.image_basis())
    return out


def socle_subspaces(M: Rep) -> List[Mat]:
    """soc(M)_v: intersection of kernels of arrows ending at v."""
    q = M.algebra.quiver
    f = M.field
    out = []
    for v in range(1, q.n + 1):
        pieces = [M.act[ai] for ai in q.arrows_to[v]]
        if not pieces:
            out.append(Mat.identity(f, M.dims[v - 1]))
            continue
        m = pieces[0]
        for p in pieces[1:]:
            m = m.vstack(p)
        out.append(m.kernel_basis())
    return out


def table_injective(algebra: FinDimAlgebra, v: int) -> Rep:
    """I(v) = D(A e_v) from A's table: the dual basis to the walks starting
    at v, each arrow acting by the transpose of its left multiplication."""
    q = algebra.quiver
    f = algebra.field
    local: Dict[int, List[int]] = {u: [] for u in range(1, q.n + 1)}
    for i in range(algebra.dim):
        if algebra.source[i] == v:
            local[algebra.target[i]].append(i)
    pos = {}
    for u, lst in local.items():
        for r, bi in enumerate(lst):
            pos[bi] = r
    dims = [len(local[u]) for u in range(1, q.n + 1)]
    act = []
    for ai, a in enumerate(q.arrows):
        lam = Mat.zeros(f, dims[a.target - 1], dims[a.source - 1])
        arrow_b = algebra.arrow_index[ai]
        for c, bi in enumerate(local[a.source]):
            for k, coeff in algebra.mult(arrow_b, bi):
                lam.data[pos[k] * lam.cols + c] = coeff
        act.append(lam.transpose())
    return Rep(algebra, dims, act)


def self_injective_by_socles(alg: FinDimAlgebra) -> bool:
    """Is each indecomposable projective P(v) isomorphic to some I(w)?

    P(v) is I(w) iff soc P(v) is the one simple S(w) and dim P(v) =
    dim I(w): P(v) then embeds in I(w), the injective envelope of its
    socle, and the dimensions make the embedding onto.  No two P(v) can be
    the same I(w), having different tops, so each I(w) is used at most
    once.
    """
    for v in range(1, alg.quiver.n + 1):
        P = Rep.projective(alg, v)
        soc = [b.cols for b in socle_subspaces(P)]
        # dim I(w) counts the basis walks starting at w
        if sum(soc) != 1 or P.total_dim != alg.source.count(soc.index(1) + 1):
            return False
    return True


SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
SAMPLE_ALGEBRAS = sorted(os.path.basename(p)
                         for p in glob.glob(os.path.join(SAMPLES, "*.alg")))


def induced_map_on_cohomology(f: GradedMorphism, i: int) -> Morphism:
    """H^i(f): H^i(V) -> H^{i+p}(W) for a closed map f of degree p."""
    V, W = f.source, f.target
    p = f.degree
    dv = _cohom_data(V, i)
    dw = _cohom_data(W, i + p)
    field = V.algebra.field
    blocks = []
    for v in range(len(dv.H.dims)):
        hdim = dv.H.dims[v]
        if hdim == 0:
            blocks.append(Mat.zeros(field, dw.H.dims[v], 0))
            continue
        # pick cocycle representatives of the H-basis, push them forward
        section = dv.projH.blocks[v].solve_matrix(Mat.identity(field, hdim))
        assert section is not None
        carried = f.comps[i % V.m].blocks[v] @ dv.inclZ.blocks[v] @ section
        X = W.diffs[(i + p) % W.m].blocks[v].kernel_coords(carried)
        if X is None:
            raise PreconditionError("closed map does not preserve cocycles")
        blocks.append(dw.projH.blocks[v] @ X)
    return Morphism(dv.H, dw.H, blocks)


def is_quasi_iso_via_cohomology(f: GradedMorphism) -> bool:
    """Every induced map on cohomology is invertible."""
    for i in range(f.source.m):
        g = induced_map_on_cohomology(f, i)
        if g.source.dims != g.target.dims or not g.is_iso():
            return False
    return True


def is_homotopy(f: GradedMorphism, g: GradedMorphism,
                h: GradedMorphism) -> bool:
    """Does h (degree -1) witness f ~ g, i.e. f - g = d(h)?"""
    if h.degree != -1:
        raise PreconditionError("a homotopy has degree -1")
    return (f - g - h.dmap()).is_zero()


def sample_algebra(name: str, field: Field) -> FinDimAlgebra:
    """``sample_inputs/<name>`` over ``field`` in place of its own."""
    with open(os.path.join(SAMPLES, name), "r", encoding="utf-8") as fh:
        text = "\n".join(line for line in fh.read().splitlines()
                         if not line.startswith("field "))
    return build_algebra(parse_algebra_text(text, field, name))


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
