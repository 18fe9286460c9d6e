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
``projective_from_basis`` builds P(v) afresh from ``projective_basis`` and
the multiplication table, where the library shares blocks the algebra
builds once.  ``hom_basis_lift`` lifts a map out of any projective by one
solve on Hom bases; the library lifts only out of a module with tops, one
solve per top vertex.

``quotient_rep`` reads a quotient by invariant subspaces off the rref of
their transposed spans, with ``cokernel_of`` on it, and
``injective_envelope`` transposes the cover P(DM) ->> DM over A^op into
M >-> D P(DM); the library builds no quotient but D of a kernel over
A^op, and no envelope.
``sigma_by_envelope`` and ``cone_by_envelope`` take Sigma M and the cone
of f: M -> N as cokernels of the injective envelope M >-> I(M) and of
(f, envelope): M -> N + I(M), over A; the library takes both as duals of
kernels over A^op, along the dual cover P(DM) ->> DM.
``serial_by_quotient`` builds the uniserial M(a, l) as the quotient of its
projective cover by the radical layer, through ``quotient_rep``; the
library restricts the projective's arrow matrices to the walks of length
< l.

``bar_hh_oracle`` computes dim HH^p from the bar complex, with no bimodule
resolution; the library resolves A over A^e instead and reads HH^p off the
bounded Hom complex of that resolution into A.  ``fold_resolution`` folds a
module's minimal resolution with P0 in any integer degree p (the library's
``resolution_complex``, moved by ``shifted``) onto the module's stalk at p;
the library's replacement of a stalk folds at the residue r of p mod m, and
each shift by m multiplies the differentials by (-1)^m, so the two differ
in sign when m is odd and (p - r) / m is odd.
"""

import glob
import os
from typing import Dict, List, Sequence, Tuple

from periodica.common import CheckFailed, PreconditionError
from periodica.derivedper import DerivedContext
from periodica.fields import Field
from periodica.formats import parse_algebra_text
from periodica.linalg import Mat, _free_cols
from periodica.percomplex import (BoundedComplex, GradedMorphism,
                                  PeriodicComplex, _cohom_data, fold,
                                  resolution_complex, stalk_complex)
from periodica.quiver import FinDimAlgebra, build_algebra
from periodica.rep import (HomBasis, Morphism, Rep, Resolution, block_map,
                           block_sum, dual, projective_cover)


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


def hom_basis_lift(g: Morphism, q: Morphism) -> Morphism:
    """h with q o h = g, for g out of a projective into the image of q: one
    solve for the coordinates of h on a Hom(source g, source q) basis."""
    P = g.source
    basis = HomBasis(P, q.source)
    coords = HomBasis(P, q.target)
    sol = coords.coords_matrix([q @ b for b in basis.basis]).solve(
        coords.coords_of(g))
    if sol is None:
        raise CheckFailed("projective lift failed (map not into the image?)")
    return basis.from_coords(sol)


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


def quotient_rep(M: Rep, bases: Sequence[Mat]) -> Tuple[Rep, Morphism]:
    """Quotient of M by the invariant subspaces spanned by the columns of
    ``bases`` (any spanning columns: only their span is read, through the
    canonical rref of the transpose, one elimination per vertex).  Returns
    the projection, at each vertex the transpose of that rref's kernel
    basis: the identity on the rref's free columns and -R[k, fc] at its
    k-th pivot.  So their unit vectors are the section the action is read
    through (any section gives the same action, the subspace being
    invariant)."""
    q = M.algebra.quiver
    projs, free = [], []
    for v in range(q.n):
        T = bases[v].transpose()
        projs.append(T.kernel_basis().transpose())
        free.append(_free_cols(T.cols, T.rref()[1]))
    act = [projs[a.source - 1] @ M.act[ai].take_cols(free[a.target - 1])
           for ai, a in enumerate(q.arrows)]
    Q = Rep(M.algebra, [len(c) for c in free], act)
    return Q, Morphism(M, Q, projs)


def cokernel_of(f: Morphism) -> Tuple[Rep, Morphism]:
    """``quotient_rep`` of the target by f's blocks as they stand: one
    elimination per vertex."""
    return quotient_rep(f.target, f.blocks)


def injective_envelope(M: Rep) -> Tuple[Rep, Morphism]:
    """The minimal embedding M >-> I(M), the dual of the projective cover
    P ->> D(M) over A^op: I(M) = D(P), a sum of I(v) = D(e_v A^op), and
    the embedding's block at v is the transpose of the cover's.  The top
    generators of D(M) at v are M's socle functionals: the unit functionals
    at the free columns of the stacked matrices of the arrows into v."""
    P, phi = projective_cover(dual(M))
    I = dual(P)
    return I, Morphism(M, I, [b.transpose() for b in phi.blocks])


def sigma_by_envelope(M: Rep) -> Rep:
    """Sigma M: the cokernel of the injective envelope M >-> I(M)."""
    return cokernel_of(injective_envelope(M)[1])[0]


def cone_by_envelope(f: Morphism) -> Rep:
    """The cone of f: M -> N, the cokernel of (f, envelope): M -> N + I(M)."""
    M, N = f.source, f.target
    I, incl = injective_envelope(M)
    g = Morphism(M, block_sum([N, I]),
                 [b.vstack(e) for b, e in zip(f.blocks, incl.blocks)])
    return cokernel_of(g)[0]


def serial_by_quotient(alg: FinDimAlgebra, a: int, l: int) -> Rep:
    """M(a, l) over a cyclic Nakayama algebra: the projective with top
    S_{a+l-1} modulo the span of its basis walks of length >= l."""
    n = alg.quiver.n
    top = (a + l - 2) % n + 1
    P = Rep.projective(alg, top)
    bases = []
    for u, lst in enumerate(alg.projective_basis[top - 1]):
        cols = [r for r, bi in enumerate(lst) if alg.length[bi] >= l]
        mat = Mat.zeros(alg.field, P.dims[u], len(cols))
        for c, r in enumerate(cols):
            mat.data[r * len(cols) + c] = alg.field.one()
        bases.append(mat)
    return quotient_rep(P, bases)[0]


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


def projective_from_basis(algebra: FinDimAlgebra, v: int) -> Rep:
    """P(v) = e_v A built from scratch: the walks ending at v, on the basis
    ``algebra.projective_basis[v - 1]``, arrow a acting by precomposition
    (``mult(walk, a)``)."""
    q = algebra.quiver
    local = algebra.projective_basis[v - 1]
    pos = {bi: r for lst in local for r, bi in enumerate(lst)}
    dims = [len(lst) for lst in local]
    act = []
    for ai, a in enumerate(q.arrows):
        m = Mat.zeros(algebra.field, dims[a.source - 1], dims[a.target - 1])
        for c, bi in enumerate(local[a.target - 1]):
            for k, coeff in algebra.mult(bi, algebra.arrow_index[ai]):
                m.data[pos[k] * m.cols + c] = coeff
        act.append(m)
    P = Rep(algebra, dims, act)
    P.tops = (v,)
    return P


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
    spec = f"fp {field.p}" if field.p else "rationals"
    with open(os.path.join(SAMPLES, name), "r", encoding="utf-8") as fh:
        text = "\n".join([f"field {spec}"] + [
            line for line in fh.read().splitlines()
            if not line.startswith("field ")])
    return build_algebra(parse_algebra_text(text, name))


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


def bar_hh_oracle(alg: FinDimAlgebra, p: int,
                  size_guard: int = 300000) -> int:
    """dim HH^p computed from the (reduced-to-k) bar complex.

    Completely independent of the minimal-resolution path: cochains are
    k-linear maps from tensor powers of the algebra, with the standard
    alternating differential.
    """
    if p < 0:
        raise PreconditionError("negative cohomological degree")
    n = alg.dim
    if (n ** (p + 1)) * n > size_guard:
        raise PreconditionError("bar complex too large for the oracle guard")

    def delta(q: int) -> Mat:
        """Matrix of C^q -> C^{q+1} on functional coordinates."""
        field = alg.field
        rows_n = (n ** (q + 1)) * n
        cols_n = (n ** q) * n
        out = Mat.zeros(field, rows_n, cols_n)

        def add(row: int, col: int, val):
            out.data[row * cols_n + col] = field.add(
                out.data[row * cols_n + col], val)

        tuples: List[Tuple[int, ...]] = [()]
        for _ in range(q + 1):
            tuples = [t + (b,) for t in tuples for b in range(n)]
        for u in tuples:
            urow = 0
            for b in u:
                urow = urow * n + b
            # term 1: -a_1 * phi(a_2..)
            tcol = 0
            for b in u[1:]:
                tcol = tcol * n + b
            for k in range(n):
                for out_idx, coeff in alg.mult(u[0], k):
                    add(urow * n + out_idx, tcol * n + k, field.neg(coeff))
            # term 2: merge a_j a_{j+1}, sign (-1)^{j+1}
            for j in range(1, q + 1):
                sign = field.sign_pow(j + 1)
                merged = alg.mult(u[j - 1], u[j])
                rest = u[:j - 1] + u[j + 1:]
                for mid_idx, coeff in merged:
                    # insert the merged element at slot j-1
                    tcol2 = 0
                    inserted = rest[:j - 1] + (mid_idx,) + rest[j - 1:]
                    for b in inserted:
                        tcol2 = tcol2 * n + b
                    val = field.mul(sign, coeff)
                    for k in range(n):
                        add(urow * n + k, tcol2 * n + k, val)
            # term 3: (-1)^{q+2} phi(a_1..a_q) * a_{q+1}
            sign = alg.field.sign_pow(q + 2)
            tcol3 = 0
            for b in u[:q]:
                tcol3 = tcol3 * n + b
            for k in range(n):
                for out_idx, coeff in alg.mult(k, u[q]):
                    add(urow * n + out_idx, tcol3 * n + k,
                        field.mul(sign, coeff))
        return out

    z = delta(p).kernel_basis().cols
    b = delta(p - 1).rank() if p >= 1 else 0
    return z - b


def shifted(B: BoundedComplex, ell: int) -> BoundedComplex:
    """B[ell]: degree j moves to j - ell, the differentials times (-1)^ell."""
    sign = B.algebra.field.sign_pow(ell)
    comps = {j - ell: c for j, c in B.comps.items()}
    diffs = {j - ell: d.scale(sign) for j, d in B.diffs.items()}
    return BoundedComplex(B.algebra, comps, diffs, check=False)


def _augmentation(res: Resolution, B: BoundedComplex, F: PeriodicComplex,
                  layout: List[List[int]], target: PeriodicComplex,
                  position: int) -> GradedMorphism:
    """The chain map from F, the fold of the resolution ``res`` placed as B
    with P0 in degree ``position``, onto the stalk ``target`` of the
    resolved module at that position: the augmentation on the summand P0 of
    F at the position, zero elsewhere."""
    M = res.module
    comps = [Morphism.zero(F.comps[i], target.comps[i])
             for i in range(target.m)]
    i = position % target.m
    comps[i] = block_map(F.comps[i], M, [M], [B.comps[j] for j in layout[i]],
                         {(0, layout[i].index(position)): res.aug})
    phi = GradedMorphism(F, target, 0, comps)
    if not phi.is_closed():
        raise CheckFailed("folded resolution map fails to be a chain map")
    return phi


def fold_resolution(ctx: DerivedContext, M: Rep, position: int = 0
                    ) -> Tuple[PeriodicComplex, GradedMorphism]:
    """Fold a minimal resolution of M, with P0 in degree ``position``, onto
    the stalk of M at that position."""
    m = ctx.m
    target = stalk_complex(M, m, position)
    if M.is_zero():
        Z = stalk_complex(Rep.zero(ctx.algebra), m)
        return Z, GradedMorphism.zero(Z, target)
    res = ctx.resolution(M)
    B = shifted(resolution_complex(res), -position)
    F, layout = fold(B, m)
    return F, _augmentation(res, B, F, layout, target, position)
