"""Right modules over a FinDimAlgebra as block representations.

A ``Rep`` stores one dimension per vertex and one matrix per arrow; the arrow
``a: u -> v`` acts by ``act[a]: M_v -> M_u`` (right modules, function-order
composition).  Kernels, images, covers, syzygies and the Krull-Schmidt
machinery all reduce to exact linear algebra on these blocks.  The injective
side is the projective side of the opposite algebra: ``dual`` is D =
Hom_k(-, k), so I(v) = D(e_v A^op), the envelope M >-> I(M) is D of the
cover P(DM) ->> DM over A^op, and the cokernel of f is D ker(D f), whose
projection is the kernel's inclusion transposed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import zip_longest
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .common import CheckFailed, PreconditionError, Trunc, TruncationError
from .fields import Field
from .linalg import (Mat, _echelon, _free_cols, _kernel_coords, _null_space,
                     _offsets, _product)
from .quiver import FinDimAlgebra, Walk


class Rep:
    """A finite-dimensional right module, presented vertexwise.

    ``tops`` records, for a module built as a sum of projectives P(v_1) +
    ... + P(v_t) in the standard basis (``Rep.projective``, ``block_sum``
    of such parts and ``projective_cover``; ``Rep.zero`` is the empty sum),
    the top vertices v_1, ..., v_t in summand order; it is None for a
    module built any other way.  Hom out of a module with tops is read by
    Yoneda (:class:`YonedaHom`).
    """

    __slots__ = ("algebra", "dims", "act", "tops")

    def __init__(self, algebra: FinDimAlgebra, dims: Sequence[int],
                 act: Sequence[Mat], check: bool = False):
        q = algebra.quiver
        if len(dims) != q.n:
            raise PreconditionError("dimension vector length mismatch")
        if len(act) != len(q.arrows):
            raise PreconditionError("need one matrix per arrow")
        self.algebra = algebra
        self.dims = dims = tuple(dims)
        self.act = tuple(act)
        self.tops: Optional[Tuple[int, ...]] = None
        for m, a in zip(self.act, q.arrows):
            if m.rows != dims[a.source - 1] or m.cols != dims[a.target - 1]:
                raise PreconditionError(
                    f"arrow {a.name}: matrix shape {m.shape} does not match "
                    f"dimension vector")
        if check:
            self.check_relations()

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, algebra: FinDimAlgebra) -> "Rep":
        q = algebra.quiver
        f = algebra.field
        Z = cls(algebra, [0] * q.n, [Mat.zeros(f, 0, 0) for _ in q.arrows])
        Z.tops = ()
        return Z

    @classmethod
    def simple(cls, algebra: FinDimAlgebra, v: int) -> "Rep":
        q = algebra.quiver
        f = algebra.field
        dims = [1 if u == v else 0 for u in range(1, q.n + 1)]
        act = [Mat.zeros(f, dims[a.source - 1], dims[a.target - 1])
               for a in q.arrows]
        return cls(algebra, dims, act)

    @classmethod
    def projective(cls, algebra: FinDimAlgebra, v: int) -> "Rep":
        """P(v) = e_v A: walks ending at v, acted on by precomposition, on
        the basis ``algebra.projective_basis[v - 1]``.  Its blocks are built
        once per algebra and shared by every P(v) returned."""
        dims, act = algebra._projective_blocks(v)
        P = cls(algebra, dims, act)
        P.tops = (v,)
        return P

    @classmethod
    def injective(cls, algebra: FinDimAlgebra, v: int) -> "Rep":
        """I(v) = D(A e_v) = D(e_v A^op): the dual of the projective at v
        over the opposite algebra."""
        return dual(cls.projective(algebra.opposite(), v))

    @classmethod
    def regular(cls, algebra: FinDimAlgebra) -> "Rep":
        return block_sum([cls.projective(algebra, v)
                          for v in range(1, algebra.quiver.n + 1)])

    # -- basics ----------------------------------------------------------------

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_at(self, v: int) -> int:
        return self.dims[v - 1]

    def rho(self, w: Walk) -> Mat:
        """Action matrix of a walk: M_target -> M_source."""
        if len(w) == 1:
            return Mat.identity(self.field, self.dims[w[0] - 1])
        m = self.act[w[1]]
        for ai in w[2:]:
            m = m @ self.act[ai]
        return m

    def rho_basis(self, i: int) -> Mat:
        return self.rho(self.algebra.basis[i])

    def check_relations(self) -> None:
        """Relations and the nilpotency bound must annihilate the module."""
        alg = self.algebra
        for terms, _, _ in alg.presentation.relations:
            acc = None
            for coeff, w in terms:
                m = self.rho(w).scale(coeff)
                acc = m if acc is None else acc + m
            if acc is not None and not acc.is_zero():
                raise PreconditionError("a defining relation acts nonzero")
        # every walk of length N acts as zero iff M rad^N = 0, where
        # (M rad^(j+1))_u is spanned by the arrows from u applied to M rad^j;
        # once every layer is zero, so is every later one
        q = alg.quiver
        layer = [Mat.identity(self.field, d) for d in self.dims]
        for _ in range(alg.nilpotency):
            if not any(m.cols for m in layer):
                break
            layer = [_span(self.field, self.dims[u - 1],
                           [self.act[ai] @ layer[q.arrows[ai].target - 1]
                            for ai in q.arrows_from[u]])
                     for u in range(1, q.n + 1)]
        if any(m.cols for m in layer):
            raise PreconditionError("a walk of forbidden length acts nonzero")

    def __eq__(self, other):
        return (isinstance(other, Rep) and self.algebra is other.algebra
                and self.dims == other.dims and self.act == other.act)

    def __repr__(self):
        return f"Rep(dims={list(self.dims)})"


class Morphism:
    """A module map, one block per vertex (block: source_v -> target_v)."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Rep, target: Rep, blocks: Sequence[Mat]):
        self.source = source
        self.target = target
        self.blocks = tuple(blocks)
        if len(self.blocks) != len(source.dims):
            raise PreconditionError("need one block per vertex")
        for v, b in enumerate(self.blocks):
            if b.rows != target.dims[v] or b.cols != source.dims[v]:
                raise PreconditionError("morphism block shape mismatch")

    @classmethod
    def zero(cls, source: Rep, target: Rep) -> "Morphism":
        f = source.field
        return cls(source, target,
                   [Mat.zeros(f, target.dims[v], source.dims[v])
                    for v in range(len(source.dims))])

    @classmethod
    def identity(cls, m: Rep) -> "Morphism":
        f = m.field
        return cls(m, m, [Mat.identity(f, d) for d in m.dims])

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Composition: apply ``other`` first, then ``self``."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise PreconditionError("composition mismatch")
        return Morphism(other.source, self.target,
                        [a @ b for a, b in zip(self.blocks, other.blocks)])

    def __add__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.source, self.target,
                        [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.source, self.target,
                        [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "Morphism":
        return Morphism(self.source, self.target, [-a for a in self.blocks])

    def scale(self, c) -> "Morphism":
        return Morphism(self.source, self.target,
                        [a.scale(c) for a in self.blocks])

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def is_intertwiner(self) -> bool:
        M, N = self.source, self.target
        for ai, a in enumerate(M.algebra.quiver.arrows):
            left = N.act[ai] @ self.blocks[a.target - 1]
            right = self.blocks[a.source - 1] @ M.act[ai]
            if left != right:
                return False
        return True

    def is_iso(self) -> bool:
        return (self.source.dims == self.target.dims
                and all(b.is_invertible() for b in self.blocks))

    def inverse(self) -> "Morphism":
        return Morphism(self.target, self.source,
                        [b.inverse() for b in self.blocks])

    def flatten(self) -> list:
        out = []
        for b in self.blocks:
            out.extend(b.data)
        return out

    def __eq__(self, other):
        return (isinstance(other, Morphism) and self.blocks == other.blocks
                and self.source.dims == other.source.dims
                and self.target.dims == other.target.dims)

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def block_sum(parts: Sequence[Rep]) -> Rep:
    """The direct sum of ``parts`` alone: each arrow acts block-diagonally,
    one block per part in order; one part is returned as it is.  For
    callers that need no injections or projections.  The sum keeps the
    parts' ``tops``, concatenated, when every part has them."""
    if not parts:
        raise PreconditionError("block_sum needs at least one part")
    if len(parts) == 1:
        return parts[0]
    S = _diagonal_sum(parts[0].algebra, [(p.dims, p.act) for p in parts])
    if all(p.tops is not None for p in parts):
        S.tops = tuple(v for p in parts for v in p.tops)
    return S


def _diagonal_sum(alg: FinDimAlgebra,
                  parts: Sequence[Tuple[Sequence[int], Sequence[Mat]]]) -> Rep:
    """The module on the summed dimension vectors of ``parts`` (one or more
    ``(dims, act)`` pairs) whose arrows act by the block-diagonal sums of
    the parts' matrices, in order; it is the one assembly of a sum, for
    ``block_sum`` and for ``projective_cover`` (which passes the shared
    blocks of each P(v), forming no ``Rep`` per summand).  One part is
    taken as it is: summing it would cost about 2.5 times as much (timeit,
    P(v) of N(6,6) over GF(2)), and every cover ``stable_fp`` builds has one
    summand."""
    if len(parts) == 1:
        dims, act = parts[0]
    else:
        dims = [sum(ds) for ds in zip(*(d for d, _ in parts))]
        act = [_diagonal(alg.field, mats)
               for mats in zip(*(a for _, a in parts))]
    return Rep(alg, dims, act)


def _diagonal(f: Field, mats: Sequence[Mat]) -> Mat:
    """The block-diagonal matrix with ``mats`` down its diagonal; one
    matrix is returned as it is.  It costs about half of ``Mat.block`` on
    small sums (timeit, ``BENCH_be64d08.json``)."""
    if len(mats) == 1:
        return mats[0]
    nrows = ncols = 0
    for m in mats:
        nrows += m.rows
        ncols += m.cols
    data = [f.zero()] * (nrows * ncols)
    base = 0            # the entry of the next block's top left corner
    for m in mats:
        c, src = m.cols, m.data
        if c:
            row = base
            for k in range(0, len(src), c):
                data[row:row + c] = src[k:k + c]
                row += ncols
        base += m.rows * ncols + c
    return Mat(f, nrows, ncols, data)


def block_map(source: Rep, target: Rep, rows: Sequence[Rep],
              cols: Sequence[Rep], blocks: Dict[Tuple[int, int], Morphism]
              ) -> Morphism:
    """The map from ``source`` (the sum of ``cols``) to ``target`` (the sum
    of ``rows``) that is ``blocks[(r, c)]: cols[c] -> rows[r]`` on those
    summands and zero between all others; only the blocks' matrices are read."""
    return Morphism(source, target, [
        Mat.block(source.field, [r.dims[v] for r in rows],
                  [c.dims[v] for c in cols],
                  {k: g.blocks[v] for k, g in blocks.items()})
        for v in range(len(source.dims))])


# -- hom spaces -------------------------------------------------------------


def hom_space(M: Rep, N: Rep) -> List[Morphism]:
    """A basis of Hom(M, N): all tuples of blocks commuting with every
    arrow (``HomBasis(M, N).basis``)."""
    return HomBasis(M, N).basis


def hom_coords(M: Rep, N: Rep) -> HomBasis | YonedaHom:
    """Hom(M, N) with coordinates: by Yoneda (:class:`YonedaHom`) when M
    carries its ``tops``, else as the kernel of the Hom system
    (:class:`HomBasis`).  The two answer the same questions."""
    if M.tops is not None:
        return YonedaHom(M, N)
    return HomBasis(M, N)


class _HomCoords:
    """What the Hom complexes ask of a Hom space with coordinates: the
    matrices of post- and pre-composition with a fixed map.  Here both are
    read off composites of the basis maps; :class:`YonedaHom` assembles
    them from blocks."""

    __slots__ = ()

    def post_matrix(self, d: Morphism, into: "_HomCoords") -> Mat:
        """The matrix of g -> d o g, from these coordinates to those of
        ``into`` = Hom(M, target of d)."""
        return into.coords_matrix([d @ g for g in self.basis])

    def pre_matrix(self, d: Morphism, into: "_HomCoords") -> Mat:
        """The matrix of g -> g o d, from these coordinates to those of
        ``into`` = Hom(source of d, N)."""
        return into.coords_matrix([g @ d for g in self.basis])


class HomBasis(_HomCoords):
    """A basis of Hom(M, N) and coordinates on it, read off its kernel basis.

    The unknowns are the blocks f_v, row-major and vertex by vertex; arrow
    a: u -> v gives the rows N_a f_v - f_u M_a = 0, one per entry, written
    into one flat list from the arrows' matrices.  That list is row-reduced
    once, and ``K``, the system's kernel basis, and the free unknowns
    ``free`` are read off the one echelon form (``linalg._null_space``).
    The columns of K are the flattened basis maps, cut into blocks as they
    stand.  K is the identity on the free unknowns, so a map's coordinates
    are its entries there, with no solve; ``K @ X == B`` certifies them
    (also when Hom(M, N) = 0 and ``free`` is empty).  A combination of
    basis maps is the one product ``K @ c``.  With no unknowns
    (sum_v dim M_v * dim N_v = 0) no system is built: Hom(M, N) = 0.
    """

    __slots__ = ("M", "N", "basis", "K", "free")

    def __init__(self, M: Rep, N: Rep):
        if M.algebra is not N.algebra:
            raise PreconditionError("modules over different algebras")
        self.M = M
        self.N = N
        f = M.field
        q = M.algebra.quiver
        off = _offsets([n * m for n, m in zip(N.dims, M.dims)])
        nvars = off[-1]
        if not nvars:           # no unknowns: Hom(M, N) = 0, no system
            self.K, self.free, self.basis = Mat.zeros(f, 0, 0), (), []
            return
        shapes = [(a.source - 1, a.target - 1) for a in q.arrows]
        nrows = sum(N.dims[u] * M.dims[v] for u, v in shapes)
        sub = f.sub
        data = [f.zero()] * (nrows * nvars)
        base = 0
        for ai, (u, v) in enumerate(shapes):
            nu, nv = N.dims[u], N.dims[v]
            mu, mv = M.dims[u], M.dims[v]
            Na, Ma = N.act[ai].data, M.act[ai].data
            for i in range(nu):
                for j in range(mv):
                    for r in range(nv):
                        c = Na[i * nv + r]
                        if c:
                            data[base + off[v] + r * mv + j] = c
                    for k in range(mu):
                        c = Ma[k * mv + j]
                        if c:
                            x = base + off[u] + i * mu + k
                            data[x] = sub(data[x], c)
                    base += nvars
        self.K, free = _null_space(f, nvars, *_echelon(f, nrows, nvars, data))
        self.free = tuple(free)
        kc = self.K.cols
        self.basis = [self._morphism(self.K.data, kc, j, off)
                      for j in range(kc)]

    def _morphism(self, flat: list, kc: int, j: int,
                  off: List[int]) -> Morphism:
        """The map whose flattened blocks are column j of the row-major
        ``flat`` with ``kc`` columns."""
        M, N = self.M, self.N
        return Morphism(M, N, [
            Mat(M.field, N.dims[v], M.dims[v],
                flat[off[v] * kc + j:off[v + 1] * kc:kc])
            for v in range(len(M.dims))])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of(self, g: Morphism) -> list:
        return self.coords_matrix([g]).data

    def coords_matrix(self, maps: Sequence[Morphism]) -> Mat:
        """Columns: the coordinates of ``maps``, their entries at ``free``."""
        f = self.M.field
        if not maps:
            return Mat.zeros(f, self.dim, 0)
        rows = list(zip(*[g.flatten() for g in maps]))
        B = Mat(f, len(rows), len(maps), [x for r in rows for x in r])
        X = Mat(f, len(self.free), len(maps),
                [x for j in self.free for x in rows[j]])
        if self.K @ X != B:
            raise PreconditionError("map is not a module morphism")
        return X

    def from_coords(self, coords: Sequence) -> Morphism:
        flat = (self.K @ Mat.column(self.M.field, coords)).data
        return self._morphism(flat, 1, 0, _offsets(
            [n * m for n, m in zip(self.N.dims, self.M.dims)]))


class YonedaHom(_HomCoords):
    """Hom(P, N) out of P = P(v_1) + ... + P(v_t) in the standard basis
    (``P.tops``), read by Yoneda: a map is fixed by its values at the top
    generators e_{v_r}, and every tuple of values occurs, so Hom(P, N) is
    N_{v_1} + ... + N_{v_t} and no system is solved.

    The coordinates of g are its columns at the generators, summand by
    summand (``coords_of``), certified by rebuilding g from them.  A map is
    rebuilt from generator values by :func:`_map_from_tops`, the builder of
    ``projective_cover``; the basis maps are the unit values.  Post- and
    pre-composition are assembled from blocks (``post_matrix``,
    ``pre_matrix``) with no composite formed.
    """

    __slots__ = ("M", "N", "dim", "_gens", "_basis")

    def __init__(self, M: Rep, N: Rep):
        if M.algebra is not N.algebra:
            raise PreconditionError("modules over different algebras")
        if M.tops is None:
            raise PreconditionError("Yoneda Hom needs a sum of projectives")
        self.M = M
        self.N = N
        self._gens = _generator_rows(M)
        self.dim = sum(N.dims[v - 1] for v in M.tops)
        self._basis: Optional[List[Morphism]] = None

    @property
    def basis(self) -> List[Morphism]:
        if self._basis is None:
            f = self.M.field
            unit = [f.zero()] * self.dim
            self._basis = []
            for j in range(self.dim):
                unit[j] = f.one()
                self._basis.append(self.from_coords(unit))
                unit[j] = f.zero()
        return self._basis

    def _values(self, coords: Sequence) -> Dict[int, Mat]:
        """Per top vertex v, the values of the summands with top v as the
        columns of one matrix, in summand order."""
        f = self.M.field
        cols: Dict[int, list] = {}
        k = 0
        for v in self.M.tops:
            d = self.N.dims[v - 1]
            cols.setdefault(v, []).append(coords[k:k + d])
            k += d
        return {v: Mat(f, self.N.dims[v - 1], len(cs),
                       [c[i] for i in range(self.N.dims[v - 1]) for c in cs])
                for v, cs in cols.items()}

    def from_coords(self, coords: Sequence) -> Morphism:
        f = self.M.field
        return _map_from_tops(self.M, self.N, self._values(
            [f.coerce(x) for x in coords]))

    def coords_of(self, g: Morphism) -> list:
        out = []
        for v, r in zip(self.M.tops, self._gens):
            out.extend(g.blocks[v - 1].col_list(r))
        if self.from_coords(out) != g:
            raise PreconditionError("map is not a module morphism")
        return out

    def coords_matrix(self, maps: Sequence[Morphism]) -> Mat:
        """Columns: the coordinates of ``maps``."""
        cols = [self.coords_of(g) for g in maps]
        return Mat(self.M.field, self.dim, len(cols),
                   [c[i] for i in range(self.dim) for c in cols])

    def post_matrix(self, d: Morphism, into: _HomCoords) -> Mat:
        """g -> d o g is block diagonal: d's block at v_r on summand r
        (``into`` has the same source, so it is read by Yoneda too)."""
        tops = self.M.tops
        return Mat.block(self.M.field, [d.target.dims[v - 1] for v in tops],
                         [self.N.dims[v - 1] for v in tops],
                         {(r, r): d.blocks[v - 1] for r, v in enumerate(tops)})

    def pre_matrix(self, d: Morphism, into: _HomCoords) -> Mat:
        """g -> g o d for d: Q -> P, Q = P(u_1) + ... + P(u_s): block (r, s)
        is sum_w c_w rho_N(w) over the basis walks w: u_r -> v_s of the s-th
        summand of P, with c_w d's entry at w in the column of Q's r-th
        generator, since g(d(e_{u_r})) = sum_{s, w} c_w rho_N(w) g(e_{v_s}),
        with rho_N(w) from :func:`_walk_image`, one memo per v for the call."""
        if not isinstance(into, YonedaHom):
            return super().pre_matrix(d, into)
        P, N = self.M, self.N
        alg = P.algebra
        f = alg.field
        add, mul = f.add, f.mul
        pbasis = alg.projective_basis
        offsets = _summand_offsets(P)
        rho: Dict[int, Dict[Walk, Tuple[list, int]]] = {}
        col_off = _offsets([N.dims[v - 1] for v in P.tops])
        ncols = col_off[-1]
        data = [f.zero()] * (into.dim * ncols)
        row0 = 0
        for u, gen in zip(into.M.tops, into._gens):
            du = N.dims[u - 1]
            D = d.blocks[u - 1]
            for s, v in enumerate(P.tops):
                dv = N.dims[v - 1]
                if not (du and dv):
                    continue
                base = offsets[s][u - 1]
                for idx, bi in enumerate(pbasis[v - 1][u - 1]):
                    c = D.data[(base + idx) * D.cols + gen]
                    if not c:
                        continue
                    if v not in rho:
                        rho[v] = {(): (Mat.identity(f, dv).data, dv)}
                    R = _walk_image(rho[v], N, alg.basis[bi][1:], range(dv))[0]
                    for i in range(du):
                        x0 = (row0 + i) * ncols + col_off[s]
                        for j in range(dv):
                            y = R[i * dv + j]
                            if y:
                                data[x0 + j] = add(data[x0 + j], mul(c, y))
            row0 += du
        return Mat(f, into.dim, ncols, data)


def _summand_offsets(P: Rep) -> List[List[int]]:
    """For a module with ``tops``: per summand r, per vertex u (index
    u - 1), the first basis index of the r-th summand at u."""
    pdims = P.algebra.projective_basis
    n = len(P.dims)
    here = [0] * n
    out = []
    for v in P.tops:
        out.append(list(here))
        for u in range(n):
            here[u] += len(pdims[v - 1][u])
    return out


def _generator_rows(P: Rep) -> List[int]:
    """For a module with ``tops``: per summand r, the basis index of its
    generator e_{v_r} at v_r."""
    alg = P.algebra
    return [off[v - 1] + alg.projective_basis[v - 1][v - 1].index(alg.e(v))
            for v, off in zip(P.tops, _summand_offsets(P))]


def _walk_image(images: Dict[Walk, Tuple[list, int]], N: Rep, w: Walk,
                G: Optional[Sequence[int]]) -> Tuple[list, int]:
    """rho_N(w) G, flat as (row-major data, ncols), for an arrow walk w
    ending at v; ``images`` memoises it per suffix, G itself at (): the unit
    columns of N_v at the indices ``G``, or any matrix for None.  A missing
    suffix (a,) + s costs one flat product act[a] image(s), shortest first,
    or for one arrow on unit columns none: act[a]'s columns at G."""
    j = 0
    while w[j:] not in images:      # () always is
        j += 1
    for j in range(j - 1, -1, -1):
        s = w[j:]
        a = N.act[s[0]]
        if len(s) == 1 and G is not None:
            images[s] = [a.data[i * a.cols + g] for i in range(a.rows)
                         for g in G], len(G)
        else:
            data, t = images[s[1:]]
            images[s] = _product(N.field, a.data, data, a.rows, a.cols, t), t
    return images[w]


def _map_from_tops(P: Rep, N: Rep, values: Dict[int, object]) -> Morphism:
    """The map P -> N out of P with ``tops`` that sends the generator of
    the k-th summand with top v to column k of the values G at v: the
    matrix ``values[v]``, or, for a list of column indices, the unit
    columns of N_v there (a projective cover's generators).  The basis walk
    w of a summand P(v) maps to rho_N(w) G, flat (:func:`_walk_image`, one
    memo per v for the call): each block is column k of those images,
    summand by summand in the order of P's basis (``projective_basis``)."""
    alg = N.algebra
    f = alg.field
    one, zero = f.one(), f.zero()
    walks = {}
    for v, G in values.items():
        if isinstance(G, Mat):
            images, G = {(): (G.data, G.cols)}, None
        else:       # the unit columns of N_v at G, built directly
            images = {(): ([one if g == i else zero for i in range(
                N.dims[v - 1]) for g in G], len(G))}
        walks[v] = [[_walk_image(images, N, alg.basis[i][1:], G) for i in lst]
                    for lst in alg.projective_basis[v - 1]]
    # per vertex, each column as (image data, its entry in row 0, row stride)
    cols: List[list] = [[] for _ in N.dims]
    seen: Dict[int, int] = {}
    for v in P.tops:
        k = seen[v] = seen.get(v, -1) + 1
        for cu, ims in zip(cols, walks[v]):
            cu.extend((d, k, t) for d, t in ims)
    return Morphism(P, N, [
        Mat(f, N.dims[u], len(cu),
            [d[i * t + k] for i in range(N.dims[u]) for d, k, t in cu])
        for u, cu in enumerate(cols)])


def _lift(g: Morphism, q: Morphism) -> Morphism:
    """h with q o h = g, for g out of a module with ``tops`` into the image
    of q; any other source is refused (lift through its projective cover).

    h is fixed by its values at the generators: one solve per top vertex v,
    q's block at v against g's columns at the generators there, and
    ``q @ h == g`` certifies the result."""
    failed = CheckFailed("projective lift failed (map not into the image?)")
    P = g.source
    if P.tops is None:
        raise PreconditionError("a lift needs a source with tops")
    cols: Dict[int, List[int]] = {}
    for v, r in zip(P.tops, _generator_rows(P)):
        cols.setdefault(v, []).append(r)
    values = {}
    for v, rs in cols.items():
        values[v] = q.blocks[v - 1].solve_matrix(g.blocks[v - 1].take_cols(rs))
        if values[v] is None:
            raise failed
    h = _map_from_tops(P, q.source, values)
    if q @ h != g:
        raise failed
    return h


# -- submodules ----------------------------------------------------------------


def kernel_of(f: Morphism) -> Tuple[Rep, Morphism]:
    """The kernel of f, included by its blocks' kernel bases K_v (free rows
    read off the cached rrefs, ``_null_space``); arrow a: u -> v acts on K_u
    by the coordinates of act[a] K_v, certified by ``_kernel_coords``."""
    M, fld = f.source, f.source.field
    bases, free = zip(*[_null_space(fld, b.cols, R.data, piv) for b, (R, piv)
                        in zip(f.blocks, map(Mat.rref, f.blocks))])
    act = []
    for m, a in zip(M.act, M.algebra.quiver.arrows):
        u, K = a.source - 1, bases[a.target - 1]
        X = _kernel_coords(f.blocks[u], _product(
            fld, m.data, K.data, m.rows, m.cols, K.cols), K.cols, free[u])
        if X is None:
            raise PreconditionError("subspaces are not arrow-invariant")
        act.append(Mat(fld, len(free[u]), K.cols, X))
    K = Rep(M.algebra, [b.cols for b in bases], act)
    return K, Morphism(K, M, bases)


def image_of(f: Morphism) -> Tuple[Rep, Morphism]:
    """The image of f, included by the pivot columns B_v of its blocks.
    With R_v the rref of f_v, f_v = B_v R_v, so arrow a: u -> v acts on the
    image by R_u @ (the source's act[a] at the pivot columns of f_v), with
    no solve; ``act[a] @ B_v == B_u @ X`` certifies it."""
    M, N = f.source, f.target
    rrefs = [b.rref() for b in f.blocks]
    bases = [b.take_cols(piv) for b, (_, piv) in zip(f.blocks, rrefs)]
    act = []
    for ai, a in enumerate(M.algebra.quiver.arrows):
        u, v = a.source - 1, a.target - 1
        X = rrefs[u][0] @ M.act[ai].take_cols(rrefs[v][1])
        if N.act[ai] @ bases[v] != bases[u] @ X:
            raise PreconditionError("subspaces are not arrow-invariant")
        act.append(X)
    I = Rep(M.algebra, [b.cols for b in bases], act)
    return I, Morphism(I, N, bases)


def _span(f: Field, dim: int, pieces: Sequence[Mat]) -> Mat:
    """A basis of the sum of the column spaces of ``pieces`` inside k^dim."""
    if not pieces:
        return Mat.zeros(f, dim, 0)
    m = pieces[0]
    for p in pieces[1:]:
        m = m.hstack(p)
    return m.image_basis()


def _top_cols(M: Rep) -> List[List[int]]:
    """Per vertex v (index v - 1), the free columns of the rref whose rows
    are the image vectors of the arrows from v, which span rad(M)_v: the
    unit vectors there span a complement, so they are M's top generators."""
    q = M.algebra.quiver
    out = []
    for v in range(1, q.n + 1):
        ms = [M.act[ai] for ai in q.arrows_from[v]]
        d = M.dims[v - 1]
        rows = [x for m in ms for j in range(m.cols)
                for x in m.data[j::m.cols]]
        piv = _echelon(M.field, sum(m.cols for m in ms), d, rows)[1]
        out.append(_free_cols(d, piv))
    return out


def projective_cover(M: Rep) -> Tuple[Rep, Morphism]:
    """The projective cover P(M) ->> M (zero module gets the zero cover).

    P(M) has one summand P(v) = e_v A per top generator at v, ordered by
    vertex and then generator: one ``Rep`` whose arrows act by the
    block-diagonal sums (``_diagonal_sum``) of the blocks of each P(v) the
    algebra builds once (``FinDimAlgebra._projective_blocks``), with those
    vertices as its ``tops``; no ``Rep`` is formed per summand.  The
    generators g_1..g_t at v are the unit vectors at ``_top_cols``, the
    free columns of the rref of rad(M)_v (one row per image vector of an
    arrow): with its rows they form a unit-triangular basis, so they span a
    complement.  The map sends the generator of the r-th P(v) to g_r
    (:func:`_map_from_tops` on those unit columns): the basis walk w maps to
    rho(w) g_r with no rho(w) formed, one flat product per arrow suffix.
    """
    alg = M.algebra
    if M.is_zero():
        Z = Rep.zero(alg)
        return Z, Morphism.zero(Z, M)
    values: Dict[int, List[int]] = {
        v: gens for v, gens in enumerate(_top_cols(M), start=1) if gens}
    tops = tuple(v for v, gens in values.items() for _ in gens)
    if tops:
        P = _diagonal_sum(alg, [alg._projective_blocks(v) for v in tops])
        P.tops = tops
    else:       # no top: the rank check refuses a nonzero M
        P = Rep.zero(alg)
    phi = _map_from_tops(P, M, values)
    for v in range(alg.quiver.n):
        if phi.blocks[v].rank() != M.dims[v]:
            raise PreconditionError("projective cover failed to surject")
    return P, phi


def is_projective(M: Rep) -> bool:
    """Is M projective?  A module with ``tops`` is, by construction.
    Otherwise exact and deterministic: M is projective iff its projective
    cover P(M) ->> M is injective, i.e. dim P(M) = dim M, where
    dim P(M) = sum_v dim top(M)_v * dim P(v).  The cover has one P(v) per
    top generator (``_top_cols``), so a nonzero M smaller than every P(v)
    is not projective, with no top formed."""
    if M.tops is not None:
        return True
    pdims = M.algebra.projective_dims
    if 0 < M.total_dim < min(pdims):
        return False
    return M.total_dim == sum(len(t) * pd
                              for t, pd in zip(_top_cols(M), pdims))


def syzygies(M: Rep) -> Iterator[Tuple[Rep, Morphism, Rep, Morphism]]:
    """The syzygies of M along minimal covers, K_0 = M: for j = 0, 1, ...
    yields (P_j, P_j ->> K_j, K_{j+1}, K_{j+1} >-> P_j) and stops after the
    first zero kernel.  Each cover is built only when the next item is
    asked for.  It is the one cover -> kernel loop: ``syzygy``,
    ``minimal_resolution`` and the period searches iterate it."""
    K = M
    while True:
        P, phi = projective_cover(K)
        K, incl = kernel_of(phi)
        yield P, phi, K, incl
        if K.is_zero():
            return


def syzygy(M: Rep) -> Rep:
    """Kernel of the projective cover (zero for projectives)."""
    return next(syzygies(M))[2]


def dual(M: Rep) -> Rep:
    """D(M) = Hom_k(M, k) over ``M.algebra.opposite()``, in the dual bases:
    arrow a: u -> v of A is v -> u in A^op and acts on D(M) by the transpose
    of its matrix in M.  ``dual(dual(M)) == M``."""
    return Rep(M.algebra.opposite(), M.dims, [m.transpose() for m in M.act])


# -- resolutions ------------------------------------------------------------


class Resolution:
    """A minimal projective resolution, possibly truncated at ``bound``."""

    def __init__(self, module: Rep, terms: List[Rep], maps: List[Morphism],
                 aug: Morphism, complete: bool):
        self.module = module
        self.terms = terms          # P_0, P_1, ...
        self.maps = maps            # d_j : P_j -> P_{j-1}, j >= 1
        self.aug = aug              # P_0 -> M
        self.complete = complete

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def check_reach(self, p: int) -> None:
        """The one truncation rule for Ext^p = H^p Hom(P_., N): it reads
        d^p, so it needs P_{p+1} unless the resolution is complete;
        otherwise ``TruncationError`` (``PreconditionError`` for p < 0)."""
        if p < 0:
            raise PreconditionError("negative cohomological degree")
        if not self.complete and p >= self.length:
            raise TruncationError(f"Ext^{p} needs P_{p + 1}: resolution "
                                  f"truncated at length {self.length}")


def minimal_resolution(M: Rep, bound: int) -> Resolution:
    """P_0, ..., P_bound of :func:`syzygies` at most; complete when the last
    syzygy taken is zero."""
    steps = []
    for j, step in enumerate(syzygies(M)):
        steps.append(step)
        if j >= bound:
            break
    maps = [incl @ phi for (_, _, _, incl), (_, phi, _, _)
            in zip(steps, steps[1:])]
    return Resolution(M, [P for P, _, _, _ in steps], maps, steps[0][1],
                      complete=steps[-1][2].is_zero())


def global_dimension(alg: FinDimAlgebra, bound: int) -> Trunc:
    """max over simples of projective-resolution length, truncated."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    best = 0
    for v in range(1, alg.quiver.n + 1):
        res = minimal_resolution(Rep.simple(alg, v), bound)
        if not res.complete:
            return Trunc(bound, exact=False)
        best = max(best, res.length)
    return Trunc(best)


# -- isomorphism and decomposition ----------------------------------------------


def find_iso(M: Rep, N: Rep) -> Optional[Morphism]:
    """An invertible basis element of Hom(M, N), or None.

    The answer None is exact when M or N is indecomposable.  Say M is, so
    End M is local.  If phi: M -> N is an isomorphism, a map g: M -> N is
    one iff phi^-1 g is a unit of End M, so the maps that are not form the
    proper subspace phi rad(End M) of Hom(M, N); no basis fits inside a
    proper subspace.  (For N indecomposable, read rad(End N) phi.)  For two
    decomposable modules, see :func:`iso_q`.
    """
    if M.algebra is not N.algebra:
        raise PreconditionError("modules over different algebras")
    if M.dims != N.dims:
        return None
    if M.total_dim == 0:
        return Morphism.zero(M, N)
    return next((g for g in hom_space(M, N) if g.is_iso()), None)


def iso_q(M: Rep, N: Rep, seed: int = 0) -> bool:
    """Is M isomorphic to N?

    Equal modules (``Rep.__eq__``: the same algebra object, dims and action
    matrices) are, with no Hom space built.  Otherwise an invertible basis
    element of Hom(M, N) settles it (:func:`find_iso`).
    Without one, M is not N when ``decompose(M)`` leaves M whole;
    otherwise the indecomposable summands of M and of N must match one to
    one by :func:`find_iso` (Krull-Schmidt).  ``seed`` changes no answer:
    ``decompose`` depends on M alone.
    """
    if M == N or find_iso(M, N) is not None:
        return True
    if M.dims != N.dims:
        return False
    ms = decompose(M)
    if len(ms) == 1:
        return False
    rest = decompose(N)
    if len(rest) != len(ms):
        return False
    for X in ms:
        hit = next((i for i, Y in enumerate(rest)
                    if find_iso(X, Y) is not None), None)
        if hit is None:
            return False
        del rest[hit]
    return True


def _minimal_poly_roots(A: Mat) -> List:
    """Roots in the base field of the Krylov polynomial of a square matrix
    from the fixed start vector v_i = (-1)^i (i mod 3 + 1), in increasing
    order."""
    field = A.field
    n = A.rows
    if n == 0:
        return []
    v = Mat.column(field, [field.coerce((-1) ** i * (i % 3 + 1))
                           for i in range(n)])
    krylov = [v.data]
    for _ in range(n):
        v = A @ v
        krylov.append(v.data)
    # the first dependence x^deg = sum c_i x^i of v, Av, ..., A^n v: the
    # rref's pivots are the columns 0..deg-1, and its column deg holds c
    R, piv = Mat(field, n, n + 1,
                 [x for row in zip(*krylov) for x in row]).rref()
    deg = len(piv)
    coeffs = [R.get(i, deg) for i in range(deg)]
    if field.p:
        p = field.p
        # Las Vegas: the roots do not depend on the draws
        return _roots_mod_p([-c % p for c in coeffs] + [1], p,
                            random.Random(0))
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    # v_0 = 1, so deg >= 1
    cands = {field.zero()}
    for p in _divisors(abs(int(coeffs[0] * den))):
        for qd in _divisors(den):
            cands.add(field.coerce(Fraction(p, qd)))
            cands.add(field.coerce(Fraction(-p, qd)))
    roots = []
    for lam in sorted(cands):
        acc = field.one()               # x^deg - sum c_i x^i by Horner
        for c in reversed(coeffs):
            acc = field.sub(field.mul(acc, lam), c)
        if field.is_zero(acc):
            roots.append(lam)
    return roots


def _divisors(n: int) -> List[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


# Polynomials over GF(p) are int lists, constant term first, with no zero
# leading coefficient (the zero polynomial is []).


def _poly_divmod(a: List[int], m: List[int],
                 p: int) -> Tuple[List[int], List[int]]:
    r = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    q = [0] * max(len(r) - dm, 0)
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - dm] = c
            for j in range(dm + 1):
                r[i - dm + j] = (r[i - dm + j] - c * m[j]) % p
    del r[dm:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _poly_mulmod(a: List[int], b: List[int], m: List[int],
                 p: int) -> List[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return _poly_divmod(prod, m, p)[1]


def _poly_powmod(a: List[int], e: int, m: List[int], p: int) -> List[int]:
    out = [1]
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, m, p)
        a = _poly_mulmod(a, a, m, p)
        e >>= 1
    return out


def _poly_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    """The monic gcd of a nonzero ``a`` and ``b``."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _poly_sub(a: List[int], b: List[int], p: int) -> List[int]:
    out = [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _roots_mod_p(f: List[int], p: int, rng: random.Random) -> List[int]:
    """The distinct roots in GF(p) of a monic f of degree >= 1, in
    increasing order.

    For p = 2, f is evaluated at 0 and 1.  Otherwise the roots are those of
    g = gcd(f, x^p - x), the product of the distinct linear factors of f,
    and g is split by equal-degree factorisation (Cantor and Zassenhaus
    1981): for a random r, gcd(g, (x + r)^((p-1)/2) - 1) keeps exactly the
    roots t with t + r a nonzero square, so about half of them.
    """
    if p == 2:
        return [t for t in (0, 1) if not (sum(f) if t else f[0]) % 2]
    roots = []
    x = [0, 1]
    stack = [_poly_gcd(f, _poly_sub(_poly_powmod(x, p, f, p), x, p), p)]
    while stack:
        g = stack.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        if len(g) <= 2:
            continue
        while True:
            r = rng.randrange(p)
            w = _poly_powmod([r, 1], (p - 1) // 2, g, p)
            u = _poly_gcd(g, _poly_sub(w, [1], p), p)
            if 1 < len(u) < len(g):
                break
        stack += [u, _poly_divmod(g, u, p)[0]]
    return sorted(roots)


def _fitting_split(M: Rep, f: Morphism) -> Optional[Tuple[Rep, Rep]]:
    """Split M = ker(f^s) + im(f^s) at the stabilized power, if nontrivial."""
    total = M.total_dim
    power = f
    prev_rank = -1
    for _ in range(total + 1):
        r = sum(b.rank() for b in power.blocks)
        if r == prev_rank:
            break
        prev_rank = r
        power = power @ f
    K, _ = kernel_of(power)
    if 0 < K.total_dim < total:
        I, _ = image_of(power)
        return K, I
    return None


def decompose(M: Rep) -> List[Rep]:
    """Indecomposable summands of M (Fitting splittings, exact arithmetic).

    Each basis map f of End(M) is tried in turn: Fitting's lemma on f, then
    on f - lambda for each nonzero root lambda in the base field of f's
    Krylov polynomial (:func:`_minimal_poly_roots`).  The first split found
    is decomposed further.  A module none of these maps splits is returned
    whole: End(M) is not certified local.  No candidate is drawn at random,
    and over GF(p) the roots come from a Las Vegas split, whose answer does
    not depend on its draws, so the summands and their order depend on M
    alone.
    """
    if M.is_zero():
        return []
    endos = HomBasis(M, M)
    if endos.dim == 1:
        return [M]
    for f in endos.basis:
        split = _fitting_split(M, f)
        if split is None:
            for lam in _minimal_poly_roots(_diagonal(M.field, f.blocks)):
                if M.field.is_zero(lam):
                    continue
                shifted = f - Morphism.identity(M).scale(lam)
                split = _fitting_split(M, shifted)
                if split:
                    break
        if split:
            K, I = split
            return decompose(K) + decompose(I)
    return [M]
