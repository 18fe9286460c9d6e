"""m-periodic complexes over a module category, as a DG category.

A ``PeriodicComplex`` is a Z_m-indexed family of modules with differentials
``d^i: V^i -> V^{i+1}`` squaring to zero.  Graded maps of degree p have
components ``f^i: V^i -> W^{i+p mod m}`` and the differential is

    d(f) = d_W o f - (-1)^p f o d_V.

Chain maps are the closed degree-0 maps; two chain maps are homotopic when
their difference is exact.  Degrees of graded maps are genuine integers: the
underlying component spaces only depend on p mod m but the sign (-1)^p does
not, which is exactly the source of the period-2m phenomenon for odd m.
The Hom complex of two bounded (Z-indexed) complexes is the same
construction with degrees read in Z, and one implementation serves both.

Sums of complexes with block upper-triangular differentials (cones, folds,
direct sums and the twisted replacements of ``derivedper``; twisted
complexes in the sense of Bondal-Kapranov) are all built by
:func:`sum_complex`, and maps into or out of them are block rows and columns
(:func:`sum_map`): no canonical injection or projection is formed on the
way.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .common import CheckFailed, PreconditionError
from .linalg import Mat, reduce_mod_rowspace
from .quiver import FinDimAlgebra
from .rep import (HomBasis, Morphism, Rep, Resolution, YonedaHom, _lift,
                  block_map, block_sum, dual, hom_coords, is_projective,
                  kernel_of, projective_cover)


def _check_differential(j: int, d: Morphism, source: Rep, target: Rep
                        ) -> None:
    """The checks on one differential d^j of a complex, periodic or bounded:
    it runs from ``source`` to ``target`` and is a module map."""
    if d.source.dims != source.dims or d.target.dims != target.dims:
        raise PreconditionError(f"differential {j} has wrong ends")
    if not d.is_intertwiner():
        raise PreconditionError(f"differential {j} is not a module map")


class PeriodicComplex:
    """Modules V^0..V^{m-1} with differentials d^i: V^i -> V^{i+1}, d^2 = 0."""

    __slots__ = ("algebra", "m", "comps", "diffs")

    def __init__(self, algebra: FinDimAlgebra, m: int, comps: Sequence[Rep],
                 diffs: Sequence[Morphism], check: bool = True):
        if m < 1:
            raise PreconditionError("period must be >= 1")
        if len(comps) != m or len(diffs) != m:
            raise PreconditionError("need m components and m differentials")
        self.algebra = algebra
        self.m = m
        self.comps = tuple(comps)
        self.diffs = tuple(diffs)
        if check:
            for i in range(m):
                _check_differential(i, self.diffs[i], self.comps[i],
                                    self.comps[(i + 1) % m])
            for i in range(m):
                sq = self.diffs[(i + 1) % m] @ self.diffs[i]
                if not sq.is_zero():
                    raise PreconditionError(f"d^2 != 0 at degree {i}")

    # -- basics -----------------------------------------------------------------

    def component(self, i: int) -> Rep:
        return self.comps[i % self.m]

    def differential(self, i: int) -> Morphism:
        return self.diffs[i % self.m]

    def dim_vector(self) -> List[int]:
        return [c.total_dim for c in self.comps]

    def __eq__(self, other):
        """Strict equality: same components and the same matrices."""
        return (isinstance(other, PeriodicComplex) and self.m == other.m
                and all(a == b for a, b in zip(self.comps, other.comps))
                and all(a == b for a, b in zip(self.diffs, other.diffs)))

    def __repr__(self):
        return f"PeriodicComplex(m={self.m}, dims={self.dim_vector()})"


def stalk_complex(M: Rep, m: int, position: int = 0) -> PeriodicComplex:
    """The complex with M at one position and zeros elsewhere."""
    alg = M.algebra
    comps = [Rep.zero(alg) for _ in range(m)]
    comps[position % m] = M
    diffs = [Morphism.zero(comps[i], comps[(i + 1) % m]) for i in range(m)]
    return PeriodicComplex(alg, m, comps, diffs, check=False)


class GradedMorphism:
    """A degree-p family of module maps f^i: V^i -> W^{(i+p) mod m}."""

    __slots__ = ("source", "target", "degree", "comps")

    def __init__(self, source: PeriodicComplex, target: PeriodicComplex,
                 degree: int, comps: Sequence[Morphism]):
        if source.m != target.m:
            raise PreconditionError("period mismatch")
        self.source = source
        self.target = target
        self.degree = degree
        self.comps = tuple(comps)
        m = source.m
        for i in range(m):
            f = self.comps[i]
            if f.source.dims != source.comps[i].dims or \
                    f.target.dims != target.comps[(i + degree) % m].dims:
                raise PreconditionError(f"graded component {i} has wrong ends")

    @classmethod
    def zero(cls, source: PeriodicComplex,
             target: PeriodicComplex) -> "GradedMorphism":
        return cls(source, target, 0, [Morphism.zero(s, t) for s, t
                                       in zip(source.comps, target.comps)])

    @classmethod
    def identity(cls, V: PeriodicComplex) -> "GradedMorphism":
        return cls(V, V, 0, [Morphism.identity(c) for c in V.comps])

    def dmap(self) -> "GradedMorphism":
        """The DG differential d(f) = d_W o f - (-1)^p f o d_V."""
        m = self.source.m
        p = self.degree
        comps = []
        for i in range(m):
            a = self.target.diffs[(i + p) % m] @ self.comps[i]
            b = self.comps[(i + 1) % m] @ self.source.diffs[i]
            comps.append(a + b if p % 2 else a - b)
        return GradedMorphism(self.source, self.target, p + 1, comps)

    def is_closed(self) -> bool:
        return self.dmap().is_zero()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __matmul__(self, other: "GradedMorphism") -> "GradedMorphism":
        """Composition self o other; degrees add."""
        m = self.source.m
        p = other.degree
        comps = [self.comps[(i + p) % m] @ other.comps[i] for i in range(m)]
        return GradedMorphism(other.source, self.target,
                              self.degree + other.degree, comps)

    def __add__(self, other: "GradedMorphism") -> "GradedMorphism":
        if (self.degree - other.degree) % self.source.m:
            raise PreconditionError("cannot add maps of different degrees")
        return GradedMorphism(self.source, self.target, self.degree,
                              [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "GradedMorphism") -> "GradedMorphism":
        return self + (-other)

    def __neg__(self) -> "GradedMorphism":
        return GradedMorphism(self.source, self.target, self.degree,
                              [-c for c in self.comps])

    def scale(self, c) -> "GradedMorphism":
        return GradedMorphism(self.source, self.target, self.degree,
                              [f.scale(c) for f in self.comps])

    def __repr__(self):
        return f"GradedMorphism(degree={self.degree})"


# -- shift and cone ---------------------------------------------------------------


def shift(V: PeriodicComplex, ell: int) -> PeriodicComplex:
    """V[ell]: components rotate by ell, differentials pick up (-1)^ell.

    The sign depends on the integer ell, not on its residue mod m: V[ell] and
    V[ell + m] have equal components but differentials differing by (-1)^m.
    """
    m = V.m
    sign = V.algebra.field.sign_pow(ell)
    comps = [V.comps[(i + ell) % m] for i in range(m)]
    diffs = [V.diffs[(i + ell) % m].scale(sign) for i in range(m)]
    return PeriodicComplex(V.algebra, m, comps, diffs, check=False)


# -- sums of complexes ------------------------------------------------------------


def sum_complex(alg: FinDimAlgebra, parts: Sequence[Sequence[Rep]],
                blocks: Sequence[Dict[Tuple[int, int], Morphism]],
                check: bool = True) -> PeriodicComplex:
    """The complex with component i the sum of ``parts[i]`` (m = len(parts))
    and d^i the block matrix ``blocks[i]``: ``blocks[i][(r, c)]`` maps
    ``parts[i][c]`` to ``parts[i+1][r]``, and missing blocks are zero.

    Cones, folds and twisted replacements are all sums of this kind (twisted
    complexes), so this is the one place their differentials are assembled.
    """
    m = len(parts)
    comps = [block_sum(p) if p else Rep.zero(alg) for p in parts]
    diffs = [block_map(comps[i], comps[(i + 1) % m], parts[(i + 1) % m],
                       parts[i], blocks[i]) for i in range(m)]
    return PeriodicComplex(alg, m, comps, diffs, check=check)


def sum_map(source: PeriodicComplex, target: PeriodicComplex,
            rows: Sequence[Sequence[Rep]], cols: Sequence[Sequence[Rep]],
            blocks: Sequence[Dict[Tuple[int, int], Morphism]]
            ) -> GradedMorphism:
    """The degree-0 map whose component i is the block matrix ``blocks[i]``
    from the summands ``cols[i]`` of source^i to the summands ``rows[i]`` of
    target^i (see :func:`periodica.rep.block_map`)."""
    return GradedMorphism(source, target, 0, [
        block_map(source.comps[i], target.comps[i], rows[i], cols[i], blocks[i])
        for i in range(source.m)])


def _unsplit(V: PeriodicComplex) -> List[List[Rep]]:
    """Each component of V as a sum with one summand (for block rows)."""
    return [[c] for c in V.comps]


class ConeDiagram:
    """The cone of a chain map with its four structure maps.

    ``xi`` is the degree +1 identity-on-components map V[1] -> V and ``zeta``
    its degree -1 inverse; the defining identities are checked by
    :meth:`verify`.
    """

    def __init__(self, f: GradedMorphism, cone: PeriodicComplex,
                 i_f: GradedMorphism, p_f: GradedMorphism,
                 j_f: GradedMorphism, q_f: GradedMorphism,
                 xi: GradedMorphism, zeta: GradedMorphism):
        self.f = f
        self.cone = cone
        self.i_f = i_f
        self.p_f = p_f
        self.j_f = j_f
        self.q_f = q_f
        self.xi = xi
        self.zeta = zeta

    def verify(self) -> None:
        if not (self.q_f @ self.i_f - GradedMorphism.identity(self.f.target)).is_zero():
            raise CheckFailed("q o i != id")
        V1 = self.j_f.source
        if not (self.p_f @ self.j_f - GradedMorphism.identity(V1)).is_zero():
            raise CheckFailed("p o j != id")
        if not (self.i_f @ self.q_f + self.j_f @ self.p_f
                - GradedMorphism.identity(self.cone)).is_zero():
            raise CheckFailed("i q + j p != id")
        if not self.i_f.dmap().is_zero():
            raise CheckFailed("d(i) != 0")
        if not self.p_f.dmap().is_zero():
            raise CheckFailed("d(p) != 0")
        if not (self.j_f.dmap() - self.i_f @ self.f @ self.xi).is_zero():
            raise CheckFailed("d(j) != i f xi")
        if not (self.q_f.dmap() + self.f @ self.xi @ self.p_f).is_zero():
            raise CheckFailed("d(q) != -f xi p")
        if not (self.xi @ self.zeta - GradedMorphism.identity(self.f.source)).is_zero():
            raise CheckFailed("xi zeta != id")
        if not (self.zeta @ self.xi - GradedMorphism.identity(self.j_f.source)).is_zero():
            raise CheckFailed("zeta xi != id")


def cone(f: GradedMorphism) -> ConeDiagram:
    """Cone of a chain map: C^i = W^i + V^{i+1}, d = [[d_W, f],[0, -d_V]]."""
    if f.degree != 0 or not f.is_closed():
        raise PreconditionError("cone needs a closed degree-0 map")
    V, W = f.source, f.target
    m = V.m
    V1 = shift(V, 1)
    C = _cone(f)
    parts = [[W.comps[i], V1.comps[i]] for i in range(m)]
    maps = []
    for k, X in enumerate((W, V1)):
        ids = [Morphism.identity(c) for c in X.comps]
        maps.append(sum_map(X, C, parts, _unsplit(X),
                            [{(k, 0): e} for e in ids]))
        maps.append(sum_map(C, X, _unsplit(X), parts,
                            [{(0, k): e} for e in ids]))
    i_f, q_f, j_f, p_f = maps
    xi = GradedMorphism(V1, V, 1,
                        [Morphism.identity(V1.comps[i]) for i in range(m)])
    zeta = GradedMorphism(V, V1, -1,
                          [Morphism.identity(V.comps[i]) for i in range(m)])
    return ConeDiagram(f, C, i_f, p_f, j_f, q_f, xi, zeta)


def _cone(f: GradedMorphism, check: bool = True) -> PeriodicComplex:
    """The cone complex alone, of a degree-0 map already known to be closed."""
    V, W = f.source, f.target
    m = V.m
    V1 = shift(V, 1)
    return sum_complex(V.algebra, [[W.comps[i], V1.comps[i]] for i in range(m)],
                       [{(0, 0): W.diffs[i], (0, 1): f.comps[(i + 1) % m],
                         (1, 1): V1.diffs[i]} for i in range(m)], check=check)


def K_of(A: Rep, m: int) -> PeriodicComplex:
    """The contractible two-term complex on a module.

    For m >= 2 it has A in degrees m-1 and 0 with the identity in between;
    for m = 1 it is A+A with the nilpotent shift differential.
    """
    alg = A.algebra
    if m == 1:
        return sum_complex(alg, [[A, A]], [{(0, 1): Morphism.identity(A)}])
    comps = [Rep.zero(alg) for _ in range(m)]
    comps[0] = A
    comps[m - 1] = A
    diffs = [Morphism.zero(comps[i], comps[(i + 1) % m]) for i in range(m)]
    diffs[m - 1] = Morphism.identity(A)
    return PeriodicComplex(alg, m, comps, diffs, check=False)


def complex_direct_sum(parts: Sequence[PeriodicComplex]) -> PeriodicComplex:
    """The direct sum of complexes: block-diagonal differentials."""
    m = parts[0].m
    return sum_complex(parts[0].algebra,
                       [[p.comps[i] for p in parts] for i in range(m)],
                       [{(k, k): p.diffs[i] for k, p in enumerate(parts)}
                        for i in range(m)], check=False)


# -- cohomology -------------------------------------------------------------------


class _CohomData(NamedTuple):
    """The cocycles Z >-> V^i and the cohomology Z ->> H^i."""
    Z: Rep
    inclZ: Morphism
    H: Rep
    projH: Morphism


def _cohom_data(V: PeriodicComplex, i: int) -> _CohomData:
    """Z^i = ker d^i, and H^i = coker(c: V^{i-1} -> Z^i) for c the
    corestricted d^{i-1}, taken as D ker(D c) over A^op (``rep.dual``):
    D c has the blocks of c transposed, and ``projH`` is the kernel's
    inclusion transposed."""
    i = i % V.m
    Z, inclZ = kernel_of(V.diffs[i])
    prev = V.diffs[(i - 1) % V.m]
    blocks = []
    for here, p in zip(V.diffs[i].blocks, prev.blocks):
        X = here.kernel_coords(p)
        if X is None:
            raise PreconditionError("image not inside kernel; d^2 != 0?")
        blocks.append(X.transpose())
    K, incl = kernel_of(Morphism(dual(Z), dual(prev.source), blocks))
    H = dual(K)
    return _CohomData(Z, inclZ, H,
                      Morphism(Z, H, [b.transpose() for b in incl.blocks]))


def cohomology(V: PeriodicComplex, i: int) -> Rep:
    """H^i(V) = ker d^i / im d^{i-1} as a module (:func:`_cohom_data`)."""
    return _cohom_data(V, i).H


def cohomology_dim_vectors(V: PeriodicComplex) -> List[List[int]]:
    """Dimension vectors of H^0(V)..H^{m-1}(V), read off ranks.

    At each vertex v, dim H^i(V)_v = dim V^i_v - rank d^i_v - rank d^{i-1}_v,
    which holds only when d^i_v d^{i-1}_v = 0; that product is checked, so a
    non-complex raises instead of getting a count.
    """
    m = V.m
    out = []
    for i in range(m):
        here, prev = V.diffs[i].blocks, V.diffs[(i - 1) % m].blocks
        dims = []
        for n, a, b in zip(V.comps[i].dims, here, prev):
            if not (a @ b).is_zero():
                raise PreconditionError("image not inside kernel; d^2 != 0?")
            dims.append(n - a.rank() - b.rank())
        out.append(dims)
    return out


def cohomology_dims(V: PeriodicComplex) -> List[int]:
    return [sum(dims) for dims in cohomology_dim_vectors(V)]


def is_acyclic(V: PeriodicComplex) -> bool:
    return not any(cohomology_dims(V))


def is_quasi_iso(f: GradedMorphism) -> bool:
    """Quasi-isomorphism test: the cone is acyclic.

    The cone is built unchecked: :func:`cohomology_dim_vectors` forms every
    d^{i+1} d^i anyway and raises on a nonzero one.
    """
    if f.degree != 0 or not f.is_closed():
        raise PreconditionError("need a chain map")
    return is_acyclic(_cone(f, check=False))


# -- the Hom complex ---------------------------------------------------------------


class _HomComplex:
    """The DG Hom complex of two complexes X, Y over one algebra: Hom^s is
    the sum of the pieces Hom(X^j, Y^{j+s}), d(f) = d_Y o f - (-1)^s f o d_X.
    Each piece is ``rep.hom_coords`` (read by Yoneda when X^j carries its
    tops), built once and only where X^j and Y^{j+s} are both nonzero; the
    differential's blocks are the pieces' post- and pre-composition matrices.
    A subclass fixes the index set (Z or Z/m): ``_degree(j)`` keys degree j
    and ``_nonzero(C)`` gives C's nonzero components and differentials as
    dicts keyed by degree."""

    def __init__(self, X, Y):
        if X.algebra is not Y.algebra:
            raise PreconditionError("different base algebras")
        self.X = X
        self.Y = Y
        self.field = X.algebra.field
        self._xc, self._xd = self._nonzero(X)
        self._yc, self._yd = self._nonzero(Y)
        self._pieces: Dict[Tuple[int, int], HomBasis | YonedaHom] = {}
        self._layouts: Dict[int, List[int]] = {}
        self._dmat: Dict[Tuple[int, int], Mat] = {}

    def piece(self, j: int, jj: int) -> HomBasis | YonedaHom:
        key = (self._degree(j), self._degree(jj))
        got = self._pieces.get(key)
        if got is None:
            got = self._pieces[key] = hom_coords(self.X.component(j),
                                                 self.Y.component(jj))
        return got

    def degree_layout(self, s: int) -> List[int]:
        """The degrees j, increasing, of the nonzero pieces of Hom^s."""
        key = self._degree(s)
        got = self._layouts.get(key)
        if got is None:
            got = self._layouts[key] = [
                j for j in sorted(self._xc)
                if self._degree(j + s) in self._yc and self.piece(j, j + s).dim]
        return got

    def total_dim(self, s: int) -> int:
        return sum(self.piece(j, j + s).dim for j in self.degree_layout(s))

    def diff_matrix(self, s: int) -> Mat:
        """Matrix of d: Hom^s -> Hom^{s+1} in the piece bases; it depends on
        s through its degree key and s mod 2."""
        key = (self._degree(s), s % 2)
        got = self._dmat.get(key)
        if got is not None:
            return got
        src = self.degree_layout(s)
        tgt = {j: r for r, j in enumerate(self.degree_layout(s + 1))}
        blocks: Dict[Tuple[int, int], Mat] = {}
        for c, j in enumerate(src):
            piece = self.piece(j, j + s)
            # d_Y o g lands in target piece j, -(-1)^s g o d_X in piece j-1;
            # a zero differential leaves its block zero
            k = self._degree(j - 1)
            d_Y, d_X = self._yd.get(self._degree(j + s)), self._xd.get(k)
            if j in tgt and d_Y is not None:
                blocks[(tgt[j], c)] = piece.post_matrix(
                    d_Y, self.piece(j, j + s + 1))
            if k in tgt and d_X is not None:
                dn = piece.pre_matrix(d_X, self.piece(k, j + s))
                dn = dn if s % 2 else -dn
                # over Z/1 (k = j) both terms land in one block
                r = tgt[k]
                blocks[(r, c)] = blocks[(r, c)] + dn if (r, c) in blocks else dn
        got = self._dmat[key] = Mat.block(
            self.field, [self.piece(j, j + s + 1).dim for j in tgt],
            [self.piece(j, j + s).dim for j in src], blocks)
        return got

    def homotopy_dim(self, s: int) -> int:
        """dim H^s = dim Hom^s - rank d^s - rank d^{s-1}, with no
        representatives formed; a d^t from or to a zero Hom^t or Hom^{t+1}
        is zero and is not formed."""
        here = self.total_dim(s)
        if not here:
            return 0
        return here - sum(self.diff_matrix(t).rank() for t in (s, s - 1)
                          if self.degree_layout(t) and self.degree_layout(t + 1))


class PeriodicHomComplex(_HomComplex):
    """The m-periodic Hom complex: Hom^p depends on p mod m and d^p on
    (p mod m, p mod 2); graded maps are read in and out of its coordinates."""

    def __init__(self, X: PeriodicComplex, Y: PeriodicComplex):
        if X.m != Y.m:
            raise PreconditionError("period mismatch")
        self.m = X.m
        super().__init__(X, Y)

    def _degree(self, j: int) -> int:
        return j % self.m

    @staticmethod
    def _nonzero(V: PeriodicComplex):
        return ({i: c for i, c in enumerate(V.comps) if not c.is_zero()},
                {i: d for i, d in enumerate(V.diffs) if not d.is_zero()})

    def flatten(self, f: GradedMorphism) -> list:
        """Coordinates of a degree-p graded map in the piece bases; off the
        nonzero pieces only a zero component is a module map."""
        layout = self.degree_layout(f.degree)
        if any(not g.is_zero() for i, g in enumerate(f.comps) if i not in layout):
            raise PreconditionError("map is not a module morphism")
        return [x for i in layout
                for x in self.piece(i, i + f.degree).coords_of(f.comps[i])]

    def unflatten(self, p: int, coords: Sequence) -> GradedMorphism:
        comps = [Morphism.zero(c, self.Y.component(i + p))
                 for i, c in enumerate(self.X.comps)]
        k = 0
        for i in self.degree_layout(p):
            piece = self.piece(i, i + p)
            comps[i] = piece.from_coords(coords[k:k + piece.dim])
            k += piece.dim
        return GradedMorphism(self.X, self.Y, p, comps)

    def homotopy_classes(self, p: int) -> Tuple[int, List[GradedMorphism]]:
        """H^p of the Hom complex: (dimension, representative closed maps).

        The kernel vectors of d^p are reduced modulo the rref R of d^{p-1}'s
        transpose, whose row space is the coboundaries (an rref is unique,
        so no image basis is formed).  The representatives are the reduced
        vectors at the pivot columns of one rref of them: each is
        independent of the vectors before it."""
        field = self.field
        Z = self.diff_matrix(p).kernel_basis()
        R, piv = self.diff_matrix(p - 1).transpose().rref()
        dim = Z.cols - len(piv)
        vecs = [reduce_mod_rowspace(R, piv, Z.col_list(c), field)
                for c in range(Z.cols)]
        keep = Mat(field, Z.rows, Z.cols,
                   [v[i] for i in range(Z.rows) for v in vecs]).rref()[1]
        if len(keep) != dim:
            raise CheckFailed("homotopy classes miscounted (d^2 != 0?)")
        return dim, [self.unflatten(p, vecs[c]) for c in keep]

    def contraction(self) -> Optional[GradedMorphism]:
        """A degree -1 map h with d(h) = id, when one exists."""
        if self.X is not self.Y and self.X != self.Y:
            raise PreconditionError("contraction needs V = W")
        target = self.flatten(GradedMorphism.identity(self.X))
        sol = self.diff_matrix(-1).solve(target)
        if sol is None:
            return None
        return self.unflatten(-1, sol)


def hom_complex(V: PeriodicComplex, W: PeriodicComplex) -> PeriodicHomComplex:
    """The Hom complex from V to W, built afresh and held by nothing
    (``DerivedContext`` builds one per call out of a replacement)."""
    return PeriodicHomComplex(V, W)


def homotopy_hom(V: PeriodicComplex, W: PeriodicComplex, p: int
                 ) -> Tuple[int, List[GradedMorphism]]:
    """Hom in the homotopy category: classes of closed degree-p maps."""
    return hom_complex(V, W).homotopy_classes(p)


def is_contractible(V: PeriodicComplex) -> bool:
    """Is the identity exact in the endomorphism Hom complex?"""
    return hom_complex(V, V).contraction() is not None


# -- bounded complexes and folding ---------------------------------------------------


class BoundedComplex:
    """A finitely supported Z-indexed complex of modules."""

    def __init__(self, algebra: FinDimAlgebra, comps: Dict[int, Rep],
                 diffs: Dict[int, Morphism], check: bool = True):
        self.algebra = algebra
        self.comps = {j: c for j, c in comps.items() if not c.is_zero()}
        self.diffs = {j: d for j, d in diffs.items() if not d.is_zero()}
        if check:
            for j, d in diffs.items():
                _check_differential(j, d, self.component(j),
                                    self.component(j + 1))
            for j, d in self.diffs.items():
                nxt = self.diffs.get(j + 1)
                if nxt is not None and not (nxt @ d).is_zero():
                    raise PreconditionError(f"d^2 != 0 at {j}")

    def component(self, j: int) -> Rep:
        got = self.comps.get(j)
        if got is None:
            return Rep.zero(self.algebra)
        return got

    def differential(self, j: int) -> Morphism:
        got = self.diffs.get(j)
        if got is None:
            return Morphism.zero(self.component(j), self.component(j + 1))
        return got

    @property
    def lo(self) -> int:
        return min(self.comps) if self.comps else 0

    @property
    def hi(self) -> int:
        return max(self.comps) if self.comps else 0

    def __repr__(self):
        return f"BoundedComplex(degrees {sorted(self.comps)})"


def fold(C: BoundedComplex, m: int) -> Tuple[PeriodicComplex, List[List[int]]]:
    """Wrap a bounded complex around Z_m: component i is the sum of the C^j
    with j = i mod m, in increasing j, and d^j maps the summand C^j to the
    summand C^{j+1}.  Differentials fold without signs.

    Returns the periodic complex and its layout: ``layout[i]`` lists the
    degrees j folded into component i, in summand order.
    """
    layout: List[List[int]] = [[] for _ in range(m)]
    for j in sorted(C.comps):
        layout[j % m].append(j)
    blocks = [{(layout[(i + 1) % m].index(j + 1), k): C.diffs[j]
               for k, j in enumerate(js) if j in C.diffs}
              for i, js in enumerate(layout)]
    P = sum_complex(C.algebra, [[C.comps[j] for j in js] for js in layout],
                    blocks)
    return P, layout


def unroll(V: PeriodicComplex, lo: int, hi: int) -> BoundedComplex:
    """A window of the Z-periodic unrolling: degrees lo..hi, d^j = d^{j mod m}."""
    if lo > hi:
        raise PreconditionError("need lo <= hi")
    comps = {j: V.comps[j % V.m] for j in range(lo, hi + 1)}
    diffs = {j: V.diffs[j % V.m] for j in range(lo, hi)}
    return BoundedComplex(V.algebra, comps, diffs, check=False)


def resolution_complex(res: Resolution, upto: Optional[int] = None
                       ) -> BoundedComplex:
    """A resolution as a bounded complex: P_j in degree -j, for j <= upto
    (every term by default), with d^{-j} = d_j: P_j -> P_{j-1}."""
    terms = res.terms if upto is None else res.terms[:upto + 1]
    return BoundedComplex(res.module.algebra,
                          {-j: P for j, P in enumerate(terms)},
                          {-j: res.maps[j - 1] for j in range(1, len(terms))},
                          check=False)


class BoundedHomComplex(_HomComplex):
    """The Hom complex of two bounded complexes.  With X a resolution
    (:func:`resolution_complex`) and Y a module in degree 0, H^s is Ext^s."""

    @staticmethod
    def _degree(j: int) -> int:
        return j

    @staticmethod
    def _nonzero(X: BoundedComplex):
        return X.comps, X.diffs


def bounded_homotopy_hom_dim(X: BoundedComplex, Y: BoundedComplex, s: int) -> int:
    """dim of Hom(X, Y[s]) in the bounded homotopy category."""
    return BoundedHomComplex(X, Y).homotopy_dim(s)


# -- acyclic complexes of projectives -----------------------------------------------


def decompose_acyclic_projective(V: PeriodicComplex
                                 ) -> List[Tuple[Rep, int]]:
    """Split an acyclic complex of projectives into shifted K-blocks.

    Returns pairs (P_i, ell_i) with the rebuilt sum of K_{P_i}[ell_i]
    isomorphic to V in the strict category; raises when a cocycle fails to be
    projective (which signals a precondition violation).
    """
    m = V.m
    alg = V.algebra
    if not is_acyclic(V):
        raise PreconditionError("complex is not acyclic")
    for i, c in enumerate(V.comps):
        if not is_projective(c):
            raise PreconditionError(f"component {i} is not projective")
    cocycles = []
    for i in range(m):
        Z, inclZ = kernel_of(V.diffs[i])
        if not is_projective(Z):
            raise PreconditionError(
                f"cocycle Z^{i} is not projective; decomposition impossible")
        cocycles.append((Z, inclZ))
    # sections of D: V^i ->> Z^{i+1}: the cover pi of Z^{i+1}, an isomorphism
    # as Z^{i+1} is projective, lifted through D and undone
    out = []
    summands = []
    for i in range(m):
        Z, inclZ = cocycles[(i + 1) % m]
        if Z.is_zero():
            continue
        D = Morphism(V.comps[i], Z, [
            d.kernel_coords(b) for d, b in
            zip(V.diffs[(i + 1) % m].blocks, V.diffs[i].blocks)])
        pi = projective_cover(Z)[1]
        summands.append((i, Z, inclZ, _lift(pi, D) @ pi.inverse()))
    # assemble the isomorphism sum K_{Z^{i+1}}[-(i+1)] -> V and verify it;
    # blocks[t][(0, k)] is the map from the k-th block's component t to V^t
    parts = []
    blocks: List[Dict[Tuple[int, int], Morphism]] = [{} for _ in range(m)]
    for i, Z, inclZ, section in summands:
        k = len(parts)
        if m == 1:
            # K is Z+Z in degree 0; (a, b) -> incl(a) + section(b) is a chain map
            parts.append(K_of(Z, 1))
            blocks[0][(0, k)] = block_map(parts[k].comps[0], V.comps[0],
                                          [V.comps[0]], [Z, Z],
                                          {(0, 0): inclZ, (0, 1): section})
        else:
            parts.append(shift(K_of(Z, m), -(i + 1)))
            blocks[i][(0, k)] = section.scale(alg.field.sign_pow(i + 1))
            blocks[(i + 1) % m][(0, k)] = inclZ
        out.append((Z, 0 if m == 1 else -(i + 1) % m))
    if not parts:
        return []
    glue = sum_map(complex_direct_sum(parts), V, _unsplit(V),
                   [[K.comps[t] for K in parts] for t in range(m)], blocks)
    if not glue.is_closed():
        raise CheckFailed("assembled comparison map is not a chain map")
    for t in range(m):
        blocks = glue.comps[t]
        if blocks.source.dims != V.comps[t].dims or not blocks.is_iso():
            raise CheckFailed("assembled comparison map is not invertible")
    return out
