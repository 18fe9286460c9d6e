"""The m-periodic derived category of a finite-global-dimension algebra.

Morphism spaces are computed through K-projective replacements: every
periodic complex receives a surjective quasi-isomorphism from a complex with
projective components, built by peeling one degree at a time into stalk
pieces (each resolved and folded) and gluing the pieces back along
componentwise-exact sequences.  The gluing step lifts the extension through
the replacement of the sub, which is a finite linear solve here: its system
is assembled blockwise from Hom coordinates per (piece, term), and the glued
replacement is the twisted sum PA + PC of ``percomplex.sum_complex``.

Over a hereditary algebra a complex splits into its cohomology without being
replaced (Prop. 3.25): the minimal resolution 0 -> P1 -> P0 -> H^t(V) -> 0
of each cohomology module lifts into V (P0 through the cocycles, P1 through
the differential), and its fold F_t maps both to V and onto the stalk of
H^t(V) at t.  Both sums are certified quasi-isomorphisms, which gives the
roof V <~ sum_t F_t ~> sum_t H^t(V)[-t].

Over algebras of infinite global dimension none of this applies; only
cohomology-level certificates are offered (see
:func:`distinct_stalks_d2_dual_numbers`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .common import CheckFailed, PreconditionError, TruncationError
from .families import all_intervals, is_linear_a, dual_numbers
from .fields import Field
from .linalg import Mat
from .percomplex import (BoundedComplex, GradedMorphism, PeriodicComplex,
                         _cohom_data, _unsplit, cohomology_dim_vectors,
                         cohomology_dims, complex_direct_sum, fold,
                         homotopy_hom, is_quasi_iso, shift, stalk_complex,
                         sum_complex, sum_map, zero_complex)
from .quiver import FinDimAlgebra
from .rep import (ExtCochains, HomBasis, Morphism, Rep, Resolution,
                  block_map, decompose, global_dimension, hom_space,
                  is_projective, kernel_of, minimal_resolution, quotient_rep)


def _retarget(f: GradedMorphism, target: PeriodicComplex) -> GradedMorphism:
    return GradedMorphism(f.source, target, f.degree, f.comps)


def _lift(g: Morphism, q: Morphism) -> Morphism:
    """h with q o h = g, for g out of a projective into the image of q."""
    basis = HomBasis(g.source, q.source)
    coords = HomBasis(g.source, q.target)
    sol = coords.coords_matrix([q @ b for b in basis.basis]).solve(
        coords.coords_of(g))
    if sol is None:
        raise CheckFailed("projective lift failed (map not into the image?)")
    return basis.from_coords(sol)


def resolution_to_bounded(res: Resolution) -> BoundedComplex:
    """A minimal resolution as a complex in degrees -length..0."""
    comps = {-j: P for j, P in enumerate(res.terms)}
    diffs = {-j: res.maps[j - 1] for j in range(1, len(res.terms))}
    return BoundedComplex(res.module.algebra, comps, diffs, check=False)


class DerivedContext:
    """Replacement and Hom computations for one (algebra, period).

    The context holds the stalk complex of a module per position, its
    minimal resolution and the K-projective replacement of a complex, each
    by the identity of the object: derived Hom and the Ext-sum check ask for
    the same stalks and replacements again and again, so each is built
    once.  Equal but distinct objects are recomputed, and cached values hold
    their keys, so no id is recycled while it is cached.  The pieces a
    replacement peels off are fresh objects, resolved and replaced uncached.

    A module at position p is replaced by folding its minimal resolution,
    with P0 in degree p, onto the stalk at p: the augmentation maps the
    summand P0 of the fold's component p onto the module.
    """

    def __init__(self, algebra: FinDimAlgebra, m: int, bound: int = 24):
        if m < 1:
            raise PreconditionError(f"period must be >= 1, got {m}")
        self.algebra = algebra
        self.m = m
        self.bound = bound
        gd = global_dimension(algebra, bound)
        if not gd.exact:
            raise PreconditionError(
                "the derived layer needs finite global dimension; "
                f"resolutions still grow at length {bound}")
        self.gd = gd.value
        self._repl: Dict[int, Tuple[PeriodicComplex, GradedMorphism]] = {}
        self._res: Dict[int, Resolution] = {}
        self._stalks: Dict[Tuple[int, int], PeriodicComplex] = {}

    # -- stalks and their resolutions --------------------------------------------

    def stalk(self, M: Rep, position: int = 0) -> PeriodicComplex:
        """The stalk complex of M at a position, one object per (M, position)."""
        key = (id(M), position % self.m)
        S = self._stalks.get(key)
        if S is None:
            S = stalk_complex(M, self.m, position)
            self._stalks[key] = S
        return S

    def resolution(self, M: Rep) -> Resolution:
        res = self._res.get(id(M))
        if res is None:
            res = self._resolve(M)
            self._res[id(M)] = res
        return res

    def _resolve(self, M: Rep) -> Resolution:
        """A complete minimal resolution of M, not cached."""
        res = minimal_resolution(M, self.bound)
        if not res.complete:
            raise TruncationError("projective resolution exceeded bound")
        return res

    def fold_resolution(self, M: Rep, position: int = 0
                        ) -> Tuple[PeriodicComplex, GradedMorphism]:
        """Fold a minimal resolution of M onto the stalk of M at a position."""
        return self._fold(M, position, self.resolution)

    def _fold(self, M: Rep, position: int,
              resolve: Callable[[Rep], Resolution]
              ) -> Tuple[PeriodicComplex, GradedMorphism]:
        m = self.m
        target = stalk_complex(M, m, position)
        if M.is_zero():
            Z = zero_complex(self.algebra, m)
            return Z, GradedMorphism.zero(Z, target)
        res = resolve(M)
        # the resolution with P0 in degree ``position``
        B = resolution_to_bounded(res).shifted(-position)
        F, layout = fold(B, m)
        comps = [Morphism.zero(F.comps[i], target.comps[i]) for i in range(m)]
        # the augmentation on the summand P0 of F at the position
        i = position % m
        comps[i] = block_map(F.comps[i], M, [M],
                             [B.comps[j] for j in layout[i]],
                             {(0, layout[i].index(position)): res.aug})
        phi = GradedMorphism(F, target, 0, comps)
        if not phi.is_closed():
            raise CheckFailed("folded resolution map fails to be a chain map")
        return phi.source, phi

    # -- the gluing step ----------------------------------------------------------

    def _glue(self, incl: GradedMorphism, proj: GradedMorphism,
              pA: GradedMorphism, pC: GradedMorphism
              ) -> Tuple[PeriodicComplex, GradedMorphism]:
        """Given 0 -> A -> B -> C -> 0 componentwise exact and replacements
        pA: PA ->> A, pC: PC ->> C, produce a replacement PB ->> B."""
        m = self.m
        field = self.algebra.field
        A, B = incl.source, incl.target
        PA, PC = pA.source, pC.source

        # componentwise lifts h^i with proj o h = pC
        h = [_lift(pC.comps[i], proj.comps[i]) for i in range(m)]

        # the defect lands in A; corestrict it
        defect: List[Morphism] = []
        for i in range(m):
            d = (B.diffs[i] @ h[i]) - (h[(i + 1) % m] @ PC.diffs[i])
            blocks = []
            for v in range(len(A.comps[(i + 1) % m].dims)):
                X = incl.comps[(i + 1) % m].blocks[v].solve_matrix(d.blocks[v])
                if X is None:
                    raise CheckFailed("defect escapes the subcomplex")
                blocks.append(X)
            defect.append(Morphism(PC.comps[i], A.comps[(i + 1) % m], blocks))

        # solve for sigma (degree 1 into PA, closed) and g (degree 0 into A):
        #   pA o sigma + d_A o g - g o d_PC = defect,  d_PA o sigma + sigma o d_PC = 0
        # unknowns: the sigma^i, then the g^i; equations: the first family
        # in degrees 0..m-1, then the second
        sig_bases = [HomBasis(PC.comps[i], PA.comps[(i + 1) % m])
                     for i in range(m)]
        g_bases = [HomBasis(PC.comps[i], A.comps[i]) for i in range(m)]
        eqA = [HomBasis(PC.comps[i], A.comps[(i + 1) % m]) for i in range(m)]
        eqB = [HomBasis(PC.comps[i], PA.comps[(i + 2) % m]) for i in range(m)]
        cells: Dict[Tuple[int, int], Mat] = {}

        def put(r: int, c: int, eq: HomBasis, maps: List[Morphism]) -> None:
            # at m = 1 two terms share a block and add up
            X = eq.coords_matrix(maps)
            cells[(r, c)] = cells[(r, c)] + X if (r, c) in cells else X

        for i in range(m):
            k = (i - 1) % m
            sig, g = sig_bases[i].basis, g_bases[i].basis
            put(i, i, eqA[i], [pA.comps[(i + 1) % m] @ x for x in sig])
            put(m + i, i, eqB[i], [PA.diffs[(i + 1) % m] @ x for x in sig])
            put(m + k, i, eqB[k], [x @ PC.diffs[k] for x in sig])
            put(i, m + i, eqA[i], [A.diffs[i] @ x for x in g])
            put(k, m + i, eqA[k], [-(x @ PC.diffs[k]) for x in g])
        system = Mat.block(field, [e.dim for e in eqA + eqB],
                           [b.dim for b in sig_bases + g_bases], cells)
        rhs = [c for i in range(m) for c in eqA[i].coords_of(defect[i])]
        rhs += [field.zero()] * (system.rows - len(rhs))
        sol = system.solve(rhs)
        if sol is None:
            raise CheckFailed("extension lifting system is inconsistent")
        found = []
        for hb in sig_bases + g_bases:
            found.append(hb.from_coords(sol[:hb.dim]))
            sol = sol[hb.dim:]
        sigma, corr = found[:m], found[m:]
        h = [h[i] - (incl.comps[i] @ corr[i]) for i in range(m)]

        # PB = PA + PC with twisted differential [[d, sigma],[0, d]]
        parts = [[PA.comps[i], PC.comps[i]] for i in range(m)]
        PB = sum_complex(self.algebra, parts,
                         [{(0, 0): PA.diffs[i], (0, 1): sigma[i],
                           (1, 1): PC.diffs[i]} for i in range(m)])
        pB = sum_map(PB, B, _unsplit(B), parts,
                     [{(0, 0): incl.comps[i] @ pA.comps[i], (0, 1): h[i]}
                      for i in range(m)])
        if not pB.is_closed():
            raise CheckFailed("glued replacement map is not a chain map")
        for i in range(m):
            for v in range(len(B.comps[i].dims)):
                if pB.comps[i].blocks[v].rank() != B.comps[i].dims[v]:
                    raise CheckFailed("glued replacement is not surjective")
        return PB, pB

    # -- replacement --------------------------------------------------------------

    def replacement(self, V: PeriodicComplex
                    ) -> Tuple[PeriodicComplex, GradedMorphism]:
        got = self._repl.get(id(V))
        if got is not None:
            return got
        result = self._replacement(V)
        self._repl[id(V)] = result
        return result

    def _replacement(self, V: PeriodicComplex
                     ) -> Tuple[PeriodicComplex, GradedMorphism]:
        # The peeled remainder W, the cocycles Z and the quotient Tq are fresh
        # objects never looked up again: replace and resolve them uncached.
        m = self.m
        if V.is_zero_complex():
            Z = zero_complex(self.algebra, m)
            return Z, GradedMorphism.zero(Z, V)
        if all(is_projective(c) for c in V.comps):
            return V, GradedMorphism.identity(V)
        if all(d.is_zero() for d in V.diffs):
            # the sum of the folded resolutions of the components, each
            # mapping to its component only
            parts: List[PeriodicComplex] = []
            blocks: List[Dict[Tuple[int, int], Morphism]] = [{} for _ in range(m)]
            for i in V.support():
                Pi, phi = self.fold_resolution(V.comps[i], i)
                blocks[i][(0, len(parts))] = phi.comps[i]
                parts.append(Pi)
            total = complex_direct_sum(parts)
            p = sum_map(total, V, _unsplit(V),
                        [[P.comps[t] for P in parts] for t in range(m)], blocks)
            assert p.is_closed()
            return total, p
        # peel at the first position with a nonzero component
        i0 = V.support()[0]
        Z, inclZ = kernel_of(V.diffs[i0])
        # U: V with Z at position i0 and no outgoing differential there
        u_comps = list(V.comps)
        u_comps[i0] = Z
        u_diffs = []
        for i in range(m):
            if i == i0:
                u_diffs.append(Morphism.zero(Z, u_comps[(i0 + 1) % m]))
            elif (i + 1) % m == i0:
                blocks = []
                for here, prev in zip(V.diffs[i0].blocks, V.diffs[i].blocks):
                    X = here.kernel_coords(prev)
                    if X is None:
                        raise CheckFailed("differential misses the cocycles")
                    blocks.append(X)
                u_diffs.append(Morphism(V.comps[i], Z, blocks))
            else:
                u_diffs.append(V.diffs[i])
        U = PeriodicComplex(self.algebra, m, u_comps, u_diffs)

        # W: U with position i0 removed entirely
        w_comps = list(u_comps)
        w_comps[i0] = Rep.zero(self.algebra)
        w_diffs = []
        for i in range(m):
            if i == i0:
                w_diffs.append(Morphism.zero(w_comps[i0],
                                             w_comps[(i0 + 1) % m]))
            elif (i + 1) % m == i0:
                w_diffs.append(Morphism.zero(w_comps[i], w_comps[i0]))
            else:
                w_diffs.append(u_diffs[i])
        W = PeriodicComplex(self.algebra, m, w_comps, w_diffs,
                            check=(m <= 2))
        pW = self._replacement(W)
        if Z.is_zero():
            PU, pU = pW[0], _retarget(pW[1], U)
        else:
            pS = self._fold(Z, i0, self._resolve)[1]
            S = pS.target
            incl_su = GradedMorphism(
                S, U, 0,
                [Morphism.identity(Z) if i == i0
                 else Morphism.zero(S.comps[i], U.comps[i]) for i in range(m)])
            proj_uw = GradedMorphism(
                U, W, 0,
                [Morphism.zero(Z, w_comps[i0]) if i == i0
                 else Morphism.identity(u_comps[i]) for i in range(m)])
            PU, pU = self._glue(incl_su, proj_uw, pS, pW[1])
        if Z.total_dim == V.comps[i0].total_dim:
            # no quotient stalk: U was V itself
            return PU, _retarget(pU, V)
        Tq, projq = quotient_rep(V.comps[i0], inclZ.blocks)
        pT = self._fold(Tq, i0, self._resolve)[1]
        T = pT.target
        incl_uv = GradedMorphism(
            U, V, 0,
            [inclZ if i == i0 else Morphism.identity(V.comps[i])
             for i in range(m)])
        proj_vt = GradedMorphism(
            V, T, 0,
            [projq if i == i0 else Morphism.zero(V.comps[i], T.comps[i])
             for i in range(m)])
        return self._glue(incl_uv, proj_vt, pU, pT)

    # -- derived Hom ---------------------------------------------------------------

    def derived_hom(self, V: PeriodicComplex, W: PeriodicComplex, p: int
                    ) -> Tuple[int, List[GradedMorphism]]:
        PV, _ = self.replacement(V)
        PW, _ = self.replacement(W)
        return homotopy_hom(PV, PW, p)

    def derived_hom_modules(self, M: Rep, N: Rep, p: int) -> int:
        return self.derived_hom(self.stalk(M), self.stalk(N), p)[0]


# -- module-level Ext (the independent side of the sum formula) ---------------------


def ext_dims(M: Rep, N: Rep, up_to: int, bound: int = 24) -> List[int]:
    """dim Ext^j(M, N) for j = 0..up_to, from a minimal resolution of M
    truncated at ``bound``: Ext^j needs P_{j+1} unless the resolution is
    complete, so a degree past reach raises ``TruncationError``."""
    if M.is_zero() or N.is_zero():
        return [0] * (up_to + 1)
    return _ext_dims(minimal_resolution(M, bound), N, up_to)


def _ext_dims(res: Resolution, N: Rep, up_to: int) -> List[int]:
    """dim Ext^j(M, N) for j = 0..up_to, from a resolution of M."""
    ext = ExtCochains(res, N)
    return [ext.dim(j) for j in range(up_to + 1)]


def ext_sum_check(ctx: DerivedContext, M: Rep, N: Rep) -> dict:
    """Compare derived Hom of stalks against the lacunary Ext sum, degreewise."""
    m = ctx.m
    res = ctx.resolution(M)
    exts = _ext_dims(res, N, max(res.length, m))
    rows = []
    ok = True
    for p in range(m):
        lhs = ctx.derived_hom_modules(M, N, p)
        terms = [exts[j] for j in range(p, len(exts), m)]
        rhs = sum(terms)
        rows.append({"degree": p, "derived_dim": lhs,
                     "ext_terms": terms, "ext_sum": rhs,
                     "match": lhs == rhs})
        ok = ok and lhs == rhs
    return {"module_dims": [M.total_dim, N.total_dim],
            "period": m, "rows": rows, "match": ok}


# -- hereditary decomposition --------------------------------------------------------


def hereditary_decompose(ctx: DerivedContext, V: PeriodicComplex) -> dict:
    """Split V (up to quasi-isomorphism) into cohomology stalks; gd <= 1 only.

    For each t with H = H^t(V) nonzero, the minimal resolution
    0 -> P1 -> P0 -> H -> 0 lifts into V: P0 -> H through the cocycles
    Z^t ->> H, then P1 -> Z^t through the differential V^{t-1} -> B^t, both
    possible because P0 and P1 are projective.  The fold F_t of P1 -> P0 at
    degrees t-1, t maps to V and onto the stalk of H at t.  The verified roof
    is V <~ sum of the F_t ~> sum of stalks: the sum is assembled blockwise
    from the P0, P1 and the maps as block rows, both maps are chain maps and
    both are checked to be quasi-isomorphisms.
    """
    if ctx.gd > 1:
        raise PreconditionError("hereditary decomposition needs gd <= 1")
    m = ctx.m
    alg = ctx.algebra
    cohom = cohomology_dims(V)
    positions = [t for t in range(m) if cohom[t]]
    if not positions:
        # V is acyclic: the zero complex is already its decomposition
        return {"stalks": [], "cohomology": cohom,
                "stalk_cohomology": [0] * m, "verified": True}
    # the sum of the F_t: terms[i] are the summands of its component i;
    # d, to_V and to_S hold the blocks of its differential and of its maps
    # to V and to the sum of the stalks
    terms: List[List[Rep]] = [[] for _ in range(m)]
    stalks: List[List[Rep]] = [[] for _ in range(m)]
    d, to_V, to_S = ([{} for _ in range(m)] for _ in range(3))
    for t in positions:
        data = _cohom_data(V, t)
        res = ctx._resolve(data.H)
        a0 = data.inclZ @ _lift(res.aug, data.projH)
        j0 = len(terms[t])
        to_V[t][(0, j0)] = a0
        to_S[t][(0, j0)] = res.aug
        terms[t].append(res.terms[0])
        stalks[t].append(data.H)
        if len(res.terms) > 1:
            k = (t - 1) % m
            d[k][(j0, len(terms[k]))] = res.maps[0]
            to_V[k][(0, len(terms[k]))] = _lift(a0 @ res.maps[0], V.diffs[k])
            terms[k].append(res.terms[1])
    total = sum_complex(alg, terms, d)
    stalk_sum = sum_complex(alg, stalks, [{} for _ in range(m)], check=False)
    f = sum_map(total, V, _unsplit(V), terms, to_V)
    s = sum_map(total, stalk_sum, stalks, terms, to_S)
    if not f.is_closed():
        raise CheckFailed("lifted resolutions do not form a chain map")
    if not s.is_closed():
        raise CheckFailed("stalk projection is not a chain map")
    cohom_out = cohomology_dims(stalk_sum)
    return {
        "stalks": [{"position": t, "shift": (-t) % m,
                    "dims": list(stalks[t][0].dims)} for t in positions],
        "cohomology": cohom,
        "stalk_cohomology": cohom_out,
        "verified": bool(is_quasi_iso(f) and is_quasi_iso(s)
                         and cohom == cohom_out),
    }


def list_indecomposables_hereditary(alg: FinDimAlgebra, m: int) -> dict:
    """Interval modules times shifts: the indecomposables of the periodic
    derived category of a linearly oriented A_n algebra."""
    if not is_linear_a(alg):
        raise PreconditionError("only linear A_n quivers are supported here")
    objs = []
    seen = set()
    for (a, b), M in all_intervals(alg):
        for s in range(m):
            objs.append({"interval": [a, b], "shift": s,
                         "dims": list(M.dims)})
            # M[s] is the stalk of M at -s; cohomology descends to D_m, so
            # distinct dimension vectors certify non-isomorphic objects
            H = cohomology_dim_vectors(stalk_complex(M, m, -s))
            seen.add(tuple(map(tuple, H)))
    return {"count": len(objs), "objects": objs,
            "pairwise_distinct": len(seen) == len(objs)}


# -- stalk tilting -----------------------------------------------------------------


def stalk_tilting_check(ctx: DerivedContext) -> dict:
    """Is the regular module a periodic tilting object of D_m?

    (a) rigidity: Hom to shifted copies vanishes away from multiples of m;
    (b) generation: every simple is reached from shifted projective stalks by
        the componentwise-split truncation triangles of its folded resolution.
    """
    alg = ctx.algebra
    m = ctx.m
    Lam = Rep.regular(alg)
    LS = stalk_complex(Lam, m)
    rig = []
    rig_ok = True
    for i in range(m):
        d, _ = homotopy_hom(LS, LS, i)
        expect = Lam.total_dim if i % m == 0 else 0
        rig.append({"shift": i, "dim": d, "expected": expect})
        rig_ok = rig_ok and d == expect
    witnesses = []
    gen_ok = True
    for v in range(1, alg.quiver.n + 1):
        S = Rep.simple(alg, v)
        res = ctx.resolution(S)
        B = resolution_to_bounded(res)
        steps = []
        # X_k = fold of the truncation to degrees -k..0; each step extends by
        # the stalk of P_k placed at position -k, componentwise split exact
        prev = None
        for k in range(len(res.terms)):
            comps = {-j: res.terms[j] for j in range(k + 1)}
            diffs = {-j: res.maps[j - 1] for j in range(1, k + 1)}
            Xk, _ = fold(BoundedComplex(alg, comps, diffs, check=False), m)
            split_ok = True
            if prev is not None:
                for i in range(m):
                    extra = res.terms[k].total_dim if (-k) % m == i else 0
                    if Xk.comps[i].total_dim != prev.comps[i].total_dim + extra:
                        split_ok = False
            steps.append({
                "step": k,
                "added_projective_dims": list(res.terms[k].dims),
                "at_shift": (-k) % m,
                "graded_split": split_ok,
            })
            gen_ok = gen_ok and split_ok
            prev = Xk
        PS, phi = ctx.fold_resolution(S, 0)
        qis_ok = is_quasi_iso(phi)
        gen_ok = gen_ok and qis_ok
        witnesses.append({
            "simple": v,
            "resolution_length": len(res.terms) - 1,
            "steps": steps,
            "reaches_simple": qis_ok,
        })
    return {
        "algebra": alg.label,
        "period": m,
        "regular_dim": Lam.total_dim,
        "rigidity": rig,
        "rigidity_ok": rig_ok,
        "generation": witnesses,
        "generation_ok": gen_ok,
        "pass": bool(rig_ok and gen_ok),
    }


# -- the infinite-global-dimension example -----------------------------------------


def distinct_stalks_d2_dual_numbers(field: Optional[Field] = None) -> dict:
    """Four pairwise distinct stalk objects in the 2-periodic derived category
    of the dual numbers, told apart by cohomology dimension vectors.

    Cohomology descends to the derived category, so distinct dimension
    vectors certify non-isomorphic objects even though full derived Hom
    spaces are out of reach at infinite global dimension.  The comparison
    count (3 indecomposables on the other side) is cited, not computed.
    """
    field = field or Field.rationals()
    alg = dual_numbers(field)
    Lam = Rep.regular(alg)
    radical = Rep.simple(alg, 1)    # rad = (x) has dimension 1
    objects = []
    for name, M, sh in [("algebra", Lam, 0), ("radical", radical, 0),
                        ("algebra[1]", Lam, 1), ("radical[1]", radical, 1)]:
        X = stalk_complex(M, 2, sh % 2) if sh == 0 else shift(
            stalk_complex(M, 2, 0), sh)
        objects.append({"name": name, "complex": X,
                        "cohomology": cohomology_dims(X),
                        "end_dim_module": len(hom_space(M, M)),
                        "indecomposable_module": len(decompose(M)) == 1})
    pairs = []
    distinct = True
    for i in range(len(objects)):
        for j in range(i + 1, len(objects)):
            hi, hj = objects[i]["cohomology"], objects[j]["cohomology"]
            # a degree-0 homotopy class can only be invertible when the
            # graded dimensions agree; record both certificates
            d0, reps = homotopy_hom(objects[i]["complex"],
                                    objects[j]["complex"], 0)
            inv = any(all(c.source.dims == c.target.dims and c.is_iso()
                          for c in r.comps) for r in reps)
            ok = (hi != hj) and not inv
            pairs.append({"pair": [objects[i]["name"], objects[j]["name"]],
                          "cohomology": [hi, hj],
                          "distinct_cohomology": hi != hj,
                          "invertible_class_found": inv,
                          "non_isomorphic": ok})
            distinct = distinct and ok
    return {
        "field": repr(field),
        "objects": [{k: v for k, v in o.items() if k != "complex"}
                    for o in objects],
        "pairs": pairs,
        "count_certified": 4 if distinct else 0,
        "comparison_count": {"value": 3, "provenance": "cited, not computed"},
        "verdict": "4 > 3" if distinct else "inconclusive",
        "pass": distinct,
    }
