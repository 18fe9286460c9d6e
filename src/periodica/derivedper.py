"""The m-periodic derived category of a finite-global-dimension algebra.

Morphism spaces are computed through K-projective replacements: every
periodic complex receives a surjective quasi-isomorphism from a complex with
projective components.  It is one twisted complex (Bondal-Kapranov) on the
sum of the components' minimal resolutions: the j-th term P^i_j of the
resolution of V^i sits in degree i - j, and besides the resolution maps the
differential has blocks delta_k: P^i_j -> P^{i+k}_{j+k-1} of weight k >= 1.
They are solved weight by weight so that the differential squares to zero
and the augmentations form a chain map; each is a lift through a
resolution map out of a projective.  With a zero differential no lift is
needed and the replacement is the sum of the folded resolutions.

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

from typing import Dict, List, Optional, Tuple

from .common import CheckFailed, PreconditionError, TruncationError
from .families import all_intervals, is_linear_a, dual_numbers
from .fields import Field
from .percomplex import (BoundedComplex, GradedMorphism, PeriodicComplex,
                         _cohom_data, _unsplit, cohomology_dim_vectors,
                         cohomology_dims, fold, homotopy_hom, is_quasi_iso,
                         shift, stalk_complex, sum_complex, sum_map,
                         zero_complex)
from .quiver import FinDimAlgebra
from .rep import (ExtCochains, HomBasis, Morphism, Rep, Resolution,
                  block_map, decompose, global_dimension, hom_space,
                  is_projective, minimal_resolution)


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
    their keys, so no id is recycled while it is cached.  A replacement
    resolves the components of its complex and nothing else.

    A module at position p is replaced by folding its minimal resolution,
    with P0 in degree p, onto the stalk at p: the augmentation maps the
    summand P0 of the fold's component p onto the module.  The replacement
    of a complex is the twisted sum of the folds of its components (see the
    module docstring); it is the complex itself when every component is
    projective.
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
        m = self.m
        target = stalk_complex(M, m, position)
        if M.is_zero():
            Z = zero_complex(self.algebra, m)
            return Z, GradedMorphism.zero(Z, target)
        res = self.resolution(M)
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
        m = self.m
        if all(is_projective(c) for c in V.comps):
            return V, GradedMorphism.identity(V)
        field = self.algebra.field
        # P[i][j]: the j-th term of V^i's resolution, in degree i - j;
        # down[i][j]: its map to P[i][j-1], the augmentation onto V^i at j = 0
        P: List[List[Rep]] = [[] for _ in range(m)]
        down: List[List[Morphism]] = [[] for _ in range(m)]
        for i, c in enumerate(V.comps):
            if not c.is_zero():
                res = self.resolution(c)
                sign = field.sign_pow(i)
                P[i] = res.terms
                down[i] = [res.aug] + [f.scale(sign) for f in res.maps]
        # delta[(k, i, j)]: P[i][j] -> P[i+k][j+k-1], with V^i as P[i][-1]
        # and delta_1 = -d_V on it.  By weight k, then term j, each is the
        # lift through ``down`` of R = -delta_k o down - sum_b delta_{k-b} o
        # delta_b, so that down + sum of the delta squares to zero on V + T
        delta = {(1, i, -1): -V.diffs[i] for i in range(m)
                 if not V.diffs[i].is_zero()}
        for k in range(1, self.gd + 2):
            for j in range(self.gd + 1):
                for i in range(m):
                    t = (i + k) % m
                    if j >= len(P[i]) or j + k - 1 >= len(P[t]):
                        continue
                    terms = [delta[(k - b, (i + b) % m, j + b - 1)]
                             @ delta[(b, i, j)] for b in range(1, k)
                             if (b, i, j) in delta
                             and (k - b, (i + b) % m, j + b - 1) in delta]
                    if (k, i, j - 1) in delta:
                        terms.append(delta[(k, i, j - 1)] @ down[i][j])
                    if terms:
                        R = -sum(terms[1:], terms[0])
                        if not R.is_zero():
                            delta[(k, i, j)] = _lift(R, down[t][j + k - 1])
        # the summands of each degree, by i and then by decreasing j
        parts: List[List[Rep]] = [[] for _ in range(m)]
        place: Dict[Tuple[int, int], int] = {}
        for i in range(m):
            for j in reversed(range(len(P[i]))):
                place[(i, j)] = len(parts[(i - j) % m])
                parts[(i - j) % m].append(P[i][j])
        blocks: List[Dict[Tuple[int, int], Morphism]] = [{} for _ in range(m)]
        arrows = [((i, j), (i, j - 1), down[i][j])
                  for i in range(m) for j in range(1, len(P[i]))]
        arrows += [((i, j), ((i + k) % m, j + k - 1), f)
                   for (k, i, j), f in delta.items() if j >= 0]
        for (i, j), target, f in arrows:
            blocks[(i - j) % m][(place[target], place[(i, j)])] = f
        T = sum_complex(self.algebra, parts, blocks)
        p = sum_map(T, V, _unsplit(V), parts,
                    [{(0, place[(i, 0)]): down[i][0]} if P[i] else {}
                     for i in range(m)])
        if not p.is_closed():
            raise CheckFailed("twisted replacement map is not a chain map")
        return T, p

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
        steps = []
        # X_k = fold of the truncation to degrees -k..0; each step extends
        # X_{k-1} by the stalk of P_k at position -k: the summand inclusion
        # X_{k-1} -> X_k and the projection X_k -> P_k[k] are chain maps
        prev = None
        for k, Pk in enumerate(res.terms):
            Bk = BoundedComplex(alg, {-j: res.terms[j] for j in range(k + 1)},
                                {-j: res.maps[j - 1] for j in range(1, k + 1)},
                                check=False)
            Xk, layout = fold(Bk, m)
            parts = [[Bk.comps[j] for j in js] for js in layout]
            split_ok = True
            if prev is not None:
                X, prev_layout, prev_parts = prev
                incl = sum_map(X, Xk, parts, prev_parts, [
                    {(layout[i].index(j), c): Morphism.identity(Bk.comps[j])
                     for c, j in enumerate(prev_layout[i])} for i in range(m)])
                S_k = stalk_complex(Pk, m, -k)
                proj = sum_map(Xk, S_k, _unsplit(S_k), parts, [
                    {(0, layout[i].index(-k)): Morphism.identity(Pk)}
                    if i == (-k) % m else {} for i in range(m)])
                split_ok = incl.is_closed() and proj.is_closed()
            steps.append({
                "step": k,
                "added_projective_dims": list(Pk.dims),
                "at_shift": (-k) % m,
                "graded_split": split_ok,
            })
            gen_ok = gen_ok and split_ok
            prev = Xk, layout, parts
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
