"""Stable module categories of self-injective algebras.

Stable maps are stored as honest module maps and reduced modulo the subspace
of maps factoring through projectives (every such map factors through the
projective cover of the target, so that subspace is computable).  Both
shifts are taken along minimal covers: Omega M = ker(P(M) ->> M), and under
the duality D = Hom_k(-, k) Sigma M = coker(M >-> I(M)) = D Omega D M.  By
Heller's lemma the minimal cover of a projective summand is an isomorphism,
so both drop projective summands, and keep a non-projective indecomposable
indecomposable: shifts and periods are never stripped or decomposed.  Only a
candidate's parts, a cone's pieces and Sigma^0 are.

Every cache here, a ``StableContext``'s and the tilting closure's
suspensions, is a ``common.IdentityMemo``, keyed by module identity.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .common import IdentityMemo, PreconditionError, Trunc
from .families import enveloping, is_cyclic_nakayama, serial_module
from .linalg import Mat, _free_cols, reduce_mod_rowspace
from .quiver import FinDimAlgebra
from .rep import (HomBasis, Morphism, Rep, block_sum, decompose, dual,
                  is_projective, iso_q, kernel_of, projective_cover, syzygies,
                  syzygy)


def is_self_injective(alg: FinDimAlgebra) -> bool:
    """Is every indecomposable projective P(v) injective?  P is injective
    over A iff its dual D(P) is projective over A^op, which
    ``is_projective`` decides exactly."""
    return all(is_projective(dual(Rep.projective(alg, v)))
               for v in range(1, alg.quiver.n + 1))


class StableHom:
    """The stable Hom space of a pair of modules, with canonical reduction.

    Maps are coordinates on ``full.basis``, a basis of Hom(M, N).  The maps
    that factor through a projective are the composites with the projective
    cover P_N ->> N; ``reduce`` takes coordinates modulo the rref of theirs.
    The basis maps at that rref's free (non-pivot) columns reduce to
    themselves and span a complement, so they are the ``classes``, and a
    map's coordinates on them are its reduced coordinates at those columns.
    When Hom(M, N) = 0 nothing else is built: no cover composites, no rref.
    """

    def __init__(self, M: Rep, N: Rep, cover: Tuple[Rep, Morphism]):
        """``cover`` is ``projective_cover(N)``."""
        self.M = M
        self.N = N
        self.full = HomBasis(M, N)
        if self.full.dim:
            P_N, pi = cover
            through = HomBasis(M, P_N).post_matrix(pi, self.full)
            self._red, self._piv = through.transpose().rref()
        else:
            self._red, self._piv = Mat.zeros(M.field, 0, 0), ()
        self._free = _free_cols(self.full.dim, self._piv)
        self.dim = len(self._free)
        self.classes: List[Morphism] = [self.full.basis[j]
                                        for j in self._free]

    def reduce(self, f: Morphism) -> list:
        """Canonical coordinates of the stable class of a module map."""
        return reduce_mod_rowspace(self._red, self._piv,
                                   self.full.coords_of(f), self.M.field)

    def class_coords(self, f: Morphism) -> list:
        """Coordinates of the class of f on ``classes``."""
        red = self.reduce(f)
        return [red[j] for j in self._free]


class StableContext:
    """Cached stable-category data for one self-injective algebra.

    The stable Hom space of each pair, the projective cover of each
    stable-Hom target and the dual cover P(DM) ->> DM over A^op of each cone
    source M are built once and kept in an ``IdentityMemo``: the tilting
    closure asks for the stable Hom spaces and cones of the same registry
    items again and again, and shifts them along the same covers.  The
    envelope M >-> I(M) = D P(DM) is the dual cover transposed, so Sigma M
    = D ker(P(DM) ->> DM), and Sigma M and M's cones share one dual cover.
    ``suspension_power`` builds its covers for the call and holds none: its
    intermediate modules are never asked for again.

    The stable layer calls ``decompose`` only where summands are the
    answer: a candidate's parts, a cone's pieces and Sigma^0 (through
    ``summands``, which holds nothing), and inside ``iso_q``'s Krull-Schmidt
    branch.  ``cone_summands`` returns the pieces of a cone, so the closure
    registers them without decomposing the cone again.  Shifts and periods
    never decompose (Heller's lemma): a shift has no projective summand,
    and a shift of a non-projective indecomposable is one.  ``seed``
    changes no answer: ``decompose`` and ``iso_q`` depend on their modules
    alone.
    """

    def __init__(self, alg: FinDimAlgebra, seed: int = 0):
        if not is_self_injective(alg):
            raise PreconditionError("algebra is not self-injective")
        self.algebra = alg
        self._shoms = IdentityMemo()
        self._covers = IdentityMemo()
        self._dual_covers = IdentityMemo()

    # -- plumbing ---------------------------------------------------------------

    def stable_hom(self, M: Rep, N: Rep) -> StableHom:
        return self._shoms.get((M, N), lambda: StableHom(M, N, self._cover(N)))

    def _cover(self, N: Rep) -> Tuple[Rep, Morphism]:
        return self._covers.get((N,), lambda: projective_cover(N))

    def _dual_cover(self, M: Rep) -> Tuple[Rep, Morphism]:
        return self._dual_covers.get((M,), lambda: projective_cover(dual(M)))

    def summands(self, M: Rep) -> List[Rep]:
        """The non-projective indecomposable summands of M: ``[M]`` itself
        for a non-projective indecomposable M."""
        return [s for s in decompose(M) if not is_projective(s)]

    # -- suspension -------------------------------------------------------------

    def suspension_power(self, M: Rep, i: int) -> Rep:
        """Sigma^i M along minimal covers of M as given: Omega^-i M for
        i < 0 and D Omega^i D M for i > 0, i syzygies over A^op between two
        duals (D takes the cokernel of an envelope to the kernel of a cover,
        and D D is the identity).  By Heller's lemma the minimal cover of a
        projective summand is an isomorphism, so no shift has one.  Sigma^0
        M is M without its projective summands (M itself for a non-projective
        indecomposable), the one power that decomposes M."""
        if i == 0:
            parts = self.summands(M)
            return block_sum(parts) if parts else Rep.zero(self.algebra)
        X = dual(M) if i > 0 else M
        for _ in range(abs(i)):
            X = syzygy(X)
        return dual(X) if i > 0 else X

    def module_period(self, M: Rep, bound: int) -> Trunc:
        """Smallest p >= 1 with the p-th syzygy of M stably isomorphic to M.

        The search runs on Omega M and makes no ``decompose`` call: Omega is
        a stable auto-equivalence, so with M' the non-projective part of M,
        Omega^p M' ~ M' iff Omega^(p+1) M ~ Omega M, and modules with no
        projective summand are isomorphic iff they are stably isomorphic.
        """
        K = syzygy(M)
        if K.is_zero():
            raise PreconditionError(
                "period undefined: the module is projective (stably zero)")
        return _syzygy_period(K, bound)

    # -- triangles ---------------------------------------------------------------

    def cone_summands(self, f: Morphism) -> List[Rep]:
        """The non-projective indecomposable summands of the cone of a
        stable map f: M -> N, the cokernel of (f, iota): M -> N + I(M), read
        as D ker(g) for g = D(f, iota): DN + P(DM) -> DM over A^op.  Since
        I(M) = D P(DM) and iota is the dual cover pi transposed, g's block at
        v is f's transposed beside pi's."""
        M, N = f.source, f.target
        if M.is_zero():
            return self.summands(N)
        P, pi = self._dual_cover(M)
        g = Morphism(block_sum([dual(N), P]), pi.target,
                     [b.transpose().hstack(p)
                      for b, p in zip(f.blocks, pi.blocks)])
        return self.summands(dual(kernel_of(g)[0]))

    # -- families ----------------------------------------------------------------

    def nakayama_indecomposables(self) -> List[Tuple[Tuple[int, int], Rep]]:
        alg = self.algebra
        if not is_cyclic_nakayama(alg):
            raise PreconditionError("indecomposable list known only for "
                                    "cyclic Nakayama algebras here")
        # M(a, l) is a quotient of P(a+l-1), uniserial of length dim P(a+l-1),
        # and projective exactly when it is all of it
        n, pdims = alg.quiver.n, alg.projective_dims
        return [((a, l), serial_module(alg, a, l))
                for a in range(1, n + 1) for l in range(1, max(pdims))
                if l < pdims[(a + l - 2) % n]]


class NotPeriodic(Trunc):
    """The exact verdict "no syzygy of M is M again" of :func:`algebra_period`.

    Its value is ``None``; ``projdim`` is the projective dimension of M (of A
    over A^e), the last degree of its minimal resolution.
    """

    __slots__ = ("projdim",)

    def __init__(self, projdim: int):
        super().__init__(None)
        self.projdim = projdim

    def __eq__(self, other):
        return isinstance(other, NotPeriodic) and self.projdim == other.projdim

    def __hash__(self):
        return hash(("NotPeriodic", self.projdim))

    def __repr__(self):
        return f"NotPeriodic({self.projdim})"


def _syzygy_period(M: Rep, bound: int) -> Trunc:
    """Smallest p in 1..bound with the p-th syzygy of M isomorphic to M.

    When the p-th syzygy is zero, every later one is zero too, so none is M:
    the answer is ``NotPeriodic(p - 1)`` rather than a truncation at
    ``bound``.
    """
    for p, (_, _, K, _) in zip(range(1, bound + 1), syzygies(M)):
        if K.is_zero():
            return NotPeriodic(p - 1)
        if K.dims == M.dims and iso_q(K, M):
            return Trunc(p)
    return Trunc(bound, exact=False)


def algebra_period(alg: FinDimAlgebra, bound: int, seed: int = 0) -> Trunc:
    """Smallest p with the p-th syzygy of the regular bimodule isomorphic to
    it over the enveloping algebra, or ``NotPeriodic``.  ``seed`` changes
    no answer: ``iso_q`` depends on its modules alone."""
    return _syzygy_period(enveloping(alg)[1], bound)


# -- iso-class registry for generation closures ----------------------------------


class _Registry:
    """The iso classes a closure has found, one module each, pairwise
    non-isomorphic.  ``find`` scans the items of M's dims with ``iso_q``,
    which answers an item equal to M with no Hom space built."""

    def __init__(self):
        self.items: List[Tuple[Rep, dict]] = []

    def find(self, M: Rep) -> Optional[int]:
        for idx, (X, _) in enumerate(self.items):
            if X.dims == M.dims and iso_q(X, M):
                return idx
        return None

    def add(self, M: Rep, provenance: dict) -> Tuple[int, bool]:
        idx = self.find(M)
        if idx is not None:
            return idx, False
        self.items.append((M, provenance))
        return len(self.items) - 1, True


def _closure_candidates(ctx: StableContext, clean: List[Rep],
                        items: List[Tuple[Rep, dict]],
                        suspend: Callable[[Rep], Rep],
                        budget: int) -> Iterator[Tuple[Rep, dict]]:
    """The modules the tilting closure registers, with their provenance:
    the clean summands, then pass by pass the shifts of the items added
    since the previous pass and the cone pieces of every pair involving such
    an item.  ``items`` is the registry's list, which the consumer extends
    between yields.  The passes stop when one adds nothing or when the
    registry holds more than ``budget`` items at a pass boundary; redoing
    earlier work could only re-find iso classes already in the registry."""
    for i, T in enumerate(clean):
        yield T, {"op": "summand", "of": i}
    suspended = coned = 0       # items suspended; prefix with pairs coned
    while len(items) <= budget:
        count = len(items)
        for idx in range(suspended, count):
            X = items[idx][0]
            # registry items are non-projective indecomposables, and so are
            # their shifts (Heller's lemma); X's cover is the one its stable
            # Hom spaces use
            yield suspend(X), {"op": "suspension", "of": idx, "direction": 1}
            yield (kernel_of(ctx._cover(X)[1])[0],
                   {"op": "suspension", "of": idx, "direction": -1})
        suspended = count
        count = len(items)
        for i in range(count):
            for j in range(0 if i >= coned else coned, count):
                sh = ctx.stable_hom(items[i][0], items[j][0])
                for c, f in enumerate(sh.classes):
                    for piece in ctx.cone_summands(f):
                        yield piece, {"op": "cone", "from": i, "to": j,
                                      "class": c}
        coned = count
        if len(items) == suspended:     # the pass added nothing
            return


def _missing_targets(reg: _Registry, targets) -> List[List[int]]:
    """The (a, l) of the targets M(a, l) with no isomorphic registry item."""
    return [[a, l] for (a, l), M in targets if reg.find(M) is None]


def check_periodic_tilting_stable(ctx: StableContext, parts: Sequence[Rep],
                                  m: int, budget: int = 64) -> dict:
    """Rigidity and cone-closure generation for a candidate periodic tilting
    object of the stable category.

    ``parts`` are the direct summands of the candidate; projective summands
    are stripped with a warning.  Generation closes the summands under
    suspension (both directions), cones of stable basis maps, and direct
    summands.  For cyclic Nakayama algebras the closure is compared against
    the known indecomposables; holding all of them certifies generation even
    when the budget ran out.  Otherwise generation is certified once every
    non-projective simple is in the closure (stmod is the thick closure of
    the simples) and fails when a simple it misses lies in a block (a
    connected component of the quiver) holding no summand, whether or not
    the budget ran out.  Otherwise it is undecided (``None``): the closure
    misses simples of covered blocks, because the budget ran out or because
    it cones only basis maps and so need not be thick.  The verdict
    ``pass`` is False whenever rigidity or periodicity fails.

    Each pass suspends only the items added since the previous pass and
    cones only the pairs involving such an item: redoing earlier work could
    only re-find iso classes already in the registry.

    For a cyclic Nakayama algebra the closure also stops as soon as its
    registry holds every indecomposable.  Every indecomposable module over
    a Nakayama algebra is uniserial, so the non-projective ones are exactly
    the n(L - 1) targets M(a, l), l < L, where L is the Loewy length.  The
    registry's items are pairwise non-isomorphic non-projective
    indecomposables, so once it holds as many items as there are targets
    and finds each target, every item is one target up to isomorphism;
    every later candidate, a non-projective indecomposable too, is then
    isomorphic to an item and could only be re-found.  The report is the
    one the full loop gives: the same items in the same order, no target
    missing, and ``budget_exhausted`` as the full loop sets it at its next
    pass boundary, where the item count is still the final one.
    """
    if m < 1:
        raise PreconditionError(f"period must be >= 1, got {m}")
    alg = ctx.algebra
    warnings = []
    clean: List[Rep] = []
    for i, T in enumerate(parts):
        kept = ctx.summands(T)
        if sum(X.total_dim for X in kept) < T.total_dim:
            warnings.append(f"summand {i}: dropped projective summand(s)")
        clean.extend(kept)
    if not clean:
        raise PreconditionError("candidate is stably zero")

    # Sigma X, formed once per call along the dual cover the context holds
    # for X's cones: the clean parts and their suspensions enter the registry
    # as these objects, and the rigidity check and the closure read Sigma here
    sigma = IdentityMemo()

    def suspend(X: Rep) -> Rep:
        return sigma.get((X,), lambda: dual(
            kernel_of(ctx._dual_cover(X)[1])[0]))

    susp_parts = {0: clean}
    for s in range(1, m + 1):
        susp_parts[s] = [suspend(X) for X in susp_parts[s - 1]]

    periodic_ok = all(
        X.dims == Y.dims and iso_q(X, Y)
        for X, Y in zip(susp_parts[m], clean))

    rigidity = []
    rig_ok = True
    for s in range(1, m):
        for i, X in enumerate(clean):
            for j, Y in enumerate(susp_parts[s]):
                d = ctx.stable_hom(X, Y).dim
                rigidity.append({"from": i, "to": j, "shift": s, "dim": d})
                rig_ok = rig_ok and d == 0

    nakayama = is_cyclic_nakayama(alg)
    # outside the cyclic Nakayama family no count of items proves the
    # closure complete, and it runs to the end of its passes
    targets = ctx.nakayama_indecomposables() if nakayama else []
    reg = _Registry()
    for Y, provenance in _closure_candidates(ctx, clean, reg.items, suspend,
                                             budget):
        _, new = reg.add(Y, provenance)
        if new and len(reg.items) == len(targets):
            missing = _missing_targets(reg, targets)
            if not missing:
                break
    else:
        missing = _missing_targets(reg, targets)
    exhausted = len(reg.items) > budget

    result = {
        "periodicity_ok": bool(periodic_ok),
        "rigidity": rigidity,
        "rigidity_ok": bool(rig_ok),
        "closure_size": len(reg.items),
        "closure": [{"dims": list(X.dims), "provenance": prov}
                    for X, prov in reg.items],
        "warnings": warnings,
        "budget_exhausted": exhausted,
    }
    if nakayama:
        result["target_count"] = len(targets)
        result["missing"] = missing
        result["generation_ok"] = None if exhausted and missing else not missing
        result["pass"] = (result["generation_ok"] if rig_ok and periodic_ok
                          else False)
    else:
        # stmod is the thick closure of the simples, and no stable map
        # crosses blocks: a simple of a block without a summand of T is out
        simples = [Rep.simple(alg, v) for v in range(1, alg.quiver.n + 1)]
        missing_simples = [v for v, S in enumerate(simples, 1)
                           if not is_projective(S) and reg.find(S) is None]
        block = _blocks(alg)
        covered = {block[v] for X in clean
                   for v, d in enumerate(X.dims) if d}
        result["missing_simples"] = missing_simples
        # the closure only holds objects of thick(T), so every simple in it
        # certifies generation, budget exhausted or not
        if any(block[v - 1] not in covered for v in missing_simples):
            generation = False
        elif missing_simples:
            generation = None
        else:
            generation = True
        result["generation_ok"] = generation
        result["pass"] = generation if rig_ok and periodic_ok else False
    return result


def _blocks(alg: FinDimAlgebra) -> List[int]:
    """A label per vertex (index v - 1) naming its connected component."""
    label = list(range(alg.quiver.n))

    def root(v: int) -> int:
        while label[v] != v:
            v = label[v]
        return v

    for a in alg.quiver.arrows:
        label[root(a.source - 1)] = root(a.target - 1)
    return [root(v) for v in range(alg.quiver.n)]


def stable_end_algebra(ctx: StableContext, parts: Sequence[Rep],
                       target_linear_a: Optional[int] = None) -> dict:
    """Multiplication table of the stable endomorphism algebra of a sum.

    When ``target_linear_a`` is given, also search for an explicit
    isomorphism onto the path algebra of the linearly oriented A_k quiver.
    """
    field = ctx.algebra.field
    k = len(parts)
    homs = {(i, j): ctx.stable_hom(parts[i], parts[j])
            for i in range(k) for j in range(k)}
    labels = []
    for i in range(k):
        for j in range(k):
            for c in range(homs[(i, j)].dim):
                labels.append((i, j, c))
    index = {lab: t for t, lab in enumerate(labels)}
    dim = len(labels)
    table: Dict[Tuple[int, int], List] = {}
    for (i, j, c) in labels:
        f = homs[(i, j)].classes[c]
        for (i2, j2, c2) in labels:
            if j2 != i:
                continue
            g = homs[(i2, j2)].classes[c2]
            comp = f @ g                      # g then f : T_{i2} -> T_j
            coords = homs[(i2, j)].class_coords(comp)
            entry = [(index[(i2, j, cc)], val)
                     for cc, val in enumerate(coords)
                     if not field.is_zero(val)]
            table[(index[(i, j, c)], index[(i2, j2, c2)])] = entry
    cartan = [[homs[(i, j)].dim for j in range(k)] for i in range(k)]
    idempotents = []
    for i in range(k):
        ident = Morphism.identity(parts[i])
        coords = homs[(i, i)].class_coords(ident)
        idempotents.append([(index[(i, i, cc)], val)
                            for cc, val in enumerate(coords)
                            if not field.is_zero(val)])
    multiplication = []
    for (a, b), entry in sorted(table.items()):
        if entry:
            multiplication.append(
                [a, b, [[t, field.to_str(val)] for t, val in entry]])
    report = {
        "dim": dim,
        "summands": k,
        "cartan": cartan,
        "idempotent_count": k,
        "basis_labels": [list(lab) for lab in labels],
        "multiplication": multiplication,
    }
    if target_linear_a is not None:
        report["target"] = f"kA{target_linear_a}"
        ok = (target_linear_a == k)
        expected_dim = target_linear_a * (target_linear_a + 1) // 2
        report["target_dim"] = expected_dim
        ok = ok and dim == expected_dim
        arrows = []
        if ok:
            for l in range(k - 1):
                if homs[(l, l + 1)].dim != 1:
                    ok = False
                    break
                arrows.append(homs[(l, l + 1)].classes[0])
        if ok:
            # images of all paths of the A_k quiver must be independent
            images: List[Tuple[str, list]] = []
            for i in range(k):
                ident = Morphism.identity(parts[i])
                images.append((f"e{i + 1}",
                               _end_coords(homs, index, dim, field,
                                           i, i, ident)))
            for a in range(k - 1):
                comp = arrows[a]
                lo = a
                for b in range(a + 1, k):
                    images.append((f"path {a + 1}->{b + 1}",
                                   _end_coords(homs, index, dim, field,
                                               lo, b, comp)))
                    if b < k - 1:
                        comp = arrows[b] @ comp
            matrix = Mat.from_rows(field, [v for _, v in images]).transpose()
            ok = matrix.rank() == dim == len(images)
            report["iso_images"] = [name for name, _ in images]
        report["iso_found"] = bool(ok)
    return report


def _end_coords(homs, index, dim, field, i, j, f: Morphism) -> list:
    vec = [field.zero()] * dim
    coords = homs[(i, j)].class_coords(f)
    for cc, val in enumerate(coords):
        vec[index[(i, j, cc)]] = val
    return vec
