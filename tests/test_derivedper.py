import random
import weakref

import pytest

from periodica import derivedper, percomplex
from periodica.common import CheckFailed, PreconditionError
from periodica.derivedper import (DerivedContext, distinct_stalks_d2_dual_numbers,
                                  ext_dims, ext_sum_check, hereditary_decompose,
                                  list_indecomposables_hereditary,
                                  stalk_tilting_check)
from periodica.families import all_intervals, linear_a
from periodica.fields import Field, QQ
from periodica.percomplex import (BoundedComplex, GradedMorphism,
                                  PeriodicComplex, cohomology,
                                  cohomology_dim_vectors, cohomology_dims,
                                  complex_direct_sum, cone, fold, hom_complex,
                                  homotopy_hom, is_acyclic, is_quasi_iso,
                                  shift, stalk_complex)
from periodica.randomcx import random_periodic_complex
from periodica.rep import (Morphism, Rep, block_map, block_sum, hom_space,
                           is_projective, iso_q)

from oracles import fold_resolution, sample_algebra


def test_context_rejects_infinite_gd(dual):
    with pytest.raises(PreconditionError):
        DerivedContext(dual, 2, bound=10)


def test_fold_resolution_projective_is_stalk(a2):
    ctx = DerivedContext(a2, 2)
    P = Rep.projective(a2, 2)
    F, phi = fold_resolution(ctx, P, 0)
    assert F.dim_vector() == [P.total_dim, 0]
    assert is_quasi_iso(phi)


def test_fold_resolution_simple(a2):
    ctx = DerivedContext(a2, 2)
    S2 = Rep.simple(a2, 2)
    F, phi = fold_resolution(ctx, S2, 0)
    # fold of 0 -> P1 -> P2 -> 0
    assert F.dim_vector() == [2, 1]
    assert phi.is_closed()
    assert is_quasi_iso(phi)
    # surjective in every degree
    for i in range(2):
        for v in range(2):
            b = phi.comps[i].blocks[v]
            assert b.rank() == phi.comps[i].target.dims[v]


def test_fold_resolution_positions(a3):
    ctx = DerivedContext(a3, 3)
    S3 = Rep.simple(a3, 3)
    for pos in range(3):
        F, phi = fold_resolution(ctx, S3, pos)
        assert is_quasi_iso(phi)
        assert cohomology(F, pos).dims == S3.dims


@pytest.mark.parametrize("field", [QQ, Field.gf(2)], ids=["Q", "GF2"])
def test_fold_at_a_position_is_the_shifted_degree_zero_fold(field):
    # strictly: equal complexes (signs included) and equal map components
    alg = linear_a(3, field)
    for m in (1, 2, 3):
        ctx = DerivedContext(alg, m)
        for _, M in all_intervals(alg):
            F0, phi0 = fold_resolution(ctx, M, 0)
            for p in range(-m, 2 * m + 1):
                F, phi = fold_resolution(ctx, M, p)
                assert F == shift(F0, -p) and phi.source is F
                assert phi.target == stalk_complex(M, m, p)
                assert phi.comps == tuple(phi0.comps[(i - p) % m]
                                          for i in range(m))


def test_replacement_idempotent_on_projective_complexes(a2):
    ctx = DerivedContext(a2, 2)
    from periodica.percomplex import K_of
    V = K_of(Rep.projective(a2, 2), 2)
    P, p = ctx.replacement(V)
    assert P is V


def test_replacement_random_postcondition(a2, a3):
    rng = random.Random(13)
    square = sample_algebra("commsquare.alg", QQ)
    for alg, m in ((a2, 2), (a2, 3), (a3, 2), (a2, 1), (square, 2)):
        ctx = DerivedContext(alg, m)
        for _ in range(4):
            V = random_periodic_complex(alg, m, rng)
            P, p = ctx.replacement(V)
            assert p.is_closed()
            assert is_quasi_iso(p)
            assert is_acyclic(cone(p).cone)
            # surjectivity and projective components
            from periodica.rep import projective_cover
            for i in range(m):
                C = P.comps[i]
                if not C.is_zero():
                    PP, _ = projective_cover(C)
                    assert PP.total_dim == C.total_dim
                for v in range(len(C.dims)):
                    assert p.comps[i].blocks[v].rank() == V.comps[i].dims[v]


def _zero_differential_complex(alg, m, pool, rng):
    """Random components (a non-projective one at position 0, zeros
    allowed elsewhere) with every differential zero."""
    comps = [rng.choice([M for M in pool if not is_projective(M)])]
    for _ in range(1, m):
        k = rng.randint(0, 2)
        comps.append(block_sum([rng.choice(pool) for _ in range(k)])
                     if k else Rep.zero(alg))
    return PeriodicComplex(alg, m, comps,
                           [Morphism.zero(comps[i], comps[(i + 1) % m])
                            for i in range(m)])


def test_zero_differential_replacement_is_the_sum_of_folds(a3, monkeypatch):
    # the one path stalks take: no lift, and exactly the folded resolutions
    lifts = []
    real_lift = derivedper._lift

    def counted(g, q):
        lifts.append(g)
        return real_lift(g, q)
    monkeypatch.setattr(derivedper, "_lift", counted)
    square = sample_algebra("commsquare.alg", QQ)
    pools = [(a3, [M for _, M in all_intervals(a3)]),
             (square, [Rep.projective(square, v) for v in range(1, 5)]
              + [Rep.simple(square, v) for v in range(1, 5)]
              + [Rep.injective(square, v) for v in range(1, 5)])]
    rng = random.Random(29)
    for alg, pool in pools:
        for m in (1, 2, 3, 4):
            ctx = DerivedContext(alg, m)
            for _ in range(4):
                V = _zero_differential_complex(alg, m, pool, rng)
                P, p = ctx.replacement(V)
                assert P == complex_direct_sum(
                    [fold_resolution(ctx, V.comps[i], i)[0] for i in range(m)
                     if not V.comps[i].is_zero()])
                assert p.is_closed() and is_quasi_iso(p)
    assert lifts == []


@pytest.mark.parametrize("name", ["commsquare.alg", "ratsquare.alg"])
def test_replacement_is_k_projective_at_gd_2(name):
    # Hom out of PV sees W and its replacement alike: homotopy classes into
    # W equal those into PW, degree by degree
    alg = sample_algebra(name, QQ)
    rng = random.Random(47)
    for m in (1, 2, 3):
        ctx = DerivedContext(alg, m)
        for _ in range(3):
            V = random_periodic_complex(alg, m, rng)
            W = random_periodic_complex(alg, m, rng)
            PV, PW = ctx.replacement(V)[0], ctx.replacement(W)[0]
            for p in range(2 * m):
                assert homotopy_hom(PV, W, p)[0] == homotopy_hom(PV, PW, p)[0]


def _twisted_weights(ctx, V, T):
    """The weights k of the nonzero blocks P^i_j -> P^{i+k}_{j+k-1} of the
    replacement T of V; T's degree t holds the terms P^i_j of V^i's
    resolution with i - j = t mod m, by i and then by decreasing j."""
    m = V.m
    terms = [[] if c.is_zero() else ctx.resolution(c).terms for c in V.comps]
    order = [[(i, j) for i in range(m) for j in reversed(range(len(terms[i])))
              if (i - j) % m == t] for t in range(m)]

    def spans(t, v):
        out, at = {}, 0
        for i, j in order[t]:
            out[(i, j)] = range(at, at + terms[i][j].dims[v])
            at += terms[i][j].dims[v]
        return out
    found = set()
    for t in range(m):
        for v in range(len(T.comps[t].dims)):
            cols, rows = spans(t, v), spans((t + 1) % m, v)
            D = T.diffs[t].blocks[v]
            for (i, j), c in cols.items():
                for k in range(1, ctx.gd + 2):
                    r = rows.get(((i + k) % m, j + k - 1))
                    if r and c and not D.take_rows(r).take_cols(c).is_zero():
                        found.add(k)
    return found


def test_replacement_reaches_weights_2_and_3():
    square = sample_algebra("commsquare.alg", QQ)
    # seeded: a weight-2 block
    ctx = DerivedContext(square, 2)
    V = random_periodic_complex(square, 2, random.Random(25))
    T, p = ctx.replacement(V)
    assert _twisted_weights(ctx, V, T) == {1, 2}
    assert is_quasi_iso(p)
    # by hand: P1 + I2 -> P2 + S4 -> P1 + I2, with d^0 = P1 >-> P2 plus
    # I2 ->> S4 and d^1 = P2 -> S2 >-> I2, needs a weight-3 block
    P1, P2 = Rep.projective(square, 1), Rep.projective(square, 2)
    I2, S4 = Rep.injective(square, 2), Rep.simple(square, 4)
    V0, V1 = block_sum([P1, I2]), block_sum([P2, S4])
    d0 = block_map(V0, V1, [P2, S4], [P1, I2],
                   {(0, 0): hom_space(P1, P2)[0], (1, 1): hom_space(I2, S4)[0]})
    d1 = block_map(V1, V0, [P1, I2], [P2, S4],
                   {(1, 0): hom_space(P2, I2)[0]})
    V = PeriodicComplex(square, 2, [V0, V1], [d0, d1])
    T, p = ctx.replacement(V)
    assert _twisted_weights(ctx, V, T) == {1, 2, 3}
    assert is_quasi_iso(p)


def test_derived_hom_regular_stalk(a2):
    for m in (2, 3):
        ctx = DerivedContext(a2, m)
        Lam = Rep.regular(a2)
        L = stalk_complex(Lam, m)
        for i in range(2 * m):
            d, _ = ctx.derived_hom(L, L, i)
            assert d == (Lam.total_dim if i % m == 0 else 0)


def test_derived_hom_examples(a2):
    ctx = DerivedContext(a2, 2)
    S1, S2 = Rep.simple(a2, 1), Rep.simple(a2, 2)
    assert ctx.derived_hom_modules(S2, S1, 1) == 1
    assert ctx.derived_hom_modules(S2, S1, 0) == 0
    assert ctx.derived_hom_modules(S1, S2, 0) == 0
    assert ctx.derived_hom_modules(S1, S2, 1) == 0


def test_derived_hom_shift_invariance(a2):
    ctx = DerivedContext(a2, 2)
    rng = random.Random(17)
    V = random_periodic_complex(a2, 2, rng)
    W = random_periodic_complex(a2, 2, rng)
    for p in range(2):
        a = ctx.derived_hom(V, W, p)[0]
        b = ctx.derived_hom(shift(V, 1), shift(W, 1), p)[0]
        assert a == b


def test_ext_dims_kA2(a2):
    S1, S2 = Rep.simple(a2, 1), Rep.simple(a2, 2)
    assert ext_dims(S2, S1, 3) == [0, 1, 0, 0]
    assert ext_dims(S1, S1, 3) == [1, 0, 0, 0]
    assert ext_dims(S2, S2, 3) == [1, 0, 0, 0]
    assert ext_dims(S1, S2, 3) == [0, 0, 0, 0]


def test_ext_sum_regular(a2):
    ctx = DerivedContext(a2, 2)
    Lam = Rep.regular(a2)
    rep = ext_sum_check(ctx, Lam, Lam)
    assert rep["match"]
    assert rep["rows"][0]["derived_dim"] == Lam.total_dim


@pytest.mark.parametrize("m", [2, 3])
def test_shared_context_replaces_each_stalk_once(a3, m, monkeypatch):
    intervals = [M for _, M in all_intervals(a3)]
    fresh = [ext_sum_check(DerivedContext(a3, m), M, N)
             for M in intervals for N in intervals]
    calls = []
    original = DerivedContext._replacement

    def counted(self, V):
        calls.append(V)
        return original(self, V)
    monkeypatch.setattr(DerivedContext, "_replacement", counted)
    ctx = DerivedContext(a3, m)
    shared = [ext_sum_check(ctx, M, N) for M in intervals for N in intervals]
    assert shared == fresh
    assert len(calls) <= len(intervals)
    assert ctx.stalk(intervals[0]) is ctx.stalk(intervals[0], m)


def test_ext_sum_check_builds_one_hom_complex_per_pair(a3, monkeypatch):
    # every degree of a check reads the one Hom complex of its ordered pair,
    # built for that check, from the replacement of M's stalk into N's stalk
    # as it stands: the target of a Hom is never replaced
    intervals = [M for _, M in all_intervals(a3)]
    built = []
    original = percomplex.PeriodicHomComplex.__init__

    def counted(self, X, Y):
        built.append((id(X), id(Y)))
        original(self, X, Y)
    monkeypatch.setattr(percomplex.PeriodicHomComplex, "__init__", counted)
    ctx = DerivedContext(a3, 3)
    for M in intervals:
        for N in intervals:
            ext_sum_check(ctx, M, N)
    sources = [id(ctx.replacement(ctx.stalk(M))[0]) for M in intervals]
    targets = [id(ctx.stalk(N)) for N in intervals]
    assert built == [(a, b) for a in sources for b in targets]
    replaced = []
    original_replacement = DerivedContext._replacement

    def replacing(self, V):
        replaced.append(V)
        return original_replacement(self, V)
    monkeypatch.setattr(DerivedContext, "_replacement", replacing)
    fresh = DerivedContext(a3, 3)
    M, N = Rep.simple(a3, 1), Rep.simple(a3, 2)
    fresh.derived_hom_modules(M, N, 1)
    assert len(replaced) <= 1
    assert all(V is fresh.stalk(M) for V in replaced)


ONE_SIDED_ALGEBRAS = {
    "kA3/Q": lambda: linear_a(3, QQ),
    "kA4/GF(3)": lambda: linear_a(4, Field.gf(3)),
    "commsquare/Q": lambda: sample_algebra("commsquare.alg", QQ),
}


@pytest.mark.parametrize("name", sorted(ONE_SIDED_ALGEBRAS))
def test_one_sided_derived_hom_matches_two_sided(name):
    # Hom out of the source's replacement into the target as it stands
    # against the Hom between both replacements, on random targets and on
    # acyclic ones; leaving the source unreplaced must differ somewhere
    alg = ONE_SIDED_ALGEBRAS[name]()
    rng = random.Random(37)
    checks = control_misses = 0
    for m in (1, 2, 3, 4):
        ctx = DerivedContext(alg, m)
        for _ in range(10):
            V = random_periodic_complex(alg, m, rng)
            W = random_periodic_complex(alg, m, rng)
            TV = ctx.replacement(V)[0]
            for X in (W, cone(GradedMorphism.identity(W)).cone):
                one = ctx.derived_hom_complex(V, X)
                two = hom_complex(TV, ctx.replacement(X)[0])
                bare = hom_complex(V, X)
                for p in range(-m, 2 * m + 1):
                    assert one.homotopy_dim(p) == two.homotopy_dim(p), (m, p)
                    control_misses += (bare.homotopy_dim(p)
                                       != two.homotopy_dim(p))
                    checks += 1
    assert checks == 10 * 2 * sum(3 * m + 1 for m in (1, 2, 3, 4))
    assert control_misses > 0


def test_derived_context_holds_no_hom_complex(a3, monkeypatch, no_cyclic_gc):
    # each Hom complex dies when the call that built it returns
    made = []
    original = percomplex.PeriodicHomComplex.__init__

    def watched(self, X, Y):
        made.append(weakref.ref(self))
        original(self, X, Y)
    monkeypatch.setattr(percomplex.PeriodicHomComplex, "__init__", watched)
    ctx = DerivedContext(a3, 3)
    M, N = Rep.simple(a3, 1), Rep.simple(a3, 2)
    assert ext_sum_check(ctx, M, N)["match"]
    ctx.derived_hom_modules(M, N, 1)
    ctx.derived_hom(ctx.stalk(N), ctx.stalk(M), 0)
    assert len(made) == 3 and all(r() is None for r in made)


def test_context_rejects_nonpositive_period(a2):
    for m in (0, -1):
        with pytest.raises(PreconditionError):
            DerivedContext(a2, m)


def test_ext_sum_gd_below_m(a3):
    # gd 1 < m = 2: derived Hom in degree 0 equals plain Hom
    ctx = DerivedContext(a3, 2)
    for (_, M) in all_intervals(a3)[:3]:
        for (_, N) in all_intervals(a3)[:3]:
            assert ctx.derived_hom_modules(M, N, 0) == len(hom_space(M, N))


def test_hereditary_decompose_examples(a2):
    ctx = DerivedContext(a2, 2)
    S = stalk_complex(Rep.simple(a2, 1), 2, 0)
    rep = hereditary_decompose(ctx, S)
    assert rep["verified"]
    assert [s["position"] for s in rep["stalks"]] == [0]
    # fold of the standard resolution decomposes into its only cohomology
    P1, P2 = Rep.projective(a2, 1), Rep.projective(a2, 2)
    f = hom_space(P1, P2)[0]
    from periodica.percomplex import BoundedComplex, fold
    F, _ = fold(BoundedComplex(a2, {-1: P1, 0: P2}, {-1: f}), 2)
    rep2 = hereditary_decompose(ctx, F)
    assert rep2["verified"]
    assert [(s["position"], s["dims"]) for s in rep2["stalks"]] \
        == [(0, [0, 1])]
    # random complexes over kA2..kA4 at every period 1..4: one stalk per
    # nonzero cohomology module, with that module's dimension vector
    rng = random.Random(41)
    for k in (2, 3, 4):
        alg = linear_a(k, QQ)
        for m in (1, 2, 3, 4):
            ctx = DerivedContext(alg, m)
            for _ in range(3):
                V = random_periodic_complex(alg, m, rng)
                dims = cohomology_dim_vectors(V)
                rep = hereditary_decompose(ctx, V)
                assert rep["verified"]
                assert [s["position"] for s in rep["stalks"]] \
                    == [t for t in range(m) if any(dims[t])]
                for s in rep["stalks"]:
                    assert s["dims"] == dims[s["position"]]


def test_hereditary_decompose_catches_a_wrong_lift(a3, monkeypatch):
    # with every lift replaced by zero, no complex with cohomology may pass
    monkeypatch.setattr(derivedper, "_lift",
                        lambda g, q: Morphism.zero(g.source, q.source))
    rng = random.Random(43)
    for m in (1, 2, 3):
        ctx = DerivedContext(a3, m)
        tried = 0
        while tried < 6:
            V = random_periodic_complex(a3, m, rng)
            if not any(cohomology_dims(V)):
                continue
            tried += 1
            try:
                assert not hereditary_decompose(ctx, V)["verified"]
            except CheckFailed:
                pass


def _folded_resolution_of_s2(a2):
    """P1 -> P2 folded at m = 2: its one cohomology is S(2), whose
    resolution has two terms, so the roof has a lift into V^1."""
    P1, P2 = Rep.projective(a2, 1), Rep.projective(a2, 2)
    return fold(BoundedComplex(a2, {-1: P1, 0: P2},
                               {-1: hom_space(P1, P2)[0]}), 2)[0]


def test_hereditary_decompose_refuses_a_roof_that_is_not_a_chain_map(
        a2, monkeypatch):
    # the lift of P1 into V replaced by zero: the roof's map to V is no
    # chain map, and that is an error, not a False verdict
    real, lifts = derivedper._lift, []

    def second_lift_zero(g, q):
        lifts.append(g)
        h = real(g, q)
        return h if len(lifts) == 1 else Morphism.zero(h.source, h.target)

    monkeypatch.setattr(derivedper, "_lift", second_lift_zero)
    with pytest.raises(CheckFailed, match="chain map"):
        hereditary_decompose(DerivedContext(a2, 2),
                             _folded_resolution_of_s2(a2))
    assert len(lifts) == 2


def test_hereditary_decompose_checks_each_roof_map_once(a2, monkeypatch):
    # one dmap() per roof map (f and s), and `verified` is the cone test of
    # both: with the cones reported cyclic, the verdict is False
    dmaps, cones = [], []
    real_dmap, real_acyclic = GradedMorphism.dmap, derivedper.is_acyclic

    def counted_dmap(self):
        dmaps.append(self)
        return real_dmap(self)

    def counted_acyclic(V):
        cones.append(V)
        return real_acyclic(V)

    monkeypatch.setattr(GradedMorphism, "dmap", counted_dmap)
    monkeypatch.setattr(derivedper, "is_acyclic", counted_acyclic)
    V = _folded_resolution_of_s2(a2)
    assert hereditary_decompose(DerivedContext(a2, 2), V)["verified"]
    assert len(dmaps) == 2 and dmaps[0].target is V
    assert len(cones) == 2
    monkeypatch.setattr(derivedper, "is_acyclic", lambda V: False)
    assert not hereditary_decompose(DerivedContext(a2, 2), V)["verified"]


def test_is_quasi_iso_requires_a_chain_map(a2):
    V = _folded_resolution_of_s2(a2)
    with pytest.raises(PreconditionError):
        # the identity at V^1 = P1 only: d o g - g o d is P1 -> P2, not 0
        is_quasi_iso(GradedMorphism(V, V, 0, [
            Morphism.zero(V.comps[0], V.comps[0]),
            Morphism.identity(V.comps[1])]))
    with pytest.raises(PreconditionError):
        is_quasi_iso(GradedMorphism(V, V, 1, [
            Morphism.zero(V.comps[i], V.comps[(i + 1) % 2])
            for i in range(2)]))


def test_replacement_caches_only_top_level_complexes(a3):
    # a replacement resolves the components of its complex and nothing
    # else: only the complexes handed in, and their components, are cached
    ctx = DerivedContext(a3, 3)
    rng = random.Random(23)
    Vs = [random_periodic_complex(a3, 3, rng) for _ in range(12)]
    for V in Vs + Vs[:4]:
        assert is_quasi_iso(ctx.replacement(V)[1])
    assert len(ctx._repl) == len({id(V) for V in Vs})
    assert {id(M) for (M,), _ in ctx._res} <= {id(c) for V in Vs
                                                for c in V.comps}


def test_hereditary_decompose_rejects_nonhereditary(n33):
    with pytest.raises(PreconditionError):
        ctx = DerivedContext(n33, 2)


def test_hereditary_decompose_preserves_derived_homs(a2):
    ctx = DerivedContext(a2, 2)
    rng = random.Random(19)
    V = random_periodic_complex(a2, 2, rng)
    rep = hereditary_decompose(ctx, V)
    assert rep["verified"]
    parts = []
    for s in rep["stalks"]:
        parts.append(stalk_complex(cohomology(V, s["position"]), 2,
                                   s["position"]))
    if parts:
        from periodica.percomplex import complex_direct_sum
        S = complex_direct_sum(parts)
        for p in range(2):
            assert ctx.derived_hom(V, V, p)[0] == ctx.derived_hom(S, S, p)[0]


def test_list_indecomposables(a2, a3):
    assert list_indecomposables_hereditary(a2, 2)["count"] == 6
    assert list_indecomposables_hereditary(a3, 2)["count"] == 12
    from periodica.families import linear_a
    assert list_indecomposables_hereditary(linear_a(1, QQ), 2)["count"] == 2


def test_list_indecomposables_distinctness_is_computed(a3, monkeypatch):
    assert list_indecomposables_hereditary(a3, 3)["pairwise_distinct"]
    # one cohomology for every stalk tells none apart
    monkeypatch.setattr(derivedper, "cohomology_dim_vectors",
                        lambda V: [[0] * 3] * V.m)
    assert not list_indecomposables_hereditary(a3, 3)["pairwise_distinct"]


def test_stalk_tilting(a2, a3, kxk):
    for alg in (a2, a3):
        for m in (2, 3):
            rep = stalk_tilting_check(DerivedContext(alg, m))
            assert rep["pass"]
            assert rep["rigidity_ok"] and rep["generation_ok"]
            assert len(rep["generation"]) == alg.quiver.n
    # semisimple: trivially passes
    rep = stalk_tilting_check(DerivedContext(kxk, 2))
    assert rep["pass"]


def test_stalk_tilting_split_check_catches_a_corrupted_block(monkeypatch):
    # S(4) over the commutative square has a resolution of length 2; with
    # the block out of the lowest term of every fold zeroed, X_1 and X_2
    # disagree on P_1 -> P_0, so the inclusion X_1 -> X_2 is no chain map
    square = sample_algebra("commsquare.alg", QQ)
    rep = stalk_tilting_check(DerivedContext(square, 2))
    assert rep["pass"]
    assert all(s["graded_split"] for w in rep["generation"]
               for s in w["steps"])
    real_fold = derivedper.fold

    def corrupted(C, m):
        lo = min(C.comps)
        diffs = {j: d if j != lo else Morphism.zero(d.source, d.target)
                 for j, d in C.diffs.items()}
        return real_fold(BoundedComplex(C.algebra, C.comps, diffs,
                                        check=False), m)
    monkeypatch.setattr(derivedper, "fold", corrupted)
    rep = stalk_tilting_check(DerivedContext(square, 2))
    steps = rep["generation"][3]["steps"]
    assert [s["graded_split"] for s in steps] == [True, True, False]
    assert not rep["generation_ok"] and not rep["pass"]


def test_stalk_tilting_folds_each_truncation_once(monkeypatch):
    # one fold per truncation X_0, ..., X_k of each simple's resolution; the
    # last is the whole resolution's fold, which the quasi-isomorphism
    # check reads instead of folding it again
    folded = []
    real_fold = derivedper.fold

    def fold(C, m):
        folded.append(sorted(C.comps))
        return real_fold(C, m)
    monkeypatch.setattr(derivedper, "fold", fold)
    a4 = linear_a(4, QQ)
    ctx = DerivedContext(a4, 3)
    rep = stalk_tilting_check(ctx)
    assert rep["pass"]
    lengths = [len(ctx.resolution(Rep.simple(a4, v)).terms)
               for v in range(1, 5)]
    assert folded == [list(range(-k, 1)) for n in lengths for k in range(n)]


def test_distinct_stalks_dual_numbers():
    rep = distinct_stalks_d2_dual_numbers()
    assert rep["pass"]
    assert rep["count_certified"] == 4
    assert rep["comparison_count"] == {"value": 3,
                                       "provenance": "cited, not computed"}
    hs = [tuple(o["cohomology"]) for o in rep["objects"]]
    assert len(set(hs)) == 4
    assert all(o["indecomposable_module"] for o in rep["objects"])


def test_odd_m_objectwise_periodicity(a2):
    # over a hereditary algebra, every complex is quasi-isomorphic to its
    # m-fold shift even at odd m: both sides decompose into the same stalks
    ctx = DerivedContext(a2, 3)
    rng = random.Random(37)
    for _ in range(5):
        V = random_periodic_complex(a2, 3, rng)
        W = shift(V, 3)
        da = hereditary_decompose(ctx, V)
        db = hereditary_decompose(ctx, W)
        assert da["verified"] and db["verified"]
        assert da["cohomology"] == db["cohomology"]
        keyed_a = sorted((s["position"], tuple(s["dims"]))
                         for s in da["stalks"])
        keyed_b = sorted((s["position"], tuple(s["dims"]))
                         for s in db["stalks"])
        assert keyed_a == keyed_b
        for i in range(3):
            A, B = cohomology(V, i), cohomology(W, i)
            assert A.dims == B.dims and (A.is_zero() or iso_q(A, B))


def test_stalk_tilting_builds_no_complex_twice(monkeypatch):
    # the quasi-isomorphism check maps the loop's last fold onto the stalk,
    # so each sum complex differs from the one built just before: one fold
    # per truncation and one cone per simple
    built = []

    def counting(real):
        def sum_complex(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]
        return sum_complex
    for module in (derivedper, percomplex):
        monkeypatch.setattr(module, "sum_complex",
                            counting(module.sum_complex))
    a4 = linear_a(4, QQ)
    ctx = DerivedContext(a4, 3)
    assert stalk_tilting_check(ctx)["pass"]
    terms = sum(len(ctx.resolution(Rep.simple(a4, v)).terms)
                for v in range(1, 5))
    assert len(built) == terms + 4
    assert not [Y for X, Y in zip(built, built[1:]) if X == Y]
