import random
import weakref

import pytest

from periodica import percomplex
from periodica.derivedper import DerivedContext, ext_dims
from periodica.families import linear_a, nakayama
from periodica.fields import QQ, Field
from periodica.linalg import Mat, reduce_mod_rowspace
from periodica.percomplex import (BoundedComplex, GradedMorphism,
                                  PeriodicComplex, K_of, bounded_homotopy_hom_dim,
                                  cohomology, cohomology_dim_vectors,
                                  cohomology_dims,
                                  complex_direct_sum, cone,
                                  decompose_acyclic_projective, fold,
                                  hom_complex, homotopy_hom, is_acyclic,
                                  is_contractible, is_quasi_iso, shift,
                                  stalk_complex, unroll)
from periodica.randomcx import random_bounded_projectives, random_periodic_complex
from periodica.rep import HomBasis, Morphism, Rep, hom_space, iso_q
from periodica.common import PreconditionError

from oracles import (direct_sum, induced_map_on_cohomology, is_homotopy,
                     is_quasi_iso_via_cohomology, quotient_rep,
                     sample_algebra)


def arrow_map(a2):
    P1, P2 = Rep.projective(a2, 1), Rep.projective(a2, 2)
    return hom_space(P1, P2)[0]


def test_shift_identities(a2):
    rng = random.Random(3)
    V = random_periodic_complex(a2, 2, rng)
    assert shift(V, 0) == V
    assert shift(V, 4) == V                      # 2m on the nose
    assert shift(V, 2) == V                      # m even: strict identity
    W = random_periodic_complex(a2, 3, rng)
    assert shift(W, 6) == W
    assert shift(shift(W, 1), 2) == shift(W, 3)


def test_shift_odd_m_sign(a2):
    rng = random.Random(5)
    for _ in range(6):
        W = random_periodic_complex(a2, 3, rng)
        if any(not d.is_zero() for d in W.diffs):
            break
    S = shift(W, 3)
    assert S.comps == W.comps
    assert any(S.diffs[i] != W.diffs[i] for i in range(3))
    # zero-differential complexes are strictly fixed by every shift multiple of m
    Z = PeriodicComplex(a2.quiver and a2 or a2, 3, W.comps,
                        [Morphism.zero(W.comps[i], W.comps[(i + 1) % 3])
                         for i in range(3)])
    assert shift(Z, 3) == Z


def test_stalk_shift(a2):
    S = Rep.simple(a2, 1)
    V = stalk_complex(S, 3, 0)
    W = shift(V, 1)
    assert W.comps[2].dims == S.dims
    assert all(d.is_zero() for d in W.diffs)


def test_K_of_contractible_all_periods(a2, dual):
    for alg in (a2, dual):
        A = Rep.regular(alg)
        for m in (1, 2, 3):
            K = K_of(A, m)
            assert is_acyclic(K)
            assert is_contractible(K)
    assert K_of(Rep.zero(a2), 2).dim_vector() == [0, 0]


def test_K_of_m1_shape(a2):
    A = Rep.projective(a2, 2)
    K = K_of(A, 1)
    assert K.comps[0].total_dim == 2 * A.total_dim
    assert K.diffs[0].blocks[0].rank() + K.diffs[0].blocks[1].rank() \
        == A.total_dim


BIG_P = 4294967311


def test_cone_identities_random(a2, n33):
    rng = random.Random(11)
    fp = Field.gf(BIG_P)
    a2p, n33p = linear_a(2, fp), nakayama(3, 3, fp)
    for alg, m in ((a2, 2), (a2, 3), (n33, 2), (a2, 1),
                   (a2p, 2), (a2p, 3), (n33p, 2), (a2p, 1)):
        for _ in range(3):
            V = random_periodic_complex(alg, m, rng)
            W = random_periodic_complex(alg, m, rng)
            dim, reps = homotopy_hom(V, W, 0)
            f = reps[0] if reps else GradedMorphism.zero(V, W)
            diagram = cone(f)
            diagram.verify()


def test_cone_of_identity_acyclic(a2):
    V = stalk_complex(Rep.regular(a2), 2, 0)
    d = cone(GradedMorphism.identity(V))
    assert is_acyclic(d.cone)
    assert is_contractible(d.cone)


def test_cone_of_zero_is_sum(a2):
    rng = random.Random(2)
    V = random_periodic_complex(a2, 2, rng)
    W = random_periodic_complex(a2, 2, rng)
    d = cone(GradedMorphism.zero(V, W))
    S = complex_direct_sum([W, shift(V, 1)])
    assert d.cone.dim_vector() == S.dim_vector()
    assert cohomology_dims(d.cone) == cohomology_dims(S)


def test_cone_rejects_non_chain_map(a2):
    P1, P2 = Rep.projective(a2, 1), Rep.projective(a2, 2)
    V = stalk_complex(P1, 2, 0)
    W = stalk_complex(P2, 2, 1)
    f = GradedMorphism(V, W, 1, [hom_space(P1, P2)[0],
                                 Morphism.zero(V.comps[1], W.comps[0])])
    with pytest.raises(PreconditionError):
        cone(f)


def test_cone_cohomology_example(a2):
    # P1 -> P2 as a stalk map folded at m = 2: cone has H^0 = S2, H^1 = 0
    f = arrow_map(a2)
    V = stalk_complex(f.source, 2, 0)
    W = stalk_complex(f.target, 2, 0)
    g = GradedMorphism(V, W, 0, [f, Morphism.zero(V.comps[1], W.comps[1])])
    assert g.is_closed()
    C = cone(g).cone
    assert cohomology(C, 0).dims == Rep.simple(a2, 2).dims
    assert cohomology(C, 1).is_zero()


def test_cohomology_examples(a2, dual):
    M = Rep.projective(a2, 2)
    V = stalk_complex(M, 2, 0)
    assert cohomology(V, 0).dims == M.dims
    assert cohomology(V, 1).is_zero()
    # over the dual numbers, multiplication by x has ker = im = (x), so the
    # two-periodic complex with both differentials x is acyclic; the frozen
    # values come from that kernel/image computation directly
    L = Rep.regular(dual)
    x = None
    for g in hom_space(L, L):
        if not g.is_zero() and not g.is_iso():
            x = g
    assert (x @ x).is_zero()
    assert x.blocks[0].rank() == 1
    assert x.blocks[0].kernel_basis().cols == 1
    V2 = PeriodicComplex(dual, 2, [L, L], [x, x])
    assert cohomology(V2, 0).total_dim == 0
    assert cohomology(V2, 1).total_dim == 0
    # one x and one zero differential leaves the simple in both spots
    V3 = PeriodicComplex(dual, 2, [L, L], [x, Morphism.zero(L, L)])
    assert cohomology(V3, 0).total_dim == 1
    assert cohomology(V3, 1).total_dim == 1


def test_rank_bookkeeping(a2, n33):
    rng = random.Random(23)
    for alg, m in ((a2, 2), (n33, 2), (a2, 3)):
        for _ in range(4):
            V = random_periodic_complex(alg, m, rng)
            lhs = sum(V.comps[i].total_dim - cohomology(V, i).total_dim
                      for i in range(m))
            rhs = 2 * sum(sum(b.rank() for b in V.diffs[i].blocks)
                          for i in range(m))
            assert lhs == rhs


@pytest.mark.parametrize("name", ["kA3", "commsquare", "N33"])
def test_cohom_data_matches_the_quotient_oracle(name):
    """H^i = D ker(D c) over A^op, c the corestricted d^{i-1}, against the
    rref quotient of the cocycles by c: the same module, with ``projH`` a
    module map onto H that vanishes on c."""
    alg = {"kA3": lambda: linear_a(3, QQ),
           "commsquare": lambda: sample_algebra("commsquare.alg", QQ),
           "N33": lambda: nakayama(3, 3, QQ)}[name]()
    rng = random.Random(36)
    proper = 0      # nonzero quotients by a nonzero d^{i-1}
    for m in (1, 2, 3):
        for _ in range(4):
            V = random_periodic_complex(alg, m, rng)
            for i in range(m):
                data = percomplex._cohom_data(V, i)
                c = [here.kernel_coords(prev) for here, prev
                     in zip(V.diffs[i].blocks, V.diffs[i - 1].blocks)]
                H = quotient_rep(data.Z, c)[0]
                assert data.H.algebra is alg and data.H.dims == H.dims
                assert H.is_zero() or iso_q(data.H, H)
                p = data.projH
                assert p.source is data.Z and p.target is data.H
                assert p.is_intertwiner()
                for b, d, x in zip(p.blocks, H.dims, c):
                    assert b.rank() == d and (b @ x).is_zero()
                proper += not (H.is_zero() or V.diffs[i - 1].is_zero())
    assert proper


def test_cohomology_of_shift(a2):
    rng = random.Random(4)
    V = random_periodic_complex(a2, 3, rng)
    for ell in (1, 2, 5, -1):
        W = shift(V, ell)
        for i in range(3):
            A = cohomology(W, i)
            B = cohomology(V, i + ell)
            assert A.dims == B.dims and (A.is_zero() or iso_q(A, B))


def test_bounded_complex_checks_both_ends_of_each_differential(a2):
    P2, S1, S2 = Rep.projective(a2, 2), Rep.simple(a2, 1), Rep.simple(a2, 2)
    g = hom_space(P2, S2)[0]                    # P(2) ->> S(2), nonzero
    BoundedComplex(a2, {0: P2, 1: S2}, {0: g})
    for comps in ({0: P2, 1: S1}, {1: S2}, {0: P2}):
        with pytest.raises(PreconditionError, match="differential 0 has "
                                                    "wrong ends"):
            BoundedComplex(a2, comps, {0: g})
    # right ends, but not a module map: identity at vertex 1, zero at 2;
    # a periodic complex refuses the same map with the same message
    bad = Morphism(P2, P2, [Mat(a2.field, 1, 1, [1]), Mat(a2.field, 1, 1, [0])])
    with pytest.raises(PreconditionError, match="differential 0 is not a "
                                                "module map"):
        BoundedComplex(a2, {0: P2, 1: P2}, {0: bad})
    with pytest.raises(PreconditionError, match="differential 0 is not a "
                                                "module map"):
        PeriodicComplex(a2, 2, [P2, P2], [bad, Morphism.zero(P2, P2)])


def test_random_bounded_projectives_builds_one_hom_basis_per_differential(
        a2, monkeypatch):
    # seed 1 keeps degrees -1..1 (two differentials) and needs a second try
    built = []
    init = HomBasis.__init__

    def counting_init(self, M, N):
        built.append((M, N))
        init(self, M, N)
    monkeypatch.setattr(HomBasis, "__init__", counting_init)
    X = random_bounded_projectives(a2, random.Random(1))
    assert sorted(X.comps) == [-1, 0, 1]
    assert len(built) == 2


def test_fold_cohomology(a2):
    # fold of a stalk is a stalk
    S = Rep.simple(a2, 1)
    B = BoundedComplex(a2, {0: S}, {})
    F, _ = fold(B, 2)
    assert F.comps[0].dims == S.dims and F.comps[1].is_zero()
    # fold of supported degrees {0, m} lands in one slot
    B2 = BoundedComplex(a2, {0: S, 2: S}, {})
    F2, _ = fold(B2, 2)
    assert F2.comps[0].total_dim == 2 * S.total_dim
    # cohomology adds up with signs forgotten
    rng = random.Random(9)
    for _ in range(5):
        X = random_bounded_projectives(a2, rng)
        FX, _ = fold(X, 2)
        for i in range(2):
            expected = 0
            for j in range(X.lo - 2, X.hi + 3):
                if (j - i) % 2 == 0:
                    # bounded cohomology at j
                    d_here = X.differential(j)
                    d_prev = X.differential(j - 1)
                    z = sum(b.kernel_basis().cols for b in d_here.blocks)
                    bb = sum(b.rank() for b in d_prev.blocks)
                    expected += z - bb
            assert cohomology(FX, i).total_dim == expected


def test_fold_cohomology_iso_objectwise(a2):
    # the folded cohomology is isomorphic to the sum over the residue class
    rng = random.Random(29)
    X = random_bounded_projectives(a2, rng)
    FX, _ = fold(X, 2)
    for i in range(2):
        parts = []
        for j in range(X.lo - 1, X.hi + 2):
            if (j - i) % 2 == 0:
                W = BoundedComplex(a2, dict(X.comps), dict(X.diffs))
                # compute H^j of the bounded complex as a module
                d_here = X.differential(j)
                d_prev = X.differential(j - 1)
                from periodica.rep import kernel_of
                Z, inclZ = kernel_of(d_here)
                bas = [b.image_basis() for b in d_prev.blocks]
                inside = []
                for v in range(len(Z.dims)):
                    S = inclZ.blocks[v].solve_matrix(bas[v])
                    inside.append(S)
                H, _ = quotient_rep(Z, inside)
                if not H.is_zero():
                    parts.append(H)
        F = cohomology(FX, i)
        if parts:
            S = direct_sum(parts)[0]
            assert F.dims == S.dims and (F.is_zero() or iso_q(F, S))
        else:
            assert F.is_zero()


def test_unroll_window(a2):
    S = Rep.simple(a2, 1)
    V = stalk_complex(S, 2, 0)
    W = unroll(V, 0, 3)
    assert W.component(0).dims == S.dims
    assert W.component(2).dims == S.dims
    assert W.component(1).is_zero()
    # interior cohomology matches the periodic one
    rng = random.Random(14)
    U = random_periodic_complex(a2, 2, rng)
    B = unroll(U, 0, 5)
    for j in (1, 2, 3, 4):
        d_here = B.differential(j)
        d_prev = B.differential(j - 1)
        z = sum(b.kernel_basis().cols for b in d_here.blocks)
        bb = sum(b.rank() for b in d_prev.blocks)
        assert z - bb == cohomology(U, j).total_dim
    # re-folding a full period reproduces the complex
    FF, _ = fold(unroll(U, 0, 1), 2)
    assert FF.dim_vector() == U.dim_vector()
    # but a longer window does not
    FF2, _ = fold(unroll(U, 0, 3), 2)
    assert FF2.dim_vector() != U.dim_vector()


def test_hom_complex_dims_and_identity(a2):
    rng = random.Random(6)
    V = random_periodic_complex(a2, 2, rng)
    W = random_periodic_complex(a2, 2, rng)
    hc = hom_complex(V, W)
    for p in (0, 1, -1, 2):
        expected = sum(len(hom_space(V.comps[i], W.comps[(i + p) % 2]))
                       for i in range(2))
        assert hc.total_dim(p) == expected
    ec = hom_complex(V, V)
    ident = GradedMorphism.identity(V)
    dmat = ec.diff_matrix(0)
    coords = ec.flatten(ident)
    img = dmat @ Mat.column(QQ, coords)
    assert img.is_zero()             # d(id) = 0


def test_graded_leibniz(a2, n33):
    rng = random.Random(8)
    for alg, m in ((a2, 2), (n33, 2), (a2, 3)):
        U = random_periodic_complex(alg, m, rng)
        V = random_periodic_complex(alg, m, rng)
        W = random_periodic_complex(alg, m, rng)
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
            f = _random_graded(rng, U, V, p)
            g = _random_graded(rng, V, W, q)
            lhs = (g @ f).dmap()
            sign = alg.field.sign_pow(q)
            rhs = (g.dmap() @ f) + (g @ f.dmap()).scale(sign)
            assert (lhs - rhs).is_zero()


def _random_graded(rng, V, W, p):
    m = V.m
    comps = []
    for i in range(m):
        space = hom_space(V.comps[i], W.comps[(i + p) % m])
        f = Morphism.zero(V.comps[i], W.comps[(i + p) % m])
        for g in space:
            c = rng.randint(-1, 1)
            if c:
                f = f + g.scale(c)
        comps.append(f)
    return GradedMorphism(V, W, p, comps)


def test_homotopy_hom_examples(a2):
    Lam = Rep.regular(a2)
    LS = stalk_complex(Lam, 2, 0)
    assert homotopy_hom(LS, LS, 0)[0] == Lam.total_dim
    assert homotopy_hom(LS, LS, 1)[0] == 0
    K = K_of(Lam, 2)
    assert homotopy_hom(K, K, 0)[0] == 0


def _greedy_class_vectors(H, p):
    """Class representatives by a greedy loop: each kernel vector of d^p,
    reduced modulo the coboundaries (the rref of d^{p-1}'s image basis,
    transposed), is kept when it raises the rank of the vectors kept.
    Returns the indices kept and the vectors."""
    field = H.field
    Z = H.diff_matrix(p).kernel_basis()
    R, piv = H.diff_matrix(p - 1).image_basis().transpose().rref()
    cols, kept = [], []
    for c in range(Z.cols):
        vec = reduce_mod_rowspace(R, piv, Z.col_list(c), field)
        if Mat.from_rows(field, kept + [vec]).rank() > len(kept):
            cols.append(c)
            kept.append(vec)
    return cols, kept


@pytest.mark.parametrize("field", [QQ, Field.gf(2), Field.gf(4294967311)])
def test_homotopy_classes_match_the_greedy_loop(field):
    # the pivots of one rref are the vectors the greedy loop keeps, in order;
    # some cases skip a reduced vector, so the first dim would not do
    skipped = 0
    for alg in (linear_a(3, field), nakayama(3, 2, field)):
        rng = random.Random(5)
        for m in (1, 2, 3):
            for _ in range(3):
                V = random_periodic_complex(alg, m, rng)
                H = hom_complex(V, random_periodic_complex(alg, m, rng))
                for p in range(-1, 2 * m + 1):
                    dim, reps = H.homotopy_classes(p)
                    cols, want = _greedy_class_vectors(H, p)
                    assert dim == len(want)
                    assert [H.flatten(r) for r in reps] == want
                    assert all(r.dmap().is_zero() for r in reps)
                    skipped += cols != list(range(dim))
    assert skipped


def test_homotopy_hom_fold_formula(a2):
    rng = random.Random(77)
    for _ in range(6):
        X = random_bounded_projectives(a2, rng)
        Y = random_bounded_projectives(a2, rng)
        FX, _ = fold(X, 2)
        FY, _ = fold(Y, 2)
        lhs = homotopy_hom(FX, FY, 0)[0]
        rhs = sum(bounded_homotopy_hom_dim(X, Y, mi)
                  for mi in range(-10, 11, 2))
        assert lhs == rhs


def test_bounded_hom_complex_builds_no_basis_on_a_zero_component(
        a2, monkeypatch):
    # Hom(X^j, Y^{j+s}) = 0 when either end is 0: no Hom piece (Yoneda or
    # HomBasis) is built there, on a Prop. 3.10 pair, on the Ext cochains
    # of a resolution or on the periodic Hom complex of two stalks'
    # K-projective replacements, which have a zero component at m = 3
    rng = random.Random(77)
    X = random_bounded_projectives(a2, rng)
    Y = random_bounded_projectives(a2, rng)
    lhs = homotopy_hom(fold(X, 2)[0], fold(Y, 2)[0], 0)[0]
    built = []
    real = percomplex.hom_coords

    def counting(M, N):
        built.append((M.total_dim, N.total_dim))
        return real(M, N)

    monkeypatch.setattr(percomplex, "hom_coords", counting)
    assert lhs == sum(bounded_homotopy_hom_dim(X, Y, mi)
                      for mi in range(-10, 11, 2))
    assert built and all(m and n for m, n in built)
    built.clear()
    S1, S2 = Rep.simple(a2, 1), Rep.simple(a2, 2)
    assert ext_dims(S2, S1, 3) == [0, 1, 0, 0]
    assert built and all(m and n for m, n in built)
    built.clear()
    ctx = DerivedContext(a2, 3)
    assert [ctx.derived_hom_modules(S2, S1, p) for p in range(3)] == [0, 1, 0]
    assert built and all(m and n for m, n in built)


def test_hom_complexes_refuse_two_base_algebras(a2, n33):
    # both index sets check the base algebra once; a Hom complex that built
    # no piece in a degree would otherwise answer 0 there
    X = BoundedComplex(a2, {0: Rep.projective(a2, 1)}, {})
    Y = BoundedComplex(n33, {0: Rep.projective(n33, 1)}, {})
    for s in (0, 5):
        with pytest.raises(PreconditionError, match="different base algebras"):
            bounded_homotopy_hom_dim(X, Y, s)
    with pytest.raises(PreconditionError, match="different base algebras"):
        hom_complex(stalk_complex(Rep.simple(a2, 1), 2),
                    stalk_complex(Rep.simple(n33, 1), 2))


def test_flatten_refuses_a_map_that_is_not_a_module_map(a2):
    # Hom(S(2), P(2)) = 0 though both are nonzero at vertex 2: that piece is
    # in no layout, and a nonzero map there is refused, not dropped
    S2, P2 = Rep.simple(a2, 2), Rep.projective(a2, 2)
    V, W = stalk_complex(S2, 2), stalk_complex(P2, 2)
    g = Morphism(S2, P2, [Mat.zeros(QQ, 1, 0), Mat.identity(QQ, 1)])
    f = GradedMorphism(V, W, 0, [g, Morphism.zero(V.comps[1], W.comps[1])])
    H = hom_complex(V, W)
    assert H.degree_layout(0) == []
    with pytest.raises(PreconditionError, match="not a module morphism"):
        H.flatten(f)


def test_contraction_needs_equal_complexes(a2):
    # the stalks of S(1) and S(2) have equal dimension vectors but are not
    # equal, so there is no identity to contract
    V, W = (stalk_complex(Rep.simple(a2, v), 2) for v in (1, 2))
    assert V.dim_vector() == W.dim_vector()
    with pytest.raises(PreconditionError, match="contraction needs V = W"):
        hom_complex(V, W).contraction()
    assert not is_contractible(V)


class _WeakComplex(PeriodicComplex):
    """A complex a weak reference can point at."""
    __slots__ = ("__weakref__",)


def test_a_hom_complex_leaves_no_cycle_through_its_complexes(
        a2, no_cyclic_gc):
    # a complex holds nothing about its Hom complexes, so both ends die with
    # their last reference
    rng = random.Random(5)
    held = []
    for _ in range(50):
        V, W = [_WeakComplex(a2, 2, X.comps, X.diffs, check=False)
                for X in (random_periodic_complex(a2, 2, rng),
                          random_periodic_complex(a2, 2, rng))]
        hom_complex(V, W).homotopy_dim(0)
        held += [weakref.ref(V), weakref.ref(W)]
        del V, W
    assert held and all(r() is None for r in held)


def test_hom_complex_graded_piece_formula(a2):
    # the graded pieces, cocycles and coboundaries of the folded Hom complex
    # match the sums over the bounded side, degree by degree
    rng = random.Random(15)
    X = random_bounded_projectives(a2, rng)
    Y = random_bounded_projectives(a2, rng)
    m = 2
    FX, _ = fold(X, m)
    FY, _ = fold(Y, m)
    hc = hom_complex(FX, FY)
    from periodica.percomplex import BoundedHomComplex
    bc = BoundedHomComplex(X, Y)
    for p in (0, 1):
        total = 0
        zsum = 0
        bsum = 0
        for s in range(p - 12, p + 13):
            if (s - p) % m:
                continue
            pieces = [bc.piece(j, j + s).dim
                      for j in range(X.lo, X.hi + 1)]
            total += sum(pieces)
            zsum += bc.diff_matrix(s).kernel_basis().cols
            bsum += bc.diff_matrix(s - 1).rank()
        assert hc.total_dim(p) == total
        assert hc.diff_matrix(p).kernel_basis().cols == zsum
        assert hc.diff_matrix(p - 1).rank() == bsum


def test_quasi_iso_and_oracle_agree(a2):
    rng = random.Random(21)
    found_nontrivial = 0
    for _ in range(10):
        V = random_periodic_complex(a2, 2, rng)
        W = random_periodic_complex(a2, 2, rng)
        _, reps = homotopy_hom(V, W, 0)
        for f in reps[:2]:
            a = is_quasi_iso(f)
            b = is_quasi_iso_via_cohomology(f)
            assert a == b
            found_nontrivial += a
    ident = GradedMorphism.identity(random_periodic_complex(a2, 2, rng))
    assert is_quasi_iso(ident) and is_quasi_iso_via_cohomology(ident)


def _assert_rank_route_matches(X):
    hs = [cohomology(X, i) for i in range(X.m)]
    assert cohomology_dim_vectors(X) == [list(H.dims) for H in hs]
    assert cohomology_dims(X) == [H.total_dim for H in hs]
    assert is_acyclic(X) == all(H.is_zero() for H in hs)


@pytest.mark.parametrize("field", [QQ, Field.gf(5), Field.gf(BIG_P)],
                         ids=["Q", "GF5", "GFbig"])
def test_rank_route_matches_module_route(field):
    rng = random.Random(41)
    for k in (2, 3):
        alg = linear_a(k, field)
        for m in (1, 2, 3):
            ctx = DerivedContext(alg, m)
            for _ in range(2):
                V = random_periodic_complex(alg, m, rng)
                W = random_periodic_complex(alg, m, rng)
                _assert_rank_route_matches(V)
                _assert_rank_route_matches(W)
                _, reps = homotopy_hom(V, W, 0)
                # the replacement map and the identity are quasi-isomorphisms
                maps = reps[:2] + [GradedMorphism.identity(V),
                                   ctx.replacement(V)[1]]
                for f in maps:
                    assert is_quasi_iso(f) == is_quasi_iso_via_cohomology(f)
                    _assert_rank_route_matches(cone(f).cone)


@pytest.mark.parametrize("m", [1, 2])
def test_rank_route_rejects_d_squared_nonzero(a2, m):
    # d = an idempotent of rank 1 on S(1)+S(1): every rank count reads 0,
    # so without the d^2 check the complex would pass as acyclic
    M = direct_sum([Rep.simple(a2, 1), Rep.simple(a2, 1)])[0]
    e = Morphism(M, M, [Mat.from_rows(QQ, [[1, 0], [0, 0]]), Mat.zeros(QQ, 0, 0)])
    V = PeriodicComplex(a2, m, [M] * m, [e] * m, check=False)
    with pytest.raises(PreconditionError, match="d\\^2"):
        is_acyclic(V)
    with pytest.raises(PreconditionError, match="d\\^2"):
        cohomology_dims(V)
    with pytest.raises(PreconditionError, match="d\\^2"):
        cohomology_dim_vectors(V)
    with pytest.raises(PreconditionError):
        PeriodicComplex(a2, m, [M] * m, [e] * m)


def test_contractible_iff_acyclic_projective(a2):
    # five-way equivalence spot checks on seeded projective complexes
    rng = random.Random(31)
    P1, P2 = Rep.projective(a2, 1), Rep.projective(a2, 2)
    for m in (2, 3):
        pieces = [K_of(P1, m), shift(K_of(P2, m), 1), K_of(P2, m)]
        V = complex_direct_sum(pieces[:rng.randint(2, 3)])
        assert is_acyclic(V)
        assert is_contractible(V)
        summands = decompose_acyclic_projective(V)
        assert sum(z.total_dim for z, _ in summands) * 2 \
            == sum(V.dim_vector())
    # a non-acyclic projective complex is neither
    S = stalk_complex(P2, 2, 0)
    assert not is_acyclic(S)
    assert not is_contractible(S)


def test_decompose_acyclic_recovers_blocks(a2):
    P1, P2 = Rep.projective(a2, 1), Rep.projective(a2, 2)
    V = complex_direct_sum([K_of(P1, 2), shift(K_of(P2, 2), 1)])
    out = decompose_acyclic_projective(V)
    assert sorted((z.dims, l) for z, l in out) \
        == sorted([(P1.dims, 0), (P2.dims, 1)])
    # cone of the identity on the regular stalk is one K-block up to iso
    Lam = Rep.regular(a2)
    C = cone(GradedMorphism.identity(stalk_complex(Lam, 2, 0))).cone
    out2 = decompose_acyclic_projective(C)
    assert len(out2) == 1
    Z, ell = out2[0]
    assert Z.dims == Lam.dims and iso_q(Z, Lam)


def test_decompose_acyclic_m1(a2):
    P2 = Rep.projective(a2, 2)
    V = K_of(P2, 1)
    out = decompose_acyclic_projective(V)
    assert len(out) == 1 and out[0][0].dims == P2.dims


def test_decompose_acyclic_rejects_bad_input(a2, dual):
    S = stalk_complex(Rep.simple(a2, 1), 2, 0)
    with pytest.raises(PreconditionError):
        decompose_acyclic_projective(S)    # not acyclic
    # acyclic projective complex with non-projective cocycles (infinite
    # global dimension): the K-sum equivalence genuinely fails here
    L = Rep.regular(dual)
    x = next(g for g in hom_space(L, L)
             if not g.is_zero() and not g.is_iso())
    V = PeriodicComplex(dual, 2, [L, L], [x, x])
    assert is_acyclic(V)
    assert not is_contractible(V)
    with pytest.raises(PreconditionError):
        decompose_acyclic_projective(V)


def test_induced_map_on_cohomology(a2):
    rng = random.Random(41)
    V = random_periodic_complex(a2, 2, rng)
    ident = GradedMorphism.identity(V)
    for i in range(2):
        g = induced_map_on_cohomology(ident, i)
        assert g.source.dims == g.target.dims
        assert g.is_iso() or g.source.total_dim == 0


def test_homotopy_witness(a2):
    # two chain maps differing by an exact map are homotopic, and the
    # witness identity f - g = d(h) is checked exactly
    rng = random.Random(55)
    V = random_periodic_complex(a2, 2, rng)
    W = random_periodic_complex(a2, 2, rng)
    _, reps = homotopy_hom(V, W, 0)
    f = reps[0] if reps else GradedMorphism.zero(V, W)
    h = _random_graded(rng, V, W, -1)
    g = f + h.dmap()
    assert g.is_closed()
    assert is_homotopy(g, f, h)
    with pytest.raises(PreconditionError):
        is_homotopy(g, f, _random_graded(rng, V, W, 0))


def test_injectives_are_duals_over_opposite(a2, n33):
    # dim vectors of I(v) match those of the projective at v over the
    # opposite algebra (duality exchanges the two)
    for alg in (a2, n33):
        op = alg.opposite()
        for v in range(1, alg.quiver.n + 1):
            I = Rep.injective(alg, v)
            Pop = Rep.projective(op, v)
            assert I.dims == Pop.dims
