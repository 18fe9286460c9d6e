"""Hom out of a sum of projectives read by Yoneda (``rep.YonedaHom``)
against the Hom system (``rep.HomBasis``), its oracle.

A module built by ``Rep.projective`` and ``block_sum`` carries its top
vertices (``Rep.tops``); the same module rebuilt from its dimension vector
and action matrices carries none, so every Hom complex here is computed
twice, once by each route, on the same matrices.  Pieces must have the same
dimension and coordinates that round-trip; post- and pre-composition
matrices assembled from blocks must equal the ones read off composites;
coboundary ranks, ``homotopy_dim`` and lifts must agree.
"""

import random
import weakref
from collections import Counter

import pytest

from periodica import derivedper
from periodica import rep as rep_mod
from periodica.common import CheckFailed, PreconditionError
from periodica.derivedper import (DerivedContext, ext_sum_check,
                                  stalk_tilting_check)
from periodica.families import all_intervals, linear_a, nakayama
from periodica.fields import Field, QQ
from periodica.hochschild import HochschildContext
from periodica.linalg import Mat
from periodica.percomplex import (BoundedComplex, BoundedHomComplex,
                                  PeriodicComplex, fold, hom_complex,
                                  resolution_complex)
from periodica.randomcx import (random_bounded_projectives,
                                random_periodic_complex)
from periodica.rep import (HomBasis, Morphism, Rep, YonedaHom, _HomCoords,
                           _lift, block_map, block_sum, hom_space,
                           is_projective, projective_cover)

from oracles import hom_basis_lift, sample_algebra

FIELDS = [QQ, Field.gf(2), Field.gf(4294967311)]
FIELD_IDS = ["Q", "GF2", "GFbig"]


def _strip(M: Rep) -> Rep:
    """M rebuilt from its matrices: the same module, no tops carried."""
    return Rep(M.algebra, M.dims, M.act)


def _strip_map(f: Morphism, source: Rep, target: Rep) -> Morphism:
    return Morphism(source, target, f.blocks)


def _strip_periodic(V: PeriodicComplex) -> PeriodicComplex:
    comps = [_strip(c) for c in V.comps]
    return PeriodicComplex(V.algebra, V.m, comps, [
        _strip_map(d, comps[i], comps[(i + 1) % V.m])
        for i, d in enumerate(V.diffs)], check=False)


def _strip_bounded(X: BoundedComplex) -> BoundedComplex:
    comps = {j: _strip(c) for j, c in X.comps.items()}
    return BoundedComplex(X.algebra, comps, {
        j: _strip_map(d, comps[j], comps[j + 1]) for j, d in X.diffs.items()},
        check=False)


def _algebras(field):
    """kA2..kA4, the commutative square (gd 2) and N(3,3)."""
    return [linear_a(n, field) for n in (2, 3, 4)] + [
        sample_algebra("commsquare.alg", field), nakayama(3, 3, field)]


def _targets(alg):
    n = alg.quiver.n
    return ([Rep.simple(alg, v) for v in range(1, n + 1)]
            + [_strip(Rep.projective(alg, v)) for v in range(1, n + 1)]
            + [Rep.injective(alg, v) for v in range(1, n + 1)])


def _sources(alg, rng):
    """Each P(v), and two random sums of two or three P(v)."""
    n = alg.quiver.n
    projs = [Rep.projective(alg, v) for v in range(1, n + 1)]
    return projs + [block_sum([rng.choice(projs)
                               for _ in range(rng.randint(2, 3))])
                    for _ in range(2)]


def _random_map(rng, space):
    return space.from_coords([rng.randint(-2, 2) for _ in range(space.dim)])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_yoneda_pieces_match_the_hom_basis(field):
    rng = random.Random(3)
    for alg in _algebras(field):
        sources = _sources(alg, rng)
        for P in sources:
            assert P.tops is not None
            for N in _targets(alg) + sources:
                Y, H = YonedaHom(P, N), HomBasis(P, N)
                assert Y.dim == H.dim
                # every Hom-system basis map round-trips through Yoneda
                for g in H.basis:
                    assert Y.from_coords(Y.coords_of(g)) == g
                # the Yoneda basis maps are module maps and independent
                assert all(g.is_intertwiner() for g in Y.basis)
                assert H.coords_matrix(Y.basis).rank() == Y.dim
                c = [field.coerce(rng.randint(-3, 3)) for _ in range(Y.dim)]
                assert Y.coords_of(Y.from_coords(c)) == c
                assert Y.coords_matrix(H.basis) == Mat(
                    field, Y.dim, H.dim,
                    [x for i in range(Y.dim)
                     for x in (Y.coords_of(g)[i] for g in H.basis)])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_block_matrices_match_the_composites(field):
    # post- and pre-composition assembled from blocks equal the ones read
    # off composites of the basis maps, in the Yoneda coordinates
    rng = random.Random(11)
    for alg in _algebras(field):
        sources = _sources(alg, rng)
        for P in sources:
            for N in _targets(alg)[:3] + sources[:2]:
                Y = YonedaHom(P, N)
                for M in _targets(alg)[::3] + sources[:2]:
                    d = _random_map(rng, HomBasis(N, M))
                    into = YonedaHom(P, M)
                    assert Y.post_matrix(d, into) == \
                        _HomCoords.post_matrix(Y, d, into)
                for Q in sources[:3]:
                    d = _random_map(rng, HomBasis(Q, P))
                    into = YonedaHom(Q, N)
                    assert Y.pre_matrix(d, into) == \
                        _HomCoords.pre_matrix(Y, d, into)
                    # into a HomBasis piece the composite route is taken
                    plain = HomBasis(_strip(Q), N)
                    assert Y.pre_matrix(d, plain) == plain.coords_matrix(
                        [g @ d for g in Y.basis])


def test_pre_matrix_leaves_no_cycle(no_cyclic_gc):
    # the rho_N(s) of one pre_matrix call are kept by nothing once it
    # returns, so N and its algebra die with their last reference
    alg = nakayama(3, 3, QQ)
    algebra = weakref.ref(alg)
    P, Q = Rep.projective(alg, 1), block_sum(
        [Rep.projective(alg, 2), Rep.projective(alg, 3)])
    N = Rep.regular(alg)
    d = _random_map(random.Random(2), YonedaHom(Q, P))
    into = YonedaHom(Q, N)
    B = YonedaHom(P, N).pre_matrix(d, into)
    assert B == _HomCoords.pre_matrix(YonedaHom(P, N), d, into)
    assert not B.is_zero()
    del alg, P, Q, N, d, into
    assert algebra() is None


def test_yoneda_refuses_a_map_that_is_not_a_module_map():
    a2 = linear_a(2, QQ)
    P2 = Rep.projective(a2, 2)
    # identity at the top vertex, zero at the other: not a module map
    g = Morphism(P2, P2, [Mat.zeros(QQ, 1, 1), Mat.identity(QQ, 1)])
    for space in (YonedaHom(P2, P2), HomBasis(P2, P2)):
        with pytest.raises(PreconditionError, match="not a module morphism"):
            space.coords_of(g)
    # a source without tops has no Yoneda coordinates
    with pytest.raises(PreconditionError, match="needs a sum of projectives"):
        YonedaHom(_strip(P2), P2)
    # the same generator values with one other column changed
    rng = random.Random(5)
    for field in FIELDS:
        for alg in _algebras(field):
            for P in _sources(alg, rng):
                gens = set()
                for v, r in zip(P.tops, rep_mod._generator_rows(P)):
                    gens.add((v, r))
                for N in _targets(alg):
                    Y = YonedaHom(P, N)
                    spot = next(((u, c) for u in range(len(P.dims))
                                 for c in range(P.dims[u])
                                 if N.dims[u] and (u + 1, c) not in gens),
                                None)
                    if spot is None:
                        continue
                    u, c = spot
                    g = Y.from_coords([rng.randint(-1, 1)
                                       for _ in range(Y.dim)])
                    blocks = list(g.blocks)
                    data = list(blocks[u].data)
                    data[c] = field.add(data[c], field.one())
                    blocks[u] = Mat(field, N.dims[u], P.dims[u], data)
                    bad = Morphism(P, N, blocks)
                    for space in (Y, HomBasis(P, N)):
                        with pytest.raises(PreconditionError,
                                           match="not a module morphism"):
                            space.coords_matrix([g, bad])


def _check_periodic(H, plain, degrees):
    """The Yoneda Hom complex H against ``plain``, the same complexes with
    no tops: dims, coboundary ranks, ``homotopy_dim`` and the class count;
    H's differential against its column-by-column rebuild through dmap."""
    field = H.field
    for p in degrees:
        assert H.degree_layout(p) == plain.degree_layout(p)
        assert H.diff_matrix(p).rank() == plain.diff_matrix(p).rank()
        assert H.homotopy_dim(p) == plain.homotopy_dim(p) \
            == H.homotopy_classes(p)[0]
        n = H.total_dim(p)
        cols = []
        for c in range(n):
            e = [field.zero()] * n
            e[c] = field.one()
            cols.append(H.flatten(H.unflatten(p, e).dmap()))
        if cols:
            assert H.diff_matrix(p) == Mat.from_rows(field, cols).transpose()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_periodic_hom_complexes_match_the_hom_basis_route(field):
    rng = random.Random(19)
    for alg in [linear_a(n, field) for n in (2, 3)] + [
            sample_algebra("commsquare.alg", field)]:
        for m in (1, 2, 3):
            ctx = DerivedContext(alg, m)
            for _ in range(2):
                PV, _ = ctx.replacement(random_periodic_complex(alg, m, rng))
                PW, _ = ctx.replacement(random_periodic_complex(alg, m, rng))
                assert all(c.tops is not None for c in PV.comps + PW.comps)
                _check_periodic(hom_complex(PV, PW), hom_complex(
                    _strip_periodic(PV), _strip_periodic(PW)),
                    range(-1, 2 * m + 1))
    # folds of bounded complexes of projectives over N(3,3)
    alg = nakayama(3, 3, field)
    for m in (1, 2, 3):
        FX = fold(random_bounded_projectives(alg, rng), m)[0]
        FY = fold(random_bounded_projectives(alg, rng), m)[0]
        _check_periodic(hom_complex(FX, FY), hom_complex(
            _strip_periodic(FX), _strip_periodic(FY)), range(-1, 2 * m + 1))


def test_the_weight_3_replacement_matches_the_hom_basis_route():
    square = sample_algebra("commsquare.alg", QQ)
    ctx = DerivedContext(square, 2)
    P1, P2 = Rep.projective(square, 1), Rep.projective(square, 2)
    I2, S4 = Rep.injective(square, 2), Rep.simple(square, 4)
    V0, V1 = block_sum([P1, I2]), block_sum([P2, S4])
    d0 = block_map(V0, V1, [P2, S4], [P1, I2],
                   {(0, 0): hom_space(P1, P2)[0], (1, 1): hom_space(I2, S4)[0]})
    d1 = block_map(V1, V0, [P1, I2], [P2, S4],
                   {(1, 0): hom_space(P2, I2)[0]})
    V = PeriodicComplex(square, 2, [V0, V1], [d0, d1])
    T, _ = ctx.replacement(V)
    plain = _strip_periodic(T)
    for W in (T, ctx.replacement(random_periodic_complex(
            square, 2, random.Random(25)))[0]):
        _check_periodic(hom_complex(T, W),
                        hom_complex(plain, _strip_periodic(W)), range(-1, 5))


def _check_bounded(H, plain, degrees):
    for s in degrees:
        assert H.degree_layout(s) == plain.degree_layout(s)
        assert H.diff_matrix(s).rank() == plain.diff_matrix(s).rank()
        assert H.homotopy_dim(s) == plain.homotopy_dim(s)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_bounded_hom_complexes_match_the_hom_basis_route(field):
    rng = random.Random(23)
    for alg in _algebras(field)[:4]:
        ctx = DerivedContext(alg, 2)
        for M in _targets(alg):
            X = resolution_complex(ctx.resolution(M))
            for N in _targets(alg)[::2]:
                Y = BoundedComplex(alg, {0: N}, {})
                _check_bounded(BoundedHomComplex(X, Y), BoundedHomComplex(
                    _strip_bounded(X), Y), range(0, 4))
        for _ in range(3):
            X = random_bounded_projectives(alg, rng)
            Y = random_bounded_projectives(alg, rng)
            _check_bounded(BoundedHomComplex(X, Y), BoundedHomComplex(
                _strip_bounded(X), _strip_bounded(Y)), range(-6, 7))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_bimodule_resolution_cochains_match_the_hom_basis_route(field):
    hctx = HochschildContext(nakayama(3, 3, field), bound=4)
    X = resolution_complex(hctx.res)
    assert all(c.tops is not None for c in X.comps.values())
    plain = BoundedHomComplex(_strip_bounded(X), hctx.cochains.Y)
    _check_bounded(hctx.cochains, plain, range(0, 4))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_lift_out_of_tops_matches_the_hom_basis_route(field):
    rng = random.Random(31)
    outcomes = Counter()
    for alg in _algebras(field):
        sources = _sources(alg, rng)
        mods = _targets(alg) + sources[:2]
        for P in sources:
            for X in mods[::2]:
                for Y in mods[1::2]:
                    q = _random_map(rng, HomBasis(X, Y))
                    # into the image: a lift exists and is certified
                    g = q @ _random_map(rng, HomBasis(P, X))
                    h = _lift(g, q)
                    assert h.source is P and q @ h == g
                    # any map: Yoneda lifts exactly when the Hom route does
                    g = _random_map(rng, HomBasis(P, Y))
                    got = []
                    for source, lift in ((P, _lift),
                                         (_strip(P), hom_basis_lift)):
                        try:
                            h = lift(_strip_map(g, source, Y), q)
                            assert q @ h == g
                            got.append(True)
                        except CheckFailed:
                            got.append(False)
                    assert got[0] == got[1]
                    outcomes[got[0]] += 1
    assert outcomes[True] and outcomes[False]


def test_lift_refuses_a_map_that_is_not_a_module_map():
    # the generator values lift, the certificate q o h = g does not hold
    a2 = linear_a(2, QQ)
    P2 = Rep.projective(a2, 2)
    g = Morphism(P2, P2, [Mat.zeros(QQ, 1, 1), Mat.identity(QQ, 1)])
    with pytest.raises(CheckFailed, match="projective lift failed"):
        _lift(g, Morphism.identity(P2))
    # and a map out of the image: S(2) is not in the image of S(1) -> ...
    S2 = Rep.simple(a2, 2)
    cover = projective_cover(S2)[1]
    with pytest.raises(CheckFailed, match="projective lift failed"):
        _lift(cover, Morphism.zero(Rep.simple(a2, 1), S2))


def test_lift_refuses_a_source_without_tops():
    # the same projective rebuilt from its matrices is refused, not lifted
    a2 = linear_a(2, QQ)
    P1 = Rep.projective(a2, 1)
    g = Morphism.identity(_strip(P1))
    with pytest.raises(PreconditionError, match="source with tops"):
        _lift(g, Morphism.identity(_strip(P1)))


def test_no_hom_basis_has_a_projective_source(monkeypatch):
    # Ext sums, stalk tilting and HH on kA3 read every Hom out of a
    # projective by Yoneda
    a3 = linear_a(3, QQ)
    built = []
    real = HomBasis.__init__

    def counting(self, M, N):
        if not M.is_zero() and is_projective(M):
            built.append((M.dims, N.dims))
        real(self, M, N)
    monkeypatch.setattr(HomBasis, "__init__", counting)
    HomBasis(Rep.projective(a3, 1), Rep.simple(a3, 1))
    assert len(built) == 1          # the counter sees a direct build
    built.clear()
    intervals = [M for _, M in all_intervals(a3)]
    for m in (1, 2, 3):
        ctx = DerivedContext(a3, m)
        for M in intervals:
            for N in intervals:
                assert ext_sum_check(ctx, M, N)["match"]
        assert stalk_tilting_check(ctx)["pass"]
    hctx = HochschildContext(a3)
    assert [hctx.hh(p) for p in range(4)] == [1, 0, 0, 0]
    assert built == []


def test_ext_sum_builds_one_resolution_complex_per_module(monkeypatch):
    a3 = linear_a(3, QQ)
    made = Counter()
    real = derivedper.resolution_complex

    def counting(res, upto=None):
        made[id(res.module)] += 1
        return real(res, upto)
    monkeypatch.setattr(derivedper, "resolution_complex", counting)
    intervals = [M for _, M in all_intervals(a3)]
    ctx = DerivedContext(a3, 2)
    for M in intervals:
        for N in intervals:
            ext_sum_check(ctx, M, N)
    assert made == Counter({id(M): 1 for M in intervals})


@pytest.mark.parametrize("name", ["commsquare.alg", "ratsquare.alg"])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_periodic_homotopy_dim_is_the_class_count(name, field):
    rng = random.Random(41)
    algs = [sample_algebra(name, field)]
    if name == "commsquare.alg":
        algs += [linear_a(n, field) for n in (2, 3, 4)]
    for alg in algs:
        for m in (1, 2, 3, 4):
            ctx = DerivedContext(alg, m)
            V = random_periodic_complex(alg, m, rng)
            W = random_periodic_complex(alg, m, rng)
            for H in (hom_complex(V, W), hom_complex(
                    ctx.replacement(V)[0], ctx.replacement(W)[0])):
                for p in range(2 * m):
                    assert H.homotopy_dim(p) == H.homotopy_classes(p)[0]


def test_is_projective_reads_the_carried_tops(monkeypatch):
    rng = random.Random(43)
    cases = []
    for field in FIELDS:
        for alg in _algebras(field) + [sample_algebra("ratsquare.alg", field)]:
            n = alg.quiver.n
            projs = [Rep.projective(alg, v) for v in range(1, n + 1)]
            sums = [block_sum([rng.choice(projs) for _ in range(k)])
                    for k in (1, 2, 3)] + [Rep.regular(alg), Rep.zero(alg)]
            others = ([Rep.simple(alg, v) for v in range(1, n + 1)]
                      + [Rep.injective(alg, v) for v in range(1, n + 1)])
            cases.append((sums, [_strip(P) for P in projs + sums], others))
    for sums, stripped, others in cases:
        # no echelon form for a module with tops
        with monkeypatch.context() as patched:
            patched.setattr(rep_mod, "_top_cols", None)
            assert all(is_projective(P) for P in sums)
        # the same modules without the record, through the radicals
        assert all(P.tops is None and is_projective(P) for P in stripped)
        for M in others:
            assert is_projective(M) == (
                projective_cover(M)[0].total_dim == M.total_dim)
