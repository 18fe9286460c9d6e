"""Block-assembled sums of complexes against a reference built from the
canonical injections and projections of ``direct_sum``.

``fold``, ``complex_direct_sum`` and ``cone`` place their differentials'
blocks directly; here each differential is rebuilt as a sum of triple
products inj o d o pr, and ``PeriodicHomComplex.diff_matrix`` is rebuilt
column by column from ``GradedMorphism.dmap``.
"""

import random

import pytest

from periodica.fields import Field, QQ
from periodica.families import linear_a
from periodica.linalg import Mat
from periodica.percomplex import (K_of, PeriodicComplex, complex_direct_sum,
                                  cone, fold, hom_complex, shift)
from periodica.randomcx import (random_bounded_projectives,
                                random_periodic_complex)
from periodica.rep import Morphism, Rep

from oracles import direct_sum

FIELDS = [QQ, Field.gf(2), Field.gf(4294967311)]
SEEDS = range(3)


def _sum_of_products(terms, source: Rep, target: Rep) -> Morphism:
    """The sum of inj o d o pr over ``terms``, or zero when there is none."""
    out = Morphism.zero(source, target)
    for inj, d, pr in terms:
        out = out + inj @ d @ pr
    return out


def _ref_sum(parts):
    """direct_sum of a possibly empty list, with injections and projections."""
    if not parts:
        return None, [], []
    return direct_sum(parts)


def _contractible(A: Rep, m: int) -> PeriodicComplex:
    """K_A, at m = 1 rebuilt here as A + A with d = inj_0 o pr_1."""
    if m > 1:
        return K_of(A, m)
    S, injs, projs = direct_sum([A, A])
    K = PeriodicComplex(A.algebra, 1, [S], [injs[0] @ projs[1]])
    assert K == K_of(A, 1)
    return K


def _random_chain_map(V, W, rng):
    """A random closed degree-0 map V -> W, from the cocycles of Hom(V, W)."""
    H = hom_complex(V, W)
    Z = H.diff_matrix(0).kernel_basis()
    field = V.algebra.field
    vec = [field.zero()] * Z.rows
    for c in range(Z.cols):
        coeff = field.coerce(rng.randint(-2, 2))
        vec = [field.add(x, field.mul(coeff, y))
               for x, y in zip(vec, Z.col_list(c))]
    f = H.unflatten(0, vec)
    assert f.is_closed()
    return f


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fold_matches_injection_products(field, seed, m):
    alg = linear_a(3, field)
    rng = random.Random(seed)
    cases = [random_bounded_projectives(alg, rng, span=4) for _ in range(6)]
    assert any(C.diffs for C in cases)
    for C in cases:
        _check_fold(C, m)


def _check_fold(C, m):
    P, layout = fold(C, m)
    assert sorted(j for js in layout for j in js) == sorted(C.comps)
    sums = {i: _ref_sum([C.comps[j] for j in js])
            for i, js in enumerate(layout)}
    inj, pr = {}, {}
    for i, js in enumerate(layout):
        for k, j in enumerate(js):
            assert j % m == i
            inj[j], pr[j] = sums[i][1][k], sums[i][2][k]
        if js:
            assert P.comps[i] == sums[i][0]
        else:
            assert P.comps[i].is_zero()
    for i, js in enumerate(layout):
        ref = _sum_of_products(
            [(inj[j + 1], C.diffs[j], pr[j]) for j in js if j in C.diffs],
            P.comps[i], P.comps[(i + 1) % m])
        assert P.diffs[i] == ref


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_direct_sum_and_cone_match_injection_products(field, seed, m):
    alg = linear_a(3, field)
    rng = random.Random(100 * seed + m)
    parts = [random_periodic_complex(alg, m, rng, max_summands=3)
             for _ in range(2)] + [_contractible(Rep.projective(alg, 1), m)]
    S = complex_direct_sum(parts)
    sums = [direct_sum([p.comps[i] for p in parts]) for i in range(m)]
    for i in range(m):
        assert S.comps[i] == sums[i][0]
        nxt = sums[(i + 1) % m]
        ref = _sum_of_products(
            [(nxt[1][k], p.diffs[i], sums[i][2][k])
             for k, p in enumerate(parts)], S.comps[i], S.comps[(i + 1) % m])
        assert S.diffs[i] == ref

    V = W = S
    f = _random_chain_map(V, W, rng)
    diagram = cone(f)
    diagram.verify()
    C, V1 = diagram.cone, shift(V, 1)
    sums = [direct_sum([W.comps[i], V1.comps[i]]) for i in range(m)]
    for i in range(m):
        j = (i + 1) % m
        (_, injs, projs), (_, injs1, _) = sums[i], sums[j]
        assert C.comps[i] == sums[i][0]
        ref = _sum_of_products(
            [(injs1[0], W.diffs[i], projs[0]),
             (injs1[0], f.comps[j], projs[1]),
             (injs1[1], V1.diffs[i], projs[1])], C.comps[i], C.comps[j])
        assert C.diffs[i] == ref
        assert diagram.i_f.comps[i] == injs[0]
        assert diagram.j_f.comps[i] == injs[1]
        assert diagram.q_f.comps[i] == projs[0]
        assert diagram.p_f.comps[i] == projs[1]


def _diff_matrix_by_columns(H, p: int) -> Mat:
    """d: Hom^p -> Hom^{p+1}, one column per basis map, through dmap."""
    field = H.field
    n = H.total_dim(p)
    cols = []
    for c in range(n):
        e = [field.zero()] * n
        e[c] = field.one()
        g = H.unflatten(p, e)
        cols.append(H.flatten(g.dmap()))
    if not cols:
        return Mat.zeros(field, H.total_dim(p + 1), 0)
    return Mat.from_rows(field, cols).transpose()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_hom_diff_matrix_matches_column_rebuild(field, seed, m):
    alg = linear_a(3, field)
    rng = random.Random(1000 + 10 * seed + m)
    V, W = (complex_direct_sum([random_periodic_complex(alg, m, rng),
                                _contractible(Rep.projective(alg, v), m)])
            for v in (1, 2))
    H = hom_complex(V, W)
    # the matrix depends on p through (p mod m, p mod 2)
    degrees = range(-1, 2 * m + 1)
    for p in degrees:
        assert H.diff_matrix(p) == _diff_matrix_by_columns(H, p)
    assert not all(H.diff_matrix(p).is_zero() for p in degrees)


def test_block_places_blocks_and_zeros():
    f = QQ
    a = Mat.from_rows(f, [[1, 2]])
    b = Mat.from_rows(f, [[3], [4]])
    M = Mat.block(f, [1, 0, 2], [2, 1], {(0, 0): a, (2, 1): b})
    assert M == Mat.from_rows(f, [[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    with pytest.raises(ValueError):
        Mat.block(f, [1], [1], {(0, 0): a})
