import glob
import os
import random

import pytest

from periodica.common import PreconditionError
from periodica.families import (dual_numbers, enveloping, linear_a, nakayama,
                                semisimple_product, serial_module)
from periodica.fields import Field, QQ
from periodica.formats import load_algebra
from periodica.linalg import Mat
from periodica.quiver import (AlgebraPresentation, FinDimAlgebra, Quiver,
                              build_algebra, enveloping_algebra,
                              tensor_op_presentation)
from periodica.rep import (Morphism, Rep, decompose, direct_sum,
                           global_dimension, hom_space, indecomposable_q,
                           injective_envelope, iso_q, projective_cover,
                           syzygy)


def test_build_ka2_dimension(a2):
    assert a2.dim == 3
    assert set(a2.basis_names()) == {"e1", "e2", "a1"}


def test_build_nakayama_dimensions(n33):
    assert n33.dim == 9
    assert dual_numbers(QQ).dim == 2


def test_reject_non_admissible():
    q = Quiver(2, [("a", 1, 2)])
    with pytest.raises(PreconditionError):
        AlgebraPresentation(q, QQ, [[(1, ["a"])]], 3)   # length-1 word
    q2 = Quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)])
    with pytest.raises(PreconditionError):
        # b*a: 1 -> 3 but c*c is not composable
        AlgebraPresentation(q2, QQ, [[(1, ["c", "c"])]], 3)
    with pytest.raises(PreconditionError):
        AlgebraPresentation(q2, QQ, [], 1)              # bad nilpotency


def test_reject_blowup():
    q = Quiver(1, [("x", 1, 1), ("y", 1, 1)])
    pres = AlgebraPresentation(q, QQ, [], 20)
    with pytest.raises(PreconditionError):
        build_algebra(pres, max_paths=1000)


def test_table_is_associative_and_unital(n33, dual):
    n33.validate()
    dual.validate()


def test_validate_rejects_one_corrupted_entry():
    # kA10 has dim 55; a sampled associativity check misses most single
    # wrong products, the exhaustive one must not
    alg = linear_a(10, QQ)
    assert alg.dim == 55
    names = alg.basis_names()
    x, y = names.index("a5*a4"), names.index("a3*a2")
    assert alg.mult(x, y) == ((names.index("a5*a4*a3*a2"), QQ.one()),)
    alg._table[(x, y)] = ()
    with pytest.raises(PreconditionError):
        alg.validate()


def test_radical_filtration(n33):
    dims = n33.radical_dims()
    assert dims[0] == 9 and dims[1] == 6 and dims[2] == 3 and dims[3] == 0


def test_opposite_has_same_dimension(n33, a3):
    assert n33.opposite().dim == n33.dim
    assert a3.opposite().dim == a3.dim


def test_hom_yoneda(a2, n33):
    for alg in (a2, n33):
        rng = random.Random(1)
        for v in range(1, alg.quiver.n + 1):
            P = Rep.projective(alg, v)
            M = serial_module(alg, 1, 2) if alg is n33 else Rep.projective(alg, 2)
            assert len(hom_space(P, M)) == M.dims[v - 1]
        Lam = Rep.regular(alg)
        M = Rep.simple(alg, 1)
        assert len(hom_space(Lam, M)) == M.total_dim


def test_hom_examples(a2):
    S1, S2 = Rep.simple(a2, 1), Rep.simple(a2, 2)
    P2 = Rep.projective(a2, 2)
    assert len(hom_space(S1, S2)) == 0
    assert len(hom_space(P2, S1)) == 0
    assert len(hom_space(P2, S2)) == 1


def test_projective_cover_and_syzygy(a2):
    S2 = Rep.simple(a2, 2)
    P, phi = projective_cover(S2)
    assert P.dims == Rep.projective(a2, 2).dims
    om = syzygy(S2)
    assert om.dims == Rep.simple(a2, 1).dims
    assert syzygy(Rep.projective(a2, 2)).is_zero()
    # dim M = dim P - dim Omega M
    assert S2.total_dim == P.total_dim - om.total_dim


def test_syzygy_serial_formula(n33):
    n = 3
    for a in range(1, n + 1):
        for l in range(1, n):
            om = syzygy(serial_module(n33, a, l))
            expect = serial_module(n33, (a + l - 1) % n + 1, n - l)
            assert om.dims == expect.dims and iso_q(om, expect)


def test_global_dimension(a2, kxk, dual):
    assert global_dimension(a2, 10) == 1
    assert global_dimension(kxk, 10) == 0
    gd = global_dimension(dual, 10)
    assert not gd.exact and gd.value == 10
    assert str(gd) == ">= 10"


def test_enveloping_dimensions(a2, dual):
    E, B = enveloping(a2)
    assert E.dim == 9
    assert B.total_dim == 3
    E2, B2 = enveloping(nakayama(2, 2, QQ))
    assert E2.dim == 16
    E3, B3 = enveloping(dual)
    assert B3.total_dim == 2


def test_iso_and_decompose(a2):
    P1, S2 = Rep.projective(a2, 1), Rep.simple(a2, 2)
    M = direct_sum([P1, S2])[0]
    assert iso_q(M, M)
    parts = decompose(M)
    assert len(parts) == 2
    assert all(indecomposable_q(p) for p in parts)
    S = direct_sum(parts)[0]
    assert iso_q(S, M)
    assert not iso_q(P1, S2)
    P2 = Rep.projective(a2, 2)
    assert indecomposable_q(P2)
    # non-isomorphic with equal dimension vectors
    two = direct_sum([Rep.simple(a2, 1), Rep.simple(a2, 2)])[0]
    assert two.dims == P2.dims and not iso_q(two, P2)


def test_serial_indecomposable(n33):
    for a in range(1, 4):
        for l in range(1, 4):
            assert indecomposable_q(serial_module(n33, a, l))


def test_relations_hold_on_reps(n33, dual):
    for alg in (n33, dual):
        for v in range(1, alg.quiver.n + 1):
            Rep.projective(alg, v).check_relations()
            Rep.injective(alg, v).check_relations()
            Rep.simple(alg, v).check_relations()


def test_check_relations_rejects_long_walks(dual):
    # in k[x]/(x^2) no walk of length 2 may act: a 3x3 Jordan block has x^2 != 0
    with pytest.raises(PreconditionError):
        Rep(dual, [3], [Mat.from_rows(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])],
            check=True)
    Rep(dual, [2], [Mat.from_rows(QQ, [[0, 1], [0, 0]])], check=True)


def test_injective_envelope_minimal(n33):
    M = serial_module(n33, 1, 1)
    I, incl = injective_envelope(M)
    assert I.total_dim == 3          # the serial injective with that socle
    for b in incl.blocks:
        assert b.kernel_basis().cols == 0


def test_relation_algebra_commutative_square():
    q = Quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)])
    pres = AlgebraPresentation(
        q, QQ, [[(1, ["c", "a"]), (-1, ["d", "b"])]], 3)
    alg = build_algebra(pres)
    assert alg.dim == 9              # 4 + 4 + one length-2 class
    # the two length-2 walks are identified
    ca = alg.reduce_walk((1, q.by_name["a"], q.by_name["c"]))
    db = alg.reduce_walk((1, q.by_name["b"], q.by_name["d"]))
    assert ca == db


def test_non_homogeneous_relation():
    # a loop with x^2 = x^3: then x^2 acts like x^3, and x^4 = x^5 = ... = 0
    q = Quiver(1, [("x", 1, 1)])
    pres = AlgebraPresentation(q, QQ, [[(1, ["x", "x"]), (-1, ["x", "x", "x"])]], 5)
    alg = build_algebra(pres)
    # basis keeps short words: e, x, x^2, x^3 with x^2 = x^3 identified => dim 3?
    # x^2 - x^3 and products: x*(x^2-x^3) = x^3 - x^4, ... the quotient has
    # basis e, x, x^2 with x^3 = x^2 ... but then rad is not nilpotent unless
    # x^2 = 0: indeed x^2 = x^3 = x^4 = 0 by nilpotency 5.
    one = QQ.one()
    xx = alg.reduce_walk((1, 0, 0))
    assert xx == ()                   # x^2 collapses to zero
    assert alg.dim == 2


SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
ENVELOPE_ORACLE_CASES = sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(SAMPLES, "*.alg"))
) + ["N(2,3)", "kA3", "N(3,3)", "N(2,2)/GF(2)"]


def _oracle_algebra(case):
    if case == "N(2,3)":
        return nakayama(2, 3, QQ)
    if case == "kA3":
        return linear_a(3, QQ)
    if case == "N(3,3)":
        return nakayama(3, 3, QQ)
    if case == "N(2,2)/GF(2)":
        return nakayama(2, 2, Field.gf(2))
    return load_algebra(os.path.join(SAMPLES, case))


@pytest.mark.parametrize("case", ENVELOPE_ORACLE_CASES)
def test_enveloping_matches_tensor_presentation(case):
    """The tensor product of tables equals A^e built from its presentation."""
    alg = _oracle_algebra(case)
    E, B = enveloping(alg)
    ref = build_algebra(tensor_op_presentation(alg.presentation))
    assert E.basis == ref.basis
    for i in range(E.dim):
        for j in range(E.dim):
            assert dict(E.mult(i, j)) == dict(ref.mult(i, j))
    q = E.quiver
    rng = random.Random(0)
    for _ in range(30):
        w = (rng.randrange(1, q.n + 1),)
        for _ in range(rng.randrange(E.nilpotency + 1)):
            out = q.arrows_from[q.walk_target(w)]
            if not out:
                break
            w += (rng.choice(out),)
        assert dict(E.reduce_walk(w)) == dict(ref.reduce_walk(w))
    # every defining relation of A^e vanishes on the table
    f = E.field
    for terms, _, _ in E.presentation.relations:
        acc = {}
        for coeff, w in terms:
            for k, c in E.reduce_walk(w):
                acc[k] = f.add(acc.get(k, f.zero()), f.mul(coeff, c))
        assert all(f.is_zero(c) for c in acc.values())
    # the regular bimodule is the same module over the reference algebra
    Rep(ref, B.dims, B.act, check=True)
    for v in range(1, q.n + 1):
        assert Rep.projective(E, v).act == Rep.projective(ref, v).act


def _rebuilt_envelope(E, pairs):
    """A^e rebuilt by the class enveloping_algebra uses, on other pairs."""
    op, alg = E._legs
    return type(E)(E.presentation, list(E.basis), op, alg, pairs)


def test_enveloping_check_rejects_a_broken_tensor_map():
    E = enveloping_algebra(nakayama(2, 3, QQ))
    assert _rebuilt_envelope(E, list(E._pairs)).dim == E.dim
    block = [(E.source[i], E.target[i]) for i in range(E.dim)]
    # two basis elements in different blocks trade pairs
    i = 0
    j = next(j for j in range(E.dim) if block[j] != block[i])
    # two basis elements of one block, of different lengths, trade pairs
    k, l = next((k, l) for k in range(E.dim) for l in range(E.dim)
                if block[k] == block[l] and E.length[k] < E.length[l]
                and E.length[k] > 0)
    for a, b in ((i, j), (k, l)):
        pairs = list(E._pairs)
        pairs[a], pairs[b] = pairs[b], pairs[a]
        with pytest.raises(PreconditionError):
            _rebuilt_envelope(E, pairs)
    # one pair twice, another missing: not a bijection
    pairs = list(E._pairs)
    pairs[1] = pairs[0]
    with pytest.raises(PreconditionError, match="bijection"):
        _rebuilt_envelope(E, pairs)


def test_enveloping_validation_is_linear_in_dim(monkeypatch):
    # the full check would take O(#arrows * dim^2) products on A^e (about
    # 10^5 here); the legs' associativity makes O(n^2 + dim) enough
    alg = nakayama(5, 5, QQ)
    calls = [0]
    mult = FinDimAlgebra.mult

    def counted(self, i, j):
        calls[0] += 1
        return mult(self, i, j)
    monkeypatch.setattr(FinDimAlgebra, "mult", counted)
    E, _ = enveloping(alg)
    assert E.dim == 625 and E.quiver.n == 25
    assert calls[0] <= 8 * (E.dim + E.quiver.n ** 2)
