import glob
import os
import random
import weakref
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from periodica import linalg, rep as rep_module, stablecat
from periodica.common import PreconditionError, Trunc
from periodica.families import (all_intervals, dual_numbers, enveloping,
                                interval_module, is_linear_a, linear_a,
                                nakayama, serial_module)
from periodica.fields import Field, QQ
from periodica.formats import load_algebra
from periodica.linalg import Mat
from periodica.quiver import (AlgebraPresentation, FinDimAlgebra, Quiver,
                              build_algebra, enveloping_algebra,
                              tensor_op_presentation)
from periodica.rep import (HomBasis, Morphism, Rep, _roots_mod_p, decompose,
                           dual, find_iso, global_dimension, hom_space,
                           image_of, is_projective, iso_q, kernel_of,
                           projective_cover, syzygies, syzygy)

from oracles import (SAMPLE_ALGEBRAS, cokernel_of, direct_sum,
                     injective_envelope, projective_from_basis, quotient,
                     quotient_rep, radical_subspaces, sample_algebra,
                     socle_subspaces, sub_rep, table_injective)


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
    # two free loops: 2^20 - 1 walks below nilpotency 20, over the cap
    q = Quiver(1, [("x", 1, 1), ("y", 1, 1)])
    pres = AlgebraPresentation(q, QQ, [], 20)
    with pytest.raises(PreconditionError, match="exceeded 200000 walks"):
        build_algebra(pres)


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


def _normal_form(field, x):
    """A field scalar as the library keeps it: an int in 0..p-1 over GF(p);
    over Q an int, or a reduced Fraction that is not integral."""
    if field.p:
        return type(x) is int and 0 <= x < field.p
    if type(x) is Fraction:
        return x.denominator > 1 and gcd(x.numerator, x.denominator) == 1
    return type(x) is int


def _hom_space_inputs():
    for field in (Field.gf(2), Field.gf(4294967311)):
        alg = nakayama(4, 4, field)
        yield f"N(4,4) {field}", [serial_module(alg, a, l)
                                  for a in range(1, 5) for l in range(1, 5)]
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    alg = load_algebra(os.path.join(here, "ratsquare.alg"))
    yield "ratsquare", [make(alg, v) for v in range(1, 5)
                        for make in (Rep.simple, Rep.projective, Rep.injective)]


@pytest.mark.parametrize("mods", [pytest.param(mods, id=name) for name, mods
                                  in _hom_space_inputs()])
def test_hom_space_basis_is_in_normal_form(mods):
    # hom_space builds its matrices with the trusted constructor, coercing
    # nothing, so every entry must already be a normal-form scalar
    fractions = 0
    for M in mods:
        for N in mods:
            for g in hom_space(M, N):
                assert g.is_intertwiner()
                for b in g.blocks:
                    assert all(_normal_form(M.field, x) for x in b.data)
                    fractions += sum(type(x) is Fraction for x in b.data)
    # ratsquare's 2/3 reaches the bases
    assert fractions or M.field.p


@pytest.mark.parametrize("field", [QQ, Field.gf(3)], ids=["Q", "GF3"])
def test_hom_space_on_a_loop_with_a_diagonal(field):
    # x acts on k^2 by [[1, 1], [-1, -1]] (x^2 = 0, rank 1): the free module
    # k[x]/(x^2) in another basis.  Its loop equations put an entry of N_x
    # and one of M_x on the same unknown, which the assembly must add.
    alg = dual_numbers(field)
    x = Mat.from_rows(field, [[1, 1], [-1, -1]])
    M = Rep(alg, [2], [x], check=True)
    S = Rep.simple(alg, 1)
    for A, B, dim in ((M, M, 2), (M, S, 1), (S, M, 1),
                      (M, Rep.regular(alg), 2)):
        basis = hom_space(A, B)
        assert len(basis) == dim
        assert all(g.is_intertwiner() for g in basis)
    assert iso_q(M, Rep.regular(alg))


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


def test_enveloping_arrows_record_their_legs(n33):
    # a^o@v acts by a on the A^op leg (0), u@b by b on the A leg (1); the
    # bimodule A over A^e reads these records, not the names
    E, _ = enveloping(n33)
    q = n33.quiver
    assert len(E.arrow_legs) == len(E.quiver.arrows) == 2 * q.n * len(q.arrows)
    for ar, (leg, ai) in zip(E.quiver.arrows, E.arrow_legs):
        name = q.arrows[ai].name
        if leg == 0:
            assert ar.name.startswith(name + "^o@")
        else:
            u, b = ar.name.split("@")
            assert leg == 1 and u.isdigit() and b == name


def test_iso_and_decompose(a2):
    P1, S2 = Rep.projective(a2, 1), Rep.simple(a2, 2)
    M = direct_sum([P1, S2])[0]
    assert iso_q(M, M)
    parts = decompose(M)
    assert len(parts) == 2
    assert all(len(decompose(p)) == 1 for p in parts)
    S = direct_sum(parts)[0]
    assert iso_q(S, M)
    assert not iso_q(P1, S2)
    P2 = Rep.projective(a2, 2)
    assert len(decompose(P2)) == 1
    # non-isomorphic with equal dimension vectors
    two = direct_sum([Rep.simple(a2, 1), Rep.simple(a2, 2)])[0]
    assert two.dims == P2.dims and not iso_q(two, P2)


def _invertible_mod_p(flat, d, p):
    """Is the d x d matrix with row-major entries ``flat`` invertible mod p?
    Plain elimination on ints, sharing no code with ``linalg``."""
    rows = [flat[i * d:(i + 1) * d] for i in range(d)]
    for c in range(d):
        piv = next((r for r in range(c, d) if rows[r][c] % p), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        for r in range(c + 1, d):
            t = rows[r][c] * inv % p
            if t:
                rows[r] = [(x - t * y) % p for x, y in zip(rows[r], rows[c])]
    return True


def _exhaustive_iso(M, N):
    """Is some map in all of Hom(M, N) invertible?  Every coefficient tuple
    on the basis whose first nonzero entry is 1, over GF(p), depth first
    from the all-ones tuple on (sums of many basis maps are the likelier
    isomorphisms)."""
    if M.dims != N.dims:
        return False
    if M.total_dim == 0:
        return True
    p = M.field.p
    basis = [g.flatten() for g in hom_space(M, N)]
    blocks, off = [], 0
    for d in M.dims:
        blocks.append((off, d))
        off += d * d

    def search(i, acc, normalised):
        if i == len(basis):
            return normalised and all(
                _invertible_mod_p(acc[o:o + d * d], d, p) for o, d in blocks)
        for c in ([*range(1, p), 0] if normalised else [1, 0]):
            nxt = ([(x + c * y) % p for x, y in zip(acc, basis[i])] if c
                   else acc)
            if search(i + 1, nxt, normalised or c == 1):
                return True
        return False

    return search(0, [0] * off, False)


def _iso_oracle_pool(alg):
    """Simples, projectives, injectives and serial (interval) modules."""
    n = alg.quiver.n
    pool = [make(alg, v) for v in range(1, n + 1)
            for make in (Rep.simple, Rep.projective, Rep.injective)]
    if is_linear_a(alg):
        pool += [interval_module(alg, a, b)
                 for a in range(1, n + 1) for b in range(a, n + 1)]
    else:
        pool += [serial_module(alg, a, l) for a in range(1, n + 1)
                 for l in range(1, alg.nilpotency + 1)]
    return pool


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["N(3,3)", "N(2,3)", "kA3", "dual"])
def test_iso_q_matches_exhaustive_search(name, p):
    # random sums of one to three pool modules, each with a reordering of
    # its summands (isomorphic) and a twin with one summand replaced by the
    # simples of its dimension vector (equal dims, isomorphic only when
    # that summand is simple); every pair of sums with equal dims is checked
    field = Field.gf(p)
    alg = {"N(3,3)": lambda: nakayama(3, 3, field),
           "N(2,3)": lambda: nakayama(2, 3, field),
           "kA3": lambda: linear_a(3, field),
           "dual": lambda: dual_numbers(field)}[name]()
    pool = _iso_oracle_pool(alg)
    rng = random.Random(p)
    sums = {}       # pool indices in summand order -> their sum
    for _ in range(10):
        parts = [rng.randrange(len(pool)) for _ in range(rng.randint(1, 3))]
        j = rng.randrange(len(parts))
        # pool[3 * v] is the simple at vertex v + 1
        twin = parts[:j] + [3 * v for v, d in enumerate(pool[parts[j]].dims)
                            for _ in range(d)] + parts[j + 1:]
        for key in (parts, rng.sample(parts, len(parts)), twin):
            sums[tuple(key)] = direct_sum([pool[i] for i in key])[0]
    # reordered summands give isomorphic sums: one search per pair of
    # summand multisets
    verdicts = {}
    checked = {True: 0, False: 0}
    items = list(sums.items())
    for i, (km, M) in enumerate(items):
        for kn, N in items[i:]:
            if M.dims != N.dims or p ** len(hom_space(M, N)) > 70000:
                continue
            pair = (tuple(sorted(km)), tuple(sorted(kn)))
            if pair not in verdicts:
                verdicts[pair] = _exhaustive_iso(M, N)
            want = verdicts[pair]
            assert iso_q(M, N) == iso_q(M, N, 9001) == want
            checked[want] += 1
    assert checked[True] and checked[False]
    # End(S + S) has a basis of matrix units, none of them invertible: the
    # Krull-Schmidt matching decides
    S = Rep.simple(alg, 1)
    SS = direct_sum([S, S])[0]
    assert find_iso(SS, SS) is None and iso_q(SS, SS)


def test_iso_q_counts_summands(a2):
    # equal dims and both decomposable: P(2) + S(2) has two summands and
    # S(1) + S(2) + S(2) three
    S1, S2 = Rep.simple(a2, 1), Rep.simple(a2, 2)
    M = direct_sum([Rep.projective(a2, 2), S2])[0]
    N = direct_sum([S1, S2, S2])[0]
    assert M.dims == N.dims and find_iso(M, N) is None
    assert not iso_q(M, N) and not iso_q(N, M)


def test_serial_indecomposable(n33):
    for a in range(1, 4):
        for l in range(1, 4):
            assert len(decompose(serial_module(n33, a, l))) == 1


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


def _jordan(d):
    """The nilpotent d x d Jordan block: ones just above the diagonal."""
    return Mat(QQ, d, d, [1 if j == i + 1 else 0
                          for i in range(d) for j in range(d)])


@pytest.mark.parametrize("n_vertices", [1, 2])
def test_check_relations_rejects_a_walk_of_forbidden_length(n_vertices):
    # k[x]/(x^3) from one loop, nilpotency 3 and no relation: only the
    # radical loop can refuse x^3 != 0.  A second vertex, with no arrow,
    # has its radical layer die after one step while the loop's lives on,
    # so the loop may stop only once the layers of all vertices are zero
    q = Quiver(n_vertices, [("x", 1, 1)])
    alg = build_algebra(AlgebraPresentation(q, QQ, [], 3))
    rest = [1] * (n_vertices - 1)
    with pytest.raises(PreconditionError, match="forbidden length"):
        Rep(alg, [4] + rest, [_jordan(4)], check=True)
    Rep(alg, [3] + rest, [_jordan(3)], check=True)


def test_check_relations_rejects_a_defining_relation():
    # c*a - d*b on the commutative square: all four arrows 1 commute, d = 0
    # does not
    alg = load_algebra(os.path.join(SAMPLES, "commsquare.alg"))
    one, zero = Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)
    Rep(alg, [1] * 4, [one] * 4, check=True)
    with pytest.raises(PreconditionError, match="defining relation"):
        Rep(alg, [1] * 4, [one, one, one, zero], check=True)


def test_projective_cover_refuses_a_module_it_cannot_cover():
    # over k[x]/(x^3), a 4 x 4 Jordan block is no module: x^3 M != 0 lies
    # outside the image of P(1), and only the cover's rank check sees it;
    # x = 1 leaves no top at all, so the cover is zero and the same check
    # refuses it
    alg = build_algebra(AlgebraPresentation(Quiver(1, [("x", 1, 1)]), QQ,
                                            [], 3))
    for M in (Rep(alg, [4], [_jordan(4)]), Rep(alg, [1], [Mat.identity(QQ, 1)])):
        with pytest.raises(PreconditionError, match="failed to surject"):
            projective_cover(M)


def test_morphism_needs_one_block_per_vertex(a2):
    P2 = Rep.projective(a2, 2)
    blocks = [Mat.identity(QQ, d) for d in P2.dims]
    assert Morphism(P2, P2, blocks) == Morphism.identity(P2)
    for wrong in (blocks + [Mat.identity(QQ, 1)], blocks[:1]):
        with pytest.raises(PreconditionError, match="one block per vertex"):
            Morphism(P2, P2, wrong)


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


def _rebuilt_envelope(E, pairs, arrow_legs=None):
    """A^e rebuilt by the class enveloping_algebra uses, on other pairs (or
    other arrow legs)."""
    op, alg = E._legs
    return type(E)(E.presentation, list(E.basis), op, alg, pairs,
                   E.arrow_legs if arrow_legs is None else arrow_legs)


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


def _traded(E, i, j):
    pairs = list(E._pairs)
    pairs[i], pairs[j] = pairs[j], pairs[i]
    return pairs


def test_enveloping_check_refuses_a_wrong_idempotent_pair():
    # e at (1, 1) trades pairs with a pair of length-2 cycles in its own
    # block, so the blocks still hold: only the idempotents' check sees it
    E = enveloping_algebra(nakayama(2, 3, QQ))
    e = E.e(1)
    c = next(i for i in range(E.dim) if i != e and E.length[i] == 2
             and E.source[i] == E.target[i] == 1)
    with pytest.raises(PreconditionError, match="idempotent"):
        _rebuilt_envelope(E, _traded(E, e, c))


def test_enveloping_check_refuses_a_wrong_leg_pair_on_an_arrow():
    # the first arrow (a^o@1, on the A^op leg) named as the last (on the A
    # leg), and the other way round: the pairs and blocks still hold
    E = enveloping_algebra(nakayama(2, 3, QQ))
    legs = list(E.arrow_legs)
    legs[0], legs[-1] = legs[-1], legs[0]
    assert legs[0][0] != legs[-1][0]
    with pytest.raises(PreconditionError, match="leg arrow times its prefix"):
        _rebuilt_envelope(E, list(E._pairs), legs)


def test_enveloping_check_refuses_a_wrong_prefix_label():
    # over k[x]/(x^4), (x, x) and (x^2, e) lie in one block at one length
    # and both end in x on the A^op leg: traded, each walk's prefix carries
    # the other's leg prefix
    E = enveloping_algebra(nakayama(1, 4, QQ))
    op, alg = E._legs
    x, x2 = op.index[(1, 0)], op.index[(1, 0, 0)]
    i, j = (E._pairs.index((x, alg.index[(1, 0)])),
            E._pairs.index((x2, alg.e(1))))
    with pytest.raises(PreconditionError, match="leg arrow times its prefix"):
        _rebuilt_envelope(E, _traded(E, i, j))


def test_enveloping_check_refuses_a_leg_without_right_units():
    # a right unit the A leg's table lost after the leg's own validation
    # reaches A^e's table only through step 1: step 4 multiplies by arrows
    # and left units
    alg = nakayama(2, 3, QQ)
    y = alg.arrow_index[0]
    alg._table[y, alg.e(alg.source[y])] = ()
    with pytest.raises(PreconditionError, match="right unit fails"):
        enveloping_algebra(alg)


ENVELOPE_BLOCK_CASES = sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(SAMPLES, "*.alg"))
) + [f"N({n},{l})/{p}" for p in (0, 2, 4294967311)
     for n, l in ((1, 2), (2, 3), (3, 2), (3, 4))]


def _block_case_algebra(case):
    if case.startswith("N("):
        nl, p = case.split("/")
        n, l = map(int, nl[2:-1].split(","))
        return nakayama(n, l, Field(int(p)))
    return load_algebra(os.path.join(SAMPLES, case))


@pytest.mark.parametrize("case", ENVELOPE_BLOCK_CASES)
def test_envelope_projectives_match_the_generic_construction(case):
    # A^e's P(v) comes from the legs' tables, and leaves neither A^e's
    # table nor the legs' P(v) caches filled; the generic construction
    # multiplies on A^e's table, which the build's checks leave empty
    E, _ = enveloping(_block_case_algebra(case))
    assert E._table == {}
    got = [E._projective_blocks(v) for v in range(1, E.quiver.n + 1)]
    assert E._table == {}
    assert [leg._projectives for leg in E._legs] == [{}, {}]
    E._projectives.clear()
    for v in range(1, E.quiver.n + 1):
        assert FinDimAlgebra._projective_blocks(E, v) == got[v - 1]
    # validation, off the table, still refuses a basis whose first and
    # last elements trade pairs
    if E.dim > 1:
        pairs = list(E._pairs)
        pairs[0], pairs[-1] = pairs[-1], pairs[0]
        with pytest.raises(PreconditionError):
            _rebuilt_envelope(E, pairs)


def test_enveloping_validation_is_linear_in_dim(monkeypatch):
    # the full check would take O(#arrows * dim^2) products on A^e (about
    # 10^5 here); the legs' validation makes one product per vertex and two
    # per arrow enough, each two leg products, and the bimodule takes one
    # leg product per entry of an arrow's matrix
    alg = nakayama(5, 5, QQ)
    alg.opposite()          # the leg's own exhaustive check is not counted
    calls = [0]
    mult = FinDimAlgebra.mult

    def counted(self, i, j):
        calls[0] += 1
        return mult(self, i, j)
    monkeypatch.setattr(FinDimAlgebra, "mult", counted)
    E, _ = enveloping(alg)
    assert E.dim == 625 and E.quiver.n == 25 and len(E.quiver.arrows) == 50
    assert calls[0] <= 4 * (E.quiver.n + len(E.quiver.arrows))


# -- covers and envelopes against a rebuild from rho ---------------------------


def _stack(start, pieces, join):
    for m in pieces:
        start = join(start, m)
    return start


def _oracle_cover(M):
    """P(M) and phi from the full products rho(w) @ g, one summand per
    generator g, the blocks of phi stacked column by column.  The generators
    at v are the unit vectors at the columns that hold no pivot of the rref
    of rad(M)_v's transpose (an rref depends only on the row space)."""
    alg, f, n = M.algebra, M.field, M.algebra.quiver.n
    rad = radical_subspaces(M)
    parts, cols = [], [[] for _ in range(n)]
    for v in range(n):
        piv = rad[v].transpose().rref()[1]
        for j in (j for j in range(M.dims[v]) if j not in piv):
            parts.append(Rep.projective(alg, v + 1))
            g = Mat.identity(f, M.dims[v]).take_cols([j])
            for i in range(alg.dim):
                if alg.target[i] == v + 1:
                    cols[alg.source[i] - 1].append(M.rho(alg.basis[i]) @ g)
    return (direct_sum(parts)[0],
            [_stack(Mat.zeros(f, M.dims[w], 0), cols[w], Mat.hstack)
             for w in range(n)])


def _oracle_envelope(M):
    """I(M) and iota from the full products f_r @ rho(w), one summand per
    socle functional, the blocks of iota stacked row by row.  The
    functionals at v are the unit functionals at the columns that hold no
    pivot of the rref of the arrows into v, stacked: soc(M)_v is that
    stack's kernel, whose basis is the identity there."""
    alg, f, n = M.algebra, M.field, M.algebra.quiver.n
    q = alg.quiver
    parts, rows = [], [[] for _ in range(n)]
    for v in range(n):
        into = _stack(Mat.zeros(f, 0, M.dims[v]),
                      [M.act[ai] for ai in q.arrows_to[v + 1]], Mat.vstack)
        piv = into.rref()[1]
        for j in (j for j in range(M.dims[v]) if j not in piv):
            parts.append(Rep.injective(alg, v + 1))
            fr = Mat.identity(f, M.dims[v]).take_cols([j]).transpose()
            for i in range(alg.dim):
                if alg.source[i] == v + 1:
                    rows[alg.target[i] - 1].append(fr @ M.rho(alg.basis[i]))
    return (direct_sum(parts)[0],
            [_stack(Mat.zeros(f, 0, M.dims[w]), rows[w], Mat.vstack)
             for w in range(n)])


def _base_changed(M, rng):
    """M carried along a random invertible matrix G_v at every vertex:
    arrow u -> v acts by G_u^-1 @ act @ G_v."""
    f = M.field
    G = []
    for d in M.dims:
        while True:
            g = Mat(f, d, d, [f.coerce(rng.randrange(5)) for _ in range(d * d)])
            if g.is_invertible():
                break
        G.append(g)
    return Rep(M.algebra, M.dims,
               [G[a.source - 1].inverse() @ M.act[i] @ G[a.target - 1]
                for i, a in enumerate(M.algebra.quiver.arrows)], check=True)


def _oracle_modules(field):
    # the sums have several generators (functionals) at one vertex, which
    # fixes their order in the cover (envelope); in the base-changed sums
    # the top is no longer spanned by basis vectors
    n44 = nakayama(4, 4, field)
    mods = [serial_module(n44, a, l) for a in range(1, 5) for l in (1, 2, 4)]
    mods.append(direct_sum([serial_module(n44, a, l) for a, l in
                            ((1, 2), (1, 3), (2, 2), (3, 1))])[0])
    rng = random.Random(field.p)
    mods += [_base_changed(mods[-1], rng) for _ in range(3)]
    mods += [_base_changed(direct_sum([serial_module(n44, 1, 2)] * 2
                                      + [serial_module(n44, 2, 4)])[0], rng)]
    mods += [M for _, M in all_intervals(linear_a(3, field))]
    for m, n in ((3, 2), (4, 4)):
        om = syzygy(enveloping(nakayama(m, n, field))[1])
        mods += [om, direct_sum([om, om])[0]]
    return mods


@pytest.mark.parametrize("p", [0, 2, 4294967311])
def test_cover_and_envelope_match_rho_rebuild(p):
    mods = _oracle_modules(Field(p))
    for M in mods:
        P, phi = projective_cover(M)
        want_P, want_phi = _oracle_cover(M)
        assert P == want_P and list(phi.blocks) == want_phi
        assert phi.source is P and phi.target is M and phi.is_intertwiner()
        I, iota = injective_envelope(M)
        want_I, want_iota = _oracle_envelope(M)
        assert I == want_I and list(iota.blocks) == want_iota
        # one I(v) per dimension of soc(M)_v
        assert I == direct_sum([Rep.injective(M.algebra, v + 1)
                                for v, b in enumerate(socle_subspaces(M))
                                for _ in range(b.cols)])[0]
        assert iota.source is M and iota.target is I
        assert iota.is_intertwiner()
    # the covers' P(v), whose blocks each algebra builds once, against a
    # fresh build from projective_basis
    for alg in {id(M.algebra): M.algebra for M in mods}.values():
        for v in range(1, alg.quiver.n + 1):
            P = Rep.projective(alg, v)
            assert P == projective_from_basis(alg, v) and P.tops == (v,)


class _WeakRep(Rep):
    """A module a weak reference can point at."""
    __slots__ = ("__weakref__",)


def test_algebra_period_leaves_no_cycle_through_the_envelope(
        no_cyclic_gc, monkeypatch):
    # A^e, its cached P(v) and every syzygy over it are freed as soon as
    # algebra_period returns
    made = []

    def watched(alg):
        E, B = enveloping(alg)
        made.append(weakref.ref(E))
        return E, B

    monkeypatch.setattr(stablecat, "enveloping", watched)
    assert stablecat.algebra_period(nakayama(4, 3, QQ), 16) == Trunc(8)
    assert len(made) == 1 and made[0]() is None


def test_a_cover_leaves_no_cycle_through_its_target(no_cyclic_gc):
    alg = nakayama(4, 3, QQ)
    M = serial_module(alg, 1, 2)
    N = _WeakRep(alg, M.dims, M.act)
    target, algebra = weakref.ref(N), weakref.ref(alg)
    P, phi = projective_cover(N)
    assert phi.target is N
    del M, alg, N
    assert target() is not None
    del P, phi
    assert target() is None and algebra() is None


def test_the_opposite_link_leaves_no_cycle(no_cyclic_gc):
    # A^e is built from A and A^op; A holds A^op, and A^op links back
    # weakly, so A dies with its last reference
    alg = nakayama(4, 3, QQ)
    algebra = weakref.ref(alg)
    assert stablecat.algebra_period(alg, 16) == Trunc(8)
    assert alg.opposite().opposite() is alg
    del alg
    assert algebra() is None


@pytest.mark.parametrize("p", [0, 2, 4294967311])
def test_opposite_is_built_once_and_dual_is_an_involution(p):
    # A^op is linked back to A, so D(D(M)) is over A itself and equals M
    for M in _oracle_modules(Field(p)):
        A = M.algebra
        op = A.opposite()
        assert A.opposite() is op and op.opposite() is A
        D = dual(M)
        assert D.algebra is op and D.dims == M.dims
        D.check_relations()
        assert dual(D) == M


def _solved_quotient_rep(M, bases):
    """``quotient_rep`` built with sections solved from the projections."""
    f = M.field
    projs = [quotient(d, b)[1] for d, b in zip(M.dims, bases)]
    secs = [pr.solve_matrix(Mat.identity(f, pr.rows)) for pr in projs]
    Q = Rep(M.algebra, [pr.rows for pr in projs],
            [projs[a.source - 1] @ M.act[i] @ secs[a.target - 1]
             for i, a in enumerate(M.algebra.quiver.arrows)])
    return Q, Morphism(M, Q, projs)


@pytest.mark.parametrize("p", [0, 2, 4294967311])
def test_kernels_and_quotients_match_the_solved_construction(p):
    # kernels and images through sub_rep's solves, quotients through solved
    # sections: the same bytes as reading them off the echelon forms
    rng = random.Random(p)
    for M in _oracle_modules(Field(p)):
        phi, iota = projective_cover(M)[1], injective_envelope(M)[1]
        ends = hom_space(M, M)
        g = Morphism.zero(M, M)
        for e in rng.sample(ends, min(3, len(ends))):
            g = g + e.scale(rng.randrange(1, 5))
        for h in (phi, iota, iota @ phi, g):
            assert kernel_of(h) == sub_rep(
                h.source, [b.kernel_basis() for b in h.blocks])
            assert image_of(h) == sub_rep(
                h.target, [b.image_basis() for b in h.blocks])
            assert cokernel_of(h) == _solved_quotient_rep(
                h.target, [b.image_basis() for b in h.blocks])
        for bases in (radical_subspaces(M), socle_subspaces(M)):
            assert quotient_rep(M, bases) == _solved_quotient_rep(M, bases)


def _hom_pairs(mods):
    """Each module with itself and with the next three over its algebra."""
    for k, M in enumerate(mods):
        same = [N for N in mods[k + 1:] + mods[:k] if N.algebra is M.algebra]
        yield from ((M, N) for N in [M] + same[:3])


@pytest.mark.parametrize("p", [0, 2, 4294967311])
def test_hom_coordinates_match_a_solve_against_the_stacked_basis(p):
    rng = random.Random(p)
    f = Field(p)
    zero_homs = pivots = 0
    for M, N in _hom_pairs(_oracle_modules(f)):
        hb = HomBasis(M, N)
        nvars = sum(a * b for a, b in zip(M.dims, N.dims))
        assert hb.basis == hom_space(M, N)
        if hb.dim:
            stacked = Mat.from_rows(
                f, [g.flatten() for g in hb.basis]).transpose()
            cs = [[rng.randrange(-3, 4) for _ in hb.basis] for _ in range(3)]
            maps = [Morphism(M, N, _blocks_of(M, N, (stacked @ Mat.column(
                f, c)).data)) for c in cs]
            for c, g in zip(cs, maps):
                assert hb.from_coords(c) == g
                assert hb.coords_of(g) == stacked.solve(g.flatten())
            maps += hb.basis
            assert hb.coords_matrix(maps) == stacked.solve_matrix(
                Mat.from_rows(f, [g.flatten() for g in maps]).transpose())
        else:
            assert hb.from_coords([]) == Morphism.zero(M, N)
            assert hb.coords_matrix([]).shape == (0, 0)
        if nvars == 0:
            continue
        # a block tuple that is no module map: a nonzero tuple when
        # Hom(M, N) = 0, else a basis map moved at one pivot unknown, which
        # leaves every free unknown (every coordinate read) as it was
        pivot = sorted(set(range(nvars)) - set(hb.free))
        if hb.dim and not pivot:
            continue
        flat = hb.basis[0].flatten() if hb.dim else [f.zero()] * nvars
        at = pivot[0] if hb.dim else rng.randrange(nvars)
        flat[at] = f.add(flat[at], f.one())
        bad = Morphism(M, N, _blocks_of(M, N, flat))
        assert not bad.is_intertwiner()
        with pytest.raises(PreconditionError, match="not a module morphism"):
            hb.coords_of(bad)
        with pytest.raises(PreconditionError, match="not a module morphism"):
            hb.coords_matrix(hb.basis + [bad])
        zero_homs += not hb.dim
        pivots += bool(hb.dim)
    assert zero_homs >= 10 and pivots >= 10


def _blocks_of(M, N, flat):
    """The blocks of a flattened block tuple M -> N, vertex by vertex."""
    out, at = [], 0
    for m, n in zip(M.dims, N.dims):
        out.append(Mat(M.field, n, m, flat[at:at + n * m]))
        at += n * m
    return out


@pytest.mark.parametrize("p", [0, 2, 4294967311])
def test_kernel_coords_reads_the_free_rows_or_refuses(p):
    rng = random.Random(p)
    f = Field(p)
    for _ in range(30):
        r, c = rng.randrange(1, 5), rng.randrange(2, 7)
        A = Mat(f, r, c,
                [f.coerce(rng.randrange(-2, 3)) for _ in range(r * c)])
        K = A.kernel_basis()
        X = Mat(f, K.cols, 3,
                [f.coerce(rng.randrange(-3, 4)) for _ in range(K.cols * 3)])
        Y = K @ X
        assert A.kernel_coords(Y) == X
        # a column with a unit vector added where A is nonzero leaves ker A
        j = next((j for j in range(c) if any(A.col_list(j))), None)
        if j is None:
            continue
        out = Mat(f, c, 1, [f.one() if i == j else f.zero() for i in range(c)])
        assert A.kernel_coords(Y.hstack(K @ X.take_cols([0]) + out)) is None
        assert A.kernel_coords(out) is None


@pytest.mark.parametrize("field", [QQ, Field.gf(2), Field.gf(4294967311)],
                         ids=["Q", "GF2", "GFbig"])
def test_kernel_of_a_non_map_is_refused(field):
    # [I, 0] on P(2) = (k -> k) does not commute with the arrow: the kernel
    # k at vertex 2 is not invariant; the certificate is read on flat rows,
    # by the kernel for the field
    P2 = Rep.projective(linear_a(2, field), 2)
    f = Morphism(P2, P2, [Mat.identity(field, 1), Mat.zeros(field, 1, 1)])
    with pytest.raises(PreconditionError, match="not arrow-invariant"):
        kernel_of(f)


def test_image_of_a_non_map_is_refused(a2):
    # [0, I] on P(2): the image k at vertex 2 is not invariant, and the
    # action read off the echelon forms fails its certificate
    P2 = Rep.projective(a2, 2)
    f = Morphism(P2, P2, [Mat.zeros(QQ, 1, 1), Mat.identity(QQ, 1)])
    with pytest.raises(PreconditionError, match="not arrow-invariant"):
        image_of(f)


def _count_products(monkeypatch, fn, *args):
    # products run in the kernels, whether a Mat asks for them or a flat
    # caller does, so count the kernel calls; a count of 0 would mean that
    # the products went another way and this counts nothing
    calls = [0]

    def counted(kernel):
        def wrapped(*a):
            calls[0] += 1
            return kernel(*a)
        return wrapped
    with monkeypatch.context() as patched:
        for name in ("q_matmul", "fp_matmul"):
            patched.setattr(linalg._impl, name,
                            counted(getattr(linalg._impl, name)))
        fn(*args)
    assert calls[0] > 0
    return calls[0]


def test_cover_takes_one_product_per_walk(monkeypatch):
    # at most one d x t product per basis walk into a top vertex (every
    # suffix of a walk of this monomial algebra is a basis walk; a
    # one-arrow suffix is a column selection); forming every rho(w) took
    # 324 here
    E, A = enveloping(nakayama(4, 4, QQ))
    M = syzygy(A)
    tops = {v + 1 for v, b in enumerate(radical_subspaces(M))
            if b.cols < M.dims[v]}
    walks = sum(1 for i, w in enumerate(E.basis)
                if len(w) > 1 and E.target[i] in tops)
    assert _count_products(monkeypatch, projective_cover, M) <= walks


def test_kernel_of_takes_two_products_per_arrow(monkeypatch):
    # at most one product act[a] K_v and one certificate f_u act[a] K_v
    # per arrow, on the cover of the N(4,4)^e syzygy (64 for its 32 arrows)
    E, A = enveloping(nakayama(4, 4, QQ))
    phi = projective_cover(syzygy(A))[1]
    assert _count_products(monkeypatch, kernel_of, phi) <= \
        2 * len(E.quiver.arrows)


def test_envelope_takes_one_product_per_walk(monkeypatch):
    # one s x d product per basis walk out of a socle vertex: basis walks
    # are closed under prefixes; forming every rho(w) took 260 here
    E, A = enveloping(nakayama(4, 4, QQ))
    M = syzygy(A)
    socs = {v + 1 for v, b in enumerate(socle_subspaces(M)) if b.cols}
    walks = sum(1 for i, w in enumerate(E.basis)
                if len(w) > 1 and E.source[i] in socs)
    assert _count_products(monkeypatch, injective_envelope, M) <= walks


@pytest.mark.parametrize("field, split", [
    (Field.gf(7), True), (Field.gf(4294967311), True), (QQ, False),
], ids=["GF7", "GFbig", "Q"])
def test_kronecker_module_splits_where_two_is_a_square(field, split):
    # End(M) = k[b] with b^2 = 2: split over GF(7) and GF(4294967311), where
    # 2 is a square, and a field over Q; over the large prime the root
    # search used to scan all of GF(p)
    M = _kronecker_module(field)
    parts = decompose(M)
    assert [P.dims for P in parts] == ([(1, 1), (1, 1)] if split else [(2, 2)])
    assert iso_q(direct_sum(parts)[0], M)


def _kronecker_module(field):
    """The Kronecker module with a = I and b = [[0, 2], [1, 0]]."""
    kron = build_algebra(AlgebraPresentation(
        Quiver(2, [("a", 1, 2), ("b", 1, 2)]), field, [], 2))
    return Rep(kron, [2, 2], [Mat.identity(field, 2),
                              Mat.from_rows(field, [[0, 2], [1, 0]])],
               check=True)


def test_decompose_draws_nothing_over_q(monkeypatch):
    # neither module is split by a basis map of End(M) or its shifts, and
    # decompose returns each whole without drawing a random endomorphism or
    # Krylov start vector (over GF(p) only the root splitting, which is Las
    # Vegas, holds a generator)
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(rep_module, "random", SimpleNamespace(Random=Counting))
    omega3 = Rep.simple(sample_algebra("exterior2.alg", QQ), 1)
    for _ in range(3):
        omega3 = syzygy(omega3)
    for M in (_kronecker_module(QQ), omega3):
        assert HomBasis(M, M).dim > 1
        assert decompose(M) == [M]
        assert built == []


@st.composite
def polys_mod_p(draw):
    """(p, f): a monic f over GF(p), a product of linear factors (repeats
    allowed) and a random monic factor, constant term first."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    f = [1]
    factors = [[draw(st.integers(0, p - 1)), 1]
               for _ in range(draw(st.integers(0, 5)))]
    factors.append(draw(st.lists(st.integers(0, p - 1), min_size=1,
                                 max_size=4)) + [1])
    for g in factors:
        prod = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                prod[i + j] = (prod[i + j] + x * y) % p
        f = prod
    return p, f


@settings(max_examples=150, deadline=None)
@given(polys_mod_p(), st.integers(0, 2 ** 16))
def test_roots_mod_p_match_the_scan(pf, seed):
    p, f = pf
    scan = [t for t in range(p)
            if sum(c * pow(t, i, p) for i, c in enumerate(f)) % p == 0]
    assert _roots_mod_p(f, p, random.Random(seed)) == scan


# -- shortcuts must give the answers of the work they skip -----------------


FIELDS = [QQ, Field.gf(2), Field.gf(4294967311)]
FIELD_IDS = ["Q", "GF2", "GFbig"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_iso_q_of_equal_modules_builds_no_hom_space(field, monkeypatch):
    import periodica.rep as rep_mod

    def refuse(M, N):
        raise AssertionError("find_iso called on equal modules")
    monkeypatch.setattr(rep_mod, "find_iso", refuse)
    alg = nakayama(4, 4, field)
    for a in range(1, 5):
        for l in range(1, 5):
            M, N = serial_module(alg, a, l), serial_module(alg, a, l)
            assert M is not N and M == N and iso_q(M, N)
    parts = [serial_module(alg, 1, 2), serial_module(alg, 3, 1)]
    assert iso_q(direct_sum(parts)[0], direct_sum(parts)[0])
    assert iso_q(Rep.zero(alg), Rep.zero(alg))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_iso_q_of_unequal_isomorphic_modules_goes_through_find_iso(
        field, monkeypatch):
    import periodica.rep as rep_mod
    calls = []
    real = rep_mod.find_iso

    def counted(M, N):
        calls.append((M, N))
        return real(M, N)
    monkeypatch.setattr(rep_mod, "find_iso", counted)
    rng = random.Random(field.p)
    alg = nakayama(4, 4, field)
    # sums with a 2-dimensional vertex: over GF(2) a base change of a
    # module with 1-dimensional vertices changes nothing
    mods = [direct_sum([serial_module(alg, a, l), serial_module(alg, b, k)])[0]
            for a, l, b, k in ((1, 2, 2, 3), (1, 4, 1, 4), (1, 3, 3, 2),
                               (2, 1, 1, 2), (1, 3, 1, 1))]
    for M in mods:
        N = next(N for N in (_base_changed(M, rng) for _ in range(50))
                 if N != M)
        calls.clear()
        assert iso_q(M, N) and iso_q(N, M)
        assert calls


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_iso_q_of_same_dims_nonisomorphic_modules_is_false(field):
    alg = nakayama(4, 4, field)
    M = serial_module
    simples = [M(alg, v, 1) for v in range(1, 5)]
    pairs = [
        (M(alg, 1, 4), direct_sum(simples)[0]),
        (direct_sum([M(alg, 1, 2), M(alg, 3, 1)])[0],
         direct_sum([M(alg, 1, 1), M(alg, 2, 2)])[0]),
        (direct_sum([M(alg, 1, 3), M(alg, 2, 1)])[0],
         direct_sum([M(alg, 1, 2), M(alg, 2, 2)])[0]),
    ]
    a2 = linear_a(2, field)
    pairs.append((Rep.projective(a2, 2),
                  direct_sum([Rep.simple(a2, 1), Rep.simple(a2, 2)])[0]))
    for X, Y in pairs:
        assert X.dims == Y.dims
        assert not iso_q(X, Y) and not iso_q(Y, X)


def _projective_by_radicals(M):
    """The radical route alone: dim P(M) = sum_v dim top(M)_v * dim P(v)."""
    alg = M.algebra
    rad = radical_subspaces(M)
    return M.total_dim == sum((M.dims[v] - rad[v].cols)
                              * alg.target.count(v + 1)
                              for v in range(alg.quiver.n))


def _projectivity_cases():
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    for field in FIELDS:
        for n in (3, 4, 5):
            alg = nakayama(n, n, field)
            yield Rep.zero(alg)
            yield from (Rep.projective(alg, v) for v in range(1, n + 1))
            yield from (serial_module(alg, a, l) for a in range(1, n + 1)
                        for l in range(1, n + 1))
        yield from (M for _, M in all_intervals(linear_a(3, field)))
    ext = load_algebra(os.path.join(here, "exterior2.alg"))
    S = Rep.simple(ext, 1)
    yield S
    for _, (_, _, K, _) in zip(range(4), syzygies(S)):
        yield K
    for name in ("ratsquare.alg", "commsquare.alg"):
        alg = load_algebra(os.path.join(here, name))
        for v in range(1, 5):
            for M in (Rep.simple(alg, v), Rep.projective(alg, v),
                      Rep.injective(alg, v)):
                yield M
                yield syzygy(M)


def test_is_projective_agrees_with_the_radical_route(monkeypatch):
    import periodica.rep as rep_mod
    radicals = []
    real = rep_mod._top_cols

    def counted(M):
        radicals.append(M)
        return real(M)
    verdicts = []
    for M in _projectivity_cases():
        want = _projective_by_radicals(M)
        monkeypatch.setattr(rep_mod, "_top_cols", counted)
        radicals.clear()
        assert is_projective(M) == want
        monkeypatch.undo()
        alg = M.algebra
        small = 0 < M.total_dim < min(alg.target.count(v)
                                      for v in range(1, alg.quiver.n + 1))
        assert not (small and want)
        # the size test decides the small modules, the carried tops the
        # sums of Rep.projective, the radicals the rest
        assert bool(radicals) == (not small and M.tops is None)
        verdicts.append((want, small))
    assert {(True, False), (False, True), (False, False)} <= set(verdicts)


@pytest.mark.parametrize("p", [0, 2, 4294967311])
def test_hom_basis_matches_the_kernel_of_a_reference_system(p):
    # the system rebuilt column by column, the residual of each unit block
    # tuple: its kernel basis and free columns are those of HomBasis
    f = Field(p)
    for M, N in _hom_pairs(_oracle_modules(f)):
        if sum(m * n for m, n in zip(M.dims, N.dims)) > 300:
            continue        # one block tuple per unknown: skip the largest
        arrows = M.algebra.quiver.arrows
        units = []
        for v, (m, n) in enumerate(zip(M.dims, N.dims)):
            for r in range(n):
                for c in range(m):
                    blocks = [Mat.zeros(f, N.dims[w], M.dims[w])
                              for w in range(len(M.dims))]
                    blocks[v].data[r * m + c] = f.one()
                    units.append(blocks)
        cols = []
        for blocks in units:
            col = []
            for ai, a in enumerate(arrows):
                u, v = a.source - 1, a.target - 1
                col += (N.act[ai] @ blocks[v] - blocks[u] @ M.act[ai]).data
            cols.append(col)
        nrows = len(cols[0]) if cols else 0
        system = Mat(f, nrows, len(cols),
                     [col[i] for i in range(nrows) for col in cols])
        hb = HomBasis(M, N)
        K = system.kernel_basis()
        piv = system.rref()[1]
        assert hb.K == K
        assert hb.free == tuple(j for j in range(len(cols)) if j not in piv)
        assert [g.flatten() for g in hb.basis] == [
            K.col_list(j) for j in range(K.cols)]
        assert (system @ K).is_zero() and K.cols == len(cols) - len(piv)
        # unit vectors at the free rows: with system @ K = 0 this fixes K
        # apart from the elimination that built it
        assert [hb.K.row_list(i) for i in hb.free] == Mat.identity(
            f, len(hb.free)).tolist()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_injective_is_the_dual_of_the_opposite_projective(field):
    # equal to the table construction D(A e_v) where the opposite keeps A's
    # basis walks reversed; isomorphic to it on every sample algebra (on
    # exterior2 the opposite's basis walk x*y is -x*y of A)
    algs = [nakayama(n, m, field) for n in range(1, 5) for m in range(2, 5)]
    algs += [linear_a(n, field) for n in range(1, 5)]
    algs.append(enveloping(nakayama(3, 3, field))[0])
    for alg in algs:
        for v in range(1, alg.quiver.n + 1):
            assert Rep.injective(alg, v) == table_injective(alg, v)
    for name in SAMPLE_ALGEBRAS:
        alg = sample_algebra(name, field)
        for v in range(1, alg.quiver.n + 1):
            I = Rep.injective(alg, v)
            I.check_relations()
            assert find_iso(I, table_injective(alg, v)) is not None
