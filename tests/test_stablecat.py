import glob
import os
import random
from math import lcm

import pytest

from periodica.common import (CheckFailed, PreconditionError, Trunc,
                              TruncationError)
from periodica.derivedper import ext_dims
from periodica.families import (dual_numbers, enveloping, linear_a,
                                nakayama, semisimple_product, serial_module)
from periodica.fields import Field, QQ
from periodica.formats import (load_algebra, parse_algebra_text,
                               parse_module_expr)
from periodica.linalg import Mat
from periodica.quiver import build_algebra
from periodica.rep import (HomBasis, Morphism, Rep, block_sum, find_iso,
                           hom_space, iso_q, projective_cover, syzygies)
from periodica.stablecat import (NotPeriodic, StableContext, _bimodule_maps,
                                 _blocks, algebra_period,
                                 check_periodic_tilting_stable,
                                 is_self_injective, stable_end_algebra)

from oracles import (SAMPLE_ALGEBRAS, cokernel_of, direct_sum,
                     injective_envelope, sample_algebra,
                     self_injective_by_socles)


def test_self_injectivity(a2, kxk, n33, n44):
    assert is_self_injective(n33)
    assert is_self_injective(n44)
    assert is_self_injective(kxk)
    # P(1) = S(1) has the simple socle S(1), but dim 1 != dim I(1) = 2
    assert not is_self_injective(a2)
    assert is_self_injective(nakayama(2, 4, QQ))


def _self_injective_by_isos(alg):
    """The definition: each P(v) is isomorphic to an unused I(w).  P(v) is
    indecomposable, so find_iso decides each pair exactly."""
    n = alg.quiver.n
    injs = [Rep.injective(alg, w) for w in range(1, n + 1)]
    used = set()
    for v in range(1, n + 1):
        P = Rep.projective(alg, v)
        hit = next((w for w, I in enumerate(injs)
                    if w not in used and find_iso(P, I) is not None), None)
        if hit is None:
            return False
        used.add(hit)
    return True


def _self_injectivity_cases():
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    for path in sorted(glob.glob(os.path.join(here, "*.alg"))):
        yield os.path.basename(path), lambda path=path: load_algebra(path)
    for field in (Field.gf(2), Field.gf(4294967311)):
        for name in SAMPLE_ALGEBRAS:
            yield (f"{name} {field}",
                   lambda name=name, field=field: sample_algebra(name, field))
    for field in (QQ, Field.gf(2), Field.gf(4294967311)):
        for n in range(1, 6):
            for l in range(2, 6):
                yield (f"N({n},{l}) {field}",
                       lambda n=n, l=l, field=field: nakayama(n, l, field))
        yield f"kA3 {field}", lambda field=field: linear_a(3, field)
        yield f"dual {field}", lambda field=field: dual_numbers(field)


@pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in
                                   _self_injectivity_cases()])
def test_self_injectivity_by_socles_matches_isos(build):
    alg = build()
    assert (is_self_injective(alg) == self_injective_by_socles(alg)
            == _self_injective_by_isos(alg))


def test_context_rejects_non_self_injective(a2):
    with pytest.raises(PreconditionError):
        StableContext(a2)


def test_suspension_formula(n33, n44):
    for alg, n in ((n33, 3), (n44, 4)):
        ctx = StableContext(alg)
        for a in range(1, n + 1):
            for l in range(1, n):
                M = serial_module(alg, a, l)
                S = ctx.suspension_power(M, 1)
                T = serial_module(alg, (a + l - 1) % n + 1, n - l)
                assert S.dims == T.dims and iso_q(S, T)


def test_omega_sigma_inverse(n33):
    ctx = StableContext(n33)
    for _, M in ctx.nakayama_indecomposables():
        back = ctx.suspension_power(ctx.suspension_power(M, 1), -1)
        assert back.dims == M.dims and iso_q(back, M)
        forth = ctx.suspension_power(ctx.suspension_power(M, -1), 1)
        assert forth.dims == M.dims and iso_q(forth, M)


def test_suspension_square_identity(n33, n44):
    for alg in (n33, n44):
        ctx = StableContext(alg)
        items = ctx.nakayama_indecomposables()
        assert len(items) == alg.quiver.n * (alg.nilpotency - 1)
        for _, M in items:
            assert iso_q(ctx.suspension_power(M, 2), M)


def test_nakayama_lengths_come_from_the_projectives(n33):
    # N(3,3) with rad^3 = 0 as relations under the looser nilpotency bound
    # 5: its uniserials have length at most 3, the length of its projectives
    loose = build_algebra(parse_algebra_text(
        "field rationals\nvertices 3\narrow a1: 1 -> 2\narrow a2: 2 -> 3\n"
        "arrow a3: 3 -> 1\nrelation a3*a2*a1\nrelation a1*a3*a2\n"
        "relation a2*a1*a3\nnilpotency 5"))
    ctx = StableContext(loose)
    assert [key for key, _ in ctx.nakayama_indecomposables()] == \
        [key for key, _ in StableContext(n33).nakayama_indecomposables()]
    with pytest.raises(PreconditionError):
        serial_module(loose, 1, 4)
    parts = [serial_module(loose, 1, 1), serial_module(loose, 1, 2)]
    report = check_periodic_tilting_stable(ctx, parts, 2)
    assert report["pass"] and report["missing"] == []


def test_stable_hom_values(n33):
    ctx = StableContext(n33)
    m11 = serial_module(n33, 1, 1)
    m12 = serial_module(n33, 1, 2)
    m21 = serial_module(n33, 2, 1)
    assert ctx.stable_hom(m11, m12).dim == 1
    assert ctx.stable_hom(m11, m21).dim == 0
    assert ctx.stable_hom(Rep.projective(n33, 1), m12).dim == 0


def test_stable_composition_well_defined(n33):
    # perturbing a representative by a projective-factoring map must not
    # change the class of any composition
    ctx = StableContext(n33)
    m11 = serial_module(n33, 1, 1)
    m12 = serial_module(n33, 1, 2)
    m22 = serial_module(n33, 2, 2)
    sh_ab = ctx.stable_hom(m11, m12)
    sh_bc = ctx.stable_hom(m12, m22)
    sh_ac = ctx.stable_hom(m11, m22)
    f = sh_ab.classes[0]
    from periodica.rep import projective_cover
    P, cover = projective_cover(m12)
    through = hom_space(m11, P)
    g_candidates = hom_space(m12, m22)
    for g in g_candidates:
        base = sh_ac.reduce(g @ f)
        for t in through:
            fp = f + (cover @ t)
            assert sh_ac.reduce(g @ fp) == base


def test_module_period(n33):
    ctx = StableContext(n33)
    assert ctx.module_period(serial_module(n33, 1, 1), 8) == 2
    assert ctx.module_period(serial_module(n33, 2, 2), 8) == 2


def test_stable_cone_examples(n33):
    ctx = StableContext(n33)
    m11 = serial_module(n33, 1, 1)
    m12 = serial_module(n33, 1, 2)
    m21 = serial_module(n33, 2, 1)
    assert ctx.cone_summands(Morphism.identity(m12)) == []
    C0 = block_sum(ctx.cone_summands(Morphism.zero(m11, m21)))
    expect = direct_sum([m21, ctx.suspension_power(m11, 1)])[0]
    assert C0.dims == expect.dims and iso_q(C0, expect)
    f = ctx.stable_hom(m11, m12).classes[0]
    C = block_sum(ctx.cone_summands(f))
    assert iso_q(C, m21)


def test_stable_cone_rotation(n33):
    # the cone over N -> cone(f) recovers the suspension of M
    ctx = StableContext(n33)
    m11 = serial_module(n33, 1, 1)
    m12 = serial_module(n33, 1, 2)
    f = ctx.stable_hom(m11, m12).classes[0]
    C = block_sum(ctx.cone_summands(f))
    # the natural map N -> C from the cone construction
    I, incl = injective_envelope(m11)
    S, injs, _ = direct_sum([m12, I])
    g = (injs[0] @ f) + (injs[1] @ incl)
    Q, proj = cokernel_of(g)
    n_to_q = proj @ injs[0]
    SigmaM = ctx.suspension_power(m11, 1)
    C2 = block_sum(ctx.cone_summands(n_to_q))
    assert C2.total_dim == SigmaM.total_dim
    assert iso_q(C2, SigmaM)


def test_algebra_periods_over_Q():
    for (n, m), expect in {(1, 2): 2, (2, 2): 2, (3, 3): 2, (2, 4): 2}.items():
        assert algebra_period(nakayama(n, m, QQ), 10) == expect
    # Ex. 5.6 at scale: the bimodule period of N(n, l) is 2 lcm(n, l) / l
    # in characteristic 0
    for n, l in ((12, 12), (8, 6), (9, 6), (6, 9), (10, 4), (5, 8)):
        assert algebra_period(nakayama(n, l, QQ), 16) == 2 * lcm(n, l) // l


# twoblocks.alg is the one disconnected sample, decided by iso_q; the
# coefficient 2/3 of ratsquare.alg has no value over GF(3)
PRESENTATION_CASES = [
    f"N({n},{l})/{p}" for p in (0, 2, 3)
    for n, l in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 4), (4, 4),
                 (2, 5), (4, 6))
] + [f"{name}/{p}" for name in SAMPLE_ALGEBRAS if name != "twoblocks.alg"
     for p in (0, 2, 3) if (name, p) != ("ratsquare.alg", 3)]


def _presentation_case(case):
    name, p = case.rsplit("/", 1)
    if name.startswith("N("):
        n, l = map(int, name[2:-1].split(","))
        return nakayama(n, l, Field(int(p)))
    return sample_algebra(name, Field(int(p)))


@pytest.mark.parametrize("case", PRESENTATION_CASES)
def test_bimodule_maps_match_the_hom_system(case):
    # Hom(A, K) read off A's presentation has the dimension of the full
    # Hom system, and holds an invertible map exactly when iso_q finds
    # K = A, for every syzygy K up to the period (the projective dimension,
    # or 4 where there is neither)
    alg = _presentation_case(case)
    assert len(set(_blocks(alg))) == 1
    B = enveloping(alg)[1]
    period = algebra_period(alg, 4)
    last = period.projdim if isinstance(period, NotPeriodic) else period.value
    K = B
    for p, step in zip(range(last + 1), syzygies(B)):
        maps = _bimodule_maps(alg, B, K)
        assert len(maps) == HomBasis(B, K).dim
        iso = any(g.is_iso() for g in maps)
        assert iso == iso_q(K, B)
        assert iso == (p == 0 or period.exact and p == period.value)
        K = step[2]


@pytest.mark.parametrize("case", PRESENTATION_CASES)
def test_bimodule_maps_find_no_iso_onto_an_altered_copy(case):
    # A with one arrow matrix the presentation reads set to zero: a^o@s for
    # the first arrow a: s -> t
    alg = _presentation_case(case)
    E, B = enveloping(alg)
    a = alg.quiver.arrows[0]
    k = E.quiver.by_name[f"{a.name}^o@{a.source}"]
    m = B.act[k]
    assert not m.is_zero()
    K = Rep(E, B.dims, [Mat.zeros(m.field, m.rows, m.cols) if j == k else x
                        for j, x in enumerate(B.act)])
    assert not any(g.is_iso() for g in _bimodule_maps(alg, B, K))
    assert not iso_q(K, B)


def test_bimodule_maps_are_certified_module_maps():
    # an arrow u@b with u != t(b) is read neither by the system nor by the
    # walk images: doubled, it leaves the identity a solution, and only the
    # module-map certificate refuses it
    alg = nakayama(3, 3, QQ)
    E, B = enveloping(alg)
    k = E.quiver.by_name["1@a2"]
    assert not B.act[k].is_zero()
    K = Rep(E, B.dims, [x.scale(2) if j == k else x
                        for j, x in enumerate(B.act)])
    with pytest.raises(CheckFailed, match="not a module map"):
        _bimodule_maps(alg, B, K)


def test_algebra_period_char2_exception():
    F2 = Field.gf(2)
    assert algebra_period(nakayama(1, 2, F2), 8) == 1
    assert algebra_period(nakayama(3, 2, F2), 8) == 3
    assert algebra_period(nakayama(3, 2, QQ), 10) == 6


@pytest.mark.parametrize("alg, projdim", [
    (linear_a(2, QQ), 1), (linear_a(4, QQ), 1), (semisimple_product(1, QQ), 0),
], ids=["kA2", "kA4", "k^1"])
def test_algebra_period_stops_at_a_zero_syzygy(alg, projdim):
    # a hereditary algebra has projective dimension 1 over A^e, a separable
    # one 0; the verdict is exact however large the bound
    period = algebra_period(alg, 64)
    assert period == NotPeriodic(projdim)
    assert period.exact and period.value is None and period.to_json() is None
    assert period != NotPeriodic(projdim + 1) and period != Trunc(64, False)


def test_an_exact_trunc_hashes_as_its_value():
    # equal objects hash alike, so an exact Trunc finds its int in a set or
    # a dict and the other way round; a ">= bound" finds neither
    assert Trunc(3) == 3 and hash(Trunc(3)) == hash(3)
    assert Trunc(3) in {3} and 3 in {Trunc(3)}
    assert {3: "three"}[Trunc(3)] == "three"
    assert {Trunc(3): "three"}[3] == "three"
    assert len({Trunc(3), 3, Trunc(3)}) == 1
    assert Trunc(3, False) not in {3, Trunc(3)}
    assert 3 not in {Trunc(3, False)}
    assert {Trunc(3, False), Trunc(3, False)} == {Trunc(3, False)}
    assert NotPeriodic(1) in {NotPeriodic(1)}
    assert NotPeriodic(1) not in {1, Trunc(1), None}


def test_tilting_pass(n33):
    ctx = StableContext(n33)
    parts = [serial_module(n33, 1, 1), serial_module(n33, 1, 2)]
    rep = check_periodic_tilting_stable(ctx, parts, 2)
    assert rep["pass"] and rep["rigidity_ok"] and rep["generation_ok"]
    assert rep["closure_size"] == 6
    assert not rep["missing"]
    assert all(r["dim"] == 0 for r in rep["rigidity"])


def test_tilting_strips_projectives_with_warning(n33):
    ctx = StableContext(n33)
    parts = [serial_module(n33, 1, 1), serial_module(n33, 1, 2),
             Rep.projective(n33, 1)]
    rep = check_periodic_tilting_stable(ctx, parts, 2)
    assert rep["warnings"]
    assert rep["pass"]


def test_tilting_single_simple_generation(n33):
    # a single length-1 module: rigidity runs; generation closure reports
    ctx = StableContext(n33)
    rep = check_periodic_tilting_stable(ctx, [serial_module(n33, 1, 1)], 2)
    assert "missing" in rep
    assert rep["generation_ok"] in (True, False)


def test_end_algebra(n33, n44):
    ctx3 = StableContext(n33)
    parts3 = [serial_module(n33, 1, l) for l in (1, 2)]
    e3 = stable_end_algebra(ctx3, parts3, target_linear_a=2)
    assert e3["dim"] == 3 and e3["iso_found"]
    ctx4 = StableContext(n44)
    parts4 = [serial_module(n44, 1, l) for l in (1, 2, 3)]
    e4 = stable_end_algebra(ctx4, parts4, target_linear_a=3)
    assert e4["dim"] == 6 and e4["iso_found"]
    # stable End of a single brick
    l22 = nakayama(2, 2, QQ)
    ctx22 = StableContext(l22)
    e1 = stable_end_algebra(ctx22, [serial_module(l22, 1, 1)],
                            target_linear_a=1)
    assert e1["dim"] == 1 and e1["iso_found"]


def test_indecomposable_count_bridge(n33, a2):
    # the stable side of N(n,n) and the periodic derived side of kA_{n-1}
    # have matching object counts and Hom-dimension multisets
    from periodica.derivedper import DerivedContext, \
        list_indecomposables_hereditary
    from periodica.percomplex import shift, stalk_complex
    from periodica.families import all_intervals
    ctx = StableContext(n33)
    stable_objs = [M for _, M in ctx.nakayama_indecomposables()]
    assert len(stable_objs) == 6
    assert list_indecomposables_hereditary(a2, 2)["count"] == 6
    dctx = DerivedContext(a2, 2)
    derived_objs = []
    for (_, M) in all_intervals(a2):
        for s in range(2):
            derived_objs.append(shift(stalk_complex(M, 2, 0), -s))
    stable_multiset = sorted(
        ctx.stable_hom(X, Y).dim for X in stable_objs for Y in stable_objs)
    derived_multiset = sorted(
        dctx.derived_hom(X, Y, 0)[0]
        for X in derived_objs for Y in derived_objs)
    assert stable_multiset == derived_multiset


def test_non_nakayama_budget_path():
    # self-injective algebras outside the serial family: an exhausted budget
    # leaves the verdict open only while rigidity and periodicity hold and a
    # simple of a covered block is missing
    from periodica.formats import load_algebra
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    alg = load_algebra(os.path.join(here, "exterior2.alg"))
    assert alg.dim == 4
    assert is_self_injective(alg)
    ctx = StableContext(alg)
    rep = check_periodic_tilting_stable(ctx, [Rep.simple(alg, 1)], 2,
                                        budget=6)
    # the closure holds the only simple, and S(1) is not 2-periodic
    assert rep["budget_exhausted"] and rep["missing_simples"] == []
    assert rep["generation_ok"] is True
    assert not rep["rigidity_ok"] and not rep["periodicity_ok"]
    assert rep["pass"] is False
    two = load_algebra(os.path.join(here, "twoblocks.alg"))
    ctx = StableContext(two)
    T = [Rep.simple(two, 1), Rep.simple(two, 4)]
    for m, verdict in ((3, False), (2, None)):
        rep = check_periodic_tilting_stable(ctx, T, m, budget=2)
        assert rep["budget_exhausted"] and rep["missing_simples"] == [2, 3]
        assert rep["generation_ok"] is None
        assert (rep["rigidity_ok"] and rep["periodicity_ok"]) == (m == 2)
        assert rep["pass"] is verdict


def test_generation_certified_by_the_simples():
    # outside the cyclic Nakayama family, a closure holding every simple
    # generates: stmod is the thick closure of the simples
    from periodica.formats import load_algebra
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    alg = load_algebra(os.path.join(here, "twoblocks.alg"))
    ctx = StableContext(alg)
    simples = [Rep.simple(alg, v) for v in range(1, 6)]
    rep = check_periodic_tilting_stable(ctx, simples, 2)
    assert rep["missing_simples"] == [] and rep["generation_ok"] is True
    assert not rep["rigidity_ok"] and rep["pass"] is False


def test_suspension_strips_projective_summands(n33):
    ctx = StableContext(n33)
    M = serial_module(n33, 1, 1)
    with_proj = direct_sum([M, Rep.projective(n33, 2)])[0]
    S = ctx.suspension_power(with_proj, 1)
    expect = ctx.suspension_power(M, 1)
    assert S.dims == expect.dims and iso_q(S, expect)


@pytest.mark.parametrize("field", [QQ, Field.gf(2), Field.gf(4294967311)],
                         ids=["Q", "GF2", "GFbig"])
def test_is_projective_matches_cover_dimension(field):
    from periodica.rep import is_projective, projective_cover

    def oracle(M):
        return projective_cover(M)[0].total_dim == M.total_dim
    for n in (3, 4, 5):
        alg = nakayama(n, n, field)
        mods = [(True, Rep.zero(alg))]
        mods += [(True, Rep.projective(alg, v)) for v in range(1, n + 1)]
        mods += [(l == n, serial_module(alg, a, l))
                 for a in range(1, n + 1) for l in range(1, n + 1)]
        mods += [
            (True, direct_sum([Rep.projective(alg, 1),
                               Rep.projective(alg, n)])[0]),
            (False, direct_sum([serial_module(alg, 1, 1),
                                Rep.projective(alg, 2)])[0]),
            (False, direct_sum([serial_module(alg, 2, n - 1),
                                serial_module(alg, 1, 2)])[0]),
            (True, Rep.regular(alg)),
        ]
        for expect, M in mods:
            assert is_projective(M) == oracle(M) == expect


def test_closure_covers_each_target_once_and_cones_each_class_once(
        monkeypatch):
    import periodica.stablecat as sc
    alg = nakayama(5, 5, Field.gf(4294967311))
    ctx = StableContext(alg)
    targets, covered, coned = [], [], []
    real_cover, real_init = sc.projective_cover, sc.StableHom.__init__
    real_cone = StableContext.cone_summands

    def cover(N):
        covered.append(N)
        return real_cover(N)

    def init(self, M, N, *rest):
        targets.append(N)
        real_init(self, M, N, *rest)

    def cone(self, f):
        coned.append(f)
        return real_cone(self, f)
    monkeypatch.setattr(sc, "projective_cover", cover)
    monkeypatch.setattr(sc.StableHom, "__init__", init)
    monkeypatch.setattr(StableContext, "cone_summands", cone)
    rep = check_periodic_tilting_stable(
        ctx, [serial_module(alg, 1, l) for l in range(1, 5)], 2)
    assert rep["pass"] and rep["closure_size"] == 20
    # the lists hold every argument, so no id is recycled while counting
    assert targets and coned
    for N in {id(N): N for N in targets}.values():
        assert sum(X is N for X in covered) <= 1
    assert len({id(f) for f in coned}) == len(coned)


@pytest.mark.usefixtures("normal_form_scalars")
def test_closure_report_pinned_large_prime():
    import json
    import os
    alg = nakayama(4, 4, Field.gf(4294967311))
    rep = check_periodic_tilting_stable(
        StableContext(alg), [serial_module(alg, 1, l) for l in (1, 2, 3)], 2)
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "closure_n4_fp4294967311.json")
    with open(path, "r", encoding="utf-8") as fh:
        assert json.dumps(rep, indent=2, sort_keys=True) + "\n" == fh.read()


def test_nakayama_budget_exhaustion_is_inconclusive(n33):
    ctx = StableContext(n33)
    good = [serial_module(n33, 1, 1), serial_module(n33, 1, 2)]
    rep = check_periodic_tilting_stable(ctx, good, 2, budget=1)
    assert rep["budget_exhausted"] and rep["rigidity_ok"]
    assert rep["generation_ok"] is None and rep["pass"] is None
    # a rigidity failure is a negative verdict even when generation is open
    bad = [serial_module(n33, 1, 1), serial_module(n33, 2, 1)]
    rep = check_periodic_tilting_stable(ctx, bad, 2, budget=1)
    assert rep["budget_exhausted"] and not rep["rigidity_ok"]
    assert rep["generation_ok"] is None and rep["pass"] is False


@pytest.mark.usefixtures("normal_form_scalars")
def test_closure_report_pinned_gf2_seed5():
    # both fields decide isomorphism by invertible Hom basis elements, then
    # Krull-Schmidt; a reordered closure loop would show up here as a
    # reordered registry
    import json
    import os
    alg = nakayama(5, 5, Field.gf(2))
    rep = check_periodic_tilting_stable(
        StableContext(alg, 5), [serial_module(alg, 1, l) for l in range(1, 5)],
        2)
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "closure_n5_fp2_seed5.json")
    with open(path, "r", encoding="utf-8") as fh:
        assert json.dumps(rep, indent=2, sort_keys=True) + "\n" == fh.read()


def test_closure_report_does_not_depend_on_the_context_seed(monkeypatch):
    # the seed of a StableContext reaches no isomorphism test and no
    # decomposition: both decide by basis maps alone
    import periodica.stablecat as sc
    calls = set()

    def spy(name):
        real = getattr(sc, name)

        def call(*args):
            calls.add((name, len(args)))
            return real(*args)
        monkeypatch.setattr(sc, name, call)
    spy("iso_q")
    spy("decompose")
    alg = nakayama(5, 5, Field.gf(2))
    parts = [serial_module(alg, 1, l) for l in range(1, 5)]
    reports = [check_periodic_tilting_stable(StableContext(alg, seed), parts, 2)
               for seed in (0, 5)]
    assert reports[0] == reports[1] and reports[0]["pass"]
    assert calls == {("iso_q", 2), ("decompose", 1)}


@pytest.mark.parametrize("field", [Field.gf(2), Field.gf(4294967311)],
                         ids=["GF2", "GFbig"])
def test_strip_keeps_a_nonprojective_indecomposable(field):
    alg = nakayama(4, 4, field)
    ctx = StableContext(alg)
    for a in range(1, 5):
        for l in range(1, 4):
            M = serial_module(alg, a, l)
            assert ctx.suspension_power(M, 0) is M
            assert ctx.summands(M) == [M]


def _closure_n5(monkeypatch, name, wrap):
    """Run the N(5,5) closure over GF(4294967311) with ``name`` in
    periodica.stablecat replaced by ``wrap(original, log)``; ``log`` records
    the source of every cone and the pieces ``cone_summands`` returns."""
    import periodica.stablecat as sc
    alg = nakayama(5, 5, Field.gf(4294967311))
    ctx = StableContext(alg)
    log = {"sources": [], "pieces": []}
    real_cone = StableContext.cone_summands

    def cone(self, f):
        log["sources"].append(f.source)
        pieces = real_cone(self, f)
        log["pieces"].extend(pieces)
        return pieces
    monkeypatch.setattr(StableContext, "cone_summands", cone)
    monkeypatch.setattr(sc, name, wrap(getattr(sc, name), log))
    rep = check_periodic_tilting_stable(
        ctx, [serial_module(alg, 1, l) for l in range(1, 5)], 2)
    assert rep["pass"] and rep["closure_size"] == 20
    return log


def test_closure_builds_one_dual_cover_per_cone_source(monkeypatch):
    # one dual cover P(DM) ->> DM per registry item M, shared by its
    # suspension and its cones, counted over the whole closure call; and no
    # registry lookup builds a Hom space: distinct serial modules of N(5,5)
    # have distinct dims, so every hit is an equal module
    import periodica.rep as rep_mod
    import periodica.stablecat as sc
    duals, covered, isos = [], [], []

    def wrap(real, log):
        def dual(M):
            D = real(M)
            duals.append((M, D))
            return D
        return dual
    real_cover, real_find_iso = sc.projective_cover, rep_mod.find_iso

    def cover(N):
        covered.append(N)
        return real_cover(N)

    def find_iso(M, N):
        isos.append((M, N))
        return real_find_iso(M, N)
    monkeypatch.setattr(sc, "projective_cover", cover)
    monkeypatch.setattr(rep_mod, "find_iso", find_iso)
    log = _closure_n5(monkeypatch, "dual", wrap)
    # the lists hold every argument and result, so no id is recycled while
    # counting; the suspensions build every source's dual cover before its
    # cones
    dual_of = {id(D): M for M, D in duals}
    sources = [dual_of[id(N)] for N in covered if id(N) in dual_of]
    assert log["sources"]
    assert {id(M) for M in log["sources"]} <= {id(M) for M in sources}
    assert len(sources) == len({id(M) for M in sources})
    assert not isos


def test_closure_takes_each_suspension_once(monkeypatch):
    # Sigma of a candidate's part is read by the rigidity check and by the
    # closure's first pass: one kernel of its dual cover serves both.  The
    # shifts in both directions are the kernels of covers, whose sources
    # have tops; a cone's map is out of DN + P(DM), which has none
    maps = []

    def wrap(real, log):
        def kernel_of(f):
            if f.source.tops is not None:
                maps.append(f)
            return real(f)
        return kernel_of
    _closure_n5(monkeypatch, "kernel_of", wrap)
    # the list holds every argument, so no id is recycled while counting;
    # the covers are over A (Omega) and A^op (Sigma)
    assert len({id(f.source.algebra) for f in maps}) == 2
    assert len(maps) == len({id(f) for f in maps})


def test_suspension_power_holds_no_envelope():
    alg = nakayama(4, 4, Field.gf(2))
    ctx = StableContext(alg)
    for a in range(1, 5):
        for l in range(1, 4):
            M = serial_module(alg, a, l)
            ctx.suspension_power(M, 1)
            ctx.suspension_power(M, 2)
    assert not ctx._dual_covers
    parts = [serial_module(alg, 1, l) for l in range(1, 4)]
    check_periodic_tilting_stable(ctx, parts, 2)
    held = list(ctx._dual_covers)
    assert held
    for M in parts:
        ctx.suspension_power(M, 2)
    assert list(ctx._dual_covers) == held


def test_suspension_power_leaves_the_context_caches_alone():
    # both directions build their covers for the call, also on a context
    # whose closure filled its caches
    alg = nakayama(4, 4, Field.gf(2))
    ctx = StableContext(alg)
    mods = [serial_module(alg, a, l) for a in range(1, 5) for l in range(1, 4)]
    check_periodic_tilting_stable(ctx, mods[:3], 2)
    covers, dual_covers = list(ctx._covers), list(ctx._dual_covers)
    assert covers and dual_covers
    for _ in range(3):
        for M in mods:
            for i in (2, -2):
                ctx.suspension_power(M, i)
    assert (list(ctx._covers) == covers
            and list(ctx._dual_covers) == dual_covers)


@pytest.mark.parametrize("field", [QQ, Field.gf(2), Field.gf(4294967311)],
                         ids=["Q", "GF2", "GFbig"])
def test_registry_finds_the_index_of_the_plain_iso_scan(field):
    from periodica.stablecat import _Registry
    rng = random.Random(field.p)
    alg = nakayama(4, 4, field)
    mods = [serial_module(alg, a, l) for a in range(1, 5)
            for l in range(1, 5)]
    # each vertex space of M(a, l) is a line: rescale it by a random unit
    # (over GF(2) this leaves M as it is)
    changed = []
    for M in mods:
        c = [field.coerce(rng.choice((1, 3, 5, 7))) for _ in M.dims]
        changed.append(Rep(alg, M.dims, [
            M.act[i].scale(field.div(c[a.target - 1], c[a.source - 1]))
            for i, a in enumerate(alg.quiver.arrows)], check=True))
    reg = _Registry()
    for k, M in enumerate(mods):
        if k % 3:
            reg.add(changed[k] if k % 2 else M, {"k": k})
    for M in mods + changed:
        # serial modules are indecomposable, so find_iso decides each pair
        plain = next((i for i, (X, _) in enumerate(reg.items)
                      if find_iso(X, M) is not None), None)
        assert reg.find(M) == plain
    assert any(X != Y for X, Y in zip(mods, changed)) == (field.p != 2)


def test_closure_decomposes_no_cone_again(monkeypatch):
    # cone_summands decomposes each cokernel once; the closure registers
    # the pieces it returns and decomposes none of them again
    late = []

    def wrap(real, log):
        def decompose(M):
            late.extend(C for C in log["pieces"] if C is M)
            return real(M)
        return decompose
    log = _closure_n5(monkeypatch, "decompose", wrap)
    assert log["pieces"] and not late


def test_shifts_and_periods_make_no_decompose_call(monkeypatch):
    # Heller's lemma: the shifts drop projective summands themselves, so of
    # the stable layer's own calls only Sigma^0 decomposes its input (the
    # isomorphism tests of the period search may, inside iso_q)
    import periodica.stablecat as sc
    alg = nakayama(4, 4, Field.gf(2))
    ctx = StableContext(alg)
    M = parse_module_expr(alg, "2*S(2)+P(1)")
    calls = []
    real = sc.decompose

    def decompose(X):
        calls.append(X)
        return real(X)
    monkeypatch.setattr(sc, "decompose", decompose)
    for i in (1, -1, 2, -2):
        ctx.suspension_power(M, i)
    ctx.module_period(M, 8)
    assert calls == []
    ctx.suspension_power(M, 0)
    assert calls == [M]


@pytest.mark.parametrize("nm, with_proj, part", [
    ((4, 4), "2*S(2)+P(1)", "2*S(2)"),
    ((6, 3), "S(1)+P(3)", "S(1)"),
], ids=["N44", "N63"])
def test_module_period_ignores_projective_summands(nm, with_proj, part):
    alg = nakayama(*nm, QQ)
    ctx = StableContext(alg)
    got = ctx.module_period(parse_module_expr(alg, with_proj), 16)
    assert got == ctx.module_period(parse_module_expr(alg, part), 16)
    assert got.exact
    with pytest.raises(PreconditionError, match=r"projective \(stably zero\)"):
        ctx.module_period(parse_module_expr(alg, "P(1)+P(2)"), 16)


def _suspension_stripping_every_step(M, i):
    """Sigma^i M with projective summands dropped before and after every
    step, from `rep` and the envelope oracle: the reference Heller's lemma
    lets `suspension_power` skip."""
    from periodica.rep import decompose, is_projective, syzygy

    def strip(X):
        kept = [s for s in decompose(X) if not is_projective(s)]
        return block_sum(kept) if kept else Rep.zero(X.algebra)
    M = strip(M)
    for _ in range(abs(i)):
        M = strip(cokernel_of(injective_envelope(M)[1])[0] if i > 0
                  else syzygy(M))
    return M


@pytest.mark.parametrize("field", [QQ, Field.gf(2)], ids=["Q", "GF2"])
def test_suspension_power_matches_stripping_every_step(field):
    rng = random.Random(11)
    for n in (3, 4, 5):
        alg = nakayama(n, n, field)
        ctx = StableContext(alg)
        mods = [serial_module(alg, a, l)
                for a in range(1, n + 1) for l in range(1, n)]
        inputs = list(mods)
        for k in range(6):
            parts = rng.sample(mods, 2)
            if k % 2:
                parts.append(Rep.projective(alg, rng.randint(1, n)))
            inputs.append(direct_sum(parts)[0])
        for M in inputs:
            for i in range(-3, 4):
                got = ctx.suspension_power(M, i)
                want = _suspension_stripping_every_step(M, i)
                assert got.dims == want.dims and iso_q(got, want)


def _stable_dim_by_envelope(M, N):
    """dim stHom(M, N) from the source side: dim Hom(M, N) minus the rank of
    {g . iota : g in Hom(I(M), N)}, iota: M >-> I(M) the injective envelope.
    Over a self-injective algebra projectives are injective, so a map
    factoring through one factors through iota."""
    full = HomBasis(M, N)
    if not full.dim:
        return 0
    I, iota = injective_envelope(M)
    through = [g @ iota for g in hom_space(I, N)]
    return full.dim - full.coords_matrix(through).rank()


def _nakayama_pairs(field):
    mods = []
    for n in (3, 4, 5):
        alg = nakayama(n, n, field)
        mods.append((StableContext(alg),
                     [serial_module(alg, a, l)
                      for a in range(1, n + 1) for l in range(1, n)]))
    return mods


def _exterior2_syzygies():
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    alg = load_algebra(os.path.join(here, "exterior2.alg"))
    ctx = StableContext(alg)
    S = Rep.simple(alg, 1)
    return [(ctx, [ctx.suspension_power(S, -i) for i in (1, 2, 3)])]


_STABLE_PAIR_CASES = [
    pytest.param(lambda: _nakayama_pairs(Field.gf(2)), id="N(n,n)-GF2"),
    pytest.param(lambda: _nakayama_pairs(Field.gf(4294967311)),
                 id="N(n,n)-GFbig"),
    pytest.param(_exterior2_syzygies, id="exterior2-syzygies"),
]


@pytest.mark.parametrize("cases", _STABLE_PAIR_CASES)
def test_stable_hom_dim_matches_the_envelope_side(cases):
    # the cover of the target (StableHom) against the envelope of the source
    for ctx, mods in cases():
        for M in mods:
            for N in mods:
                assert (ctx.stable_hom(M, N).dim
                        == _stable_dim_by_envelope(M, N))


@pytest.mark.parametrize("cases", _STABLE_PAIR_CASES)
def test_stable_hom_class_basis_contract(cases):
    for ctx, mods in cases():
        zero_homs = 0
        for M in mods:
            for N in mods:
                sh = ctx.stable_hom(M, N)
                for c, f in enumerate(sh.classes):
                    assert sh.class_coords(f) == [int(k == c)
                                                  for k in range(sh.dim)]
                # every map, plus a map through the cover, keeps its class
                P, pi = projective_cover(N)
                through = [pi @ t for t in hom_space(M, P)]
                for f in sh.full.basis:
                    base = sh.class_coords(f)
                    assert len(base) == sh.dim
                    for t in through:
                        assert sh.class_coords(f + t) == base
                if not sh.full.dim:
                    zero_homs += 1
                    assert sh.dim == 0 and sh.classes == []
                    assert sh.class_coords(Morphism.zero(M, N)) == []
        # over a local algebra M ->> top M = S embeds in soc N, so Hom is
        # never 0 there; the Nakayama lists hold S(1), S(2)
        assert zero_homs or ctx.algebra.quiver.n == 1


def _ext_against_stable_hom():
    """Mismatches of dim Ext^i(M, N) (``ext_dims`` on a minimal resolution
    truncated one past the top degree) against dim stHom(Omega^i M, N) and,
    as a control, against dim stHom(Omega^(i+1) M, N), for i = 1..top over
    all pairs of stable indecomposables: S(1), Omega S(1), Omega^2 S(1) of
    exterior2.alg (top 2), then N(n,l) serial modules (top 3)."""
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    ext2 = load_algebra(os.path.join(here, "exterior2.alg"))
    ctx2 = StableContext(ext2)
    S = Rep.simple(ext2, 1)
    cases = [(ctx2, [ctx2.suspension_power(S, -i) for i in range(3)], 2)]
    for n, l, field in [(3, 3, QQ), (3, 3, Field.gf(2)), (4, 2, QQ),
                        (4, 4, Field.gf(2))]:
        alg = nakayama(n, l, field)
        cases.append((StableContext(alg),
                      [serial_module(alg, a, k)
                       for a in range(1, n + 1) for k in range(1, l)], 3))
    bad, control = [], []
    for ctx, mods, top in cases:
        bad.append(0)
        control.append(0)
        for M in mods:
            omega = [ctx.suspension_power(M, -i) for i in range(top + 2)]
            for N in mods:
                ext = ext_dims(M, N, top, bound=top + 1)
                for i in range(1, top + 1):
                    bad[-1] += ext[i] != ctx.stable_hom(omega[i], N).dim
                    control[-1] += (ext[i]
                                    != ctx.stable_hom(omega[i + 1], N).dim)
    return bad, control


def test_ext_is_stable_hom_out_of_the_syzygy():
    # Ext^i(M, N) = stHom(Omega^i M, N) over a self-injective algebra: the
    # derived side's cochains against the stable side's classes, on
    # 18, 108, 108, 48 and 432 triples; a syzygy off by one is seen on
    # every algebra
    bad, control = _ext_against_stable_hom()
    assert bad == [0, 0, 0, 0, 0]
    assert control == [17, 72, 72, 24, 240]


def test_ext_dims_reads_a_truncated_resolution_up_to_its_reach(n33):
    # M(1,1) has period 2 and bound 3 keeps P_0..P_3: Ext^2 reads P_3,
    # Ext^3 would need P_4
    M = serial_module(n33, 1, 1)
    assert ext_dims(M, M, 2, bound=3) == [1, 0, 1]
    with pytest.raises(TruncationError, match="Ext\\^3 needs P_4"):
        ext_dims(M, M, 3, bound=3)


def _closure_grid():
    """(key, report) of the pinned closure grid.  Over four fields and four
    shapes N(n, l): the Ex. 5.8 candidate M(1,1) + ... + M(1,l-1) at m = 2,
    the simple M(1,1) at m = 1 and M(1,1) + M(2,l-1) at m = 3, each with the
    budgets 1, n(l-1) - 1, n(l-1) and 64, on both sides of the n(l-1)
    targets; one context per algebra, as one CLI run holds.  Then two
    closures outside the cyclic Nakayama family: exterior2.alg to its
    budget and twoblocks.alg to saturation."""
    fields = [("GF2", Field.gf(2)), ("GF3", Field.gf(3)),
              ("GFbig", Field.gf(4294967311)), ("Q", QQ)]
    for fname, field in fields:
        for n, l in ((3, 3), (4, 2), (2, 4), (4, 3)):
            alg = nakayama(n, l, field)
            ctx = StableContext(alg)
            count = n * (l - 1)
            candidates = [
                ("ex5.8", 2, [serial_module(alg, 1, k) for k in range(1, l)]),
                ("simple", 1, [serial_module(alg, 1, 1)]),
                ("pair", 3, [serial_module(alg, 1, 1),
                             serial_module(alg, 2, l - 1)])]
            for cname, m, parts in candidates:
                for budget in (1, count - 1, count, 64):
                    yield (f"{fname} N({n},{l}) {cname} m={m} "
                           f"budget={budget}",
                           check_periodic_tilting_stable(ctx, parts, m,
                                                         budget))
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    ext2 = load_algebra(os.path.join(here, "exterior2.alg"))
    yield ("exterior2 S(1) m=2 budget=6",
           check_periodic_tilting_stable(StableContext(ext2),
                                         [Rep.simple(ext2, 1)], 2, 6))
    two = load_algebra(os.path.join(here, "twoblocks.alg"))
    yield ("twoblocks simples m=2 budget=64",
           check_periodic_tilting_stable(
               StableContext(two), [Rep.simple(two, v) for v in range(1, 6)],
               2))


def closure_grid_text() -> str:
    """The grid's reports as a JSON object, one closure per line."""
    import json
    lines = [f"{json.dumps(key)}: {json.dumps(rep, sort_keys=True)}"
             for key, rep in _closure_grid()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_closure_grid_pinned():
    # the stop once the registry holds every indecomposable leaves every
    # report as the full loop gave it, budget_exhausted and generation_ok
    # included
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "closure_grid.json")
    with open(path, "r", encoding="utf-8") as fh:
        assert closure_grid_text() == fh.read()


def test_closure_stops_once_the_registry_is_complete(monkeypatch):
    # N(5,5) has 20 non-projective indecomposables: after the registry
    # lookup that adds the 20th, no shift is taken and no cone formed
    import periodica.stablecat as sc
    alg = nakayama(5, 5, Field.gf(4294967311))
    events = []
    real_add, real_cone = sc._Registry.add, StableContext.cone_summands

    def add(self, M, provenance):
        got = real_add(self, M, provenance)
        events.append(("add", len(self.items)))
        return got

    def cone(self, f):
        events.append(("cone",))
        return real_cone(self, f)

    def logged(name):
        real = getattr(sc, name)

        def wrapper(f):
            events.append((name,))
            return real(f)
        return wrapper
    monkeypatch.setattr(sc._Registry, "add", add)
    monkeypatch.setattr(StableContext, "cone_summands", cone)
    monkeypatch.setattr(sc, "kernel_of", logged("kernel_of"))
    rep = check_periodic_tilting_stable(
        StableContext(alg), [serial_module(alg, 1, l) for l in range(1, 5)],
        2)
    assert rep["pass"] and rep["closure_size"] == 20 and not rep["missing"]
    complete = events.index(("add", 20))
    assert {e[0] for e in events[:complete]} == {"add", "cone", "kernel_of"}
    assert events[complete + 1:] == []


def test_closure_outside_nakayama_runs_its_full_loop(monkeypatch):
    # no stop outside the cyclic Nakayama family: exterior2.alg registers
    # its summand, the two shifts and the 16 cone pieces of the first pass
    # before the budget ends it, and twoblocks.alg, whose closure of the
    # simples holds all 8 non-projective indecomposables, still makes the
    # pass that adds nothing; the grid golden pins both reports
    import periodica.stablecat as sc
    here = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")
    adds = []
    real_add = sc._Registry.add

    def add(self, M, provenance):
        adds.append(provenance)
        return real_add(self, M, provenance)
    monkeypatch.setattr(sc._Registry, "add", add)
    ext2 = load_algebra(os.path.join(here, "exterior2.alg"))
    rep = check_periodic_tilting_stable(StableContext(ext2),
                                        [Rep.simple(ext2, 1)], 2, budget=6)
    assert rep["budget_exhausted"] and rep["closure_size"] == 7
    assert len(adds) == 19
    adds.clear()
    two = load_algebra(os.path.join(here, "twoblocks.alg"))
    rep = check_periodic_tilting_stable(
        StableContext(two), [Rep.simple(two, v) for v in range(1, 6)], 2)
    assert not rep["budget_exhausted"] and rep["closure_size"] == 8
    assert len(adds) == 27
