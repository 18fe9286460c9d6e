import pytest

from periodica.common import PreconditionError, TruncationError
from periodica.families import serial_module
from periodica.hochschild import (HochschildContext, LaurentSetup,
                                  bimodule_resolution, formality_criterion,
                                  hh_table, vanishing_pattern_ok,
                                  smooth_dimension)
from periodica.rep import Morphism, Rep, Resolution, hom_space, \
    minimal_resolution

from oracles import bar_hh_oracle, check_exact, check_minimal


def test_resolution_lengths(a2, kxk, dual):
    assert bimodule_resolution(kxk, 6).length == 0
    assert bimodule_resolution(a2, 6).length == 1
    res = bimodule_resolution(dual, 6)
    assert not res.complete and len(res.terms) == 7


def test_resolution_is_minimal_and_exact(a2, a3, dual, n33):
    resolutions = [bimodule_resolution(alg, 6) for alg in (a2, dual)]
    resolutions += [minimal_resolution(Rep.simple(a3, v), 6)
                    for v in range(1, 4)]
    truncated = minimal_resolution(serial_module(n33, 1, 1), 4)
    assert not truncated.complete and truncated.length == 4
    resolutions.append(truncated)
    for res in resolutions:
        assert check_minimal(res)
        assert check_exact(res)
    terms, maps = truncated.terms, truncated.maps
    broken = Resolution(truncated.module, terms,
                        [Morphism.zero(terms[1], terms[0])] + maps[1:],
                        truncated.aug, truncated.complete)
    assert not check_exact(broken)


def test_minimality_reads_exts_off_without_differentials(a2):
    # with a minimal resolution, Hom into simple bimodules has zero induced
    # differentials, so Ext dims are the Hom dims themselves
    ctx = HochschildContext(a2, bound=6)
    E = ctx.res.module.algebra
    for v in range(1, E.quiver.n + 1):
        S = Rep.simple(E, v)
        homs = [len(hom_space(F, S)) for F in ctx.res.terms]
        for j, d in enumerate(ctx.res.maps):
            basis = hom_space(ctx.res.terms[j], S)
            for g in basis:
                assert (g @ d).is_zero()
        assert homs == [len(hom_space(F, S)) for F in ctx.res.terms]


def test_smooth_dimension_cross_check(a2, a3, kxk, dual):
    for alg, expect in ((a2, 1), (a3, 1), (kxk, 0)):
        rep = smooth_dimension(alg, 8)
        assert rep["smooth_dimension"] == expect
        assert rep["consistent"]
    rep = smooth_dimension(dual, 8)
    assert rep["smooth_dimension"] == ">= 8"
    assert rep["consistent"]


def test_hh_ungraded_values(a2, kxk, dual):
    ctx = HochschildContext(a2, 8)
    assert [ctx.hh(p) for p in range(5)] == [1, 0, 0, 0, 0]
    ctx2 = HochschildContext(kxk, 8)
    assert ctx2.hh(0) == 2
    ctx3 = HochschildContext(dual, 10)
    assert [ctx3.hh(p) for p in range(8)] == [2, 1, 1, 1, 1, 1, 1, 1]
    with pytest.raises(TruncationError):
        ctx3.hh(50)


def test_truncation_rule_at_its_boundary(dual):
    # F is cut at F_10: HH^9 reads d_10 and is known, HH^10 needs F_11
    ctx = HochschildContext(dual, 10)
    assert not ctx.res.complete and ctx.res.length == 10
    assert ctx.hh(9) == 1
    with pytest.raises(TruncationError, match="Ext\\^10 needs P_11: "
                                              "resolution truncated at "
                                              "length 10"):
        ctx.hh(10)
    with pytest.raises(PreconditionError):
        ctx.hh(-1)


def test_center_of_nakayama(n33):
    # the center of N(3,3) is spanned by 1 and the full cycle classes
    ctx = HochschildContext(n33, 4)
    assert ctx.hh(0) == 1


def test_bar_oracle_matches_minimal(a2, kxk, dual):
    for alg in (a2, kxk, dual):
        ctx = HochschildContext(alg, 8)
        for p in range(4):
            assert bar_hh_oracle(alg, p) == ctx.hh(p)


def test_bar_oracle_guard(n33):
    with pytest.raises(PreconditionError):
        bar_hh_oracle(n33, 6, size_guard=1000)


def test_graded_cells_kA2(a2):
    ctx = HochschildContext(a2, 8)
    setup = LaurentSetup(ctx, 2)
    assert setup.hh_graded(0, 0) == 1
    assert setup.hh_graded(1, 0) == 1      # HH^1 + HH^0 = 0 + 1
    assert setup.hh_graded(2, 0) == 0
    assert setup.hh_graded(0, 1) == 0
    assert setup.hh_graded(3, -2) == 0
    assert setup.hh_graded(0, 2) == 1
    assert setup.hh_graded(0, -2) == 1


def test_graded_cells_match_the_bar_oracle(a2, a3, dual):
    # HH^{p,q} of the Laurent extension against the bar complex of the base
    # algebra, which shares no code with the bimodule resolution
    for alg, top in ((a2, 4), (a3, 3), (dual, 4)):
        oracle = [0] + [bar_hh_oracle(alg, p) for p in range(top)]
        ctx = HochschildContext(alg, 8)
        for m in (2, 3):
            setup = LaurentSetup(ctx, m)
            for p in range(top):
                for q in range(-2 * m, 2 * m + 1):
                    expect = oracle[p + 1] + oracle[p] if q % m == 0 else 0
                    assert setup.hh_graded(p, q) == expect
            assert setup.hh_graded(-1, 0) == 0
    # the dual numbers' resolution is cut at F_8: HH^{7,0} needs d_8, and
    # HH^{8,0} needs the missing d_9 unless the degree puts it off the lattice
    setup = LaurentSetup(HochschildContext(dual, 8), 2)
    assert setup.hh_graded(7, 0) == 2
    assert setup.hh_graded(8, 1) == 0
    with pytest.raises(TruncationError):
        setup.hh_graded(8, 0)


def test_lemma_vanishing_tables(a2, a3):
    for alg in (a2, a3):
        for m in (2, 3):
            ctx = HochschildContext(alg, 8)
            setup = LaurentSetup(ctx, m)
            d = ctx.smooth_dimension().value
            table = hh_table(setup, d + 4, range(-3 * m, 3 * m + 1))
            assert vanishing_pattern_ok(table)
            # and the nonzero cells are exactly at p <= d+1, q = 0 mod m here
            for cell in table["cells"]:
                if cell["dim"]:
                    assert cell["q"] % m == 0 and cell["p"] <= d + 1


def test_formality_pass(a2, a3):
    for alg in (a2, a3):
        for m in (2, 3):
            ctx = HochschildContext(alg, 8)
            rep = formality_criterion(LaurentSetup(ctx, m), 8)
            assert rep["verdict"] == "PASS"
            assert rep["tail_closed"]


def test_formality_fail_dual(dual):
    ctx = HochschildContext(dual, 10)
    rep = formality_criterion(LaurentSetup(ctx, 2), 8)
    assert rep["verdict"] == "FAIL"
    cell = rep["nonzero_cell"]
    assert cell is not None and cell["q"] >= 3 and cell["dim"] > 0
    assert {"q": 4, "p": 4, "internal_degree": -2,
            "dim": 2, "provenance": "computed"} == cell
    assert not rep["tail_closed"]


def test_nakayama_graded_cells(n33):
    # infinite global dimension: cells are only available inside the window
    ctx = HochschildContext(n33, 6)
    setup = LaurentSetup(ctx, 2)
    assert setup.hh_graded(1, 1) == 0
    val = setup.hh_graded(1, 0)
    assert val == ctx.hh(1) + ctx.hh(0)


def test_table_truncated_provenance(dual):
    ctx = HochschildContext(dual, 6)
    t = hh_table(LaurentSetup(ctx, 2), 8, range(-2, 3))
    provs = {c["provenance"] for c in t["cells"]}
    assert any("unknown" in p for p in provs)
    assert not vanishing_pattern_ok(t)     # no finite length bound here
