"""The stable layer's shifts and cones through the duality D = Hom_k(-, k).

``StableContext`` takes Sigma^i M as D Omega^i D M, i syzygies over A^op
between two duals, and the cone of f: M -> N as D of the kernel of
D(f, iota): DN + P(DM) -> DM.  The oracles take both over A, as cokernels
of the injective envelope M >-> I(M) and of (f, iota): M -> N + I(M),
and no ``periodica`` module defines or binds the envelope and quotient
constructions they use.
"""

import importlib
import pkgutil

import pytest

from periodica.families import nakayama, serial_module
from periodica.fields import QQ, Field
from periodica.rep import Rep, block_sum, iso_q
from periodica.stablecat import StableContext, check_periodic_tilting_stable

import oracles
from oracles import (cone_by_envelope, sample_algebra, serial_by_quotient,
                     sigma_by_envelope)

FIELDS = [QQ, Field.gf(2), Field.gf(4294967311)]
FIELD_IDS = ["Q", "GF2", "GFbig"]


def _pieces_match(got, want) -> bool:
    """Are the two lists of indecomposables the same up to isomorphism and
    order, matched one to one?"""
    rest = list(want)
    for X in got:
        k = next((k for k, Y in enumerate(rest)
                  if Y.dims == X.dims and iso_q(X, Y)), None)
        if k is None:
            return False
        del rest[k]
    return not rest


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_serial_module_matches_the_quotient(field):
    # the restriction to the walks of length < l gives the quotient's
    # matrices entry for entry, not just an isomorphic module
    for n in range(1, 7):
        for m in range(2, 7):
            alg = nakayama(n, m, field)
            for a in range(1, n + 1):
                for l in range(1, m + 1):
                    M = serial_module(alg, a, l)
                    assert M == serial_by_quotient(alg, a, l)
                    assert M.tops is None


def _shift_inputs(field):
    """Every M(a, l) of N(4,4), N(6,3) and N(5,3), the projective ones
    included, the simples of two sample algebras and a module with a
    projective summand."""
    mods = []
    for n, m in ((4, 4), (6, 3), (5, 3)):
        alg = nakayama(n, m, field)
        mods += [serial_module(alg, a, l)
                 for a in range(1, n + 1) for l in range(1, m + 1)]
    for name in ("exterior2.alg", "twoblocks.alg"):
        alg = sample_algebra(name, field)
        mods += [Rep.simple(alg, v) for v in range(1, alg.quiver.n + 1)]
    alg = nakayama(4, 4, field)
    mods.append(block_sum([serial_module(alg, 2, 3), Rep.projective(alg, 1)]))
    return mods


@pytest.mark.usefixtures("normal_form_scalars")
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_suspension_power_matches_the_envelope_cokernel(field):
    contexts = {}
    for M in _shift_inputs(field):
        ctx = contexts.setdefault(id(M.algebra), StableContext(M.algebra))
        want = M
        for i in (1, 2, 3):
            want = sigma_by_envelope(want)
            got = ctx.suspension_power(M, i)
            assert got.algebra is M.algebra
            assert got.dims == want.dims and iso_q(got, want)


@pytest.mark.usefixtures("normal_form_scalars")
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cone_summands_match_the_envelope_cokernel(field):
    alg = nakayama(4, 4, field)
    ctx = StableContext(alg)
    mods = [serial_module(alg, a, l) for a in range(1, 5) for l in range(1, 4)]
    maps = 0
    for M in mods:
        for N in mods:
            for f in ctx.stable_hom(M, N).classes:
                want = ctx.summands(cone_by_envelope(f))
                assert _pieces_match(ctx.cone_summands(f), want)
                maps += 1
    assert maps


def _count_calls(monkeypatch, names):
    """Count the calls of the oracles ``names``, replaced in ``oracles``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(oracles, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(oracles, name, counted)
    return calls


def test_stable_layer_forms_no_envelope_cokernel_or_quotient(monkeypatch):
    names = ("injective_envelope", "cokernel_of", "quotient_rep")
    pkg = importlib.import_module("periodica")
    for info in pkgutil.iter_modules(pkg.__path__):
        mod = importlib.import_module(f"periodica.{info.name}")
        assert not set(names) & set(vars(mod)), mod.__name__
    assert not set(names) & set(vars(pkg))
    calls = _count_calls(monkeypatch, names)
    alg = nakayama(5, 5, Field.gf(4294967311))
    ctx = StableContext(alg)
    mods = [serial_module(alg, a, l) for a in range(1, 6) for l in range(1, 5)]
    rep = check_periodic_tilting_stable(ctx, mods[:4], 2)
    assert rep["pass"] and rep["closure_size"] == 20
    for M in mods:
        for i in (1, -1, 2, -2):
            ctx.suspension_power(M, i)
    assert calls == dict.fromkeys(names, 0)
    # the counters are live: the envelope route reaches all three
    want = oracles.sigma_by_envelope(mods[0])
    assert calls == dict.fromkeys(names, 1)
    got = ctx.suspension_power(mods[0], 1)
    assert got.dims == want.dims and iso_q(got, want)
