"""Hochschild cohomology via minimal bimodule resolutions, and the graded
cohomology of the Laurent extension with generator degree m.

The algebra is resolved over its enveloping algebra by iterated projective
covers, and HH^p is H^p of the bounded Hom complex from that resolution into
A in degree 0, the complex that gives Ext in ``derivedper``.  The bar
complex, an independent route to HH^p, is a test oracle
(``tests/oracles.py``) and not part of the library.  Graded Hom spaces over
the Laurent enveloping algebra are never materialized: a graded map out of a
shifted free summand is determined on its generator, so every bigraded cell
reduces to finitely many ordinary bimodule Hom spaces indexed by a degree
congruence.  A cell HH^{p,q} with m | q is exactly HH^p + HH^{p-1} of the
base algebra: t is central, so t(x)1 - 1(x)t acts by zero on
Hom(F, A[t, t^-1]) and the total complex splits (the Kuenneth formula).
"""

from __future__ import annotations

from typing import Sequence

from .common import PreconditionError, Trunc, TruncationError
from .families import enveloping
from .quiver import FinDimAlgebra
from .percomplex import BoundedComplex, BoundedHomComplex, resolution_complex
from .rep import Resolution, global_dimension, minimal_resolution


def bimodule_resolution(alg: FinDimAlgebra, bound: int) -> Resolution:
    """The minimal resolution of the regular bimodule over A^op (x) A."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    return minimal_resolution(enveloping(alg)[1], bound)


class HochschildContext:
    """Caches the bimodule resolution F and its cochain complex Hom(F, A)."""

    def __init__(self, alg: FinDimAlgebra, bound: int = 12):
        self.algebra = alg
        self.bound = bound
        self.res = bimodule_resolution(alg, bound)
        A = self.res.module
        self.cochains = BoundedHomComplex(resolution_complex(self.res),
                                          BoundedComplex(A.algebra, {0: A}, {}))

    def smooth_dimension(self) -> Trunc:
        if self.res.complete:
            return Trunc(self.res.length)
        return Trunc(self.bound, exact=False)

    def hh(self, p: int) -> int:
        """dim HH^p of the algebra with coefficients in itself."""
        self.res.check_reach(p)
        return self.cochains.homotopy_dim(p)


class LaurentSetup:
    """The Laurent extension A[t, t^-1] of the base algebra, graded with
    deg(t) = m.

    Its HH^{p,q} is HH^p(A) + HH^{p-1}(A) when m divides q and 0 otherwise.
    Tensoring F with the two-term resolution of k[t, t^-1] over its
    enveloping algebra, whose differential is t(x)1 - 1(x)t, resolves
    A[t, t^-1]; t is central, so that differential acts by zero on
    Hom(F, A[t, t^-1]) and the total complex splits (the Kuenneth formula,
    Cartan-Eilenberg, Homological Algebra, Ch. XI).
    """

    def __init__(self, ctx: HochschildContext, m: int):
        if m < 1:
            raise PreconditionError("the generator degree must be >= 1")
        self.ctx = ctx
        self.m = m

    def hh_graded(self, p: int, q: int) -> int:
        """dim HH^{p,q} of the Laurent extension."""
        if q % self.m != 0 or p < 0:
            return 0
        return self.ctx.hh(p) + (self.ctx.hh(p - 1) if p >= 1 else 0)


def _cell(setup: LaurentSetup, p: int, q: int) -> dict:
    """The ``dim`` and ``provenance`` of the cell HH^{p,q}: zero off the
    degree congruence, otherwise computed, or unknown (``None``) past the
    reach of the truncated resolution."""
    if q % setup.m != 0:
        return {"dim": 0, "provenance": "vanishes (graded degree)"}
    try:
        return {"dim": setup.hh_graded(p, q), "provenance": "computed"}
    except TruncationError:
        return {"dim": None,
                "provenance": f"unknown (truncated at {setup.ctx.bound})"}


def hh_table(setup: LaurentSetup, pmax: int, qrange: Sequence[int]) -> dict:
    """The (p, q) grid of graded Hochschild dimensions with provenance."""
    ctx = setup.ctx
    d = ctx.smooth_dimension()
    cells = []
    for p in range(0, pmax + 1):
        for q in qrange:
            if q % setup.m == 0 and d.exact and p >= d.value + 2:
                cell = {"dim": setup.hh_graded(p, q),
                        "provenance": "vanishes (resolution length bound)"}
            else:
                cell = _cell(setup, p, q)
            cells.append({"p": p, "q": q, **cell})
    return {
        "algebra": ctx.algebra.label,
        "m": setup.m,
        "pmax": pmax,
        "qrange": list(qrange),
        "smooth_dimension": d.to_json(),
        "cells": cells,
    }


def vanishing_pattern_ok(table: dict) -> bool:
    """Zeros must appear wherever p >= d+2 or q is not a multiple of m."""
    d = table["smooth_dimension"]
    if not isinstance(d, int):
        return False
    m = table["m"]
    for cell in table["cells"]:
        required = cell["p"] >= d + 2 or cell["q"] % m != 0
        if required and cell["dim"] != 0:
            return False
    return True


def formality_criterion(setup: LaurentSetup, q_max: int) -> dict:
    """The sufficient-formality row HH^{q, 2-q} for q = 3..q_max.

    PASS means every computed cell vanishes and the finite resolution closes
    the tail (all larger q vanish by the length bound).
    """
    if q_max < 3:
        raise PreconditionError("q_max must be >= 3")
    ctx = setup.ctx
    d = ctx.smooth_dimension()
    row = [{"q": q, "p": q, "internal_degree": 2 - q, **_cell(setup, q, 2 - q)}
           for q in range(3, q_max + 1)]
    all_zero = all(e["dim"] == 0 for e in row)
    tail_closed = bool(d.exact and q_max >= d.value + 1)
    verdict = "PASS" if (all_zero and tail_closed) else "FAIL"
    witness = next((e for e in row if e["dim"] not in (0, None)), None)
    return {
        "algebra": ctx.algebra.label,
        "m": setup.m,
        "q_max": q_max,
        "smooth_dimension": d.to_json(),
        "row": row,
        "all_computed_zero": all_zero,
        "tail_closed": tail_closed,
        "verdict": verdict,
        "nonzero_cell": witness,
    }


def smooth_dimension(alg: FinDimAlgebra, bound: int = 12) -> dict:
    """Length of the minimal bimodule resolution, with the global-dimension
    cross-check (they agree for split basic algebras over perfect fields),
    the global dimension searched up to 24."""
    ctx = HochschildContext(alg, bound)
    sd = ctx.smooth_dimension()
    gd = global_dimension(alg, 24)
    return {
        "algebra": alg.label,
        "smooth_dimension": sd.to_json(),
        "global_dimension": gd.to_json(),
        "consistent": (sd.exact == gd.exact)
                      and (not sd.exact or sd.value == gd.value),
    }
