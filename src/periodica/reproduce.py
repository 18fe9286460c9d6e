"""Reproduction targets: each certifies one concrete claim end to end and
returns a machine-readable report with per-number provenance."""

from __future__ import annotations

import math
import random
from typing import List, Optional

from .common import ParseError, PreconditionError
from .derivedper import (DerivedContext, distinct_stalks_d2_dual_numbers,
                         hereditary_decompose)
from .families import (dual_numbers, linear_a, nakayama, semisimple_product,
                       serial_module)
from .fields import Field
from .hochschild import (HochschildContext, LaurentSetup, formality_criterion,
                         hh_table, vanishing_pattern_ok)
from .percomplex import BoundedHomComplex, fold, hom_complex
from .quiver import FinDimAlgebra
from .randomcx import random_bounded_projectives, random_periodic_complex
from .rep import iso_q
from .stablecat import (StableContext, algebra_period,
                        check_periodic_tilting_stable, stable_end_algebra)


def builtin_algebra(name: str, field: Optional[Field] = None) -> FinDimAlgebra:
    """Families by name: kA<n>, N(<n>,<m>), dual, k^<n>.

    A family whose parameters are not the right number of integers is a
    :class:`ParseError`; integers out of the family's range are a
    :class:`PreconditionError` from the family itself.
    """
    field = field or Field.rationals()
    name = name.strip()

    def integers(text: str, count: int) -> List[int]:
        parts = text.split(",")
        if len(parts) == count:
            try:
                return [int(x) for x in parts]
            except ValueError:
                pass
        raise ParseError(f"malformed builtin algebra {name!r}: "
                         f"expected {count} integer(s) in {text!r}")

    if name.lower().startswith("ka"):
        return linear_a(*integers(name[2:], 1), field)
    if name.upper().startswith("N(") and name.endswith(")"):
        return nakayama(*integers(name[2:-1], 2), field)
    if name.lower() in ("dual", "dualnumbers"):
        return dual_numbers(field)
    if name.startswith("k^"):
        return semisimple_product(*integers(name[2:], 1), field)
    raise PreconditionError(f"unknown builtin algebra {name!r}")


def reproduce_ex5_6(n: int, m: int, field: Field) -> dict:
    """Bimodule syzygy period of the cyclic Nakayama algebra vs the closed
    formula (2 lcm(n,m)/m, except n odd over characteristic 2 with m = 2),
    searched up to 16."""
    alg = nakayama(n, m, field)
    period = algebra_period(alg, 16)
    excluded = (field.characteristic == 2 and m == 2 and n % 2 == 1)
    expected = n if excluded else 2 * math.lcm(n, m) // m
    return {
        "pass": bool(period.exact and period.value == expected),
        "algebra": alg.label,
        "field": repr(field),
        "computed_period": period.to_json(),
        "expected_period": {"value": expected,
                            "provenance": "closed formula (cited)",
                            "excluded_case": excluded},
    }


def reproduce_ex5_8(n: int) -> dict:
    """The length-filtered modules over the self-injective Nakayama algebra
    with n = m form a 2-periodic tilting object with hereditary stable
    endomorphism algebra."""
    field = Field.rationals()
    alg = nakayama(n, n, field)
    ctx = StableContext(alg)
    suspension_rows = []
    susp_ok = True
    for a in range(1, n + 1):
        for l in range(1, n):
            M = serial_module(alg, a, l)
            S = ctx.suspension_power(M, 1)
            expect = serial_module(alg, (a + l - 1) % n + 1, n - l)
            good = S.dims == expect.dims and iso_q(S, expect)
            suspension_rows.append({
                "socle": a, "length": l,
                "suspension_dims": list(S.dims),
                "expected": [(a + l - 1) % n + 1, n - l],
                "match": good})
            susp_ok = susp_ok and good
    sq_ok = True
    for _, M in ctx.nakayama_indecomposables():
        sq_ok = sq_ok and iso_q(ctx.suspension_power(M, 2), M)
    parts = [serial_module(alg, 1, l) for l in range(1, n)]
    tilt = check_periodic_tilting_stable(ctx, parts, 2)
    end = stable_end_algebra(ctx, parts, target_linear_a=n - 1)
    ok = bool(susp_ok and sq_ok and tilt["pass"] and end["iso_found"])
    return {
        "pass": ok,
        "algebra": alg.label,
        "suspension_formula": {"all_match": susp_ok,
                               "rows": suspension_rows},
        "suspension_square_identity": sq_ok,
        "indecomposable_nonprojectives": n * (n - 1),
        "tilting": tilt,
        "stable_end": end,
    }


def reproduce_ex5_9() -> dict:
    """Distinct stalk objects over the dual numbers at period 2, plus the
    matching formality failure of its Laurent extension (rows q <= 8),
    over Q."""
    field = Field.rationals()
    q_max = 8
    stalks = distinct_stalks_d2_dual_numbers(field)
    hctx = HochschildContext(dual_numbers(field), bound=q_max + 2)
    setup = LaurentSetup(hctx, 2)
    form = formality_criterion(setup, q_max)
    ok = bool(stalks["pass"] and form["verdict"] == "FAIL")
    return {
        "pass": ok,
        "stalk_certificates": stalks,
        "formality": form,
        "verdict": f"{stalks['count_certified']} >= 4 > 3 (3 cited)"
                   if ok else "inconclusive",
    }


def reproduce_lemma4_1(alg: FinDimAlgebra, m: int, bound: int = 12) -> dict:
    """The vanishing pattern of the graded Hochschild table of the Laurent
    extension, plus the formality verdict when the tail closes.  The table
    runs to 4 past the smooth dimension (or ``bound``) in p and over
    |q| <= 3m."""
    hctx = HochschildContext(alg, bound)
    d = hctx.smooth_dimension()
    pmax = (d.value if d.exact else bound) + 4
    qspan = 3 * m
    table = hh_table(LaurentSetup(hctx, m), pmax, range(-qspan, qspan + 1))
    vanish = vanishing_pattern_ok(table)
    form = formality_criterion(LaurentSetup(hctx, m),
                               max(3, (d.value if d.exact else bound) + 1))
    return {
        "pass": bool(vanish and (not d.exact or d.value > m
                                 or form["verdict"] == "PASS")),
        "table": table,
        "vanishing_ok": vanish,
        "formality": form,
    }


def reproduce_prop3_10(alg: FinDimAlgebra, m: int, seed: int, pairs: int
                       ) -> dict:
    """Hom dimensions between folded bounded complexes of projectives equal
    the sum over all m-step shifts on the bounded side."""
    rng = random.Random(seed)
    rows = []
    ok = True
    for t in range(pairs):
        X = random_bounded_projectives(alg, rng)
        Y = random_bounded_projectives(alg, rng)
        FX, _ = fold(X, m)
        FY, _ = fold(Y, m)
        lhs = hom_complex(FX, FY).homotopy_dim(0)
        H = BoundedHomComplex(X, Y)
        span = (X.hi - X.lo) + (Y.hi - Y.lo) + 2 * m
        lo = -(span // m) * m
        rhs_terms = {}
        rhs = 0
        for mi in range(lo, span + 1, m):
            dim = H.homotopy_dim(mi)
            if dim:
                rhs_terms[str(mi)] = dim
            rhs += dim
        good = lhs == rhs
        rows.append({"pair": t, "lhs_dim": lhs, "rhs_sum": rhs,
                     "rhs_terms": rhs_terms, "match": good})
        ok = ok and good
    return {"pass": ok, "pairs": pairs, "period": m, "rows": rows}


def reproduce_prop3_25(alg: FinDimAlgebra, m: int, seed: int, count: int
                       ) -> dict:
    """Random periodic complexes over a hereditary algebra split into their
    cohomology stalks up to verified quasi-isomorphism."""
    ctx = DerivedContext(alg, m)
    if ctx.gd > 1:
        raise PreconditionError("target needs a hereditary algebra")
    rng = random.Random(seed)
    rows = []
    ok = True
    for t in range(count):
        V = random_periodic_complex(alg, m, rng)
        rep = hereditary_decompose(ctx, V)
        rows.append({
            "complex": t,
            "component_dims": V.dim_vector(),
            "cohomology": rep["cohomology"],
            "stalks": [[s["position"], s["dims"]] for s in rep["stalks"]],
            "verified": rep["verified"]})
        ok = ok and rep["verified"]
    return {"pass": ok, "count": count, "period": m, "rows": rows}
