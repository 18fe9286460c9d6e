"""The ``periodica`` command line interface.

Exit codes: 0 success; 2 parse error; 3 precondition violation;
4 truncated/inconclusive; 5 a verification ran and failed (``period
algebra``: the algebra is not periodic, a syzygy of it vanished);
6 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .common import (CheckFailed, ParseError, PeriodicaError,
                     PreconditionError, TruncationError)
from .derivedper import DerivedContext, ext_sum_check, stalk_tilting_check
from .fields import Field
from .formats import (complex_to_doc, field_from_string, load_chain_map_file,
                      load_complex_file, parse_algebra_file, parse_module_expr)
from .hochschild import (HochschildContext, LaurentSetup, formality_criterion,
                         hh_table, vanishing_pattern_ok, smooth_dimension)
from .percomplex import cohomology_dim_vectors, cone, shift
from .quiver import build_algebra
from .rep import hom_space
from .reports import build_report, file_sha256, text_sha256, to_json, to_markdown
from .reproduce import (builtin_algebra, reproduce_ex5_6, reproduce_ex5_8,
                        reproduce_ex5_9, reproduce_lemma4_1,
                        reproduce_prop3_10, reproduce_prop3_25)
from .stablecat import NotPeriodic, StableContext, algebra_period, \
    check_periodic_tilting_stable, stable_end_algebra

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_TRUNCATION = 4
EXIT_CHECK_FAILED = 5
EXIT_INTERNAL = 6


def _default_bound(fallback: int, given: Optional[int] = None) -> int:
    """The search bound: ``--bound`` if given, else $PERIODICA_BOUND, else
    the fallback.  Anything but a positive integer is a parse error."""
    if given is not None:
        where, text = "--bound", str(given)
    else:
        where, text = "PERIODICA_BOUND", os.environ.get("PERIODICA_BOUND")
        if not text:
            return fallback
    return _positive(where, text)


def _positive(where: str, text: str) -> int:
    """The positive integer spelled by ``text``; anything else is a parse
    error naming ``where``."""
    value = int(text) if text.strip().isdecimal() else 0
    if value < 1:
        raise ParseError(f"{where} must be a positive integer, "
                         f"got {text!r}")
    return value


def _period_arg(args) -> int:
    """``--m`` of a ``reproduce`` target: 2 when omitted, else positive."""
    return 2 if args.m is None else _positive("--m", str(args.m))


def _load_algebra_arg(args):
    inputs = {}
    if getattr(args, "algebra", None):
        pres = parse_algebra_file(args.algebra)
        inputs[os.path.basename(args.algebra)] = file_sha256(args.algebra)
        alg = build_algebra(pres)
    elif getattr(args, "name", None):
        field = field_from_string(args.field) if getattr(args, "field", None) \
            else None
        alg = builtin_algebra(args.name, field)
        inputs["builtin"] = text_sha256(
            json.dumps(alg.presentation.describe(), sort_keys=True))
    else:
        raise PreconditionError("need --algebra FILE or --name BUILTIN")
    return alg, inputs


def _emit(args, report: dict) -> None:
    text = to_markdown(report) if args.format == "markdown" else to_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or type(exc).__name__
            raise ParseError(f"cannot write {args.out}: {reason}") from None
    else:
        sys.stdout.write(text)


def _finish(args, report: dict, gate: Optional[bool] = None) -> int:
    _emit(args, report)
    if gate is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- command bodies -----------------------------------------------------------------


def cmd_algebra_show(args) -> int:
    alg, inputs = _load_algebra_arg(args)
    body = {
        "label": alg.label,
        "dimension": alg.dim,
        "basis": alg.basis_names(),
        "radical_dims": alg.radical_dims(),
        "presentation": alg.presentation.describe(),
    }
    return _finish(args, build_report("algebra show", {"algebra": alg.label},
                                      body, inputs=inputs))


def cmd_complex(args) -> int:
    if getattr(args, "algebra", None) or getattr(args, "name", None):
        alg, inputs = _load_algebra_arg(args)
    else:
        alg, inputs = None, {}
    params = {"verb": args.verb}
    if args.verb == "cone":
        if alg is None:
            raise PreconditionError("cone needs --algebra or --name")
        f = load_chain_map_file(alg, args.map)
        inputs[os.path.basename(args.map)] = file_sha256(args.map)
        diagram = cone(f)
        diagram.verify()
        body = {
            "cone": complex_to_doc(diagram.cone),
            "cohomology": cohomology_dim_vectors(diagram.cone),
            "identities_verified": True,
        }
    else:
        V = load_complex_file(alg, args.complex)
        inputs[os.path.basename(args.complex)] = file_sha256(args.complex)
        if args.verb == "cohomology":
            vectors = cohomology_dim_vectors(V)
            body = {"dims": [sum(v) for v in vectors], "dim_vectors": vectors}
        elif args.verb == "shift":
            body = {"by": args.by, "shifted": complex_to_doc(shift(V, args.by))}
            params["by"] = args.by
        else:  # pragma: no cover - argparse restricts choices
            raise PreconditionError(f"unknown verb {args.verb}")
    return _finish(args, build_report(f"complex {args.verb}", params, body,
                                      inputs=inputs))


def cmd_hom(args) -> int:
    alg, inputs = _load_algebra_arg(args)
    M = parse_module_expr(alg, args.source)
    N = parse_module_expr(alg, args.target)
    basis = hom_space(M, N)
    body = {
        "source_dims": list(M.dims),
        "target_dims": list(N.dims),
        "dim": len(basis),
    }
    if args.basis:
        field = alg.field
        body["basis"] = [
            [[[field.to_str(x) for x in b.row_list(r)]
              for r in range(b.rows)] for b in g.blocks]
            for g in basis]
    return _finish(args, build_report(
        "hom", {"source": args.source, "target": args.target}, body,
        inputs=inputs))


def cmd_derived_hom(args) -> int:
    alg, inputs = _load_algebra_arg(args)
    ctx = DerivedContext(alg, args.m, _default_bound(24))
    M = parse_module_expr(alg, args.source)
    N = parse_module_expr(alg, args.target)
    degrees = [args.p or 0] if args.prange is None \
        else _parse_range("--prange", args.prange)
    H = ctx.derived_hom_complex(ctx.stalk(M), ctx.stalk(N))
    rows = [{"degree": p, "dim": H.homotopy_dim(p)} for p in degrees]
    body = {"rows": rows, "period": args.m}
    return _finish(args, build_report(
        "derived-hom",
        {"source": args.source, "target": args.target, "m": args.m}, body,
        inputs=inputs))


def cmd_ext_sum(args) -> int:
    alg, inputs = _load_algebra_arg(args)
    ctx = DerivedContext(alg, args.m, _default_bound(24))
    M = parse_module_expr(alg, args.source)
    N = parse_module_expr(alg, args.target)
    body = ext_sum_check(ctx, M, N)
    return _finish(args, build_report(
        "ext-sum-check",
        {"source": args.source, "target": args.target, "m": args.m}, body,
        inputs=inputs,
        claim="derived Hom of stalks equals the lacunary Ext sum"),
        gate=body["match"])


def cmd_hochschild(args) -> int:
    alg, inputs = _load_algebra_arg(args)
    bound = _default_bound(12, args.bound)
    if args.verb == "smooth-dim":
        body = smooth_dimension(alg, bound)
        _emit(args, build_report("hochschild smooth-dim", {"bound": bound},
                                 body, inputs=inputs))
        truncated = any(isinstance(body[k], str)
                        for k in ("smooth_dimension", "global_dimension"))
        return EXIT_TRUNCATION if truncated else EXIT_OK
    if args.verb == "table":        # reject bad ranges before resolving
        qlo, qhi = (-3 * args.m, 3 * args.m) if args.qrange is None \
            else _parse_span("--qrange", args.qrange)
        if args.pmax is not None and args.pmax < 0:
            raise ParseError(f"--pmax must be a non-negative integer, "
                             f"got '{args.pmax}'")
    hctx = HochschildContext(alg, bound)
    setup = LaurentSetup(hctx, args.m)
    if args.verb == "table":
        pmax = args.pmax if args.pmax is not None else \
            ((hctx.smooth_dimension().value + 4)
             if hctx.smooth_dimension().exact else bound - 2)
        body = hh_table(setup, pmax, range(qlo, qhi + 1))
        body["vanishing_ok"] = vanishing_pattern_ok(body)
        return _finish(args, build_report(
            "hochschild table", {"m": args.m, "pmax": pmax,
                                 "qrange": [qlo, qhi], "bound": bound},
            body, inputs=inputs,
            claim="graded Hochschild cells vanish beyond the length bound "
                  "and off the degree lattice"))
    if args.verb == "formality":
        body = formality_criterion(setup, args.qmax)
        return _finish(args, build_report(
            "hochschild formality", {"m": args.m, "qmax": args.qmax,
                                     "bound": bound},
            body, inputs=inputs,
            claim="sufficient formality row of the Laurent extension"),
            gate=body["verdict"] == "PASS")
    raise PreconditionError(f"unknown hochschild verb {args.verb}")


def cmd_period(args) -> int:
    alg, inputs = _load_algebra_arg(args)
    bound = _default_bound(16, args.bound)
    if args.verb == "module":
        ctx = StableContext(alg)
        M = parse_module_expr(alg, args.module)
        period = ctx.module_period(M, bound)
        body = {"module": args.module, "period": period.to_json(),
                "exact": period.exact}
        gate = None
    else:
        period = algebra_period(alg, bound)
        body = {"period": period.to_json(), "exact": period.exact}
        gate = None
        if isinstance(period, NotPeriodic):
            body["projective_dimension"] = period.projdim
            gate = False
    report = build_report(f"period {args.verb}", {"bound": bound}, body,
                          inputs=inputs, seed=args.seed)
    code = _finish(args, report, gate)
    if code == EXIT_OK and not period.exact:
        return EXIT_TRUNCATION
    return code


def cmd_tilting(args) -> int:
    alg, inputs = _load_algebra_arg(args)
    if args.verb == "stalk":
        ctx = DerivedContext(alg, args.m, _default_bound(24))
        body = stalk_tilting_check(ctx)
        claim = "the regular stalk is a periodic tilting object"
    else:
        budget = _positive("--budget", str(args.budget))
        end_target = (None if args.end_target is None
                      else _positive("--end-target", str(args.end_target)))
        sctx = StableContext(alg)
        parts = [parse_module_expr(alg, t) for t in args.summand]
        body = check_periodic_tilting_stable(sctx, parts, args.m,
                                             budget=budget)
        if end_target is not None:
            # the parts themselves, so the context's stable Hom spaces serve
            body["stable_end"] = stable_end_algebra(
                sctx, parts, target_linear_a=end_target)
        claim = "stable periodic tilting candidate"
    report = build_report(f"tilting {args.verb}",
                          {"m": args.m}, body, inputs=inputs, seed=args.seed,
                          claim=claim)
    gate = body.get("pass")
    code = _finish(args, report, gate)
    if code == EXIT_OK and gate is None:
        if body["budget_exhausted"]:
            reason = (f"the generation closure exceeded --budget "
                      f"{args.budget} iso classes")
        else:
            names = ", ".join(f"S({v})" for v in body["missing_simples"])
            reason = (f"the generation closure misses {names} in blocks "
                      f"that hold a summand; it cones only basis maps, so it "
                      f"need not be thick")
        print(f"inconclusive: {reason}", file=sys.stderr)
        return EXIT_TRUNCATION
    return code


_CLAIMS = {
    "ex5.6": "bimodule syzygy period of the cyclic Nakayama family",
    "ex5.8": "periodic tilting in the stable category of the self-injective "
             "Nakayama algebra, with hereditary stable endomorphism algebra",
    "ex5.9": "four distinct stalk objects over the dual numbers at period 2 "
             "(comparison count cited), with the matching formality failure",
    "lemma4.1": "vanishing pattern of the graded Hochschild table of the "
                "Laurent extension",
    "prop3.10": "folding preserves Hom dimensions as a sum over shifts",
    "prop3.25": "periodic complexes over a hereditary algebra decompose "
                "into cohomology stalks",
}


def cmd_reproduce(args) -> int:
    target = args.target
    params = {"target": target}
    inputs = {}
    seed = args.seed
    if target == "ex5.6":
        field = field_from_string(args.field) if args.field else Field.rationals()
        m = _period_arg(args)
        body = reproduce_ex5_6(args.n, m, field)
        params.update({"n": args.n, "m": m, "field": repr(field)})
    elif target == "ex5.8":
        body = reproduce_ex5_8(args.n)
        params.update({"n": args.n})
    elif target == "ex5.9":
        body = reproduce_ex5_9()
    elif target == "lemma4.1":
        m = _period_arg(args)
        alg, inputs = _load_algebra_arg(args)
        body = reproduce_lemma4_1(alg, m, bound=_default_bound(12))
        params.update({"algebra": alg.label, "m": m})
    elif target == "prop3.10":
        m = _period_arg(args)
        pairs = _positive("--pairs", str(args.pairs))
        alg, inputs = _load_algebra_arg(args)
        body = reproduce_prop3_10(alg, m, seed, pairs)
        params.update({"algebra": alg.label, "m": m, "pairs": pairs})
    elif target == "prop3.25":
        m = _period_arg(args)
        count = _positive("--count", str(args.count))
        alg, inputs = _load_algebra_arg(args)
        body = reproduce_prop3_25(alg, m, seed, count)
        params.update({"algebra": alg.label, "m": m, "count": count})
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown target {target}")
    report = build_report(f"reproduce {target}", params, body,
                          claim=_CLAIMS[target], inputs=inputs or None,
                          seed=seed)
    return _finish(args, report, gate=body.get("pass"))


# -- parser -------------------------------------------------------------------------


def _parse_range(where: str, spec: str):
    lo, hi = _parse_span(where, spec)
    return list(range(lo, hi + 1))


def _parse_span(where: str, spec: str):
    """``(lo, hi)`` from ``lo..hi`` with integers lo <= hi; anything else is
    a parse error naming ``where``."""
    try:
        lo, hi = map(int, spec.split(".."))
        if lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise ParseError(f"{where} must be lo..hi with integers lo <= hi, "
                     f"got {spec!r}")


def _add_common(p, algebra=True, seed=False):
    """The report flags; ``--seed`` only where the report prints it."""
    p.add_argument("--format", choices=["json", "markdown"], default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if algebra:
        p.add_argument("--algebra", help="algebra presentation file")
        p.add_argument("--name", help="builtin algebra, e.g. kA2 or N(3,3)")
        p.add_argument("--field", help="field for builtin algebras "
                                       "(rationals, fp 5)")


class _Parser(argparse.ArgumentParser):
    """An argument parser that rejects bad argv with one ``parse error:``
    line and exit code 2; subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"parse error: {' '.join(message.split())}\n")


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="periodica",
        description="exact computations with m-periodic complexes over "
                    "finite-dimensional quiver algebras")
    sub = ap.add_subparsers(dest="group", required=True)

    p = sub.add_parser("algebra", help="inspect an algebra presentation")
    ps = p.add_subparsers(dest="verb", required=True)
    q = ps.add_parser("show")
    _add_common(q)
    q.set_defaults(func=cmd_algebra_show)

    p = sub.add_parser("complex", help="operate on a periodic complex file")
    ps = p.add_subparsers(dest="verb", required=True)
    for verb in ("cohomology", "cone", "shift"):
        q = ps.add_parser(verb)
        _add_common(q)
        if verb == "cone":
            q.add_argument("--map", required=True,
                           help="chain map JSON document")
        else:
            q.add_argument("--complex", required=True,
                           help="complex JSON document")
        if verb == "shift":
            q.add_argument("--by", type=int, required=True)
        q.set_defaults(func=cmd_complex, verb=verb)

    q = sub.add_parser("cohomology", help="shorthand for 'complex cohomology'")
    _add_common(q)
    q.add_argument("--complex", required=True)
    q.set_defaults(func=cmd_complex, verb="cohomology")

    p = sub.add_parser("hom", help="module Hom space")
    _add_common(p)
    p.add_argument("-M", "--source", required=True)
    p.add_argument("-N", "--target", required=True)
    p.add_argument("--basis", action="store_true",
                   help="include the basis matrices in the report")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("derived-hom", help="Hom in the periodic derived category")
    _add_common(p)
    p.add_argument("-M", "--source", required=True)
    p.add_argument("-N", "--target", required=True)
    p.add_argument("--m", type=int, required=True)
    degrees = p.add_mutually_exclusive_group()
    degrees.add_argument("--p", type=int, help="one degree (default 0)")
    degrees.add_argument("--prange", help="e.g. 0..3")
    p.set_defaults(func=cmd_derived_hom)

    p = sub.add_parser("ext-sum-check", help="derived Hom vs lacunary Ext sum")
    _add_common(p)
    p.add_argument("-M", "--source", required=True)
    p.add_argument("-N", "--target", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_ext_sum)

    p = sub.add_parser("hochschild", help="Hochschild cohomology")
    ps = p.add_subparsers(dest="verb", required=True)
    for verb in ("table", "formality", "smooth-dim"):
        q = ps.add_parser(verb)
        _add_common(q)
        q.add_argument("--bound", type=int)
        if verb != "smooth-dim":
            q.add_argument("--m", type=int, required=True)
        if verb == "table":
            q.add_argument("--pmax", type=int)
            q.add_argument("--qrange", help="e.g. -6..6")
        if verb == "formality":
            q.add_argument("--qmax", type=int, default=8)
        q.set_defaults(func=cmd_hochschild, verb=verb)

    p = sub.add_parser("period", help="module or bimodule syzygy period")
    ps = p.add_subparsers(dest="verb", required=True)
    q = ps.add_parser("module")
    _add_common(q, seed=True)
    q.add_argument("-M", "--module", required=True)
    q.add_argument("--bound", type=int)
    q.set_defaults(func=cmd_period, verb="module")
    q = ps.add_parser("algebra")
    _add_common(q, seed=True)
    q.add_argument("--bound", type=int)
    q.set_defaults(func=cmd_period, verb="algebra")

    p = sub.add_parser("tilting", help="periodic tilting checks")
    ps = p.add_subparsers(dest="verb", required=True)
    q = ps.add_parser("stable")
    _add_common(q, seed=True)
    q.add_argument("-T", "--summand", action="append", required=True,
                   help="one summand expression per flag")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--budget", type=int, default=64)
    q.add_argument("--end-target", type=int,
                   help="compare the stable End algebra against kA<k>")
    q.set_defaults(func=cmd_tilting, verb="stable")
    q = ps.add_parser("stalk")
    _add_common(q, seed=True)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=cmd_tilting, verb="stalk")

    p = sub.add_parser("reproduce", help="run a canned verification target")
    ps = p.add_subparsers(dest="target", required=True)
    for target in ("ex5.6", "ex5.8", "ex5.9", "lemma4.1", "prop3.10",
                   "prop3.25"):
        q = ps.add_parser(target)
        _add_common(q, algebra=target in ("lemma4.1", "prop3.10", "prop3.25"),
                    seed=True)
        if target in ("ex5.6", "ex5.8"):
            q.add_argument("--n", type=int, required=True)
        if target == "ex5.6":
            q.add_argument("--field", help="rationals or fp 2")
        if target in ("ex5.6", "lemma4.1", "prop3.10", "prop3.25"):
            q.add_argument("--m", type=int)
        if target == "prop3.10":
            q.add_argument("--pairs", type=int, default=50)
        if target == "prop3.25":
            q.add_argument("--count", type=int, default=50)
        q.set_defaults(func=cmd_reproduce, target=target)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``make_parser()``, built once per process: ``parse_args`` starts each
    call from a fresh namespace and changes nothing in the parser."""
    return make_parser()


def _merge_negative_ranges(argv):
    """Let range flags take values starting with '-' (e.g. --qrange -6..6)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--qrange", "--prange") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_merge_negative_ranges(list(argv)))
    try:
        # the parser outlives this call: run the command this module binds
        # now, not the one it bound when the parser was built
        return globals()[args.func.__name__](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TruncationError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PeriodicaError as exc:  # pragma: no cover - catch-all
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        text = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {text}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
