"""Input file formats: algebra presentations and periodic complexes.

Algebra files are declarative text (one directive per line)::

    # the path algebra of 1 -> 2 with rad^2 = 0
    field rationals          # or: field fp 5
    vertices 2
    arrow a: 1 -> 2
    relation a*a             # words multiply like functions: a*b = "b then a"
    nilpotency 2

Coefficients may be integers or fractions (``-3/2``).  Parser errors carry
1-based line and column numbers.

Complexes are JSON documents validated strictly at load (shapes, module
relations, d^2 = 0); see ``load_complex`` for the schema.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .common import ParseError, PreconditionError
from .families import is_cyclic_nakayama, serial_module
from .fields import Field
from .linalg import Mat
from .percomplex import GradedMorphism, PeriodicComplex
from .quiver import AlgebraPresentation, FinDimAlgebra, Quiver, build_algebra
from .rep import Morphism, Rep, block_sum


def _prime_field(p: int, line: Optional[int], col: Optional[int]) -> Field:
    try:
        return Field.gf(p)
    except ValueError as exc:
        raise ParseError(str(exc), line, col) from None


def _field_from_words(words: List[str], line: Optional[int],
                      col: Optional[int]) -> Field:
    head = words[0].lower()
    if head in ("rationals", "q", "qq"):
        return Field.rationals()
    if head in ("fp", "gf", "f"):
        if len(words) < 2 or not words[1].isdigit():
            raise ParseError("prime field needs a prime, e.g. 'fp 5'", line, col)
        return _prime_field(int(words[1]), line, col)
    m = re.fullmatch(r"[fF](\d+)", words[0])
    if m:
        return _prime_field(int(m.group(1)), line, col)
    raise ParseError(f"unknown field {' '.join(words)!r}", line, col)


def field_from_string(text: str) -> Field:
    return _field_from_words(text.replace("_", " ").split(), None, None)


def _split_terms(expr: str, line: int, base_col: int):
    """Split a relation body into (sign, term, column) pieces."""
    terms = []
    sign = 1
    i = 0
    n = len(expr)
    while i < n:
        while i < n and expr[i].isspace():
            i += 1
        if i >= n:
            break
        if expr[i] == "+":
            sign = 1
            i += 1
            continue
        if expr[i] == "-":
            sign = -1
            i += 1
            continue
        j = i
        while j < n and expr[j] not in "+-":
            j += 1
        piece = expr[i:j].strip()
        if not piece:
            raise ParseError("empty relation term", line, base_col + i + 1)
        terms.append((sign, piece, base_col + i + 1))
        sign = 1
        i = j
    if not terms:
        raise ParseError("relation has no terms", line, base_col + 1)
    return terms


def parse_algebra_text(text: str, label: str = "") -> AlgebraPresentation:
    field: Optional[Field] = None
    n_vertices: Optional[int] = None
    arrows: List[Tuple[str, int, int]] = []
    raw_relations: List[Tuple[int, int, str]] = []
    nilpotency: Optional[int] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        col = len(line) - len(stripped) + 1
        words = stripped.split()
        key = words[0].lower()
        if key == "field":
            if len(words) < 2:
                raise ParseError("field needs an argument", lineno, col)
            field = _field_from_words(words[1:], lineno, col)
        elif key == "vertices":
            if len(words) != 2 or not words[1].isdigit():
                raise ParseError("vertices needs a count", lineno, col)
            n_vertices = int(words[1])
        elif key == "arrow":
            body = stripped[len("arrow"):].strip()
            m = re.fullmatch(r"([A-Za-z_]\w*)\s*:\s*(\d+)\s*->\s*(\d+)", body)
            if not m:
                raise ParseError("arrow syntax is 'arrow name: u -> v'",
                                 lineno, col)
            arrows.append((m.group(1), int(m.group(2)), int(m.group(3))))
        elif key == "relation":
            raw_relations.append((lineno, col, stripped[len("relation"):]))
        elif key == "nilpotency":
            if len(words) != 2 or not words[1].isdigit():
                raise ParseError("nilpotency needs an integer", lineno, col)
            nilpotency = int(words[1])
        else:
            raise ParseError(f"unknown directive {words[0]!r}", lineno, col)

    if field is None:
        env = os.environ.get("PERIODICA_FIELD")
        if env:
            field = field_from_string(env)
    if field is None:
        raise ParseError("no 'field' line (and PERIODICA_FIELD unset)")
    if n_vertices is None:
        raise ParseError("missing 'vertices' line")
    if nilpotency is None:
        raise ParseError("missing 'nilpotency' line")
    quiver = Quiver(n_vertices, arrows)

    relations = []
    for lineno, rel_col, body in raw_relations:
        base_col = rel_col + len("relation") - 1
        rel = []
        for sign, piece, col in _split_terms(body, lineno, base_col):
            coeff = Fraction(sign)
            word = piece
            if "*" in piece:
                head, rest = piece.split("*", 1)
                head = head.strip()
                if re.fullmatch(r"-?\d+(/\d+)?", head):
                    try:
                        coeff = coeff * Fraction(head)
                    except ZeroDivisionError:
                        raise ParseError(f"coefficient {head} has a zero "
                                         "denominator", lineno, col) from None
                    word = rest
            names = [w.strip() for w in word.split("*")]
            if any(not w for w in names):
                raise ParseError(f"malformed word {piece!r}", lineno, col)
            for w in names:
                if w not in quiver.by_name:
                    raise ParseError(f"unknown arrow {w!r}", lineno, col)
            try:
                coeff = field.coerce(coeff)
            except ZeroDivisionError:
                raise ParseError(f"coefficient {coeff} has a denominator "
                                 f"divisible by {field.p}", lineno, col) from None
            rel.append((coeff, names))
        relations.append(rel)
    try:
        return AlgebraPresentation(quiver, field, relations, nilpotency,
                                   label=label)
    except PreconditionError as exc:
        raise ParseError(str(exc))


def _read_text(path: str) -> str:
    """The file's text; a missing or unreadable file, or one that is not
    UTF-8, is a ParseError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        raise ParseError(f"cannot read {path}: {reason}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text "
                         f"(byte {exc.start})") from None


def parse_algebra_file(path: str) -> AlgebraPresentation:
    text = _read_text(path)
    label = os.path.splitext(os.path.basename(path))[0]
    return parse_algebra_text(text, label=label)


def load_algebra(path: str) -> FinDimAlgebra:
    return build_algebra(parse_algebra_file(path))


# -- module expressions -------------------------------------------------------------


_MODULE_TOKEN = re.compile(
    r"\s*(?:(?P<mult>\d+)\s*\*\s*)?"
    r"(?P<kind>[PSIMR0])\s*(?:\(\s*(?P<args>\d+(?:\s*,\s*\d+)?)\s*\))?\s*$")


def parse_module_expr(alg: FinDimAlgebra, expr: str) -> Rep:
    """Named modules: ``P(v)``, ``S(v)``, ``I(v)``, ``M(a,l)``, ``R``, ``0``,
    combined with ``+`` and optional multiplicities like ``2*P(1)``."""
    parts: List[Rep] = []
    for piece in expr.split("+"):
        m = _MODULE_TOKEN.fullmatch(piece)
        if not m:
            raise ParseError(f"bad module term {piece.strip()!r}")
        kind = m.group("kind")
        mult = int(m.group("mult") or 1)
        args = [int(x) for x in (m.group("args") or "").replace(" ", "").split(",")
                if x != ""]
        if kind in "R0" and m.group("args") is not None:
            raise ParseError(f"{kind} takes no arguments, "
                             f"got {piece.strip()!r}")
        if kind == "0":
            continue
        if kind == "R":
            M = Rep.regular(alg)
        elif kind in "PSI":
            if len(args) != 1:
                raise ParseError(f"{kind}(v) needs one vertex")
            v = args[0]
            if not (1 <= v <= alg.quiver.n):
                raise ParseError(f"vertex {v} out of range")
            M = {"P": Rep.projective, "S": Rep.simple,
                 "I": Rep.injective}[kind](alg, v)
        else:
            if len(args) != 2:
                raise ParseError("M(a,l) needs two arguments")
            if not is_cyclic_nakayama(alg):
                raise ParseError("M(a,l) needs a cyclic Nakayama algebra")
            a, l = args
            if not 1 <= a <= alg.quiver.n:
                raise ParseError(f"M(a,l) needs 1 <= a <= {alg.quiver.n}, "
                                 f"got M({a},{l})")
            try:
                M = serial_module(alg, a, l)
            except PreconditionError as exc:    # no uniserial of length l
                raise ParseError(f"M({a},{l}): {exc}") from None
        parts.extend([M] * mult)
    if not parts:
        return Rep.zero(alg)
    return block_sum(parts)


# -- complexes -----------------------------------------------------------------------


def _parse_entry(field: Field, x, what: str):
    if isinstance(x, str):
        try:
            return field.parse(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{what}: entry {x!r} is not a scalar "
                             f"of {field}") from None
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"matrix entries must be ints or strings, got {x!r}")
    return field.coerce(x)


def _parse_matrix(field: Field, rows, nrows, ncols, what: str) -> Mat:
    if not isinstance(rows, list) or len(rows) != nrows or \
            any(not isinstance(r, list) or len(r) != ncols for r in rows):
        raise ParseError(f"{what}: need a {nrows}x{ncols} matrix")
    return Mat.from_rows(field, [[_parse_entry(field, x, what) for x in r]
                                 for r in rows]) if nrows else \
        Mat.zeros(field, 0, ncols)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _morphism_from_blocks(alg: FinDimAlgebra, raw, src: Rep, tgt: Rep,
                          what: str) -> Morphism:
    """A map src -> tgt as a list of one matrix per vertex (target rows,
    source columns, null for 0), or null for the zero map."""
    if raw is None:
        return Morphism.zero(src, tgt)
    if not isinstance(raw, list):
        raise ParseError(f"{what}: need a list of blocks")
    if len(raw) != alg.quiver.n:
        raise ParseError(f"{what}: need one block per vertex "
                         f"({alg.quiver.n}), got {len(raw)}")
    return Morphism(src, tgt, [
        Mat.zeros(alg.field, tgt.dims[v], src.dims[v]) if entry is None else
        _parse_matrix(alg.field, entry, tgt.dims[v], src.dims[v],
                      f"{what}, vertex {v + 1}")
        for v, entry in enumerate(raw)])


def _module_from_spec(alg: FinDimAlgebra, spec) -> Rep:
    if isinstance(spec, str):
        return parse_module_expr(alg, spec)
    if not isinstance(spec, dict):
        raise ParseError("module spec must be a name or an object")
    dims = spec.get("dims")
    if not isinstance(dims, list) or len(dims) != alg.quiver.n or \
            any(not _is_count(d) for d in dims):
        raise ParseError("module dims must list one size per vertex")
    arrows = spec.get("arrows", {})
    if not isinstance(arrows, dict):
        raise ParseError("module arrows must map arrow names to matrices")
    act = []
    for i, a in enumerate(alg.quiver.arrows):
        nr, nc = dims[a.source - 1], dims[a.target - 1]
        if a.name in arrows:
            act.append(_parse_matrix(alg.field, arrows[a.name], nr, nc,
                                     f"arrow {a.name}"))
        else:
            act.append(Mat.zeros(alg.field, nr, nc))
    try:
        M = Rep(alg, dims, act)
        M.check_relations()
    except PreconditionError as exc:
        raise ParseError(f"invalid module: {exc}")
    return M


def load_complex(alg: FinDimAlgebra, doc: dict) -> PeriodicComplex:
    """Schema: {"period": m, "modules": [m specs], "differentials": [m maps]}.

    A differential is a list with one matrix per vertex mapping component i
    to component i+1 (target rows, source columns); omitted or null means 0.
    """
    if not isinstance(doc, dict):
        raise ParseError("complex document must be an object")
    m = doc.get("period")
    if not _is_count(m) or m < 1:
        raise ParseError("period must be a positive integer")
    specs = doc.get("modules")
    if not isinstance(specs, list) or len(specs) != m:
        raise ParseError(f"need exactly {m} modules")
    comps = [_module_from_spec(alg, s) for s in specs]
    raw_diffs = doc.get("differentials")
    if raw_diffs is None:
        raw_diffs = [None] * m
    if not isinstance(raw_diffs, list) or len(raw_diffs) != m:
        raise ParseError(f"need exactly {m} differentials")
    diffs = [_morphism_from_blocks(alg, d, comps[i], comps[(i + 1) % m],
                                   f"differential {i}")
             for i, d in enumerate(raw_diffs)]
    try:
        return PeriodicComplex(alg, m, comps, diffs)
    except PreconditionError as exc:
        raise ParseError(f"invalid complex: {exc}")


def _load_json_object(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno)
    if not isinstance(doc, dict):
        raise ParseError("the document must be a JSON object")
    return doc


def load_complex_file(alg: Optional[FinDimAlgebra], path: str
                      ) -> PeriodicComplex:
    """Load a complex; an ``"algebra"`` key (path, relative to the document)
    supplies the algebra when none is passed in."""
    doc = _load_json_object(path)
    if alg is None:
        ref = doc.get("algebra")
        if not isinstance(ref, str):
            raise ParseError("no algebra given and none embedded")
        apath = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        alg = load_algebra(apath)
    return load_complex(alg, doc)


def load_chain_map_file(alg: FinDimAlgebra, path: str
                        ) -> GradedMorphism:
    """Schema: {"source": <complex>, "target": <complex>,
    "components": [m blocks-lists]}; validated as a chain map."""
    doc = _load_json_object(path)
    V = load_complex(alg, doc.get("source"))
    W = load_complex(alg, doc.get("target"))
    raw = doc.get("components")
    if not isinstance(raw, list) or len(raw) != V.m:
        raise ParseError(f"need exactly {V.m} components")
    comps = []
    for i, blocks_raw in enumerate(raw):
        g = _morphism_from_blocks(alg, blocks_raw, V.comps[i], W.comps[i],
                                  f"component {i}")
        if not g.is_intertwiner():
            raise ParseError(f"component {i} is not a module map")
        comps.append(g)
    f = GradedMorphism(V, W, 0, comps)
    if not f.is_closed():
        raise ParseError("components do not define a chain map")
    return f


def complex_to_doc(V: PeriodicComplex) -> dict:
    """Serialize a complex back to the JSON schema (explicit matrices)."""
    field = V.algebra.field
    mods = []
    for c in V.comps:
        arrows = {}
        for i, a in enumerate(V.algebra.quiver.arrows):
            if not c.act[i].is_zero():
                arrows[a.name] = [[field.to_str(x) for x in c.act[i].row_list(r)]
                                  for r in range(c.act[i].rows)]
        mods.append({"dims": list(c.dims), "arrows": arrows})
    diffs = []
    for d in V.diffs:
        if d.is_zero():
            diffs.append(None)
        else:
            diffs.append([[[field.to_str(x) for x in b.row_list(r)]
                           for r in range(b.rows)] for b in d.blocks])
    return {"period": V.m, "modules": mods, "differentials": diffs}
