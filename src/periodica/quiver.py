"""Quivers, admissible presentations, and finite-dimensional path algebras.

Conventions, fixed once and used everywhere:

* Vertices are 1-based integers.  A walk is stored as a tuple
  ``(source_vertex, arrow_index, arrow_index, ...)`` following arrows in
  quiver direction; a length-0 walk is ``(v,)``.
* Products compose like functions: ``p * q`` means "do q, then p" and is
  defined when ``source(p) == target(q)``.  On walk tuples this is
  ``q + p[1:]``.
* Modules are right modules, so the arrow ``a: u -> v`` acts on a module by a
  linear map from the v-component to the u-component.

An algebra is presented by a quiver, relations (k-linear combinations of
parallel walks of length >= 2) and a nilpotency bound N declaring every walk
of length >= N zero.  The quotient is computed by plain linear algebra on the
finitely many surviving walks; no Groebner machinery is needed.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .common import PreconditionError
from .fields import Field
from .linalg import Mat

Walk = Tuple[int, ...]
MAX_WALKS = 200000   # build_algebra refuses more walks below the nilpotency


class Arrow:
    __slots__ = ("name", "source", "target")

    def __init__(self, name: str, source: int, target: int):
        self.name = name
        self.source = source
        self.target = target

    def __repr__(self):
        return f"{self.name}: {self.source} -> {self.target}"


class Quiver:
    """A finite quiver with named arrows on vertices 1..n."""

    def __init__(self, n_vertices: int, arrows: Sequence[Tuple[str, int, int]]):
        if n_vertices < 1:
            raise PreconditionError("a quiver needs at least one vertex")
        self.n = n_vertices
        self.arrows: List[Arrow] = []
        self.by_name: Dict[str, int] = {}
        for name, s, t in arrows:
            if not (1 <= s <= n_vertices and 1 <= t <= n_vertices):
                raise PreconditionError(f"arrow {name}: endpoint out of range")
            if name in self.by_name:
                raise PreconditionError(f"duplicate arrow name {name!r}")
            self.by_name[name] = len(self.arrows)
            self.arrows.append(Arrow(name, s, t))
        self.arrows_from = [[] for _ in range(n_vertices + 1)]
        self.arrows_to = [[] for _ in range(n_vertices + 1)]
        for i, a in enumerate(self.arrows):
            self.arrows_from[a.source].append(i)
            self.arrows_to[a.target].append(i)

    # walks ------------------------------------------------------------------

    def walk_source(self, w: Walk) -> int:
        return w[0]

    def walk_target(self, w: Walk) -> int:
        return self.arrows[w[-1]].target if len(w) > 1 else w[0]

    def walk_len(self, w: Walk) -> int:
        return len(w) - 1

    def walk_name(self, w: Walk) -> str:
        if len(w) == 1:
            return f"e{w[0]}"
        return "*".join(self.arrows[i].name for i in reversed(w[1:]))

    def compose(self, p: Walk, q: Walk) -> Optional[Walk]:
        """The walk of the product p * q ("q then p"); None if not composable."""
        if self.walk_source(p) != self.walk_target(q):
            return None
        return q + p[1:]

    def __repr__(self):
        return f"Quiver({self.n} vertices, {len(self.arrows)} arrows)"


def _normalize_relation(quiver: Quiver, terms, field: Field):
    """Validate one relation and convert its walks to internal tuples.

    ``terms`` is a list of ``(coeff, [arrow names in composition order])``;
    the names are function-ordered, so ``["a", "b"]`` stands for a*b = "b
    then a".
    """
    out = []
    src = tgt = None
    for coeff, names in terms:
        coeff = field.coerce(coeff)
        if field.is_zero(coeff):
            continue
        idxs = []
        for name in names:
            if name not in quiver.by_name:
                raise PreconditionError(f"unknown arrow {name!r} in relation")
            idxs.append(quiver.by_name[name])
        if len(idxs) < 2:
            raise PreconditionError("relation terms must have length >= 2")
        walk_arrows = list(reversed(idxs))  # function order -> walk order
        w: Walk = (quiver.arrows[walk_arrows[0]].source, *walk_arrows)
        for k in range(1, len(walk_arrows)):
            prev = quiver.arrows[walk_arrows[k - 1]]
            if quiver.arrows[walk_arrows[k]].source != prev.target:
                raise PreconditionError(
                    f"non-composable word in relation: {'*'.join(names)}")
        s, t = quiver.walk_source(w), quiver.walk_target(w)
        if src is None:
            src, tgt = s, t
        elif (s, t) != (src, tgt):
            raise PreconditionError("relation terms are not parallel")
        out.append((coeff, w))
    if not out:
        raise PreconditionError("relation has no nonzero terms")
    return out, src, tgt


class AlgebraPresentation:
    """A quiver with admissible relations and a nilpotency bound."""

    def __init__(self, quiver: Quiver, field: Field, relations, nilpotency: int,
                 label: str = ""):
        if nilpotency < 2:
            raise PreconditionError("nilpotency bound must be >= 2")
        self.quiver = quiver
        self.field = field
        self.nilpotency = nilpotency
        self.label = label
        self.relations = []      # list of (terms, src, tgt)
        for rel in relations:
            self.relations.append(_normalize_relation(quiver, rel, field))

    def describe(self) -> dict:
        q = self.quiver
        return {
            "field": repr(self.field),
            "vertices": q.n,
            "arrows": [[a.name, a.source, a.target] for a in q.arrows],
            "relations": [
                [[self.field.to_str(c), q.walk_name(w)] for c, w in terms]
                for terms, _, _ in self.relations
            ],
            "nilpotency": self.nilpotency,
            "label": self.label,
        }


class FinDimAlgebra:
    """kQ/I given by a basis of walks and a multiplication table.

    ``basis`` lists walks whose classes form a basis of the algebra, and
    ``product(i, j)`` returns the structure constants of basis[i] * basis[j]
    as ``((basis index, coeff), ...)`` for composable i, j.  The product is
    the only source of structure: :func:`build_algebra` takes it from walk
    reduction, :func:`enveloping_algebra` from the tables of the two legs.
    Carries the vertex idempotents, the radical filtration, and the
    presentation the algebra satisfies.  The table is validated on
    construction: exhaustively for :func:`build_algebra`, and for
    :func:`enveloping_algebra` by products of its vertex idempotents and
    arrows and by bookkeeping on its basis, which make it a unital
    associative algebra on its walks by the two legs' own exhaustive
    validation (see ``_EnvelopingAlgebra.validate``).
    """

    def __init__(self, presentation: AlgebraPresentation, basis: List[Walk],
                 product: Callable[[int, int], tuple]):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.field = presentation.field
        self.nilpotency = presentation.nilpotency
        self.basis = basis
        self.index: Dict[Walk, int] = {w: i for i, w in enumerate(basis)}
        self._product = product
        q = self.quiver
        self.source = [q.walk_source(w) for w in basis]
        self.target = [q.walk_target(w) for w in basis]
        self.length = [q.walk_len(w) for w in basis]
        self.e_index = [0] * (q.n + 1)
        for v in range(1, q.n + 1):
            self.e_index[v] = self.index[(v,)]
        # arrows survive in any admissible quotient (relations have length>=2)
        self.arrow_index = [self.index[(a.source, i)]
                            for i, a in enumerate(q.arrows)]
        self._table: Dict[Tuple[int, int], tuple] = {}
        self._rad = None
        self._opposite: Optional[FinDimAlgebra] = None
        self._opposite_of: Optional[weakref.ref] = None
        self._projectives: Dict[int, Tuple[Tuple[int, ...],
                                           Tuple[Mat, ...]]] = {}
        self.validate()

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def label(self) -> str:
        return self.presentation.label

    @cached_property
    def projective_basis(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """The basis of each P(v) = e_v A: ``projective_basis[v - 1][u - 1]``
        lists the basis indices of the walks u -> v, in algebra order.  They
        span P(v) at vertex u, and this is the one place their order is
        fixed."""
        n = self.quiver.n
        walks: List[List[List[int]]] = [[[] for _ in range(n)]
                                        for _ in range(n)]
        for i, (u, v) in enumerate(zip(self.source, self.target)):
            walks[v - 1][u - 1].append(i)
        return tuple(tuple(map(tuple, row)) for row in walks)

    @cached_property
    def projective_dims(self) -> Tuple[int, ...]:
        """dim P(v) = dim e_v A, the basis walks ending at v, per vertex
        (index v - 1)."""
        return tuple(sum(map(len, row)) for row in self.projective_basis)

    def _projective_blocks(self, v: int
                           ) -> Tuple[Tuple[int, ...], Tuple[Mat, ...]]:
        """The dims and arrow matrices of P(v) = e_v A, built once per
        vertex (``rep.Rep.projective`` wraps them): the walks ending at v on
        the basis ``projective_basis[v - 1]``, acted on by precomposition.
        Only dims and matrices are kept, so the cache holds no reference
        back to the algebra and cannot keep it alive."""
        got = self._projectives.get(v)
        if got is None:
            f = self.field
            local = self.projective_basis[v - 1]
            pos = {bi: r for lst in local for r, bi in enumerate(lst)}
            dims = tuple(len(lst) for lst in local)
            act = []
            for ai, a in enumerate(self.quiver.arrows):
                m = Mat.zeros(f, dims[a.source - 1], dims[a.target - 1])
                arrow_b = self.arrow_index[ai]
                for c, bi in enumerate(local[a.target - 1]):
                    for k, coeff in self.mult(bi, arrow_b):
                        m.data[pos[k] * m.cols + c] = coeff
                act.append(m)
            got = self._projectives[v] = (dims, tuple(act))
        return got

    def e(self, v: int) -> int:
        return self.e_index[v]

    def mult(self, i: int, j: int) -> tuple:
        """Structure constants of basis[i] * basis[j] ("j then i")."""
        if self.source[i] != self.target[j]:
            return ()
        key = (i, j)
        got = self._table.get(key)
        if got is None:
            got = self._product(i, j)
            self._table[key] = got
        return got

    def reduce_walk(self, w: Walk) -> tuple:
        """Coefficients of a walk's class on the basis; () when it dies."""
        if self.quiver.walk_len(w) >= self.nilpotency:
            return ()
        one = self.field.one()
        vec = {self.e_index[w[0]]: one}
        for ai in w[1:]:
            vec = self.mult_vectors({self.arrow_index[ai]: one}, vec)
        return tuple(sorted(vec.items()))

    def mult_vectors(self, x: Dict[int, object], y: Dict[int, object]) -> Dict[int, object]:
        """Product of two elements given as {basis index: coeff} dicts."""
        field = self.field
        out: Dict[int, object] = {}
        for i, ci in x.items():
            for j, cj in y.items():
                c = field.mul(ci, cj)
                if field.is_zero(c):
                    continue
                for k, ck in self.mult(i, j):
                    val = field.add(out.get(k, field.zero()), field.mul(c, ck))
                    if field.is_zero(val):
                        out.pop(k, None)
                    else:
                        out[k] = val
        return out

    # radical ------------------------------------------------------------------

    def radical_filtration(self) -> List[Mat]:
        """Basis matrices (algebra coordinates as columns) of rad^j, j=0..N."""
        if self._rad is None:
            field = self.field
            one = field.one()
            cur = Mat.identity(field, self.dim)
            filt = [cur]
            for _ in range(self.nilpotency):
                # a walk of length >= j is an arrow after a walk of length
                # >= j-1, so rad^j = arrows * rad^(j-1)
                cols = []
                for c in range(cur.cols):
                    x = {k: cur.get(k, c) for k in range(self.dim)
                         if not field.is_zero(cur.get(k, c))}
                    for a in self.arrow_index:
                        y = self.mult_vectors({a: one}, x)
                        if y:
                            col = [field.zero()] * self.dim
                            for k, ck in y.items():
                                col[k] = ck
                            cols.append(col)
                if cols:
                    cur = Mat.from_rows(field, cols).transpose().image_basis()
                else:
                    cur = Mat.zeros(field, self.dim, 0)
                filt.append(cur)
            self._rad = filt
        return self._rad

    def radical_dims(self) -> List[int]:
        return [m.cols for m in self.radical_filtration()]

    # validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Check that the table is a unital associative algebra on walk classes.

        Exhaustive, with O(#arrows * dim^2) products:

        1. the vertex idempotents are orthogonal and act as units;
        2. the product of composable x, y lies in block (source y, target x);
        3. (a x) y == a (x y) for every arrow a and composable a, x, y;
        4. every basis walk w = (w' then arrow a) has w' in the basis and
           basis[w] == a * basis[w'].

        These give (x y) z == x (y z) for all basis x, y, z by induction on
        the length of x: for x = e_v it is 1 and 2; for x = a x' (by 4),
        (x y) z = (a (x' y)) z = a ((x' y) z) = a (x' (y z)) = x (y z), using
        3, 3, the induction hypothesis and 3 again, each extended linearly.

        Every table from :func:`build_algebra` gets this check.  The table of
        :func:`enveloping_algebra` is the tensor product of two tables that
        already passed it, so it replaces all four by products of its
        generators and bookkeeping that make them follow from the legs (see
        ``_EnvelopingAlgebra.validate``).
        """
        self._check_units()
        self._check_associative()
        self._check_walks()

    def _check_units(self) -> None:
        """Step 1 of :meth:`validate`."""
        one = self.field.one()
        n = self.quiver.n
        mult = self.mult
        for v in range(1, n + 1):
            for w in range(1, n + 1):
                prod = mult(self.e(v), self.e(w))
                expect = ((self.e(v), one),) if v == w else ()
                if prod != expect:
                    raise PreconditionError("vertex idempotents misbehave")
        for i in range(self.dim):
            if mult(self.e(self.target[i]), i) != ((i, one),):
                raise PreconditionError("left unit fails")
            if mult(i, self.e(self.source[i])) != ((i, one),):
                raise PreconditionError("right unit fails")

    def _check_associative(self) -> None:
        """Steps 2 and 3 of :meth:`validate`."""
        field = self.field
        n = self.quiver.n
        mult, mul, add, is_zero = self.mult, field.mul, field.add, field.is_zero

        def combine(terms, factor) -> dict:
            """The sum of c * factor(k) over the terms (k, c)."""
            out: Dict[int, object] = {}
            for k, c in terms:
                for k2, c2 in factor(k):
                    cc = mul(c, c2)
                    out[k2] = add(out[k2], cc) if k2 in out else cc
            return {k: c for k, c in out.items() if not is_zero(c)}

        by_target: List[List[int]] = [[] for _ in range(n + 1)]
        for j in range(self.dim):
            by_target[self.target[j]].append(j)
        arrows_from = [[self.arrow_index[ai] for ai in self.quiver.arrows_from[v]]
                       for v in range(n + 1)]
        for x in range(self.dim):
            sx, tx = self.source[x], self.target[x]
            for y in by_target[sx]:
                xy = mult(x, y)
                sy = self.source[y]
                for k, _ in xy:
                    if self.source[k] != sy or self.target[k] != tx:
                        raise PreconditionError(
                            f"product ({x},{y}) leaves its block")
                for a in arrows_from[tx]:
                    left = combine(mult(a, x), lambda k: mult(k, y))
                    right = combine(xy, lambda k: mult(a, k))
                    if left != right:
                        raise PreconditionError(
                            "multiplication table not associative at "
                            f"({a},{x},{y})")

    def _check_walks(self) -> None:
        """Step 4 of :meth:`validate`."""
        one = self.field.one()
        mult = self.mult
        for i, w in enumerate(self.basis):
            if len(w) == 1:
                continue
            prefix = self.index.get(w[:-1])
            if prefix is None:
                raise PreconditionError(
                    f"basis walk {self.quiver.walk_name(w)} has a prefix "
                    "outside the basis")
            if mult(self.arrow_index[w[-1]], prefix) != ((i, one),):
                raise PreconditionError(
                    f"basis walk {self.quiver.walk_name(w)} is not its "
                    "arrow times its prefix")

    def basis_names(self) -> List[str]:
        return [self.quiver.walk_name(w) for w in self.basis]

    def opposite(self) -> "FinDimAlgebra":
        """The opposite algebra A^op, by ``build_algebra`` on the reversed
        quiver and relations.  Built once; A holds A^op, which links back
        weakly (no reference cycle), so ``A.opposite().opposite() is A``
        while A lives.  Arrow i of A^op is arrow i of A reversed, under the
        same name, so a module's arrow matrices carry over to its dual
        (``rep.dual``)."""
        back = self._opposite_of and self._opposite_of()
        if back is not None:
            return back
        if self._opposite is None:
            q = self.quiver
            rev = Quiver(q.n, [(a.name, a.target, a.source) for a in q.arrows])
            # reversing a walk reverses the composition order: the walk's
            # arrow names, read as a product, are the reversed walk
            rels = [[(coeff, [q.arrows[i].name for i in w[1:]])
                     for coeff, w in terms]
                    for terms, _, _ in self.presentation.relations]
            pres = AlgebraPresentation(
                rev, self.field, rels, self.nilpotency,
                label=self.label + "^op" if self.label else "")
            self._opposite = build_algebra(pres)
            self._opposite._opposite_of = weakref.ref(self)
        return self._opposite

    def __repr__(self):
        lab = self.label or "algebra"
        return f"<{lab}: dim {self.dim} over {self.field!r}>"


def build_algebra(pres: AlgebraPresentation) -> FinDimAlgebra:
    """Construct the finite-dimensional quotient algebra of a presentation.

    Enumerates walks of length < N, spans the two-sided ideal generated by
    the relations inside that window, and eliminates per (source, target)
    block.  Long walks are the preferred pivots so the surviving basis keeps
    the shortest monomials.
    """
    q, field, N = pres.quiver, pres.field, pres.nilpotency
    walks_by_len: List[List[Walk]] = [[(v,) for v in range(1, q.n + 1)]]
    total = q.n
    for ln in range(1, N):
        prev = walks_by_len[-1]
        cur: List[Walk] = []
        for w in prev:
            t = q.walk_target(w)
            for ai in q.arrows_from[t]:
                cur.append(w + (ai,))
        total += len(cur)
        if total > MAX_WALKS:
            raise PreconditionError(
                f"path enumeration exceeded {MAX_WALKS} walks; "
                "the quotient is too large (or the bound is)")
        if not cur:
            break
        walks_by_len.append(cur)

    all_walks: List[Walk] = [w for lst in walks_by_len for w in lst]
    blocks: Dict[Tuple[int, int], List[Walk]] = {}
    for w in all_walks:
        blocks.setdefault((q.walk_source(w), q.walk_target(w)), []).append(w)
    # elimination order inside a block: long walks first, so they get rewritten
    # in terms of short ones
    for key in blocks:
        blocks[key].sort(key=lambda w: (-q.walk_len(w), w))

    ideal_rows: Dict[Tuple[int, int], list] = {key: [] for key in blocks}
    by_target: Dict[int, List[Walk]] = {v: [] for v in range(1, q.n + 1)}
    by_source: Dict[int, List[Walk]] = {v: [] for v in range(1, q.n + 1)}
    for w in all_walks:
        by_target[q.walk_target(w)].append(w)
        by_source[q.walk_source(w)].append(w)

    for terms, rs, rt in pres.relations:
        min_len = min(q.walk_len(w) for _, w in terms)
        for y in by_target[rs]:          # y: s' -> rs, multiplied on the right
            ly = q.walk_len(y)
            if ly + min_len >= N:
                continue
            for x in by_source[rt]:      # x: rt -> t', multiplied on the left
                lx = q.walk_len(x)
                if ly + min_len + lx >= N:
                    continue
                vec: Dict[Walk, object] = {}
                for coeff, w in terms:
                    if ly + q.walk_len(w) + lx >= N:
                        continue
                    full = y + w[1:] + x[1:]
                    vec[full] = field.add(vec.get(full, field.zero()), coeff)
                vec = {k: c for k, c in vec.items() if not field.is_zero(c)}
                if vec:
                    key = (q.walk_source(y), q.walk_target(x))
                    ideal_rows[key].append(vec)

    reduce_map: Dict[Walk, tuple] = {}
    basis: List[Walk] = []
    for key, ordered in blocks.items():
        rows = ideal_rows[key]
        if not rows:
            basis.extend(ordered)
            for w in ordered:
                reduce_map[w] = None     # filled after indexing
            continue
        pos = {w: c for c, w in enumerate(ordered)}
        mat_rows = []
        for vec in rows:
            row = [field.zero()] * len(ordered)
            for w, c in vec.items():
                row[pos[w]] = c
            mat_rows.append(row)
        R, piv = Mat.from_rows(field, mat_rows).rref()
        pivset = set(piv)
        nonpiv = [c for c in range(len(ordered)) if c not in pivset]
        basis.extend(ordered[c] for c in nonpiv)
        for c in nonpiv:
            reduce_map[ordered[c]] = None
        neg = field.neg
        for k, pc in enumerate(piv):
            tail = []
            for c in nonpiv:
                val = R.get(k, c)
                if not field.is_zero(val):
                    tail.append((ordered[c], neg(val)))
            reduce_map[ordered[pc]] = tuple(tail)

    basis.sort(key=lambda w: (q.walk_len(w), w))
    index = {w: i for i, w in enumerate(basis)}
    final: Dict[Walk, tuple] = {}
    one = field.one()
    for w in all_walks:
        pending = reduce_map[w]
        if pending is None:
            final[w] = ((index[w], one),)
        else:
            final[w] = tuple((index[wb], c) for wb, c in pending)

    def product(i: int, j: int) -> tuple:
        w = q.compose(basis[i], basis[j])
        return () if q.walk_len(w) >= N else final[w]

    return FinDimAlgebra(pres, basis, product)


# -- derived presentations ------------------------------------------------------


def walks_of_length(q: Quiver, length: int) -> List[Walk]:
    """All walks of exactly the given length."""
    walks: List[Walk] = [(v,) for v in range(1, q.n + 1)]
    for _ in range(length):
        walks = [w + (ai,) for w in walks
                 for ai in q.arrows_from[q.walk_target(w)]]
    return walks


def pair_vertex(n: int, u: int, v: int) -> int:
    """The vertex (u, v) of the enveloping quiver of an n-vertex quiver."""
    return (u - 1) * n + v


def tensor_op_presentation(pres: AlgebraPresentation) -> AlgebraPresentation:
    """Presentation of the enveloping algebra A^op (x) A.

    Vertices are pairs (u, v); arrows are ``a^o@v`` (the opposite of a acting
    on the left leg at column v) and ``u@b`` (b acting on the right leg at row
    u).  Relations: both legs' relations, plus commutation of the legs.
    """
    q = pres.quiver
    n = q.n

    def pv(u: int, v: int) -> int:
        return pair_vertex(n, u, v)

    arrows = []
    for a in q.arrows:
        for v in range(1, n + 1):
            arrows.append((f"{a.name}^o@{v}", pv(a.target, v), pv(a.source, v)))
    for u in range(1, n + 1):
        for b in q.arrows:
            arrows.append((f"{u}@{b.name}", pv(u, b.source), pv(u, b.target)))
    tq = Quiver(n * n, arrows)

    one = pres.field.one()
    # each leg carries the full ideal of the presentation: the explicit
    # relations plus the walks killed by the one-sided nilpotency bound
    leg_relations = [[(coeff, w) for coeff, w in terms]
                     for terms, _, _ in pres.relations]
    leg_relations.extend([(one, w)] for w in walks_of_length(q, pres.nilpotency))
    rels = []
    for terms in leg_relations:
        for v in range(1, n + 1):
            # walk (s, a1, .., al) becomes the op walk with reversed arrows;
            # in composition order that is a1^o * a2^o * ... * al^o
            rels.append([
                (coeff, [f"{q.arrows[i].name}^o@{v}" for i in w[1:]])
                for coeff, w in terms
            ])
        for u in range(1, n + 1):
            # the right leg keeps its composition order
            rels.append([
                (coeff, [f"{u}@{q.arrows[i].name}" for i in reversed(w[1:])])
                for coeff, w in terms
            ])
    minus = pres.field.neg(one)
    for a in q.arrows:
        for b in q.arrows:
            # both walks go (t(a), s(b)) -> (s(a), t(b)); order of legs commutes
            w1 = [f"{a.source}@{b.name}", f"{a.name}^o@{b.source}"]
            w2 = [f"{a.name}^o@{b.target}", f"{a.target}@{b.name}"]
            rels.append([(one, w1), (minus, w2)])
    label = f"({pres.label})^e" if pres.label else "enveloping"
    return AlgebraPresentation(tq, pres.field, rels, 2 * pres.nilpotency - 1,
                               label=label)


class _EnvelopingAlgebra(FinDimAlgebra):
    """A^op (x) A whose table is the tensor product of its legs' tables.

    Built only by :func:`enveloping_algebra`; ``pairs[i]`` is the pair
    (x, y) of leg basis indices behind ``basis[i]``; ``arrow_legs[t]`` is
    (0, i) for tensor arrow t = ``a^o@v`` and (1, i) for t = ``u@a``, with
    i the index of a in A's quiver.
    """

    def __init__(self, presentation: AlgebraPresentation, basis: List[Walk],
                 op: FinDimAlgebra, alg: FinDimAlgebra,
                 pairs: List[Tuple[int, int]],
                 arrow_legs: Sequence[Tuple[int, int]]):
        self._legs = (op, alg)
        self._pairs = pairs
        self.arrow_legs = tuple(arrow_legs)
        index = {pair: i for i, pair in enumerate(pairs)}
        mul = presentation.field.mul

        # the product closes over the legs' tables, not over self: a bound
        # method stored on self would be a reference cycle, and A^e would
        # outlive its last reference until the cyclic collector ran
        def tensor_product(i: int, j: int) -> tuple:
            x1, y1 = pairs[i]
            x2, y2 = pairs[j]
            right_leg = alg.mult(y1, y2)
            return tuple((index[kx, ky], mul(cx, cy))
                         for kx, cx in op.mult(x1, x2)
                         for ky, cy in right_leg)

        super().__init__(presentation, basis, tensor_product)

    def validate(self) -> None:
        """Checks at the cost of A^e's generators; the rest is the legs'.

        Both legs passed the full :meth:`FinDimAlgebra.validate`.  This
        checks:

        (a) the pairs are a bijection onto leg basis x leg basis, and the
            basis walks are distinct;
        (b) basis[(x, y)] runs from pair_vertex(source x, source y) to
            pair_vertex(target x, target y);
        (c) e at pair_vertex(u, v) is the pair (e_u, e_v), and e * e == e;
        (d) each arrow of A^e is fixed by the idempotents at its ends;
        (e) with no product: each basis walk w = (w' then t), where
            arrow_legs[t] = (leg, a), has w' in the basis, and the pair of
            w is that of w' with its element z' on that leg replaced by the
            leg basis walk (z' then a).

        pair_vertex is injective, so by (a) and (b) (x1, y1), (x2, y2) are
        composable exactly when both legs are, and ``mult`` is the tensor
        product of the legs' tables over a bijective index map.  That
        product is associative, ((x1 x2) x3, (y1 y2) y3) = (x1 (x2 x3),
        y1 (y2 y3)), and keeps products in their blocks by the legs' step 2
        and (b): steps 2 and 3.  Step 1: by (c) e_(u,v) e_(u',v') =
        (e_u e_u', e_v e_v'), and by (b) the left unit of (x, y) is
        (e_(target x), e_(target y)), so the legs' step 1 gives it; the
        right alike.  Step 4: (e) on a length-1 walk, whose prefix is an
        idempotent (c), makes the arrow t the pair of the leg arrow a and
        an idempotent.  Then for leg 1 (leg 0 alike) (b) makes t start
        where w' ends, and t * w' = (e x', a y') = (x', y) = basis[w] by
        the legs' steps 1 and 4.

        (c) and (d) run the product code itself on the generators, so they
        refuse a coefficient or an index map it gets wrong, and a leg table
        that lost a unit since its validation.  They call the uncached
        product (each pair is composable), so they leave ``_table`` empty
        for the products a caller asks for.
        """
        op, alg = self._legs
        pairs, index = self._pairs, self.index
        every_pair = [(x, y) for x in range(op.dim) for y in range(alg.dim)]
        if (len(pairs) != self.dim or sorted(pairs) != every_pair
                or len(index) != self.dim):
            raise PreconditionError(
                "basis is not a bijection onto pairs of leg basis elements")
        n = alg.quiver.n
        for i, (x, y) in enumerate(pairs):
            if (self.source[i] != pair_vertex(n, op.source[x], alg.source[y])
                    or self.target[i] != pair_vertex(n, op.target[x],
                                                     alg.target[y])):
                raise PreconditionError(
                    f"basis element {i} lies outside the block of its pair")
        one, product = self.field.one(), self._product
        for p in range(1, self.quiver.n + 1):
            u, v = divmod(p - 1, n)
            e = self.e(p)
            if (pairs[e] != (op.e(u + 1), alg.e(v + 1))
                    or product(e, e) != ((e, one),)):
                raise PreconditionError(
                    f"idempotent {e} is not the pair of the legs' idempotents")
        # per leg element z = (z' then a): a and the index of z' (-1, -1
        # for an idempotent)
        steps = [[(w[-1], leg.index[w[:-1]]) if len(w) > 1 else (-1, -1)
                  for w in leg.basis] for leg in (op, alg)]
        for i, w in enumerate(self.basis):
            if len(w) == 1:
                continue
            side, a = self.arrow_legs[w[-1]]
            pair = pairs[i]
            last, before = steps[side][pair[side]]
            prefix = index.get(w[:-1])
            if (last != a or prefix is None
                    or pairs[prefix][side] != before
                    or pairs[prefix][1 - side] != pair[1 - side]):
                raise PreconditionError(
                    f"basis walk {self.quiver.walk_name(w)} is not its leg "
                    "arrow times its prefix")
        for i in self.arrow_index:
            if product(self.e(self.target[i]), i) != ((i, one),):
                raise PreconditionError("left unit fails")
            if product(i, self.e(self.source[i])) != ((i, one),):
                raise PreconditionError("right unit fails")

    def _projective_blocks(self, v: int
                           ) -> Tuple[Tuple[int, ...], Tuple[Mat, ...]]:
        """P(v) = e_v A^e from the legs, with no product of A^e formed.

        For v = (s, t), P(v) = P_{A^op}(s) (x) P_A(t): at u = (u1, u2) its
        basis is the pairs (x, y) with x in P_{A^op}(s) at u1 and y in
        P_A(t) at u2, in the algebra order ``projective_basis[v - 1]``.  The
        arrow a^o@w acts on the A^op leg alone, by the leg's block of a
        with y fixed (y runs over P_A(t) at w), and u@b on the A leg alone,
        by the leg's block of b with x fixed: each entry of a leg's block,
        read off the leg's table (which its own validation filled), is
        placed at the positions of its pairs.  Equal to
        :meth:`FinDimAlgebra._projective_blocks`; like it, the cache holds
        only dims and matrices, and the legs cache no P(v) for it.
        """
        got = self._projectives.get(v)
        if got is None:
            f = self.field
            n = self._legs[1].quiver.n
            # per leg, the basis of its P at each vertex, each leg element's
            # position there, and per leg arrow the nonzero entries (row,
            # col, value) of its block in that P, read off the leg's table
            legs = []
            for algebra, e in zip(self._legs, divmod(v - 1, n)):
                basis = algebra.projective_basis[e]
                pos = {b: r for lst in basis for r, b in enumerate(lst)}
                legs.append((basis, pos, [
                    [(pos[k], c, coeff)
                     for c, b in enumerate(basis[a.target - 1])
                     for k, coeff in algebra.mult(b, algebra.arrow_index[ai])]
                    for ai, a in enumerate(algebra.quiver.arrows)]))
            (xbasis, xpos, xentries), (ybasis, ypos, yentries) = legs
            local = self.projective_basis[v - 1]
            dims = tuple(len(lst) for lst in local)
            # at[u][i * ny + j]: the position in P(v) at u = (u1, u2) of the
            # pair of the i-th x at u1 and the j-th y at u2 (ny of them)
            at = []
            for u, lst in enumerate(local):
                ny = len(ybasis[u % n])
                here = [0] * len(lst)
                for r, k in enumerate(lst):
                    x, y = self._pairs[k]
                    here[xpos[x] * ny + ypos[y]] = r
                at.append(here)
            zero = f.zero()
            act = []
            for arrow, (leg, ai) in zip(self.quiver.arrows, self.arrow_legs):
                u, w = arrow.source - 1, arrow.target - 1
                cols = dims[w]
                data = [zero] * (dims[u] * cols)
                at_u, at_w = at[u], at[w]
                if leg:             # b acts on the y of each fixed x
                    nyu, nyw = len(ybasis[u % n]), len(ybasis[w % n])
                    for i in range(len(xbasis[u // n])):
                        for r, c, val in yentries[ai]:
                            data[at_u[i * nyu + r] * cols
                                 + at_w[i * nyw + c]] = val
                else:               # a^o acts on the x of each fixed y
                    ny = len(ybasis[u % n])
                    for j in range(ny):
                        for r, c, val in xentries[ai]:
                            data[at_u[r * ny + j] * cols
                                 + at_w[c * ny + j]] = val
                act.append(Mat(f, dims[u], cols, data))
            got = self._projectives[v] = (dims, tuple(act))
        return got


def enveloping_algebra(alg: FinDimAlgebra) -> FinDimAlgebra:
    """A^op (x) A as the tensor product of the two legs' tables.

    The basis is the pairs (x, y) of a basis element x of A^op and y of A;
    its walk on the quiver of :func:`tensor_op_presentation` is y along row
    source(x), then x along column target(y).  The product is
    (x1, y1) * (x2, y2) = (x1 * x2) (x) (y1 * y2), since the two legs
    commute.  No walk of the tensor quiver is enumerated, and the table
    fills lazily with the products that are asked for.  Associativity is
    inherited from the legs instead of being checked again on the table
    (see ``_EnvelopingAlgebra.validate``).
    """
    pres = tensor_op_presentation(alg.presentation)
    op = alg.opposite()
    q, tq = alg.quiver, pres.quiver
    n = q.n
    left = {(ai, v): tq.by_name[f"{a.name}^o@{v}"]
            for ai, a in enumerate(q.arrows) for v in range(1, n + 1)}
    right = {(u, bi): tq.by_name[f"{u}@{b.name}"]
             for u in range(1, n + 1) for bi, b in enumerate(q.arrows)}
    legs = {t: (0, ai) for (ai, _), t in left.items()}
    legs.update({t: (1, bi) for (_, bi), t in right.items()})
    # per row u, each y's start and arrows; per column v, each x's arrows:
    # each walk is then one concatenation
    heads = [[(pair_vertex(n, u, alg.source[y]),)
              + tuple(right[u, bi] for bi in yw[1:])
              for y, yw in enumerate(alg.basis)] for u in range(1, n + 1)]
    tails = [[tuple(left[ai, v] for ai in xw[1:]) for xw in op.basis]
             for v in range(1, n + 1)]
    keyed = sorted((len(w), w, x, y)
                   for x in range(op.dim)
                   for y, head in enumerate(heads[op.source[x] - 1])
                   for w in (head + tails[alg.target[y] - 1][x],))
    basis = [w for _, w, _, _ in keyed]
    pairs = [(x, y) for _, _, x, y in keyed]
    return _EnvelopingAlgebra(pres, basis, op, alg, pairs,
                              [legs[t] for t in range(len(tq.arrows))])
