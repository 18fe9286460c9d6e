"""Dense exact matrices over Q or GF(p) and the solvers everything reduces to.

Entries are scalars of ``fields``: ints in ``0..p-1`` over GF(p), and over Q
rationals in normal form (an ``int`` when the denominator is 1, a reduced
``Fraction`` otherwise).  ``from_rows``, ``column`` and ``scale`` pass every
entry through ``Field.coerce``, which refuses floats; ``Mat(field, rows,
cols, data)`` trusts its data.  Arithmetic and elimination (``+``, ``-``,
``@``, ``scale``, ``rref``, ``kernel_basis``, ``solve_matrix``, ``inverse``)
return normal forms even from entries that are not, such as
``Fraction(4, 2)``; transposes, slices and blocks copy entries as they are.

A ``kernel_basis`` is the identity on the free columns of the cached rref,
so coordinates on it are read there, with no solve: ``_kernel_coords`` on
flat rows for a map into a kernel (``Mat.kernel_coords``, ``rep.kernel_of``),
and ``rep.HomBasis`` for Hom spaces out of a module without projective
tops, read off the one echelon form of its flat system (``_echelon``,
``_null_space``).  Hom out of a sum of projectives with tops is
``rep.YonedaHom``, which solves no system (see ``rep.hom_coords``).

Row reduction and products run in the kernels of ``_kernels_py``, reached
through the module alias ``_impl`` at call time, so a profiler can wrap
them in place; ``Mat.__matmul__`` and the flat callers share ``_product``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from . import _kernels_py as _impl
from .fields import Field


def backend() -> str:
    """Name of the elimination backend; there is one, in pure Python."""
    return "python"


class Mat:
    """An immutable dense matrix with exact entries.

    Storage is a flat row-major list.  All entries live in ``field``; mixing
    fields raises.
    """

    __slots__ = ("field", "rows", "cols", "data", "_rref")

    def __init__(self, field: Field, rows: int, cols: int, data: list):
        if len(data) != rows * cols:
            raise ValueError("entry count must be rows * cols")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        self._rref = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Mat":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for row in rows:
            if len(row) != nc:
                raise ValueError("ragged rows")
            flat.extend(field.coerce(x) for x in row)
        return cls(field, nr, nc, flat)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, [field.zero()] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i * n + i] = one
        return m

    @classmethod
    def column(cls, field: Field, entries: Sequence) -> "Mat":
        return cls(field, len(entries), 1, [field.coerce(x) for x in entries])

    # -- access ---------------------------------------------------------------

    def get(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col_list(self, j: int) -> list:
        return [self.data[i * self.cols + j] for i in range(self.rows)]

    def tolist(self) -> List[list]:
        return [self.row_list(i) for i in range(self.rows)]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        fz = self.field.is_zero
        return all(fz(x) for x in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def __repr__(self):
        return f"Mat({self.field!r}, {self.rows}x{self.cols})"

    # -- arithmetic -----------------------------------------------------------

    def _check_field(self, other: "Mat"):
        # fields are compared by value, but a matrix almost always shares
        # its operand's Field object
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        add = self.field.add
        return Mat(self.field, self.rows, self.cols,
                   [add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        sub = self.field.sub
        return Mat(self.field, self.rows, self.cols,
                   [sub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        neg = self.field.neg
        return Mat(self.field, self.rows, self.cols, [neg(a) for a in self.data])

    def scale(self, c) -> "Mat":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Mat(self.field, self.rows, self.cols, [mul(c, a) for a in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        n, m = self.rows, other.cols
        return Mat(self.field, n, m, _product(self.field, self.data,
                                              other.data, n, self.cols, m))

    def transpose(self) -> "Mat":
        c = self.cols
        return Mat(self.field, c, self.rows,
                   [x for j in range(c) for x in self.data[j::c]])

    # -- block assembly ---------------------------------------------------------

    def hstack(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        data = []
        for i in range(self.rows):
            data.extend(self.row_list(i))
            data.extend(other.row_list(i))
        return Mat(self.field, self.rows, self.cols + other.cols, data)

    def vstack(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.cols:
            raise ValueError("col mismatch")
        return Mat(self.field, self.rows + other.rows, self.cols,
                   self.data + other.data)

    @classmethod
    def block(cls, field: Field, row_sizes: Sequence[int],
              col_sizes: Sequence[int], blocks: Dict[Tuple[int, int], "Mat"]
              ) -> "Mat":
        """The block matrix with ``blocks[(r, c)]`` in block row r and block
        column c (sized ``row_sizes[r]`` by ``col_sizes[c]``), zero elsewhere;
        block-diagonal sums go through ``rep._diagonal`` instead."""
        roff, coff = _offsets(row_sizes), _offsets(col_sizes)
        ncols = coff[-1]
        data = [field.zero()] * (roff[-1] * ncols)
        for (r, c), b in blocks.items():
            bc = b.cols
            if b.rows != row_sizes[r] or bc != col_sizes[c]:
                raise ValueError(f"block ({r}, {c}) has shape {b.shape}, "
                                 f"expected {(row_sizes[r], col_sizes[c])}")
            if b.field is not field and b.field != field:
                raise ValueError("field mismatch")
            if bc:
                src = b.data
                base = roff[r] * ncols + coff[c]
                for k in range(0, len(src), bc):
                    data[base:base + bc] = src[k:k + bc]
                    base += ncols
        return cls(field, roff[-1], ncols, data)

    def take_cols(self, js: Sequence[int]) -> "Mat":
        data = []
        for i in range(self.rows):
            base = i * self.cols
            for j in js:
                data.append(self.data[base + j])
        return Mat(self.field, self.rows, len(js), data)

    # -- elimination ------------------------------------------------------------

    def rref(self) -> Tuple["Mat", Tuple[int, ...]]:
        """Reduced row echelon form; zero rows dropped.  Cached."""
        if self._rref is None:
            flat, piv = _echelon(self.field, self.rows, self.cols, self.data)
            self._rref = (Mat(self.field, len(piv), self.cols, flat), piv)
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Columns form a basis of the null space {x : A x = 0}."""
        R, piv = self.rref()
        return _null_space(self.field, self.cols, R.data, piv)[0]

    def kernel_coords(self, Y: "Mat") -> Optional["Mat"]:
        """X with ``kernel_basis() @ X == Y``, or None (``_kernel_coords``)."""
        self._check_field(Y)
        if self.cols != Y.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {Y.shape}")
        free = _free_cols(self.cols, self.rref()[1])
        X = _kernel_coords(self, Y.data, Y.cols, free)
        return None if X is None else Mat(self.field, len(free), Y.cols, X)

    def image_basis(self) -> "Mat":
        """Columns: the pivot columns of A (a basis of the column space)."""
        _, piv = self.rref()
        return self.take_cols(list(piv))

    def solve_matrix(self, B: "Mat") -> Optional["Mat"]:
        """Return X with ``A @ X == B``, or None if any column is inconsistent."""
        self._check_field(B)
        if B.rows != self.rows:
            raise ValueError("shape mismatch")
        aug = self.hstack(B)
        R, piv = aug.rref()
        if any(c >= self.cols for c in piv):
            return None
        X = Mat.zeros(self.field, self.cols, B.cols)
        for k, pc in enumerate(piv):
            for j in range(B.cols):
                X.data[pc * B.cols + j] = R.get(k, self.cols + j)
        return X

    def solve(self, b: Sequence) -> Optional[list]:
        """One solution of ``A x = b`` (free variables set to 0), or None."""
        col = b if isinstance(b, Mat) else Mat.column(self.field, list(b))
        X = self.solve_matrix(col)
        return None if X is None else [X.get(i, 0) for i in range(self.cols)]

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("not square")
        X = self.solve_matrix(Mat.identity(self.field, self.rows))
        if X is None:
            raise ValueError("matrix not invertible")
        return X


def _offsets(sizes: Sequence[int]) -> List[int]:
    """Running sums 0, s_0, s_0 + s_1, ...; the last entry is the total."""
    return list(accumulate(sizes, initial=0))


def _free_cols(ncols: int, piv: Sequence[int]) -> List[int]:
    """The columns of an rref with ``ncols`` columns and pivot columns
    ``piv`` that hold no pivot."""
    pivots = set(piv)
    return [j for j in range(ncols) if j not in pivots]


def _product(field: Field, a: list, b: list, n: int, k: int, m: int) -> list:
    """The flat n x m product of the flat n x k ``a`` and k x m ``b``."""
    if not (n and k and m):
        return [field.zero()] * (n * m)
    if field.p:
        return _impl.fp_matmul(a, b, n, k, m, field.p)
    return _impl.q_matmul(a, b, n, k, m)


def _kernel_coords(A: Mat, Y: list, ycols: int, free: list) -> Optional[list]:
    """Y's coordinates on ``A.kernel_basis()``, Y flat with ``ycols``
    columns: its rows at A's free columns ``free``, or None unless A Y = 0."""
    if any(_product(A.field, A.data, Y, A.rows, A.cols, ycols)):
        return None
    return [x for j in free for x in Y[j * ycols:(j + 1) * ycols]]


def _echelon(field: Field, rows: int, cols: int,
             data: list) -> Tuple[list, Tuple[int, ...]]:
    """The rref of the ``rows`` x ``cols`` row-major ``data`` (flat rows,
    zero rows dropped) and its pivot columns, from the kernel for the field."""
    if rows == 0 or cols == 0:
        return [], ()
    if field.p:
        flat, piv = _impl.fp_rref(data, rows, cols, field.p)
    else:
        flat, piv = _impl.q_rref(data, rows, cols)
    return flat, tuple(piv)


def _null_space(field: Field, cols: int, flat: list,
                piv: Sequence[int]) -> Tuple[Mat, List[int]]:
    """The kernel basis of an rref with ``cols`` columns, flat rows ``flat``
    and pivot columns ``piv``, and its free columns: column i is the unit
    vector at the i-th free column fc minus R[k, fc] at the k-th pivot."""
    free = _free_cols(cols, piv)
    nf = len(free)
    data = [field.zero()] * (cols * nf)
    one, neg = field.one(), field.neg
    for i, fc in enumerate(free):
        data[fc * nf + i] = one
    for k, pc in enumerate(piv):
        base, out = k * cols, pc * nf
        for i, fc in enumerate(free):
            x = flat[base + fc]
            if x:
                data[out + i] = neg(x)
    return Mat(field, cols, nf, data), free


def reduce_mod_rowspace(R: Mat, piv: Sequence[int], vec: list,
                        field: Field) -> list:
    """Reduce a vector modulo the row space of an rref matrix R."""
    out = list(vec)
    sub, mul = field.sub, field.mul
    for k, pc in enumerate(piv):
        c = out[pc]
        if not field.is_zero(c):
            base = k * R.cols
            for j in range(pc, R.cols):
                out[j] = sub(out[j], mul(c, R.data[base + j]))
    return out

