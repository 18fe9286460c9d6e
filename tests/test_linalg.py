from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import periodica
from periodica import _kernels_py, linalg
from periodica.fields import Field, QQ
from periodica.linalg import Mat

from oracles import quotient


F5 = Field.gf(5)
# above 2^32, so products of two entries overflow 64-bit integers
FBIG = Field.gf(4294967311)


def test_one_pure_python_backend():
    assert periodica.backend() == "python"
    assert linalg._impl is _kernels_py


def test_rank_identity_and_zero():
    assert Mat.identity(QQ, 3).rank() == 3
    assert Mat.zeros(QQ, 2, 5).rank() == 0


def test_rank_dependent_rows():
    assert Mat.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_kernel_identity_empty():
    assert Mat.identity(QQ, 3).kernel_basis().cols == 0


def test_kernel_zero_full():
    K = Mat.zeros(QQ, 2, 3).kernel_basis()
    assert K.cols == 3


def test_kernel_one_relation():
    K = Mat.from_rows(QQ, [[1, 1]]).kernel_basis()
    assert K.cols == 1
    a, b = K.get(0, 0), K.get(1, 0)
    assert a == -b and a != 0


def test_solve_direct():
    assert Mat.from_rows(QQ, [[2]]).solve([1]) == [Fraction(1, 2)]


def test_solve_inconsistent():
    assert Mat.from_rows(QQ, [[1], [0]]).solve([0, 1]) is None


def test_quotient_trivial_and_full():
    dim, proj = quotient(3, Mat.identity(QQ, 3))
    assert dim == 0
    dim, proj = quotient(2, Mat.zeros(QQ, 2, 0))
    assert dim == 2
    assert proj.rank() == 2


def test_quotient_kills_subspace():
    sub = Mat.from_rows(QQ, [[1], [1], [0]])
    dim, proj = quotient(3, sub)
    assert dim == 2
    assert (proj @ sub).is_zero()


small = st.integers(min_value=-6, max_value=6)
# small numerators over a few denominators, so the rational kernels clear
# denominators other than 1
q_entries = st.builds(Fraction, small, st.sampled_from([1, 2, 3, 4, 7]))
# the same values in normal form or not: an integral entry is drawn both as
# an int and as a Fraction such as Fraction(4, 2)
q_mixed = st.one_of(q_entries, q_entries.map(QQ.coerce))


def is_normal_q(x):
    """A rational in normal form: an int iff its denominator is 1, else a
    Fraction; never a float or a bool."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@st.composite
def q_matrices(draw, maxdim=5, shape=None, entries=q_entries):
    r, c = shape or (draw(st.integers(1, maxdim)), draw(st.integers(1, maxdim)))
    data = draw(st.lists(entries, min_size=r * c, max_size=r * c))
    return Mat(QQ, r, c, data)


@st.composite
def q_products(draw, maxdim=5):
    n, k, m = (draw(st.integers(1, maxdim)) for _ in range(3))
    return draw(q_matrices(shape=(n, k))), draw(q_matrices(shape=(k, m)))


def fp_entries(field):
    """Any element of GF(p), with 0, 1 and -1 drawn often enough that
    rank-deficient matrices come up over the large field too."""
    p = field.p
    return st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))


@st.composite
def fp_matrices(draw, maxdim=5, field=None, shape=None):
    field = field or draw(st.sampled_from([F5, FBIG]))
    r, c = shape or (draw(st.integers(1, maxdim)), draw(st.integers(1, maxdim)))
    data = draw(st.lists(fp_entries(field), min_size=r * c, max_size=r * c))
    return Mat(field, r, c, data)


@st.composite
def fp_products(draw, maxdim=5):
    field = draw(st.sampled_from([F5, FBIG]))
    n, k, m = (draw(st.integers(1, maxdim)) for _ in range(3))
    return (draw(fp_matrices(field=field, shape=(n, k))),
            draw(fp_matrices(field=field, shape=(k, m))))


@settings(max_examples=60, deadline=None)
@given(q_matrices())
def test_rank_transpose_and_nullity_q(A):
    assert A.rank() == A.transpose().rank()
    assert A.rank() + A.kernel_basis().cols == A.cols
    assert (A @ A.kernel_basis()).is_zero()


@settings(max_examples=60, deadline=None)
@given(fp_matrices())
def test_rank_transpose_and_nullity_fp(A):
    assert A.rank() == A.transpose().rank()
    assert A.rank() + A.kernel_basis().cols == A.cols
    assert (A @ A.kernel_basis()).is_zero()


@settings(max_examples=60, deadline=None)
@given(fp_products())
def test_fp_matmul_matches_naive_product(AB):
    A, B = AB
    p = A.field.p
    C = A @ B
    for i in range(A.rows):
        for j in range(B.cols):
            naive = sum(A.get(i, t) * B.get(t, j) for t in range(A.cols)) % p
            assert C.get(i, j) == naive


@settings(max_examples=60, deadline=None)
@given(q_products())
def test_q_matmul_matches_naive_product(AB):
    A, B = AB
    C = A @ B
    for i in range(A.rows):
        for j in range(B.cols):
            naive = Fraction(0)
            for t in range(A.cols):
                naive += A.get(i, t) * B.get(t, j)
            assert is_normal_q(C.get(i, j)) and C.get(i, j) == naive


@settings(max_examples=200, deadline=None)
@given(q_mixed, q_mixed, small, st.integers(1, 8))
def test_q_scalars_are_in_normal_form(a, b, num, den):
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (QQ.coerce(a), fa),
        (QQ.parse(str(a)), fa),
        (QQ.parse(f"{2 * num}/{2 * den}"), Fraction(num, den)),
        (QQ.add(a, b), fa + fb),
        (QQ.sub(a, b), fa - fb),
        (QQ.mul(a, b), fa * fb),
        (QQ.neg(a), -fa),
    ]
    if a:
        results.append((QQ.inv(a), 1 / fa))
    for got, want in results:
        assert is_normal_q(got) and got == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_q_matrix_results_are_in_normal_form(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    A = data.draw(q_matrices(shape=(n, k), entries=q_mixed))
    B = data.draw(q_matrices(shape=(k, m), entries=q_mixed))
    C = data.draw(q_matrices(shape=(n, m), entries=q_mixed))
    AB = A @ B
    outs = [AB, A.rref()[0], A.kernel_basis(), quotient(n, A)[1],
            Mat.from_rows(QQ, A.tolist()), AB + C, AB - C, -A,
            A.scale(Fraction(2))]
    X = A.solve_matrix(C)
    if X is not None:
        assert A @ X == C
        outs.append(X)
    S = A @ A.transpose()
    if S.is_invertible():
        outs.append(S.inverse())
    for M in outs:
        assert all(is_normal_q(x) for x in M.data)


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("bad", [2.7, 0.1, 2.0])
def test_coerce_refuses_floats(field, bad):
    with pytest.raises(TypeError):
        field.coerce(bad)
    with pytest.raises(TypeError):
        Mat.from_rows(field, [[bad, 1]])
    with pytest.raises(TypeError):
        Mat.column(field, [1, bad])
    with pytest.raises(TypeError):
        Mat.identity(field, 2).scale(bad)


def _in_row_space(M, row):
    """True iff ``row`` is a combination of the rows of M, with the
    combination checked by multiplying it back."""
    Mt = M.transpose()
    x = Mt.solve(row)
    if x is None:
        return False
    assert Mt @ Mat.column(M.field, x) == Mat.column(M.field, row)
    return True


@settings(max_examples=80, deadline=None)
@given(st.one_of(q_matrices(), fp_matrices()))
def test_rref_contract(A):
    R, piv = A.rref()
    F = A.field
    assert R.cols == A.cols and R.rows == len(piv)
    assert list(piv) == sorted(set(piv))
    for k, pc in enumerate(piv):
        row = R.row_list(k)
        assert not all(F.is_zero(x) for x in row)
        assert row[pc] == F.one()
        assert all(F.is_zero(x) for x in row[:pc])
        assert all(F.is_zero(R.get(i, pc)) for i in range(R.rows) if i != k)
    # the same row space: each row of A solves against R, and the reverse
    assert all(_in_row_space(R, A.row_list(i)) for i in range(A.rows))
    assert all(_in_row_space(A, R.row_list(k)) for k in range(R.rows))


@settings(max_examples=40, deadline=None)
@given(st.one_of(q_matrices(), fp_matrices()),
       st.lists(small, min_size=5, max_size=5))
def test_solve_roundtrip(A, xs):
    x = Mat.column(A.field, xs[:A.cols] + [0] * max(0, A.cols - len(xs)))
    b = A @ x
    sol = A.solve(b.col_list(0))
    assert sol is not None
    again = A @ Mat.column(A.field, sol)
    assert again == b


@settings(max_examples=40, deadline=None)
@given(q_matrices())
def test_image_basis_spans(A):
    I = A.image_basis()
    assert I.rank() == A.rank()
    # every original column solves against the image basis
    for j in range(A.cols):
        assert I.solve(A.col_list(j)) is not None


@settings(max_examples=30, deadline=None)
@given(q_matrices(maxdim=4))
def test_quotient_dimension_formula(A):
    dim, proj = quotient(A.rows, A)
    assert dim == A.rows - A.rank()
    assert (proj @ A).is_zero()
    assert proj.rank() == dim


@settings(max_examples=60, deadline=None)
@given(st.one_of(q_matrices(), fp_matrices()))
def test_quotient_is_the_reduction_of_unit_vectors(A):
    # column j of the projection is e_j reduced modulo the row space of the
    # rref R of A's transpose, read at R's free columns
    f = A.field
    R, piv = A.transpose().rref()
    free = [j for j in range(A.rows) if j not in piv]
    red = [linalg.reduce_mod_rowspace(
        R, piv, [f.one() if i == j else f.zero() for i in range(A.rows)], f)
        for j in range(A.rows)]
    dim, proj = quotient(A.rows, A)
    assert dim == len(free)
    assert proj == Mat(f, dim, A.rows, [red[j][fc] for fc in free
                                        for j in range(A.rows)])


def test_no_floats_anywhere():
    A = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    R, _ = A.rref()
    assert all(is_normal_q(x) for x in R.data)
    H = Mat.from_rows(QQ, [[Fraction(1, 2), 0], [0, Fraction(-2, 3)]])
    for P in (A @ A, A @ H, H @ Mat.zeros(QQ, 2, 3)):
        assert all(is_normal_q(x) for x in P.data)
    B = Mat.from_rows(F5, [[1, 2], [3, 4]])
    R5, _ = B.rref()
    assert all(isinstance(x, int) for x in R5.data)


def _fraction_rref(rows):
    """Reference Gauss-Jordan over Fraction: the nonzero rows of the rref
    and the pivot columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    piv, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                m = rows[i][c]
                rows[i] = [x - m * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    return rows[:r], piv


@pytest.mark.parametrize("rows", [
    # all-int rows only, with a dependent row
    [[2, 4, -6], [1, 3, 5], [3, 7, -1]],
    # all-int rows beside an integral Fraction(4, 2) row and a fractional one
    [[2, 0, 3], [Fraction(4, 2), Fraction(6, 3), 1], [Fraction(1, 2), 5, -7]],
    # a fractional row first, then an all-int row that needs no scaling
    [[Fraction(2, 3), Fraction(-1, 6), 0, 4], [0, 3, 9, -12],
     [Fraction(4, 2), 1, 1, 1]],
    # one integral Fraction row alone
    [[Fraction(8, 4), Fraction(-6, 2)]],
])
def test_q_rref_normal_forms_and_input_kept(rows):
    flat = [x for row in rows for x in row]
    kept = list(flat)
    out, piv = _kernels_py.q_rref(flat, len(rows), len(rows[0]))
    want_rows, want_piv = _fraction_rref(rows)
    assert piv == want_piv
    assert out == [x for row in want_rows for x in row]
    assert all(is_normal_q(x) for x in out)
    # the caller's list and its entries are untouched
    assert flat == kept and all(type(a) is type(b) for a, b in zip(flat, kept))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_q_rref_matches_fraction_elimination(data):
    r, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    # each row all ints or drawn from the mixed entries
    rows = [data.draw(st.lists(st.one_of(small, q_mixed) if data.draw(
        st.booleans()) else small, min_size=c, max_size=c)) for _ in range(r)]
    flat = [x for row in rows for x in row]
    kept = list(flat)
    out, piv = _kernels_py.q_rref(flat, r, c)
    want_rows, want_piv = _fraction_rref(rows)
    assert (out, piv) == ([x for row in want_rows for x in row], want_piv)
    assert all(is_normal_q(x) for x in out)
    assert flat == kept and all(type(a) is type(b) for a, b in zip(flat, kept))
