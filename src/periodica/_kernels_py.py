"""Elimination kernels: products and reduced row echelon forms.

Matrices are flat row-major lists: Python ints in [0, p) over GF(p), or
rationals in the normal form of ``fields`` over Q (an ``int`` when the
denominator is 1, a reduced ``Fraction`` otherwise).  Every kernel is exact
for any p.  The Q kernels accept any exact entries, an integral
``Fraction(4, 2)`` included, and return normal forms.

``q_rref`` does all its arithmetic on Python ints: it takes a row of ints
as it is (a copy of it) and scales every other row by the lcm of its
denominators, runs a fraction-free cross-multiplication sweep with gcd
cleanup and returns ``x // pivot`` where the pivot divides ``x``, building
a ``Fraction(x, pivot)`` only where it does not.
``q_matmul`` multiplies the entries as they are (int products wherever both
factors are ints, which is almost everywhere) and skips zero factors; an
integral ``Fraction`` sum is folded to its numerator.
"""

from fractions import Fraction
from math import gcd, lcm

from .fields import q_normal


def fp_matmul(a, b, n, k, m, p):
    """Flat row-major product of an n*k and a k*m matrix over GF(p)."""
    out = [0] * (n * m)
    for i in range(n):
        ai = i * k
        oi = i * m
        for t in range(k):
            x = a[ai + t]
            if x:
                bt = t * m
                for j in range(m):
                    out[oi + j] = (out[oi + j] + x * b[bt + j]) % p
    return out


def q_matmul(a, b, n, k, m):
    """Flat row-major product of exact rational matrices."""
    out = [0] * (n * m)
    for i in range(n):
        ai = i * k
        oi = i * m
        for t in range(k):
            x = a[ai + t]
            if x:
                bt = t * m
                for j in range(m):
                    if b[bt + j]:
                        out[oi + j] += x * b[bt + j]
    return [y if type(y) is int else q_normal(y) for y in out]


def fp_rref(flat, nrows, ncols, p):
    """Reduced row echelon form over GF(p).

    Returns ``(rows, pivots)`` where ``rows`` is a flat row-major list holding
    only the nonzero rows (pivot entries 1, pivot columns cleared).
    """
    rows = [list(flat[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] % p:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        inv = pow(prow[c], p - 2, p)
        for j in range(c, ncols):
            prow[j] = prow[j] * inv % p
        for i in range(nrows):
            if i == r:
                continue
            v = rows[i][c] % p
            if v:
                ri = rows[i]
                for j in range(c, ncols):
                    ri[j] = (ri[j] - v * prow[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for i in range(len(pivots)):
        out.extend(rows[i])
    return out, pivots


def q_rref(flat, nrows, ncols):
    """Reduced row echelon form over Q, fraction-free in the middle.

    Same contract as :func:`fp_rref`; entries of the result are in normal
    form.
    """
    rows = []
    for i in range(nrows):
        seg = flat[i * ncols:(i + 1) * ncols]      # a copy: rows are mutated
        if all(type(x) is int for x in seg):
            rows.append(seg)
            continue
        den = 1
        for x in seg:
            den = lcm(den, x.denominator)
        rows.append([x.numerator * (den // x.denominator) for x in seg])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            v = rows[i][c]
            if v:
                ri = rows[i]
                # full-row update: rows above the pivot carry entries left of c
                for j in range(ncols):
                    ri[j] = pv * ri[j] - v * prow[j]
                g = 0
                for j in range(ncols):
                    g = gcd(g, ri[j])
                    if g == 1:
                        break
                if g > 1:
                    for j in range(ncols):
                        ri[j] //= g
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for i, c in enumerate(pivots):
        prow = rows[i]
        pv = prow[c]
        out.extend(x // pv if x % pv == 0 else Fraction(x, pv) for x in prow)
    return out, pivots
