"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Scalars are plain ints in ``0..p-1`` over GF(p).  Over Q a scalar is kept
in normal form: a Python ``int`` when its denominator is 1, and a reduced
``fractions.Fraction`` otherwise.  Python's numeric tower makes the two
interoperate exactly (``Fraction(3) == 3``, equal hashes, ``str`` gives
``"3"`` for both), so the normal form changes no value and no report byte.
What it changes is cost: the integer entries, which are almost all of them
on every workload, pay for int arithmetic instead of Fraction's Python-level
normalisation.  ``coerce``, ``parse``, ``inv`` and the four arithmetic
operations return normal forms for any exact input, an integral
``Fraction(4, 2)`` included.  No floating point is used anywhere:
``coerce`` refuses a float (or any other non-rational) with ``TypeError``.

Zero and one are the ints 0 and 1 over every field.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def q_normal(x: Fraction):
    """The normal form of a rational: its numerator if it is integral."""
    return x.numerator if x.denominator == 1 else x


# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson and Webster 2017, "Strong pseudoprimes to twelve prime
# bases"); larger characteristics are refused rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < PRIME_LIMIT."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The base field: Q (``p == 0``) or GF(p) for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p >= PRIME_LIMIT:
            raise ValueError(f"characteristic must be below {PRIME_LIMIT}, "
                             f"got {p}")
        if p and not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p

    @classmethod
    def rationals(cls) -> "Field":
        return cls(0)

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(p)

    @property
    def characteristic(self) -> int:
        return self.p

    # -- scalar construction -------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        """Turn an exact rational (int, Fraction or any ``numbers.Rational``)
        into a scalar of this field; a float or anything else raises
        ``TypeError`` rather than being rounded."""
        p = self.p
        if type(x) is int:
            return x % p if p else x
        if type(x) is not Fraction:
            if not isinstance(x, Rational):
                raise TypeError(f"not an exact rational scalar: {x!r}")
            x = Fraction(x.numerator, x.denominator)
        if p == 0:
            return q_normal(x)
        den = x.denominator % p
        if den == 0:
            raise ZeroDivisionError("denominator vanishes in GF(p)")
        return x.numerator * pow(den, p - 2, p) % p

    def parse(self, text: str):
        """Parse a scalar literal: an integer or a fraction like ``-3/7``."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.coerce(Fraction(int(num), int(den)))
        return self.coerce(int(text))

    def to_str(self, x) -> str:
        return str(x)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if self.p:
            return (a + b) % self.p
        c = a + b
        return c if type(c) is int else q_normal(c)

    def sub(self, a, b):
        if self.p:
            return (a - b) % self.p
        c = a - b
        return c if type(c) is int else q_normal(c)

    def mul(self, a, b):
        if self.p:
            return (a * b) % self.p
        c = a * b
        return c if type(c) is int else q_normal(c)

    def neg(self, a):
        if self.p:
            return (-a) % self.p
        return -a if type(a) is int else q_normal(-a)

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0 in GF(p)")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return q_normal(1 / Fraction(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return (a % self.p == 0) if self.p else a == 0

    def sign_pow(self, k: int):
        """(-1)**k as a scalar; the sign that shift-by-k puts on differentials."""
        return self.one() if k % 2 == 0 else self.neg(self.one())

    # ------------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p == 0 else f"GF({self.p})"


QQ = Field.rationals()
