"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Scalars are ``fractions.Fraction`` values over Q and plain ints in
``0..p-1`` over GF(p).  No floating point is used anywhere.

Over Q, ``Field.zero()`` and ``Field.one()`` return the module constants
``Q_ZERO`` and ``Q_ONE`` instead of building a new ``Fraction`` per call;
Fractions are immutable, so sharing one object is safe.  ``q_rref`` emits
the same ``Q_ZERO`` for every zero entry, and ``q_matmul`` for every entry
with no nonzero product.
"""

from __future__ import annotations

from fractions import Fraction

Q_ZERO = Fraction(0)
Q_ONE = Fraction(1)


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
        return 0 if self.p else Q_ZERO

    def one(self):
        return 1 if self.p else Q_ONE

    def coerce(self, x):
        """Turn an int / Fraction / scalar-of-this-field into a scalar."""
        p = self.p
        if p == 0:
            return x if type(x) is Fraction else Fraction(x)
        if type(x) is int:
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes in GF(p)")
            return x.numerator * pow(den, p - 2, p) % p
        return int(x) % p

    def parse(self, text: str):
        """Parse a scalar literal: an integer or a fraction like ``-3/7``."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(text))
        return self.coerce(value)

    def to_str(self, x) -> str:
        return str(x)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0 in GF(p)")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

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
