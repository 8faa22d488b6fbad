"""Exact integer, rational and quadratic-surd arithmetic.

Everything downstream (reduction, rivers, Pell) runs on the types in this
module; no floating point is involved until the series module rounds
exact integer labels to doubles.
"""

import math
from functools import total_ordering
from math import gcd


class DomainError(ValueError):
    """Raised when an argument is outside an operation's stated domain."""


def check_discriminant(D):
    if D % 4 not in (0, 1):
        raise DomainError("discriminant must be 0 or 1 mod 4")


def isqrt(n):
    # floor square root, exact for any size
    if n < 0:
        raise DomainError("isqrt of negative number")
    return math.isqrt(n)


def is_square(n):
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@total_ordering
class Rat:
    """Rational num/den with den >= 0; den == 0 encodes the infinities +-1/0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = int(num)
        den = int(den)
        if den == 0:
            if num == 0:
                raise DomainError("0/0 is not a Rat")
            num = 1 if num > 0 else -1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            num //= g
            den //= g
        self.num = num
        self.den = den

    def is_infinite(self):
        return self.den == 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = Rat(other)
        if not isinstance(other, Rat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # an integral Rat equals its int, so it hashes like it
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def __lt__(self, other):
        if isinstance(other, int):
            other = Rat(other)
        if self.den and other.den:
            return self.num * other.den < other.num * self.den
        # -1/0 < every finite value < +1/0: a finite value counts as 0
        return (0 if self.den else self.num) < (0 if other.den else other.num)

    def _require_finite(self):
        if self.is_infinite():
            raise DomainError("arithmetic on infinity")

    def __add__(self, other):
        if isinstance(other, int):
            other = Rat(other)
        self._require_finite()
        other._require_finite()
        return Rat(self.num * other.den + other.num * self.den,
                   self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Rat(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Rat(other)
        self._require_finite()
        other._require_finite()
        return Rat(self.num * other.num, self.den * other.den)

    def invert(self):
        # the constructor takes 0 to +1/0, and +-1/0 to 0
        return Rat(self.den, self.num)

    def floor(self):
        self._require_finite()
        return self.num // self.den

    def __float__(self):
        self._require_finite()
        return self.num / self.den

    def __repr__(self):
        if self.den == 0:
            return "inf" if self.num > 0 else "-inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


INF = Rat(1, 0)
NEG_INF = Rat(-1, 0)


class Surd:
    """Quadratic number (p + q*sqrt(d))/r in canonical form: r>0, gcd(p,q,r)=1.

    d must be a fixed non-square radicand; for d<0 the value is complex with
    imaginary part of the sign of q.  All arithmetic stays in one field, so
    mixing radicands is a domain error.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p, q, r, d):
        if r == 0:
            raise DomainError("Surd with zero denominator")
        if is_square(d):
            raise DomainError("Surd radicand must be non-square")
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(p, q), r)
        self.p = p // g
        self.q = q // g
        self.r = r // g
        self.d = d

    def key(self):
        return (self.p, self.q, self.r, self.d)

    def __eq__(self, other):
        if not isinstance(other, Surd):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_zero(self):
        return self.p == 0 and self.q == 0

    def is_rational(self):
        return self.q == 0

    def _check(self, other):
        if self.d != other.d:
            raise DomainError("mixed radicands")

    def __add__(self, other):
        if isinstance(other, int):
            return Surd(self.p + other * self.r, self.q, self.r, self.d)
        if isinstance(other, Rat):
            other._require_finite()
            return Surd(self.p * other.den + other.num * self.r,
                        self.q * other.den, self.r * other.den, self.d)
        self._check(other)
        return Surd(self.p * other.r + other.p * self.r,
                    self.q * other.r + other.q * self.r,
                    self.r * other.r, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Surd(-self.p, -self.q, self.r, self.d)

    def __mul__(self, other):
        if isinstance(other, int):
            return Surd(self.p * other, self.q * other, self.r, self.d)
        if isinstance(other, Rat):
            other._require_finite()
            return Surd(self.p * other.num, self.q * other.num,
                        self.r * other.den, self.d)
        self._check(other)
        return Surd(self.p * other.p + self.q * other.q * self.d,
                    self.p * other.q + self.q * other.p,
                    self.r * other.r, self.d)

    def conj(self):
        return Surd(self.p, -self.q, self.r, self.d)

    def invert(self):
        # 1/((p+q sqrt d)/r) = r (p - q sqrt d) / (p^2 - q^2 d)
        if self.is_zero():
            raise DomainError("inverting zero")
        n = self.p * self.p - self.q * self.q * self.d
        return Surd(self.r * self.p, -self.r * self.q, n, self.d)

    def floor(self):
        return surd_floor(self)

    def __float__(self):
        return (self.p + self.q * math.sqrt(self.d)) / self.r

    def __repr__(self):
        return f"({self.p}+{self.q}*sqrt({self.d}))/{self.r}"


def finite_float(x):
    """float(x), or None where x lies beyond float range."""
    try:
        v = float(x)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def surd_floor(x):
    """Exact floor of a real surd (or of its rational part when q=0)."""
    if x.q == 0:
        return x.p // x.r
    if x.d < 0:
        raise DomainError("floor of a complex surd")
    s = x.q * x.q * x.d
    rt = math.isqrt(s)
    if x.q > 0:
        t = x.p + rt  # floor(p + q sqrt d) since q sqrt d irrational
    else:
        t = x.p - rt - 1  # -q sqrt d, irrational so always rounds down
    return t // x.r

