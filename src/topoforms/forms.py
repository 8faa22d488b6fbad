"""Quadratic forms [a,b,c], unimodular matrices, the substitution action q|M,
exact roots, and the elementary topograph moves L, R, S, U.  Forms, matrices
and root pairs are named tuples: they unpack, index, compare and hash as
plain tuples, and they copy and pickle.  So is every result record of the
package, from `ReductionResult` to `CFExpansion`."""

from collections import namedtuple
from math import gcd

from .exact import INF, DomainError, Rat, Surd, is_square, isqrt


class QuadForm(namedtuple("QuadForm", "a b c")):
    """The form a x^2 + b x y + c y^2, stored as the triple (a, b, c)."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        return tuple.__new__(cls, (int(a), int(b), int(c)))

    _make = classmethod(lambda cls, items: cls(*items))  # _replace checks too

    def discriminant(self):
        a, b, c = self
        return b * b - 4 * a * c

    def content(self):
        a, b, c = self
        return gcd(gcd(a, b), c)

    def __neg__(self):
        return QuadForm(-self[0], -self[1], -self[2])

    def __call__(self, x, y):
        a, b, c = self
        return a * x * x + b * x * y + c * y * y

    def __repr__(self):
        return f"[{self[0]},{self[1]},{self[2]}]"


def _mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


class UniMat(namedtuple("UniMat", "alpha beta gamma delta")):
    """2x2 integer matrix (alpha, beta; gamma, delta) of determinant +-1."""

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma, delta):
        m = tuple.__new__(cls, (int(alpha), int(beta), int(gamma), int(delta)))
        if m.det() not in (1, -1):
            raise DomainError(f"matrix {m} is not unimodular")
        return m

    _make = classmethod(lambda cls, items: cls(*items))  # _replace checks too

    def det(self):
        return self[0] * self[3] - self[1] * self[2]

    def __matmul__(self, other):
        return UniMat(*_mul(self, other))

    def inverse(self):
        a, b, c, d = self
        det = self.det()  # det * adj(M), as det = 1/det
        return UniMat(det * d, -det * b, -det * c, det * a)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = ID
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def __repr__(self):
        return f"({self[0]} {self[1]}; {self[2]} {self[3]})"


ID = UniMat(1, 0, 0, 1)
MAT_L = UniMat(1, 1, 0, 1)
MAT_R = UniMat(1, 0, 1, 1)
MAT_S = UniMat(0, -1, 1, 0)
MAT_U = UniMat(1, -1, 1, 0)


def act(q, m, allow_flip=False):
    """The right action q|M = q(alpha x + beta y, gamma x + delta y)."""
    det = m.det()
    if det == 0:
        raise DomainError("singular matrix")
    if det == -1 and not allow_flip:
        raise DomainError("determinant -1 needs the wide-sense entry point")
    a, b, c = q
    al, be, ga, de = m
    return QuadForm(
        a * al * al + b * al * ga + c * ga * ga,
        2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de,
        a * be * be + b * be * de + c * de * de,
    )


class Roots(namedtuple("Roots", "first second")):
    """Pair (first, second) of exact roots of q(x,1)=0; entries are Rat,
    Surd, or the infinite Rat."""

    __slots__ = ()
    __repr__ = tuple.__repr__


def roots(q):
    """First and second roots zeta, zeta' of q; a=0 assigns -c/b and infinity
    by the sign of b, and b=0 there gives a double root at infinity."""
    a, b, c = q
    if a == 0 and b == 0 and c == 0:
        raise DomainError("zero form has no roots")
    D = q.discriminant()
    if a == 0:
        if b == 0:
            return Roots(INF, INF)
        val = Rat(-c, b)
        if b > 0:
            return Roots(val, INF)
        return Roots(INF, val)
    if is_square(D):
        m = isqrt(D)
        return Roots(Rat(-b + m, 2 * a), Rat(-b - m, 2 * a))
    return Roots(Surd(-b, 1, 2 * a, D), Surd(-b, -1, 2 * a, D))


def mobius(m, x):
    """Fractional-linear action (alpha x + beta)/(gamma x + delta) on a Rat,
    Surd, or infinity."""
    al, be, ga, de = m
    if isinstance(x, Rat):  # +-1/0 too, as (+-1)/0
        return Rat(al * x.num + be * x.den, ga * x.num + de * x.den)
    num = x * al + be
    den = x * ga + de
    if den.is_zero():
        return INF
    return num * den.invert()


def _run_product(word):
    # the product of a few letters, one letter at a time
    al, be, ga, de = 1, 0, 0, 1
    for letter, e in word:
        if letter == "L":
            be, de = al * e + be, ga * e + de
        elif letter == "R":
            al, ga = al + be * e, ga + de * e
        elif letter == "S":
            for _ in range(e % 4):  # S^4 = I
                al, be, ga, de = be, -al, de, -ga
        else:
            raise DomainError(f"unknown letter {letter!r}")
    return al, be, ga, de


def turn_sequence_matrix(word):
    """Product of the word's letters: L^a0 R^a1 ..., and S^e for (S, e).

    Runs of 16 letters are multiplied one letter at a time, and the runs'
    products pairwise, level by level, so that a long word whose product
    has large entries costs a few full-size products rather than one per
    letter."""
    word = list(word)
    mats = [_run_product(word[i:i + 16]) for i in range(0, len(word), 16)]
    while len(mats) > 1:
        pairs = iter(mats)
        paired = list(map(_mul, pairs, pairs))
        if len(mats) % 2:
            paired.append(mats[-1])
        mats = paired
    # a product of letters is unimodular by construction
    return tuple.__new__(UniMat, mats[0]) if mats else ID


def content_split(q):
    g = q.content()
    if g == 0:
        raise DomainError("zero form")
    return g, QuadForm(q[0] // g, q[1] // g, q[2] // g)
