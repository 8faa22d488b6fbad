"""Class numbers h, h*, and Hurwitz H, sums of three squares, and the
Upsilon counters.

Every class of a discriminant D < 0 has one reduced form, the form at its
topograph's well, and `reduce.reduced_forms` lists them in O(|D|) trial
divisions.  h*(D) counts that list, primitive and imprimitive forms alike;
h(D) counts its primitive forms; H(|D|) weighs the classes of j[1,1,1]
(|D| = 3j^2) and j[1,0,1] (|D| = 4j^2) by 1/3 and 1/2, the inverse orders
of their automorph groups modulo -1, and every other class by 1.

The tables give h* for every -limit <= D < 0 at once by counting wells.
Put n = |D| (D odd) or |D|/4 (D even); then h*(D) is

    2#{e>f>g>0 : ef+fg+ge=n} + #{e,f>0 : e^2+2ef=n} + #{e>=f>0 : ef=n}

with the last sum for even D only, and the first two restricted to all-odd
solutions for odd D.  For fixed (f, g) the sums over e > f form a
progression with stride f + g (2(f + g) all-odd), added as one numpy slice,
O(limit) slices in all.  Every class of D is k times a primitive class of
D/k^2 for exactly one k, so the table of h is

    h(D) = sum of mu(k) h*(D/k^2) over k^2 | D with D/k^2 a discriminant.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from .exact import DomainError, check_discriminant, is_square, isqrt
from .reduce import reduced_forms, zagier_classes

# H weighs the classes j[1,1,1] (|D| = 3j^2) and j[1,0,1] (|D| = 4j^2), which
# h* counts once, by the inverse orders of their automorph groups modulo -1
_AUT_WEIGHTS = ((3, Fraction(1, 3)), (4, Fraction(1, 2)))


def _factor(m):
    """The pairs (p, e) of the prime factorization of m >= 1, p ascending,
    by trial division."""
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e
        p += 1
    if m > 1:
        yield m, 1


def euler_phi(m):
    if m <= 0:
        raise DomainError("phi of non-positive integer")
    out = m
    for p, _ in _factor(m):
        out -= out // p
    return out


def moebius_mu(m):
    if m <= 0:
        raise DomainError("moebius_mu of non-positive integer")
    out = 1
    for _, e in _factor(m):
        if e > 1:
            return 0
        out = -out
    return out


def _check_limit(limit):
    if limit < 0:
        raise DomainError("table limit must be >= 0")


def _hurwitz_weight(n, count):
    """H(n) from the class count h*(-n)."""
    for c, w in _AUT_WEIGHTS:
        if n % c == 0 and is_square(n // c):
            return count - 1 + w
    return Fraction(count)


def h_neg(D):
    """Primitive class number of a negative discriminant."""
    return sum(1 for a, b, c in reduced_forms(D) if gcd(a, b, c) == 1)


def hurwitz(n):
    """Hurwitz class number H(n) for n > 0, n = 0 or 3 mod 4 (n = |D|)."""
    if n <= 0:
        raise DomainError("hurwitz needs n > 0")
    if n % 4 not in (0, 3):
        raise DomainError("hurwitz needs n = 0 or 3 mod 4")
    return _hurwitz_weight(n, hstar_neg(-n))


def hstar_neg(D):
    """Number of all (primitive and imprimitive) classes of D < 0."""
    return sum(1 for _ in reduced_forms(D))


def h_square(D):
    """(h, h*) for a perfect-square discriminant; h*(0) is reported as None
    (there are infinitely many classes of discriminant zero)."""
    if D < 0 or not is_square(D):
        raise DomainError("h_square needs a perfect square >= 0")
    if D == 0:
        return 1, None
    m = isqrt(D)
    return euler_phi(m), m


def h_pos(D):
    """Primitive class count for non-square D > 0: the number of Zagier
    cycles among the primitive Z-reduced forms, each form visited once."""
    if D <= 0 or is_square(D):
        raise DomainError("h_pos needs non-square D > 0")
    check_discriminant(D)
    return len(zagier_classes(D))


# ------------------------------------------------------ sums of three squares

def r3(n):
    """Number of (x,y,z) in Z^3 with x^2+y^2+z^2 = n, brute force."""
    if n < 0:
        raise DomainError("r3 needs n >= 0")
    total = 0
    sx = isqrt(n)
    for x in range(-sx, sx + 1):
        rem_x = n - x * x
        sy = isqrt(rem_x)
        for y in range(-sy, sy + 1):
            rem = rem_x - y * y
            z = isqrt(rem)
            if z * z == rem:
                total += 1 if z == 0 else 2
    return total


def r3_primitive(n):
    """Same count restricted to gcd(x,y,z) = 1, by Moebius inversion of
    r3(n) = sum of r3_primitive(n/g^2) over g^2 | n."""
    if n < 0:
        raise DomainError("r3 needs n >= 0")
    return sum(moebius_mu(g) * r3(n // (g * g))
               for g in range(1, isqrt(n) + 1) if n % (g * g) == 0)


def r3_via_class(n):
    """r3 by the Hurwitz class-number formula (with the n/4 recursion)."""
    if n <= 0:
        raise DomainError("needs n >= 1")
    if n % 4 == 0:
        return r3_via_class(n // 4)
    if n % 8 == 7:
        return 0
    if n % 8 == 3:
        v = 12 * (hurwitz(4 * n) - 2 * hurwitz(n))
    else:
        v = 12 * hurwitz(4 * n)
    assert v.denominator == 1
    return int(v)


def r3p_via_class(n):
    """Primitive r3 by the class-number formula, valid for n > 3."""
    if n <= 3:
        raise DomainError("formula needs n > 3")
    m = n % 8
    if m in (0, 4, 7):
        return 0
    if m == 3:
        return 12 * (h_neg(-4 * n) - h_neg(-n))
    return 12 * h_neg(-4 * n)


def upsilon(n):
    """Ordered nonnegative solutions of ef+fg+ge = n, zero coordinates
    weighted 1/2."""
    if n <= 0:
        raise DomainError("needs n >= 1")
    total = Fraction(0)
    for e in range(0, n + 1):
        fmax = n if e == 0 else n // e
        for f in range(0, fmax + 1):
            if e + f == 0:
                continue
            rem = n - e * f
            if rem < 0:
                break
            if rem % (e + f):
                continue
            g = rem // (e + f)
            total += Fraction(1, 2) if 0 in (e, f, g) else 1
    return total


def upsilon_odd(n):
    """Ordered positive all-odd solutions of ef+fg+ge = n."""
    if n <= 0:
        raise DomainError("needs n >= 1")
    total = 0
    for e in range(1, n + 1, 2):
        for f in range(1, n // e + 1, 2):
            rem = n - e * f
            if rem < 0:
                break
            if rem % (e + f):
                continue
            g = rem // (e + f)
            if g > 0 and g % 2 == 1:
                total += 1
    return total


# -------------------------------------------------------------- batch tables

def _wells_table(limit):
    """h*(D) for every -limit <= D < 0 as an int64 array indexed by |D|, 0
    where D is no discriminant."""
    odd = np.zeros(limit + 1, np.int64)  # all-odd wells of n = |D|
    even = np.zeros(limit // 4 + 1, np.int64)  # all wells of n = |D|/4
    for sums, step in ((odd, 2), (even, 1)):
        top = len(sums) - 1
        g = 1
        while 3 * g * g < top:
            # ef+fg+ge = fg + e(f+g) over e > f > g
            f = g + step
            s = f * g + (f + step) * (f + g)
            while s <= top:
                sums[s::step * (f + g)] += 2
                f += step
                s = f * g + (f + step) * (f + g)
            g += step
        e = 1
        while e * e + 2 * e <= top:  # e^2 + 2ef over f > 0
            sums[e * e + 2 * e::2 * step * e] += 1
            e += step
    for f in range(1, isqrt(limit // 4) + 1):  # ef over e >= f
        even[f * f::f] += 1
    # all-odd sums are 3 mod 4, so the slots 0 mod 4 are free for even D
    odd[::4] = even
    return odd


def h_neg_table(limit):
    """h(D) for every discriminant -limit <= D < 0 in one shared sweep."""
    _check_limit(limit)
    hstar = _wells_table(limit)
    h = hstar.copy()
    for k in range(2, isqrt(limit) + 1):
        mu = moebius_mu(k)
        if mu:
            h[k * k::k * k] += mu * hstar[1:limit // (k * k) + 1]
    h = h.tolist()
    return {D: h[-D] for D in range(-limit, 0) if D % 4 in (0, 1)}


def hurwitz_table(nmax):
    """H(n) for every valid 0 < n <= nmax in one shared sweep."""
    _check_limit(nmax)
    hstar = _wells_table(nmax).tolist()
    # one Fraction per distinct count, shared, since Fraction is immutable
    frac = {c: Fraction(c) for c in set(hstar)}
    out = {n: frac[hstar[n]] for n in range(1, nmax + 1) if n % 4 in (0, 3)}
    # the exceptional n = 3j^2 and 4j^2 of _hurwitz_weight, all 0 or 3 mod 4
    for c, w in _AUT_WEIGHTS:
        for j in range(1, isqrt(nmax // c) + 1):
            out[c * j * j] = hstar[c * j * j] - 1 + w
    return out
