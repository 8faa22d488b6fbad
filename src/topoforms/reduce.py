"""Reduction procedures for every discriminant regime, the list of reduced
definite forms, the Gauss and Zagier steps, the Omega_D parametrization of
Zagier-reduced forms, and the divisor kernel that lists every form
[a, b, c] with ac = |b^2 - D|/4.

The cycles of a non-square D > 0 class are read off one period of its
river in whole blocks, `topograph.period_blocks` (Zagier, Zetafunktionen
und quadratische Koerper, 1981; Buchmann-Vollmer, Binary Quadratic Forms,
2007, ch. 6).  Every river edge f = [a, b, c] has a > 0 > c, and

1. the simply reduced forms are the first edges of the river's blocks;
2. the G-reduced forms are those edges too, an R block's as it is and an
   L block's as its S image [c, -b, a]; a Gauss step moves each to the
   next in river order;
3. the Z-reduced forms are the L children f|L = [a, b + 2a, a + b + c] of
   the edges f that come just before an R turn; a Zagier step moves each
   to the one before it in river order.
"""

from functools import partial
from typing import NamedTuple

from .exact import DomainError, check_discriminant, is_square, isqrt
from .forms import QuadForm, UniMat, turn_sequence_matrix
from .topograph import (_quad_form, definite_blocks, floor_root,
                        is_reduced_neg, period_blocks, river_walk,
                        square_reduction)


class ReductionResult(NamedTuple):
    canonical: object  # QuadForm, or tuple of QuadForm for cycles
    transform: UniMat  # act(input, transform) == first canonical form
    steps: tuple  # (letter, k) blocks whose product is transform
    negated: bool = False  # set when a negative definite input was negated


class OmegaEntry(NamedTuple):
    a: int
    k: int


# ---------------------------------------------------------------- predicates

def is_reduced_square(q):
    a, b, c = q
    return a == 0 and b > 0 and b * b == q.discriminant() and 0 < c <= b


def is_simple(q):
    a, _, c = q
    return a > 0 > c


def is_simply_reduced(q):
    a, b, c = q
    return a > 0 > c and abs(a + c) < abs(b)


def is_g_reduced(q):
    a, b, c = q
    return a * c < 0 and abs(a + c) < b


def is_z_reduced(q):
    a, b, c = q
    return a > 0 and c > 0 and b > a + c


def is_zstar_reduced(q):
    a, b, c = q
    return a > 0 and c > 0 and a + b + c < 0


# ----------------------------------------------------------------- negative

def reduce_negative(q):
    """Unique reduced representative of a definite class, with an exact
    matrix certificate and the turn word that found it."""
    if q.discriminant() >= 0:
        raise DomainError("reduce_negative needs negative discriminant")
    negated = q.a < 0
    # the walk into F' ends on the reduced form or on its S image
    steps, (a, b, c) = definite_blocks(-q if negated else q)
    if not is_reduced_neg((a, b, c)):
        steps.append(("S", 1))
        a, b, c = c, -b, a
    return ReductionResult(QuadForm(a, b, c), turn_sequence_matrix(steps),
                           tuple(steps), negated)


def reduced_forms(D):
    """Every reduced form of a discriminant D < 0, imprimitive included, as
    int triples (a, b, c): |b| <= a <= c, with b >= 0 when |b| = a or a = c.
    Each class of D has one, the form at its topograph's well (Cohen,
    GTM 138, Sec. 5.3).  From 4ac - b^2 = |D| >= 3b^2, b^2 <= |D|/3, and a
    runs over the divisors of (b^2 - D)/4 from max(|b|, 1) up to the
    square root.  A generator: a D out of domain raises DomainError on the
    first step."""
    if D >= 0:
        raise DomainError("needs D < 0")
    check_discriminant(D)
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        n = (b * b - D) // 4
        for a in [a for a in range(max(b, 1), isqrt(n) + 1) if n % a == 0]:
            c = n // a
            yield a, b, c
            if 0 < b < a < c:
                yield a, -b, c


# ------------------------------------------------------------------- square

def reduce_square(q):
    """Reduce a square-discriminant form to [0,m,c] with 0 < c <= m by the
    two-leg walk: first root to the right lake, second root back."""
    D = q.discriminant()
    if D <= 0 or not is_square(D):
        raise DomainError("reduce_square needs a positive square discriminant")
    steps, canonical = square_reduction(q)
    return ReductionResult(canonical, turn_sequence_matrix(steps),
                           tuple(steps))


# ------------------------------------------------------------- simple cycle

def reduce_simple_cycle(q):
    """The full river cycle of simply reduced forms of a non-square D > 0
    class, rotated to start at the lexicographically least (a,b,c)."""
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("reduce_simple_cycle needs non-square D > 0")
    root, word, starts = river_walk(q)
    # rule 1: the block starts, but the entry where the period from it
    # wraps inside a block
    first = int(word[0][0] == word[-1][0])
    i = starts.index(min(starts[first:]), first)
    steps = root + word[:i]
    cycle = tuple(map(_quad_form, starts[i:] + starts[first:i]))
    return ReductionResult(cycle, turn_sequence_matrix(steps), steps)


# ------------------------------------------------------- Gauss and Zagier

def _stepping_isqrt(q, name):
    # isqrt(D) for the Gauss and Zagier steps, which need non-square D > 0;
    # there a and c are never 0, since ac = 0 would make D = b^2
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError(f"{name} needs non-square D > 0")
    return isqrt(D)


def gauss_step(q):
    s = _stepping_isqrt(q, "gauss_step")
    a, b, c = q
    # k = sgn(c) floor((b + sqrt(D)) / (2|c|)), and q | (0 -1; 1 k)
    k = floor_root(b, 2 * abs(c), s) * (1 if c > 0 else -1)
    return QuadForm(c, 2 * c * k - b, (c * k - b) * k + a)


def zagier_step(q):
    s = _stepping_isqrt(q, "zagier_step")
    a, b, c = q
    # k = ceil((b + sqrt(D)) / (2a)), where (b + sqrt(D)) / (2a) is
    # irrational, and q | (k 1; -1 0)
    k = floor_root(b, 2 * a, s) + 1
    return QuadForm(a * k * k - b * k + c, 2 * a * k - b, a)


def _rotated(cycle, first):
    # the cycle as a tuple that starts at its form `first`
    i = cycle.index(first)
    return tuple(cycle[i:] + cycle[:i])


def _z_cycle(blocks):
    # f|L = [a, b + 2a, a + b + c] for every edge f of every R block, in
    # reverse river order
    cycle = []
    for letter, k, (a, b, c) in blocks:
        if letter == "R":
            for _ in range(k):
                cycle.append(_quad_form((a, b + 2 * a, a + b + c)))
                a, b = a + b + c, b + 2 * c
    cycle.reverse()
    return cycle


def gauss_cycle(q):
    """The G-reduced cycle of q's class, canonically rotated; by rule 2
    the first forms of its river's blocks in river order, each L block's
    as its S image."""
    _stepping_isqrt(q, "gauss_step")
    cycle = [f if letter == "R" else _quad_form((f[2], -f[1], f[0]))
             for letter, _, f in period_blocks(q)]
    return _rotated(cycle, min(cycle))


def zagier_cycle(q):
    """The Z-reduced cycle of q's class, canonically rotated; by rule 3
    f|L for every edge f of its river's R blocks, in reverse river order."""
    _stepping_isqrt(q, "zagier_step")
    cycle = _z_cycle(period_blocks(q))
    return _rotated(cycle, min(cycle))


def _class_rivers(D):
    """For each primitive class of a non-square D > 0, its river period in
    whole blocks, walked once from the class's first Z-reduced form in
    z_forms order, and its Zagier cycle in stepping order from that form."""
    import numpy as np
    a, k, c = _omega(D)
    rows = np.stack((a, 2 * a - k, c))
    seen = set()
    for row in map(tuple, rows[:, np.gcd.reduce(rows) == 1].T.tolist()):
        if row not in seen:
            start = _quad_form(row)
            _stepping_isqrt(start, "zagier_step")
            blocks = period_blocks(start)
            cycle = _rotated(_z_cycle(blocks), start)
            seen.update(cycle)
            yield blocks, cycle


def zagier_classes(D):
    """The primitive Z-reduced forms of a non-square D > 0, one Zagier cycle
    per primitive class, each in stepping order from its first form in
    z_forms order; every class's river is walked once."""
    return [cycle for _, cycle in _class_rivers(D)]


# ------------------------------------------------------------ divisor kernel

def _primes(n):
    """The primes up to n, by the sieve of Eratosthenes."""
    import numpy as np
    sieve = np.ones(max(n + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def _sqrt_mod(n, p):
    """A square root of the quadratic residue n modulo an odd prime p, by
    Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots(D, primes):
    """The pairs (p, r), r the roots of b^2 = D mod p, for odd primes p:
    +-m for D = m^2, Tonelli-Shanks otherwise, the one root 0 for p | D."""
    import numpy as np
    if D > 0 and is_square(D):
        m = isqrt(D)
        r1, r2 = m % primes, -m % primes
        two = r2 != r1
        return (np.concatenate((primes, primes[two])),
                np.concatenate((r1, r2[two])))
    ps, rs = [], []
    for p in primes.tolist():
        n = D % p
        if n == 0:
            ps.append(p)
            rs.append(0)
        elif pow(n, (p - 1) // 2, p) == 1:
            r = _sqrt_mod(n, p)
            ps += (p, p)
            rs += (r, p - r)
    return np.array(ps, dtype=np.int64), np.array(rs, dtype=np.int64)


def divisor_rows(D, start, stop):
    """Every form [a, b, c] with ac = |b^2 - D|/4 and a > 0, for b in
    range(start, stop, 2), as int64 arrays (b, a, c): one row per positive
    divisor a of |b^2 - D|/4, in an order fixed by the arguments.

    The values are factored by sieving with the primes p up to the square
    root of the largest one, on the roots of b^2 = D mod p; p = 2 comes from
    the values' low bits, prime powers by repeated division on the hit
    indices, and what the sieve leaves is 1 or a prime.  The divisors of
    every value are then expanded together, one prime factor at a time."""
    import numpy as np
    check_discriminant(D)
    if start % 2 != D % 2:
        raise DomainError("b must have the parity of D")
    b = np.arange(start, max(start, stop), 2, dtype=np.int64)
    v = np.abs(b * b - D) // 4
    if not v.all():
        raise DomainError("b^2 = D gives no divisor rows")
    n = len(b)
    if n == 0:
        return b, b.copy(), b.copy()
    # the hits of the odd primes: index i with start + 2i = r mod p, where
    # (p + 1)/2 is the inverse of 2
    p, r = _roots(D, _primes(isqrt(int(v.max())))[1:])
    first = (r - start) % p * ((p + 1) // 2) % p
    hits = np.maximum((n - first + p - 1) // p, 0)
    p = np.repeat(p, hits)
    row = np.repeat(first, hits) + p * (
        np.arange(len(p)) - np.repeat(np.cumsum(hits) - hits, hits))
    e = np.ones(len(p), dtype=np.int64)
    rest = v[row] // p
    live = np.flatnonzero(rest % p == 0)
    while live.size:
        rest[live] //= p[live]
        e[live] += 1
        live = live[rest[live] % p[live] == 0]
    # p = 2 from the low bit, then the cofactor, 1 or a prime
    e2 = np.frexp(v & -v)[1] - 1
    rest = v >> e2
    np.floor_divide.at(rest, row, p ** e)
    two, big = np.flatnonzero(e2), np.flatnonzero(rest > 1)
    row = np.concatenate((two, row, big))
    p = np.concatenate((np.full(len(two), 2), p, rest[big]))
    e = np.concatenate((e2[two], e, np.ones(len(big), dtype=np.int64)))
    # the factors of each row, by exponent, the largest last
    order = np.argsort(row * 64 + e)
    row, p, e = row[order], p[order], e[order]
    nfac = np.bincount(row, minlength=n)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(nfac) - nfac, nfac)
    ndiv = np.ones(n, dtype=np.int64)
    np.multiply.at(ndiv, row, e + 1)
    # the divisors, built up from the last slot to the first: a row joins
    # with the divisor 1 at the slot of its last factor, so that every row
    # present has a factor p^e in the slot taken, and each divisor d of it
    # gains d p, ..., d p^e, appended at `size`
    a = np.empty(int(ndiv.sum()), dtype=np.int64)
    arow = np.empty_like(a)  # the row of each divisor
    size = 0
    p_at = np.empty(n, dtype=np.int64)
    e_at = np.empty(n, dtype=np.int64)
    for j in range(int(nfac.max()), -1, -1):
        joining = np.flatnonzero(nfac == j)
        a[size:size + len(joining)] = 1
        arow[size:size + len(joining)] = joining
        size += len(joining)
        if j == 0:
            break
        at = slot == j - 1
        p_at[row[at]] = p[at]
        e_at[row[at]] = e[at]
        last = slice(0, size)  # the divisors d p^(t-1)
        for t in range(1, int(e[at].max()) + 1):
            d, drow = a[last], arow[last]
            if t > 1:
                live = e_at[drow] >= t
                d, drow = d[live], drow[live]
            last = slice(size, size + len(d))
            np.multiply(d, p_at[drow], out=a[last])
            arow[last] = drow
            size = last.stop
    return b[arow], a, v[arow] // a


# ------------------------------------------------------------------ Omega_D

def _omega(D):
    """Omega_D as int64 arrays (a, k, c) in (k, a) order, with c the last
    coefficient of the forms [a, +-(2a - k), c]."""
    import numpy as np
    if D <= 0:
        raise DomainError("omega_enumerate needs D > 0")
    root = isqrt(D)
    kmax = root if root * root < D else root - 1
    kmax -= (kmax - D) % 2
    k, a, c = divisor_rows(D, -kmax, kmax + 1)
    keep = 2 * a - k > root
    k, a, c = k[keep], a[keep], c[keep]
    order = np.lexsort((a, k))
    a, k = a[order], k[order]
    # ac = (D - k^2)/4 gives (2a - k)^2 - D = 4a(a - k - c)
    return a, k, a - k - c[order]


def omega_enumerate(D):
    """All (a, k) with k^2 = D mod 4, |k| < sqrt(D), a | (D-k^2)/4 and
    a > (sqrt(D)+k)/2, in (k, a) lexicographic order."""
    a, k, _ = _omega(D)
    # tuple.__new__ skips the named tuple's __new__, a Python call per entry
    entry = partial(tuple.__new__, OmegaEntry)
    return list(map(entry, zip(a.tolist(), k.tolist())))


def zstar_forms(D):
    """Zagier * forms [a, k-2a, c]: a,c > 0 and a+b+c < 0."""
    a, k, c = _omega(D)
    rows = zip(a.tolist(), (k - 2 * a).tolist(), c.tolist())
    return list(map(_quad_form, rows))


def z_forms(D):
    """Zagier forms [a, 2a-k, c]: a,c > 0 and b > a+c."""
    a, k, c = _omega(D)
    rows = zip(a.tolist(), (2 * a - k).tolist(), c.tolist())
    return list(map(_quad_form, rows))
