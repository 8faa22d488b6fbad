"""Independent computations the benchmark checks the library against.

Nothing here imports topoforms: every reference value is computed from the
textbook definitions with plain integers, Fractions and numpy, so a fault in
the library cannot hide by agreeing with itself.
"""

import math
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

# ------------------------------------------------------------------ forms


def disc(q):
    a, b, c = q
    return b * b - 4 * a * c


def content(q):
    return gcd(gcd(q[0], q[1]), q[2])


def act(q, m):
    """q|M = q(alpha x + beta y, gamma x + delta y), written out."""
    a, b, c = q
    al, be, ga, de = m
    return (a * al * al + b * al * ga + c * ga * ga,
            2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de,
            a * be * be + b * be * de + c * de * de)


def det(m):
    return m[0] * m[3] - m[1] * m[2]


def matmul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def word_matrix(word):
    """L^a0 R^a1 ... (and S) as one matrix; L^k = (1 k; 0 1), R^k = (1 0; k 1)."""
    m = (1, 0, 0, 1)
    for letter, k in word:
        step = {"L": (1, k, 0, 1), "R": (1, 0, k, 1), "S": (0, -1, 1, 0)}
        m = matmul(m, step[letter])
    return m


def step_L(q):
    a, b, c = q
    return (a, b + 2 * a, a + b + c)


def step_R(q):
    a, b, c = q
    return (a + b + c, b + 2 * c, c)


# the topograph moves by name, as in Conway's picture: L and R go forward
# to the left and right edge, Li and Ri undo them, S reverses the edge
TURNS = {
    "L": step_L,
    "R": step_R,
    "Li": lambda q: (q[0], q[1] - 2 * q[0], q[0] - q[1] + q[2]),
    "Ri": lambda q: (q[0] - q[1] + q[2], q[1] - 2 * q[2], q[2]),
    "S": lambda q: (q[2], -q[1], q[0]),
}


def replay(q, path):
    for turn in path:
        q = TURNS[turn](q)
    return q


# ------------------------------------------------------- definite forms


def is_reduced_definite(q):
    a, b, c = q
    if not abs(b) <= a <= c:
        return False
    return not ((abs(b) == a or a == c) and b < 0)


def reduce_definite(q):
    """Lagrange's reduction of a positive definite form."""
    a, b, c = q
    while True:
        if abs(b) > a:  # translate b into (-a, a]
            k = (a - b) // (2 * a)
            a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
            continue
        if a > c:
            a, b, c = c, -b, a
            continue
        if b == -a or (a == c and b < 0):
            b = -b
        return (a, b, c)


def reduced_definite_forms(D):
    """Every reduced form of discriminant D < 0, imprimitive ones included."""
    out = []
    n4 = -D
    a = 1
    while 3 * a * a <= n4:
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            out.append((a, b, c))
        a += 1
    return out


def h_definite(D, primitive=True):
    return sum(1 for q in reduced_definite_forms(D)
               if not primitive or content(q) == 1)


def hurwitz6(n):
    """6 H(n): reduced forms of discriminant -n, those equivalent to
    a(x^2+y^2) weighted 1/2 and to a(x^2+xy+y^2) weighted 1/3."""
    total = 0
    for a, b, c in reduced_definite_forms(-n):
        if a == b == c:
            total += 2
        elif b == 0 and a == c:
            total += 3
        else:
            total += 6
    return total


def definite_census(limit):
    """(h, 6H) for every discriminant -limit <= D < 0, from one enumeration
    of reduced forms (numpy over c for each (a, b))."""
    h = np.zeros(limit + 1, dtype=np.int64)
    h6 = np.zeros(limit + 1, dtype=np.int64)
    a = 1
    while 3 * a * a <= limit:
        for b in range(-a + 1, a + 1):
            # 4ac - b^2 <= limit with c >= a
            cmax = (limit + b * b) // (4 * a)
            if cmax < a:
                continue
            cs = np.arange(a, cmax + 1, dtype=np.int64)
            if b < 0:
                cs = cs[cs > a]
            n = 4 * a * cs - b * b
            w = np.where(cs == a, np.where(b == a, 2, np.where(b == 0, 3, 6)), 6)
            np.add.at(h6, n, w)
            prim = np.gcd(np.gcd(cs, a), abs(b)) == 1
            np.add.at(h, n[prim], 1)
        a += 1
    return h, h6


# ----------------------------------------------------- indefinite forms


def is_simple(q):
    return q[0] > 0 > q[2]


def is_simply_reduced(q):
    a, b, c = q
    return a > 0 > c and abs(a + c) < abs(b)


def is_g_reduced(q):
    a, b, c = q
    return a * c < 0 and abs(a + c) < b


def _classic_reduced(q, s, D):
    # 0 < b < sqrt D and sqrt D - b < 2|a| < sqrt D + b, in integers
    a, b, _ = q
    if not 0 < b <= s:
        return False
    t = 2 * abs(a)
    return (t + b) ** 2 > D and (t - b <= 0 or (t - b) ** 2 < D)


def _rho(q, s, D):
    # Gauss's reduction operator with the normalisation of Cohen, Def. 5.6.4
    _, b, c = q
    ac = abs(c)
    if c * c > D:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        r = s - ((s + b) % (2 * ac))
    return (c, r, (r * r - D) // (4 * c))


def classic_reduce(q):
    D = disc(q)
    s = isqrt(D)
    while not _classic_reduced(q, s, D):
        q = _rho(q, s, D)
    return q


class IndefiniteClasses:
    """The proper classes of a non-square D > 0 as cycles of classically
    reduced forms under rho; `key(q)` names the class of any form of D."""

    def __init__(self, D):
        self.D = D
        self.s = s = isqrt(D)
        forms = []
        for b in range(s - (s - D) % 2, 0, -2):  # b = D mod 2
            n = (D - b * b) // 4
            for a in range(1, isqrt(n) + 1):
                if n % a:
                    continue
                for aa in {a, n // a}:
                    for sa in (aa, -aa):
                        q = (sa, b, -n // sa)
                        if _classic_reduced(q, s, D):
                            forms.append(q)
        self.cycle_of = {}
        self.cycles = []
        for q in sorted(set(forms)):
            if q in self.cycle_of:
                continue
            cyc = []
            cur = q
            while cur not in self.cycle_of:
                self.cycle_of[cur] = len(self.cycles)
                cyc.append(cur)
                cur = _rho(cur, s, D)
            self.cycles.append(cyc)

    def key(self, q):
        return self.cycle_of[classic_reduce(q)]

    def narrow_class_number(self):
        return sum(1 for cyc in self.cycles if content(cyc[0]) == 1)


def g_reduced_forms(D):
    """Every form with ac < 0 and |a + c| < b of discriminant D > 0."""
    out = []
    s = isqrt(D)
    for b in range(1, s + 1):
        if (b * b - D) % 4:
            continue
        n = (D - b * b) // 4  # = -ac > 0
        for d in range(1, isqrt(n) + 1):
            if n % d:
                continue
            for a in {d, n // d}:
                for q in ((a, b, -(n // a)), (-a, b, n // a)):
                    if is_g_reduced(q):
                        out.append(q)
    return out


def z_reduced_forms(D):
    """Every form with a, c > 0 and b > a + c of discriminant D > 0, from
    k = 2a - b: |k| < sqrt D, a | (D - k^2)/4 and 2a - k > sqrt D."""
    out = []
    s = isqrt(D)
    for k in range(-s, s + 1):
        if (D - k * k) % 4 or k * k >= D:
            continue
        n = (D - k * k) // 4
        for d in range(1, isqrt(n) + 1):
            if n % d:
                continue
            for a in {d, n // d}:
                t = 2 * a - k
                if t > 0 and t * t > D:
                    b = 2 * a - k
                    out.append((a, b, (b * b - D) // (4 * a)))
    return out


def zstar_reduced_forms(D):
    """Every form with a, c > 0 and a + b + c < 0: the mirror [a, -b, c] of a
    Z-reduced form."""
    return [(a, -b, c) for a, b, c in z_reduced_forms(D)]


def river(q0, cap=None):
    """One river period from a simple form: the edge forms and the L/R
    letters (L where a + b + c < 0).  None when longer than `cap`."""
    forms = []
    letters = []
    cur = q0
    while True:
        forms.append(cur)
        a, b, c = cur
        if a + b + c < 0:
            letters.append("L")
            cur = step_L(cur)
        else:
            letters.append("R")
            cur = step_R(cur)
        if cur == q0:
            return forms, letters
        if cap is not None and len(forms) > cap:
            return None


def principal_form(D):
    return (1, D % 2, (D % 2 - D) // 4)


def least_rotation(bits):
    return min(bits[i:] + bits[:i] for i in range(len(bits)))


# --------------------------------------------- continued fractions, Pell


def floor_quad(P, Q, N, s):
    # floor((P + sqrt N) / Q) for non-square N with s = isqrt(N)
    if Q > 0:
        return (P + s) // Q
    return -((P + s) // -Q) - 1


def quad_cf(P, Q, N):
    """Continued fraction of (P + sqrt N)/Q for non-square N > 0 with
    Q | N - P^2: (preperiod terms, period terms)."""
    s = isqrt(N)
    seen = {}
    terms = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(terms)
        a = floor_quad(P, Q, N, s)
        terms.append(a)
        P = a * Q - P
        Q = (N - P * P) // Q
    i = seen[(P, Q)]
    return terms[:i], terms[i:]


def surd_cf(p, q, r, d):
    """Continued fraction of the real number (p + q sqrt d)/r, q != 0."""
    N = q * q * d
    P, Q = (p, r) if q > 0 else (-p, -r)
    # scale so that Q divides N - P^2
    return quad_cf(P * abs(Q), Q * abs(Q), N * Q * Q)


def rational_cf(num, den):
    terms = []
    while den:
        a = num // den
        terms.append(a)
        num, den = den, num - a * den
    return terms


def pell_units(D):
    """((t, u) of the smallest t^2 - D u^2 = 4 solution, (t, u) of the
    smallest -4 solution or None).  The product of the complete quotients
    (P + sqrt D)/Q over one period of the continued fraction of
    omega = (sigma + sqrt D)/2, sigma = D mod 2, is the fundamental unit
    (t + u sqrt D)/2; its norm is (-1)^period."""
    sig = D % 2
    pre, period = quad_cf(sig, 2, D)
    s = isqrt(D)
    P, Q = sig, 2
    for a in pre:
        P = a * Q - P
        Q = (D - P * P) // Q
    X, Y, Z = 1, 0, 1  # (X + Y sqrt D)/Z
    for a in period:
        X, Y, Z = X * P + Y * D, X + Y * P, Z * Q
        g = gcd(gcd(X, Y), Z)
        X, Y, Z = X // g, Y // g, Z // g
        P = floor_quad(P, Q, D, s) * Q - P
        Q = (D - P * P) // Q
    t, u = abs(2 * X // Z), abs(2 * Y // Z)
    assert 2 * X % Z == 0 and 2 * Y % Z == 0, D
    norm = t * t - D * u * u
    if norm == 4:
        return (t, u), None
    assert norm == -4, (D, t, u)
    return ((t * t + D * u * u) // 2, t * u), (t, u)


def log_eps(D):
    t, u = pell_units(D)[0]
    return math.log((t + u * math.sqrt(D)) / 2)


# ------------------------------------------------------- complex surds
# x + y sqrt(d) with x, y Fractions and d < 0 fixed by the caller


def cmul(z, w, d):
    return (z[0] * w[0] + z[1] * w[1] * d, z[0] * w[1] + z[1] * w[0])


def cabs2(z, d):
    return z[0] * z[0] - z[1] * z[1] * d


def in_F(z, d):
    """-1/2 <= Re z < 1/2, |z| >= 1, Re z <= 0 on the unit circle, Im > 0."""
    x, y = z
    if y <= 0 or not Fraction(-1, 2) <= x < Fraction(1, 2):
        return False
    n = cabs2(z, d)
    return n > 1 or (n == 1 and x <= 0)


def in_SF(z, d):
    n = cabs2(z, d)
    return n != 0 and in_F((-z[0] / n, z[1] / n), d)  # -1/z = -conj(z)/|z|^2


def mobius_is(m, z1, z, d):
    """True when (alpha z1 + beta)/(gamma z1 + delta) == z."""
    al, be, ga, de = m
    lhs = (al * z1[0] + be, al * z1[1])
    rhs = cmul(z, (ga * z1[0] + de, ga * z1[1]), d)
    return lhs == rhs


# ----------------------------------------------------- sums of squares


def r3_brute(n, primitive=False):
    """Representations of n as x^2 + y^2 + z^2, by a numpy grid over
    (x, y) with z read off."""
    s = isqrt(n)
    xs = np.arange(-s, s + 1, dtype=np.int64)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rem = n - X * X - Y * Y
    ok = rem >= 0
    X, Y, rem = X[ok], Y[ok], rem[ok]
    z = np.floor(np.sqrt(rem.astype(np.float64))).astype(np.int64)
    z += (z + 1) * (z + 1) <= rem
    z -= z * z > rem
    hit = z * z == rem
    X, Y, z = X[hit], Y[hit], z[hit]
    if primitive:
        keep = np.gcd(np.gcd(X, Y), z) == 1
        X, Y, z = X[keep], Y[keep], z[keep]
    return int(np.sum(np.where(z == 0, 1, 2)))


def euler_phi(m):
    return sum(1 for r in range(1, m + 1) if gcd(r, m) == 1)


# Catalan's constant; sum over coprime (x, y) != 0 of 1/(x^2+y^2)^2 is
# 4 zeta(2) L(2, chi_4) / zeta(4) = 60 G / pi^2, and the library's
# Eisenstein sums carry a quarter of it
CATALAN = 0.915965594177219015054603514932384110774
EISENSTEIN_TARGET = 15 * CATALAN / math.pi ** 2
