"""Numerical evaluation of the topograph series identities: the definite
vertex sums (targets 4*pi and 24*pi), the river sums (target 2 log eps_D),
the square-discriminant sums with the W1/W2 boundary integrals, the Hurwitz
series, exact root products, and the discriminant-zero Eisenstein check.

Every sum is evaluated in a fixed traversal order with exact integer label
arithmetic per term and one float rounding per term; per-level totals go
through math.fsum, so results are bit-reproducible.
"""

import json
import math
from dataclasses import dataclass
from math import fsum, gcd, log, pi

import numpy as np

from .classnum import euler_phi, hurwitz
from .exact import DomainError, Surd, is_square, isqrt
from .forms import QuadForm
from .reduce import reduce_simple_cycle, reduce_square, z_forms, zstar_forms
from .riverword import epsilon
from .topograph import find_river

# the two Poincare-series evaluations the identities rest on
POINCARE_ALL_ONES = 3 * pi / 2
POINCARE_ONE_TWO_TWO = 3 * pi / 4


@dataclass(frozen=True)
class SeriesReport:
    theorem: str
    discriminant: int
    depth: int
    value: float
    target: float
    terms_used: int

    @property
    def residual(self):
        return self.value - self.target

    def to_json(self):
        return json.dumps({
            "theorem": self.theorem,
            "discriminant": str(self.discriminant),
            "depth": self.depth,
            "value": self.value,
            "target": self.target,
            "residual": self.residual,
        })


def _check_depth(depth):
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")


# ----------------------------------------------------------- definite sums

def _neg_scan(q, checkpoints):
    """Raw partial sums of 1/|rst| and |r+s+t|/(rst)^2 over BFS vertices,
    reported at each requested depth."""
    if q.discriminant() >= 0:
        raise DomainError("needs negative discriminant")
    _check_depth(min(checkpoints))
    if q.a < 0:
        q = -q
    maxdepth = max(checkpoints)
    want = set(checkpoints)
    a, b, c = q
    t = a - b + c
    level1 = [1.0 / abs(a * c * t)]
    level2 = [abs(a + c + t) / float((a * c * t) ** 2)]
    out = {}
    # the three edges out of the root's tail vertex
    fa = [a, c, t]
    fb = [b, -b + 2 * c, -b + 2 * a]
    fc = [c, t, a]
    terms = 1
    for depth in range(1, maxdepth + 1):
        na, nb, nc = [], [], []
        t1, t2 = [], []
        for i in range(len(fa)):
            a = fa[i]
            b = fb[i]
            c = fc[i]
            h = a + b + c
            p = a * c * h
            t1.append(1.0 / abs(p))
            t2.append(abs(a + c + h) / float(p * p))
            na.append(a)
            nb.append(b + 2 * a)
            nc.append(h)
            na.append(h)
            nb.append(b + 2 * c)
            nc.append(c)
        terms += len(fa)
        level1.append(fsum(t1))
        level2.append(fsum(t2))
        if depth in want:
            out[depth] = (fsum(level1), fsum(level2), terms)
        fa, fb, fc = na, nb, nc
    if 0 in want:
        out[0] = (level1[0], level2[0], 1)
    return out


def series_neg(q, depth):
    """Partial sums of |D|^{3/2} sum 1/|rst| and |D|^{5/2} sum |r+s+t|/(rst)^2
    over all vertices within `depth` of the seed; targets 4 pi and 24 pi."""
    D = q.discriminant()
    scan = _neg_scan(q, [depth])
    s1, s2, n = scan[depth]
    ad = -D
    r1 = SeriesReport("mik", D, depth, ad ** 1.5 * s1, 4 * pi, n)
    r2 = SeriesReport("mik2", D, depth, ad ** 2.5 * s2, 24 * pi, n)
    return r1, r2


def series_neg_profile(q, depths):
    """The same two partial sums at several depths in one traversal."""
    D = q.discriminant()
    ad = -D
    scan = _neg_scan(q, list(depths))
    return {d: (ad ** 1.5 * s1, ad ** 2.5 * s2)
            for d, (s1, s2, _) in scan.items()}


def hurwitz_series(D, depth):
    """Estimate of the Hurwitz class number H(|D|) from the vertex sums of
    every topograph of discriminant D (including imprimitive ones)."""
    if D >= 0:
        raise DomainError("needs negative discriminant")
    if D % 4 not in (0, 1):
        raise DomainError("discriminant must be 0 or 1 mod 4")
    _check_depth(depth)
    total = []
    terms = 0
    for q in _all_reduced_neg(D):
        a, b, c = q
        if a == b == c:
            w = 3
        elif b == 0 and a == c:
            w = 2
        else:
            w = 1
        s1, _, n = _neg_scan(q, [depth])[depth]
        total.append((3.0 / w) * s1)
        terms += n
    value = (-D) ** 1.5 / (12 * pi) * fsum(total)
    target = float(hurwitz(-D))
    return SeriesReport("hurwitz", D, depth, value, target, terms)


def _all_reduced_neg(D):
    # every reduced form of discriminant D < 0, imprimitive included
    out = []
    b = 0
    while b * b <= -D // 3:
        n4 = b * b - D
        if n4 % 4 == 0:
            n = n4 // 4
            a = max(b, 1)
            while a * a <= n:
                if n % a == 0:
                    c = n // a
                    out.append(QuadForm(a, b, c))
                    if 0 < b < a < c:
                        out.append(QuadForm(a, -b, c))
                a += 1
        b += 1
    out.sort()
    return out


# -------------------------------------------------------------- river sums

def series_pos(q, depth):
    """River-period sums for non-square D > 0: hanging trees to `depth`
    edges off the river; targets 2 log eps_D."""
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("needs non-square D > 0")
    _check_depth(depth)
    river = find_river(q)
    sqD = math.sqrt(D)
    d32 = D ** 1.5
    d52 = D ** 2.5
    d92 = D ** 4.5
    sums1 = []
    sums2 = []
    terms = 0
    for edge in river.edges:
        a, b, c = edge.form
        h = a + b + c
        if h > 0:
            ta, tb, tc = a, b + 2 * a, h  # river turns R; the L child hangs
        else:
            ta, tb, tc = h, b + 2 * c, c
        et = abs(tb)
        sums1.append(sqD / et)
        sums2.append(sqD / et + d32 / (3 * et ** 3))
        terms += 1
        # `depth` counts edges beyond the hanging edge, so depth 0 already
        # includes the hanging tree's head vertex
        fa, fb, fc = [ta], [tb], [tc]
        t1, t2 = [], []
        for _ in range(depth + 1):
            na, nb, nc = [], [], []
            for i in range(len(fa)):
                a = fa[i]
                b = fb[i]
                c = fc[i]
                f = b + 2 * a
                g = b + 2 * c
                p = b * f * g  # = -efg with e = -b
                t1.append(d32 / abs(p))
                t2.append(d52 * abs(b + 2 * a + 2 * c) / float(p) ** 2
                          + d92 / (3 * abs(float(p)) ** 3))
                na.append(a)
                nb.append(f)
                nc.append(a + b + c)
                na.append(a + b + c)
                nb.append(g)
                nc.append(c)
            terms += len(fa)
            fa, fb, fc = na, nb, nc
        sums1.append(fsum(t1))
        sums2.append(fsum(t2))
    target = 2 * log(float(epsilon(D)))
    r1 = SeriesReport("mt", D, depth, fsum(sums1), target, terms)
    r2 = SeriesReport("mt2", D, depth, fsum(sums2), target, terms)
    return r1, r2


# ------------------------------------------------------------- square sums

def series_square(q, depth):
    """Square-discriminant sums from the middle river vertex, with the
    W1/W2 lake corrections; target 2 log(m/(2 gcd(m,r)))."""
    D = q.discriminant()
    if D <= 0 or not is_square(D):
        raise DomainError("needs square D > 0")
    _check_depth(depth)
    m = isqrt(D)
    r = reduce_square(q).canonical.c
    g0 = gcd(m, r)
    if m > 1 and g0 == 1:
        s_res = pow(r, -1, m)
        if s_res == 0:
            s_res = m
    else:
        s_res = r
    river = find_river(q)
    k = len(river.edges)
    root = river.edges[k // 2].form if k else QuadForm(r, -m, 0)
    a, b, c = root
    # BFS from the tail vertex of the root cursor
    verts = [(a, c, a - b + c)]
    fa = [a, c, a - b + c]
    fb = [b, -b + 2 * c, -b + 2 * a]
    fc = [c, a - b + c, a]
    sums1 = []
    sums2 = []
    terms = 0
    m3 = float(m ** 3)
    m5 = float(m ** 5)
    m9 = float(m ** 9)
    for lvl in range(depth + 1):
        t1, t2 = [], []
        for r1, r2, r3 in verts:
            if r1 == 0 or r2 == 0 or r3 == 0:
                continue  # lake vertex: no term, but keep traversing
            neg = (r1 < 0) + (r2 < 0) + (r3 < 0)
            if neg in (1, 2):
                # river vertex: only the hanging tree edge counts, with the
                # river edges relabeled by sqrt(D) = m
                if neg == 1:
                    odd = min(x for x in (r1, r2, r3) if x < 0)
                else:
                    odd = max(x for x in (r1, r2, r3) if x > 0)
                et = abs((r1 + r2 + r3) - 2 * odd)
                t1.append(m / et)
                t2.append(m / et + m3 / (3 * et ** 3))
            else:
                e = r2 + r3 - r1
                f = r1 + r3 - r2
                g = r1 + r2 - r3
                p = e * f * g
                t1.append(m3 / abs(p))
                t2.append(m5 * abs(e + f + g) / float(p) ** 2
                          + m9 / (3 * abs(float(p)) ** 3))
            terms += 1
        sums1.append(fsum(t1))
        sums2.append(fsum(t2))
        if lvl == depth:
            break
        verts = []
        na, nb, nc = [], [], []
        for i in range(len(fa)):
            a = fa[i]
            b = fb[i]
            c = fc[i]
            h = a + b + c
            verts.append((a, c, h))
            na.append(a)
            nb.append(b + 2 * a)
            nc.append(h)
            na.append(h)
            nb.append(b + 2 * c)
            nc.append(c)
        fa, fb, fc = na, nb, nc
    v1 = fsum(sums1) + W1(r / m) + W1(s_res / m)
    v2 = fsum(sums2) + (W2(r / m) + W2(s_res / m) + 1) / 3
    if m == 1:
        v1 -= 2
        v2 -= 8 / 3
    target = 2 * log(m / (2 * g0))
    return (SeriesReport("sq", D, depth, v1, target, terms),
            SeriesReport("sq2", D, depth, v2, target, terms))


def series_seed(D):
    """Topograph seed used when only a discriminant is given: the primitive
    class with the shortest river period (the one the worked figures use);
    principal class for D < 0."""
    from .riverword import principal_form

    if D == 0:
        raise DomainError("no series seed for discriminant zero")
    if D % 4 not in (0, 1):
        raise DomainError("discriminant must be 0 or 1 mod 4")
    if D < 0:
        return principal_form(D)
    if is_square(D):
        m = isqrt(D)
        if m == 1:
            return QuadForm(0, 1, 1)
        best = None
        for r in range(1, m + 1):
            if gcd(r, m) != 1:
                continue
            q = QuadForm(0, m, r)
            key = (len(find_river(q).edges), r)
            if best is None or key < best[0]:
                best = (key, q)
        return best[1]
    best = None
    seen = set()
    for f in zstar_forms(D):
        if f.content() != 1:
            continue
        cyc = reduce_simple_cycle(f).canonical
        if cyc in seen:
            continue
        seen.add(cyc)
        q = cyc[0]
        key = (len(find_river(q).edges), q)
        if best is None or key < best[0]:
            best = (key, q)
    return best[1]


# ------------------------------------------------------- boundary integrals

def _gauss_nodes():
    # composite Gauss-Legendre on [0, 40]: 64 panels of 16 nodes
    nodes, weights = np.polynomial.legendre.leggauss(16)
    panels = np.linspace(0.0, 40.0, 65)
    mid = (panels[1:] + panels[:-1]) / 2
    half = (panels[1:] - panels[:-1]) / 2
    ys = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return ys, ws


_YS, _WS = _gauss_nodes()
_EXP = np.exp(pi * _YS)
_P1 = _YS / (_YS ** 2 + 1) * _WS
_P2 = _YS * (3 * _YS ** 4 + 5 * _YS ** 2 + 6) / (_YS ** 2 + 1) ** 3 * _WS


def _w_integral(x, poly):
    # 2 Re int_0^inf poly(y) / (exp(pi(y + 2ix)) - 1) dy
    x = float(x) % 1.0
    c = math.cos(2 * pi * x)
    s = math.sin(2 * pi * x)
    re = (_EXP * c - 1) / ((_EXP * c - 1) ** 2 + (_EXP * s) ** 2)
    return 2 * float(np.dot(poly, re))


def W1(x):
    """Lake boundary weight with kernel y/(y^2+1)."""
    return _w_integral(x, _P1)


def W2(x):
    """Lake boundary weight with kernel y(3y^4+5y^2+6)/(y^2+1)^3."""
    return _w_integral(x, _P2)


# ------------------------------------------------------------ root products

def _class_key(q):
    return reduce_simple_cycle(q).canonical


def root_product(q):
    """Exact product of the first roots of the Zagier * forms in q's class;
    equals the fundamental unit eps_D."""
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("root_product needs non-square D > 0")
    if q.content() != 1:
        raise DomainError("root_product needs a primitive form")
    key = _class_key(q)
    prod = Surd(1, 0, 1, D)
    for f in zstar_forms(D):
        if f.content() != 1 or _class_key(f) != key:
            continue
        a, b, _ = f
        prod = prod * Surd(-b, 1, 2 * a, D)
    return prod


def root_product_all(D):
    """Product over every primitive Zagier * form; equals eps_D ** h."""
    if D <= 0 or is_square(D):
        raise DomainError("root_product needs non-square D > 0")
    prod = Surd(1, 0, 1, D)
    for f in zstar_forms(D):
        if f.content() != 1:
            continue
        a, b, _ = f
        prod = prod * Surd(-b, 1, 2 * a, D)
    return prod


# ----------------------------------------------------- discriminant zero

def eisenstein_check(g=1, radius=10000):
    """Edge sum g^2 sum 1/(a+c)^2 over the content-g discriminant-zero
    topograph vs the weight-4 coprime Eisenstein lattice sum, both
    truncated.  Returns (lhs, rhs)."""
    if g < 1:
        raise DomainError("content must be >= 1")
    if radius < 2:
        raise DomainError("radius too small")
    # lhs: edges of the [0,0,g] topograph mod the lake period; the edge
    # between regions g x^2 and g y^2 (x, y coprime) contributes
    # g^2/(g x^2 + g y^2)^2, and the 0|g edge contributes 1
    cutoff2 = min(radius, 1000) ** 2
    g2 = float(g * g)
    terms = []
    stack = [(1, 1)]
    while stack:
        x, y = stack.pop()
        n = x * x + y * y
        if n > cutoff2:
            continue
        terms.append(g2 / float(g * n) ** 2)
        stack.append((x, x + y))
        stack.append((x + y, y))
    lhs = 1.0 + fsum(terms)
    # rhs: (1/4) sum over nonzero coprime lattice points inside the radius
    r2 = radius * radius
    quad = []
    ys = np.arange(1, radius + 1, dtype=np.int64)
    for x0 in range(1, radius + 1, 128):
        xs = np.arange(x0, min(x0 + 128, radius + 1), dtype=np.int64)
        n = xs[:, None] ** 2 + ys[None, :] ** 2
        mask = (n <= r2) & (np.gcd(xs[:, None], ys[None, :]) == 1)
        quad.append(float(np.sum(1.0 / n[mask].astype(float) ** 2)))
    rhs = 1.0 + fsum(quad)
    return lhs, rhs


# ----------------------------------------------- square-discriminant logs

def _spf_sieve(limit):
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _factor(n, spf):
    out = {}
    while n > 1:
        p = spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def _divisors(fac):
    divs = [1]
    for p, e in fac.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return divs


def square_log_identity(m, bmax=80000):
    """Both sides of phi(m) log(m/2) = S1 + S2 + S3: the positive-vertex
    sum, the Zagier-form sum, and the W1 boundary sum, for odd m >= 3."""
    if m < 3 or m % 2 == 0:
        raise DomainError("needs odd m >= 3")
    D = m * m
    lhs = euler_phi(m) * log(m / 2)
    s2 = fsum(m / q.b for q in z_forms(D) if q.content() == 1)
    s3 = fsum(W1(r / m) for r in range(1, m) if gcd(r, m) == 1)
    spf = _spf_sieve(bmax + m)
    m3 = float(m ** 3)
    s1_terms = []
    for ab in range(m + 2, bmax + 1, 2):  # |b| odd like m, so |b| >= m+2
        fac = _factor(ab - m, spf)
        for p, e in _factor(ab + m, spf).items():
            fac[p] = fac.get(p, 0) + e
        fac[2] -= 2  # both factors are even; drop the 4 to factor n4
        if fac[2] == 0:
            del fac[2]
        n4 = (ab * ab - m * m) // 4
        divs = _divisors(fac)
        for b in (ab, -ab):
            for a in divs:
                c = n4 // a
                if a + b + c <= 0:
                    continue
                if gcd(gcd(a, b), c) != 1:
                    continue
                s1_terms.append(m3 / (3.0 * b * (b + 2 * a) * (b + 2 * c)))
    rhs = fsum(s1_terms) + s2 + s3
    return lhs, rhs
