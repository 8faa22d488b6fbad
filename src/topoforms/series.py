"""Numerical evaluation of the topograph series identities: the definite
vertex sums (targets 4*pi and 24*pi), the river sums (target 2 log eps_D),
the square-discriminant sums with the W1/W2 boundary integrals, the Hurwitz
series, exact root products, and the discriminant-zero Eisenstein check.

Every vertex sum runs on the batch walker of `topograph`: the edge forms
(a, b, c) of a topograph's levels in numpy arrays, in batches of at most
_CHUNK edges, the shallow levels whole and the deep ones in depth-first
slices, each edge with its group; the river sums read their river in
whole blocks, _CHUNK hanging trees at a time.  Every term is defined by
IEEE 754 basic operations, each correctly rounded, so its value depends on
no libm and no platform:

- labels are exact integers: int64 while every label of a slice of a level
  is below 2^58, so that every sum a term takes stays inside int64, and
  Python ints from the first level of the slice that reaches it;
- each label a term takes is rounded to a float once, and its denominator
  is p = fl(x) fl(y) fl(z), then p p and 3 (p p p), left to right; the
  same formulas serve both kinds of label.  A label beyond float range,
  or a denominator that overflows, raises DomainError;
- each sum is one math.fsum over a fixed group of terms (a level, or a
  hanging tree for the river sums), of parts with the group's exact sum
  (_exact_parts); fsum is correctly rounded, so batches change no bit.
"""

import json
import math
from functools import partial
from itertools import chain, islice
from math import fsum, gcd, log, pi
from typing import NamedTuple

import numpy as np

from .classnum import _AUT_WEIGHTS, euler_phi, hurwitz
from .exact import (DomainError, Surd, check_discriminant, finite_float,
                    is_square, isqrt, surd_floor)
from .forms import QuadForm
from .reduce import (_primes, _class_rivers, divisor_rows, reduced_forms,
                     z_forms, zagier_cycle, zstar_forms)
from .riverword import epsilon
from .topograph import (_LABEL_MAX, EdgeCursor, RiverEdges, TurnPath,
                        _batches, _levels, _river_runs, ball_levels,
                        find_river, square_reduction, square_river_blocks)

# the two Poincare-series evaluations the identities rest on
POINCARE_ALL_ONES = 3 * pi / 2
POINCARE_ONE_TWO_TWO = 3 * pi / 4


class SeriesReport(NamedTuple):
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


# ------------------------------------------------------------- level terms

_CHUNK = 1 << 13  # edges per batch of the kernel, to stay in cache


def _exact_parts(t, g=0, parts=None):
    """Append to parts[row + rows * group] (one list per row by default)
    floats that sum exactly to the row's entries in the group's columns,
    for the 2-D float array t of at most 2^26 columns and the group g[j] of
    each column j (0 by default).  Each entry is (h + l) 2^(e-27), h an
    integer of 27 bits and l a multiple of 2^-26 in [0, 1): their sums per
    row, group and exponent stay exact, scaled too."""
    rows, n = t.shape
    g = np.broadcast_to(g, n)
    parts = [[] for _ in range(rows)] if parts is None else parts
    m, e = np.frexp(t)
    m *= 2.0 ** 27
    h = np.floor(m)
    m -= h
    # initial= serves an empty t only: groups are >= 0, exponents > -1075
    gmax = int(g.max(initial=0))
    gmin = int(g.min(initial=gmax))
    keys = rows * (gmax - gmin + 1)
    emax = int(e.max(initial=-1075))
    emin = int(e.min(initial=emax))
    span = emax - emin + 1
    # one bucket per row, group and exponent; only the nonzero are kept
    idx = (g * (rows * span) + e + (np.arange(rows) * span - emin
                                    - gmin * rows * span)[:, None]).reshape(-1)
    sums = np.stack([np.bincount(idx, w.reshape(-1), keys * span)
                     for w in (h, m)], -1).reshape(keys, 2 * span)
    sums = np.ldexp(sums, np.arange(emin - 27, emin - 27 + span).repeat(2))
    nz = sums != 0
    vals = sums[nz].tolist()
    ends = np.cumsum(nz.sum(1)).tolist()
    for key, i, j in zip(range(rows * gmin, rows * gmin + keys),
                         [0] + ends, ends):
        parts[key] += vals[i:j]
    return parts


def _group_sums(terms, levels, depth, groups, trees=False):
    """The fsums of the rows of terms(a, b, c) per group of _batches(levels,
    depth), and the count of vertices with terms (a first term > 0)."""
    parts = [[] for _ in range(2 * groups)]
    n = 0
    # an overflow raises DomainError in the terms, without a warning
    with np.errstate(over="ignore"):
        for g, *labels in _batches(levels, depth, _CHUNK, trees):
            t = terms(*labels)
            _exact_parts(t, g, parts)
            n += int(np.count_nonzero(t[0]))
    sums = [fsum(p) for p in parts]
    return sums[0::2], sums[1::2], n


def _floats(*cols):
    """The label columns as float64 arrays, each label rounded once."""
    try:
        return [col.astype(float) for col in cols]
    except OverflowError:
        raise DomainError("a term passes float range") from None


def _finite(d):
    """The denominator array d >= 0, if no entry of it overflowed."""
    if d.max(initial=0.0) == math.inf:
        raise DomainError("a term passes float range")
    return d


def _definite_terms(a, b, c):
    """1/|p| and |a+c+h|/(p p) with p = a c h at the head vertex (a, c, h),
    h = a+b+c, of each edge (a, b, c): the terms of the definite sums."""
    h = a + b + c
    fa, fc, fh, s = _floats(a, c, h, a + c + h)
    p = np.abs(fa * fc * fh)
    t = np.empty((2, len(a)))
    np.divide(1.0, p, out=t[0])
    np.divide(np.abs(s), _finite(p * p), out=t[1])
    return t


def _edge_terms(x, y, z, s, k):
    """k1/|p| and k2 |s|/(p p) + k3/(3 (p p p)) with p = x y z, for label
    arrays: the edge terms of the river and square sums."""
    fx, fy, fz, fs = _floats(x, y, z, s)
    p = np.abs(fx * fy * fz)
    p2 = p * p
    t = np.empty((2, len(x)))
    np.divide(k[0], p, out=t[0])
    t[1] = k[1] * np.abs(fs) / p2 + k[2] / _finite(3 * (p2 * p))
    return t


# ----------------------------------------------------------- definite sums

def _neg_scan(q, checkpoints):
    """Raw partial sums of 1/|rst| and |r+s+t|/(rst)^2 over BFS vertices,
    reported at each requested depth."""
    if q.discriminant() >= 0:
        raise DomainError("needs negative discriminant")
    _check_depth(min(checkpoints))
    if q.a < 0:
        q = -q
    top = max(checkpoints)
    s1, s2, _ = _group_sums(_definite_terms, ball_levels(EdgeCursor(q)),
                            top, top + 1)
    # the ball to depth d has 3 2^d - 2 vertices, each with terms
    return {d: (fsum(s1[:d + 1]), fsum(s2[:d + 1]), 3 * 2 ** d - 2)
            for d in sorted(set(checkpoints))}


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
    check_discriminant(D)
    _check_depth(depth)
    total = []
    terms = 0
    for a, b, c in reduced_forms(D):
        # j[1,1,1] and j[1,0,1] are the reduced forms with a = c and
        # |D| = 3a^2 or 4a^2
        w = next((w for k, w in _AUT_WEIGHTS
                  if a == c and k * a * a == -D), 1)
        s1, _, n = _neg_scan(QuadForm(a, b, c), [depth])[depth]
        total.append(float(3 * w) * s1)
        terms += n
    value = (-D) ** 1.5 / (12 * pi) * fsum(total)
    target = float(hurwitz(-D))
    return SeriesReport("hurwitz", D, depth, value, target, terms)


# -------------------------------------------------------------- river sums

def _tree_terms(k, a, b, c):
    # p = b f g = -efg with e = -b, f = b+2a, g = b+2c
    f = b + 2 * a
    return _edge_terms(b, f, b + 2 * c, f + 2 * c, k)


def series_pos(q, depth):
    """River-period sums for non-square D > 0: hanging trees to `depth`
    edges off the river; targets 2 log eps_D."""
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("needs non-square D > 0")
    _check_depth(depth)
    try:
        d32, d52, d92 = D ** 1.5, D ** 2.5, D ** 4.5
    except OverflowError:
        raise DomainError("D^(9/2) passes float range") from None
    sqD = math.sqrt(D)
    # the river in slices of _CHUNK hanging trees, each tree a group of the
    # forest below the slice; `depth` counts edges beyond the hanging edge,
    # so depth 0 has the tree's head vertex
    parts = [[], []]  # floats with the exact totals of the two sums so far
    terms = 0
    edges = iter(find_river(q).edges)
    while chunk := list(islice(edges, _CHUNK)):
        if terms:  # the slices before, as a few exact parts per exponent
            parts = [_exact_parts(np.array([p]))[0] for p in parts]
        hanging = []
        for edge in chunk:
            a, b, c = edge.form
            h = a + b + c
            # where the river turns R the L child hangs, and else the R child
            tree = (a, b + 2 * a, h) if h > 0 else (h, b + 2 * c, c)
            et = float(abs(tree[1]))
            parts[0].append(sqD / et)
            parts[1].append(sqD / et + d32 / (3 * (et * et * et)))
            hanging.append(tree)
        s1, s2, n = _group_sums(partial(_tree_terms, (d32, d52, d92)),
                                _levels(*zip(*hanging)), depth, len(chunk),
                                True)
        parts[0] += s1
        parts[1] += s2
        terms += len(chunk) + n
    # eps_D passes float range on long rivers; math.log takes its floor,
    # an integer within 1 of it, at any size
    eps = epsilon(D)
    target = 2 * log(finite_float(eps) or surd_floor(eps))
    r1 = SeriesReport("mt", D, depth, fsum(parts[0]), target, terms)
    r2 = SeriesReport("mt2", D, depth, fsum(parts[1]), target, terms)
    return r1, r2


# ------------------------------------------------------------- square sums

def _square_terms(m, a, b, c):
    """The square sums' terms at the head vertex (r1, r2, r3) = (a, c, h),
    h = a+b+c, of each edge (a, b, c), 0 at a lake vertex (a zero label).
    A river vertex (labels of both signs) counts only its hanging edge et,
    with the river edges relabeled by sqrt(D) = m.  Any other vertex counts
    the edge term of e, f, g = r2+r3-r1, r1+r3-r2, r1+r2-r3."""
    m3 = float(m ** 3)
    r1, r2, r3 = a, c, a + b + c
    e, f, g = r2 + r3 - r1, r1 + r3 - r2, r1 + r2 - r3
    n1, n2, n3 = r1 < 0, r2 < 0, r3 < 0
    lake = (r1 == 0) | (r2 == 0) | (r3 == 0)
    river = ~lake & ((n1 != n2) | (n1 != n3))
    # the hanging edge is the out label opposite the odd one out, the
    # region whose sign the other two do not share
    et = np.where(n2 == n3, e, np.where(n1 == n3, f, g))[river]
    x, = _floats(np.abs(et))
    # the edge term on out labels 1 at the few lake and river vertices
    e, f, g = (np.where(lake | river, 1, y) for y in (e, f, g))
    t = _edge_terms(e, f, g, e + f + g, (m3, float(m ** 5), float(m ** 9)))
    t[:, lake] = 0.0
    u = float(m) / x
    t[0, river] = u
    t[1, river] = u + m3 / _finite(3 * (x * x * x))
    return t


def series_square(q, depth):
    """Square-discriminant sums from the middle river vertex, with the
    W1/W2 lake corrections; target 2 log(m/(2 gcd(m,r)))."""
    D = q.discriminant()
    if D <= 0 or not is_square(D):
        raise DomainError("needs square D > 0")
    _check_depth(depth)
    m = isqrt(D)
    if finite_float(m ** 9) is None:
        raise DomainError("m^9 = D^(9/2) passes float range")
    _, q0 = square_reduction(q)
    r = q0.c
    g0 = gcd(m, r)
    s_res = pow(r, -1, m) if m > 1 and g0 == 1 else r
    # the middle edge of a view, as find_river's, over the square walk's own
    # blocks from the lake edge [r, -m, 0] = q0|S; or else that lake edge
    _, word, forms = square_river_blocks(q0)
    edges = RiverEdges(_river_runs(word, forms, TurnPath()), 1)
    root = edges[edges.turns // 2] if edges else EdgeCursor(QuadForm(r, -m, 0))
    sums1, sums2, terms = _group_sums(partial(_square_terms, m),
                                      ball_levels(root), depth, depth + 1)
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
    check_discriminant(D)
    if D < 0:
        return principal_form(D)
    if is_square(D):
        m = isqrt(D)
        return QuadForm(0, m, min(
            (sum(k for _, k in square_river_blocks((0, m, r)).word), r)
            for r in range(1, m + 1) if gcd(r, m) == 1)[1])
    # the river of each class, as zagier_classes walks it: its turn count
    # and its least block start, the least simply reduced form
    return min((sum(k for _, k, _ in river), min(f for _, _, f in river))
               for river, _ in _class_rivers(D))[1]


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

def root_product(q):
    """Exact product of the first roots of the Zagier * forms in q's class;
    equals the fundamental unit eps_D."""
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("root_product needs non-square D > 0")
    if q.content() != 1:
        raise DomainError("root_product needs a primitive form")
    prod = Surd(1, 0, 1, D)
    # Zagier steps are proper, so q's own cycle is its class's; the Z form
    # [a, b, c] is properly equivalent to the Z* form [c, -b, a]
    for _, b, c in zagier_cycle(q):
        prod = prod * Surd(b, 1, 2 * c, D)
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
    # g^2/(g x^2 + g y^2)^2, and the 0|g edge contributes 1.  The edges
    # are walked level by level down the Stern-Brocot tree from (1, 1),
    # (x, y) having the children (x, x+y) and (x+y, y); n = x^2 + y^2
    # grows along every path, so the edges with n <= cutoff^2 are a subtree
    cutoff2 = min(radius, 1000) ** 2
    x = y = np.ones(1, dtype=np.int64)
    levels = []
    while len(x):
        n = x * x + y * y
        keep = n <= cutoff2
        x, y = x[keep], y[keep]
        levels.append(n[keep])
        x, y = np.concatenate((x, x + y)), np.concatenate((x + y, y))
    n = np.concatenate(levels)
    gn = n * g if g * cutoff2 < _LABEL_MAX else n.astype(object) * g
    x = gn.astype(float)
    lhs = 1.0 + fsum(_exact_parts((float(g * g) / (x * x))[None, :])[0])
    # rhs: a quarter of the sum over the nonzero coprime lattice points
    # within the radius, the four on the axes giving the 1
    rhs = 1.0 + _coprime_lattice_sum(radius)
    return lhs, rhs


def _isqrt(n):
    """isqrt of each entry of an int64 array below 2^52."""
    s = np.sqrt(n.astype(float)).astype(np.int64)
    s -= s * s > n
    return s + ((s + 1) * (s + 1) <= n)


def _coprime_lattice_sum(radius):
    """The sum of 1/(x^2 + y^2)^2 over coprime x, y >= 1 with
    x^2 + y^2 <= radius^2, by Moebius inversion: with S_d the sum over all
    points with x^2 + y^2 <= radius^2 // d^2, it is the sum of
    mu(d)/d^4 S_d.  By symmetry S_d is twice the sum over y >= x, the
    points y = x counted half, which is a sum of prefix sums of the rows
    y >= x of the largest disc; every (d, row) term goes into one fsum."""
    r2 = radius * radius
    mu = np.ones(radius + 1, dtype=np.int64)
    for p in _primes(radius).tolist():
        mu[::p] *= -1
        mu[::p * p] = 0
    d = np.flatnonzero(mu[1:]) + 1
    w = 2 * mu[d] / (d * d).astype(float) ** 2
    R = r2 // (d * d)
    xmax = _isqrt(R // 2)  # the rows x of disc d: 2x^2 <= R
    terms = []
    for x0 in range(1, int(xmax[0]) + 1, 64):
        x = np.arange(x0, min(x0 + 64, int(xmax[0]) + 1))
        # the prefix sums of 1/n^2, n = x^2 + (x+j)^2, over j >= 0, the
        # term j = 0 halved, in runs of 64 plus the run totals before them
        j = np.arange(-(-(isqrt(r2 - x0 * x0) - x0 + 1) // 64) * 64)
        n = ((2 * x * x)[:, None] + (2 * x)[:, None] * j + j * j).astype(float)
        t = 1.0 / (n * n)
        t[:, 0] *= 0.5
        rows = np.cumsum(t.reshape(len(x), -1, 64), axis=2)
        ends = rows[:, :, -1]
        rows += (np.cumsum(ends, axis=1) - ends)[:, :, None]
        rows = rows.reshape(len(x), -1)
        # every (d, x) with x in this block and x <= xmax_d
        top = np.minimum(xmax, x[-1]) - x0 + 1
        top = top[top > 0]  # xmax falls with d: a prefix of d
        k = np.repeat(np.arange(len(top)), top)
        i = np.arange(len(k)) - np.repeat(np.cumsum(top) - top, top)
        xi = x[i]
        terms += (w[k] * rows[i, _isqrt(R[k] - xi * xi) - xi]).tolist()
    return fsum(terms)


# ----------------------------------------------- square-discriminant logs

def _square_log_terms(m, primes, b, a, c):
    """The S1 terms of [a, b, c] and [a, -b, c] for b > 0, as two rows, 0
    where the form is imprimitive (a prime of m divides a, b and c) or,
    at -b, where a + c - b <= 0."""
    # b, 2a, 2c and their sums are integers below 2^53, exact in float64,
    # so these are the terms on Python ints
    fb, fa, fc = b.astype(float), 2.0 * a, 2.0 * c
    m3 = float(m ** 3)
    t = np.empty((2, len(b)))
    x = 3.0 * fb  # at -b it is -x, and the term's sign flips exactly
    np.divide(m3, x * (fb + fa) * (fb + fc), out=t[0])
    np.divide(-m3, x * (fa - fb) * (fc - fb), out=t[1])  # b odd: no zero
    t[1, a + c <= b] = 0.0
    for p in primes:
        at = np.flatnonzero(b // p * p == b)  # faster than b % p for scalar p
        t[:, at[(a[at] % p == 0) & (c[at] % p == 0)]] = 0.0
    return t


def square_log_identity(m, bmax=80000):
    """Both sides of phi(m) log(m/2) = S1 + S2 + S3: the positive-vertex
    sum, the Zagier-form sum, and the W1 boundary sum, for odd m >= 3.

    S1 runs over the primitive forms [a, b, c] of discriminant m^2 with
    m < |b| <= bmax and a, c, a+b+c > 0, whose exact integer coefficients
    come from the divisor kernel; its terms are summed in one math.fsum,
    which is correctly rounded, so the value does not depend on their
    order."""
    if m < 3 or m % 2 == 0:
        raise DomainError("needs odd m >= 3")
    D = m * m
    lhs = euler_phi(m) * log(m / 2)
    s2 = fsum(m / q.b for q in z_forms(D) if q.content() == 1)
    s3 = fsum(W1(r / m) for r in range(1, m) if gcd(r, m) == 1)
    # the content of a form of discriminant m^2 divides m
    primes = [p for p in _primes(m).tolist() if m % p == 0]
    parts = []
    # |b| odd like m, 2048 values at a time, which bounds the memory
    for lo in range(m + 2, bmax + 1, 4096):
        b, a, c = divisor_rows(D, lo, min(lo + 4096, bmax + 1))
        for i in range(0, len(b), _CHUNK):
            rows = (x[i:i + _CHUNK] for x in (b, a, c))
            parts += chain(*_exact_parts(_square_log_terms(m, primes, *rows)))
    rhs = fsum(parts) + s2 + s3
    return lhs, rhs
