"""The numpy level kernel of the series against the per-vertex loops it
replaced.

The reference functions below are the former pure-Python level-order loops
of `series._neg_scan`, `series_pos` and `series_square`, with exact integer
labels, whose terms are taken by the scalar references `ref_definite_term`,
`ref_edge_term` and `ref_hanging_term`: IEEE basic operations on Python
floats, which are the same correctly rounded operations as numpy's.  The
kernel must reproduce their values and term counts bit for bit, on int64
labels, on labels whose products pass 2^53, on labels beyond int64 and on
forms moved far from their reduced representative.
"""

import math
import random
from math import fsum, gcd, log

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoforms import series
from topoforms.exact import DomainError, Surd, is_square, isqrt
from topoforms.forms import QuadForm
from topoforms.reduce import reduce_simple_cycle, reduce_square, zstar_forms
from topoforms.riverword import epsilon, principal_form
from topoforms.series import (W1, W2, SeriesReport, eisenstein_check,
                              hurwitz_series, root_product, series_neg,
                              series_neg_profile, series_pos, series_seed,
                              series_square)
from topoforms.topograph import _labels, _levels, find_river

_MOVES = {
    "L": lambda a, b, c: (a, b + 2 * a, a + b + c),
    "R": lambda a, b, c: (a + b + c, b + 2 * c, c),
    "Li": lambda a, b, c: (a, b - 2 * a, a - b + c),
    "Ri": lambda a, b, c: (a - b + c, b - 2 * c, c),
}


def _moved(form, word):
    a, b, c = form
    for move in word:
        a, b, c = _MOVES[move](a, b, c)
    return QuadForm(a, b, c)


# ------------------------------------------------------------- reference

def _denominator(d):
    # the kernel refuses a denominator that overflows
    if math.isinf(d):
        raise DomainError("a term passes float range")
    return d


def ref_product(x, y, z):
    """|p| = |fl(x) fl(y) fl(z)|, left to right, for labels x, y, z."""
    return abs(float(x) * float(y) * float(z))


def ref_definite_term(a, c, h):
    p = ref_product(a, c, h)
    return 1.0 / p, abs(float(a + c + h)) / _denominator(p * p)


def ref_edge_term(k, x, y, z, s):
    p = ref_product(x, y, z)
    cube = _denominator(3 * (p * p * p))
    return k[0] / p, k[1] * abs(float(s)) / (p * p) + k[2] / cube


def ref_hanging_term(m, m3, et):
    x = float(et)
    return float(m) / x, float(m) / x + m3 / _denominator(3 * (x * x * x))


def ref_neg_scan(q, checkpoints):
    q = -q if q.a < 0 else q
    maxdepth = max(checkpoints)
    want = set(checkpoints)
    a, b, c = q
    t = a - b + c
    first, second = ref_definite_term(a, c, t)
    level1 = [first]
    level2 = [second]
    out = {}
    fa = [a, c, t]
    fb = [b, -b + 2 * c, -b + 2 * a]
    fc = [c, t, a]
    terms = 1
    for depth in range(1, maxdepth + 1):
        na, nb, nc = [], [], []
        t1, t2 = [], []
        for a, b, c in zip(fa, fb, fc):
            h = a + b + c
            first, second = ref_definite_term(a, c, h)
            t1.append(first)
            t2.append(second)
            na += [a, h]
            nb += [b + 2 * a, b + 2 * c]
            nc += [h, c]
        terms += len(fa)
        level1.append(fsum(t1))
        level2.append(fsum(t2))
        if depth in want:
            out[depth] = (fsum(level1), fsum(level2), terms)
        fa, fb, fc = na, nb, nc
    if 0 in want:
        out[0] = (level1[0], level2[0], 1)
    return out


def ref_series_pos(q, depth):
    D = q.discriminant()
    river = find_river(q)
    sqD = math.sqrt(D)
    d32, d52, d92 = D ** 1.5, D ** 2.5, D ** 4.5
    sums1, sums2 = [], []
    terms = 0
    for edge in river.edges:
        a, b, c = edge.form
        h = a + b + c
        if h > 0:
            ta, tb, tc = a, b + 2 * a, h
        else:
            ta, tb, tc = h, b + 2 * c, c
        et = float(abs(tb))
        sums1.append(sqD / et)
        sums2.append(sqD / et + d32 / (3 * (et * et * et)))
        terms += 1
        fa, fb, fc = [ta], [tb], [tc]
        t1, t2 = [], []
        for _ in range(depth + 1):
            na, nb, nc = [], [], []
            for a, b, c in zip(fa, fb, fc):
                f = b + 2 * a
                g = b + 2 * c
                first, second = ref_edge_term((d32, d52, d92), b, f, g,
                                              f + 2 * c)
                t1.append(first)
                t2.append(second)
                na += [a, a + b + c]
                nb += [f, g]
                nc += [a + b + c, c]
            terms += len(fa)
            fa, fb, fc = na, nb, nc
        sums1.append(fsum(t1))
        sums2.append(fsum(t2))
    target = 2 * log(float(epsilon(D)))
    return (SeriesReport("mt", D, depth, fsum(sums1), target, terms),
            SeriesReport("mt2", D, depth, fsum(sums2), target, terms))


def ref_square_vertex(m, r1, r2, r3):
    """Both terms of the square sums at the vertex (r1, r2, r3), or None at
    a lake vertex."""
    m3, m5, m9 = float(m ** 3), float(m ** 5), float(m ** 9)
    if r1 == 0 or r2 == 0 or r3 == 0:
        return None
    neg = (r1 < 0) + (r2 < 0) + (r3 < 0)
    if neg in (1, 2):
        if neg == 1:
            odd = min(x for x in (r1, r2, r3) if x < 0)
        else:
            odd = max(x for x in (r1, r2, r3) if x > 0)
        return ref_hanging_term(m, m3, abs((r1 + r2 + r3) - 2 * odd))
    e = r2 + r3 - r1
    f = r1 + r3 - r2
    g = r1 + r2 - r3
    return ref_edge_term((m3, m5, m9), e, f, g, e + f + g)


def ref_series_square(q, depth):
    D = q.discriminant()
    m = isqrt(D)
    r = reduce_square(q).canonical.c
    g0 = gcd(m, r)
    if m > 1 and g0 == 1:
        s_res = pow(r, -1, m) or m
    else:
        s_res = r
    river = find_river(q)
    k = len(river.edges)
    a, b, c = river.edges[k // 2].form if k else QuadForm(r, -m, 0)
    verts = [(a, c, a - b + c)]
    fa = [a, c, a - b + c]
    fb = [b, -b + 2 * c, -b + 2 * a]
    fc = [c, a - b + c, a]
    sums1, sums2 = [], []
    terms = 0
    for lvl in range(depth + 1):
        t1, t2 = [], []
        for r1, r2, r3 in verts:
            term = ref_square_vertex(m, r1, r2, r3)
            if term is None:
                continue
            t1.append(term[0])
            t2.append(term[1])
            terms += 1
        sums1.append(fsum(t1))
        sums2.append(fsum(t2))
        if lvl == depth:
            break
        verts = []
        na, nb, nc = [], [], []
        for a, b, c in zip(fa, fb, fc):
            h = a + b + c
            verts.append((a, c, h))
            na += [a, h]
            nb += [b + 2 * a, b + 2 * c]
            nc += [h, c]
        fa, fb, fc = na, nb, nc
    v1 = fsum(sums1) + W1(r / m) + W1(s_res / m)
    v2 = fsum(sums2) + (W2(r / m) + W2(s_res / m) + 1) / 3
    if m == 1:
        v1 -= 2
        v2 -= 8 / 3
    target = 2 * log(m / (2 * g0))
    return (SeriesReport("sq", D, depth, v1, target, terms),
            SeriesReport("sq2", D, depth, v2, target, terms))


def ref_seed_and_root_products(D):
    """The former seed search and root products for non-square D > 0: a
    river walk for every primitive Zagier * form, whose canonical simple
    cycle names its class.  Returns the seed and each class's product."""
    products = {}
    for f in zstar_forms(D):
        if f.content() != 1:
            continue
        key = reduce_simple_cycle(f).canonical
        a, b, _ = f
        root = Surd(-b, 1, 2 * a, D)
        products[key] = products.get(key, Surd(1, 0, 1, D)) * root
    seed = min((len(find_river(key[0]).edges), key[0]) for key in products)[1]
    return seed, products


def _definite_discs():
    return [D for D in range(-100, -2) if D % 4 in (0, 1)]


def _nonsquare_discs(limit):
    return [D for D in range(5, limit) if D % 4 in (0, 1) and not is_square(D)]


# ------------------------------------------------------- definite sums

def test_series_neg_matches_reference(monkeypatch):
    got = {(D, d): series_neg(principal_form(D), d)
           for D in _definite_discs() for d in (0, 1, 5, 12)}
    monkeypatch.setattr(series, "_neg_scan", ref_neg_scan)
    for (D, d), reports in got.items():
        assert reports == series_neg(principal_form(D), d), (D, d)


def test_hurwitz_series_matches_reference(monkeypatch):
    got = {(D, d): hurwitz_series(D, d)
           for D in _definite_discs() for d in (0, 3, 9)}
    monkeypatch.setattr(series, "_neg_scan", ref_neg_scan)
    for (D, d), report in got.items():
        assert report == hurwitz_series(D, d), (D, d)


def test_series_neg_profile_matches_reference(monkeypatch):
    forms = (QuadForm(1, 0, 5), QuadForm(1, 1, 8))  # D = -20, -31
    got = [series_neg_profile(q, range(4, 15)) for q in forms]
    monkeypatch.setattr(series, "_neg_scan", ref_neg_scan)
    for q, prof in zip(forms, got):
        assert prof == series_neg_profile(q, range(4, 15)), q


# the reference loop's profiles at depths 19 and 20, where part of every
# level has products beyond 2^53, as the Python-int terms gave them: the
# plain IEEE terms keep every bit of them
_DEEP_PROFILES = {
    QuadForm(1, 0, 5): {
        19: (12.558227585182234, 75.39772502408762),
        20: (12.559355777643416, 75.39783466730137),
    },
    QuadForm(1, 1, 8): {
        19: (12.551090626720892, 75.39676962664115),
        20: (12.55319108349656, 75.39708669402742),
    },
}


def test_series_neg_profile_deep_levels():
    for q, want in _DEEP_PROFILES.items():
        assert series_neg_profile(q, [19, 20]) == want, q


def test_deep_level_terms_match_the_scalar_reference():
    # level 19 of D = -20: the kernel's terms equal the scalar reference's
    # on every edge whose product leaves float64's exact range and on a
    # sample of the rest
    a, b, c = 1, 0, 5
    t = a - b + c
    levels = _levels([a, c, t], [b, -b + 2 * c, -b + 2 * a], [c, t, a])
    for _, level in zip(range(19), levels):
        pass
    fa, fb, fc = level
    h = fa + fb + fc
    wide = np.abs(fa.astype(float) * fc.astype(float) * h.astype(float)) \
        >= 2.0 ** 53
    assert 0 < wide.sum() < len(wide)
    pick = np.concatenate((np.flatnonzero(wide)[:5000],
                           np.arange(0, len(wide), 97)))
    got = series._definite_terms(fa[pick], fb[pick], fc[pick])
    want = [ref_definite_term(x, z, x + y + z)
            for x, y, z in zip(*(col[pick].tolist() for col in level))]
    assert got.T.tolist() == [list(w) for w in want]


definite_forms = st.builds(
    lambda a, c, b, word, sign: (sign * a, sign * b, sign * c, word),
    st.integers(1, 60), st.integers(1, 60), st.integers(-20, 20),
    st.lists(st.sampled_from(sorted(_MOVES)), max_size=40),
    st.sampled_from((1, -1)),
).filter(lambda f: f[1] ** 2 < 4 * f[0] * f[2])


@settings(max_examples=60, deadline=None)
@given(definite_forms, st.integers(0, 7))
def test_moved_definite_forms_match_reference(form, depth):
    a, b, c, word = form
    q = _moved((a, b, c), word)
    got = series_neg(q, depth)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(series, "_neg_scan", ref_neg_scan)
        assert got == series_neg(q, depth)


def test_labels_beyond_int64():
    # 55- and 58-bit coefficients leave int64 within a level or two; with
    # 69 bits the kernel runs on Python ints from the start
    for pairs, bits in ((19, 55), (20, 58), (24, 69)):
        q = _moved((1, 1, 8), ["L", "R"] * pairs)
        assert max(map(abs, q)).bit_length() == bits
        assert series._neg_scan(q, [0, 3, 5]) == ref_neg_scan(q, [0, 3, 5])


# ----------------------------------------------------------- river sums

def test_series_pos_matches_reference():
    for D in _nonsquare_discs(400):
        q = series_seed(D)
        for d in (0, 3) if D % 7 else (0, 3, 8):
            assert series_pos(q, d) == ref_series_pos(q, d), (D, d)
    q = series_seed(96)
    assert series_pos(q, 12) == ref_series_pos(q, 12)


def _wide_labels(rng, bits, n=400):
    """n random label triples of up to `bits` bits, none of whose terms
    divides by zero (no topograph has such a vertex)."""
    out = []
    while len(out) < n:
        a, b, c = (rng.choice((1, -1)) * rng.randrange(2 ** bits)
                   for _ in range(3))
        r3 = a + b + c
        if (a * c * r3 * b * (b + 2 * a) * (b + 2 * c)
                and (r3 + c - a) * (a + r3 - c) * (a + c - r3)
                and a + c + r3 - 2 * min(a, c, r3)
                and a + c + r3 - 2 * max(a, c, r3)):
            out.append((a, b, c))
    return [list(col) for col in zip(*out)]


def test_levels_leave_int64_exactly():
    # labels near 2^57 reach 2^58 within a level or two; from there on the
    # levels hold Python ints, equal to the exact expansion
    rng = random.Random(1)
    a, b, c = _wide_labels(rng, 57, 8)
    levels = _levels(a, b, c)
    for _, level in zip(range(5), levels):
        assert [x.tolist() for x in level] == [a, b, c]
        hs = [x + y + z for x, y, z in zip(a, b, c)]
        a, b, c = ([y for x, h in zip(a, hs) for y in (x, h)],
                   [y for x, bb, cc in zip(a, b, c)
                    for y in (bb + 2 * x, bb + 2 * cc)],
                   [y for h, cc in zip(hs, c) for y in (h, cc)])
    assert level[0].dtype == object


def test_edge_terms_on_wide_labels():
    # river-sum edge terms for labels from 2^20 to beyond int64: the
    # products leave float64's exact range on part or all of each array
    rng = random.Random(2)
    k = (96 ** 1.5, 96 ** 2.5, 96 ** 4.5)
    for bits in (20, 27, 30, 45, 57, 61, 70):
        cols = _wide_labels(rng, bits)
        got = series._tree_terms(k, *_labels(*cols))
        want = [ref_edge_term(k, b, b + 2 * a, b + 2 * c, b + 2 * a + 2 * c)
                for a, b, c in zip(*cols)]
        assert got.T.tolist() == [list(w) for w in want], bits


def test_definite_terms_on_wide_labels():
    rng = random.Random(4)
    for bits in (10, 20, 27, 30, 57, 61, 70):
        cols = _wide_labels(rng, bits)
        got = series._definite_terms(*_labels(*cols))
        want = [ref_definite_term(a, c, a + b + c)
                for a, b, c in zip(*cols)]
        assert got.T.tolist() == [list(w) for w in want], bits


def test_definite_terms_near_rounding_boundaries():
    # p = 2^j (2^54 + 1) and 2^j (2^54 - 1) are not floats, and p^2 lies
    # within 2^-50 ulp of a rounding boundary: the terms take fl(p), then
    # fl(fl(p)^2), where the exact p would give fl(p^2)
    cols = [], [], []
    for j in range(12):
        for c, h in ((262145, 68719214593), (2 ** 27 - 1, 2 ** 27 + 1)):
            for x, y, z in ((2 ** j, c, h), (c, 2 ** j, h)):
                for col, v in zip(cols, (x, z - x - y, y)):
                    col.append(v)
    got = series._definite_terms(*_labels(*cols))
    want = [ref_definite_term(a, c, a + b + c) for a, b, c in zip(*cols)]
    assert got.T.tolist() == [list(w) for w in want]
    exact = [abs(a + c + a + b + c) / float((a * c * (a + b + c)) ** 2)
             for a, b, c in zip(*cols)]
    assert got[1].tolist() != exact


def test_square_terms_on_wide_labels():
    # lake, river and off-river vertices, with labels up to beyond int64
    rng = random.Random(3)
    for m, bits in ((7, 3), (7, 12), (2 ** 18 + 1, 19), (324, 30),
                    (2 ** 30 + 1, 31), (2 ** 27 + 1, 40), (7, 61), (5, 70)):
        cols = _wide_labels(rng, bits)
        got = series._square_terms(m, *_labels(*cols))
        want = [ref_square_vertex(m, a, c, a + b + c)
                for a, b, c in zip(*cols)]
        want = [w for w in want if w is not None]
        assert sorted(got.T.tolist()) == sorted(list(w) for w in want), m


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_nonsquare_discs(3000)),
       st.lists(st.sampled_from(sorted(_MOVES)), max_size=30),
       st.integers(0, 4))
def test_moved_indefinite_forms_match_reference(D, word, depth):
    q = _moved(principal_form(D), word)
    assert series_pos(q, depth) == ref_series_pos(q, depth)


# ---------------------------------------------------------- square sums

def test_series_square_matches_reference():
    for m in range(1, 41):
        q = series_seed(m * m)
        for d in (0, 1, 4, 12) if m % 4 == 1 else (0, 1, 4):
            assert series_square(q, d) == ref_series_square(q, d), (m, d)
    q = series_seed(324)
    assert series_square(q, 15) == ref_series_square(q, 15)


def test_series_square_large_m():
    # consecutive Fibonacci numbers keep the river short; m near 2^27 puts
    # the products beyond 2^53, and m beyond 2^53 the labels beyond int64
    fib = [1, 1]
    while len(fib) < 82:
        fib.append(fib[-1] + fib[-2])
    for k in (40, 60, 81):
        q = QuadForm(0, fib[k], fib[k - 1])
        assert series_square(q, 4) == ref_series_square(q, 4), k


# ------------------------------------------------------------- numerics

def test_terms_take_products_not_pow():
    # labels whose |p|^3 as the platform pow gives it, one rounding,
    # differs from p p p, two roundings, on part of the entries: the edge
    # terms take the products, and so does the hanging edge's 3 et^3
    rng = random.Random(6)
    k = (1.0, 1.0, 1.0)
    cols = _wide_labels(rng, 30, 2000)
    got = series._tree_terms(k, *_labels(*cols))
    want = [ref_edge_term(k, b, b + 2 * a, b + 2 * c, b + 2 * a + 2 * c)
            for a, b, c in zip(*cols)]
    assert got.T.tolist() == [list(w) for w in want]
    p = [ref_product(b, b + 2 * a, b + 2 * c) for a, b, c in zip(*cols)]
    assert any(x ** 3 != x * x * x for x in p)
    et = [abs(x) for x in cols[1]
          if float(x) ** 3 != float(x) * float(x) * float(x)]
    assert et
    # the river vertex (1, -1, et - 2), whose hanging edge is et
    m = 2 ** 40 + 1
    got = series._square_terms(m, *_labels([1] * len(et),
                                           [x - 2 for x in et],
                                           [-1] * len(et)))
    assert got.T.tolist() == [list(ref_hanging_term(m, float(m ** 3), x))
                              for x in et]


def _values(result):
    """The floats of a series result as hex strings, with term counts."""
    if isinstance(result, SeriesReport):
        result = (result,)
    return [(r.value.hex(), r.terms_used) if isinstance(r, SeriesReport)
            else r.hex() for r in result]


def test_no_term_depends_on_pow_or_the_batch_size(monkeypatch):
    # the sums give the same bits in batches of 64 and of 2^16 edges
    fib = [1, 1]
    while len(fib) < 82:
        fib.append(fib[-1] + fib[-2])
    calls = [
        (series_neg, QuadForm(1, 0, 5), 12),
        # 55-bit labels, which pass 2^58 within the walk
        (series_neg, _moved((1, 1, 8), ["L", "R"] * 19), 6),
        (series_pos, series_seed(96), 10),
        (series_square, series_seed(324), 10),
        (series_square, QuadForm(0, fib[81], fib[80]), 4),
        (hurwitz_series, -47, 8),
        (eisenstein_check, 3, 400),
    ]
    got = {}
    for size in (64, 1 << 16):
        monkeypatch.setattr(series, "_CHUNK", size)
        got[size] = [_values(fn(*args)) for fn, *args in calls]
    assert got[64] == got[1 << 16]
    # the terms equal the scalar reference on labels above 2^53, as int64
    # and, from 2^58 on, as Python ints
    rng = random.Random(7)
    k = (96 ** 1.5, 96 ** 2.5, 96 ** 4.5)
    m = 2 ** 40 + 1
    for bits, dtype in ((54, np.int64), (57, np.int64), (60, object),
                        (90, object)):
        cols = _wide_labels(rng, bits)
        labels = _labels(*cols)
        assert labels[0].dtype == dtype
        assert max(map(abs, cols[0])) > 2 ** 53
        rows = list(zip(*cols))
        assert series._definite_terms(*labels).T.tolist() == [
            list(ref_definite_term(a, c, a + b + c)) for a, b, c in rows]
        assert series._tree_terms(k, *labels).T.tolist() == [
            list(ref_edge_term(k, b, b + 2 * a, b + 2 * c, b + 2 * a + 2 * c))
            for a, b, c in rows]
        want = [ref_square_vertex(m, a, c, a + b + c) for a, b, c in rows]
        assert sorted(series._square_terms(m, *labels).T.tolist()) == sorted(
            list(w) for w in want if w is not None)


def test_exact_parts_match_fsum():
    rng = np.random.default_rng(4)
    for rows, n in ((1, 5), (2, 300), (3, 20000), (7, 1000)):
        t = rng.standard_normal(rows * n)
        t *= 10.0 ** rng.integers(-40, 40, rows * n)
        t[::11] = 0.0
        t[::13] = np.ldexp(1.0, -1074)
        t = t.reshape(rows, n)
        assert ([fsum(p) for p in series._exact_parts(t)]
                == [fsum(row) for row in t.tolist()])


def test_exact_parts_by_group_from_no_columns_up():
    # one bucket pass at every width; no columns leave the parts unchanged
    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 255, 256, 3000):
        t = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-30, 30, (2, n))
        g = rng.integers(3, 9, n)
        parts = [[0.5] for _ in range(18)]
        assert series._exact_parts(t, g, parts) is parts
        for key, p in enumerate(parts):
            row, group = key % 2, key // 2
            assert fsum(p) == fsum([0.5] + t[row, g == group].tolist())
    assert series._exact_parts(np.empty((3, 0))) == [[], [], []]


# -------------------------------------------- one river walk per class

def test_seed_and_root_product_walk_each_class_once():
    # every D below 600 and every tenth one up to 2000: the reference walks
    # a river for each of 76,054 Zagier * forms below 2000 (about 20 s)
    discs = _nonsquare_discs(2000)
    for D in [D for D in discs if D < 600] + discs[discs.index(601)::10]:
        seed, products = ref_seed_and_root_products(D)
        assert series_seed(D) == seed, D
        for key, prod in products.items():
            assert root_product(key[0]) == prod, (D, key[0])
            assert root_product(_moved(key[0], ["R", "Li", "R"])) == prod
