"""The four workloads.  Each workload function draws its inputs from a
seeded random generator, computes what every output must be with the
oracles, and returns the fixed list of operations one pass runs.  The number of operations of
each kind does not depend on the seed, and neither do their sizes beyond a
narrow band, so that passes of different seeds cost about the same."""

import contextlib
import io
import json
import math
from fractions import Fraction
from math import gcd, isqrt

import oracles as O
from harness import Op

# percentile behind op_tail, per workload: the highest that keeps at least
# ten samples beyond it at the run length in BENCHMARK.json
TAIL_PCT = {"queries": 99.9, "rivers": 90, "census": 90, "series": 95}


def _disc_ok(D):
    return D % 4 in (0, 1) and not (D > 0 and isqrt(D) ** 2 == D)


def _log_uniform(rng, lo, hi):
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _ladder(lo, hi, count):
    """`count` sizes spaced evenly in log scale from lo to hi: drawing one
    input near each rung keeps the spread of sizes the same in every seed."""
    return [lo * (hi / lo) ** (k / max(1, count - 1)) for k in range(count)]


def _near(rng, n, ok, rel=0.03):
    """An integer within `rel` of n that passes `ok`."""
    while True:
        m = rng.randint(int(n * (1 - rel)), int(n * (1 + rel)) + 1)
        if ok(m):
            return m


def _river_target(D):
    # a typical river length at discriminant D, for choosing inputs whose
    # walks cost the same from seed to seed
    return 3 * D ** 0.3


def _banded(rng, n, lengths):
    """A discriminant near n, and one of its rivers whose length is within
    [0.8, 1.25] of the target; `lengths(D)` lists (length, river) choices.
    After 40 draws the closest one seen is taken."""
    best = None
    for _ in range(40):
        D = _near(rng, n, _disc_ok, rel=0.1)
        t = _river_target(D)
        for length, river in lengths(D):
            dist = abs(math.log(length / t))
            if best is None or dist < best[0]:
                best = (dist, D, river)
        if best[0] <= math.log(1.25):
            break
    return best[1], best[2]


def _principal_river(D):
    forms, letters = O.river(O.principal_form(D))
    return [(len(forms), letters)]


def _class_rivers(D):
    C = O.IndefiniteClasses(D)
    return [(len(O.river(_simple_member(cyc))[0]), (C, k))
            for k, cyc in enumerate(C.cycles)]


def _disc_near(rng, lo, hi, positive=True):
    """A valid non-square discriminant drawn log-uniformly from [lo, hi]."""
    while True:
        n = _log_uniform(rng, lo, hi)
        D = n if positive else -n
        if D != 0 and _disc_ok(D):
            return D


def _scramble(rng, blocks, kmax):
    """A random product of L^k and R^k blocks."""
    word = [("L" if i % 2 == 0 else "R", rng.randint(1, kmax) * rng.choice((1, -1)))
            for i in range(blocks)]
    return O.word_matrix(word)


def _rotation_of(seq, ref):
    """True when `seq` is a cyclic rotation of the string `ref`."""
    s = "".join(seq)
    return len(s) == len(ref) and s in ref + ref


def _simply_reduced_cycle(q0):
    """The simply reduced forms met along one river period from a simple
    form, rotated to start at the least."""
    forms, _ = O.river(q0)
    srs = [f for f in forms if O.is_simply_reduced(f)]
    i = srs.index(min(srs))
    return srs[i:] + srs[:i]


def _simple_member(cyc):
    return next(f for f in cyc if f[0] > 0)


# ------------------------------------------------------------- checks

def _check_certificate(q, res, canonical):
    t = tuple(res.transform)
    return O.det(t) == 1 and O.act(tuple(q), t) == tuple(canonical)


def _check_reduce_negative(q, expect):
    def check(res):
        w = tuple(-x for x in q) if q[0] < 0 else tuple(q)
        return (res.negated == (q[0] < 0)
                and _check_certificate(w, res, res.canonical)
                and O.is_reduced_definite(tuple(res.canonical))
                and tuple(res.canonical) == expect)
    return check


def _check_well(q, expect):
    def check(res):
        at = tuple(res.at.form)
        if O.replay(tuple(q), res.at.path) != at:
            return False
        a, b, c = at
        if res.kind == "vertex_well":
            ok = tuple(res.labels) == (b, 2 * a - b, 2 * c - b) and min(res.labels) > 0
            low = min(a, c, a - b + c)
        else:
            ok = b == 0 and tuple(res.labels) == (a, c) and min(a, c) > 0
            low = min(a, c)
        return ok and O.reduce_definite(at) == expect and low == expect[0]
    return check


def _check_simple_cycle(q, expect):
    def check(res):
        return (tuple(tuple(f) for f in res.canonical) == expect
                and _check_certificate(q, res, expect[0]))
    return check


def _check_pell(expect):
    def check(res):
        return (res.t, res.u) == expect
    return check


def _check_negative_pell(expect):
    def check(res):
        return (None if res is None else (res.t, res.u)) == expect
    return check


def _check_river(q, letters_ref):
    def check(res):
        edges = [tuple(e.form) for e in res.edges]
        if res.kind != "periodic" or not _rotation_of(res.word, letters_ref):
            return False
        if O.replay(tuple(q), res.edges[0].path) != edges[0]:
            return False
        for i, (f, t) in enumerate(zip(edges, res.word)):
            if f[0] * f[2] >= 0 or O.TURNS[t](f) != edges[(i + 1) % len(edges)]:
                return False
        return True
    return check


def _check_report(target, bound, size, depth, want=None):
    """A partial sum of positive terms sits below its limit, within the
    residual envelope for its depth; `want` also pins terms_used."""
    limit = bound(size, depth)

    def check(rep):
        ok = (abs(rep.target - target) <= 1e-9 * max(1.0, abs(target))
              and target - limit <= rep.value <= target + 1e-9 * max(1.0, abs(target)))
        return ok and (want is None or rep.terms_used == want)
    return check


# residual envelopes of the series at depth d, each at least 2.5 times the
# largest residual seen over the workload's discriminant ranges
def _env_mik(D, d):
    return 4 * math.pi * 0.012 * abs(D) * 0.8 ** d


def _env_mik2(D, d):
    return 24 * math.pi * 0.012 * abs(D) * 0.8 ** d


def _env_mt(D, d):
    return 2 * O.log_eps(D) * 0.01 * math.sqrt(D) * 0.8 ** d


def _env_sq(m, d):
    return 0.2 * math.sqrt(m) * 0.8 ** d


def _env_hurwitz(D_and_H, d):
    D, H = D_and_H
    return H * 0.06 * math.sqrt(-D) * 0.8 ** d


# -------------------------------------------------------------- queries

def _definite(rng, top):
    """A positive definite form with coefficients up to `top`: a reduced
    form moved by three random L/R blocks, so that every draw is the same
    number of reduction steps from its canonical form."""
    while True:
        a = rng.randint(1, 40)
        q = O.act((a, rng.randint(1 - a, a), rng.randint(a, 60)), _scramble(rng, 3, 4))
        if max(map(abs, q)) <= top:
            return q


def _surd_batch(x, y):
    return (x + y, x - y, x * y, x.invert(), x.floor(), x.conj())


def _fr(s):
    return (Fraction(s.p, s.r), Fraction(s.q, s.r))


def _check_surd_batch(x, y):
    d = x.d
    X, Y = _fr(x), _fr(y)
    n = X[0] * X[0] - X[1] * X[1] * d
    expect = ((X[0] + Y[0], X[1] + Y[1]), (X[0] - Y[0], X[1] - Y[1]),
              O.cmul(X, Y, d), (X[0] / n, -X[1] / n))
    p, q, r = x.p, x.q, x.r
    N = q * q * d
    fl = (O.floor_quad(p, r, N, isqrt(N)) if q > 0
          else O.floor_quad(-p, -r, N, isqrt(N)))

    def check(res):
        got = tuple(_fr(s) for s in res[:4])
        return got == expect and res[4] == fl and _fr(res[5]) == (X[0], -X[1])
    return check


def _check_lr(z):
    d = z.d
    Z = _fr(z)

    def check(res):
        word, z1, needs_s = res
        Z1 = _fr(z1)
        in_f = O.in_F(Z1, d)
        place = (not in_f and O.in_SF(Z1, d)) if needs_s else in_f
        return place and O.mobius_is(O.word_matrix(word), Z1, Z, d)
    return check


def _check_roots(forms):
    def one(q, r):
        a, b, c = q
        D = b * b - 4 * a * c
        if D >= 0 and isqrt(D) ** 2 == D:  # rational roots
            m = isqrt(D)
            want = (Fraction(-b + m, 2 * a), Fraction(-b - m, 2 * a))
            return tuple(Fraction(x.num, x.den) for x in r) == want
        want = ((Fraction(-b, 2 * a), Fraction(1, 2 * a)),
                (Fraction(-b, 2 * a), Fraction(-1, 2 * a)))
        return tuple(_fr(x) for x in r) == want and r[0].d == D

    def check(res):
        return all(one(q, r) for q, r in zip(forms, res))
    return check


def _cli_op(cli, argv, check):
    def run(call):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = call("cli.run.per_call", 1, cli.run, argv)
        return code, buf.getvalue()

    def check_out(res):
        code, out = res
        return code == 0 and check(json.loads(out))
    return Op("cli.run", ["cli.run.per_call"], run, check_out)


def queries(rng, lib):
    """Many small exact queries across every regime, a share of them
    through the command line entry point."""
    import topoforms.cli as cli

    QF = lib.QuadForm
    ops = []
    pell_discs = []

    for i in range(40):
        q = _definite(rng, 10 ** 6)
        red = O.reduce_definite(q)
        qn = tuple(-x for x in q) if i % 4 == 0 else q
        ops.append(Op("reduce_negative", ["reduce.reduce_negative.per_call"],
                      lambda call, f=QF(*qn): call("reduce.reduce_negative.per_call", 1,
                                                   lib.reduce_negative, f),
                      _check_reduce_negative(qn, red)))
        ops.append(Op("find_well", ["topograph.find_well.per_call"],
                      lambda call, f=QF(*q): call("topograph.find_well.per_call", 1,
                                                  lib.find_well, f),
                      _check_well(q, red)))

    for _ in range(20):
        m = rng.randint(1, 2000)
        r = rng.randint(1, m)
        q = O.act((0, m, r), _scramble(rng, 4, 30))

        def check(res, q=q, m=m, r=r):
            return (tuple(res.canonical) == (0, m, r)
                    and _check_certificate(q, res, (0, m, r)))
        ops.append(Op("reduce_square", ["reduce.reduce_square.per_call"],
                      lambda call, f=QF(*q): call("reduce.reduce_square.per_call", 1,
                                                  lib.reduce_square, f), check))

    for size in _ladder(100, 10 ** 5, 12):
        D, (C, k) = _banded(rng, size, _class_rivers)
        q = O.act(rng.choice(C.cycles[k]), _scramble(rng, 4, 6))
        sr = tuple(_simply_reduced_cycle(_simple_member(C.cycles[k])))
        g_set = sorted(f for f in O.g_reduced_forms(D) if C.key(f) == k)
        z_set = sorted(f for f in O.z_reduced_forms(D) if C.key(f) == k)

        def check_set(res, want):
            got = [tuple(f) for f in res]
            return sorted(got) == want and got[0] == want[0]
        f = QF(*q)
        ops.append(Op("reduce_simple_cycle", ["reduce.reduce_simple_cycle.per_call"],
                      lambda call, f=f: call("reduce.reduce_simple_cycle.per_call", 1,
                                             lib.reduce_simple_cycle, f),
                      _check_simple_cycle(q, sr)))
        ops.append(Op("gauss_cycle", ["reduce.gauss_cycle.per_call"],
                      lambda call, f=f: call("reduce.gauss_cycle.per_call", 1,
                                             lib.gauss_cycle, f),
                      lambda res, w=g_set: check_set(res, w)))
        ops.append(Op("zagier_cycle", ["reduce.zagier_cycle.per_call"],
                      lambda call, f=f: call("reduce.zagier_cycle.per_call", 1,
                                             lib.zagier_cycle, f),
                      lambda res, w=z_set: check_set(res, w)))

    for size in _ladder(50, 10 ** 4, 16):
        D, letters = _banded(rng, size, _principal_river)
        pell_discs.append(D)
        plus, minus = O.pell_units(D)
        ops.append(Op("pell_fundamental", ["riverword.pell_fundamental.per_river_letter"],
                      lambda call, D=D, w=len(letters):
                      call("riverword.pell_fundamental.per_river_letter", w,
                           lib.pell_fundamental, D),
                      _check_pell(plus)))
        ops.append(Op("negative_pell", ["riverword.negative_pell.per_call"],
                      lambda call, D=D: call("riverword.negative_pell.per_call", 1,
                                             lib.negative_pell, D),
                      _check_negative_pell(minus)))

    for size in _ladder(100, 10 ** 4, 6):
        D = -_near(rng, size, lambda n: n % 4 == 3, rel=0.01)
        ops.append(Op("h_neg", ["classnum.h_neg.per_call"],
                      lambda call, D=D: call("classnum.h_neg.per_call", 1, lib.h_neg, D),
                      lambda res, h=O.h_definite(D): res == h))

    for size in _ladder(50, 10 ** 4, 10):
        D, letters = _banded(rng, size, _principal_river)
        bits = O.least_rotation("".join("0" if x == "L" else "1" for x in letters))

        def run(call, D=D):
            n = call("riverword.necklace_of.per_call", 1, lib.necklace_of, D)
            return n, call("riverword.topograph_of_necklace.per_call", 1,
                           lib.topograph_of_necklace, n)

        def check(res, D=D, bits=bits):
            n, q = res
            q = tuple(q)
            if n.bits != bits or O.disc(q) != D or not O.is_simple(q):
                return False
            _, back = O.river(q)
            return _rotation_of(("0" if x == "L" else "1" for x in back), bits)
        ops.append(Op("necklace_round_trip", ["riverword.necklace_of.per_call",
                                              "riverword.topograph_of_necklace.per_call"],
                      run, check))

    for i in range(30):
        if i % 3 == 0:
            num = rng.randint(-10 ** 40, 10 ** 40)
            den = rng.randint(1, 10 ** 40)
            x = lib.Rat(num, den)
            want = (O.rational_cf(x.num, x.den), None)
        else:
            # surds whose expansion has 40 to 60 terms, so that no seed
            # draws a period of thousands
            while True:
                d = rng.randint(2, 1000)
                if isqrt(d) ** 2 == d:
                    continue
                x = lib.Surd(rng.randint(-10 ** 3, 10 ** 3), rng.choice((-3, -2, -1, 1, 2, 3)),
                             rng.randint(1, 20), d)
                want = O.surd_cf(x.p, x.q, x.r, x.d)
                if 40 <= len(want[0]) + len(want[1]) <= 60:
                    break
        ops.append(Op("real_cf", ["contfrac.real_cf.per_term"],
                      lambda call, x=x, w=len(want[0]) + len(want[1] or ()):
                      call("contfrac.real_cf.per_term", w, lib.real_cf, x),
                      lambda res, w=want: (res.terms, res.period) == w))

    for _ in range(20):
        a, b, c = _definite(rng, 10 ** 6)
        z = lib.Surd(-b, 1, 2 * a, b * b - 4 * a * c)
        ops.append(Op("lr_decompose", ["contfrac.lr_decompose.per_call"],
                      lambda call, z=z: call("contfrac.lr_decompose.per_call", 1,
                                             lib.lr_decompose, z),
                      _check_lr(z)))

    for _ in range(10):
        pairs = []
        for _ in range(10):
            q = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
            pairs.append((QF(*q), lib.UniMat(*_scramble(rng, 3, 50))))

        def run(call, pairs=pairs):
            return [call("forms.act.per_call", 1, lib.act, q, m) for q, m in pairs]
        want = [O.act(tuple(q), tuple(m)) for q, m in pairs]
        ops.append(Op("act", ["forms.act.per_call"], run,
                      lambda res, w=want: [tuple(f) for f in res] == w))

    for _ in range(10):
        forms = []
        while len(forms) < 10:
            kind = len(forms) % 3
            if kind == 0:
                q = _definite(rng, 10 ** 6)
            elif kind == 1:
                m, r = rng.randint(1, 1000), rng.randint(1, 1000)
                q = O.act((0, m, r), _scramble(rng, 3, 5))
            else:
                q = tuple(rng.randint(-10 ** 4, 10 ** 4) for _ in range(3))
            if q[0] != 0 and O.disc(q) != 0:
                forms.append(q)

        def run(call, fs=[QF(*q) for q in forms]):
            return [call("forms.roots.per_call", 1, lib.roots, q) for q in fs]
        ops.append(Op("roots", ["forms.roots.per_call"], run, _check_roots(forms)))

    for _ in range(10):
        while True:
            d = rng.randint(2, 10 ** 5)
            if isqrt(d) ** 2 != d:
                break
        x, y = (lib.Surd(rng.randint(-10 ** 9, 10 ** 9), rng.choice((-7, -1, 1, 5)),
                         rng.randint(1, 10 ** 6), d) for _ in range(2))
        ops.append(Op("surd_ops", ["exact.surd_ops.per_op"],
                      lambda call, x=x, y=y: call("exact.surd_ops.per_op", 6,
                                                  _surd_batch, x, y),
                      _check_surd_batch(x, y)))

    rungs = {kind: _ladder(*span, 8) for kind, span in
             ((1, (100, 10 ** 4)), (2, (100, 3000)), (3, (50, 10 ** 4)), (4, (20, 2000)))}
    for i in range(40):
        kind = i % 5
        size = rungs.get(kind, [0] * 8)[i // 5]
        if kind == 0:
            q = _definite(rng, 10 ** 6)
            red = O.reduce_definite(q)

            def check(doc, q=q, red=red):
                t = tuple(int(x) for x in doc["transform"])
                return (doc["canonical"] == [[str(x) for x in red]]
                        and O.det(t) == 1 and O.act(q, t) == red)
        elif kind == 1:
            D, (C, k) = _banded(rng, size, _class_rivers)
            cyc = C.cycles[k]
            q = O.act(cyc[0], _scramble(rng, 3, 4))
            sr = _simply_reduced_cycle(_simple_member(cyc))

            def check(doc, sr=sr):
                return doc["canonical"] == [[str(x) for x in f] for f in sr]
        elif kind == 2:
            D = -_near(rng, size, lambda n: n % 4 == 3)
            q = None

            def check(doc, h=O.h_definite(D)):
                return doc["h"] == str(h)
            argv = ["classnum", "--disc", str(D), "--json"]
        elif kind == 3:
            D, _ = _banded(rng, size, _principal_river)
            pell_discs.append(D)
            q = None
            plus, minus = O.pell_units(D)

            def check(doc, plus=plus, minus=minus):
                star = (int(doc["t_star"]), int(doc["u_star"])) if "t_star" in doc else None
                return (int(doc["t"]), int(doc["u"])) == plus and star == minus
            argv = ["pell", "--disc", str(D), "--json"]
        else:
            n = _near(rng, size, lambda n: n % 4 in (1, 2))
            q = None

            def check(doc, r3=O.r3_brute(n)):
                return doc["count"] == str(r3)
            argv = ["r3", "--n", str(n), "--json"]
        if q is not None:
            argv = ["reduce", "--form=" + ",".join(str(x) for x in q), "--json"]
        ops.append(_cli_op(cli, argv, check))

    return ops, sorted(set(pell_discs))


# --------------------------------------------------------------- rivers

def _river_disc(rng, size, lo_edges, hi_edges):
    """D within 10% of `size` whose principal river has between lo and hi
    edges, an even number of them and no -4 Pell solution, so that the cost
    of every river walk on it is fixed by the band."""
    while True:
        D = _near(rng, size, _disc_ok, rel=0.1)
        walk = O.river(O.principal_form(D), cap=hi_edges)
        if walk is None or len(walk[0]) < lo_edges or len(walk[0]) % 2:
            continue
        if O.pell_units(D)[1] is None:
            return D, walk


def rivers(rng, lib):
    """A few long walks on big integers: long periods, huge partial
    quotients, and forms of thousands of bits far from their river."""
    QF = lib.QuadForm
    ops = []

    def add_pell(D, letters, negative=True):
        plus, minus = O.pell_units(D)
        ops.append(Op("pell_fundamental", ["riverword.pell_fundamental.per_river_letter"],
                      lambda call, D=D, w=letters:
                      call("riverword.pell_fundamental.per_river_letter", w,
                           lib.pell_fundamental, D),
                      _check_pell(plus)))
        if not negative:
            return
        ops.append(Op("negative_pell", ["riverword.negative_pell.per_call"],
                      lambda call, D=D: call("riverword.negative_pell.per_call", 1,
                                             lib.negative_pell, D),
                      _check_negative_pell(minus)))

    def add_walks(q, start):
        """find_river and reduce_simple_cycle on q, whose class's river
        passes through the simple form `start`."""
        forms, letters = O.river(start)
        ref = "".join(letters)
        sr = tuple(_simply_reduced_cycle(start))
        f = QF(*q)
        ops.append(Op("find_river", ["topograph.find_river.per_edge"],
                      lambda call, f=f, w=len(forms):
                      call("topograph.find_river.per_edge", w, lib.find_river, f),
                      _check_river(q, ref)))
        ops.append(Op("reduce_simple_cycle", ["reduce.reduce_simple_cycle.per_river_edge"],
                      lambda call, f=f, w=len(forms):
                      call("reduce.reduce_simple_cycle.per_river_edge", w,
                           lib.reduce_simple_cycle, f),
                      _check_simple_cycle(q, sr)))

    # a period of 5,590 edges, the same in every seed
    D = 1003033
    p = O.principal_form(D)
    add_walks(p, p)
    add_pell(D, len(O.river(p)[0]))

    # find_river copies its path on every step, so its time and memory grow
    # with the square of the river: walks stay near D = 1e6, where rivers
    # of 2,000 edges are common (near 1e9 they have 30,000 to 250,000)
    for size in (1.2e6, 2e6):
        D, (forms, _) = _river_disc(rng, size, 1900, 2100)
        p = O.principal_form(D)
        add_walks(O.act(p, _scramble(rng, 6, 9)), p)
        add_pell(D, len(forms))

    # Pell alone near 1e8 and 1e9 (negative_pell's rotation search is
    # quadratic in the river's length).  pell_fundamental multiplies the
    # river matrix by one letter at a time, so its cost follows letters
    # times the bits of the unit: both are held in a band
    for size, lo, hi in ((1e8, 15000, 25000), (1e9, 30000, 40000)):
        while True:
            D = _near(rng, size, _disc_ok, rel=0.1)
            walk = O.river(O.principal_form(D), cap=hi)
            if walk is None or len(walk[0]) < lo:
                continue
            if 30e6 <= len(walk[0]) * O.pell_units(D)[0][0].bit_length() <= 36e6:
                break
        add_pell(D, len(walk[0]), negative=False)

    # few huge partial quotients: sqrt(n^2 + 1) = [n; 2n, 2n, ...], n even,
    # up to D = 9e8 + 1
    for n in (10 ** 3, 10 ** 4, 3 * 10 ** 4):
        D = n * n + 1
        add_pell(D, len(O.river(O.principal_form(D))[0]))

    # forms of a small discriminant conjugated by long L/R words, kept
    # below the 10,000-block cap of the root-path walks
    for blocks in (600, 1500):
        D = _disc_near(rng, 5, 200)
        start = O.principal_form(D)
        add_walks(O.act(start, _scramble(rng, blocks, 3)), start)
    return ops, []


# --------------------------------------------------------------- census

def _hpos_walk(D):
    """Unit river steps h_pos takes: the river length of the class of each
    primitive Zagier * form."""
    C = O.IndefiniteClasses(D)
    lens = [len(O.river(_simple_member(cyc))[0]) for cyc in C.cycles]
    total = sum(lens[C.key(f)] for f in O.zstar_reduced_forms(D) if O.content(f) == 1)
    return total, C.narrow_class_number()


def census(rng, lib):
    """Class numbers over ranges: the shared table sweeps, scalar calls of
    every size up to |D| = 1e5, and the class-number formula for r3."""
    ops = []
    limit = rng.randint(14500, 15500)
    h, h6 = O.definite_census(limit)

    def check_h_table(res, limit=limit):
        want = {D: int(h[-D]) for D in range(-limit, 0) if D % 4 in (0, 1)}
        return res == want

    def check_hurwitz_table(res, limit=limit):
        return (sorted(res) == [n for n in range(1, limit + 1) if n % 4 in (0, 3)]
                and all(6 * v == h6[n] for n, v in res.items()))
    n_h = sum(1 for D in range(-limit, 0) if D % 4 in (0, 1))
    n_H = sum(1 for n in range(1, limit + 1) if n % 4 in (0, 3))
    ops.append(Op("h_neg_table", ["classnum.h_neg_table.per_disc"],
                  lambda call: call("classnum.h_neg_table.per_disc", n_h,
                                    lib.h_neg_table, limit), check_h_table))
    ops.append(Op("hurwitz_table", ["classnum.hurwitz_table.per_entry"],
                  lambda call: call("classnum.hurwitz_table.per_entry", n_H,
                                    lib.hurwitz_table, limit), check_hurwitz_table))

    # |D| near fixed sizes, odd (n = |D|) and even (n = |D|/4); hurwitz takes
    # n = 3 mod 8 or n = 4m with m = 1, 2 mod 4, where Gauss's formula ties
    # H(n) to a count of three-square representations
    odd = lambda m: m % 4 == 3
    even = lambda m: m % 4 == 0
    gauss_odd = lambda m: m % 8 == 3
    gauss_even = lambda m: m % 4 == 0 and (m // 4) % 4 in (1, 2)
    sizes = [(30000, odd, gauss_odd), (100000, even, gauss_even),
             (10000, odd, gauss_odd)] + [(rng.randint(300, 3000), odd, gauss_odd)
                                         for _ in range(3)]
    for size, ok_h, ok_H in sizes:
        D = -_near(rng, size, ok_h)
        ops.append(Op("h_neg", ["classnum.h_neg.per_call"],
                      lambda call, D=D: call("classnum.h_neg.per_call", 1, lib.h_neg, D),
                      lambda res, w=O.h_definite(D): res == w))
        D = -_near(rng, size, ok_h)
        ops.append(Op("hstar_neg", ["classnum.hstar_neg.per_call"],
                      lambda call, D=D: call("classnum.hstar_neg.per_call", 1,
                                             lib.hstar_neg, D),
                      lambda res, w=O.h_definite(D, primitive=False): res == w))
        n = _near(rng, size, ok_H)
        # r3(n) = 24 H(n) for n = 3 mod 8, and r3(m) = 12 H(4m)
        six_h = O.r3_brute(n) // 4 if n % 2 else O.r3_brute(n // 4) // 2
        assert six_h == O.hurwitz6(n), n
        ops.append(Op("hurwitz", ["classnum.hurwitz.per_call"],
                      lambda call, n=n: call("classnum.hurwitz.per_call", 1, lib.hurwitz, n),
                      lambda res, w=six_h: 6 * res == w))

    # h_pos walks one river per Zagier * form, so its cost follows the
    # number of unit river steps: take D with that number in a fixed band
    for _ in range(3):
        while True:
            D = _disc_near(rng, 2000, 40000)
            walk, hp = _hpos_walk(D)
            if 25000 <= walk <= 30000:
                break
        ops.append(Op("h_pos", ["classnum.h_pos.per_call"],
                      lambda call, D=D: call("classnum.h_pos.per_call", 1, lib.h_pos, D),
                      lambda res, w=hp: res == w))

    for _ in range(2):
        D = _near(rng, 25000, _disc_ok)
        want = sorted(O.zstar_reduced_forms(D))
        ops.append(Op("zstar_forms", ["reduce.zstar_forms.per_call"],
                      lambda call, D=D: call("reduce.zstar_forms.per_call", 1,
                                             lib.zstar_forms, D),
                      lambda res, w=want: sorted(tuple(f) for f in res) == w))

    r3_ok = lambda m: m % 8 != 7 and m % 4 != 0
    for size in (1000, 5000, 15000):
        n = _near(rng, size, r3_ok)
        ops.append(Op("r3_via_class", ["classnum.r3_via_class.per_call"],
                      lambda call, n=n: call("classnum.r3_via_class.per_call", 1,
                                             lib.r3_via_class, n),
                      lambda res, w=O.r3_brute(n): res == w))
        n = _near(rng, size, r3_ok)
        ops.append(Op("r3p_via_class", ["classnum.r3p_via_class.per_call"],
                      lambda call, n=n: call("classnum.r3p_via_class.per_call", 1,
                                             lib.r3p_via_class, n),
                      lambda res, w=O.r3_brute(n, primitive=True): res == w))
    return ops, []


# --------------------------------------------------------------- series

def _seed_nonsquare(D):
    """The library's documented seed: the primitive class with the shortest
    river period, named by its least simply reduced form."""
    best = None
    for cyc in O.IndefiniteClasses(D).cycles:
        if O.content(cyc[0]) != 1:
            continue
        start = _simple_member(cyc)
        key = (len(O.river(start)[0]), min(_simply_reduced_cycle(start)))
        best = key if best is None or key < best else best
    return best


def _seed_square(m):
    """Seed of a square discriminant m^2: the [0, m, r] with the shortest
    river, whose length is the sum of the partial quotients of m/r less 2."""
    if m == 1:
        return (0, 1, 1)
    r = min((sum(O.rational_cf(m, r)), r) for r in range(1, m + 1) if gcd(r, m) == 1)[1]
    return (0, m, r)


def _profile_check(D, depths):
    def check(prof):
        prev1 = prev2 = -math.inf
        for d in depths:
            v1, v2 = prof[d]
            if not (prev1 < v1 <= 4 * math.pi and prev2 < v2 <= 24 * math.pi):
                return False
            prev1, prev2 = v1, v2
        d = depths[-1]
        return (4 * math.pi - v1 <= _env_mik(D, d)
                and 24 * math.pi - v2 <= _env_mik2(D, d))
    return check


def series(rng, lib):
    """Topograph series at depth: level-order sums whose frontier doubles
    with every level."""
    QF = lib.QuadForm
    ops = []

    def neg_vertices(d):
        return 3 * 2 ** d - 2

    depths = [4, 8, 12, 16]
    for q in ((1, 0, 5), (1, 1, 8)):  # D = -20 and D = -31
        D = O.disc(q)
        ops.append(Op("series_neg_profile", ["series.series_neg.per_vertex"],
                      lambda call, f=QF(*q): call("series.series_neg.per_vertex",
                                                  neg_vertices(depths[-1]),
                                                  lib.series_neg_profile, f, depths),
                      _profile_check(D, depths)))

    for _ in range(2):
        D = _disc_near(rng, 3, 100, positive=False)
        d = 12
        c1 = _check_report(4 * math.pi, _env_mik, D, d, neg_vertices(d))
        c2 = _check_report(24 * math.pi, _env_mik2, D, d, neg_vertices(d))
        ops.append(Op("series_neg", ["series.series_neg.per_vertex"],
                      lambda call, f=QF(*O.principal_form(D)), d=d:
                      call("series.series_neg.per_vertex", neg_vertices(d),
                           lib.series_neg, f, d),
                      lambda res, c1=c1, c2=c2: c1(res[0]) and c2(res[1])))

    # river sums on seeds whose river has 3 * 2^k edges, to the depth at
    # which every one of them sums the same 3 * 2^13 vertices
    depth_of = {3: 12, 6: 11, 12: 10, 24: 9, 48: 8}
    found = {}
    while len(found) < 3:
        D = _disc_near(rng, 5, 2000)
        edges, q = _seed_nonsquare(D)
        if edges in depth_of:
            found[D] = (q, depth_of[edges])
    for D, (q, d) in found.items():
        ops.append(Op("series_seed", ["series.series_seed.per_call"],
                      lambda call, D=D: call("series.series_seed.per_call", 1,
                                             lib.series_seed, D),
                      lambda res, w=q: tuple(res) == w))
        want = 3 * 2 ** 13
        target = 2 * O.log_eps(D)
        c1 = _check_report(target, _env_mt, D, d, want)
        c2 = _check_report(target, _env_mt, D, d, want)
        ops.append(Op("series_pos", ["series.series_pos.per_vertex"],
                      lambda call, f=QF(*q), d=d, w=want:
                      call("series.series_pos.per_vertex", w, lib.series_pos, f, d),
                      lambda res, c1=c1, c2=c2: c1(res[0]) and c2(res[1])))

    # square discriminants, D = 1 included: the sq and sq2 sums there miss
    # their target by twice the m == 1 corrections of series_square
    for m in [1] + rng.sample(range(2, 41), 3):
        q = _seed_square(m)
        g0 = gcd(m, q[2])
        target = 2 * math.log(m / (2 * g0))
        d = 12
        if m > 1:
            ops.append(Op("series_seed", ["series.series_seed.per_call"],
                          lambda call, D=m * m: call("series.series_seed.per_call", 1,
                                                     lib.series_seed, D),
                          lambda res, w=q: tuple(res) == w))
        for which in (0, 1):
            chk = _check_report(target, _env_sq, m, d)
            ops.append(Op("series_square", ["series.series_square.per_vertex"],
                          lambda call, f=QF(*q), d=d, which=which:
                          call("series.series_square.per_vertex",
                               lambda res: res[0].terms_used,
                               lib.series_square, f, d)[which],
                          chk, known_fault=m == 1))

    for _ in range(2):
        while True:
            D = _disc_near(rng, 3, 300, positive=False)
            if len(O.reduced_definite_forms(D)) == 3:
                break
        H = O.hurwitz6(-D) / 6
        d = 11
        ops.append(Op("hurwitz_series", ["series.hurwitz_series.per_vertex"],
                      lambda call, D=D, d=d: call("series.hurwitz_series.per_vertex",
                                                  3 * neg_vertices(d),
                                                  lib.hurwitz_series, D, d),
                      _check_report(H, _env_hurwitz, (D, H), d, 3 * neg_vertices(d))))

    radius = 300
    g = rng.randint(1, 4)
    tail = 3 / (math.pi * radius ** 2)  # twice the lattice-sum tail beyond the radius

    def check_eis(res):
        return all(0 < O.EISENSTEIN_TARGET - v <= tail for v in res)
    ops.append(Op("eisenstein_check", ["series.eisenstein_check.per_call"],
                  lambda call: call("series.eisenstein_check.per_call", 1,
                                    lib.eisenstein_check, g, radius), check_eis))

    bmax = rng.randint(3900, 4100)
    for m in (5, 7):
        lhs = O.euler_phi(m) * math.log(m / 2)

        def check_log(res, lhs=lhs, m=m):
            # the positive-vertex sum truncated at |b| <= bmax falls short
            # by less than m^3 / bmax^1.5
            return (abs(res[0] - lhs) <= 1e-12 * abs(lhs)
                    and 0 < res[0] - res[1] <= m ** 3 / bmax ** 1.5)
        ops.append(Op("square_log_identity", ["series.square_log_identity.per_call"],
                      lambda call, m=m: call("series.square_log_identity.per_call", 1,
                                             lib.square_log_identity, m, bmax),
                      check_log))
    return ops, []


BY_NAME = {"queries": queries, "rivers": rivers, "census": census, "series": series}
