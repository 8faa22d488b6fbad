"""The batch walker of the level kernel and the grouped exact sums.

`topograph._batches` must yield every edge of a topograph's levels exactly
once, with its group, in batches of at most the chunk size, and the series
must give the same bits and term counts at any chunk size.  Also here: the
float-range checks inside the terms, a depth-20 definite sum in bounded
memory, and the residual sweeps of the river and Hurwitz series.
"""

import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import topoforms
from topoforms import cli, series
from topoforms.classnum import hurwitz
from topoforms.exact import DomainError, is_square
from topoforms.forms import QuadForm
from topoforms.riverword import Necklace, topograph_of_necklace
from topoforms.series import (SeriesReport, hurwitz_series, series_neg,
                              series_neg_profile, series_pos, series_seed,
                              series_square)
from topoforms.topograph import (_LABEL_MAX, EdgeCursor, _batches, _levels,
                                 ball_levels)


def _moved(form, pairs):
    # form | (LR)^pairs: coefficients of about 1.4 * pairs bits
    a, b, c = form
    for _ in range(pairs):
        b, c = b + 2 * a, a + b + c
        a, b = a + b + c, b + 2 * c
    return QuadForm(a, b, c)


def _alternating(n):
    # a simple form whose river period reads 0 (01)^(n/2) 1: about n unit
    # edges, all of partial quotient 1 or 2, and D about 2^(1.39 n)
    bits = "0" + "01" * (n // 2) + "1" * (n % 2) + "1"
    return topograph_of_necklace(Necklace(bits))


# ----------------------------------------------------------- batch walker

def _collect(batches, groups, size):
    """The edges of each group, sorted, checking each batch's shape."""
    out = [[] for _ in range(groups)]
    for g, a, b, c in batches:
        assert 0 < len(g) <= size and len(a) == len(b) == len(c) == len(g)
        assert a.dtype == b.dtype == c.dtype
        if a.dtype != object:
            assert max(abs(x) for col in (a, b, c) for x in col.tolist()) \
                < _LABEL_MAX
        for k, x, y, z in zip(g.tolist(), a.tolist(), b.tolist(),
                              c.tolist()):
            out[k].append((x, y, z))
    return [sorted(edges) for edges in out]


@pytest.mark.parametrize("size", [1, 3, 7, 64, 1000, 8192])
@pytest.mark.parametrize("form", [QuadForm(1, 1, 8), _moved((1, 1, 8), 18)])
def test_ball_batches_hold_each_level_once(size, form):
    # the second ball starts from 52-bit labels, which pass 2^58 from level
    # 6 on: below 1000 edges, some pieces of a level leave int64 and others
    # do not
    depth = 10
    root = EdgeCursor(form)
    want = [sorted(zip(*(x.tolist() for x in level)))
            for _, level in zip(range(depth + 1), ball_levels(root))]
    got = _collect(_batches(ball_levels(root), depth, size), depth + 1, size)
    assert got == want


@pytest.mark.parametrize("size", [1, 7, 64, 1000])
def test_forest_batches_group_by_tree(size):
    rng = random.Random(5)
    roots = [tuple(rng.randrange(-99, 100) for _ in range(3))
             for _ in range(13)]
    depth = 6
    levels = [[list(zip(*(x.tolist() for x in level)))]
              for _, level in zip(range(depth + 1), _levels(*zip(*roots)))]
    # tree j holds edges j 2^l to (j + 1) 2^l - 1 of level l
    want = [sorted(e for l, (level,) in enumerate(levels)
                   for e in level[j << l:(j + 1) << l])
            for j in range(len(roots))]
    got = _collect(_batches(_levels(*zip(*roots)), depth, size, trees=True),
                   len(roots), size)
    assert got == want


# ------------------------------------------------ sums at any chunk size

def _bits(result):
    """A series result with every float as its hex string."""
    if isinstance(result, dict):
        return {d: tuple(v.hex() for v in vals) for d, vals in result.items()}
    reports = (result,) if isinstance(result, SeriesReport) else result
    assert all(type(r.terms_used) is int for r in reports)
    return [(r.value.hex(), r.terms_used) for r in reports]


_FIB = [1, 1]
while len(_FIB) < 82:
    _FIB.append(_FIB[-1] + _FIB[-2])

_CASES = [
    (series_neg_profile, QuadForm(1, 0, 5), range(11)),
    (series_neg_profile, QuadForm(1, 1, 8), [3, 7, 12]),
    # labels pass 2^58 within the walk, so pieces of int64 and of Python
    # ints meet in one level
    (series_neg_profile, _moved((1, 1, 8), 18), [0, 3, 6, 10]),
    # 5 hanging trees of 511 edges, split across batches below 1000
    (series_pos, series_seed(96), 8),
    # 78 trees, more than a batch of 7 or 64 holds, whose labels pass 2^58
    (series_pos, _alternating(76), 4),
    (series_square, series_seed(49), 10),
    (series_square, series_seed(1), 6),
    # m near 2^56: labels beyond int64 from the first levels
    (series_square, QuadForm(0, _FIB[81], _FIB[80]), 4),
    (hurwitz_series, -47, 8),
    (hurwitz_series, -48, 5),
]


@pytest.mark.parametrize("size", [7, 64, 1000])
def test_sums_do_not_depend_on_the_chunk(monkeypatch, size):
    want = [_bits(fn(*args)) for fn, *args in _CASES]
    monkeypatch.setattr(series, "_CHUNK", size)
    for (fn, *args), bits in zip(_CASES, want):
        assert _bits(fn(*args)) == bits, (fn.__name__, args)


# ----------------------------------------------------------- river slices

@pytest.mark.parametrize("size", [1, 5, 64])
def test_river_slices_give_the_same_reports(monkeypatch, size):
    # rivers of 6 to 2,000 edges, some split into hundreds of slices
    cases = [(series_seed(96), 6), (QuadForm(1, 1000, -1), 0),
             (QuadForm(1, 97, -1), 3), (_alternating(76), 4),
             (series_seed(1005), 5)]
    want = [series_pos(q, d) for q, d in cases]
    monkeypatch.setattr(series, "_CHUNK", size)
    for (q, d), reports in zip(cases, want):
        assert series_pos(q, d) == reports, (q, d)


@pytest.mark.parametrize("depth", [0, 2])
def test_river_sums_in_memory_bounded_by_a_slice(monkeypatch, depth):
    # rivers of 600 and 6,000 edges in slices of 64 trees; held whole, the
    # longer river's lists took about 7 times the traced peak of the shorter
    monkeypatch.setattr(series, "_CHUNK", 64)
    series_pos(QuadForm(1, 10, -1), depth)
    peaks = []
    for n in (300, 3000):
        tracemalloc.start()
        try:
            series_pos(QuadForm(1, n, -1), depth)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


# ------------------------------------------------------------ float range

def _largest_c():
    # the largest c with p p finite for p = fl(1) fl(c) fl(c + 1), left to
    # right, as the terms take it: p is the product at the head of level 0
    # of [1, 0, c]
    lo, hi = 1, 1 << 300
    while hi - lo > 1:
        mid = (lo + hi) // 2
        p = 1.0 * float(mid) * float(mid + 1)
        if math.isinf(p * p):
            hi = mid
        else:
            lo = mid
    return lo


def test_definite_terms_refuse_past_float_range():
    c = _largest_c()
    r1, r2 = series_neg(QuadForm(1, 0, c), 0)
    assert r1.terms_used == 1 and r2.value > 0
    for form in (QuadForm(1, 0, c + 1), QuadForm(1, 0, 10 ** 122)):
        for depth in (0, 3):
            with pytest.raises(DomainError, match="passes float range"):
                series_neg(form, depth)


def test_river_terms_refuse_past_float_range():
    # D^(9/2) is finite on both; the depth-1 terms 1/|p|^3 are not above
    below, above = _alternating(158), _alternating(159)
    assert above == topograph_of_necklace(Necklace("0" + "01" * 79 + "11"))
    assert below.discriminant() < above.discriminant() < 2 ** 227.56
    r1, r2 = series_pos(below, 1)
    assert 0 < r1.value < r1.target and abs(r2.value - r2.target) < 1
    with pytest.raises(DomainError, match="passes float range"):
        series_pos(above, 1)


def test_cli_series_past_float_range_exits_2(capsys):
    argv = ["series", "--theorem", "mik", "--disc", str(-4 * 10 ** 122)]
    assert cli.run(argv) == 2
    assert "passes float range" in capsys.readouterr().err


# ---------------------------------------------------------------- memory

def test_depth_20_definite_sum_in_bounded_memory():
    # a depth-20 ball has 3 2^20 - 2 edges; built whole, a level took about
    # 150 MB.  The values are the depth-20 profile of the reference loop.
    # Linux carries the ru_maxrss of the process that starts the child over
    # into the child, so there the child reads its own peak, VmHWM.
    code = (
        "import os, resource, sys\n"
        "from topoforms.forms import QuadForm\n"
        "from topoforms.series import series_neg\n"
        "r1, r2 = series_neg(QuadForm(1, 1, 8), 20)\n"
        "kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "kib //= 1024 if sys.platform == 'darwin' else 1\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    kib = int(next(line.split()[1] for line in open("
        "'/proc/self/status') if line.startswith('VmHWM:')))\n"
        "print(r1.value.hex(), r2.value.hex(), r1.terms_used, kib)\n")
    src = os.path.dirname(os.path.dirname(topoforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, check=True).stdout.split()
    assert out[:3] == [(12.55319108349656).hex(), (75.39708669402742).hex(),
                       str(3 * 2 ** 20 - 2)]
    assert int(out[3]) < 100 * 1024


# --------------------------------------------------------- residual sweeps

def test_mt2_residual_sweep():
    # depth 10 on the documented seed of every non-square D < 400; the
    # worst is 1.165e-3 at D = 392
    for D in range(5, 400):
        if D % 4 in (0, 1) and not is_square(D):
            _, r2 = series_pos(series_seed(D), 10)
            assert abs(r2.residual) <= 1.2e-3 * r2.target, D


def test_hurwitz_residual_sweep():
    # depth 14 for D = -3 to -100, within 0.06 H sqrt|D| 0.8^14; the worst
    # is 0.40 of that at D = -67, 0.87% of H
    for D in range(-3, -101, -1):
        if D % 4 in (0, 1):
            H = float(hurwitz(-D))
            r = hurwitz_series(D, 14)
            assert r.target == H
            assert abs(r.value - H) <= 0.06 * H * math.sqrt(-D) * 0.8 ** 14, D
