"""Layer benchmarks of the divisor kernel and the sums moved onto it, for
pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_divisors.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Every benchmark
records its work in `extra_info`: the divisor rows the kernel yields for
`omega_enumerate` (D = 10^4+1 to 10^7+1) and `square_log_identity`
(bmax = 4000 to 80000), the Stern-Brocot edges and lattice rows of
`eisenstein_check` (radius 300 and 10^4), and for `h_neg_table` and
`hurwitz_table` (limit 10^4 to 10^6) the progressions of wells, the wells
they count and the table entries, so that a result reads as time per row.
"""

from math import gcd

import pytest

from topoforms.classnum import h_neg_table, hurwitz_table
from topoforms.exact import isqrt
from topoforms.reduce import divisor_rows, omega_enumerate
from topoforms.series import eisenstein_check, square_log_identity


def _run(benchmark, fn, *args, **work):
    benchmark.extra_info.update(work)
    return benchmark.pedantic(fn, args, rounds=3, iterations=1,
                              warmup_rounds=1)


@pytest.mark.parametrize("D", [10 ** 4 + 1, 10 ** 5 + 1, 10 ** 6 + 1,
                               10 ** 7 + 1])
def test_omega_enumerate(benchmark, D):
    kmax = isqrt(D - 1)
    kmax -= (kmax - D) % 2
    rows = len(divisor_rows(D, -kmax, kmax + 1)[0])
    entries = _run(benchmark, omega_enumerate, D, divisors=rows)
    benchmark.extra_info["entries"] = len(entries)


@pytest.mark.parametrize("bmax", [4000, 20000, 80000])
def test_square_log_identity(benchmark, bmax):
    m = 5
    rows = len(divisor_rows(m * m, m + 2, bmax + 1)[0])
    lhs, rhs = _run(benchmark, square_log_identity, m, bmax, divisors=rows)
    assert abs(lhs - rhs) < 1e-3


@pytest.mark.parametrize("radius", [300, 10 ** 4])
def test_eisenstein_check(benchmark, radius):
    # edges: the coprime x, y >= 1 with x^2 + y^2 <= min(radius, 1000)^2
    cut = min(radius, 1000) ** 2
    edges = sum(1 for x in range(1, isqrt(cut) + 1)
                for y in range(1, isqrt(cut - x * x) + 1)
                if gcd(x, y) == 1)
    lhs, rhs = _run(benchmark, eisenstein_check, 1, radius, edges=edges,
                    lattice_rows=isqrt(radius * radius // 2))
    assert abs(lhs - rhs) < 1e-3


def _wells_work(limit):
    """The progressions of wells the tables sum for every |D| <= limit, and
    the wells in them: a row per (f, g) of e > f > g, per e of e^2 + 2ef,
    and for even D per f of ef with e >= f; all-odd rows for odd D."""
    rows = wells = 0
    for top, step in ((limit, 2), (limit // 4, 1)):
        firsts = []  # (start, stride) of each row
        g = 1
        while 3 * g * g < top:
            f = g + step
            while f * g + (f + step) * (f + g) <= top:
                firsts.append((f * g + (f + step) * (f + g), step * (f + g)))
                f += step
            g += step
        firsts += [(e * e + 2 * e, 2 * step * e)
                   for e in range(1, isqrt(top + 1), step)]
        if step == 1:
            firsts += [(f * f, f) for f in range(1, isqrt(top) + 1)]
        rows += len(firsts)
        wells += sum((top - s) // d + 1 for s, d in firsts)
    return rows, wells


@pytest.mark.parametrize("table", [h_neg_table, hurwitz_table])
@pytest.mark.parametrize("limit", [10 ** 4, 10 ** 5, 10 ** 6])
def test_class_table(benchmark, table, limit):
    rows, wells = _wells_work(limit)
    entries = sum(1 for n in range(1, limit + 1) if n % 4 in (0, 3))
    out = _run(benchmark, table, limit, progressions=rows, wells=wells,
               entries=entries)
    assert len(out) == entries
