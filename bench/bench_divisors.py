"""Layer benchmarks of the divisor kernel and the sums moved onto it, for
pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_divisors.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Every benchmark
records its work in `extra_info`: the divisor rows the kernel yields for
`omega_enumerate` (D = 10^4+1 to 10^7+1) and `square_log_identity`
(bmax = 4000 to 80000), the Stern-Brocot edges and lattice rows of
`eisenstein_check` (radius 300 and 10^4), and the table entries of
`hurwitz_table`, so that a result reads as time per row.
"""

from math import gcd

import pytest

from topoforms.classnum import hurwitz_table
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


def test_hurwitz_table(benchmark):
    table = _run(benchmark, hurwitz_table, 15000, entries=7500)
    assert len(table) == 7500
