"""Layer benchmarks of the series level kernel, for pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_series.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Every benchmark
records in `extra_info` the vertices it sums, so that a result reads as time
per vertex; the definite-sum profiles at depths 8 to 20 and the river sums
at depths 8 to 14 give the per-vertex scaling curves.  `series_seed` at
D = 10^k + 1, k = 3 to 5, records the classes whose rivers it walks.
"""

import pytest

from topoforms.classnum import h_pos
from topoforms.forms import QuadForm
from topoforms.series import (series_neg, series_neg_profile, series_pos,
                              series_seed, series_square)


def _run(benchmark, fn, *args, **work):
    benchmark.extra_info.update(work)
    return benchmark.pedantic(fn, args, rounds=3, iterations=1,
                              warmup_rounds=1)


@pytest.mark.parametrize("depth", [12, 16])
def test_series_neg(benchmark, depth):
    q = QuadForm(1, 0, 5)  # D = -20
    r1, _ = _run(benchmark, series_neg, q, depth, vertices=3 * 2 ** depth - 2)
    assert r1.terms_used == 3 * 2 ** depth - 2


@pytest.mark.parametrize("depth", [8, 12, 16, 20])
def test_series_neg_profile(benchmark, depth):
    q = QuadForm(1, 1, 8)  # D = -31
    prof = _run(benchmark, series_neg_profile, q, [depth],
                vertices=3 * 2 ** depth - 2)
    assert set(prof) == {depth}


@pytest.mark.parametrize("depth", [8, 10, 12, 14])
def test_series_pos(benchmark, depth):
    q = series_seed(96)  # a river of 5 edges, a tree of 2^(depth+1) - 1 each
    vertices = 5 * 2 ** (depth + 1)
    r1, _ = _run(benchmark, series_pos, q, depth, vertices=vertices)
    assert r1.terms_used == vertices


def test_series_square(benchmark):
    q = series_seed(324)
    vertices = series_square(q, 12)[0].terms_used
    _run(benchmark, series_square, q, 12, vertices=vertices)


@pytest.mark.parametrize("D", [10 ** 3 + 1, 10 ** 4 + 1, 10 ** 5 + 1])
def test_series_seed(benchmark, D):
    q = _run(benchmark, series_seed, D, classes=h_pos(D))
    assert q.discriminant() == D
