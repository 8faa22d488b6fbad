"""Layer benchmarks of the series level kernel, for pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_series.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Every vertex sum
records in `extra_info` the vertices it sums and the batches the kernel
walks them in (`topograph._batches`), so that a result reads as time per
vertex and per batch; the definite sums at depths 4 to 20, the river sums
at depths 8 to 14 and the square sums at depths 4 to 16 give the scaling
curves, where the fixed cost of a batch shows at the shallow end.
`series_seed` at D = 10^k + 1, k = 3 to 5, records the classes whose rivers
it walks.
"""

import pytest

from topoforms import series
from topoforms.classnum import h_pos
from topoforms.forms import QuadForm
from topoforms.series import (series_neg, series_neg_profile, series_pos,
                              series_seed, series_square)


def _batches(monkeypatch, fn, *args):
    """The batches the kernel walks in one untimed call of fn(*args)."""
    walk = series._batches
    count = []

    def counted(*a, **k):
        for batch in walk(*a, **k):
            count.append(len(batch[0]))
            yield batch
    with monkeypatch.context() as patch:
        patch.setattr(series, "_batches", counted)
        fn(*args)
    return len(count)


def _run(benchmark, fn, *args, **work):
    benchmark.extra_info.update(work)
    return benchmark.pedantic(fn, args, rounds=3, iterations=1,
                              warmup_rounds=1)


@pytest.mark.parametrize("depth", [4, 8, 12, 16])
def test_series_neg(benchmark, monkeypatch, depth):
    q = QuadForm(1, 0, 5)  # D = -20
    r1, _ = _run(benchmark, series_neg, q, depth, vertices=3 * 2 ** depth - 2,
                 batches=_batches(monkeypatch, series_neg, q, depth))
    assert r1.terms_used == 3 * 2 ** depth - 2


@pytest.mark.parametrize("depth", [8, 12, 16, 20])
def test_series_neg_profile(benchmark, monkeypatch, depth):
    q = QuadForm(1, 1, 8)  # D = -31
    prof = _run(benchmark, series_neg_profile, q, [depth],
                vertices=3 * 2 ** depth - 2,
                batches=_batches(monkeypatch, series_neg, q, depth))
    assert set(prof) == {depth}


@pytest.mark.parametrize("depth", [8, 10, 12, 14])
def test_series_pos(benchmark, monkeypatch, depth):
    q = series_seed(96)  # a river of 5 edges, a tree of 2^(depth+1) - 1 each
    vertices = 5 * 2 ** (depth + 1)
    r1, _ = _run(benchmark, series_pos, q, depth, vertices=vertices,
                 batches=_batches(monkeypatch, series_pos, q, depth))
    assert r1.terms_used == vertices


@pytest.mark.parametrize("depth", [4, 8, 12, 16])
def test_series_square(benchmark, monkeypatch, depth):
    q = series_seed(324)
    vertices = series_square(q, depth)[0].terms_used
    _run(benchmark, series_square, q, depth, vertices=vertices,
         batches=_batches(monkeypatch, series_square, q, depth))


@pytest.mark.parametrize("D", [10 ** 3 + 1, 10 ** 4 + 1, 10 ** 5 + 1])
def test_series_seed(benchmark, D):
    q = _run(benchmark, series_seed, D, classes=h_pos(D))
    assert q.discriminant() == D
