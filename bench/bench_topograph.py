"""Layer benchmarks of the topograph views over the level kernel, for
pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_topograph.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Every benchmark
records its work in `extra_info`: the vertices of the ball for `export` and
`bfs_vertices` at depths 2 to 14, and for `series_square` at depth 0 on
[0, 10^k, 1] the unit edges of the square river whose middle edge it roots
at, which come from two blocks.
"""

import pytest

from topoforms.forms import QuadForm
from topoforms.series import series_square
from topoforms.topograph import (EdgeCursor, bfs_vertices, export,
                                 square_reduction, square_river_blocks)

DEPTHS = [2, 6, 10, 14]


def _run(benchmark, fn, *args, **info):
    benchmark.extra_info.update(info)
    return benchmark.pedantic(fn, args, rounds=3, iterations=1,
                              warmup_rounds=1)


def _ball(depth):
    return 3 * 2 ** depth - 2  # the vertices within `depth` of a vertex


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("depth", DEPTHS)
def test_export(benchmark, depth, fmt):
    root = EdgeCursor(QuadForm(2, 1, 3))
    out = _run(benchmark, export, root, depth, fmt, vertices=_ball(depth))
    key = "label=" if fmt == "dot" else '"id"'
    assert out.count(key) >= _ball(depth)


@pytest.mark.parametrize("depth", DEPTHS)
def test_bfs_vertices(benchmark, depth):
    root = EdgeCursor(QuadForm(2, 1, 3))
    views = _run(benchmark, lambda: list(bfs_vertices(root, depth)),
                 vertices=_ball(depth))
    assert len(views) == _ball(depth)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_series_square_root_edge(benchmark, k):
    q = QuadForm(0, 10 ** k, 1)
    blocks = square_river_blocks(square_reduction(q)[1]).word
    edges = sum(n for _, n in blocks) - 1
    r1, _ = _run(benchmark, series_square, q, 0, vertices=1,
                 river_edges=edges)
    assert r1.terms_used == 1
