"""Layer benchmarks of the river walks, for pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_rivers.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  `find_river` and
`reduce_simple_cycle` run on the principal form of D = 1003033 (a period of
5,590 unit edges), D = 2000133 (2,034) and D = 100000037 (71,710).  Each
benchmark records in `extra_info` the unit edges of the period and its
blocks, so that a result reads as time per unit edge.  The forms start on
their river, so the walk to it costs nothing here.
"""

import pytest

from topoforms.reduce import reduce_simple_cycle
from topoforms.riverword import principal_form
from topoforms.topograph import find_river, river_blocks

DISCS = [1003033, 2000133, 100000037]


def _run(benchmark, fn, D):
    q = principal_form(D)
    word = river_blocks(q).word
    benchmark.extra_info.update(D=D, edges=sum(k for _, k in word),
                                blocks=len(word))
    return benchmark.pedantic(fn, (q,), rounds=5, iterations=1,
                              warmup_rounds=1)


@pytest.mark.parametrize("D", DISCS)
def test_find_river(benchmark, D):
    river = _run(benchmark, find_river, D)
    assert len(river.edges) == benchmark.extra_info["edges"]


@pytest.mark.parametrize("D", DISCS)
def test_reduce_simple_cycle(benchmark, D):
    res = _run(benchmark, reduce_simple_cycle, D)
    assert res.canonical
