"""Layer benchmarks of the river walks, for pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_rivers.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  `find_river`,
`find_river` followed by reading every edge, and `reduce_simple_cycle` run
on the principal form of D = 1003033 (a period of 5,590 unit edges),
D = 2000133 (2,034) and D = 100000037 (71,710).  `find_river` also runs on
[1, 2^28 + 1, -1], whose river is two blocks of 2^28 + 1 turns, and on
the square-D forms [0, F(n+1), F(n)], F the Fibonacci numbers, at n = 100
and 300 (partial quotients all 1: a block per turn) and [0, 10^k, 1] (one
long block).  `test_river_hash` hashes the edges view of the first two
(at D = 100000037 a hash that expands every edge's path would take
minutes), and `reduce_simple_cycle` also runs on [-1, 10^6, 1], a period of
two blocks of about 10^6 turns, recording the entries of its `steps` as
`steps`.  The river readers `river_period`, `pell_fundamental`,
`negative_pell`, `necklace_of` and `symmetry` run on the same three
principal forms and on [1, n, -1] for n = 10^3, 10^4, 10^5 and 10^6, whose
river is two blocks of n turns: the readers of a discriminant on the
form's D, whose principal class it is.  The two Pell readers also run on
D = 10^12 + 37, a period of 61,904 blocks.  Each benchmark records in
`extra_info` the unit edges of the river, or its turns for the readers,
and its blocks, and the median time per edge (or turn) and per block in
microseconds; a reader also records as `walked` the blocks its walks
take, half the period for the readers of a discriminant.  The forms start
on their river, or are reduced square-D forms, so the walk to it costs
nothing here.

The walk onto the river or into the well runs on big coefficients:
`river_walk`, `reduce_simple_cycle` and `reduce_negative` on [1, 0, -2]
and [1, 1, 1] (for `reduce_negative`) moved by n random blocks of 1 to 3
turns, alternately L and R, seeded by n, for n = 10^3, 10^4 and 3 * 10^4,
and 10^5 for the first two.  Each records the bits of the form's largest
coefficient and n, as `bits` and `blocks`, and the median time per block.
"""

import random

import pytest

import topoforms.riverword
import topoforms.topograph
from topoforms.exact import is_square
from topoforms.forms import QuadForm
from topoforms.reduce import reduce_negative, reduce_simple_cycle
from topoforms.riverword import (necklace_of, negative_pell,
                                  pell_fundamental, principal_form,
                                  river_period, symmetry)
from topoforms.topograph import (block_step, find_river, river_walk,
                                 square_river_blocks, walk)

DISCS = [1003033, 2000133, 100000037]
READERS = {
    "river_period": lambda q: river_period(q.discriminant()),
    "pell_fundamental": lambda q: pell_fundamental(q.discriminant()),
    "negative_pell": lambda q: negative_pell(q.discriminant()),
    "necklace_of": necklace_of,
    "symmetry": symmetry,
}
READER_FORMS = ([pytest.param(principal_form(D), id=f"D{D}") for D in DISCS]
                + [pytest.param(QuadForm(1, 10 ** k, -1), id=f"n1e{k}")
                   for k in (3, 4, 5, 6)])
PELL_FORMS = [pytest.param(principal_form(10 ** 12 + 37), id="D1e12p37")]


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _run(benchmark, fn, q, unit="edge"):
    if is_square(q.discriminant()):
        # the finite river's edges skip its first and last unit turns
        word = [x for x in square_river_blocks(q).word if x[1]]
        n = sum(k for _, k in word) - 1
    else:
        word = river_walk(q).word
        n = sum(k for _, k in word)
    benchmark.extra_info.update({"D": q.discriminant(), unit + "s": n,
                                 "blocks": len(word)})
    out = benchmark.pedantic(fn, (q,), rounds=5, iterations=1,
                             warmup_rounds=1)
    if benchmark.stats:  # None under --benchmark-disable
        us = benchmark.stats.stats.median * 1e6
        benchmark.extra_info.update({"us_per_" + unit: us / n,
                                     "us_per_block": us / len(word)})
    return out


@pytest.mark.parametrize("D", DISCS)
def test_find_river(benchmark, D):
    river = _run(benchmark, find_river, principal_form(D))
    assert len(river.edges) == benchmark.extra_info["edges"]


def test_find_river_two_long_blocks(benchmark):
    river = _run(benchmark, find_river, QuadForm(1, 2 ** 28 + 1, -1))
    assert len(river.edges) == 2 * (2 ** 28 + 1)


@pytest.mark.parametrize("n", [100, 300])
def test_find_river_square_fibonacci(benchmark, n):
    q = QuadForm(0, _fibonacci(n + 1), _fibonacci(n))
    river = _run(benchmark, find_river, q)
    assert len(river.edges) == benchmark.extra_info["edges"]


@pytest.mark.parametrize("k", [4, 6])
def test_find_river_square_one_block(benchmark, k):
    river = _run(benchmark, find_river, QuadForm(0, 10 ** k, 1))
    assert len(river.edges) == 10 ** k - 1


@pytest.mark.parametrize("D", DISCS)
def test_find_river_every_edge(benchmark, D):
    edges = _run(benchmark, lambda q: list(find_river(q).edges),
                 principal_form(D))
    assert len(edges) == benchmark.extra_info["edges"]


@pytest.mark.parametrize("D", DISCS)
def test_reduce_simple_cycle(benchmark, D):
    res = _run(benchmark, reduce_simple_cycle, principal_form(D))
    assert res.canonical


@pytest.mark.parametrize("D", DISCS[:2])
def test_river_hash(benchmark, D):
    river = find_river(principal_form(D))
    _run(benchmark, lambda q: hash(river.edges), principal_form(D))


def test_reduce_simple_cycle_two_long_blocks(benchmark):
    res = _run(benchmark, reduce_simple_cycle, QuadForm(-1, 10 ** 6, 1))
    benchmark.extra_info["steps"] = len(res.steps)


def _walked(fn, q):
    # the blocks fn(q) walks: stop calls of every block walk, counted
    count = [0]

    def counted(form, letter, stop, cap=None):
        def counted_stop(*args):
            count[0] += 1
            return stop(*args)
        return walk(form, letter, counted_stop, cap)

    modules = (topoforms.riverword, topoforms.topograph)
    for module in modules:
        module.walk = counted
    try:
        fn(q)
    finally:
        for module in modules:
            module.walk = walk
    return count[0]


@pytest.mark.parametrize("q", READER_FORMS)
@pytest.mark.parametrize("reader", READERS)
def test_river_reader(benchmark, reader, q):
    benchmark.extra_info["walked"] = _walked(READERS[reader], q)
    out = _run(benchmark, READERS[reader], q, "turn")
    assert out is not None or reader == "negative_pell"


@pytest.mark.parametrize("q", PELL_FORMS)
@pytest.mark.parametrize("reader", ["pell_fundamental", "negative_pell"])
def test_pell_reader(benchmark, reader, q):
    benchmark.extra_info["walked"] = _walked(READERS[reader], q)
    _run(benchmark, READERS[reader], q, "turn")


def _far(form, blocks):
    # the form moved by `blocks` random blocks of 1 to 3 turns, seeded
    rng = random.Random(blocks)
    for i in range(blocks):
        form = block_step(form, "LR"[i % 2], rng.randint(1, 3))
    return form


FAR = {"river_walk": (river_walk, QuadForm(1, 0, -2)),
       "reduce_simple_cycle": (reduce_simple_cycle, QuadForm(1, 0, -2)),
       "reduce_negative": (reduce_negative, QuadForm(1, 1, 1))}
FAR_CASES = [pytest.param(walker, blocks, id=f"{walker}-{blocks}")
             for walker in FAR
             for blocks in (10 ** 3, 10 ** 4, 3 * 10 ** 4, 10 ** 5)
             if blocks < 10 ** 5 or walker != "reduce_negative"]


@pytest.mark.parametrize("walker, blocks", FAR_CASES)
def test_far_form(benchmark, walker, blocks):
    fn, base = FAR[walker]
    q = _far(base, blocks)
    benchmark.extra_info.update(
        {"bits": max(x.bit_length() for x in q), "blocks": blocks})
    # the unit-block walk took seconds per call at 10^5 blocks: fewer rounds
    rounds = 5 if blocks < 10 ** 5 else 3
    benchmark.pedantic(fn, (q,), rounds=rounds, iterations=1,
                       warmup_rounds=int(blocks < 10 ** 5))
    if benchmark.stats:  # None under --benchmark-disable
        benchmark.extra_info["us_per_block"] = (
            benchmark.stats.stats.median * 1e6 / blocks)
