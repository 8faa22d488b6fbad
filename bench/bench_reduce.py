"""Layer benchmarks of the block walk's reductions, for pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_reduce.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Each benchmark calls
its function on a fixed batch of seeded inputs and records in `extra_info`
the calls and the continued-fraction blocks walked, so that a result reads
as time per call or per block.  The curves run over the size of the input:
`reduce_negative` and `find_well` on definite forms with coefficients near
10^3, 10^6, 10^12 and 10^30, `lr_decompose` on their first roots,
`reduce_square` at m = 10, 100, 499 and 10^4, and `gauss_cycle` and
`zagier_cycle` at D near 10^3, 10^5 and 10^7 on the same forms.  Only
functions that keep their names and outputs are timed, so the file runs
unchanged on earlier versions of the library.
"""

import random

import pytest

from topoforms.exact import Surd, is_square
from topoforms.forms import QuadForm, UniMat, act
from topoforms.reduce import (gauss_cycle, reduce_negative, reduce_square,
                              reduce_simple_cycle, zagier_cycle)
from topoforms.contfrac import lr_decompose
from topoforms.topograph import find_well

BATCH = 50


def _run(benchmark, fn, inputs, **work):
    benchmark.extra_info.update(calls=len(inputs), **work)
    return benchmark.pedantic(lambda: [fn(x) for x in inputs], rounds=3,
                              iterations=1, warmup_rounds=1)


def _moved(rng, q, size):
    # q moved by alternating L and R blocks of 1 to 9 turns until its
    # largest coefficient reaches `size`
    letter = "L"
    while max(abs(x) for x in q) < size:
        k = rng.randint(1, 9)
        m = UniMat(1, k, 0, 1) if letter == "L" else UniMat(1, 0, k, 1)
        q = act(q, m)
        letter = "R" if letter == "L" else "L"
    return q


def _definite(exp):
    rng = random.Random(f"definite:{exp}")
    forms = []
    for _ in range(BATCH):
        a = rng.randint(1, 50)
        b = rng.randint(-a, a)
        forms.append(_moved(rng, QuadForm(a, b, rng.randint(a, 100)),
                            10 ** exp))
    return forms


def _blocks(steps):
    return sum(1 for letter, _ in steps if letter != "S")


@pytest.mark.parametrize("exp", [3, 6, 12, 30])
def test_reduce_negative(benchmark, exp):
    forms = _definite(exp)
    blocks = sum(_blocks(reduce_negative(q).steps) for q in forms)
    _run(benchmark, reduce_negative, forms, blocks=blocks)


@pytest.mark.parametrize("exp", [3, 6, 12, 30])
def test_find_well(benchmark, exp):
    forms = _definite(exp)
    blocks = sum(_blocks(reduce_negative(q).steps) for q in forms)
    _run(benchmark, find_well, forms, blocks=blocks)


@pytest.mark.parametrize("exp", [3, 6, 12, 30])
def test_lr_decompose(benchmark, exp):
    roots = [Surd(-b, 1, 2 * a, b * b - 4 * a * c) for a, b, c in
             _definite(exp)]
    blocks = sum(len(lr_decompose(z)[0]) for z in roots)
    _run(benchmark, lr_decompose, roots, blocks=blocks)


@pytest.mark.parametrize("m", [10, 100, 499, 10 ** 4])
def test_reduce_square(benchmark, m):
    rng = random.Random(f"square:{m}")
    forms = [_moved(rng, QuadForm(0, m, rng.randint(1, m)), 10 ** 6)
             for _ in range(BATCH)]
    blocks = sum(len(reduce_square(q).steps) for q in forms)
    _run(benchmark, reduce_square, forms, blocks=blocks)


def _cycle_inputs(D):
    rng = random.Random(f"gauss:{D}")
    assert not is_square(D)
    # forms of D one block walk away from a simply reduced cycle
    start = QuadForm(1, 1, (1 - D) // 4)
    cycle = reduce_simple_cycle(start).canonical
    return [_moved(rng, rng.choice(cycle), 10 ** 6) for _ in range(10)]


@pytest.mark.parametrize("D", [10 ** 3 + 1, 10 ** 5 + 1, 10 ** 7 + 1])
def test_gauss_cycle(benchmark, D):
    forms = _cycle_inputs(D)
    steps = sum(len(gauss_cycle(q)) for q in forms)
    _run(benchmark, gauss_cycle, forms, cycle_forms=steps)


@pytest.mark.parametrize("D", [10 ** 3 + 1, 10 ** 5 + 1, 10 ** 7 + 1])
def test_zagier_cycle(benchmark, D):
    forms = _cycle_inputs(D)
    steps = sum(len(zagier_cycle(q)) for q in forms)
    _run(benchmark, zagier_cycle, forms, cycle_forms=steps)
