"""Layer benchmarks of the forms layer, for pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_forms.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Each benchmark calls
its function on a fixed batch of seeded inputs and records in `extra_info`
the calls, so that a result reads as time per call.  The batches:
`QuadForm` construction from 10^4 triples, through `QuadForm(a, b, c)` and
through the unchecked `topograph._quad_form`; reading the three fields of
10^4 forms; `act` on forms with coefficients up to 10^6 and products of
three L/R blocks of up to 50 turns, the sizes the perfbench `queries`
workload draws; `roots` in each regime (definite forms near 10^6,
indefinite forms of non-square D near 10^4, square D, and a = 0); and
`turn_sequence_matrix` on words of 10^3 and 10^4 blocks of 1 to 9 turns,
which also records the blocks and the bit length of the product; and
`Rat` operations on 10^4 rationals up to 10^6 over 10^6, one in sixteen
each +-1/0, 0 or an int: the four order comparisons, negation, `invert`,
subtraction of finite values and `mobius` of an `act`-sized matrix.  Only
functions that keep their names and outputs are timed, so the file runs
unchanged on earlier versions of the library.
"""

import operator
import random

import pytest

from topoforms.exact import INF, NEG_INF, Rat, is_square
from topoforms.forms import (MAT_L, MAT_R, QuadForm, act, mobius, roots,
                             turn_sequence_matrix)
from topoforms.topograph import _quad_form

BATCH = 10 ** 4


def _run(benchmark, fn, inputs, **work):
    benchmark.extra_info.update(calls=len(inputs), **work)
    return benchmark.pedantic(lambda: [fn(x) for x in inputs], rounds=10,
                              iterations=1, warmup_rounds=1)


def _triples(n=BATCH, size=10 ** 6):
    rng = random.Random(f"triples:{size}")
    return [tuple(rng.randint(-size, size) for _ in range(3))
            for _ in range(n)]


def _scramble(rng, blocks, kmax):
    # a product of L^k and R^k blocks, k in [-kmax, kmax] and not 0
    return turn_sequence_matrix([("LR"[i % 2], rng.randint(1, kmax)
                                  * rng.choice((1, -1)))
                                 for i in range(blocks)])


@pytest.mark.parametrize("via", ["QuadForm", "_quad_form"])
def test_construct(benchmark, via):
    make = (lambda t: QuadForm(*t)) if via == "QuadForm" else _quad_form
    _run(benchmark, make, _triples())


def test_field_reads(benchmark):
    forms = [QuadForm(*t) for t in _triples()]
    _run(benchmark, lambda q: q.a + q.b + q.c, forms, reads=3 * len(forms))


def test_act(benchmark):
    rng = random.Random("act")
    pairs = [(QuadForm(*t), _scramble(rng, 3, 50))
             for t in _triples(BATCH // 10)]
    _run(benchmark, lambda p: act(*p), pairs)


def _definite(rng):
    a, c = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
    bound = int((4 * a * c) ** 0.5) - 1
    return QuadForm(a, rng.randint(-bound, bound), c)


def _indefinite(rng):
    while True:
        q = QuadForm(*(rng.randint(-10 ** 4, 10 ** 4) for _ in range(3)))
        D = q.discriminant()
        if q.a and D > 0 and not is_square(D):
            return q


def _square(rng):
    m, r = rng.randint(1, 1000), rng.randint(1, 1000)
    return act(act(QuadForm(0, m, r), MAT_R ** rng.randint(1, 5)),
               MAT_L ** rng.randint(-5, 5))


def _linear(rng):
    return QuadForm(0, rng.choice((-1, 1)) * rng.randint(1, 10 ** 6),
                    rng.randint(-10 ** 6, 10 ** 6))


REGIMES = {"definite": _definite, "indefinite": _indefinite,
           "square": _square, "linear": _linear}


@pytest.mark.parametrize("regime", REGIMES)
def test_roots(benchmark, regime):
    rng = random.Random(f"roots:{regime}")
    forms = [REGIMES[regime](rng) for _ in range(BATCH // 10)]
    _run(benchmark, roots, forms)


@pytest.mark.parametrize("blocks", [10 ** 3, 10 ** 4])
def test_turn_sequence_matrix(benchmark, blocks):
    rng = random.Random(f"word:{blocks}")
    word = [("LR"[i % 2], rng.randint(1, 9)) for i in range(blocks)]
    m = turn_sequence_matrix(word)
    benchmark.extra_info.update(blocks=blocks,
                                bits=max(abs(x) for x in m).bit_length())
    benchmark.pedantic(turn_sequence_matrix, (word,), rounds=10,
                       iterations=1, warmup_rounds=1)


def _rat(rng, finite=False):
    # a rational up to 10^6 over 10^6, or one in sixteen each +-1/0 (unless
    # finite), 0 or an int
    u = rng.randrange(16)
    if u == 0 and not finite:
        return rng.choice((INF, NEG_INF))
    if u < 2:
        return Rat(0)
    if u == 2:
        return rng.randint(-10 ** 6, 10 ** 6)
    return Rat(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))


def _as_rat(x):
    return x if isinstance(x, Rat) else Rat(x)


def _rat_inputs(op, rng):
    finite = op == "subtract"
    xs = [_as_rat(_rat(rng, finite)) for _ in range(BATCH)]
    if op in ("negate", "invert"):
        return xs
    if op == "mobius":
        return [(_scramble(rng, 3, 50), x) for x in xs]
    return [(x, _rat(rng, finite)) for x in xs]


RAT_OPS = {
    "compare": lambda p: (p[0] < p[1], p[0] <= p[1], p[0] > p[1],
                          p[0] >= p[1]),
    "negate": operator.neg,
    "invert": Rat.invert,
    "subtract": lambda p: p[0] - p[1],
    "mobius": lambda p: mobius(*p),
}


@pytest.mark.parametrize("op", RAT_OPS)
def test_rat_ops(benchmark, op):
    inputs = _rat_inputs(op, random.Random(f"rat:{op}"))
    ops = 4 * len(inputs) if op == "compare" else len(inputs)
    _run(benchmark, RAT_OPS[op], inputs, ops=ops)
