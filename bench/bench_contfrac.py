"""Layer benchmarks of real continued fractions and root products, for
pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_contfrac.py \
        --benchmark-json=out.json

`real_cf` runs on sqrt(D) for D = 10^4 + 7, 10^6 + 3 and 10^8 + 37, and on
a fixed batch of 50 seeded surds (p + q sqrt d)/r whose expansions have 40
to 60 terms, the size the `queries` workload draws.  `root_product` runs on
the principal form of D = 10^4 + 1, 10^5 + 1 and 10^6 + 1.  Each benchmark
records in `extra_info` the calls and the terms of the expansions, or the
length of the Zagier cycle multiplied, so that a result reads as time per
term or per cycle form.
"""

import random

import pytest

from topoforms.contfrac import real_cf
from topoforms.exact import Surd, is_square
from topoforms.reduce import zagier_cycle
from topoforms.riverword import principal_form
from topoforms.series import root_product

Q_CHOICES = (-3, -2, -1, 1, 2, 3)


def _terms(cf):
    return len(cf.terms) + len(cf.period or ())


def _run(benchmark, fn, inputs, **work):
    benchmark.extra_info.update(calls=len(inputs), **work)
    return benchmark.pedantic(lambda: [fn(x) for x in inputs], rounds=5,
                              iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("D", [10 ** 4 + 7, 10 ** 6 + 3, 10 ** 8 + 37])
def test_real_cf_sqrt(benchmark, D):
    x = Surd(0, 1, 1, D)
    cf = real_cf(x)
    _run(benchmark, real_cf, [x], D=D, terms=_terms(cf),
         period=len(cf.period))


def _surd_batch(n=50):
    rng = random.Random("real_cf:surds")
    out = []
    while len(out) < n:
        d = rng.randint(2, 1000)
        if is_square(d):
            continue
        x = Surd(rng.randint(-10 ** 3, 10 ** 3), rng.choice(Q_CHOICES),
                 rng.randint(1, 20), d)
        if 40 <= _terms(real_cf(x)) <= 60:
            out.append(x)
    return out


def test_real_cf_surd_batch(benchmark):
    xs = _surd_batch()
    _run(benchmark, real_cf, xs, terms=sum(_terms(real_cf(x)) for x in xs))


@pytest.mark.parametrize("D", [10 ** 4 + 1, 10 ** 5 + 1, 10 ** 6 + 1])
def test_root_product(benchmark, D):
    q = principal_form(D)
    _run(benchmark, root_product, [q], D=D, cycle=len(zagier_cycle(q)))
