"""Layer benchmarks of the class numbers and the Hurwitz series, for
pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_classnum.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Every benchmark
records its work in `extra_info`: the reduced forms `reduce.reduced_forms`
lists and the trial divisions it makes (the length of the a range, summed
over b), for `h_neg`, `hstar_neg` and `hurwitz` at |D| = 10^k + 3 (odd D)
and 10^k + 4 (even D), k = 2 to 6, and the vertices `hurwitz_series` sums
at D = -23 and -299 to depth 11, so that a result reads as time per form
or per division.  `h_pos` at D = 10^k + 1, k = 4 to 6, records the classes
and the primitive Zagier-reduced forms it finds, one river walk per class.
"""

import pytest

from topoforms.classnum import h_neg, h_pos, hstar_neg, hurwitz
from topoforms.exact import isqrt
from topoforms.reduce import reduced_forms, zagier_classes
from topoforms.series import hurwitz_series

SIZES = [10 ** k + r for k in range(2, 7) for r in (3, 4)]


def _run(benchmark, fn, *args, **work):
    benchmark.extra_info.update(work)
    return benchmark.pedantic(fn, args, rounds=5, iterations=1,
                              warmup_rounds=1)


def _work(D):
    divisions = 0
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        divisions += max(0, isqrt((b * b - D) // 4) - max(b, 1) + 1)
    return {"forms": sum(1 for _ in reduced_forms(D)),
            "divisions": divisions}


@pytest.mark.parametrize("n", SIZES)
def test_hstar_neg(benchmark, n):
    work = _work(-n)
    assert _run(benchmark, hstar_neg, -n, **work) == work["forms"]


@pytest.mark.parametrize("n", SIZES)
def test_h_neg(benchmark, n):
    assert _run(benchmark, h_neg, -n, **_work(-n)) >= 1


@pytest.mark.parametrize("n", SIZES)
def test_hurwitz(benchmark, n):
    assert _run(benchmark, hurwitz, n, **_work(-n)) > 0


@pytest.mark.parametrize("D", [-23, -299])
def test_hurwitz_series(benchmark, D):
    forms = sum(1 for _ in reduced_forms(D))
    rep = _run(benchmark, hurwitz_series, D, 11, forms=forms,
               vertices=forms * (3 * 2 ** 11 - 2))
    assert rep.terms_used == benchmark.extra_info["vertices"]


@pytest.mark.parametrize("D", [10 ** 4 + 1, 10 ** 5 + 1, 10 ** 6 + 1])
def test_h_pos(benchmark, D):
    classes = zagier_classes(D)
    work = {"classes": len(classes), "z_forms": sum(map(len, classes))}
    assert _run(benchmark, h_pos, D, **work) == work["classes"]
