"""TurnPath equality by runs, copies and pickles of long paths and rivers,
and units beyond float range."""

import copy
import json
import math
import pickle
import time

import pytest

from topoforms.cli import run
from topoforms.forms import QuadForm
from topoforms.riverword import pell_fundamental, principal_form
from topoforms.topograph import TurnPath, find_river, find_well


def test_adjacent_equal_runs_merge():
    split = TurnPath(TurnPath(TurnPath(None, "L", 3), "R", 0), "L", 2)
    assert split.runs() == [("L", 5)]
    assert split == TurnPath().then("L", 5) and tuple(split) == ("L",) * 5
    assert hash(split) == hash(TurnPath().then("L", 5))
    assert split != TurnPath().then("L", 4).then("R")
    assert TurnPath().then("L").then("R") != TurnPath().then("R").then("L")


def test_repr_prints_runs():
    assert repr(TurnPath.of("LLR")) == "TurnPath((('L', 2), ('R', 1)))"
    assert repr(TurnPath()) == "TurnPath(())"
    # an edge 2^113 turns from the lake prints its runs, not its turns
    path = find_river(QuadForm(0, 2 ** 113 + 1, 3)).edges[5].path
    best = math.inf
    for _ in range(5):
        t = time.perf_counter()
        text = repr(path)
        best = min(best, time.perf_counter() - t)
    assert text == f"TurnPath({tuple(path.runs())!r})" and best < 0.001


def _best_compare(p, q):
    best = math.inf
    for _ in range(5):
        t = time.perf_counter()
        equal = p == q
        best = min(best, time.perf_counter() - t)
    return equal, best


def test_long_paths_compare_by_runs():
    n = 10 ** 6
    well = find_well(QuadForm(1, 2 * n, n * n + 1)).at.path
    assert len(well) == n
    built = TurnPath(TurnPath(None, "Li", 400000), "Li", n - 400000)
    equal, seconds = _best_compare(well, built)
    assert equal and seconds < 0.005
    equal, seconds = _best_compare(well, TurnPath().then("Li", n - 1)
                                   .then("L"))
    assert not equal and seconds < 0.005


def test_river_views_hash_by_blocks():
    # 587 blocks and 5,590 edges, the last edge's path 587 runs long: the
    # hash reads the blocks and two edges' runs, not every edge's turns
    river = find_river(principal_form(1003033))
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        hash(river.edges), hash(river.word)
        best = min(best, time.perf_counter() - t)
    assert best < 0.01


@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
@pytest.mark.parametrize("D", [1003033, 100000037])
def test_long_paths_and_rivers_copy_and_pickle(D, how):
    # the last edge's path has thousands of runs (5,159 at D = 100000037)
    river = find_river(principal_form(D))
    edge = river.edges[-1]
    if how == "pickle":
        data = pickle.dumps(river)
        assert len(data) < 2 ** 20
        river2, edge2 = pickle.loads(data), pickle.loads(pickle.dumps(edge))
    else:
        river2, edge2 = copy.deepcopy(river), copy.deepcopy(edge)
    assert edge2 == edge and edge2.path.runs() == edge.path.runs()
    assert hash(edge2) == hash(edge)
    assert river2.kind == river.kind
    assert river2.edges.turns == river.edges.turns
    assert river2.word.turns == river.word.turns
    assert river2.word == river.word and river2.edges == river.edges
    assert hash(river2) == hash(river)
    for i in (7, -1):
        assert river2.edges[i] == river.edges[i]
        assert river2.edges[i].path.runs() == river.edges[i].path.runs()


def test_pell_beyond_float_range(capsys):
    D = 1000009
    assert run(["pell", "--disc", str(D), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    t, u = int(doc["t"]), int(doc["u"])
    assert t * t - D * u * u == 4 and t.bit_length() > 1024
    assert doc["epsilon_approx"] is None
    assert run(["pell", "--disc", str(D)]) == 0
    assert "\nepsilon = (" in capsys.readouterr().out
    assert run(["pell", "--disc", "148", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["epsilon_approx"] == (
        146 + 12 * math.sqrt(148)) / 2


def test_river_series_beyond_float_range(capsys):
    D = 1000009
    argv = ["series", "--theorem", "mt", "--disc", str(D), "--depth", "0"]
    assert run(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # eps = (t + u sqrt D)/2 lies within 1/t of t
    t = pell_fundamental(D).t
    assert math.isclose(doc["target"], 2 * math.log(t), rel_tol=1e-15)
    assert run(argv) == 0
    assert "mt: value" in capsys.readouterr().out
