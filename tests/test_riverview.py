"""The river as a run-length object: `find_river`'s `edges` and `word` are
sequence views over the river's blocks, checked against the eager build
they replaced.

`ref_find_river` below materializes one cursor per unit edge, exactly as
`find_river` did before the views: every view must agree with its tuples
in length, indexing, slicing, iteration and search, down to the nodes of
each edge's path, and views of equal tuples compare and hash equal.  A
periodic river's start, path and turns come from `test_blockwalk`'s walk
one unit turn at a time on q's roots, not from the block walk `find_river`
runs.
"""

import random
import time
from itertools import groupby, islice, repeat

import pytest
from hypothesis import assume, given, settings, strategies as st

from topoforms.exact import is_square
from topoforms.forms import QuadForm
from topoforms.riverword import principal_form
from topoforms.topograph import (EdgeCursor, TurnPath, block_step,
                                 find_river, square_reduction,
                                 square_river_blocks, turn_path)

from test_blockwalk import ref_find_river as ref_unit_river
from test_turnpath import ref_turn_path


# ------------------------------------------------------------- reference

def ref_unit_edges(word, form, path):
    """One cursor per unit turn of the blocks, on the form before the turn
    and with the path to it, and the letters of the turns."""
    new = tuple.__new__
    edges, letters = [], []
    a, b, c = form
    for letter, k in word:
        end = path.then(letter, k)
        for j in range(end.count - k + 1, end.count + 1):
            edges.append(new(EdgeCursor, (new(QuadForm, (a, b, c)), path)))
            if letter == "L":
                b, c = b + 2 * a, a + b + c
            else:
                a, b = a + b + c, b + 2 * c
            path = TurnPath(end.prefix, letter, j)
        letters += repeat(letter, k)
    return edges, letters


def ref_find_river(q):
    """(kind, edges, word) as tuples, built one unit edge at a time."""
    if is_square(q.discriminant()):
        steps, q0 = square_reduction(q)
        _, m, r = q0
        edges, letters = ref_unit_edges(square_river_blocks(q0).word,
                                        (r, -m, 0),
                                        turn_path(steps).then("S"))
        return "finite", tuple(edges[1:]), tuple(letters[1:-1])
    unit_edges, unit_word = ref_unit_river(q)
    anchor, path = unit_edges[0]
    runs = [(letter, len(list(g))) for letter, g in groupby(unit_word)]
    edges, letters = ref_unit_edges(runs, anchor, TurnPath.of(path))
    assert [(e.form, tuple(e.path)) for e in edges] == unit_edges
    return "periodic", tuple(edges), tuple(letters)


def ref_block_paths(q):
    """The path of every edge of q's periodic river as a chain of one
    `then` per block: of the unit walk's path to its first edge, then of
    the river's runs, each edge's node on its block's start path."""
    unit_edges, unit_word = ref_unit_river(q)
    anchor, path = unit_edges[0]

    def blocks(turns):
        return [(turn, len(list(g))) for turn, g in groupby(turns)]
    edges, _ = ref_unit_edges(blocks(unit_word), anchor,
                              ref_turn_path(blocks(path)))
    return [e.path for e in edges]


def replay(q, path):
    """q moved along `path` one run at a time, so long runs cost O(1)."""
    for turn, n in path.runs():
        if turn == "S":
            q = QuadForm(q.c, -q.b, q.a) if n % 2 else q
        else:
            q = block_step(q, turn[0], -n if turn[1:] else n)
    return q


def _nodes(path):
    nodes = []
    while path.prefix is not None:
        nodes.append((path.turn, path.count))
        path = path.prefix
    return nodes[::-1]


# ---------------------------------------------------------------- forms

COEF = st.integers(-60, 60)


@st.composite
def periodic_forms(draw):
    q = QuadForm(draw(COEF), draw(COEF), draw(COEF))
    D = q.discriminant()
    assume(D > 0 and not is_square(D))
    return q


@st.composite
def finite_forms(draw):
    # (p x + q y)(r x + s y) has discriminant (p s - q r)^2
    p, q, r, s = (draw(st.integers(-12, 12)) for _ in range(4))
    assume(p * s != q * r)
    return QuadForm(p * r, p * s + q * r, q * s)


FIXED = [QuadForm(1, 0, -24), QuadForm(3, -6, -5), QuadForm(0, 3, 1),
         QuadForm(12, 12, 1), QuadForm(0, 5, 2), QuadForm(-9, -11, -3)]

SLICES = [slice(None), slice(1, None), slice(None, -1), slice(2, 7),
          slice(None, None, 2), slice(1, None, 3), slice(None, None, -1),
          slice(-2, None, -2), slice(5, 1, -1), slice(7, 2), slice(-100, 100),
          slice(3, 3)]


# ----------------------------------------------------------------- checks

def check_river(q):
    kind, ref_edges, ref_word = ref_find_river(q)
    river = find_river(q)
    edges, word = river.edges, river.word
    assert river.kind == kind
    assert len(edges) == len(ref_edges) and len(word) == len(ref_word)
    for seq, ref in ((edges, ref_edges), (word, ref_word)):
        assert seq.turns == len(ref) and bool(seq) == bool(ref)

    # every index, positive and negative, and past either end
    for seq, ref in ((edges, ref_edges), (word, ref_word)):
        n = len(ref)
        for i in range(-n, n):
            assert seq[i] == ref[i]
        for i in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                seq[i]
        for s in SLICES:
            got = seq[s]
            assert type(got) is tuple and got == ref[s], s
        assert tuple(seq) == ref and list(seq) == list(ref)
        # a view compares with views, not with the tuple of its items
        assert seq != ref and ref != seq and not seq == ref
    again = find_river(q)  # the same river, walked twice
    assert edges == again.edges and word == again.word and river == again
    assert hash(edges) == hash(again.edges)
    assert hash(word) == hash(again.word) and hash(river) == hash(again)
    check_search(word, ref_word, ("L", "R", "X"))
    # the first, middle and last edges, and the first edge's form with a
    # path that is not its own
    n = len(ref_edges)
    picks = ref_edges[:1] + ref_edges[n // 2:n // 2 + 1] + ref_edges[-1:]
    check_search(edges, ref_edges, (*picks, "X",
                                    *(EdgeCursor(e.form) for e in picks[:1])))

    # the same cursors and path nodes, whether iterated or indexed
    for i, (e, r) in enumerate(zip(edges, ref_edges)):
        for x in (e, edges[i]):
            assert type(x) is EdgeCursor and type(x.form) is QuadForm
            assert type(x.path) is TurnPath
            assert x.form == r.form and x.path == r.path
            assert _nodes(x.path) == _nodes(r.path) == x.path.runs()
        assert replay(q, e.path) == e.form


def check_search(seq, ref, items):
    # membership, counts, reversal and index, with starts and stops from
    # before either end to past it, as the view's tuple gives them
    assert list(reversed(seq)) == list(reversed(ref))
    n = len(ref)
    cuts = sorted({-n - 2, -n, -n + 1, -2, -1, 0, 1, 2, n // 3, n // 2,
                   n - 2, n - 1, n, n + 2})
    for item in items:
        assert (item in seq) == (item in ref)
        assert seq.count(item) == ref.count(item)
        for start in cuts:
            for stop in (None, *cuts):
                args = (start,) if stop is None else (start, stop)
                try:
                    want = ref.index(item, *args)
                except ValueError:
                    with pytest.raises(ValueError):
                        seq.index(item, *args)
                else:
                    assert seq.index(item, *args) == want, args
        if item in ref:
            assert seq.index(item) == ref.index(item)


@given(periodic_forms())
@settings(max_examples=100, deadline=None)
def test_periodic_views_match_the_eager_build(q):
    check_river(q)


@given(finite_forms())
@settings(max_examples=150, deadline=None)
def test_finite_views_match_the_eager_build(q):
    check_river(q)


@pytest.mark.parametrize("q", FIXED, ids=repr)
def test_fixed_rivers_match_the_eager_build(q):
    # D = 96 and D = 9, and [12, 12, 1], whose river's first block extends
    # the last run of the path to it
    check_river(q)


@given(st.one_of(periodic_forms(), finite_forms()), st.sampled_from("LR"),
       st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_views_compare_as_their_tuples(q, letter, k):
    # views compare by blocks: as their tuples do, on rivers of one class
    # reached along different paths too
    one, two = find_river(q), find_river(block_step(q, letter, k))
    for x, y in ((one.edges, two.edges), (one.word, two.word),
                 (one.edges, one.word), (one.word, two.edges)):
        assert (x == y) == (tuple(x) == tuple(y)), (x, y)
        assert (x != y) == (tuple(x) != tuple(y))
        assert x != y or hash(x) == hash(y)


def test_views_hold_their_blocks_only():
    # two blocks, R^(2^28 + 1) and L^(2^28 + 1): indexing and length never
    # expand them, and the edges replay from the form through their runs
    n = 2 ** 28 + 1
    q = QuadForm(1, n, -1)
    river = find_river(q)
    edges = river.edges
    assert len(edges) == len(river.word) == 2 * n
    assert river.word[0] == river.word[n - 1] == "R"
    assert river.word[n] == river.word[-1] == "L"
    for i in (0, 2 ** 28, n, -1):
        e = edges[i]
        assert replay(q, e.path) == e.form
    assert edges[-1].path.runs() == [("R", n), ("L", n - 1)]
    assert edges[2 ** 28: 2 ** 28 + 2] == (edges[2 ** 28], edges[n])


def test_word_search_on_a_huge_block():
    # [0, 2^113 + 1, 3]: one block of about 2^111 L turns, past len()'s
    # range; membership, counts, index and reversal read it as one block
    word = find_river(QuadForm(0, 2 ** 113 + 1, 3)).word
    n = word.turns
    assert n > 2 ** 111
    start = time.perf_counter()
    assert "L" in word and "R" not in word
    assert word.count("R") == 0 and word.count("L") == n
    with pytest.raises(ValueError):
        word.index("R")
    assert word.index("L") == 0 and word.index("L", -5) == n - 5
    assert word.index("L", 2 ** 100, 2 ** 101) == 2 ** 100
    with pytest.raises(ValueError):
        word.index("L", n)
    assert list(islice(reversed(word), 3)) == ["L"] * 3
    assert time.perf_counter() - start < 0.1


def test_edge_search_on_a_huge_block():
    # [0, 2^113 + 1, 3]: an edge is looked up at its path's length, and
    # reversal walks the blocks, so nothing counts the 2^111 edges
    edges = find_river(QuadForm(0, 2 ** 113 + 1, 3)).edges
    n = edges.turns
    start = time.perf_counter()
    for i in (0, 5, 2 ** 100, n - 1):
        e = edges[i]
        assert e in edges and edges.count(e) == 1 and edges.index(e) == i
        assert edges.index(e, -n + i) == i
        with pytest.raises(ValueError):
            edges.index(e, i + 1)
        off = EdgeCursor(e.form, e.path.then("S"))
        assert off not in edges and edges.count(off) == 0
    assert list(islice(reversed(edges), 3)) == [edges[-1], edges[-2],
                                                edges[-3]]
    assert time.perf_counter() - start < 0.1


def _far(form, blocks):
    # the form moved by `blocks` random blocks of 1 to 3 turns, seeded
    rng = random.Random(blocks)
    for i in range(blocks):
        form = block_step(form, "LR"[i % 2], rng.randint(1, 3))
    return form


@pytest.mark.parametrize("q", [_far(QuadForm(1, 0, -2), 600),
                               _far(QuadForm(1, 0, -2), 1500),
                               principal_form(1003033)],
                         ids=["far600", "far1500", "D1003033"])
def test_edge_paths_equal_the_per_block_chain(q):
    # a path of 1,500 root blocks and a river of 5,590 edges: each edge's
    # path, read off the river's shared runs, is the chain built block by
    # block, iterated or indexed
    ref = ref_block_paths(q)
    edges = find_river(q).edges
    assert len(edges) == len(ref)
    for i, (e, r) in enumerate(zip(edges, ref)):
        for path in (e.path, edges[i].path):
            assert path == r and hash(path) == hash(r) and len(path) == len(r)
            assert path.runs() == r.runs() == _nodes(r)
