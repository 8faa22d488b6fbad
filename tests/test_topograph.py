import json

import pytest
from hypothesis import given, strategies as st

from topoforms.exact import DomainError
from topoforms.forms import QuadForm
from topoforms.topograph import (EdgeCursor, bfs_vertices, export, find_river,
                                 find_well, head_view, step, tail_view)

COEF = st.integers(-30, 30)


def _forms():
    return st.builds(QuadForm, COEF, COEF, COEF)


@given(_forms())
def test_step_inverses(q):
    cur = EdgeCursor(q)
    assert step(step(cur, "L"), "Li").form == q
    assert step(step(cur, "R"), "Ri").form == q
    assert step(step(cur, "S"), "S").form == q
    assert tuple(step(cur, "L").path) == ("L",)


def test_step_unknown_turn():
    with pytest.raises(DomainError):
        step(EdgeCursor(QuadForm(1, 1, 1)), "Q")


@given(_forms())
def test_vertex_views(q):
    D = q.discriminant()
    for view in (head_view(EdgeCursor(q)), tail_view(EdgeCursor(q))):
        r, s, t = view.regions
        e, f, g = view.out_labels
        assert e * f + f * g + g * e == -D
        assert e + f + g == r + s + t
        # each out-label is the sum of the two regions it separates minus
        # the third
        assert sorted((e, f, g)) == sorted(
            (r + s - t, s + t - r, t + r - s))


def test_bfs_counts_and_depth2_ball():
    # levels 1, 3, 6, 12, ... around the tail vertex of the root
    root = EdgeCursor(QuadForm(1, 1, 1))
    for depth, total in ((0, 1), (1, 4), (2, 10), (3, 22)):
        assert len(list(bfs_vertices(root, depth))) == total
    with pytest.raises(DomainError):
        list(bfs_vertices(root, -1))


@given(_forms(), st.integers(0, 4))
def test_bfs_invariant_everywhere(q, depth):
    D = q.discriminant()
    for view in bfs_vertices(EdgeCursor(q), depth):
        e, f, g = view.out_labels
        assert e * f + f * g + g * e == -D


def test_find_well_examples():
    w = find_well(QuadForm(1, 0, 1))
    assert w.kind == "edge_well" and w.labels == (1, 1)
    w = find_well(QuadForm(1, 1, 1))
    assert w.kind == "vertex_well" and sorted(w.labels) == [1, 1, 1]
    # start far from the well
    q = QuadForm(69, 64, 15)  # discriminant -44, class of [1,0,11]
    w = find_well(q)
    assert w.kind == "edge_well" and sorted(w.labels) == [1, 11]
    with pytest.raises(DomainError):
        find_well(QuadForm(1, 0, -1))
    with pytest.raises(DomainError):
        find_well(QuadForm(-1, 0, -1))


@given(st.integers(1, 25), st.integers(-25, 25), st.integers(1, 25))
def test_find_well_region_is_minimum(a, b, c):
    q = QuadForm(a, b, c)
    if q.discriminant() >= 0:
        return
    w = find_well(q)
    least = min(x for x in w.labels) if w.kind == "edge_well" else \
        min(tail_view(w.at).regions)
    # the well touches the overall minimum nonzero value of the form
    vals = [q(x, y) for x in range(-8, 9) for y in range(-8, 9)
            if (x, y) != (0, 0)]
    assert least <= min(vals)


def test_find_river_periodic():
    r = find_river(QuadForm(1, 0, -24))  # D = 96, shortest word LLLLRLLLL
    assert r.kind == "periodic"
    assert "".join(r.word) == "LLLLRLLLL"
    assert len(r.edges) == 9
    for e in r.edges:
        assert e.form.a > 0 > e.form.c
    r = find_river(QuadForm(3, -6, -5))
    assert "".join(r.word) == "LLRLR" and len(r.edges) == 5


def test_find_river_square():
    r = find_river(QuadForm(0, 3, 1))  # D = 9
    assert r.kind == "finite"
    assert len(r.edges) == len(r.word) + 1
    for e in r.edges:
        assert e.form.a > 0 > e.form.c
    with pytest.raises(DomainError):
        find_river(QuadForm(1, 0, 1))


def test_export_json_roundtrip():
    q = QuadForm(2, 1, 3)
    doc = json.loads(export(EdgeCursor(q), 3, "json"))
    assert doc["discriminant"] == str(q.discriminant())
    verts = doc["vertices"]
    assert len(verts) == 22
    D = q.discriminant()
    for v in verts:
        e, f, g = (int(x) for x in v["out_labels"])
        assert e * f + f * g + g * e == -D
        r, s, t = (int(x) for x in v["regions"])
        assert e + f + g == r + s + t
    # parents precede children
    for v in verts:
        if v["parent"] is not None:
            assert v["parent"] < v["id"]


def test_export_dot():
    out = export(EdgeCursor(QuadForm(1, 1, 1)), 2, "dot")
    assert out.startswith("digraph")
    assert out.count("->") == 9  # 10 vertices, 9 tree edges
    with pytest.raises(DomainError):
        export(EdgeCursor(QuadForm(1, 1, 1)), 2, "xml")
    with pytest.raises(DomainError):
        export(EdgeCursor(QuadForm(1, 1, 1)), -3, "dot")
    with pytest.raises(DomainError):
        export(EdgeCursor(QuadForm(0, 0, 0)), 3, "dot")
