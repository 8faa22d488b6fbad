"""Edge cursors and vertex views as named tuples, against the frozen
dataclasses they replaced.

The two classes below are the former definitions of
`topograph.EdgeCursor` and `topograph.VertexView`.  The named tuples must
keep their repr, hash, field names, default path and read-only fields; they
now also unpack, index and compare equal to plain tuples of their fields.
The river and cycle builders make their cursors and forms with
`tuple.__new__`, which skips the constructors, so their types are checked
here too.
"""

from dataclasses import dataclass, fields

import pytest

from topoforms import topograph
from topoforms.forms import QuadForm
from topoforms.reduce import reduce_simple_cycle
from topoforms.riverword import principal_form
from topoforms.topograph import (TurnPath, bfs_vertices, find_river,
                                 find_well, head_view, river_walk, step,
                                 tail_view)


# ------------------------------------------------------------- reference

@dataclass(frozen=True)
class EdgeCursor:
    form: QuadForm
    path: TurnPath = TurnPath()


@dataclass(frozen=True)
class VertexView:
    regions: tuple  # (r, s, t)
    out_labels: tuple  # (e, f, g) directed out of the vertex


# ------------------------------------------------------------- cursors

def _cursors():
    q = QuadForm(2, 1, 3)
    return [
        topograph.EdgeCursor(q),
        topograph.EdgeCursor(q, ("S",)),
        topograph.EdgeCursor(q, TurnPath.of("LLR")),
        step(step(topograph.EdgeCursor(q), "L"), "Ri"),
        find_well(QuadForm(7, 3, 11)).at,
        *find_river(QuadForm(1, 0, -24)).edges[:3],
        *find_river(QuadForm(0, 5, 2)).edges[:3],
    ]


def _cursor_id(cur):
    # the path spelled turn by turn, as these cases were first named, so
    # that TurnPath's repr by runs does not rename them
    path = cur.path
    if isinstance(path, TurnPath):
        path = f"TurnPath({tuple(path)!r})"
    return f"EdgeCursor(form={cur.form!r}, path={path})"


@pytest.mark.parametrize("cur", _cursors(), ids=_cursor_id)
def test_edge_cursor_matches_dataclass(cur):
    old = EdgeCursor(cur.form, cur.path)
    assert type(cur) is topograph.EdgeCursor
    assert repr(cur) == repr(old)
    assert hash(cur) == hash(old)
    assert topograph.EdgeCursor._fields == tuple(f.name for f in fields(old))
    assert (cur.form, cur.path) == (old.form, old.path)
    # new: it unpacks, indexes and equals the tuple of its fields
    form, path = cur
    assert (form, path) == (cur[0], cur[1]) == cur
    for name in ("form", "path", "extra"):
        with pytest.raises(AttributeError):
            setattr(cur, name, None)
        with pytest.raises(AttributeError):
            setattr(old, name, None)


def test_edge_cursor_default_path():
    q = QuadForm(1, 1, 1)
    cur, old = topograph.EdgeCursor(q), EdgeCursor(q)
    assert isinstance(cur.path, TurnPath)
    assert cur.path == old.path == TurnPath() and tuple(cur.path) == ()
    assert repr(cur) == repr(old) == "EdgeCursor(form=[1,1,1], path=TurnPath(()))"
    assert hash(cur) == hash(old)


# ------------------------------------------------------------- views

def _views():
    root = topograph.EdgeCursor(QuadForm(2, 1, 3))
    views = [head_view(root), tail_view(root)]
    views += bfs_vertices(root, 3)
    views += bfs_vertices(topograph.EdgeCursor(QuadForm(1, 2**60, -3)), 1)
    return views


@pytest.mark.parametrize("view", _views(), ids=repr)
def test_vertex_view_matches_dataclass(view):
    old = VertexView(view.regions, view.out_labels)
    assert type(view) is topograph.VertexView
    assert type(view.regions) is tuple and type(view.out_labels) is tuple
    assert repr(view) == repr(old)
    assert hash(view) == hash(old)
    assert topograph.VertexView._fields == tuple(f.name for f in fields(old))
    regions, out_labels = view
    assert (regions, out_labels) == (old.regions, old.out_labels) == view
    for name in ("regions", "out_labels", "extra"):
        with pytest.raises(AttributeError):
            setattr(view, name, None)
        with pytest.raises(AttributeError):
            setattr(old, name, None)


# ------------------------------------------------------ rivers and cycles

@pytest.mark.parametrize("q", [
    QuadForm(1, 0, -24), QuadForm(12, 12, 1), QuadForm(-9, -11, -3),
    QuadForm(0, 5, 2), QuadForm(3, 9, 6), principal_form(1003033),
], ids=repr)
def test_built_objects_have_their_types(q):
    river = find_river(q)
    assert all(type(e) is topograph.EdgeCursor for e in river.edges)
    assert all(type(e.form) is QuadForm for e in river.edges)
    assert all(type(e.path) is TurnPath for e in river.edges)
    if river.kind == "periodic":
        res = reduce_simple_cycle(q)
        assert all(type(f) is QuadForm for f in res.canonical)


def _nodes(path):
    # the (turn, count) nodes of a path, first to last, without its root
    nodes = []
    while path.prefix is not None:
        nodes.append((path.turn, path.count))
        path = path.prefix
    return nodes[::-1]


def _replay(q, path):
    cur = topograph.EdgeCursor(q)
    for turn in path:
        cur = step(cur, turn)
    return cur.form


def test_river_extends_the_start_paths_last_run():
    # D = 96: the path to the river ends on an L turn, and the river's
    # first block is L^8, so the first edges' paths lengthen that run
    q = QuadForm(12, 12, 1)
    river = find_river(q)
    start = river.edges[0]
    assert start.path.runs() == [("Li", 1), ("R", 1), ("L", 1)]
    assert river_walk(start.form).word == (("L", 8), ("R", 1))
    assert tuple(river.word) == ("L",) * 8 + ("R",)
    assert [e.path.runs() for e in river.edges] == [
        [("Li", 1), ("R", 1), ("L", n)] for n in range(1, 10)]
    for e in river.edges:
        # one node per maximal run: the river's first block extends the
        # start path's last node rather than adding a node of the same turn
        runs = e.path.runs()
        assert _nodes(e.path) == runs
        assert all(n > 0 for _, n in runs)
        assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))
        assert _replay(q, e.path) == e.form
