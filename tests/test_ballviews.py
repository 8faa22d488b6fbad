"""BFS and export as views over the topograph level kernel, and the series
that read their rivers in blocks.

The reference functions below are the former cursor loops of
`topograph.bfs_vertices` and `topograph.export`, one `EdgeCursor` per
vertex.  The views must reproduce their vertices and their dot and json
output byte for byte, in every discriminant regime and on labels beyond
int64.  The river and square sums must keep the values, targets and term
counts they had when they took their river from `find_river`.
"""

import hashlib
import json
import math
import time

from hypothesis import given, settings, strategies as st

from topoforms.exact import is_square
from topoforms.forms import QuadForm
from topoforms.series import series_pos, series_seed, series_square
from topoforms.topograph import (EdgeCursor, bfs_vertices, export, head_view,
                                 step, tail_view)


# ------------------------------------------------------------- reference

def _root_frontier(root):
    back = step(root, "S")
    return [root, step(back, "L"), step(back, "R")]


def ref_bfs_vertices(root, max_depth):
    yield tail_view(root)
    frontier = _root_frontier(root)
    for _ in range(max_depth):
        nxt = []
        for cur in frontier:
            yield head_view(cur)
            nxt.append(step(cur, "L"))
            nxt.append(step(cur, "R"))
        frontier = nxt


def ref_export(root, max_depth, fmt):
    D = root.form.discriminant()
    records = []
    v = tail_view(root)
    records.append((0, v.regions, v.out_labels, None, None, None))
    frontier = []
    if max_depth > 0:
        for cur, turn in zip(_root_frontier(root), (None, "L", "R")):
            frontier.append((cur, 0, turn))
    next_id = 1
    for _ in range(max_depth):
        nxt = []
        for cur, parent, turn in frontier:
            v = head_view(cur)
            records.append((next_id, v.regions, v.out_labels, parent, turn,
                            cur.form))
            nxt.append((step(cur, "L"), next_id, "L"))
            nxt.append((step(cur, "R"), next_id, "R"))
            next_id += 1
        frontier = nxt
    if fmt == "json":
        doc = {
            "discriminant": str(D),
            "root": ",".join(str(x) for x in root.form),
            "vertices": [
                {
                    "id": i,
                    "regions": [str(x) for x in regs],
                    "out_labels": [str(x) for x in outs],
                    "parent": parent,
                    "turn": turn,
                }
                for i, regs, outs, parent, turn, _ in records
            ],
        }
        return json.dumps(doc, indent=2)
    lines = ["digraph topograph {"]
    for i, regs, _, _, _, _ in records:
        label = ",".join(str(x) for x in regs)
        lines.append(f'  v{i} [label="{label}"];')
    for i, _, _, parent, _, form in records:
        if parent is None:
            continue
        a, b, c = form
        lines.append(f'  v{parent} -> v{i} [label="{b} | {a} | {c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- forms by regime

COEF = st.integers(-40, 40)
BIG = st.integers(-2 ** 70, 2 ** 70)

definite = st.builds(QuadForm, COEF, COEF, COEF).filter(
    lambda q: q.discriminant() < 0)
# D = 0: g (p x + q y)^2, [0, 0, c] included
zero_disc = st.builds(lambda g, p, q: QuadForm(g * p * p, 2 * g * p * q,
                                               g * q * q),
                      st.integers(-9, 9).filter(bool), COEF, COEF).filter(
    any)
# square D: (p x + q y)(r x + s y)
square = st.builds(lambda p, q, r, s: QuadForm(p * r, p * s + q * r, q * s),
                   COEF, COEF, COEF, COEF).filter(
    lambda q: q.discriminant() > 0)
nonsquare = st.builds(QuadForm, COEF, COEF, COEF).filter(
    lambda q: q.discriminant() > 0 and not is_square(q.discriminant()))
# labels from 2^55 up, which leave int64 within the ball, and beyond 2^70
wide = st.one_of(
    st.builds(lambda q, k: QuadForm(*(k * x for x in q)),
              st.one_of(definite, square, nonsquare),
              st.integers(2 ** 55, 2 ** 62)),
    st.builds(QuadForm, BIG, BIG, BIG).filter(any))
regimes = st.one_of(definite, zero_disc, square, nonsquare, wide,
                    st.builds(lambda c: QuadForm(0, 0, c),
                              st.integers(-50, 50).filter(bool)))


@settings(max_examples=200, deadline=None)
@given(regimes, st.integers(0, 6))
def test_views_match_cursor_loops(q, depth):
    root = EdgeCursor(q)
    views = list(bfs_vertices(root, depth))
    assert views == list(ref_bfs_vertices(root, depth))
    assert all(type(x) is int
               for v in views for x in v.regions + v.out_labels)
    for fmt in ("json", "dot"):
        assert export(root, depth, fmt) == ref_export(root, depth, fmt)


def test_views_on_the_zero_form_and_far_labels():
    for q, depth in ((QuadForm(0, 0, 0), 3), (QuadForm(0, 0, 7), 6),
                     (QuadForm(2 ** 57, 1, -2 ** 57), 6),
                     (QuadForm(3, 2 ** 100, -5), 4)):
        root = EdgeCursor(q)
        assert list(bfs_vertices(root, depth)) == list(
            ref_bfs_vertices(root, depth))
        if any(q):
            assert export(root, depth, "dot") == ref_export(root, depth, "dot")


def test_views_keep_their_order_at_depth_nine():
    root = EdgeCursor(QuadForm(2, 1, 3))
    assert list(bfs_vertices(root, 9)) == list(ref_bfs_vertices(root, 9))
    assert export(root, 9, "json") == ref_export(root, 9, "json")


# ---------------------------------------------------- river and square sums

def _report_line(r1, r2):
    return (f"{r1.theorem} {r1.discriminant} {r1.depth} {r1.value.hex()} "
            f"{r2.value.hex()} {r1.terms_used} {r1.target.hex()}")


def _series_lines():
    lines = []
    for D in range(5, 400):
        if D % 4 in (0, 1) and not is_square(D):
            for d in (0, 3):
                lines.append(_report_line(*series_pos(series_seed(D), d)))
    lines.append(_report_line(*series_pos(series_seed(96), 12)))
    for m in range(1, 41):
        for d in (0, 1, 4):
            lines.append(_report_line(*series_square(series_seed(m * m), d)))
    lines.append(_report_line(*series_square(series_seed(324), 15)))
    return lines


# the lines above as the series gave them when they took their rivers from
# find_river: the sha256 of all 482, and a sample
_SERIES_DIGEST = \
    "b4a73570a26085a2275f3bbcfe36709274b1c1ee0d48a8124bedce1d208f06e5"
_SERIES_SAMPLE = """\
mt 5 3 0x1.e99fe63e91130p+0 0x1.ecaff47364e2ep+0 32 0x1.ecc2caec5160ap+0
mt 96 12 0x1.25517db5ee646p+2 0x1.256e407c5b956p+2 40960 0x1.256e66a48a3b6p+2
mt 397 3 0x1.fb13fb3aee92cp+4 0x1.02f3520809a59p+5 1120 0x1.04a5f791230c1p+5
sq 1 4 -0x1.68d6e0c19695bp+0 -0x1.62fc0a50a7433p+0 32 -0x1.62e42fefa39efp+0
sq 9 1 0x1.01a742c3747a5p-1 0x1.84aaf9f39638ep-1 2 0x1.9f323ecbf984cp-1
sq 324 15 0x1.190a9d6fa236fp+2 0x1.193e69536c792p+2 98252 0x1.193ea7aad030bp+2
""".splitlines()


def test_series_keep_their_numbers():
    lines = _series_lines()
    assert set(_SERIES_SAMPLE) <= set(lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (482, _SERIES_DIGEST)


def test_square_root_edge_from_blocks():
    # one term; the river of [0, 10^5, 1] has 10^5 unit edges, and its
    # middle edge comes from two blocks
    q = QuadForm(0, 10 ** 5, 1)
    series_square(q, 0)
    best = math.inf
    for _ in range(5):
        t = time.perf_counter()
        r1, _ = series_square(q, 0)
        best = min(best, time.perf_counter() - t)
    assert r1.terms_used == 1
    assert best < 0.05


def test_square_residual_sweep():
    # sq and sq2 at depth 12 for every m <= 40, D = 1 included
    for m in range(1, 41):
        for r in series_square(series_seed(m * m), 12):
            assert abs(r.residual) <= 0.2 * math.sqrt(m) * 0.8 ** 12, (m, r)
