"""Topograph navigation: directed-edge cursors, vertex views, BFS, river and
well location, the integer block walk along root paths and rivers, and
dot/json export.

The tree is never materialized; a cursor is a form plus the turn word that
produced it, and every neighbour is reached by one of the moves of step().
"""

import json
from dataclasses import dataclass
from itertools import repeat

from .exact import DomainError, is_square, isqrt
from .forms import QuadForm


class TurnPath:
    """An immutable sequence of turns stored as runs, each run a node that
    shares the path it extends: `then` is O(1) and never copies the prefix.

    It iterates its turns, has a length, and compares and hashes equal to
    the tuple of its turns, so `TurnPath().then("L", 2) == ("L", "L")`.
    """

    __slots__ = ("prefix", "turn", "count", "_len")

    def __init__(self, prefix=None, turn=None, count=0):
        self.prefix = prefix  # the TurnPath this run extends, or None
        self.turn = turn
        self.count = count
        self._len = count + (prefix._len if prefix is not None else 0)

    @classmethod
    def of(cls, turns):
        path = cls()
        for turn in turns:
            path = path.then(turn)
        return path

    def then(self, turn, count=1):
        """This path followed by `count` copies of `turn`."""
        if count == 0:
            return self
        if turn == self.turn:
            return TurnPath(self.prefix, turn, self.count + count)
        return TurnPath(self, turn, count)

    def __len__(self):
        return self._len

    def __iter__(self):
        runs = []
        node = self
        while node is not None:
            runs.append(node)
            node = node.prefix
        for run in reversed(runs):
            yield from repeat(run.turn, run.count)

    def __eq__(self, other):
        if not isinstance(other, (TurnPath, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            x == y for x, y in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"TurnPath({tuple(self)!r})"


@dataclass(frozen=True)
class EdgeCursor:
    """A directed edge carrying `form`; `path` records the turns from the
    declared root (provenance only, it never affects navigation).  step()
    makes it a TurnPath; a plain tuple of turns is accepted as a start."""

    form: QuadForm
    path: TurnPath = TurnPath()


@dataclass(frozen=True)
class VertexView:
    regions: tuple  # (r, s, t)
    out_labels: tuple  # (e, f, g) directed out of the vertex


@dataclass(frozen=True)
class RiverDescriptor:
    kind: str  # "periodic" or "finite"
    edges: tuple  # EdgeCursor sequence: one period, or lake to lake
    word: tuple  # the L/R letters taken along edges


@dataclass(frozen=True)
class WellDescriptor:
    kind: str  # "vertex_well" or "edge_well"
    at: EdgeCursor
    labels: tuple


_STEPS = {
    "L": lambda a, b, c: (a, b + 2 * a, a + b + c),
    "R": lambda a, b, c: (a + b + c, b + 2 * c, c),
    "Li": lambda a, b, c: (a, b - 2 * a, a - b + c),
    "Ri": lambda a, b, c: (a - b + c, b - 2 * c, c),
    "S": lambda a, b, c: (c, -b, a),
}


def step(cur, turn):
    try:
        f = _STEPS[turn]
    except KeyError:
        raise DomainError(f"unknown turn {turn!r}") from None
    path = cur.path
    if not isinstance(path, TurnPath):
        path = TurnPath.of(path)
    return EdgeCursor(QuadForm(*f(*cur.form)), path.then(turn))


def head_view(cur):
    """The vertex the cursor points at."""
    a, b, c = cur.form
    return VertexView((a, c, a + b + c), (-b, b + 2 * a, b + 2 * c))


def tail_view(cur):
    """The vertex the cursor points away from."""
    a, b, c = cur.form
    return VertexView((a, c, a - b + c), (b, 2 * a - b, 2 * c - b))


def _root_frontier(root):
    # the three edges leaving the tail vertex of the root cursor
    back = step(root, "S")
    return [root, step(back, "L"), step(back, "R")]


def bfs_vertices(root, max_depth):
    """Every vertex within max_depth edges of the root cursor's tail vertex,
    exactly once, in deterministic (depth, then L-before-R) order."""
    if max_depth < 0:
        raise DomainError("negative depth")
    yield tail_view(root)
    frontier = _root_frontier(root)
    for _ in range(max_depth):
        nxt = []
        for cur in frontier:
            yield head_view(cur)
            nxt.append(step(cur, "L"))
            nxt.append(step(cur, "R"))
        frontier = nxt


def find_well(q):
    """Descend a definite topograph to its unique well.

    Each move goes to a strictly smaller neighbouring region (the climbing
    lemma guarantees termination); the well is the edge [a,0,c] or the
    vertex whose three outgoing labels are all positive.
    """
    if q.discriminant() >= 0:
        raise DomainError("find_well needs negative discriminant")
    if q.a < 0 or q.c < 0:
        raise DomainError("negative definite; negate the form first")
    cur = EdgeCursor(q)
    while True:
        a, b, c = cur.form
        if b == 0:
            return WellDescriptor("edge_well", cur, (a, c))
        if b < 0:
            cur = step(cur, "S")  # reorient so the positive label points out
            continue
        # tail out-labels are (b, 2a-b, 2c-b); all positive means well,
        # a zero label is an edge well, and crossing a negative label
        # replaces the opposite region r by r + 2*label (strictly smaller)
        back = step(cur, "S")
        if 2 * a - b == 0:
            at = step(back, "R")
            return WellDescriptor("edge_well", at, (at.form.a, at.form.c))
        if 2 * c - b == 0:
            at = step(back, "L")
            return WellDescriptor("edge_well", at, (at.form.a, at.form.c))
        if 2 * a - b > 0 and 2 * c - b > 0:
            return WellDescriptor("vertex_well", cur, (b, 2 * a - b, 2 * c - b))
        cur = step(back, "R") if 2 * a - b < 0 else step(back, "L")


# ------------------------------------------------------------- block walk
#
# For non-square D > 0 a whole partial quotient is one step: L^k = (1 k; 0 1)
# and R^k = (1 0; k 1) move a form by
#     [a, b, c] | L^k = [a, b + 2ka, a k^2 + b k + c]
#     [a, b, c] | R^k = [a + b k + c k^2, b + 2kc, c]
# and every k is an exact integer floor of a root (b' +- sqrt(D)) / (2a')
# computed with s = isqrt(D) once.

def _floor_root(p, sign, r, s):
    # floor((p + sign * sqrt(D)) / r) for non-square D with s = isqrt(D)
    if r < 0:
        p, sign, r = -p, -sign, -r
    return (p + s) // r if sign > 0 else (p - s - 1) // r


def block_step(form, letter, k):
    """form | L^k or form | R^k, for any integer k."""
    a, b, c = form
    if letter == "L":
        return QuadForm(a, b + 2 * k * a, (a * k + b) * k + c)
    return QuadForm((c * k + b) * k + a, b + 2 * k * c, c)


def _needs_real(D):
    if D <= 0 or is_square(D):
        raise DomainError("the block walk needs non-square D > 0")


@dataclass(frozen=True)
class RootPath:
    """The first root's continued fraction from a form to its river, in
    whole blocks: `word` holds the nonzero (letter, k) blocks up to the first
    block that ends on a simple form (a > 0 > c), `form` is that form, and
    `overshoot` counts the unit turns of the last block taken after the walk
    first met a simple form."""

    word: tuple
    form: QuadForm
    overshoot: int


def root_path(q):
    """Walk q's first root zeta = (-b + sqrt D)/(2a) to the river: L blocks
    of floor(zeta), R blocks of floor(1/zeta), alternately, as in its
    continued fraction.  The number of blocks is bounded by a multiple of
    the coefficients' bit length."""
    D = q.discriminant()
    _needs_real(D)
    s = isqrt(D)
    a, b, c = q
    cap = 10 * (abs(a) + abs(b) + abs(c)).bit_length() + 64
    word = []
    letter = "L"
    overshoot = 0
    for _ in range(cap):
        if a > 0 > c:
            return RootPath(tuple(word), QuadForm(a, b, c), overshoot)
        # L takes floor(zeta) turns and R floor(1/zeta), where
        # 1/zeta = (-b - sqrt D)/(2c)
        sign, r = (1, 2 * a) if letter == "L" else (-1, 2 * c)
        k = _floor_root(-b, sign, r, s)
        if k:
            word.append((letter, k))
            na, nb, nc = block_step((a, b, c), letter, k)
            if k > 0 and na > 0 > nc:
                # turn j of the block lands on a simple form exactly when j
                # lies between the two roots of the form's values there
                first = max(1, _floor_root(-b, -sign, r, s) + 1)
                overshoot = k - first
            a, b, c = na, nb, nc
        letter = "R" if letter == "L" else "L"
    raise AssertionError("root path failed to reach the river")


@dataclass(frozen=True)
class RiverBlocks:
    """One river period from a simple form as a run-length word: block i is
    (letter, k), with matrix L^k = (1 k; 0 1) or R^k = (1 0; k 1), and
    starts at the simple form forms[i]; forms[0] is the starting form and
    the product of the blocks fixes it."""

    word: tuple
    forms: tuple


def river_blocks(q0):
    """One period of the river through the simple form q0 (a > 0 > c),
    a whole run of equal turns per step.  From [a, b, c] the river turns L
    floor((-b + sqrt D)/(2a)) times, or R floor((b + sqrt D)/(-2c)) times;
    the period ends where a block passes q0 again, possibly mid-block."""
    D = q0.discriminant()
    _needs_real(D)
    a0, b0, c0 = q0
    if not a0 > 0 > c0:
        raise DomainError("the river walk starts at a simple form a > 0 > c")
    s = isqrt(D)
    word = []
    forms = []
    cur = q0
    letter = "L" if a0 + b0 + c0 < 0 else "R"
    while True:
        a, b, c = cur
        forms.append(cur)
        # an L block keeps a and adds 2a to b at each turn, an R block keeps
        # c and adds 2c; it passes q0 when q0 lies on that line
        if letter == "L":
            k = (s - b) // (2 * a)
            on_line, inc = a == a0, 2 * a
        else:
            k = (s + b) // (-2 * c)
            on_line, inc = c == c0, 2 * c
        if on_line:
            back, off = divmod(b0 - b, inc)
            if off == 0 and 0 < back <= k:
                word.append((letter, back))
                return RiverBlocks(tuple(word), tuple(forms))
        word.append((letter, k))
        cur = block_step(cur, letter, k)
        letter = "R" if letter == "L" else "L"


def find_river(q):
    """Locate the river: one full period for non-square D>0, or the whole
    lake-to-lake stretch for square D."""
    D = q.discriminant()
    if D <= 0:
        raise DomainError("find_river needs positive discriminant")
    if is_square(D):
        return _find_river_square(q)
    # the period starts at the first simple form on the first root's path
    root = root_path(q)
    path = TurnPath()
    for letter, k in root.word:
        path = path.then(letter if k > 0 else letter + "i", abs(k))
    anchor = root.form
    if root.overshoot:
        letter, _ = root.word[-1]
        anchor = block_step(anchor, letter, -root.overshoot)
        path = TurnPath(path.prefix, path.turn, path.count - root.overshoot)
    edges = []
    word = []
    period = river_blocks(anchor)
    for (letter, k), (a, b, c) in zip(period.word, period.forms):
        for j in range(k):
            edges.append(EdgeCursor(QuadForm(a, b, c), path.then(letter, j)))
            if letter == "L":
                a, b, c = a, b + 2 * a, a + b + c
            else:
                a, b, c = a + b + c, b + 2 * c, c
        word.extend(repeat(letter, k))
        path = path.then(letter, k)
    return RiverDescriptor("periodic", tuple(edges), tuple(word))


def _find_river_square(q):
    from .contfrac import normalize_parity, real_cf
    from .exact import Rat, isqrt
    from .reduce import reduce_square

    D = q.discriminant()
    m = isqrt(D)
    res = reduce_square(q)
    r = res.canonical.c
    start = EdgeCursor(QuadForm(r, -m, 0))  # on the left lake, zeta = m/r
    cf = normalize_parity(real_cf(Rat(m, r)), want_odd_index=True)
    letters = []
    for i, a in enumerate(cf.terms):
        letters.extend(["L" if i % 2 == 0 else "R"] * a)
    visited = [start]
    cur = start
    for t in letters:
        cur = step(cur, t)
        visited.append(cur)
    # first and last edges sit on the lakes; the rest is the river
    return RiverDescriptor("finite", tuple(visited[1:-1]),
                           tuple(letters[1:-1]))


def export(root, max_depth, fmt):
    """Serialize the BFS ball around the root as dot or json."""
    if fmt not in ("dot", "json"):
        raise DomainError(f"unknown format {fmt!r}")
    if max_depth < 0:
        raise DomainError("negative depth")
    if not any(root.form):
        raise DomainError("the zero form has no topograph")
    D = root.form.discriminant()
    records = []  # (id, regions, out_labels, parent, turn, edge_form)
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
