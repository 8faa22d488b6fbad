"""Topograph navigation: directed-edge cursors, vertex views, the level
kernel with BFS and dot/json export as views over it, and the integer block
walk that reduces forms of every discriminant and locates wells and rivers.

The tree is never materialized: a cursor is a form plus the turn word that
produced it, and the level kernel holds one level at a time.  A river is
walked once, as a `RiverWalk` of whole blocks with their first forms:
`river_walk` takes a form onto its river and once around it,
`square_river_blocks` from lake to lake.  Readers take that walk, or
`find_river`'s lazy read-only views `edges` and `word` over its blocks,
which count their items in `turns`; `period_blocks` joins its whole runs.
"""

import operator
import sys
from bisect import bisect_right
from collections.abc import Sequence
from functools import partial
from itertools import chain, cycle, groupby, repeat
from typing import NamedTuple

from .exact import DomainError, is_square, isqrt
from .forms import QuadForm, _run_product


class TurnPath:
    """An immutable sequence of turns stored as runs, each run a node that
    shares the path it extends: `then` is O(1) and never copies the prefix.

    It iterates its turns and has a length; it compares and hashes by its
    maximal runs, in time linear in their number, so that
    `TurnPath().then("L", 2) == TurnPath.of("LL")`, and `tuple(path)`
    gives its turns.
    """

    __slots__ = ("prefix", "turn", "count", "_len")

    def __init__(self, prefix=None, turn=None, count=0):
        self.prefix = prefix  # the TurnPath this run extends, or None
        self.turn = turn
        self.count = count
        self._len = count + (prefix._len if prefix is not None else 0)

    @staticmethod
    def of(turns):
        return turn_path((turn, 1) for turn in turns)

    def then(self, turn, count=1):
        """This path followed by `count` copies of `turn`."""
        if count == 0:
            return self
        if turn == self.turn:
            return TurnPath(self.prefix, turn, self.count + count)
        return TurnPath(self, turn, count)

    def __len__(self):
        return self._len

    def runs(self):
        """The path as maximal (turn, count) runs, first to last: a node
        built directly on a run of the same turn is merged into it."""
        runs = []
        node = self
        while node is not None:
            if runs and runs[-1][0] == node.turn:
                runs[-1] = (node.turn, runs[-1][1] + node.count)
            elif node.count:
                runs.append((node.turn, node.count))
            node = node.prefix
        runs.reverse()
        return runs

    def __iter__(self):
        for turn, count in self.runs():
            yield from repeat(turn, count)

    def __eq__(self, other):
        # by _len, which len() cannot return past 2^63 - 1
        if isinstance(other, TurnPath):
            return self._len == other._len and self.runs() == other.runs()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.runs()))

    def __repr__(self):
        return f"TurnPath({tuple(self.runs())!r})"

    def __reduce__(self):
        # copied and pickled by runs: the default recurses once per node
        return turn_path, (self.runs(),)


class EdgeCursor(NamedTuple):
    """A directed edge carrying `form`; `path` records the turns from the
    declared root (provenance only, it never affects navigation).  step()
    makes it a TurnPath; a plain tuple of turns is accepted as a start, but
    a cursor holding one equals no cursor holding a TurnPath."""

    form: QuadForm
    path: TurnPath = TurnPath()


class VertexView(NamedTuple):
    regions: tuple  # (r, s, t)
    out_labels: tuple  # (e, f, g) directed out of the vertex


_vertex_view = partial(tuple.__new__, VertexView)  # skips __new__'s call


class RiverDescriptor(NamedTuple):
    """A river: one period for non-square D > 0 ("periodic"), or the stretch
    from lake to lake for square D ("finite").  `edges` (EdgeCursor) and
    `word` (the L/R letter taken along each edge) are read-only sequence
    views over the river's run-length blocks: building one is O(blocks),
    an index is O(log blocks), a search O(blocks) at most, and two views
    compare and hash by their blocks.  `turns` counts the items past
    len()'s 2^63 - 1."""

    kind: str
    edges: "RiverEdges"
    word: "RiverWord"


class WellDescriptor(NamedTuple):
    kind: str  # "vertex_well" or "edge_well"
    at: EdgeCursor
    labels: tuple


def step(cur, turn):
    """The cursor moved by one turn: L, R, their inverses Li, Ri, or S."""
    if turn not in ("L", "R", "Li", "Ri", "S"):
        raise DomainError(f"unknown turn {turn!r}")
    a, b, c = cur.form
    form = (c, -b, a) if turn == "S" else _block(a, b, c, turn[0],
                                                  -1 if turn[1:] else 1)
    path = cur.path
    if not isinstance(path, TurnPath):
        path = TurnPath.of(path)
    return EdgeCursor(QuadForm(*form), path.then(turn))


def head_view(cur):
    """The vertex the cursor points at."""
    a, b, c = cur.form
    return _vertex_view(((a, c, a + b + c), (-b, b + 2 * a, b + 2 * c)))


def tail_view(cur):
    """The vertex the cursor points away from."""
    a, b, c = cur.form
    return _vertex_view(((a, c, a - b + c), (b, 2 * a - b, 2 * c - b)))


# ------------------------------------------------------------ level kernel

_LABEL_MAX = 1 << 58  # labels below this keep every sum of a term in int64


def _labels(*cols):
    """Columns of integer labels as int64 arrays, or as object arrays of
    Python ints when some label reaches _LABEL_MAX."""
    import numpy as np
    wide = any(abs(v) >= _LABEL_MAX for col in cols for v in col)
    return [np.array(col, dtype=object if wide else np.int64) for col in cols]


def _interleave(x, y):
    import numpy as np
    out = np.empty(2 * len(x), dtype=x.dtype)
    out[0::2] = x
    out[1::2] = y
    return out


def _levels(a, b, c):
    """The levels below the edges (a, b, c), lists of ints or label arrays:
    each parent's L child (a, b+2a, a+b+c) just before its R child
    (a+b+c, b+2c, c), so each edge's subtree is a run of every level."""
    import numpy as np
    if not isinstance(a, np.ndarray):
        a, b, c = _labels(a, b, c)
    while True:
        yield a, b, c
        # below 3 * 2^58 in magnitude from int64 parents: no wraparound
        h = a + b + c
        bl = b + 2 * a
        br = b + 2 * c
        if a.dtype != object and max(max(x.max(initial=0), -x.min(initial=0))
                                     for x in (h, bl, br)) >= _LABEL_MAX:
            a, b, c, h, bl, br = (x.astype(object)
                                  for x in (a, b, c, h, bl, br))
        a, b, c = _interleave(a, h), _interleave(bl, br), _interleave(h, c)


def ball_levels(root):
    """The ball around the root cursor's tail vertex, level by level, as
    the edges whose heads are its vertices: level 0 is the edge (a, -b, c),
    whose head is that vertex; level 1 the three edges out of it, the root
    and the L and R turns of its reverse; then _levels below them, so edge
    i of level l >= 2 is child "LR"[i % 2] of edge i // 2 of level l - 1."""
    a, b, c = root.form
    t = a - b + c
    yield _labels([a], [-b], [c])
    yield from _levels([a, c, t], [b, -b + 2 * c, -b + 2 * a], [c, t, a])


def _batches(levels, depth, size, trees=False, first=0, start=0):
    """Levels `first` to `depth` of the forest the iterator `levels` yields,
    in batches (g, a, b, c) of at most `size` edges, g each edge's level or,
    with `trees` (a forest of _levels), its root's index in level 0.  The
    shallow levels come whole in one batch; a level that does not fit, in
    slices of `size` edges, each walked the same way below it, depth-first.
    No batch mixes int64 labels and Python ints."""
    import numpy as np
    runs = []
    for level, (a, b, c) in zip(range(first, depth + 1), levels):
        if (sum(len(r[1]) for r in runs) + len(a) > size
                or runs and a.dtype != runs[0][1].dtype):
            break
        i = start << level - first  # the index of the run's first edge
        runs.append((np.arange(i, i + len(a)) >> level if trees
                     else np.full(len(a), level), a, b, c))
    if runs:
        yield tuple(map(np.concatenate, zip(*runs)))
    if first + len(runs) > depth:
        return
    for i in range(0, len(a), size):
        yield from _batches(_levels(a[i:i + size], b[i:i + size],
                                    c[i:i + size]), depth, size, trees,
                            level, (start << level - first) + i)


def _ball(root, max_depth):
    # every edge of the ball to max_depth, level by level: its form and its
    # head vertex's regions and out labels, as Python ints
    if max_depth < 0:
        raise DomainError("negative depth")
    for _, (a, b, c) in zip(range(max_depth + 1), ball_levels(root)):
        for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()):
            yield (x, y, z), (x, z, x + y + z), (-y, y + 2 * x, y + 2 * z)


def bfs_vertices(root, max_depth):
    """Every vertex within max_depth edges of the root cursor's tail vertex,
    exactly once, in deterministic (depth, then L-before-R) order."""
    for _, regions, out_labels in _ball(root, max_depth):
        yield _vertex_view((regions, out_labels))


# ------------------------------------------------------------- block walk
#
# A whole partial quotient is one step: L^k = (1 k; 0 1) and R^k = (1 0; k 1)
# move a form by
#     [a, b, c] | L^k = [a, b + 2ka, a k^2 + b k + c]
#     [a, b, c] | R^k = [a + b k + c k^2, b + 2kc, c]
# The walk follows the first root zeta = (-b + sqrt D)/(2a): an L block of k
# turns leaves zeta - k, an R block 1/zeta - k, 1/zeta = (-b - sqrt D)/(2c).
# k is an exact integer floor fixed by D, and each regime stops at its own
# integer test: F' for D < 0, a lake for square D, a simple form (and then
# the period's end) for non-square D > 0.  Far above |D| the blocks are
# fixed by the coefficients' leading bits, and the walk takes them in
# batches (Lehmer's step: D. H. Lehmer, "Euclid's algorithm for large
# numbers", Amer. Math. Monthly 45, 1938), one matrix product per batch.

_quad_form = partial(tuple.__new__, QuadForm)  # for triples of ints


def is_reduced_neg(q):
    a, b, c = q
    return abs(b) <= a <= c and not ((abs(b) == a or a == c) and b < 0)


def floor_root(p, r, s):
    """floor((p + sqrt(D)) / r) for non-square D with s = isqrt(D)."""
    return (p + s) // r if r > 0 else (-p - s - 1) // -r


def _block(a, b, c, letter, k):
    if letter == "L":
        return a, b + 2 * k * a, (a * k + b) * k + c
    return (c * k + b) * k + a, b + 2 * k * c, c


def block_step(form, letter, k):
    """form | L^k or form | R^k, for any integer k."""
    return QuadForm(*_block(*form, letter, k))


_WINDOW = 176  # the leading bits of (a, b, c) a batch reads


def _real_quotients(P, B, Q):
    # For real roots, each block's k is the next partial quotient of the
    # first root: an R block is an L block of the reversed form, so the
    # walk from the form whose pivot (a before L, c before R) has leading
    # bits P, and b has B, in units u > sqrt(D), expands (-b +- sqrt D)/2P
    # as regular continued fractions.  Both roots lie in [p/q, r/s]; the
    # quotients both ends share are every point's, both roots' too, so no
    # block of them ends on a simple form; and one that leaves either end
    # with remainder 0 is not taken, so none ends on a lake.
    if P > 0:
        n0, n1, d0, d1 = -B - 2, -B + 1, 2 * P, 2 * P + 2
    elif P < -1:
        n0, n1, d0, d1 = B - 1, B + 2, -2 * P - 2, -2 * P
    else:
        return []
    p, q = n0, d1 if n0 >= 0 else d0
    r, s = n1, d0 if n1 >= 0 else d1
    ks = []
    while True:  # ends where the two ends' expansions part or end
        k = p // q
        t = r - k * s  # r/s has floor k and a remainder when 0 < t < s
        if not 0 < t < s:
            break
        p, q = q, p - k * q
        if not q:
            break
        r, s = s, t
        ks.append(k)
    return ks


def _definite_quotients(P, B, Q):
    # For D < 0, the blocks from the positive definite form whose pivot,
    # b and other coefficient have leading bits P, B and Q, in units
    # u > |D|, each an L block of (P, B, Q) as above.  The true values lie
    # within x^2, 2xy and y^2 of P, B and Q, where x and y are the column
    # sums of |entries| of the batch's matrix for the pivot and for Q.  A
    # block is taken when its k is floor(-b/2P) for every b and P in those
    # boxes, and its end form has both Q and P at least u, so that no stop
    # meets it.
    x = y = 1
    ks = []
    # x and y grow with every block but a zero block, and a form with a
    # and c above |D| never takes two zero blocks in a row
    while True:
        xx = x * x
        if P <= xx:
            break
        k = -B // (2 * P)
        j = abs(k)
        t = -B - 2 * k * P  # -b after the block
        w = 2 * (x * y + j * xx)
        if t < w or 2 * (P - xx) - t <= w:
            break
        y += j * x
        Q += (P * k + B) * k
        if Q <= y * y:
            break
        B = -t
        ks.append(k)
        P, Q = Q, P
        x, y = y, x
    return ks


def _batch(a, b, c, letter, shift, quotients):
    """Lehmer's step: the walk's next blocks from the leading bits of
    (a, b, c), and the form they end on.  The quotients come from small
    ints, u = 2^shift > |D|: for real roots, those both ends of an interval
    around the roots share; for D < 0, those every form within the error
    bounds of the leading bits shares.  The blocks multiply to one matrix,
    applied to (a, b, c) once."""
    P, B, Q = (a, b, c) if letter == "L" else (c, b, a)
    ks = quotients(P >> shift, B >> shift, Q >> shift)
    if not ks:
        return [], None
    word = list(zip(cycle((letter, "R" if letter == "L" else "L")), ks))
    al, be, ga, de = _run_product(word)
    # [a, b, c] | (al be; ga de), with al de - be ga = 1 giving b's terms
    u = a * al + b * ga
    return word, (al * u + c * (ga * ga), 2 * be * u + b + c * (2 * ga * de),
                  be * (a * be + b * de) + c * (de * de))


def walk(form, letter, stop, cap=None):
    """Alternate L and R blocks from `form`, the first one `letter`.  An L
    block takes k = floor(zeta) turns and an R block k = floor(1/zeta): of
    the real part for D < 0; exact for square D, where a lake (a or c zero)
    leaves the finite root -c/b or its inverse -a/b; through s = isqrt(D)
    for non-square D > 0.  The walk ends after the first block whose form
    meets stop(a, b, c, letter, k), which returns None to go on, or the
    turns j that block takes beyond k (j < 0 takes turns back).  Returns
    the blocks (letter, k), zero blocks included, and the end form.  Past
    `cap` blocks it raises AssertionError: a batch's blocks count, and one
    passes the cap only on the way there, as it never takes the last block.

    While the largest coefficient has at least _WINDOW + bits(|D|) bits,
    the walk reads its next blocks off the coefficients' leading bits in
    batches (`_batch`), and stop is not called on the forms they end on: for
    D < 0, forms with a and c above |D|, for real roots, forms with both
    roots finite, nonzero and of one sign (ac > 0).  No stop may meet such
    a form: it is never reduced, nor its S image, a lake, simple, or on a
    period.  A block the batch cannot prove is taken alone, with stop, and
    so is every block below the gate."""
    a, b, c = form
    bb = b * b
    D = bb - 4 * a * c
    s = isqrt(max(D, 0))
    irrational = s * s != D
    # past the gate, b^2 = D + 4ac >= 2^_WINDOW, or ac = 0: a lake, whose
    # big coefficient the walk leaves within two blocks
    big = bb >> _WINDOW
    word = []
    while cap is None or len(word) < cap:
        if big:
            top = max(a.bit_length(), b.bit_length(), c.bit_length())
            big = top >= _WINDOW + abs(D).bit_length()
            if big:  # Lehmer's step
                batch, end = _batch(
                    a, b, c, letter, top - _WINDOW,
                    _definite_quotients if D < 0 else _real_quotients)
                if batch:
                    word += batch
                    a, b, c = end
                    letter = "R" if batch[-1][0] == "L" else "L"
                    continue
        # zeta or 1/zeta is (p + sqrt D)/r
        p, r = (-b, 2 * a) if letter == "L" else (b, -2 * c)
        if D < 0:
            k = p // r
        elif r > 0:
            k = (p + s) // r
        elif r:  # floor((-p - sqrt D)/-r), one less when sqrt D is irrational
            k = (-p - s - irrational) // -r
        else:
            k = -(c if letter == "L" else a) // b
        if letter == "L":  # _block, inline on the hot path
            b, c = b + 2 * k * a, (a * k + b) * k + c
        else:
            a, b = (c * k + b) * k + a, b + 2 * k * c
        j = stop(a, b, c, letter, k)
        if j:
            a, b, c = _block(a, b, c, letter, j)
            k += j
        word.append((letter, k))
        if j is not None:
            return word, (a, b, c)
        letter = "R" if letter == "L" else "L"
    raise AssertionError("block walk failed to stop within its cap")


def turn_path(word):
    """The turns of a block word as a TurnPath: (L, k) is k turns L, or |k|
    turns Li for k < 0, and likewise for R; (S, 1) is S."""
    path = TurnPath()
    for letter, k in word:
        path = path.then(letter if k > 0 else letter + "i", abs(k))
    return path


def _enters_fprime(a, b, c, letter, k):
    # the term is the floor m of the real part, or m + 1, whichever leaves
    # the tail in F' = F u SF u -F u -SF: the form or its S image is reduced
    for j in (0, 1):
        a1, b1, c1 = _block(a, b, c, letter, j)
        if is_reduced_neg((a1, b1, c1)) or is_reduced_neg((c1, -b1, a1)):
            return j
    return None


def definite_blocks(form, letter="L"):
    """The general continued fraction of a positive definite form's first
    root, the first block `letter`, and the end form: its first root is the
    tail in F' after an L block and the tail's inverse after an R block, and
    it or its S image is reduced."""
    a, b, c = form
    return walk(form, letter, _enters_fprime, 10 * (a + c).bit_length() + 64)


def find_well(q):
    """The well of a definite topograph, at the form g the walk into F' ends
    on: the edge g = [a,0,c], or else the tail of whichever of g and g|S has
    b > 0, where the three outgoing labels (b, 2a - b, 2c - b) are positive.
    The number of blocks walked is bounded by the coefficients' bit length."""
    if q.discriminant() >= 0:
        raise DomainError("find_well needs negative discriminant")
    if q.a < 0 or q.c < 0:
        raise DomainError("negative definite; negate the form first")
    word, (a, b, c) = definite_blocks(q)
    path = turn_path(word)
    if b < 0:  # reorient so the positive label points out
        a, b, c, path = c, -b, a, path.then("S")
    at = EdgeCursor(QuadForm(a, b, c), path)
    if b == 0:
        return WellDescriptor("edge_well", at, (a, c))
    return WellDescriptor("vertex_well", at, (b, 2 * a - b, 2 * c - b))


class RiverWalk(NamedTuple):
    """A river as blocks (letter, k), block i of `word` starting at
    forms[i]: from lake to lake for square D; for non-square D > 0 the
    period from the entry forms[0], the first simple form (a > 0 > c) a
    block ends on, which the period fixes, after the blocks of `root`.
    It is the one river object, which every river reader takes as walked."""

    root: tuple
    word: tuple
    forms: tuple


def _to_lake(form, m):
    # one leg for D = m^2, the rational first root's continued fraction, as
    # its blocks, the first forms (int triples) of the blocks stop sees, and
    # the end form; stop sees every block of a river, whose forms all lie
    # below walk's gate
    forms = [form]

    def lake(a, b, c, letter, k):
        # zeta - k = 0 leaves [a, m, 0] after an L block, and 1/zeta - k = 0
        # the lake [0, -m, c] after an R block; an L end takes the parity
        # rule <..., a_n> = <..., a_n - 1, 1>: one turn back, then R once
        if b == m and c == 0 if letter == "L" else b == -m and a == 0:
            return -1 if letter == "L" else 0
        forms.append((a, b, c))
        return None

    word, end = walk(form, "L", lake)
    if word[-1][0] == "L":
        forms.append(end)
        word.append(("R", 1))
        end = _block(*end, "R", 1)
    return word, forms, end


def square_reduction(q):
    """The blocks from a form of square D = m^2 > 0 to the reduced form
    [0, m, c], 0 < c <= m, of its class, and that form: the first root's leg
    to the right lake (none when that root is infinite), then the second
    root's leg, the first root's of the negated form, to the left lake.  If
    that leg's matrix is (alpha beta; gamma delta), it ends on c = delta m /
    gamma, and its last block R^k, k > 0, gives 0 < delta <= gamma."""
    D = q.discriminant()
    m = isqrt(max(D, 0))
    if D <= 0 or m * m != D:
        raise DomainError("the square walk needs square D > 0")
    a, b, c = q
    word = []
    if a or b > 0:
        word, _, (a, b, c) = _to_lake((a, b, c), m)
    back, _, (a, b, c) = _to_lake((-a, -b, -c), m)
    return word + back, QuadForm(-a, -b, -c)


def square_river_blocks(q0):
    """The river of the reduced square-D form q0 = [0, m, r], the leg of
    m/r from the lake edge [r, -m, 0] = q0|S, as a `RiverWalk` with no
    root; its first and last unit turns cross from and onto the lakes."""
    _, m, r = q0
    word, forms, _ = _to_lake((r, -m, 0), m)
    return RiverWalk((), tuple(word), tuple(map(_quad_form, forms)))


def river_walk(q):
    """Walk q's first root zeta = (-b + sqrt D)/(2a) onto its river and
    once around it, for non-square D > 0: L blocks of floor(zeta), R blocks
    of floor(1/zeta), alternately, as in its continued fraction.  On the
    river these are its runs of equal turns: from [a, b, c] it turns L
    floor((-b + sqrt D)/(2a)) times, or R floor((b + sqrt D)/(-2c)) times.
    The period ends where a block passes the entry again, possibly
    mid-block.  A simple q is its own entry.  The root takes a number of
    blocks bounded by a multiple of the coefficients' bit length."""
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("the block walk needs non-square D > 0")
    forms = []  # the river blocks' first forms, from the entry on
    a0 = b0 = c0 = None  # the entry

    def passes_entry(a, b, c, letter, k):
        nonlocal a0, b0, c0
        if a0 is None:  # on the root path
            if a > 0 > c:
                a0, b0, c0 = a, b, c
                forms.append(_quad_form((a, b, c)))
            return None
        # an L block keeps a and adds 2a to b at each turn, an R block keeps
        # c and adds 2c; it passes the entry when the entry lies on that line
        # within it, and otherwise the next block starts at [a, b, c]
        if letter == "L":
            on_line, inc = a == a0, 2 * a
        else:
            on_line, inc = c == c0, 2 * c
        if on_line:
            back, off = divmod(b0 - b, inc)
            if off == 0 and -k < back <= 0:
                return back
        forms.append(_quad_form((a, b, c)))
        return None

    a, b, c = q
    # a simple q starts with the letter it does not turn: a zero block
    word, _ = walk(q, "R" if a > 0 > c and a + b + c < 0 else "L",
                   passes_entry)
    n = len(word) - len(forms)
    return RiverWalk(tuple([x for x in word[:n] if x[1]]), tuple(word[n:]),
                     tuple(forms))


def period_blocks(q):
    """The river period of q's class, for non-square D > 0, as its whole
    blocks (letter, k, form): runs of k equal turns from the simple form
    `form`, in river order, each turning the other way before and after
    it.  Where `river_walk`'s period wraps inside a run, the two parts are
    joined."""
    _, word, forms = river_walk(q)
    blocks = [(letter, k, f) for (letter, k), f in zip(word, forms)]
    if blocks[0][0] == blocks[-1][0]:
        letter, k, f = blocks.pop()
        blocks[0] = (letter, k + blocks[0][1], f)
    return blocks


class _RiverRuns(NamedTuple):
    # a river's blocks of k > 0 turns: block i takes letters[i] for turns
    # offsets[i] .. offsets[i + 1] - 1 of the river, from forms[i], and
    # paths[i] is the path to its first edge
    letters: list
    offsets: list
    forms: list
    paths: list

    def __reduce__(self):
        # rebuilt from the blocks: the paths share their prefixes, which a
        # pickle of each path by runs would copy once per block
        letters, offsets, forms, paths = self
        word = zip(letters, map(operator.sub, offsets[1:], offsets))
        return _river_runs, (list(word), forms, paths[0])


def _river_runs(word, forms, path):
    letters, offsets, kept, paths = [], [0], [], []
    for (letter, k), form in zip(word, forms):
        if k:
            letters.append(letter)
            offsets.append(offsets[-1] + k)
            kept.append(form)
            paths.append(path)
            path = path.then(letter, k)
    return _RiverRuns(letters, offsets, kept, paths)


class _RiverView(Sequence):
    # turns lo .. lo + len - 1 of a river's runs, read without copying;
    # _item(i, j) is the item of turn j of block i; _find(x, lo, hi) yields
    # (t0, t1) in order where turns t0 .. t1 - 1, in lo .. hi - 1, equal x
    __slots__ = ("_runs", "_lo", "_len")

    def __init__(self, runs, lo=0, hi=None):
        self._runs = runs
        self._lo = lo
        self._len = max((runs.offsets[-1] if hi is None else hi) - lo, 0)

    def __len__(self):
        return self._len

    def __bool__(self):
        return self._len > 0

    @property
    def turns(self):
        """The number of items, a Python int: len() cannot pass 2^63 - 1."""
        return self._len

    def _spans(self):
        # (i, j0, j1): turns j0 .. j1 - 1 of block i lie in the view
        if not self._len:
            return
        offsets = self._runs.offsets
        lo = self._lo
        hi = lo + self._len
        i = bisect_right(offsets, lo) - 1
        while offsets[i] < hi:
            start = offsets[i]
            yield i, max(lo - start, 0), min(hi, offsets[i + 1]) - start
            i += 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, stride = index.indices(self._len)
            if stride == 1:
                lo = self._lo
                return tuple(type(self)(self._runs, lo + start,
                                        lo + max(start, stop)))
            return tuple(self[i] for i in range(start, stop, stride))
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("river index out of range")
        offsets = self._runs.offsets
        t = self._lo + i
        block = bisect_right(offsets, t) - 1
        return self._item(block, t - offsets[block])

    def _letter_runs(self):
        # the letters taken from every item but the last, as maximal runs
        letters = self._runs.letters
        spans = _RiverView(self._runs, self._lo,
                           self._lo + self._len - 1)._spans()
        return tuple((letter, sum(j1 - j0 for _, j0, j1 in group))
                     for letter, group in groupby(spans,
                                                  lambda s: letters[s[0]]))

    def _key(self):
        # a view's items follow from its first item and the letters taken
        # from them (a form and its path step by the letter), so two views
        # compare and hash in O(blocks), past len()'s range too
        if not self._len:
            return 0
        return self._len, self[0], self[-1], self._letter_runs()

    def __eq__(self, other):
        if isinstance(other, _RiverView):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reversed__(self):
        for i, j0, j1 in reversed([*self._spans()]):
            for j in range(j1 - 1, j0 - 1, -1):  # past 2^63 too
                yield self._item(i, j)

    def __contains__(self, item):
        return any(self._find(item, self._lo, self._lo + self._len))

    def count(self, item):
        return sum(t1 - t0 for t0, t1 in
                   self._find(item, self._lo, self._lo + self._len))

    def index(self, item, start=0, stop=None):
        # start and stop as a slice takes them, past len()'s range too
        start, stop, _ = slice(start, stop).indices(self._len)
        for t0, _ in self._find(item, self._lo + start, self._lo + stop):
            return t0 - self._lo
        raise ValueError("item not in the river view")

    def __repr__(self):
        return f"<{type(self).__name__} of {self._len} turns>"


class RiverEdges(_RiverView):
    """The edges of a river, as EdgeCursors on the form before each unit
    turn and with the path to it: a read-only sequence view over its
    blocks.  Edge j of a block is the block's first form moved by j turns,
    and its path the block's start path followed by j turns, so an edge
    is found by its path's length, in O(log blocks + runs)."""

    __slots__ = ()

    def _item(self, i, j):
        letters, _, forms, paths = self._runs
        form = _quad_form(_block(*forms[i], letters[i], j))
        return tuple.__new__(EdgeCursor, (form, paths[i].then(letters[i], j)))

    def _find(self, edge, lo, hi):
        if isinstance(edge, EdgeCursor) and isinstance(edge.path, TurnPath):
            t = edge.path._len - self._runs.paths[0]._len
            if lo <= t < hi and self[t - self._lo] == edge:
                yield t, t + 1

    def __iter__(self):
        # one loop per letter, so no edge tests its letter, stepping (a, b, c)
        # inline; the path to edge j of block i is paths[i].then(letter, j)
        new = tuple.__new__
        letters, _, _, paths = self._runs
        for i, j0, j1 in self._spans():
            then = paths[i].then
            (a, b, c), _ = edge = self._item(i, j0)
            yield edge
            if letters[i] == "L":
                for j in range(j0 + 1, j1):
                    b, c = b + 2 * a, a + b + c
                    yield new(EdgeCursor, (new(QuadForm, (a, b, c)),
                                           then("L", j)))
            else:
                for j in range(j0 + 1, j1):
                    a, b = a + b + c, b + 2 * c
                    yield new(EdgeCursor, (new(QuadForm, (a, b, c)),
                                           then("R", j)))


def _repeat(item, k):
    """item k times: repeat() alone takes k below 2^63 only."""
    if k <= sys.maxsize:
        return repeat(item, k)
    return chain.from_iterable(repeat(item, min(k - n, sys.maxsize))
                               for n in range(0, k, sys.maxsize))


class RiverWord(_RiverView):
    """The L/R letters a river takes along its edges: a read-only sequence
    view over its blocks, searched and counted block by block."""

    __slots__ = ()

    def _item(self, i, j):
        return self._runs.letters[i]

    def _find(self, letter, lo, hi):
        letters, offsets = self._runs.letters, self._runs.offsets
        for i, j0, j1 in RiverWord(self._runs, lo, hi)._spans():
            if letters[i] == letter:
                yield offsets[i] + j0, offsets[i] + j1

    def __iter__(self):
        letters = self._runs.letters
        return chain.from_iterable(_repeat(letters[i], j1 - j0)
                                   for i, j0, j1 in self._spans())


def find_river(q):
    """Locate the river, as views over the blocks of its one walk: a period
    of `river_walk(q)` for non-square D>0, or `square_river_blocks` from
    lake to lake for square D.  Every edge's path replays from q, and only
    the river's blocks are built, in O(blocks) time and memory."""
    D = q.discriminant()
    if D <= 0:
        raise DomainError("find_river needs positive discriminant")
    if is_square(D):
        # the edges of the river from the lake edge [0, m, r]|S are the forms
        # after every unit turn but the last, which crosses onto the lake
        steps, q0 = square_reduction(q)
        _, word, forms = square_river_blocks(q0)
        runs = _river_runs(word, forms, turn_path(steps).then("S"))
        return RiverDescriptor("finite", RiverEdges(runs, 1),
                               RiverWord(runs, 1, runs.offsets[-1] - 1))
    # the period from the first simple form on q's first root's path: the
    # entry, or, where the root's last block turned forward with the letter
    # of the period's last block, that block's first form
    root, word, forms = river_walk(q)
    if root and root[-1][1] > 0 and root[-1][0] == word[-1][0]:
        root = root[:-1] + ((root[-1][0], root[-1][1] - word[-1][1]),)
        word, forms = word[-1:] + word[:-1], forms[-1:] + forms[:-1]
    runs = _river_runs(word, forms, turn_path(root))
    return RiverDescriptor("periodic", RiverEdges(runs), RiverWord(runs))


_JSON_VERTEX = """\
    {{
      "id": {},
      "regions": [
        "{}",
        "{}",
        "{}"
      ],
      "out_labels": [
        "{}",
        "{}",
        "{}"
      ],
      "parent": {},
      "turn": {}
    }}"""


def export(root, max_depth, fmt):
    """Serialize the BFS ball around the root as dot or json."""
    if fmt not in ("dot", "json"):
        raise DomainError(f"unknown format {fmt!r}")
    if max_depth < 0:
        raise DomainError("negative depth")
    if not any(root.form):
        raise DomainError("the zero form has no topograph")
    ball = list(_ball(root, max_depth))
    # level l >= 1 starts at id 3 * 2^(l-1) - 2, so vertex i of level l >= 2
    # has id v with parent v // 2 - 1, vertex i // 2 of level l - 1, and
    # turn "LR"[i % 2]; vertices 1, 2, 3 leave vertex 0 by no turn, L and R
    parent = [None] + [max(v // 2 - 1, 0) for v in range(1, len(ball))]
    turn = [None, None] + ["LR"[v % 2] for v in range(2, len(ball))]
    if fmt == "json":
        # the text json.dumps(doc, indent=2) gives, written directly: any
        # indent sends json.dumps through its pure-Python encoder
        vertices = ",\n".join(_JSON_VERTEX.format(
            v, *regs, *outs, "null" if parent[v] is None else parent[v],
            "null" if turn[v] is None else f'"{turn[v]}"')
            for v, (_, regs, outs) in enumerate(ball))
        return (f'{{\n  "discriminant": "{root.form.discriminant()}",\n'
                f'  "root": "{",".join(map(str, root.form))}",\n'
                f'  "vertices": [\n{vertices}\n  ]\n}}')
    lines = ["digraph topograph {"]
    lines += [f'  v{v} [label="{",".join(map(str, regs))}"];'
              for v, (_, regs, _) in enumerate(ball)]
    lines += [f'  v{parent[v]} -> v{v} [label="{b} | {a} | {c}"];'
              for v, ((a, b, c), _, _) in enumerate(ball) if v]
    lines.append("}")
    return "\n".join(lines) + "\n"
