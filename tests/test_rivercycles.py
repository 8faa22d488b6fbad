"""Gauss, Zagier and simple cycles read off one river period, against the
loops they replaced.

- `ref_step_cycle` steps a form with `gauss_step` or `zagier_step` until it
  repeats, as `gauss_cycle` and `zagier_cycle` did;
- `ref_zagier_classes` steps each unseen primitive Z-reduced form around
  its cycle, as `zagier_classes` did;
- `ref_block_scan` scans every block of the river period from the end of
  the root path for its simply reduced prefix and suffix, as
  `reduce_simple_cycle` did.

Each must agree exactly, order included.
"""

from itertools import chain

from hypothesis import assume, given, settings, strategies as st

from topoforms.exact import is_square
from topoforms.forms import QuadForm, act, turn_sequence_matrix
from topoforms.reduce import (gauss_cycle, gauss_step, is_g_reduced,
                              is_simply_reduced, is_z_reduced,
                              reduce_simple_cycle, z_forms, zagier_classes,
                              zagier_cycle, zagier_step)
from topoforms.topograph import (block_step, period_blocks, river_walk,
                                 turn_path, walk)


# ------------------------------------------------------------- reference

def ref_step_cycle(q, step):
    """The cycle q's orbit under `step` runs into, from its least form."""
    seen, seq = {}, []
    while q not in seen:
        seen[q] = len(seq)
        seq.append(q)
        q = step(q)
    cycle = seq[seen[q]:]
    best = cycle.index(min(cycle))
    return tuple(cycle[best:] + cycle[:best])


def ref_zagier_classes(D):
    """One Zagier cycle per primitive class, stepped from its first form in
    z_forms order."""
    forms = [q for q in z_forms(D) if q.content() == 1]
    unseen = set(forms)
    out = []
    for start in forms:
        if start not in unseen:
            continue
        cycle = [start]
        q = zagier_step(start)
        while q != start:
            cycle.append(q)
            q = zagier_step(q)
        unseen.difference_update(cycle)
        out.append(tuple(cycle))
    return out


def ref_block_scan(q):
    """(cycle, transform, steps) of reduce_simple_cycle: the root path in
    blocks to its first simple block end, the river period from there, and
    in each block a scan for the simply reduced forms, which fill a prefix
    and a suffix of it."""
    if q.a > 0 > q.c:
        root, end = (), q
    else:
        word, end = walk(q, "L", lambda a, b, c, letter, k: (
            0 if a > 0 > c else None))
        root, end = tuple(x for x in word if x[1]), QuadForm(*end)
    period = river_walk(end)
    assert period.forms[0] == end
    collected = []  # (form, block index, turns into the block)
    for i, ((letter, k), f) in enumerate(zip(period.word, period.forms)):
        lo = 0
        while lo < k and is_simply_reduced(block_step(f, letter, lo)):
            lo += 1
        hi = k
        while hi > lo and is_simply_reduced(block_step(f, letter, hi - 1)):
            hi -= 1
        for j in chain(range(lo), range(hi, k)):
            collected.append((block_step(f, letter, j), i, j))
    best = min(range(len(collected)), key=lambda n: collected[n][0])
    cycle = tuple(f for f, _, _ in collected[best:] + collected[:best])
    _, i, j = collected[best]
    word = period.word[:i] + ((period.word[i][0], j),)
    steps = root + tuple(chain.from_iterable(
        [(letter, 1)] * k for letter, k in word))
    return cycle, turn_sequence_matrix(root + word), steps


# ---------------------------------------------------------------- forms

COEF = st.integers(-60, 60)


def _real(D):
    return D > 0 and not is_square(D)


def _discs(limit):
    return [D for D in range(5, limit) if D % 4 in (0, 1) and _real(D)]


@st.composite
def real_forms(draw):
    """A form of non-square D > 0, small or moved far by a random word."""
    q = QuadForm(draw(COEF), draw(st.integers(-80, 80)), draw(COEF))
    assume(_real(q.discriminant()))
    for letter, k in draw(st.lists(st.tuples(st.sampled_from("LR"),
                                             st.integers(-9, 9)),
                                   max_size=8)):
        q = block_step(q, letter, k)
    return q


# ------------------------------------------------------------ properties

@given(real_forms())
@settings(max_examples=400, deadline=None)
def test_cycles_match_the_step_loops(q):
    assert gauss_cycle(q) == ref_step_cycle(q, gauss_step)
    assert zagier_cycle(q) == ref_step_cycle(q, zagier_step)
    assert all(type(f) is QuadForm for f in gauss_cycle(q) + zagier_cycle(q))


@given(real_forms())
@settings(max_examples=300, deadline=None)
def test_simple_cycle_matches_the_block_scan(q):
    cycle, transform, steps = ref_block_scan(q)
    res = reduce_simple_cycle(q)
    assert res.canonical == cycle
    assert res.transform == transform
    assert list(turn_path(res.steps)) == list(turn_path(steps))
    assert turn_sequence_matrix(res.steps) == res.transform
    assert all(k for _, k in res.steps)
    assert act(q, res.transform) == res.canonical[0]


def test_simple_cycle_steps_are_blocks():
    # D = 10^12 + 4: a period of two blocks of about 10^6 turns, whose
    # cycle has 2 forms; the steps are the blocks, not their unit turns
    q = QuadForm(-1, 10 ** 6, 1)
    res = reduce_simple_cycle(q)
    assert len(res.canonical) == 2 and len(res.steps) <= 5
    assert turn_sequence_matrix(res.steps) == res.transform
    assert act(q, res.transform) == res.canonical[0]


def _runs_into(q, step, cycle):
    # whether q's orbit under `step` reaches a form of `cycle`, a cycle of
    # `step`; the cycle it runs into is then `cycle`
    seen = set()
    while q not in cycle:
        if q in seen:
            return False
        seen.add(q)
        q = step(q)
    return True


def test_cycles_on_every_primitive_z_form():
    # ref_step_cycle(q, zagier_step) is the same for every q of a Zagier
    # cycle, and ref_step_cycle(q, gauss_step) for every q whose Gauss orbit
    # runs into the same cycle, so each is stepped once per class
    for D in _discs(2000):
        for cycle in ref_zagier_classes(D):
            zagier = ref_step_cycle(cycle[0], zagier_step)
            gauss = ref_step_cycle(cycle[0], gauss_step)
            gauss_set = set(gauss)
            for q in cycle:
                assert _runs_into(q, gauss_step, gauss_set), q
                assert zagier_cycle(q) == zagier, q
                assert gauss_cycle(q) == gauss, q


def test_zagier_classes_match_the_step_loop():
    for D in _discs(3001):
        assert zagier_classes(D) == ref_zagier_classes(D), D


def test_period_blocks_are_whole_runs():
    # every block is a maximal run: consecutive letters differ cyclically,
    # each block starts where the previous one ends, every block start is
    # simply reduced, and the R blocks hold one turn per Z-reduced form
    for D in _discs(400):
        for cycle in zagier_classes(D):
            blocks = period_blocks(cycle[0])
            assert len(blocks) % 2 == 0
            for (l1, k1, f1), (l2, _, f2) in zip(
                    blocks, blocks[1:] + blocks[:1]):
                assert l1 != l2 and k1 > 0
                assert block_step(f1, l1, k1) == f2
                assert f1.a > 0 > f1.c and is_simply_reduced(f1)
            assert all(map(is_g_reduced, gauss_cycle(cycle[0])))
            assert all(map(is_z_reduced, zagier_cycle(cycle[0])))
            assert sum(k for letter, k, _ in blocks
                       if letter == "R") == len(cycle)
