"""River periods, Pell fundamental solutions, automorphs, necklace and word
encodings of classes, symmetry flags, and wide-sense class numbers; the
readers of a D walk half its mirror-symmetric principal river period."""

from itertools import groupby
from math import gcd
from typing import NamedTuple

from .classnum import euler_phi, h_neg, h_pos
from .exact import DomainError, Surd, check_discriminant, is_square, isqrt
from .forms import (QuadForm, UniMat, _mul, _run_product, act,
                    turn_sequence_matrix)
from .topograph import river_walk, square_reduction, square_river_blocks, walk


class PellSolution(NamedTuple):
    t: int
    u: int
    sign: int  # +4 or -4


def _least_rotation(word):
    """The least rotation of a sequence, in linear time: the start of the last
    Lyndon factor (Duval) of the doubled word that begins in its first half."""
    n = len(word)
    s = word + word
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return s[start:start + n]


class Necklace:
    """A cyclic binary word (0=L, 1=R), primitive (not a power of a shorter
    word) and of length >= 2, kept as the runs of its least rotation: -k for
    k 0s, k for k 1s.  Rotations that start at runs of 0s, the least among
    them, compare run by run as their bits do."""

    __slots__ = ("runs",)

    def __init__(self, bits):
        bits = str(bits)
        if len(bits) < 2:
            raise DomainError("necklace needs length >= 2")
        if set(bits) - {"0", "1"}:
            raise DomainError("necklace bits must be 0/1")
        if (bits + bits).find(bits, 1) != len(bits):
            raise DomainError("necklace must be non-repeating")
        runs = [len(list(r)) if b == "1" else -len(list(r))
                for b, r in groupby(bits)]
        if bits[0] == bits[-1]:  # the last run wraps onto the first
            runs[0] += runs.pop()
        self.runs = _least_rotation(tuple(runs))

    @property
    def bits(self):
        return "".join("0" * -k if k < 0 else "1" * k for k in self.runs)

    def __eq__(self, other):
        return isinstance(other, Necklace) and self.runs == other.runs

    def __hash__(self):
        return hash(("necklace", self.runs))

    def __len__(self):
        return sum(map(abs, self.runs))

    def __repr__(self):
        return self.bits


def principal_form(D):
    check_discriminant(D)
    if D % 4 == 0:
        return QuadForm(1, 0, -D // 4)
    return QuadForm(1, 1, (1 - D) // 4)


def _check_real(D):
    if D <= 0 or is_square(D):
        raise DomainError("needs non-square D > 0")
    check_discriminant(D)


def _principal_period(D, matrix=True):
    """river_period(D) off half the period, the matrix only if asked: the
    principal class is ambiguous, so its period is palindromic.  The walk
    from [1, b0, c], an L block first, ends on the centre C, the first block
    to end on the -b it began on (b = k a after L^k, b = k c after R^k).
    With P = L^k0 ... the blocks before C, the period is P, C, P[1:]
    reversed and L^(k0 + b0), zero blocks dropped, and its matrix P C P'
    L^b0, where P' = J P^T J = (de be; ga al) is P reversed."""
    _check_real(D)
    b0 = D % 2  # the principal form's b
    half, _ = walk(principal_form(D), "L", lambda a, b, c, letter, k:
                   0 if b == k * (a if letter == "L" else c) else None)
    word = [x for x in half + half[-2:0:-1] + [("L", half[0][1] + b0)] if x[1]]
    if not matrix:
        return word, None
    al, be, ga, de = turn_sequence_matrix(half[:-1])
    pc = _mul((al, be, ga, de), _run_product(half[-1:]))
    return word, tuple.__new__(UniMat,
                               _mul(pc, (de, de * b0 + be, ga, ga * b0 + al)))


def _period_runs(word):
    # whole blocks as runs, -k for L^k and k for R^k, as in period_blocks
    runs = [-k if letter == "L" else k for letter, k in word]
    if (runs[0] < 0) == (runs[-1] < 0):  # the run the period wraps inside
        runs[0] += runs.pop()
    return runs


def _letters(runs):
    return [("L", -k) if k < 0 else ("R", k) for k in runs]


def river_period(D):
    """One period of the principal river as a run-length word plus its
    matrix product M = L^a0 R^a1 ..."""
    return _principal_period(D)


def _pell_pair(D, minus=True):
    # pell_fundamental(D) and, if asked, negative_pell(D), from one walk
    word, (al, be, ga, de) = _principal_period(D)
    t = al + de
    u = gcd(gcd(ga, de - al), be)
    if t * t - D * u * u != 4:  # pragma: no cover
        raise AssertionError("river matrix did not solve the Pell equation")
    return PellSolution(t, u, 4), _minus_solution(D, word) if minus else None


def pell_fundamental(D):
    """Smallest positive (t, u) with t^2 - D u^2 = 4, off the river matrix."""
    return _pell_pair(D, minus=False)[0]


def _minus_solution(D, word):
    runs = _period_runs(word)
    half = len(runs) // 2
    if half % 2 == 0 or any(runs[i] != -runs[i + half] for i in range(half)):
        return None
    al, be, ga, de = turn_sequence_matrix(_letters(runs[:half]))
    t = be + ga
    u = gcd(gcd(de, ga - be), al)
    if t > 0 and t * t - D * u * u == -4:
        return PellSolution(t, u, -4)
    return None


def negative_pell(D):
    """The fundamental solution of t^2 - D u^2 = -4, if the river necklace
    factors as X followed by its letter-switched copy; None otherwise.

    The principal river period is B alternating whole blocks.  It has
    that shape exactly when B/2 is odd, so that block i and block i + B/2
    carry different letters, and every block i has the length of block
    i + B/2; X is then the first B/2 blocks, and (t, u) is read off its
    matrix and checked against the equation."""
    return _minus_solution(D, _principal_period(D, False)[0])


def epsilon(D):
    """The unit (t + u sqrt(D))/2 from the fundamental +4 solution."""
    s = pell_fundamental(D)
    return Surd(s.t, s.u, 2, D)


def epsilon_star(D):
    s = negative_pell(D)
    if s is None:
        return None
    return Surd(s.t, s.u, 2, D)


def automorph_generator(q):
    """G_q built from the fundamental Pell solution; fixes q exactly."""
    if q.content() != 1:
        raise DomainError("automorph generator needs a primitive form")
    D = q.discriminant()
    _check_real(D)
    s = pell_fundamental(D)
    a, b, c = q
    t, u = s.t, s.u
    if (t - b * u) % 2:  # pragma: no cover
        raise AssertionError("Pell parity mismatch")
    g = UniMat((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2)
    if act(q, g) != q:  # pragma: no cover
        raise AssertionError("automorph does not fix the form")
    return g


def aut_structure(q):
    """Shape of the automorph group of a primitive form."""
    if q.content() != 1:
        raise DomainError("needs a primitive form")
    D = q.discriminant()
    if D == -3:
        return "order3"
    if D == -4:
        return "order2"
    if D < 0:
        return "trivial"
    if D == 0:
        return "infinite_T"
    if is_square(D):
        return "trivial"
    return "infinite_hyperbolic"


# ------------------------------------------------------------------ necklaces

def necklace_of(x):
    """Canonical river necklace of a discriminant (principal class) or of a
    given form's class."""
    if isinstance(x, QuadForm):
        _check_real(x.discriminant())
        word = river_walk(x).word
    else:
        word = _principal_period(x, False)[0]
    # a river period alternates its letters and is primitive
    n = object.__new__(Necklace)
    n.runs = _least_rotation(tuple(_period_runs(word)))
    return n


def topograph_of_necklace(n):
    """Primitive simple form whose river period reads the given necklace."""
    if not isinstance(n, Necklace):
        n = Necklace(n)
    al, be, ga, de = turn_sequence_matrix(_letters(n.runs))
    g = gcd(gcd(ga, de - al), be)
    return QuadForm(ga // g, (de - al) // g, -be // g)


# ---------------------------------------------------------------- square words

def word_of(q):
    """Binary word of a primitive square-discriminant topograph: the river's
    run-length letters with the first and last symbols removed.  D=1 has no
    river at all and returns None; D=4 returns the empty word."""
    D = q.discriminant()
    if D <= 0 or not is_square(D):
        raise DomainError("word_of needs square D >= 1")
    if q.content() != 1:
        raise DomainError("word_of needs a primitive form")
    if D == 1:
        return None
    word = square_river_blocks(square_reduction(q)[1]).word
    bits = "".join(("0" if letter == "L" else "1") * k for letter, k in word)
    return bits[1:-1]


def topograph_of_word(w):
    """Inverse of word_of: pad a 0 at each end, read run lengths as the
    continued fraction of m/r, and return [0, m, r]; the word's matrix
    L^t0 R^t1 ... L^tn is (p' m; q' r) with m/r in lowest terms."""
    if w is None:
        return QuadForm(0, 1, 1)
    if set(w) - {"0", "1"}:
        raise DomainError("word bits must be 0/1")
    _, m, _, r = turn_sequence_matrix([("LR"[int(b)], len(list(run)))
                                       for b, run in groupby("0" + w + "0")])
    return QuadForm(0, m, r)


# ------------------------------------------------------------------- symmetry

def symmetry(q):
    """Flags {q~q*, q~-q, q~-q*}: whether q* = [a, -b, c], -q and -q* have
    q's class code, its river necklace, or its reduced form for square D."""
    if q.content() != 1:
        raise DomainError("symmetry needs a primitive form")
    D = q.discriminant()
    if D <= 0:
        raise DomainError("symmetry is read from a river; needs D > 0")
    a, b, c = q
    if is_square(D):
        codes = [square_reduction(x)[1] for x in (
            q, QuadForm(a, -b, c), QuadForm(-a, -b, -c), QuadForm(-a, b, -c))]
    else:
        # one walk: q*'s river reads q's backwards, -q*'s switches its
        # letters, and -q's does both
        runs = tuple(_period_runs(river_walk(q).word))
        flip = tuple(-k for k in runs)
        codes = map(_least_rotation, (runs, runs[::-1], flip[::-1], flip))
    w, star, neg, neg_star = codes
    return {"q~q*": star == w, "q~-q": neg == w, "q~-q*": neg_star == w}


def h1(D):
    """Wide-sense primitive class number."""
    check_discriminant(D)
    if D in (1, 4):
        return 1
    if D < 0:
        return h_neg(D)
    if D == 0:
        return 1
    if is_square(D):
        return euler_phi(isqrt(D)) // 2
    return _h1_of(D, h_pos(D))


def _h1_of(D, h):
    # h1 from h = h_pos(D): h when t^2 - D u^2 = -4 is solvable, else h/2
    return h if negative_pell(D) is not None else h // 2
