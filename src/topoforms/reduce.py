"""Reduction procedures for every discriminant regime, plus the Gauss and
Zagier steps and the Omega_D parametrization of Zagier-reduced forms."""

from dataclasses import dataclass
from itertools import chain

from .contfrac import lr_decompose, normalize_parity, real_cf
from .exact import DomainError, Rat, Surd, is_square, isqrt, surd_floor
from .forms import ID, MAT_S, QuadForm, UniMat, act, roots, turn_sequence_matrix
from .topograph import block_step, river_blocks, root_path


@dataclass(frozen=True)
class ReductionResult:
    canonical: object  # QuadForm, or tuple of QuadForm for cycles
    transform: UniMat  # act(input, transform) == first canonical form
    steps: tuple  # TurnWord trace
    negated: bool = False  # set when a negative definite input was negated


@dataclass(frozen=True)
class OmegaEntry:
    a: int
    k: int


# ---------------------------------------------------------------- predicates

def is_reduced_neg(q):
    a, b, c = q
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def is_reduced_square(q):
    a, b, c = q
    return a == 0 and b > 0 and b * b == q.discriminant() and 0 < c <= b


def is_simple(q):
    a, _, c = q
    return a > 0 > c


def is_simply_reduced(q):
    a, b, c = q
    return a > 0 > c and abs(a + c) < abs(b)


def is_g_reduced(q):
    a, b, c = q
    return a * c < 0 and abs(a + c) < b


def is_z_reduced(q):
    a, b, c = q
    return a > 0 and c > 0 and b > a + c


def is_zstar_reduced(q):
    a, b, c = q
    return a > 0 and c > 0 and a + b + c < 0


# ----------------------------------------------------------------- negative

def reduce_negative(q):
    """Unique reduced representative of a definite class, with an exact
    matrix certificate and the turn word that found it."""
    if q.discriminant() >= 0:
        raise DomainError("reduce_negative needs negative discriminant")
    negated = False
    w = q
    if w.a < 0:
        w = -w
        negated = True
    z = roots(w).first  # in the upper half plane since a > 0
    word, _, needs_s = lr_decompose(z)
    steps = list(word)
    m = turn_sequence_matrix(word)
    if needs_s:
        m = m @ MAT_S
        steps.append(("S", 1))
    canonical = act(w, m)
    if not is_reduced_neg(canonical):  # pragma: no cover
        raise AssertionError(f"reduction landed on {canonical}")
    return ReductionResult(canonical, m, tuple(steps), negated)


# ------------------------------------------------------------------- square

def _cf_word_matrix(terms):
    word = [("L" if i % 2 == 0 else "R", a) for i, a in enumerate(terms)]
    return word, turn_sequence_matrix(word)


def reduce_square(q):
    """Reduce a square-discriminant form to [0,m,c] with 0 < c <= m by the
    two-leg walk: first root to the right lake, second root back."""
    D = q.discriminant()
    if D <= 0 or not is_square(D):
        raise DomainError("reduce_square needs a positive square discriminant")
    m = isqrt(D)
    steps = []
    mat = ID
    cur = q
    z = roots(cur).first
    if not z.is_infinite():
        cf = normalize_parity(real_cf(z), want_odd_index=True)
        word, m1 = _cf_word_matrix(cf.terms)
        steps += word
        mat = mat @ m1
        cur = act(cur, m1)
    if not (cur.a == 0 and cur.b == -m):  # pragma: no cover
        raise AssertionError(f"first leg missed the right lake: {cur}")
    z2 = roots(cur).second  # = -c/b, finite
    cf = normalize_parity(real_cf(z2), want_odd_index=True)
    word, m2 = _cf_word_matrix(cf.terms)
    steps += word
    mat = mat @ m2
    cur = act(cur, m2)
    if not (cur.a == 0 and cur.b == m):  # pragma: no cover
        raise AssertionError(f"second leg missed the left lake: {cur}")
    if cur == QuadForm(0, m, 0):
        lmat = UniMat(1, 1, 0, 1)
        mat = mat @ lmat
        steps.append(("L", 1))
        cur = act(cur, lmat)
    # safety net: translate c into (0, m]
    while cur.c <= 0 or cur.c > m:  # pragma: no cover
        k = 1 if cur.c <= 0 else -1
        lmat = UniMat(1, k, 0, 1)
        mat = mat @ lmat
        steps.append(("L", k))
        cur = act(cur, lmat)
    if not is_reduced_square(cur):  # pragma: no cover
        raise AssertionError(f"square reduction landed on {cur}")
    return ReductionResult(cur, mat, tuple(steps))


# ------------------------------------------------------------- simple cycle

def reduce_simple_cycle(q):
    """The full river cycle of simply reduced forms of a non-square D > 0
    class, rotated to start at the lexicographically least (a,b,c)."""
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("reduce_simple_cycle needs non-square D > 0")
    root = root_path(q)
    period = river_blocks(root.form)
    # on the river a > 0 > c, where |a + c| < |b| reads a - c < sqrt D
    # (b^2 = D + 4ac); a - c is concave in the turn count along a block, so
    # a block's simply reduced forms fill a prefix and a suffix of it
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
    steps = root.word + tuple((letter, 1) for letter, k in word
                              for _ in range(k))
    return ReductionResult(cycle, turn_sequence_matrix(root.word + word),
                           steps)


# ------------------------------------------------------- Gauss and Zagier

def gauss_step(q):
    a, b, c = q
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("gauss_step needs non-square D > 0")
    if c == 0:
        raise DomainError("gauss_step needs c != 0")
    sgn = 1 if c > 0 else -1
    k = sgn * surd_floor(Surd(b, 1, 2 * abs(c), D))
    return act(q, UniMat(0, -1, 1, k))


def zagier_step(q):
    a, b, c = q
    D = q.discriminant()
    if D <= 0 or is_square(D):
        raise DomainError("zagier_step needs non-square D > 0")
    if a == 0:
        raise DomainError("zagier_step needs a != 0")
    # k = ceil((b + sqrt(D)) / (2a)), where (b + sqrt(D)) / (2a) is irrational
    r = isqrt(D)
    k = (b + r) // (2 * a) + 1 if a > 0 else -((b + r) // (-2 * a))
    # q | (k 1; -1 0)
    return QuadForm(a * k * k - b * k + c, 2 * a * k - b, a)


def _step_cycle(q, stepper):
    seen = {}
    seq = []
    cur = q
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = stepper(cur)
    cycle = seq[seen[cur]:]
    best = min(range(len(cycle)), key=lambda i: cycle[i])
    return tuple(cycle[best:] + cycle[:best])


def gauss_cycle(q):
    """The G-reduced cycle reached from q, canonically rotated."""
    return _step_cycle(q, gauss_step)


def zagier_cycle(q):
    """The Z-reduced cycle reached from q, canonically rotated."""
    return _step_cycle(q, zagier_step)


def zagier_classes(D):
    """The primitive Z-reduced forms of a non-square D > 0, one Zagier cycle
    per primitive class, each in stepping order from its first form in
    z_forms order; every form is visited once."""
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


# ------------------------------------------------------------------ Omega_D

def omega_enumerate(D):
    """All (a, k) with k^2 = D mod 4, |k| < sqrt(D), a | (D-k^2)/4 and
    a > (sqrt(D)+k)/2, in (k, a) lexicographic order."""
    if D <= 0:
        raise DomainError("omega_enumerate needs D > 0")
    out = []
    root = isqrt(D)
    kmax = root if root * root < D else root - 1
    for k in range(-kmax, kmax + 1):
        if (k * k - D) % 4 != 0:
            continue
        n = (D - k * k) // 4
        small = [a for a in range(1, isqrt(n) + 1) if n % a == 0]
        large = [n // a for a in reversed(small) if a * a != n]
        for a in small + large:
            t = 2 * a - k
            if t > 0 and t * t > D:
                out.append(OmegaEntry(a, k))
    return out


def zstar_forms(D):
    """Zagier * forms [a, k-2a, c]: a,c > 0 and a+b+c < 0."""
    out = []
    for e in omega_enumerate(D):
        c = ((2 * e.a - e.k) ** 2 - D) // (4 * e.a)
        out.append(QuadForm(e.a, e.k - 2 * e.a, c))
    return out


def z_forms(D):
    """Zagier forms [a, 2a-k, c]: a,c > 0 and b > a+c."""
    out = []
    for e in omega_enumerate(D):
        c = ((2 * e.a - e.k) ** 2 - D) // (4 * e.a)
        out.append(QuadForm(e.a, 2 * e.a - e.k, c))
    return out
