"""Continued fractions: Euclid's algorithm for rationals, and for real and
complex quadratic surds one algorithm, the topograph's integer block walk on
the form whose first root is the surd.  `real_cf` reads a real surd's
preperiod and period off the walk; `general_cf` and `lr_decompose` walk a
definite form into the fundamental domain F' of the extended modular group,
and build the tail surd once, from the form the walk ends on.
"""

from .exact import DomainError, Rat, Surd
from .topograph import definite_blocks, is_reduced_neg, walk


class CFExpansion:
    """Partial quotients a0, a1, ... plus either a repeating period (real
    quadratic surds) or a complex tail z0 in F' (complex inputs)."""

    __slots__ = ("terms", "period", "tail")

    def __init__(self, terms, period=None, tail=None):
        self.terms = list(terms)
        self.period = list(period) if period is not None else None
        self.tail = tail

    def __eq__(self, other):
        if not isinstance(other, CFExpansion):
            return NotImplemented
        return (self.terms == other.terms and self.period == other.period
                and self.tail == other.tail)

    def __repr__(self):
        bits = ",".join(str(a) for a in self.terms)
        if self.period:
            bits += ";(" + ",".join(str(a) for a in self.period) + ")"
        if self.tail is not None:
            bits += f";tail={self.tail!r}"
        return f"<{bits}>"


def _root_form(z):
    # z = (p + q sqrt d)/r is the first root of [r^2, -2pr, p^2 - q^2 d] for
    # q > 0 (the last is r^2 |z|^2 for complex z), of its negative for q < 0
    p, q, r, d = z.p, z.q, z.r, z.d
    return r * r, -2 * p * r, p * p - q * q * d


def fd_member(z, which):
    """Exact membership of a complex surd in F, F' or F∪SF.  A z in the
    upper half plane lies in F exactly when the definite form whose first
    root it is is reduced, and in SF when that form's S image is; F' is
    F ∪ SF ∪ -F ∪ -SF and holds 0."""
    if z.d >= 0:
        raise DomainError("fundamental-domain test needs a complex surd")
    if which not in ("F", "F_or_SF", "F_prime"):
        raise DomainError(f"unknown domain {which!r}")
    if which == "F_prime":
        if z.is_zero():
            return True
        if z.q < 0:
            z = -z
    if z.q <= 0:
        return False
    a, b, c = _root_form(z)
    return is_reduced_neg((a, b, c)) or (
        which != "F" and is_reduced_neg((c, -b, a)))


def real_cf(x):
    """Continued fraction of a rational or a real quadratic surd.

    Rationals give a finite expansion by Euclid's loop; surds give preperiod
    + period from the topograph's block walk, the period starting at the
    first complete quotient seen twice.
    """
    if isinstance(x, int):
        x = Rat(x)
    if isinstance(x, Surd) and x.is_rational():
        x = Rat(x.p, x.r)
    if isinstance(x, Rat):
        if x.is_infinite():
            raise DomainError("continued fraction of infinity")
        terms, num, den = [], x.num, x.den
        while den:
            terms.append(num // den)
            num, den = den, num % den
        return CFExpansion(terms)
    if not isinstance(x, Surd):
        raise DomainError("real_cf wants a Rat or Surd")
    if x.d < 0:
        raise DomainError("real_cf wants a real value")
    # walked from L, each block's k is the next partial quotient; the quotient
    # it floors is the first root of (a, b, c) before an L block and of
    # (-c, -b, -a) before an R block, and the period starts at a repeat
    form = tuple(v if x.q > 0 else -v for v in _root_form(x))
    seen = {form: 0}

    def repeats(a, b, c, letter, k):
        key = (-c, -b, -a) if letter == "L" else (a, b, c)
        if key in seen:
            return 0
        seen[key] = len(seen)

    word, (a, b, c) = walk(form, "L", repeats)
    terms = [k for _, k in word]
    # the period counts back from the end: the walk may take blocks of big
    # forms in batches, unseen, but never from the period's reduced forms
    i = len(word) - len(seen) + seen[(-c, -b, -a) if word[-1][0] == "L"
                                     else (a, b, c)]
    return CFExpansion(terms[:i], period=terms[i:])


def normalize_parity(cf, want_odd_index):
    """Rewrite a finite expansion so its last index n has the asked parity,
    using <...,a_n> = <...,a_n-1,1> and <...,a_{n-1},1> = <...,a_{n-1}+1>."""
    if cf.period is not None or cf.tail is not None:
        raise DomainError("parity normalization needs a finite expansion")
    terms = list(cf.terms)
    has_odd = (len(terms) - 1) % 2 == 1
    if has_odd == bool(want_odd_index):
        return CFExpansion(terms)
    if terms[-1] == 1 and len(terms) >= 2:
        terms = terms[:-2] + [terms[-2] + 1]
    else:
        terms = terms[:-1] + [terms[-1] - 1, 1]
    return CFExpansion(terms)


def general_cf(z):
    """General continued fraction of a complex surd: returns terms a0..ar and
    a tail z0 in F' \\ {0} with z = <a0,...,a_{r-1},a_r + z0>."""
    if z.d > 0:
        return real_cf(z)
    if z.is_zero():
        raise DomainError("general_cf of zero")
    if z.is_rational():
        return real_cf(Rat(z.p, z.r))
    # in the lower half plane z = 1/zeta for the first root zeta of the
    # reversed form, and the walk starts with an R block
    if z.q > 0:
        word, (A, B, C) = definite_blocks(_root_form(z), "L")
    else:
        word, (A, B, C) = definite_blocks(_root_form(z)[::-1], "R")
    t = 2 * z.r * abs(z.q)
    if word[-1][0] == "L":
        tail = Surd(-B, t, 2 * A, z.d)
    else:
        tail = Surd(-B, -t, 2 * C, z.d)
    return CFExpansion([k for _, k in word], tail=tail)


def lr_decompose(z):
    """Split an upper-half-plane surd as L^{a0} R^{a1} ... acting on z1 with
    z1 in F ∪ SF; needs_S is true when z1 lies in SF (append S to the word)."""
    if z.d >= 0 or z.q <= 0:
        raise DomainError("lr_decompose wants an upper-half-plane surd")
    word, g = definite_blocks(_root_form(z))
    # z1 is the first root of the end form, the tail z0 after an L block
    # and 1/z0 after an R block; it lies in F when the form is reduced
    z1 = Surd(-g[1], 2 * z.r * z.q, 2 * g[0], z.d)
    return word, z1, not is_reduced_neg(g)
