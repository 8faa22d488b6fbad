"""Continued fractions: the classical algorithm for rationals and real surds,
and the general algorithm for complex surds that stops on reaching the
fundamental domain F' of the extended modular group.  `general_cf` and
`lr_decompose` take their terms from the topograph's integer block walk on
the positive definite form whose first root is the surd, and build the tail
surd once, from the form the walk ends on.
"""

from .exact import DomainError, Rat, Surd, surd_floor
from .topograph import definite_blocks, is_reduced_neg


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


def _definite_form(z):
    # z = (p + q sqrt d)/r, q > 0, is the first root of [r^2, -2pr, r^2 |z|^2]
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
    a, b, c = _definite_form(z)
    return is_reduced_neg((a, b, c)) or (
        which != "F" and is_reduced_neg((c, -b, a)))


def real_cf(x):
    """Continued fraction of a rational or a real quadratic surd.

    Rationals give a finite expansion; surds give preperiod + period, the
    period detected on the first repeated remainder.
    """
    if isinstance(x, int):
        x = Rat(x)
    if isinstance(x, Surd) and x.is_rational():
        x = Rat(x.p, x.r)
    if isinstance(x, Rat):
        if x.is_infinite():
            raise DomainError("continued fraction of infinity")
        terms = []
        num, den = x.num, x.den
        while True:
            a = num // den
            terms.append(a)
            num, den = den, num - a * den
            if den == 0:
                return CFExpansion(terms)
    if not isinstance(x, Surd):
        raise DomainError("real_cf wants a Rat or Surd")
    if x.d < 0:
        raise DomainError("real_cf wants a real value")
    terms = []
    seen = {}
    cur = x
    while True:
        key = cur.key()
        if key in seen:
            i = seen[key]
            return CFExpansion(terms[:i], period=terms[i:])
        seen[key] = len(terms)
        a = surd_floor(cur)
        terms.append(a)
        cur = (cur - a).invert()


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
        word, (A, B, C) = definite_blocks(_definite_form(z), "L")
    else:
        word, (A, B, C) = definite_blocks(_definite_form(z)[::-1], "R")
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
    word, g = definite_blocks(_definite_form(z))
    # z1 is the first root of the end form, the tail z0 after an L block
    # and 1/z0 after an R block; it lies in F when the form is reduced
    z1 = Surd(-g[1], 2 * z.r * z.q, 2 * g[0], z.d)
    return word, z1, not is_reduced_neg(g)
