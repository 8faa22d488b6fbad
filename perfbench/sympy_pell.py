"""Smallest solutions of t^2 - D u^2 = 4 and of t^2 - D u^2 = -4 by
sympy's diop_DN, for the discriminants given as arguments; prints one JSON
object {D: [[t, u], [t*, u*] or null]}, or null without sympy.

Kept in its own process so that the benchmark's process, whose peak memory
is measured, never imports sympy."""

import json
import sys


def smallest(D, N):
    """Least u > 0 with t^2 - D u^2 = N, N = +-4, from diop_DN at N, at
    N/4 (both t and u even) and, for N = 4, at -4 squared."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    cands = []
    for t, u in diop_DN(D, N):
        t, u = abs(int(t)), abs(int(u))
        if u > 0 and t * t - D * u * u == N:
            cands.append((u, t))
    for x, y in diop_DN(D, N // 4):
        x, y = abs(int(x)), abs(int(y))
        if y > 0:
            cands.append((2 * y, 2 * x))
    if N == 4:
        for a, b in diop_DN(D, -4):
            a, b = abs(int(a)), abs(int(b))
            if b > 0:
                cands.append((a * b, (a * a + D * b * b) // 2))
    if not cands:
        return None
    u, t = min(cands)
    return [t, u]


def main(argv):
    try:
        import sympy  # noqa: F401
    except ImportError:
        print("null")
        return 0
    print(json.dumps({D: [smallest(int(D), 4), smallest(int(D), -4)] for D in argv}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
