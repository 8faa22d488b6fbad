"""Command line front end.

Exit codes: 0 on success, 1 on usage errors, 2 on domain errors (wrong
discriminant regime for the chosen method, non-primitive input where
primitivity is required, D not 0 or 1 mod 4...).
"""

import argparse
import json
import sys

from .classnum import (h_neg, h_pos, h_square, hstar_neg, hurwitz, r3,
                       r3_primitive, r3_via_class, r3p_via_class)
from .exact import DomainError, Surd, finite_float, is_square
from .forms import QuadForm
from .reduce import (ReductionResult, gauss_cycle, reduce_negative,
                     reduce_simple_cycle, reduce_square, zagier_cycle)
from .riverword import (Necklace, _h1_of, _pell_pair, necklace_of,
                        principal_form, topograph_of_necklace,
                        topograph_of_word, word_of)
from .topograph import EdgeCursor, export, find_river


class UsageError(Exception):
    pass


def _parse_form(text):
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed form {text!r}") from None
    if len(parts) != 3:
        raise UsageError("a form needs exactly three coefficients a,b,c")
    return QuadForm(*parts)


def _word_str(steps):
    return " ".join(f"{t}^{e}" if e != 1 else t for t, e in steps)


def _emit(ns, doc, plain):
    if ns.json:
        print(json.dumps(doc))
    else:
        for line in plain:
            print(line)


# the reducer of each method; "auto" takes negative, square or simple by
# the discriminant's regime
_REDUCERS = {"negative": reduce_negative, "square": reduce_square,
             "simple": reduce_simple_cycle, "gauss": gauss_cycle,
             "zagier": zagier_cycle}


def _cmd_reduce(ns):
    q = _parse_form(ns.form)
    D = q.discriminant()
    method = ns.method
    if method == "auto":
        if D == 0:
            raise DomainError("no reduction for discriminant zero")
        method = ("negative" if D < 0 else "square" if is_square(D)
                  else "simple")
    doc = {"input": [str(x) for x in q], "discriminant": str(D),
           "method": method}
    res = _REDUCERS[method](q)  # gauss and zagier give the bare cycle
    canon = res.canonical if isinstance(res, ReductionResult) else res
    canon = [canon] if isinstance(canon, QuadForm) else list(canon)
    doc["canonical"] = [[str(x) for x in f] for f in canon]
    plain = [f"discriminant {D}",
             "canonical " + " ".join(repr(f) for f in canon)]
    if isinstance(res, ReductionResult):
        doc["transform"] = [str(x) for x in res.transform]
        doc["steps"] = _word_str(res.steps)
        plain.append(f"transform {tuple(res.transform)}")
        plain.append(f"steps {_word_str(res.steps) or '(none)'}")
    _emit(ns, doc, plain)


def _cmd_classnum(ns):
    D = ns.disc
    doc = {"discriminant": str(D)}
    if ns.hurwitz:
        if D >= 0:
            raise DomainError("Hurwitz count needs D < 0")
        doc["hurwitz"] = str(hurwitz(-D))
    elif ns.star:
        if D < 0:
            doc["h_star"] = str(hstar_neg(D))
        elif is_square(D):
            hs = h_square(D)[1]
            doc["h_star"] = "infinite" if hs is None else str(hs)
        else:
            raise DomainError("h* is defined for D < 0 or square D")
    else:
        if D < 0:
            doc["h"] = str(h_neg(D))
        elif is_square(D):
            doc["h"] = str(h_square(D)[0])
        else:
            h = h_pos(D)
            doc.update(h=str(h), h1=str(_h1_of(D, h)))
    plain = [f"{k} {v}" for k, v in doc.items() if k != "discriminant"]
    _emit(ns, doc, plain)


def _cmd_pell(ns):
    D = ns.disc
    s, neg = _pell_pair(D)  # one walk for both solutions
    eps = Surd(s.t, s.u, 2, D)  # epsilon(D) would walk the river again
    doc = {"discriminant": str(D), "t": str(s.t), "u": str(s.u),
           "epsilon": f"({s.t}+{s.u}*sqrt({D}))/2",
           "epsilon_approx": finite_float(eps)}  # null beyond float range
    if neg is not None:
        doc["t_star"] = str(neg.t)
        doc["u_star"] = str(neg.u)
    approx = doc["epsilon_approx"]
    plain = [f"t^2 - {D} u^2 = 4 at t={s.t} u={s.u}",
             f"epsilon = {doc['epsilon']}"
             + ("" if approx is None else f" = {approx:.10g}")]
    if neg is not None:
        plain.append(f"t^2 - {D} u^2 = -4 at t={neg.t} u={neg.u}")
    else:
        plain.append("no -4 solution")
    _emit(ns, doc, plain)


def _cmd_necklace(ns):
    if ns.decode is not None:
        n = Necklace(ns.decode)
        q = topograph_of_necklace(n)
        doc = {"bits": n.bits, "form": [str(x) for x in q]}
        _emit(ns, doc, [repr(q)])
        return
    if ns.disc is None:
        raise UsageError("necklace needs --disc or --decode")
    n = necklace_of(ns.disc)
    doc = {"discriminant": str(ns.disc), "bits": n.bits}
    _emit(ns, doc, [n.bits])


def _cmd_word(ns):
    if ns.decode is not None:
        q = topograph_of_word(ns.decode)
        doc = {"bits": ns.decode, "form": [str(x) for x in q]}
        _emit(ns, doc, [repr(q)])
        return
    if ns.disc is None:
        raise UsageError("word needs --disc or --decode")
    D = ns.disc
    if D <= 0 or not is_square(D):
        raise DomainError("word needs a positive square discriminant")
    w = word_of(principal_form(D))
    doc = {"discriminant": str(D),
           "word": "none" if w is None else (w or "{}")}
    _emit(ns, doc, [doc["word"]])


def _cmd_river(ns):
    q = _parse_form(ns.form)
    r = find_river(q)
    doc = {
        "discriminant": str(q.discriminant()),
        "kind": r.kind,
        "word": "".join(r.word),
        "edges": [[str(x) for x in e.form] for e in r.edges],
    }
    plain = [f"{r.kind} river, word {''.join(r.word) or '(empty)'}"]
    plain += ["  " + repr(e.form) for e in r.edges]
    _emit(ns, doc, plain)


def _cmd_topograph(ns):
    q = _parse_form(ns.form)
    fmt = "json" if ns.json else ns.format
    sys.stdout.write(export(EdgeCursor(q), ns.depth, fmt))


def _cmd_series(ns):
    from .series import (eisenstein_check, hurwitz_series, series_neg,
                         series_pos, series_seed, series_square)

    th = ns.theorem
    if th == "eisenstein":
        lhs, rhs = eisenstein_check(radius=ns.radius)
        doc = {"theorem": th, "discriminant": "0", "depth": ns.radius,
               "value": lhs, "target": rhs, "residual": lhs - rhs}
        _emit(ns, doc, [f"lhs {lhs!r} rhs {rhs!r} residual {lhs - rhs:.3e}"])
        return
    if ns.disc is None:
        raise UsageError("series needs --disc")
    D = ns.disc
    if th == "hurwitz":
        rep = hurwitz_series(D, ns.depth)
    else:
        sums, which = {"mik": (series_neg, 0), "mt": (series_pos, 0),
                       "mt2": (series_pos, 1), "sq": (series_square, 0),
                       "sq2": (series_square, 1)}[th]
        rep = sums(series_seed(D), ns.depth)[which]
    if ns.json:
        print(rep.to_json())
    else:
        print(f"{rep.theorem}: value {rep.value:.7f} target {rep.target:.7f} "
              f"residual {rep.residual:.3e} ({rep.terms_used} terms)")


def _cmd_r3(ns):
    n = ns.n
    if ns.method == "brute":
        v = r3_primitive(n) if ns.primitive else r3(n)
    else:
        v = r3p_via_class(n) if ns.primitive else r3_via_class(n)
    doc = {"n": str(n), "primitive": bool(ns.primitive),
           "method": ns.method, "count": str(v)}
    _emit(ns, doc, [str(v)])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build():
    p = _Parser(prog="topoforms")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    sub = p.add_subparsers(dest="cmd", parser_class=_Parser)

    sp = sub.add_parser("reduce", parents=[common], help="canonical form or cycle of a class")
    sp.add_argument("--form", required=True, metavar="a,b,c")
    sp.add_argument("--method", default="auto",
                    choices=("auto", "gauss", "zagier", "simple",
                             "negative", "square"))
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("classnum", parents=[common], help="class numbers of a discriminant")
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--star", action="store_true")
    sp.add_argument("--hurwitz", action="store_true")
    sp.set_defaults(fn=_cmd_classnum)

    sp = sub.add_parser("pell", parents=[common], help="fundamental Pell solutions")
    sp.add_argument("--disc", type=int, required=True)
    sp.set_defaults(fn=_cmd_pell)

    sp = sub.add_parser("necklace", parents=[common], help="river necklace of a discriminant")
    sp.add_argument("--disc", type=int)
    sp.add_argument("--decode", metavar="BITS")
    sp.set_defaults(fn=_cmd_necklace)

    sp = sub.add_parser("word", parents=[common], help="binary word of a square discriminant")
    sp.add_argument("--disc", type=int)
    sp.add_argument("--decode", metavar="BITS")
    sp.set_defaults(fn=_cmd_word)

    sp = sub.add_parser("river", parents=[common], help="river period or lake-to-lake stretch")
    sp.add_argument("--form", required=True, metavar="a,b,c")
    sp.set_defaults(fn=_cmd_river)

    sp = sub.add_parser("topograph", parents=[common], help="export a BFS ball")
    sp.add_argument("--form", required=True, metavar="a,b,c")
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    sp.set_defaults(fn=_cmd_topograph)

    sp = sub.add_parser("series", parents=[common], help="series partial sums vs targets")
    sp.add_argument("--theorem", required=True,
                    choices=("mik", "mt", "mt2", "sq", "sq2", "hurwitz",
                             "eisenstein"))
    sp.add_argument("--disc", type=int)
    sp.add_argument("--depth", type=int, default=15)
    sp.add_argument("--radius", type=int, default=10000)
    sp.set_defaults(fn=_cmd_series)

    sp = sub.add_parser("r3", parents=[common], help="sums of three squares")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--primitive", action="store_true")
    sp.add_argument("--method", default="class", choices=("brute", "class"))
    sp.set_defaults(fn=_cmd_r3)
    return p


def _attach_form_values(argv):
    # argparse takes a value such as -3,5,7 for an option; pass a --form
    # value that starts with a minus sign as --form=-3,5,7
    out = []
    for tok in argv:
        if (out and out[-1] == "--form" and tok[:1] == "-"
                and tok[1:2].isdigit()):
            out[-1] = f"--form={tok}"
        else:
            out.append(tok)
    return out


def run(argv):
    parser = _build()
    # a form or a result may have more digits than Python's int/str limit
    # (4,300 by default, since 3.10.7; 0 is none): lift it for the call
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        ns = parser.parse_args(_attach_form_values(argv))
        if not getattr(ns, "fn", None):
            parser.print_help()
            return 1
        ns.fn(ns)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
