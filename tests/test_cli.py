import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from topoforms import classnum, cli, riverword
from topoforms.cli import run


def _json_out(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_reduce_auto_negative(capsys):
    doc = _json_out(capsys, ["reduce", "--form", "47,-36,7", "--json"])
    assert doc["method"] == "negative"
    assert doc["canonical"] == [["2", "2", "3"]]
    assert doc["steps"] == "L^0 R^2 L S"


def test_reduce_square_word(capsys):
    doc = _json_out(capsys, ["reduce", "--form", "13,-60,63", "--json"])
    assert doc["method"] == "square"
    assert doc["canonical"] == [["0", "18", "7"]]
    assert doc["steps"] == "L^2 R L^-1 R L^2 R L R^2"


def test_reduce_simple_cycle(capsys):
    doc = _json_out(capsys, ["reduce", "--form", "1,0,-24", "--json"])
    assert doc["method"] == "simple"
    assert len(doc["canonical"]) > 1


def test_reduce_negative_first_coefficient(capsys):
    # -3,5,7 is a value, not an option
    doc = _json_out(capsys, ["reduce", "--form", "-3,5,7", "--json"])
    assert doc["input"] == ["-3", "5", "7"] and doc["method"] == "simple"
    assert doc == _json_out(capsys, ["reduce", "--form=-3,5,7", "--json"])
    doc = _json_out(capsys, ["reduce", "--form", "-2,-2,-3", "--json"])
    assert doc["canonical"] == [["2", "2", "3"]]


def test_reduce_plain_output(capsys):
    assert run(["reduce", "--form", "2,2,3"]) == 0
    out = capsys.readouterr().out
    assert "canonical [2,2,3]" in out


def test_classnum_counts_the_class_rivers_once(capsys):
    # h and h1 of a non-square D > 0 share one h_pos walk of every river
    spy = mock.Mock(wraps=classnum.h_pos)
    with mock.patch.object(cli, "h_pos", spy), \
            mock.patch.object(riverword, "h_pos", spy):
        doc = _json_out(capsys, ["classnum", "--disc", "229", "--json"])
    assert spy.call_count == 1 and doc["h"] == "3" and doc["h1"] == "3"


def test_classnum(capsys):
    assert _json_out(capsys, ["classnum", "--disc", "-47", "--json"])["h"] == "5"
    assert _json_out(capsys, ["classnum", "--disc", "-64", "--star",
                              "--json"])["h_star"] == "4"
    doc = _json_out(capsys, ["classnum", "--disc", "-44", "--hurwitz",
                             "--json"])
    assert doc["hurwitz"] == "4"
    doc = _json_out(capsys, ["classnum", "--disc", "96", "--json"])
    assert doc["h"] == "4"


def test_pell(capsys):
    doc = _json_out(capsys, ["pell", "--disc", "145", "--json"])
    assert (doc["t"], doc["u"]) == ("578", "48")
    assert doc["epsilon_approx"] == pytest.approx(289 + 24 * 145 ** 0.5)
    assert (doc["t_star"], doc["u_star"]) == ("24", "2")
    doc = _json_out(capsys, ["pell", "--disc", "96", "--json"])
    assert "t_star" not in doc


def test_necklace_word(capsys):
    doc = _json_out(capsys, ["necklace", "--disc", "96", "--json"])
    bits = doc["bits"]
    doc = _json_out(capsys, ["necklace", "--decode", bits, "--json"])
    from topoforms.forms import QuadForm
    from topoforms.riverword import Necklace, necklace_of
    q = QuadForm(*(int(x) for x in doc["form"]))
    assert q.discriminant() == 96
    assert necklace_of(q) == Necklace(bits)
    doc = _json_out(capsys, ["word", "--disc", "9", "--json"])
    assert doc["word"] == "0"
    doc = _json_out(capsys, ["word", "--decode", "0", "--json"])
    assert doc["form"] == ["0", "3", "1"]
    doc = _json_out(capsys, ["word", "--disc", "4", "--json"])
    assert doc["word"] == "{}"
    doc = _json_out(capsys, ["word", "--disc", "1", "--json"])
    assert doc["word"] == "none"


def test_river(capsys):
    doc = _json_out(capsys, ["river", "--form", "1,0,-24", "--json"])
    assert doc["kind"] == "periodic" and doc["word"] == "LLLLRLLLL"


def test_river_negative_first_coefficient(capsys):
    doc = _json_out(capsys, ["river", "--form", "-24,0,1", "--json"])
    assert doc["kind"] == "periodic" and len(doc["word"]) == 9
    assert doc == _json_out(capsys, ["river", "--form=-24,0,1", "--json"])


def test_topograph_export_roundtrip(capsys):
    assert run(["topograph", "--form", "2,1,3", "--depth", "3",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    D = int(doc["discriminant"])
    for v in doc["vertices"]:
        e, f, g = (int(x) for x in v["out_labels"])
        assert e * f + f * g + g * e == -D
    assert run(["topograph", "--form", "1,1,1", "--depth", "2"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_series(capsys):
    assert run(["series", "--theorem", "mik", "--disc", "-20",
                "--depth", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem"] == "mik" and doc["depth"] == 6
    assert run(["series", "--theorem", "eisenstein", "--radius", "200",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["residual"]) < 1e-3


def test_r3(capsys):
    assert _json_out(capsys, ["r3", "--n", "42", "--json"])["count"] == "48"
    doc = _json_out(capsys, ["r3", "--n", "42", "--primitive",
                             "--method", "brute", "--json"])
    assert doc["count"] == "48"


def test_r3_primitive_small_n(capsys):
    for n, count in ((1, "6"), (2, "12"), (3, "8")):
        for method in ("class", "brute"):
            doc = _json_out(capsys, ["r3", "--n", str(n), "--primitive",
                                     "--method", method, "--json"])
            assert doc["count"] == count, (n, method)


def test_r3_zero_agrees_across_methods(capsys):
    # r3(0) = 1 counts (0, 0, 0), which is not primitive
    for primitive, count in (([], "1"), (["--primitive"], "0")):
        for method in ("brute", "class"):
            doc = _json_out(capsys, ["r3", "--n", "0", *primitive,
                                     "--method", method, "--json"])
            assert doc["count"] == count, (primitive, method)


def test_exit_codes(capsys):
    assert run([]) == 1  # no subcommand
    assert run(["reduce", "--form", "1,2"]) == 1  # malformed form
    assert run(["reduce", "--form", "x,y,z"]) == 1
    assert run(["nonsense"]) == 1
    assert run(["classnum", "--disc", "-6"]) == 2  # 2 mod 4
    assert run(["pell", "--disc", "16"]) == 2  # square discriminant
    assert run(["word", "--disc", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["series", "--theorem", "mik", "--disc", "-20", "--depth", "-1"],
    ["series", "--theorem", "hurwitz", "--disc", "-20", "--depth", "-1"],
    ["series", "--theorem", "mt", "--disc", "96", "--depth", "-1"],
    ["series", "--theorem", "mt2", "--disc", "96", "--depth", "-1"],
    ["series", "--theorem", "sq", "--disc", "9", "--depth", "-1"],
    ["topograph", "--form", "1,1,1", "--depth", "-3"],
    ["topograph", "--form", "0,0,0"],
])
def test_out_of_domain_input_exits_2(capsys, argv):
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("domain error: ")


# Gauss and Zagier cycles through the CLI: stdout recorded from the step
# loops these methods ran on before they read the river, byte for byte

_CYCLE_GOLDENS = [
    ("1,0,-24", "gauss",
     "discriminant 96\ncanonical [-8,8,1] [1,8,-8]\n",
     '{"input": ["1", "0", "-24"], "discriminant": "96", "method": "gauss", '
     '"canonical": [["-8", "8", "1"], ["1", "8", "-8"]]}\n'),
    ("1,0,-24", "zagier",
     "discriminant 96\ncanonical [1,10,1]\n",
     '{"input": ["1", "0", "-24"], "discriminant": "96", "method": "zagier", '
     '"canonical": [["1", "10", "1"]]}\n'),
    # [2, 9, -3] moved by (3 5; 4 7)
    ("78,261,218", "gauss",
     "discriminant 105\ncanonical [-7,7,2] [2,9,-3] [-3,9,2] [2,7,-7]\n",
     '{"input": ["78", "261", "218"], "discriminant": "105", '
     '"method": "gauss", "canonical": [["-7", "7", "2"], ["2", "9", "-3"], '
     '["-3", "9", "2"], ["2", "7", "-7"]]}\n'),
    ("78,261,218", "zagier",
     "discriminant 105\ncanonical [2,11,2] [8,13,2] [8,19,8] [2,13,8]\n",
     '{"input": ["78", "261", "218"], "discriminant": "105", '
     '"method": "zagier", "canonical": [["2", "11", "2"], ["8", "13", "2"], '
     '["8", "19", "8"], ["2", "13", "8"]]}\n'),
]


@pytest.mark.parametrize("form,method,plain,js", _CYCLE_GOLDENS)
def test_reduce_cycle_goldens(capsys, form, method, plain, js):
    assert run(["reduce", "--form", form, "--method", method]) == 0
    assert capsys.readouterr().out == plain
    assert run(["reduce", "--form", form, "--method", method, "--json"]) == 0
    assert capsys.readouterr().out == js


@pytest.mark.parametrize("form", ["1,1,1", "1,5,6"])  # D = -3 and D = 1
@pytest.mark.parametrize("method", ["gauss", "zagier"])
@pytest.mark.parametrize("js", [[], ["--json"]])
def test_reduce_cycle_domain_errors(capsys, form, method, js):
    assert run(["reduce", "--form", form, "--method", method] + js) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"domain error: {method}_step needs non-square D > 0\n"


# Python limits int/str conversions to 4,300 digits by default (3.10.7 on)

_PAST_THE_DIGIT_LIMIT = [
    ["word", "--decode", "01" * 11000, "--json"],
    ["necklace", "--decode", "0" + "01" * 11000, "--json"],
    ["reduce", "--form", "1" + "0" * 5000 + ",1,1", "--json"],
]


@pytest.mark.parametrize("argv", _PAST_THE_DIGIT_LIMIT)
def test_past_the_digit_limit(capsys, argv):
    doc = _json_out(capsys, argv)
    forms = doc.get("canonical", []) + [doc.get("form", doc.get("input"))]
    assert max(len(x) for f in forms for x in f) > 4300


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int/str digit limit")
@pytest.mark.parametrize("argv,code", [
    (["classnum", "--disc", "-23"], 0),
    (["reduce", "--form", "1,2"], 1),
    (["word", "--disc", "5"], 2),
])
def test_run_keeps_the_callers_digit_limit(capsys, argv, code):
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert run(argv) == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
    capsys.readouterr()


# Any argv: an exit code of 0, 1 or 2 with its output or message.  Values
# stay within bounds where nothing bounds the work yet (series depth and
# radius, r3's n, the size of a discriminant).

def _mostly(values, other):
    # values nine times in ten, other the tenth
    return st.integers(0, 9).flatmap(lambda i: other if i == 0 else values)


def _opt(flag, values=None):
    # a switch, or the flag with a drawn value; either may be left out
    if values is None:
        return st.sampled_from([[], [flag]])
    return st.just([]) | values.map(lambda v: [flag, str(v)])


def _req(flag, values):
    # a flag the subcommand needs, mostly given
    return _mostly(values.map(lambda v: [flag, str(v)]), st.just([]))


def _command(name, *options):
    # the subcommand and its drawn options, in a drawn order
    return st.tuples(_opt("--json"), *options).flatmap(
        lambda opts: st.permutations([o for o in opts if o]).map(
            lambda opts: [name] + [x for o in opts for x in o]))


_COEF = st.integers(-1000, 1000)
_FORM = _mostly(st.tuples(_COEF, _COEF, _COEF).map(
    lambda f: ",".join(map(str, f))), st.text("0123456789,-x ", max_size=12))
_DISC = st.integers(-10 ** 4, 10 ** 4)
_BITS = _mostly(st.text("01", max_size=40), st.text("012 ", max_size=6))
_THEOREMS = ("mik", "mt", "mt2", "sq", "sq2", "hurwitz", "eisenstein")
_ARGV = st.one_of(
    _command("reduce", _req("--form", _FORM),
             _opt("--method", st.sampled_from(
                 ("auto", "gauss", "zagier", "simple", "negative", "square",
                  "other")))),
    _command("classnum", _req("--disc", _DISC), _opt("--star"),
             _opt("--hurwitz")),
    _command("pell", _req("--disc", _DISC)),
    _command("necklace", _opt("--disc", _DISC), _opt("--decode", _BITS)),
    _command("word", _opt("--disc", _DISC), _opt("--decode", _BITS)),
    _command("river", _req("--form", _FORM)),
    _command("topograph", _req("--form", _FORM),
             _opt("--depth", st.integers(-2, 4)),
             _opt("--format", st.sampled_from(("dot", "json", "svg")))),
    _command("series", _req("--theorem", st.sampled_from(_THEOREMS)),
             _req("--disc", _DISC),
             st.integers(-2, 4).map(lambda d: ["--depth", str(d)]),
             st.integers(-10, 200).map(lambda r: ["--radius", str(r)])),
    _command("r3", _req("--n", st.integers(-10, 10 ** 4)),
             _opt("--primitive"),
             _opt("--method", st.sampled_from(("brute", "class")))),
)


@given(_ARGV)
@example(["word", "--decode", "01" * 11000, "--json"])
@example(["necklace", "--decode", "0" + "01" * 11000, "--json"])
@example(["necklace", "--decode", "01" * 11000, "--json"])
@settings(max_examples=300, deadline=None)
def test_any_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith(("usage error:", "domain error:"))
        return
    assert out.getvalue()
    if "--json" in argv:
        json.loads(out.getvalue())
