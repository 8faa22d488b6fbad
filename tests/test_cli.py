import json

import pytest

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
