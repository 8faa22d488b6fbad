"""What a fresh interpreter loads.

numpy and `topoforms.series` are loaded where arrays are built, not by
`import topoforms` or by the CLI subcommands that do exact integer work
only.  The series names stay in the package namespace, resolved on first
use.  Each check runs in a fresh interpreter, since this test process has
loaded both already.
"""

import json
import os
import subprocess
import sys

import pytest

import topoforms

_SRC = os.path.dirname(os.path.dirname(topoforms.__file__))

_LAZY = ["SeriesReport", "W1", "W2", "eisenstein_check", "hurwitz_series",
         "root_product", "root_product_all", "series", "series_neg",
         "series_neg_profile", "series_pos", "series_seed", "series_square",
         "square_log_identity"]


def _fresh(code):
    """The JSON that `code` prints as its last line in a fresh interpreter
    that imports topoforms from this checkout."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


_LOADED = ("print(json.dumps(['numpy' in sys.modules, "
           "'topoforms.series' in sys.modules]))")


def test_import_loads_neither_numpy_nor_series():
    assert _fresh(f"import json, sys, topoforms\n{_LOADED}") == [False, False]


_EXACT = ["reduce --form 1,0,-24", "reduce --form -3,5,7",
          "classnum --disc -23", "classnum --disc 49", "pell --disc 13",
          "necklace --disc 13", "word --disc 49", "river --form 1,3,-1",
          "r3 --n 100", "r3 --n 100 --method class"]


@pytest.mark.parametrize("argv", _EXACT)
def test_exact_subcommands_load_neither(argv):
    code = ("import json, sys\nfrom topoforms import cli\n"
            f"assert cli.run({argv.split()!r}) == 0\n{_LOADED}")
    assert _fresh(code) == [False, False]


@pytest.mark.parametrize("argv", [None] + _EXACT)
def test_records_load_neither_dataclasses_nor_inspect(argv):
    # the result records are named tuples, which need neither
    code = "import json, sys, topoforms\n"
    if argv:
        code += ("from topoforms import cli\n"
                 f"assert cli.run({argv.split()!r}) == 0\n")
    code += ("print(json.dumps(['dataclasses' in sys.modules, "
             "'inspect' in sys.modules]))")
    assert _fresh(code) == [False, False]


def test_series_subcommand_loads_both():
    code = ("import json, sys\nfrom topoforms import cli\n"
            "assert cli.run(['series', '--theorem', 'mik', '--disc', '-20', "
            "'--depth', '2']) == 0\n" + _LOADED)
    assert _fresh(code) == [True, True]


def test_lazy_names_resolve_and_are_listed():
    code = (
        "import json, topoforms\n"
        f"lazy = {_LAZY!r}\n"
        "listed = [n in dir(topoforms) for n in lazy]\n"
        "from topoforms import *\n"
        "print(json.dumps([topoforms.__all__, listed,\n"
        "    [getattr(topoforms, n) is globals()[n] for n in lazy]]))\n")
    names, listed, same = _fresh(code)
    assert len(names) == 103 and names == sorted(set(names))
    assert set(_LAZY) <= set(names) and all(listed) and all(same)
    from topoforms import series
    assert topoforms.series is series
    assert all(getattr(topoforms, n) is getattr(series, n)
               for n in _LAZY if n != "series")
    for name in names:
        getattr(topoforms, name)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        topoforms.nonesuch


@pytest.mark.parametrize("argv", [None, "reduce --form 1,1,-1"])
def test_fractions_loads_on_first_use(argv):
    # the Hurwitz weights and values are Fractions, built where they are
    # asked for: neither the import nor an exact subcommand loads the module
    code = "import json, sys, topoforms\n"
    if argv:
        code += ("from topoforms import cli\n"
                 f"assert cli.run({argv.split()!r}) == 0\n")
    code += ("print(json.dumps(['fractions' in sys.modules]))\n")
    assert _fresh(code) == [False]
    code += ("from fractions import Fraction\n"
             "values = [topoforms.hurwitz(12), topoforms.upsilon(5),\n"
             "          topoforms.hurwitz_table(20)[3]]\n"
             "print(json.dumps([type(v) is Fraction for v in values]))\n")
    assert _fresh(code) == [True, True, True]
