"""End-to-end benchmarks of the command line, for pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_cli.py \
        --benchmark-json=out.json

The file name keeps these out of the tier-1 test run.  Each case runs
`cli.run(argv)` in process, with stdout and stderr captured, on one
subcommand per regime: a definite reduction, class numbers of a negative
and of a non-square positive discriminant (the latter walks every class
river), a Pell solution, a river, a series theorem and a sum-of-three-
squares count.  `test_cli_subprocess` runs `python -m topoforms.cli
classnum --disc -23` in a fresh interpreter, so its time includes the
interpreter's start-up and the package's imports; `test_cli_startup` does
the same for a subcommand of exact integer work (`reduce`), one that loads
numpy (`series`) and a bare `python -c "import topoforms"`.  Every case
records its argv and exit code in `extra_info`.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from topoforms import cli

CASES = [
    ["reduce", "--form", "47,-36,7"],
    ["classnum", "--disc", "-23"],
    ["classnum", "--disc", "1000001"],
    ["pell", "--disc", "1003033"],
    ["river", "--form", "1,0,-24"],
    ["series", "--theorem", "mik", "--disc", "-20", "--depth", "8"],
    ["r3", "--n", "1000"],
]


def _quiet_run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
def test_cli_run(benchmark, argv):
    code = benchmark.pedantic(_quiet_run, (argv,), rounds=5, iterations=1,
                              warmup_rounds=1)
    benchmark.extra_info.update({"argv": argv, "exit_code": code})
    assert code == 0


def _subprocess(benchmark, args):
    # includes interpreter start-up and imports
    argv = [sys.executable, *args]
    # the library this process imported, whichever checkout it came from
    path = [os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def once():
        return subprocess.run(argv, env=env, capture_output=True).returncode

    code = benchmark.pedantic(once, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update({"argv": argv[1:], "exit_code": code,
                                 "includes": "interpreter start-up"})
    assert code == 0


def test_cli_subprocess(benchmark):
    _subprocess(benchmark, ["-m", "topoforms.cli", "classnum", "--disc",
                            "-23"])


STARTUP_CASES = [
    ["-m", "topoforms.cli", "reduce", "--form", "47,-36,7"],
    ["-m", "topoforms.cli", "series", "--theorem", "mik", "--disc", "-20",
     "--depth", "8"],
    ["-c", "import topoforms"],
]


@pytest.mark.parametrize("args", STARTUP_CASES,
                         ids=lambda args: " ".join(args[1:]))
def test_cli_startup(benchmark, args):
    _subprocess(benchmark, args)
