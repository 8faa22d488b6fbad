"""Every layer benchmark file collects: a bench file that an API change
broke fails the tests, not only the next snapshot.

It runs `pytest bench --collect-only` in a subprocess, with the library
from `src/`, and asks each `bench/bench_*.py` for at least one benchmark.
"""

import glob
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_bench_file_collects_a_benchmark():
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "--collect-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    collected = Counter(os.path.basename(line.split("::")[0])
                        for line in out.stdout.splitlines() if "::" in line)
    files = [os.path.basename(f)
             for f in glob.glob(os.path.join(ROOT, "bench", "bench_*.py"))]
    assert files
    assert all(collected[f] > 0 for f in files), (files, collected)
