"""Committed performance snapshots of the layer benchmarks.

    python bench/snapshot.py 12 [--note TEXT]   # writes BENCH_12.json
    python bench/snapshot.py --diff BENCH_11.json BENCH_12.json

The first form runs `pytest bench/bench_*.py --benchmark-json` on this
checkout's `src/`, and writes `BENCH_<n>.json` at the repository root: the
git sha, whether `src/` or `bench/` differed from it, the note, the machine
information pytest-benchmark gathers, and for each benchmark its timing
statistics in seconds and its `extra_info`.  A benchmark's work counts
(edges, blocks, vertices, forms...) are the numeric entries of its
`extra_info`.

`--diff A B` prints, for each benchmark in both snapshots, the ratio of
B's median time to A's, and the same ratio per unit of work for every work
count both record: (B median / B work) / (A median / A work).  Below 1, B
is faster.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATS = ("median", "min", "q1", "q3", "iqr", "mean", "rounds")
NOT_WORK = {"D"}  # extra_info numbers that count no work


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def snapshot(n, note):
    files = sorted(glob.glob(os.path.join(ROOT, "bench", "bench_*.py")))
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    with tempfile.TemporaryDirectory() as tmp:
        raw = os.path.join(tmp, "raw.json")
        subprocess.run([sys.executable, "-m", "pytest", "-q",
                        "-p", "no:cacheprovider", f"--benchmark-json={raw}",
                        *files], cwd=ROOT, env=env, check=True)
        with open(raw) as f:
            run = json.load(f)
    out = os.path.join(ROOT, f"BENCH_{n}.json")
    doc = {
        "sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--", "src", "bench")),
        "note": note,
        "datetime": run["datetime"],
        "machine_info": run["machine_info"],
        "benchmarks": [{"name": b["fullname"],
                        "stats": {k: b["stats"][k] for k in STATS},
                        "extra_info": b["extra_info"]}
                       for b in run["benchmarks"]],
    }
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {out}: {len(doc['benchmarks'])} benchmarks")


def _work(bench):
    return {k: v for k, v in bench["extra_info"].items()
            if k not in NOT_WORK and not k.startswith("us_per_")
            and isinstance(v, (int, float)) and not isinstance(v, bool)
            and v > 0}


def diff(path_a, path_b):
    with open(path_a) as f:
        a = {b["name"]: b for b in json.load(f)["benchmarks"]}
    with open(path_b) as f:
        b = {x["name"]: x for x in json.load(f)["benchmarks"]}
    names = [name for name in b if name in a]
    if not names:
        print("no benchmark is in both snapshots")
        return
    width = max(len(name) for name in names)
    print(f"{'benchmark':{width}}  {'A median':>10}  {'B median':>10}  "
          f"{'B/A':>7}  per unit of work")
    for name in names:
        ta, tb = a[name]["stats"]["median"], b[name]["stats"]["median"]
        wa, wb = _work(a[name]), _work(b[name])
        units = "  ".join(f"{k} {(tb / wb[k]) / (ta / wa[k]):.3f}"
                          for k in wa if k in wb)
        print(f"{name:{width}}  {ta * 1e3:8.3f}ms  {tb * 1e3:8.3f}ms  "
              f"{tb / ta:7.3f}  {units}")
    for name in a:
        if name not in b:
            print(f"{name:{width}}  only in A")
    for name in b:
        if name not in a:
            print(f"{name:{width}}  only in B")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("n", nargs="?", help="write BENCH_<n>.json")
    p.add_argument("--note", default="", help="free text kept in the file")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                   help="compare two snapshots instead")
    ns = p.parse_args(argv)
    if ns.diff:
        diff(*ns.diff)
    elif ns.n:
        snapshot(ns.n, ns.note)
    else:
        p.error("give a snapshot number, or --diff A B")


if __name__ == "__main__":
    main()
