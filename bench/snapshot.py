"""Committed performance snapshots of the layer benchmarks.

    python bench/snapshot.py 12 [--note TEXT]   # writes BENCH_12.json
    python bench/snapshot.py 16 --against HEAD~1 [--rounds 5]
    python bench/snapshot.py --diff BENCH_11.json BENCH_12.json

The first form runs `pytest bench/bench_*.py --benchmark-json` on this
checkout's `src/`, and writes `BENCH_<n>.json` at the repository root: the
git sha, whether `src/` or `bench/` differed from it, the note, the machine
information pytest-benchmark gathers, and for each benchmark its timing
statistics in seconds and its `extra_info`.  A benchmark's work counts
(edges, blocks, vertices, forms...) are the numeric entries of its
`extra_info`.

`--against REV` makes the snapshot paired.  REV's committed files are
exported with `git archive` into a temporary directory, and each bench file
of this checkout runs on this checkout's `src/` and on REV's, alternately,
for k rounds (`--rounds`), each run in a fresh subprocess; the side that
runs first swaps every round.  A benchmark's `stats` then summarize its
per-round medians on this checkout (`min` is the least time of any round),
and `paired` holds REV's median and quartiles of its per-round medians, the
ratio of the two medians, the rounds this checkout was faster in (`won` of
`pairs`), and the ratio per unit of every work count both record.  Against
this checkout's own commit (an A/A run), the ratios show the noise floor.

`--diff A B` prints, for each benchmark in both snapshots, the ratio of
B's median time to A's, and the same ratio per unit of work for every work
count both record: (B median / B work) / (A median / A work).  Below 1, B
is faster.  Where B is paired, it also prints B's paired ratio and pairs
won.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from statistics import fmean, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATS = ("median", "min", "q1", "q3", "iqr", "mean", "rounds")
NOT_WORK = {"D"}  # extra_info numbers that count no work


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _bench_files():
    return sorted(glob.glob(os.path.join(ROOT, "bench", "bench_*.py")))


def _pytest(src, files, **run):
    # pytest-benchmark's report of `files` run on the library in `src`
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    with tempfile.TemporaryDirectory() as tmp:
        raw = os.path.join(tmp, "raw.json")
        subprocess.run([sys.executable, "-m", "pytest", "-q",
                        "-p", "no:cacheprovider", f"--benchmark-json={raw}",
                        *files], cwd=ROOT, env=env, check=True, **run)
        with open(raw) as f:
            return json.load(f)


def _write(n, note, run, benchmarks, **extra):
    out = os.path.join(ROOT, f"BENCH_{n}.json")
    doc = {
        "sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--", "src", "bench")),
        "note": note,
        **extra,
        "datetime": run["datetime"],
        "machine_info": run["machine_info"],
        "benchmarks": benchmarks,
    }
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {out}: {len(benchmarks)} benchmarks")


def snapshot(n, note):
    run = _pytest(os.path.join(ROOT, "src"), _bench_files())
    _write(n, note, run, [{"name": b["fullname"],
                           "stats": {k: b["stats"][k] for k in STATS},
                           "extra_info": b["extra_info"]}
                          for b in run["benchmarks"]])


def _paired(runs, base):
    # this checkout's stats over its rounds, and the pairing with REV's
    medians = [b["stats"]["median"] for b in runs]
    q1, median, q3 = quantiles(medians, n=4, method="inclusive")
    out = {"name": runs[0]["fullname"],
           "stats": {"median": median,
                     "min": min(b["stats"]["min"] for b in runs),
                     "q1": q1, "q3": q3, "iqr": q3 - q1,
                     "mean": fmean(medians),
                     "rounds": sum(b["stats"]["rounds"] for b in runs)},
           "extra_info": runs[-1]["extra_info"]}
    if base:
        base_medians = [b["stats"]["median"] for b in base]
        bq1, bmedian, bq3 = quantiles(base_medians, n=4, method="inclusive")
        wa, wb = _work(base[-1]), _work(runs[-1])
        out["paired"] = {
            "base_median": bmedian, "base_q1": bq1, "base_q3": bq3,
            "ratio": median / bmedian,
            "won": sum(x < y for x, y in zip(medians, base_medians)),
            "pairs": min(len(medians), len(base_medians)),
            "per_work": {k: (median / wb[k]) / (bmedian / wa[k])
                         for k in wa if k in wb}}
    return out


def paired_snapshot(n, note, rev, rounds):
    sha = _git("rev-parse", "--verify", rev + "^{commit}")
    got = {"this": defaultdict(list), "base": defaultdict(list)}
    with tempfile.TemporaryDirectory() as tree:
        tar = os.path.join(tree, "rev.tar")
        _git("archive", "-o", tar, sha)
        with tarfile.open(tar) as t:
            t.extractall(tree)
        sides = [("this", os.path.join(ROOT, "src")),
                 ("base", os.path.join(tree, "src"))]
        for i in range(rounds):
            for path in _bench_files():
                for side, src in sides[::-1] if i % 2 else sides:
                    run = _pytest(src, [path], stdout=subprocess.DEVNULL)
                    for b in run["benchmarks"]:
                        got[side][b["fullname"]].append(b)
            print(f"round {i + 1} of {rounds} done", flush=True)
    benchmarks = [_paired(runs, got["base"].get(name))
                  for name, runs in got["this"].items()]
    _write(n, note, run, benchmarks,
           against={"rev": rev, "sha": sha, "rounds": rounds})


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
        pair = b[name].get("paired")
        if pair:
            units += (f"  paired {pair['ratio']:.3f} won {pair['won']}"
                      f"/{pair['pairs']}")
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
    p.add_argument("--against", metavar="REV",
                   help="pair each benchmark with its run on commit REV")
    p.add_argument("--rounds", type=int, default=5,
                   help="rounds of a paired snapshot (default 5)")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                   help="compare two snapshots instead")
    ns = p.parse_args(argv)
    if ns.rounds < 2:
        p.error("--rounds needs at least 2 rounds")
    if ns.diff:
        diff(*ns.diff)
    elif ns.n and ns.against:
        paired_snapshot(ns.n, ns.note, ns.against, ns.rounds)
    elif ns.n:
        snapshot(ns.n, ns.note)
    else:
        p.error("give a snapshot number, or --diff A B")


if __name__ == "__main__":
    main()
