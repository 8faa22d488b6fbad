"""Benchmark of the topoforms library: one process, one closed-loop caller.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --repeat 10

A single run builds the workload's inputs from the seed, checks every
output against the oracles in perfbench/oracles.py, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics (and the
tracing overhead) with --trace 1.  --repeat runs every workload k times in
fresh processes and prints the median, quartiles and spread of each metric.
See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("queries", "rivers", "census", "series")
SETUP_SAMPLES = 11  # at least, spread over the run
SETUP_GAP_S = 1.5
# the child times its own import, so that process spawn, interpreter
# start-up and exit are left out
IMPORT_SNIPPET = ("import sys, time; t0 = time.perf_counter(); "
                  "sys.path.insert(0, 'src'); import topoforms; "
                  "print(time.perf_counter() - t0)")


def load_library():
    """Import topoforms from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "topoforms", "__init__.py")):
        sys.exit(f"perfbench: no topoforms package under {SRC}")
    sys.path.insert(0, SRC)
    import topoforms

    if not os.path.abspath(topoforms.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported topoforms from {topoforms.__file__}")
    return topoforms


class SetupTimer:
    """Time a fresh interpreter takes to import topoforms, sampled every
    SETUP_GAP_S between passes, so that the median spans the whole run."""

    def __init__(self):
        self.samples = []
        self.last = None

    def sample(self):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                             check=True, capture_output=True, text=True)
        self.last = time.perf_counter()
        self.samples.append(float(out.stdout))

    def between_passes(self):
        if self.last is None or time.perf_counter() - self.last >= SETUP_GAP_S:
            self.sample()

    def median(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def sympy_cross_check(discs):
    """The oracle's Pell solutions against sympy's diop_DN, computed in a
    child process so that sympy stays out of this one's memory.  Returns
    the list of disagreements, or None when sympy is not installed."""
    import oracles

    if not discs:
        return []
    out = subprocess.run([sys.executable, os.path.join(HERE, "sympy_pell.py")]
                         + [str(D) for D in discs],
                         cwd=ROOT, check=True, capture_output=True, text=True)
    got = json.loads(out.stdout)
    if got is None:
        return None
    bad = []
    for D in discs:
        plus, minus = oracles.pell_units(D)
        want = [list(plus), None if minus is None else list(minus)]
        if got[str(D)] != want:
            bad.append(D)
    return bad


def build(name, seed, lib):
    import workloads

    rng = random.Random(f"{name}:{seed}")
    return workloads.BY_NAME[name](rng, lib)


def write_result(name, seed, trace, doc, tracer=None):
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(doc, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.jsonl", "w") as fh:
            for sid, op, label, t0, t1, parent, work, ref in tracer.spans:
                layer, function = label.split(".")[:2]
                fh.write(json.dumps({"span": sid, "op": op, "layer": layer,
                                     "function": function, "start": t0, "end": t1,
                                     "parent": parent, "work": work,
                                     "ref": ref}) + "\n")


def single_run(args):
    lib = load_library()
    sys.path.insert(0, HERE)
    import harness
    import workloads

    ops, pell_discs = build(args.workload, args.seed, lib)
    # the benchmark's own inputs and expected outputs live as long as the
    # run; keep them out of the collections the library's calls trigger
    gc.collect()
    gc.freeze()
    notes = []
    bad = sympy_cross_check(pell_discs)
    if bad is None:
        notes.append("sympy not installed: Pell oracle not cross-checked")
    oracle_ok = not bad

    m = harness.Measurement(ops, workloads.TAIL_PCT[args.workload])
    tracer = harness.Tracer() if args.trace else None
    setup = SetupTimer()
    m.run(args.seconds, tracer, None if args.trace else setup.between_passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        # labels this workload never calls are measured on one traced pass
        # over the operations of the workloads that do call them
        seen = {lab for op in ops for lab in op.labels}
        probe = harness.Tally()
        for other in WORKLOADS:
            if other == args.workload:
                continue
            extra = [op for op in build(other, args.seed, lib)[0]
                     if not op.known_fault and set(op.labels) - seen]
            if extra:
                seen.update(lab for op in extra for lab in op.labels)
                harness.run_pass(extra, probe, tracer, first_id=tracer.next_id)
        layer = harness.per_layer(tracer)
        metrics = {name: {"value": v, "unit": "ref/" + name.split(".")[2][4:]
                          .replace("river_", "")}
                   for name, v in sorted(layer.items())}
        metrics["trace.overhead.pct"] = {"value": m.trace_overhead_pct(), "unit": "%"}
        unexpected = m.tally.unexpected + probe.unexpected
        for name, v in sorted(layer.items()):
            print(f"{name:52s} {v:.6g} {metrics[name]['unit']}")
        print(f"tracing overhead {metrics['trace.overhead.pct']['value']:.2f}% "
              f"over {len(m.jobs)} alternating passes; {len(tracer.spans)} spans")
    else:
        e2e = m.end_to_end()
        ref_s = statistics.median(m.refs)
        metrics = {name: {"value": v, "unit": "ref"} for name, (v, _) in e2e.items()}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        setup_s = setup.median()
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        unexpected = m.tally.unexpected
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
              f"{len(m.jobs)} passes, reference loop {ref_s * 1e3:.3f} ms (median)")
        for name, (v, raw) in e2e.items():
            print(f"{name:12s} {v:.6g} ref   (raw {raw:.6g} s)")
        print(f"op_tail is p{m.tail_pct} of {len(m.cal)} operation samples")
        print(f"peak_rss_mb  {rss_mb:.1f} MB\nsetup_s      {setup_s:.4f} s "
              f"(median of {len(setup.samples)} imports)")
    for line in notes + unexpected:
        print("note:", line)
    if bad:
        print("note: the Pell oracle disagrees with sympy at", bad)
    doc = {"correct": oracle_ok and not unexpected, "attempted": m.tally.attempted,
           "failed": m.tally.failed, "metrics": metrics}
    write_result(args.workload, args.seed, int(args.trace), doc, tracer)
    print(json.dumps(doc))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def repeat(args):
    """Each workload k times in fresh processes, the order alternating
    between rounds; seeds seed, seed+1, ..."""
    names = list(WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    runs = {name: [] for name in names}
    for i in range(args.repeat):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed + i), "--seconds", str(seconds),
                   "--trace", str(int(args.trace))]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stdout, out.stderr, sep="\n")
                sys.exit(f"perfbench: run {name} seed {args.seed + i} failed")
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            runs[name].append(doc)
            print(f"round {i} {name}: correct={doc['correct']} attempted="
                  f"{doc['attempted']} failed={doc['failed']}", flush=True)
    summary = {}
    for name in names:
        docs = runs[name]
        shares = sorted({d["failed"] / d["attempted"] for d in docs})
        print(f"\n{name}: attempted {[d['attempted'] for d in docs]}, "
              f"failed {[d['failed'] for d in docs]}, failed share {shares}, "
              f"all correct {all(d['correct'] for d in docs)}")
        summary[name] = {}
        for metric in docs[0]["metrics"]:
            vals = [d["metrics"][metric]["value"] for d in docs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = ("within bound/3" if spread <= bound / 3
                           else "within bound" if spread <= bound else "OVER bound")
            print(f"  {metric:52s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3%}  {verdict}")
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "values": vals}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, time.strftime("repeat-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print("\nsummary written to", os.path.relpath(path, ROOT))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run every workload this many times in fresh processes")
    args = p.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = 20
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
