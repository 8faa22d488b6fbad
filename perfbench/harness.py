"""The measurement loop: whole passes over a workload's operations, with a
fixed reference loop timed between operations at least every 50 ms of work,
and one span per call into the library when tracing."""

import math
import statistics
from time import perf_counter

REF_ITERATIONS = 1000
REF_GAP_S = 0.05  # at most this much work between two reference timings
_BIG = (1 << 1000) + 12345


def reference_loop():
    """Pure-Python work of the kinds the library does: small-integer
    arithmetic, 1000-bit products and remainders, tuples, list churn and
    function calls.  It never changes, so its time measures the host."""
    x = 3
    acc = 0
    lst = []
    for i in range(REF_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        y = (_BIG * x) % (_BIG - i)
        lst.append((x, y & 0xFFFF))
        if len(lst) >= 512:
            lst.clear()
        acc += _mix((x, i, x ^ i))
    return acc


def _mix(t):
    return t[0] % 7 + t[2] % 5


def time_reference():
    """Fastest of three timings of the reference loop: a timing that the
    scheduler interrupted says nothing about the host's speed."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best


class Op:
    """One operation: `run(call)` makes the calls into the library through
    `call(label, work, fn, *args)` and returns what they gave, where `work`
    counts the call's units of work, or reads them off its result; `check`
    returns True when that output is right.  `known_fault` marks an
    operation whose output is wrong because of a named fault in the
    library: it counts as failed without making the run incorrect."""

    __slots__ = ("kind", "labels", "run", "check", "known_fault")

    def __init__(self, kind, labels, run, check, known_fault=False):
        self.kind = kind
        self.labels = tuple(labels)
        self.run = run
        self.check = check
        self.known_fault = known_fault


def direct(label, work, fn, *args):
    return fn(*args)


class Tracer:
    """Spans kept in memory: [span, op, label, start, end, parent, work,
    ref], where ref is the reference-loop time of the span's segment.  An
    operation's own span has the label `bench.<kind>` and is the parent of
    the spans of its calls."""

    def __init__(self):
        self.spans = []
        self.open = []  # spans whose segment has not closed yet
        self.next_id = 0
        self.op_id = None
        self.parent = None

    def begin(self, op_id):
        self.op_id = op_id
        self.parent = self.next_id
        self.next_id += 1

    def end(self, kind, t0, t1):
        self._add([self.parent, self.op_id, "bench." + kind, t0, t1, None, 1, None])

    def call(self, label, work, fn, *args):
        t0 = perf_counter()
        res = fn(*args)
        t1 = perf_counter()
        if callable(work):
            work = work(res)
        self._add([self.next_id, self.op_id, label, t0, t1, self.parent, work, None])
        self.next_id += 1
        return res

    def _add(self, span):
        self.spans.append(span)
        self.open.append(span)

    def close_segment(self, ref):
        for span in self.open:
            span[7] = ref
        self.open = []


class Tally:
    """Operations attempted and failed, and the unexpected failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, op, ok, err):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not op.known_fault and len(self.unexpected) < 20:
            why = f"{type(err).__name__}: {err}" if err else "wrong output"
            self.unexpected.append(f"{op.kind}: {why}")


def run_pass(ops, tally, tracer=None, first_id=0):
    """Run every operation once, checking each output as soon as it is
    made.  The reference loop is timed before the first operation and then
    whenever REF_GAP_S has passed, and each operation is calibrated by the
    mean of the two timings around its segment.  Returns the raw seconds
    and the calibrated time of every operation, and the reference timings."""
    call = tracer.call if tracer else direct
    raw = []
    cal = []
    ref_before = time_reference()
    refs = [ref_before]
    seg_start = perf_counter()
    seg = 0  # index of the first operation of the open segment
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin(first_id + i)
        err = None
        res = None
        t0 = perf_counter()
        try:
            res = op.run(call)
        except Exception as exc:  # a raising call is a failed operation
            err = exc
        t1 = perf_counter()
        if tracer:
            tracer.end(op.kind, t0, t1)
        raw.append(t1 - t0)
        ok = False
        if err is None:
            try:
                ok = bool(op.check(res))
            except Exception as exc:  # a check that cannot read the output
                err = exc
        tally.record(op, ok, err)
        del res
        if perf_counter() - seg_start >= REF_GAP_S or i == len(ops) - 1:
            ref_after = time_reference()
            refs.append(ref_after)
            ref = (ref_before + ref_after) / 2
            cal.extend(t / ref for t in raw[seg:])
            if tracer:
                tracer.close_segment(ref)
            ref_before = ref_after
            seg_start = perf_counter()
            seg = i + 1
    return raw, cal, refs


def nearest_rank(values, pct):
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


class Measurement:
    """Passes of one workload for at least `seconds`, and until the tail
    percentile has ten samples beyond it."""

    def __init__(self, ops, tail_pct):
        self.ops = ops
        self.tail_pct = tail_pct
        self.tally = Tally()
        self.jobs = []  # (raw seconds, calibrated, traced) per pass
        self.raw = []  # raw seconds of every untraced operation
        self.cal = []  # calibrated time of every untraced operation
        self.refs = []  # every reference timing, in seconds

    def min_samples(self):
        return math.ceil(10 / (1 - self.tail_pct / 100)) + 1

    def run(self, seconds, tracer=None, between=None):
        """Untraced passes; with a tracer, untraced and traced passes
        alternate so that the tracing overhead is measured in one run.
        `between()`, when given, runs after every pass, inside the time."""
        start = perf_counter()
        while True:
            traced = tracer is not None and len(self.jobs) % 2 == 1
            raw, cal, refs = run_pass(self.ops, self.tally, tracer if traced else None,
                                      first_id=len(self.jobs) * len(self.ops))
            self.refs.extend(refs)
            self.jobs.append((sum(raw), sum(cal), traced))
            if not traced:
                self.raw.extend(raw)
                self.cal.extend(cal)
            if between is not None:
                between()
            done = perf_counter() - start >= seconds
            enough = len(self.cal) >= self.min_samples()
            if tracer is not None:
                enough = enough and len(self.jobs) >= 4
            if done and enough:
                return

    def end_to_end(self):
        """Calibrated job time, median and tail operation times, each with
        its raw seconds."""
        untraced = [(raw, cal) for raw, cal, tr in self.jobs if not tr]
        return {
            "job_time": (statistics.median(c for _, c in untraced),
                         statistics.median(r for r, _ in untraced)),
            "op_p50": (statistics.median(self.cal), statistics.median(self.raw)),
            "op_tail": (nearest_rank(self.cal, self.tail_pct),
                        nearest_rank(self.raw, self.tail_pct)),
        }

    def trace_overhead_pct(self):
        plain = statistics.median(c for _, c, tr in self.jobs if not tr)
        traced = statistics.median(c for _, c, tr in self.jobs if tr)
        return 100 * (traced / plain - 1)


def per_layer(tracer):
    """Calibrated time per unit of work for every call label: the sum over
    its spans of span time over the segment's reference time, divided by
    the sum of their work counts."""
    time_sum = {}
    work_sum = {}
    for _, _, label, t0, t1, parent, work, ref in tracer.spans:
        if parent is None:
            continue
        time_sum[label] = time_sum.get(label, 0.0) + (t1 - t0) / ref
        work_sum[label] = work_sum.get(label, 0) + work
    return {label: time_sum[label] / work_sum[label] for label in time_sum
            if work_sum[label] > 0}
