"""Benchmark of the ``artifact`` library, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``artifact`` from the
checkout's ``src/`` and nothing else.  Workloads: dk_shuffle, model_maps,
homology_big, cli (see README.md in this directory).

``--trace 0`` times whole passes over the workload's ops until the ops have
taken ``--seconds`` reference seconds (see REFERENCE_S) and at least eleven
have succeeded, then checks the answers, then sets the workload up again in
fresh processes to time the set-up.
``--trace 1`` runs one untraced pass, one pass with span wrappers and one
with ring-arithmetic counters, and reports the per-layer table.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A fuller report,
including the spans of a traced run, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
SETUP_TIMEOUT_S = 120
clock = time.perf_counter

# The CPU speed of a shared host drifts by tens of percent within minutes,
# which no run length averages away.  A run therefore also times a fixed
# reference task between its ops and reports its times in reference
# seconds: wall seconds times REFERENCE_S / (mean time of one reference task
# in this run).  REFERENCE_S is the task's median time on the host the
# bounds were set on.
REFERENCE_S = 0.00035
REFERENCE_SHARE = 0.05  # reference time after each op, as a share of the op's time
SETUP_REFERENCE_S = 0.05  # reference time before and after each set-up sample

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_artifact():
    """Import ``artifact`` from this checkout's src/, or stop."""
    if not os.path.isfile(os.path.join(SRC, "artifact", "__init__.py")):
        sys.exit(f"perfbench: no artifact package under {SRC}")
    sys.path.insert(0, SRC)
    import artifact

    if os.path.dirname(os.path.dirname(os.path.abspath(artifact.__file__))) != SRC:
        sys.exit(f"perfbench: imported artifact from {artifact.__file__}, not from {SRC}")
    return artifact


def cpu_times():
    """The aggregate cpu line of /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]] if fields and fields[0] == "cpu" else None


def steal_share(before, after):
    """Share of CPU time stolen by the hypervisor between two readings."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def reference_task():
    """Fixed pure-Python work of the kind the library does (row operations
    on lists of ints, tuples, a few fractions).  It uses only the standard
    library, so no change to artifact can move it."""
    n = 12
    m = [[(i * 7 + j * 13) % 17 - 8 for j in range(n)] for i in range(n)]
    for t in range(n - 1):
        p = m[t][t] or 1
        for i in range(t + 1, n):
            q = m[i][t]
            m[i] = [(a * p - q * b) % 1000003 for a, b in zip(m[i], m[t])]
    return tuple(tuple(row) for row in m), sum(Fraction(i, i + 3) for i in range(1, 40))


class HostSpeed:
    """How slowly this host runs the reference task during a run."""

    def __init__(self):
        self.time = 0.0
        self.tasks = 0

    def sample(self, budget):
        """Time reference tasks for about ``budget`` seconds, at least one.
        One untimed task first brings the task's code and data back into
        the caches, so the op that ran before does not change its time."""
        reference_task()
        end = clock() + budget
        while True:
            t0 = clock()
            reference_task()
            t1 = clock()
            self.time += t1 - t0
            self.tasks += 1
            if t1 >= end:
                return

    @property
    def factor(self):
        """Wall seconds per reference second."""
        return self.time / self.tasks / REFERENCE_S


def run_op(fn):
    try:
        return fn(), None
    except Exception as exc:  # an op that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def judge(wl, first):
    """Check each op's first answer, outside the timed region: op index to
    failure reason, or None."""
    verdict = {}
    for i, result in first.items():
        try:
            verdict[i] = wl.check(i, result, first)
        except Exception as exc:
            verdict[i] = f"check raised {type(exc).__name__}: {exc}"
    return verdict


def tail(sorted_ms):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples beyond it, and the sample at it."""
    n = len(sorted_ms)
    idx = n - 1 - TAIL_BEYOND
    if idx < 0:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return sorted_ms[idx], 100.0 * (idx + 1) / n


def timed(wl, seconds):
    """Whole passes over the ops until ``seconds`` of op time have passed
    and more than TAIL_BEYOND ops succeeded.  Only each op's first answer
    is kept; a later answer must equal it, which is compared between ops,
    outside the timed region, so memory does not grow with the passes."""
    ops = wl.ops
    first = {}
    runs = []  # (op index, error or None)
    latencies = []
    speed = HostSpeed()
    passes = 0
    while True:
        for i, (_, fn) in enumerate(ops):
            t0 = clock()
            result, error = run_op(fn)
            latencies.append(clock() - t0)
            speed.sample(REFERENCE_SHARE * latencies[-1])
            if error is None:
                if i not in first:
                    first[i] = result
                elif result != first[i]:
                    error = "answer differs from the same op's first answer"
            runs.append((i, error))
            del result
        passes += 1
        busy = sum(latencies) / speed.factor
        ok = sum(error is None for _, error in runs)
        if busy >= seconds and ok > TAIL_BEYOND or busy >= 3 * seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.runs_in_children else resource.RUSAGE_SELF)
    t0 = clock()
    verdict = judge(wl, first)
    check_s = clock() - t0
    reasons = [error if error is not None else verdict[i] for i, error in runs]
    ok_ms = sorted(lat * 1e3 for lat, reason in zip(latencies, reasons) if reason is None)
    tail_ms, tail_pct = tail(ok_ms)
    setup_s, setup_factor = setup_time(wl)
    factor = speed.factor
    wall = {
        "ops_per_s": len(ok_ms) / sum(latencies),
        "op_p50_ms": statistics.median(ok_ms),
        "op_tail_ms": tail_ms,
        "setup_s": setup_s,
    }
    metrics = {
        "ops_per_s": wall["ops_per_s"] * factor,
        "op_p50_ms": wall["op_p50_ms"] / factor,
        "op_tail_ms": wall["op_tail_ms"] / factor,
        "setup_s": setup_s / setup_factor,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    per_op = {}
    for (i, _), lat in zip(runs, latencies):
        per_op.setdefault(ops[i][0], []).append(lat * 1e3)
    detail = {
        "wall_clock": wall,
        "host_speed_factor": factor,
        "host_speed_factor_setup": setup_factor,
        "reference_tasks": speed.tasks,
        "reference_s": speed.time,
        "per_op_ms": per_op,
        "passes": passes,
        "check_s": check_s,
        "timed_reference_s": busy,
        "samples": len(ok_ms),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": TAIL_BEYOND,
    }
    return runs, reasons, metrics, detail


def setup_time(wl):
    """Median wall time of SETUP_SAMPLES fresh processes that each start the
    interpreter, import artifact, build the inputs and warm up; and the host
    speed factor, from reference tasks timed before and after each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl.name, "--seed", str(wl.seed), "--setup-only"]
    samples = []
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample(SETUP_REFERENCE_S)
        t0 = clock()
        # output is captured so that run() waits on the pipes, not by polling
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True)
        samples.append(clock() - t0)
        speed.sample(SETUP_REFERENCE_S)
    return statistics.median(samples), speed.factor


def traced(wl, layers):
    ops = wl.ops
    wl.tracer, wl.trace_mode = layers.Tracer(), "plain"
    t0 = clock()
    plain = [(i, *run_op(fn)) for i, (_, fn) in enumerate(ops)]
    wall_plain = clock() - t0

    span = layers.Tracer()
    wl.tracer, wl.trace_mode = span, "span"
    span.install("span")
    try:
        t0 = clock()
        with_spans = []
        for i, (_, fn) in enumerate(ops):
            span.op = i
            with_spans.append((i, *run_op(fn)))
        wall_span = clock() - t0
    finally:
        span.uninstall()

    count = layers.Tracer()
    wl.tracer, wl.trace_mode = count, "count"
    count.install("count")
    try:
        t0 = clock()
        counted = [(i, *run_op(fn)) for i, (_, fn) in enumerate(ops)]
        wall_count = clock() - t0
    finally:
        count.uninstall()
    wl.tracer, wl.trace_mode = None, None

    verdict = judge(wl, {i: result for i, result, error in plain if error is None})
    reasons = [error if error is not None else verdict[i] for i, _, error in plain]
    for k, (p, s, c) in enumerate(zip(plain, with_spans, counted)):
        if reasons[k] is not None:
            continue
        if s[2] is not None or c[2] is not None:
            reasons[k] = f"traced op raised {s[2] or c[2]}"
        elif not wl.answer(p[1]) == wl.answer(s[1]) == wl.answer(c[1]):
            reasons[k] = "traced answer differs from the untraced answer"
    metrics = {name: 0 for name, _ in layers.PER_LAYER}
    metrics.update(layers.summarize(span, count))
    metrics.update(wl.layer_extras())
    metrics["trace.overhead_s"] = wall_span - wall_plain
    detail = {
        "wall_untraced_s": wall_plain,
        "wall_span_pass_s": wall_span,
        "wall_count_pass_s": wall_count,
        "span_count": len(span.spans),
        "spans": span.spans,
    }
    return [(i, error) for i, _, error in plain], reasons, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="build the inputs, warm up and exit")
    args = parser.parse_args(argv)

    load_artifact()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    cpu_before = cpu_times()
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        wl.warm_up()
        if args.setup_only:
            return 0
        if args.trace:
            runs, reasons, metrics, detail = traced(wl, layers)
            units = dict(layers.PER_LAYER)
        else:
            runs, reasons, metrics, detail = timed(wl, args.seconds)
            units = dict(END_TO_END)
        cpu_after = cpu_times()
        failures = [
            {"op": wl.ops[i][0], "reason": reason, "known_defect": wl.is_known_defect(i)}
            for (i, _), reason in zip(runs, reasons)
            if reason is not None
        ]
        attempted = len(runs)
        correct = all(f["known_defect"] for f in failures)
        report = {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_steal_share": steal_share(cpu_before, cpu_after),
            "proc_stat_cpu_before": cpu_before,
            "proc_stat_cpu_after": cpu_after,
            "description": wl.describe(),
            "attempted": attempted,
            "failed": len(failures),
            "fail_ratio": len(failures) / attempted,
            "failures": failures[:50],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            "detail": detail,
        }
    finally:
        wl.close()

    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    print(f"workload {args.workload}  seed {args.seed}  python {report['python']}  nproc {report['nproc']}")
    steal = report["cpu_steal_share"]
    print(f"cpu steal share during run: {'n/a' if steal is None else f'{steal:.4f}'}")
    for name, unit in units.items():
        print(f"  {name:56s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'fail_ratio':56s} {report['fail_ratio']:>16.6g} ratio ({len(failures)} of {attempted})")
    if not args.trace:
        print(f"  op_tail_ms is p{detail['op_tail_percentile']:.2f} of {detail['samples']} samples, {TAIL_BEYOND} beyond it")
        print(f"  times above are in reference seconds; host speed factor {detail['host_speed_factor']:.4f} (wall s per reference s)")
        for name, value in detail["wall_clock"].items():
            print(f"  {'wall-clock ' + name:56s} {value:>16.6g} {units[name]}")
    for f in failures[:5]:
        print(f"  failed: {f['op']}: {f['reason']}" + ("  [known defect]" if f["known_defect"] else ""))
    print(f"report: {os.path.relpath(path)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
