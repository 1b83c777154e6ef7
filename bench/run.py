"""The shiftlab benchmark: four closed-loop workloads, one command.

    python3 bench/run.py --workload corpus|stress|resolve|paper \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; the library is imported from ./src and
nothing needs building.  The workloads and why each was chosen are described
in workloads.py.  A run sets the workload up several times (reporting the
median set-up time), computes the oracle references, then runs passes over
the workload's operations, one operation at a time, for --seconds seconds
(at least one whole pass).  Every operation has a wall-clock budget and is
checked against its oracle outside its timing; one that raises, exceeds its
budget or misses its oracle counts as failed.

The run and its CLI children are pinned to one core.  Reported times are
wall-clock times scaled for that core's speed while they were taken (see
speed.py): the time on the reference machine when quiet.  End to end:

    setup_s      median set-up time: import shiftlab, load or generate inputs
    peak_rss_mb  peak resident memory of this process after the timed passes
    pass_s       one pass over the workload's operations: the sum over its
                 operations of each one's median time
    op_p50_ms    the median over the workload's operations of their medians

With --trace 0 the end-to-end metrics are measured untraced.  With --trace 1
untraced and traced passes alternate: traced passes wrap the library's public
functions (see tracing.py) and give the per-layer metrics, and the ratio of
traced to untraced pass time is reported as the tracing overhead.

Human-readable lines and a ``record`` line (the metrics plus the git sha,
Python version, CPU model, CPU count and seed) come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The record is also appended to .bench_results/<workload>.jsonl,
and a traced run writes the spans of its last traced pass that lasted at
least a millisecond to .bench_results/<workload>-seed<seed>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict

import speed
import tracing
import workloads

RESULTS = os.path.join(workloads.ROOT, ".bench_results")
# (name, unit) of every end-to-end metric, in report order
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s"), ("op_p50_ms", "ms")]
MIN_SETUPS, MIN_SETUP_S, MAX_SETUPS = 3, 1.0, 25
SPAN_MIN_S = 0.001


class OpTimeout(BaseException):
    """An operation ran past its budget.  A BaseException, so that library
    code catching Exception cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


def timed_call(fn, budget: float):
    """Run fn under a wall-clock budget: (start, end, output, error or None)."""
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except OpTimeout:
        out, err = None, f"exceeded its {budget:g} s budget"
    except Exception as exc:  # a raising operation is a failed one, not a dead run
        out, err = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return t0, time.perf_counter(), out, err


def fresh_import():
    """Import shiftlab from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "shiftlab" or n.startswith("shiftlab.")]:
        del sys.modules[name]
    return importlib.import_module("shiftlab")


def scale_times(layers: dict, factor: float) -> dict:
    """Per-layer metrics with their times (names ending in _s) scaled."""
    return {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}


class Measurement:
    """Everything one run measured.  Each timing is kept as (start, end,
    seconds less the speed probe's sampling) until finish() scales it."""

    def __init__(self):
        self.probe = speed.SpeedProbe()
        self.setups: list[tuple] = []  # (t0, t1, seconds, layers or None)
        self.passes: list[tuple] = []  # (traced, whole, [(key, t0, t1, seconds)], layers)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans: list[tuple] = []  # of the last traced pass

    def timed(self, fn, budget: float):
        """timed_call, with the seconds spent outside the probe's sampling."""
        spent = self.probe.spent
        t0, t1, out, err = timed_call(fn, budget)
        return t0, t1, (t1 - t0) - (self.probe.spent - spent), out, err

    def judge(self, workload, key, out, err) -> None:
        self.attempted += 1
        if err is None:
            try:
                err = workload.check(key, out)
            except Exception as exc:  # a malformed output misses its oracle
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failed += 1
            self.problems.append(f"{key}: {err}")

    def finish(self) -> None:
        """Scale every timing by the machine's speed while it ran."""
        scale = self.probe.scale
        self.setup_s = [s * scale(t0, t1) for t0, t1, s, _ in self.setups]
        self.setup_layers = [scale_times(layers, scale(t0, t1))
                             for t0, t1, _, layers in self.setups if layers is not None]
        self.samples: dict = defaultdict(list)  # op key -> scaled seconds
        self.raw: dict = defaultdict(list)  # op key -> wall seconds
        self.pass_totals: dict = {False: [], True: []}  # traced? -> scaled pass seconds
        self.layers: list[dict] = []  # per traced pass
        for traced, whole, ops, layers in self.passes:
            total = raw_total = 0.0
            for key, t0, t1, s in ops:
                scaled = s * scale(t0, t1)
                self.samples[key].append(scaled)
                self.raw[key].append(s)
                total += scaled
                raw_total += s
            if whole:
                self.pass_totals[traced].append(total)
            if layers is not None:
                self.layers.append(scale_times(layers, total / raw_total))


def run_setups(workload, seed: int, m: Measurement, tracer=None) -> None:
    """Set the workload up until MIN_SETUPS runs and MIN_SETUP_S seconds are
    reached, recording each set-up's timing (and layers, when traced)."""
    total = 0.0
    while len(m.setups) < MIN_SETUPS or (total < MIN_SETUP_S and len(m.setups) < MAX_SETUPS):
        spent = m.probe.spent
        t0 = time.perf_counter()
        sl = fresh_import()
        if tracer is not None:
            tracer.clear()
            tracer.install()
        try:
            workload.setup(sl, seed)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        layers = tracer.layer_metrics() if tracer is not None else None
        m.setups.append((t0, t1, (t1 - t0) - (m.probe.spent - spent), layers))
        total += t1 - t0


def run_pass(workload, m: Measurement, deadline=None, tracer=None) -> bool:
    """One pass over the workload's operations; False if cut at the deadline.
    Outputs of a traced pass are checked after the tracer is removed."""
    timed, pending, whole = [], [], True
    if tracer is not None:
        tracer.clear()
        tracer.install()
    try:
        ops = workload.ops()  # after install, so the operations bind the wrappers
        for n, (key, fn) in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                whole = False
                break
            if tracer is not None:
                tracer.op = n
            m.probe.refresh()
            t0, t1, seconds, out, err = m.timed(fn, workload.budget_s)
            timed.append((key, t0, t1, seconds))
            if tracer is None:
                m.judge(workload, key, out, err)
            else:
                pending.append((key, out, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
    m.probe.refresh()
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        m.spans = tracer.spans(SPAN_MIN_S)
        tracer.clear()
        for key, out, err in pending:
            m.judge(workload, key, out, err)
    m.passes.append((tracer is not None, whole, timed, layers))
    return whole


def measure(workload, seconds: float, m: Measurement, tracer=None) -> None:
    """Passes until `seconds` have gone and at least one whole pass (with a
    tracer: one untraced and one traced pass) is done.  Untraced runs cut the
    last pass at the deadline; traced runs keep every pass whole."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        cut = deadline if tracer is None and passes else None
        if not run_pass(workload, m, cut, tracer if traced else None):
            break
        passes += 1
        if time.perf_counter() >= deadline and (tracer is None or passes >= 2):
            break


def medians(samples: dict) -> dict:
    return {k: statistics.median(v) for k, v in samples.items()}


def end_to_end(m: Measurement, peak_mb: float, med: dict) -> dict:
    return {
        "setup_s": statistics.median(m.setup_s),
        "peak_rss_mb": peak_mb,
        "pass_s": sum(med.values()),
        "op_p50_ms": statistics.median(med.values()) * 1e3,
    }


def cli_metrics(m: Measurement) -> dict:
    """Wall time of each CLI subcommand in one pass, from the paper workload's
    child calls (zero where a workload makes none)."""
    med = {k: v * 1e3 for k, v in medians(m.samples).items()
           if isinstance(k, str) and k.startswith("cli ")}
    out = {"cli.import_ms": med.get("cli import", 0.0)}
    for name, unit, _ in tracing.LAYER_METRICS:
        if name.endswith(".wall_ms"):
            sub = name[len("cli."):-len(".wall_ms")]
            out[name] = sum(v for k, v in med.items() if k.split()[1] == sub)
    return out


def per_layer(m: Measurement) -> dict:
    out = {}
    for name, _, _ in tracing.LAYER_METRICS:
        if name.startswith(("cli.", "trace.")):
            continue
        out[name] = (statistics.median(s[name] for s in m.setup_layers)
                     + statistics.median(p[name] for p in m.layers))
    out.update(cli_metrics(m))
    out["trace.overhead_ratio"] = (
        statistics.median(m.pass_totals[True]) / statistics.median(m.pass_totals[False]) - 1)
    return out


def git_sha() -> str:
    git = os.path.join(workloads.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run(args) -> dict:
    """Run one workload; the result record (stamp, metrics, counts)."""
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    # one core for the run and its CLI children, so that the speed probe
    # samples the core that does the work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    m = Measurement()
    m.probe.start()
    try:
        run_setups(workload, args.seed, m, tracer)
        workload.prepare()
        measure(workload, args.seconds, m, tracer)
    finally:
        m.probe.stop()
    m.finish()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = stamp(args)
    record.update(attempted=m.attempted, failed=m.failed, problems=m.problems[:20],
                  passes=len(m.pass_totals[False]) + len(m.pass_totals[True]),
                  slowdown=m.probe.slowdown())
    if tracer is None:
        med = medians(m.samples)
        e2e = end_to_end(m, peak_mb, med)
        record["end_to_end"] = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
        record["end_to_end"]["fail_ratio"] = {"value": m.failed / m.attempted, "unit": "1"}
        named = workload.named_metrics(med)
        record["named"] = {n: {"value": v, "unit": u} for n, (v, u) in named.items()}
        record["raw_pass_s"] = sum(medians(m.raw).values())
    else:
        layers = per_layer(m)
        record["per_layer"] = {n: {"value": layers[n], "unit": u} for n, u, _ in tracing.LAYER_METRICS}
        record["spans"] = m.spans
    return record


def write_results(record: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    spans = record.pop("spans", None)
    with open(os.path.join(RESULTS, f"{record['workload']}.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if spans is not None:
        name = f"{record['workload']}-seed{record['seed']}.spans.jsonl"
        with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op"]) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def report(record: dict) -> dict:
    """Print the human-readable lines and return the final result object."""
    print(f"# shiftlab benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {record['trace']}, {record['passes']} passes, "
          f"{record['attempted']} operations, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    sections = ("end_to_end", "named") if "end_to_end" in record else ("per_layer",)
    for section in sections:
        for name, mv in record[section].items():
            print(f"{name:40s} {mv['value']:>16.6g} {mv['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    metrics = record.get("per_layer") or {n: record["end_to_end"][n] for n, _ in END_TO_END}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.CORPUS_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(workloads.SRC, "shiftlab")):
        print(f"bench: no library at {workloads.SRC}; run from a shiftlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)
    signal.signal(signal.SIGALRM, _alarm)
    record = run(args)
    write_results(record)
    result = report(record)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
