"""One benchmark process: set up a workload, run timed passes, report.

Started by run.py with HOPFEX_CAP removed and PYTHONHASHSEED fixed; it
prints one JSON object as its last line of standard output.  With
--setup-only it stops after set-up and reports only the set-up time.

The host's speed drifts by tens of percent, within seconds and over
minutes (README.md, "Host speed").  So a timer runs a fixed piece of
reference work, pure Python like hopfex's own, every TICK_S seconds,
and every time reported is scaled by REF_NOMINAL_S over the mean
reference time around it: it reads as on a host where the reference
takes REF_NOMINAL_S.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def import_hopfex():
    """Import hopfex from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hopfex
    if Path(hopfex.__file__).resolve().parent != src / "hopfex":
        raise ImportError(f"hopfex imported from {hopfex.__file__}, "
                          f"not from {src}")


# A tick runs the reference work every TICK_S seconds of wall time; an
# operation's time is scaled by the mean reference time of the ticks from
# WINDOW_S before it starts to WINDOW_S after it ends.
TICK_S = 0.04
WINDOW_S = 0.5
REF_NOMINAL_S = 0.0018
REF_AFTER = 20  # reference samples taken after set-up and after a pass


def reference_s() -> float:
    """Seconds the reference work takes now: exact fractions and dict
    updates, the operations hopfex spends its time on."""
    # imported here, so that set-up time covers the import as it would
    # without the reference
    from fractions import Fraction
    # no collection inside it: its cost would grow with hopfex's heap
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    third, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 200):
        total += third * Fraction(i, i + 1)
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class HostSpeed:
    """Samples the host's speed with SIGALRM ticks while work runs."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each reference run

    def sample(self, _signum=None, _frame=None):
        self.samples.append((time.perf_counter(), reference_s()))

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """Stop ticking, then sample REF_AFTER times, so that the last
        operation has samples after it too."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(REF_AFTER):
            self.sample()

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(scaled, raw) seconds of the interval, without the ticks in it."""
        raw = t1 - t0 - sum(s for t, s in self.samples if t0 <= t < t1)
        near = [s for t, s in self.samples
                if t0 - WINDOW_S <= t < t1 + WINDOW_S]
        return raw * REF_NOMINAL_S / statistics.mean(near), raw


def run_pass(ops, expected, tracer=None):
    """Run every op once; return (scaled latencies in s, raw latencies in
    s, failure messages)."""
    spans, failures = [], []
    clock = time.perf_counter
    host = HostSpeed()
    host.start()
    for op in ops:
        t0 = clock()
        try:
            result = tracer.run_op(op.run) if tracer else op.run()
            error = None
        except Exception as exc:  # a raising operation is a failed one
            error = exc
        spans.append((t0, clock()))
        if error is not None:
            traceback.print_exception(error)
            failures.append(f"{op.name}: raised {type(error).__name__}: "
                            f"{error}")
            continue
        problems = _check(op, result, expected, tracer)
        failures.extend(f"{op.name}: {p}" for p in problems)
    host.stop()
    scaled, raw = zip(*(host.scaled(t0, t1) for t0, t1 in spans))
    return list(scaled), list(raw), failures


def _check(op, result, expected, tracer):
    if tracer is not None:
        with tracer.paused():
            return _check(op, result, expected, None)
    problems = []
    if op.key is not None:
        want = expected.get(op.key)
        got = op.facts(result)
        if want is None:
            problems.append("no recorded expectation")
        elif got != want:
            problems.append(f"facts {got} differ from recorded {want}")
    problems.extend(op.verify(result))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None,
                    help="file for the spans of the last traced pass")
    args = ap.parse_args(argv)

    host = HostSpeed()
    host.start()
    import_hopfex()
    import workloads
    ops = workloads.BUILDERS[args.workload](args.seed, ROOT)
    setup_end = time.perf_counter()
    host.stop()
    setup_s, _ = host.scaled(START, setup_end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(workloads.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    out = {"setup_s": setup_s, "ops_per_pass": len(ops), "passes": [],
           "failures": []}

    def record(latencies, raw, failures, traced=False):
        out["passes"].append({"traced": traced, "wall_s": sum(latencies),
                              "raw_wall_s": sum(raw), "op_s": latencies})
        out["failures"].extend(failures)
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)

    if args.trace:
        # traced passes first: a cache carried from one pass into the next
        # then changes the counts of the second traced pass
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        try:
            out["trace"] = []
            for _ in range(2):
                tr.reset()
                record(*run_pass(ops, expected, tr), traced=True)
                out["trace"].append(tr.metrics())
        finally:
            tr.uninstall()
        if args.spans_out:
            tr.write_spans(args.spans_out)
        record(*run_pass(ops, expected))
    else:
        for _ in range(workloads.passes(args.workload, args.seconds)):
            record(*run_pass(ops, expected))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
