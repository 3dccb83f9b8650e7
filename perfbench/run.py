"""hopfex benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload coradical --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory.
Each run starts fresh worker processes (worker.py) with HOPFEX_CAP
removed and PYTHONHASHSEED fixed: one that sets up, then runs timed
passes over the workload's operations, and SETUP_SAMPLES - 1 that only
set up, half of them before that worker and half after it.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every operation met its recorded expectation and, in a traced run, every
per-layer count repeated.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ["cli-corpus", "coradical", "extend", "hopf-powers"]
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # one workload's run must end well inside 180 s

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    # default_cap reads HOPFEX_CAP; it would change the amount of work
    env.pop("HOPFEX_CAP", None)
    # fixed string hashing, so that per-layer counts repeat across runs
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + args
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"worker {' '.join(args)} printed no result")


def _code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hopfex").glob("*.py")) + \
            sorted(BENCH_DIR.glob("*.py")) + [BENCH_DIR / "expected.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]

    def setup_samples(count):
        return [_worker(common + ["--setup-only"], deadline)["setup_s"]
                for _ in range(count)]

    setups = setup_samples((SETUP_SAMPLES - 1) // 2)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    extra = ["--spans-out", str(spans_path)] if trace else []
    res = _worker(common + ["--seconds", str(seconds), "--trace",
                            str(int(trace))] + extra, deadline)
    setups.append(res["setup_s"])
    setups += setup_samples(SETUP_SAMPLES - len(setups))

    untraced = [p for p in res["passes"] if not p["traced"]]
    attempted = res["ops_per_pass"] * len(res["passes"])
    failed = len(res["failures"])
    correct = failed == 0
    walls = [p["wall_s"] for p in untraced]
    op_s = [t for p in untraced for t in p["op_s"]]
    print(f"== {workload}  seed {seed}  {len(untraced)} untraced pass(es) "
          f"of {res['ops_per_pass']} ops  attempted {attempted}  "
          f"failed {failed}  op_fail_ratio {failed / attempted:.4f}")
    raw_walls = [p["raw_wall_s"] for p in untraced]
    print(f"   wall_s median {statistics.median(walls):.4f} s over "
          f"{len(walls)} pass(es), min {min(walls):.4f}, max {max(walls):.4f}"
          f"; unscaled median {statistics.median(raw_walls):.4f} s")
    print(f"   op latencies pooled over {len(op_s)} samples "
          f"(p50 has {len(op_s) // 2}, p90 has {len(op_s) // 10} beyond it)")
    print(f"   setup_s samples {', '.join(f'{s:.4f}' for s in setups)}")

    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(op_s),
            "op_p90_s": _p90(op_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        return correct, attempted, failed, {
            k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in metrics.items()}

    first, second = res["trace"]
    for name, m in first.items():
        if m["unit"] != "s" and m["value"] != second[name]["value"]:
            print(f"FAIL count {name} differs between passes: "
                  f"{m['value']} then {second[name]['value']}",
                  file=sys.stderr)
            correct = False
    counts = {k: m["value"] for k, m in second.items() if m["unit"] != "s"}
    counts_path = OUT_DIR / f"counts-{workload}-seed{seed}-{_code_hash()}.json"
    if counts_path.exists():
        before = json.loads(counts_path.read_text())
        for name, value in counts.items():
            if before.get(name) != value:
                print(f"FAIL count {name} differs from the previous traced "
                      f"run of the same code: {before.get(name)} then {value}",
                      file=sys.stderr)
                correct = False
    else:
        counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    traced_wall = statistics.median(
        p["wall_s"] for p in res["passes"] if p["traced"])
    print(f"   traced wall_s {traced_wall:.4f} s, untraced "
          f"{statistics.median(walls):.4f} s; spans in {spans_path.name}")
    metrics = {}
    for name, m in second.items():
        value = m["value"]
        if m["unit"] == "s":  # the mean of the two traced passes
            value = (first[name]["value"] + value) / 2
        metrics[name] = {"value": value, "unit": m["unit"]}
    metrics["trace.overhead_s"] = {
        "value": traced_wall - statistics.median(walls), "unit": "s"}
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the hopfex benchmark; see perfbench/README.md.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="run about this long: as many passes as fit "
                         "at the nominal speed (PASS_S in workloads.py), "
                         "at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: two traced passes and one untraced pass, "
                         "per-layer metrics")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hopfex" / "__init__.py").is_file():
        print(f"no hopfex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, mets = run_workload(name, args.seed, args.seconds,
                                               bool(args.trace))
            correct &= ok
            attempted += att
            failed += fail
            for k, v in mets.items():
                metrics[k if len(names) == 1 else f"{name}/{k}"] = v
                print(f"   {k:40s} {v['value']:.6g} {v['unit']}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
