"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 scripts/ab_pairs.py PARENT CHANGE --seed 9001 --count 10 \
        [--out pairs.json]

Each pair runs `perfbench/run.py --workload all --seed S` in both
checkouts, one after the other, the parent first on the first pair and
the order switched on each pair after it, so that a drift of the host's
speed does not favour one side.  Pair i uses seed S + i.  Each checkout
runs its own perfbench/ and src/, from its own root.

For every workload and metric the script prints, for each side, the
median and the quartiles (statistics.quantiles, inclusive method) over
the runs, and the number of pairs in which the change was better, in
the direction BENCHMARK.json of the parent gives (lower when a metric
is not listed).  The parent's quartile distance is printed beside it, as
a gain counts only when the medians differ by more than it.

Each end-to-end metric with a bound in the parent's BENCHMARK.json also
gets the gate's verdict on each workload: "worse beyond bound" when the
change's median is worse than the parent's median by more than bound
times the parent's median; else "unresolved" when the parent's quartile
distance exceeds bound times its median, unless every run of the change
is better than every run of the parent; else "within bound".  --out
writes every run's metrics and the summary as JSON.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, seed: int) -> dict:
    """The JSON result line of one benchmark run in the checkout root."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", "all", "--seed", str(seed)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{root}: seed {seed} printed no result "
                         f"(exit {proc.returncode})")
    result["exit"] = proc.returncode
    return result


def metric_specs(root: Path) -> list[dict]:
    """The end-to-end and per-layer metrics of root's BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text())
    return [m for key in ("end_to_end", "per_layer")
            for m in spec.get(key, [])]


def directions(root: Path) -> dict:
    """{metric name: 'lower' or 'higher'} from root's BENCHMARK.json."""
    return {m["name"]: m.get("better", "lower") for m in metric_specs(root)}


def bounds(root: Path) -> dict:
    """{metric name: bound} of the metrics that have one (end to end)."""
    return {m["name"]: m["bound"] for m in metric_specs(root) if "bound" in m}


def verdict(stats: dict, sign: int, bound: float) -> str:
    """The gate on one metric: worse beyond bound, unresolved or within."""
    a, c = stats["parent"]["median"], stats["change"]["median"]
    if sign * (c - a) > bound * abs(a):
        return "worse beyond bound"
    beats_all = (max(sign * x for x in stats["change_runs"])
                 < min(sign * x for x in stats["parent_runs"]))
    if stats["parent_quartile_distance"] > bound * abs(a) and not beats_all:
        return "unresolved"
    return "within bound"


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list[dict], better: dict, bound: dict) -> dict:
    """Per metric: both sides' quartiles, the wins of the change, the
    parent's quartile distance and, for a metric with a bound, the
    verdict."""
    names = sorted(set.intersection(*(set(p[side]["metrics"])
                                      for p in pairs
                                      for side in ("parent", "change"))))
    out = {}
    for name in names:
        base = name.split("/")[-1]
        sign = -1 if better.get(base, "lower") == "higher" else 1
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        stats = {"parent": quartiles(parent), "change": quartiles(change)}
        stats["change_wins"] = sum(sign * (c - a) < 0
                                   for a, c in zip(parent, change))
        stats["parent_quartile_distance"] = (stats["parent"]["q3"]
                                             - stats["parent"]["q1"])
        stats["parent_runs"], stats["change_runs"] = parent, change
        if base in bound:
            stats["verdict"] = verdict(stats, sign, bound[base])
        out[name] = stats
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--count", type=int, default=10, help="number of pairs")
    ap.add_argument("--out", type=Path, help="write runs and summary here")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    for i in range(args.count):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], seed)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.count} seed {seed}: " + ", ".join(
            f"{side} correct={pair[side]['correct']} "
            f"failed={pair[side]['failed']}" for side in order),
            file=sys.stderr)

    summary = summarise(pairs, directions(roots["parent"]),
                        bounds(roots["parent"]))
    print(f"{'metric':36s} {'parent q1/median/q3':>30s} "
          f"{'change q1/median/q3':>30s} {'wins':>6s} {'ratio':>7s} "
          f"{'parent q3-q1':>12s}  verdict")
    for name, s in summary.items():
        a, c = s["parent"], s["change"]
        ratio = c["median"] / a["median"] if a["median"] else float("nan")
        print(f"{name:36s} "
              f"{a['q1']:9.4g} {a['median']:9.4g} {a['q3']:9.4g}  "
              f"{c['q1']:9.4g} {c['median']:9.4g} {c['q3']:9.4g}  "
              f"{s['change_wins']:2d}/{len(pairs):<2d} {ratio:7.3f} "
              f"{s['parent_quartile_distance']:12.4g}  "
              f"{s.get('verdict', '')}")
    ok = all(p[side]["correct"] and not p[side]["failed"]
             for p in pairs for side in ("parent", "change"))
    if args.out:
        args.out.write_text(json.dumps({"pairs": pairs, "summary": summary},
                                       indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
