"""Run the benchmark from two checkouts in alternating pairs and compare.

    python3 tools/bench_pairs.py BASE HEAD --workload words60 --seed 1 --pairs 10

BASE and HEAD are directories holding checkouts of the parent commit and
of the change.  Each pair runs `python3 bench/run.py --workload W --seed
S --trace 0` once in each checkout, from that checkout's own directory
and with its own unchanged `bench/`.  Odd pairs (the first, third, ...)
run BASE first, even pairs HEAD first.  The end-to-end metrics, whether
each is better higher or lower, and the run length (`run_seconds`) come
from HEAD's `BENCHMARK.json`.

It prints one line per pair as it goes, then for each metric each side's
median and inclusive quartiles (`statistics.quantiles(n=4,
method='inclusive')`) and the pairs each side won; a tie counts for
neither.  The last line is a JSON object holding the pairs and the
summary in the layout of one seed's block of a `BENCH_<n>.json` file.
It writes no file; `bench/run.py` keeps its scratch files in its
checkout's `.bench_build/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values) -> dict[str, float]:
    """The median and inclusive quartiles of `values`."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(pairs, better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the pairs each side won, the
    change of the median in percent, the parent's interquartile range
    and the difference of the medians.  `pairs` are dicts with a
    "parent" and a "change" dict of metric values; `better` maps each
    metric to "higher" or "lower"."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        leads = [sign * (c - b) for b, c in zip(values["parent"], values["change"])]
        base, head = (statistics.median(values[side]) for side in SIDES)
        out[name] = {
            **stats,
            "change_wins": sum(d > 0 for d in leads),
            "parent_wins": sum(d < 0 for d in leads),
            "median_change_pct": round(100 * (head - base) / base, 2) if base else None,
            "parent_iqr": round(stats["parent"]["q3"] - stats["parent"]["q1"], 4),
            "median_diff": round(head - base, 4),
        }
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`: its parsed last line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout of the parent commit")
    ap.add_argument("head", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.base, "change": args.head}

    pairs, correct, failed = [], True, dict.fromkeys(SIDES, 0)
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]  # odd pairs (from 1) parent first
        pair = {"first": order[0]}
        for side in order:
            result = run_once(checkouts[side], args.workload, args.seed, seconds)
            correct &= result["correct"]
            failed[side] += result["failed"]
            pair[side] = {name: round(result["metrics"][name]["value"], 4) for name in better}
        pairs.append(pair)
        print(f"pair {k + 1} ({order[0]} first):", "  ".join(
            f"{name} {pair['parent'][name]:g} -> {pair['change'][name]:g}" for name in better
        ), flush=True)

    summary = summarize(pairs, better)
    for name, s in summary.items():
        print(f"{name}: parent {s['parent']} change {s['change']};"
              f" change won {s['change_wins']} of {len(pairs)}, parent {s['parent_wins']}")
    print(json.dumps({
        "pairs_run": len(pairs),
        "all_correct": correct,
        "failed_ops": failed,
        "summary": summary,
        "pairs": pairs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
