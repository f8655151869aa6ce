"""Paired benchmark runs of two checkouts, a parent and a change.

Usage::

    python3 tools/paired_bench.py --parent ROOT --change ROOT --workload W --pairs N --seed S

Each ROOT is a checkout of the repository (for example one made with
``git archive``).  Pair i runs ``perfbench/run.py --workload W --seed S+i
--seconds 30 --trace 0`` in each root, one after the other; the parent runs
first in even pairs and the change in odd ones, so a drift of the host
favours neither side.  Each run's summary is the JSON object on the last
line of its output.

For each metric the script prints both sides' medians and quartiles, the
change's median against the parent's in %, and the pairs the change won
(ties count for neither side).  ``gain`` marks a metric the change won in
at least nine tenths of the pairs, with medians further apart than the
parent's interquartile range; ``over`` marks one whose change median is
worse than the parent's by more than its bound in ``BENCHMARK.json``.
Runs with ``correct: false``, or with more failed operations than their
partner, are listed after the table.  Stdlib only; the script writes
nothing itself (each run writes its own ``perfbench/out/`` files).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

RUN_SECONDS = 30


def run_side(root: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``; its last output line, parsed."""
    cmd = [
        sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], benchmark: dict) -> tuple[list[dict], list[str]]:
    """Rows, one per metric both sides report, and flags for suspect runs.

    ``pairs`` holds (parent, change) run summaries; ``benchmark`` is the
    parsed ``BENCHMARK.json``, which gives each metric's better direction
    (lower where it names none) and its bound, if any.
    """
    declared = {m["name"]: m for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}
    rows = []
    for name, entry in pairs[0][0]["metrics"].items():
        if not all(name in side["metrics"] for pair in pairs for side in pair):
            continue
        parent = [p["metrics"][name]["value"] for p, _c in pairs]
        change = [c["metrics"][name]["value"] for _p, c in pairs]
        sign = -1 if declared.get(name, {}).get("better", "lower") == "higher" else 1
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        pct = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else math.nan
        bound = declared.get(name, {}).get("bound")
        rows.append({
            "metric": name, "unit": entry["unit"], "parent": pq, "change": cq, "pct": pct,
            "wins": wins, "pairs": len(pairs),
            "gain": wins >= math.ceil(0.9 * len(pairs)) and sign * (pq[1] - cq[1]) > pq[2] - pq[0],
            "over": bound is not None and sign * pct > bound * 100,
        })
    flags = []
    for i, (parent, change) in enumerate(pairs):
        for side, run, partner in (("parent", parent, change), ("change", change, parent)):
            where = f"pair {i} (seed {run.get('seed', '?')}) {side}"
            if not run["correct"]:
                flags.append(f"{where}: correct: false")
            if run["failed"] > partner["failed"]:
                flags.append(f"{where}: {run['failed']} failed operations against {partner['failed']}")
    return rows, flags


def format_rows(rows: list[dict]) -> str:
    head = f"{'metric':<24} {'unit':<6} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'%':>8} {'won':>6}"
    lines = [head]
    for r in rows:
        p = "/".join(f"{v:.5g}" for v in r["parent"])
        c = "/".join(f"{v:.5g}" for v in r["change"])
        marks = " gain" * r["gain"] + " over" * r["over"]
        lines.append(
            f"{r['metric']:<24} {r['unit']:<6} {p:>30} {c:>30} {r['pct']:>+7.1f}% "
            f"{r['wins']:>2}/{r['pairs']:<3}{marks}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_side(getattr(args, side), args.workload, seed) for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i}: seed {seed}, {order[0]} first", file=sys.stderr)
    rows, flags = summarize(pairs, benchmark)
    print(f"workload {args.workload}, seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(format_rows(rows))
    for flag in flags:
        print(f"FLAG {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
