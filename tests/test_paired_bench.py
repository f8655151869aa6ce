import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "paired_bench.py"

_spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

BENCHMARK = {
    "end_to_end": [
        {"name": "egalitarian_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "load_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "speed", "unit": "count", "better": "higher"}],
}


def run(seed, egalitarian, load, speed, correct=True, failed=0):
    metrics = {"egalitarian_s": egalitarian, "load_s": load, "speed": speed}
    return {
        "seed": seed, "correct": correct, "attempted": 60, "failed": failed,
        "metrics": {k: {"value": v, "unit": "count" if k == "speed" else "s"} for k, v in metrics.items()},
    }


def test_summary_of_fixed_runs():
    # Ten pairs: the change halves egalitarian_s in nine and loses the
    # tenth, is 30% slower on load_s throughout, and raises a metric where
    # higher is better in five pairs, ties in the other five.
    parent_eg = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 4.0]
    pairs = []
    for i, eg in enumerate(parent_eg):
        parent = run(100 + i, eg, 1.0, 5.0, correct=i != 3)
        change = run(100 + i, eg / 2 if i < 9 else 5.0, 1.3, 6.0 if i % 2 else 5.0, failed=int(i == 7))
        pairs.append((parent, change))
    rows, flags = paired_bench.summarize(pairs, BENCHMARK)
    by_name = {r["metric"]: r for r in rows}
    assert list(by_name) == ["egalitarian_s", "load_s", "speed"]

    eg = by_name["egalitarian_s"]
    assert eg["parent"] == (11.25, 13.5, 15.75)
    assert eg["change"] == (5.625, 6.75, 7.875)
    assert eg["pct"] == pytest.approx((6.75 - 13.5) / 13.5 * 100)
    assert (eg["wins"], eg["pairs"], eg["gain"], eg["over"]) == (9, 10, True, False)

    load = by_name["load_s"]
    assert load["pct"] == pytest.approx(30.0)
    assert (load["wins"], load["gain"], load["over"]) == (0, False, True)

    speed = by_name["speed"]
    assert (speed["wins"], speed["gain"], speed["over"]) == (5, False, False)
    assert speed["unit"] == "count"

    assert flags == [
        "pair 3 (seed 103) parent: correct: false",
        "pair 7 (seed 107) change: 1 failed operations against 0",
    ]
    table = paired_bench.format_rows(rows).splitlines()
    assert len(table) == 4
    assert table[1].split()[0] == "egalitarian_s" and table[1].split()[-2:] == ["9/10", "gain"]
    assert table[2].split()[-2:] == ["0/10", "over"]


def test_summary_needs_a_gap_wider_than_the_parent_spread():
    # The change wins every pair by a hair, but the parent's runs spread by
    # far more than the gap between the medians: no gain.
    pairs = [(run(i, 10.0 + i, 1.0, 1.0), run(i, 9.99 + i, 1.0, 1.0)) for i in range(10)]
    rows, flags = paired_bench.summarize(pairs, BENCHMARK)
    eg = rows[0]
    assert eg["wins"] == 10 and not eg["gain"] and flags == []
    # One pair: its values are its quartiles.
    rows, _flags = paired_bench.summarize(pairs[:1], BENCHMARK)
    assert rows[0]["parent"] == (10.0, 10.0, 10.0)
