"""Benchmark of the profmatch pipeline on seeded workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload uniform-complete --seed 1 --seconds 30 --trace 0

The program receives only instance text and runs the way ``profmatch solve``
does: ``parse_instance`` and ``preprocess``, then ``solve`` for each
criterion.  Each instance is loaded and solved in interleaved rounds until
``--seconds`` have passed; a metric sums, over the instances, the median of
that instance's times over the rounds, so a burst on the host spoils one
round rather than a whole run.  Times are wall seconds scaled to a
reference host speed (see CAL_REF_S).  Every output is checked by
``check.py``.

``--trace 0`` reports the end-to-end metrics from this untraced pass.
``--trace 1`` instead runs the public stage functions in the order the
solvers call them, timing each call from outside, and then a pass of its
own under ``tracemalloc`` for the memory peaks; it reports the per-layer
metrics and writes its spans to ``perfbench/out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_ROUNDS = 3
SETUP_REPEATS = 5
HOST_LOOP_STEPS = 5_000_000
MIB = 1024 * 1024

# The host's speed drifts by a quarter and more over tens of seconds, which
# no number of rounds in one run averages out.  So a fixed calibration loop
# is timed around every timed call, and the call's wall time is reported
# scaled by CAL_REF_S / (the loops' mean time): wall seconds at a reference
# host speed.  CAL_REF_S is the loop's median time on the 2-core Xeon host
# where the bounds were set, so scaled and raw times agree there on average.
CAL_STEPS = 300_000
CAL_REF_S = 0.02

# Sizes keep one round of a workload near three seconds on a 2-core host,
# so a 30-second run measures about ten rounds.
WORKLOADS = {
    "uniform-complete": ("uniform", (300, 300, 300)),
    "sparse-large": ("sparse", (1200, 1200, 1200)),
    "latin-chain": ("latin", (80, 101, 120)),
}
SPARSE_LIST_LENGTH = 15

E2E_TIMES = {
    "rank-maximal": "rank_maximal_s",
    "generous": "generous_s",
    "egalitarian": "egalitarian_s",
    "sex-equal": "sex_equal_s",
    "median": "median_s",
    "min-regret": "min_regret_s",
}


def host_loop(steps: int = HOST_LOOP_STEPS) -> float:
    """A fixed pure-Python loop: a control that only the host can move."""
    t0 = time.perf_counter()
    x = 0
    for i in range(steps):
        x += i & 7
    return time.perf_counter() - t0


class Calibrated:
    """Times calls in wall seconds scaled to the reference host speed.

    The scale is CAL_REF_S over the mean of the calibration loops timed
    right before and right after the call; the loop after one call also
    serves as the loop before the next.  ``loops`` keeps every loop time.
    """

    def __init__(self):
        self.loops = [host_loop(CAL_STEPS)]

    def __call__(self, fn, *args):
        """``(fn(*args), its scaled wall time)``."""
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        self.loops.append(host_loop(CAL_STEPS))
        return result, seconds * CAL_REF_S * 2 / (self.loops[-2] + self.loops[-1])


def make_inputs(workload: str, seed: int):
    """``(name, men, women)`` for each instance of the workload.

    Every base instance comes from a fixed generator seed; ``seed`` draws
    the relabelling of its agents.  So every seed presents the same amount
    of work (stable matchings, rotations, list lengths) in another agent
    order, and the spread between seeds is the host's and the program's.
    """
    kind, sizes = WORKLOADS[workload]
    rng = random.Random(seed)
    out = []
    for i, n in enumerate(sizes):
        base = random.Random(f"{workload}/{i}")
        if kind == "uniform":
            lists = gen.uniform_complete(n, base)
        elif kind == "sparse":
            # Restricted to the agents stable matchings cover: where the
            # program's preprocessing removes agents it can return unstable
            # matchings, a fault left out of the workloads (see CHANGES.md).
            lists = gen.restrict_to_covered(*gen.sparse(n, SPARSE_LIST_LENGTH, base))
        else:
            lists = gen.latin_chain(n)
        men, women = gen.relabel(*lists, rng)
        out.append((f"{kind}-n{n}-{i}", men, women))
    return out


@dataclass
class Case:
    """One instance: its text, the checks' view of it and the targets."""

    name: str
    text: str
    ref: check.Reference
    targets: dict


def original_pairs(pre, matching):
    return [(pre.orig_men[m], pre.orig_women[w]) for m, w in matching]


def prepare(inputs, closed_forms: bool, errors: list) -> list[Case]:
    """Targets of every instance, from its enumeration or the Latin closed forms."""
    cases = []
    for name, men, women, text in inputs:
        ref = check.Reference(men, women)
        pre = pm.preprocess(pm.parse_instance(text))
        enumerated = pm.enumerate_stable_matchings(pre)
        folded = check.fold_targets(ref, (original_pairs(pre, M) for M in enumerated))
        if closed_forms:
            n = len(men) - 1
            targets = check.latin_targets(ref)
            if len(enumerated) != n:
                errors.append(f"{name}: {len(enumerated)} stable matchings, expected {n}")
            if folded != targets:
                errors.append(f"{name}: optima over the enumeration differ from the closed forms")
        else:
            targets = folded
        del enumerated, pre
        cases.append(Case(name, text, ref, targets))
    return cases


def setup(workload: str, seed: int):
    """Generate the instance texts and warm up on a tiny instance."""
    inputs = [(*lists, gen.instance_text(*lists[1:])) for lists in make_inputs(workload, seed)]
    tiny = pm.preprocess(pm.parse_instance(gen.instance_text(*gen.latin_chain(5))))
    for crit in check.CRITERIA:
        pm.solve(tiny, pm.Criterion(crit))
    return inputs


class Tally:
    """Operations attempted and failed; the first few failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(error)


def run_rounds(seconds: float, cases, one_round) -> list[float]:
    """Whole rounds until ``seconds`` would be exceeded (at least MIN_ROUNDS)."""
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        for case in cases:
            one_round(case)
        durations.append(time.perf_counter() - t0)
        if len(durations) >= MIN_ROUNDS and (
            time.perf_counter() + statistics.median(durations) > deadline
        ):
            return durations


def sum_of_medians(samples: dict) -> dict:
    """metric -> sum over instances of the median over rounds."""
    out: dict[str, float] = {}
    for (metric, _case), values in samples.items():
        out[metric] = out.get(metric, 0.0) + statistics.median(values)
    return out


def untraced_pass(cases, seconds: float, tally: Tally, timer: Calibrated):
    samples: dict[tuple[str, str], list[float]] = {}

    def timed(metric: str, case: Case, fn, *args):
        gc.collect()
        result, scaled = timer(fn, *args)
        samples.setdefault((metric, case.name), []).append(scaled)
        return result

    def one_round(case: Case) -> None:
        pre = timed("load_s", case, lambda: pm.preprocess(pm.parse_instance(case.text)))
        for crit, metric in E2E_TIMES.items():
            try:
                matching = timed(metric, case, pm.solve, pre, pm.Criterion(crit))
            except Exception as exc:  # a crash is one failed operation
                tally.record(f"{case.name} {crit}: {exc!r}")
                continue
            error = case.ref.check(case.targets, crit, original_pairs(pre, matching))
            tally.record(error and f"{case.name} {crit}: {error}")

    durations = run_rounds(seconds, cases, one_round)
    return sum_of_medians(samples), durations, samples


class Tracer:
    """Spans kept in memory: name, start, end, parent span, instance, round.

    A span without a parent is preceded by the calibration loop; its
    ``scale`` (CAL_REF_S over the loop's time) applies to its children too.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.where = ("", 0)

    def call(self, name: str, fn, *args):
        parent = self._open[-1] if self._open else None
        if parent is None:
            scale = CAL_REF_S / host_loop(CAL_STEPS)
        else:
            scale = self.spans[parent]["scale"]
        sid = len(self.spans)
        span = {"id": sid, "name": name, "parent": parent, "instance": self.where[0],
                "round": self.where[1], "scale": scale}
        self.spans.append(span)
        self._open.append(sid)
        span["start"] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()


def staged_rank_maximal(tr: Tracer, pre, parts: dict):
    """solve_rank_maximal, stage by stage; ``parts`` keeps the poset and flow."""
    m0 = tr.call("stability.man_optimal", pm.man_optimal, pre)
    rots = parts["rotations"] = tr.call("rotations.find_rotations", pm.find_rotations, pre)
    if not rots:
        return m0
    dg = parts["digraph"] = tr.call("rotations.build_digraph", pm.build_digraph, pre, rots)
    subset = parts["subset"] = closed_subset(tr, [r.profile for r in rots], dg, parts)
    return tr.call("rotations.eliminate_closed_subset", pm.eliminate_closed_subset,
                   pre, m0, rots, dg, subset)


def staged_generous(tr: Tracer, pre, parts: dict):
    """solve_generous, stage by stage."""
    degree = parts["degree"] = tr.call("stability.min_regret_degree", pm.min_regret_degree, pre)
    trunc = tr.call("stability.truncate", pm.truncate, pre, degree).instance
    m0 = tr.call("stability.man_optimal", pm.man_optimal, trunc)
    rots = tr.call("rotations.find_rotations", pm.find_rotations, trunc)
    if not rots:
        return m0
    dg = tr.call("rotations.build_digraph", pm.build_digraph, trunc, rots)
    mapped = [r.profile.reverse_negate(degree) for r in rots]
    subset = closed_subset(tr, mapped, dg, {})
    return tr.call("rotations.eliminate_closed_subset", pm.eliminate_closed_subset,
                   trunc, m0, rots, dg, subset)


def closed_subset(tr: Tracer, profiles, dg, parts: dict):
    net = parts["network"] = tr.call("vbflow.build_vb_network", pm.build_vb_network, profiles, dg)
    flow = parts["flow"] = tr.call("vbflow.max_vb_flow", pm.max_vb_flow, net)
    cut = tr.call("vbflow.min_cut", pm.min_cut, net, flow)
    return tr.call("vbflow.max_profile_closed_subset", pm.max_profile_closed_subset,
                   net, dg, cut)


def oracle_disagreement(tr: Tracer, pre, parts: dict):
    """The scalar oracle on the same rank-maximal network must agree."""
    if not parts["rotations"]:
        return None
    value, subset = tr.call("solvers.oracle_exponential_flow", pm.oracle_exponential_flow,
                            parts["rotations"], parts["digraph"], pre.n_men)
    if subset != parts["subset"] or value != pm.high_weight(parts["flow"].value, pre.n_men):
        return "vector flow disagrees with the exponential-weight oracle"
    return None


def exact_counts(inst, pre, parts: dict, matchings) -> dict:
    rots = parts["rotations"]
    labels = [labs for _u, _v, labs in parts["digraph"].edges()] if rots else []
    report = pm.space_report([r.profile for r in rots], pre.n_men)
    return {
        "model.agents": inst.n_men + inst.n_women,
        "model.agents_removed": inst.n_men + inst.n_women - pre.n_men - pre.n_women,
        "model.acceptable_pairs": inst.acceptable_pairs,
        "stability.min_regret_degree": parts["degree"],
        "rotations.rotations": len(rots),
        "rotations.rotation_pairs": sum(len(r.cycle) for r in rots),
        "rotations.max_profile_degree": max((r.profile.degree for r in rots), default=0),
        "rotations.digraph_type1_edges": sum(1 in labs for labs in labels),
        "rotations.digraph_type2_edges": sum(2 in labs for labs in labels),
        "vbflow.network_edges": len(parts["network"].edges) if rots else 0,
        "vbflow.flow_edges_used":
            sum(not f.is_zero for f in parts["flow"].edge_flows) if rots else 0,
        "solvers.stable_matchings": len(matchings),
        "analytics.exponential_bits": report.exponential_total,
        "analytics.vector_bits": report.vector_total,
    }


SELECTORS = {
    "egalitarian": "select_egalitarian",
    "sex-equal": "select_sex_equal",
    "median": "select_median",
    "min-regret": "select_min_regret",
}

STAGE_TIMES = (
    "model.parse_instance_s", "model.preprocess_s",
    "stability.man_optimal_s", "stability.min_regret_degree_s", "stability.truncate_s",
    "rotations.find_rotations_s", "rotations.build_digraph_s",
    "rotations.eliminate_closed_subset_s",
    "vbflow.build_vb_network_s", "vbflow.max_vb_flow_s", "vbflow.min_cut_s",
    "vbflow.max_profile_closed_subset_s",
    "solvers.enumerate_stable_matchings_s", "solvers.select_egalitarian_s",
    "solvers.select_sex_equal_s", "solvers.select_median_s", "solvers.select_min_regret_s",
    "solvers.oracle_exponential_flow_s",
)

COUNT_METRICS = (
    "model.agents", "model.agents_removed", "model.acceptable_pairs",
    "stability.min_regret_degree",
    "rotations.rotations", "rotations.rotation_pairs", "rotations.max_profile_degree",
    "rotations.digraph_type1_edges", "rotations.digraph_type2_edges",
    "vbflow.network_edges", "vbflow.flow_edges_used",
    "solvers.stable_matchings",
    "analytics.exponential_bits", "analytics.vector_bits",
)


def traced_pass(cases, seconds: float, tally: Tally):
    """Per-stage times (sum over instances of median over rounds) and counts."""
    tr = Tracer()
    rounds_seen: dict[str, int] = {}
    solved: dict[str, dict] = {}
    counts_by_case: dict[str, dict] = {}

    def one_round(case: Case) -> None:
        rnd = rounds_seen[case.name] = rounds_seen.get(case.name, 0) + 1
        tr.where = (case.name, rnd)
        gc.collect()
        inst = tr.call("model.parse_instance", pm.parse_instance, case.text)
        pre = tr.call("model.preprocess", pm.preprocess, inst)
        if case.name not in solved:
            solved[case.name] = {
                crit: pm.solve(pre, pm.Criterion(crit)) for crit in check.CRITERIA
            }
        outputs, parts = {}, {}
        gc.collect()
        outputs["rank-maximal"] = tr.call(
            "pipeline.rank-maximal", staged_rank_maximal, tr, pre, parts)
        gc.collect()
        outputs["generous"] = tr.call("pipeline.generous", staged_generous, tr, pre, parts)
        gc.collect()
        disagreement = oracle_disagreement(tr, pre, parts)
        gc.collect()

        def enumeration_backed():
            matchings = tr.call("solvers.enumerate_stable_matchings",
                                pm.enumerate_stable_matchings, pre)
            for crit, fn in SELECTORS.items():
                outputs[crit] = tr.call(f"solvers.{fn}", getattr(pm, fn), matchings, pre)
            return matchings

        matchings = tr.call("pipeline.enumeration", enumeration_backed)
        for crit in check.CRITERIA:
            error = case.ref.check(case.targets, crit, original_pairs(pre, outputs[crit]))
            if error is None and outputs[crit] != solved[case.name][crit]:
                error = "staged pipeline differs from solve"
            if error is None and crit == "rank-maximal":
                error = disagreement
            tally.record(error and f"{case.name} {crit}: {error}")
        if case.name not in counts_by_case:
            counts_by_case[case.name] = exact_counts(inst, pre, parts, matchings)

    durations = run_rounds(seconds, cases, one_round)
    per_round: dict[tuple[str, str, int], float] = {}
    for span in tr.spans:
        key = (span["name"], span["instance"], span["round"])
        seconds = (span["end"] - span["start"]) * span["scale"]
        per_round[key] = per_round.get(key, 0.0) + seconds
    samples: dict[tuple[str, str], list[float]] = {}
    for (name, inst, _rnd), total in per_round.items():
        samples.setdefault((name, inst), []).append(total)
    times = sum_of_medians(samples)
    counts: dict[str, int] = {}
    for per_case in counts_by_case.values():
        for key, value in per_case.items():
            if key == "rotations.max_profile_degree":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    return times, counts, durations, tr.spans


PEAKS = (
    "model.preprocess_peak_mib",
    "stability.min_regret_degree_peak_mib",
    "vbflow.max_vb_flow_peak_mib",
    "solvers.enumerate_stable_matchings_peak_mib",
    "solvers.oracle_exponential_flow_peak_mib",
)


def memory_pass(cases) -> dict:
    """tracemalloc peak above the live heap during each call; max over instances."""
    peaks = dict.fromkeys(PEAKS, 0.0)

    def peak(metric: str, fn, *args):
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peaks[metric] = max(peaks[metric], (tracemalloc.get_traced_memory()[1] - base) / MIB)
        return result

    tracemalloc.start()
    try:
        for case in cases:
            inst = pm.parse_instance(case.text)
            pre = peak("model.preprocess_peak_mib", pm.preprocess, inst)
            del inst
            peak("stability.min_regret_degree_peak_mib", pm.min_regret_degree, pre)
            rots = pm.find_rotations(pre)
            if rots:
                dg = pm.build_digraph(pre, rots)
                net = pm.build_vb_network([r.profile for r in rots], dg)
                peak("vbflow.max_vb_flow_peak_mib", pm.max_vb_flow, net)
                peak("solvers.oracle_exponential_flow_peak_mib",
                     pm.oracle_exponential_flow, rots, dg, pre.n_men)
            peak("solvers.enumerate_stable_matchings_peak_mib",
                 pm.enumerate_stable_matchings, pre)
    finally:
        tracemalloc.stop()
    return peaks


def peak_rss_mib() -> float:
    """Peak resident memory of this process (VmHWM), in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    loops = [host_loop()]
    timer = Calibrated()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        inputs, scaled = timer(setup, args.workload, args.seed)
        setups.append(scaled)
    errors: list[str] = []
    cases = prepare(inputs, WORKLOADS[args.workload][0] == "latin", errors)
    del inputs
    tally = Tally()
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        times, counts, durations, spans = traced_pass(cases, args.seconds, tally)
        peaks = memory_pass(cases)
        loops.append(host_loop())
        metrics = {name: (times.get(name[:-2], 0.0), "s") for name in STAGE_TIMES}
        metrics.update({name: (peaks[name], "MiB") for name in PEAKS})
        metrics.update({name: (counts[name], "count") for name in COUNT_METRICS})
        metrics["host.loop_s"] = (statistics.mean(loops), "s")
        result["pipeline_s"] = {k: v for k, v in times.items() if k.startswith("pipeline.")}
    else:
        timer.loops.append(host_loop(CAL_STEPS))
        times, durations, samples = untraced_pass(cases, args.seconds, tally, timer)
        result["samples_s"] = {f"{m} {c}": v for (m, c), v in samples.items()}
        loops.append(host_loop())
        metrics = {"setup_s": (statistics.median(setups), "s")}
        metrics.update({name: (times[name], "s") for name in ("load_s", *E2E_TIMES.values())})
        metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    result.update(rounds=len(durations), round_s=durations, setup_s=setups, host_loop_s=loops,
                  calibration_s=timer.loops, failures=tally.notes, errors=errors)
    summary = {
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump({**result, **summary}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="ascii") as fh:
            json.dump(spans, fh)
    for note in errors + tally.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"perfbench: {len(durations)} rounds, host loop {loops[0]:.3f}s/{loops[-1]:.3f}s",
          file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "profmatch", "__init__.py")):
        print(f"perfbench: no profmatch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fresh interpreter with a fixed hash seed for every workload run.
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.path[:0] = [SRC, HERE]
    import check
    import gen
    import profmatch as pm
    import selftest

    selftest.run()
    sys.exit(main(sys.argv[1:]))
