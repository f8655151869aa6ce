"""End-to-end acceptance suite.

Each criterion prints one ``[acceptance] <name>: PASS/FAIL`` line (visible
with ``pytest -s``).  All equality checks are exact; the only tolerances are
the explicitly stated runtime budgets and the +/-20% window on the vector
storage total.
"""

import time
from contextlib import contextmanager

import pytest

from profmatch import (
    Criterion,
    Matching,
    build_digraph,
    build_vb_network,
    enumerate_stable_matchings,
    find_rotations,
    generate_I1,
    generate_uniform,
    high_weight,
    i1_rotation_profiles,
    last_choice_threshold,
    matching_degree,
    matching_stats,
    max_profile_closed_subset,
    max_vb_flow,
    min_cut,
    min_regret_degree,
    oracle_exponential_flow,
    preprocess,
    profile_of,
    solve,
    space_report,
)
from profmatch.vbflow import SINK, SOURCE

from helpers import (
    I0_ALL_MATCHINGS,
    I0_DIGRAPH_EDGES,
    I0_FLOW_VALUE_WEIGHT,
    I0_MIN_CUT_CAPACITY,
    I0_OPTIMAL_SUBSET,
    I0_RANK_MAXIMAL,
    I0_ROTATIONS,
    brute_force_stable_matchings,
    rotation_name_map,
)


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - started:.2f}s)")


def _reverse(profile, n):
    return tuple(reversed(profile.padded(n)))


def _cross_validate(inst):
    """All exact agreement checks for one preprocessed instance."""
    n = inst.n_men
    matchings = enumerate_stable_matchings(inst)
    profiles = [profile_of(inst, M) for M in matchings]
    failures = []

    if profile_of(inst, solve(inst, Criterion.RANK_MAXIMAL)) != max(profiles):
        failures.append("rank-maximal profile != enumeration lex-max")

    generous = solve(inst, Criterion.GENEROUS)
    if _reverse(profile_of(inst, generous), n) != min(_reverse(p, n) for p in profiles):
        failures.append("generous reverse profile != enumeration lex-min")

    if n and matching_degree(inst, generous) != min_regret_degree(inst):
        failures.append("generous degree != minimum-regret degree")

    mfmc_ok = True
    rotations = find_rotations(inst)
    if rotations:
        digraph = build_digraph(inst, rotations)
        net = build_vb_network([r.profile for r in rotations], digraph)
        flow = max_vb_flow(net)
        cut = min_cut(net, flow)
        mfmc_ok = cut.capacity.elements == flow.value.elements
        value, _subset = oracle_exponential_flow(rotations, digraph, n)
        if high_weight(flow.value, n) != value:
            failures.append("vector flow value != exponential oracle value")
    if not mfmc_ok:
        failures.append("min-cut capacity != max-flow value elementwise")

    brute_count = None
    if n <= 7:
        brute_count = len(brute_force_stable_matchings(inst))
        if len(matchings) != brute_count:
            failures.append("enumeration count != factorial brute force")

    return {
        "n": n,
        "failures": failures,
        "matchings": matchings,
        "profiles": profiles,
    }


@pytest.fixture(scope="module")
def pool():
    started = time.perf_counter()
    entries = []
    for i in range(500):
        inst = preprocess(generate_uniform(4 + i % 5, 4 + i % 5, 1.0, seed=10_000 + i))
        entries.append((f"complete-{i}", inst, _cross_validate(inst)))
    for i in range(200):
        inst = preprocess(generate_uniform(4 + i % 5, 4 + i % 5, 0.5, seed=20_000 + i))
        entries.append((f"incomplete-{i}", inst, _cross_validate(inst)))
    return {"entries": entries, "seconds": time.perf_counter() - started}


def test_criterion_1_i0_golden_pipeline(i0_pre):
    with criterion("1 textbook golden pipeline"):
        started = time.perf_counter()
        rotations = find_rotations(i0_pre)
        assert {frozenset(r.cycle): r.profile for r in rotations} == I0_ROTATIONS
        names = rotation_name_map(rotations)

        digraph = build_digraph(i0_pre, rotations)
        got_edges = {(names[u], names[v]): labs for u, v, labs in digraph.edges()}
        assert got_edges == I0_DIGRAPH_EDGES

        net = build_vb_network([r.profile for r in rotations], digraph)
        flow = max_vb_flow(net)
        for ei, (u, v, cap) in enumerate(net.edges):
            if (u == SOURCE and names[v] == 0) or (v == SINK and names[u] == 4):
                assert flow.edge_flows[ei] == cap, "cut edge not saturated"
        assert high_weight(flow.value, 8) == I0_FLOW_VALUE_WEIGHT

        cut = min_cut(net, flow)
        named = {
            ("s" if u == SOURCE else names[u], "t" if v == SINK else names[v])
            for u, v in cut.edges
        }
        assert named == {("s", 0), (4, "t")}
        assert cut.capacity == I0_MIN_CUT_CAPACITY

        subset = max_profile_closed_subset(net, digraph, cut)
        assert {names[r] for r in subset} == I0_OPTIMAL_SUBSET

        assert solve(i0_pre, Criterion.RANK_MAXIMAL) == Matching(I0_RANK_MAXIMAL)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_i0_enumeration(i0_pre):
    with criterion("2 textbook enumeration"):
        matchings = enumerate_stable_matchings(i0_pre)
        assert len(matchings) == 8
        assert set(matchings) == {Matching(p) for p in I0_ALL_MATCHINGS}


def test_criterion_3_oracle_equivalence(pool):
    with criterion("3 oracle equivalence over 700 seeded instances"):
        print(f"  (pool of {len(pool['entries'])} instances built in "
              f"{pool['seconds']:.2f}s)")
        bad = [
            (name, entry["failures"])
            for name, _inst, entry in pool["entries"]
            if any("oracle" in f or "lex-max" in f or "lex-min" in f or "brute" in f
                   for f in entry["failures"])
        ]
        assert not bad, f"{len(bad)} disagreeing instances, first: {bad[:3]}"
        assert len(pool["entries"]) == 700
        assert pool["seconds"] < 120.0


def test_criterion_4_generous_degree_law(pool):
    with criterion("4 generous degree equals minimum regret"):
        bad = [
            name
            for name, _inst, entry in pool["entries"]
            if any("degree" in f for f in entry["failures"])
        ]
        assert not bad, f"degree law failed on {bad[:5]}"


def test_criterion_5_max_flow_min_cut(pool):
    with criterion("5 vector max-flow equals min-cut elementwise"):
        bad = [
            name
            for name, _inst, entry in pool["entries"]
            if any("elementwise" in f for f in entry["failures"])
        ]
        assert not bad, f"max-flow/min-cut mismatch on {bad[:5]}"


def test_criterion_6_space_claims():
    with criterion("6 storage-size claims"):
        started = time.perf_counter()
        report = space_report(i1_rotation_profiles(100_000), 100_000)
        analytic_seconds = time.perf_counter() - started
        assert report.exponential_total > 8 * 10**10
        assert abs(report.vector_total - 5.4e6) <= 0.2 * 5.4e6
        assert analytic_seconds < 1.0

        for n in (4, 6, 8):
            inst = preprocess(generate_I1(n))
            extracted = sorted(r.profile.elements for r in find_rotations(inst))
            analytic = sorted(p.elements for p in i1_rotation_profiles(n))
            assert extracted == analytic


def test_criterion_7_space_trend_n1000():
    with criterion("7 storage trend at n=1000 over 50 instances"):
        started = time.perf_counter()
        exp_totals = []
        vec_totals = []
        for i in range(50):
            inst = preprocess(generate_uniform(1000, 1000, 1.0, seed=30_000 + i))
            profiles = [r.profile for r in find_rotations(inst)]
            report = space_report(profiles, inst.n_men)
            exp_totals.append(report.exponential_total)
            vec_totals.append(report.vector_total)
        mean_exp = sum(exp_totals) / len(exp_totals)
        mean_vec = sum(vec_totals) / len(vec_totals)
        assert mean_vec <= mean_exp / 5
        assert time.perf_counter() - started < 600.0


def test_criterion_8_measure_sanity(pool):
    with criterion("8 measure sanity"):
        assert last_choice_threshold(200, 50) == 101
        for _name, inst, entry in pool["entries"]:
            if inst.n_men == 0:
                continue
            for matching, profile in zip(entry["matchings"], entry["profiles"]):
                stats = matching_stats(inst, matching)
                assert stats.cost == stats.man_cost + stats.woman_cost
                assert stats.sex_equal == abs(stats.man_cost - stats.woman_cost)
                assert stats.degree == max(stats.man_degree, stats.woman_degree)
                assert stats.first_choices == dict(profile.pairs).get(1, 0)
                assert stats.degree == profile.degree
                assert stats.cost == sum(
                    k * c for k, c in enumerate(profile.elements, start=1)
                )
