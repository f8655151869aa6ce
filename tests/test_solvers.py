import random
import tracemalloc
from collections import Counter
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from profmatch import (
    Criterion,
    EnumerationCapError,
    Instance,
    Matching,
    blocking_pair,
    build_digraph,
    build_vb_network,
    eliminate_closed_subset,
    enumerate_stable_matchings,
    find_rotations,
    generate_I1,
    generate_uniform,
    high_weight,
    man_optimal,
    matching_degree,
    max_profile_closed_subset,
    max_vb_flow,
    min_cut,
    min_regret_degree,
    oracle_exponential_flow,
    parse_instance,
    preprocess,
    profile_of,
    select_egalitarian,
    select_median,
    select_min_regret,
    select_sex_equal,
    solve,
    truncate,
)
from profmatch import stability
from profmatch.rotations import apply_rotation
from profmatch.solvers import _Lattice, _cost_pair, _egalitarian_weight, _flow_solution

from helpers import (
    I0_ALL_MATCHINGS,
    I0_FLOW_VALUE_WEIGHT,
    I0_OPTIMAL_SUBSET,
    I0_RANK_MAXIMAL,
    assert_same_poset,
    bfs_enumeration_oracle,
    brute_force_all_stable_matchings,
    brute_force_stable_matchings,
    count_calls,
    cutoff_families,
    latin_chain,
    poset_families,
    rotation_name_map,
    sparse_lists,
    sweep_rotations_reference,
    tiny_unique_instance,
    truncated_at_min_regret,
)


GENEROUS_I0 = I0_ALL_MATCHINGS[5]


def _random_pre(seed, n=6, density=1.0):
    return preprocess(generate_uniform(n, n, density, seed=seed))


def test_rank_maximal_i0(i0_pre):
    assert solve(i0_pre, Criterion.RANK_MAXIMAL) == Matching(I0_RANK_MAXIMAL)


def test_rank_maximal_unique_instance():
    inst = preprocess(tiny_unique_instance())
    assert solve(inst, Criterion.RANK_MAXIMAL) == man_optimal(inst)


def test_rank_maximal_matches_enumeration_argmax():
    for seed in range(40):
        inst = _random_pre(2000 + seed, n=4 + seed % 5, density=1.0 if seed % 2 else 0.55)
        if inst.n_men == 0:
            continue
        best = max(profile_of(inst, M) for M in enumerate_stable_matchings(inst))
        got = solve(inst, Criterion.RANK_MAXIMAL)
        assert profile_of(inst, got) == best
        assert blocking_pair(inst, got) is None


def test_generous_i0_matches_enumeration_and_golden(i0_pre):
    n = i0_pre.n_men
    enumerated = enumerate_stable_matchings(i0_pre)
    best_rev = max(profile_of(i0_pre, M).reverse_negate(n) for M in enumerated)
    got = solve(i0_pre, Criterion.GENEROUS)
    assert profile_of(i0_pre, got).reverse_negate(n) == best_rev
    assert got == Matching(GENEROUS_I0)


def test_generous_unique_instance():
    inst = preprocess(tiny_unique_instance())
    assert solve(inst, Criterion.GENEROUS) == man_optimal(inst)


def test_generous_matches_enumeration_and_degree_law():
    for seed in range(40):
        inst = _random_pre(3000 + seed, n=4 + seed % 5, density=1.0 if seed % 2 else 0.55)
        if inst.n_men == 0:
            continue
        n = inst.n_men
        got = solve(inst, Criterion.GENEROUS)
        assert blocking_pair(inst, got) is None
        profiles = [profile_of(inst, M) for M in enumerate_stable_matchings(inst)]
        # Lexicographically minimal reverse profile == maximal reverse-negated.
        assert profile_of(inst, got).reverse_negate(n) == max(
            p.reverse_negate(n) for p in profiles
        )
        assert matching_degree(inst, got) == min_regret_degree(inst)


def test_reverse_min_equals_reverse_negated_max():
    # The two formulations select the same profile set.
    for seed in range(15):
        inst = _random_pre(3500 + seed, n=6)
        if inst.n_men == 0:
            continue
        n = inst.n_men
        profiles = [profile_of(inst, M) for M in enumerate_stable_matchings(inst)]
        rev = lambda p: tuple(reversed(p.padded(n)))
        min_rev = min(rev(p) for p in profiles)
        argmin = {p for p in profiles if rev(p) == min_rev}
        best_neg = max(p.reverse_negate(n) for p in profiles)
        argmax = {p for p in profiles if p.reverse_negate(n) == best_neg}
        assert argmin == argmax


def test_enumerate_i0(i0_pre):
    matchings = enumerate_stable_matchings(i0_pre)
    assert len(matchings) == 8
    assert set(matchings) == {Matching(pairs) for pairs in I0_ALL_MATCHINGS}
    assert matchings[0] == man_optimal(i0_pre)


def test_enumerate_singleton():
    inst = preprocess(tiny_unique_instance())
    assert enumerate_stable_matchings(inst) == [man_optimal(inst)]


def test_enumerate_counts_match_brute_force():
    for seed in range(25):
        inst = _random_pre(4000 + seed, n=6, density=1.0 if seed % 3 else 0.6)
        enumerated = enumerate_stable_matchings(inst)
        brute = brute_force_stable_matchings(inst)
        assert len(enumerated) == len(set(enumerated)) == len(brute)
        assert set(enumerated) == set(brute)


def test_enumerate_order_descends_the_man_lattice():
    # Every matching after the first arises from an earlier one by applying
    # a single rotation: remove its pairs, add the rotated pairs.
    for seed in range(10):
        inst = _random_pre(4500 + seed, n=6)
        if inst.n_men == 0:
            continue
        rotations = find_rotations(inst)
        rotation_moves = []
        for rot in rotations:
            k = len(rot.cycle)
            after = frozenset(
                (rot.cycle[i][0], rot.cycle[(i + 1) % k][1]) for i in range(k)
            )
            rotation_moves.append((frozenset(rot.cycle), after))
        out = enumerate_stable_matchings(inst)
        assert out[0] == man_optimal(inst)
        seen = [frozenset(out[0].pairs)]
        for matching in out[1:]:
            pairs = frozenset(matching.pairs)
            assert any(
                earlier >= before and pairs == (earlier - before) | after
                for earlier in seen
                for before, after in rotation_moves
            )
            seen.append(pairs)


def test_enumerate_cap(i0_pre):
    with pytest.raises(EnumerationCapError):
        enumerate_stable_matchings(i0_pre, cap=4)
    with pytest.raises(ValueError):
        enumerate_stable_matchings(i0_pre, cap=0)


def test_fractional_cap_trips_once_the_count_exceeds_it():
    # The count is an int, so no count equals a cap of 2.5 or 3.5: the cap
    # must trip as soon as the count would exceed it, not when it equals it.
    inst = preprocess(generate_uniform(8, 8, 1.0, seed=3))
    assert len(enumerate_stable_matchings(inst)) == 4
    for cap in (2.5, 3.5):
        with pytest.raises(EnumerationCapError):
            enumerate_stable_matchings(inst, cap=cap)
        for criterion in (Criterion.SEX_EQUAL, Criterion.MEDIAN):
            with pytest.raises(EnumerationCapError):
                solve(inst, criterion, cap=cap)
    assert len(enumerate_stable_matchings(inst, cap=4.5)) == 4


def test_enumeration_matches_visited_set_bfs(i0_pre):
    # The same list in the same order as the breadth-first search that keeps
    # a set of visited subsets, and the cap trips at the same count.
    instances = [i0_pre] + [preprocess(generate_I1(n)) for n in range(4, 13, 2)]
    for seed in range(300):
        instances.append(
            _random_pre(4800 + seed, n=4 + seed % 9, density=(1.0, 0.7, 0.4)[seed % 3])
        )
    most = 0
    for inst in instances:
        expected = bfs_enumeration_oracle(inst)
        assert enumerate_stable_matchings(inst) == expected
        count = len(expected)
        most = max(most, count)
        assert len(enumerate_stable_matchings(inst, cap=count)) == count
        if count > 1:
            with pytest.raises(EnumerationCapError):
                enumerate_stable_matchings(inst, cap=count - 1)
    assert most >= 64


def test_enumeration_memory_is_a_wife_tuple_per_matching():
    # 4,096 stable matchings of 24 men: about 4 MiB would be 1 KB a matching.
    inst = preprocess(generate_I1(24))
    tracemalloc.start()
    try:
        matchings = enumerate_stable_matchings(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matchings) == 4096
    assert peak < 4 * 2**20


def test_sex_equal_and_median_walks_equal_the_selectors(i0_pre):
    # solve walks the closed subsets without building the enumeration; its
    # answers must be the selectors' over it, and the cap must trip at the
    # same count.
    instances = poset_families(i0_pre)
    instances += [preprocess(generate_I1(n)) for n in (14, 16)]
    for seed in range(300):
        # The instances of test_enumeration_matches_visited_set_bfs.
        instances.append(
            _random_pre(4800 + seed, n=4 + seed % 9, density=(1.0, 0.7, 0.4)[seed % 3])
        )
    most = 0
    for inst in instances:
        matchings = enumerate_stable_matchings(inst)
        count = len(matchings)
        most = max(most, count)
        for criterion, select in (
            (Criterion.SEX_EQUAL, select_sex_equal),
            (Criterion.MEDIAN, select_median),
        ):
            assert solve(inst, criterion) == select(matchings, inst), criterion
            assert solve(inst, criterion, cap=count) == select(matchings, inst)
            if count > 1:
                with pytest.raises(EnumerationCapError):
                    solve(inst, criterion, cap=count - 1)
    assert len(instances) == 634 and most == 256


@pytest.mark.parametrize("criterion", [Criterion.SEX_EQUAL, Criterion.MEDIAN])
def test_sex_equal_and_median_hold_no_matching_per_node(criterion):
    # 4,096 stable matchings of 24 men, whose enumeration peaks near 3 MiB.
    inst = preprocess(generate_I1(24))
    tracemalloc.start()
    try:
        matching = solve(inst, criterion)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocking_pair(inst, matching) is None
    assert peak < 2**19


def test_median_singleton():
    inst = preprocess(tiny_unique_instance())
    ms = enumerate_stable_matchings(inst)
    assert select_median(ms, inst) == ms[0]


def test_median_i0_matches_direct_construction(i0_pre):
    matchings = enumerate_stable_matchings(i0_pre)
    got = select_median(matchings, i0_pre)
    # Assemble the expected pairs straight from the known matching list.
    expected = []
    j = (len(matchings) + 1) // 2
    for m in range(1, 9):
        partners = sorted(
            (M.wife_of(m) for M in matchings), key=lambda w: i0_pre.men_rank[m][w]
        )
        expected.append((m, partners[j - 1]))
    assert got == Matching(expected)
    assert blocking_pair(i0_pre, got) is None


def test_median_odd_count_picks_middle():
    # Hunt a deterministic seed giving an odd stable-matching count >= 3.
    for seed in range(100):
        inst = _random_pre(5000 + seed, n=5)
        ms = enumerate_stable_matchings(inst)
        if len(ms) >= 3 and len(ms) % 2 == 1:
            got = select_median(ms, inst)
            j = (len(ms) + 1) // 2
            for m in range(1, inst.n_men + 1):
                partners = sorted(
                    (M.wife_of(m) for M in ms), key=lambda w: inst.men_rank[m][w]
                )
                assert got.wife_of(m) == partners[j - 1]
            return
    pytest.fail("no odd-count instance found in the seed range")


def test_median_always_stable():
    for seed in range(20):
        inst = _random_pre(5200 + seed, n=6)
        if inst.n_men == 0:
            continue
        ms = enumerate_stable_matchings(inst)
        assert blocking_pair(inst, select_median(ms, inst)) is None


def test_median_rejects_partial_enumeration_and_unstable_assembly(i0):
    # On the input lists, where every agent is assigned: the band drops
    # pairs the unstable matching uses.
    matchings = enumerate_stable_matchings(i0)
    # Man 8, the last, is unmatched in one matching: its wife tuple is short.
    partial = Matching(pair for pair in matchings[0] if pair[0] != 8)
    with pytest.raises(RuntimeError, match="full enumeration"):
        select_median(matchings[1:] + [partial], i0)
    # The median of one unstable perfect matching is that matching.
    unstable = Matching((m, m) for m in range(1, 9))
    assert blocking_pair(i0, unstable) is not None
    with pytest.raises(RuntimeError, match="not stable"):
        select_median([unstable], i0)


def test_egalitarian_and_sex_equal_i0(i0_pre):
    matchings = enumerate_stable_matchings(i0_pre)

    def cost(M):
        return sum(i0_pre.men_rank[m][w] + i0_pre.women_rank[w][m] for m, w in M)

    egal = select_egalitarian(matchings, i0_pre)
    assert cost(egal) == min(cost(M) for M in matchings)

    def balance(M):
        mc = sum(i0_pre.men_rank[m][w] for m, w in M)
        wc = sum(i0_pre.women_rank[w][m] for m, w in M)
        return abs(mc - wc)

    sexeq = select_sex_equal(matchings, i0_pre)
    assert balance(sexeq) == min(balance(M) for M in matchings)


def test_selectors_reject_empty():
    inst = preprocess(tiny_unique_instance())
    for fn in (select_egalitarian, select_sex_equal, select_median, select_min_regret):
        with pytest.raises(ValueError):
            fn([], inst)


def test_selectors_reject_pairs_the_instance_does_not_accept():
    # Man 1 lists only woman 1.  The cost selectors once ranked the crossed
    # matching first, at a "cost" of 3 read from a dense row's 0, and the
    # median selector once sorted by his sparse row and raised KeyError.
    dense = parse_instance("2 2\n1\n1 2\n1 2\n2\n")
    sparse = parse_instance("5 5\n1\n" + "1 2 3 4 5\n" * 9)
    assert type(sparse.men_rank[1]) is dict
    crossed, straight = Matching([(1, 2), (2, 1)]), Matching([(1, 1), (2, 2)])
    for inst in (dense, sparse):
        for select in (select_egalitarian, select_sex_equal, select_median, select_min_regret):
            with pytest.raises(ValueError, match=r"pair \(1,2\) is not mutually acceptable"):
                select([crossed, straight], inst)


def test_sex_equal_zero_on_symmetric_singleton():
    inst = preprocess(generate_uniform(1, 1, 1.0, seed=1))
    ms = enumerate_stable_matchings(inst)
    got = select_sex_equal(ms, inst)
    mc = sum(inst.men_rank[m][w] for m, w in got)
    wc = sum(inst.women_rank[w][m] for m, w in got)
    assert mc == wc == 1


def test_min_regret_selector_matches_degree_search():
    for seed in range(15):
        inst = _random_pre(5400 + seed, n=6)
        if inst.n_men == 0:
            continue
        ms = enumerate_stable_matchings(inst)
        witness = select_min_regret(ms, inst)
        assert matching_degree(inst, witness) == min_regret_degree(inst)


def test_min_regret_equals_first_enumerated_of_least_degree():
    # solve returns the man-optimal matching of the minimum degree without
    # enumerating; it must be the very matching the enumeration picks.
    instances = [generate_I1(n) for n in range(4, 11, 2)]
    for seed in range(60):
        inst = _random_pre(5450 + seed, n=4 + seed % 5, density=(1.0, 0.7, 0.4)[seed % 3])
        instances.append(inst)
        if inst.n_men:
            # Truncated instances keep the base ranks, which are sparse.
            instances.append(truncate(inst, min_regret_degree(inst)).instance)
    for inst in instances:
        inst = preprocess(inst)
        expected = select_min_regret(enumerate_stable_matchings(inst), inst)
        assert solve(inst, Criterion.MIN_REGRET) == expected


def test_criteria_outside_enumeration_backed_never_enumerate(i0_pre, monkeypatch):
    # Only sex-equal and median walk the closed subsets, so only they feel
    # the cap: every other criterion solves under a cap of 1.
    enumeration_backed = {Criterion.SEX_EQUAL, Criterion.MEDIAN}

    def refuse(*_args, **_kwargs):
        raise AssertionError("enumeration called")

    monkeypatch.setattr("profmatch.solvers.enumerate_stable_matchings", refuse)
    for criterion in Criterion:
        if criterion in enumeration_backed:
            with pytest.raises(EnumerationCapError):
                solve(i0_pre, criterion, cap=1)
        else:
            assert blocking_pair(i0_pre, solve(i0_pre, criterion, cap=1)) is None


def test_egalitarian_equals_first_enumerated_tie(i0_pre):
    # The closure with weight (-cost change, -1) per rotation is the unique
    # least-cost closed set with the fewest rotations, which breadth-first
    # enumeration meets first: the matching itself must agree, not only
    # its cost.
    instances = poset_families(i0_pre)
    for seed in range(300):
        n, density = 6 + seed % 10, (1.0, 0.7, 0.5)[seed % 3]
        instances.append(preprocess(generate_uniform(n, n, density, seed=7700 + seed)))
    instances += [truncated_at_min_regret(inst)[0] for inst in instances if inst.n_men]
    tied = 0
    for inst in instances:
        matchings = enumerate_stable_matchings(inst)
        costs = [
            sum(inst.men_rank[m][w] + inst.women_rank[w][m] for m, w in M) for M in matchings
        ]
        tied += costs.count(min(costs)) > 1
        assert solve(inst, Criterion.EGALITARIAN) == select_egalitarian(matchings, inst)
    assert len(instances) >= 1200 and tied >= 100


def test_mixed_rank_rows_agree_with_oracles():
    # Lists of 1..n entries give dict rows to short lists and dense rows to
    # long ones within one instance.  Their bands are short, so the dense
    # rows that reach the solvers come from the uncut Latin chains: a chain
    # is its own band, and every one of its lists is as long as its side.
    family = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(12, 16)
        family.append(Instance.from_lists(
            *sparse_lists(n, [rng.randint(1, n) for _ in range(n)], seed=9100 + seed)
        ))
    family += [latin_chain(n) for n in (4, 5, 6, 9)]
    kinds_in, kinds_pre = set(), set()
    brute_forced = 0
    for inst in family:
        pre = preprocess(inst)
        kinds_in.update(type(row) for row in inst.men_rank[1:] + inst.women_rank[1:])
        kinds_pre.update(type(row) for row in pre.men_rank[1:] + pre.women_rank[1:])
        matchings = enumerate_stable_matchings(pre)
        # The brute force grows every matching, so run it where that is small.
        if prod(1 + len(lst) for lst in pre.men_lists) <= 2**16:
            brute = brute_force_all_stable_matchings(pre)
            assert brute == {frozenset(M) for M in matchings}
            brute_forced += 1
        profiles = [profile_of(pre, M) for M in matchings]
        n = pre.n_men
        rank_max = solve(pre, Criterion.RANK_MAXIMAL)
        assert profile_of(pre, rank_max) == max(profiles) and rank_max in matchings
        generous = solve(pre, Criterion.GENEROUS)
        assert profile_of(pre, generous).reverse_negate(n) == max(
            p.reverse_negate(n) for p in profiles
        )
        assert generous in matchings
        assert solve(pre, Criterion.EGALITARIAN) == select_egalitarian(matchings, pre)
        assert solve(pre, Criterion.MIN_REGRET) == select_min_regret(matchings, pre)
    assert kinds_in == kinds_pre == {dict, tuple}
    assert brute_forced >= 30


def test_oracle_i0(i0_pre):
    rotations = find_rotations(i0_pre)
    digraph = build_digraph(i0_pre, rotations)
    value, subset = oracle_exponential_flow(rotations, digraph, 8)
    assert value == I0_FLOW_VALUE_WEIGHT
    names = rotation_name_map(rotations)
    assert {names[r] for r in subset} == I0_OPTIMAL_SUBSET


def test_oracle_empty():
    from profmatch import RotationDigraph

    value, subset = oracle_exponential_flow([], RotationDigraph(0, {}), 5)
    assert value == 0 and subset == frozenset()


def test_oracle_agrees_with_pipeline_in_both_modes(i0_pre):
    # Both flows take the positive rotations outside the residual-reachable
    # set, closed upward, and that set is the same for every maximum flow:
    # the vector and scalar pipelines must choose the same closed subset.
    from profmatch import eliminate_closed_subset
    from profmatch.solvers import _flow_solution, _Poset

    def agree(inst, window):
        # The poset of ``inst``, cut at ``window`` (no pair lies past it),
        # with rank-maximal weights if it is None and else generous ones
        # reverse-negated over ``window`` ranks.
        rotations = find_rotations(inst)
        digraph = build_digraph(inst, rotations)
        m0 = man_optimal(inst)
        poset = _Poset(inst, stability._man_optimal_run(inst), window)
        assert poset.rotations == tuple(rotations) and poset.digraph == digraph
        criterion = Criterion.RANK_MAXIMAL if window is None else Criterion.GENEROUS
        vb_match, (_flow, _cut, subset_vb) = _flow_solution(poset, criterion)
        _value, subset_or = oracle_exponential_flow(rotations, digraph, inst.n_men, window)
        assert subset_vb == subset_or
        or_match = eliminate_closed_subset(inst, m0, rotations, digraph, subset_or)
        assert profile_of(inst, vb_match) == profile_of(inst, or_match)
        return bool(subset_vb)

    instances = poset_families(i0_pre)
    for seed in range(25):
        instances.append(
            _random_pre(5600 + seed, n=4 + seed % 5, density=1.0 if seed % 2 else 0.6)
        )
    nonempty = 0
    for inst in instances:
        n = inst.n_men
        if not find_rotations(inst):
            continue
        nonempty += agree(inst, None)
        nonempty += agree(inst, n)
        # The generous solve's own network: the truncation at the
        # minimum-regret degree d, with profiles reverse-negated over d ranks.
        trunc, d = truncated_at_min_regret(inst)
        if find_rotations(trunc):
            nonempty += agree(trunc, d)
    assert nonempty >= 150


def test_flow_solution_agrees_with_oracle_on_long_profiles():
    # The comparisons above stop at n = 8, where a profile has a few
    # entries.  Complete lists at n = 60-150 give rotation profiles of
    # degree near n and flows whose vectors hold tens of entries, on the
    # full poset (rank-maximal weights) and on the generous one (weights
    # reverse-negated over its cutoff d).
    from profmatch.solvers import _flow_solution

    longest = nonzero_generous = 0
    for n, seed in ((60, 1), (60, 2), (90, 3), (90, 4), (120, 5), (120, 6), (150, 5), (150, 6)):
        lattice = _Lattice(preprocess(generate_uniform(n, n, 1.0, seed=seed)))
        for poset, criterion in (
            (lattice.full, Criterion.RANK_MAXIMAL),
            (lattice.generous, Criterion.GENEROUS),
        ):
            _matching, (flow, cut, subset) = _flow_solution(poset, criterion)
            value, expected = oracle_exponential_flow(
                poset.rotations, poset.digraph, n, poset.cutoff
            )
            assert subset == expected
            assert high_weight(flow.value, n) == value
            assert cut.capacity == flow.value
            longest = max(longest, len(flow.value.pairs))
            nonzero_generous += poset.cutoff is not None and not flow.value.is_zero
    assert longest >= 60 and nonzero_generous >= 2


# Walk-built digraphs: seeded instances at n = 2-14 and three densities,
# and one complete n = 300 instance, whose walk records thousands of edges
# of which a tenth are left in the reduction.
walk_cases = st.tuples(st.integers(2, 14), st.sampled_from((1.0, 0.7, 0.4)), st.integers(0, 10**6))
COMPLETE_300 = (300, 1.0, 7)


def _full_poset(case):
    n, density, seed = case
    return _Lattice(preprocess(generate_uniform(n, n, density, seed=seed))).full


@settings(max_examples=300, deadline=None)
@given(case=walk_cases)
@example(case=COMPLETE_300)
def test_reduction_keeps_every_ancestor_and_no_implied_edge(case):
    poset = _full_poset(case)
    full = poset.digraph
    reduced = full.reduction
    labels = {(u, v): labs for u, v, labs in full.edges()}
    for u, v, labs in reduced.edges():
        assert labels[u, v] == labs
    for v in range(full.size):
        assert reduced.ancestors([v]) == full.ancestors([v])
        kept = reduced.predecessors(v)
        for u in kept:
            assert u not in reduced.ancestors(w for w in kept if w != u)
    if all(len(full.predecessors(v)) < 2 for v in range(full.size)):
        assert reduced is full


def test_reduction_returns_a_chain_as_is_and_thins_a_complete_poset():
    for n in (2, 5, 30, 80):
        poset = _Lattice(preprocess(latin_chain(n))).full
        digraph = poset.digraph
        assert digraph.reduction is digraph and len(digraph.edges()) == n - 2
    poset = _full_poset(COMPLETE_300)
    assert len(poset.digraph.reduction.edges()) * 5 < len(poset.digraph.edges())


@settings(max_examples=300, deadline=None)
@given(case=walk_cases)
@example(case=COMPLETE_300)
def test_egalitarian_on_the_reduction_equals_the_full_network(case):
    # The network on the full digraph is the reference the reduced one
    # replaced.
    poset = _full_poset(case)
    matching, (flow, cut, subset) = _flow_solution(poset, Criterion.EGALITARIAN)
    weights = [_egalitarian_weight(r.rank_change) for r in poset.rotations]
    net = build_vb_network(weights, poset.digraph)
    ref_flow = max_vb_flow(net)
    ref_cut = min_cut(net, ref_flow)
    ref_subset = max_profile_closed_subset(net, poset.digraph, ref_cut)
    assert (subset, flow.value, cut) == (ref_subset, ref_flow.value, ref_cut)
    assert matching == poset.eliminate(ref_subset)


def test_only_egalitarian_reads_the_reduction(monkeypatch):
    lattice = _Lattice(preprocess(generate_uniform(40, 40, 1.0, seed=5)))
    read = []
    real = build_vb_network

    def build(weights, digraph):
        read.append(digraph)
        return real(weights, digraph)

    monkeypatch.setattr("profmatch.solvers.build_vb_network", build)
    lattice.solve(Criterion.RANK_MAXIMAL)
    lattice.solve(Criterion.GENEROUS)
    assert "reduction" not in vars(lattice.full.digraph)
    assert "reduction" not in vars(lattice.generous.digraph)
    lattice.solve(Criterion.EGALITARIAN)
    full = lattice.full
    assert len(read) == 3 and full.digraph.reduction != full.digraph
    assert read[0] is full.digraph and read[1] is lattice.generous.digraph
    assert read[2] is full.digraph.reduction


def test_solve_dispatcher_all_criteria(i0_pre):
    for criterion in Criterion:
        matching = solve(i0_pre, criterion)
        assert blocking_pair(i0_pre, matching) is None
        assert len(matching) == 8
    assert solve(i0_pre, Criterion.MAN_OPTIMAL) == man_optimal(i0_pre)
    assert solve(i0_pre, Criterion.RANK_MAXIMAL) == Matching(I0_RANK_MAXIMAL)
    assert matching_degree(i0_pre, solve(i0_pre, Criterion.MIN_REGRET)) == 6


def test_solver_outputs_perfect_on_preprocessed():
    for seed in range(10):
        inst = _random_pre(5800 + seed, n=6, density=0.6)
        for criterion in (Criterion.RANK_MAXIMAL, Criterion.GENEROUS):
            matching = solve(inst, criterion)
            assert len(matching) == inst.n_men == inst.n_women


def test_deferred_acceptance_runs_once_per_poset(monkeypatch):
    inst = preprocess(generate_uniform(40, 40, 1.0, seed=3))
    counts = count_calls(monkeypatch)
    _Lattice(inst).generous
    min_regret_runs = counts["DeferredAcceptance"]
    # One run, resumed at each cutoff: no restart per cutoff and no
    # woman-proposing run for a lower bound.
    assert min_regret_runs == 1
    expected = {
        Criterion.RANK_MAXIMAL: 1,
        Criterion.GENEROUS: min_regret_runs,
        Criterion.EGALITARIAN: 1,
        Criterion.SEX_EQUAL: 1,
        Criterion.MEDIAN: 1,
    }
    for criterion, runs in expected.items():
        counts.clear()
        solve(inst, criterion)
        assert counts["DeferredAcceptance"] == runs, criterion


def test_generous_builds_no_instance(i0_pre, monkeypatch):
    # The generous solve works on the preprocessed instance itself, under
    # the minimum-regret cutoff: no truncated copy is built.
    seeded = preprocess(generate_uniform(40, 40, 1.0, seed=3))
    built = []
    real = Instance.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counting)
    for inst in (i0_pre, seeded):
        assert blocking_pair(inst, solve(inst, Criterion.GENEROUS)) is None
        assert built == []


def test_profiles_and_rank_changes_equal_eager_reference(i0_pre):
    # Every rotation of either poset reads the profile the reference walk
    # builds at extraction for its cycle, and its rank change (dm, dw) is
    # the change in the men's and the women's cost across its elimination,
    # in id order from the man-optimal matching (so dm - dw is the change
    # in man minus woman cost), and dm + dw is the sum of k * p_k over its
    # profile.  The reference numbers the rotations in another topological
    # order, so they are matched by cycle.
    checked = 0
    for inst in poset_families(i0_pre):
        n = inst.n_men
        if n == 0:
            continue
        lattice = _Lattice(inst)
        for poset in (lattice.full, lattice.generous):
            eager = []
            reference = sweep_rotations_reference(
                inst, poset.man_optimal.wife_array(n), poset.cutoff, eager
            )
            assert_same_poset(inst, list(poset.rotations), reference, eager)
            eager = dict(zip((r.cycle for r in reference), eager))
            wife = poset.man_optimal.wife_array(n)
            before = _cost_pair(inst, poset.man_optimal)
            for rot in poset.rotations:
                profile = eager[rot.cycle]
                dm, dw = rot.rank_change
                assert dm + dw == sum(k * e for k, e in profile.pairs)
                apply_rotation(wife, rot.cycle)
                after = _cost_pair(inst, Matching.from_wife_array(wife))
                assert (dm, dw) == (after[0] - before[0], after[1] - before[1])
                before = after
                checked += 1
    assert checked >= 700


def test_profiles_are_built_only_for_the_criteria_that_read_them(i0_pre, monkeypatch):
    # Egalitarian and sex-equal read rank changes and median reads no
    # weight, so they build no profile; rank-maximal and generous build
    # each rotation's profile of their poset once.  Likewise only
    # egalitarian and sex-equal build rank changes, one per rotation of the
    # full poset.
    instances = [i0_pre, preprocess(latin_chain(12)),
                 preprocess(generate_uniform(40, 40, 1.0, seed=3))]
    counts = count_calls(monkeypatch)
    total = Counter()
    for inst in instances:
        lattice = _Lattice(inst)
        full, generous = len(lattice.full.rotations), len(lattice.generous.rotations)
        profiles = {Criterion.RANK_MAXIMAL: full, Criterion.GENEROUS: generous}
        rank_changes = {Criterion.EGALITARIAN: full, Criterion.SEX_EQUAL: full}
        for criterion in (Criterion.SEX_EQUAL, Criterion.MEDIAN, Criterion.EGALITARIAN,
                          Criterion.RANK_MAXIMAL, Criterion.GENEROUS):
            counts.clear()
            solve(inst, criterion)
            assert counts["_cycle_profile"] == profiles.get(criterion, 0), criterion
            assert counts["_rank_change"] == rank_changes.get(criterion, 0), criterion
            total[criterion] += counts["_cycle_profile"]
    assert total[Criterion.RANK_MAXIMAL] == 23 and total[Criterion.GENEROUS] == 4


def _staged_generous(inst):
    degree = min_regret_degree(inst)
    trunc = truncate(inst, degree).instance
    m0 = man_optimal(trunc)
    rotations = find_rotations(trunc)
    if not rotations:
        return m0
    digraph = build_digraph(trunc, rotations)
    net = build_vb_network([r.profile.reverse_negate(degree) for r in rotations], digraph)
    subset = max_profile_closed_subset(net, digraph, min_cut(net, max_vb_flow(net)))
    return eliminate_closed_subset(trunc, m0, rotations, digraph, subset)


def test_solve_generous_equals_staged_path(i0_pre):
    # The staged path builds the truncation at the minimum-regret degree;
    # the solve extracts the same rotations under that cutoff instead.
    for inst in cutoff_families(i0_pre):
        if inst.n_men == 0:
            assert solve(inst, Criterion.GENEROUS) == Matching(())
        else:
            assert solve(inst, Criterion.GENEROUS) == _staged_generous(inst)


def _poset_parts(lattice):
    return [(poset.man_optimal, poset.rotations, poset.digraph, poset.cutoff)
            for poset in (lattice.full, lattice.generous)] + [lattice.walk]


def test_shared_posets_give_every_criterion_what_solve_gives(i0_pre):
    # One lattice per instance, its full poset, walk and generous poset
    # shared by every criterion, in Criterion order and reversed: each
    # answer equals solve's, which builds its own, and no consumer changes
    # what it shares.
    instances = cutoff_families(i0_pre)
    for seed in range(40):
        density = (1.0, 0.5)[seed % 2]
        instances.append(preprocess(generate_uniform(30, 30, density, seed=8200 + seed)))
    for inst in instances:
        expected = {criterion: solve(inst, criterion) for criterion in Criterion}
        lattice = _Lattice(inst)
        for order in (list(Criterion), list(reversed(Criterion))):
            for criterion in order:
                assert lattice.solve(criterion) == expected[criterion], criterion
        assert _poset_parts(lattice) == _poset_parts(_Lattice(inst))


def test_matching_only_criteria_walk_no_rotations(i0_pre, monkeypatch):
    # Man-optimal and min-regret read only their poset's man-optimal
    # matching, and woman-optimal no poset: none extracts rotations.  The
    # minimum-regret descent cuts only the list ends of the men it frees;
    # every man's end is cut, in one more call, only when the generous
    # poset walks.
    instances = [i0_pre, preprocess(latin_chain(12))]
    instances += [preprocess(generate_uniform(40, 40, density, seed=3)) for density in (1.0, 0.5)]
    counts = count_calls(monkeypatch)
    cuts = []
    real_cut = stability._cut_list_ends

    def cut(inst, end, men, cutoff):
        cuts.append(len(men))
        real_cut(inst, end, men, cutoff)

    monkeypatch.setattr(stability, "_cut_list_ends", cut)
    monkeypatch.setattr("profmatch.solvers._cut_list_ends", cut)
    for inst in instances:
        cuts.clear()
        _Lattice(inst).generous
        descent = list(cuts)
        for criterion in (Criterion.MIN_REGRET, Criterion.MAN_OPTIMAL, Criterion.WOMAN_OPTIMAL):
            counts.clear()
            cuts.clear()
            solve(inst, criterion)
            assert counts["_rotations_from"] == 0, criterion
            assert cuts == (descent if criterion is Criterion.MIN_REGRET else []), criterion
        cuts.clear()
        solve(inst, Criterion.GENEROUS)
        assert cuts == descent + [inst.n_men]
