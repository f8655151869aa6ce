import dataclasses
import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from profmatch import (
    Criterion,
    Instance,
    Matching,
    Profile,
    RotationDigraph,
    blocking_pair,
    build_digraph,
    eliminate_closed_subset,
    enumerate_stable_matchings,
    find_rotations,
    generate_I1,
    generate_uniform,
    man_optimal,
    min_regret_degree,
    preprocess,
    profile_of,
    solve,
    truncate,
    woman_optimal,
)
from profmatch import solvers
from profmatch.rotations import _rotations_from, apply_rotation
from profmatch.solvers import _Lattice, _Poset
from profmatch.stability import _cut_list_ends, _man_optimal_run, _min_regret_run

from helpers import (
    DESCENT_ENDS,
    I0_DIGRAPH_EDGES,
    I0_RANK_MAXIMAL,
    I0_ROTATIONS,
    all_closed_subsets,
    assert_same_poset,
    cutoff_families,
    cutoff_rotations,
    latin_chain,
    linear_scan_digraph_oracle,
    poset_families,
    rotation_name_map,
    sparse_lists,
    sweep_rotations_reference,
    tiny_unique_instance,
    truncated_at_min_regret,
)


def test_i0_rotations_match_textbook_set(i0_pre):
    rotations = find_rotations(i0_pre)
    assert len(rotations) == 5
    found = {frozenset(rot.cycle): rot.profile for rot in rotations}
    assert found == I0_ROTATIONS


def test_find_rotations_requires_preprocessed():
    from profmatch import parse_instance

    lopsided = parse_instance("2 1\n1\n1\n1 2\n")
    with pytest.raises(ValueError, match="preprocessed"):
        find_rotations(lopsided)


def test_no_rotations_when_lattice_is_trivial():
    inst = preprocess(tiny_unique_instance())
    assert find_rotations(inst) == []
    digraph = build_digraph(inst, [])
    assert digraph.size == 0 and digraph.edges() == ()


def test_i1_rotations():
    inst = preprocess(generate_I1(4))
    rotations = find_rotations(inst)
    assert len(rotations) == 2
    assert {frozenset(rot.cycle) for rot in rotations} == {
        frozenset({(1, 1), (2, 2)}),
        frozenset({(3, 3), (4, 4)}),
    }
    for rot in rotations:
        assert rot.profile == Profile([0, -2, 0, 2])
    # The two rotations are incomparable: no precedence edges at all.
    assert build_digraph(inst, rotations).edges() == ()


def test_i0_digraph_matches_textbook_edges(i0_pre):
    rotations = find_rotations(i0_pre)
    digraph = build_digraph(i0_pre, rotations)
    names = rotation_name_map(rotations)
    got = {(names[u], names[v]): labels for u, v, labels in digraph.edges()}
    assert got == I0_DIGRAPH_EDGES


_LABEL_SETS = (frozenset({1}), frozenset({2}), frozenset({1, 2}))


@given(
    st.integers(1, 9).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.dictionaries(
                st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                st.sampled_from(_LABEL_SETS),
                max_size=3 * size,
            ),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_digraph_orders_edges_from_any_insertion_order(params, rng):
    # build_digraph hands over its labels in no particular order.  The edge
    # order is Dinic's choice of paths, on which the GOLDEN and
    # ORACLE_CHECK digests depend, so it must be (u, v) order however the
    # labels were inserted.
    size, labels = params
    shuffled = list(labels.items())
    rng.shuffle(shuffled)
    digraph = RotationDigraph(size, dict(shuffled))
    reference = RotationDigraph(size, dict(sorted(labels.items())))
    assert digraph.edges() == tuple((u, v, labs) for (u, v), labs in sorted(labels.items()))
    assert digraph.edges() == reference.edges() and digraph == reference
    for v in range(size):
        assert digraph.predecessors(v) == tuple(sorted(u for u, w in labels if w == v))


@pytest.mark.parametrize("edge", [(-1, 1), (1, -1), (2, 0), (0, 2)])
def test_digraph_rejects_an_edge_outside_its_nodes(edge):
    # Predecessor -1 once wrapped around to node 1, and edges() then raised
    # KeyError; an endpoint past the last node raised IndexError.
    with pytest.raises(ValueError, match=re.escape(f"edge {edge} has an endpoint outside 0..1")):
        RotationDigraph(2, {edge: frozenset({1})})


def test_rotation_profiles_sum_to_lattice_spread():
    for seed in range(10):
        inst = preprocess(generate_uniform(7, 7, 1.0 if seed % 2 else 0.7, seed=400 + seed))
        if inst.n_men == 0:
            continue
        total = Profile.zero()
        for rot in find_rotations(inst):
            total = total + rot.profile
        spread = profile_of(inst, woman_optimal(inst)) - profile_of(inst, man_optimal(inst))
        assert total == spread


def test_rotation_profiles_sum_to_zero_entrywise():
    # Rotating partners keeps everyone matched, so gains equal losses.
    for seed in range(8):
        inst = preprocess(generate_uniform(7, 7, 1.0, seed=450 + seed))
        for rot in find_rotations(inst):
            assert sum(rot.profile.elements) == 0


def test_each_pair_in_at_most_one_rotation():
    for seed in range(10):
        inst = preprocess(generate_uniform(7, 7, 1.0, seed=500 + seed))
        seen = set()
        for rot in find_rotations(inst):
            for pair in rot.cycle:
                assert pair not in seen
                seen.add(pair)
            assert len(rot.cycle) >= 2


def test_rotation_delta_is_matching_independent():
    # Eliminating an exposed rotation from any stable matching shifts the
    # profile by exactly the rotation's profile.
    for seed in range(6):
        inst = preprocess(generate_uniform(6, 6, 1.0, seed=600 + seed))
        if inst.n_men == 0:
            continue
        rotations = find_rotations(inst)
        digraph = build_digraph(inst, rotations)
        m0 = man_optimal(inst)
        for subset in all_closed_subsets(digraph):
            before = eliminate_closed_subset(inst, m0, rotations, digraph, subset)
            for rot in rotations:
                if rot.rid in subset:
                    continue
                if not all(p in subset for p in digraph.predecessors(rot.rid)):
                    continue
                after = eliminate_closed_subset(
                    inst, m0, rotations, digraph, subset | {rot.rid}
                )
                assert profile_of(inst, after) == profile_of(inst, before) + rot.profile


def test_rotation_profiles_equal_profile_differences(i0_pre):
    # Eliminating the rotations in id order from the matching extraction
    # started at, each rotation's profile is the profile of the matching
    # after it minus the profile before it; with and without the cutoff.
    checked = 0
    for inst in poset_families(i0_pre):
        if inst.n_men == 0:
            continue
        starts = [
            (man_optimal(inst), find_rotations(inst)),
            (_Lattice(inst).generous.man_optimal, cutoff_rotations(inst)),
        ]
        for start, rotations in starts:
            wife = start.wife_array(inst.n_men)
            before = profile_of(inst, start)
            for rot in rotations:
                apply_rotation(wife, rot.cycle)
                after = profile_of(inst, Matching.from_wife_array(wife))
                assert rot.profile == after - before
                before = after
                checked += 1
    assert checked >= 700


def test_latin_chain_poset_is_one_type1_chain():
    # Each of the n - 1 rotations moves every man one place down his list,
    # so each is preceded by the one before it and by nothing else.
    for n in range(5, 31):
        inst = preprocess(latin_chain(n))
        rotations = find_rotations(inst)
        assert len(rotations) == n - 1
        assert all(len(rot.cycle) == n for rot in rotations)
        chain = tuple((rid, rid + 1, frozenset({1})) for rid in range(n - 2))
        assert build_digraph(inst, rotations).edges() == chain


def test_rotation_ids_are_a_topological_order(i0_pre):
    # Every precedence edge u -> v has u < v, which also makes the digraph
    # acyclic; elimination and enumeration rely on it.
    instances = [i0_pre, latin_chain(8)]
    instances += [generate_I1(n) for n in range(4, 11, 2)]
    for seed in range(10):
        instances.append(generate_uniform(7, 7, 1.0, seed=700 + seed))
        for density in (0.7, 0.4):
            instances.append(generate_uniform(7, 7, density, seed=700 + seed))
    instances = [preprocess(inst) for inst in instances]
    pairs = [(inst, find_rotations(inst)) for inst in instances]
    # The generous path eliminates rotations of the truncation at the
    # minimum-regret degree, extracted on the instance under that cutoff.
    for inst in instances:
        if inst.n_men:
            trunc = truncate(inst, min_regret_degree(inst)).instance
            pairs += [(trunc, find_rotations(trunc)), (inst, cutoff_rotations(inst))]
    edges_seen = 0
    for inst, rotations in pairs:
        assert [rot.rid for rot in rotations] == list(range(len(rotations)))
        for u, v, _labels in build_digraph(inst, rotations).edges():
            assert u < v
            edges_seen += 1
    assert edges_seen


def test_build_digraph_matches_linear_scan(i0_pre):
    # Bisected type-2 lookups and carried list positions give the labelled
    # edge set of the scan over every move of each woman passed over.
    # Type-2 edges are rare below n = 20, so larger instances are added.
    instances = poset_families(i0_pre)
    for seed in range(16):
        n, density = 40 + 4 * seed, (1.0, 0.6)[seed % 2]
        instances.append(preprocess(generate_uniform(n, n, density, seed=6500 + seed)))
    truncations = [truncated_at_min_regret(inst)[0] for inst in instances]
    pairs = [(inst, find_rotations(inst)) for inst in instances + truncations]
    pairs += [(inst, cutoff_rotations(inst)) for inst in instances]
    type2 = 0
    for inst, rotations in pairs:
        got = build_digraph(inst, rotations)
        assert got == linear_scan_digraph_oracle(inst, rotations)
        type2 += sum(2 in labels for _u, _v, labels in got.edges())
    assert type2 >= 500


def test_build_digraph_rejects_rotations_the_walk_did_not_find(i0_pre):
    # The digraph is assembled from the predecessors the walk recorded on
    # each rotation; a rotation made any other way, or found on another
    # instance, would silently lose its edges.
    swept = sweep_rotations_reference(i0_pre, man_optimal(i0_pre).wife_array(i0_pre.n_men))
    rotations = find_rotations(i0_pre)
    trunc = truncate(i0_pre, min_regret_degree(i0_pre)).instance
    for inst, foreign in [
        (i0_pre, swept),
        (i0_pre, rotations[:-1] + swept[-1:]),
        (i0_pre, find_rotations(trunc)),
        (trunc, rotations),
    ]:
        assert foreign
        with pytest.raises(ValueError, match="not found by the rotation walk on this instance"):
            build_digraph(inst, foreign)
    assert build_digraph(i0_pre, rotations) == linear_scan_digraph_oracle(i0_pre, rotations)


def test_cutoff_rotations_equal_truncation_rotations(i0_pre):
    # Extracting under the minimum-regret cutoff d from the man-optimal
    # matching of the truncation at d gives that truncation's rotations, and
    # the digraph built on the whole instance is the truncation's, labels
    # included: women the truncation drops rank the man worse than d.
    checked = type2 = 0
    for inst in cutoff_families(i0_pre):
        if inst.n_men == 0:
            continue
        trunc, _degree = truncated_at_min_regret(inst)
        expected = find_rotations(trunc)
        got = cutoff_rotations(inst)
        assert got == expected  # ids, cycles and profiles
        digraph = build_digraph(inst, got)
        assert digraph == build_digraph(trunc, expected)
        checked += 1
        type2 += sum(2 in labels for _u, _v, labels in digraph.edges())
    assert checked >= 600 and type2 >= 100


def _assert_resumable(inst, run) -> None:
    """``run`` is deferred acceptance's state at its perfect matching: the
    husbands invert the wives, each woman holds her husband's rank, and each
    man's pointer is one past his wife."""
    for m in range(1, inst.n_men + 1):
        w = run.prop_match[m]
        assert run.recv_match[w] == m
        assert run.held[w] == inst.women_rank[w][m]
        assert run.next_pos[m] == inst.men_lists[m].index(w) + 1


def test_walk_equals_sweep_reference(i0_pre):
    # The walk continues the deferred-acceptance run in place, depth first,
    # and never revisits a dead man; the reference sweeps from a wife array
    # with bisected positions and list ends, and walks every man in each
    # sweep.  The two number the rotations in different topological orders;
    # keyed by cycle, rotations (cycles and profiles) and labelled digraph
    # edges agree, with and without the minimum-regret cutoff.  The run the
    # descent hands over is deferred acceptance's state at its matching,
    # whether the descent ended feasible or undid its last step.  Short
    # sparse lists leave many men with no woman left to scan.
    instances = [(None, inst) for inst in cutoff_families(i0_pre)]
    for seed in range(12):
        rng = random.Random(seed)
        n = 40 + 20 * seed
        men, women = sparse_lists(n, [rng.randint(1, 8) for _ in range(n)], seed=7500 + seed)
        instances.append((None, preprocess(Instance.from_lists(men, women))))
    instances += [
        (name, preprocess(Instance.from_lists(*lists))) for name, lists in DESCENT_ENDS.items()
    ]
    undone = {"worst_man": False, "exhausted_man": True,
              "man_past_cutoff": True, "no_violating_woman": False}
    exits = [0, 0]  # descents that ended feasible, and by an undone step
    for name, inst in instances:
        if inst.n_men == 0:
            continue
        got = find_rotations(inst)
        expected = sweep_rotations_reference(inst, man_optimal(inst).wife_array(inst.n_men))
        assert_same_poset(inst, got, expected)
        degree, run = _min_regret_run(inst, _man_optimal_run(inst))
        _assert_resumable(inst, run)
        # Only a step that is undone leaves every man within the degree.
        was_undone = all(inst.men_rank[m][run.prop_match[m]] < degree
                         for m in range(1, inst.n_men + 1))
        assert undone.get(name, was_undone) == was_undone
        exits[was_undone] += 1
        wife = run.prop_match[:]
        got = list(_Poset(inst, run, degree).rotations)
        expected = sweep_rotations_reference(inst, wife, degree)
        assert_same_poset(inst, got, expected)
    assert min(exits) >= 300


def _counting_reads(inst, reads):
    """``inst`` with every rank row, the men's and the women's, adding its
    reads to ``reads[0]``, and every man's list adding its reads to
    ``reads[1]``."""
    def counting(base, k):
        class Counted(base):
            def __getitem__(self, i):
                reads[k] += 1
                return base.__getitem__(self, i)

        return Counted

    Row, DictRow, List = counting(tuple, 0), counting(dict, 0), counting(tuple, 1)

    def ranks(table):
        return tuple(Row(r) if isinstance(r, tuple) else DictRow(r) for r in table)

    return dataclasses.replace(
        inst, men_rank=ranks(inst.men_rank), women_rank=ranks(inst.women_rank),
        men_lists=tuple(map(List, inst.men_lists)),
    )


def test_rotation_walk_reads_each_list_entry_at_most_once():
    # Each pointer passes each list entry at most once, and each visit of a
    # man reads one rank more: n first visits, one per man of each cycle
    # closed and one per rotation for the man left on top of the path,
    # whose successor changed.  The successful read of a man who then moves
    # passes the entry of his new wife, and eliminating a rotation reads no
    # rank: each woman's new rank was kept from the scan that found her.
    # So the walk costs O(m), with or without the minimum-regret cutoff; a
    # sweep over every man per round reads far more on complete lists
    # (8,213 reads at n = 300, seed 7, against a bound of 3,298), and
    # re-reading each moved man's rank at elimination reads 3,324.  The
    # digraph only assembles the predecessors the walk recorded, so the
    # whole poset stays within the walk's bound; a second scan of the lists
    # passed over adds 4,398 rank reads there.
    men, women = sparse_lists(600, [60] * 600, seed=11)
    instances = [
        generate_uniform(300, 300, 1.0, seed=7),
        generate_uniform(300, 300, 1.0, seed=8),
        generate_uniform(400, 400, 0.2, seed=9),
        Instance.from_lists(men, women),
        latin_chain(60),
    ]
    found = []  # rotations of each full poset, then of its cut one
    for inst in map(preprocess, instances):
        degree, cut_run = _min_regret_run(inst, _man_optimal_run(inst))
        _cut_list_ends(inst, cut_run.end, range(1, inst.n_men + 1), degree)
        for run in (_man_optimal_run(inst), cut_run):
            pairs = sum(run.end[1:])
            reads = [0, 0]
            counted = _counting_reads(inst, reads)
            rotations = _rotations_from(counted, run)
            walk = reads[:]
            build_digraph(counted, rotations)
            assert reads == walk  # the digraph reads no rank and no list
            assert reads[0] <= pairs + inst.n_men + len(rotations)
            found.append(len(rotations))
    assert min(found[::2]) >= 15 and sum(found[1::2]) >= 15


def _live_men(run):
    """The men whose pointer in ``run`` is short of their list end."""
    return sum(p < e for p, e in zip(run.next_pos[1:], run.end[1:]))


def test_rotation_walk_never_visits_a_man_who_cannot_move():
    # A man whose pointer starts at his list end holds his one stable
    # partner for good; the walk marks him dead before it starts, so it
    # visits only the live men, once each, plus one man per rotation pair
    # and one per rotation.  Each visit reads the man's list once.  On the
    # sparse bands nearly every man is such a man: a walk that visits each
    # of them to find him dead makes 592, 599 and 794 visits there, against
    # bounds of 0, 25 and 357.  Latin chains have none (3,600 visits against
    # 3,659).
    instances = [
        Instance.from_lists(*sparse_lists(600, [length] * 600, seed=seed))
        for length, seed in ((15, 11), (15, 13), (60, 11))
    ]
    for inst in map(preprocess, instances + [latin_chain(60)]):
        run = _man_optimal_run(inst)
        live = _live_men(run)
        visits = [0]

        class CountedLists(tuple):
            def __getitem__(self, m):
                visits[0] += 1
                return tuple.__getitem__(self, m)

        counted = dataclasses.replace(inst, men_lists=CountedLists(inst.men_lists))
        rotations = _rotations_from(counted, run)
        pairs = sum(len(rot.cycle) for rot in rotations)
        assert live <= visits[0] <= live + pairs + len(rotations)
        assert [rot.cycle for rot in rotations] == [rot.cycle for rot in find_rotations(inst)]


def test_rotation_walk_stacks_each_man_at_most_once():
    # The stack starts with the live men, those whose pointer is short of
    # their list end, and a man goes back on it when a cycle he was in is
    # eliminated, unless he is on it already, so it never holds more than
    # the live men.  Stale entries would cost no rank read: each Latin
    # rotation moves every man, and without the check the stack would grow
    # by n per rotation.  On the sparse band 156 of 600 men are live.
    instances = [
        latin_chain(30),
        generate_uniform(60, 60, 1.0, seed=7),
        Instance.from_lists(*sparse_lists(600, [60] * 600, seed=11)),
    ]
    for inst in map(preprocess, instances):
        run = _man_optimal_run(inst)
        live = _live_men(run)
        longest = [0]

        def line(frame, event, arg):
            longest[0] = max(longest[0], len(frame.f_locals.get("todo", ())))
            return line

        def call(frame, event, arg):
            return line if frame.f_code is _rotations_from.__code__ else None

        tracer = sys.gettrace()
        sys.settrace(call)
        try:
            rotations = _rotations_from(inst, run)
        finally:
            sys.settrace(tracer)
        assert rotations and 0 < longest[0] <= live


def test_rotation_walk_searches_no_list_position(i0_pre, monkeypatch):
    # The walk reads each man's list position from the run's pointer, and
    # the digraph only assembles the predecessors the walk recorded, so no
    # stage of the poset looks a position up.  The minimum-regret descent's
    # undo step still does, for each wife it gives back, which shows that
    # the count sees the calls.  The instances with agents removed have
    # sparse ranks, where a lookup would bisect.
    instances = [i0_pre, preprocess(generate_uniform(40, 40, 1.0, seed=3))]
    instances += [preprocess(generate_uniform(20, 24, 0.5, seed=7600 + s)) for s in range(4)]
    calls = []
    real_position = Instance.man_list_position

    def position(self, man, woman):
        calls.append((man, woman))
        return real_position(self, man, woman)

    stages = {"_rotations_from": [], "build_digraph": []}

    def counting(name):
        real = getattr(solvers, name)

        def stage(*args):
            before = len(calls)
            out = real(*args)
            stages[name].append(len(calls) - before)
            return out

        return stage

    monkeypatch.setattr(Instance, "man_list_position", position)
    for name in stages:
        monkeypatch.setattr(solvers, name, counting(name))
    criteria = [Criterion.RANK_MAXIMAL, Criterion.GENEROUS, Criterion.EGALITARIAN,
                Criterion.SEX_EQUAL, Criterion.MEDIAN]
    for inst in instances:
        calls.clear()
        build_digraph(inst, find_rotations(inst))
        assert calls == []
        for criterion in criteria:
            solve(inst, criterion)
    assert stages["_rotations_from"] == [0] * (len(instances) * len(criteria))
    assert len(stages["build_digraph"]) >= len(instances) and not any(stages["build_digraph"])
    # The control: descents that end by undoing their last step.
    for name in ("exhausted_man", "man_past_cutoff"):
        inst = preprocess(Instance.from_lists(*DESCENT_ENDS[name]))
        calls.clear()
        solve(inst, Criterion.MIN_REGRET)
        assert calls, name


def test_eliminate_golden_subset(i0_pre):
    rotations = find_rotations(i0_pre)
    digraph = build_digraph(i0_pre, rotations)
    names = rotation_name_map(rotations)
    subset = {rid for rid, name in names.items() if name in {0, 1, 2}}
    result = eliminate_closed_subset(i0_pre, man_optimal(i0_pre), rotations, digraph, subset)
    assert result == Matching(I0_RANK_MAXIMAL)


def test_eliminate_empty_and_full(i0_pre):
    rotations = find_rotations(i0_pre)
    digraph = build_digraph(i0_pre, rotations)
    m0 = man_optimal(i0_pre)
    assert eliminate_closed_subset(i0_pre, m0, rotations, digraph, set()) == m0
    full = set(range(len(rotations)))
    assert eliminate_closed_subset(i0_pre, m0, rotations, digraph, full) == woman_optimal(i0_pre)


def test_eliminate_full_subset_reaches_woman_optimal_randomly():
    for seed in range(8):
        inst = preprocess(generate_uniform(6, 6, 1.0, seed=800 + seed))
        if inst.n_men == 0:
            continue
        rotations = find_rotations(inst)
        digraph = build_digraph(inst, rotations)
        full = set(range(len(rotations)))
        got = eliminate_closed_subset(inst, man_optimal(inst), rotations, digraph, full)
        assert got == woman_optimal(inst)


def test_eliminate_rejects_unclosed_subset(i0_pre):
    rotations = find_rotations(i0_pre)
    digraph = build_digraph(i0_pre, rotations)
    names = rotation_name_map(rotations)
    rho1 = next(rid for rid, name in names.items() if name == 1)
    with pytest.raises(ValueError, match="closed"):
        eliminate_closed_subset(i0_pre, man_optimal(i0_pre), rotations, digraph, {rho1})
    with pytest.raises(ValueError, match="unknown rotation"):
        eliminate_closed_subset(i0_pre, man_optimal(i0_pre), rotations, digraph, {99})


def test_closed_subsets_biject_with_stable_matchings():
    for seed in range(10):
        inst = preprocess(generate_uniform(6, 6, 1.0 if seed % 2 else 0.65, seed=900 + seed))
        if inst.n_men == 0:
            continue
        rotations = find_rotations(inst)
        if len(rotations) > 12:
            continue
        digraph = build_digraph(inst, rotations)
        m0 = man_optimal(inst)
        subsets = all_closed_subsets(digraph)
        matchings = {
            eliminate_closed_subset(inst, m0, rotations, digraph, s) for s in subsets
        }
        assert len(matchings) == len(subsets)  # distinct subsets, distinct matchings
        assert matchings == set(enumerate_stable_matchings(inst))
        for matching in matchings:
            assert blocking_pair(inst, matching) is None
