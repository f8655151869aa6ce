"""Shared fixtures data and independent oracles for the test suite.

The oracles here deliberately re-derive results from first principles
(permutation filtering, bitmask subset sweeps) rather than calling the
library's own algorithms, so that agreement is meaningful.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from itertools import accumulate, compress, permutations
from typing import Optional, Sequence

from profmatch import (
    Instance,
    Matching,
    Profile,
    RotationDigraph,
    build_digraph,
    find_rotations,
    generate_I1,
    generate_uniform,
    man_optimal,
    min_regret_degree,
    preprocess,
    truncate,
)
from profmatch import analytics, cli, model, rotations, solvers, stability
from profmatch.model import DeferredAcceptance, _rank_row
from profmatch.rotations import Rotation, apply_rotation
from profmatch.vbflow import SINK, SOURCE, VbFlow

# 8x8 textbook instance used for the golden pipeline tests.
I0_TEXT = """8 8
5 7 1 2 6 8 4 3
2 3 7 5 4 1 8 6
8 5 1 4 6 2 3 7
3 2 7 4 1 6 8 5
7 2 5 1 3 6 8 4
1 6 7 5 8 4 2 3
2 5 7 6 3 4 8 1
3 8 4 5 7 2 6 1
5 3 7 6 1 2 8 4
8 6 3 5 7 2 1 4
1 5 6 2 4 8 7 3
8 7 3 2 4 1 5 6
6 4 7 3 8 1 2 5
2 8 5 3 4 6 7 1
7 5 2 1 8 6 4 3
7 4 1 5 2 3 6 8
"""

I0_ALL_MATCHINGS = [
    ((1, 5), (2, 3), (3, 8), (4, 6), (5, 7), (6, 1), (7, 2), (8, 4)),
    ((1, 8), (2, 3), (3, 5), (4, 6), (5, 7), (6, 1), (7, 2), (8, 4)),
    ((1, 3), (2, 6), (3, 5), (4, 8), (5, 7), (6, 1), (7, 2), (8, 4)),
    ((1, 8), (2, 3), (3, 1), (4, 6), (5, 7), (6, 5), (7, 2), (8, 4)),
    ((1, 3), (2, 6), (3, 1), (4, 8), (5, 7), (6, 5), (7, 2), (8, 4)),
    ((1, 8), (2, 3), (3, 1), (4, 6), (5, 2), (6, 5), (7, 7), (8, 4)),
    ((1, 3), (2, 6), (3, 1), (4, 8), (5, 2), (6, 5), (7, 7), (8, 4)),
    ((1, 3), (2, 6), (3, 2), (4, 8), (5, 1), (6, 5), (7, 7), (8, 4)),
]

I0_MAN_OPTIMAL = I0_ALL_MATCHINGS[0]
I0_WOMAN_OPTIMAL = I0_ALL_MATCHINGS[7]
I0_RANK_MAXIMAL = I0_ALL_MATCHINGS[4]

# Rotations keyed by their pair sets, with their profiles.
I0_ROTATIONS = {
    frozenset({(1, 5), (3, 8)}): Profile([-2, 1, 1, 1, 0, -1]),
    frozenset({(1, 8), (2, 3), (4, 6)}): Profile([2, 0, -1, -1, -1, -2, 1, 2]),
    frozenset({(3, 5), (6, 1)}): Profile([0, 0, 1, -1]),
    frozenset({(7, 2), (5, 7)}): Profile([-1, 0, 1, 1, -1]),
    frozenset({(3, 1), (5, 2)}): Profile([1, -2, 0, 0, 0, 1]),
}

# Friendly names for mapping implementation ids onto the textbook numbering.
I0_ROTATION_NAMES = {
    frozenset({(1, 5), (3, 8)}): 0,
    frozenset({(1, 8), (2, 3), (4, 6)}): 1,
    frozenset({(3, 5), (6, 1)}): 2,
    frozenset({(7, 2), (5, 7)}): 3,
    frozenset({(3, 1), (5, 2)}): 4,
}

# Labelled precedence edges in textbook numbering (labels 1 and 2 merged).
I0_DIGRAPH_EDGES = {
    (0, 1): frozenset({1, 2}),
    (0, 2): frozenset({1}),
    (2, 3): frozenset({2}),
    (2, 4): frozenset({1}),
    (3, 4): frozenset({1}),
    (1, 4): frozenset({2}),
}

I0_FLOW_VALUE_WEIGHT = 1157100512
I0_MIN_CUT_CAPACITY = Profile([3, -3, -1, -1, 0, 2])
I0_OPTIMAL_SUBSET = {0, 1, 2}


def rotation_name_map(rotations) -> dict[int, int]:
    """Map implementation rotation ids to the textbook numbering."""
    return {rot.rid: I0_ROTATION_NAMES[frozenset(rot.cycle)] for rot in rotations}


def brute_force_stable_matchings(inst: Instance) -> list[Matching]:
    """Every stable matching, by filtering all perfect assignments.

    Only valid on preprocessed instances (where all stable matchings are
    perfect).  Exponential; use for n <= 7.
    """
    n = inst.n_men
    assert n == inst.n_women
    if n == 0:
        return [Matching(())]
    women_rank = inst.women_rank
    men_lists = inst.men_lists
    out = []
    for perm in permutations(range(1, n + 1)):
        if any(not inst.acceptable(m, perm[m - 1]) for m in range(1, n + 1)):
            continue
        husband = [0] * (n + 1)
        for m in range(1, n + 1):
            husband[perm[m - 1]] = m
        stable = True
        for m in range(1, n + 1):
            w_cur = perm[m - 1]
            for w in men_lists[m]:
                if w == w_cur:
                    break
                if women_rank[w][m] < women_rank[w][husband[w]]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            out.append(Matching((m, perm[m - 1]) for m in range(1, n + 1)))
    return out


def brute_force_all_stable_matchings(inst: Instance) -> set[frozenset[tuple[int, int]]]:
    """Every stable matching as a pair set, unmatched agents allowed.

    Grows every matching man by man (each man unmatched or paired with an
    unused acceptable woman) and keeps those no acceptable pair blocks.
    Valid on any instance; exponential, use for n <= 6.
    """
    men_rank, women_rank = inst.men_rank, inst.women_rank
    out = set()

    def blocked(wife: dict[int, int], husband: dict[int, int]) -> bool:
        for m in range(1, inst.n_men + 1):
            for w in inst.men_lists[m]:
                m_wants = m not in wife or men_rank[m][w] < men_rank[m][wife[m]]
                h = husband.get(w)
                if m_wants and (h is None or women_rank[w][m] < women_rank[w][h]):
                    return True
        return False

    def grow(m: int, wife: dict[int, int], husband: dict[int, int]) -> None:
        if m > inst.n_men:
            if not blocked(wife, husband):
                out.add(frozenset(wife.items()))
            return
        grow(m + 1, wife, husband)
        for w in inst.men_lists[m]:
            if w not in husband:
                grow(m + 1, {**wife, m: w}, {**husband, w: m})

    grow(1, {}, {})
    return out


def all_closed_subsets(digraph: RotationDigraph) -> list[frozenset[int]]:
    """Every predecessor-closed subset, by sweeping all bitmasks (size <= ~16)."""
    r = digraph.size
    pred_mask = [0] * r
    for v in range(r):
        for u in digraph.predecessors(v):
            pred_mask[v] |= 1 << u
    out = []
    for mask in range(1 << r):
        ok = True
        for v in range(r):
            if mask >> v & 1 and (pred_mask[v] & mask) != pred_mask[v]:
                ok = False
                break
        if ok:
            out.append(frozenset(v for v in range(r) if mask >> v & 1))
    return out


def bfs_enumeration_oracle(inst: Instance) -> list[Matching]:
    """Stable matchings by breadth-first search with a set of visited subsets.

    It tries every rotation outside each dequeued closed subset and discards
    subsets it has already reached, so it assumes nothing about the order of
    rotation ids: the differential oracle for ``enumerate_stable_matchings``.
    It shares the library's rotations and digraph, so it checks the search
    over them, not the rotation layer.
    """
    m0 = man_optimal(inst)
    rotations = find_rotations(inst)
    digraph = build_digraph(inst, rotations)
    out = [m0]
    seen = {frozenset()}
    queue = deque([(frozenset(), m0.wife_array(inst.n_men))])
    while queue:
        subset, wife = queue.popleft()
        for rot in rotations:
            if rot.rid in subset:
                continue
            if any(p not in subset for p in digraph.predecessors(rot.rid)):
                continue
            bigger = subset | {rot.rid}
            if bigger in seen:
                continue
            seen.add(bigger)
            wife2 = list(wife)
            apply_rotation(wife2, rot.cycle)
            out.append(Matching.from_wife_array(wife2))
            queue.append((bigger, wife2))
    return out


def tiny_unique_instance() -> Instance:
    """2x2 instance where everyone has their mutual first choice."""
    return Instance.from_lists([[1, 2], [2, 1]], [[1, 2], [2, 1]])


def sparse_lists(n: int, lengths: Sequence[int], seed: int):
    """Mutual lists on n men and n women: man m accepts ``lengths[m - 1]``
    women drawn uniformly, in random order, and each woman lists the men
    who accept her, shuffled."""
    rng = random.Random(seed)
    men = [rng.sample(range(1, n + 1), k) for k in lengths]
    women: list[list[int]] = [[] for _ in range(n)]
    for m, lst in enumerate(men, start=1):
        for w in lst:
            women[w - 1].append(m)
    for lst in women:
        rng.shuffle(lst)
    return men, women


def lists_text(men: list[list[int]], women: list[list[int]]) -> str:
    """The text format of mutual lists, without building an Instance."""
    lines = [f"{len(men)} {len(women)}"] + [" ".join(map(str, lst)) for lst in men + women]
    return "\n".join(lines) + "\n"


def latin_chain(n: int) -> Instance:
    """Cyclic Latin square: man i ranks women i, i+1, ..., i-1 and woman j
    ranks men j+1, ..., j (mod n), a chain of n-1 rotations that each move
    every man."""
    men = [[(i + k) % n + 1 for k in range(n)] for i in range(n)]
    women = [[(j + 1 + k) % n + 1 for k in range(n)] for j in range(n)]
    return Instance.from_lists(men, women)


def raw_poset_families(i0: Instance) -> list[Instance]:
    """``poset_families`` before preprocessing."""
    out = [i0] + [generate_I1(n) for n in range(4, 13, 2)]
    for seed in range(300):
        n, density = 4 + seed % 9, (1.0, 0.7, 0.4)[seed % 3]
        out.append(generate_uniform(n, n, density, seed=6100 + seed))
    return out + [latin_chain(n) for n in range(5, 31)]


def poset_families(i0: Instance) -> list[Instance]:
    """Preprocessed instances for differential tests of the rotation poset.

    I0, ``generate_I1(4..12)``, 300 seeded instances with n = 4..12 at
    densities 1.0, 0.7 and 0.4, and cyclic Latin chains with n = 5..30.
    """
    return [preprocess(inst) for inst in raw_poset_families(i0)]


def raw_cutoff_families(i0: Instance) -> list[Instance]:
    """``cutoff_families`` before preprocessing."""
    out = raw_poset_families(i0)
    for seed in range(360):
        n, density = (20, 40, 80)[seed % 3], (1.0, 0.5, 0.2)[seed // 3 % 3]
        out.append(generate_uniform(n, n, density, seed=6600 + seed))
    return out


def cutoff_families(i0: Instance) -> list[Instance]:
    """``poset_families`` plus 360 seeded instances with n = 20, 40 and 80 at
    densities 1.0, 0.5 and 0.2, preprocessed: large enough for type-2 edges
    and for minimum-regret cutoffs that drop most of every list."""
    return [preprocess(inst) for inst in raw_cutoff_families(i0)]


# Mutual lists (men, women) of four instances that pin each way the
# minimum-regret descent ends: at a man who ranks his wife the degree, at a
# man who runs out of women, at a man accepted past the cutoff (the last two
# undo an infeasible step), and after a cutoff that drops nobody.
DESCENT_ENDS = {
    "worst_man": ([[3, 1], [1, 3], [2, 3]], [[1, 2], [3], [2, 3, 1]]),
    "exhausted_man": ([[1], [2, 1]], [[2, 1], [2]]),
    "man_past_cutoff": ([[2, 3], [1, 3, 2], [1, 2]], [[3, 2], [3, 2, 1], [1, 2]]),
    "no_violating_woman": (
        [[4, 1, 3, 2], [2, 1, 3], [3, 4], [1, 3]],
        [[1, 4, 2], [1, 2], [4, 1, 2, 3], [3, 1]],
    ),
}


def uniform_lists(n_men: int, n_women: int, density: float, seed: int):
    """Reference for ``generate_uniform``'s lists: the same draws from the
    same seeded generator, as plain lists without the index-0 stub."""
    rng = random.Random(seed)
    men: list[list[int]] = [[] for _ in range(n_men)]
    women: list[list[int]] = [[] for _ in range(n_women)]
    for m in range(1, n_men + 1):
        for w in range(1, n_women + 1):
            if density >= 1 or rng.random() < density:
                men[m - 1].append(w)
                women[w - 1].append(m)
    for lst in men + women:
        rng.shuffle(lst)
    return men, women


def cutoff_rotations(inst: Instance) -> list[Rotation]:
    """The generous solve's rotations: extracted on ``inst`` itself,
    continuing the run the minimum-regret descent ends with, at the
    man-optimal matching of the truncation at d, its list ends cut at d."""
    return list(solvers._Lattice(inst).generous.rotations)


def sweep_rotations_reference(
    inst: Instance, wife: list[int], cutoff: Optional[int] = None,
    profiles: Optional[list[Profile]] = None,
) -> list[Rotation]:
    """Reference for ``rotations._rotations_from``: the rotation sweep from a
    man-optimal ``wife`` array (of the truncation at ``cutoff``, if given),
    which it overwrites.

    It rebuilds the husbands, finds each man's list position and list end
    by bisection, reads each woman's rank of her husband on every pointer
    step, and walks every man again in each sweep: the walk as it stood
    before it continued the deferred-acceptance run.

    If ``profiles`` is given, each rotation's profile is appended to it as
    the rotation is extracted, counted from the walk's own matching: the
    rank every agent of the cycle gives its partner before the elimination
    and after it.
    """
    n = inst.n_men
    if n == 0:
        return []
    if inst.n_women != n or any(wife[m] == 0 for m in range(1, n + 1)):
        raise ValueError("rotation extraction requires a preprocessed instance")
    men_lists = inst.men_lists
    women_rank = inst.women_rank
    husband = [0] * (inst.n_women + 1)
    ptr, end = [0] * (n + 1), [len(lst) for lst in men_lists]  # m scans lst[ptr[m]:end[m]]
    for m in range(1, n + 1):
        husband[wife[m]] = m
        row, lst = inst.men_rank[m], men_lists[m]
        ptr[m] = bisect_left(lst, row[wife[m]], key=row.__getitem__) + 1
        if cutoff is not None:
            end[m] = bisect_right(lst, cutoff, key=row.__getitem__)

    rotations: list[Rotation] = []

    def extract(cycle_men: list[int]) -> None:
        lead = cycle_men.index(min(cycle_men))
        cycle_men = cycle_men[lead:] + cycle_men[:lead]
        wives = [wife[m] for m in cycle_men]
        pairs = tuple(zip(cycle_men, wives))
        rotations.append(Rotation(len(rotations), pairs, inst))
        delta: Counter = Counter()
        for m, w in pairs:
            delta[inst.men_rank[m][w]] -= 1
            delta[inst.women_rank[w][m]] -= 1
        for m, w in zip(cycle_men, wives[1:] + wives[:1]):
            wife[m] = w
            husband[w] = m
            ptr[m] += 1
            delta[inst.men_rank[m][w]] += 1
            delta[inst.women_rank[w][m]] += 1
        if profiles is not None:
            profiles.append(Profile([delta[k] for k in range(1, max(delta) + 1)]))

    while True:
        state = [0] * (n + 1)  # 0 fresh, 1 on current path, 2 settled this sweep
        progressed = False
        for start in range(1, n + 1):
            if state[start]:
                continue
            path: list[int] = []
            m = start
            while True:
                if state[m] == 1:
                    at = path.index(m)
                    extract(path[at:])
                    for x in path[at:]:
                        state[x] = 2
                    for x in path[:at]:
                        state[x] = 0
                    progressed = True
                    break
                if state[m] == 2:
                    for x in path:
                        state[x] = 2
                    break
                lst = men_lists[m]
                p, stop = ptr[m], end[m]
                nxt = 0
                while p < stop:
                    w = lst[p]
                    if women_rank[w][m] < women_rank[w][husband[w]]:
                        nxt = w
                        break
                    p += 1
                ptr[m] = p
                if not nxt:
                    state[m] = 2
                    for x in path:
                        state[x] = 2
                    break
                state[m] = 1
                path.append(m)
                m = husband[nxt]
        if not progressed:
            break
    return rotations


def assert_same_poset(
    inst: Instance, got: list[Rotation], expected: list[Rotation],
    profiles: Optional[list[Profile]] = None,
) -> None:
    """``got`` and ``expected`` hold the same rotations, numbered in two
    topological orders.  Keyed by its canonical cycle, each rotation of
    ``got`` has the reference's profile (``profiles[i]`` is that of
    ``expected[i]``, if given), the two digraphs have the same labelled
    edges once mapped through the cycles, and every edge of ``got``'s goes
    from a lower id to a higher one.  ``got``'s digraph is ``build_digraph``'s,
    the reference's the linear scan's: ``build_digraph`` takes only the
    rotations the walk found."""
    assert [rot.rid for rot in got] == list(range(len(got)))
    cycles = [rot.cycle for rot in expected]
    assert sorted(rot.cycle for rot in got) == sorted(cycles)
    if profiles is None:
        profiles = [rot.profile for rot in expected]
    reference = dict(zip(cycles, profiles))
    assert [rot.profile for rot in got] == [reference[rot.cycle] for rot in got]
    digraph = build_digraph(inst, got)
    assert all(u < v for u, v, _labels in digraph.edges())

    def by_cycle(rotations, edges):
        return {(rotations[u].cycle, rotations[v].cycle): labels for u, v, labels in edges}

    assert by_cycle(got, digraph.edges()) == by_cycle(
        expected, linear_scan_digraph_oracle(inst, expected).edges()
    )


def _truncated_instance(
    inst: Instance, men_limit: Sequence[int], women_limit: Sequence[int]
) -> Instance:
    """Reference for ``model._cut``: the pairs (m, w) that m ranks within
    ``men_limit[m]`` and w within ``women_limit[w]``, each keeping its rank
    on both sides.

    An agent whose limit is 0 goes, and the rest are re-indexed densely in
    their order, with ``orig_men`` / ``orig_women`` carried through; entries
    that name a dropped agent fail its limit and go with it.  Ranks are
    never renumbered.  It reads every entry of both sides, where ``_cut``
    reads one slice per man.
    """
    men_lists, men_rank = _kept_side(
        inst.men_lists, inst.men_rank, men_limit, inst.women_rank, women_limit
    )
    women_lists, women_rank = _kept_side(
        inst.women_lists, inst.women_rank, women_limit, inst.men_rank, men_limit
    )
    return Instance(
        men_lists,
        women_lists,
        men_rank,
        women_rank,
        (0, *compress(inst.orig_men[1:], men_limit[1:])),
        (0, *compress(inst.orig_women[1:], women_limit[1:])),
    )


def _kept_side(lists, rank, limit, other_rank, other_limit):
    """One side's kept lists and rank rows, both with the index-0 stub."""
    # The new index of each kept agent on the other side: the number of
    # kept agents up to it.  One int object per agent, shared by every list.
    new = list(accumulate((lim > 0 for lim in other_limit[1:]), initial=0))
    width = new[-1] + 1
    kept_lists, rows = [()], [_rank_row((), (), width)]
    for i in range(1, len(lists)):
        own, lim = rank[i], limit[i]
        if lim:
            kept = [j for j in lists[i] if own[j] <= lim and other_rank[j][i] <= other_limit[j]]
            renamed = tuple(map(new.__getitem__, kept))
            kept_lists.append(renamed)
            rows.append(_rank_row(renamed, map(own.__getitem__, kept), width))
    return tuple(kept_lists), tuple(rows)


def binary_search_min_regret(inst: Instance) -> tuple[int, Matching]:
    """Reference for the minimum-regret descent (``stability._min_regret_run``,
    read through the solvers' generous poset): a binary search over rank cutoffs.

    The woman-optimal matching bounds the degree from below and the
    man-optimal one from above; each probe is a fresh deferred-acceptance
    run on the instance truncated at the probe, and the last feasible
    probe, at the degree, gives the truncation's man-optimal matching.
    """
    n = inst.n_men
    if n == 0:
        return 0, Matching(())
    men_rank, women_rank = inst.men_rank, inst.women_rank
    best = DeferredAcceptance(inst.men_lists, women_rank).prop_match
    if not all(best[1:]):
        raise ValueError("instance admits no perfect stable matching")
    husband = DeferredAcceptance(inst.women_lists, men_rank).prop_match
    lo = max(
        max(men_rank[m][best[m]] for m in range(1, n + 1)),
        max(women_rank[w][m] for w, m in enumerate(husband) if w),
    )
    hi = max(lo, max(women_rank[best[m]][m] for m in range(1, n + 1)))
    while lo < hi:
        mid = (lo + hi) // 2
        trunc = _truncated_instance(inst, [mid] * (n + 1), [mid] * (inst.n_women + 1))
        wife = DeferredAcceptance(trunc.men_lists, trunc.women_rank).prop_match
        if all(wife[1:]):
            hi, best = mid, wife
        else:
            lo = mid + 1
    return lo, Matching.from_wife_array(best)


def stable_limits(inst: Instance) -> tuple[list[int], list[int]]:
    """Each agent's rank of its worst stable partner (0: none), men's then
    women's: the limits ``model.preprocess`` cuts at."""
    by_men = DeferredAcceptance(inst.men_lists, inst.women_rank)
    by_women = DeferredAcceptance(inst.women_lists, inst.men_rank)
    return (
        [w and inst.men_rank[m][w] for m, w in enumerate(by_women.recv_match)],
        [m and inst.women_rank[w][m] for w, m in enumerate(by_men.recv_match)],
    )


def reference_preprocess(inst: Instance) -> Instance:
    """Reference for ``model.preprocess``: the cut it made before it cut
    every instance to its band.  It returns its input whenever every agent
    is assigned, and otherwise drops the agents no stable matching assigns
    and the pairs below either agent's worst stable partner."""
    wife = DeferredAcceptance(inst.men_lists, inst.women_rank).prop_match
    if inst.n_men == inst.n_women and all(wife[1:]):
        return inst
    return _truncated_instance(inst, *stable_limits(inst))


def two_step_preprocess(inst: Instance) -> Instance:
    """Reference for ``model.preprocess``: a two-step reduction.

    It re-indexes the kept agents' lists through two dicts into a validated
    instance with rank == position, then cuts each pair below either
    agent's worst stable partner, keeping that instance's ranks.  So it
    assumes its input's ranks are positions.
    """
    wife = DeferredAcceptance(inst.men_lists, inst.women_rank).prop_match
    kept_men = [m for m in range(1, inst.n_men + 1) if wife[m]]
    husband = DeferredAcceptance(inst.women_lists, inst.men_rank).prop_match
    kept_women = sorted(wife[m] for m in kept_men)
    new_m = {old: new for new, old in enumerate(kept_men, start=1)}
    new_w = {old: new for new, old in enumerate(kept_women, start=1)}
    reduced = Instance.from_lists(
        [[new_w[w] for w in inst.men_lists[old] if w in new_w] for old in kept_men],
        [[new_m[m] for m in inst.women_lists[old] if m in new_m] for old in kept_women],
    )
    men_limit = [0] * (reduced.n_men + 1)
    for w, m in enumerate(husband):
        if m:
            men_limit[new_m[m]] = reduced.men_rank[new_m[m]][new_w[w]]
    women_limit = [0] * (reduced.n_women + 1)
    for m in kept_men:
        women_limit[new_w[wife[m]]] = reduced.women_rank[new_w[wife[m]]][new_m[m]]

    def cut(lists, rank, limit, other_rank, other_limit):
        kept = [()] + [
            tuple(j for j in lists[i] if rank[i][j] <= limit[i] and other_rank[j][i] <= other_limit[j])
            for i in range(1, len(lists))
        ]
        rows = [model._rank_row(lst, [rank[i][j] for j in lst], len(other_rank)) for i, lst in enumerate(kept)]
        return tuple(kept), tuple(rows)

    men = cut(reduced.men_lists, reduced.men_rank, men_limit, reduced.women_rank, women_limit)
    women = cut(reduced.women_lists, reduced.women_rank, women_limit, reduced.men_rank, men_limit)
    return Instance(
        men[0], women[0], men[1], women[1],
        (0,) + tuple(inst.orig_men[old] for old in kept_men),
        (0,) + tuple(inst.orig_women[old] for old in kept_women),
    )


def truncated_at_min_regret(inst: Instance) -> tuple[Instance, int]:
    """The instance the generous solve eliminates rotations of, and its degree."""
    degree = min_regret_degree(inst)
    return truncate(inst, degree).instance, degree


def linear_scan_digraph_oracle(inst: Instance, rotations: list[Rotation]) -> RotationDigraph:
    """Precedence digraph by scanning every move of each woman passed over.

    For each pair it finds the type-2 predecessor by walking the woman's
    whole move list, and each man's list positions by bisection, so it
    assumes nothing about the order of rotations or moves: the
    differential oracle for ``build_digraph``.
    """
    mover: dict[tuple[int, int], int] = {}
    wmoves: dict[int, list[tuple[int, int, int]]] = {}
    for rot in rotations:
        k = len(rot.cycle)
        for idx, (m, _w) in enumerate(rot.cycle):
            m_next, w_next = rot.cycle[(idx + 1) % k]
            mover[(m, w_next)] = rot.rid
            # w_next's partner drops from rank `before` to rank `after`.
            wmoves.setdefault(w_next, []).append(
                (rot.rid, inst.women_rank[w_next][m_next], inst.women_rank[w_next][m])
            )

    labels: dict[tuple[int, int], set[int]] = {}

    def add(u: int, v: int, lab: int) -> None:
        labels.setdefault((u, v), set()).add(lab)

    for rot in rotations:
        k = len(rot.cycle)
        for idx, (m, w) in enumerate(rot.cycle):
            r1 = mover.get((m, w))
            if r1 is not None:
                add(r1, rot.rid, 1)
            _, w_next = rot.cycle[(idx + 1) % k]
            lst = inst.men_lists[m]
            a = inst.man_list_position(m, w)
            b = inst.man_list_position(m, w_next)
            for pos in range(a, b):
                wj = lst[pos]
                r_me = inst.women_rank[wj][m]
                for rid2, before, after in wmoves.get(wj, ()):
                    if after < r_me <= before:
                        if rid2 != rot.rid:
                            add(rid2, rot.rid, 2)
                        break
    return RotationDigraph(
        len(rotations), {e: frozenset(s) for e, s in labels.items()}
    )


def incident_edges(net) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """The ids of the edges leaving and entering each node of ``net``, in
    edge order, read from its ``(tail, head, cap)`` triples."""
    nodes = (SOURCE, SINK, *range(net.n_rotations))
    out_edges: dict[int, list[int]] = {x: [] for x in nodes}
    in_edges: dict[int, list[int]] = {x: [] for x in nodes}
    for ei, (u, v, _cap) in enumerate(net.edges):
        out_edges[u].append(ei)
        in_edges[v].append(ei)
    return out_edges, in_edges


def reference_max_vb_flow(net) -> VbFlow:
    """Maximum vector flow by one breadth-first search per augmenting path
    (Edmonds-Karp), adding each bottleneck to every edge of the path: the
    engine ``vbflow.max_vb_flow`` replaced, read through the network's
    edge triples only."""
    edges = net.edges
    out_edges, in_edges = incident_edges(net)
    zero = Profile.zero()
    flows = [zero] * len(edges)
    while True:
        prev = {SOURCE: None}
        queue = deque([SOURCE])
        while queue and SINK not in prev:
            u = queue.popleft()
            for ei in out_edges[u]:
                _u, v, cap = edges[ei]
                if v not in prev and (cap is None or flows[ei] < cap):
                    prev[v] = (ei, True)
                    queue.append(v)
            for ei in in_edges[u]:
                tail, _v, _cap = edges[ei]
                if tail not in prev and not flows[ei].is_zero:
                    prev[tail] = (ei, False)
                    queue.append(tail)
        if SINK not in prev:
            break
        path = []
        node = SINK
        while node != SOURCE:
            ei, forward = prev[node]
            path.append((ei, forward))
            node = edges[ei][0 if forward else 1]
        rooms = [
            (edges[ei][2] - flows[ei]) if forward else flows[ei]
            for ei, forward in path
            if not (forward and edges[ei][2] is None)
        ]
        bottleneck = min(rooms)
        assert bottleneck > zero
        for ei, forward in path:
            flows[ei] = flows[ei] + bottleneck if forward else flows[ei] - bottleneck
    value = sum((flows[ei] for ei in out_edges[SOURCE]), zero)
    return VbFlow(tuple(flows), value)


class DenseProfile:
    """Reference profile arithmetic on dense tuples, trailing zeros stripped:
    the differential oracle for the sparse ``Profile``."""

    def __init__(self, elems=()):
        es = tuple(int(e) for e in elems)
        end = len(es)
        while end and not es[end - 1]:
            end -= 1
        self.elements = es[:end]

    @property
    def degree(self) -> int:
        return len(self.elements)

    @property
    def sign(self) -> int:
        for e in self.elements:
            if e:
                return 1 if e > 0 else -1
        return 0

    def padded(self, length: int) -> tuple[int, ...]:
        if length < len(self.elements):
            raise ValueError(f"cannot pad to {length}: degree is {len(self.elements)}")
        return self.elements + (0,) * (length - len(self.elements))

    def __add__(self, other: "DenseProfile") -> "DenseProfile":
        a, b = self.elements, other.elements
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return DenseProfile(out)

    def __sub__(self, other: "DenseProfile") -> "DenseProfile":
        return self + (-other)

    def __neg__(self) -> "DenseProfile":
        return DenseProfile(-e for e in self.elements)

    def abs_value(self) -> "DenseProfile":
        return -self if self.sign < 0 else self

    def reverse_negate(self, length: int) -> "DenseProfile":
        return DenseProfile(-e for e in reversed(self.padded(length)))

    def cmp(self, other: "DenseProfile") -> int:
        width = max(self.degree, other.degree)
        a, b = self.padded(width), other.padded(width)
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DenseProfile) and self.elements == other.elements

    def display(self) -> str:
        return ",".join(str(e) for e in self.elements) if self.elements else "0"

    def high_weight(self, n: int) -> int:
        if self.degree > n:
            raise ValueError(f"profile degree {self.degree} exceeds window {n}")
        base = 2 * n + 1
        return sum(e * base ** (n - i) for i, e in enumerate(self.elements, start=1) if e)


COUNTED_STAGES = (
    "_rotations_from", "build_digraph", "_cycle_profile", "_rank_change", "_min_regret_run",
    "_closed_subsets", "max_vb_flow", "oracle_exponential_flow",
)


def count_calls(monkeypatch) -> Counter:
    """Count deferred-acceptance runs started from scratch (resuming one does
    not count), under ``"DeferredAcceptance"``, and calls to each name in
    ``COUNTED_STAGES``.  Each name is wrapped in every profmatch module that
    imported it, so a call counts once whichever module makes it."""
    counts: Counter = Counter()
    real_init = model.DeferredAcceptance.__init__

    def init(self, *args, **kwargs):
        counts["DeferredAcceptance"] += 1
        real_init(self, *args, **kwargs)

    def counting(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(model.DeferredAcceptance, "__init__", init)
    for module in (model, stability, rotations, solvers, analytics, cli):
        for name in COUNTED_STAGES:
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(name, vars(module)[name]))
    return counts


def reference_validate_in(matching: Matching, inst: Instance) -> None:
    """``Matching.validate_in`` pair by pair, through ``Instance.acceptable``."""
    for m, w in matching:
        if not (1 <= m <= inst.n_men and 1 <= w <= inst.n_women):
            raise ValueError(f"pair ({m},{w}) references unknown agents")
        if not inst.acceptable(m, w):
            raise ValueError(f"pair ({m},{w}) is not mutually acceptable")


def reference_blocking_pair(inst: Instance, matching: Matching) -> Optional[tuple[int, int]]:
    """``stability.blocking_pair`` over a dict of husbands."""
    reference_validate_in(matching, inst)
    husband = {w: m for m, w in matching}
    for m, w_cur in enumerate(matching.wife_array(inst.n_men)):
        for w in inst.men_lists[m]:
            if w == w_cur:
                break
            h = husband.get(w)
            if h is None or inst.women_rank[w][m] < inst.women_rank[w][h]:
                return (m, w)
    return None


def reference_cost_pair(inst: Instance, matching: Matching) -> tuple[int, int]:
    """``solvers._cost_pair`` as two sums over the pairs."""
    man_cost = sum(inst.men_rank[m][w] for m, w in matching)
    woman_cost = sum(inst.women_rank[w][m] for m, w in matching)
    return man_cost, woman_cost
