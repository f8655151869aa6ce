"""Shared fixtures data and independent oracles for the test suite.

The oracles here deliberately re-derive results from first principles
(permutation filtering, bitmask subset sweeps) rather than calling the
library's own algorithms, so that agreement is meaningful.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations

from profmatch import (
    Instance,
    Matching,
    Profile,
    RotationDigraph,
    build_digraph,
    find_rotations,
    man_optimal,
)
from profmatch.rotations import apply_rotation

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
    men_rank = inst.men_rank
    women_rank = inst.women_rank
    men_lists = inst.men_lists
    out = []
    for perm in permutations(range(1, n + 1)):
        if any(men_rank[m][perm[m - 1]] == 0 for m in range(1, n + 1)):
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
