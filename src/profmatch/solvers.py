"""Top-level solvers for profile-optimal and enumeration-backed criteria.

The flow-backed solvers (rank-maximal, generous, egalitarian) share one
pipeline: rotations -> precedence digraph -> vector-capacity network -> max
flow -> min cut -> maximum-weight closed subset -> elimination from the
man-optimal matching.  They differ only in the weight vector each rotation
profile is mapped to.  The generous case extracts rotations under a cutoff
at the minimum-regret degree, building no truncated instance, and swaps each
rotation profile for its reverse-negated image; the egalitarian weight is
the two-entry vector (-cost change, -1).

Minimum regret comes straight from :func:`stability.min_regret`: the
man-optimal stable matching of the minimum degree, which is also the first
matching of that degree in enumeration order.

Enumeration-backed criteria (sex-equal, median) rank an explicit list of
all stable matchings and refuse instances whose count exceeds a cap.  The
``select_*`` functions, egalitarian and minimum regret included, stay
usable as oracles over any enumeration.

``oracle_exponential_flow`` re-solves the same cut problem on a scalar
network whose capacities are exact exponential-weight integers.  It shares
no flow code with the vector pipeline on purpose: it exists to
cross-validate it.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from itertools import islice, zip_longest
from math import ceil
from typing import Callable, Optional

from .model import Instance, Matching
from .profiles import Profile, high_weight
from .rotations import (
    Rotation,
    RotationDigraph,
    _rotations_from,
    apply_rotation,
    build_digraph,
    eliminate_closed_subset,
)
from .stability import blocking_pair, man_optimal, min_regret, woman_optimal
from .vbflow import build_vb_network, max_profile_closed_subset, max_vb_flow, min_cut


DEFAULT_ENUMERATION_CAP = 10**6


class Criterion(Enum):
    """Optimality criteria; values are the command-line tokens."""

    RANK_MAXIMAL = "rank-maximal"
    GENEROUS = "generous"
    EGALITARIAN = "egalitarian"
    SEX_EQUAL = "sex-equal"
    MEDIAN = "median"
    MIN_REGRET = "min-regret"
    MAN_OPTIMAL = "man-optimal"
    WOMAN_OPTIMAL = "woman-optimal"


class EnumerationCapError(RuntimeError):
    """The instance has more stable matchings than the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} stable matchings; raise the cap to enumerate")
        self.cap = cap


def solve_rank_maximal(inst: Instance) -> Matching:
    """Stable matching with the lexicographically maximum profile."""
    return _max_weight_matching(inst, man_optimal(inst), lambda p: p)


def solve_generous(inst: Instance) -> Matching:
    """Stable matching with the lexicographically minimum reverse profile.

    No agent does worse than the minimum-regret degree d in any generous
    matching, so only the instance truncated at rank d matters; maximising
    reverse-negated profiles over its rotations reuses the rank-maximal
    machinery unchanged, and the output degree always equals d.  The
    minimum-regret search ends with the truncation's man-optimal matching,
    and rotations are extracted from it under the cutoff d, unbuilt.
    """
    degree, m0 = min_regret(inst)
    return _max_weight_matching(inst, m0, lambda p: p.reverse_negate(degree), degree)


def _egalitarian_weight(p: Profile) -> Profile:
    """Weight ``(-c, -1)`` of a rotation whose elimination changes the cost by c.

    The cost of a matching is the sum of k * p_k over its profile, so c is
    that sum over the rotation's profile.  Summed over a closed set, the
    weight ranks the least total cost first and the fewest rotations second.
    Cost is modular on the lattice of closed sets, so its minimisers are
    closed under union and intersection, and the least-cost closed set with
    the fewest rotations is unique: the intersection of all of them.
    Enumeration is breadth-first by closed-set size, so that set is also the
    first minimum-cost matching :func:`select_egalitarian` meets, and every
    minimum cut returns it.  Without the -1 entry, ties among minimum-cost
    sets would be broken by whichever cut the flow happens to leave.
    """
    return Profile([-sum(k * e for k, e in p.pairs), -1])


def _max_weight_matching(
    inst: Instance,
    m0: Matching,
    weight: Callable[[Profile], Profile],
    cutoff: Optional[int] = None,
) -> Matching:
    """Stable matching whose rotations have the maximum total ``weight(profile)``.

    ``m0`` is the man-optimal stable matching of ``inst``, truncated at ``cutoff`` if given.
    """
    rotations = _rotations_from(inst, m0.wife_array(inst.n_men), cutoff)
    if not rotations:
        return m0
    digraph = build_digraph(inst, rotations)
    subset = _optimal_closed_subset([weight(r.profile) for r in rotations], digraph)
    return eliminate_closed_subset(inst, m0, rotations, digraph, subset)


def _optimal_closed_subset(
    profiles: list[Profile], digraph: RotationDigraph
) -> frozenset[int]:
    net = build_vb_network(profiles, digraph)
    flow = max_vb_flow(net)
    cut = min_cut(net, flow)
    return max_profile_closed_subset(net, digraph, cut)


def enumerate_stable_matchings(
    inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Matching]:
    """All stable matchings, man-optimal first, walking down the man-lattice.

    Breadth-first over predecessor-closed rotation subsets, so the list is
    ordered by closed-subset size.  Rotation ids are a topological order
    (see :func:`rotations.find_rotations`), so each nonempty closed subset C
    has a canonical parent, C minus its largest id, which is closed too.  A
    queued subset is extended only by rotations above its largest id, so
    each closed subset is reached exactly once, from its canonical parent,
    and no set of visited subsets is kept.  The canonical parent is dequeued
    before C's other parents, so the order is the one a breadth-first search
    that discards revisits gives.  Raises EnumerationCapError as soon as the
    count would exceed ``cap``.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    m0 = man_optimal(inst)
    rotations = _rotations_from(inst, m0.wife_array(inst.n_men))
    digraph = build_digraph(inst, rotations)
    out = [m0]
    queue = deque([(frozenset(), 0, m0)])
    while queue:
        subset, start, matching = queue.popleft()
        wife = matching.wife_array(inst.n_men)
        for rot in rotations[start:]:
            if any(p not in subset for p in digraph.predecessors(rot.rid)):
                continue
            wife2 = list(wife)
            apply_rotation(wife2, rot.cycle)
            if len(out) + 1 > cap:
                raise EnumerationCapError(cap)
            out.append(Matching.from_wife_array(wife2))
            queue.append((subset | {rot.rid}, rot.rid + 1, out[-1]))
    return out


def _cost_pair(inst: Instance, matching: Matching) -> tuple[int, int]:
    man_cost = sum(inst.men_rank[m][w] for m, w in matching)
    woman_cost = sum(inst.women_rank[w][m] for m, w in matching)
    return man_cost, woman_cost


def matching_degree(inst: Instance, matching: Matching) -> int:
    """Worst rank over all assigned agents (0 for the empty matching)."""
    degree = 0
    for m, w in matching:
        degree = max(degree, inst.men_rank[m][w], inst.women_rank[w][m])
    return degree


def select_egalitarian(matchings: list[Matching], inst: Instance) -> Matching:
    """Minimum total rank; first enumerated wins ties."""
    if not matchings:
        raise ValueError("no matchings to select from")
    return min(matchings, key=lambda M: sum(_cost_pair(inst, M)))


def select_sex_equal(matchings: list[Matching], inst: Instance) -> Matching:
    """Minimum |man cost - woman cost|; first enumerated wins ties."""
    if not matchings:
        raise ValueError("no matchings to select from")

    def score(M: Matching) -> int:
        mc, wc = _cost_pair(inst, M)
        return abs(mc - wc)

    return min(matchings, key=score)


def select_min_regret(matchings: list[Matching], inst: Instance) -> Matching:
    """Minimum degree; first enumerated wins ties."""
    if not matchings:
        raise ValueError("no matchings to select from")
    return min(matchings, key=lambda M: matching_degree(inst, M))


def select_median(matchings: list[Matching], inst: Instance) -> Matching:
    """Generalised-median matching over the full enumeration.

    Pairs each man with the ceil(N/2)-th of his stable partners sorted by
    his own preference (a multiset; repeats count).  The assembled pair set
    is always itself a stable matching; both properties are verified.
    """
    if not matchings:
        raise ValueError("no matchings to select from")
    j = ceil(len(matchings) / 2)
    # Column m holds man m's wife in each matching, 0 where he is unmatched;
    # the stored wife tuples are read in place rather than copied.
    columns = zip_longest(*(M._wife for M in matchings), fillvalue=0)
    pairs = []
    for m, column in enumerate(islice(columns, 1, inst.n_men + 1), start=1):
        partners = sorted(filter(None, column), key=inst.men_rank[m].__getitem__)
        if not partners:
            continue
        if len(partners) != len(matchings):
            raise RuntimeError("median selection requires the full enumeration")
        pairs.append((m, partners[j - 1]))
    try:
        result = Matching(pairs)
    except ValueError as exc:
        raise RuntimeError(f"median assembly is not a matching: {exc}") from exc
    if blocking_pair(inst, result) is not None:
        raise RuntimeError("assembled median matching is not stable")
    return result


class OracleMode(Enum):
    RANK_MAX = "rank-max"
    GENEROUS = "generous"


def oracle_exponential_flow(
    rotations: list[Rotation],
    digraph: RotationDigraph,
    n: int,
    mode: OracleMode = OracleMode.RANK_MAX,
    window: Optional[int] = None,
) -> tuple[int, frozenset[int]]:
    """Exact scalar re-solution of the maximum-profile closed subset problem.

    Maps every rotation profile through the exponential weight function
    (after reverse-negation over ``window`` ranks in generous mode), builds
    the scalar flow network with arbitrary-precision capacities, and runs an
    independent breadth-first augmenting-path max flow.  Returns the max
    flow value and the closed subset derived from the residual cut.
    """
    profiles = [r.profile for r in rotations]
    if mode is OracleMode.GENEROUS:
        win = n if window is None else window
        profiles = [p.reverse_negate(win) for p in profiles]
    weights = [high_weight(p, n) for p in profiles]

    size = len(rotations)
    source, sink = size, size + 1
    # Edge record: [u, v, capacity, flow]; capacity None means uncapacitated.
    edges: list[list] = []
    adj: list[list[int]] = [[] for _ in range(size + 2)]
    radj: list[list[int]] = [[] for _ in range(size + 2)]

    def add_edge(u: int, v: int, cap: Optional[int]) -> None:
        adj[u].append(len(edges))
        radj[v].append(len(edges))
        edges.append([u, v, cap, 0])

    for u, v, _labels in digraph.edges():
        add_edge(u, v, None)
    for rid, wt in enumerate(weights):
        if wt < 0:
            add_edge(source, rid, -wt)
    for rid, wt in enumerate(weights):
        if wt > 0:
            add_edge(rid, sink, wt)

    def residual_bfs(stop_early: bool) -> dict[int, Optional[tuple[int, bool]]]:
        prev: dict[int, Optional[tuple[int, bool]]] = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for ei in adj[u]:
                e = edges[ei]
                if e[1] not in prev and (e[2] is None or e[3] < e[2]):
                    prev[e[1]] = (ei, True)
                    if stop_early and e[1] == sink:
                        return prev
                    queue.append(e[1])
            for ei in radj[u]:
                e = edges[ei]
                if e[0] not in prev and e[3] > 0:
                    prev[e[0]] = (ei, False)
                    if stop_early and e[0] == sink:
                        return prev
                    queue.append(e[0])
        return prev

    while True:
        prev = residual_bfs(stop_early=True)
        if sink not in prev:
            break
        path = []
        node = sink
        while node != source:
            step = prev[node]
            assert step is not None
            path.append(step)
            ei, forward = step
            node = edges[ei][0] if forward else edges[ei][1]
        bottleneck: Optional[int] = None
        for ei, forward in path:
            e = edges[ei]
            if forward:
                if e[2] is None:
                    continue
                room = e[2] - e[3]
            else:
                room = e[3]
            if bottleneck is None or room < bottleneck:
                bottleneck = room
        assert bottleneck is not None and bottleneck > 0
        for ei, forward in path:
            edges[ei][3] += bottleneck if forward else -bottleneck

    value = sum(edges[ei][3] for ei in adj[source])
    reach = residual_bfs(stop_early=False)
    # The sink edge of rotation rid is cut exactly when rid stays reachable.
    kept = [rid for rid, wt in enumerate(weights) if wt > 0 and rid not in reach]
    return value, digraph.ancestors(kept)


# Criteria answered by selecting from the full enumeration, and the rest.
_SELECTORS: dict[Criterion, Callable[[list[Matching], Instance], Matching]] = {
    Criterion.SEX_EQUAL: select_sex_equal,
    Criterion.MEDIAN: select_median,
}
_SOLVERS: dict[Criterion, Callable[[Instance], Matching]] = {
    Criterion.RANK_MAXIMAL: solve_rank_maximal,
    Criterion.GENEROUS: solve_generous,
    Criterion.EGALITARIAN: lambda inst: _max_weight_matching(
        inst, man_optimal(inst), _egalitarian_weight
    ),
    Criterion.MAN_OPTIMAL: man_optimal,
    Criterion.WOMAN_OPTIMAL: woman_optimal,
    Criterion.MIN_REGRET: lambda inst: min_regret(inst)[1],
}
ENUMERATION_BACKED = frozenset(_SELECTORS)


def solve(
    inst: Instance, criterion: Criterion, cap: int = DEFAULT_ENUMERATION_CAP
) -> Matching:
    """Dispatch a preprocessed instance to the requested solver."""
    if criterion in _SELECTORS:
        return _SELECTORS[criterion](enumerate_stable_matchings(inst, cap), inst)
    return _SOLVERS[criterion](inst)
