"""Top-level solvers for profile-optimal and enumeration-backed criteria.

Every solve of an instance reads one :class:`_Lattice`, which builds each
structure on first read and shares it: the full rotation poset
(``_Poset``: a man-optimal matching, its rotations and their precedence
digraph) continues the run that reached the man-optimal matching; the
generous one continues the minimum-regret run, cut at the minimum-regret
degree d, and its man-optimal matching is the minimum-regret answer; the
walk over the full poset's closed subsets stops at a cap.

Rank-maximal, generous and egalitarian share one pipeline, run only by
:func:`_flow_solution`: vector-capacity network -> max flow -> min cut ->
maximum-weight closed subset -> elimination.  A rotation weighs its profile
(rank-maximal), its profile reverse-negated over d ranks (generous), or
(-cost change, -1) (egalitarian).  Only the first two read profiles;
egalitarian and sex-equal read each rotation's rank change, the men's and
the women's, instead.  Each rotation builds either on first read.
Egalitarian builds its network over the transitive reduction of the
digraph (:attr:`~profmatch.rotations.RotationDigraph.reduction`), which
has the same closed sets and, on complete lists, about a tenth of the
edges; its flow then takes a few more level searches on a far smaller
network.  Rank-maximal and generous keep the full digraph: on the
reduction, rank-maximal's long profiles took 53 level searches instead of
6 over uniform-complete's three n = 300 instances, and its solve was
slower.  The flow solve hands its flow witness back with the matching, so
``oracle-check`` judges the flows the answers came from.  Sex-equal and
median read the walk, which holds two ints per node and builds only the
answer.  The ``select_*`` functions rank an explicit list of stable
matchings and stay usable as oracles over any enumeration.

This module reads the digraph through its methods, profiles through
their arithmetic and matchings through their pairs and wife arrays, never
the representation inside :mod:`~profmatch.rotations`,
:mod:`~profmatch.profiles` or :mod:`~profmatch.model`.

``oracle_exponential_flow`` re-solves the same cut problem on a scalar
network whose capacities are exact exponential-weight integers.  It shares
no flow code with the vector pipeline on purpose: it exists to
cross-validate it.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import cached_property
from itertools import islice
from math import ceil
from typing import Optional, Sequence

from .model import DeferredAcceptance, Instance, Matching
from .profiles import Profile, high_weight
from .rotations import (
    Rotation,
    RotationDigraph,
    _rotations_from,
    apply_rotation,
    build_digraph,
    eliminate_closed_subset,
)
from .stability import (
    _cut_list_ends,
    _man_optimal_run,
    _min_regret_run,
    blocking_pair,
    woman_optimal,
)
from .vbflow import Cut, VbFlow, build_vb_network, max_profile_closed_subset, max_vb_flow, min_cut


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


# The (parent, added) arrays of :func:`_closed_subsets`.
_Walk = tuple[list[int], list[int]]


class _Poset:
    """A man-optimal matching (of the truncation at ``cutoff``), its rotations, their digraph.

    Made from ``run``, the finished men-proposing run of ``inst`` that
    reached that matching: the matching is read at once, and the rotations
    are extracted on first read by continuing the run in place.  With a
    cutoff, ``run`` is :func:`stability._min_regret_run`'s, whose list ends
    are cut only for the men it freed; every man's end is cut at the cutoff
    just before the walk, so criteria that read only the matching pay for
    no cut.
    """

    def __init__(self, inst: Instance, run: DeferredAcceptance, cutoff: Optional[int] = None):
        self.inst = inst
        self.cutoff = cutoff
        self.man_optimal = Matching.from_wife_array(run.prop_match)
        self._run = run

    @cached_property
    def rotations(self) -> tuple[Rotation, ...]:
        inst, run = self.inst, self._run
        if self.cutoff is not None:
            _cut_list_ends(inst, run.end, range(1, inst.n_men + 1), self.cutoff)
        return tuple(_rotations_from(inst, run))

    @cached_property
    def digraph(self) -> RotationDigraph:
        return build_digraph(self.inst, self.rotations)

    def eliminate(self, subset) -> Matching:
        return eliminate_closed_subset(
            self.inst, self.man_optimal, self.rotations, self.digraph, subset
        )


class _Lattice:
    """What solving a preprocessed instance reads, each part built on first
    read and then shared by every criterion and by the enumeration.

    ``full`` is the poset of the man-optimal run, ``generous`` that of the
    minimum-regret run (the truncation at the minimum-regret degree), and
    ``walk`` the breadth-first walk over the full poset's closed subsets,
    or None once there are more than ``cap``.  Both posets continue one
    man-optimal run, ``_start``; each consumes a copy of it.
    """

    def __init__(self, inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP):
        self.inst = inst
        self.cap = cap

    @cached_property
    def _start(self) -> DeferredAcceptance:
        return _man_optimal_run(self.inst)

    @cached_property
    def full(self) -> _Poset:
        return _Poset(self.inst, self._start.copy())

    @cached_property
    def generous(self) -> _Poset:
        degree, run = _min_regret_run(self.inst, self._start.copy())
        return _Poset(self.inst, run, degree)

    @cached_property
    def walk(self) -> Optional[_Walk]:
        try:
            return _closed_subsets(self.full.digraph, self.cap)
        except EnumerationCapError:
            return None

    def _capped_walk(self) -> _Walk:
        if self.walk is None:
            raise EnumerationCapError(self.cap)
        return self.walk

    def matchings(self) -> list[Matching]:
        """All stable matchings, man-optimal first, walking down the man-lattice.

        One matching per node of :func:`_closed_subsets`, in its
        breadth-first order, so the list is ordered by closed-subset size;
        each is its parent node's matching with the node's rotation applied.
        Raises EnumerationCapError when there are more than ``cap``.
        """
        parent, added = self._capped_walk()
        full, n = self.full, self.inst.n_men
        out = [full.man_optimal]
        for x in range(1, len(parent)):
            wife = out[parent[x]].wife_array(n)
            apply_rotation(wife, full.rotations[added[x]].cycle)
            out.append(Matching.from_wife_array(wife))
        return out

    def solve(self, criterion: Criterion) -> Matching:
        """``criterion``'s matching; sex-equal and median raise
        EnumerationCapError when there are more than ``cap`` stable matchings."""
        if criterion is Criterion.MAN_OPTIMAL:
            return self.full.man_optimal
        if criterion is Criterion.WOMAN_OPTIMAL:
            return woman_optimal(self.inst)
        if criterion is Criterion.MIN_REGRET:
            return self.generous.man_optimal
        if criterion is Criterion.GENEROUS:
            return _flow_solution(self.generous, criterion)[0]
        if criterion in (Criterion.RANK_MAXIMAL, Criterion.EGALITARIAN):
            return _flow_solution(self.full, criterion)[0]
        if criterion is Criterion.SEX_EQUAL:
            return _sex_equal(self.full, self._capped_walk())
        return _median(self.full, self._capped_walk())


def _egalitarian_weight(change: tuple[int, int]) -> Profile:
    """Weight ``(-c, -1)`` of a rotation whose elimination changes the cost by c.

    The cost of a matching is its men's plus its women's total rank, so c is
    the sum of the rotation's ``rank_change`` (Irving, Leather & Gusfield,
    1987); it equals the sum of k * p_k over the rotation's profile, which
    is not built.  Summed over a closed set, the weight ranks the least
    total cost first and the fewest rotations second.
    Cost is modular on the lattice of closed sets, so its minimisers are
    closed under union and intersection, and the least-cost closed set with
    the fewest rotations is unique: the intersection of all of them.
    Enumeration is breadth-first by closed-set size, so that set is also the
    first minimum-cost matching :func:`select_egalitarian` meets, and every
    minimum cut returns it.  Without the -1 entry, ties among minimum-cost
    sets would be broken by whichever cut the flow happens to leave.
    """
    dm, dw = change
    return Profile([-(dm + dw), -1])


def _flow_solution(
    poset: _Poset, criterion: Criterion
) -> tuple[Matching, tuple[VbFlow, Cut, frozenset[int]]]:
    """The rank-maximal, egalitarian or generous matching on ``poset``: the
    closed subset of maximum total rotation weight, eliminated, with its
    flow witness (max flow, min cut, closed subset).

    Egalitarian's network is built over ``poset.digraph.reduction``, the
    others' over ``poset.digraph``.  Both have the same closed sets, so the
    same minimum cuts and the same residual-reachable set after any maximum
    flow: every output is the same on either.  The reduction only pays where the
    weights are short: rank-maximal needed 53 level searches on it instead
    of 6 (uniform-complete, three n = 300 instances), and generous gained
    nothing, so both read the full digraph.
    """
    if criterion is Criterion.EGALITARIAN:
        weights = [_egalitarian_weight(r.rank_change) for r in poset.rotations]
    elif criterion is Criterion.GENEROUS:
        # No agent does worse than the poset's cutoff d in a generous
        # matching, so only the rotations of the truncation at d matter, and
        # maximising their profiles reverse-negated over d ranks reuses the
        # rank-maximal machinery unchanged.
        weights = [r.profile.reverse_negate(poset.cutoff) for r in poset.rotations]
    else:
        weights = [r.profile for r in poset.rotations]
    digraph = poset.digraph.reduction if criterion is Criterion.EGALITARIAN else poset.digraph
    net = build_vb_network(weights, digraph)
    flow = max_vb_flow(net)
    cut = min_cut(net, flow)
    subset = max_profile_closed_subset(net, digraph, cut)
    return poset.eliminate(subset), (flow, cut, subset)


def _closed_subsets(digraph: RotationDigraph, cap: int) -> _Walk:
    """Every predecessor-closed subset of the rotations, breadth-first, as a tree.

    Returns parallel arrays ``parent`` and ``added``: node 0 is the empty
    set (both entries -1), and node x > 0 is node ``parent[x]``'s subset
    plus rotation ``added[x]``, so ``parent[x] < x``.  Nodes are numbered in
    visiting order, which is ordered by subset size.  Rotation ids are a
    topological order (see :func:`rotations.find_rotations`), so each
    nonempty closed subset C has a canonical parent, C minus its largest id,
    which is closed too.  A node is extended only by rotations above its
    ``added`` id, so each closed subset is reached exactly once, from its
    canonical parent, and no set of visited subsets is kept.  The canonical
    parent is visited before C's other parents, so the order is the one a
    breadth-first search that discards revisits gives.  Only the subsets of
    the nodes not yet extended are held, as int bitmasks.  Raises
    EnumerationCapError as soon as the count would exceed ``cap``.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    size = digraph.size
    pred_mask = [sum(1 << u for u in digraph.predecessors(r)) for r in range(size)]
    parent, added = [-1], [-1]
    pending = deque([0])  # the subsets of nodes x, x + 1, ... not yet extended
    x = 0
    while pending:
        mask = pending.popleft()
        missing = ~mask
        for r in range(added[x] + 1, size):
            if pred_mask[r] & missing:
                continue
            if len(parent) + 1 > cap:
                raise EnumerationCapError(cap)
            parent.append(x)
            added.append(r)
            pending.append(mask | 1 << r)
        x += 1
    return parent, added


def enumerate_stable_matchings(
    inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Matching]:
    """All stable matchings, man-optimal first, walking down the man-lattice
    (:meth:`_Lattice.matchings`).  Raises EnumerationCapError when the count
    would exceed ``cap``."""
    return _Lattice(inst, cap).matchings()


def _sex_equal(poset: _Poset, walk: _Walk) -> Matching:
    """:func:`select_sex_equal` over :meth:`_Lattice.matchings`, without building them.

    Eliminating a rotation changes man cost minus woman cost by a fixed
    amount, ``dm - dw`` of its ``rank_change``, so each node's balance
    is its parent's plus that of the node's rotation.  Only the first node
    of least absolute balance, in enumeration order, gets its matching built.
    """
    parent, added = walk
    step = [dm - dw for dm, dw in (r.rank_change for r in poset.rotations)]
    man_cost, woman_cost = _cost_pair(poset.inst, poset.man_optimal)
    balance = [man_cost - woman_cost]
    for x in range(1, len(parent)):
        balance.append(balance[parent[x]] + step[added[x]])
    score = list(map(abs, balance))
    x = score.index(min(score))
    subset = []
    while x:
        subset.append(added[x])
        x = parent[x]
    return poset.eliminate(subset)


def _median(poset: _Poset, walk: _Walk) -> Matching:
    """:func:`select_median` over :meth:`_Lattice.matchings`, without building them.

    With N stable matchings, c(r) of them eliminate rotation r: the sum of
    the subtree sizes of the walk nodes that add r, since every closed
    subset holding r descends from exactly one of them.  A man's rotations
    form a chain in the poset, each moving him down his list, so his
    j-th best stable partner (j = ceil(N/2), repeats counted) is past
    rotation r of his exactly when fewer than j matchings leave him above
    it: N - c(r) < j.  The rotations with c(r) > N - j therefore give every
    man that partner at once, and they form a closed set, as c never rises
    along an edge of the digraph (Teo & Sethuraman, 1998).
    """
    parent, added = walk
    total = len(parent)
    below = [1] * total  # the closed subsets in each node's subtree
    count = [0] * len(poset.rotations)
    for x in range(total - 1, 0, -1):
        below[parent[x]] += below[x]
        count[added[x]] += below[x]
    keep = total - ceil(total / 2)
    result = poset.eliminate([r for r, c in enumerate(count) if c > keep])
    if blocking_pair(poset.inst, result) is not None:
        raise RuntimeError("assembled median matching is not stable")
    return result


def _cost_pair(inst: Instance, matching: Matching) -> tuple[int, int]:
    """The men's and the women's total rank, in one pass over the wives."""
    men_rank, women_rank = inst.men_rank, inst.women_rank
    man_cost = woman_cost = 0
    for m, w in enumerate(matching.wife_array(inst.n_men)):
        if w:
            man_cost += men_rank[m][w]
            woman_cost += women_rank[w][m]
    return man_cost, woman_cost


def matching_degree(inst: Instance, matching: Matching) -> int:
    """Worst rank over all assigned agents (0 for the empty matching).
    Raises ValueError, as :meth:`Matching.validate_in` does, on a pair that
    is not mutually acceptable."""
    matching.validate_in(inst)
    degree = 0
    for m, w in matching:
        degree = max(degree, inst.men_rank[m][w], inst.women_rank[w][m])
    return degree


def _checked_cost_pair(inst: Instance, matching: Matching) -> tuple[int, int]:
    """:func:`_cost_pair`, after :meth:`Matching.validate_in`: raises
    ValueError on a pair that is not mutually acceptable."""
    matching.validate_in(inst)
    return _cost_pair(inst, matching)


def select_egalitarian(matchings: list[Matching], inst: Instance) -> Matching:
    """Minimum total rank; first enumerated wins ties.  Raises ValueError,
    as :meth:`Matching.validate_in` does, on a pair that is not mutually
    acceptable."""
    if not matchings:
        raise ValueError("no matchings to select from")
    return min(matchings, key=lambda M: sum(_checked_cost_pair(inst, M)))


def select_sex_equal(matchings: list[Matching], inst: Instance) -> Matching:
    """Minimum |man cost - woman cost|; first enumerated wins ties.  Raises
    ValueError, as :meth:`Matching.validate_in` does, on a pair that is not
    mutually acceptable."""
    if not matchings:
        raise ValueError("no matchings to select from")

    def score(M: Matching) -> int:
        mc, wc = _checked_cost_pair(inst, M)
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
    Raises ValueError, as :meth:`Matching.validate_in` does, on a pair that
    is not mutually acceptable.
    """
    if not matchings:
        raise ValueError("no matchings to select from")
    for M in matchings:
        M.validate_in(inst)
    j = ceil(len(matchings) / 2)
    n = inst.n_men
    # Column m holds man m's wife in each matching, 0 where he is unmatched.
    columns = zip(*(M.wife_array(n) for M in matchings))
    pairs = []
    for m, column in enumerate(islice(columns, 1, None), start=1):
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


def oracle_exponential_flow(
    rotations: Sequence[Rotation],
    digraph: RotationDigraph,
    n: int,
    window: Optional[int] = None,
) -> tuple[int, frozenset[int]]:
    """Exact scalar re-solution of the maximum-profile closed subset problem.

    Maps every rotation profile through the exponential weight function
    (after reverse-negation over ``window`` ranks, the generous weights of
    a poset cut at that rank; None weighs rank-maximal profiles), builds
    the scalar flow network with arbitrary-precision capacities, and runs an
    independent breadth-first augmenting-path max flow.  Returns the max
    flow value and the closed subset derived from the residual cut.
    """
    profiles = [r.profile for r in rotations]
    if window is not None:
        profiles = [p.reverse_negate(window) for p in profiles]
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

    for v in range(size):
        for u in digraph.predecessors(v):
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


def solve(inst: Instance, criterion: Criterion, cap: int = DEFAULT_ENUMERATION_CAP) -> Matching:
    """Dispatch a preprocessed instance to the requested solver (:meth:`_Lattice.solve`)."""
    return _Lattice(inst, cap).solve(criterion)
