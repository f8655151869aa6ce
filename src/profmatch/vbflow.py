"""Flow network with vector capacities ordered lexicographically.

The network is built over the rotation digraph: a source s, a sink t, one
node per rotation.  Rotation-to-rotation edges are uncapacitated, read
from each node's predecessors in id order (no edge list is laid out); each
rotation whose weight vector is lexicographically negative hangs off s with
capacity equal to the sign-flipped vector, and each positive rotation feeds
t with its vector as capacity.  Vectors form a totally ordered abelian
group, so the classic augmenting-path argument goes through unchanged:
residual capacities are vector differences and the bottleneck along a path
is the lexicographic minimum.

The maximum flow is found in blocking-flow phases (Dinic, 1970).  A phase
labels every node with its residual distance from s and augments only along
paths that climb one level per arc, until none is left; the distance of t
then grows, so there are at most V phases, whatever the capacities.  A
phase first augments along the path its breadth-first search found, and
searches depth-first for more only while t still has an open arc from the
level below it, so a phase that holds one path costs one search.

No vector is added on an uncapacitated edge while the flow runs: its
forward residual never closes, and its backward residual is open exactly
when some flow crosses it.  A forward push along it appends the bottleneck
to the edge's list and marks its backward arc open.  The list is summed
only when a backward arc's capacity is needed, or when the returned flow's
``edge_flows`` are first read; :func:`min_cut` reads the open arcs instead.

The arc that sets an augmentation's bottleneck closes with no arithmetic:
its residual (room, or pending push) is the bottleneck vector itself, so
it becomes the zero vector without a subtraction.  Every other finite
residual on the path pays one merge.  A sum of many vectors (a push list,
the flow value over the source edges, a cut's capacity) is one
:meth:`~profmatch.profiles.Profile.sum`, a pass over their entries, not
one merge per addend.

When no augmenting path remains, the set of residual-reachable nodes yields
a cut whose capacity equals the flow value entry by entry; that set is the
same for every maximum flow, and so is the cut, which is lexicographically
minimum.  The positive rotations whose sink edges escape it, together with
their digraph ancestors, form the closed subset of maximum total profile.

Capacities and flows are sparse :class:`~profmatch.profiles.Profile`
vectors, so one addition or comparison costs O(nonzero entries), not
O(degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .profiles import Profile
from .rotations import RotationDigraph

SOURCE = -1
SINK = -2


class VbNetwork:
    """Immutable network; nodes are rotation ids plus SOURCE and SINK.

    Edge e runs ``tails[e] -> heads[e]`` with capacity ``caps[e]`` (None for
    an uncapacitated edge).  The digraph's uncapacitated edges come first,
    by head and then by tail, in ascending id; then the source edges, then
    the sink edges.  The residual arcs of edge e are numbered e (forward)
    and ~e (backward), and ``arcs[x]`` lists the ones leaving node x:
    forward arcs of its out-edges, then backward arcs of its uncapacitated
    in-edges.  A backward arc of a terminal edge would enter s or leave t,
    which no augmenting path does.  Lists indexed by
    node hold ``n_rotations + 2`` entries, so SOURCE and SINK index the last
    two; lists indexed by arc hold 2E entries, so ~e indexes the second
    half.  ``arc_heads[a]`` is where arc a leads, and ``arc_heads[~a]``
    where it starts, the head of its reverse.
    """

    def __init__(
        self,
        n_rotations: int,
        tails: list[int],
        heads: list[int],
        caps: list[Optional[Profile]],
    ):
        self.n_rotations = n_rotations
        self.tails = tails
        self.heads = heads
        self.caps = caps
        self.arc_heads = heads + tails[::-1]
        arcs: list[list[int]] = [[] for _ in range(n_rotations + 2)]
        for e, u in enumerate(tails):
            arcs[u].append(e)
        for e, cap in enumerate(caps):
            if cap is None:
                arcs[heads[e]].append(~e)
        self.arcs = arcs

    @property
    def edges(self) -> tuple[tuple[int, int, Optional[Profile]], ...]:
        """Every edge as a ``(tail, head, cap)`` triple, in edge order."""
        return tuple(zip(self.tails, self.heads, self.caps))


class VbFlow:
    """Per-edge flow vectors plus the total value leaving the source.

    A flow that :func:`max_vb_flow` returns sums its uncapacitated edges'
    pushes when ``edge_flows`` is first read, and keeps which residual arcs
    it leaves open, which :func:`min_cut` reads.
    """

    def __init__(self, edge_flows: Sequence[Profile], value: Profile):
        self.value = value
        self._edge_flows: Optional[tuple[Profile, ...]] = tuple(edge_flows)
        self._sum_edges: Optional[Callable[[], tuple[Profile, ...]]] = None
        self._is_open: Optional[list[bool]] = None

    @classmethod
    def _unsummed(
        cls, value: Profile, is_open: list[bool], sum_edges: Callable[[], tuple[Profile, ...]]
    ) -> "VbFlow":
        flow = cls((), value)
        flow._edge_flows, flow._sum_edges, flow._is_open = None, sum_edges, is_open
        return flow

    @property
    def edge_flows(self) -> tuple[Profile, ...]:
        if self._edge_flows is None:
            assert self._sum_edges is not None
            self._edge_flows, self._sum_edges = self._sum_edges(), None
        return self._edge_flows

    def _residual_open(self, net: "VbNetwork") -> list[bool]:
        """Whether each residual arc of ``net`` is open, indexed by arc."""
        if self._is_open is not None:
            return self._is_open
        flows = self.edge_flows
        is_open = [cap is None or f < cap for f, cap in zip(flows, net.caps)]
        return is_open + [not f.is_zero for f in reversed(flows)]


@dataclass(frozen=True)
class Cut:
    """An s-t cut: its edges and the vector sum of their capacities."""

    edges: frozenset[tuple[int, int]]
    capacity: Profile


def build_vb_network(profiles: list[Profile], digraph: RotationDigraph) -> VbNetwork:
    """Network over the digraph with the given per-rotation weight vectors.

    Zero vectors get no terminal edge; the node still relays flow.
    """
    if len(profiles) != digraph.size:
        raise ValueError("one weight vector per digraph node is required")
    tails, heads = [], []
    for v in range(digraph.size):
        for u in digraph.predecessors(v):
            tails.append(u)
            heads.append(v)
    caps: list[Optional[Profile]] = [None] * len(tails)
    for rid, p in enumerate(profiles):
        if p.sign < 0:
            tails.append(SOURCE)
            heads.append(rid)
            caps.append(p.abs_value())
    for rid, p in enumerate(profiles):
        if p.sign > 0:
            tails.append(rid)
            heads.append(SINK)
            caps.append(p)
    return VbNetwork(len(profiles), tails, heads, caps)


def _levels(net: VbNetwork, is_open: list[bool]) -> tuple[list[int], list[int]]:
    """Breadth-first search from SOURCE over the open residual arcs.

    Returns each node's distance (-1 where not reached) and the arc that
    reached it.  The search stops when it reaches SINK: every node nearer
    to SOURCE than SINK is labelled by then, so the labels below SINK's
    level are complete; without SINK, every reachable node is labelled.
    """
    arcs, arc_heads = net.arcs, net.arc_heads
    level = [-1] * (net.n_rotations + 2)
    via = [0] * (net.n_rotations + 2)
    level[SOURCE] = 0
    frontier = [SOURCE]
    for u in frontier:
        lv = level[u] + 1
        for a in arcs[u]:
            v = arc_heads[a]
            if level[v] < 0 and is_open[a]:
                level[v] = lv
                via[v] = a
                if v == SINK:
                    return level, via
                frontier.append(v)
    return level, via


def _level_path(
    net: VbNetwork, is_open: list[bool], level: list[int], current: list[int]
) -> Optional[list[int]]:
    """An open path from SOURCE to SINK that climbs one level per arc, or None.

    Depth-first, resuming each node's arc list at ``current``; a node found
    to have no such path left is unlabelled, so no later search of the
    phase enters it again.
    """
    arcs, arc_heads = net.arcs, net.arc_heads
    path: list[int] = []
    u = SOURCE
    while u != SINK:
        out = arcs[u]
        i, stop, up = current[u], len(out), level[u] + 1
        while i < stop:
            a = out[i]
            if is_open[a] and level[arc_heads[a]] == up:
                break
            i += 1
        current[u] = i
        if i < stop:
            path.append(a)
            u = arc_heads[a]
        else:
            level[u] = -1
            if not path:
                return None
            u = arc_heads[~path.pop()]
    return path


def max_vb_flow(net: VbNetwork) -> VbFlow:
    """Maximum flow by blocking-flow phases with vector arithmetic.

    Each augmentation pushes the lexicographic minimum of the finite
    residual capacities along a shortest s-t path.  Every s-t path starts
    and ends with a finite-capacity edge, so the bottleneck is always
    defined and lexicographically positive, and the augmentation closes
    the arc that set it.  Dinic's bound of V phases is combinatorial and
    applies verbatim to ordered-group capacities.
    """
    caps = net.caps
    n_edges = len(caps)
    # Open residual arcs, indexed by arc: every forward arc (capacities are
    # positive), no backward one.
    is_open = [True] * n_edges + [False] * n_edges
    # Forward residual of each capacitated edge; None for uncapacitated.
    room = list(caps)
    # The pushes whose sum is the flow on each uncapacitated edge that
    # carries any, so exactly the edges whose backward arc is open.
    pushes: dict[int, list[Profile]] = {}
    sink_edges = [e for e in range(n_edges) if net.heads[e] == SINK]

    def augment(path: list[int]) -> None:
        bottleneck: Optional[Profile] = None
        for a in path:
            if a >= 0:
                r = room[a]
                if r is None:
                    continue
            else:
                pending = pushes[~a]
                if len(pending) > 1:
                    pending[:] = [Profile.sum(pending)]
                r = pending[0]
            if bottleneck is None or r < bottleneck:
                bottleneck = r
        assert bottleneck is not None and bottleneck > Profile.zero()
        for a in path:
            if a >= 0:
                r = room[a]
                if r is None:
                    pending = pushes.get(a)
                    if pending is None:
                        pushes[a] = [bottleneck]
                        is_open[~a] = True
                    else:
                        pending.append(bottleneck)
                else:
                    # The arc that set the bottleneck closes with no merge.
                    r = room[a] = Profile.zero() if r is bottleneck else r - bottleneck
                    if r.is_zero:
                        is_open[a] = False
            else:
                f = pushes[~a][0]
                f = Profile.zero() if f is bottleneck else f - bottleneck
                if f.is_zero:
                    del pushes[~a]
                    is_open[a] = False
                else:
                    pushes[~a] = [f]

    while True:
        level, via = _levels(net, is_open)
        top = level[SINK]
        if top < 0:
            break
        path = []
        v = SINK
        while v != SOURCE:
            a = via[v]
            path.append(a)
            v = net.arc_heads[~a]
        augment(path)
        # Open arcs into SINK from the level below it: while there are
        # none, no path of this length is left.
        below = top - 1
        entries = sum(is_open[e] and level[net.tails[e]] == below for e in sink_edges)
        current = [0] * (net.n_rotations + 2)
        while entries:
            path = _level_path(net, is_open, level, current)
            if path is None:
                break
            augment(path)
            entries -= not is_open[path[-1]]

    # A source edge that no path crossed still holds its capacity as room.
    used = [e for e, u in enumerate(net.tails) if u == SOURCE and room[e] is not caps[e]]
    value = Profile.sum(caps[e] - room[e] for e in used)

    def edge_flows() -> tuple[Profile, ...]:
        return tuple(
            Profile.sum(pushes.get(e, ())) if cap is None else cap - room[e]
            for e, cap in enumerate(caps)
        )

    return VbFlow._unsummed(value, is_open, edge_flows)


def min_cut(net: VbNetwork, flow: VbFlow) -> Cut:
    """Cut between residual-reachable nodes and the rest; capacity == value.

    Raises ValueError if the flow still admits an augmenting path.
    """
    level, _via = _levels(net, flow._residual_open(net))
    if level[SINK] >= 0:
        raise ValueError("flow admits an augmenting path; compute max_vb_flow first")
    cut_edges = []
    cut_caps = []
    for u, v, cap in zip(net.tails, net.heads, net.caps):
        if level[u] >= 0 and level[v] < 0:
            if cap is None:
                raise RuntimeError("minimum cut crossed an uncapacitated edge")
            cut_edges.append((u, v))
            cut_caps.append(cap)
    return Cut(frozenset(cut_edges), Profile.sum(cut_caps))


def max_profile_closed_subset(
    net: VbNetwork, digraph: RotationDigraph, cut: Cut
) -> frozenset[int]:
    """Closed rotation subset of lexicographically maximum total profile.

    Takes the positive rotations (those with a sink edge) whose sink edges
    survive the cut and closes the set under digraph predecessors.
    """
    positive = (u for u, v in zip(net.tails, net.heads) if v == SINK)
    kept = [rid for rid in positive if (rid, SINK) not in cut.edges]
    subset = digraph.ancestors(kept)
    if not digraph.is_closed(subset):
        raise RuntimeError("ancestor closure failed to produce a closed subset")
    return subset
