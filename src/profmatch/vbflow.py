"""Flow network with vector capacities ordered lexicographically.

The network is built over the rotation digraph: a source s, a sink t, one
node per rotation.  Rotation-to-rotation edges are uncapacitated; each
rotation whose weight vector is lexicographically negative hangs off s with
capacity equal to the sign-flipped vector, and each positive rotation feeds
t with its vector as capacity.  Vectors form a totally ordered abelian
group, so the classic augmenting-path argument goes through unchanged:
residual capacities are vector differences, the bottleneck along a path is
the lexicographic minimum, and breadth-first (shortest) augmenting paths
guarantee termination after O(V*E) augmentations independently of the
capacity values.

When no augmenting path remains, the set of residual-reachable nodes yields
a cut whose capacity equals the flow value entry by entry; that cut is
lexicographically minimum, and the positive rotations whose sink edges
escape it, together with their digraph ancestors, form the closed subset of
maximum total profile.

Capacities and flows are sparse :class:`~profmatch.profiles.Profile`
vectors, so one addition or comparison costs O(nonzero entries), not
O(degree).  The search compares no vectors on forward edges: whether an
edge's forward residual is open is kept per edge and updated only on the
edges of each augmenting path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .profiles import Profile
from .rotations import RotationDigraph

SOURCE = -1
SINK = -2


@dataclass(frozen=True)
class VbEdge:
    """Edge u -> v; ``cap`` is a non-negative vector, or None for uncapacitated."""

    u: int
    v: int
    cap: Optional[Profile]


class VbNetwork:
    """Immutable network; nodes are rotation ids plus SOURCE and SINK."""

    def __init__(self, n_rotations: int, edges: list[VbEdge]):
        self.n_rotations = n_rotations
        self.edges = tuple(edges)
        out_edges: dict[int, list[int]] = {SOURCE: [], SINK: []}
        in_edges: dict[int, list[int]] = {SOURCE: [], SINK: []}
        for r in range(n_rotations):
            out_edges[r] = []
            in_edges[r] = []
        for ei, e in enumerate(self.edges):
            out_edges[e.u].append(ei)
            in_edges[e.v].append(ei)
        self.out_edges = out_edges
        self.in_edges = in_edges


@dataclass(frozen=True)
class VbFlow:
    """Per-edge flow vectors plus the total value leaving the source."""

    edge_flows: tuple[Profile, ...]
    value: Profile


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
    edges = [VbEdge(u, v, None) for u, v, _labels in digraph.edges()]
    edges += [VbEdge(SOURCE, rid, p.abs_value()) for rid, p in enumerate(profiles) if p.sign < 0]
    edges += [VbEdge(rid, SINK, p) for rid, p in enumerate(profiles) if p.sign > 0]
    return VbNetwork(len(profiles), edges)


def _residual_search(
    net: VbNetwork, flows: list[Profile], open_fwd: list[bool], stop_at_sink: bool
) -> dict[int, Optional[tuple[int, bool]]]:
    """BFS over the residual graph from SOURCE.

    Returns node -> (edge index, is_forward) parent links; SOURCE maps to
    None.  Residual edges: forward while ``open_fwd`` (flow < capacity under
    lex order, always for uncapacitated edges), backward while flow > 0.
    No flow is ever lexicographically negative, so nonzero means positive.
    """
    prev: dict[int, Optional[tuple[int, bool]]] = {SOURCE: None}
    queue = deque([SOURCE])
    while queue:
        u = queue.popleft()
        for ei in net.out_edges[u]:
            e = net.edges[ei]
            if e.v not in prev and open_fwd[ei]:
                prev[e.v] = (ei, True)
                if stop_at_sink and e.v == SINK:
                    return prev
                queue.append(e.v)
        for ei in net.in_edges[u]:
            e = net.edges[ei]
            if e.u not in prev and not flows[ei].is_zero:
                prev[e.u] = (ei, False)
                if stop_at_sink and e.u == SINK:
                    return prev
                queue.append(e.u)
    return prev


def _open_forward(net: VbNetwork, flows: list[Profile]) -> list[bool]:
    return [e.cap is None or f < e.cap for e, f in zip(net.edges, flows)]


def max_vb_flow(net: VbNetwork) -> VbFlow:
    """Maximum flow by shortest augmenting paths with vector arithmetic.

    Each augmentation pushes the lexicographic minimum of the finite
    residual capacities along a shortest s-t path.  Every s-t path starts
    and ends with a finite-capacity edge, so the bottleneck is always
    defined and lexicographically positive; the Edmonds-Karp bound on the
    number of augmentations is combinatorial and applies verbatim to
    ordered-group capacities.
    """
    flows: list[Profile] = [Profile.zero()] * len(net.edges)
    # Whether each edge's forward residual is open, updated on augmentation
    # so that a search compares no vectors on forward edges.
    open_fwd = _open_forward(net, flows)
    while True:
        prev = _residual_search(net, flows, open_fwd, stop_at_sink=True)
        if SINK not in prev:
            break
        path: list[tuple[int, bool]] = []
        node = SINK
        while node != SOURCE:
            step = prev[node]
            assert step is not None
            path.append(step)
            ei, forward = step
            node = net.edges[ei].u if forward else net.edges[ei].v
        bottleneck: Optional[Profile] = None
        for ei, forward in path:
            e = net.edges[ei]
            if forward:
                if e.cap is None:
                    continue
                room = e.cap - flows[ei]
            else:
                room = flows[ei]
            if bottleneck is None or room < bottleneck:
                bottleneck = room
        assert bottleneck is not None and bottleneck > Profile.zero()
        for ei, forward in path:
            f = flows[ei] + bottleneck if forward else flows[ei] - bottleneck
            flows[ei] = f
            cap = net.edges[ei].cap
            open_fwd[ei] = cap is None or f < cap
    value = Profile.zero()
    for ei in net.out_edges[SOURCE]:
        value = value + flows[ei]
    return VbFlow(tuple(flows), value)


def min_cut(net: VbNetwork, flow: VbFlow) -> Cut:
    """Cut between residual-reachable nodes and the rest; capacity == value.

    Raises ValueError if the flow still admits an augmenting path.
    """
    flows = list(flow.edge_flows)
    reach = _residual_search(net, flows, _open_forward(net, flows), stop_at_sink=False)
    if SINK in reach:
        raise ValueError("flow admits an augmenting path; compute max_vb_flow first")
    cut_edges = []
    capacity = Profile.zero()
    for e in net.edges:
        if e.u in reach and e.v not in reach:
            if e.cap is None:
                raise RuntimeError("minimum cut crossed an uncapacitated edge")
            cut_edges.append((e.u, e.v))
            capacity = capacity + e.cap
    return Cut(frozenset(cut_edges), capacity)


def max_profile_closed_subset(
    net: VbNetwork, digraph: RotationDigraph, cut: Cut
) -> frozenset[int]:
    """Closed rotation subset of lexicographically maximum total profile.

    Takes the positive rotations (those with a sink edge) whose sink edges
    survive the cut and closes the set under digraph predecessors.
    """
    positive = (net.edges[ei].u for ei in net.in_edges[SINK])
    kept = [rid for rid in positive if (rid, SINK) not in cut.edges]
    subset = digraph.ancestors(kept)
    if not digraph.is_closed(subset):
        raise RuntimeError("ancestor closure failed to produce a closed subset")
    return subset

