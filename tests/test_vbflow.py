import pytest
from hypothesis import given, strategies as st

from profmatch import (
    Profile,
    build_digraph,
    build_vb_network,
    find_rotations,
    generate_uniform,
    high_weight,
    max_profile_closed_subset,
    max_vb_flow,
    min_cut,
    oracle_exponential_flow,
    preprocess,
)
from profmatch.solvers import _Lattice, _egalitarian_weight
from profmatch.vbflow import SINK, SOURCE, VbFlow, VbNetwork

from helpers import (
    I0_FLOW_VALUE_WEIGHT,
    I0_MIN_CUT_CAPACITY,
    I0_OPTIMAL_SUBSET,
    all_closed_subsets,
    cutoff_families,
    incident_edges,
    latin_chain,
    reference_max_vb_flow,
    rotation_name_map,
)


def _i0_machinery(i0_pre):
    rotations = find_rotations(i0_pre)
    digraph = build_digraph(i0_pre, rotations)
    net = build_vb_network([rot.profile for rot in rotations], digraph)
    return rotations, digraph, net


def test_i0_network_layout(i0_pre):
    rotations, digraph, net = _i0_machinery(i0_pre)
    names = rotation_name_map(rotations)
    source_caps = {}
    sink_caps = {}
    internal = 0
    for u, v, cap in net.edges:
        if u == SOURCE:
            source_caps[names[v]] = cap
        elif v == SINK:
            sink_caps[names[u]] = cap
        else:
            internal += 1
            assert cap is None
    assert internal == 6
    assert source_caps == {
        0: Profile([2, -1, -1, -1, 0, 1]),
        3: Profile([1, 0, -1, -1, 1]),
    }
    assert sink_caps == {
        1: Profile([2, 0, -1, -1, -1, -2, 1, 2]),
        2: Profile([0, 0, 1, -1]),
        4: Profile([1, -2, 0, 0, 0, 1]),
    }


def test_empty_network():
    from profmatch import RotationDigraph

    digraph = RotationDigraph(0, {})
    net = build_vb_network([], digraph)
    assert net.edges == ()
    flow = max_vb_flow(net)
    assert flow.value == Profile.zero()
    cut = min_cut(net, flow)
    assert cut.edges == frozenset() and cut.capacity == Profile.zero()
    assert max_profile_closed_subset(net, digraph, cut) == frozenset()


def test_all_positive_rotations_give_zero_flow():
    from profmatch import RotationDigraph

    digraph = RotationDigraph(2, {(0, 1): frozenset({1})})
    net = build_vb_network([Profile([1]), Profile([0, 2])], digraph)
    assert all(u != SOURCE for u, _v, _cap in net.edges)
    flow = max_vb_flow(net)
    assert flow.value == Profile.zero()
    subset = max_profile_closed_subset(net, digraph, min_cut(net, flow))
    assert subset == frozenset({0, 1})


def test_i0_flow_cut_and_subset(i0_pre):
    rotations, digraph, net = _i0_machinery(i0_pre)
    names = rotation_name_map(rotations)
    flow = max_vb_flow(net)
    assert high_weight(flow.value, 8) == I0_FLOW_VALUE_WEIGHT
    assert flow.value == I0_MIN_CUT_CAPACITY

    # Both cut edges are saturated by any maximum flow.
    for ei, (u, v, cap) in enumerate(net.edges):
        if u == SOURCE and names[v] == 0:
            assert flow.edge_flows[ei] == cap
        if v == SINK and names[u] == 4:
            assert flow.edge_flows[ei] == cap

    cut = min_cut(net, flow)
    named_cut = {
        ("s" if u == SOURCE else names[u], "t" if v == SINK else names[v])
        for u, v in cut.edges
    }
    assert named_cut == {("s", 0), (4, "t")}
    assert cut.capacity == I0_MIN_CUT_CAPACITY

    subset = max_profile_closed_subset(net, digraph, cut)
    assert {names[r] for r in subset} == I0_OPTIMAL_SUBSET


def test_min_cut_requires_maximum_flow(i0_pre):
    _rotations, _digraph, net = _i0_machinery(i0_pre)
    zero_flow = VbFlow(tuple(Profile.zero() for _ in net.edges), Profile.zero())
    with pytest.raises(ValueError, match="augmenting"):
        min_cut(net, zero_flow)


def _random_networks(seeds, n=7):
    for seed in seeds:
        inst = preprocess(generate_uniform(n, n, 1.0 if seed % 2 else 0.7, seed=seed))
        if inst.n_men == 0:
            continue
        rotations = find_rotations(inst)
        if not rotations:
            continue
        digraph = build_digraph(inst, rotations)
        net = build_vb_network([rot.profile for rot in rotations], digraph)
        yield inst, rotations, digraph, net


def test_flow_conservation_and_capacity_respect():
    zero = Profile.zero()
    for _inst, _rotations, _digraph, net in _random_networks(range(1000, 1015)):
        flow = max_vb_flow(net)
        out_edges, in_edges = incident_edges(net)
        for rid in range(net.n_rotations):
            inflow = sum((flow.edge_flows[ei] for ei in in_edges[rid]), zero)
            outflow = sum((flow.edge_flows[ei] for ei in out_edges[rid]), zero)
            assert inflow == outflow
        for ei, (_u, _v, cap) in enumerate(net.edges):
            f = flow.edge_flows[ei]
            assert f >= zero
            if cap is not None:
                assert zero < cap and f <= cap


def test_max_flow_min_cut_elementwise():
    for _inst, _rotations, _digraph, net in _random_networks(range(1100, 1115)):
        flow = max_vb_flow(net)
        cut = min_cut(net, flow)
        assert cut.capacity.elements == flow.value.elements


def test_closed_subset_is_lex_maximal_by_brute_force():
    for _inst, rotations, digraph, net in _random_networks(range(1200, 1220), n=6):
        if len(rotations) > 12:
            continue
        flow = max_vb_flow(net)
        subset = max_profile_closed_subset(net, digraph, min_cut(net, flow))
        assert digraph.is_closed(subset)
        total = sum((rotations[r].profile for r in subset), Profile.zero())
        best = max(
            (
                sum((rotations[r].profile for r in s), Profile.zero())
                for s in all_closed_subsets(digraph)
            ),
        )
        assert total == best


def test_vb_flow_value_matches_exponential_oracle():
    for inst, rotations, digraph, net in _random_networks(range(1300, 1325)):
        flow = max_vb_flow(net)
        value, _subset = oracle_exponential_flow(rotations, digraph, inst.n_men)
        assert high_weight(flow.value, inst.n_men) == value


@given(
    st.integers(2, 6).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(
                st.lists(st.integers(-5, 5), min_size=1, max_size=5),
                min_size=r,
                max_size=r,
            ),
            st.sets(
                st.tuples(st.integers(0, r - 1), st.integers(0, r - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=r * 2,
            ),
        )
    )
)
def test_flow_optimises_arbitrary_dags(params):
    # The ordered-group max-flow/min-cut argument holds for any integer
    # vectors on any DAG, not just rotation-shaped inputs.
    r, entries, edge_set = params
    from profmatch import RotationDigraph

    digraph = RotationDigraph(r, {e: frozenset({1}) for e in edge_set})
    profiles = [Profile(e) for e in entries]
    net = build_vb_network(profiles, digraph)
    flow = max_vb_flow(net)
    cut = min_cut(net, flow)
    assert cut.capacity.elements == flow.value.elements
    subset = max_profile_closed_subset(net, digraph, cut)
    total = sum((profiles[v] for v in subset), Profile.zero())
    best = max(
        sum((profiles[v] for v in s), Profile.zero())
        for s in all_closed_subsets(digraph)
    )
    assert total == best


def _assert_max_flow_like_reference(net):
    # A valid flow with the reference engine's value and minimum cut; the
    # cut read from the engine's residual flags equals the one recomputed
    # from its edge flows.
    zero = Profile.zero()
    flow = max_vb_flow(net)
    reference = reference_max_vb_flow(net)
    assert flow.value == reference.value
    cut = min_cut(net, flow)
    assert cut == min_cut(net, reference)
    assert cut == min_cut(net, VbFlow(flow.edge_flows, flow.value))
    assert len(flow.edge_flows) == len(net.edges)
    for ei, (_u, _v, cap) in enumerate(net.edges):
        f = flow.edge_flows[ei]
        assert f >= zero
        if cap is not None:
            assert f <= cap
    out_edges, in_edges = incident_edges(net)
    for node in range(net.n_rotations):
        inflow = sum((flow.edge_flows[ei] for ei in in_edges[node]), zero)
        outflow = sum((flow.edge_flows[ei] for ei in out_edges[node]), zero)
        assert inflow == outflow
    for terminal, ends in ((SOURCE, out_edges), (SINK, in_edges)):
        assert sum((flow.edge_flows[ei] for ei in ends[terminal]), zero) == flow.value


def test_flow_matches_reference_on_random_networks():
    seeds = [*range(1000, 1015), *range(1100, 1115), *range(1300, 1325)]
    for _inst, _rotations, _digraph, net in _random_networks(seeds):
        _assert_max_flow_like_reference(net)
    for _inst, _rotations, _digraph, net in _random_networks(range(1200, 1220), n=6):
        _assert_max_flow_like_reference(net)


def test_flow_matches_reference_on_seeded_rotation_networks():
    # Few of these augment along a backward arc; the hand-built network
    # below always does.
    checked = 0
    for seed in range(2_000):
        n = 2 + seed % 39
        inst = preprocess(generate_uniform(n, n, (1.0, 0.6, 0.3)[seed % 3], seed=40_000 + seed))
        rotations = find_rotations(inst)
        if not rotations:
            continue
        net = build_vb_network([rot.profile for rot in rotations], build_digraph(inst, rotations))
        _assert_max_flow_like_reference(net)
        checked += 1
    assert checked >= 1_000


@given(
    st.integers(2, 7).flatmap(
        lambda r: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=1, max_size=5),
                min_size=r,
                max_size=r,
            ),
            st.sets(
                st.tuples(st.integers(0, r - 1), st.integers(0, r - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=r * 2,
            ),
        )
    )
)
def test_flow_matches_reference_on_arbitrary_dags(params):
    from profmatch import RotationDigraph

    entries, edge_set = params
    digraph = RotationDigraph(len(entries), {e: frozenset({1}) for e in edge_set})
    _assert_max_flow_like_reference(build_vb_network([Profile(e) for e in entries], digraph))


def test_second_augmenting_path_cancels_flow_on_an_uncapacitated_edge():
    # Rotations A=0, B=1, F=2, C=3, D=4, E=5; edges A->C, A->D, D->E, B->F,
    # F->C.  The one shortest path s-A-C-t saturates s->A and C->t, so
    # B's flow reaches t only by cancelling part of A->C and sending it on
    # through D and E.  cap(C) = cap(A) and cap(E) = cap(B) < cap(A) make
    # that maximum flow the only one.
    from profmatch import RotationDigraph

    cap_a, cap_b = Profile([1, 3]), Profile([0, 2, -5])
    edges = {(0, 3): frozenset({1}), (0, 4): frozenset({1}), (4, 5): frozenset({1}),
             (1, 2): frozenset({1}), (2, 3): frozenset({1})}
    digraph = RotationDigraph(6, edges)
    zero = Profile.zero()
    net = build_vb_network([-cap_a, -cap_b, zero, cap_a, zero, cap_b], digraph)
    flow = max_vb_flow(net)
    assert flow.value == cap_a + cap_b
    expected = {
        (0, 3): cap_a - cap_b, (0, 4): cap_b, (4, 5): cap_b, (1, 2): cap_b, (2, 3): cap_b,
        (SOURCE, 0): cap_a, (SOURCE, 1): cap_b, (3, SINK): cap_a, (5, SINK): cap_b,
    }
    assert {(u, v): f for (u, v, _cap), f in zip(net.edges, flow.edge_flows)} == expected
    cut = min_cut(net, flow)
    assert cut.edges == frozenset({(SOURCE, 0), (SOURCE, 1)})
    assert cut.capacity == cap_a + cap_b
    _assert_max_flow_like_reference(net)


def test_one_phase_finds_every_shortest_path(monkeypatch):
    # Every augmenting path of this network has length 3, so blocking flows
    # need one level search to find them and one to see that none is left;
    # one search per augmenting path would make 41.
    from profmatch import vbflow

    inst = preprocess(generate_uniform(300, 300, 1.0, seed=1))
    rotations = find_rotations(inst)
    net = build_vb_network([rot.profile for rot in rotations], build_digraph(inst, rotations))
    searches = []
    real = vbflow._levels

    def levels(*args):
        searches.append(1)
        return real(*args)

    monkeypatch.setattr(vbflow, "_levels", levels)
    max_vb_flow(net)
    assert len(searches) <= 3


def test_flow_and_cut_negate_no_profile_and_subtract_none_from_itself(monkeypatch):
    # A subtraction merges its two pair lists directly, and the arc whose
    # residual is the bottleneck closes with no subtraction at all.  Both
    # are counted on one seeded complete instance, where the network's
    # build does negate (each negative rotation's source capacity), which
    # shows that the counts see the calls.
    inst = preprocess(generate_uniform(300, 300, 1.0, seed=1))
    rotations = find_rotations(inst)
    negations, self_subtractions = [], []
    real_neg, real_sub = Profile.__neg__, Profile.__sub__

    def neg(p):
        negations.append(p)
        return real_neg(p)

    def sub(p, q):
        if p is q:
            self_subtractions.append(p)
        return real_sub(p, q)

    monkeypatch.setattr(Profile, "__neg__", neg)
    monkeypatch.setattr(Profile, "__sub__", sub)
    net = build_vb_network([rot.profile for rot in rotations], build_digraph(inst, rotations))
    assert negations
    negations.clear()
    flow = max_vb_flow(net)
    min_cut(net, flow)
    assert negations == [] and self_subtractions == []
    assert not flow.value.is_zero


def _edge_list_network(weights, digraph):
    """The network laid out from the digraph's ``(u, v)``-ordered edge list,
    as :func:`build_vb_network` built it before it read predecessors: the
    reference for the arc order Dinic's path choice follows."""
    tails = [u for u, _v, _labels in digraph.edges()]
    heads = [v for _u, v, _labels in digraph.edges()]
    caps = [None] * len(tails)
    for rid, p in enumerate(weights):
        if p.sign < 0:
            tails.append(SOURCE)
            heads.append(rid)
            caps.append(p.abs_value())
    for rid, p in enumerate(weights):
        if p.sign > 0:
            tails.append(rid)
            heads.append(SINK)
            caps.append(p)
    return VbNetwork(len(weights), tails, heads, caps)


def _arc_sequences(net):
    """Each node's residual arcs in order, as ``(tail, head, forward)``."""
    def arc(a):
        e = a if a >= 0 else ~a
        return net.tails[e], net.heads[e], a >= 0

    return [[arc(a) for a in arcs] for arcs in net.arcs]


def _solved_networks(inst):
    """Rank-maximal's, generous' and egalitarian's weights and digraph."""
    lattice = _Lattice(inst)
    full, generous = lattice.full, lattice.generous
    yield [r.profile for r in full.rotations], full.digraph
    yield [r.profile.reverse_negate(generous.cutoff) for r in generous.rotations], generous.digraph
    yield [_egalitarian_weight(r.rank_change) for r in full.rotations], full.digraph.reduction


def test_network_over_predecessors_equals_the_edge_list_network(i0_pre):
    instances = cutoff_families(i0_pre)  # poset_families among them
    instances += [preprocess(latin_chain(60)), preprocess(generate_uniform(100, 100, 1.0, seed=7))]
    solved = 0
    for inst in instances:
        for weights, digraph in _solved_networks(inst):
            net, ref = build_vb_network(weights, digraph), _edge_list_network(weights, digraph)
            assert _arc_sequences(net) == _arc_sequences(ref)
            flow, ref_flow = max_vb_flow(net), max_vb_flow(ref)
            cut, ref_cut = min_cut(net, flow), min_cut(ref, ref_flow)
            assert (flow.value, cut) == (ref_flow.value, ref_cut)
            subset = max_profile_closed_subset(net, digraph, cut)
            assert subset == max_profile_closed_subset(ref, digraph, ref_cut)
            solved += bool(digraph.edges()) and not flow.value.is_zero
    assert solved >= 350  # 371 of the 2,082 networks carry flow over a digraph edge
