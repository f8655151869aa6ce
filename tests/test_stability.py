import random

import pytest
from hypothesis import given, settings, strategies as st

from profmatch import (
    Criterion,
    Instance,
    Matching,
    blocking_pair,
    enumerate_stable_matchings,
    generate_I1,
    generate_uniform,
    man_optimal,
    matching_degree,
    matching_stats,
    min_regret_degree,
    parse_instance,
    preprocess,
    solve,
    truncate,
    woman_optimal,
)

from profmatch.model import DeferredAcceptance
from profmatch.solvers import _Lattice, _cost_pair

from helpers import (
    DESCENT_ENDS,
    I0_MAN_OPTIMAL,
    I0_WOMAN_OPTIMAL,
    binary_search_min_regret,
    cutoff_families,
    latin_chain,
    reference_blocking_pair,
    reference_cost_pair,
    reference_validate_in,
    sparse_lists,
    tiny_unique_instance,
)


def test_man_optimal_i0(i0_pre):
    assert man_optimal(i0_pre) == Matching(I0_MAN_OPTIMAL)


def test_woman_optimal_i0(i0_pre):
    assert woman_optimal(i0_pre) == Matching(I0_WOMAN_OPTIMAL)


def test_single_mutual_first_pair():
    inst = preprocess(tiny_unique_instance())
    assert man_optimal(inst) == woman_optimal(inst) == Matching([(1, 1), (2, 2)])


def test_is_stable_i0(i0_pre):
    assert blocking_pair(i0_pre, Matching(I0_MAN_OPTIMAL)) is None
    # Swapping (m1,w5),(m3,w8) to (m1,w8),(m3,w5) gives another stable matching.
    swapped = [(1, 8), (2, 3), (3, 5), (4, 6), (5, 7), (6, 1), (7, 2), (8, 4)]
    assert blocking_pair(i0_pre, Matching(swapped)) is None


def test_empty_matching_is_blocked(i0_pre):
    witness = blocking_pair(i0_pre, Matching(()))
    assert witness is not None
    m, w = witness
    assert i0_pre.acceptable(m, w)


def test_blocking_pair_prefers_each_other():
    # On the input lists: the band drops pairs this matching uses.
    inst = generate_uniform(5, 5, 1.0, seed=11)
    bad = Matching([(1, 2), (2, 1)] + [(m, m) for m in range(3, 6)])
    witness = blocking_pair(inst, bad)
    if witness is not None:
        m, w = witness
        h = {w2: m2 for m2, w2 in bad}.get(w)
        wc = bad.wife_of(m)
        assert h is None or inst.women_rank[w][m] < inst.women_rank[w][h]
        assert wc is None or inst.men_rank[m][w] < inst.men_rank[m][wc]


@st.composite
def raw_instances_with_matchings(draw):
    """An unpreprocessed instance, or now and then its band, with a partial
    matching: acceptable pairs drawn man by man, or the man-optimal
    matching, plus now and then a pair that may be unacceptable or name an
    agent the instance does not have, in place of those it meets.  Up to 9 women, so lists of up to two
    get dict rows and longer ones dense rows."""
    n_men, n_women = draw(st.integers(0, 7)), draw(st.integers(0, 9))
    men = [[w for w in range(1, n_women + 1) if draw(st.booleans())] for _ in range(n_men)]
    men = [draw(st.permutations(lst)) for lst in men]
    women = [[m for m in range(1, n_men + 1) if w in men[m - 1]] for w in range(1, n_women + 1)]
    women = [draw(st.permutations(lst)) for lst in women]
    inst = Instance.from_lists(men, women)
    if draw(st.booleans()):
        inst = preprocess(inst)
    if draw(st.booleans()):
        pairs = list(man_optimal(inst))
    else:
        pairs, taken = [], set()
        for m in range(1, inst.n_men + 1):
            free = [w for w in inst.men_lists[m] if w not in taken]
            k = draw(st.integers(0, len(free)))
            if k:
                pairs.append((m, free[k - 1]))
                taken.add(free[k - 1])
    extra = draw(st.none() | st.tuples(
        st.integers(1, inst.n_men + 2), st.integers(1, inst.n_women + 2)
    ))
    if extra is not None:
        # It takes the place of the pairs it shares an agent with.
        pairs = [(m, w) for m, w in pairs if m != extra[0] and w != extra[1]] + [extra]
    return inst, Matching(pairs)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(case=raw_instances_with_matchings())
def test_flat_checks_equal_the_pairwise_references(case):
    # validate_in and blocking_pair each make one flat pass over the wife
    # tuple; the references walk the pairs and look husbands up in a dict.
    # Both give the same answer, or raise the same exception and message.
    inst, matching = case
    assert _outcome(matching.validate_in, inst) == _outcome(reference_validate_in, matching, inst)
    assert _outcome(blocking_pair, inst, matching) == _outcome(
        reference_blocking_pair, inst, matching
    )
    # _cost_pair reads each matched pair's two ranks once, as the reference's
    # two sums do, only interleaved: the same total where the reference has
    # one, and a failed lookup where it fails, though on a matching with two
    # bad pairs not necessarily the same one.
    try:
        expected = reference_cost_pair(inst, matching)
    except LookupError:
        with pytest.raises(LookupError):
            _cost_pair(inst, matching)
    else:
        assert _cost_pair(inst, matching) == expected


def test_degree_and_stats_reject_pairs_the_instance_does_not_accept():
    # Man 1 does not list woman 2; a dense row reads rank 0 there, so the
    # degree and the stats once came out as if he did.
    inst = parse_instance("2 2\n1\n1 2\n1 2\n2\n")
    crossed = Matching([(1, 2), (2, 1)])
    for measure in (matching_degree, matching_stats):
        with pytest.raises(ValueError, match=r"pair \(1,2\) is not mutually acceptable"):
            measure(inst, crossed)
    # A man the instance does not have: once an IndexError.
    inst = parse_instance("3 3\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n")
    for measure, matching in (
        (matching_degree, Matching([(4, 1)])),
        (matching_stats, Matching([(1, 1), (2, 2), (4, 3)])),
    ):
        with pytest.raises(ValueError, match=r"pair \(4,\d\) references unknown agents"):
            measure(inst, matching)


def test_min_regret_degree_examples(i0_pre):
    assert min_regret_degree(preprocess(tiny_unique_instance())) == 1
    enumerated = enumerate_stable_matchings(i0_pre)
    best = min(matching_degree(i0_pre, M) for M in enumerated)
    assert min_regret_degree(i0_pre) == best
    assert min_regret_degree(preprocess(generate_I1(4))) == 2


def test_min_regret_degree_matches_enumeration_on_random_instances():
    for seed in range(12):
        inst = preprocess(generate_uniform(6, 6, 1.0 if seed % 2 else 0.6, seed=seed))
        if inst.n_men == 0:
            continue
        enumerated = enumerate_stable_matchings(inst)
        best = min(matching_degree(inst, M) for M in enumerated)
        assert min_regret_degree(inst) == best


def test_truncate_full_depth_is_identity(i0_pre):
    assert truncate(i0_pre, i0_pre.n_men).instance == i0_pre


def test_min_regret_matches_binary_search_reference(i0_pre):
    # The resumed descent against the binary search of fresh runs it
    # replaced: the cutoff families, denser and sparser seeded instances,
    # longer I1 and Latin chains, and the empty instance.
    instances = cutoff_families(i0_pre) + [preprocess(Instance.from_lists([], []))]
    for seed in range(48):
        n, density = (10, 30, 60)[seed % 3], (1.0, 0.6, 0.3, 0.1)[seed // 3 % 4]
        instances.append(preprocess(generate_uniform(n, n, density, seed=7300 + seed)))
    for seed in range(12):
        rng = random.Random(seed)
        n = 40 + 20 * seed
        men, women = sparse_lists(n, [rng.randint(1, 8) for _ in range(n)], seed=7400 + seed)
        instances.append(preprocess(Instance.from_lists(men, women)))
    instances += [preprocess(generate_I1(n)) for n in range(14, 31, 4)]
    instances += [preprocess(latin_chain(n)) for n in (41, 64)]
    for inst in instances:
        generous = _Lattice(inst).generous
        assert (generous.cutoff, generous.man_optimal) == binary_search_min_regret(inst)


def _recorded_runs(monkeypatch) -> list[list[int]]:
    """The wife array each deferred-acceptance run or resumption leaves, in order."""
    runs = []
    real = DeferredAcceptance.propose

    def propose(self, free):
        moved = real(self, free)
        runs.append(self.prop_match[:])
        return moved

    monkeypatch.setattr(DeferredAcceptance, "propose", propose)
    return runs


def _descent(men, women, monkeypatch):
    inst = preprocess(Instance.from_lists(men, women))
    expected = binary_search_min_regret(inst)
    runs = _recorded_runs(monkeypatch)
    generous = _Lattice(inst).generous
    degree, matching = generous.cutoff, generous.man_optimal
    assert (degree, matching) == expected
    return inst, degree, matching, [Matching.from_wife_array(w) for w in runs]


def test_min_regret_descent_stops_at_worst_man(monkeypatch):
    # Woman 3 ranks her man-optimal husband 3rd.  At cutoff 2 she drops
    # him, and the resumed run ends within 2, where man 1 ranks his wife
    # 2nd: no cutoff below can keep him, so the descent stops.
    inst, degree, matching, runs = _descent(*DESCENT_ENDS["worst_man"], monkeypatch)
    assert [matching_degree(inst, m) for m in runs] == [3, 2]
    assert degree == 2 and matching == runs[-1]
    assert inst.men_rank[1][matching.wife_of(1)] == 2


def test_min_regret_descent_returns_state_before_exhausted_man(monkeypatch):
    # At cutoff 1 woman 1 drops man 1, who lists no other woman: the
    # cutoff is infeasible, and the man-optimal matching of degree 2 stands.
    inst, degree, matching, runs = _descent(*DESCENT_ENDS["exhausted_man"], monkeypatch)
    assert len(runs) == 2 and runs[1].wife_of(1) is None
    assert degree == 2 and matching == runs[0]


def test_min_regret_descent_returns_state_before_man_past_cutoff(monkeypatch):
    # At cutoff 2 woman 2 drops man 1, who takes woman 3 from man 2; man 2
    # goes on to woman 2, whom he ranks 3rd.  Everyone is matched, but
    # past the cutoff, so it is infeasible.
    inst, degree, matching, runs = _descent(*DESCENT_ENDS["man_past_cutoff"], monkeypatch)
    assert len(runs) == 2 and runs[1].is_perfect(inst)
    assert inst.men_rank[2][runs[1].wife_of(2)] == 3
    assert degree == 3 and matching == runs[0]


def test_min_regret_descent_skips_cutoff_with_no_violating_woman(monkeypatch):
    # The man-optimal matching has degree 4.  The run resumed at cutoff 3
    # already reaches degree 2, so cutoff 2 drops nobody and runs nothing.
    inst, degree, matching, runs = _descent(*DESCENT_ENDS["no_violating_woman"], monkeypatch)
    assert [matching_degree(inst, m) for m in runs] == [4, 2]
    assert degree == 2 and matching == runs[-1]


def test_truncate_at_min_regret_stays_stable_in_original():
    for seed in range(10):
        inst = preprocess(generate_uniform(7, 7, 1.0, seed=100 + seed))
        d = min_regret_degree(inst)
        trunc = truncate(inst, d)
        matching = man_optimal(trunc.instance)
        assert blocking_pair(inst, matching) is None
        assert matching_degree(inst, matching) <= d


def test_truncate_keeps_original_ranks(i0_pre):
    d = min_regret_degree(i0_pre)
    trunc = truncate(i0_pre, d).instance
    for m in range(1, trunc.n_men + 1):
        for w in trunc.men_lists[m]:
            assert trunc.men_rank[m][w] == i0_pre.men_rank[m][w]
            assert trunc.men_rank[m][w] <= d
            assert trunc.women_rank[w][m] <= d


def test_truncate_pair_count_bound(i0_pre):
    d = min_regret_degree(i0_pre)
    trunc = truncate(i0_pre, d).instance
    n = i0_pre.n_men
    assert trunc.acceptable_pairs <= min(i0_pre.acceptable_pairs, n * d)


def test_truncate_i1_blocks_collapse_to_partners():
    # In the paired-block family each woman's first choice ranks her last,
    # so cutting at rank 2 leaves exactly the block-diagonal pairs.
    inst = preprocess(generate_I1(4))
    trunc = truncate(inst, 2).instance
    for j in range(1, 5):
        assert trunc.women_lists[j] == (j,)
    for i in range(1, 5):
        assert trunc.men_lists[i] == (i,)


def test_min_regret_degree_on_rank_sparse_instance(i0_pre):
    # A truncated instance keeps the base ranks, which can exceed its list
    # lengths; the search must still find the right cutoff.
    d = min_regret_degree(i0_pre)
    trunc = truncate(i0_pre, d).instance
    assert min_regret_degree(trunc) == d


def test_truncate_below_min_regret_raises(i0_pre):
    d = min_regret_degree(i0_pre)
    with pytest.raises(ValueError):
        truncate(i0_pre, d - 1)


def test_truncate_asks_for_preprocessing_when_the_input_has_no_perfect_matching():
    # Man 2 and woman 2 are in no stable matching, so even the cut at the
    # largest rank, 3, which drops nothing, has no perfect one: the input
    # is at fault, not the cutoff.
    inst = parse_instance("3 3\n3 1\n3 1\n1 3\n1 2 3\n\n3 1 2\n")
    with pytest.raises(ValueError, match="preprocess first"):
        truncate(inst, 3)
    with pytest.raises(ValueError, match="preprocess first"):
        min_regret_degree(inst)
    pre = preprocess(inst)
    assert truncate(pre, 3).instance == pre
    with pytest.raises(ValueError, match="truncating at rank 1 leaves no perfect"):
        truncate(pre, 1)
    # Every man is matched but a woman is not, or there is no man at all:
    # the descent checks the sides' sizes too, so each call gives one message.
    for text in ("1 2\n1 2\n1\n1\n", "0 1\n\n"):
        lopsided = parse_instance(text)
        with pytest.raises(ValueError, match="preprocess first"):
            truncate(lopsided, 1)
        with pytest.raises(ValueError, match="preprocess first"):
            min_regret_degree(lopsided)
        for criterion in (Criterion.MIN_REGRET, Criterion.GENEROUS):
            with pytest.raises(ValueError, match="preprocess first"):
                solve(lopsided, criterion)


def test_gs_outputs_always_stable():
    for seed in range(15):
        inst = preprocess(generate_uniform(6, 7, 0.7, seed=200 + seed))
        assert blocking_pair(inst, man_optimal(inst)) is None
        assert blocking_pair(inst, woman_optimal(inst)) is None


def test_lattice_bounds_on_enumerated_matchings():
    for seed in range(8):
        inst = preprocess(generate_uniform(6, 6, 1.0, seed=300 + seed))
        if inst.n_men == 0:
            continue
        m0, mz = man_optimal(inst), woman_optimal(inst)
        m0_husband = {w: m for m, w in m0}
        mz_husband = {w: m for m, w in mz}
        for matching in enumerate_stable_matchings(inst):
            for m, w in matching:
                r = inst.men_rank[m][w]
                assert inst.men_rank[m][m0.wife_of(m)] <= r
                assert r <= inst.men_rank[m][mz.wife_of(m)]
                rw = inst.women_rank[w][m]
                assert inst.women_rank[w][mz_husband[w]] <= rw
                assert rw <= inst.women_rank[w][m0_husband[w]]
