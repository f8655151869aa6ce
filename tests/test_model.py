import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from profmatch import (
    Criterion,
    Instance,
    Matching,
    ParseError,
    Profile,
    enumerate_stable_matchings,
    find_rotations,
    format_instance,
    generate_uniform,
    man_optimal,
    min_regret_degree,
    parse_instance,
    preprocess,
    profile_of,
    solve,
    truncate,
)

from profmatch import model
from profmatch.model import DeferredAcceptance
from profmatch.solvers import EnumerationCapError

from helpers import (
    DESCENT_ENDS,
    I0_ALL_MATCHINGS,
    I0_MAN_OPTIMAL,
    I0_WOMAN_OPTIMAL,
    _truncated_instance,
    brute_force_all_stable_matchings,
    lists_text,
    raw_cutoff_families,
    reference_preprocess,
    sparse_lists,
    stable_limits,
    two_step_preprocess,
)


def test_parse_i0(i0):
    assert i0.n_men == 8 and i0.n_women == 8
    assert i0.men_rank[1][5] == 1
    assert i0.women_rank[5][1] == 6
    assert i0.total_list_length == 128


def test_parse_smallest_instance():
    inst = parse_instance("1 1\n1\n1\n")
    assert inst.n_men == inst.n_women == 1
    assert inst.acceptable(1, 1)
    assert inst.total_list_length == 2


def test_parse_duplicate_entry_is_error():
    with pytest.raises(ParseError, match="line 2.*duplicate"):
        parse_instance("1 2\n2 2\n\n1\n")


def test_parse_out_of_range_entry():
    with pytest.raises(ParseError, match="line 3.*out of range"):
        parse_instance("2 1\n1\n2\n1 2\n")


def test_parse_malformed_integer_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("1 1\nx\n1\n")


def test_parse_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("3\n")


def test_parse_wrong_line_count():
    with pytest.raises(ParseError, match="expected 3 lines"):
        parse_instance("1 1\n")
    with pytest.raises(ParseError, match="expected 3 lines"):
        parse_instance("1 1\n1\n1\n5 5\n")


def test_parse_trailing_blank_is_empty_list():
    # The trailing newline leaves an empty third line: woman 1's empty list.
    # Her absence then drops man 1's non-mutual entry.
    inst = parse_instance("1 1\n1\n")
    assert inst.n_men == 1 and inst.men_lists[1] == ()


def test_parse_drops_non_mutual_entries_with_warning():
    warnings = []
    inst = parse_instance("2 1\n1\n1\n1\n", warnings)
    # Woman 1 lists only man 1, so man 2's entry goes away.
    assert inst.men_lists[2] == ()
    assert inst.men_lists[1] == (1,)
    assert any("man 2 lists woman 1" in w for w in warnings)


def test_preprocess_i0_is_its_band(i0, i0_pre):
    # Nobody is removed, and each man keeps the women from his man-optimal
    # to his woman-optimal wife who rank him within their man-optimal
    # husband: 22 of the 64 pairs, each at its rank in I0.
    assert (i0_pre.orig_men, i0_pre.orig_women) == (i0.orig_men, i0.orig_women)
    assert i0_pre.total_list_length == 44
    for m in range(1, 9):
        lst = i0_pre.men_lists[m]
        assert lst[0] == I0_MAN_OPTIMAL[m - 1][1] and lst[-1] == I0_WOMAN_OPTIMAL[m - 1][1]
        assert [i0.men_rank[m][w] for w in lst] == [i0_pre.men_rank[m][w] for w in lst]
        assert [i0_pre.women_rank[w][m] for w in lst] == [i0.women_rank[w][m] for w in lst]
    assert {frozenset(M) for M in enumerate_stable_matchings(i0_pre)} == set(
        map(frozenset, I0_ALL_MATCHINGS)
    )
    assert preprocess(i0_pre) is i0_pre  # the band is a fixed point


def test_preprocess_cuts_pairs_no_stable_matching_uses():
    # Man 2 and woman 2 are never matched.  Without them, (1,3),(3,1) would
    # be stable, although (2,1) blocks it in the input; the cut removes the
    # pairs below each agent's worst stable partner.
    inst = parse_instance("3 3\n3 1\n3 1\n1 3\n1 2 3\n\n3 1 2\n")
    pre = preprocess(inst)
    assert pre.orig_men == (0, 1, 3) and pre.orig_women == (0, 1, 3)
    assert pre.men_lists == ((), (1,), (2,))
    assert pre.women_lists == ((), (1,), (2,))
    # Kept pairs keep their ranks in the lists with men 2 and women 2 gone.
    assert pre.men_rank[1][1] == 2 and pre.women_rank[2][2] == 1
    for criterion in Criterion:
        matching = solve(pre, criterion)
        assert [(pre.orig_men[m], pre.orig_women[w]) for m, w in matching] == [(1, 1), (3, 3)]


def test_preprocess_keeps_exactly_the_input_stable_matchings():
    losing = 0
    for seed in range(300):
        rng = random.Random(seed)
        n_men, n_women = rng.randint(1, 6), rng.randint(1, 6)
        inst = generate_uniform(n_men, n_women, rng.choice((0.3, 0.5, 0.7, 1.0)), seed=seed)
        pre = preprocess(inst)
        if pre is inst:
            continue
        losing += 1
        mapped = {
            frozenset((pre.orig_men[m], pre.orig_women[w]) for m, w in M)
            for M in enumerate_stable_matchings(pre)
        }
        assert mapped == brute_force_all_stable_matchings(inst), seed
    assert losing > 200


def test_preprocess_removes_unmatched():
    # Two men chase one woman; one of them is never assigned.
    inst = parse_instance("2 1\n1\n1\n1 2\n")
    pre = preprocess(inst)
    assert pre.n_men == pre.n_women == 1
    assert pre.orig_men == (0, 1)
    assert pre.orig_women == (0, 1)


def test_preprocess_removes_man_with_emptied_list():
    inst = parse_instance("2 1\n1\n1\n1\n")  # man 2's entry is non-mutual
    pre = preprocess(inst)
    assert pre.n_men == pre.n_women == 1
    assert pre.orig_men == (0, 1)


def test_preprocess_reindexes_densely():
    # Three men, two women; man 2 only acceptable to nobody mutual.
    text = "3 2\n1\n\n2\n1 3\n3\n"
    pre = preprocess(parse_instance(text))
    assert pre.n_men == pre.n_women == 2
    assert pre.orig_men == (0, 1, 3)
    # Ranks are positions in the filtered lists.
    assert pre.men_rank[1][1] == 1


def _preprocess_inputs():
    for seed in range(600):
        rng = random.Random(seed)
        n_men, n_women = rng.sample(range(1, 13), 2)
        density = rng.choice((0.2, 0.4, 0.6, 0.8, 1.0))
        yield generate_uniform(n_men, n_women, density, seed=8800 + seed)
    for seed in (1, 2):
        yield Instance.from_lists(*sparse_lists(2_000, [15] * 2_000, seed))
    for lists in DESCENT_ENDS.values():
        yield Instance.from_lists(*lists)


def _band_inputs(i0):
    """The differential gate's inputs, unpreprocessed."""
    yield from _preprocess_inputs()
    yield from raw_cutoff_families(i0)
    for seed in range(40):
        n = (10, 30, 60, 100)[seed % 4]
        yield generate_uniform(n, n, (1.0, 0.5)[seed // 4 % 2], seed=9400 + seed)


def test_preprocess_equals_two_step_reference(i0):
    # The band built from the runs' slices equals the cut of every entry at
    # both agents' worst stable partners, and the two-step reduction:
    # lists, ranks, row kinds and index maps.
    reduced = 0
    for inst in _band_inputs(i0):
        pre = preprocess(inst)
        for expected in (two_step_preprocess(inst), _truncated_instance(inst, *stable_limits(inst))):
            assert (pre.men_lists, pre.women_lists) == (expected.men_lists, expected.women_lists)
            for rows, expected_rows in ((pre.men_rank, expected.men_rank), (pre.women_rank, expected.women_rank)):
                assert rows == expected_rows
                assert list(map(type, rows)) == list(map(type, expected_rows))
            assert (pre.orig_men, pre.orig_women) == (expected.orig_men, expected.orig_women)
        reduced += pre is not inst

        # What the cut rests on: no kept agent ranks a removed agent at or
        # above its worst stable partner (woman-optimal wife, man-optimal
        # husband), so ranks need no renumbering.
        kept_men, kept_women = set(pre.orig_men[1:]), set(pre.orig_women[1:])
        wife_z = DeferredAcceptance(inst.women_lists, inst.men_rank).recv_match
        husband_m = DeferredAcceptance(inst.men_lists, inst.women_rank).recv_match
        for lists, rank, worst, kept, kept_other in (
            (inst.men_lists, inst.men_rank, wife_z, kept_men, kept_women),
            (inst.women_lists, inst.women_rank, husband_m, kept_women, kept_men),
        ):
            for i in kept:
                limit = rank[i][worst[i]]
                assert all(rank[i][j] > limit for j in lists[i] if j not in kept_other)

        # The checks Instance.from_lists ran on the old reduction path.
        for lists, n_other in ((pre.men_lists, pre.n_women), (pre.women_lists, pre.n_men)):
            assert lists[0] == ()
            for lst in lists:
                assert len(set(lst)) == len(lst) and all(1 <= j <= n_other for j in lst)
        assert model._first_unreturned(pre) is None
    assert reduced == 1312  # all but the 26 Latin chains, each its own band


def _assert_same_instance(got, expected):
    """Equal lists, rank values, row kinds and index maps."""
    assert (got.men_lists, got.women_lists) == (expected.men_lists, expected.women_lists)
    for rows, expected_rows in ((got.men_rank, expected.men_rank), (got.women_rank, expected.women_rank)):
        assert rows == expected_rows
        assert list(map(type, rows)) == list(map(type, expected_rows))
    assert (got.orig_men, got.orig_women) == (expected.orig_men, expected.orig_women)


def _largest_rank(inst):
    return max(
        (rank[i][lst[-1]]
         for lists, rank in ((inst.men_lists, inst.men_rank), (inst.women_lists, inst.women_rank))
         for i, lst in enumerate(lists) if lst),
        default=0,
    )


def test_truncate_equals_the_full_scan_reference(i0):
    # The prefix cut equals the cut of every entry at the cutoff, on each
    # band and on each input up to n = 60 whose stable matchings are
    # perfect, at every cutoff from the minimum-regret degree to the
    # largest rank; below the degree it raises.  (The uncut inputs at
    # n = 80 and 100 would take 20 s more, for lists of the same kind.)
    bases = cutoffs = 0
    for inst in _band_inputs(i0):
        pre = preprocess(inst)
        degree = min_regret_degree(pre)
        if not degree:
            continue
        raw = inst.n_men <= 60 and man_optimal(inst).is_perfect(inst)
        for base in (pre, inst) if raw else (pre,):
            bases += 1
            for cutoff in range(degree, _largest_rank(base) + 1):
                limits = [cutoff] * (base.n_men + 1), [cutoff] * (base.n_women + 1)
                got = truncate(base, cutoff).instance
                _assert_same_instance(got, _truncated_instance(base, *limits))
                cutoffs += 1
            with pytest.raises(ValueError):
                truncate(base, degree - 1)
    assert (bases, cutoffs) == (1731, 7475)


def _answers(inst):
    """Every criterion's matching, or the cap error's type."""
    out = []
    for criterion in Criterion:
        try:
            out.append(solve(inst, criterion))
        except EnumerationCapError:
            out.append(EnumerationCapError)
    return out


def test_preprocess_keeps_every_answer_of_the_reference(i0):
    # Against the cut preprocess made before it cut every instance: the
    # same agents, every criterion's matching, the same rotations (their
    # ids may come out in another order) and, where n <= 8, the stable
    # matchings a brute force finds on the band.
    cut = reordered = brute_forced = 0
    for inst in _band_inputs(i0):
        pre, ref = preprocess(inst), reference_preprocess(inst)
        assert (pre.orig_men, pre.orig_women) == (ref.orig_men, ref.orig_women)
        assert _answers(pre) == _answers(ref)
        rotations, ref_rotations = find_rotations(pre), find_rotations(ref)
        assert {(r.cycle, r.profile) for r in rotations} == {
            (r.cycle, r.profile) for r in ref_rotations
        }
        reordered += [r.cycle for r in rotations] != [r.cycle for r in ref_rotations]
        cut += pre.acceptable_pairs < ref.acceptable_pairs
        if pre.n_men <= 8:
            assert brute_force_all_stable_matchings(pre) == {
                frozenset(M) for M in enumerate_stable_matchings(ref)
            }
            brute_forced += 1
    # 472 cut further than the reference, 78 reordered, 767 brute-forced.
    assert cut >= 400 and reordered >= 50 and brute_forced >= 700


def test_preprocess_counts_on_a_complete_n1000_instance():
    inst = generate_uniform(1000, 1000, 1.0, seed=7)
    pre = preprocess(inst)
    assert inst.acceptable_pairs == 1_000_000 and pre.acceptable_pairs == 19_619
    assert (pre.n_men, pre.n_women) == (1000, 1000)
    assert all(type(row) is dict for row in pre.men_rank + pre.women_rank)
    assert len(find_rotations(pre)) == 149


class _CountingRow(tuple):
    """A dense rank row that counts the entries read through it."""

    reads = 0

    def __getitem__(self, j):
        _CountingRow.reads += 1
        return tuple.__getitem__(self, j)


def _counted(inst):
    """The instance with each dense rank row wrapped in a :class:`_CountingRow`."""
    assert all(type(row) is tuple for row in inst.men_rank[1:] + inst.women_rank[1:])

    def counting(rows):
        return (rows[0], *map(_CountingRow, rows[1:]))

    return model.Instance(
        inst.men_lists, inst.women_lists, counting(inst.men_rank), counting(inst.women_rank),
        inst.orig_men, inst.orig_women,
    )


def test_preprocess_reads_a_fraction_of_the_rank_entries():
    # Two deferred-acceptance runs and one read per entry of the slices
    # between each man's optimal wives, plus a few per kept pair: no pass
    # over every entry.  A pass over one side's rows alone would read
    # 40,000 entries, twice the bound; 11,829 were read here.
    inst = generate_uniform(200, 200, 1.0, seed=1)
    counted = _counted(inst)
    _CountingRow.reads = 0
    pre = preprocess(counted)
    assert _CountingRow.reads < inst.total_list_length / 4
    assert pre == preprocess(inst)


def test_truncate_reads_only_the_prefixes():
    # Each man's kept women lie in the first d places of his list: about
    # two reads per place, not a pass over every entry of both sides.
    inst = generate_uniform(200, 200, 1.0, seed=1)
    degree = min_regret_degree(preprocess(inst))
    counted = _counted(inst)
    _CountingRow.reads = 0
    trunc = truncate(counted, degree).instance
    assert _CountingRow.reads < inst.total_list_length / 2
    assert trunc == truncate(inst, degree).instance


def test_profile_of_examples(i0_pre):
    # Mutual first choices on both sides.
    inst = Instance.from_lists([[1, 2], [2, 1]], [[1, 2], [2, 1]])
    both_first = Matching([(1, 1), (2, 2)])
    assert profile_of(inst, both_first) == Profile([4])
    assert profile_of(inst, Matching(())) == Profile.zero()

    m0 = Matching(I0_ALL_MATCHINGS[0])
    m1 = Matching(I0_ALL_MATCHINGS[1])
    rot0_profile = Profile([-2, 1, 1, 1, 0, -1])
    assert profile_of(i0_pre, m1) == profile_of(i0_pre, m0) + rot0_profile


def test_profile_of_rejects_unacceptable_pair():
    inst = Instance.from_lists([[1]], [[1]])
    with pytest.raises(ValueError):
        profile_of(inst, Matching([(1, 2)]))
    inst2 = Instance.from_lists([[1], []], [[1]])
    with pytest.raises(ValueError, match="not mutually acceptable"):
        profile_of(inst2, Matching([(2, 1)]))


def test_matching_rejects_reused_agents():
    with pytest.raises(ValueError):
        Matching([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        Matching([(1, 1), (2, 1)])


def test_matching_rejects_index_below_one():
    for pairs in ([(-1, 2), (1, 1)], [(1, -3)], [(0, 1)], [(1, 0)]):
        with pytest.raises(ValueError, match="index below 1"):
            Matching(pairs)


def test_matching_from_pairs_and_wife_arrays_agree():
    rng = random.Random(41)
    for trial in range(300):
        n = trial % 9
        women = rng.sample(range(1, n + 3), n)
        pairs = [(m, w) for m, w in enumerate(women, start=1) if rng.random() < 0.7]
        wife = [0] * (n + 1)
        for m, w in pairs:
            wife[m] = w
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        forms = [
            Matching(shuffled),
            Matching.from_wife_array(wife),
            Matching.from_wife_array(wife + [0] * rng.randrange(1, 4)),
        ]
        for matching in forms:
            assert matching.pairs == tuple(pairs)
            assert list(matching) == pairs
            assert len(matching) == len(pairs)
            assert matching == forms[0] and hash(matching) == hash(forms[0])
            assert repr(matching) == f"Matching({pairs!r})"
            assert matching.wife_array(n) == wife
            assert [matching.wife_of(m) for m in range(n + 2)] == [
                w or None for w in wife + [0]
            ]
        if pairs:
            assert forms[0] != Matching(pairs[1:])


def test_matching_profile_sums_to_two_n_when_perfect(i0_pre):
    for pairs in I0_ALL_MATCHINGS:
        p = profile_of(i0_pre, Matching(pairs))
        assert sum(p.elements) == 2 * i0_pre.n_men


def test_rotation_delta_profiles_have_bounded_abs_sum(i0_pre):
    for rot in find_rotations(i0_pre):
        assert sum(abs(e) for e in rot.profile) <= 2 * i0_pre.n_men


def test_format_parse_roundtrip(i0):
    assert parse_instance(format_instance(i0)) == i0
    tiny = parse_instance("1 1\n1\n1\n")
    assert format_instance(tiny) == "1 1\n1\n1\n"


def test_from_lists_rejects_non_mutual():
    with pytest.raises(ValueError, match="mutual"):
        Instance.from_lists([[1]], [[]])


def test_from_lists_checks_mutuality_from_both_sides():
    # Woman 1 lists man 1, who lists nobody.
    with pytest.raises(ValueError, match="woman 1 lists man 1 but not vice versa"):
        Instance.from_lists([[]], [[1]])
    with pytest.raises(ValueError, match="woman 2 lists man 1 but not vice versa"):
        Instance.from_lists([[1], [2]], [[1], [2, 1]])


def test_parse_non_canonical_tokens_equal_canonical_ones():
    canonical = parse_instance("2 2\n1 2\n2 1\n1 2\n2 1\n")
    assert parse_instance("2 2\n+1 02\n2 001\n1 +2\n02 1\n") == canonical


def test_instances_hash_consistently_with_equality(i0):
    dense = Instance.from_lists([[1]], [[1]])
    sparse = parse_instance(lists_text(*sparse_lists(40, [3] * 40, seed=5)))
    assert isinstance(dense.men_rank[1], tuple) and isinstance(sparse.men_rank[1], dict)
    for inst in (dense, sparse, i0):
        copy = parse_instance(format_instance(inst))
        assert copy == inst and hash(copy) == hash(inst)
    assert preprocess(sparse).n_men < sparse.n_men
    assert len({dense, sparse, i0, preprocess(sparse), Instance.from_lists([[1]], [[1]])}) == 4


def test_load_memory_grows_with_the_lists():
    # n = 3,000 with lists of 15: two dense (n+1)^2 rank tables alone
    # would take about 140 MiB.
    text = lists_text(*sparse_lists(3000, [15] * 3000, seed=91))
    tracemalloc.start()
    try:
        pre = preprocess(parse_instance(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pre.n_men > 2900
    assert peak < 24 * 2**20


def test_from_lists_shares_one_int_per_agent():
    # Indices above 256 are fresh objects per token unless shared.
    n = 300
    lists = [list(range(n, 0, -1)) for _ in range(n)]
    inst = parse_instance(format_instance(Instance.from_lists(lists, lists)))
    for lists_of_side in (inst.men_lists, inst.women_lists):
        first = {j: j for j in lists_of_side[1]}
        assert all(j is first[j] for lst in lists_of_side[1:] for j in lst)
    with pytest.raises(ValueError, match="out of range"):
        Instance.from_lists([[-1]], [[1]])
    with pytest.raises(ValueError, match="out of range"):
        Instance.from_lists([[2]], [[1]])


def test_non_canonical_tokens_share_one_int_per_agent():
    # '+300' misses the entry table, so its line takes the checked path,
    # which must hand back the same index objects as the table.
    n = 300
    lists = [list(range(n, 0, -1)) for _ in range(n)]
    inst = parse_instance(lists_text(lists, lists).replace("\n300 ", "\n+300 "))
    assert inst == Instance.from_lists(lists, lists)
    for lists_of_side, ids in ((inst.men_lists, inst.orig_women), (inst.women_lists, inst.orig_men)):
        assert all(j is ids[j] for lst in lists_of_side[1:] for j in lst)


@pytest.mark.parametrize("entry", [1.5, None])
def test_from_lists_rejects_non_integer_entry(entry):
    with pytest.raises(ParseError, match=f"^man 1: malformed integer {entry!r}$"):
        Instance.from_lists([[entry]], [[1]])


def test_matching_rejects_non_integer_index():
    with pytest.raises(ValueError, match="non-integer"):
        Matching([(1.9, 2.7)])


@st.composite
def near_valid_lists(draw):
    """Lists for n <= 6 whose entries may be out of range, repeated or one-sided."""
    n_men, n_women = draw(st.integers(0, 6)), draw(st.integers(0, 6))

    def lists(count, n_other):
        if draw(st.booleans()):
            entry = st.integers(-1, n_other + 2)
            return [draw(st.lists(entry, max_size=n_other + 1)) for _ in range(count)]
        perms = st.permutations(range(1, n_other + 1))
        return [draw(perms)[: draw(st.integers(0, n_other))] for _ in range(count)]

    return lists(n_men, n_women), lists(n_women, n_men)


@settings(max_examples=300, deadline=None)
@given(lists=near_valid_lists())
def test_from_lists_and_parse_instance_agree(lists):
    men, women = lists
    warnings = []
    try:
        parsed = parse_instance(lists_text(men, women), warnings)
    except ParseError as exc:
        with pytest.raises(ParseError) as built:
            Instance.from_lists(men, women)
        line, message = str(exc).split(": ", 1)
        k = int(line.removeprefix("line ")) - 1
        agent = f"man {k}" if k <= len(men) else f"woman {k - len(men)}"
        assert str(built.value) == f"{agent}: {message}"
        return
    if not warnings:
        assert Instance.from_lists(men, women) == parsed
        return
    # Text drops one-sided entries; lists refuse the first of them.
    with pytest.raises(ValueError, match="not mutual") as built:
        Instance.from_lists(men, women)
    assert str(built.value).split(": ", 1)[1] == warnings[0].removesuffix("; entry dropped")


def test_preprocess_idempotent():
    # The band is a fixed point that preprocess recognises, so it returns
    # the very instance, although band ranks are no longer list positions.
    for seed in range(8):
        inst = generate_uniform(6, 8, 0.5, seed=8600 + seed)
        pre = preprocess(inst)
        assert preprocess(pre) is pre
    for seed in range(8):
        pre = preprocess(generate_uniform(30, 30, 1.0, seed=8700 + seed))
        assert any(pre.men_rank[m][pre.men_lists[m][-1]] > len(pre.men_lists[m])
                   for m in range(1, 31))
        assert preprocess(pre) is pre


@given(st.text(alphabet="0123456789 -\n", max_size=60))
def test_parse_never_crashes(text):
    try:
        inst = parse_instance(text)
    except ParseError:
        return
    assert isinstance(inst, Instance)


def test_man_list_position(i0):
    assert i0.man_list_position(1, 5) == 0
    assert i0.man_list_position(1, 3) == 7
    # Ranks are positions in i0 and sparse in a truncation and in the
    # preprocessed instances with agents removed, where the slot at a
    # woman's rank can hold someone else.
    trunc = truncate(i0, min_regret_degree(i0)).instance
    reduced = [preprocess(generate_uniform(6, 8, 0.5, seed=8600 + s)) for s in range(8)]
    assert all(inst.n_men < 6 or inst.n_women < 8 for inst in reduced)
    sparse = 0
    for inst in [i0, trunc] + reduced:
        for m in range(1, inst.n_men + 1):
            lst = inst.men_lists[m]
            for w in lst:
                assert inst.man_list_position(m, w) == lst.index(w)
                sparse += inst.men_rank[m][w] != lst.index(w) + 1
    assert sparse >= 20
