import random

import pytest

from profmatch import (
    Criterion,
    Instance,
    Matching,
    Profile,
    batch_stats,
    enumerate_stable_matchings,
    find_rotations,
    format_instance,
    generate_I1,
    generate_uniform,
    i1_rotation_profiles,
    last_choice_threshold,
    man_optimal,
    matching_stats,
    preprocess,
    profile_of,
    solve,
    space_report,
)

from profmatch.analytics import _shuffle_all

from helpers import I0_RANK_MAXIMAL, count_calls, tiny_unique_instance, uniform_lists


def test_last_choice_threshold():
    assert last_choice_threshold(200, 50) == 101
    assert last_choice_threshold(2, 50) == 2
    assert last_choice_threshold(10, 100) == 1
    assert last_choice_threshold(7, 30) == 5  # floor((70*7)/100)+1
    with pytest.raises(ValueError):
        last_choice_threshold(10, 0)
    with pytest.raises(ValueError):
        last_choice_threshold(10, 101)


def test_stats_tiny_all_first():
    inst = preprocess(tiny_unique_instance())
    stats = matching_stats(inst, man_optimal(inst), (50,))
    assert stats.cost == 4
    assert stats.sex_equal == 0
    assert stats.degree == 1
    assert stats.first_choices == 4
    assert stats.last_pct_counts[50] == 0


def test_stats_i0_rank_maximal(i0_pre):
    matching = Matching(I0_RANK_MAXIMAL)
    stats = matching_stats(i0_pre, matching, (10, 20, 50))
    man_cost = sum(i0_pre.men_rank[m][w] for m, w in matching)
    woman_cost = sum(i0_pre.women_rank[w][m] for m, w in matching)
    assert stats.man_cost == man_cost == 35
    assert stats.woman_cost == woman_cost == 15
    assert stats.cost == 50
    assert stats.degree == 8
    assert stats.first_choices == dict(profile_of(i0_pre, matching).pairs).get(1, 0)
    assert stats.cost == stats.man_cost + stats.woman_cost
    assert stats.degree == max(stats.man_degree, stats.woman_degree)


def test_stats_require_perfect_matching(i0_pre):
    with pytest.raises(ValueError, match="perfect"):
        matching_stats(i0_pre, Matching([(1, 5)]))


def test_last_counts_antitone_in_percentage():
    for seed in range(8):
        inst = preprocess(generate_uniform(7, 7, 1.0, seed=6000 + seed))
        stats = matching_stats(inst, man_optimal(inst), (10, 20, 50, 100))
        counts = [stats.last_pct_counts[p] for p in (10, 20, 50, 100)]
        assert counts == sorted(counts)
        assert counts[-1] == 2 * inst.n_men  # the 100% window covers everyone


def test_space_report_i0_rotation(i0_pre):
    rotations = find_rotations(i0_pre)
    profiles = [rot.profile for rot in rotations]
    report = space_report(profiles, 8)
    assert report.max_degree == 8
    idx = profiles.index(Profile([0, 0, 1, -1]))
    # 8^5 - 8^4 = 28672 needs 15 bits plus the 32-bit length word.
    assert report.exponential_bits[idx] == 15 + 32
    # two nonzeros: 32 + 2*ceil(log2 8) + 2*(ceil(log2 16) + 1)
    assert report.vector_bits[idx] == 32 + 2 * 3 + 2 * 5
    assert report.exponential_total == sum(report.exponential_bits)
    assert report.vector_total == sum(report.vector_bits) + 64


def test_space_report_zero_profile_and_zero_degree():
    report = space_report([Profile.zero(), Profile([0, 1])], 8)
    assert report.exponential_bits[0] == 33  # w_e = 0 stores 1 bit + length word
    assert report.vector_bits[0] == 32
    all_zero = space_report([Profile.zero(), Profile.zero()], 8)
    assert all_zero.max_degree == 0
    assert all_zero.exponential_bits == (32, 32)
    assert all_zero.vector_bits == (32, 32)
    empty = space_report([], 8)
    assert empty.exponential_total == 0 and empty.vector_total == 64


def test_vector_bits_invariant_under_position_permutation():
    a = Profile([0, 3, 0, -1])
    b = Profile([3, 0, 0, -1])
    report = space_report([a, b], 8)
    assert report.vector_bits[0] == report.vector_bits[1]
    assert report.exponential_bits[0] != report.exponential_bits[1]


def test_i1_analytic_profiles_match_extraction():
    for n in (4, 6, 8):
        inst = preprocess(generate_I1(n))
        extracted = sorted(
            (rot.profile.elements for rot in find_rotations(inst))
        )
        analytic = sorted(p.elements for p in i1_rotation_profiles(n))
        assert extracted == analytic


def test_i1_analytic_profiles_at_scale():
    profiles = i1_rotation_profiles(100_000)
    assert len(profiles) == 50_000
    rep = profiles[0]
    assert all(p is rep for p in profiles)  # one shared template vector
    assert rep.degree == 100_000
    assert sum(1 for e in rep.elements if e) == 2
    assert rep.pairs == ((2, -2), (100_000, 2))


def test_i1_space_claims_at_scale():
    n = 100_000
    report = space_report(i1_rotation_profiles(n), n)
    assert report.exponential_total > 8 * 10**10  # over 10 GB
    assert report.vector_total < 6 * 10**6  # under 0.75 MB


def test_i1_generator_validation():
    with pytest.raises(ValueError):
        generate_I1(5)
    with pytest.raises(ValueError):
        generate_I1(2)


def test_i1_shape():
    inst = generate_I1(6)
    assert inst.men_lists[1] == (1, 3, 4, 5, 6, 2)
    assert inst.men_lists[2] == (2, 3, 4, 5, 6, 1)
    assert inst.women_lists[1] == (2, 1, 3, 4, 5, 6)
    assert inst.women_lists[2] == (1, 2, 3, 4, 5, 6)


def test_generate_uniform_deterministic():
    a = generate_uniform(8, 8, 0.5, seed=42)
    b = generate_uniform(8, 8, 0.5, seed=42)
    assert format_instance(a) == format_instance(b)
    c = generate_uniform(8, 8, 0.5, seed=43)
    assert format_instance(a) != format_instance(c)


def test_generate_uniform_complete():
    inst = generate_uniform(8, 8, 1.0, seed=7)
    assert all(len(inst.men_lists[m]) == 8 for m in range(1, 9))
    assert all(len(inst.women_lists[w]) == 8 for w in range(1, 9))


def test_generate_uniform_validation():
    with pytest.raises(ValueError):
        generate_uniform(4, 4, 0.0, seed=1)
    with pytest.raises(ValueError):
        generate_uniform(4, 4, 1.5, seed=1)
    with pytest.raises(ValueError):
        generate_uniform(-1, 4, 1.0, seed=1)


def test_generators_build_what_from_lists_builds():
    # The generators skip from_lists' validation.  On the lists of an
    # independent copy of generate_uniform's draws, and on generate_I1's own
    # lists, from_lists builds an equal instance, with the same hash and the
    # same kind of rank row for every agent, dict and tuple both.
    cases = []
    for seed in range(12):
        n_men, n_women = 5 + seed, (5 + seed, 300)[seed % 2]
        density = (1.0, 0.5, 0.1)[seed % 3]
        expected = Instance.from_lists(*uniform_lists(n_men, n_women, density, 9100 + seed))
        cases.append((generate_uniform(n_men, n_women, density, seed=9100 + seed), expected))
    for n in (4, 10, 300):
        inst = generate_I1(n)
        cases.append((inst, Instance.from_lists(inst.men_lists[1:], inst.women_lists[1:])))
    kinds = set()
    for inst, expected in cases:
        assert inst == expected and hash(inst) == hash(expected)
        for rows, expected_rows in (
            (inst.men_rank, expected.men_rank),
            (inst.women_rank, expected.women_rank),
        ):
            assert list(map(type, rows)) == list(map(type, expected_rows))
            kinds.update(map(type, rows[1:]))
        # One int object per agent, as from_lists shares them.
        for lists, ids in ((inst.men_lists, inst.orig_women), (inst.women_lists, inst.orig_men)):
            assert all(j is ids[j] for lst in lists for j in lst)
    assert kinds == {dict, tuple}


def test_shuffle_loop_draws_as_random_shuffle():
    # The same lists as random.shuffle, and the generator left in the same
    # state: the next draw agrees.  Lengths 0, 1 and 2 draw nothing, nothing
    # and one bit; lengths just past a power of two reject most often.
    lengths = [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 65, 100, 129, 1000, 1025]
    for seed in range(300):
        rng = random.Random(seed)
        lists = [list(range(k)) for k in lengths] + [
            list(range(rng.randrange(50))) for _ in range(5)
        ]
        expected = [lst[:] for lst in lists]
        ours, theirs = random.Random(seed + 10_000), random.Random(seed + 10_000)
        _shuffle_all(ours, lists)
        for lst in expected:
            theirs.shuffle(lst)
        assert lists == expected
        assert ours.random() == theirs.random()


def test_generate_uniform_sparse_is_valid_instance():
    # The generator builds mutual lists without validating them again.
    inst = generate_uniform(8, 8, 0.5, seed=99)
    assert isinstance(inst, Instance)
    for m in range(1, 9):
        for w in inst.men_lists[m]:
            assert m in inst.women_lists[w]


def test_batch_stats_empty():
    text = batch_stats([], [Criterion.RANK_MAXIMAL])
    lines = text.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("instance_id,criterion,n,m,num_rotations,num_stable,")
    assert lines[0].endswith("last10,last20,last50")


def test_batch_stats_i0_all_criteria(i0):
    text = batch_stats([("i0", i0)], list(Criterion))
    lines = text.strip().split("\n")
    assert len(lines) == 1 + len(Criterion)
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "i0"
        assert cells[2] == "8"  # n
        assert cells[3] == "44"  # m, the band's list length (128 in I0's lists)
        assert cells[4] == "5"  # rotations
        assert cells[5] == "8"  # stable matchings
    rm_row = next(l for l in lines if ",rank-maximal," in l)
    assert rm_row.split(",")[6] == "50"  # cost of the rank-maximal matching


def test_batch_stats_timeout_marking(i0):
    criteria = [
        Criterion.RANK_MAXIMAL,
        Criterion.EGALITARIAN,
        Criterion.SEX_EQUAL,
        Criterion.MEDIAN,
        Criterion.MIN_REGRET,
    ]
    text = batch_stats([("i0", i0)], criteria, cap=4)
    lines = text.strip().split("\n")
    rows = {criterion: next(l for l in lines if f",{criterion.value}," in l).split(",")
            for criterion in criteria}
    assert rows[Criterion.RANK_MAXIMAL][5] == "TIMEOUT"
    assert rows[Criterion.RANK_MAXIMAL][6] == "50"
    for criterion in (Criterion.SEX_EQUAL, Criterion.MEDIAN):
        assert rows[criterion][5] == "TIMEOUT" and rows[criterion][6] == "TIMEOUT"
    # Egalitarian is a closure over the rotation poset, solved under the cap.
    assert rows[Criterion.EGALITARIAN][5] == "TIMEOUT"
    assert rows[Criterion.EGALITARIAN][6] == "49"  # the least cost over I0's matchings
    mr_row = rows[Criterion.MIN_REGRET]
    assert mr_row[5] == "TIMEOUT" and mr_row[10] == "6"  # degree, without enumeration


def _rows_from_solve(instance_id, raw):
    inst = preprocess(raw)
    head = [instance_id, None, inst.n_men, inst.total_list_length,
            len(find_rotations(inst)), len(enumerate_stable_matchings(inst))]
    rows = []
    for criterion in Criterion:
        stats = matching_stats(inst, solve(inst, criterion))
        head[1] = criterion.value
        rows.append(",".join(str(x) for x in head + [
            stats.cost, stats.man_cost, stats.woman_cost, stats.sex_equal, stats.degree,
            stats.first_choices, stats.last_pct_counts[10], stats.last_pct_counts[20],
            stats.last_pct_counts[50],
        ]))
    return rows


def test_batch_stats_enumerates_once_and_matches_solve(i0, monkeypatch):
    # Each instance's stable matchings are walked once, over a full poset
    # built once, and the generous poset is built once beside it; every row
    # equals what ``solve`` gives on its own.
    named = [("i0", i0)] + [
        (f"u{seed}", generate_uniform(8, 8, density, seed=seed))
        for seed, density in ((7100, 1.0), (7101, 0.7), (7102, 0.4))
    ]
    expected = {instance_id: _rows_from_solve(instance_id, raw) for instance_id, raw in named}
    counts = count_calls(monkeypatch)
    for instance_id, raw in named:
        counts.clear()
        lines = batch_stats([(instance_id, raw)], list(Criterion)).strip().split("\n")
        assert counts["_closed_subsets"] == 1
        assert counts["_rotations_from"] == counts["build_digraph"] == 2
        assert counts["_min_regret_run"] == 1
        assert lines[1:] == expected[instance_id]


def test_mean_stable_matchings_order_of_magnitude_at_n10():
    # Rough scale check against the expected n*log(n)-ish growth.
    total = 0
    runs = 60
    for seed in range(runs):
        inst = preprocess(generate_uniform(10, 10, 1.0, seed=7000 + seed))
        total += len(enumerate_stable_matchings(inst))
    mean = total / runs
    assert 2 <= mean <= 30


def test_stats_cost_identity_on_enumerated(i0_pre):
    for matching in enumerate_stable_matchings(i0_pre):
        stats = matching_stats(i0_pre, matching)
        profile = profile_of(i0_pre, matching)
        assert stats.first_choices == dict(profile.pairs).get(1, 0)
        assert stats.degree == profile.degree
        assert stats.cost == sum(k * c for k, c in enumerate(profile.elements, start=1))
