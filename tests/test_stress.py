"""Medium-size and structured-family stress checks (still fast)."""

from profmatch import (
    Criterion,
    blocking_pair,
    enumerate_stable_matchings,
    generate_I1,
    generate_uniform,
    matching_degree,
    min_regret_degree,
    preprocess,
    profile_of,
    solve,
)


def _reverse(profile, n):
    return tuple(reversed(profile.padded(n)))


def test_medium_instances_agree_with_enumeration():
    for seed in (1, 2, 3):
        inst = preprocess(generate_uniform(20, 20, 1.0, seed=80_000 + seed))
        n = inst.n_men
        profiles = [profile_of(inst, M) for M in enumerate_stable_matchings(inst)]
        rank_max = solve(inst, Criterion.RANK_MAXIMAL)
        assert profile_of(inst, rank_max) == max(profiles)
        assert blocking_pair(inst, rank_max) is None
        generous = solve(inst, Criterion.GENEROUS)
        assert _reverse(profile_of(inst, generous), n) == min(
            _reverse(p, n) for p in profiles
        )
        assert matching_degree(inst, generous) == min_regret_degree(inst)


def test_paired_block_family_by_size():
    # 2^(n/2) stable matchings; rank-maximal keeps all men on their first
    # choice, generous settles everyone at rank <= 2.
    for n in (4, 6, 8, 10, 12):
        inst = preprocess(generate_I1(n))
        rank_max = solve(inst, Criterion.RANK_MAXIMAL)
        assert profile_of(inst, rank_max).elements[0] == n
        generous = solve(inst, Criterion.GENEROUS)
        assert matching_degree(inst, generous) == 2
        count = len(enumerate_stable_matchings(inst))
        assert count == 2 ** (n // 2)


def test_incomplete_medium_instances():
    for seed in (4, 5, 6):
        inst = preprocess(generate_uniform(15, 15, 0.4, seed=81_000 + seed))
        if inst.n_men == 0:
            continue
        n = inst.n_men
        profiles = [profile_of(inst, M) for M in enumerate_stable_matchings(inst)]
        assert profile_of(inst, solve(inst, Criterion.RANK_MAXIMAL)) == max(profiles)
        generous = solve(inst, Criterion.GENEROUS)
        assert _reverse(profile_of(inst, generous), n) == min(
            _reverse(p, n) for p in profiles
        )
