"""Experiment measures, storage-size estimates, and instance generators."""

from __future__ import annotations

import csv
import functools
import io
import random
from dataclasses import dataclass

from .model import Instance, Matching, _by_position, preprocess
from .profiles import Profile
from .solvers import Criterion, DEFAULT_ENUMERATION_CAP, EnumerationCapError, _Lattice


@dataclass(frozen=True)
class MatchingStats:
    """Per-matching measures over a perfect stable matching."""

    cost: int
    man_cost: int
    woman_cost: int
    sex_equal: int
    degree: int
    man_degree: int
    woman_degree: int
    first_choices: int
    last_pct_counts: dict[int, int]


def last_choice_threshold(n: int, pct: int) -> int:
    """First rank counted as lying in the worst pct% of a length-n list.

    b = floor((100 - pct) * n / 100) + 1; agents with partner rank >= b are
    counted.  Reduces to the exact formula whenever (100 - pct) * n is a
    multiple of 100.
    """
    if not 0 < pct <= 100:
        raise ValueError("percentage must be in (0, 100]")
    return (100 - pct) * n // 100 + 1


def matching_stats(inst: Instance, matching: Matching, pct_list=(10, 20, 50)) -> MatchingStats:
    """Measures for a perfect matching on a preprocessed instance; raises
    ValueError on any other, or on a pair that is not mutually acceptable."""
    if not matching.is_perfect(inst):
        raise ValueError("stats are defined for perfect matchings only")
    matching.validate_in(inst)
    n = inst.n_men
    man_ranks = [inst.men_rank[m][w] for m, w in matching]
    woman_ranks = [inst.women_rank[w][m] for m, w in matching]
    man_cost = sum(man_ranks)
    woman_cost = sum(woman_ranks)
    all_ranks = man_ranks + woman_ranks
    first = sum(1 for r in all_ranks if r == 1)
    last_counts = {}
    for pct in pct_list:
        b = last_choice_threshold(n, pct)
        last_counts[pct] = sum(1 for r in all_ranks if r >= b)
    return MatchingStats(
        cost=man_cost + woman_cost,
        man_cost=man_cost,
        woman_cost=woman_cost,
        sex_equal=abs(man_cost - woman_cost),
        degree=max(all_ranks, default=0),
        man_degree=max(man_ranks, default=0),
        woman_degree=max(woman_ranks, default=0),
        first_choices=first,
        last_pct_counts=last_counts,
    )


@dataclass(frozen=True)
class SpaceReport:
    """Bit counts for storing per-rotation edge weights two ways.

    The exponential side stores each weight w_e = |sum p_i * d_t^(d_t-i)| in
    ceil(log2 w_e) bits plus one 32-bit length word.  The vector side stores
    each profile compressed as its z nonzero (index, value) pairs --
    z*ceil(log2 n) index bits plus z*(ceil(log2 2n)+1) value bits -- plus a
    32-bit word for z, and two global 32-bit words for the whole network.
    """

    n: int
    max_degree: int
    exponential_bits: tuple[int, ...]
    vector_bits: tuple[int, ...]
    exponential_total: int
    vector_total: int


def _ceil_log2(value: int) -> int:
    return (value - 1).bit_length() if value >= 1 else 0


def space_report(rotation_profiles: list[Profile], n: int) -> SpaceReport:
    """Estimate storage for the terminal-edge weights of a rotation network."""
    d_t = max((p.degree for p in rotation_profiles), default=0)
    exp_bits: list[int] = []
    vec_bits: list[int] = []
    # Profiles repeat (analytic families share one vector), and so do the
    # ranks they touch: each weight and each power of d_t, which can run to
    # megabits, is computed once.
    cache: dict[Profile, tuple[int, int]] = {}
    power = functools.cache(lambda i: d_t ** (d_t - i))
    idx_bits = _ceil_log2(n)
    val_bits = _ceil_log2(2 * n) + 1
    for p in rotation_profiles:
        if d_t == 0:
            exp_bits.append(32)
            vec_bits.append(32)
            continue
        cached = cache.get(p)
        if cached is None:
            w_e = abs(sum(e * power(i) for i, e in p.pairs))
            eb = (1 if w_e == 0 else _ceil_log2(w_e)) + 32
            z = len(p.pairs)
            cached = (eb, 32 + z * idx_bits + z * val_bits)
            cache[p] = cached
        exp_bits.append(cached[0])
        vec_bits.append(cached[1])
    return SpaceReport(
        n=n,
        max_degree=d_t,
        exponential_bits=tuple(exp_bits),
        vector_bits=tuple(vec_bits),
        exponential_total=sum(exp_bits),
        vector_total=sum(vec_bits) + 64,
    )


def generate_uniform(
    n_men: int, n_women: int, density: float, seed: int
) -> Instance:
    """Random instance with mutually acceptable pairs and shuffled lists.

    The acceptable-pair set is sampled first (each pair kept with
    probability ``density``), then each agent's list is an independent
    shuffle of their acceptable partners.  Deterministic for a fixed seed.
    The lists are mutual and duplicate-free by construction, and hold one
    int object per agent, so they are not validated again.
    """
    if n_men < 0 or n_women < 0:
        raise ValueError("agent counts must be non-negative")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = random.Random(seed)
    men_ids, women_ids = tuple(range(n_men + 1)), tuple(range(n_women + 1))
    men_sets: list[list[int]] = [[] for _ in range(n_men + 1)]
    women_sets: list[list[int]] = [[] for _ in range(n_women + 1)]
    complete = density >= 1
    for m in men_ids[1:]:
        for w in women_ids[1:]:
            if complete or rng.random() < density:
                men_sets[m].append(w)
                women_sets[w].append(m)
    _shuffle_all(rng, men_sets)
    _shuffle_all(rng, women_sets)
    return _by_position(
        [tuple(lst) for lst in men_sets], [tuple(lst) for lst in women_sets], men_ids, women_ids
    )


def _shuffle_all(rng: random.Random, lists: list[list[int]]) -> None:
    """``rng.shuffle`` each list in turn, in place, with the same draws.

    This is CPython's own shuffle: a Fisher-Yates pass whose index below
    i + 1 is drawn by rejection from ``getrandbits`` over
    ``(i + 1).bit_length()`` bits.  Inlined, it skips two method calls per
    draw, so the lists and the generator's state after are those of
    ``random.shuffle``, in about half its time.
    """
    getrandbits = rng.getrandbits
    for lst in lists:
        for i in range(len(lst) - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            lst[i], lst[j] = lst[j], lst[i]


def generate_I1(n: int) -> Instance:
    """Paired-block worst-case family of even size n >= 4.

    Man 2i-1 ranks woman 2i-1 first and woman 2i last (everyone else in
    ascending order between), and symmetrically for man 2i; woman 2i-1
    ranks man 2i then man 2i-1 ahead of everyone else, and symmetrically
    for woman 2i.  Each block contributes one rotation whose profile is
    <0, -2, 0, ..., 0, +2> with the +2 at rank n.
    """
    if n < 4 or n % 2:
        raise ValueError("the paired-block family needs an even size of at least 4")
    ids = tuple(range(n + 1))
    men_lists: list[tuple[int, ...]] = [()]
    women_lists: list[tuple[int, ...]] = [()]
    for i in ids[1:]:
        mate = ids[i + 1 if i % 2 else i - 1]
        others = tuple(j for j in ids[1:] if j != i and j != mate)
        men_lists.append((i, *others, mate))
        women_lists.append((mate, i, *others))
    return _by_position(men_lists, women_lists, ids, ids)


def i1_rotation_profiles(n: int) -> list[Profile]:
    """The n/2 rotation profiles of generate_I1(n), without extracting them."""
    if n < 4 or n % 2:
        raise ValueError("the paired-block family needs an even size of at least 4")
    template = Profile([0, -2] + [0] * (n - 3) + [2])
    return [template] * (n // 2)


def batch_stats(
    instances: list[tuple[str, Instance]],
    criteria: list[Criterion],
    pct_list=(10, 20, 50),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> str:
    """CSV with one row per (instance, criterion).

    Instances are preprocessed here, and each one's rows read one
    :class:`solvers._Lattice`: its full rotation poset, its walk over
    closed subsets (the count column) and, once a generous or min-regret
    row reads it, its generous poset are built once and shared by every
    criterion.  When the stable-matching count exceeds ``cap``, the count
    column and the rows of the criteria that need the walk (sex-equal,
    median) are marked TIMEOUT instead of failing the whole batch; the
    other criteria are still solved.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = [
        "instance_id",
        "criterion",
        "n",
        "m",
        "num_rotations",
        "num_stable",
        "cost",
        "man_cost",
        "woman_cost",
        "sex_equal",
        "degree",
        "first_choices",
    ] + [f"last{p}" for p in pct_list]
    writer.writerow(header)
    for instance_id, raw in instances:
        inst = preprocess(raw)
        lattice = _Lattice(inst, cap)
        walk = lattice.walk
        num_stable = "TIMEOUT" if walk is None else len(walk[0])
        for criterion in criteria:
            row = [instance_id, criterion.value, inst.n_men, inst.total_list_length,
                   len(lattice.full.rotations), num_stable]
            try:
                matching = lattice.solve(criterion)
            except EnumerationCapError:
                row += ["TIMEOUT"] * (6 + len(pct_list))
            else:
                stats = matching_stats(inst, matching, pct_list)
                row += [
                    stats.cost,
                    stats.man_cost,
                    stats.woman_cost,
                    stats.sex_equal,
                    stats.degree,
                    stats.first_choices,
                ] + [stats.last_pct_counts[p] for p in pct_list]
            writer.writerow(row)
    return out.getvalue()
