"""Stable matchings: deferred acceptance, stability checks, regret, truncation.

Minimum regret is found by cutoff proposal rounds on the instance itself,
and the generous solve extracts rotations under that cutoff; only
:func:`truncate`, the checked public view, builds a truncated instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Instance, Matching, _truncated_instance, gs_propose


def man_optimal(inst: Instance) -> Matching:
    """Man-optimal stable matching (perfect on a preprocessed instance)."""
    wife = gs_propose(inst.men_lists, inst.women_rank, inst.n_men, inst.n_women)
    return Matching.from_wife_array(wife)


def woman_optimal(inst: Instance) -> Matching:
    """Woman-optimal stable matching (perfect on a preprocessed instance)."""
    husband = gs_propose(inst.women_lists, inst.men_rank, inst.n_women, inst.n_men)
    return Matching((m, w) for w, m in enumerate(husband) if w >= 1 and m)


def blocking_pair(inst: Instance, matching: Matching) -> Optional[tuple[int, int]]:
    """A mutually acceptable pair preferring each other to their assignments.

    Returns None when the matching is stable.  An unmatched agent prefers
    every acceptable partner.  Scanning each man's list up to (not
    including) his current partner covers all candidate pairs.
    """
    matching.validate_in(inst)
    husband = {w: m for m, w in matching}
    for m, w_cur in enumerate(matching.wife_array(inst.n_men)):
        for w in inst.men_lists[m]:
            if w == w_cur:
                break
            h = husband.get(w)
            if h is None or inst.women_rank[w][m] < inst.women_rank[w][h]:
                return (m, w)
    return None


def is_stable(inst: Instance, matching: Matching) -> bool:
    return blocking_pair(inst, matching) is None


@dataclass(frozen=True)
class TruncatedInstance:
    """An instance with every pair of rank > cutoff (either side) removed.  It keeps
    the base instance's ranks, so its profiles line up rank-for-rank with the base's."""

    instance: Instance


def truncate(inst: Instance, cutoff: int) -> TruncatedInstance:
    """Drop every entry ranked worse than ``cutoff`` on either side.

    Raises ValueError if the truncation destroys all perfect stable
    matchings, i.e. if ``cutoff`` is below the minimum-regret degree.
    """
    if cutoff < 1:
        raise ValueError("cutoff rank must be >= 1")
    trunc = _truncated_instance(inst, [cutoff] * (inst.n_men + 1), [cutoff] * (inst.n_women + 1))
    if not man_optimal(trunc).is_perfect(trunc):
        raise ValueError(f"truncating at rank {cutoff} leaves no perfect stable matching")
    return TruncatedInstance(trunc)


def min_regret(inst: Instance) -> tuple[int, Matching]:
    """The minimum-regret degree d and the man-optimal stable matching of degree d.

    d is the smallest rank such that truncating at d keeps a perfect stable
    matching; it equals the degree of every generous stable matching.
    Feasibility is monotone in d (any stable matching of degree <= d
    survives truncation at d, and a perfect stable matching of the
    truncation is stable in the full instance), so d is found by binary
    search, each probe one cutoff proposal round on ``inst`` itself.  No
    stable matching gives an agent a better partner than his or her optimal
    one, which bounds d from below; the man-optimal matching is stable,
    which bounds it from above.  The last feasible probe runs at d and
    yields the man-optimal matching among those of degree <= d (Gusfield,
    SIAM J. Comput. 1987).  The stable matchings of degree <= d form a
    sublattice, so this matching has the smallest rotation subset among
    them.  Requires a preprocessed instance.
    """
    n = inst.n_men
    if n == 0:
        return 0, Matching(())
    men_rank, women_rank = inst.men_rank, inst.women_rank
    best = gs_propose(inst.men_lists, women_rank, n, inst.n_women)
    if not all(best[1:]):
        raise ValueError("instance admits no perfect stable matching; preprocess first")
    husband = gs_propose(inst.women_lists, men_rank, inst.n_women, n)
    lo = max(
        max(men_rank[m][best[m]] for m in range(1, n + 1)),
        max(women_rank[w][m] for w, m in enumerate(husband) if w),
    )
    hi = max(lo, max(women_rank[best[m]][m] for m in range(1, n + 1)))
    while lo < hi:
        mid = (lo + hi) // 2
        wife = gs_propose(inst.men_lists, women_rank, n, inst.n_women, (mid, men_rank))
        if all(wife[1:]):
            hi, best = mid, wife
        else:
            lo = mid + 1
    return lo, Matching.from_wife_array(best)


def min_regret_degree(inst: Instance) -> int:
    """Smallest d such that truncating at rank d keeps a perfect stable matching."""
    return min_regret(inst)[0]
