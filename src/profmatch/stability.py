"""Stable matchings: deferred acceptance, stability checks, regret, truncation.

Every run here is one :class:`~profmatch.model.DeferredAcceptance`, which
runs when it is constructed.  On a preprocessed instance every list is its
band, from the agent's best to its worst stable partner, so either side's
run makes one proposal per agent.  Minimum regret is found by one
men-proposing run on the instance itself, resumed as the rank cutoff steps
down from the man-optimal matching's degree: O(m) proposals in all for the
m acceptable pairs of the band (:func:`_min_regret_run`).  It has two
callers: :func:`min_regret_degree`, which reads only the degree, and the
solvers' generous poset, whose man-optimal matching is the minimum-regret
answer.  With every list end cut at that degree (:func:`_cut_list_ends`),
the run is the run of the truncation at it, which the generous solve's
rotation walk continues.  Only :func:`truncate`, the checked public view,
builds a truncated instance: the model's one cut (``model._cut``), which
reads each man's list only up to the cutoff.  Like the descent, it
requires a preprocessed instance, and says so when handed one with no
perfect stable matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import DeferredAcceptance, Instance, Matching, _cut


_NOT_PERFECT = "instance admits no perfect stable matching; preprocess first"


def _man_optimal_run(inst: Instance) -> DeferredAcceptance:
    """The finished men-proposing run, at the man-optimal stable matching."""
    return DeferredAcceptance(inst.men_lists, inst.women_rank)


def man_optimal(inst: Instance) -> Matching:
    """Man-optimal stable matching (perfect on a preprocessed instance)."""
    return Matching.from_wife_array(_man_optimal_run(inst).prop_match)


def woman_optimal(inst: Instance) -> Matching:
    """Woman-optimal stable matching (perfect on a preprocessed instance)."""
    husband = DeferredAcceptance(inst.women_lists, inst.men_rank).prop_match
    return Matching((m, w) for w, m in enumerate(husband) if w >= 1 and m)


def blocking_pair(inst: Instance, matching: Matching) -> Optional[tuple[int, int]]:
    """A mutually acceptable pair preferring each other to their assignments.

    Returns None when the matching is stable; raises ValueError, as
    :meth:`Matching.validate_in` does, if it holds a pair that is not
    mutually acceptable.  An unmatched agent prefers every acceptable
    partner.  Scanning each man's list up to (not including) his current
    partner covers all candidate pairs, so the first blocking pair by man,
    then by his preference, is returned.  One pass over the wives fills a
    husband array, and one over the lists reads two ranks per entry
    scanned; a man who holds his first choice costs one comparison.
    """
    matching.validate_in(inst)
    wife = matching.wife_array(inst.n_men)
    husband = [0] * (inst.n_women + 1)
    for m, w in enumerate(wife):
        husband[w] = m  # slot 0, written by the unmatched men, is never read
    women_rank = inst.women_rank
    for m, (lst, w_cur) in enumerate(zip(inst.men_lists, wife)):
        for w in lst:
            if w == w_cur:
                break
            h = husband[w]
            if not h or women_rank[w][m] < women_rank[w][h]:
                return (m, w)
    return None


@dataclass(frozen=True)
class TruncatedInstance:
    """An instance with every pair of rank > cutoff (either side) removed.  It keeps
    the base instance's ranks, so its profiles line up rank-for-rank with the base's."""

    instance: Instance


def truncate(inst: Instance, cutoff: int) -> TruncatedInstance:
    """Drop every entry ranked worse than ``cutoff`` on either side.

    Requires a preprocessed instance, or one whose stable matchings are
    perfect.  Each man's kept women lie in his list's prefix up to
    ``cutoff``, so only the prefixes are read.  Raises ValueError if the
    truncation destroys all perfect stable matchings, i.e. if ``cutoff`` is
    below the minimum-regret degree, and with :func:`min_regret_degree`'s
    message if the instance has none to begin with.
    """
    if cutoff < 1:
        raise ValueError("cutoff rank must be >= 1")
    men, women = [cutoff] * (inst.n_men + 1), [cutoff] * (inst.n_women + 1)
    trunc = _cut(inst, [0] * (inst.n_men + 1), men, women)
    if not man_optimal(trunc).is_perfect(trunc):
        if not man_optimal(inst).is_perfect(inst):
            raise ValueError(_NOT_PERFECT)
        raise ValueError(f"truncating at rank {cutoff} leaves no perfect stable matching")
    return TruncatedInstance(trunc)


def _min_regret_run(inst: Instance, run: DeferredAcceptance) -> tuple[int, DeferredAcceptance]:
    """The minimum-regret degree d and the men-proposing run left at the
    man-optimal matching of the truncation at d, which the caller may resume.

    One men-proposing run finds d, resumed at each cutoff and never
    restarted (Gusfield, SIAM J. Comput. 1987).  ``run`` is that run,
    finished at the man-optimal matching, whose degree bounds d from above;
    it is resumed in place.  From then on the state holds the man-optimal
    matching of the truncation at the last feasible cutoff c, and the
    cutoff steps down to c - 1:

    * If the worst-off man ranks his wife c, c - 1 is infeasible: a perfect
      stable matching of a truncation is stable in every looser one, so it
      gives no man a better wife than the state does.
    * Otherwise every woman holding a man she ranks c drops him, and the
      freed men propose on from where they stopped.  Every earlier
      rejection stays justified, since a woman only drops men she ranks
      worse than the cutoff, so the run ends at the man-optimal matching of
      the truncation at c - 1, or shows that it has no perfect stable
      matching.  Then the step is undone: the men it moved get back their
      wives and list positions, and those wives the ranks they held, which
      leaves the matching as it was before the step.

    No list pointer moves back but in that undo, so the whole descent makes
    at most one proposal per acceptable pair, O(m).  Women to drop are kept
    in buckets by the rank they hold, so a step costs time in proportion to
    the men it moves, plus one copy of the wife array; an undone step looks
    up the list position of each wife it gives back.
    Only freed men have their list ends cut (the generous poset cuts the
    rest before it walks), and no end is cut below d: an undone step
    restores them.
    """
    n = inst.n_men
    men_lists, men_rank, women_rank = inst.men_lists, inst.men_rank, inst.women_rank
    wife, husband, held, next_pos, end = (
        run.prop_match, run.recv_match, run.held, run.next_pos, run.end
    )
    if inst.n_women != n or not all(wife[1:]):
        raise ValueError(_NOT_PERFECT)
    if n == 0:
        return 0, run
    worst = max(men_rank[m][wife[m]] for m in range(1, n + 1))
    degree = max(worst, max(held[w] for w in wife[1:]))
    # Women by the rank they hold; an entry is stale once her rank drops.
    by_held: list[list[int]] = [[] for _ in range(degree + 1)]
    for w in wife[1:]:
        by_held[held[w]].append(w)
    while worst < degree:
        cutoff = degree - 1
        before = wife[:]
        freed = []
        for w in by_held[degree]:
            m = husband[w]
            if m and held[w] == degree:
                # Her held rank stays cutoff + 1: a free woman's imaginary man.
                husband[w] = wife[m] = 0
                freed.append(m)
        if freed:
            # Only freed men have their list ends cut to the cutoff.  In a
            # feasible step no man proposes past his wife in the truncation's
            # man-optimal matching, so no end binds; in an infeasible one a
            # man runs out or is accepted past the cutoff, caught here.
            _cut_list_ends(inst, end, freed, cutoff)
            moved = run.propose(freed)
            feasible = all(wife[1:])
            if feasible:
                for m in moved:
                    w = wife[m]
                    rank = men_rank[m][w]
                    if rank > worst:
                        worst = rank
                    by_held[held[w]].append(w)
                feasible = worst <= cutoff
            if not feasible:
                # Every woman was matched before the step, so each one the
                # step touched lost a man it moved: restoring those men's
                # wives restores every woman it touched.
                for m in moved:
                    w = before[m]
                    wife[m], husband[w], held[w] = w, m, women_rank[w][m]
                    next_pos[m] = inst.man_list_position(m, w) + 1
                    end[m] = len(men_lists[m])
                return degree, run
        degree = cutoff
    return degree, run


def _cut_list_ends(inst: Instance, end: list[int], men, cutoff: int) -> None:
    """Move each man's list end back over the women he ranks worse than
    ``cutoff``; his wife, or the one he just lost, is ranked within it."""
    men_lists, men_rank = inst.men_lists, inst.men_rank
    for m in men:
        # Ranks rise by at least one per place, so no place from ``cutoff``
        # on is within it; step back over the rest.
        lst, row, e = men_lists[m], men_rank[m], end[m]
        if e > cutoff:
            e = cutoff
        while row[lst[e - 1]] > cutoff:
            e -= 1
        end[m] = e


def min_regret_degree(inst: Instance) -> int:
    """Smallest d such that truncating at rank d keeps a perfect stable matching.

    It equals the degree of every generous stable matching.  Requires a
    preprocessed instance.
    """
    return _min_regret_run(inst, _man_optimal_run(inst))[0]
