"""Checks of the program's outputs, computed apart from the program.

Everything here works on the generator's own lists in original agent
labels and shares no code with ``profmatch``.  A returned matching is
checked for validity, for covering exactly the agents that every stable
matching covers (found by this module's own deferred acceptance), and for
blocking pairs against the original, unpreprocessed lists.  Its criterion
value is then compared with a target: a fold over a list of stable
matchings (:func:`fold_targets`) or the closed forms of the cyclic Latin
square (:func:`latin_targets`).

Profiles and costs use the ranks the program reports: positions in the
lists after every agent that no stable matching assigns is removed.
"""

from __future__ import annotations

from math import ceil

CRITERIA = ("rank-maximal", "generous", "egalitarian", "sex-equal", "median", "min-regret")
NOT_COVERED = "matched agents differ from those every stable matching covers"


def _rank_maps(lists):
    return [{x: r for r, x in enumerate(lst, start=1)} for lst in lists]


def deferred_acceptance(men, woman_rank) -> list[int]:
    """Man-proposing deferred acceptance: man -> woman (0 = unmatched)."""
    wife = [0] * len(men)
    husband = {}
    nxt = [0] * len(men)
    free = list(range(len(men) - 1, 0, -1))
    while free:
        m = free.pop()
        while nxt[m] < len(men[m]):
            w = men[m][nxt[m]]
            nxt[m] += 1
            h = husband.get(w)
            if h is None or woman_rank[w][m] < woman_rank[w][h]:
                husband[w] = m
                wife[m] = w
                if h is not None:
                    wife[h] = 0
                    free.append(h)
                break
    return wife


class Reference:
    """One generated instance as the checks see it."""

    def __init__(self, men, women):
        self.men = men
        self.woman_rank = _rank_maps(women)
        wife = deferred_acceptance(men, self.woman_rank)
        self.matched_men = frozenset(m for m in range(1, len(men)) if wife[m])
        self.matched_women = frozenset(w for w in wife if w)
        # Every stable matching covers the same agents, so these sets say who
        # must be matched; the program drops the rest and re-ranks the lists.
        kept_men = [[w for w in lst if w in self.matched_women] for lst in men]
        kept_women = [[m for m in lst if m in self.matched_men] for lst in women]
        self.man_krank = _rank_maps(kept_men)
        if all(len(a) == len(b) for a, b in zip(kept_women, women)):
            self.woman_krank = self.woman_rank
        else:
            self.woman_krank = _rank_maps(kept_women)
        self.width = max(map(len, kept_men + kept_women), default=0)

    def violation(self, pairs):
        """Why ``pairs`` is not a stable matching covering the right agents."""
        wife, husband = {}, {}
        for m, w in pairs:
            if m in wife or w in husband:
                return f"agent in two pairs at ({m},{w})"
            if not 1 <= w < len(self.woman_rank) or m not in self.woman_rank[w]:
                return f"pair ({m},{w}) is not acceptable"
            wife[m], husband[w] = w, m
        if wife.keys() != self.matched_men or husband.keys() != self.matched_women:
            return NOT_COVERED
        for m in range(1, len(self.men)):
            mine = wife.get(m)
            for w in self.men[m]:
                if w == mine:
                    break
                h = husband.get(w)
                if h is None or self.woman_rank[w][m] < self.woman_rank[w][h]:
                    return f"blocking pair ({m},{w})"
        return None

    def profile(self, pairs) -> tuple[int, ...]:
        counts = [0] * (self.width + 1)
        for m, w in pairs:
            counts[self.man_krank[m][w]] += 1
            counts[self.woman_krank[w][m]] += 1
        return tuple(counts[1:])

    def value(self, criterion: str, pairs):
        """The quantity ``criterion`` optimises, for a stable matching."""
        if criterion in ("rank-maximal", "generous"):
            return self.profile(pairs)
        if criterion == "median":
            return tuple(sorted(pairs))
        man = [self.man_krank[m][w] for m, w in pairs]
        woman = [self.woman_krank[w][m] for m, w in pairs]
        if criterion == "egalitarian":
            return sum(man) + sum(woman)
        if criterion == "sex-equal":
            return abs(sum(man) - sum(woman))
        if criterion == "min-regret":
            return max(man + woman, default=0)
        raise ValueError(f"unknown criterion {criterion}")

    def check(self, targets, criterion: str, pairs):
        """None when ``pairs`` is a stable matching optimal for ``criterion``."""
        bad = self.violation(pairs)
        if bad is not None:
            return bad
        got = self.value(criterion, pairs)
        if got != targets[criterion]:
            return f"{criterion} value {got} differs from the optimum {targets[criterion]}"
        return None


def fold_targets(ref: Reference, matchings) -> dict:
    """Each criterion's optimum over ``matchings``, stable pair lists.

    ``matchings`` is consumed once, one matching at a time, so a generator
    keeps only the running optima and each man's partners in memory.
    """
    rank_max = generous_rev = None
    mins = dict.fromkeys(("egalitarian", "sex-equal", "min-regret"))
    partners: dict[int, list[int]] = {}
    count = 0
    for M in matchings:
        count += 1
        p = ref.profile(M)
        if rank_max is None or p > rank_max:
            rank_max = p
        if generous_rev is None or p[::-1] < generous_rev:
            generous_rev = p[::-1]
        for crit, best in mins.items():
            v = ref.value(crit, M)
            if best is None or v < best:
                mins[crit] = v
        for m, w in M:
            partners.setdefault(m, []).append(w)
    if not count:
        raise ValueError("no matchings to fold")
    # Median: each man's ceil(N/2)-th best partner over the multiset of
    # his partners in all N stable matchings.
    j = ceil(count / 2) - 1
    median = tuple(
        sorted((m, sorted(ws, key=ref.man_krank[m].__getitem__)[j]) for m, ws in partners.items())
    )
    return {"rank-maximal": rank_max, "generous": generous_rev[::-1], **mins, "median": median}


def latin_targets(ref: Reference) -> dict:
    """Closed-form optima of a (relabelled) cyclic Latin square of size n.

    M_k gives every man rank k+1 and every woman rank n-k, so every M_k
    costs n(n+1); the profile is n at rank 1 plus n at rank n for k = 0 and
    k = n-1; the degree max(k+1, n-k) is smallest, d = n//2 + 1, at the
    middle shifts, whose profile is n at rank d plus n at rank n+1-d; the
    sex-equality score n|2k+1-n| is 0 for odd n and n for even n; and the
    median shifts every man ceil(n/2)-1 places down his list.
    """
    n = len(ref.men) - 1
    d = n // 2 + 1

    def two_ranks(a: int, b: int) -> tuple[int, ...]:
        counts = [0] * n
        counts[a - 1] += n
        counts[b - 1] += n
        return tuple(counts)

    return {
        "rank-maximal": two_ranks(1, n),
        "generous": two_ranks(d, n + 1 - d),
        "egalitarian": n * (n + 1),
        "sex-equal": n if n % 2 == 0 else 0,
        "min-regret": d,
        "median": tuple(sorted((m, ref.men[m][ceil(n / 2) - 1]) for m in range(1, n + 1))),
    }
