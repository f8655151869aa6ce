"""Seeded instance generators of the benchmark, independent of the program.

The benchmark does not call ``profmatch.analytics.generate_*``: a change to
the program's random-number call sequence must not change a workload.  Each
generator returns ``(men, women)``: 1-based preference lists with index 0 an
empty stub.  Acceptability is mutual by construction.  :func:`relabel`
permutes agent labels, and :func:`instance_text` gives the text the program
parses.
"""

from __future__ import annotations

import random

import check


def uniform_complete(n: int, rng: random.Random):
    """Complete lists, each an independent uniform shuffle."""
    men, women = [[]], [[]]
    for side in (men, women):
        for _ in range(n):
            lst = list(range(1, n + 1))
            rng.shuffle(lst)
            side.append(lst)
    return men, women


def sparse(n: int, length: int, rng: random.Random):
    """Each man accepts ``length`` women drawn uniformly; lists are shuffled.

    Women's list lengths follow from the men's choices (``length`` on
    average); some agents may be left out of every stable matching.
    """
    men = [[]] + [rng.sample(range(1, n + 1), length) for _ in range(n)]
    women = [[] for _ in range(n + 1)]
    for m in range(1, n + 1):
        for w in men[m]:
            women[w].append(m)
    for w in range(1, n + 1):
        rng.shuffle(women[w])
    return men, women


def restrict_to_covered(men, women):
    """Keep only the agents stable matchings cover, renumbered in order.

    The man-optimal matching stays stable once the uncovered agents are
    gone and covers everyone left, so every stable matching of the result
    is perfect.
    """
    woman_rank = [{m: r for r, m in enumerate(lst)} for lst in women]
    wife = check.deferred_acceptance(men, woman_rank)
    new_man = {m: i for i, m in enumerate((m for m in range(1, len(men)) if wife[m]), 1)}
    new_woman = {w: j for j, w in enumerate(sorted(w for w in wife if w), 1)}
    kept_men = [[]] + [[new_woman[w] for w in men[m] if w in new_woman] for m in new_man]
    kept_women = [[]] + [[new_man[m] for m in women[w] if m in new_man] for w in new_woman]
    return kept_men, kept_women


def latin_chain(n: int):
    """Cyclic Latin square: man i ranks women i, i+1, ..., i-1 and woman j
    ranks men j+1, j+2, ..., j (indices taken mod n, labels 1..n).

    Its stable matchings are exactly M_k, which pairs every man with the
    woman k places down his list, for k = 0..n-1: a chain of n-1 rotations,
    each of which moves every man one place down.
    """
    men = [[]] + [[(i + k) % n + 1 for k in range(n)] for i in range(n)]
    women = [[]] + [[(j + 1 + k) % n + 1 for k in range(n)] for j in range(n)]
    return men, women


def relabel(men, women, rng: random.Random):
    """The same instance with man and woman labels permuted by ``rng``."""
    pm = list(range(1, len(men)))
    pw = list(range(1, len(women)))
    rng.shuffle(pm)
    rng.shuffle(pw)
    pm, pw = [0] + pm, [0] + pw
    new_men = [[] for _ in men]
    new_women = [[] for _ in women]
    for m in range(1, len(men)):
        new_men[pm[m]] = [pw[w] for w in men[m]]
    for w in range(1, len(women)):
        new_women[pw[w]] = [pm[m] for m in women[w]]
    return new_men, new_women


def instance_text(men, women) -> str:
    lines = [f"{len(men) - 1} {len(women) - 1}"]
    lines += [" ".join(map(str, lst)) for lst in men[1:]]
    lines += [" ".join(map(str, lst)) for lst in women[1:]]
    return "\n".join(lines) + "\n"
