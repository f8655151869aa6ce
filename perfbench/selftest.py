"""Self-tests of the benchmark's checks against brute force on tiny instances.

Run ``python3 perfbench/selftest.py``; ``run.py`` also runs them before it
measures anything.  Brute force lists every matching, keeps those with no
blocking pair by the textbook definition, and must agree with the checks:
every unstable matching is rejected, every stable non-optimal matching is
rejected for its criterion, and at small n the Latin-chain closed forms equal
the optima over all stable matchings.
"""

from __future__ import annotations

import random
import sys
from itertools import permutations

import check
import gen


def expect(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(f"self-test failed: {what}")


def _is_stable(men, women, pairs) -> bool:
    wife = dict(pairs)
    husband = {w: m for m, w in pairs}
    for m in range(1, len(men)):
        for w in men[m]:
            if wife.get(m) == w:
                continue
            m_wants = m not in wife or men[m].index(w) < men[m].index(wife[m])
            w_wants = w not in husband or women[w].index(m) < women[w].index(husband[w])
            if m_wants and w_wants:
                return False
    return True


def _all_matchings(men):
    out = []

    def grow(m, used, pairs):
        if m == len(men):
            out.append(list(pairs))
            return
        grow(m + 1, used, pairs)
        for w in men[m]:
            if w not in used:
                grow(m + 1, used | {w}, pairs + [(m, w)])

    grow(1, frozenset(), [])
    return out


def check_instance(men, women, rejected: dict) -> None:
    """Exhaustive agreement of the checks with brute force on one instance."""
    ref = check.Reference(men, women)
    stable = []
    for pairs in _all_matchings(men):
        if _is_stable(men, women, pairs):
            stable.append(pairs)
            expect(ref.violation(pairs) is None, pairs)
        else:
            expect(ref.violation(pairs) is not None, pairs)
    expect(ref.violation(stable[0][1:]) == check.NOT_COVERED, stable[0])
    targets = check.fold_targets(ref, stable)
    for crit in check.CRITERIA:
        optimal = [M for M in stable if ref.check(targets, crit, M) is None]
        expect(bool(optimal), crit)
        worse = [M for M in stable if ref.value(crit, M) != targets[crit]]
        for M in worse:
            expect(ref.check(targets, crit, M) is not None, (crit, M))
        rejected[crit] += len(worse)


def check_latin(n: int, rng: random.Random) -> None:
    """The closed forms equal brute-force optima at size n."""
    men, women = gen.relabel(*gen.latin_chain(n), rng)
    stable = [
        [(m, p[m - 1]) for m in range(1, n + 1)]
        for p in permutations(range(1, n + 1))
        if _is_stable(men, women, [(m, p[m - 1]) for m in range(1, n + 1)])
    ]
    expect(len(stable) == n, (n, len(stable)))
    ref = check.Reference(men, women)
    expect(check.fold_targets(ref, stable) == check.latin_targets(ref), n)


def run() -> None:
    rng = random.Random("perfbench-selftest")
    rejected = dict.fromkeys(check.CRITERIA, 0)
    for _ in range(12):
        check_instance(*gen.uniform_complete(5, rng), rejected)
        check_instance(*gen.sparse(6, 2, rng), rejected)
    missing = [crit for crit, count in rejected.items() if not count]
    expect(not missing, f"no stable non-optimal matching was tried for {missing}")
    for n in range(1, 8):
        check_latin(n, rng)


if __name__ == "__main__":
    run()
    print("perfbench self-tests passed", file=sys.stderr)
