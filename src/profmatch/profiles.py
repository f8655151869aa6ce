"""Integer rank-count vectors ("profiles") ordered lexicographically.

A profile records, for each rank k, how many agents are assigned a partner
they rank k-th.  Matching profiles are non-negative and sum to twice the
number of pairs; differences of matching profiles (rotation profiles, flow
vectors) carry signed entries.  Under pointwise addition and lexicographic
comparison profiles form a totally ordered abelian group, which is exactly
the structure the vector-flow solver needs: sums respect the order, minima
are well defined, and subtraction of a smaller vector from a larger one
stays non-negative.

Profiles are stored sparse, as the rank-ordered ``(rank, value)`` pairs of
their nonzero entries: the compressed encoding whose size
:func:`analytics.space_report` charges.  A rotation of a Latin chain has
about four nonzero entries at degree near n, so arithmetic, comparison and
hashing cost O(nonzeros), not O(degree).  A difference is one merge of
the two pair lists, which negates the entries it takes from the right
operand as it goes and builds no negated copy of it.  A sum of any number
of profiles (:meth:`Profile.sum`, which ``+`` runs on two) is one pass over
their entries.  The dense views (``elements``, ``padded``, iteration) are
built on request.  Only this module reads the pairs' storage: other
modules build a profile from its dense entries, from a ``{rank: count}``
dict (:meth:`Profile.from_counts`) or by arithmetic on profiles.

Trailing zeros never matter: ``Profile([2, 0]) == Profile([2])``.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator


class Profile:
    """Immutable integer vector with 1-based logical indices.

    Entries are read as indices are: a bool is the int it stands for, and
    an entry that is not an integer, such as 1.5 or "3", raises TypeError.
    """

    __slots__ = ("_pairs",)

    def __init__(self, elems: Iterable[int] = ()):
        self._pairs = tuple((i, e) for i, e in enumerate(map(operator.index, elems), start=1) if e)

    @classmethod
    def _from_pairs(cls, pairs: tuple[tuple[int, int], ...]) -> "Profile":
        """Profile over ``pairs``: nonzero values at strictly increasing ranks."""
        p = object.__new__(cls)
        p._pairs = pairs
        return p

    @classmethod
    def zero(cls) -> "Profile":
        return _ZERO

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "Profile":
        """Profile with ``counts[rank]`` at each rank: the keys are ranks of at
        least 1, the values integers, and zero counts are dropped."""
        return cls._from_pairs(tuple(sorted(p for p in counts.items() if p[1])))

    @classmethod
    def sum(cls, profiles: Iterable["Profile"]) -> "Profile":
        """``profiles`` added up in one pass over their entries, not one merge
        per addend."""
        total: dict[int, int] = {}
        get = total.get
        for p in profiles:
            for rank, value in p._pairs:
                total[rank] = get(rank, 0) + value
        return cls.from_counts(total)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The ``(rank, value)`` pairs of the nonzero entries, by rank."""
        return self._pairs

    @property
    def elements(self) -> tuple[int, ...]:
        """Entries with trailing zeros stripped."""
        return self.padded(self.degree)

    @property
    def degree(self) -> int:
        """Largest 1-based index holding a nonzero entry (0 for the zero vector)."""
        return self._pairs[-1][0] if self._pairs else 0

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    @property
    def sign(self) -> int:
        """Sign of the first nonzero entry; 0 for the zero vector."""
        if not self._pairs:
            return 0
        return 1 if self._pairs[0][1] > 0 else -1

    def padded(self, length: int) -> tuple[int, ...]:
        """Dense view of the first ``length`` entries."""
        if length < self.degree:
            raise ValueError(f"cannot pad to {length}: degree is {self.degree}")
        out = [0] * length
        for i, e in self._pairs:
            out[i - 1] = e
        return tuple(out)

    def __add__(self, other: "Profile") -> "Profile":
        return Profile.sum((self, other))

    def __sub__(self, other: "Profile") -> "Profile":
        a, b = self._pairs, other._pairs
        if not b:
            return self
        # Merge the two rank-ordered pair lists, negating ``other``'s entries
        # as it takes them: no negated copy of ``other`` is built.
        out = []
        ia = ib = 0
        la, lb = len(a), len(b)
        while ia < la and ib < lb:
            pa, pb = a[ia], b[ib]
            if pa[0] < pb[0]:
                out.append(pa)
                ia += 1
            elif pb[0] < pa[0]:
                out.append((pb[0], -pb[1]))
                ib += 1
            else:
                e = pa[1] - pb[1]
                if e:
                    out.append((pa[0], e))
                ia += 1
                ib += 1
        out += a[ia:]
        out += [(i, -e) for i, e in b[ib:]]
        return Profile._from_pairs(tuple(out))

    def __neg__(self) -> "Profile":
        return Profile._from_pairs(tuple((i, -e) for i, e in self._pairs))

    def abs_value(self) -> "Profile":
        """Negate every entry iff the first nonzero entry is negative."""
        return -self if self.sign < 0 else self

    def reverse_negate(self, length: int) -> "Profile":
        """Reverse over a window of ``length`` ranks and negate each entry.

        Maps <p_1, ..., p_k> to <-p_k, ..., -p_1>; minimising the reverse
        profile is the same as maximising its reverse-negated image.
        """
        if length < self.degree:
            raise ValueError(f"cannot pad to {length}: degree is {self.degree}")
        top = length + 1
        return Profile._from_pairs(tuple((top - i, -e) for i, e in reversed(self._pairs)))

    def _cmp(self, other: "Profile") -> int:
        a, b = self._pairs, other._pairs
        for x, y in zip(a, b):
            if x != y:
                if x[0] == y[0]:
                    return 1 if x[1] > y[1] else -1
                # The pair at the lower rank is the first differing entry.
                if x[0] < y[0]:
                    return 1 if x[1] > 0 else -1
                return -1 if y[1] > 0 else 1
        if len(a) > len(b):
            return 1 if a[len(b)][1] > 0 else -1
        if len(a) < len(b):
            return -1 if b[len(a)][1] > 0 else 1
        return 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Profile) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __lt__(self, other: "Profile") -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other: "Profile") -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other: "Profile") -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other: "Profile") -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self._cmp(other) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"Profile({list(self.elements)!r})"

    def display(self) -> str:
        """Comma-separated entries, trailing zeros dropped ("0" for the zero vector)."""
        return ",".join(map(str, self.elements)) if self._pairs else "0"


_ZERO = Profile(())


def high_weight(p: Profile, n: int) -> int:
    """Scalarise a profile as sum of p_i * (2n+1)^(n-i), exactly.

    The base 2n+1 exceeds the absolute entry sum of any single matching or
    rotation profile, so on those inputs the integer order agrees with the
    lexicographic order on profiles.  The result is exponential in n; it is
    used for cross-validation, never inside the vector pipeline.
    """
    if p.degree > n:
        raise ValueError(f"profile degree {p.degree} exceeds window {n}")
    base = 2 * n + 1
    return sum(e * base ** (n - i) for i, e in p.pairs)
