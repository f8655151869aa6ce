"""Integer rank-count vectors ("profiles") ordered lexicographically.

A profile records, for each rank k, how many agents are assigned a partner
they rank k-th.  Matching profiles are non-negative and sum to twice the
number of pairs; differences of matching profiles (rotation profiles, flow
vectors) carry signed entries.  Under pointwise addition and lexicographic
comparison profiles form a totally ordered abelian group, which is exactly
the structure the vector-flow solver needs: sums respect the order, minima
are well defined, and subtraction of a smaller vector from a larger one
stays non-negative.

Trailing zeros never matter: ``Profile([2, 0]) == Profile([2])``.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Profile:
    """Immutable integer vector with 1-based logical indices."""

    __slots__ = ("_elems",)

    def __init__(self, elems: Iterable[int] = ()):
        es = tuple(int(e) for e in elems)
        end = len(es)
        while end and not es[end - 1]:
            end -= 1
        self._elems = es[:end]

    @classmethod
    def zero(cls) -> "Profile":
        return _ZERO

    @property
    def elements(self) -> tuple[int, ...]:
        """Entries with trailing zeros stripped."""
        return self._elems

    @property
    def degree(self) -> int:
        """Largest 1-based index holding a nonzero entry (0 for the zero vector)."""
        return len(self._elems)

    @property
    def is_zero(self) -> bool:
        return not self._elems

    @property
    def sign(self) -> int:
        """Sign of the first nonzero entry; 0 for the zero vector."""
        for e in self._elems:
            if e:
                return 1 if e > 0 else -1
        return 0

    def padded(self, length: int) -> tuple[int, ...]:
        """Dense view of the first ``length`` entries."""
        if length < len(self._elems):
            raise ValueError(f"cannot pad to {length}: degree is {len(self._elems)}")
        return self._elems + (0,) * (length - len(self._elems))

    def element(self, index: int) -> int:
        """Entry at 1-based position ``index`` (0 beyond the degree)."""
        if index < 1:
            raise ValueError("profile indices are 1-based")
        return self._elems[index - 1] if index <= len(self._elems) else 0

    def __add__(self, other: "Profile") -> "Profile":
        a, b = self._elems, other._elems
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Profile(out)

    def __sub__(self, other: "Profile") -> "Profile":
        return self + (-other)

    def __neg__(self) -> "Profile":
        return Profile(-e for e in self._elems)

    def abs_value(self) -> "Profile":
        """Negate every entry iff the first nonzero entry is negative."""
        return -self if self.sign < 0 else self

    def reverse_negate(self, length: int) -> "Profile":
        """Reverse over a window of ``length`` ranks and negate each entry.

        Maps <p_1, ..., p_k> to <-p_k, ..., -p_1>; minimising the reverse
        profile is the same as maximising its reverse-negated image.
        """
        return Profile(-e for e in reversed(self.padded(length)))

    def _cmp(self, other: "Profile") -> int:
        a, b = self._elems, other._elems
        for x, y in zip(a, b):
            if x != y:
                return -1 if x < y else 1
        if len(a) == len(b):
            return 0
        tail = a[len(b):] if len(a) > len(b) else b[len(a):]
        longer_is_self = len(a) > len(b)
        for x in tail:
            if x:
                if x > 0:
                    return 1 if longer_is_self else -1
                return -1 if longer_is_self else 1
        return 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Profile) and self._elems == other._elems

    def __hash__(self) -> int:
        return hash(self._elems)

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
        return iter(self._elems)

    def __repr__(self) -> str:
        return f"Profile({list(self._elems)!r})"

    def display(self) -> str:
        """Comma-separated entries, trailing zeros dropped ("0" for the zero vector)."""
        return ",".join(str(e) for e in self._elems) if self._elems else "0"


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
    total = 0
    for i, e in enumerate(p.elements, start=1):
        if e:
            total += e * base ** (n - i)
    return total
