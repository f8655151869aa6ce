"""Two-sided preference instances, matchings, and matching profiles.

An instance holds, for each man and each woman, an ordered list of
acceptable partners on the other side plus a rank table.  Acceptability is
always mutual.  Indices are 1-based (slot 0 of every per-agent table is a
stub) to match the usual presentation of these problems.  A
:class:`Matching` is one such table, a tuple whose entry m is man m's wife
(0 = unmatched), with no trailing zeros, so equal pair sets give equal tuples.

Ranks are stored explicitly rather than recomputed from list positions so
that derived instances (truncated preference lists) can keep the ranks of
the instance they were derived from.

Instances built by :func:`parse_instance` or :meth:`Instance.from_lists`
have rank == list position.  :func:`preprocess` returns its input when every
agent is assigned in the stable matchings; otherwise it removes the agents
that are not, re-indexes densely (keeping a map back to the original
indices) and cuts the pairs no stable matching uses, so that the result has
the input's stable matchings and no others.

Text format (ASCII, LF newlines, no comments)::

    line 1:                 <n_men> <n_women>
    lines 2 .. n_men+1:     man i's list, 1-based woman indices, best first
    next n_women lines:     women's lists symmetrically

An empty line is an empty preference list.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .profiles import Profile


class ParseError(ValueError):
    """Raised on malformed instance text; the message names the line."""


@dataclass(frozen=True)
class Instance:
    """Immutable SMI instance with mutual acceptability.

    ``men_lists[i]`` / ``women_lists[j]`` are preference-ordered tuples of
    opposite-side indices; index 0 of the outer tuples is an empty stub.
    ``men_rank[i][w]`` is man i's rank of woman w (0 = unacceptable), and
    symmetrically for ``women_rank``.  ``orig_men`` / ``orig_women`` map
    dense indices back to the indices of the instance this one was derived
    from (identity for freshly parsed instances).
    """

    men_lists: tuple[tuple[int, ...], ...]
    women_lists: tuple[tuple[int, ...], ...]
    men_rank: tuple[tuple[int, ...], ...]
    women_rank: tuple[tuple[int, ...], ...]
    orig_men: tuple[int, ...] = field(default=())
    orig_women: tuple[int, ...] = field(default=())

    @classmethod
    def from_lists(
        cls,
        men_lists: Sequence[Sequence[int]],
        women_lists: Sequence[Sequence[int]],
        orig_men: Optional[Sequence[int]] = None,
        orig_women: Optional[Sequence[int]] = None,
    ) -> "Instance":
        """Build an instance with rank == list position; validates invariants."""
        n_men, n_women = len(men_lists), len(women_lists)
        # One int object per agent, shared by every list that names him or
        # her.  Ints above 256 are not cached by the interpreter, so lists of
        # freshly parsed ints point all over the heap, and every rank lookup
        # through them costs a cache miss whose price depends on the heap.
        men_ids, women_ids = tuple(range(n_men + 1)), tuple(range(n_women + 1))
        m_lists = [()] + [_shared_ids(lst, women_ids) for lst in men_lists]
        w_lists = [()] + [_shared_ids(lst, men_ids) for lst in women_lists]
        m_rank = _positional_ranks(m_lists, n_women, "man", "woman")
        w_rank = _positional_ranks(w_lists, n_men, "woman", "man")
        for i in range(1, n_men + 1):
            for w in m_lists[i]:
                if w_rank[w][i] == 0:
                    raise ValueError(
                        f"acceptability is not mutual: man {i} lists woman {w} "
                        f"but not vice versa"
                    )
        om = men_ids if orig_men is None else tuple(orig_men)
        ow = women_ids if orig_women is None else tuple(orig_women)
        return cls(tuple(m_lists), tuple(w_lists), m_rank, w_rank, om, ow)

    @property
    def n_men(self) -> int:
        return len(self.men_lists) - 1

    @property
    def n_women(self) -> int:
        return len(self.women_lists) - 1

    @property
    def total_list_length(self) -> int:
        """Total length of all preference lists, both sides (twice the pairs)."""
        return sum(len(lst) for lst in self.men_lists) + sum(
            len(lst) for lst in self.women_lists
        )

    @property
    def acceptable_pairs(self) -> int:
        return sum(len(lst) for lst in self.men_lists)

    def acceptable(self, man: int, woman: int) -> bool:
        return self.men_rank[man][woman] > 0

    def man_list_position(self, man: int, woman: int) -> int:
        """0-based position of an acceptable woman in a man's list.

        Ranks increase strictly along a list, so the position can be found
        by bisection even when ranks are sparse (truncated instances).
        """
        row = self.men_rank[man]
        return bisect_left(self.men_lists[man], row[woman], key=row.__getitem__)


def _shared_ids(lst: Sequence[int], ids: tuple[int, ...]) -> tuple[int, ...]:
    """``lst`` with each index in range replaced by its object in ``ids``;
    out-of-range entries pass through for :func:`_positional_ranks` to report."""
    n = len(ids)
    return tuple(ids[j] if 0 < j < n else j for j in map(int, lst))


def _positional_ranks(
    lists: list[tuple[int, ...]], n_other: int, side: str, other: str
) -> tuple[tuple[int, ...], ...]:
    rows = [(0,) * (n_other + 1)]
    for i, lst in enumerate(lists[1:], start=1):
        row = [0] * (n_other + 1)
        for pos, j in enumerate(lst, start=1):
            if not 1 <= j <= n_other:
                raise ValueError(f"{side} {i} lists {other} {j}, out of range 1..{n_other}")
            if row[j]:
                raise ValueError(f"{side} {i} lists {other} {j} more than once")
            row[j] = pos
        rows.append(tuple(row))
    return tuple(rows)


class Matching:
    """A set of disjoint man-woman pairs, stored as one wife tuple (see the module docs)."""

    __slots__ = ("_wife",)

    def __init__(self, pairs=()):
        wife, taken = [0], set()
        for a, b in pairs:
            m, w = int(a), int(b)
            if m < 1 or w < 1:
                raise ValueError(f"pair ({m},{w}) has an index below 1")
            wife += [0] * (m + 1 - len(wife))
            if wife[m]:
                raise ValueError(f"man {m} appears in two pairs")
            if w in taken:
                raise ValueError(f"woman {w} appears in two pairs")
            wife[m] = w
            taken.add(w)
        self._wife = tuple(wife)

    @classmethod
    def from_wife_array(cls, wife: Sequence[int]) -> "Matching":
        """Build from a 1-based array mapping man -> woman (0 = unmatched),
        trusted to name each woman at most once (this is not checked)."""
        end = len(wife)
        while end > 1 and not wife[end - 1]:
            end -= 1
        matching = cls.__new__(cls)
        matching._wife = (0, *wife[1:end])
        return matching

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self)

    def wife_of(self, man: int) -> Optional[int]:
        return (self._wife[man] or None) if 0 <= man < len(self._wife) else None

    def wife_array(self, n_men: int) -> list[int]:
        return list(self._wife) + [0] * (n_men + 1 - len(self._wife))

    def validate_in(self, inst: Instance) -> None:
        """Raise ValueError unless every pair is mutually acceptable in inst."""
        for m, w in self:
            if not (1 <= m <= inst.n_men and 1 <= w <= inst.n_women):
                raise ValueError(f"pair ({m},{w}) references unknown agents")
            if not inst.acceptable(m, w):
                raise ValueError(f"pair ({m},{w}) is not mutually acceptable")

    def is_perfect(self, inst: Instance) -> bool:
        return len(self) == inst.n_men == inst.n_women

    def __len__(self) -> int:
        return len(self._wife) - self._wife.count(0)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((m, w) for m, w in enumerate(self._wife) if w)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matching) and self._wife == other._wife

    def __hash__(self) -> int:
        return hash(self._wife)

    def __repr__(self) -> str:
        return f"Matching({list(self)!r})"


def parse_instance(text: str, warnings: Optional[list[str]] = None) -> Instance:
    """Parse the text format; non-mutual entries are dropped, not rejected.

    Dropped entries are reported through the optional ``warnings`` list.
    Malformed integers, out-of-range indices and duplicate entries raise
    :class:`ParseError` naming the offending line.
    """
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise ParseError("line 1: expected '<n_men> <n_women>'")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("line 1: expected exactly two integers '<n_men> <n_women>'")
    try:
        n_men, n_women = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"line 1: malformed integer in header: {exc}") from None
    if n_men < 0 or n_women < 0:
        raise ParseError("line 1: agent counts must be non-negative")

    needed = 1 + n_men + n_women
    while len(lines) > needed and not lines[-1].strip():
        lines.pop()
    if len(lines) != needed:
        raise ParseError(
            f"expected {needed} lines (header plus one list per agent), got {len(lines)}"
        )

    def read_lists(start: int, count: int, n_other: int, side: str, other: str):
        out = []
        for k in range(count):
            lineno = start + k + 1
            seen = set()
            lst = []
            for tok in lines[start + k].split():
                try:
                    j = int(tok)
                except ValueError:
                    raise ParseError(f"line {lineno}: malformed integer {tok!r}") from None
                if not 1 <= j <= n_other:
                    raise ParseError(
                        f"line {lineno}: {other} index {j} out of range 1..{n_other}"
                    )
                if j in seen:
                    raise ParseError(f"line {lineno}: duplicate entry {j} in {side}'s list")
                seen.add(j)
                lst.append(j)
            out.append(lst)
        return out

    men_raw = read_lists(1, n_men, n_women, "man", "woman")
    women_raw = read_lists(1 + n_men, n_women, n_men, "woman", "man")

    men_sets = [set(lst) for lst in men_raw]
    women_sets = [set(lst) for lst in women_raw]
    men_lists, women_lists = [], []
    for i, lst in enumerate(men_raw, start=1):
        kept = [w for w in lst if i in women_sets[w - 1]]
        if warnings is not None:
            for w in lst:
                if i not in women_sets[w - 1]:
                    warnings.append(
                        f"man {i} lists woman {w} but not vice versa; entry dropped"
                    )
        men_lists.append(kept)
    for j, lst in enumerate(women_raw, start=1):
        kept = [m for m in lst if j in men_sets[m - 1]]
        if warnings is not None:
            for m in lst:
                if j not in men_sets[m - 1]:
                    warnings.append(
                        f"woman {j} lists man {m} but not vice versa; entry dropped"
                    )
        women_lists.append(kept)

    return Instance.from_lists(men_lists, women_lists)


def format_instance(inst: Instance) -> str:
    """Serialise an instance in the text format (inverse of parse_instance)."""
    out = [f"{inst.n_men} {inst.n_women}"]
    for i in range(1, inst.n_men + 1):
        out.append(" ".join(str(w) for w in inst.men_lists[i]))
    for j in range(1, inst.n_women + 1):
        out.append(" ".join(str(m) for m in inst.women_lists[j]))
    return "\n".join(out) + "\n"


def gs_propose(
    prop_lists: Sequence[Sequence[int]],
    recv_rank: Sequence[Sequence[int]],
    n_prop: int,
    n_recv: int,
    cutoff: Optional[tuple[int, Sequence[Sequence[int]]]] = None,
) -> list[int]:
    """Deferred acceptance with the given side proposing.

    Returns the 1-based proposer -> receiver assignment (0 = unmatched).
    Proposers are processed in ascending index order so runs are
    reproducible, although the outcome is order-independent.

    ``cutoff = (d, prop_rank)`` runs the same rounds on the instance
    truncated at rank d without building it: a proposer stops at the first
    entry he ranks worse than d (ranks rise strictly along every list), and
    a receiver rejects every proposer she ranks worse than d.
    """
    limit, prop_rank = cutoff if cutoff else (sys.maxsize, None)
    next_pos = [0] * (n_prop + 1)
    recv_match = [0] * (n_recv + 1)
    # Rank of each receiver's current proposer; a free receiver holds an
    # imaginary one ranked just past the cutoff.
    held = [limit + 1] * (n_recv + 1)
    prop_match = [0] * (n_prop + 1)
    free = list(range(n_prop, 0, -1))
    while free:
        p = free.pop()
        lst = prop_lists[p]
        end = len(lst)
        if prop_rank is not None:
            end = bisect_right(lst, limit, key=prop_rank[p].__getitem__)
        i = next_pos[p]
        while i < end:
            r = lst[i]
            i += 1
            rank = recv_rank[r][p]
            if rank < held[r]:
                cur = recv_match[r]
                recv_match[r] = p
                held[r] = rank
                prop_match[p] = r
                if cur:
                    prop_match[cur] = 0
                    free.append(cur)
                break
        next_pos[p] = i
    return prop_match


def _truncated_instance(
    inst: Instance, men_limit: Sequence[int], women_limit: Sequence[int]
) -> Instance:
    """The pairs (m, w) that m ranks within ``men_limit[m]`` and w within
    ``women_limit[w]``, each keeping its rank on both sides."""
    men = _kept_side(inst.men_lists, inst.men_rank, men_limit, inst.women_rank, women_limit)
    women = _kept_side(inst.women_lists, inst.women_rank, women_limit, inst.men_rank, men_limit)
    return Instance(men[0], women[0], men[1], women[1], inst.orig_men, inst.orig_women)


def _kept_side(lists, rank, limit, other_rank, other_limit):
    """One side's kept lists and rank rows, both with the index-0 stub."""
    width = len(other_rank)
    kept_lists, rows = [()], [(0,) * width]
    for i in range(1, len(lists)):
        own, lim = rank[i], limit[i]
        kept = tuple(j for j in lists[i] if own[j] <= lim and other_rank[j][i] <= other_limit[j])
        row = [0] * width
        for j in kept:
            row[j] = own[j]
        kept_lists.append(kept)
        rows.append(tuple(row))
    return tuple(kept_lists), tuple(rows)


def preprocess(inst: Instance) -> Instance:
    """Reduce an instance to the agents and pairs stable matchings can use.

    The same agents are assigned in every stable matching, so one proposer
    round identifies who is never assigned.  When nobody is, the input is
    returned unchanged.  Otherwise those agents are removed and the rest
    re-indexed densely, with ranks equal to positions in the lists with
    only the removed agents taken out.  Removing agents alone can create
    stable matchings the input does not have, so every pair that no stable
    matching of the input uses goes too: (m, w) where w ranks m below her
    man-optimal partner or m ranks w below his woman-optimal partner.  The
    stable matchings of the result, mapped back through ``orig_men`` and
    ``orig_women``, are exactly those of the input, and all are perfect.
    """
    n_men, n_women = inst.n_men, inst.n_women
    wife = gs_propose(inst.men_lists, inst.women_rank, n_men, n_women)
    kept_men = [m for m in range(1, n_men + 1) if wife[m]]
    if len(kept_men) == n_men == n_women:
        return inst
    husband = gs_propose(inst.women_lists, inst.men_rank, n_women, n_men)
    kept_women = sorted(wife[m] for m in kept_men)
    new_m = {old: new for new, old in enumerate(kept_men, start=1)}
    new_w = {old: new for new, old in enumerate(kept_women, start=1)}
    men_lists = [
        [new_w[w] for w in inst.men_lists[old] if w in new_w] for old in kept_men
    ]
    women_lists = [
        [new_m[m] for m in inst.women_lists[old] if m in new_m] for old in kept_women
    ]
    orig_men = (0,) + tuple(inst.orig_men[old] for old in kept_men)
    orig_women = (0,) + tuple(inst.orig_women[old] for old in kept_women)
    reduced = Instance.from_lists(men_lists, women_lists, orig_men, orig_women)
    # Each agent's worst stable partner bounds the ranks worth keeping: the
    # woman-optimal wife of a man, the man-optimal husband of a woman.
    men_limit = [0] * (reduced.n_men + 1)
    for w, m in enumerate(husband):
        if m:
            men_limit[new_m[m]] = reduced.men_rank[new_m[m]][new_w[w]]
    women_limit = [0] * (reduced.n_women + 1)
    for m in kept_men:
        women_limit[new_w[wife[m]]] = reduced.women_rank[new_w[wife[m]]][new_m[m]]
    return _truncated_instance(reduced, men_limit, women_limit)


def profile_of(inst: Instance, matching: Matching) -> Profile:
    """Profile of a matching: entry k counts men plus women at rank k."""
    matching.validate_in(inst)
    counts: dict[int, int] = {}
    for m, w in matching:
        rm = inst.men_rank[m][w]
        rw = inst.women_rank[w][m]
        counts[rm] = counts.get(rm, 0) + 1
        counts[rw] = counts.get(rw, 0) + 1
    return Profile._from_pairs(tuple(sorted(counts.items())))
