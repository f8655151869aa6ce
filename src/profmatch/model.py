"""Two-sided preference instances, matchings, and matching profiles.

An instance holds, for each man and each woman, an ordered list of
acceptable partners on the other side plus a rank row.  Acceptability is
always mutual.  Indices are 1-based (slot 0 of every per-agent table is a
stub) to match the usual presentation of these problems.  A
:class:`Matching` is one such table, a tuple whose entry m is man m's wife
(0 = unmatched), with no trailing zeros, so equal pair sets give equal tuples.

Storage grows with the lists.  A rank row is a dict ``{partner: rank}``
when the agent's list is short against the other side (four times its
length below the other side's size plus one), and otherwise a tuple
indexed by partner with 0 at unlisted partners.  The input decides which;
both give ``row[partner]`` for a listed partner, and only
:meth:`Instance.acceptable` tests whether a partner is listed.

Ranks are stored explicitly rather than recomputed from list positions so
that derived instances (bands and truncations of the preference lists) can
keep the ranks of the instance they were derived from.  One cut,
:func:`_cut`, builds both: each man keeps the women of one slice of his
list, from a given place to the last woman within his rank limit, who rank
him within theirs; each woman's list is gathered from the men's kept pairs;
agents whose limit is 0 go, and the rest are re-indexed densely (keeping a
map back to the original indices).

Instances built by :func:`parse_instance` or :meth:`Instance.from_lists`
have rank == list position.  Both read each side's lists through one
reader, so text and lists pass the same checks: an entry that is not an
integer, is out of range or repeats in its list raises :class:`ParseError`
naming the line or the agent.  :func:`preprocess` cuts every instance to
its stable-pair band: each agent keeps the partners from its best to its
worst stable partner that keep it within theirs, and the agents no stable
matching assigns go.  The result has the input's stable matchings and no
others; on complete lists it keeps a few percent of the pairs.  Kept pairs
keep the input's ranks, so a band's ranks are no longer list positions.
An instance that already is its band is returned as it is.

Text format (ASCII, LF newlines, no comments)::

    line 1:                 <n_men> <n_women>
    lines 2 .. n_men+1:     man i's list, 1-based woman indices, best first
    next n_women lines:     women's lists symmetrically

An empty line is an empty preference list.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .profiles import Profile


class ParseError(ValueError):
    """Raised on malformed instance input, from text or from lists; the
    message names the line or the agent."""


RankRow = Union[dict[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class Instance:
    """Immutable SMI instance with mutual acceptability.

    ``men_lists[i]`` / ``women_lists[j]`` are preference-ordered tuples of
    opposite-side indices; index 0 of the outer tuples is an empty stub.
    ``men_rank[i][w]`` is man i's rank of a woman w he lists, and
    symmetrically for ``women_rank``.  A row is a dict over the listed
    partners or a dense tuple (see the module docs), so it is read only at
    listed partners; :meth:`acceptable` is the membership test.
    ``orig_men`` / ``orig_women`` map dense indices back to the indices of
    the instance this one was derived from (identity for freshly parsed
    instances).
    """

    men_lists: tuple[tuple[int, ...], ...]
    women_lists: tuple[tuple[int, ...], ...]
    men_rank: tuple[RankRow, ...]
    women_rank: tuple[RankRow, ...]
    orig_men: tuple[int, ...]
    orig_women: tuple[int, ...]

    @classmethod
    def from_lists(
        cls, men_lists: Sequence[Sequence[int]], women_lists: Sequence[Sequence[int]]
    ) -> "Instance":
        """Build an instance with rank == list position; validates invariants.

        An entry that is not an integer, is out of range or repeats in its
        list raises :class:`ParseError` naming the agent; the first entry
        not listed back raises ValueError.
        """
        men_ids = tuple(range(len(men_lists) + 1))
        women_ids = tuple(range(len(women_lists) + 1))
        men_table, women_table = {j: j for j in men_ids[1:]}, {j: j for j in women_ids[1:]}
        m_lists = _read_side(men_lists, women_ids, women_table, "man", "man {}".format)
        w_lists = _read_side(women_lists, men_ids, men_table, "woman", "woman {}".format)
        inst = _by_position(m_lists, w_lists, men_ids, women_ids)
        unreturned = _first_unreturned(inst)
        if unreturned:
            raise ValueError(f"acceptability is not mutual: {unreturned}")
        return inst

    def __hash__(self) -> int:
        # Dict rows are unhashable; the lists and index maps determine the
        # rest of an instance that compares equal, so they suffice.
        return hash((self.men_lists, self.women_lists, self.orig_men, self.orig_women))

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
        """Whether the man lists the woman (and so she lists him); rank rows
        are read only at listed partners, so this is their membership test."""
        return _listed(self.men_rank[man], woman)

    def man_list_position(self, man: int, woman: int) -> int:
        """0-based position of an acceptable woman in a man's list.

        Ranks are positive and increase strictly along a list, so a woman
        ranked r sits at position r - 1 at the latest.  She is there
        whenever ranks are positions; otherwise (preprocessed and truncated
        instances, with sparse ranks) her position is found by bisection.
        :func:`_cut` finds the end of each man's slice the same way.
        """
        row, lst = self.men_rank[man], self.men_lists[man]
        rank = row[woman]
        if rank <= len(lst) and lst[rank - 1] == woman:
            return rank - 1
        return bisect_left(lst, rank, key=row.__getitem__)


def _listed(row: RankRow, j: int) -> bool:
    """Whether the rank row ``row`` lists partner ``j``."""
    return j in row if type(row) is dict else 0 < j < len(row) and row[j] > 0


def _rank_row(partners: Sequence[int], ranks: Iterable[int], width: int) -> RankRow:
    """The rank row of one agent who ranks ``partners`` at ``ranks``, over
    the ``width - 1`` agents of the other side (row kinds: see the module docs)."""
    if 4 * len(partners) < width:
        return dict(zip(partners, ranks))
    row = [0] * width
    for j, r in zip(partners, ranks):
        row[j] = r
    return tuple(row)


def _by_position(
    men_lists: Sequence[tuple[int, ...]],
    women_lists: Sequence[tuple[int, ...]],
    orig_men: Sequence[int],
    orig_women: Sequence[int],
) -> Instance:
    """Instance with rank == list position, from lists with the index-0
    stub that are trusted to be in range and free of duplicates."""
    def ranks(lists, width):
        return tuple(_rank_row(lst, range(1, len(lst) + 1), width) for lst in lists)

    return Instance(
        tuple(men_lists),
        tuple(women_lists),
        ranks(men_lists, len(women_lists)),
        ranks(women_lists, len(men_lists)),
        tuple(orig_men),
        tuple(orig_women),
    )


def _read_side(
    rows: Iterable, ids: Sequence[int], table: dict, side: str, where: Callable[[int], str]
) -> list[tuple[int, ...]]:
    """One side's lists, with the index-0 stub, from its rows of entries.

    ``table`` maps each well-formed entry to its index object in ``ids``.
    A row whose entries all hit the table and are distinct costs one lookup
    per entry; any other row is checked entry by entry, and the first
    entry that is not an integer, is out of range or repeats raises
    :class:`ParseError`, prefixed with ``where(k)`` for the k-th row.
    """
    # One int object per agent, shared by every list that names him or
    # her.  Ints above 256 are not cached by the interpreter, so lists of
    # freshly parsed ints point all over the heap, and every rank lookup
    # through them costs a cache miss whose price depends on the heap.
    other = "woman" if side == "man" else "man"
    out = [()]
    for k, row in enumerate(rows, start=1):
        lst = tuple(map(table.get, row))
        distinct = set(lst)
        if None in distinct or len(distinct) < len(lst):
            # A miss is an error or a non-canonical entry such as '+3'.
            # operator.index, unlike int, refuses 1.5 rather than truncate it.
            kept: dict[int, None] = {}
            for entry in row:
                try:
                    j = int(entry) if isinstance(entry, str) else operator.index(entry)
                except (TypeError, ValueError):
                    raise ParseError(f"{where(k)}: malformed integer {entry!r}") from None
                if not 0 < j < len(ids):
                    n_other = len(ids) - 1
                    raise ParseError(f"{where(k)}: {other} index {j} out of range 1..{n_other}")
                if j in kept:
                    raise ParseError(f"{where(k)}: duplicate entry {j} in {side}'s list")
                kept[ids[j]] = None
            lst = tuple(kept)
        out.append(lst)
    return out


def _unreturned(
    lists: Sequence[tuple[int, ...]], other_rank: Sequence[RankRow]
) -> Iterator[tuple[int, int]]:
    """Each entry (i, j) of ``lists``, in order, that j's row does not list back."""
    for i, lst in enumerate(lists):
        for j in lst:
            # _listed, inlined: this runs once per entry, and i is in range.
            row = other_rank[j]
            if not (i in row if type(row) is dict else row[i]):
                yield i, j


def _first_unreturned(inst: Instance) -> Optional[str]:
    """The first entry not listed back, as text, or None if acceptability is mutual.

    Lists hold no duplicates, so when every man's entries are listed back
    and both sides list equally many pairs, the two pair sets are equal.
    """
    for i, w in _unreturned(inst.men_lists, inst.women_rank):
        return f"man {i} lists woman {w} but not vice versa"
    if inst.acceptable_pairs != sum(map(len, inst.women_lists)):
        j, m = next(_unreturned(inst.women_lists, inst.men_rank))
        return f"woman {j} lists man {m} but not vice versa"
    return None


class Matching:
    """A set of disjoint man-woman pairs, stored as one wife tuple (see the module docs)."""

    __slots__ = ("_wife",)

    def __init__(self, pairs=()):
        wife, taken = [0], set()
        for a, b in pairs:
            try:
                m, w = operator.index(a), operator.index(b)
            except TypeError:
                raise ValueError(f"pair ({a!r},{b!r}) has a non-integer index") from None
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
        """Raise ValueError unless every pair is mutually acceptable in inst.

        The first pair, by man, that names an agent inst does not have or
        that his rank row does not list is named.  One pass over the wife
        tuple, which reads one rank row per matched man.
        """
        n_men, n_women, men_rank = inst.n_men, inst.n_women, inst.men_rank
        for m, w in enumerate(self._wife):
            if w:
                if m > n_men or w > n_women:
                    raise ValueError(f"pair ({m},{w}) references unknown agents")
                # _listed, inlined: w is in range, and a dense row spans the women.
                row = men_rank[m]
                if not (w in row if type(row) is dict else row[w] > 0):
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

    men_ids, women_ids = tuple(range(n_men + 1)), tuple(range(n_women + 1))

    def read(first: int, count: int, ids: tuple[int, ...], side: str) -> list[tuple[int, ...]]:
        rows = (line.split() for line in lines[first : first + count])
        table = {str(j): j for j in ids[1:]}
        return _read_side(rows, ids, table, side, lambda k: f"line {first + k}")

    men_lists = read(1, n_men, women_ids, "man")
    women_lists = read(1 + n_men, n_women, men_ids, "woman")
    inst = _by_position(men_lists, women_lists, men_ids, women_ids)
    if _first_unreturned(inst) is None:
        return inst
    for lists, rank, side, other in (
        (men_lists, inst.women_rank, "man", "woman"),
        (women_lists, inst.men_rank, "woman", "man"),
    ):
        if warnings is not None:
            warnings.extend(
                f"{side} {i} lists {other} {j} but not vice versa; entry dropped"
                for i, j in _unreturned(lists, rank)
            )
        lists[:] = [tuple(j for j in lst if _listed(rank[j], i)) for i, lst in enumerate(lists)]
    return _by_position(men_lists, women_lists, men_ids, women_ids)


def format_instance(inst: Instance) -> str:
    """Serialise an instance in the text format (inverse of parse_instance)."""
    out = [f"{inst.n_men} {inst.n_women}"]
    for i in range(1, inst.n_men + 1):
        out.append(" ".join(str(w) for w in inst.men_lists[i]))
    for j in range(1, inst.n_women + 1):
        out.append(" ".join(str(m) for m in inst.women_lists[j]))
    return "\n".join(out) + "\n"


class DeferredAcceptance:
    """A deferred-acceptance run, which a caller may resume.

    ``prop_lists`` and ``recv_rank`` are one side's lists and the other
    side's rank rows, both with the index-0 stub; their lengths size every
    array.  Constructing the run runs it: every proposer proposes, in
    ascending index order so runs are reproducible, although the outcome is
    order-independent.  ``prop_match`` is the 1-based proposer -> receiver
    assignment and ``recv_match`` its inverse (0 = unmatched).  ``held[r]``
    is the rank r gives her partner; a free receiver holds an imaginary
    proposer ranked past everyone.  Proposer p has proposed to
    ``prop_lists[p][:next_pos[p]]`` and may go on to ``end[p]``; a matched
    proposer's partner is the last of those, at ``next_pos[p] - 1``.
    Between runs a caller may free matched pairs, clearing both matches,
    and lower ``end``; a receiver left free keeps her ``held`` rank, so she
    takes only proposers she ranks above the one she lost.  The next
    :meth:`propose` continues from there.  The rotation walk
    (:func:`rotations.find_rotations`) continues a finished men-proposing
    run the same way, in place.
    """

    __slots__ = ("prop_lists", "recv_rank", "end", "next_pos", "prop_match", "recv_match", "held")

    def __init__(self, prop_lists: Sequence[Sequence[int]], recv_rank: Sequence[Sequence[int]]):
        self.prop_lists = prop_lists
        self.recv_rank = recv_rank
        self.end = [len(lst) for lst in prop_lists]
        self.next_pos = [0] * len(prop_lists)
        self.prop_match = [0] * len(prop_lists)
        self.recv_match = [0] * len(recv_rank)
        self.held = [sys.maxsize] * len(recv_rank)
        self.propose(list(range(1, len(prop_lists))))

    def copy(self) -> "DeferredAcceptance":
        """A run in the same state that resumes on its own: the five arrays
        are copied, the lists and rank rows shared."""
        other = DeferredAcceptance.__new__(DeferredAcceptance)
        other.prop_lists, other.recv_rank = self.prop_lists, self.recv_rank
        other.end, other.next_pos = self.end[:], self.next_pos[:]
        other.prop_match, other.recv_match, other.held = (
            self.prop_match[:], self.recv_match[:], self.held[:]
        )
        return other

    def propose(self, free: list[int]) -> list[int]:
        """Let the free proposers propose until every one is held or exhausted.

        Each proposer displaced on the way is appended to ``free``, which is
        returned: every proposer that moved, in the order they proposed.
        """
        prop_lists, recv_rank, end, next_pos = self.prop_lists, self.recv_rank, self.end, self.next_pos
        prop_match, recv_match, held = self.prop_match, self.recv_match, self.held
        for p in free:
            lst = prop_lists[p]
            i, stop = next_pos[p], end[p]
            while i < stop:
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
        return free


def preprocess(inst: Instance) -> Instance:
    """Reduce an instance to its stable-pair band: each agent's list cut to
    its stable partners' span, from best to worst.

    One men-proposing and one women-proposing deferred-acceptance run give
    every agent's best and worst stable partner: the man-optimal and the
    woman-optimal wife of a man, the woman-optimal and the man-optimal
    husband of a woman.  A man's band is the slice of his list between his
    two, less the women who rank him below their worst stable partner, and a
    woman's band holds the men whose bands hold her.  These are Gusfield and
    Irving's GS-lists (*The Stable Marriage Problem*, 1989, section 1.2):
    every pair they drop is in no stable matching, and the result has
    exactly the input's stable matchings, so also its rotations.  Deferred
    acceptance on it makes one proposal per man.

    The same agents are assigned in every stable matching.  Those that no
    stable matching assigns have no stable partners and go, and the rest
    are re-indexed densely, with ``orig_men`` / ``orig_women`` mapping them
    back; every stable matching of the result is perfect.  Kept pairs keep
    the input's ranks, so profiles read the same, though ranks are no longer
    positions in the cut lists.  A kept man who ranked a removed woman at or
    above his woman-optimal wife would block the woman-optimal matching with
    her, since she is unassigned there, and symmetrically for a kept woman
    and the man-optimal matching; so no band names a removed agent, and the
    ranks keep their order.

    The band is :func:`_cut` at each agent's rank of its worst stable
    partner (0 for the removed), with each man's slice starting at his
    man-optimal wife, where the men's run left his pointer.  It is also
    handed each man's woman-optimal wife, so that two agents who are each
    other's one stable partner cost no rank read.  After the runs it reads
    no pair outside the slices, at a cost in proportion to n plus their
    lengths.  When every list already is its band, which one rank read per
    agent tells, the input itself is returned, so the band is a fixed point.
    """
    by_men = DeferredAcceptance(inst.men_lists, inst.women_rank)
    by_women = DeferredAcceptance(inst.women_lists, inst.men_rank)
    # A receiver's held rank is its rank of the partner it ends with, the
    # worst it has in any stable matching; a free receiver's is sys.maxsize.
    men_limit = [0 if r == sys.maxsize else r for r in by_women.held]
    women_limit = [0 if r == sys.maxsize else r for r in by_men.held]
    if _is_band(inst.men_lists, inst.men_rank, by_men.next_pos, men_limit) and _is_band(
        inst.women_lists, inst.women_rank, by_women.next_pos, women_limit
    ):
        return inst
    first = [p - 1 for p in by_men.next_pos]
    return _cut(inst, first, men_limit, women_limit, by_women.recv_match)


def _is_band(lists, rank, next_pos, limit) -> bool:
    """Whether every agent of one side is assigned, its own side's run
    matched it to its first entry, and its last entry is its worst stable
    partner, whose rank is its limit."""
    return all(
        lim and next_pos[i] == 1 and rank[i][lists[i][-1]] == lim
        for i, lim in enumerate(limit) if i
    )


def _cut(
    inst: Instance, first: Sequence[int], men_limit: Sequence[int], women_limit: Sequence[int],
    fixed: Optional[Sequence[int]] = None,
) -> Instance:
    """The pairs (m, w) with w at or after place ``first[m]`` of m's list
    that m ranks within ``men_limit[m]`` and w within ``women_limit[w]``,
    each keeping its rank on both sides.

    An agent whose limit is 0 goes, and the rest are re-indexed densely in
    their order, with ``orig_men`` / ``orig_women`` carried through; entries
    that name a dropped agent fail its limit and go with it.  Ranks are
    never renumbered.  A man's kept women lie in one slice of his list,
    from place ``first[m]`` to the last woman he ranks within his limit.
    Ranks rise by at least one per place, so a woman he ranks at his limit
    ends the slice, and where ranks are positions she sits at the place
    the limit names, the fast path of :meth:`Instance.man_list_position`;
    otherwise the end is found by bisection.  Each slice entry costs one
    read of the woman's rank of him, and each woman's list is her kept men
    sorted by that rank, so the cost is in proportion to n plus the slices'
    lengths, not to the pairs.

    A caller that wants every pair within the limits passes 0 for every
    ``first``; one whose limits are its agents' worst stable partners may
    start each man at his best.  Such a caller may also pass ``fixed``,
    each man's worst stable partner: a man whose best is her too has one
    stable partner, who ranks him at her limit as he ranks her at his, and
    no other man keeps her (he would block the woman-optimal matching with
    her), so both their one-entry lists are built with no rank read.
    """
    men_lists, men_rank, women_rank = inst.men_lists, inst.men_rank, inst.women_rank
    # The new index of each kept agent: the number of kept agents up to it.
    # One int object per agent, shared by every list.
    new_m = list(accumulate((lim > 0 for lim in men_limit[1:]), initial=0))
    new_w = list(accumulate((lim > 0 for lim in women_limit[1:]), initial=0))
    men_width, women_width = new_w[-1] + 1, new_m[-1] + 1
    # Each woman's kept men, as (her rank of him, him) in the men's order,
    # and the man of each woman whose one stable partner ``fixed`` names.
    bucket: list[list[tuple[int, int]]] = [[] for _ in range(inst.n_women + 1)]
    only = [0] * (inst.n_women + 1)
    # A one-entry row is built here as _rank_row would build it.
    men_dicts, women_dicts = 4 < men_width, 4 < women_width
    men_lists_out, men_rows = [()], [_rank_row((), (), men_width)]
    for m in range(1, inst.n_men + 1):
        lim = men_limit[m]
        if not lim:
            continue
        lst, own, a = men_lists[m], men_rank[m], first[m]
        if fixed and lst[a] == fixed[m]:
            w = lst[a]
            only[w] = m
            w = new_w[w]
            men_lists_out.append((w,))
            men_rows.append({w: lim} if men_dicts else _rank_row((w,), (lim,), men_width))
            continue
        b = lim if lim <= len(lst) and own[lst[lim - 1]] == lim else (
            bisect_right(lst, lim, a, key=own.__getitem__)
        )
        kept = []
        for w in lst[a:b]:
            r = women_rank[w][m]
            if r <= women_limit[w]:
                kept.append(w)
                bucket[w].append((r, m))
        ranks = map(own.__getitem__, kept)
        kept = tuple(map(new_w.__getitem__, kept))
        men_lists_out.append(kept)
        men_rows.append(_rank_row(kept, ranks, men_width))
    women_lists_out, women_rows = [()], [_rank_row((), (), women_width)]
    for w in range(1, inst.n_women + 1):
        lim = women_limit[w]
        if not lim:
            continue
        m = only[w]
        if m:
            m = new_m[m]
            women_lists_out.append((m,))
            women_rows.append({m: lim} if women_dicts else _rank_row((m,), (lim,), women_width))
            continue
        pairs = bucket[w]
        pairs.sort()
        kept = tuple([new_m[m] for _, m in pairs])
        women_lists_out.append(kept)
        women_rows.append(_rank_row(kept, [r for r, _ in pairs], women_width))
    return Instance(
        tuple(men_lists_out), tuple(women_lists_out), tuple(men_rows), tuple(women_rows),
        (0, *compress(inst.orig_men[1:], men_limit[1:])),
        (0, *compress(inst.orig_women[1:], women_limit[1:])),
    )


def profile_of(inst: Instance, matching: Matching) -> Profile:
    """Profile of a matching: entry k counts men plus women at rank k."""
    matching.validate_in(inst)
    counts: dict[int, int] = {}
    for m, w in matching:
        rm = inst.men_rank[m][w]
        rw = inst.women_rank[w][m]
        counts[rm] = counts.get(rm, 0) + 1
        counts[rw] = counts.get(rw, 0) + 1
    return Profile.from_counts(counts)
