"""Rotations: extraction, precedence digraph, and closed-subset elimination.

A rotation is an ordered cycle of man-woman pairs inside a stable matching;
re-assigning each man to the next woman in the cycle yields another stable
matching one step down the man-lattice.  Every run from the man-optimal to
the woman-optimal matching eliminates each rotation of the instance exactly
once, which is how :func:`find_rotations` collects them all.  It finds them
in one depth-first walk over the men's successor pointers that continues
the deferred-acceptance run that reached the man-optimal matching, in
place: its proposal pointers become the scan pointers, no list position is
searched for, and the same pass records each rotation's immediate
predecessors, so the whole poset costs O(m) for the m acceptable pairs
(Gusfield & Irving, *The Stable Marriage Problem*, 1989, section 3.3).
Men whose pointer starts at their list end, who hold their one stable
partner in every stable matching, are marked dead before the walk and
never visited: it visits each of the other men once, plus once per
rotation pair and per rotation.
:func:`build_digraph` only assembles what the walk recorded.

The digraph records two kinds of forced precedence between rotations:

* type 1 -- a rotation containing pair (m, w) is preceded by the unique
  rotation that moves m to w;
* type 2 -- a rotation moving m below some woman w is preceded by the
  rotation that moves w above m (when that is a different rotation).

Predecessor-closed vertex sets of this digraph correspond one-to-one with
the stable matchings of the instance.  :class:`RotationDigraph` keeps each
node's labelled predecessors and nothing else, and only this module reads
them: the flow network and the walk over closed sets read
:meth:`~RotationDigraph.predecessors`, the edge list is built only when
:meth:`~RotationDigraph.edges` is called, and the transitive reduction
(:attr:`~RotationDigraph.reduction`, which has the same closed sets) on
first read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .model import DeferredAcceptance, Instance, Matching
from .profiles import Profile
from .stability import _man_optimal_run


@dataclass(frozen=True, eq=False)
class Rotation:
    """A rotation: cycle[i] = (man, his current wife); he moves to cycle[i+1]'s woman.

    ``profile`` is the profile change of eliminating it, and
    ``rank_change`` the change ``(dm, dw)`` in the men's and the women's
    total rank.  Only the profile criteria (rank-maximal, generous) and the
    exponential-weight oracle read profiles, and only egalitarian and
    sex-equal read rank changes, so each is built from the cycle and the
    instance's rank tables on first read and then kept on the rotation.
    ``_preds`` holds its immediate predecessors in the precedence digraph,
    each with its label set, as the walk that found it recorded them
    (None on a rotation made any other way).
    Equality and hashing cover ``rid``, ``cycle`` and ``profile``.
    """

    rid: int
    cycle: tuple[tuple[int, int], ...]
    _inst: Instance = field(repr=False)
    _preds: Optional[dict[int, frozenset[int]]] = field(default=None, repr=False)

    @cached_property
    def profile(self) -> Profile:
        return _cycle_profile(self._inst, self.cycle)

    @cached_property
    def rank_change(self) -> tuple[int, int]:
        return _rank_change(self._inst, self.cycle)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rotation):
            return NotImplemented
        return (self.rid, self.cycle, self.profile) == (other.rid, other.cycle, other.profile)

    def __hash__(self) -> int:
        return hash((self.rid, self.cycle, self.profile))


class RotationDigraph:
    """Directed graph over rotation ids with label sets on the edges, kept
    as each node's labelled predecessors, ``_into[v]`` (``{u: labels}``),
    and the same predecessors ascending, ``_preds[v]``."""

    def __init__(self, size: int, edge_labels: dict[tuple[int, int], frozenset[int]]):
        into: list[dict[int, frozenset[int]]] = [{} for _ in range(size)]
        for (u, v), labs in edge_labels.items():
            if not (0 <= u < size and 0 <= v < size):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{size - 1}")
            into[v][u] = labs
        self._adopt(into)

    @classmethod
    def _of_predecessors(cls, into: list[dict[int, frozenset[int]]]) -> RotationDigraph:
        """The digraph whose node v has the labelled predecessors ``into[v]``
        (``{u: labels}``), which it keeps without copying them."""
        digraph = cls.__new__(cls)
        digraph._adopt(into)
        return digraph

    def _adopt(self, into: list[dict[int, frozenset[int]]]) -> None:
        self._into = into
        self._preds = tuple(tuple(sorted(p)) for p in into)

    @property
    def size(self) -> int:
        return len(self._preds)

    def edges(self) -> tuple[tuple[int, int, frozenset[int]], ...]:
        """Every edge as a ``(u, v, labels)`` triple, sorted by ``(u, v)``,
        built on each call."""
        into = self._into
        return tuple(sorted((u, v, labs) for v, p in enumerate(into) for u, labs in p.items()))

    @cached_property
    def reduction(self) -> RotationDigraph:
        """The transitive reduction (Aho, Garey & Ullman, 1972), whose kept
        edges carry this digraph's label sets.

        It has the same ancestors, so the same closed sets, with the fewest
        edges.  Every edge must run from a lower id to a higher, as
        :func:`build_digraph`'s do (ids are a topological order), so one
        pass in id order holds each node's ancestors as an int bitmask: a
        node's predecessors are read in descending id, and one is kept only
        if no later one already reaches it.  A digraph where no node has two
        predecessors, such as a chain, is already reduced and is returned.
        """
        preds, labels = self._preds, self._into
        if all(len(p) < 2 for p in preds):
            return self
        reach: list[int] = []  # each node's ancestors, itself included
        into: list[dict[int, frozenset[int]]] = []
        for v, p in enumerate(preds):
            mask, kept = 0, {}
            for u in reversed(p):
                if not mask >> u & 1:
                    kept[u] = labels[v][u]
                    mask |= reach[u]
            reach.append(mask | 1 << v)
            into.append(kept)
        return RotationDigraph._of_predecessors(into)

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._preds[v]

    def ancestors(self, seeds) -> frozenset[int]:
        """Seeds plus everything reachable from them along predecessor edges."""
        out = set(seeds)
        stack = list(out)
        while stack:
            v = stack.pop()
            for u in self._preds[v]:
                if u not in out:
                    out.add(u)
                    stack.append(u)
        return frozenset(out)

    def is_closed(self, subset) -> bool:
        s = set(subset)
        return all(u in s for v in s for u in self._preds[v])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RotationDigraph) and self._into == other._into

    def __repr__(self) -> str:
        return f"RotationDigraph(size={self.size}, edges={self.edges()!r})"


def find_rotations(inst: Instance) -> list[Rotation]:
    """All rotations of a preprocessed instance, in discovery order.

    Walks the man-lattice downward from the man-optimal matching.  For each
    man m the next woman on his list who strictly prefers m to her current
    partner defines a successor pointer; cycles of the successor map are
    exactly the rotations currently exposed, and eliminating them until none
    remain visits every rotation of the instance exactly once.  One
    depth-first walk follows the pointers from each man in turn and
    eliminates each cycle as it closes (see :func:`_rotations_from`).

    The walk continues the deferred-acceptance run that reached the
    man-optimal matching, from its own state: each man's scan pointer starts
    where his proposals stopped, one past his wife.  Pointers only ever
    advance (a woman who once rejected m keeps rejecting him as her partners
    improve), so deferred acceptance and the walk together advance each
    pointer at most once per acceptable pair, and the walk reads one rank
    more per visit of a man: O(m) in all.  On a preprocessed instance the
    pairs are the band's, each man's list ending at his woman-optimal wife:
    a few percent of the input's pairs on complete lists.
    The walk knows nothing of truncations: continuing the run of one, whose
    list ends are already cut, finds that truncation's rotations.

    The same pass records each rotation's immediate predecessors on it:
    the rotation that last moved each of its men (type 1), and for each
    woman a man's pointer passes on the way to his next wife, the move
    that took her above him (type 2, found by bisection over her moves,
    with the rank the pointer test has just read).  :func:`build_digraph`
    assembles them, so the poset costs this one pass.

    Rotation ids are a topological order of the precedence digraph: every
    edge u -> v has u < v.  A rotation is given its id when it is
    eliminated, and it can be eliminated only once it is exposed, which is
    after all of its predecessors have been eliminated and numbered.
    """
    return _rotations_from(inst, _man_optimal_run(inst))


_TYPE1, _TYPE2, _BOTH = frozenset({1}), frozenset({2}), frozenset({1, 2})


def _rotations_from(inst: Instance, run: DeferredAcceptance) -> list[Rotation]:
    """:func:`find_rotations`, continuing ``run``, a finished men-proposing
    run at the man-optimal matching of ``inst`` or of a truncation of it,
    whose state it advances.

    The run's arrays are the walk's: ``prop_match`` the wives,
    ``recv_match`` the husbands, ``held`` the rank each woman gives her
    husband (kept up to date as rotations are eliminated, so the pointer
    test reads one rank), ``next_pos`` the scan pointers and ``end`` the
    list ends, which no man scans past.  No list position is searched for.
    ``found`` keeps the rank each man's successor gives him, read by the
    scan that found her, which is what she holds once he moves to her.

    One depth-first walk follows successor pointers along a path of men,
    each man's successor being the next man on it; ``at`` holds each man's
    place on the path (-1 off it), so a cycle closes in O(1).  A man whose
    pointer has run out, or leads to a dead man, can never move again (the
    woman it points at keeps a husband who never moves, and so keeps
    preferring him); he and every man on the path behind him are dead for
    good, and never visited again.  A man whose pointer starts at his list
    end (on a sparse band, nearly every man: he has one stable partner) is
    dead before the walk starts.  A path starts at a man taken off a to-do
    stack, which holds the live men in ascending order at first.  A closed
    cycle is cut off the path and eliminated, its men go back on the stack
    (at most once each: ``queued`` marks the men on it), and the walk goes
    on from the man now on top of the path, whose successor alone has
    changed.

    Each list entry is read at most once as a pointer passes it, and each
    visit of a man reads one rank more; an elimination reads none.  Only
    live men join the path, and each leaves it either dead, which happens
    once for good, or in an eliminated cycle, once per rotation pair; and
    each elimination has the man left on top visited again.  So the walk
    makes at most (live men) + (rotation pairs) + (rotations) visits, and
    costs O(m) after the O(n) pass that marks the dead.

    The walk records each rotation's immediate predecessors as it goes,
    which :func:`build_digraph` assembles (Gusfield, SIAM J. Comput. 1987):

    * type 1 -- ``last`` holds the rotation that last moved each man, which
      moved him to his current wife: it precedes the rotation that moves
      him next.
    * type 2 -- each woman's partners only improve, so her partner ranks
      fall along her moves.  ``moves`` keeps, per woman who moves, the
      rotations that move her and, negated, the rank of the partner she
      started with and of each one they give her (ascending, read from
      ``found``).  A pointer passes a woman who ranks her husband above the
      man m scanning, at the rank r just read; so the move that took her
      from a partner ranked at or below m to one above him, if she started
      below him, is already recorded, and a bisection at -r finds it.  Its
      rotation is ``pending`` for m's next rotation, the one that moves him
      past her.

    Each rotation keeps its predecessors once each, labelled by type.
    """
    n = inst.n_men
    if n == 0:
        return []
    wife, husband, held, ptr, end = run.prop_match, run.recv_match, run.held, run.next_pos, run.end
    if inst.n_women != n or not all(wife[1:]):
        raise ValueError("rotation extraction requires a preprocessed instance")
    men_lists, women_rank = inst.men_lists, inst.women_rank

    rotations: list[Rotation] = []
    last = [-1] * (n + 1)  # the rotation that last moved each man
    pending: list[Optional[list[int]]] = [None] * (n + 1)  # type-2 predecessors of his next
    moves: list[Optional[tuple[list[int], list[int]]]] = [None] * (n + 1)

    def extract(cycle_men: list[int]) -> None:
        # Canonical form: start the cycle at its smallest man index.
        lead = cycle_men.index(min(cycle_men))
        cycle_men = cycle_men[lead:] + cycle_men[:lead]
        rid = len(rotations)
        wives = [wife[m] for m in cycle_men]
        preds: dict[int, frozenset[int]] = {}  # immediate predecessor -> edge labels
        passed: list[int] = []
        for m, w in zip(cycle_men, wives[1:] + wives[:1]):
            preds[last[m]] = _TYPE1
            last[m] = rid
            q = pending[m]
            if q is not None:
                passed += q
                pending[m] = None
            r = found[m]
            mv = moves[w]
            if mv is None:
                moves[w] = ([rid], [-held[w], -r])
            else:
                mv[0].append(rid)
                mv[1].append(-r)
            wife[m] = w
            husband[w] = m
            held[w] = r
            ptr[m] += 1
        preds.pop(-1, None)  # men the walk had not moved yet
        for u in passed:
            labs = preds.get(u)
            preds[u] = _TYPE2 if labs is None or labs is _TYPE2 else _BOTH
        rotations.append(Rotation(rid, tuple(zip(cycle_men, wives)), inst, preds))

    at = [-1] * (n + 1)  # each man's place on the path, -1 when off it
    found = [0] * (n + 1)  # the rank each man's successor gives him
    dead = [p >= e for p, e in zip(ptr, end)]  # men who can never move again
    queued = [not d for d in dead]  # men on the to-do stack
    todo = [m for m in range(n, 0, -1) if queued[m]]  # popped in ascending order at first
    path: list[int] = []
    while True:
        if path:
            m = path[-1]
        else:
            while todo:
                m = todo.pop()
                queued[m] = False
                if not dead[m]:
                    break
            else:
                return rotations
            at[m] = 0
            path.append(m)
        lst = men_lists[m]
        p, stop = ptr[m], end[m]
        nxt = 0
        while p < stop:
            w = lst[p]
            r = women_rank[w][m]
            if r < held[w]:
                nxt, found[m] = w, r
                break
            mv = moves[w]
            if mv is not None:
                # Her first move to a partner above m; none (j = 0) if she
                # started above him.
                j = bisect_right(mv[1], -r)
                if j:
                    q = pending[m]
                    if q is None:
                        pending[m] = [mv[0][j - 1]]
                    else:
                        q.append(mv[0][j - 1])
            p += 1
        ptr[m] = p
        h = husband[nxt]
        if not nxt or dead[h]:
            for x in path:
                dead[x] = True  # off the path for good: ``at`` is never read again
            path.clear()
            continue
        i = at[h]
        if i < 0:
            at[h] = len(path)
            path.append(h)
            continue
        cycle = path[i:]
        del path[i:]
        for x in cycle:
            at[x] = -1
            if not queued[x]:
                queued[x] = True
                todo.append(x)
        extract(cycle)


def _cycle_profile(inst: Instance, cycle: tuple[tuple[int, int], ...]) -> Profile:
    """Profile change of eliminating ``cycle``: each man moves to the next
    pair's woman, who trades the next pair's man for him."""
    men_rank, women_rank = inst.men_rank, inst.women_rank
    delta: dict[int, int] = {}
    get = delta.get
    for (m, w), (m_next, w_next) in zip(cycle, cycle[1:] + cycle[:1]):
        m_row, w_row = men_rank[m], women_rank[w_next]
        r = m_row[w_next]
        delta[r] = get(r, 0) + 1
        r = w_row[m]
        delta[r] = get(r, 0) + 1
        r = m_row[w]
        delta[r] = get(r, 0) - 1
        r = w_row[m_next]
        delta[r] = get(r, 0) - 1
    return Profile.from_counts(delta)


def _rank_change(inst: Instance, cycle: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """``(dm, dw)``: how much eliminating ``cycle`` raises the men's and the
    women's total rank.  Egalitarian weighs ``dm + dw``, the change in cost,
    and sex-equal steps by ``dm - dw``; neither reads a profile."""
    men_rank, women_rank = inst.men_rank, inst.women_rank
    dm = dw = 0
    # m leaves w for w_next, who leaves m_next for m.
    for (m, w), (m_next, w_next) in zip(cycle, cycle[1:] + cycle[:1]):
        row = men_rank[m]
        dm += row[w_next] - row[w]
        row = women_rank[w_next]
        dw += row[m] - row[m_next]
    return dm, dw


def build_digraph(inst: Instance, rotations: list[Rotation]) -> RotationDigraph:
    """Precedence digraph with type-1/type-2 labels (merged per edge).

    Assembled from the immediate predecessors the walk that found the
    rotations recorded on each of them (see :func:`_rotations_from`); it
    reads no preference list and no rank.  ``rotations`` must be one walk's
    on ``inst``, as :func:`find_rotations` returns them; a rotation made any
    other way, or on another instance, is a ValueError.
    """
    for rot in rotations:
        if rot._preds is None or rot._inst is not inst:
            raise ValueError(
                f"rotation {rot.rid} was not found by the rotation walk on this instance"
            )
    return RotationDigraph._of_predecessors([rot._preds for rot in rotations])


def apply_rotation(wife: list[int], cycle) -> None:
    """Advance each cycle man to the next woman, in place.  Checks only that the
    rotation's pairs are present in ``wife``, which does not make it exposed."""
    for m, w in cycle:
        if wife[m] != w:
            raise RuntimeError(f"rotation pair ({m},{w}) absent; rotation not exposed")
    for (m, _), (_, w_next) in zip(cycle, cycle[1:] + cycle[:1]):
        wife[m] = w_next


def eliminate_closed_subset(
    inst: Instance,
    man_opt: Matching,
    rotations: list[Rotation],
    digraph: RotationDigraph,
    subset,
) -> Matching:
    """Stable matching reached by eliminating a predecessor-closed rotation set.

    The subset is validated eagerly; its rotations are applied in id
    order, a topological order (see :func:`find_rotations`), so each is
    exposed when its turn comes (only the presence of its pairs is checked).
    """
    chosen = frozenset(subset)
    for rid in chosen:
        if not 0 <= rid < len(rotations):
            raise ValueError(f"unknown rotation id {rid}")
    if not digraph.is_closed(chosen):
        raise ValueError("rotation subset is not predecessor-closed")
    wife = man_opt.wife_array(inst.n_men)
    for rid in sorted(chosen):
        apply_rotation(wife, rotations[rid].cycle)
    return Matching.from_wife_array(wife)

