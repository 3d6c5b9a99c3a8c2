"""Labelled strict partial orders and the interval-to-poset construction.

A poset is its elements 0..n-1, its strict order and its unary labels;
elements carry no names.  The order is stored transitively closed, as
packed bit rows (the form ``LabeledGraph`` keeps its adjacency in), since
formula evaluation queries arbitrary pairs and instances are desk-scale.
The rows are given to the constructor, either as pairs or as the rows
themselves, and cannot be reassigned afterwards.  Every instance poset is a
few known chains and the links between them, so its rows are written closed
in one backward sweep over the chains: ``_ranked_interval_poset`` writes the
interval, circular-arc, circle, permutation and box instances, and
``_chain_rows`` the unit-disk and visibility instances from the chains and
links their builders declare.  ``transitive_closure`` closes
generating pairs in one pass over a topological order, which rejects every
cycle; ``fileio.read_poset`` checks a poset file's relation against it.
``validate_poset`` checks a poset built any other way, on its bit rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import GeomfoError


class PosetError(GeomfoError):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str  # "irreflexivity" | "antisymmetry" | "transitivity"
    pair: tuple[int, ...]

    def __str__(self):
        return f"{self.kind} violated at {self.pair}"


class LabeledPoset:
    """Elements 0..n-1 with a strict order and named label sets.

    The order is given as pairs ``lt``, as ``rows`` (bit b of ``rows[a]``
    set iff a < b) or as both (their union), and is fixed at construction.
    """

    def __init__(self, n: int, lt: Iterable[tuple[int, int]] = (),
                 labels: Optional[dict[str, Iterable[int]]] = None,
                 rows: Optional[Sequence[int]] = None):
        self.n = n
        acc = list(rows) if rows is not None else [0] * n
        if len(acc) != n or acc and (min(acc) < 0 or max(acc) >> n):
            raise PosetError(f"order needs {n} rows of bits 0..{n - 1}")
        for a, b in lt:
            if not (0 <= a < n and 0 <= b < n):
                raise PosetError(f"pair ({a},{b}) outside 0..{n - 1}")
            acc[a] |= 1 << b
        self._rows: tuple[int, ...] = tuple(acc)
        labs = {}
        for name, vs in (labels or {}).items():
            vs = frozenset(vs)
            if any(not 0 <= v < n for v in vs):
                raise PosetError(f"label {name!r} mentions element outside 0..{n - 1}")
            labs[name] = vs
        self.labels: dict[str, frozenset[int]] = labs

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    def lt(self, a: int, b: int) -> bool:
        return bool(self._rows[a] >> b & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in range(self.n) if self.lt(a, b)]

    def __repr__(self):
        return f"LabeledPoset(n={self.n}, pairs={sum(r.bit_count() for r in self._rows)})"


def transitive_closure(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Rows of the transitive closure of ``pairs``, in one pass over a topological order.

    Raises PosetError on a pair outside 0..n-1 or on a cycle (a self-pair
    included), since neither generates a strict order.
    """
    rows = [0] * n  # direct successors first, closed in place below
    indegree = [0] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise PosetError(f"pair ({a},{b}) outside 0..{n - 1}")
        if not rows[a] >> b & 1:
            rows[a] |= 1 << b
            indegree[b] += 1
    order = [a for a in range(n) if not indegree[a]]
    for a in order:  # Kahn: order grows while it is read
        todo = rows[a]
        while todo:
            b = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            indegree[b] -= 1
            if not indegree[b]:
                order.append(b)
    if len(order) < n:
        raise PosetError("generating pairs contain a cycle")
    for a in reversed(order):
        acc = todo = rows[a]
        while todo:
            b = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            acc |= rows[b]
        rows[a] = acc
    return rows


def validate_poset(p: LabeledPoset) -> Optional[Violation]:
    """First irreflexivity/antisymmetry/transitivity violation, or None.

    A row holding its own bit is an irreflexivity violation.  Otherwise the
    rows are scanned in order for the first a and b above a whose row is
    not inside a's: reported as antisymmetry when a itself is missing
    (a < b and b < a), as transitivity at (a, b, c) for the least missing c
    otherwise.  An irreflexive, transitive relation is antisymmetric.
    """
    rows = p.rows
    for a, row in enumerate(rows):
        if row >> a & 1:
            return Violation("irreflexivity", (a,))
    for a, row in enumerate(rows):
        todo = row
        while todo:
            b = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            missing = rows[b] & ~row
            if missing:
                if missing >> a & 1:
                    return Violation("antisymmetry", (a, b))
                c = (missing & -missing).bit_length() - 1
                return Violation("transitivity", (a, b, c))
    return None


def _chain_rows(size: int, main: Sequence[int], chains: Sequence[Sequence[tuple[int, int]]],
                links: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Closed rows on elements 0..size-1 of a main chain and side chains
    linked to it, written in one backward sweep with no closure pass.

    ``main`` and each side chain list their elements from least to greatest,
    a side element as (element, the main element it lies below or -1);
    ``links[t]`` lists the (chain, position) of every side element that
    ``main[t]`` lies below.  These pairs generate the order.  At each main
    element, from the top down, the chains it links to are swept backwards
    just down to its links, and the rest of each chain at the end.  Every
    row is complete when read if a side element swept at ``main[t]`` links
    up only after ``main[t]``, and on each chain the links of ``main[t]`` lie
    no higher than those of later main elements; each builder cites the
    fact that gives these two conditions.
    """
    rows = [0] * size
    reached = [len(chain) for chain in chains]
    above = [0] * len(chains)  # each chain's elements from ``reached`` on, and all above them

    def sweep(c: int, stop: int) -> None:
        chain, t, acc = chains[c], reached[c], above[c]
        while t > stop:
            t -= 1
            e, up = chain[t]
            if up >= 0:
                acc |= 1 << up | rows[up]
            rows[e] = acc
            acc |= 1 << e
        reached[c], above[c] = t, acc

    after = 0  # the main elements after m, and all above them
    for m, at in zip(reversed(main), reversed(links)):
        acc = after
        for c, pos in at:
            sweep(c, pos)
            acc |= above[c]
        rows[m] = acc
        after = acc | 1 << m
    for c in range(len(chains)):
        sweep(c, 0)
    return rows


def _ranked_interval_poset(by_value: Sequence[int], rank: Sequence[int], parts: Sequence,
                           labels: Optional[dict[str, Iterable[int]]] = None
                           ) -> tuple[LabeledPoset, list[int]]:
    """Poset on endpoints plus intervals for a k-fold proper family, on
    endpoint ranks.

    Interval i has ends at positions 2i and 2i+1; ``by_value`` lists the end
    positions in increasing order, ties broken (see
    ``interpret._ranked_ends``), and ``rank`` gives each position's place in
    it, so the ranks are distinct and rank[2i] < rank[2i+1].  ``parts``
    assigns each interval to a proper part (any hashable part ids; each part
    must be nest-free).  Endpoints carry label ``D`` and are ordered by
    rank; each part is ordered left to right; an interval sits above its
    left end and below its right end.  ``labels`` names further label sets
    by interval index.  Element ids: the end of rank r is element r, and
    interval i is element 2m + i of m intervals.  Returns the poset and the
    element id of each interval.

    The rows are written closed in one sweep from the highest rank down, with
    no closure pass.  The endpoint at rank r is below every endpoint above
    it and every interval whose left end ranks at or after r.  Interval i,
    with right-end rank R, is below endpoint R and all that is above it, and
    below the intervals after i in its part.  That is the whole order: a
    path from i through an endpoint passes R, and a step along a proper part
    raises both ends.  Raises PosetError on a part that is not proper,
    naming two of its neighbours in left-end order that nest.
    """
    nd = len(by_value)
    interval_ids = list(range(nd, nd + nd // 2))
    rows = [0] * (nd + nd // 2)
    above = 0  # endpoints above rank r and intervals whose left end ranks at or after r
    tail: dict = {}  # each part: its interval of least left-end rank after r, all of them as bits
    for r in range(nd - 1, -1, -1):
        e = by_value[r]
        if not e & 1:  # the left end of interval i
            i, pid, right = e >> 1, parts[e >> 1], rank[e + 1]
            iid = interval_ids[i]
            b, later = tail.get(pid, (None, 0))
            # on distinct ranks, a part nests iff two neighbours in
            # left-end order do
            if b is not None and rank[2 * b + 1] < right:
                raise PosetError(f"part {pid!r} is not proper: "
                                 f"interval {i} contains interval {b}")
            rows[iid] = rows[right] | 1 << right | later
            tail[pid] = i, later | 1 << iid
            above |= 1 << iid
        rows[r] = above
        above |= 1 << r

    all_labels = {"D": range(nd)}
    for name, members in (labels or {}).items():
        all_labels[name] = [interval_ids[i] for i in members]
    return LabeledPoset(nd + nd // 2, (), all_labels, rows=rows), interval_ids
