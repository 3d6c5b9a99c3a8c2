"""Poset interpretations for each tractable geometric class.

``make_instance(cls, rep)`` is the one constructor of an
InterpretationInstance: a labelled poset, the pair (nu, psi) over it, the
map from graph vertices to poset elements, and the class's width bound.
The defining property, checked wholesale by the test suite through
``generators.graph_interpretation``, is that the interpreted graph equals
the geometric graph: the vertex map lists nu's elements in ascending
order, and uv is an edge iff the poset models psi(u,v) | psi(v,u).

Each intersection class is built on its grid, ``geometry._grid``, which
checks the representation and gives its objects' coordinates as ints at
one scale.  Interval, circular-arc, circle and box ends stay where they
are: one sort by ``_tie_keys``, a rule on the ints that breaks every tie,
ranks them, and the ranks go straight to the poset; no ``Fraction`` is
made.  When the rule broke a tie, the objects on their ranks must meet where
the objects meet.  ``make_instance`` rescales once and finds the meeting
pairs only for that check; ``_build``, the build ``model_check`` runs,
rescales once for the graph and the instance together, and the check
compares against the meeting pairs the graph was built from.

Every poset's rows are written closed, in one backward sweep over the
chains it is made of; the unit-disk and visibility builders declare their
chains and links and ``poset._chain_rows`` writes the rows.  No build runs
a closure pass or a check of the order.  Poset elements carry no names:
each builder documents which element ids its ends, disks, chord ends,
vertices and copies take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .formula import (And, Eq, Exists, Forall, Formula, Implies, Interpretation,
                      Label, Leq, Not, Or, Var, X, Y, big_and, big_or)
from .geometry import (GeometryError, LabeledGraph, PermSegment, Polygon, Representation,
                       _grid, _pair_arrays, _permutation_ranks, _proper_parts,
                       _rank_chord_ends, _single_polygon, increasing_run_lengths,
                       polygon_report, visibility_graph)
from .poset import LabeledPoset, _chain_rows, _ranked_interval_poset

Z = Var("z")


@dataclass
class InterpretationInstance:
    poset: LabeledPoset
    interp: Interpretation
    vertex_map: list[int]
    width_bound: int
    provenance: dict
    complemented: bool = False


# ---------------------------------------------------------------------------
# the three interval-poset formulas

def interval_nu() -> Formula:
    return Not(Label("D", X))


def interval_psi(label: str = "D") -> Formula:
    """True iff no endpoint (element labelled ``label``) sits between the
    intervals x and y, i.e. they intersect."""
    return Forall(Z, Implies(
        Label(label, Z),
        And(Or(Not(Leq(X, Z)), Not(Leq(Z, Y))),
            Or(Not(Leq(Y, Z)), Not(Leq(Z, X)))),
    ))


def interval_theta(x: Var = X, y: Var = Y, z: Var = Z) -> Formula:
    """True iff interval x is contained in interval y."""
    return Forall(z, Implies(
        Label("D", z),
        And(Implies(Leq(z, y), Leq(z, x)),
            Implies(Leq(y, z), Leq(x, z))),
    ))


def _tie_keys(cls: str, scale: int, keys: Sequence[int]) -> list[tuple]:
    """The sort key of each end of an interval, arc or chord family: object
    j's first end is ``keys[2j]`` and its second ``keys[2j+1]``, ints at
    ``scale`` (one turn, on the circle).

    The one rule for tied ends, which changes no pair's meeting.  Interval
    and arc ends at one value are ordered as if object j grew by j + 1
    infinitesimals at each end: first ends before second ends, so closed
    ends that touch still overlap, first ends in decreasing and second ends
    in increasing object order.  An arc that starts at angle 0 starts one
    full turn on, so it wraps.  Chord ends at one point fan out, the chord
    whose other end lies farther clockwise first, so chords from one point
    do not cross; equal chords anti-align.  The object index makes every
    key distinct.
    """
    if cls == "circle":
        return [(v, -((keys[e ^ 1] - v) % scale), e >> 1 if v < keys[e ^ 1] else -(e >> 1))
                for e, v in enumerate(keys)]
    arcs = cls == "circular_arc"
    return [(v, 1, e >> 1) if e & 1 else (scale if arcs and v == 0 else v, 0, -(e >> 1))
            for e, v in enumerate(keys)]


def _ranked_ends(cls: str, scale: int, keys: Sequence[int],
                 pairs: Optional[tuple] = None):
    """The interval family of the objects of ``cls`` with ends (keys[2j],
    keys[2j+1]) at ``scale``, on ranks from one sort by ``_tie_keys``.

    An object whose first end ranks after its second (a wrapping arc, or a
    chord whose first end is the later one) is flipped: its two ends swap
    places.  When the rule broke a tie, the objects with their ends replaced
    by their ranks, in each object's own order, must meet exactly where the
    objects meet, which ``pairs`` gives when known.  Returns whether each
    pair was flipped, and, with every flipped pair's ends swapped, the end
    positions in increasing order and the rank of each position.
    """
    tie = _tie_keys(cls, scale, keys)
    by_value = sorted(range(len(tie)), key=tie.__getitem__)
    rank = [0] * len(tie)
    for r, e in enumerate(by_value):
        rank[e] = r
    if any(tie[a][0] == tie[b][0] for a, b in zip(by_value, by_value[1:])):
        if pairs is None:
            pairs = _pair_arrays(cls, keys, scale)
        if not all(map(np.array_equal, pairs, _pair_arrays(cls, rank, len(rank)))):
            raise GeometryError("breaking endpoint ties changed the intersection graph")
    flipped = [rank[e] > rank[e + 1] for e in range(0, len(rank), 2)]
    at = [e ^ flipped[e >> 1] for e in range(len(rank))]  # where each end goes; an involution
    return flipped, [at[e] for e in by_value], [rank[e] for e in at]


def _interval_instance(scale: int, keys: Sequence[int],
                       pairs: Optional[tuple] = None) -> InterpretationInstance:
    _, by_value, rank = _ranked_ends("interval", scale, keys, pairs)
    k, parts = _proper_parts(by_value, rank)
    poset, ids = _ranked_interval_poset(by_value, rank, parts)
    interp = Interpretation(interval_nu(), interval_psi(), frozenset({"D"}))
    return InterpretationInstance(poset, interp, ids, k + 1,
                                  {"class": "interval", "k": k})


def _arc_instance(scale: int, keys: Sequence[int],
                  pairs: Optional[tuple] = None) -> InterpretationInstance:
    # a wrapping arc (its start ranks after its end) stands for its
    # complement [end, start], which avoids 0; it is red
    red, by_value, rank = _ranked_ends("circular_arc", scale, keys, pairs)
    k_plain, _ = _proper_parts([e for e in by_value if not red[e >> 1]], rank)
    k_red, _ = _proper_parts([e for e in by_value if red[e >> 1]], rank)
    k_b, parts = _proper_parts(by_value, rank)
    poset, ids = _ranked_interval_poset(by_value, rank, parts,
                                        {"red": [i for i, r in enumerate(red) if r]})

    psi1 = big_or([
        And(Label("red", X), Label("red", Y)),
        big_and([Not(Label("red", X)), Not(Label("red", Y)), interval_psi()]),
        big_and([Label("red", X), Not(Label("red", Y)),
                 Not(interval_theta(Y, X))]),
    ])
    interp = Interpretation(interval_nu(), psi1, frozenset({"D", "red"}))
    k = max(k_plain, k_red)
    return InterpretationInstance(poset, interp, ids, 2 * k + 1,
                                  {"class": "circular_arc", "k": k, "k_flat": k_b})


def _circle_instance(scale: int, keys: Sequence[int],
                     pairs: Optional[tuple] = None) -> InterpretationInstance:
    _, by_value, rank = _ranked_ends("circle", scale, keys, pairs)
    k, parts = _proper_parts(by_value, rank)
    poset, ids = _ranked_interval_poset(by_value, rank, parts)
    sigma = big_and([interval_psi(),
                     Not(interval_theta(X, Y)),
                     Not(interval_theta(Y, X))])
    interp = Interpretation(interval_nu(), sigma, frozenset({"D"}))
    return InterpretationInstance(poset, interp, ids, k + 1,
                                  {"class": "circle", "k": k})


# ---------------------------------------------------------------------------
# permutation graphs

def _longest_chain(top: Sequence[int], bottom: Sequence[int], crossing: bool) -> int:
    """Longest chain of pairwise crossing (or pairwise non-crossing) segments,
    given by their ``_permutation_ranks``: in top-rank order, a longest
    decreasing (or increasing) run of bottom ranks."""
    by_top = [0] * len(top)
    for t, b in zip(top, bottom):
        by_top[t] = -b if crossing else b
    return max(increasing_run_lengths(by_top), default=0)


def _permutation_instance(scale: int, keys: Sequence[int],
                          pairs: Optional[tuple] = None) -> InterpretationInstance:
    """Reduce via circle graphs, complementing when the clique side is smaller.

    ``keys`` holds the segments' (top, bottom) at a common scale.  The
    independence number ``mis`` is a longest chain of pairwise non-crossing
    segments, the clique number ``clique`` a longest chain of pairwise
    crossing ones.  Reversing one line of the representation yields the
    complement, whose independence number is the clique number of the
    original; the cheaper orientation is interpreted and a complementation
    flag tells the pipeline to rewrite edge atoms accordingly.  Everything
    runs on the segments' ``_permutation_ranks``, so tied coordinates need
    no preparation, and reversing the bottom line reverses the bottom ranks.
    """
    top, bottom = _permutation_ranks(keys)
    mis = _longest_chain(top, bottom, False)
    clique = _longest_chain(top, bottom, True)
    reverse = clique < mis
    if reverse:
        bottom = [len(bottom) - 1 - b for b in bottom]
    inst = _circle_instance(*_rank_chord_ends(top, bottom))
    inst.provenance = {"class": "permutation", "k": inst.provenance["k"],
                       "mis": mis, "clique": clique, "reversed": reverse}
    inst.complemented = reverse
    return inst


MAX_PATTERN_VERTICES = 6  # permutation_subgraph_iso's sentence has this many quantifiers


def permutation_subgraph_iso(segments: Sequence[PermSegment], h: LabeledGraph) -> bool:
    """Does the permutation graph contain h as a (not necessarily induced) subgraph?

    A clique of size |V(h)| settles the question immediately: the
    permutation instance counts the largest one, a longest crossing chain.
    Otherwise the FO sentence guessing the subgraph is decided through the
    poset pipeline, on the same build.
    """
    from .checker import _decide
    from .formula import Edge

    k = h.n
    if k > MAX_PATTERN_VERTICES:
        raise GeometryError(f"pattern on {k} vertices exceeds bound {MAX_PATTERN_VERTICES}")
    if k == 0:
        return True
    if k > len(segments):
        return False
    rep = Representation("permutation", tuple(segments))
    g, inst = _build("permutation", rep)
    if inst.provenance["clique"] >= k:
        return True
    vs = [Var(f"x{i + 1}") for i in range(k)]
    parts: list[Formula] = [Not(Eq(vs[i], vs[j]))
                            for i in range(k) for j in range(i + 1, k)]
    parts += [Edge(vs[i], vs[j])
              for i in range(k) for j in range(i + 1, k) if h.has_edge(i, j)]
    phi = big_and(parts, if_empty=Eq(vs[0], vs[0]))
    for v in reversed(vs):
        phi = Exists(v, phi)
    return _decide("permutation", rep, g, inst, phi).graph_verdict


# ---------------------------------------------------------------------------
# boxes

def _box_instance(scale: int, keys: Sequence[int],
                  pairs: Optional[tuple] = None) -> InterpretationInstance:
    """The boxes' instance from their (x.lo, x.hi, y.lo, y.hi) at a common
    scale.  The x-intervals are ranked as an interval family, whose meeting
    pairs are not the boxes' ``pairs``; the distinct y-intervals, ordered,
    are the labels L1, L2, ..."""
    x_keys = [c for t in range(0, len(keys), 4) for c in keys[t:t + 2]]
    y_of = list(zip(keys[2::4], keys[3::4]))
    ys = sorted(set(y_of))
    ell = len(ys)
    _, by_value, rank = _ranked_ends("interval", scale, x_keys)
    kx, parts = _proper_parts(by_value, rank)
    lab_name = {t: f"L{i + 1}" for i, t in enumerate(ys)}
    members: dict[str, list[int]] = {lab_name[t]: [] for t in ys}
    for i, t in enumerate(y_of):
        members[lab_name[t]].append(i)
    poset, ids = _ranked_interval_poset(by_value, rank, parts, members)

    clauses = []
    for ti in ys:
        for tj in ys:
            if ti[0] <= tj[1] and tj[0] <= ti[1]:
                clauses.append(And(Label(lab_name[ti], X), Label(lab_name[tj], Y)))
    sigma = And(interval_psi(), big_or(clauses))
    interp = Interpretation(interval_nu(), sigma,
                            frozenset({"D"} | set(lab_name.values())))
    return InterpretationInstance(poset, interp, ids, kx + 1,
                                  {"class": "box", "k": max(kx, ell), "kx": kx, "ell": ell})


# ---------------------------------------------------------------------------
# unit disks

def _chord_ends(xs: Sequence, along: Sequence[int], q4w2) -> list[tuple[int, int]]:
    """The chord ends (disk, side) of the disks ``along`` one midline, in order.

    ``xs`` holds the disks' centre abscissae, at any common scale (ints or
    ``Fraction``s), and q4w2 is in the same units squared.  ``along`` is in
    (x, index) order and every chord has the same
    half-width w, with (2w)^2 = q4w2, so the left ends (side -1) and the
    right ends (side 1) are each in that order, and the chain is their
    merge.  A right end at c2 is still pending only while c2 <= c1, the
    centre of the left end being placed, and comes first iff its chord
    ends before this one starts, (c1 - c2)^2 > q4w2.  Symbolically each
    end moves outwards by delta, so a tangency stays an overlap, and a
    tiny index term breaks exact ties without creating nestings.
    """
    out = []
    j = 0
    for i in along:
        c1 = xs[i]
        while (c1 - xs[along[j]]) ** 2 > q4w2:
            out.append((along[j], 1))
            j += 1
        out.append((i, -1))
    out += [(i, 1) for i in along[j:]]
    return out


def _unit_disk_instance(scale: int, keys: Sequence[int],
                        pairs: Optional[tuple] = None) -> InterpretationInstance:
    """Per-row-pair chord posets on midlines, merged along the x order.

    ``keys`` holds the centres (cx, cy) after one rescale by the lcm S of
    their denominators, so the diameter is ``scale`` = S.  Chord endpoints
    involve square roots and are never materialized; all order decisions
    reduce to squared-distance comparisons on these integer centres.  Row
    pairs more than a diameter apart contribute no chords and no clause.

    The poset is the disk chain in (x, index) order and one chord chain per
    kept row pair, each disk between its own ends on every chord chain that
    holds it.  ``poset._chain_rows`` writes its rows, the disk chain being
    the main chain; its two conditions hold as the ends on a chord chain
    follow their disks' (x, index) order, so a left end after disk d's
    right end belongs to a disk further right.  Element ids: disk i is
    element i; then each kept row pair (ri <= rj, in lexicographic order)
    takes two ids per disk on its rows, in disk index order, the left chord
    end's and then the right one's.
    """
    xs, ys = keys[::2], keys[1::2]
    rows = sorted(set(ys))
    ell = len(rows)
    row_of = {y: i for i, y in enumerate(rows)}
    row = [row_of[y] for y in ys]  # each disk's row index
    n = len(xs)

    size = n  # disks first
    labels: dict[str, set[int]] = {f"B{i + 1}": set() for i in range(ell)}
    for i, r in enumerate(row):
        labels[f"B{r + 1}"].add(i)

    order = sorted(range(n), key=xs.__getitem__)  # stable: ties in index order

    kept_pairs: list[tuple[int, int]] = []
    # each kept pair's chord chain as (element, its disk if a left end else
    # -1), and each disk's right ends as (chain, position)
    chains: list[list[tuple[int, int]]] = []
    right_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ri in range(ell):
        for rj in range(ri, ell):
            dy = rows[rj] - rows[ri]
            if dy > scale:
                continue
            kept_pairs.append((ri, rj))
            q4w2 = scale * scale - dy * dy  # (2w)^2 on the midline
            along = [i for i in order if row[i] == ri or row[i] == rj]
            left_end = {i: size + 2 * t for t, i in enumerate(sorted(along))}
            labels[f"D_{ri + 1}_{rj + 1}"] = set(range(size, size + 2 * len(along)))
            size += 2 * len(along)
            chain = []
            for i, s in _chord_ends(xs, along, q4w2):
                if s > 0:
                    right_at[i].append((len(chains), len(chain)))
                chain.append((left_end[i] + (s > 0), i if s < 0 else -1))
            chains.append(chain)

    poset = LabeledPoset(size, (), labels,
                         rows=_chain_rows(size, order, chains, [right_at[d] for d in order]))

    clauses = []
    for ri, rj in kept_pairs:
        dpsi = interval_psi(f"D_{ri + 1}_{rj + 1}")
        for a, b in ((ri, rj), (rj, ri)) if ri != rj else ((ri, ri),):
            clauses.append(big_and([Label(f"B{a + 1}", X), Label(f"B{b + 1}", Y), dpsi]))
    nu = big_or([Label(f"B{i + 1}", X) for i in range(ell)])
    psi = big_or(clauses)
    interp = Interpretation(nu, psi, frozenset(labels))
    return InterpretationInstance(poset, interp, list(range(n)), ell * ell + 1,
                                  {"class": "unit_disk", "k": ell, "rows": ell})


# ---------------------------------------------------------------------------
# polygon visibility

def _cover(a: Var, b: Var, w: Var) -> Formula:
    return And(Leq(a, b),
               Forall(w, Implies(And(Leq(a, w), Leq(w, b)),
                                 Or(Eq(a, w), Eq(b, w)))))


def _samechain(a: Var, b: Var, w: Var) -> Formula:
    return Forall(w, Implies(Or(And(Leq(a, w), Leq(w, b)),
                                And(Leq(b, w), Leq(w, a))),
                             Not(Label("green", w))))


def _beta0(x: Var, y: Var, z: Var) -> Formula:
    return big_and([
        Label("green", x), Label("green", y), Leq(x, y),
        Forall(z, Implies(big_and([Leq(x, z), Leq(z, y), Label("black", z)]),
                          Or(Eq(z, x), Eq(z, y)))),
    ])


def _beta1(x: Var, y: Var) -> Formula:
    z, t = Var("z"), Var("t")
    w1, w2, w3 = Var("w1"), Var("w2"), Var("w3")
    see = Exists(z, Exists(t, big_and([
        Label("blue", z), Label("blue", t),
        _samechain(z, t, w1),
        _cover(x, z, w2),
        Leq(z, t),
        _cover(t, y, w3),
    ])))
    see_rev = Exists(z, Exists(t, big_and([
        Label("blue", z), Label("blue", t),
        _samechain(z, t, w1),
        _cover(y, z, w2),
        Leq(z, t),
        _cover(t, x, w3),
    ])))
    return big_and([
        Label("green", x), Label("green", y),
        Not(Label("black", x)), Not(Label("black", y)),
        Or(see, see_rev),
    ])


def _beta2(x: Var, y: Var, k: int) -> Formula:
    return And(Label("black", x),
               big_or([And(Label(f"L0_{i}", x), Label(f"L1_{i}", y))
                       for i in range(k + 2)]))


def _visibility_instance(w: Polygon) -> InterpretationInstance:
    """The green chain of the vertices in boundary order and, for each pair
    of ears a < b with nonempty interiors, a blue chain of copies of their
    interior vertices, ordered by the staircase of visibility between them.
    Each vertex of ear a is below its copy, and each copy of a vertex of ear
    b below that vertex.  Element ids: vertex i is element i; then each such
    ear pair, in lexicographic order, takes one id per copy, ear b's copies
    in boundary order and then ear a's.

    ``poset._chain_rows`` writes the rows, the green chain being the main
    chain.  Its two conditions hold since the vertices of ear a, the only
    ones linked to the pair's blue chain, come before every vertex of ear b
    and have their copies on the chain in boundary order.
    """
    report = polygon_report(w)
    n = w.n
    if 0 in report.reflex_vertices or n - 1 in report.reflex_vertices:
        raise GeometryError("distinguished edge uv is not convex")
    if not report.weak_visibility_vertexwise():
        raise GeometryError("polygon fails the weak-visibility vertexwise check")
    refl = [r for r in report.reflex_vertices if 0 < r < n - 1]
    k = len(refl)
    g = visibility_graph(w)
    interiors = report.ear_interiors()

    size = n  # the vertices first
    labels: dict[str, set[int]] = {
        "green": set(range(n)),
        "black": set(refl) | {0, n - 1},
        "blue": set(),
    }
    anchors = [0] + refl + [n - 1]
    for t, r in enumerate(anchors):
        labels[f"L0_{t}"] = {r}
        labels[f"L1_{t}"] = set(g.neighbors(r))

    # each ear pair's blue chain as (element, the vertex of ear b it copies
    # or -1), and each vertex's copies as (chain, position)
    chains: list[list[tuple[int, int]]] = []
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a in range(len(interiors)):
        for b in range(a + 1, len(interiors)):
            aa, ab = interiors[a], interiors[b]
            if not aa or not ab:
                continue
            # visibility between the two ears must be a staircase, else the
            # chain below is not a linear order
            tau = []
            for vi in aa:
                seen = [g.has_edge(vi, vj) for vj in ab]
                first = next((t for t, s in enumerate(seen) if s), len(ab))
                if any(not s for s in seen[first:]):
                    raise GeometryError("ear visibility is not a staircase "
                                        "(polygon not weakly visible from uv?)")
                tau.append(first)
            if any(t2 < t1 for t1, t2 in zip(tau, tau[1:])):
                raise GeometryError("ear visibility staircase is not monotone")

            # the copy of vi goes just before the first vertex of ear b that
            # vi sees, after the copies of the vertices before vi
            chain = [(size + pos, vj) for pos, vj in enumerate(ab)]
            for pos, (vi, t) in enumerate(zip(aa, tau)):
                chain.insert(t + pos, (size + len(ab) + pos, -1))
                links[vi].append((len(chains), t + pos))
            labels["blue"].update(range(size, size + len(chain)))
            size += len(chain)
            chains.append(chain)

    poset = LabeledPoset(size, (), labels, rows=_chain_rows(size, range(n), chains, links))

    psi = big_and([
        Label("green", X), Label("green", Y),
        big_or([
            _beta0(X, Y, Z), _beta0(Y, X, Z),
            _beta1(X, Y), _beta1(Y, X),
            _beta2(X, Y, k), _beta2(Y, X, k),
        ]),
    ])
    nu = Label("green", X)
    vocab = frozenset(labels)
    interp = Interpretation(nu, psi, vocab)
    bound = (k + 1) * k // 2 + 1
    return InterpretationInstance(poset, interp, list(range(n)), bound,
                                  {"class": "visibility", "k": k})


# ---------------------------------------------------------------------------
# dispatch

# Each intersection class's instance on its grid (``geometry._grid``) and,
# when known, its objects' meeting pairs there, which the interval, arc and
# circle builders check their broken ties against; the others do not read them.
_ON_GRID = {"interval": _interval_instance, "circular_arc": _arc_instance,
            "circle": _circle_instance, "permutation": _permutation_instance,
            "box": _box_instance, "unit_disk": _unit_disk_instance}


def make_instance(cls: str, rep: Representation) -> InterpretationInstance:
    """The interpretation instance of a representation of class ``cls``."""
    if cls == "visibility":
        return _visibility_instance(_single_polygon(rep))
    return _grid_instance(cls, *_grid(cls, rep))


def _grid_instance(cls: str, scale: int, keys: list[int],
                   pairs: Optional[tuple] = None) -> InterpretationInstance:
    """``make_instance`` of an intersection class from its grid and, when
    known, the meeting pairs on it."""
    if not keys:
        raise GeometryError("empty representation")
    return _ON_GRID[cls](scale, keys, pairs)


def _build(cls: str, rep: Representation) -> tuple[LabeledGraph, InterpretationInstance]:
    """``build_graph`` and ``make_instance`` of one representation, built
    together on one check of it: an intersection class is rescaled once, and
    its meeting pairs, computed once, give the graph and are the pairs that
    breaking endpoint ties must keep.  An intersection class raises
    ``build_graph``'s errors first, as calling the two in turn would."""
    if cls == "visibility":
        w = _single_polygon(rep)
        return visibility_graph(w), _visibility_instance(w)
    scale, keys = _grid(cls, rep)
    pairs = _pair_arrays(cls, keys, scale)
    return (LabeledGraph._from_pairs(len(rep.objects), *pairs),
            _grid_instance(cls, scale, keys, pairs))
