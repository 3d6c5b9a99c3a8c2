"""Poset interpretations for each tractable geometric class.

Every constructor returns an InterpretationInstance: a labelled poset, the
pair (nu, psi) over it, the map from graph vertices to poset elements, and
the class's width bound.  The defining property, checked wholesale by the
test suite through ``generators.graph_interpretation``, is that the
interpreted graph equals the geometric graph: the vertex map lists nu's
elements in ascending order, and uv is an edge iff the poset models
psi(u,v) | psi(v,u).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .formula import (And, Eq, Exists, Forall, Formula, Implies, Interpretation,
                      Label, Leq, Not, Or, Var, X, Y, big_and, big_or)
from .geometry import (Arc, Box, Chord, Disk, GeometryError, Interval, LabeledGraph, PermSegment,
                       Polygon, Representation, _endpoint_ranks, _permutation_ranks,
                       _proper_parts, _rank_chords, _scaled, _single_polygon,
                       increasing_run_lengths, perturb_endpoints, polygon_report,
                       visibility_graph)
from .poset import LabeledPoset, _ranked_interval_poset, generated_poset

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


def _ranked_ends(pairs: Sequence[tuple[Fraction, Fraction]]):
    """The interval family of ``pairs``, each put in increasing order, on ranks.

    One rescale of all ends to ints and one sort.  Returns the ends (pair i
    at 2i, 2i+1), their ints, whether each pair was reversed, the end
    positions in increasing order, and the rank of each position.
    """
    ends = [e for pair in pairs for e in pair]
    _, keys = _scaled(ends)
    flipped = [keys[2 * i] > keys[2 * i + 1] for i in range(len(pairs))]
    for i, f in enumerate(flipped):
        if f:
            for seq in (keys, ends):
                seq[2 * i], seq[2 * i + 1] = seq[2 * i + 1], seq[2 * i]
    by_value, rank = _endpoint_ranks(keys, "shared endpoints; apply perturb_endpoints first")
    return ends, keys, flipped, by_value, rank


def interval_interpretation(intervals: Sequence[Interval]) -> InterpretationInstance:
    if not intervals:
        raise GeometryError("empty representation")
    ends, _, _, by_value, rank = _ranked_ends([(it.lo, it.hi) for it in intervals])
    k, parts = _proper_parts(by_value, rank)
    poset, ids = _ranked_interval_poset(ends, by_value, rank, parts)
    interp = Interpretation(interval_nu(), interval_psi(), frozenset({"D"}))
    return InterpretationInstance(poset, interp, ids, k + 1,
                                  {"class": "interval", "k": k})


def circular_arc_interpretation(arcs: Sequence[Arc]) -> InterpretationInstance:
    if not arcs:
        raise GeometryError("empty representation")
    # a wrapping arc (start > end) stands for its complement [end, start],
    # which avoids 0; it is red
    ends, keys, red, by_value, rank = _ranked_ends([(a.start, a.end) for a in arcs])
    if 0 in keys:
        raise GeometryError("arc endpoint at angle 0; apply perturb_endpoints first")
    k_plain, _ = _proper_parts([e for e in by_value if not red[e >> 1]], rank)
    k_red, _ = _proper_parts([e for e in by_value if red[e >> 1]], rank)
    k_b, parts = _proper_parts(by_value, rank)
    poset, ids = _ranked_interval_poset(ends, by_value, rank, parts,
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


def circle_interpretation(chords: Sequence[Chord]) -> InterpretationInstance:
    if not chords:
        raise GeometryError("empty representation")
    ends, _, _, by_value, rank = _ranked_ends([(c.a, c.b) for c in chords])
    k, parts = _proper_parts(by_value, rank)
    poset, ids = _ranked_interval_poset(ends, by_value, rank, parts)
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


def longest_noncrossing(segments: Sequence[PermSegment]) -> int:
    """Maximum independent set = longest chain of pairwise non-crossing segments."""
    return _longest_chain(*_permutation_ranks(segments), False)


def longest_crossing(segments: Sequence[PermSegment]) -> int:
    """Maximum clique = longest chain of pairwise crossing segments."""
    return _longest_chain(*_permutation_ranks(segments), True)


def permutation_plan(segments: Sequence[PermSegment]) -> InterpretationInstance:
    """Reduce via circle graphs, complementing when the clique side is smaller.

    Reversing one line of the representation yields the complement, whose
    independence number is the clique number of the original; the cheaper
    orientation is interpreted and a complementation flag tells the pipeline
    to rewrite edge atoms accordingly.  Everything runs on the segments'
    ``_permutation_ranks``, so tied coordinates need no preparation, and
    reversing the bottom line reverses the bottom ranks.
    """
    if not segments:
        raise GeometryError("empty representation")
    top, bottom = _permutation_ranks(segments)
    mis = _longest_chain(top, bottom, False)
    clique = _longest_chain(top, bottom, True)
    reverse = clique < mis
    if reverse:
        bottom = [len(bottom) - 1 - b for b in bottom]
    inst = circle_interpretation(_rank_chords(top, bottom))
    inst.provenance = {"class": "permutation", "k": inst.provenance["k"],
                       "mis": mis, "clique": clique, "reversed": reverse}
    inst.complemented = reverse
    return inst


MAX_PATTERN_VERTICES = 6  # permutation_subgraph_iso's sentence has this many quantifiers


def permutation_subgraph_iso(segments: Sequence[PermSegment], h: LabeledGraph) -> bool:
    """Does the permutation graph contain h as a (not necessarily induced) subgraph?

    A clique of size |V(h)| settles the question immediately (cliques are a
    longest crossing chain); otherwise the FO sentence guessing the subgraph
    is decided through the poset pipeline.
    """
    from .checker import model_check
    from .formula import Edge

    k = h.n
    if k > MAX_PATTERN_VERTICES:
        raise GeometryError(f"pattern on {k} vertices exceeds bound {MAX_PATTERN_VERTICES}")
    if k == 0:
        return True
    if k > len(segments):
        return False
    if longest_crossing(segments) >= k:
        return True
    vs = [Var(f"x{i + 1}") for i in range(k)]
    parts: list[Formula] = [Not(Eq(vs[i], vs[j]))
                            for i in range(k) for j in range(i + 1, k)]
    parts += [Edge(vs[i], vs[j])
              for i in range(k) for j in range(i + 1, k) if h.has_edge(i, j)]
    phi = big_and(parts, if_empty=Eq(vs[0], vs[0]))
    for v in reversed(vs):
        phi = Exists(v, phi)
    rep = Representation("permutation", tuple(segments))
    return model_check("permutation", rep, phi).graph_verdict


# ---------------------------------------------------------------------------
# boxes

def box_interpretation(boxes: Sequence[Box], k: Optional[int] = None) -> InterpretationInstance:
    if not boxes:
        raise GeometryError("empty representation")
    xs = perturb_endpoints(Representation("interval", tuple(b.x for b in boxes))).objects
    y_keys = _scaled([e for b in boxes for e in (b.y.lo, b.y.hi)])[1]
    y_of = list(zip(y_keys[::2], y_keys[1::2]))
    ys = sorted(set(y_of))
    ell = len(ys)
    if k is None:
        k = ell
    if ell > k:
        raise GeometryError(f"{ell} distinct y-intervals exceed the declared k={k}")
    ends, _, _, by_value, rank = _ranked_ends([(it.lo, it.hi) for it in xs])
    kx, parts = _proper_parts(by_value, rank)
    lab_name = {t: f"L{i + 1}" for i, t in enumerate(ys)}
    members: dict[str, list[int]] = {lab_name[t]: [] for t in ys}
    for i, t in enumerate(y_of):
        members[lab_name[t]].append(i)
    poset, ids = _ranked_interval_poset(ends, by_value, rank, parts, members)

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


def unit_disk_interpretation(disks: Sequence[Disk], k: Optional[int] = None
                             ) -> InterpretationInstance:
    """Per-row-pair chord posets on midlines, merged along the x order.

    Chord endpoints involve square roots and are never materialized; all
    order decisions reduce to squared-distance comparisons, on integer
    centres after one rescale by the lcm S of the denominators (the
    diameter is then S).  Row pairs more than a diameter apart contribute
    no chords and no clause.
    """
    if not disks:
        raise GeometryError("empty representation")
    scale, keys = _scaled([c for d in disks for c in (d.cx, d.cy)])
    xs, ys = keys[::2], keys[1::2]
    rows = sorted(set(ys))
    ell = len(rows)
    if k is None:
        k = ell
    if ell > k:
        raise GeometryError(f"{ell} distinct y-coordinates exceed the declared k={k}")
    row_of = {y: i for i, y in enumerate(rows)}
    row = [row_of[y] for y in ys]  # each disk's row index
    n = len(disks)

    elems: list[str] = [f"d{i}" for i in range(n)]  # disks first
    labels: dict[str, set[int]] = {f"B{i + 1}": set() for i in range(ell)}
    for i, r in enumerate(row):
        labels[f"B{r + 1}"].add(i)

    order = sorted(range(n), key=xs.__getitem__)  # stable: ties in index order
    pairs = list(zip(order, order[1:]))

    kept_pairs: list[tuple[int, int]] = []
    for ri in range(ell):
        for rj in range(ri, ell):
            dy = rows[rj] - rows[ri]
            if dy > scale:
                continue
            kept_pairs.append((ri, rj))
            q4w2 = scale * scale - dy * dy  # (2w)^2 on the midline
            along = [i for i in order if row[i] == ri or row[i] == rj]
            dlabel = f"D_{ri + 1}_{rj + 1}"
            labels.setdefault(dlabel, set())
            end_elem: dict[tuple[int, int], int] = {}
            for i in sorted(along):  # element ids in disk order
                for s in (-1, 1):
                    eid = len(elems)
                    elems.append(f"e{dlabel}[{i},{'R' if s > 0 else 'L'}]")
                    labels[dlabel].add(eid)
                    end_elem[(i, s)] = eid
            chain = [end_elem[e] for e in _chord_ends(xs, along, q4w2)]
            pairs += zip(chain, chain[1:])
            for i in along:  # each disk sits between its own chord ends
                pairs += [(end_elem[(i, -1)], i), (i, end_elem[(i, 1)])]

    poset = generated_poset(len(elems), pairs, labels, elems)

    clauses = []
    for ri, rj in kept_pairs:
        for a, b in ((ri, rj), (rj, ri)) if ri != rj else ((ri, ri),):
            dlabel = f"D_{ri + 1}_{rj + 1}"
            clauses.append(big_and([Label(f"B{a + 1}", X), Label(f"B{b + 1}", Y),
                                    interval_psi(dlabel)]))
    nu = big_or([Label(f"B{i + 1}", X) for i in range(ell)])
    psi = big_or(clauses)
    interp = Interpretation(nu, psi, frozenset(labels))
    return InterpretationInstance(poset, interp, list(range(n)), k * k + 1,
                                  {"class": "unit_disk", "k": k, "rows": ell})


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


def visibility_interpretation(w: Polygon) -> InterpretationInstance:
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

    elems = [f"v{i}" for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]  # the green chain, in boundary order

    labels: dict[str, set[int]] = {
        "green": set(range(n)),
        "black": set(refl) | {0, n - 1},
        "blue": set(),
    }
    anchors = [0] + refl + [n - 1]
    for t, r in enumerate(anchors):
        labels[f"L0_{t}"] = {r}
        labels[f"L1_{t}"] = set(g.neighbors(r))

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

            chain = []  # (sort key, element id)
            copy_of: dict[int, int] = {}
            keyed = ([((2 * pos, 0, vj), vj) for pos, vj in enumerate(ab)]
                     + [((2 * tau[pos] - 1, 1, vi), vi) for pos, vi in enumerate(aa)])
            for key, v in keyed:  # one blue copy of each ear vertex
                eid = len(elems)
                elems.append(f"b[{a},{b}]{v}")
                labels["blue"].add(eid)
                copy_of[v] = eid
                chain.append((key, eid))
            chain.sort(key=lambda it: it[0])
            pairs += [(e1, e2) for (_, e1), (_, e2) in zip(chain, chain[1:])]
            pairs += [(vi, copy_of[vi]) for vi in aa]
            pairs += [(copy_of[vj], vj) for vj in ab]

    poset = generated_poset(len(elems), pairs, labels, elems)

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

def make_instance(cls: str, rep: Representation) -> InterpretationInstance:
    if rep.cls != cls:
        raise GeometryError(f"representation class {rep.cls!r} does not match {cls!r}")
    if cls == "interval":
        return interval_interpretation(perturb_endpoints(rep).objects)
    if cls == "circular_arc":
        return circular_arc_interpretation(perturb_endpoints(rep).objects)
    if cls == "circle":
        return circle_interpretation(perturb_endpoints(rep).objects)
    if cls == "permutation":
        return permutation_plan(rep.objects)
    if cls == "box":
        return box_interpretation(rep.objects)
    if cls == "unit_disk":
        return unit_disk_interpretation(rep.objects)
    if cls == "visibility":
        return visibility_interpretation(_single_polygon(rep))
    raise GeometryError(f"unknown class {cls!r}")
