"""Hardness-side constructions: witnesses, label gadgets, families, polygons.

Every generator is deterministic in its inputs and emits something the
matching verifier accepts: consecutive-neighbourhood witnesses pass
verify_consecutive, clique-width families pass the certificate check, and
the terrain/fan polygon reproduces its graph through the twin-based
interpretation.  "Sufficiently small" constants are concrete rationals,
found where necessary by halving until the construction's strict
inequalities hold.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .formula import (And, Defined, Edge, Eq, Exists, Forall, Formula, Implies,
                      Label, Not, Or, Var, X, Y, big_and, complement_edges, exists_many,
                      map_atoms)
from .geometry import (Arc, Box, Chord, Disk, GeometryError, Interval, LabeledGraph,
                       PermSegment, Polygon, Representation, build_intersection_graph,
                       permutation_to_chords, polygon_report, symmetric_rows, true_twins,
                       visibility_graph)
from .poset import LabeledPoset

Fr = Fraction


# ---------------------------------------------------------------------------
# consecutive neighbourhood witnesses

@dataclass
class ConsecutiveWitness:
    rep: Representation
    s_vertices: list[int]                     # v_1..v_ell, in order
    r_vertices: dict[tuple[int, int], int]    # (i,j), 1 <= i < j <= ell
    order: int
    complement: bool                          # property holds in the complement

    @property
    def r_set(self) -> frozenset[int]:
        return frozenset(self.r_vertices.values())

    def graph(self) -> LabeledGraph:
        return build_intersection_graph(self.rep.cls, self.rep)


def _disk_gadget_height(d: int, delta: Fraction) -> Fraction:
    """Rational h with (d*delta/2)^2 + h^2 < 1 < ((d+1)*delta/2)^2 + h^2."""
    low = 1 - ((d + 1) * delta) ** 2 / 4   # h^2 must exceed this
    high = 1 - (d * delta) ** 2 / 4        # and stay below this
    if not 0 < low < high:
        raise GeometryError("no feasible gadget height; shrink delta")
    den = 2
    while den <= 1 << 40:
        num = math.isqrt((low.numerator * den * den) // low.denominator) + 1
        while Fr(num, den) ** 2 <= low:
            num += 1
        if Fr(num, den) ** 2 < high:
            return Fr(num, den)
        den *= 2
    raise GeometryError("gadget height needs denominators above the cap")


MAX_WITNESS_ORDER = 64  # consecutive_witness has ell(ell + 1)/2 objects


def consecutive_witness(cls: str, ell: int, eps: Fraction = Fr(1, 4)) -> ConsecutiveWitness:
    """A representation whose graph (or complement) represents consecutive
    neighbourhoods of the given order, inside the class's confinement region."""
    eps = Fr(eps)
    if ell < 2:
        raise GeometryError("witness order must be at least 2")
    if ell > MAX_WITNESS_ORDER:
        raise GeometryError(f"witness order {ell} exceeds the size cap")
    if eps <= 0:
        raise GeometryError("eps must be a positive rational")
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]

    if cls == "permutation":
        objs = [PermSegment(Fr(i), Fr(i)) for i in range(1, ell + 1)]
        objs += [PermSegment(Fr(2 * i - 1, 2), Fr(2 * j + 1, 2)) for i, j in pairs]
        rep = Representation("permutation", tuple(objs))
        complement = False
    elif cls == "circular_arc":
        delta = eps / (2 * ell)
        objs = [Arc(i * delta, Fr(1, 2) + i * delta) for i in range(1, ell + 1)]
        objs += [Arc(Fr(1, 2) + j * delta + delta / 2, i * delta - delta / 2)
                 for i, j in pairs]
        rep = Representation("circular_arc", tuple(objs))
        complement = True
    elif cls == "unit_box":
        delta = eps / ell
        objs = [Box(Interval(i * delta, i * delta + 1),
                    Interval((ell - i) * delta, (ell - i) * delta + 1))
                for i in range(1, ell + 1)]
        objs += [Box(Interval(1 + i * delta - delta / 2, 2 + i * delta - delta / 2),
                     Interval(1 + (ell - j) * delta - delta / 2,
                              2 + (ell - j) * delta - delta / 2))
                 for i, j in pairs]
        rep = Representation("box", tuple(objs))
        complement = False
    elif cls == "unit_disk":
        delta = eps / ell
        heights = {d: _disk_gadget_height(d, delta) for d in range(1, ell)}
        objs = [Disk(i * delta, Fr(0)) for i in range(1, ell + 1)]
        objs += [Disk(Fr(i + j, 2) * delta, heights[j - i]) for i, j in pairs]
        rep = Representation("unit_disk", tuple(objs))
        complement = False
    else:
        raise GeometryError(f"no consecutive witness for class {cls!r}")

    s_vertices = list(range(ell))
    r_vertices = {p: ell + t for t, p in enumerate(pairs)}
    return ConsecutiveWitness(rep, s_vertices, r_vertices, ell, complement)


def verify_consecutive(g: LabeledGraph, s: Sequence[int], r: Iterable[int],
                       complement: bool = False) -> bool:
    """Exhaustive check of the consecutive-neighbourhood property."""
    r = set(r)
    if set(s) & r:
        raise GeometryError("S and R must be disjoint")
    if len(set(s)) != len(s):
        raise GeometryError("S has repeated vertices")
    work = g.complement() if complement else g
    sset = set(s)
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            want = set(s[i:j + 1])
            if not any(work.neighbors(wv) & sset == want for wv in r):
                return False
    return True


def witness_confinement(witness: ConsecutiveWitness, eps: Fraction) -> bool:
    """Exact check of the per-class confinement constraint."""
    eps = Fr(eps)
    rep = witness.rep
    if rep.cls == "circular_arc":
        return all(abs(a.length() - Fr(1, 2)) <= eps for a in rep.objects)
    if rep.cls == "permutation":
        seen = [False] * len(rep.objects)
        g = witness.graph()
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return all(seen)
    if rep.cls == "box":
        xs = [e for b in rep.objects for e in (b.x.lo, b.x.hi)]
        ys = [e for b in rep.objects for e in (b.y.lo, b.y.hi)]
        return (max(xs) - min(xs) <= 2 + eps and max(ys) - min(ys) <= 2 + eps)
    if rep.cls == "unit_disk":
        xs = [d.cx for d in rep.objects]
        ys = [d.cy for d in rep.objects]
        width = max(xs) - min(xs) + 1
        height = max(ys) - min(ys) + 1
        return width <= 1 + eps and height <= 2
    raise GeometryError(f"no confinement constraint for {rep.cls!r}")


# ---------------------------------------------------------------------------
# the labelled hardness interpretation

@dataclass
class HardnessInstance:
    graph: LabeledGraph          # G_H with blue/green/red labels
    nu: Formula
    psi: Formula
    blue_bijection: list[int]    # H vertex i  ->  G_H vertex of v_(i+1)
    rep: Representation          # induced subrepresentation
    complement: bool


def hardness_formulas(complement: bool) -> tuple[Formula, Formula]:
    """The (nu, psi) pair interpreting H inside G_H via its labels; with
    ``complement``, the pair with every edge complemented.

    Existentials are nested as tightly as scoping allows, which keeps the
    evaluator's truth tables at three variables instead of five.
    """
    x, y, z, s, s2, t, u = (Var(n) for n in ("x", "y", "z", "s", "s2", "t", "u"))
    nu = And(Label("blue", x),
             Exists(s, big_and([
                 Label("green", s), Edge(x, s),
                 Exists(s2, big_and([
                     Not(Eq(s, s2)), Label("green", s2), Edge(x, s2)]))])))

    def extreme(a: Var, zz: Var, sv: Var, xv: Var) -> Formula:
        return And(Edge(a, zz),
                   Exists(sv, big_and([
                       Label("green", sv), Edge(a, sv),
                       Exists(xv, big_and([
                           Label("blue", xv), Edge(sv, xv), Not(Edge(xv, zz))]))])))

    psi = big_and([
        Label("blue", x), Label("blue", y), Not(Eq(x, y)),
        Exists(z, big_and([
            Label("red", z),
            extreme(x, z, s, t),
            extreme(y, z, s2, u),
        ])),
    ])
    if complement:
        return complement_edges(nu), complement_edges(psi)
    return nu, psi


MAX_HARDNESS_VERTICES = 8  # hardness_instance's H; its witness has order n + 2
HARDNESS_EPS = Fr(1, 4)  # the eps of hardness_instance's consecutive witness


def hardness_instance(h: LabeledGraph, cls: str) -> HardnessInstance:
    """Build G_H in the class so that the labelled interpretation gives H back."""
    n = h.n
    if n < 1:
        raise GeometryError("H needs at least one vertex")
    if n > MAX_HARDNESS_VERTICES:
        raise GeometryError(f"H on {n} vertices exceeds the size cap")
    wit = consecutive_witness(cls, n + 2, HARDNESS_EPS)
    # paper index t in 0..n+1 is witness key t+1
    p_keys = [(t + 1, t + 2) for t in range(n + 1)]
    q_keys = [(u + 2, v + 2) for u, v in sorted(h.edges)]
    gadget_keys = sorted(set(p_keys) | set(q_keys))
    vertices = list(wit.s_vertices) + [wit.r_vertices[kk] for kk in gadget_keys]
    g_full = wit.graph()
    sub = g_full.induced(vertices)
    pos = {kk: n + 2 + t for t, kk in enumerate(gadget_keys)}
    labels = {
        "blue": set(range(n + 2)),
        "green": {pos[kk] for kk in p_keys},
        "red": {pos[kk] for kk in q_keys},
    }
    g_h = sub.with_labels(labels)
    nu, psi = hardness_formulas(wit.complement)
    rep = Representation(wit.rep.cls, tuple(wit.rep.objects[v] for v in vertices))
    return HardnessInstance(g_h, nu, psi, [i + 1 for i in range(n)], rep,
                            wit.complement)


def graph_interpretation(structure: LabeledGraph | LabeledPoset, nu: Formula, psi: Formula
                         ) -> tuple[list[int], LabeledGraph]:
    """The graph that (nu(x), psi(x, y)) interprets in a graph or a poset:
    its vertices are the elements satisfying nu, in ascending order, and
    vertices u != v are adjacent iff psi(u, v) or psi(v, u) holds."""
    from .checker import truth_table

    vs = np.flatnonzero(truth_table(structure, nu, (X,)))
    rel = truth_table(structure, psi, (X, Y))[np.ix_(vs, vs)]
    return vs.tolist(), LabeledGraph(len(vs), rows=symmetric_rows(rel))


# ---------------------------------------------------------------------------
# duplication: removing the labels

def twin_formula(x: Var, y: Var, z: Var) -> Formula:
    return And(Edge(x, y),
               Forall(z, Implies(And(Not(Eq(z, x)), Not(Eq(z, y))),
                                 And(Implies(Edge(x, z), Edge(y, z)),
                                     Implies(Edge(y, z), Edge(x, z))))))


def dupl_formula(d: int, x: Var) -> Formula:
    """x belongs to a class of at least d true twins."""
    ws = [Var(f"zt{i}") for i in range(d - 1)]
    parts: list[Formula] = [Not(Eq(w, x)) for w in ws]
    parts += [Not(Eq(ws[i], ws[j])) for i in range(len(ws)) for j in range(i + 1, len(ws))]
    parts += [twin_formula(x, w, Var(f"ztq{i}")) for i, w in enumerate(ws)]
    return exists_many(ws, big_and(parts))


def substitute_labels_and_equality(f: Formula, label_defs: dict[str, tuple[Formula, Var]],
                                   twin_eq: Optional[tuple[Formula, Var, Var]] = None) -> Formula:
    """Replace label atoms by defined atoms over their defining formulas;
    optionally x=y by x=y | twin(x,y)."""

    def atom(g: Formula) -> Formula:
        if isinstance(g, Label) and g.name in label_defs:
            df, dv = label_defs[g.name]
            return Defined(df, (dv,), (g.x,))
        if isinstance(g, Eq) and twin_eq is not None:
            tf, tx, ty = twin_eq
            return Or(g, Defined(tf, (tx, ty), (g.x, g.y)))
        return g

    return map_atoms(f, atom)


@dataclass
class StrippedInstance:
    graph: LabeledGraph          # unlabelled G'_H
    nu: Formula
    psi: Formula
    blue_bijection: list[int]


def strip_labels(inst: HardnessInstance) -> StrippedInstance:
    """Encode the blue/green/red labels by true-twin multiplicities.

    P-only vertices are duplicated once, P-and-Q twice, Q-only three times;
    label atoms become dupl_d tests and equality becomes equality-up-to-twin.
    """
    g = inst.graph
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if true_twins(g, a, b):
                raise GeometryError(f"unexpected twin pair ({a},{b}) in G_H")
    green = g.labels.get("green", frozenset())
    red = g.labels.get("red", frozenset())
    copies = {v: 1 for v in range(g.n)}
    for v in green - red:
        copies[v] = 2
    for v in green & red:
        copies[v] = 3
    for v in red - green:
        copies[v] = 4

    # every vertex keeps its id and its further copies follow, vertex by
    # vertex; copies of one vertex are twins, adjacent to all its neighbours'
    origin = list(range(g.n)) + [v for v in range(g.n) for _ in range(copies[v] - 1)]
    closed = g.adjacency_matrix() | np.eye(g.n, dtype=bool)
    g2 = LabeledGraph(len(origin), rows=symmetric_rows(closed[np.ix_(origin, origin)]))

    x, y, z = Var("x"), Var("y"), Var("z")
    tw = twin_formula(x, y, z)
    defs = {
        "blue": (Not(dupl_formula(2, x)), x),
        "green": (And(dupl_formula(2, x), Not(dupl_formula(4, x))), x),
        "red": (dupl_formula(3, x), x),
    }
    nu2 = substitute_labels_and_equality(inst.nu, defs, (tw, x, y))
    psi2 = substitute_labels_and_equality(inst.psi, defs, (tw, x, y))
    return StrippedInstance(g2, nu2, psi2, list(inst.blue_bijection))


# ---------------------------------------------------------------------------
# the EFO clique sentence

def gamma_k_formula(k: int, nu: Formula, psi: Formula) -> Formula:
    """exists x1..xk: all nu, pairwise distinct, psi in one direction per pair.

    Purely existential whenever nu and psi are; nu and psi enter as defined
    atoms, so they are shared, not copied.
    """
    if k < 1:
        raise GeometryError("gamma_k needs k >= 1")
    vs = [Var(f"x{i + 1}") for i in range(k)]
    parts: list[Formula] = [Defined(nu, (X,), (v,)) for v in vs]
    parts += [Not(Eq(vs[i], vs[j])) for i in range(k) for j in range(i + 1, k)]
    parts += [Or(Defined(psi, (X, Y), (vs[i], vs[j])), Defined(psi, (X, Y), (vs[j], vs[i])))
              for i in range(k) for j in range(i + 1, k)]
    return exists_many(vs, big_and(parts))


# ---------------------------------------------------------------------------
# EFO hardness without labels

def _cycle_pattern(c: int) -> list[tuple[int, int]]:
    """Linear overlap pattern for the cycle C_c: intervals on 0..2c-1.

    [2i, 2i+3] for i = 0..c-2 plus the long interval [1, 2c-2]; overlap
    without containment realizes exactly the cycle edges.
    """
    return [(2 * i, 2 * i + 3) for i in range(c - 1)] + [(1, 2 * c - 2)]


def induced_cycle_pattern_formula(c: int, x: Var) -> Formula:
    """EFO: some induced C_c has a vertex adjacent to x (with x outside it)."""
    vs = [Var(f"c{i + 1}") for i in range(c)]
    parts: list[Formula] = [Not(Eq(x, v)) for v in vs]
    parts += [Not(Eq(vs[i], vs[j])) for i in range(c) for j in range(i + 1, c)]
    for i in range(c):
        for j in range(i + 1, c):
            if j - i == 1 or (i == 0 and j == c - 1):
                parts.append(Edge(vs[i], vs[j]))
            else:
                parts.append(Not(Edge(vs[i], vs[j])))
    parts.append(Edge(x, vs[0]))
    return exists_many(vs, big_and(parts))


@dataclass
class EfoInstance:
    rep: Representation
    graph: LabeledGraph                 # unlabelled
    expected_labels: dict[str, frozenset[int]]
    label_defs: dict[str, tuple[Formula, Var]]
    nu: Formula                         # label-free
    psi: Formula                        # label-free
    blue_bijection: list[int]           # H vertex -> graph vertex


def _attach_cycle(chords: list[Chord], target_idx: int, c: int) -> list[int]:
    """Attach a fresh C_c overlap representation crossing only the target chord."""
    alpha = min(chords[target_idx].a, chords[target_idx].b)
    points = sorted({p for ch in chords for p in (ch.a, ch.b)} | {Fr(0)})
    gaps = []
    for p in points:
        if p != alpha:
            gaps.append((p - alpha) % 1)
            gaps.append((alpha - p) % 1)
    g = min(gaps)
    h = g / (8 * c)
    new_ids = []
    for lo, hi in _cycle_pattern(c):
        a = (alpha + (Fr(lo) - Fr(1, 2)) * h) % 1
        b = (alpha + (Fr(hi) - Fr(1, 2)) * h) % 1
        new_ids.append(len(chords))
        chords.append(Chord(a, b))
    return new_ids


def efo_hardness_instance(h: LabeledGraph, cls: str) -> EfoInstance:
    """Label-free EFO hardness instance for circle or unit-box graphs.

    Circle: each labelled chord gains a pendant odd cycle (C5 blue, C7 red,
    C9 green) whose induced copy is FO-detectable.  Unit boxes: three
    pairwise disjoint boxes meet exactly the blue diagonal, and one marker
    box touches exactly its successor gadget.
    """
    if cls == "circle":
        return _efo_circle(h)
    if cls == "unit_box":
        return _efo_unit_box(h)
    raise GeometryError(f"no EFO hardness construction for class {cls!r}")


def _efo_circle(h: LabeledGraph) -> EfoInstance:
    base = hardness_instance(h, "permutation")
    chords = permutation_to_chords(base.rep.objects)
    nv = len(chords)
    blue = sorted(base.graph.labels["blue"])
    green = sorted(base.graph.labels["green"])
    red = sorted(base.graph.labels["red"])
    for v in blue:
        _attach_cycle(chords, v, 5)
    for v in red:
        _attach_cycle(chords, v, 7)
    for v in green:
        _attach_cycle(chords, v, 9)
    rep = Representation("circle", tuple(chords))
    g = build_intersection_graph("circle", rep)

    x = Var("x")
    defs = {
        "blue": (induced_cycle_pattern_formula(5, x), x),
        "red": (induced_cycle_pattern_formula(7, x), x),
        "green": (induced_cycle_pattern_formula(9, x), x),
    }
    nu0, psi0 = hardness_formulas(complement=False)
    nu = substitute_labels_and_equality(nu0, defs)
    psi = substitute_labels_and_equality(psi0, defs)
    expected = {name: frozenset(vs) for name, vs in
                (("blue", blue), ("green", green), ("red", red))}
    return EfoInstance(rep, g, expected, defs, nu, psi, list(base.blue_bijection))


def _efo_unit_box(h: LabeledGraph) -> EfoInstance:
    """Unit-box EFO instance.

    Blues are identified by four independent neighbours (three disjoint
    boxes meeting exactly the blue diagonal plus a gadget); gadgets by
    having blue neighbours and blue non-neighbours; successors by a marker
    box at their top-right corner.  Every H-edge gets its own gadget box --
    shifted down-left for a successor pair, so it provably misses all
    markers -- and red is gadget-and-not-green.  That one negation is not
    purely existential; the paper's existential red predicate would match
    every gadget and interpret spurious successor edges.
    """
    n = h.n
    ell = n + 2
    delta = HARDNESS_EPS / ell
    base = hardness_instance(h, "unit_box")
    boxes = list(base.rep.objects)
    blue = sorted(base.graph.labels["blue"])
    green = set(base.graph.labels["green"])
    red_orig = set(base.graph.labels["red"])

    def unit_box(x0: Fraction, y0: Fraction) -> Box:
        return Box(Interval(x0, x0 + 1), Interval(y0, y0 + 1))

    # dedicated representative for every H-edge whose gadget doubles as a
    # successor: same blue contacts, but clear of the successor's marker
    red_reps = sorted(red_orig - green)
    for v in sorted(red_orig & green):
        gb = boxes[v]
        red_reps.append(len(boxes))
        boxes.append(unit_box(gb.x.lo - delta / 3, gb.y.lo - delta / 3))
    # three pairwise-disjoint boxes meeting exactly every blue box
    blacks = []
    for corner in ((-2 * delta, -2 * delta), (-2 * delta, 1 - delta),
                   (1 - delta, -2 * delta)):
        blacks.append(len(boxes))
        boxes.append(unit_box(Fr(corner[0]), Fr(corner[1])))
    # one marker at the top-right corner of each successor gadget
    for v in sorted(green):
        gb = boxes[v]
        boxes.append(unit_box(gb.x.lo + 1 - delta / 4, gb.y.lo + 1 - delta / 4))
    rep = Representation("box", tuple(boxes))
    g = build_intersection_graph("box", rep)

    x = Var("x")
    a, b, c, d = (Var(f"n{i}") for i in range(4))
    four = [a, b, c, d]
    blue_def = exists_many(four, big_and(
        [Edge(x, w) for w in four]
        + [Not(Eq(w1, w2)) for w1, w2 in itertools.combinations(four, 2)]
        + [Not(Edge(w1, w2)) for w1, w2 in itertools.combinations(four, 2)]
        + [Not(Eq(x, w)) for w in four]))
    bb, bb2, gg, m = Var("b1"), Var("b2"), Var("g1"), Var("m")
    gadget_def = Exists(bb, Exists(bb2, big_and([
        Defined(blue_def, (x,), (bb,)),
        Defined(blue_def, (x,), (bb2,)),
        Edge(x, bb), Not(Edge(x, bb2)), Not(Eq(x, bb2)),
    ])))
    marker_def = Exists(bb, Exists(gg, big_and([
        Defined(blue_def, (x,), (bb,)),
        Not(Edge(x, bb)), Not(Eq(x, bb)),
        Defined(gadget_def, (x,), (gg,)),
        Not(Edge(x, gg)), Not(Eq(x, gg)),
    ])))
    green_def = And(gadget_def, Exists(m, And(Edge(x, m), Defined(marker_def, (x,), (m,)))))
    red_def = And(gadget_def, Not(green_def))
    defs = {"blue": (blue_def, x), "red": (red_def, x), "green": (green_def, x)}
    nu0, psi0 = hardness_formulas(complement=False)
    nu = substitute_labels_and_equality(nu0, defs)
    psi = substitute_labels_and_equality(psi0, defs)
    expected = {"blue": frozenset(blue), "green": frozenset(green),
                "red": frozenset(red_reps)}
    return EfoInstance(rep, g, expected, defs, nu, psi, list(base.blue_bijection))


# ---------------------------------------------------------------------------
# clique-width lower-bound families

@dataclass
class CliquewidthCertificate:
    parts: list[list[int]]      # ordered vertex lists V_1..V_r
    index_set: list[int]        # 1-based, |I| = 2k
    k: int
    r: int
    m: int


MAX_CLIQUEWIDTH_K = 2  # cliquewidth_family has 6k(36k + 1) objects


def cliquewidth_family(cls: str, k: int = 1) -> tuple[Representation, CliquewidthCertificate]:
    """The r=6k, m=36k+1 family with gradually connected consecutive parts,
    computed on integer numerators over one denominator ``den``."""
    if k < 1:
        raise GeometryError("k must be at least 1")
    if k > MAX_CLIQUEWIDTH_K:
        raise GeometryError(f"k={k} exceeds the size cap")
    r = 6 * k
    m = 36 * k + 1
    idx = list(range(1, r - 1, 3))  # 1, 4, ..., r-2

    if cls in ("circular_arc", "circle"):
        # delta = 1/(100k), eps = delta/(2m), and theta = eps/(2r) separates
        # part t's arc ends from part t+1's starts; every arc spans 1/3 + delta
        den = 1200 * k * m * r
        delta, eps, theta = den // (100 * k), den // (200 * k * m), den // (400 * k * m * r)
        span = den // 3 + delta
        starts = [((t - 1) * (span + theta) + j * eps) % den
                  for t in range(1, r + 1) for j in range(m)]
        ends = [(s + span) % den for s in starts]
        if len(set(starts + ends)) != 2 * len(starts):
            raise GeometryError("arc family has coinciding endpoints")
        make = Arc if cls == "circular_arc" else Chord
        rep = Representation(cls, tuple(make(Fr(s, den), Fr(e, den))
                                        for s, e in zip(starts, ends)))
    elif cls in ("unit_box", "unit_disk"):
        # part t starts at prefixes[t % 3] + (t // 3) v, steps by (eps, eps).
        # Boxes: v = (delta, delta), delta = 1/(100k), eps = delta/(2m).  Disks:
        # v = t1 + t2 + t3 of unit steps, eps = 1/(40000 k m).
        if cls == "unit_box":
            den = 200 * k * m
            delta, eps = den // (100 * k), den // (200 * k * m)
            prefixes, v = [(0, 0), (den, delta), (den // 2, den + delta)], (delta, delta)
            unit = lambda x, y: Box(Interval(Fr(x, den), Fr(x + den, den)),
                                    Interval(Fr(y, den), Fr(y + den, den)))
        else:
            den = math.lcm(145 * 13, 40000 * k * m)
            t1 = (-144 * den // 145, 17 * den // 145)
            t2 = (5 * den // 13, -12 * den // 13)
            t3 = (3 * den // 5, 4 * den // 5)
            v = (t1[0] + t2[0] + t3[0], t1[1] + t2[1] + t3[1])
            prefixes = [(0, 0), t1, (t1[0] + t2[0], t1[1] + t2[1])]
            eps = den // (40000 * k * m)
            unit = lambda x, y: Disk(Fr(x, den), Fr(y, den))
        objs = []
        for t in range(r):
            triple, pos = divmod(t, 3)
            bx = prefixes[pos][0] + triple * v[0]
            by = prefixes[pos][1] + triple * v[1]
            objs += [unit(bx + j * eps, by + j * eps) for j in range(m)]
        rep = Representation("box" if cls == "unit_box" else cls, tuple(objs))
    else:
        raise GeometryError(f"no clique-width family for class {cls!r}")

    parts = [list(range(t * m, (t + 1) * m)) for t in range(r)]
    return rep, CliquewidthCertificate(parts, idx, k, r, m)


# ---------------------------------------------------------------------------
# terrain + convex fan polygons

@dataclass
class TerfanInstance:
    polygon: Polygon
    nu: Formula
    psi: Formula
    blue_bijection: list[int]        # H vertex i -> polygon index of p_(i+1)
    roles: dict[str, object]         # final indices of the named vertices


@functools.cache
def terfan_formulas() -> tuple[Formula, Formula]:
    """Twin-based (nu, psi) reading H off the visibility graph, label-free.

    They depend on no input, so they are built once per process."""
    x, y = Var("x"), Var("y")
    counter = itertools.count(1)

    def brown(a: Var) -> Formula:
        i = next(counter)
        w1, w2 = Var(f"bw{i}"), Var(f"bq{i}")
        return Exists(w1, And(Not(Eq(a, w1)), twin_formula(a, w1, w2)))

    def blue(a: Var) -> Formula:
        # the witness bt must be a genuinely different vertex: edge(bt,a)
        # with bt = a is vacuously false in a loopless graph, which would
        # make a its own witness
        i = next(counter)
        bz, bt = Var(f"bz{i}"), Var(f"bt{i}")
        return Exists(bz, big_and([
            brown(bz),
            Edge(a, bz),
            Exists(bt, big_and([Not(Eq(bt, a)), Edge(bt, bz), Not(Edge(bt, a))])),
        ]))

    z1, z2 = Var("z1"), Var("z2")
    nu = And(blue(x), Exists(z1, Exists(z2, big_and([
        Not(Eq(z1, z2)), blue(z1), blue(z2), Edge(x, z1), Edge(x, z2)]))))
    z, t, t2 = Var("z"), Var("t"), Var("t2")
    psi = big_and([
        blue(x), blue(y),
        Exists(z, big_and([
            Not(blue(z)), Edge(x, z), Edge(y, z),
            Exists(t, big_and([blue(t), Edge(x, t), Not(Edge(t, z))])),
            Exists(t2, big_and([blue(t2), Edge(y, t2), Not(Edge(t2, z))])),
        ])),
    ])
    return nu, psi


def _sqrt_bracket(value: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(value) <= hi with hi - lo <= 2^-bits."""
    if value < 0:
        raise GeometryError("negative discriminant")
    scaled = (value.numerator << (2 * bits)) // value.denominator
    s = math.isqrt(scaled)
    return Fr(s, 1 << bits), Fr(s + 2, 1 << bits)


def _build_terfan(h: LabeledGraph, eta: Fraction, eta2: Fraction,
                  tau: Fraction, gamma_frac: Fraction) -> TerfanInstance:
    n = h.n
    c = 2 * n + 5
    c1 = lambda x: (x + 1) ** 2
    c2 = lambda x: (x - c) ** 2
    p = [(Fr(t), Fr(c1(Fr(t)))) for t in range(n + 2)]
    w = (Fr(n + 2), Fr(c2(Fr(n + 2))))
    edges = sorted(h.edges)

    # rational brackets around the ray/curve crossings q_1 > q_2 > ... > q_{n+1}
    bits = 16
    while True:
        lo, hi = {}, {}
        for i in range(1, n + 2):
            disc = (2 * c + 2 * i + 1) ** 2 - 4 * (c * c + i * i - i - 1)
            slo, shi = _sqrt_bracket(Fr(disc), bits)
            lo[i] = (Fr(2 * c + 2 * i + 1) - shi) / 2
            hi[i] = (Fr(2 * c + 2 * i + 1) - slo) / 2
        if all(hi[i + 1] < lo[i] for i in range(1, n + 1)) and hi[1] < c:
            break
        bits *= 2
        if bits > 4096:
            raise GeometryError("q-point brackets failed to separate")

    gadgets = []  # (s1, s2, s3, paper i, paper j)
    for u0, v0 in edges:
        i, j = u0 + 1, v0 + 1
        slot_lo, slot_hi = hi[i + 1], lo[i]
        margin = (slot_hi - slot_lo) / 10
        slot_lo, slot_hi = slot_lo + margin, slot_hi - margin
        width = (slot_hi - slot_lo) / n
        d_lo = slot_lo + (j - 1) * width
        s1x = d_lo + width / 4
        s1 = (s1x, c2(s1x))
        ptilde = (Fr(j), Fr(c1(Fr(j))) + eta)
        rho = (s1[1] - ptilde[1]) / (s1[0] - ptilde[0])
        s2x = s1x + tau * width
        s2 = (s2x, ptilde[1] + rho * (s2x - ptilde[0]))
        s3 = (s2x, c2(s2x))
        if not s2[1] > s3[1]:
            raise GeometryError("gadget spike collapsed; shrink tau/eta")
        gadgets.append((s1, s2, s3, i, j))
    gadgets.sort(key=lambda g: g[0][0])

    # the supporting line r3 from slightly above p_{n+1}, missing the curve
    yp = Fr(c1(n + 1)) + eta2
    disc2 = Fr(4 * n + 12) - eta2
    slo, shi = _sqrt_bracket(disc2, 24)
    s3_slope = Fr(-2 * (n + 4)) + 2 * slo - 2 * (shi - slo) - Fr(1, 1 << 20)
    line_disc = (2 * c + s3_slope) ** 2 - 4 * (c * c + s3_slope * (n + 1) - yp)
    if not line_disc < 0:
        raise GeometryError("supporting line crosses the right curve")
    r3 = lambda x: yp + s3_slope * (x - (n + 1))
    for t in range(n + 1):
        if not r3(Fr(t)) > c1(Fr(t)):
            raise GeometryError("supporting line dips below a staircase vertex")

    max_sx = max([g[2][0] for g in gadgets], default=w[0])
    base_right = max(max_sx, hi[1])
    xw2 = (base_right + c) / 2
    w2 = (xw2, c2(xw2))
    u2 = (xw2, r3(xw2))
    # two extra curve vertices: d2 just right of q_1 is seen by every p but
    # hidden from u' behind d1, and d1 also blocks the sightline u' -> w;
    # without them small or edgeless H leave u/u'/p vertices as twins
    xd2 = base_right + (xw2 - base_right) / 8
    d2 = (xd2, c2(xd2))
    seg_slope = (d2[1] - u2[1]) / (d2[0] - xw2)
    xstar = c + seg_slope / 2
    lo_d = xd2 + (xw2 - xd2) / 8
    hi_d = xw2 - (xw2 - xd2) / 8
    xd1 = min(max(xstar, lo_d), hi_d)
    d1 = (xd1, c2(xd1))

    def seg_above(a, b, pt):
        yv = a[1] + (b[1] - a[1]) * (pt[0] - a[0]) / (b[0] - a[0])
        return yv > pt[1]

    if not seg_above(u2, d2, d1):
        raise GeometryError("decoy fails to hide d2 from u-prime")
    if not seg_above(u2, w, d1):
        raise GeometryError("decoy fails to hide w from u-prime")

    x_pt_y = Fr(c1(n + 1)) - (n + 1) * (2 * n + 5)
    hline = min(x_pt_y, u2[1])
    hline = Fr(math.floor(hline) - 1)
    x_h = Fr(n + 1) + (hline - yp) / s3_slope
    gamma = (x_h - xw2) * gamma_frac
    v = (x_h - gamma, hline)
    v2 = (x_h - gamma, r3(x_h - gamma))
    u = (Fr(0), hline)

    paper = [u] + p + [w]
    roles_paper: dict[str, object] = {"u": 0, "w": n + 3}
    roles_paper["p"] = list(range(1, n + 3))
    s2_index = {}
    for s1p, s2p, s3p, i, j in gadgets:
        s2_index[(i, j)] = len(paper) + 1
        paper.extend([s1p, s2p, s3p])
    roles_paper["d2"] = len(paper)
    roles_paper["d1"] = len(paper) + 1
    roles_paper["w2"] = len(paper) + 2
    roles_paper["u2"] = len(paper) + 3
    roles_paper["v2"] = len(paper) + 4
    roles_paper["v"] = len(paper) + 5
    paper.extend([d2, d1, w2, u2, v2, v])

    big = x_h + 1
    mirrored = [(big - px, py - hline) for px, py in paper]
    final = tuple(reversed(mirrored))
    size = len(final)
    remap = lambda i: size - 1 - i
    poly = Polygon(final)

    roles = {
        "u": remap(roles_paper["u"]),
        "v": remap(roles_paper["v"]),
        "v2": remap(roles_paper["v2"]),
        "u2": remap(roles_paper["u2"]),
        "w": remap(roles_paper["w"]),
        "w2": remap(roles_paper["w2"]),
        "d1": remap(roles_paper["d1"]),
        "d2": remap(roles_paper["d2"]),
        "p": [remap(i) for i in roles_paper["p"]],
        "s2": {ij: remap(i) for ij, i in s2_index.items()},
    }
    nu, psi = terfan_formulas()
    bijection = [roles["p"][t + 1] for t in range(n)]
    return TerfanInstance(poly, nu, psi, bijection, roles)


def _terfan_check(inst: TerfanInstance, h: LabeledGraph) -> Optional[str]:
    """All four bullet properties plus the interpretation roundtrip."""
    g = visibility_graph(inst.polygon)
    roles = inst.roles
    n = h.n
    pset = roles["p"]
    U, V, V2, U2 = roles["u"], roles["v"], roles["v2"], roles["u2"]

    for a in range(g.n):
        for b in range(a + 1, g.n):
            if true_twins(g, a, b) and {a, b} != {V, V2}:
                return f"unexpected twin pair ({a},{b})"
    if not true_twins(g, V, V2):
        return "v and v' are not twins"
    want_nv = set(pset) | {U, U2, V2}
    if g.neighbors(V) != want_nv:
        return f"N(v) is {sorted(g.neighbors(V))}, wanted {sorted(want_nv)}"
    if g.neighbors(V2) != set(pset) | {U, U2, V}:
        return "N(v') wrong"
    if g.neighbors(V) != (g.neighbors(V2) - {V}) | {V2}:
        return "twin neighbourhoods differ"
    if any(not g.has_edge(U, t) for t in range(g.n) if t != U):
        return "u does not see every vertex"
    for t in pset + [U, V, V2]:
        if t != U2 and not g.has_edge(U2, t):
            return f"u' misses {t}"
    for a in range(n + 2):
        for b in range(a + 1, n + 2):
            if g.has_edge(pset[a], pset[b]) != (b == a + 1):
                return f"p-visibility wrong at ({a},{b})"
    for (i, j), s2v in roles["s2"].items():
        got = {t for t in range(n + 2) if g.has_edge(s2v, pset[t])}
        if got != set(range(i, j + 1)):
            return f"s2 of edge ({i},{j}) sees p-indices {sorted(got)}"
    report = polygon_report(inst.polygon)
    if not report.is_terrain:
        return "not a terrain"
    if not report.is_convex_fan_at(inst.polygon.n - 1):
        return "not a convex fan at v"
    vs, interpreted = graph_interpretation(g, inst.nu, inst.psi)
    if vs != sorted(pset[1:n + 1]) and set(vs) != set(pset[1:n + 1]):
        return f"nu selects {vs}, wanted {sorted(pset[1:n + 1])}"
    idx = {v: t for t, v in enumerate(vs)}
    hmap = {t: idx[inst.blue_bijection[t]] for t in range(n)}
    want = {(min(hmap[a], hmap[b]), max(hmap[a], hmap[b])) for a, b in h.edges}
    if interpreted.edges != frozenset(want):
        return "interpreted edges differ from H"
    return None


MAX_TERFAN_VERTICES = 6  # terfan_polygon's H


def terfan_polygon(h: LabeledGraph) -> TerfanInstance:
    """Terrain-and-convex-fan polygon whose visibility graph interprets H.

    The tiny offsets start at 1/8 and are halved until every bullet property
    of the construction holds exactly; failure past the cap raises.
    """
    if h.n < 1:
        raise GeometryError("H needs at least one vertex")
    if h.n == 1:
        # With n = 1 the construction has only three consecutive staircase
        # vertices, so every neighbour of the twin pair is adjacent to the
        # middle one and the blue() witness cannot exist; nu comes out
        # empty.  No layout in this construction family avoids it.
        raise GeometryError("single-vertex H is not realizable by this "
                            "construction (blue witness cannot exist)")
    if h.n > MAX_TERFAN_VERTICES:
        raise GeometryError(f"H on {h.n} vertices exceeds the size cap")
    eta = eta2 = tau = gamma = Fr(1, 8)
    last = "construction failed"
    for _ in range(24):
        try:
            inst = _build_terfan(h, eta, eta2, tau, gamma)
            problem = _terfan_check(inst, h)
        except GeometryError as exc:
            problem = str(exc)
        if problem is None:
            return inst
        last = problem
        eta, eta2, tau, gamma = eta / 2, eta2 / 2, tau / 2, gamma / 2
    raise GeometryError(f"terfan construction did not converge: {last}")


def induced_cycles(g: LabeledGraph, length: int):
    """All induced cycles of the given length, as vertex tuples.

    Each cycle is reported once, rooted at its minimum vertex with its
    smaller second endpoint first.
    """
    adj = [g.neighbors(v) for v in range(g.n)]
    out = []

    def extend(path: list[int], banned: set[int]):
        if len(path) == length:
            last = path[-1]
            if path[0] in adj[last]:
                out.append(tuple(path))
            return
        prev = path[-1]
        for nxt in sorted(adj[prev]):
            if nxt <= path[0] or nxt in banned:
                continue
            # non-consecutive pairs must stay non-adjacent; only the final
            # vertex may (and must) close back to the root
            closing = len(path) == length - 1
            if any(nxt in adj[q] for idx, q in enumerate(path[:-1])
                   if not (idx == 0 and closing)):
                continue
            extend(path + [nxt], banned | {nxt})
        return

    for root in range(g.n):
        for second in sorted(adj[root]):
            if second <= root:
                continue
            extend([root, second], {root, second})
    seen = set()
    uniq = []
    for cyc in out:
        a = cyc[1]
        b = cyc[-1]
        key = (cyc[0], min(a, b)) + (tuple(cyc[1:]) if a < b else tuple(reversed(cyc[1:])))
        if key not in seen:
            seen.add(key)
            uniq.append(cyc)
    return uniq


def cycle_attachment_set(g: LabeledGraph, length: int) -> frozenset[int]:
    """Vertices adjacent to an induced cycle of the given length (outside it).

    This is exactly the truth set of the pendant-cycle label definer; the
    tensor evaluator would need an n^(length+1) table, which is out of reach
    for the circle EFO instances, so the definer is evaluated by exhaustive
    cycle enumeration instead.
    """
    got = set()
    for cyc in induced_cycles(g, length):
        members = set(cyc)
        for v in members:
            got |= g.neighbors(v) - members
    return frozenset(got)
