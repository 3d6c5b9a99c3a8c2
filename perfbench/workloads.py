"""The three workloads: inputs from the seed, the op, and the output check.

A workload is a fixed list of ops built at set-up from the seed (one
*pass*).  The runner repeats passes in a closed loop with one client.  Each
op returns plain data; ``check`` compares it with ``oracle`` after the timed
section, so checking costs nothing inside the measurement.

Why these three (see README.md for the layer map):

* agreement_mix -- the shape of acceptance criterion 1: many small
  instances of all seven classes, many sentences each; the time goes to
  rewriting and to evaluation on many small tables.
* check_scaling -- ``geomfo check`` one sentence at a time on growing
  instances; the time goes to large numpy tables and to building the poset.
* terfan_geometry -- the hardness constructions on exact geometry; the time
  goes to Fraction predicates and the generators, the formula side is idle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import inputs as I
import oracle


@dataclass
class Workload:
    ops: list[Callable[[], object]]
    check: Callable[[int, object], bool]
    counts: Callable[[], dict[str, int]]
    faults: set = field(default_factory=set)  # op indices whose oracle is falsified
    # Collect garbage after every op (untimed): separate ``geomfo check``
    # processes never share a heap, so one op's tables must not raise the
    # next op's peak memory.
    isolate_ops: bool = False


def _poset_counts(inst) -> tuple[int, int]:
    p = inst.poset
    return p.n, sum(row.bit_count() for row in p.rows)


def _walk_count(F, phi) -> int:
    return sum(1 for _ in F.walk(phi))


# ---------------------------------------------------------------------------
# agreement_mix

# Quantifier depths of one instance's sentences.  Random depth-<=3
# sentences are about 85% depth 1, 14% depth 2 and 1% depth 3; each
# instance gets that mix, with one depth-3 sentence.
SENTENCE_DEPTHS = (1,) * 42 + (2,) * 7 + (3,)


def agreement_mix(gf, seed: int, tiny: bool = False) -> Workload:
    """One op = one instance: build graph and poset, decide every sentence both ways."""
    F, checker, interpret, geometry = gf.formula, gf.checker, gf.interpret, gf.geometry
    rng = random.Random(seed)
    depths = (1, 2, 3) if tiny else SENTENCE_DEPTHS
    # every class gets each size 1..10 once, in a random order
    sizes = {cls: rng.sample(range(1, 11), 10) for cls in I.CLASSES}
    cases = []
    for k in range(1 if tiny else 10):
        for cls in I.CLASSES:
            rep = I.MAKERS[cls](rng, sizes[cls][k])
            sents = I.sentence_battery(cls, sizes[cls][k], depths)
            cases.append((cls, rep, I.to_objects(geometry, rep),
                          sents, [I.to_formula(F, s) for s in sents]))

    def make_op(cls, grep, phis):
        def op():
            g = checker.build_graph(cls, grep)
            inst = interpret.make_instance(cls, grep)
            verdicts = []
            for phi in phis:
                phi_eff = F.complement_edges(phi) if inst.complemented else phi
                phi_i = F.rewrite_under_interpretation(phi_eff, inst.interp)
                verdicts.append((checker.eval_structure(g, phi),
                                 checker.eval_structure(inst.poset, phi_i)))
            return g.edges, verdicts
        return op

    expected: dict[int, tuple] = {}

    def check(i, result):
        cls, rep, _, sents, _ = cases[i]
        if i not in expected:
            edges = oracle.graph_edges(rep)
            expected[i] = (edges, [oracle.decide(s, len(rep[1]), edges) for s in sents])
        want_edges, want = expected[i]
        if i in wl.faults:
            want = [not want[0]] + want[1:]
        edges, verdicts = result
        return edges == want_edges and all(gv == pv == w for (gv, pv), w in zip(verdicts, want))

    def counts():
        nodes = elems = pairs = 0
        for cls, _, grep, _, phis in cases:
            inst = interpret.make_instance(cls, grep)
            e, p = _poset_counts(inst)
            elems, pairs = elems + e, pairs + p
            for phi in phis:
                phi_eff = F.complement_edges(phi) if inst.complemented else phi
                nodes += _walk_count(F, F.rewrite_under_interpretation(phi_eff, inst.interp))
        return {"formula.rewritten_nodes": nodes, "interpret.poset_elements": elems,
                "poset.comparable_pairs": pairs}

    wl = Workload([make_op(c[0], c[2], c[4]) for c in cases], check, counts)
    return wl


# ---------------------------------------------------------------------------
# check_scaling

SCALING_SIZES = {"interval": (20, 40, 60, 80), "unit_disk": (10, 20, 30, 40)}
SCALING_MAKERS = {"interval": I.scaling_intervals, "unit_disk": I.scaling_disks}


def check_scaling(gf, seed: int, tiny: bool = False) -> Workload:
    """One op = read the text, parse one sentence, run a fresh model_check."""
    F, checker, fileio, interpret = gf.formula, gf.checker, gf.fileio, gf.interpret
    rng = random.Random(seed)
    cases = []  # (cls, rep, text, sentence index)
    for cls, sizes in SCALING_SIZES.items():
        for n in sizes[:1] if tiny else sizes:
            rep = SCALING_MAKERS[cls](rng, n)
            cases.extend((cls, rep, I.to_text(rep), k) for k in range(len(I.BATTERY)))
    rng.shuffle(cases)
    texts = [I.to_text_formula(s) for s in I.BATTERY]

    def make_op(cls, text, k):
        def op():
            rep = fileio.read_representation(text)
            phi = F.parse_formula(texts[k], F.GRAPH)
            res = checker.model_check(cls, rep, phi)
            return res.graph.edges, res.graph_verdict, res.poset_verdict
        return op

    edges_of: dict[str, frozenset] = {}
    expected: dict[int, bool] = {}

    def check(i, result):
        cls, rep, text, k = cases[i]
        if text not in edges_of:
            edges_of[text] = oracle.graph_edges(rep)
        if i not in expected:
            expected[i] = oracle.decide(I.BATTERY[k], len(rep[1]), edges_of[text])
        want = expected[i] != (i in wl.faults)
        edges, gv, pv = result
        return edges == edges_of[text] and gv == pv == want

    def counts():
        nodes = elems = pairs = 0
        instances = {}
        for cls, rep, text, k in cases:
            if text not in instances:
                instances[text] = interpret.make_instance(cls, fileio.read_representation(text))
            inst = instances[text]
            e, p = _poset_counts(inst)
            elems, pairs = elems + e, pairs + p
            phi = F.parse_formula(texts[k], F.GRAPH)
            phi_eff = F.complement_edges(phi) if inst.complemented else phi
            nodes += _walk_count(F, F.rewrite_under_interpretation(phi_eff, inst.interp))
        return {"formula.rewritten_nodes": nodes, "interpret.poset_elements": elems,
                "poset.comparable_pairs": pairs}

    wl = Workload([make_op(c[0], c[2], c[3]) for c in cases], check, counts,
                  isolate_ops=True)
    return wl


# ---------------------------------------------------------------------------
# terfan_geometry

CW_CLASSES = ("circular_arc", "circle", "unit_box", "unit_disk")


def _object_tuple(obj):
    """Tuple form of a clique-width family object, for the oracle."""
    name = type(obj).__name__
    if name == "Arc":
        return obj.start, obj.end
    if name == "Chord":
        return obj.a, obj.b
    if name == "Box":
        return obj.x.lo, obj.x.hi, obj.y.lo, obj.y.hi
    return obj.cx, obj.cy


def terfan_geometry(gf, seed: int, tiny: bool = False) -> Workload:
    """One op = one terrain/fan polygon H (2-3 vertices) or one k=1 clique-width family."""
    geometry, generators = gf.geometry, gf.generators
    rng = random.Random(seed)
    hs = [(n, I.relabel(rng, n, edges)) for n in ((2,) if tiny else (2, 3))
          for edges in I.unlabelled_graphs(n)]
    cases = [("terfan", h) for h in (hs[:1] if tiny else hs)]
    cases += [("cliquewidth", cls) for cls in (CW_CLASSES[:1] if tiny else CW_CLASSES)]
    rng.shuffle(cases)

    def terfan_op(n, edges):
        h = geometry.LabeledGraph(n, edges)

        def op():
            inst = generators.terfan_polygon(h)
            poly = inst.polygon
            report = geometry.polygon_report(poly)
            flags = report.is_terrain, report.is_convex_fan_at(poly.n - 1)
            g = geometry.visibility_graph(poly)
            vs, interp = generators.graph_interpretation(g, inst.nu, inst.psi)
            return poly.vertices, flags, vs, interp.edges, list(inst.blue_bijection)
        return op

    def cw_op(cls):
        def op():
            rep, cert = generators.cliquewidth_family(cls, 1)
            g = geometry.build_intersection_graph(rep.cls, rep)
            ok = geometry.cliquewidth_certificate_check(g, cert.parts, cert.index_set, cert.k)
            return (rep.cls, tuple(_object_tuple(o) for o in rep.objects), g.edges,
                    cert.parts, cert.r, cert.m, ok)
        return op

    polygon_ok: dict[tuple, bool] = {}
    family_ok: dict[tuple, bool] = {}

    def check_terfan(h, result):
        n, h_edges = h
        verts, flags, vs, edges, bij = result
        if verts not in polygon_ok:
            polygon_ok[verts] = oracle.is_terrain(verts) and oracle.is_convex_fan_at_v(verts)
        if not (all(flags) and polygon_ok[verts] and sorted(vs) == sorted(bij)):
            return False
        pos = {v: t for t, v in enumerate(vs)}
        want = {tuple(sorted((pos[bij[a]], pos[bij[b]]))) for a, b in h_edges}
        return edges == frozenset(want)

    def check_family(result):
        cls, objs, edges, parts, r, m, ok = result
        key = (cls, objs, edges)
        if key not in family_ok:
            want = oracle.graph_edges((cls, objs))
            family_ok[key] = want == edges and all(
                oracle.gradually_connected(want, a, b) or oracle.gradually_connected(want, b, a)
                for a, b in zip(parts, parts[1:]))
        return ok and r == 6 and m == 37 and len(objs) == 222 and family_ok[key]

    def check(i, result):
        kind, arg = cases[i]
        good = check_terfan(arg, result) if kind == "terfan" else check_family(result)
        return good != (i in wl.faults)

    def counts():
        return {"formula.rewritten_nodes": 0, "interpret.poset_elements": 0,
                "poset.comparable_pairs": 0}

    wl = Workload([terfan_op(*arg) if kind == "terfan" else cw_op(arg) for kind, arg in cases],
                  check, counts)
    return wl


WORKLOADS = {
    "agreement_mix": agreement_mix,
    "check_scaling": check_scaling,
    "terfan_geometry": terfan_geometry,
}
