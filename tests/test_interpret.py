import random
from fractions import Fraction as Fr

import pytest

from geomfo.checker import build_graph, eval_structure, model_check
from geomfo.formula import Var
from geomfo.geometry import (Arc, Box, Chord, Disk, GeometryError, Interval,
                             LabeledGraph, PermSegment, Polygon, Representation,
                             build_intersection_graph, perturb_endpoints,
                             polygon_report, visibility_graph)
from geomfo import poset as P
from geomfo.generators import terfan_polygon
from geomfo.interpret import (interval_interpretation, interval_theta,
                              circle_interpretation, circular_arc_interpretation,
                              box_interpretation, longest_crossing,
                              longest_noncrossing, make_instance, permutation_plan,
                              permutation_subgraph_iso, unit_disk_interpretation,
                              visibility_interpretation)
from geomfo.poset import poset_width, validate_poset

from helpers import disk_endpoint_cmp as _disk_endpoint_cmp
from helpers import (instance_graph, max_clique, max_independent_set, has_subgraph,
                     rand_arcs, rand_boxes, rand_chords, rand_disks, rand_fan, rand_intervals,
                     rand_segments, rand_sentence)

def test_visibility_instance_needs_one_polygon():
    """Graph and instance refuse two polygons with one error."""
    tri = Polygon(((0, 0), (1, 2), (3, 0)))
    two = Representation("visibility", (tri, tri))
    msg = r"^visibility representation holds a single polygon$"
    for build in (build_graph, make_instance):
        with pytest.raises(GeometryError, match=msg):
            build("visibility", two)
        with pytest.raises(GeometryError, match=msg):
            build("visibility", Representation("visibility", ()))


def test_interpretations_reject_shared_endpoints():
    msg = r"^shared endpoints; apply perturb_endpoints first$"
    with pytest.raises(GeometryError, match=msg):
        interval_interpretation([Interval(Fr(0), Fr(2)), Interval(Fr(1), Fr(2))])
    with pytest.raises(GeometryError, match=msg):
        circle_interpretation([Chord(Fr(1, 4), Fr(1, 2)), Chord(Fr(3, 4), Fr(1, 2))])
    with pytest.raises(GeometryError, match=msg):
        circular_arc_interpretation([Arc(Fr(1, 4), Fr(1, 2)), Arc(Fr(1, 2), Fr(3, 4))])


def test_circular_arc_interpretation_rejects_an_end_at_angle_0():
    msg = r"^arc endpoint at angle 0; apply perturb_endpoints first$"
    for arcs in ([Arc(Fr(0), Fr(1, 2)), Arc(Fr(1, 4), Fr(3, 4))],
                 [Arc(Fr(1, 4), Fr(3, 4)), Arc(Fr(7, 8), Fr(0))]):
        with pytest.raises(GeometryError, match=msg):
            circular_arc_interpretation(arcs)


CLASS_MAKERS = {
    "interval": rand_intervals,
    "circular_arc": rand_arcs,
    "circle": rand_chords,
    "permutation": rand_segments,
    "box": rand_boxes,
    "unit_disk": rand_disks,
}


def _check_instance(cls, rep):
    g = build_intersection_graph(cls, rep) if cls != "visibility" \
        else visibility_graph(rep.objects[0])
    inst = make_instance(cls, rep)
    assert validate_poset(inst.poset) is None
    assert poset_width(inst.poset) <= inst.width_bound
    want = g.complement() if inst.complemented else g
    assert instance_graph(inst).edges == want.edges, cls
    return inst


def test_instance_invariants_all_classes():
    rng = random.Random(42)
    for cls, mk in CLASS_MAKERS.items():
        for _ in range(15):
            _check_instance(cls, mk(rng, rng.randint(1, 9)))
    for _ in range(8):
        _check_instance("visibility", Representation("visibility", (rand_fan(rng, rng.randint(4, 10)),)))


def test_make_instance_closes_once_and_never_validates(monkeypatch):
    """Every class's build closes its generating pairs once and runs no
    second check: the closure's rows are a strict order by construction."""
    calls = []
    for name in ("transitive_closure", "validate_poset"):
        fn = getattr(P, name)
        monkeypatch.setattr(P, name, lambda *a, _fn=fn, _name=name:
                            calls.append(_name) or _fn(*a))
    rng = random.Random(43)
    cases = [(cls, mk(rng, n)) for cls, mk in CLASS_MAKERS.items() for n in (1, 7)]
    cases += [("visibility", Representation("visibility", (poly,))) for poly in
              (rand_fan(rng, 8), terfan_polygon(LabeledGraph(3, {(0, 1)})).polygon)]
    for cls, rep in cases:
        calls.clear()
        make_instance(cls, rep)
        assert calls == ["transitive_closure"], cls


def test_interval_width_examples():
    proper = [Interval(Fr(0), Fr(2)), Interval(Fr(1), Fr(3))]
    inst = interval_interpretation(proper)
    assert inst.width_bound == 2
    nested = [Interval(Fr(1), Fr(4)), Interval(Fr(2), Fr(3))]
    inst = interval_interpretation(nested)
    assert inst.width_bound == 3
    x, y = Var("x"), Var("y")
    theta = interval_theta(x, y)
    assert eval_structure(inst.poset, theta,
                          {x: inst.vertex_map[1], y: inst.vertex_map[0]})
    assert not eval_structure(inst.poset, theta,
                              {x: inst.vertex_map[0], y: inst.vertex_map[1]})


def test_interval_requires_distinct_endpoints():
    with pytest.raises(GeometryError):
        interval_interpretation([Interval(Fr(0), Fr(1)), Interval(Fr(0), Fr(2))])


def test_circular_arc_all_contain_zero():
    arcs = [Arc(Fr(3, 4), Fr(1, 4)), Arc(Fr(7, 8), Fr(1, 8)), Arc(Fr(5, 8), Fr(3, 8))]
    inst = circular_arc_interpretation(arcs)
    n = len(arcs)
    assert instance_graph(inst).edges == frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n))


def test_circular_arc_proper_gives_two_fold_b():
    # proper arcs, some wrapping: the flattened family is at most 2-fold proper
    arcs = [Arc(Fr(i, 8), Fr((i + 3) % 8, 8)) for i in range(8)]
    rep = perturb_endpoints(Representation("circular_arc", tuple(arcs)))
    inst = circular_arc_interpretation(rep.objects)
    assert inst.provenance["k"] == 1
    assert inst.provenance["k_flat"] <= 2
    assert inst.width_bound == 3


def test_circular_arc_avoiding_zero_equals_interval():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 8)
        arcs = []
        for _ in range(n):
            a = Fr(rng.randint(1, 60), 128)
            b = Fr(rng.randint(62, 127), 128)
            arcs.append(Arc(a, b))
        rep = perturb_endpoints(Representation("circular_arc", tuple(arcs)))
        inst = circular_arc_interpretation(rep.objects)
        flat = [Interval(a.start, a.end) for a in rep.objects]
        g_int = build_intersection_graph("interval", Representation("interval", tuple(flat)))
        assert instance_graph(inst).edges == g_int.edges


def test_circle_examples():
    crossing = [Chord(Fr(0), Fr(1, 2)), Chord(Fr(1, 4), Fr(3, 4))]
    inst = circle_interpretation(crossing)
    assert inst.width_bound == 2
    assert instance_graph(inst).edges == frozenset({(0, 1)})
    nested = [Chord(Fr(0), Fr(3, 4)), Chord(Fr(1, 4), Fr(1, 2))]
    inst = circle_interpretation(nested)
    assert inst.provenance["k"] == 2
    assert instance_graph(inst).edges == frozenset()


def test_circle_figure_seven_chords():
    pos = {name: Fr(i, 16) for i, name in enumerate(
        ["a1", "b1", "c1", "a2", "d1", "e1", "c2", "f1", "d2", "b2", "g1",
         "e2", "f2", "g2"], start=1)}
    chords = tuple(Chord(pos[f"{n}1"], pos[f"{n}2"]) for n in "abcdefg")
    rep = Representation("circle", chords)
    g = build_intersection_graph("circle", rep)
    inst = circle_interpretation(chords)
    assert instance_graph(inst).edges == g.edges


def test_permutation_plan_orientations():
    identity = [PermSegment(Fr(i), Fr(i)) for i in range(5)]
    inst = permutation_plan(identity)
    assert inst.provenance["mis"] == 5 and inst.provenance["clique"] == 1
    assert inst.provenance["reversed"] is True and inst.complemented
    reversal = [PermSegment(Fr(i), Fr(5 - i)) for i in range(5)]
    inst = permutation_plan(reversal)
    assert inst.provenance["mis"] == 1 and inst.provenance["clique"] == 5
    assert inst.provenance["reversed"] is False


def test_permutation_mis_clique_bruteforce():
    rng = random.Random(14)
    for _ in range(60):
        rep = rand_segments(rng, rng.randint(1, 10))
        g = build_intersection_graph("permutation", rep)
        mis = longest_noncrossing(rep.objects)
        clique = longest_crossing(rep.objects)
        assert mis == max_independent_set(g)
        assert clique == max_clique(g)
        inst = permutation_plan(list(rep.objects))
        assert min(mis, clique) == min(inst.provenance["mis"], inst.provenance["clique"])


def test_permutation_chains_with_tied_coordinates():
    """Segments that share an end do not cross, in either chain count."""
    tied = [PermSegment(0, 1), PermSegment(0, 0)]
    for segs in (tied, tied[::-1]):
        assert longest_crossing(segs) == 1 and longest_noncrossing(segs) == 2
        assert not permutation_subgraph_iso(segs, LabeledGraph(2, {(0, 1)}))
    rng = random.Random(16)
    for _ in range(300):
        segs = tuple(PermSegment(rng.randint(0, 3), rng.randint(0, 3))
                     for _ in range(rng.randint(1, 8)))
        g = build_intersection_graph("permutation", Representation("permutation", segs))
        assert longest_crossing(segs) == max_clique(g)
        assert longest_noncrossing(segs) == max_independent_set(g)


def test_permutation_subgraph_iso():
    rng = random.Random(15)
    k3 = LabeledGraph(3, {(0, 1), (1, 2), (0, 2)})
    p3 = LabeledGraph(3, {(0, 1), (1, 2)})
    decreasing = [PermSegment(Fr(i), Fr(9 - i)) for i in range(3)]
    assert permutation_subgraph_iso(decreasing, k3)
    parallel = [PermSegment(Fr(i), Fr(i)) for i in range(3)]
    assert not permutation_subgraph_iso(parallel, p3)
    from helpers import nonisomorphic_graphs
    patterns = [h for n in (1, 2, 3, 4) for h in nonisomorphic_graphs(n)]
    for _ in range(10):
        rep = rand_segments(rng, rng.randint(1, 9))
        g = build_intersection_graph("permutation", rep)
        for h in patterns:
            assert permutation_subgraph_iso(rep.objects, h) == has_subgraph(g, h)


def test_box_examples():
    # three distinct y-intervals, nested x-projections: width 4 poset
    xs = [(Fr(0), Fr(7)), (Fr(1), Fr(6)), (Fr(2), Fr(5)), (Fr(3), Fr(4))]
    ys = [(Fr(0), Fr(1)), (Fr(0), Fr(1)), (Fr(2), Fr(3)), (Fr(4), Fr(5))]
    boxes = [Box(Interval(*x), Interval(*y)) for x, y in zip(xs, ys)]
    inst = box_interpretation(boxes)
    assert inst.provenance["kx"] == 4 and inst.width_bound == 5
    with pytest.raises(GeometryError):
        box_interpretation(boxes, k=2)  # three distinct y-intervals exceed k


def test_box_single_row_is_interval_graph():
    rng = random.Random(16)
    for _ in range(15):
        rep = rand_boxes(rng, rng.randint(1, 8), k=1)
        xs = [b.x for b in rep.objects]
        g_boxes = build_intersection_graph("box", rep)
        g_int = build_intersection_graph("interval", Representation("interval", tuple(xs)))
        assert g_boxes.edges == g_int.edges


def test_unit_disk_examples():
    one_row = [Disk(Fr(0), Fr(0)), Disk(Fr(1, 2), Fr(0)), Disk(Fr(2), Fr(0))]
    inst = unit_disk_interpretation(one_row)
    assert inst.width_bound == 2
    tri = [Disk(Fr(0), Fr(0)), Disk(Fr(3, 4), Fr(0)), Disk(Fr(3, 8), Fr(3, 4))]
    inst = unit_disk_interpretation(tri)
    g = build_intersection_graph("unit_disk", Representation("unit_disk", tuple(tri)))
    assert instance_graph(inst).edges == g.edges


def test_unit_disk_ties_and_tangencies():
    # same centers, tangent rows, rows exactly one apart
    disks = [Disk(Fr(0), Fr(0)), Disk(Fr(0), Fr(0)), Disk(Fr(0), Fr(1)),
             Disk(Fr(1, 2), Fr(1)), Disk(Fr(0), Fr(3))]
    g = build_intersection_graph("unit_disk", Representation("unit_disk", tuple(disks)))
    inst = unit_disk_interpretation(disks)
    assert instance_graph(inst).edges == g.edges
    assert g.has_edge(0, 2) and not g.has_edge(0, 4)


def test_unit_disk_exact_endpoint_relation():
    """On each row pair, endpoint e < disk i iff e <= i's left chord end, and
    i < e iff e >= its right one, in the chain's symbolic order."""
    rng = random.Random(44)
    for _ in range(40):
        disks = rand_disks(rng, rng.randint(1, 9)).objects
        p = unit_disk_interpretation(disks).poset
        rows = sorted({d.cy for d in disks})
        for name, elems in p.labels.items():
            if not name.startswith("D_"):
                continue
            ri, rj = (rows[int(r) - 1] for r in name.split("_")[1:])
            cmp = _disk_endpoint_cmp(1 - (rj - ri) ** 2)
            for eid in elems:
                i, side = p.names[eid].split("[")[1].rstrip("]").split(",")
                e = (disks[int(i)].cx, 1 if side == "R" else -1, int(i))
                for d, disk in enumerate(disks):
                    if disk.cy not in (ri, rj):
                        continue
                    assert p.lt(eid, d) == (cmp(e, (disk.cx, -1, d)) <= 0)
                    assert p.lt(d, eid) == (cmp(e, (disk.cx, 1, d)) >= 0)


def test_visibility_convex_polygon():
    pts = tuple((Fr(i), Fr(i * (5 - i))) for i in range(6))
    inst = visibility_interpretation(Polygon(pts))
    assert inst.width_bound == 1
    assert len(instance_graph(inst).edges) == 15  # K6


def test_visibility_empty_interior_ear_chain_count():
    # four ears, one with empty interior: blue chains only between nonempty pairs
    poly = Polygon(((Fr(0), Fr(0)), (Fr(1), Fr(6)), (Fr(2), Fr(3)), (Fr(3), Fr(7)),
                    (Fr(4), Fr(4)), (Fr(5), Fr(2)), (Fr(6), Fr(5, 2)), (Fr(7), Fr(0))))
    report = polygon_report(poly)
    interiors = report.ear_interiors()
    empty = sum(1 for a in interiors if not a)
    nonempty = sum(1 for a in interiors if a)
    assert len(interiors) == len(report.reflex_vertices) + 1
    inst = visibility_interpretation(poly)
    chains = {name.split("]")[0] for name in inst.poset.names if name.startswith("b[")}
    assert len(chains) == nonempty * (nonempty - 1) // 2


def test_vischar_claim_on_random_fans():
    rng = random.Random(18)
    for _ in range(25):
        poly = rand_fan(rng, rng.randint(5, 11))
        g = visibility_graph(poly)
        report = polygon_report(poly)
        interiors = [a for a in report.ear_interiors()]
        for ai in range(len(interiors)):
            for bi in range(ai + 1, len(interiors)):
                a_vs, b_vs = interiors[ai], interiors[bi]
                for va in a_vs:
                    for i1 in range(len(b_vs)):
                        for j1 in range(i1 + 1, len(b_vs)):
                            if g.has_edge(va, b_vs[i1]):
                                assert g.has_edge(va, b_vs[j1])
                for vj in b_vs:
                    for i1 in range(len(a_vs)):
                        for j1 in range(i1 + 1, len(a_vs)):
                            if g.has_edge(vj, a_vs[j1]):
                                assert g.has_edge(vj, a_vs[i1])


def test_visibility_blue_chain_staircase():
    rng = random.Random(19)
    for _ in range(10):
        poly = rand_fan(rng, rng.randint(5, 11))
        inst = visibility_interpretation(poly)
        p = inst.poset
        chains = {}
        for e, name in enumerate(p.names):
            if name.startswith("b["):
                chains.setdefault(name.split("]")[0], []).append(e)
        for elems in chains.values():
            for a in elems:
                for b in elems:
                    assert a == b or p.lt(a, b) or p.lt(b, a)


def test_visibility_rejects_reflex_uv():
    # distinguished edge's endpoint reflex: u is made reflex via a dent
    poly = Polygon(((Fr(0), Fr(0)), (Fr(2), Fr(1)), (Fr(1), Fr(3)), (Fr(4), Fr(4)),
                    (Fr(6), Fr(0))))
    if 0 in polygon_report(poly).reflex_vertices:
        with pytest.raises(GeometryError):
            visibility_interpretation(poly)


def test_full_roundtrip_model_checks():
    rng = random.Random(77)
    for cls, mk in CLASS_MAKERS.items():
        for _ in range(6):
            rep = mk(rng, rng.randint(1, 8))
            for _ in range(4):
                model_check(cls, rep, rand_sentence(rng, rng.randint(1, 3)))
    for _ in range(4):
        rep = Representation("visibility", (rand_fan(rng, rng.randint(4, 9)),))
        for _ in range(3):
            model_check("visibility", rep, rand_sentence(rng, rng.randint(1, 3)))


def test_box_figure_instance():
    # the illustration's five boxes, scaled by ten: x-projections 3-fold
    # proper, three distinct y-intervals, poset of width 4
    data = [((2, 12), (2, 7)), ((4, 10), (9, 14)), ((11, 20), (5, 12)),
            ((15, 18), (2, 7)), ((14, 19), (9, 14))]
    boxes = [Box(Interval(Fr(a), Fr(b)), Interval(Fr(c), Fr(d)))
             for (a, b), (c, d) in data]
    inst = box_interpretation(boxes)
    assert inst.provenance["kx"] == 3
    assert inst.provenance["ell"] == 3
    assert inst.width_bound == 4
    from geomfo.poset import poset_width
    assert poset_width(inst.poset) <= 4
    g = build_intersection_graph("box", Representation("box", tuple(boxes)))
    assert instance_graph(inst).edges == g.edges
