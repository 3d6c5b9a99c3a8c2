import itertools
import random
import sys
from fractions import Fraction as Fr

import pytest

from geomfo.checker import build_graph, eval_structure, model_check
from geomfo.formula import GRAPH, Var, parse_formula
from geomfo.geometry import (ALL_CLASSES, Arc, Box, Chord, Disk, GeometryError, Interval,
                             LabeledGraph, PermSegment, Polygon, Representation,
                             build_intersection_graph, polygon_report, visibility_graph)
from geomfo import geometry, interpret
from geomfo.generators import terfan_polygon
from geomfo.interpret import (_arc_instance, _circle_instance, _interval_instance,
                              interval_theta, make_instance, permutation_subgraph_iso)
from geomfo.poset import validate_poset

from helpers import disk_endpoint_cmp as _disk_endpoint_cmp
from helpers import (instance_fields, instance_graph, max_clique, max_independent_set,
                     has_subgraph, poset_width, rand_arcs, rand_boxes, rand_chords, rand_disks,
                     rand_fan, rand_intervals, rand_segments, rand_sentence,
                     ref_perturb_endpoints, ref_tie_instance, ref_visibility_poset)


def _instance(cls, objects):
    """``make_instance`` of the objects as a representation of ``cls``."""
    return make_instance(cls, Representation(cls, tuple(objects)))


def _on_grid(build, cls, objects):
    """A private grid builder run on the objects' grid as it is."""
    return build(*geometry._grid(cls, Representation(cls, tuple(objects))))


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


def test_interpretations_on_tied_ends_build_the_reference_instance():
    """The grid builders take shared ends as they are: the tie rule gives
    the instance of the ends moved apart."""
    for build, cls, objects in (
            (_interval_instance, "interval", [Interval(Fr(0), Fr(2)), Interval(Fr(1), Fr(2))]),
            (_circle_instance, "circle", [Chord(Fr(1, 4), Fr(1, 2)), Chord(Fr(3, 4), Fr(1, 2))]),
            (_arc_instance, "circular_arc",
             [Arc(Fr(1, 4), Fr(1, 2)), Arc(Fr(1, 2), Fr(3, 4))])):
        assert (instance_fields(_on_grid(build, cls, objects))
                == instance_fields(ref_tie_instance(cls, objects))), cls
        rep = Representation(cls, tuple(objects))
        assert instance_graph(make_instance(cls, rep)).edges == build_graph(cls, rep).edges


def test_circular_arc_end_at_angle_0_builds_the_reference_instance():
    """An arc that starts at angle 0 wraps, as one that starts just below a
    full turn does; an arc may end at 0."""
    for arcs in ([Arc(Fr(0), Fr(1, 2)), Arc(Fr(1, 4), Fr(3, 4))],
                 [Arc(Fr(1, 4), Fr(3, 4)), Arc(Fr(7, 8), Fr(0))]):
        inst = _on_grid(_arc_instance, "circular_arc", arcs)
        assert instance_fields(inst) == instance_fields(ref_tie_instance("circular_arc", arcs))
    assert inst.poset.labels["red"] == {inst.vertex_map[1]}


# one small representation of each class
_SAMPLES = {rep.cls: rep for rep in (
    Representation("interval", (Interval(0, 1),)),
    Representation("circular_arc", (Arc(Fr(1, 4), Fr(3, 4)),)),
    Representation("circle", (Chord(Fr(1, 4), Fr(3, 4)),)),
    Representation("permutation", (PermSegment(0, 1),)),
    Representation("box", (Box(Interval(0, 1), Interval(0, 1)),)),
    Representation("unit_disk", (Disk(0, 0),)),
    Representation("visibility", (Polygon(((0, 0), (1, 2), (3, 0))),)),
)}


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_wrong_class_or_object_type_is_a_typed_error(cls):
    """``permutation_subgraph_iso`` refuses objects that are not segments,
    and every door to an instance refuses a representation of another
    class, and one of this class that holds another class's objects, each
    with the one check's message."""
    other = _SAMPLES[ALL_CLASSES[ALL_CLASSES.index(cls) - 1]]
    foreign = other if cls == "permutation" else _SAMPLES[cls]
    with pytest.raises(GeometryError, match=r"^object .+ is not a PermSegment$"):
        permutation_subgraph_iso(foreign.objects, LabeledGraph(1))
    wrong_type = Representation(cls, other.objects)
    want = "Polygon" if cls == "visibility" else geometry._OBJECTS[cls].type.__name__
    phi = parse_formula("exists x. x=x", GRAPH)
    for build in (build_graph, make_instance, lambda c, r: model_check(c, r, phi)):
        with pytest.raises(GeometryError,
                           match=rf"^representation is of class {other.cls!r}, not {cls!r}$"):
            build(cls, other)
        with pytest.raises(GeometryError, match=rf"^object .+ is not a {want}$"):
            build(cls, wrong_type)


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


def _fraction_route(cls, rep):
    """The instance's fields built the long way: ``ref_perturb_endpoints``
    moves the ends apart as new ``Fraction`` objects, and ``make_instance``
    reads them again."""
    if cls == "box":
        moved = ref_perturb_endpoints(
            Representation("interval", tuple(b.x for b in rep.objects))).objects
        inst = _instance("box", [Box(x, b.y) for x, b in zip(moved, rep.objects)])
    else:
        inst = make_instance(cls, ref_perturb_endpoints(rep))
    return instance_fields(inst)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_route_matches_fraction_route(seed):
    """``make_instance`` and the build ``model_check`` reads rank the integer
    ends by the tie rule and hand the ranks straight to the poset; the
    result is the instance of the ends moved apart as ``Fraction``s."""
    rng = random.Random(seed)
    perturbed = 0
    for cls in ("interval", "circular_arc", "circle", "box"):
        for _ in range(12):
            rep = CLASS_MAKERS[cls](rng, rng.randint(1, 14))
            flat = rep if cls != "box" else Representation(
                "interval", tuple(b.x for b in rep.objects))
            perturbed += ref_perturb_endpoints(flat) is not flat
            want = _fraction_route(cls, rep)
            assert instance_fields(make_instance(cls, rep)) == want, cls
            graph, inst = interpret._build(cls, rep)
            assert instance_fields(inst) == want, cls
            assert graph == build_graph(cls, rep)
    assert perturbed >= 24  # most draws share endpoints, so the tie rule runs


def test_model_check_computes_meeting_pairs_twice(monkeypatch):
    """One check of intervals with shared endpoints finds the meeting pairs
    once for the graph and once for the ends on their ranks, whose pairs
    must be the graph's."""
    calls = []
    pair_arrays = geometry._pair_arrays
    counted = lambda *args: calls.append(args[0]) or pair_arrays(*args)
    for module in (geometry, interpret):
        monkeypatch.setattr(module, "_pair_arrays", counted)
    rep = Representation("interval", tuple(Interval(Fr(a), Fr(b))
                                           for a, b in ((0, 2), (2, 4), (1, 2), (3, 5))))
    ends = [e for it in rep.objects for e in (it.lo, it.hi)]
    assert len(set(ends)) < len(ends)
    calls.clear()
    res = model_check("interval", rep, parse_formula("exists x. exists y. edge(x,y)", GRAPH))
    assert res.graph_verdict and res.poset_verdict
    assert calls == ["interval", "interval"]


def test_instance_invariants_all_classes():
    rng = random.Random(42)
    for cls, mk in CLASS_MAKERS.items():
        for _ in range(15):
            _check_instance(cls, mk(rng, rng.randint(1, 9)))
    for _ in range(8):
        _check_instance("visibility", Representation("visibility", (rand_fan(rng, rng.randint(4, 10)),)))


def test_no_build_closes_or_validates(monkeypatch):
    """Every class, visibility included, writes its rows closed: neither
    ``make_instance`` nor the build ``model_check`` runs calls
    ``transitive_closure`` or ``validate_poset``, wherever a module of the
    package binds them."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "geomfo":
            continue
        for fn_name in ("transitive_closure", "validate_poset"):
            fn = getattr(module, fn_name, None)
            if fn is not None:
                monkeypatch.setattr(module, fn_name, lambda *a, _fn=fn, _name=fn_name:
                                    calls.append(_name) or _fn(*a))
    rng = random.Random(43)
    cases = [(cls, mk(rng, n)) for cls, mk in CLASS_MAKERS.items() for n in (1, 7)]
    cases += [("visibility", Representation("visibility", (poly,))) for poly in
              (rand_fan(rng, 8), terfan_polygon(LabeledGraph(3, {(0, 1)})).polygon)]
    assert {cls for cls, _ in cases} == set(ALL_CLASSES)
    for cls, rep in cases:
        make_instance(cls, rep)
        interpret._build(cls, rep)
        assert calls == [], cls


def _same_rows_and_labels(w):
    p = make_instance("visibility", Representation("visibility", (w,))).poset
    ref = ref_visibility_poset(w)
    assert (p.n, p.rows, p.labels) == (ref.n, ref.rows, ref.labels)
    return p


def test_visibility_sweep_equals_the_closed_pairs_on_terfan_polygons():
    """The rows the visibility sweep writes are the closure of the generating
    pairs, on the terrain/fan polygon of every graph on 2 and 3 vertices."""
    blue = 0
    for n in (2, 3):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            h = LabeledGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            blue += len(_same_rows_and_labels(terfan_polygon(h).polygon).labels["blue"])
    assert blue > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_visibility_sweep_equals_the_closed_pairs_on_fans(seed):
    """The same on ``rand_fan`` polygons of 4 to 80 vertices."""
    rng = random.Random(seed)
    chains = 0
    for n in range(4, 81):
        p = _same_rows_and_labels(rand_fan(rng, n))
        chains += bool(p.labels["blue"])
    assert chains > 40


def test_interval_width_examples():
    proper = [Interval(Fr(0), Fr(2)), Interval(Fr(1), Fr(3))]
    inst = _instance("interval", proper)
    assert inst.width_bound == 2
    nested = [Interval(Fr(1), Fr(4)), Interval(Fr(2), Fr(3))]
    inst = _instance("interval", nested)
    assert inst.width_bound == 3
    x, y = Var("x"), Var("y")
    theta = interval_theta(x, y)
    assert eval_structure(inst.poset, theta,
                          {x: inst.vertex_map[1], y: inst.vertex_map[0]})
    assert not eval_structure(inst.poset, theta,
                              {x: inst.vertex_map[0], y: inst.vertex_map[1]})


def test_interval_tied_ends_build_the_reference_instance():
    """Intervals that share an end need no preparation: the tie rule ranks
    them as if moved apart."""
    items = [Interval(Fr(0), Fr(1)), Interval(Fr(0), Fr(2))]
    assert (instance_fields(_on_grid(_interval_instance, "interval", items))
            == instance_fields(ref_tie_instance("interval", items)))


def test_a_wrong_tie_rule_is_caught_by_the_graph_check(monkeypatch):
    """Second ends before first ends at one value would part [0,1] and
    [1,2], which meet; the check on the ranks refuses it."""
    monkeypatch.setattr(interpret, "_tie_keys", lambda cls, scale, keys: [
        (v, 0 if e & 1 else 1, e) for e, v in enumerate(keys)])
    rep = Representation("interval", (Interval(0, 1), Interval(1, 2)))
    with pytest.raises(GeometryError, match="^breaking endpoint ties changed the "
                                            "intersection graph$"):
        make_instance("interval", rep)


def test_permutation_subgraph_iso_builds_once(monkeypatch):
    """The clique shortcut and the sentence read one build of the segments."""
    builds = []
    for name in ("_build", "make_instance"):
        fn = getattr(interpret, name)
        monkeypatch.setattr(interpret, name,
                            lambda *a, _fn=fn, _name=name: builds.append(_name) or _fn(*a))
    parallel = [PermSegment(i, i) for i in range(5)]
    for segments, h, want in ((parallel, LabeledGraph(2, {(0, 1)}), False),
                              (parallel, LabeledGraph(2), True),
                              ([PermSegment(0, 1), PermSegment(1, 0)],
                               LabeledGraph(2, {(0, 1)}), True)):
        builds.clear()
        assert permutation_subgraph_iso(segments, h) is want
        assert builds == ["_build"]


def test_circular_arc_all_contain_zero():
    arcs = [Arc(Fr(3, 4), Fr(1, 4)), Arc(Fr(7, 8), Fr(1, 8)), Arc(Fr(5, 8), Fr(3, 8))]
    inst = _instance("circular_arc", arcs)
    n = len(arcs)
    assert instance_graph(inst).edges == frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n))


def test_circular_arc_proper_gives_two_fold_b():
    # proper arcs, some wrapping: the flattened family is at most 2-fold proper
    arcs = [Arc(Fr(i, 8), Fr((i + 3) % 8, 8)) for i in range(8)]
    inst = _instance("circular_arc", arcs)
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
        rep = Representation("circular_arc", tuple(arcs))
        inst = make_instance("circular_arc", rep)
        flat = [Interval(a.start, a.end) for a in rep.objects]
        g_int = build_intersection_graph("interval", Representation("interval", tuple(flat)))
        assert instance_graph(inst).edges == g_int.edges


def test_circle_examples():
    crossing = [Chord(Fr(0), Fr(1, 2)), Chord(Fr(1, 4), Fr(3, 4))]
    inst = _instance("circle", crossing)
    assert inst.width_bound == 2
    assert instance_graph(inst).edges == frozenset({(0, 1)})
    nested = [Chord(Fr(0), Fr(3, 4)), Chord(Fr(1, 4), Fr(1, 2))]
    inst = _instance("circle", nested)
    assert inst.provenance["k"] == 2
    assert instance_graph(inst).edges == frozenset()


def test_circle_figure_seven_chords():
    pos = {name: Fr(i, 16) for i, name in enumerate(
        ["a1", "b1", "c1", "a2", "d1", "e1", "c2", "f1", "d2", "b2", "g1",
         "e2", "f2", "g2"], start=1)}
    chords = tuple(Chord(pos[f"{n}1"], pos[f"{n}2"]) for n in "abcdefg")
    rep = Representation("circle", chords)
    g = build_intersection_graph("circle", rep)
    inst = _instance("circle", chords)
    assert instance_graph(inst).edges == g.edges


def test_permutation_plan_orientations():
    identity = [PermSegment(Fr(i), Fr(i)) for i in range(5)]
    inst = _instance("permutation", identity)
    assert inst.provenance["mis"] == 5 and inst.provenance["clique"] == 1
    assert inst.provenance["reversed"] is True and inst.complemented
    reversal = [PermSegment(Fr(i), Fr(5 - i)) for i in range(5)]
    inst = _instance("permutation", reversal)
    assert inst.provenance["mis"] == 1 and inst.provenance["clique"] == 5
    assert inst.provenance["reversed"] is False


def test_permutation_mis_clique_bruteforce():
    rng = random.Random(14)
    for _ in range(60):
        rep = rand_segments(rng, rng.randint(1, 10))
        g = build_intersection_graph("permutation", rep)
        inst = make_instance("permutation", rep)
        mis, clique = inst.provenance["mis"], inst.provenance["clique"]
        assert mis == max_independent_set(g)
        assert clique == max_clique(g)
        assert inst.provenance["reversed"] is inst.complemented is (clique < mis)


def test_permutation_chains_with_tied_coordinates():
    """Segments that share an end do not cross, in either chain count."""
    tied = [PermSegment(0, 1), PermSegment(0, 0)]
    for segs in (tied, tied[::-1]):
        prov = _instance("permutation", segs).provenance
        assert prov["clique"] == 1 and prov["mis"] == 2
        assert not permutation_subgraph_iso(segs, LabeledGraph(2, {(0, 1)}))
    rng = random.Random(16)
    for _ in range(300):
        rep = Representation("permutation", tuple(
            PermSegment(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 8))))
        g = build_intersection_graph("permutation", rep)
        prov = make_instance("permutation", rep).provenance
        assert prov["clique"] == max_clique(g)
        assert prov["mis"] == max_independent_set(g)


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
    inst = _instance("box", boxes)
    assert inst.width_bound == 5
    # k counts the three distinct y-intervals too; the larger count is kx
    assert inst.provenance == {"class": "box", "k": 4, "kx": 4, "ell": 3}


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
    inst = _instance("unit_disk", one_row)
    assert inst.width_bound == 2
    tri = [Disk(Fr(0), Fr(0)), Disk(Fr(3, 4), Fr(0)), Disk(Fr(3, 8), Fr(3, 4))]
    inst = _instance("unit_disk", tri)
    g = build_intersection_graph("unit_disk", Representation("unit_disk", tuple(tri)))
    assert instance_graph(inst).edges == g.edges


def test_unit_disk_ties_and_tangencies():
    # same centers, tangent rows, rows exactly one apart
    disks = [Disk(Fr(0), Fr(0)), Disk(Fr(0), Fr(0)), Disk(Fr(0), Fr(1)),
             Disk(Fr(1, 2), Fr(1)), Disk(Fr(0), Fr(3))]
    g = build_intersection_graph("unit_disk", Representation("unit_disk", tuple(disks)))
    inst = _instance("unit_disk", disks)
    assert instance_graph(inst).edges == g.edges
    assert g.has_edge(0, 2) and not g.has_edge(0, 4)


def test_unit_disk_exact_endpoint_relation():
    """On each row pair, endpoint e < disk i iff e <= i's left chord end, and
    i < e iff e >= its right one, in the chain's symbolic order."""
    rng = random.Random(44)
    for _ in range(40):
        disks = rand_disks(rng, rng.randint(1, 9)).objects
        p = _instance("unit_disk", disks).poset
        rows = sorted({d.cy for d in disks})
        for name, elems in p.labels.items():
            if not name.startswith("D_"):
                continue
            ri, rj = (rows[int(r) - 1] for r in name.split("_")[1:])
            cmp = _disk_endpoint_cmp(1 - (rj - ri) ** 2)
            # the id layout: two ids per disk on the pair, in disk order,
            # the left end's and then the right end's
            along = [i for i, d in enumerate(disks) if d.cy in (ri, rj)]
            for t, eid in enumerate(sorted(elems)):
                i = along[t // 2]
                e = (disks[i].cx, 1 if t & 1 else -1, i)
                for d, disk in enumerate(disks):
                    if disk.cy not in (ri, rj):
                        continue
                    assert p.lt(eid, d) == (cmp(e, (disk.cx, -1, d)) <= 0)
                    assert p.lt(d, eid) == (cmp(e, (disk.cx, 1, d)) >= 0)


def test_visibility_convex_polygon():
    pts = tuple((Fr(i), Fr(i * (5 - i))) for i in range(6))
    inst = _instance("visibility", [Polygon(pts)])
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
    p = _instance("visibility", [poly]).poset
    # the id layout: the blue copies follow the vertices; a blue chain
    # starts at a copy that covers no other copy
    blue = range(poly.n, p.n)
    assert p.labels["blue"] == set(blue)
    chains = sum(1 for e in blue
                 if not any(p.lt(d, e) and not any(p.lt(d, f) and p.lt(f, e) for f in range(p.n))
                            for d in blue))
    assert chains == nonempty * (nonempty - 1) // 2


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
        inst = _instance("visibility", [poly])
        p = inst.poset
        # the id layout: after the vertices, one block of copies per pair of
        # ears with nonempty interiors, ear b's copies before ear a's
        interiors = [ear for ear in polygon_report(poly).ear_interiors() if ear]
        chains, start = [], poly.n
        for a, aa in enumerate(interiors):
            for ab in interiors[a + 1:]:
                chains.append(list(range(start, start + len(ab) + len(aa))))
                start += len(ab) + len(aa)
        assert start == p.n
        for elems in chains:
            for a in elems:
                for b in elems:
                    assert a == b or p.lt(a, b) or p.lt(b, a)


def test_visibility_rejects_reflex_uv():
    """The class's two polygon refusals, through the instance and the check:
    a reflex end of uv, and a polygon that fails the weak-visibility check."""
    phi = parse_formula("exists x. x=x", GRAPH)
    for points, message in (
            # clockwise, with u = (2,-2) reflex
            (((2, -2), (3, -4), (-4, -4), (-3, -1), (-4, -1), (-2, 4), (2, 3), (1, 1),
              (1, 0), (2, 0)), "distinguished edge uv is not convex"),
            (((-1, -6), (-1, -2), (-3, -5), (-3, -2), (4, 0)),
             "polygon fails the weak-visibility vertexwise check")):
        rep = Representation("visibility", (Polygon(points),))
        for build in (make_instance, lambda c, r: model_check(c, r, phi)):
            with pytest.raises(GeometryError, match=f"^{message}$"):
                build("visibility", rep)


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
    inst = _instance("box", boxes)
    assert inst.provenance["kx"] == 3
    assert inst.provenance["ell"] == 3
    assert inst.width_bound == 4
    assert poset_width(inst.poset) <= 4
    g = build_intersection_graph("box", Representation("box", tuple(boxes)))
    assert instance_graph(inst).edges == g.edges
