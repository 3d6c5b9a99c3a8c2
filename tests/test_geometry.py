import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from geomfo import geometry
from geomfo.checker import model_check
from geomfo.formula import GRAPH, parse_formula
from geomfo.generators import cliquewidth_family
from geomfo.geometry import (Arc, Box, Chord, Disk, GeometryError, Interval,
                             LabeledGraph, PermSegment, Polygon, Representation,
                             _grid, _transversal_ok, build_intersection_graph,
                             cliquewidth_certificate_check,
                             gradually_connected_check, parse_rat, permutation_to_chords,
                             polygon_report, sees, sees_foot, visibility_graph)
from geomfo.interpret import _interval_instance

from helpers import (RefGraph, adjacency_rows, exhaustive_transversal, generated_poset,
                     instance_fields, longest_nesting_chain, mirsky_partition,
                     oracle_segment_inside, oracle_sees, proper_parts, ref_polygon_simple,
                     rand_arcs, rand_boxes, rand_chords, rand_disks, rand_fan, rand_grid_star,
                     rand_intervals, rand_segments, ref_intersection_edges,
                     ref_perturb_endpoints, ref_tie_instance, strictly_contains)


def iv(a, b):
    return Interval(Fr(a), Fr(b))


def test_interval_graph_example():
    rep = Representation("interval", (iv(1, 3), iv(2, 4), iv(5, 6)))
    g = build_intersection_graph("interval", rep)
    assert g.edges == frozenset({(0, 1)})


def test_open_circle_representation_figure():
    # endpoint order: 0 < a1 < b1 < c1 < a2 < d1 < e1 < c2 < f1 < d2 < b2 < g1 < e2 < f2 < g2
    pos = {name: Fr(i, 16) for i, name in enumerate(
        ["a1", "b1", "c1", "a2", "d1", "e1", "c2", "f1", "d2", "b2", "g1",
         "e2", "f2", "g2"], start=1)}
    chords = {name: Chord(pos[f"{name}1"], pos[f"{name}2"])
              for name in "abcdefg"}
    order = list("abcdefg")
    rep = Representation("circle", tuple(chords[n] for n in order))
    g = build_intersection_graph("circle", rep)
    ia, ib, id_ = order.index("a"), order.index("b"), order.index("d")
    assert g.has_edge(ia, ib)          # a and b interleave
    assert not g.has_edge(ib, id_)     # d nested inside b


def test_unit_disk_tangent_and_close():
    rep = Representation("unit_disk", (Disk(Fr(0), Fr(0)), Disk(Fr(3, 4), Fr(0)),
                                       Disk(Fr(2), Fr(0))))
    g = build_intersection_graph("unit_disk", rep)
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    # tangency counts as an edge
    rep2 = Representation("unit_disk", (Disk(Fr(0), Fr(0)), Disk(Fr(1), Fr(0))))
    assert build_intersection_graph("unit_disk", rep2).has_edge(0, 1)


def test_permutation_equals_opened_circle():
    rng = random.Random(3)
    for _ in range(25):
        rep = rand_segments(rng, rng.randint(1, 9))
        g1 = build_intersection_graph("permutation", rep)
        chords = permutation_to_chords(rep.objects)
        g2 = build_intersection_graph("circle", Representation("circle", tuple(chords)))
        assert g1.edges == g2.edges


def test_proper_partition_examples():
    k, parts = proper_parts([iv(1, 4), iv(2, 3), iv(5, 6)])
    assert k == 2 and parts[1] == 2 and parts[0] == 1 and parts[2] == 1
    k, _ = proper_parts([iv(0, 2), iv(1, 3), iv(Fr(5, 2), 4)])
    assert k == 1
    # a shared left end: the tie rule nests [1,2] inside [1,3]
    tied = Representation("interval", (iv(1, 2), iv(1, 3)))
    assert proper_parts(tied.objects) == mirsky_partition(
        ref_perturb_endpoints(tied).objects) == (2, [2, 1])


def test_proper_partition_on_tied_ends_builds_the_reference_instance():
    """Shared ends, tangencies and huge denominators included, give the
    instance of the ends moved apart."""
    big = 10 ** 30
    for items in ([iv(1, 2), iv(1, 3)], [iv(0, 2), iv(2, 3)],
                  [iv(Fr(1, 3), Fr(big + 1, big)), iv(Fr(big + 1, big), 2)]):
        inst = _interval_instance(*_grid("interval", Representation("interval", tuple(items))))
        assert instance_fields(inst) == instance_fields(ref_tie_instance("interval", items))


def test_proper_partition_minimality_oracle():
    rng = random.Random(9)
    for _ in range(60):
        rep = rand_intervals(rng, rng.randint(1, 10))
        rep = ref_perturb_endpoints(rep)
        items = rep.objects
        k, parts = proper_parts(items)
        assert k == longest_nesting_chain(items)
        by_part = {}
        for i, p in enumerate(parts):
            by_part.setdefault(p, []).append(i)
        for members in by_part.values():
            for i in members:
                for j in members:
                    assert i == j or not strictly_contains(items[i], items[j])


# ``ref_perturb_endpoints``, the oracle the instances' tie rule is tested against

def test_perturb_identity_when_distinct():
    rep = Representation("interval", (iv(1, 2), iv(3, 4)))
    assert ref_perturb_endpoints(rep) is rep


def test_perturb_shared_endpoint():
    rep = Representation("interval", (iv(1, 2), iv(1, 3)))
    out = ref_perturb_endpoints(rep)
    ends = [e for o in out.objects for e in (o.lo, o.hi)]
    assert len(set(ends)) == 4
    assert build_intersection_graph("interval", out).edges == \
        build_intersection_graph("interval", rep).edges


def test_perturb_preserves_graphs_randomized():
    rng = random.Random(21)
    makers = {"interval": rand_intervals, "circular_arc": rand_arcs, "circle": rand_chords}
    for cls, mk in makers.items():
        for _ in range(40):
            rep = mk(rng, rng.randint(1, 9))
            out = ref_perturb_endpoints(rep)
            assert build_intersection_graph(cls, out).edges == \
                build_intersection_graph(cls, rep).edges
    # duplicated chords and shared endpoints specifically
    rep = Representation("circle", (Chord(Fr(0), Fr(1, 2)), Chord(Fr(0), Fr(1, 2)),
                                    Chord(Fr(1, 2), Fr(3, 4)), Chord(Fr(1, 4), Fr(5, 8))))
    out = ref_perturb_endpoints(rep)
    assert build_intersection_graph("circle", out).edges == \
        build_intersection_graph("circle", rep).edges


def test_permutation_ties_by_rank():
    """Tie-heavy segments, in both orientations of the plan: the chords keep
    every crossing, and the poset verdicts agree with the graph's."""
    sentences = [parse_formula(text, GRAPH) for text in (
        "exists x. exists y. edge(x,y)",
        "exists x. exists y. exists z. edge(x,y) & edge(y,z) & edge(x,z)",
        "exists x. exists y. exists z. !x=y & !y=z & !x=z & !edge(x,y) & !edge(y,z)"
        " & !edge(x,z)",
        "forall x. forall y. edge(x,y) -> (exists z. edge(x,z) & !edge(y,z))",
    )]
    rng = random.Random(18)
    orientations = set()
    for _ in range(120):
        segs = tuple(PermSegment(rng.randint(0, 3), rng.randint(0, 3))
                     for _ in range(rng.randint(1, 8)))
        rep = Representation("permutation", segs)
        g = build_intersection_graph("permutation", rep)
        chords = Representation("circle", tuple(permutation_to_chords(segs)))
        assert build_intersection_graph("circle", chords) == g
        for phi in sentences:
            res = model_check("permutation", rep, phi)
            assert res.graph_verdict == res.poset_verdict
        orientations.add(res.instance.provenance["reversed"])
    assert orientations == {False, True}


def square(side=4):
    return Polygon(((Fr(0), Fr(0)), (Fr(0), Fr(side)), (Fr(side), Fr(side)),
                    (Fr(side), Fr(0))))


def test_polygon_validation():
    with pytest.raises(GeometryError):
        Polygon(((Fr(0), Fr(0)), (Fr(1), Fr(1)), (Fr(2), Fr(2))))  # collinear
    with pytest.raises(GeometryError):  # counterclockwise
        Polygon(((Fr(0), Fr(0)), (Fr(4), Fr(0)), (Fr(2), Fr(2))))
    with pytest.raises(GeometryError):  # self-crossing bowtie
        Polygon(((Fr(0), Fr(0)), (Fr(2), Fr(2)), (Fr(2), Fr(0)), (Fr(0), Fr(2))))
    with pytest.raises(GeometryError, match="non-adjacent"):  # vertex on an edge
        Polygon(((0, 0), (0, 4), (4, 4), (4, 0), (2, 4)))
    with pytest.raises(GeometryError, match="non-adjacent"):  # collinear overlap
        Polygon(((0, 0), (0, 3), (4, 3), (4, 0), (1, 0), (1, 1), (3, 1), (3, 0)))


def test_coordinates_fraction_refuses_raise_geometry_error():
    """A coordinate that Fraction cannot read exactly raises GeometryError
    naming it; finite floats and rational text still convert exactly."""
    bad = [(lambda: Interval(float("nan"), 1), "nan"),
           (lambda: Interval(float("inf"), 1), "inf"),
           (lambda: Arc(None, 0.5), "None"),
           (lambda: Polygon([(0, 0), (1, 0), (float("nan"), 1)]), "nan")]
    for make, name in bad:
        with pytest.raises(GeometryError, match=f"^not a finite rational: {name}$"):
            make()
    assert Interval(0.1, "1/2") == Interval(Fr(0.1), Fr(1, 2))
    assert Interval(0.1, 1).lo == Fr(3602879701896397, 36028797018963968)


def test_polygon_validation_matches_pairwise_edge_test():
    """Random vertex orders on a 7 x 7 grid: among those that pass the
    vertex and orientation checks, the boundary scan rejects exactly the
    polygons that the pairwise edge test finds non-simple."""
    rng = random.Random(18)
    grid = [(Fr(x), Fr(y)) for x in range(7) for y in range(7)]
    verdicts = []
    for _ in range(10000):
        pts = rng.sample(grid, rng.randint(4, 9))
        try:
            Polygon(pts)
            simple = True
        except GeometryError as exc:
            if "non-adjacent" not in str(exc):
                continue
            simple = False
        assert simple == ref_polygon_simple(pts), pts
        verdicts.append(simple)
    assert verdicts.count(True) > 400 and verdicts.count(False) > 2000


def test_convex_polygons_are_complete():
    for n in range(3, 13):
        # convex n-gon, clockwise: points on a parabola-ish fan
        pts = []
        for i in range(n):
            # rational convex position: x = i, y = i*(n-i) scaled
            pts.append((Fr(i), Fr(i * (n - 1 - i))))
        # first/last on the base, middle above: clockwise ordering
        poly = Polygon(tuple(pts))
        g = visibility_graph(poly)
        assert len(g.edges) == n * (n - 1) // 2


def test_visibility_blocked_by_reflex():
    comb = Polygon(((Fr(0), Fr(0)), (Fr(1), Fr(3)), (Fr(2), Fr(1)), (Fr(3), Fr(3)),
                    (Fr(4), Fr(0))))
    g = visibility_graph(comb)
    assert not g.has_edge(1, 3)  # peaks hidden from each other
    assert g.has_edge(0, 2)


def test_visibility_against_independent_oracle():
    rng = random.Random(17)
    for _ in range(30):
        poly = rand_fan(rng, rng.randint(4, 10))
        g = visibility_graph(poly)
        for i in range(poly.n):
            for j in range(i + 1, poly.n):
                consecutive = j == i + 1 or (i == 0 and j == poly.n - 1)
                assert g.has_edge(i, j) == (consecutive or oracle_sees(poly, i, j))


def test_visibility_grazing_against_independent_oracle():
    rng = random.Random(23)
    polygons = grazing = 0
    while polygons < 150:
        try:
            poly = Polygon(rand_grid_star(rng))
        except GeometryError:
            continue
        polygons += 1
        g = visibility_graph(poly)
        pts = poly.vertices
        for i in range(poly.n):
            for j in range(i + 1, poly.n):
                assert g.has_edge(i, j) == oracle_sees(poly, i, j), (pts, i, j)
                (px, py), (qx, qy) = pts[i], pts[j]
                grazing += any(
                    (qx - px) * (y - py) == (qy - py) * (x - px)
                    and min(px, qx) <= x <= max(px, qx) and min(py, qy) <= y <= max(py, qy)
                    for k, (x, y) in enumerate(pts) if k not in (i, j))
    assert grazing > 100


def test_foot_against_independent_oracle():
    # rotations move u and v around the polygon; each vertex that sees
    # neither of them is decided on its foot, on the grid scaled by |uv|^2
    rng = random.Random(31)
    feet, seen = 0, set()
    for _ in range(16000):
        pts = rand_grid_star(rng)
        r = rng.randrange(len(pts))
        try:
            poly = Polygon(pts[r:] + pts[:r])
        except GeometryError:
            continue
        g = visibility_graph(poly)
        (ux, uy), (vx, vy) = poly.vertices[0], poly.vertices[-1]
        dx, dy = vx - ux, vy - uy
        last, weak = poly.n - 1, True
        for i in range(1, last):
            if g.has_edge(i, 0) or g.has_edge(i, last):
                continue
            px, py = poly.vertices[i]
            t = ((px - ux) * dx + (py - uy) * dy) / (dx * dx + dy * dy)
            want = 0 < t < 1 and oracle_segment_inside(poly, (px, py),
                                                       (ux + t * dx, uy + t * dy))
            assert sees_foot(poly, i) == want, (poly.vertices, i)
            if 0 < t < 1:
                feet += 1
                seen.add(want)
            weak = weak and want
        assert polygon_report(poly).weak_visibility_vertexwise() == weak
    assert feet >= 500 and seen == {False, True}


def test_polygon_report_convex():
    rep = polygon_report(square())
    assert rep.reflex_vertices == []
    assert len(rep.ears) == 1
    assert all(rep.is_convex_fan_at(v) for v in range(4))
    assert rep.weak_visibility_vertexwise()


def test_polygon_report_terrain():
    terr = Polygon(((Fr(0), Fr(0)), (Fr(1), Fr(2)), (Fr(2), Fr(1)), (Fr(3), Fr(3)),
                    (Fr(4), Fr(0))))
    rep = polygon_report(terr)
    assert rep.is_terrain
    assert rep.reflex_vertices == [2]
    assert rep.ears == [[0, 1, 2], [2, 3, 4]]
    # vertical walls at the ends are fine (weak x-monotonicity)
    box = Polygon(((Fr(0), Fr(0)), (Fr(0), Fr(2)), (Fr(3), Fr(2)), (Fr(3), Fr(0))))
    assert polygon_report(box).is_terrain
    # an x-backtracking chain is not a terrain
    bent = Polygon(((Fr(0), Fr(0)), (Fr(1), Fr(3)), (Fr(1, 2), Fr(4)), (Fr(4), Fr(0))))
    assert not polygon_report(bent).is_terrain


def test_polygon_report_empty_ear_interior():
    # two adjacent reflex vertices create an ear with empty interior
    poly = Polygon(((Fr(0), Fr(0)), (Fr(1), Fr(4)), (Fr(2), Fr(2)), (Fr(3), Fr(2)),
                    (Fr(4), Fr(4)), (Fr(5), Fr(0))))
    rep = polygon_report(poly)
    assert rep.reflex_vertices == [2, 3]
    interiors = rep.ear_interiors()
    assert [len(a) for a in interiors] == [1, 0, 1]


def test_gradually_connected():
    g = LabeledGraph(4, {(1, 2)})
    assert gradually_connected_check(g, [0], [3])
    g2 = LabeledGraph(4, {(1, 2)})  # X=(x1,x2)=(0,1), Y=(y1,y2)=(2,3): x2y1 in E
    assert gradually_connected_check(g2, [0, 1], [2, 3])
    g3 = LabeledGraph(4, {(0, 3)})  # x1y2 present: must fail
    assert not gradually_connected_check(g3, [0, 1], [2, 3])
    with pytest.raises(GeometryError):
        gradually_connected_check(g, [0, 1], [1, 2])
    with pytest.raises(GeometryError):
        gradually_connected_check(g, [0], [1, 2])


def test_certificate_size_precondition():
    # m = 1 <= 6kr: certificate must be rejected with False, not an error
    g = LabeledGraph(4, {(0, 1), (1, 2), (2, 3)})
    assert cliquewidth_certificate_check(g, [[0], [1], [2], [3]], [1, 3], 1) is False


def test_transversal_condition_against_exhaustive():
    rng = random.Random(12)
    verdicts = set()
    for _ in range(400):
        k, m = rng.choice((1, 2)), rng.randint(1, 3)
        r = 2 * k + 1
        parts = [list(range(t * m, (t + 1) * m)) for t in range(r)]
        idx = sorted(rng.sample(range(1, r), 2 * k))
        x_parts = [parts[i - 1] for i in idx]
        y_parts = [parts[i] for i in idx]
        # plant the condition, then break a few entries at random
        adj = [[rng.random() < 0.5 for _ in range(r * m)] for _ in range(r * m)]
        for b in range(2 * k):
            for a in range(b):
                for x in x_parts[b]:
                    for y in y_parts[a]:
                        adj[x][y] = True
                for x in x_parts[a]:
                    for y in y_parts[b]:
                        adj[x][y] = False
        for _ in range(rng.choice((0, 0, 1, 2))):
            x, y = rng.randrange(r * m), rng.randrange(r * m)
            adj[x][y] = not adj[x][y]
        want = exhaustive_transversal(adj, x_parts, y_parts)
        rows = [sum(1 << y for y, bit in enumerate(row) if bit) for row in adj]
        assert _transversal_ok(rows, x_parts, y_parts) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def _reference_cases(rng):
    """Representations of every class, with ties, tangencies and extremes."""
    makers = {"interval": rand_intervals, "circular_arc": rand_arcs, "circle": rand_chords,
              "permutation": rand_segments, "box": rand_boxes, "unit_disk": rand_disks}
    for mk in makers.values():
        for _ in range(40):
            yield mk(rng, rng.randint(1, 12))
    # mixed denominators, wrapping arcs, shared endpoints and tangencies
    ends = sorted({Fr(a, d) for d in (3, 5, 7) for a in range(d)})
    for _ in range(40):
        picks = [rng.sample(ends, 2) for _ in range(8)]
        yield Representation("circular_arc", tuple(Arc(a, b) for a, b in picks))
        yield Representation("circle", tuple(Chord(a, b) for a, b in picks))
        yield Representation("permutation", tuple(PermSegment(a, b) for a, b in picks))
        yield Representation("interval", tuple(Interval(min(p), max(p)) for p in picks))
        yield Representation("box", tuple(Box(Interval(min(p), max(p)), Interval(0, p[0] + 1))
                                          for p in picks))
    # disk centres exactly 1 apart (Pythagorean offsets) and just over
    unit = [(Fr(0), Fr(0)), (Fr(3, 5), Fr(4, 5)), (Fr(-5, 13), Fr(12, 13)), (Fr(1), Fr(0)),
            (Fr(8, 17), Fr(-15, 17)), (Fr(3, 5), Fr(-1, 5)), (Fr(101, 100), Fr(0))]
    for _ in range(40):
        base = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        yield Representation("unit_disk", tuple(Disk(bx + dx, by + dy) for bx, by in base
                                                for dx, dy in rng.sample(unit, 3)))
    yield from _disks_at_int64_bound()
    for cls in ("circular_arc", "circle", "unit_box", "unit_disk"):
        yield cliquewidth_family(cls, 1)[0]
    for mk in makers.values():
        for n in (0, 1):
            yield mk(random.Random(n), n)


def _disks_at_int64_bound():
    """Tangent, overlapping and separate disks whose scaled coordinates or
    unit lie just below 2^30, at it, or far beyond (denominator 10^30)."""
    for big in (2 ** 30 - 1, 2 ** 30):
        yield Representation("unit_disk", (
            Disk(big, big), Disk(big - 1, big), Disk(big, big - 1), Disk(big - 1, big - 1),
            Disk(-big, -big), Disk(-big + 1, -big), Disk(big - 2, big)))
        d = Fr(1, big)
        yield Representation("unit_disk", (
            Disk(0, 0), Disk(1, 0), Disk(1 - d, 0), Disk(-d, 0), Disk(0, 1 - d),
            Disk(1 - d, 1 - d), Disk(d, -1 + d)))
    d = Fr(1, 10 ** 30)
    yield Representation("unit_disk", (
        Disk(0, 0), Disk(1 - d, 0), Disk(1 + d, 0), Disk(Fr(3, 5), Fr(4, 5)),
        Disk(Fr(3, 5) + d, Fr(4, 5)), Disk(10 ** 30, 0), Disk(10 ** 30 - 1, d)))


def test_intersection_graphs_against_reference(monkeypatch):
    reps = list(_reference_cases(random.Random(31)))
    for rep in reps:
        assert build_intersection_graph(rep.cls, rep).edges == ref_intersection_edges(rep)
    tangent = Representation("unit_disk", (Disk(0, 0), Disk(Fr(3, 5), Fr(4, 5))))
    assert build_intersection_graph("unit_disk", tangent).edges == frozenset({(0, 1)})
    # Blocks of one to a few rows: every block seam is crossed.
    monkeypatch.setattr(geometry, "_PAIR_CELLS", 25)
    for rep in reps:
        assert build_intersection_graph(rep.cls, rep).edges == ref_intersection_edges(rep)


def test_disk_test_switches_to_python_ints_at_the_bound():
    """Scaled coordinates below 2^30 run on int64, larger ones on Python ints."""
    dtypes = []
    for rep in _disks_at_int64_bound():
        scale, keys = geometry._scaled([c for d in rep.objects for c in (d.cx, d.cy)])
        dtypes.append({c.dtype for c in geometry._test_columns("unit_disk", keys, scale)})
    assert dtypes == [{np.dtype(np.int64)}] * 2 + [{np.dtype(object)}] * 3


def _same_graph(g, ref):
    """The bit-row graph ``g`` reads like the frozenset oracle ``ref``."""
    n = ref.n
    assert g.n == n and g.edges == ref.edges and g.labels == ref.labels
    assert all(g.has_edge(u, v) == ref.has_edge(u, v) for u in range(n) for v in range(n))
    assert [g.neighbors(v) for v in range(n)] == [ref.neighbors(v) for v in range(n)]
    assert adjacency_rows(g) == ref.adjacency_rows()
    assert g.adjacency_matrix().tolist() == [list(map(bool, r)) for r in ref.adjacency_rows()]
    assert not g.adjacency_matrix().flags.writeable
    assert all(type(v) is int for e in g.edges for v in e)


def test_graph_from_index_arrays_matches_constructor():
    rng = random.Random(12)
    for n in (0, 1, 2, 7, 30):
        pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(n * 2)}
                       if n >= 2 else set())
        i = np.array([a for a, _ in pairs], dtype=np.intp)
        j = np.array([b for _, b in pairs], dtype=np.intp)
        fast, slow = LabeledGraph._from_pairs(n, i, j), LabeledGraph(n, pairs)
        assert fast == slow and hash(fast) == hash(slow)
        _same_graph(fast, RefGraph(n, pairs))
        _same_graph(slow, RefGraph(n, pairs))
    for i, j in (([1], [1]), ([2], [1]), ([0], [3]), ([-1], [1]), ([0, 1], [1, 5])):
        with pytest.raises(GeometryError):
            LabeledGraph._from_pairs(3, np.array(i), np.array(j))


def test_graph_from_index_arrays_keeps_its_matrix(monkeypatch):
    """The matrix ``_from_pairs`` builds is checked and kept: neither the
    build nor reading the matrix, edges or neighbours unpacks the rows."""
    def unpack(*args):
        raise AssertionError("rows unpacked again")

    monkeypatch.setattr(geometry, "bit_matrix", unpack)
    g = LabeledGraph._from_pairs(4, np.array([0, 0, 1]), np.array([1, 3, 2]))
    assert g.rows == (0b1010, 0b0101, 0b0010, 0b0001)
    assert g.edges == {(0, 1), (0, 3), (1, 2)} and g.neighbors(0) == {1, 3}
    assert g.adjacency_matrix().tolist() == [[False, True, False, True], [True, False, True, False],
                                             [False, True, False, False], [True, False, False, False]]
    assert not g.adjacency_matrix().flags.writeable


# Texts ``parse_rat`` must read exactly as ``Fraction`` does: the integer
# forms it reads itself, and text that only ``Fraction`` reads or refuses.
RATIONAL_TEXTS = ["0", "7", "-3", "-0", "007", "3/4", "-3/4", "6/8", "0/5", "-0/5", "10/1",
                  "12345678901234567890/3", "1" * 5000, "1/" + "2" * 5000,
                  "+1", "1_0", "1/2_0", " 2", "2 ", "2\n", "1/0", "-1/0", "0/0", "1/-2",
                  "--1", "-", "1.5", "1e3", "-1/2.0", "\u0663", "\u00b2", "", "/", "1/", "/2",
                  "1//2", "1/2/3", "\uff11"]


def test_parse_rat_reads_as_fraction():
    for text in RATIONAL_TEXTS:
        try:
            want = Fr(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(GeometryError) as err:
                parse_rat(text)
            assert str(err.value) == f"bad rational {text!r}: {exc}"
        else:
            got = parse_rat(text)
            assert type(got) is Fr and got == want
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def _random_graphs(rng):
    for n in (0, 1, 2, 5, 9, 16, 40):
        for density in (0.0, 0.3, 0.7, 1.0):
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
            rng.shuffle(edges)
            edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
            labels = {"red": [v for v in range(n) if rng.random() < 0.4], "blue": []}
            yield n, edges, labels


def test_bit_row_graph_matches_frozenset_oracle():
    rng = random.Random(31)
    cases = list(_random_graphs(rng))
    graphs = [LabeledGraph(*case) for case in cases]
    refs = [RefGraph(*case) for case in cases]
    for g, ref in zip(graphs, refs):
        _same_graph(g, ref)
        _same_graph(g.complement(), ref.complement())
        _same_graph(g.complement().complement(), ref)
        assert LabeledGraph(g.n, labels=g.labels, rows=g.rows) == g
        for _ in range(3):
            keep = rng.sample(range(g.n), rng.randint(0, g.n))
            _same_graph(g.induced(keep), ref.induced(keep))
    # == and hash: equal graphs hash alike, and the two classes agree on which
    # pairs are equal (a rebuilt copy of each graph is among the pairs)
    again = [LabeledGraph(*case) for case in cases]
    for a, ra in zip(graphs, refs):
        for b, rb in zip(graphs + again, refs + refs):
            assert (a == b) == (ra == rb)
            if a == b:
                assert hash(a) == hash(b)
    assert len(set(graphs + again)) == len(set(refs))


def test_structures_refuse_a_new_relation():
    g = LabeledGraph(3, {(0, 1)})
    for name, value in (("edges", frozenset({(1, 2)})), ("rows", (0, 4, 2))):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g.edges == frozenset({(0, 1)}) and g.rows == (2, 1, 0)
    p = generated_poset(3, [(0, 1)])
    with pytest.raises(AttributeError):
        p.rows = (0, 0, 0)
    assert p.rows == (2, 0, 0)


def test_graph_rows_are_checked():
    for rows in ((1, 0), (2,), (2, 0), (4, 0), (-1, 0)):
        with pytest.raises(GeometryError):
            LabeledGraph(2, rows=rows)
    assert LabeledGraph(2, rows=(2, 1)) == LabeledGraph(2, [(1, 0)])
    assert LabeledGraph(3, [(1, 2)], rows=(2, 1, 0)) == LabeledGraph(3, [(0, 1), (1, 2)])


def test_polygon_holds_one_visibility_graph():
    poly = rand_fan(random.Random(8), 9)
    g = visibility_graph(poly)
    assert visibility_graph(poly) is g and poly._graph is g
    assert Polygon(poly.vertices) == poly  # the held graph takes no part in ==
    report = polygon_report(poly)
    for v in range(poly.n):
        want = v not in report.reflex_vertices and all(
            u == v or sees(poly, v, u) for u in range(poly.n))
        assert report.is_convex_fan_at(v) == want


@pytest.mark.parametrize("call", [
    lambda poly, i: sees(poly, i, 4),
    lambda poly, i: sees(poly, 0, i),
    sees_foot,
    lambda poly, i: polygon_report(poly).is_convex_fan_at(i),
], ids=["sees_from", "sees_to", "sees_foot", "is_convex_fan_at"])
def test_vertex_index_outside_the_polygon_is_refused(call):
    """A vertex index is 0..n-1: a negative one does not wrap round to the
    end, and one past the end is a GeometryError, not an IndexError."""
    poly = Polygon(((0, 0), (1, 2), (2, 1), (3, 3), (4, 0)))
    for i in (-1, -5, 5, 6):
        with pytest.raises(GeometryError, match=rf"^vertex index {i} outside 0\.\.4$"):
            call(poly, i)
    assert not sees(poly, 4, 4)  # what -1 would have wrapped to
    for i in range(poly.n):
        call(poly, i)


def test_certificate_malformed():
    g = LabeledGraph(4, {(1, 2)})
    with pytest.raises(GeometryError):
        cliquewidth_certificate_check(g, [[0, 1], [2]], [1, 3], 1)
    with pytest.raises(GeometryError):
        cliquewidth_certificate_check(g, [[0, 1], [2, 3]], [1], 1)


def test_visibility_boundary_cycle_always_present():
    rng = random.Random(44)
    for _ in range(10):
        poly = rand_fan(rng, rng.randint(4, 9))
        g = visibility_graph(poly)
        n = poly.n
        for i in range(n):
            assert g.has_edge(i, (i + 1) % n)


def test_scale_invariance_of_predicates():
    rng = random.Random(66)
    from helpers import rand_boxes, rand_disks
    scale = Fr(7, 3)
    for _ in range(10):
        rep = rand_intervals(rng, 6)
        scaled = Representation("interval", tuple(
            Interval(o.lo * scale, o.hi * scale) for o in rep.objects))
        assert build_intersection_graph("interval", rep).edges == \
            build_intersection_graph("interval", scaled).edges
        repb = rand_boxes(rng, 6)
        scaledb = Representation("box", tuple(
            Box(Interval(o.x.lo * scale, o.x.hi * scale),
                Interval(o.y.lo * scale, o.y.hi * scale)) for o in repb.objects))
        assert build_intersection_graph("box", repb).edges == \
            build_intersection_graph("box", scaledb).edges
    # polygons: similarity transform preserves the visibility graph
    for _ in range(5):
        poly = rand_fan(rng, 7)
        moved = Polygon(tuple((x * scale + 11, y * scale + Fr(5, 7))
                              for x, y in poly.vertices))
        assert visibility_graph(poly).edges == visibility_graph(moved).edges


def test_integer_coordinates_stay_exact():
    # int division in the edge-meeting test used to produce a float here
    big = 10**20 + 1
    poly = Polygon(((0, 0), (0, big), (big + 1, 0)))
    twin = Polygon(((Fr(0), Fr(0)), (Fr(0), Fr(big)), (Fr(big + 1), Fr(0))))
    assert poly == twin
    assert all(type(c) is Fr for pt in poly.vertices for c in pt)
    objs = (Interval(0, 1), Chord(0, Fr(1, 2)), PermSegment(1, 2), Disk(3, 4),
            Box(Interval(0, 1), Interval(2, 3)))
    assert all(type(v) is Fr for o in objs[:4] for v in vars(o).values())
    assert type(objs[4].y.hi) is Fr


def test_perturb_integer_endpoints_stay_exact():
    rep = Representation("interval", (Interval(0, 2), Interval(2, 4)))
    out = ref_perturb_endpoints(rep)
    ends = [e for it in out.objects for e in (it.lo, it.hi)]
    assert len(set(ends)) == 4 and all(type(e) is Fr for e in ends)
    assert build_intersection_graph("interval", out).edges == frozenset({(0, 1)})
