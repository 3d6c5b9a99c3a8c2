import random
import re
from fractions import Fraction as Fr

import pytest

from geomfo import GeomfoError, generators as G, interpret
from geomfo.checker import eval_structure
from geomfo import formula as F
from geomfo.formula import GRAPH, is_existential, print_formula, parse_formula
from geomfo.generators import (cliquewidth_family,
                               consecutive_witness, cycle_attachment_set,
                               efo_hardness_instance, gamma_k_formula,
                               graph_interpretation, hardness_formulas,
                               hardness_instance, induced_cycles, strip_labels,
                               terfan_polygon, verify_consecutive,
                               witness_confinement)
from geomfo.geometry import (GeometryError, LabeledGraph, PermSegment, build_intersection_graph,
                             cliquewidth_certificate_check, polygon_report,
                             true_twins, visibility_graph)

from geomfo import geometry

from helpers import max_clique, nonisomorphic_graphs, ref_cliquewidth_family

WITNESS_CLASSES = ("circular_arc", "permutation", "unit_box", "unit_disk")


def test_consecutive_witness_verify_and_confinement():
    for cls in WITNESS_CLASSES:
        for ell in (2, 4, 6):
            wit = consecutive_witness(cls, ell, Fr(1, 4))
            g = wit.graph()
            assert verify_consecutive(g, wit.s_vertices, wit.r_set, wit.complement)
            assert witness_confinement(wit, Fr(1, 4))


def test_consecutive_witness_permutation_shape():
    wit = consecutive_witness("permutation", 3)
    segs = wit.rep.objects
    assert [(s.top, s.bottom) for s in segs[:3]] == [(1, 1), (2, 2), (3, 3)]
    assert (Fr(1, 2), Fr(5, 2)) == (segs[3].top, segs[3].bottom)


def test_verify_consecutive_trivial_and_mutation():
    g = LabeledGraph(3, {(0, 2), (1, 2)})
    assert verify_consecutive(g, [0, 1], [2])
    wit = consecutive_witness("unit_box", 4)
    g = wit.graph()
    r = sorted(wit.r_set)
    # deleting any single gadget breaks the property
    for drop in r:
        rest = [v for v in r if v != drop]
        assert not verify_consecutive(g, wit.s_vertices, rest, wit.complement)


def test_verify_consecutive_complement_flag():
    wit = consecutive_witness("circular_arc", 4)
    g = wit.graph()
    assert wit.complement
    assert verify_consecutive(g, wit.s_vertices, wit.r_set, complement=True)
    assert not verify_consecutive(g, wit.s_vertices, wit.r_set, complement=False)


def test_hardness_instance_counts_for_k2():
    k2 = LabeledGraph(2, {(0, 1)})
    inst = hardness_instance(k2, "permutation")
    blue = inst.graph.labels["blue"]
    green = inst.graph.labels["green"]
    red = inst.graph.labels["red"]
    assert len(blue) == 4 and len(green) == 3 and len(red) == 1
    vs, interp = graph_interpretation(inst.graph, inst.nu, inst.psi)
    assert interp.n == 2 and interp.edges == frozenset({(0, 1)})


def test_hardness_instance_empty_graph():
    h = LabeledGraph(3)
    for cls in WITNESS_CLASSES:
        inst = hardness_instance(h, cls)
        assert inst.graph.labels["red"] == frozenset()
        vs, interp = graph_interpretation(inst.graph, inst.nu, inst.psi)
        assert vs == inst.blue_bijection and interp.edges == frozenset()


def test_hardness_roundtrip_sample_all_classes():
    rng = random.Random(23)
    graphs = nonisomorphic_graphs(4)
    sample = rng.sample(graphs, 5)
    for cls in WITNESS_CLASSES:
        for h in sample:
            inst = hardness_instance(h, cls)
            vs, interp = graph_interpretation(inst.graph, inst.nu, inst.psi)
            assert vs == inst.blue_bijection
            want = {(min(a, b), max(a, b)) for a, b in h.edges}
            assert interp.edges == frozenset(want), (cls, sorted(h.edges))


def test_strip_labels_count_identity_and_roundtrip():
    for h in (LabeledGraph(2, {(0, 1)}), LabeledGraph(3, {(0, 1), (1, 2)}),
              LabeledGraph(3)):
        base = hardness_instance(h, "permutation")
        green = base.graph.labels["green"]
        red = base.graph.labels["red"]
        stripped = strip_labels(base)
        s = len(base.graph.labels["blue"])
        expect = s + 2 * len(green - red) + 3 * len(green & red) + 4 * len(red - green)
        assert stripped.graph.n == expect
        assert not stripped.graph.labels
        vs, interp = graph_interpretation(stripped.graph, stripped.nu, stripped.psi)
        assert vs == stripped.blue_bijection
        assert interp.edges == frozenset({(min(a, b), max(a, b)) for a, b in h.edges})
        if not h.edges:
            assert len(red - green) == 0  # no quadrupled vertices


def test_strip_labels_twin_classes_distinguishable():
    h = LabeledGraph(3, {(0, 1), (1, 2)})
    base = hardness_instance(h, "permutation")
    stripped = strip_labels(base)
    g = stripped.graph
    # twin classes match duplication multiplicities exactly
    classes = []
    assigned = set()
    for v in range(g.n):
        if v in assigned:
            continue
        cls = {v} | {u for u in range(g.n) if true_twins(g, v, u)}
        assigned |= cls
        classes.append(len(cls))
    green = base.graph.labels["green"]
    red = base.graph.labels["red"]
    from collections import Counter
    want = Counter()
    want[1] += len(base.graph.labels["blue"])
    want[2] += len(green - red)
    want[3] += len(green & red)
    want[4] += len(red - green)
    assert Counter(classes) == want


def test_gamma_k_formula_shapes():
    nu = parse_formula("blue(x)", GRAPH)
    psi = parse_formula("edge(x,y)", GRAPH)
    g1 = gamma_k_formula(1, nu, psi)
    assert print_formula(g1) == "exists x1. blue(x1)"
    g2 = gamma_k_formula(2, nu, psi)
    assert is_existential(g2)
    assert print_formula(g2).count("!x1=x2") == 1


def _nodes_through_bodies(f):
    """Every node of ``f`` and of the bodies of its defined atoms, at any depth."""
    bodies, todo = set(), [f]
    while todo:
        for node in F.walk(todo.pop()):
            yield node
            if isinstance(node, F.Defined) and node.body not in bodies:
                bodies.add(node.body)
                todo.append(node.body)


def test_gamma_k_shares_nu_and_psi():
    nu0, psi0 = hardness_formulas(complement=False)
    for k in (1, 2, 3):
        atoms = [n for n in F.walk(gamma_k_formula(k, nu0, psi0)) if isinstance(n, F.Defined)]
        assert len(atoms) == k * k  # k nu atoms, two psi atoms per pair
        assert all(a.body is nu0 or a.body is psi0 for a in atoms)


def test_unit_box_label_definitions_share_blue():
    inst = efo_hardness_instance(LabeledGraph(3, {(0, 1)}), "unit_box")
    blue_def = inst.label_defs["blue"][0]
    for name in ("green", "red"):
        nodes = list(_nodes_through_bodies(inst.label_defs[name][0]))
        assert any(isinstance(n, F.Defined) and n.body is blue_def for n in nodes)
        # no renamed copy of blue_def: its key belongs to blue_def alone
        assert all(n is blue_def for n in nodes if n.key is blue_def.key)


def test_efo_formulas_print_as_their_expansions():
    """The text ``geomfo generate --kind efo-hardness --out-interp`` writes."""
    for n in (1, 2, 3):
        for h in nonisomorphic_graphs(n):
            for cls in ("circle", "unit_box"):
                inst = efo_hardness_instance(h, cls)
                for f in [inst.nu, inst.psi] + [df for df, _ in inst.label_defs.values()]:
                    assert parse_formula(print_formula(f), GRAPH).key is F.expand(f).key


def test_gamma_k_clique_equivalence_sample():
    rng = random.Random(29)
    nu0, psi0 = hardness_formulas(complement=False)
    for h in rng.sample(nonisomorphic_graphs(5), 6):
        inst = hardness_instance(h, "permutation")
        for k in (1, 2, 3):
            gam = gamma_k_formula(k, nu0, psi0)
            assert eval_structure(inst.graph, gam) == (max_clique(h) >= k)


def test_efo_circle_structure():
    k3 = LabeledGraph(3, {(0, 1), (1, 2), (0, 2)})
    inst = efo_hardness_instance(k3, "circle")
    blues = inst.expected_labels["blue"]
    # every blue chord got its own pendant C5
    cycles5 = induced_cycles(inst.graph, 5)
    attached5 = cycle_attachment_set(inst.graph, 5)
    assert attached5 == blues
    assert len(cycles5) == len(blues)
    assert cycle_attachment_set(inst.graph, 7) == inst.expected_labels["red"]
    assert cycle_attachment_set(inst.graph, 9) == inst.expected_labels["green"]


def test_efo_unit_box_marker_count():
    h = LabeledGraph(3, {(0, 1)})
    inst = efo_hardness_instance(h, "unit_box")
    # three black boxes touch exactly the blues
    blues = inst.expected_labels["blue"]
    blacks = [v for v in range(inst.graph.n)
              if v not in blues and inst.graph.neighbors(v)
              and inst.graph.neighbors(v) == set(blues)]
    assert len(blacks) == 3


def test_efo_clique_equivalence_small():
    rng = random.Random(41)
    nu0, psi0 = hardness_formulas(complement=False)
    for h in rng.sample(nonisomorphic_graphs(4), 4):
        for cls in ("circle", "unit_box"):
            inst = efo_hardness_instance(h, cls)
            if cls == "unit_box":
                labeled = inst.graph.with_labels(inst.expected_labels)
                for name, (df, dv) in inst.label_defs.items():
                    got = frozenset(v for v in range(inst.graph.n)
                                    if eval_structure(inst.graph, df, {dv: v}))
                    assert got == inst.expected_labels[name]
            else:
                labels = {name: cycle_attachment_set(inst.graph, c)
                          for name, c in (("blue", 5), ("red", 7), ("green", 9))}
                for name in labels:
                    assert labels[name] == inst.expected_labels[name]
                labeled = inst.graph.with_labels(labels)
            for k in (1, 2, 3):
                gam = gamma_k_formula(k, nu0, psi0)
                assert eval_structure(labeled, gam) == (max_clique(h) >= k)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("cls", ["circular_arc", "circle", "unit_box", "unit_disk"])
def test_integer_cliquewidth_family_equals_fraction_family(cls, k):
    rep, cert = cliquewidth_family(cls, k)
    assert rep == ref_cliquewidth_family(cls, k)
    assert len(rep.objects) == cert.r * cert.m


def test_terfan_op_builds_one_visibility_graph(monkeypatch):
    """One terfan op, then the graph, the report and the interpretation again
    as a caller would: every visibility pair of every polygon is decided at
    most once, and those of the accepted polygon are decided."""
    decided, polygons = [], []
    real_sees = geometry.sees

    def counting_sees(poly, i, j):
        polygons.append(poly)  # kept alive, so ids stay unique
        decided.append((id(poly), i, j))
        return real_sees(poly, i, j)

    monkeypatch.setattr(geometry, "sees", counting_sees)
    for h in (LabeledGraph(2, {(0, 1)}), LabeledGraph(3, {(0, 1), (1, 2)})):
        decided.clear()
        inst = terfan_polygon(h)
        poly = inst.polygon
        g = visibility_graph(poly)
        assert polygon_report(poly).is_convex_fan_at(poly.n - 1)
        graph_interpretation(g, inst.nu, inst.psi)
        assert len(decided) == len(set(decided))
        n = poly.n
        inner = {(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)}
        assert {(i, j) for key, i, j in decided if key == id(poly)} == inner
        assert g is poly._graph


def test_cliquewidth_family_passes_and_mutation_fails():
    rep, cert = cliquewidth_family("circular_arc", 1)
    g = build_intersection_graph(rep.cls, rep)
    assert cliquewidth_certificate_check(g, cert.parts, cert.index_set, cert.k)
    # flipping one part's ordering breaks the consecutive staircase
    bad = [list(p) for p in cert.parts]
    bad[2] = bad[2][:1] + bad[2][2:] + bad[2][1:2]
    assert not cliquewidth_certificate_check(g, bad, cert.index_set, cert.k)


def test_terfan_figure_graph():
    h = LabeledGraph(5, {(0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)})
    inst = terfan_polygon(h)
    report = polygon_report(inst.polygon)
    assert report.is_terrain
    assert report.is_convex_fan_at(inst.polygon.n - 1)
    g = visibility_graph(inst.polygon)
    roles = inst.roles
    want = set(roles["p"]) | {roles["u"], roles["u2"], roles["v2"]}
    assert g.neighbors(roles["v"]) == want
    assert g.neighbors(roles["v2"]) == set(roles["p"]) | {roles["u"], roles["u2"], roles["v"]}
    vs, interp = graph_interpretation(g, inst.nu, inst.psi)
    idx = {v: t for t, v in enumerate(vs)}
    hmap = {t: idx[inst.blue_bijection[t]] for t in range(5)}
    assert interp.edges == frozenset({(min(hmap[a], hmap[b]), max(hmap[a], hmap[b]))
                                      for a, b in h.edges})


def test_terfan_single_vertex_unrealizable():
    with pytest.raises(GeometryError):
        terfan_polygon(LabeledGraph(1))


def _efo_prefix(n):
    vs = [F.Var(f"x{i}") for i in range(n)]
    return F.exists_many(vs, F.big_and([F.Eq(v, v) for v in vs]))


@pytest.mark.parametrize("cap, value, build, message", [
    (interpret.MAX_PATTERN_VERTICES, 6,
     lambda n: interpret.permutation_subgraph_iso([PermSegment(Fr(0), Fr(1))], LabeledGraph(n)),
     "pattern on 7 vertices exceeds bound 6"),
    (F.MAX_EFO_VARS, 6, lambda n: F.efo_to_patterns(_efo_prefix(n)),
     "EFO prefix of 7 variables exceeds bound 6"),
    (G.MAX_HARDNESS_VERTICES, 8, lambda n: hardness_instance(LabeledGraph(n), "permutation"),
     "H on 9 vertices exceeds the size cap"),
    (G.MAX_CLIQUEWIDTH_K, 2, lambda k: cliquewidth_family("circle", k),
     "k=3 exceeds the size cap"),
    (G.MAX_TERFAN_VERTICES, 6, lambda n: terfan_polygon(LabeledGraph(n)),
     "H on 7 vertices exceeds the size cap"),
], ids=["permutation_subgraph_iso", "efo_to_patterns", "hardness_instance",
        "cliquewidth_family", "terfan_polygon"])
def test_size_cap_refuses_one_over(cap, value, build, message):
    assert cap == value
    with pytest.raises(GeomfoError, match=f"^{re.escape(message)}$"):
        build(cap + 1)
