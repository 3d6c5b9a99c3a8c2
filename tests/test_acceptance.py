"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are exact: every check is an equality over exact
rationals or booleans.
"""

import random
import time
from fractions import Fraction as Fr

import pytest

from geomfo import formula as F
from geomfo.checker import build_graph, eval_structure
from geomfo.formula import Var, efo_to_patterns
from geomfo.generators import (cliquewidth_family, consecutive_witness,
                               cycle_attachment_set, efo_hardness_instance,
                               gamma_k_formula, graph_interpretation,
                               hardness_formulas, hardness_instance, strip_labels,
                               terfan_polygon, verify_consecutive,
                               witness_confinement)
from geomfo.geometry import (GeometryError, LabeledGraph, Polygon,
                             Representation, build_intersection_graph,
                             cliquewidth_certificate_check, polygon_report,
                             visibility_graph)
from geomfo.interpret import (interval_nu, interval_psi, interval_theta, make_instance,
                              permutation_subgraph_iso)

from helpers import (contains, diameter, graphs_up_to, induced_embeds, max_clique,
                     max_independent_set, has_subgraph, nonisomorphic_graphs, overlaps,
                     poset_width, rand_arcs, rand_boxes, rand_chords, rand_disks, rand_fan,
                     rand_intervals, rand_segments, rand_sentence, ref_perturb_endpoints)

CLASS_MAKERS = {
    "interval": rand_intervals,
    "circular_arc": rand_arcs,
    "circle": rand_chords,
    "permutation": rand_segments,
    "box": rand_boxes,
    "unit_disk": rand_disks,
}

FIGHARD_H = LabeledGraph(5, {(0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)})


def announce(msg: str) -> None:
    """One line per criterion; shown with -s or in the -rP summary."""
    print(msg, flush=True)


def _make_rep(cls, rng, n):
    if cls == "visibility":
        return Representation("visibility", (rand_fan(rng, max(4, n)),))
    return CLASS_MAKERS[cls](rng, n)


def test_criterion_1_interpretation_agreement():
    """200 instances x 50 depth<=3 sentences per class, exact agreement."""
    t0 = time.time()
    total = agree = 0
    for seed, cls in enumerate(list(CLASS_MAKERS) + ["visibility"]):
        rng = random.Random(1000 + seed)
        for _ in range(200):
            rep = _make_rep(cls, rng, rng.randint(1, 10))
            g = build_graph(cls, rep)
            inst = make_instance(cls, rep)
            for _ in range(50):
                phi = rand_sentence(rng, rng.randint(1, 3))
                phi_eff = F.complement_edges(phi) if inst.complemented else phi
                gv = eval_structure(g, phi)
                pv = eval_structure(inst.poset,
                                    F.rewrite_under_interpretation(phi_eff, inst.interp))
                total += 1
                agree += (gv == pv)
    elapsed = time.time() - t0
    assert agree == total == 7 * 200 * 50
    assert elapsed <= 600
    announce(f"criterion 1: PASS — {agree}/{total} verdicts agree across 7 classes "
          f"in {elapsed:.0f}s")


def test_criterion_2_width_bounds():
    """Constructed poset widths stay within the per-class paper constants."""
    rng = random.Random(2000)
    checked = 0
    for cls in list(CLASS_MAKERS) + ["visibility"]:
        for _ in range(30):
            rep = _make_rep(cls, rng, rng.randint(1, 10))
            inst = make_instance(cls, rep)
            w = poset_width(inst.poset)
            k = inst.provenance["k"]
            bound = {"interval": k + 1, "circular_arc": 2 * k + 1, "circle": k + 1,
                     "permutation": k + 1, "box": inst.provenance.get("kx", k) + 1,
                     "unit_disk": k * k + 1,
                     "visibility": k * (k + 1) // 2 + 1}[cls]
            assert inst.width_bound == bound
            assert w <= bound, (cls, w, bound)
            if cls == "circle":
                g = build_graph(cls, rep)
                assert k <= max_independent_set(g)
            checked += 1
    announce(f"criterion 2: PASS — widths within bounds on {checked} instances, "
          f"zero violations")


def test_criterion_3_lemma_semantics():
    """Eq (1)/(2)/(3) match membership, intersection and containment exactly."""
    rng = random.Random(3000)
    x, y = Var("x"), Var("y")
    pairs = 0
    for _ in range(100):
        rep = ref_perturb_endpoints(rand_intervals(rng, rng.randint(1, 12)))
        items = rep.objects
        inst = make_instance("interval", rep)
        p, ids = inst.poset, inst.vertex_map
        nu, psi, theta = interval_nu(), interval_psi(), interval_theta(x, y)
        for e in range(p.n):
            assert eval_structure(p, nu, {x: e}) == (e in ids)
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                assert eval_structure(p, psi, {x: ids[i], y: ids[j]}) == overlaps(a, b)
                assert eval_structure(p, theta, {x: ids[i], y: ids[j]}) == contains(b, a)
                pairs += 1
    announce(f"criterion 3: PASS — formula semantics exact on 100 interval sets "
          f"({pairs} pairs)")


def _roundtrip_matches(h, vs, interp, bijection):
    if vs != sorted(bijection) and set(vs) != set(bijection):
        return False
    idx = {v: t for t, v in enumerate(vs)}
    hmap = {t: idx[bijection[t]] for t in range(h.n)}
    want = {(min(hmap[a], hmap[b]), max(hmap[a], hmap[b])) for a, b in h.edges}
    return interp.edges == frozenset(want)


def test_criterion_4_hardness_roundtrip():
    """I(G_H) = H for every H on <=5 vertices and class; stripped for <=4."""
    classes = ("circular_arc", "permutation", "unit_box", "unit_disk")
    five = nonisomorphic_graphs(5)
    assert len(five) == 34
    labeled = 0
    for h in graphs_up_to(5):
        for cls in classes:
            inst = hardness_instance(h, cls)
            vs, interp = graph_interpretation(inst.graph, inst.nu, inst.psi)
            assert _roundtrip_matches(h, vs, interp, inst.blue_bijection), (cls, h)
            labeled += 1
    stripped = 0
    for h in graphs_up_to(4):
        for cls in classes:
            s = strip_labels(hardness_instance(h, cls))
            vs, interp = graph_interpretation(s.graph, s.nu, s.psi)
            assert _roundtrip_matches(h, vs, interp, s.blue_bijection), (cls, h)
            stripped += 1
    announce(f"criterion 4: PASS — labelled roundtrip on {labeled} (H, class) pairs "
          f"(34 graphs on 5 vertices), label-free on {stripped}")


def test_criterion_5_efo_clique_equivalence():
    """gamma_k detects k-cliques of H; likewise on label-free EFO instances."""
    nu0, psi0 = hardness_formulas(complement=False)
    gammas = {k: gamma_k_formula(k, nu0, psi0) for k in (1, 2, 3)}
    base_checked = 0
    for h in graphs_up_to(6):
        inst = hardness_instance(h, "permutation")
        for k in (1, 2, 3):
            assert eval_structure(inst.graph, gammas[k]) == (max_clique(h) >= k), (h, k)
            base_checked += 1
    efo_checked = 0
    for h in graphs_up_to(5):
        for cls in ("circle", "unit_box"):
            inst = efo_hardness_instance(h, cls)
            if cls == "circle":
                # the pendant-cycle definers need n^(c+1) truth tables under the
                # tensor evaluator; exhaustive induced-cycle search computes the
                # same truth sets exactly
                labels = {name: cycle_attachment_set(inst.graph, c)
                          for name, c in (("blue", 5), ("red", 7), ("green", 9))}
            else:
                labels = {name: frozenset(v for v in range(inst.graph.n)
                                          if eval_structure(inst.graph, df, {dv: v}))
                          for name, (df, dv) in inst.label_defs.items()}
            for name in labels:
                assert labels[name] == inst.expected_labels[name], (cls, name)
            labeled = inst.graph.with_labels(labels)
            for k in (1, 2, 3):
                assert eval_structure(labeled, gammas[k]) == (max_clique(h) >= k)
                efo_checked += 1
    announce(f"criterion 5: PASS — gamma_k correct on {base_checked} labelled checks "
          f"(H<=6) and {efo_checked} label-free EFO checks (H<=5)")


def test_criterion_6_consecutive_witnesses():
    """verify_consecutive and exact confinement for l in 2..8, four classes."""
    eps = Fr(1, 4)
    count = 0
    for cls in ("circular_arc", "permutation", "unit_box", "unit_disk"):
        for ell in range(2, 9):
            wit = consecutive_witness(cls, ell, eps)
            g = wit.graph()
            assert verify_consecutive(g, wit.s_vertices, wit.r_set, wit.complement)
            assert witness_confinement(wit, eps)
            count += 1
    announce(f"criterion 6: PASS — {count} witnesses verified with exact confinement")


def test_criterion_7_cliquewidth_certificates():
    """k=1 families (222 objects) certified in time; arc/circle cross-checks."""
    t0 = time.time()
    graphs = {}
    for cls in ("circular_arc", "circle", "unit_box", "unit_disk"):
        rep, cert = cliquewidth_family(cls, 1)
        assert cert.r == 6 and cert.m == 37 and len(rep.objects) == 222
        g = build_intersection_graph(rep.cls, rep)
        assert cliquewidth_certificate_check(g, cert.parts, cert.index_set, cert.k)
        graphs[cls] = g
    elapsed = time.time() - t0
    assert elapsed <= 300
    d = diameter(graphs["circular_arc"])
    assert d <= 3
    assert graphs["circular_arc"].edges == graphs["circle"].edges
    announce(f"criterion 7: PASS — four 222-object families certified in "
          f"{elapsed:.0f}s, arc diameter {d} <= 3, circle adjacency identical")


def test_criterion_8_visibility_correctness():
    """Convex polygons complete; the ear-visibility claim; figure facts."""
    for n in range(3, 13):
        pts = tuple((Fr(i), Fr(i * (n - 1 - i))) for i in range(n))
        g = visibility_graph(Polygon(pts))
        assert len(g.edges) == n * (n - 1) // 2, n
    rng = random.Random(8000)
    fans = 0
    for _ in range(100):
        poly = rand_fan(rng, rng.randint(5, 12))
        g = visibility_graph(poly)
        interiors = polygon_report(poly).ear_interiors()
        for ai in range(len(interiors)):
            for bi in range(ai + 1, len(interiors)):
                a_vs, b_vs = interiors[ai], interiors[bi]
                for va in a_vs:
                    seen = [g.has_edge(va, vj) for vj in b_vs]
                    first = next((t for t, s in enumerate(seen) if s), len(b_vs))
                    assert all(seen[first:]), "vischar violated"
                for vj in b_vs:
                    seen = [g.has_edge(vj, va) for va in a_vs]
                    last = max((t for t, s in enumerate(seen) if s), default=-1)
                    assert all(seen[:last + 1]), "vischar violated"
        fans += 1
    inst = terfan_polygon(FIGHARD_H)
    g = visibility_graph(inst.polygon)
    roles = inst.roles
    want = set(roles["p"]) | {roles["u"], roles["u2"], roles["v2"]}
    assert g.neighbors(roles["v"]) == want
    assert g.neighbors(roles["v2"]) == set(roles["p"]) | {roles["u"], roles["u2"], roles["v"]}
    assert all(g.has_edge(roles["u"], t) for t in range(g.n) if t != roles["u"])
    announce(f"criterion 8: PASS — convex n-gons complete (n<=12), vischar on "
          f"{fans} fans, figure visibility facts reproduced")


def test_criterion_9_terfan_roundtrip():
    """Terrain+fan polygon interprets H for the figure graph and all H on 2..4."""
    cases = [FIGHARD_H] + graphs_up_to(4)[1:]  # all H on 2..4 vertices
    done = 0
    for h in cases:
        inst = terfan_polygon(h)
        report = polygon_report(inst.polygon)
        assert report.is_terrain
        assert report.is_convex_fan_at(inst.polygon.n - 1)
        g = visibility_graph(inst.polygon)
        vs, interp = graph_interpretation(g, inst.nu, inst.psi)
        assert _roundtrip_matches(h, vs, interp, inst.blue_bijection), h
        done += 1
    announce(f"criterion 9: PASS on {done} graphs (figure + all H on 2..4 vertices); "
          f"single-vertex H is unrealizable, see the companion test")


def test_criterion_9_single_vertex_limitation():
    """H = K1 cannot be realized: with only three staircase vertices every
    neighbour of the twin pair is adjacent to the middle one, so the paper's
    blue() witness cannot exist and nu comes out empty.  The construction
    refuses rather than emitting a wrong polygon (see decisions ledger)."""
    with pytest.raises(GeometryError, match="single-vertex"):
        terfan_polygon(LabeledGraph(1))
    announce("criterion 9 (K1 sub-case): documented limitation — construction "
          "refuses single-vertex H")


def test_criterion_10_efo_pattern_equivalence():
    """phi-verdict equals induced-embedding of some enumerated pattern."""
    rng = random.Random(10000)
    checked = 0
    while checked < 100:
        k = rng.randint(1, 3)
        vs = [Var(f"x{i + 1}") for i in range(k)]

        def qf(d, avail):
            if d == 0:
                a, b = rng.choice(avail), rng.choice(avail)
                return F.Edge(a, b) if rng.random() < 0.6 else F.Eq(a, b)
            op = rng.random()
            if op < 0.3:
                return F.Not(qf(d - 1, avail))
            cons = F.And if op < 0.55 else F.Or if op < 0.8 else F.Implies
            return cons(qf(d - 1, avail), qf(d - 1, avail))

        phi = F.exists_many(vs, qf(rng.randint(1, 3), vs))
        n = rng.randint(1, 8)
        g = LabeledGraph(n, {(a, b) for a in range(n) for b in range(a + 1, n)
                             if rng.random() < 0.4})
        direct = eval_structure(g, phi)
        pats = efo_to_patterns(phi)
        assert direct == any(induced_embeds(h, g) for h in pats)
        checked += 1
    announce(f"criterion 10: PASS — EFO/pattern equivalence on {checked} random pairs")


def test_criterion_11_permutation_plan():
    """min(MIS, clique) matches brute force; subgraph isomorphism matches."""
    rng = random.Random(11000)
    for _ in range(200):
        rep = rand_segments(rng, rng.randint(1, 10))
        g = build_intersection_graph("permutation", rep)
        prov = make_instance("permutation", rep).provenance
        assert prov["mis"] == max_independent_set(g)
        assert prov["clique"] == max_clique(g)
    patterns = graphs_up_to(4)
    iso_checked = 0
    for _ in range(12):
        rep = rand_segments(rng, rng.randint(1, 9))
        g = build_intersection_graph("permutation", rep)
        for h in patterns:
            assert permutation_subgraph_iso(rep.objects, h) == has_subgraph(g, h)
            iso_checked += 1
    announce(f"criterion 11: PASS — MIS/clique exact on 200 permutations, "
          f"subgraph isomorphism exact on {iso_checked} (G, H) pairs")
