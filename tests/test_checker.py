import itertools
import random
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomfo import checker, formula as F, interpret
from geomfo.checker import (AgreementError, EvalError, _Context, _context, eval_structure,
                            model_check, truth_table)
from geomfo.cli import DEFAULT_BATTERY
from geomfo.formula import GRAPH, POSET, Var, parse_formula
from geomfo.generators import gamma_k_formula
from geomfo.geometry import Interval, LabeledGraph, Polygon, Representation
from geomfo.interpret import interval_psi, interval_theta, make_instance
from geomfo.poset import LabeledPoset, generated_poset

from helpers import (eval_slow, has_dominating_set, instance_graph, leq, path_sentence,
                     rand_arcs, rand_boxes, rand_chords, rand_disks, rand_fan, rand_intervals,
                     rand_segments, rand_sentence, ref_truth_table, with_broken_interval_psi)


def test_tautology_on_one_vertex():
    g = LabeledGraph(1)
    assert eval_structure(g, parse_formula("exists x. x=x", GRAPH))


def test_empty_domain_quantifiers():
    g = LabeledGraph(0)
    assert not eval_structure(g, parse_formula("exists x. x=x", GRAPH))
    assert eval_structure(g, parse_formula("forall x. !(x=x)", GRAPH))


def test_triangle_free_c4():
    from geomfo.formula import pattern_formula

    c4 = LabeledGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    k3 = LabeledGraph(3, {(0, 1), (0, 2), (1, 2)})
    assert not eval_structure(c4, pattern_formula(k3))


def _dominating_sentence(k):
    vs = [Var(f"x{i + 1}") for i in range(k)]
    y = Var("y")
    body = F.big_or([F.Or(F.Edge(v, y), F.Eq(y, v)) for v in vs])
    return F.exists_many(vs, F.Forall(y, body))


def test_dominating_set_against_bruteforce():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 8)
        g = LabeledGraph(n, {(a, b) for a in range(n) for b in range(a + 1, n)
                             if rng.random() < 0.35})
        for k in (1, 2, 3):
            assert eval_structure(g, _dominating_sentence(k)) == has_dominating_set(g, k)


def test_leq_reflexive_on_posets():
    p = LabeledPoset(3, {(0, 1), (1, 2), (0, 2)})
    x, y = Var("x"), Var("y")
    assert eval_structure(p, F.Leq(x, x), {x: 1})
    assert eval_structure(p, F.Leq(x, y), {x: 0, y: 2})
    assert not eval_structure(p, F.Leq(x, y), {x: 2, y: 0})


def test_signature_and_label_errors():
    g = LabeledGraph(2, {(0, 1)})
    with pytest.raises(EvalError):
        eval_structure(g, parse_formula("exists x. exists y. x<=y", "poset"))
    with pytest.raises(EvalError):
        eval_structure(g, parse_formula("exists x. red(x)", GRAPH))
    with pytest.raises(EvalError):
        eval_structure(g, parse_formula("edge(x,y)", GRAPH))  # unbound vars
    with pytest.raises(EvalError):
        x = Var("x")
        eval_structure(g, F.Label("red", x), {x: 5})


def test_label_monotonicity():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = LabeledGraph(n, {(a, b) for a in range(n) for b in range(a + 1, n)
                             if rng.random() < 0.4},
                         {"red": {v for v in range(n) if rng.random() < 0.5}})
        g2 = g.with_labels({"unused": set()})
        phi = rand_sentence(rng, rng.randint(1, 3), labels=("red",))
        assert eval_structure(g, phi) == eval_structure(g2, phi)


def test_tensor_matches_slow_evaluator():
    rng = random.Random(10)
    for _ in range(120):
        n = rng.randint(0, 6)
        g = LabeledGraph(n, {(a, b) for a in range(n) for b in range(a + 1, n)
                             if rng.random() < 0.4},
                         {"red": {v for v in range(n) if rng.random() < 0.4}})
        phi = rand_sentence(rng, rng.randint(1, 4), labels=("red",))
        assert eval_structure(g, phi) == eval_slow(g, phi)


def _drop_quantifiers(f, rng):
    """Open up a sentence by removing each quantifier with probability 0.8."""
    kids = [_drop_quantifiers(k, rng) for k in f.children()]
    if isinstance(f, (F.Exists, F.Forall)) and rng.random() < 0.8:
        return kids[0]
    return f.rebuild(kids)


def test_truth_table_matches_slow_evaluator():
    rng = random.Random(12)
    names = [Var(v) for v in ("x", "y", "z", "w")]
    for _ in range(300):
        n = rng.randint(0, 5)
        g = LabeledGraph(n, {(a, b) for a in range(n) for b in range(a + 1, n)
                             if rng.random() < 0.4},
                         {"red": {v for v in range(n) if rng.random() < 0.4}})
        phi = _drop_quantifiers(rand_sentence(rng, rng.randint(2, 5), labels=("red",)), rng)
        free = F.free_vars(phi)
        # every free variable plus one that is not free, in a random order
        axes = [v for v in names if v in free] + [v for v in names if v not in free][:1]
        rng.shuffle(axes)
        table = truth_table(g, phi, axes)
        assert table.shape == (n,) * len(axes)
        for point in itertools.product(range(n), repeat=len(axes)):
            asg = dict(zip(axes, point))
            assert bool(table[point]) == eval_slow(g, phi, asg)
            assert eval_structure(g, phi, asg) == bool(table[point])


def test_truth_table_errors():
    g = LabeledGraph(2, {(0, 1)})
    x, y = Var("x"), Var("y")
    with pytest.raises(EvalError):
        truth_table(g, F.Edge(x, y), [x])          # y unbound
    with pytest.raises(EvalError):
        truth_table(g, F.Edge(x, y), [x, y, x])    # repeated axis
    table = truth_table(g, F.Edge(x, y), [y, x])
    assert not table.flags.writeable


def test_model_check_interval_example():
    rep = Representation("interval", (Interval(Fr(1), Fr(3)), Interval(Fr(2), Fr(4))))
    phi = parse_formula("exists x. exists y. edge(x,y)", GRAPH)
    res = model_check("interval", rep, phi)
    assert res.graph_verdict and res.poset_verdict


def test_model_check_convex_pentagon_k5():
    from geomfo.formula import pattern_formula

    pts = tuple((Fr(i), Fr(i * (4 - i))) for i in range(5))
    rep = Representation("visibility", (Polygon(pts),))
    k5 = LabeledGraph(5, set(itertools.combinations(range(5), 2)))
    res = model_check("visibility", rep, pattern_formula(k5))
    assert res.graph_verdict and res.poset_verdict


def test_model_check_names_class_and_sentence_on_disagreement(monkeypatch):
    monkeypatch.setattr(interpret, "make_instance",
                        with_broken_interval_psi(interpret.make_instance))
    rep = Representation("interval", (Interval(Fr(1), Fr(3)), Interval(Fr(2), Fr(4))))
    phi = parse_formula("exists x. exists y. edge(x,y)", GRAPH)
    with pytest.raises(AgreementError, match=r"^graph verdict True != poset verdict False "
                       r"for class interval on 2 objects: exists x\. exists y\. edge\(x,y\)$"):
        model_check("interval", rep, phi)


def test_model_check_requires_sentence():
    rep = Representation("interval", (Interval(Fr(1), Fr(3)),))
    with pytest.raises(EvalError):
        model_check("interval", rep, parse_formula("edge(x,y)", GRAPH))


def test_model_check_circle_figure_triangle():
    from geomfo.formula import pattern_formula
    from geomfo.geometry import Chord

    pos = {name: Fr(i, 16) for i, name in enumerate(
        ["a1", "b1", "c1", "a2", "d1", "e1", "c2", "f1", "d2", "b2", "g1",
         "e2", "f2", "g2"], start=1)}
    chords = tuple(Chord(pos[f"{n}1"], pos[f"{n}2"]) for n in "abcdefg")
    rep = Representation("circle", chords)
    k3 = LabeledGraph(3, {(0, 1), (0, 2), (1, 2)})
    res = model_check("circle", rep, pattern_formula(k3))
    assert res.graph_verdict == res.poset_verdict


CLASSES = ["interval", "circular_arc", "circle", "permutation", "box", "unit_disk",
           "visibility"]


def _rep(cls, rng, n):
    if cls == "visibility":
        return Representation("visibility", (rand_fan(rng, n + 2),))
    return {"interval": rand_intervals, "circular_arc": rand_arcs, "circle": rand_chords,
            "permutation": rand_segments, "box": rand_boxes,
            "unit_disk": rand_disks}[cls](rng, n)


def _instance(cls, rng, n):
    return make_instance(cls, _rep(cls, rng, n))


@pytest.mark.parametrize("seed,cls", enumerate(CLASSES))
def test_defined_atoms_match_expanded_sentence(seed, cls):
    # the rewrite names nu and psi; its pure-FO expansion must decide alike
    rng = random.Random(40 + seed)
    for _ in range(10):
        inst = _instance(cls, rng, rng.randint(1, 3))
        for _ in range(10):
            phi = rand_sentence(rng, rng.randint(1, 3))
            phi_eff = F.complement_edges(phi) if inst.complemented else phi
            out = F.rewrite_under_interpretation(phi_eff, inst.interp)
            pure = F.expand(out)
            assert not any(isinstance(n, F.Defined) for n in F.walk(pure))
            verdict = eval_structure(inst.poset, out)
            assert eval_structure(inst.poset, pure) == verdict
            assert eval_slow(inst.poset, pure) == verdict
            assert F.print_formula(out) == F.print_formula(pure)


@pytest.mark.parametrize("seed,cls", enumerate(CLASSES))
def test_model_check_enters_defined_atoms(seed, cls):
    """gamma_k names nu and psi through defined atoms: complementing and
    rewriting the sentence must reach the edge atoms in their bodies."""
    rng = random.Random(60 + seed)
    nu = parse_formula("exists z. edge(x,z)", GRAPH)
    psi = parse_formula("!edge(x,y) & (exists z. edge(x,z) & edge(z,y))", GRAPH)
    for _ in range(3):
        rep = _rep(cls, rng, rng.randint(2, 5))
        for k in (1, 2, 3):
            phi = gamma_k_formula(k, nu, psi)
            res = model_check(cls, rep, phi)
            assert res.graph_verdict == res.poset_verdict == eval_slow(res.graph, F.expand(phi))


def test_renamed_copy_shares_keys_and_transposes():
    rep = Representation("interval", (Interval(Fr(0), Fr(2)), Interval(Fr(1), Fr(3)),
                                      Interval(Fr(4), Fr(5))))
    p = make_instance("interval", rep).poset
    psi = interval_psi()
    x, y, w, v = Var("x"), Var("y"), Var("w"), Var("v")

    def make(a, b, bound):
        """(exists bound. psi(a,bound) & psi(bound,bound) & !a<=b) | psi(b,a)"""
        def d(s, t):
            return F.Defined(psi, (x, y), (s, t))
        body = F.big_and([d(a, bound), d(bound, bound), F.Not(F.Leq(a, b))])
        return F.Or(F.Exists(bound, body), d(b, a))

    f = make(x, y, w)
    copy = make(y, x, v)  # bound variable renamed, free variables swapped
    table = truth_table(p, f, (x, y))
    entries = len(_context(p).tables)
    assert (truth_table(p, copy, (x, y)) == table.T).all()
    assert len(_context(p).tables) == entries
    pure = F.expand(f)
    for a, b in itertools.product(range(p.n), repeat=2):
        assert bool(table[a, b]) == eval_slow(p, pure, {x: a, y: b})
    # another body under the same parameters keeps its own key
    contained = truth_table(p, F.Defined(interval_theta(), (x, y), (x, y)), (x, y))
    assert (contained == truth_table(p, interval_theta(), (x, y))).all()
    assert (contained != truth_table(p, F.Defined(psi, (x, y), (x, y)), (x, y))).any()


_VARS = tuple(Var(v) for v in ("x", "y", "z", "w"))
_X, _Y, _Z = _VARS[:3]
# bodies of defined atoms over (x, y), each with a quantifier of its own
_DEFINED = {GRAPH: F.Exists(_Z, F.And(F.Edge(_X, _Z), F.Not(F.Edge(_Z, _Y)))),
            POSET: interval_psi()}


def _quantified_formulas(signature):
    """Open formulas, weighted to quantifiers over conjunctions and disjunctions."""
    rel = F.Edge if signature == GRAPH else F.Leq
    var = st.sampled_from(_VARS)
    binary = st.sampled_from([rel, lambda a, b: F.Not(rel(b, a)),
                              lambda a, b: F.Defined(_DEFINED[signature], (_X, _Y), (a, b))])
    atoms = st.one_of(
        st.builds(lambda r, a, b: r(a, b), binary, var, var),  # at times one variable twice
        st.builds(F.Eq, var, var),
        st.builds(lambda v: F.Label("red", v), var))

    def star(order, r, f):
        """exists v. r(u1,v) & r(u2,v) & r(u3,v) & f: three joined groups or more"""
        v = order[0]
        return F.Exists(v, F.big_and([r(u, v) for u in order[1:]] + [f]))

    def extend(sub):
        parts = st.lists(sub, min_size=2, max_size=4)
        return st.one_of(
            st.builds(F.Not, sub),
            st.builds(F.Or, sub, sub), st.builds(F.Implies, sub, sub),
            st.builds(F.Exists, var, sub), st.builds(F.Forall, var, sub),
            st.builds(star, st.permutations(_VARS), binary, sub),
            st.builds(lambda v, ps: F.Exists(v, F.big_and(ps)), var, parts),
            st.builds(lambda v, ps: F.Forall(v, F.big_or(ps)), var, parts),
            st.builds(lambda v, f: F.Forall(v, F.Not(f)), var, sub))

    return st.recursive(atoms, extend, max_leaves=8)


@st.composite
def _structures(draw, signature, min_n=0):
    n = draw(st.integers(min_n, 4))
    elements = st.integers(0, max(n - 1, 0))
    red = set(draw(st.lists(elements, max_size=n))) if n else set()
    pairs = draw(st.lists(st.tuples(elements, elements), max_size=8)) if n else []
    if signature == GRAPH:
        return LabeledGraph(n, {(a, b) for a, b in pairs if a != b}, {"red": red})
    return generated_poset(n, {(a, b) for a, b in pairs if a < b},
                           {"red": red, "D": set(range(n)) - red})


@pytest.mark.parametrize("small_cells", [0, checker._SMALL_CELLS])
@pytest.mark.parametrize("signature", [GRAPH, POSET])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_contraction_matches_slow_evaluator(signature, small_cells, data):
    """Every entry of the table against the direct evaluator; with no small
    bodies every quantifier takes the join plan (any, tensordot or einsum)."""
    s = data.draw(_structures(signature))
    phi = data.draw(_quantified_formulas(signature))
    free = F.free_vars(phi)
    axes = [v for v in _VARS if v in free] + [v for v in _VARS if v not in free][:1]
    with mock.patch.object(checker, "_SMALL_CELLS", small_cells):
        table = truth_table(s, phi, axes)
    for point in itertools.product(range(s.n), repeat=len(axes)):
        assert bool(table[point]) == eval_slow(s, phi, dict(zip(axes, point)))


# unary literals to guard a quantified variable with, as functions of it: labels
# true nowhere, on a random set, on the lower half and everywhere, and defined
# atoms, one of whose bodies has a (guarded) quantifier of its own
_GUARDS = {GRAPH: F.Exists(_Z, F.And(F.Label("red", _Z), F.Edge(_X, _Z))),
           POSET: F.Exists(_Z, F.And(F.Label("red", _Z), F.Not(F.Leq(_Z, _X))))}


def _guard_atoms(signature):
    return st.sampled_from(
        [lambda v, name=name: F.Label(name, v) for name in ("red", "low", "none", "all")]
        + [lambda v: F.Defined(_GUARDS[signature], (_X,), (v,)),
           lambda v: F.Defined(F.Not(F.Label("red", _X)), (_X,), (v,))])


def _guarded_formulas(signature):
    """Quantifiers whose variable has one or two guards, in every shape the
    rewrite and psi use them, on one branch of a disjunction only, and
    negated, where they must not restrict."""
    var = st.sampled_from(_VARS)
    guards = st.lists(_guard_atoms(signature), min_size=1, max_size=2)
    shapes = [
        lambda v, gs, f, h: F.Exists(v, F.big_and([g(v) for g in gs] + [f])),
        lambda v, gs, f, h: F.Forall(v, F.Implies(F.big_and([g(v) for g in gs]), f)),
        lambda v, gs, f, h: F.Forall(v, F.big_or([F.Not(g(v)) for g in gs] + [f])),
        lambda v, gs, f, h: F.Exists(v, F.Or(F.big_and([g(v) for g in gs] + [f]), h)),
        lambda v, gs, f, h: F.Forall(v, F.And(F.Implies(F.big_and([g(v) for g in gs]), f), h)),
        lambda v, gs, f, h: F.Exists(v, F.big_and([F.Not(g(v)) for g in gs] + [f])),
        lambda v, gs, f, h: F.Forall(v, F.Implies(F.big_and([F.Not(g(v)) for g in gs]), f)),
        lambda v, gs, f, h: F.Exists(v, F.big_and([g(v) for g in gs])),
    ]

    rel = F.Edge if signature == GRAPH else F.Leq
    # a binary atom joining the quantified variable to another, so that the
    # formulas under the guard read tables along its domain
    links = st.sampled_from([rel, F.Eq,
                             lambda a, b: F.Defined(_DEFINED[signature], (_X, _Y), (a, b))])

    def build(shape, v, gs, link, u, f, link2, u2, h):
        return shape(v, gs, F.And(link(v, u), f), F.And(link2(u2, v), h))

    def extend(sub):
        return st.builds(build, st.sampled_from(shapes), var, guards, links, var, sub,
                         links, var, sub)

    return extend(st.recursive(_quantified_formulas(signature), extend, max_leaves=3))


@pytest.mark.parametrize("small_cells", [0, checker._SMALL_CELLS])
@pytest.mark.parametrize("signature", [GRAPH, POSET])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_guarded_quantifiers_match_slow_evaluator(signature, small_cells, data):
    """A quantified variable ranges over its guards' domain; every entry of
    the table against the direct evaluator."""
    s = data.draw(_structures(signature, min_n=2))  # below two, no guard restricts
    labels = {**s.labels, "low": set(range(s.n // 2)), "none": set(), "all": set(range(s.n))}
    s = (LabeledGraph(s.n, s.edges, labels) if signature == GRAPH
         else LabeledPoset(s.n, s.pairs(), labels))
    phi = data.draw(_guarded_formulas(signature))
    free = F.free_vars(phi)
    axes = [v for v in _VARS if v in free] + [v for v in _VARS if v not in free][:1]
    with mock.patch.object(checker, "_SMALL_CELLS", small_cells):
        table = truth_table(s, phi, axes)
    for point in itertools.product(range(s.n), repeat=len(axes)):
        assert bool(table[point]) == eval_slow(s, phi, dict(zip(axes, point)))


def test_order_matrix_matches_rows():
    rng = random.Random(14)
    for n in (0, 1, 7, 8, 9, 17):
        p = generated_poset(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                if rng.random() < 0.3])
        rel = _context(p).rel
        assert rel.shape == (n, n)
        assert rel.tolist() == [[leq(p, a, b) for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("cls, make, size", [("interval", rand_intervals, 20),
                                             ("unit_disk", rand_disks, 8)])
def test_psi_tables_fit_a_quadratic_budget(monkeypatch, cls, make, size):
    """psi quantifies a third variable, yet never needs n^3 cells."""
    rep = make(random.Random(15), size)
    inst = make_instance(cls, rep)
    monkeypatch.setattr(checker, "MAX_CELLS", inst.poset.n ** 2)
    assert instance_graph(inst).edges == checker.build_graph(cls, rep).edges


def test_budget_overflow_is_an_eval_error(monkeypatch):
    rep = rand_intervals(random.Random(3), 20)  # a poset of 60 elements
    phi = parse_formula(path_sentence(5), GRAPH)
    monkeypatch.setattr(checker, "MAX_CELLS", 20 ** 4 - 1)
    with pytest.raises(EvalError, match="arity 4 on n=20 elements, with axes of 20x20x20x20,"):
        model_check("interval", rep, phi)


def test_poset_side_budget_overflow_is_an_eval_error(monkeypatch):
    """The graph side fits 20x20 cells; the poset side joins psi's z over
    D (40 endpoints) with a vertex axis (20 intervals)."""
    rep = rand_intervals(random.Random(3), 20)  # a poset of 60 elements
    phi = parse_formula("exists x. exists y. edge(x,y)", GRAPH)
    monkeypatch.setattr(checker, "MAX_CELLS", 400)
    with pytest.raises(EvalError, match="arity 2 on n=60 elements, with axes of 40x20,"):
        model_check("interval", rep, phi)


@pytest.mark.parametrize("entry", ["model_check", "cli"])
def test_poset_side_eval_error_reaches_the_caller(monkeypatch, tmp_path, capsys, entry):
    """A budget between n^2 and |nu||D| = 2n^2 fits every graph table of the
    edge sentence on n = 20 intervals but not psi's join of z over D (40
    endpoints) with a vertex axis; the poset's error must reach the caller."""
    from geomfo import fileio
    from geomfo.cli import main

    n = 20
    rep = rand_intervals(random.Random(3), n)
    text = "exists x. exists y. edge(x,y)"
    monkeypatch.setattr(checker, "MAX_CELLS", 2 * n * n - 1)
    assert eval_structure(checker.build_graph("interval", rep), parse_formula(text, GRAPH))
    want = "arity 2 on n=60 elements, with axes of 40x20,"
    if entry == "model_check":
        with pytest.raises(EvalError, match=want):
            model_check("interval", rep, parse_formula(text, GRAPH))
    else:
        path = tmp_path / "rep.txt"
        path.write_text(fileio.write_representation(rep))
        assert main(["check", "--class", "interval", "--in", str(path), "--formula", text]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and want in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("entry", ["model_check", "cli"])
def test_relation_matrix_over_budget_is_an_eval_error(monkeypatch, tmp_path, capsys, entry):
    """The n x n relation matrix is checked before it is built: a budget
    that fits the 20-vertex graph's but not the 60-element poset's order
    matrix refuses the poset side."""
    from geomfo import fileio
    from geomfo.cli import main

    rep = rand_intervals(random.Random(3), 20)
    text = "exists x. exists y. edge(x,y)"
    monkeypatch.setattr(checker, "MAX_RELATION_CELLS", 20 * 20)
    want = "the relation matrix on n=60 elements has 3600 cells, over the budget of 400"
    if entry == "model_check":
        with pytest.raises(EvalError, match=want):
            model_check("interval", rep, parse_formula(text, GRAPH))
    else:
        path = tmp_path / "rep.txt"
        path.write_text(fileio.write_representation(rep))
        assert main(["check", "--class", "interval", "--in", str(path), "--formula", text]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and want in captured.err
        assert captured.out == ""


def test_path_on_40_intervals_fits_the_default_budget():
    """Every variable of the rewritten 5-path ranges over nu: its tables need
    40^4 cells where the 120 poset elements would need 120^4."""
    rep = rand_intervals(random.Random(3), 40)
    res = model_check("interval", rep, parse_formula(path_sentence(5), GRAPH))
    assert res.graph_verdict == res.poset_verdict


def test_battery_fits_nu_times_d_cells(monkeypatch):
    """On n intervals |nu| = n and |D| = 2n, so psi's join takes |nu||D| = 2n^2
    cells; a plan over all 3n poset elements takes 9n^2."""
    n = 20
    rep = rand_intervals(random.Random(16), n)
    inst = make_instance("interval", rep)
    g = checker.build_graph("interval", rep)
    for text in DEFAULT_BATTERY:
        phi = parse_formula(text, GRAPH)
        want = eval_structure(g, phi)
        rewritten = F.rewrite_under_interpretation(phi, inst.interp)
        with monkeypatch.context() as m:
            m.setattr(checker, "MAX_CELLS", 2 * n * n)
            assert eval_structure(inst.poset, rewritten) == want


# ---------------------------------------------------------------------------
# the plan executor against the recursive evaluator, and on deep formulas

def _mix_sentences(rng):
    """An agreement_mix-shaped battery: mostly depth 1, some depth 2, one depth 3."""
    return [rand_sentence(rng, depth) for depth in (1,) * 6 + (2,) * 2 + (3,)]


def _subformulas(phi):
    """Every node of ``phi`` and of its defined atoms' bodies, one per key."""
    out, seen, todo = [], set(), [phi]
    while todo:
        f = todo.pop()
        if f.key not in seen:
            seen.add(f.key)
            out.append(f)
            todo.extend(f.children())
            if isinstance(f, F.Defined):
                todo.append(f.body)
    return out


@pytest.mark.parametrize("small_cells", [0, checker._SMALL_CELLS])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_executor_matches_recursive_evaluator(seed, small_cells):
    """On instances of every class, the graph sentences, their rewrites and
    every subformula of them with its free variables as axes: each table,
    and the whole table cache with its domains, equal the recursive
    evaluator's, so tables over guard domains are compared too."""
    rng = random.Random(seed)
    with mock.patch.object(checker, "_SMALL_CELLS", small_cells):
        for cls in CLASSES:
            for size in range(1, 11):
                rep = _rep(cls, rng, size)
                inst = make_instance(cls, rep)
                for s, rewrite in ((checker.build_graph(cls, rep), False), (inst.poset, True)):
                    oracle = _Context(s)
                    for phi in _mix_sentences(rng):
                        if rewrite:
                            phi = F.rewrite_under_interpretation(
                                F.complement_edges(phi) if inst.complemented else phi,
                                inst.interp)
                        for f in _subformulas(phi):
                            assert (truth_table(s, f, f.free)
                                    == ref_truth_table(oracle, f, f.free)).all()
                    ctx = _context(s)
                    assert ctx.tables.keys() == oracle.tables.keys()
                    assert all((table == oracle.tables[at]).all()
                               for at, table in ctx.tables.items())
                    assert [d.tolist() for d in ctx.domains] == \
                        [d.tolist() for d in oracle.domains]


def _one_sided(phi, rng, rel):
    """``phi`` with each edge atom made a ``rel`` atom or, half the time, a
    defined atom over (x, y) whose body leaves one of its parameters out."""
    bodies = (F.Label("red", _X), F.Not(F.Label("red", _Y)),
              F.Exists(_Z, F.And(rel(_Z, _X), F.Label("red", _Z))))

    def atom(g):
        if not isinstance(g, F.Edge):
            return g
        if rng.random() < 0.5:
            return rel(g.x, g.y)
        return F.Defined(rng.choice(bodies), (_X, _Y), (g.x, g.y))

    return F.map_atoms(phi, atom)


@pytest.mark.parametrize("signature", [GRAPH, POSET])
def test_defined_atom_leaving_out_a_parameter(signature):
    """A defined atom's table spans its arguments even where its body does
    not mention one: random sentences holding such atoms against the direct
    evaluator, and every subformula's table against the recursive one."""
    rng = random.Random(17)
    rel = F.Edge if signature == GRAPH else F.Leq
    for _ in range(40):
        n = rng.randint(1, 6)
        pairs = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4}
        labels = {"red": {v for v in range(n) if rng.random() < 0.5}}
        s = (LabeledGraph(n, pairs, labels) if signature == GRAPH
             else generated_poset(n, pairs, labels))
        oracle = _Context(s)
        for _ in range(5):
            phi = _one_sided(rand_sentence(rng, rng.randint(1, 4), labels=("red",)), rng, rel)
            assert eval_structure(s, phi) == eval_slow(s, phi)
            for f in _subformulas(phi):
                assert (truth_table(s, f, f.free) == ref_truth_table(oracle, f, f.free)).all()


_DEEP = 100_000


def _deep_chain(kind):
    """A formula of about ``_DEEP`` nodes over x and y, in the graph
    signature, and its truth table as a function of the tables of
    edge(x,y) and x=y, folded level by level."""
    x, y = Var("x"), Var("y")
    edge, distinct = F.Edge(x, y), F.Not(F.Eq(x, y))
    phi = edge
    if kind == "not":
        for _ in range(_DEEP):
            phi = F.Not(phi)
        return phi, lambda e, q: e if _DEEP % 2 == 0 else ~e
    if kind in ("and", "or"):
        op = F.And if kind == "and" else F.Or
        for i in range(_DEEP // 2):
            phi = op(phi, distinct if i % 2 else edge)
        return phi, (lambda e, q: e & ~q) if kind == "and" else (lambda e, q: e | ~q)
    if kind == "parentheses":  # "!(" * k + "edge(x,y)" + " | edge(x,y))" * k
        for _ in range(_DEEP // 2):
            phi = F.Not(F.Or(phi, edge))

        def fold(e, q):
            t = e
            for _ in range(_DEEP // 2):
                t = ~(t | e)
            return t
        return phi, fold
    # alternating quantifiers: exists x. edge(x,y) & forall y. edge(x,y) & exists x. ...
    levels = _DEEP // 2
    for i in range(levels):
        q = F.Exists if i % 2 == 0 else F.Forall
        phi = q(x if i % 2 == 0 else y, F.And(edge, phi))

    def fold(e, q):
        t = e
        for i in range(levels):
            axis = i % 2
            body = e & t
            t = body.any(axis=axis) if axis == 0 else body.all(axis=axis)
            t = np.broadcast_to(np.expand_dims(t, axis), e.shape)
        return t
    return phi, fold


@pytest.mark.parametrize("kind", ["not", "and", "or", "parentheses", "quantifiers"])
def test_hundred_thousand_deep_chains_evaluate(kind):
    """No recursion: ``truth_table``, ``eval_structure`` and ``model_check``
    decide a formula about 100,000 nodes deep, open and closed by two
    quantifiers, and agree with its table folded level by level.  Each
    chain is built once."""
    rep = Representation("interval", (Interval(Fr(0), Fr(2)), Interval(Fr(1), Fr(3)),
                                      Interval(Fr(4), Fr(5))))
    g = checker.build_graph("interval", rep)
    x, y = Var("x"), Var("y")
    phi, fold = _deep_chain(kind)
    e = np.array([[g.has_edge(a, b) for b in range(3)] for a in range(3)])
    want = np.broadcast_to(fold(e, np.eye(3, dtype=bool)), (3, 3))
    assert (truth_table(g, phi, (x, y)) == want).all()
    for a, b in itertools.product(range(3), repeat=2):
        assert eval_structure(g, phi, {x: a, y: b}) == want[a, b]
    assert eval_structure(g, F.Forall(x, F.Forall(y, phi))) == want.all()
    res = model_check("interval", rep, F.Exists(x, F.Exists(y, phi)))
    assert res.graph_verdict == res.poset_verdict == want.any()
