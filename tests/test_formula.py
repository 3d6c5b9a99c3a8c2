import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from geomfo import formula as F
from geomfo.formula import (Edge, Eq, Exists, Forall, GRAPH, POSET, Implies,
                            Interpretation, Label, Not, Or, And, ParseError,
                            Var, efo_to_patterns, free_vars, label_names, parse_formula,
                            pattern_formula, print_formula, quantifier_depth,
                            rewrite_under_interpretation)
from geomfo.geometry import LabeledGraph, induced_embeds

from helpers import (rand_arcs, rand_boxes, rand_chords, rand_disks, rand_fan,
                     rand_intervals, rand_segments, rand_sentence, ref_formula_signature,
                     ref_free_vars, ref_key, ref_label_names, ref_nodes, ref_quantifier_depth,
                     ref_repr)


def test_parse_single_atom():
    phi = parse_formula("edge(x,y)", GRAPH)
    assert phi == Edge(Var("x"), Var("y"))
    assert free_vars(phi) == {Var("x"), Var("y")}


def test_parse_two_clique_sentence():
    phi = parse_formula("exists x1. exists x2. (edge(x1,x2) & !(x1=x2))", GRAPH)
    assert quantifier_depth(phi) == 2
    assert free_vars(phi) == frozenset()
    assert isinstance(phi, Exists) and isinstance(phi.sub, Exists)


def test_parse_poset_fragment_with_label():
    phi = parse_formula("forall z. (D(z) -> !(x<=z))", POSET)
    assert isinstance(phi, Forall)
    assert any(isinstance(n, Label) and n.name == "D" for n in F.walk(phi))
    assert free_vars(phi) == {Var("x")}


def test_signature_rejections():
    with pytest.raises(ParseError):
        parse_formula("x<=y", GRAPH)
    with pytest.raises(ParseError):
        parse_formula("edge(x,y)", POSET)
    with pytest.raises(ParseError):
        parse_formula("exists x. edge(x,", GRAPH)
    with pytest.raises(ParseError):
        parse_formula("exists edge. x=x", GRAPH)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("edge(x,y) &", GRAPH)
    assert err.value.pos == 11


def test_precedence():
    phi = parse_formula("a=a & b=b | c=c -> d=d", GRAPH)
    # -> binds weakest, | next, & tightest
    assert isinstance(phi, Implies)
    assert isinstance(phi.left, Or)
    assert isinstance(phi.left.left, And)


def _vars():
    return st.sampled_from([Var(n) for n in ("x", "y", "z", "w")])


def _formulas(signature):
    rel = Edge if signature == GRAPH else F.Leq
    atoms = st.one_of(
        st.builds(rel, _vars(), _vars()),
        st.builds(Eq, _vars(), _vars()),
        st.builds(Label, st.sampled_from(["red", "D", "L1"]), _vars()),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Exists, _vars(), sub),
            st.builds(Forall, _vars(), sub),
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(_formulas(GRAPH))
def test_print_parse_roundtrip_graph(phi):
    assert parse_formula(print_formula(phi), GRAPH) == phi


@settings(max_examples=300, deadline=None)
@given(_formulas(POSET))
def test_print_parse_roundtrip_poset(phi):
    assert parse_formula(print_formula(phi), POSET) == phi


def _preorder(f):
    out = [f]
    for kid in f.children():
        out += _preorder(kid)
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(_formulas(GRAPH), _formulas(POSET)))
def test_children_rebuild_and_walk(phi):
    assert phi.rebuild(phi.children()) == phi
    assert list(map(id, F.walk(phi))) == list(map(id, _preorder(phi)))


def test_deep_chain_needs_no_recursion():
    depth = 5000
    phi = Edge(Var("x"), Var("y"))
    for _ in range(depth):
        phi = Not(phi)
    assert sum(1 for _ in F.walk(phi)) == depth + 1
    assert F.label_names(phi) == frozenset()
    assert F.all_var_names(phi) == {"x", "y"}
    assert F.formula_signature(phi) == GRAPH


def _simple_interp():
    nu = parse_formula("!D(x)", POSET)
    psi = parse_formula("x<=y", POSET)
    return Interpretation(nu, psi, frozenset({"D"}))


@pytest.mark.parametrize("nu, psi, message", [
    ("!D(y)", "x<=y", "nu must have exactly the free variable x"),
    ("!D(x) & x<=y", "x<=y", "nu must have exactly the free variable x"),
    ("!D(x)", "x<=z", "psi must have exactly the free variables x and y"),
    ("!D(x)", "D(x)", "psi must have exactly the free variables x and y"),
])
def test_interpretation_is_on_x_and_y(nu, psi, message):
    with pytest.raises(F.FormulaError, match=f"^{message}$"):
        Interpretation(parse_formula(nu, POSET), parse_formula(psi, POSET), frozenset({"D"}))


def test_rewrite_no_edge_atom():
    phi = parse_formula("exists x. L(x)", GRAPH)
    out = rewrite_under_interpretation(phi, _simple_interp())
    assert print_formula(out) == "exists x. !D(x) & L(x)"


def test_rewrite_edge_atom():
    phi = parse_formula("exists x. exists y. edge(x,y)", GRAPH)
    out = rewrite_under_interpretation(phi, _simple_interp())
    # edge(x,y) -> !(x=y) & (x<=y | y<=x), quantifiers relativized to nu
    assert print_formula(out) == \
        "exists x. !D(x) & (exists y. !D(y) & (!x=y & (x<=y | y<=x)))"


def test_rewrite_rejects_open_formula():
    with pytest.raises(F.FormulaError):
        rewrite_under_interpretation(parse_formula("edge(x,y)", GRAPH), _simple_interp())


def test_rewrite_capture_avoidance():
    # phi reuses the names bound inside psi; fresh renaming must keep them apart
    nu = parse_formula("!D(x)", POSET)
    psi = parse_formula("exists z. (D(z) & x<=z & y<=z)", POSET)
    interp = Interpretation(nu, psi, frozenset({"D"}))
    phi = parse_formula("exists z. exists y. edge(z,y)", GRAPH)
    out = rewrite_under_interpretation(phi, interp)
    text = print_formula(out)
    assert parse_formula(text, POSET) == F.expand(out)
    # the two psi copies got distinct fresh bound names
    bound = [n.var.name for n in F.walk(F.expand(out)) if isinstance(n, Exists)]
    assert len(bound) == len(set(bound))


def test_expand_inlines_nested_defined_atoms():
    x, y = Var("x"), Var("y")
    psi = F.Defined(parse_formula("exists z. x<=z & z<=y", POSET), (x, y), (x, y))
    interp = Interpretation(parse_formula("x=x", POSET), psi)
    out = rewrite_under_interpretation(parse_formula("exists x. exists y. edge(x,y)", GRAPH), interp)
    pure = F.expand(out)
    assert not any(isinstance(n, F.Defined) for n in F.walk(pure))
    assert print_formula(out) == ("exists x. x=x & (exists y. y=y & (!x=y & "
                                  "((exists z_1. x<=z_1 & z_1<=y) | (exists z_2. y<=z_2 & z_2<=x))))")
    assert parse_formula(print_formula(out), POSET) is pure
    # the fresh names avoid the names of bodies nested at any depth (z_1 here)
    inner = parse_formula("exists z_1. x<=z_1", POSET)
    outer = Exists(Var("z"), And(F.Leq(x, Var("z")), F.Defined(inner, (x,), (Var("z"),))))
    assert print_formula(F.Defined(outer, (x,), (y,))) == \
        "exists z_2. y<=z_2 & (exists z_3. z_2<=z_3)"


def test_rewrite_quantifier_depth_bound():
    rng = random.Random(5)
    interp = _simple_interp()
    nu_d = quantifier_depth(interp.nu)
    psi_d = quantifier_depth(interp.psi)
    for _ in range(40):
        phi = rand_sentence(rng, rng.randint(1, 3))
        out = rewrite_under_interpretation(phi, interp)
        d, dr = quantifier_depth(phi), quantifier_depth(out)
        assert d <= dr <= d + max(nu_d, psi_d)


def test_pattern_formula_single_vertex():
    phi = pattern_formula(LabeledGraph(1))
    assert print_formula(phi) == "exists x1. x1=x1"


def test_pattern_formula_triangle():
    phi = pattern_formula(LabeledGraph(3, {(0, 1), (0, 2), (1, 2)}))
    edges = [n for n in F.walk(phi) if isinstance(n, Edge)]
    negs = [n for n in F.walk(phi) if isinstance(n, Not) and isinstance(n.sub, Eq)]
    assert len(edges) == 3 and len(negs) == 3
    assert quantifier_depth(phi) == 3


def test_pattern_formula_on_c4():
    from geomfo.checker import eval_structure

    c4 = LabeledGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    k3 = LabeledGraph(3, {(0, 1), (0, 2), (1, 2)})
    p3 = LabeledGraph(3, {(0, 1), (1, 2)})
    assert not eval_structure(c4, pattern_formula(k3))
    assert eval_structure(c4, pattern_formula(p3))


def test_efo_to_patterns_single_edge():
    phi = parse_formula("exists x. exists y. edge(x,y)", GRAPH)
    pats = efo_to_patterns(phi)
    # identifications allowed, but edge(x,x) is always false: only K2 works
    assert len(pats) == 1 and pats[0].n == 2 and len(pats[0].edges) == 1


def test_efo_to_patterns_unsat():
    phi = parse_formula("exists x. !(x=x)", GRAPH)
    assert efo_to_patterns(phi) == []


def test_efo_to_patterns_rejects_non_efo():
    with pytest.raises(F.FormulaError):
        efo_to_patterns(parse_formula("forall x. x=x", GRAPH))
    with pytest.raises(F.FormulaError):
        efo_to_patterns(parse_formula("exists x. forall y. edge(x,y)", GRAPH))


def test_efo_to_patterns_with_labels():
    # gamma_2 over quantifier-free nu = blue(x), psi = edge(x,y)
    from geomfo.generators import gamma_k_formula

    nu = parse_formula("blue(x)", GRAPH)
    psi = parse_formula("edge(x,y)", GRAPH)
    gam = gamma_k_formula(2, nu, psi)
    pats = efo_to_patterns(gam)
    assert pats
    for h in pats:
        blues = h.labels.get("blue", frozenset())
        assert any(a in blues and b in blues and h.has_edge(a, b)
                   for a in range(h.n) for b in range(h.n))


def test_efo_pattern_equivalence_random():
    from geomfo.checker import eval_structure

    rng = random.Random(11)
    checked = 0
    while checked < 100:
        k = rng.randint(1, 3)
        vs = [Var(f"x{i+1}") for i in range(k)]

        def qf(d, avail):
            r = rng.random()
            if d == 0:
                a, b = rng.choice(avail), rng.choice(avail)
                return Edge(a, b) if rng.random() < 0.6 else Eq(a, b)
            op = rng.choice(["not", "and", "or", "imp"])
            if op == "not":
                return Not(qf(d - 1, avail))
            cons = {"and": And, "or": Or, "imp": Implies}[op]
            return cons(qf(d - 1, avail), qf(d - 1, avail))

        matrix = qf(rng.randint(1, 3), vs)
        phi = F.exists_many(vs, matrix)
        n = rng.randint(1, 8)
        g = LabeledGraph(n, {(a, b) for a in range(n) for b in range(a + 1, n)
                             if rng.random() < 0.4})
        direct = eval_structure(g, phi)
        pats = efo_to_patterns(phi)
        via_patterns = any(induced_embeds(h, g) for h in pats)
        assert direct == via_patterns
        checked += 1


# ---------------------------------------------------------------------------
# hash-consed nodes: stored facts, keys, deep chains and table lifetimes

_CLASSES = ("interval", "circular_arc", "circle", "permutation", "box", "unit_disk",
            "visibility")


def _random_instance(cls, rng):
    from geomfo.geometry import Representation
    from geomfo.interpret import make_instance

    n = rng.randint(1, 4)
    if cls == "visibility":
        return make_instance(cls, Representation(cls, (rand_fan(rng, n + 2),)))
    make = {"interval": rand_intervals, "circular_arc": rand_arcs, "circle": rand_chords,
            "permutation": rand_segments, "box": rand_boxes, "unit_disk": rand_disks}[cls]
    return make_instance(cls, make(rng, n))


def test_stored_facts_match_the_recursive_oracles():
    """Random sentences, their rewrites and expansions, and nu and psi of
    every class: each node's stored facts against the recursive walks, and
    one key per oracle key.  Each sentence is also rewritten under a copy
    of the interpretation whose psi has its bound variables renamed, so
    defined atoms over distinct but equal bodies share keys."""
    rng = random.Random(23)
    formulas = []
    for cls in _CLASSES:
        interp = _random_instance(cls, rng).interp
        renamed = F.expand(F.Defined(interp.psi, (F.X, F.Y), (F.X, F.Y)))
        copy = Interpretation(interp.nu, renamed, interp.labels)
        assert quantifier_depth(interp.psi) == 0 or renamed is not interp.psi
        formulas += [interp.nu, interp.psi, renamed]
        for _ in range(8):
            phi = rand_sentence(rng, rng.randint(1, 4), labels=("red", "D"))
            outs = [rewrite_under_interpretation(phi, i) for i in (interp, copy)]
            formulas += [phi, *outs, F.expand(outs[0])]
    oracle_keys: dict = {}
    key_of: dict = {}  # oracle key -> stored key
    oracle_of: dict = {}  # stored key -> oracle key
    checked = 0
    for f in formulas:
        assert repr(f) == ref_repr(f)
        for node in ref_nodes(f):
            okey, ofree = ref_key(node, oracle_keys)
            assert tuple(v.name for v in node.free) == ofree
            assert node.key.arity == len(ofree)
            assert free_vars(node) == ref_free_vars(node)
            assert quantifier_depth(node) == ref_quantifier_depth(node)
            assert F.formula_signature(node) == ref_formula_signature(node)
            assert label_names(node) == ref_label_names(node)
            assert key_of.setdefault(okey, node.key) is node.key
            assert oracle_of.setdefault(node.key, okey) == okey
            checked += 1
    assert len(key_of) == len(oracle_of) > 100 and checked > 10_000


def test_nodes_are_interned():
    x, y = Var("x"), Var("y")
    assert Var("x") is x
    assert Exists(x, Edge(x, y)) is Exists(Var("x"), Edge(Var("x"), Var("y")))
    assert parse_formula("exists x. edge(x,y)", GRAPH) is Exists(x, Edge(x, y))
    # renamed bound variables: another node, the same key
    assert Exists(Var("z"), Edge(Var("z"), y)) is not Exists(x, Edge(x, y))
    assert Exists(Var("z"), Edge(Var("z"), y)).key is Exists(x, Edge(x, y)).key
    with pytest.raises(AttributeError):
        x.name = "y"
    with pytest.raises(AttributeError):
        del x.name
    with pytest.raises(F.FormulaError):
        F.Defined(Edge(x, y), (x,), (y,))  # y is free in the body but no parameter


def test_hundred_thousand_deep_chains_need_no_recursion():
    depth = 100_000
    negations = parse_formula("!" * depth + "red(x)", GRAPH)
    prefix = parse_formula("exists x. " * depth + "edge(x,y)", GRAPH)
    universal = parse_formula("forall x. " * depth + "edge(x,y)", GRAPH)
    assert free_vars(negations) == {Var("x")} and free_vars(prefix) == {Var("y")}
    assert quantifier_depth(negations) == 0 and quantifier_depth(prefix) == depth
    assert F.formula_signature(negations) is None and F.formula_signature(prefix) == GRAPH
    assert label_names(negations) == {"red"} and label_names(prefix) == frozenset()
    assert F.is_existential(negations) and F.is_existential(prefix)
    assert not F.is_existential(universal)
    assert len({hash(negations), hash(prefix), hash(universal)}) == 3
    assert prefix == parse_formula("exists x. " * depth + "edge(x,y)", GRAPH)
    assert prefix != universal and prefix.key is not universal.key
    inner = prefix
    for _ in range(depth):
        inner = inner.sub
    assert inner == Edge(Var("x"), Var("y"))


def test_hundred_thousand_deep_chains_print_expand_and_map():
    depth = 100_000
    edge = Edge(Var("x"), Var("y"))
    chains = [parse_formula("!" * depth + "edge(x,y)", GRAPH),
              parse_formula("edge(x,y) & " * depth + "edge(x,y)", GRAPH),
              parse_formula("exists x. " * depth + "edge(x,y)", GRAPH)]
    leaf = "Edge(x=Var(name='x'), y=Var(name='y'))"
    assert [repr(f) for f in chains] == [
        "Not(sub=" * depth + leaf + ")" * depth,
        "And(left=" * depth + leaf + (", right=" + leaf + ")") * depth,
        "Exists(var=Var(name='x'), sub=" * depth + leaf + ")" * depth]
    for f in chains:
        assert parse_formula(print_formula(f), GRAPH) is f
        assert F.expand(f) is f
        assert F.map_atoms(f, lambda g: g) is f
        assert F.complement_edges(f).key.depth == f.key.depth
    assert print_formula(F.complement_edges(chains[0])) == "!" * depth + "(!edge(x,y) & !x=y)"
    right = edge
    for _ in range(depth):
        right = And(edge, right)
    assert print_formula(right) == \
        "edge(x,y) & (" * (depth - 1) + "edge(x,y) & edge(x,y)" + ")" * (depth - 1)
    # a deep body inlined through a defined atom is renamed all the way down
    pure = F.expand(F.Defined(chains[2], (Var("y"),), (Var("w"),)))
    assert pure.key is chains[2].key and pure.free == (Var("w"),)


def test_hundred_thousand_deep_parentheses_and_implications_parse():
    depth = 100_000
    edge = Edge(Var("x"), Var("y"))
    nested = implied = edge
    for _ in range(depth):
        nested = Not(Or(edge, nested))
        implied = Implies(edge, implied)
    assert parse_formula("!(edge(x,y) | " * depth + "edge(x,y)" + ")" * depth, GRAPH) is nested
    assert parse_formula("edge(x,y) -> " * depth + "edge(x,y)", GRAPH) is implied
    assert parse_formula("(" * depth + "edge(x,y)" + ")" * depth, GRAPH) is edge
    with pytest.raises(ParseError, match=r"expected '\)', found 'end of input' \(at position"):
        parse_formula("(" * depth + "edge(x,y)" + ")" * (depth - 1), GRAPH)


def _table_sizes():
    return [len(table) for table in (F._VARS, F._KEYS, F._NODES)]


def test_intern_tables_hold_their_entries_weakly():
    y = Var("y")
    gc.collect()
    before = _table_sizes()
    peak = before
    for i in range(10_000):
        v = Var(f"v{i}")
        f = Exists(v, And(Label(f"L{i}", v), Not(Edge(v, y))))
        peak = [max(p, size) for p, size in zip(peak, _table_sizes())]
        del f, v
    # one variable and one formula of five nodes alive at a time
    assert all(p - b <= most for p, b, most in zip(peak, before, (1, 5, 5))), (peak, before)
    gc.collect()
    assert _table_sizes() == before


def _fold_rewrite(phi, interp):
    """phi^I by a ``_bottom_up`` fold of its own, past the rewrite table."""

    def combine(g, kids):
        if isinstance(g, Edge):
            psi, params = interp.psi, (F.X, F.Y)
            return And(Not(Eq(g.x, g.y)),
                       Or(F.Defined(psi, params, (g.x, g.y)), F.Defined(psi, params, (g.y, g.x))))
        if isinstance(g, (Exists, Forall)):
            nu = F.Defined(interp.nu, (F.X,), (g.var,))
            return type(g)(g.var, (And if isinstance(g, Exists) else Implies)(nu, kids[0]))
        if isinstance(g, F.Defined):
            return F.Defined(kids[0], g.params, g.args)
        return g.rebuild(kids)

    return F._bottom_up(phi, combine)


def test_rewrite_outlives_its_interpretation(monkeypatch):
    phi = parse_formula("exists u. exists w. (edge(u,w) | L(w))", GRAPH)
    interp = _simple_interp()
    out = rewrite_under_interpretation(phi, interp)
    assert out is _fold_rewrite(phi, interp)
    del interp
    gc.collect()
    again = _simple_interp()  # the same nu and psi nodes, still interned
    folds = []
    monkeypatch.setattr(F, "_bottom_up", lambda *args: folds.append(args))
    assert rewrite_under_interpretation(phi, again) is out
    assert folds == []  # taken from the table, not folded again


def test_complement_lives_with_its_sentence():
    phi = parse_formula("exists u. exists w. (edge(u,w) | L(w))", GRAPH)
    comp = F.complement_edges(phi)
    assert F.complement_edges(phi) is comp
    assert print_formula(comp) == "exists u. exists w. !edge(u,w) & !u=w | L(w)"
    ident = weakref.ref(comp)
    del comp
    gc.collect()
    assert ident() is not None  # filed on phi
    del phi
    gc.collect()
    assert ident() is None
    gc.collect()
    before = len(F._REWRITES)
    plain = parse_formula("exists u. L(u)", GRAPH)
    assert F.complement_edges(plain) is plain
    assert len(F._REWRITES) == before  # its own complement: nothing filed


def test_rewrite_dies_with_its_sentence():
    gc.collect()
    before = len(F._REWRITES)
    interp = Interpretation(parse_formula("!Dies(x)", POSET),
                            parse_formula("x<=y & Dies(y)", POSET), frozenset({"Dies"}))
    nu, psi = weakref.ref(interp.nu), weakref.ref(interp.psi)
    phi = parse_formula("exists u. exists w. (edge(u,w) | L(w))", GRAPH)
    out = weakref.ref(rewrite_under_interpretation(phi, interp))
    assert len(F._REWRITES) == before + 1
    del interp
    gc.collect()
    assert out() is not None and nu() is not None and psi() is not None  # the entry holds them
    del phi
    gc.collect()
    assert out() is None and len(F._REWRITES) == before
    assert nu() is None and psi() is None


def test_rewrite_table_survives_id_reuse():
    rng = random.Random(15)
    nu, psis = parse_formula("!D(x)", POSET), [parse_formula(t, POSET) for t in ("x<=y", "y<=x")]
    gc.collect()
    before = len(F._REWRITES)
    dead, reused = set(), 0
    for i in range(600):
        phi = rand_sentence(rng, rng.randint(1, 4), labels=("L",))
        reused += id(phi) in dead
        for psi in psis[i % 2:] + psis[:i % 2]:
            interp = Interpretation(nu, psi, frozenset({"D"}))  # its memo dies with it
            assert rewrite_under_interpretation(phi, interp) is _fold_rewrite(phi, interp)
        dead.add(id(phi))
        gone = weakref.ref(phi)
        del phi, interp
        assert gone() is None  # no cycles: it died here, and its entries with it
    assert reused > 100  # new sentences took the addresses of dead ones
    assert len(F._REWRITES) == before
