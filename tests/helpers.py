"""Shared test utilities: random instances, oracles, graph enumeration.

The oracles here deliberately use different algorithms from the package
(winding-number point location, Cramer-rule crossings, exhaustive searches)
so agreement is evidence rather than tautology.
"""

import dataclasses
import functools
import hashlib
import itertools
import math
from fractions import Fraction as Fr

import numpy as np

from geomfo import checker, formula as F
from geomfo.checker import EvalError
from geomfo.generators import graph_interpretation
from geomfo.poset import Violation
from geomfo.geometry import (Arc, Box, Chord, Disk, GeometryError, Interval,
                             LabeledGraph, PermSegment, Polygon, Representation)


# ---------------------------------------------------------------------------
# random representations

def rand_rat(rng, lo=0, hi=8, den=4):
    return Fr(rng.randint(lo * den, hi * den), den)


def rand_intervals(rng, n):
    out = []
    for _ in range(n):
        a, b = rand_rat(rng), rand_rat(rng)
        while b == a:
            b = rand_rat(rng)
        out.append(Interval(min(a, b), max(a, b)))
    return Representation("interval", tuple(out))


def rand_arcs(rng, n):
    out = []
    for _ in range(n):
        a, b = Fr(rng.randint(0, 31), 32), Fr(rng.randint(0, 31), 32)
        while b == a:
            b = Fr(rng.randint(0, 31), 32)
        out.append(Arc(a, b))
    return Representation("circular_arc", tuple(out))


def rand_chords(rng, n):
    out = []
    for _ in range(n):
        a, b = Fr(rng.randint(0, 31), 32), Fr(rng.randint(0, 31), 32)
        while b == a:
            b = Fr(rng.randint(0, 31), 32)
        out.append(Chord(a, b))
    return Representation("circle", tuple(out))


def rand_segments(rng, n):
    tops = rng.sample(range(4 * n + 8), n)
    bots = rng.sample(range(4 * n + 8), n)
    return Representation("permutation",
                          tuple(PermSegment(Fr(t), Fr(b)) for t, b in zip(tops, bots)))


def rand_boxes(rng, n, k=3):
    ys = []
    for _ in range(k):
        a = rand_rat(rng)
        ys.append((a, a + Fr(rng.randint(1, 8), 4)))
    out = []
    for _ in range(n):
        a = rand_rat(rng)
        w = Fr(rng.randint(1, 8), 4)
        y = ys[rng.randrange(k)]
        out.append(Box(Interval(a, a + w), Interval(*y)))
    return Representation("box", tuple(out))


def rand_disks(rng, n, k=3):
    rows = [Fr(r, 4) for r in sorted(rng.sample(range(0, 9), k))]
    return Representation("unit_disk",
                          tuple(Disk(Fr(rng.randint(0, 24), 8), rows[rng.randrange(k)])
                                for _ in range(n)))


def rand_fan(rng, n):
    """Weak-visibility polygon: star-shaped from u, so weakly visible from uv."""
    while True:
        try:
            m = n - 2
            pts = []
            for i in range(m):
                r = rng.randint(2, 6)
                pts.append((Fr(r * (i + 1)), Fr(r * (m - i))))
            u = (Fr(0), Fr(0))
            v = (Fr(8 * m), Fr(0))
            return Polygon(tuple([u] + pts + [v]))
        except GeometryError:
            continue


def rand_sentence(rng, depth=3, labels=()):
    names = ["x", "y", "z", "w"]

    def rec(d, avail):
        r = rng.random()
        if d <= 0 or (r < 0.25 and avail):
            a, b = rng.choice(avail), rng.choice(avail)
            roll = rng.random()
            if labels and roll < 0.2:
                return F.Label(rng.choice(labels), F.Var(a))
            if roll < 0.65:
                return F.Edge(F.Var(a), F.Var(b))
            return F.Eq(F.Var(a), F.Var(b))
        if r < 0.45:
            return F.Not(rec(d - 1, avail))
        if r < 0.6 and len(avail) < len(names):
            v = names[len(avail)]
            body = rec(d - 1, avail + [v])
            return F.Exists(F.Var(v), body) if rng.random() < 0.5 else F.Forall(F.Var(v), body)
        op = rng.choice([F.And, F.Or, F.Implies])
        return op(rec(d - 1, avail), rec(d - 1, avail))

    v = names[0]
    body = rec(depth - 1, [v])
    return F.Exists(F.Var(v), body) if rng.random() < 0.7 else F.Forall(F.Var(v), body)


# ---------------------------------------------------------------------------
# object facts only the tests ask for

def overlaps(a: Interval, b: Interval) -> bool:
    """The closed intervals a and b meet."""
    return a.lo <= b.hi and b.lo <= a.hi


def strictly_contains(a: Interval, b: Interval) -> bool:
    """b lies inside a, sharing neither end."""
    return a.lo < b.lo and b.hi < a.hi


def arc_contains_point(arc: Arc, p) -> bool:
    """The point p, taken mod 1, lies on the closed arc."""
    p = p % 1
    if arc.start < arc.end:
        return arc.start <= p <= arc.end
    return p >= arc.start or p <= arc.end


def edge_points(poly: Polygon, i: int):
    """The ends of the polygon's edge i, from vertex i to vertex i + 1."""
    return poly.vertices[i], poly.vertices[(i + 1) % poly.n]


def adjacency_rows(g: LabeledGraph) -> list[bytearray]:
    """The graph's adjacency matrix as rows of 0/1 bytes."""
    return [bytearray(r) for r in g.adjacency_matrix().view(np.uint8)]


def with_broken_interval_psi(make_instance):
    """``make_instance`` with the disjunct ``!z<=y`` dropped from every
    interval instance's psi, so that no two intervals are adjacent."""
    psi = F.parse_formula("forall z. D(z) -> !x<=z & (!y<=z | !z<=x)", F.POSET)

    def make(cls, rep):
        inst = make_instance(cls, rep)
        if cls != "interval":
            return inst
        return dataclasses.replace(inst, interp=F.Interpretation(inst.interp.nu, psi,
                                                                 inst.interp.labels))

    return make


def instance_graph(inst) -> LabeledGraph:
    """The graph an interpretation instance defines in its poset, read by
    ``graph_interpretation``; its vertices, nu's elements in ascending
    order, must be the instance's vertex map."""
    vs, g = graph_interpretation(inst.poset, inst.interp.nu, inst.interp.psi)
    assert vs == inst.vertex_map
    return g


# ---------------------------------------------------------------------------
# brute-force oracles

def leq(p, a: int, b: int) -> bool:
    """a <= b in the poset p."""
    return a == b or p.lt(a, b)


def eval_slow(structure, phi, assignment=None) -> bool:
    """Direct recursive evaluator over one assignment at a time; the oracle
    for the tensor evaluator.  A defined atom evaluates its body under its
    arguments' values."""
    graph = isinstance(structure, LabeledGraph)

    def rec(g, asg) -> bool:
        if isinstance(g, (F.Edge, F.Leq)):
            if graph != isinstance(g, F.Edge):
                raise EvalError("atom/structure signature mismatch")
            x, y = asg[g.x], asg[g.y]
            return structure.has_edge(x, y) if graph else leq(structure, x, y)
        if isinstance(g, F.Eq):
            return asg[g.x] == asg[g.y]
        if isinstance(g, F.Label):
            if g.name not in structure.labels:
                raise EvalError(f"undeclared label {g.name!r}")
            return asg[g.x] in structure.labels[g.name]
        if isinstance(g, F.Defined):
            return rec(g.body, {p: asg[a] for p, a in zip(g.params, g.args)})
        if isinstance(g, F.Not):
            return not rec(g.sub, asg)
        if isinstance(g, F.And):
            return rec(g.left, asg) and rec(g.right, asg)
        if isinstance(g, F.Or):
            return rec(g.left, asg) or rec(g.right, asg)
        if isinstance(g, F.Implies):
            return (not rec(g.left, asg)) or rec(g.right, asg)
        # a binder shadows an outer value of its variable only in its scope
        if isinstance(g, F.Exists):
            return any(rec(g.sub, {**asg, g.var: e}) for e in range(structure.n))
        if isinstance(g, F.Forall):
            return all(rec(g.sub, {**asg, g.var: e}) for e in range(structure.n))
        raise EvalError(f"not a formula: {g!r}")

    return rec(phi, dict(assignment or {}))


# ---------------------------------------------------------------------------
# the recursive tensor evaluator: the differential oracle for the checker's
# plans and its explicit-stack executor.  It plans every quantifier again on
# every fill and recurses once per node; it shares the checker's context
# layout and its array helpers, and reads MAX_CELLS and _SMALL_CELLS from the
# checker module when it runs, so patches reach both.

def ref_truth_table(ctx, phi, axes) -> np.ndarray:
    """``checker.truth_table`` computed by the recursive evaluator in
    ``ctx``, a ``checker._Context`` of its own."""
    axes = tuple(axes)
    table = _ref_table(ctx, phi.key)
    return np.broadcast_to(checker._lift(table, tuple(map(axes.index, phi.free)), len(axes)),
                           (ctx.n,) * len(axes))


def _ref_table(ctx, key, doms=()):
    at = (key, *doms) if doms else key
    table = ctx.tables.get(at)
    if table is None:
        table = ctx.tables[at] = _ref_fill(ctx, key, doms)
    return table


def _ref_fill(ctx, key, doms):
    desc, kids, k = key.desc, key.kids, key.arity
    kind = desc[0]
    sizes = checker._shape(ctx, doms, k)
    checker._check(ctx, sizes)
    if kind is F.Exists or kind is F.Forall:
        return _ref_quantify(ctx, key, doms, sizes)
    if kind is F.Not:
        return ~_ref_table(ctx, kids[0], doms)
    pick, lift = checker._pick, checker._lift
    if kind is F.And or kind is F.Or or kind is F.Implies:
        left, ka = kids[0], kids[0].arity
        la = lift(_ref_table(ctx, left, pick(doms, range(ka))), tuple(range(ka)), k)
        ra = lift(_ref_table(ctx, kids[1], pick(doms, desc[3])), desc[3], k)
        if kind is F.And:
            return la & ra
        return la | ra if kind is F.Or else ~la | ra
    pos = desc[-1]
    args = pick(doms, pos)
    if kind is F.Edge or kind is F.Leq:
        want = F.GRAPH if kind is F.Edge else F.POSET
        if ctx.signature != want:
            raise EvalError(f"{'edge' if want == F.GRAPH else '<='} atom evaluated "
                            f"on a {ctx.signature} structure")
        table = checker._slice(ctx, ctx.rel, args)
    elif kind is F.Eq:
        table = np.equal.outer(*[ctx.domains[d] for d in args or (0, 0)])
    elif kind is F.Label:
        if desc[1] not in ctx.labels:
            raise EvalError(f"undeclared label {desc[1]!r}")
        table = checker._slice(ctx, ctx.labels[desc[1]], args)
    else:  # a defined atom
        _, _, at, params, _ = desc
        table = lift(_ref_table(ctx, kids[0], pick(args, at)), at, params)
        table = np.broadcast_to(table, checker._shape(ctx, args, params))
    return np.einsum(table, list(pos), list(range(k))) if k < len(pos) else table


def _ref_domain(ctx, guards):
    d = ctx.guards.get(guards)
    if d is None:
        first, *rest = guards
        inside = _ref_table(ctx, first)
        for g in rest:
            inside = inside & _ref_table(ctx, g)
        elements = np.flatnonzero(inside)
        if len(elements) == ctx.n:
            d = 0
        else:
            d = ctx.domain_ids.setdefault(elements.tobytes(), len(ctx.domains))
            if d == len(ctx.domains):
                ctx.domains.append(elements)
                ctx.sizes.append(len(elements))
        ctx.guards[guards] = d
    return d


def _ref_quantify(ctx, key, doms, sizes):
    (kind, _, ax), (body,) = key.desc, key.kids
    if ctx.n == 0:
        return np.full(sizes, kind is F.Forall)
    if ax < 0:
        return _ref_table(ctx, body, doms)
    neg = kind is F.Forall
    k = len(sizes)
    out = None
    for guards, lits in _ref_branches([(body, tuple(range(k + 1)), neg)], ax, True):
        d = _ref_domain(ctx, frozenset(guards)) if guards else 0
        size = ctx.sizes[d]
        if lits and size:
            outer = doms or (0,) * k
            inner = outer[:ax] + (d,) + outer[ax:] if d or doms else ()
            part = _ref_exists(ctx, lits, ax, inner, sizes[:ax] + (size,) + sizes[ax:])
        else:
            part = np.full((1,) * k, size > 0)
        out = part if out is None else out | part
    if neg:
        out = ~out
    return out if out.shape == sizes else np.broadcast_to(out, sizes)


def _ref_branches(todo, ax, may_split):
    done, guards, at = [], {}, (ax,)
    while todo:
        lit = key, pos, neg = todo.pop()
        desc = key.desc
        kind, kids = desc[0], key.kids
        if kind is F.Not:
            todo.append((kids[0], pos, not neg))
            continue
        if kind is F.And or kind is F.Or or kind is F.Implies:
            left = (kids[0], pos[:kids[0].arity], neg != (kind is F.Implies))
            right = (kids[1], tuple([pos[i] for i in desc[3]]), neg)
            if (kind is F.And) != neg:
                todo += (left, right)
                continue
            whole = not todo and not done and not guards
            if whole or may_split and len(pos) >= 3 and ax in pos:
                rest = todo + done + [(g, at, False) for g in guards]
                return (_ref_branches(rest + [left], ax, whole and may_split)
                        + _ref_branches(rest + [right], ax, whole and may_split))
        if pos == at and not neg and (kind is F.Label or kind is F.Defined):
            guards[key] = None
        else:
            done.append(lit)
    return [(guards, done)]


def _ref_exists(ctx, lits, ax, doms, sizes):
    k = len(sizes) - 1
    pick, lift = checker._pick, checker._lift
    if math.prod(sizes) <= min(checker._SMALL_CELLS, checker.MAX_CELLS):
        found = None
        for key, pos, neg in lits:
            table = _ref_table(ctx, key, pick(doms, pos))
            table = lift(~table if neg else table, pos, k + 1)
            found = table if found is None else found & table
        return found.any(axis=ax)
    outside, groups = None, []
    for key, pos, neg in sorted(lits, key=lambda lit: len(lit[1]), reverse=True):
        table = _ref_table(ctx, key, pick(doms, pos))
        if neg:
            table = ~table
        mask = 0
        for b in pos:
            mask |= 1 << b
        if not mask >> ax & 1:
            table = lift(table, tuple([b - (b > ax) for b in pos]), k)
            outside = table if outside is None else outside & table
            continue
        for g in groups:
            if not mask & ~g[0]:
                g[2] = g[2] & lift(table, tuple(map(g[1].index, pos)), len(g[1]))
                break
        else:
            groups.append([mask, pos, table])
    if not groups:
        return outside
    found, axes = _ref_contract(ctx, groups, ax, sizes)
    found = lift(found, tuple([b - (b > ax) for b in axes]), k)
    return found if outside is None else found & outside


def _ref_contract(ctx, groups, ax, sizes):
    if len(groups) == 1:
        _, axes, table = groups[0]
        return table.any(axis=axes.index(ax)), tuple([b for b in axes if b != ax])
    if len(groups) == 2 and groups[0][0] & groups[1][0] == 1 << ax:
        (_, a_axes, a), (_, b_axes, b) = groups
        rest = tuple([x for x in a_axes if x != ax]) + tuple([x for x in b_axes if x != ax])
        checker._check(ctx, [sizes[x] for x in rest])
        a = np.moveaxis(a, a_axes.index(ax), -1).astype(np.float32)
        b = np.moveaxis(b, b_axes.index(ax), 0).astype(np.float32)
        return np.tensordot(a, b, 1) > 0, rest
    union = 0
    for g in groups:
        union |= g[0]
    rest = tuple([b for b in range(union.bit_length()) if union >> b & 1 and b != ax])
    checker._check(ctx, [sizes[b] for b in rest])
    args = []
    for _, axes, table in groups:
        args += (table.astype(np.float32), list(axes))
    return np.einsum(*args, list(rest), optimize=("greedy", checker.MAX_CELLS)) > 0, rest


# ---------------------------------------------------------------------------
# formula oracles: the walks that the facts stored on each node replace

def ref_nodes(f):
    """Every node of ``f`` in pre-order, and of the bodies of its defined atoms."""
    for node in F.walk(f):
        yield node
        if isinstance(node, F.Defined):
            yield from ref_nodes(node.body)


def ref_free_vars(f) -> frozenset:
    inner = frozenset().union(*map(ref_free_vars, f.children()))
    if isinstance(f, (F.Exists, F.Forall)):
        return inner - {f.var}
    return inner.union(f.variables())


def ref_quantifier_depth(f) -> int:
    if isinstance(f, F.Defined):
        return ref_quantifier_depth(f.body)
    return (isinstance(f, (F.Exists, F.Forall))
            + max(map(ref_quantifier_depth, f.children()), default=0))


def ref_formula_signature(f):
    kinds = {type(n) for n in ref_nodes(f)}
    if F.Edge in kinds and F.Leq in kinds:
        raise F.SignatureError("formula mixes edge and <= atoms")
    return F.GRAPH if F.Edge in kinds else F.POSET if F.Leq in kinds else None


def ref_label_names(f) -> frozenset:
    return frozenset(n.name for n in ref_nodes(f) if isinstance(n, F.Label))


def ref_repr(f) -> str:
    """``repr(f)`` by recursion over the fields."""
    fields = (f"{name}={ref_repr(value) if isinstance(value, F.Formula) else repr(value)}"
              for name, value in ((name, getattr(f, name)) for name in f._fields))
    return f"{type(f).__name__}({', '.join(fields)})"


def ref_key(f, keys: dict) -> tuple:
    """The key of ``f`` among ``keys`` (description -> small int, grown as
    needed) and the names of its free variables in first-occurrence order.

    The description is the node kind, the atom name or definition (a defined
    atom's body key, where each of the body's free variables sits among the
    parameters, and their number), the children's keys and where each
    child's free variables sit among the node's own (for a quantifier: where
    its variable sits among the child's)."""
    if isinstance(f, (F.And, F.Or, F.Implies)):
        lkey, lfree = ref_key(f.left, keys)
        rkey, rfree = ref_key(f.right, keys)
        free = lfree + tuple(v for v in rfree if v not in lfree)
        desc = (type(f), lkey, rkey, tuple(map(free.index, rfree)))
    elif isinstance(f, (F.Exists, F.Forall)):
        key, free = ref_key(f.sub, keys)
        ax = free.index(f.var.name) if f.var.name in free else -1
        free = free[:ax] + free[ax + 1:] if ax >= 0 else free
        desc = (type(f), key, ax)
    elif isinstance(f, F.Not):
        key, free = ref_key(f.sub, keys)
        desc = (F.Not, key)
    else:
        args = tuple(v.name for v in f.variables())
        free = tuple(dict.fromkeys(args))
        if isinstance(f, F.Defined):
            body, body_free = ref_key(f.body, keys)
            params = [v.name for v in f.params]
            name = (body, tuple(map(params.index, body_free)), len(params))
        else:
            name = f.name if isinstance(f, F.Label) else None
        desc = (type(f), name, tuple(map(free.index, args)))
    return keys.setdefault(desc, len(keys)), free


def path_sentence(k: int) -> str:
    """The text of "a path on k pairwise distinct vertices exists"."""
    vs = [f"x{i}" for i in range(1, k + 1)]
    body = ([f"edge({a},{b})" for a, b in zip(vs, vs[1:])]
            + [f"!({a}={b})" for i, a in enumerate(vs) for b in vs[i + 1:]])
    return "".join(f"exists {v}. " for v in vs) + "(" + " & ".join(body) + ")"


def max_clique(g: LabeledGraph) -> int:
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                return r
    return 0


def max_independent_set(g: LabeledGraph) -> int:
    return max_clique(g.complement()) if g.n else 0


def has_dominating_set(g: LabeledGraph, k: int) -> bool:
    for sub in itertools.combinations(range(g.n), min(k, g.n)):
        dominated = set(sub)
        for v in sub:
            dominated |= g.neighbors(v)
        if len(dominated) == g.n:
            return True
    return g.n == 0


def has_subgraph(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Not-necessarily-induced subgraph containment, brute force."""
    if h.n > g.n:
        return False
    for sub in itertools.permutations(range(g.n), h.n):
        if all(g.has_edge(sub[a], sub[b]) for a, b in h.edges):
            return True
    return False


def longest_nesting_chain(intervals) -> int:
    best = 0
    order = sorted(range(len(intervals)), key=lambda i: intervals[i].hi - intervals[i].lo)
    memo = [1] * len(intervals)
    for pos, i in enumerate(order):
        for j in order[:pos]:
            if strictly_contains(intervals[i], intervals[j]):
                memo[i] = max(memo[i], memo[j] + 1)
        best = max(best, memo[i])
    return best


def mirsky_partition(items) -> tuple[int, list[int]]:
    """``proper_partition`` by the O(n^2) Mirsky loop: outer intervals first."""
    order = sorted(range(len(items)), key=lambda i: items[i].hi - items[i].lo,
                   reverse=True)
    h = [1] * len(items)
    for pos, i in enumerate(order):
        for j in order[:pos]:
            if strictly_contains(items[j], items[i]):
                h[i] = max(h[i], h[j] + 1)
    return (max(h, default=0), h)


def longest_chain_dp(segments, crossing: bool) -> int:
    """Most pairwise crossing (or pairwise non-crossing) segments, by O(n^2)
    DP in (top, bottom) order, in which both relations are transitive.
    Segments that share an end do not cross."""
    order = sorted(segments, key=lambda s: (s.top, s.bottom))
    best = []
    for i, s in enumerate(order):
        best.append(1 + max([best[j] for j, r in enumerate(order[:i])
                             if ((r.top - s.top) * (r.bottom - s.bottom) < 0) == crossing],
                            default=0))
    return max(best, default=0)


def disk_endpoint_cmp(q4w2):
    """Comparator for symbolic chord endpoints (cx + s*w, s*delta, idx*tau).

    q4w2 is (2w)^2, shared by every chord on one midline since all disks
    have the same diameter.  Enlargement delta keeps tangencies as overlaps;
    the index term tau breaks exact coordinate ties without creating
    nestings.
    """

    def real_cmp(c1, s1, c2, s2) -> int:
        if s1 == s2:
            return (c1 > c2) - (c1 < c2)
        d = c1 - c2
        if s1 > s2:  # value difference d + 2w
            if d >= 0:
                return 1 if (d > 0 or q4w2 > 0) else 0
            return (d * d < q4w2) - (d * d > q4w2)
        if d <= 0:
            return -1 if (d < 0 or q4w2 > 0) else 0
        return (d * d > q4w2) - (d * d < q4w2)

    def cmp(e1, e2) -> int:
        c1, s1, i1 = e1
        c2, s2, i2 = e2
        r = real_cmp(c1, s1, c2, s2)
        if r:
            return r
        if s1 != s2:
            return -1 if s1 < s2 else 1
        return (i1 > i2) - (i1 < i2)

    return cmp


# independent exact visibility: Cramer-rule crossings + winding-number location

def _cross_params(p, q, a, b):
    dx1, dy1 = q[0] - p[0], q[1] - p[1]
    dx2, dy2 = b[0] - a[0], b[1] - a[1]
    den = dx1 * dy2 - dy1 * dx2
    if den == 0:
        ts = []
        for pt in (a, b):
            if (pt[0] - p[0]) * dy1 == (pt[1] - p[1]) * dx1:
                t = ((pt[0] - p[0]) * dx1 + (pt[1] - p[1]) * dy1) / (dx1 * dx1 + dy1 * dy1)
                if 0 <= t <= 1:
                    ts.append(t)
        for pt, t in ((p, Fr(0)), (q, Fr(1))):
            if (pt[0] - a[0]) * dy2 == (pt[1] - a[1]) * dx2:
                s = ((pt[0] - a[0]) * dx2 + (pt[1] - a[1]) * dy2) / (dx2 * dx2 + dy2 * dy2)
                if 0 <= s <= 1:
                    ts.append(t)
        return sorted(set(ts))
    t = ((a[0] - p[0]) * dy2 - (a[1] - p[1]) * dx2) / den
    s = ((a[0] - p[0]) * dy1 - (a[1] - p[1]) * dx1) / den
    if 0 <= t <= 1 and 0 <= s <= 1:
        return [t]
    return []


def _on_closed_segment(pt, a, b) -> bool:
    """pt = a + t(b - a) for some t in [0,1], by the dot products."""
    ux, uy = b[0] - a[0], b[1] - a[1]
    wx, wy = pt[0] - a[0], pt[1] - a[1]
    if ux * wy != uy * wx:
        return False
    dot = ux * wx + uy * wy
    return 0 <= dot <= ux * ux + uy * uy


def ref_polygon_simple(pts) -> bool:
    """The pairwise edge test: no two non-adjacent edges of the closed
    polygon ``pts`` (Fraction points) meet, by a proper crossing or by an
    end of one on the other."""
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 2:n - 1 if i == 0 else n]:
            if (any(0 < t < 1 for t in _cross_params(a, b, c, d))
                    or any(_on_closed_segment(x, c, d) for x in (a, b))
                    or any(_on_closed_segment(x, a, b) for x in (c, d))):
                return False
    return True


def _winding_inside(pt, poly: Polygon) -> bool:
    n = poly.n
    for i in range(n):
        a, b = edge_points(poly, i)
        if _on_closed_segment(pt, a, b):
            return True
    wind = 0
    for i in range(n):
        a, b = edge_points(poly, i)
        if a[1] <= pt[1]:
            if b[1] > pt[1]:
                if (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0]) > 0:
                    wind += 1
        else:
            if b[1] <= pt[1]:
                if (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0]) < 0:
                    wind -= 1
    return wind != 0


def oracle_segment_inside(poly: Polygon, p, q) -> bool:
    """The closed segment between the rational points p and q lies in the
    closed polygon: each open piece between its boundary meetings is
    entirely inside or entirely outside, so its midpoint decides."""
    params = {Fr(0), Fr(1)}
    for e in range(poly.n):
        a, b = edge_points(poly, e)
        for t in _cross_params(p, q, a, b):
            params.add(t)
    ordered = sorted(params)
    for t1, t2 in zip(ordered, ordered[1:]):
        tm = (t1 + t2) / 2
        mid = (p[0] + tm * (q[0] - p[0]), p[1] + tm * (q[1] - p[1]))
        if not _winding_inside(mid, poly):
            return False
    return True


def oracle_sees(poly: Polygon, i: int, j: int) -> bool:
    return oracle_segment_inside(poly, poly.vertices[i], poly.vertices[j])


def rand_grid_star(rng, lo=-4, hi=4):
    """Vertices on the integer grid, clockwise by angle around the origin.

    The grid makes sightlines that graze vertices and run along edges; the
    result may be rejected by ``Polygon`` (repeated or collinear vertices).
    """
    def ccw_order(p, q):
        upper_p = p[1] > 0 or (p[1] == 0 and p[0] > 0)
        upper_q = q[1] > 0 or (q[1] == 0 and q[0] > 0)
        if upper_p != upper_q:
            return -1 if upper_p else 1
        cross = p[0] * q[1] - p[1] * q[0]
        return -1 if cross > 0 else 1 if cross < 0 else 0

    grid = [(x, y) for x in range(lo, hi + 1) for y in range(lo, hi + 1) if (x, y) != (0, 0)]
    pts = sorted(rng.sample(grid, rng.randint(3, 10)), key=functools.cmp_to_key(ccw_order),
                 reverse=True)
    return tuple((Fr(x), Fr(y)) for x, y in pts)


# reference predicates: per object pair, on Fractions

def ref_intersects(cls: str, o1, o2) -> bool:
    if cls == "interval":
        return overlaps(o1, o2)
    if cls == "circular_arc":
        return arc_contains_point(o1, o2.start) or arc_contains_point(o1, o2.end) or \
            arc_contains_point(o2, o1.start)
    if cls == "circle":
        if len({o1.a, o1.b, o2.a, o2.b}) < 4:
            return False
        lo, hi = min(o1.a, o1.b), max(o1.a, o1.b)
        return (lo < o2.a < hi) != (lo < o2.b < hi)
    if cls == "permutation":
        return (o1.top - o2.top) * (o1.bottom - o2.bottom) < 0
    if cls == "box":
        return overlaps(o1.x, o2.x) and overlaps(o1.y, o2.y)
    if cls == "unit_disk":
        return (o1.cx - o2.cx) ** 2 + (o1.cy - o2.cy) ** 2 <= 1
    raise ValueError(cls)


def ref_intersection_edges(rep: Representation) -> frozenset:
    objs = rep.objects
    return frozenset((i, j) for i in range(len(objs)) for j in range(i + 1, len(objs))
                     if ref_intersects(rep.cls, objs[i], objs[j]))


def exhaustive_transversal(adj, x_parts, y_parts) -> bool:
    """The certificate's transversal condition over all m^(4k) choices."""
    pairs = [(a, b) for b in range(len(x_parts)) for a in range(b)]
    for xs in itertools.product(*x_parts):
        for ys in itertools.product(*y_parts):
            for a, b in pairs:
                if not adj[xs[b]][ys[a]] or adj[xs[a]][ys[b]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# poset oracles

def fixpoint_closure(n: int, pairs) -> set:
    """Transitive closure by repeating row unions until nothing changes."""
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for a in range(n):
            acc = rows[a]
            todo = acc
            while todo:
                b = (todo & -todo).bit_length() - 1
                todo &= todo - 1
                acc |= rows[b]
            if acc != rows[a]:
                rows[a] = acc
                changed = True
    return {(a, b) for a in range(n) for b in range(n) if rows[a] >> b & 1}


def validate_poset_scan(p):
    """``validate_poset`` by a full scan of the relation, one ``lt`` test at
    a time: an element below itself, else the first a < b in (a, b) order
    with b < a (antisymmetry) or with a least c such that b < c and not a < c
    (transitivity)."""
    lt, n = p.lt, p.n
    for a in range(n):
        if lt(a, a):
            return Violation("irreflexivity", (a,))
    for a in range(n):
        for b in range(n):
            if not lt(a, b):
                continue
            if lt(b, a):
                return Violation("antisymmetry", (a, b))
            for c in range(n):
                if lt(b, c) and not lt(a, c):
                    return Violation("transitivity", (a, b, c))
    return None


def brute_force_width(p) -> int:
    """Exhaustive maximum-antichain search (n small)."""
    comparable = [p.rows[a] for a in range(p.n)]
    below = [0] * p.n
    for a in range(p.n):
        todo = p.rows[a]
        while todo:
            b = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            below[b] |= 1 << a

    best = 0

    def rec(i: int, chosen: int, size: int):
        nonlocal best
        if size + (p.n - i) <= best:
            return
        if i == p.n:
            best = max(best, size)
            return
        if not (comparable[i] & chosen or below[i] & chosen):
            rec(i + 1, chosen | 1 << i, size + 1)
        rec(i + 1, chosen, size)

    rec(0, 0, 0)
    return best


# ---------------------------------------------------------------------------
# non-isomorphic graph enumeration (canonical form = min over permutations)

def nonisomorphic_graphs(n: int) -> list[LabeledGraph]:
    pairs = list(itertools.combinations(range(n), 2))
    nbits = len(pairs)
    pos = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << nbits, dtype=np.int64)
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        remapped = np.zeros_like(masks)
        for i, (a, b) in enumerate(pairs):
            tgt = pos[(min(perm[a], perm[b]), max(perm[a], perm[b]))]
            remapped |= ((masks >> i) & 1) << tgt
        np.minimum(canon, remapped, out=canon)
    reps = sorted(set(int(c) for c in canon))
    out = []
    for mask in reps:
        edges = {pairs[i] for i in range(nbits) if mask >> i & 1}
        out.append(LabeledGraph(n, edges))
    return out


def graphs_up_to(n: int) -> list[LabeledGraph]:
    out = []
    for m in range(1, n + 1):
        out.extend(nonisomorphic_graphs(m))
    return out


# ---------------------------------------------------------------------------
# reference interval-family and unit-disk builders on Fractions
#
# The builders as they were before they moved to integer endpoint ranks:
# every set, sort and comparison on the exact Fraction values.  The
# differential tests require the package's builds to equal these.

def ref_min_positive_gap(values, circular: bool):
    vals = sorted(set(values))
    if len(vals) < 2:
        raise GeometryError("all endpoints identical")
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    if circular:
        gaps.append((vals[0] - vals[-1]) % 1)
    return min(g for g in gaps if g > 0)


def ref_perturb_endpoints(rep: Representation) -> Representation:
    objs = list(rep.objects)
    n = len(objs)
    if n == 0:
        return rep
    if rep.cls == "interval":
        ends = [e for it in objs for e in (it.lo, it.hi)]
        if len(set(ends)) == len(ends):
            return rep
        eps = ref_min_positive_gap(ends, circular=False) / (4 * len(ends))
        out = Representation("interval", tuple(
            Interval(it.lo - (j + 1) * eps, it.hi + (j + 1) * eps)
            for j, it in enumerate(objs)))
    elif rep.cls == "circular_arc":
        ends = [e for a in objs for e in (a.start, a.end)]
        if len(set(ends)) == len(ends) and 0 not in ends:
            return rep
        eps = ref_min_positive_gap(ends + [Fr(0)], circular=True) / (4 * len(ends))
        out = Representation("circular_arc", tuple(
            Arc((a.start - (j + 1) * eps) % 1, (a.end + (j + 1) * eps) % 1)
            for j, a in enumerate(objs)))
    else:
        ends = [e for c in objs for e in (c.a, c.b)]
        if len(set(ends)) == len(ends) and 0 not in ends:
            return rep
        eps = ref_min_positive_gap(ends + [Fr(0)], circular=True) / (4 * len(ends))
        moved = [{} for _ in range(n)]
        by_value = {}
        for idx, c in enumerate(objs):
            by_value.setdefault(c.a, []).append((idx, c.b))
            by_value.setdefault(c.b, []).append((idx, c.a))
        for value, group in by_value.items():
            def sort_key(item):
                idx, far = item
                tie = idx if value < far else -idx
                return (-((far - value) % 1), tie)
            for t, (idx, far) in enumerate(sorted(group, key=sort_key), start=1):
                moved[idx][value] = (value + t * eps) % 1
        out = Representation("circle", tuple(
            Chord(moved[i][c.a], moved[i][c.b]) for i, c in enumerate(objs)))
    if ref_intersection_edges(out) != ref_intersection_edges(rep):
        raise GeometryError("perturbation changed the intersection graph")
    return out


def ref_proper_partition(items):
    ends = [e for it in items for e in (it.lo, it.hi)]
    if len(set(ends)) != len(ends):
        raise GeometryError("duplicate endpoints")
    by_value = sorted(range(len(ends)), key=ends.__getitem__)
    rank = [0] * len(ends)
    for r, e in enumerate(by_value):
        rank[e] = r
    order = [e // 2 for e in by_value if not e % 2]
    tails, h = [], [0] * len(items)
    for i in order:  # patience sort on decreasing right-end ranks
        key = -rank[2 * i + 1]
        d = next((t for t, tail in enumerate(tails) if tail >= key), len(tails))
        tails[d:d + 1] = [key]
        h[i] = d + 1
    return (max(h, default=0), h)


def ref_build_interval_poset(intervals, parts, labels=None):
    from geomfo.poset import PosetError, generated_poset

    ends = [e for it in intervals for e in (it.lo, it.hi)]
    if len(set(ends)) != len(ends):
        raise GeometryError("duplicate endpoints")
    endpoint_values = sorted(ends)
    d_id = {v: i for i, v in enumerate(endpoint_values)}
    nd = len(endpoint_values)
    interval_ids = [nd + i for i in range(len(intervals))]
    pairs = [(i, i + 1) for i in range(nd - 1)]
    for i, it in enumerate(intervals):
        pairs += [(d_id[it.lo], interval_ids[i]), (interval_ids[i], d_id[it.hi])]
    by_part = {}
    for i, pid in enumerate(parts):
        by_part.setdefault(pid, []).append(i)
    for pid, members in by_part.items():
        ordered = sorted(members, key=lambda i: intervals[i].lo)
        for a, b in zip(ordered, ordered[1:]):
            if strictly_contains(intervals[a], intervals[b]):
                raise PosetError(f"part {pid!r} is not proper: "
                                 f"interval {a} contains interval {b}")
            pairs.append((interval_ids[a], interval_ids[b]))
    names = [str(v) for v in endpoint_values] + [f"I{i}" for i in range(len(intervals))]
    all_labels = {"D": range(nd)}
    for name, members in (labels or {}).items():
        all_labels[name] = [interval_ids[i] for i in members]
    return (generated_poset(nd + len(intervals), pairs, all_labels, names),
            interval_ids, d_id)


def ref_unit_disk_poset(disks, k=None):
    """(poset, vertex_map, width_bound, provenance) of the unit-disk build,
    with every chord-end order decided by ``disk_endpoint_cmp`` on Fractions."""
    from geomfo.poset import generated_poset

    rows = sorted({d.cy for d in disks})
    ell = len(rows)
    k = ell if k is None else k
    row_of = {y: i for i, y in enumerate(rows)}
    n = len(disks)
    elems = [f"d{i}" for i in range(n)]
    labels = {f"B{i + 1}": set() for i in range(ell)}
    for i, d in enumerate(disks):
        labels[f"B{row_of[d.cy] + 1}"].add(i)
    order = sorted(range(n), key=lambda i: (disks[i].cx, i))
    pairs = list(zip(order, order[1:]))
    for ri in range(ell):
        for rj in range(ri, ell):
            dy = rows[rj] - rows[ri]
            if dy > 1:
                continue
            q4w2 = 1 - dy * dy
            along = [i for i in order if row_of[disks[i].cy] in (ri, rj)]
            dlabel = f"D_{ri + 1}_{rj + 1}"
            labels.setdefault(dlabel, set())
            end_elem = {}
            for i in sorted(along):
                for s in (-1, 1):
                    eid = len(elems)
                    elems.append(f"e{dlabel}[{i},{'R' if s > 0 else 'L'}]")
                    labels[dlabel].add(eid)
                    end_elem[(i, s)] = eid
            ends = sorted(((disks[i].cx, s, i) for i in along for s in (-1, 1)),
                          key=functools.cmp_to_key(disk_endpoint_cmp(q4w2)))
            chain = [end_elem[(i, s)] for _, s, i in ends]
            pairs += zip(chain, chain[1:])
            for i in along:
                pairs += [(end_elem[(i, -1)], i), (i, end_elem[(i, 1)])]
    poset = generated_poset(len(elems), pairs, labels, elems)
    return poset, list(range(n)), k * k + 1, {"class": "unit_disk", "k": k, "rows": ell}


def ref_interval_family_instance(cls: str, rep: Representation):
    """(poset, vertex_map, width_bound, provenance) of ``make_instance`` for
    the interval, circular-arc, circle and box classes, from the reference
    builders above."""
    if cls == "box":
        xs = list(ref_perturb_endpoints(
            Representation("interval", tuple(b.x for b in rep.objects))).objects)
        ys = sorted({(b.y.lo, b.y.hi) for b in rep.objects})
        kx, parts = ref_proper_partition(xs)
        lab_name = {t: f"L{i + 1}" for i, t in enumerate(ys)}
        members = {lab_name[t]: [] for t in ys}
        for i, b in enumerate(rep.objects):
            members[lab_name[(b.y.lo, b.y.hi)]].append(i)
        poset, ids, _ = ref_build_interval_poset(xs, parts, members)
        ell = len(ys)
        return poset, ids, kx + 1, {"class": "box", "k": max(kx, ell), "kx": kx, "ell": ell}
    objs = ref_perturb_endpoints(rep).objects
    if cls == "interval":
        k, parts = ref_proper_partition(objs)
        poset, ids, _ = ref_build_interval_poset(objs, parts)
        return poset, ids, k + 1, {"class": "interval", "k": k}
    if cls == "circle":
        flat = [Interval(min(c.a, c.b), max(c.a, c.b)) for c in objs]
        k, parts = ref_proper_partition(flat)
        poset, ids, _ = ref_build_interval_poset(flat, parts)
        return poset, ids, k + 1, {"class": "circle", "k": k}
    red = {i for i, a in enumerate(objs) if a.wraps()}
    flat = [Interval(a.end, a.start) if i in red else Interval(a.start, a.end)
            for i, a in enumerate(objs)]
    k_plain, _ = ref_proper_partition([f for i, f in enumerate(flat) if i not in red])
    k_red, _ = ref_proper_partition([f for i, f in enumerate(flat) if i in red])
    k_b, parts = ref_proper_partition(flat)
    poset, ids, _ = ref_build_interval_poset(flat, parts, {"red": red})
    k = max(k_plain, k_red)
    return poset, ids, 2 * k + 1, {"class": "circular_arc", "k": k, "k_flat": k_b}


def poset_digest(p) -> str:
    """sha256 of (n, rows, labels, names): equal iff the posets are identical.
    The rows enter as a list, so a digest does not depend on their container."""
    labels = sorted((name, sorted(vs)) for name, vs in p.labels.items())
    return hashlib.sha256(repr((p.n, list(p.rows), labels, p.names)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# graph and family oracles

class RefGraph:
    """Labelled graph on a frozenset of edge tuples, filled edge by edge: the
    oracle for ``LabeledGraph``'s bit rows."""

    def __init__(self, n, edges=(), labels=None):
        self.n = n
        es = set()
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise GeometryError(f"bad edge ({u},{v})")
            es.add((min(u, v), max(u, v)))
        self.edges = frozenset(es)
        self.labels = {name: frozenset(vs) for name, vs in (labels or {}).items()}

    def has_edge(self, u, v):
        return u != v and (min(u, v), max(u, v)) in self.edges

    def adjacency_rows(self):
        rows = [bytearray(self.n) for _ in range(self.n)]
        for u, v in self.edges:
            rows[u][v] = rows[v][u] = 1
        return rows

    def neighbors(self, v):
        return {b if a == v else a for a, b in self.edges if v in (a, b)}

    def complement(self):
        es = {(i, j) for i in range(self.n) for j in range(i + 1, self.n)
              if (i, j) not in self.edges}
        return RefGraph(self.n, es, self.labels)

    def induced(self, vertices):
        idx = {v: i for i, v in enumerate(vertices)}
        es = {(idx[u], idx[v]) for u, v in self.edges if u in idx and v in idx}
        labs = {name: frozenset(idx[v] for v in vs if v in idx)
                for name, vs in self.labels.items()}
        return RefGraph(len(vertices), es, labs)

    def __eq__(self, other):
        return (self.n, self.edges, self.labels) == (other.n, other.edges, other.labels)

    def __hash__(self):
        return hash((self.n, self.edges, tuple(sorted(self.labels.items()))))


def ref_cliquewidth_family(cls: str, k: int) -> Representation:
    """The clique-width family's representation computed in ``Fraction``s."""
    r, m = 6 * k, 36 * k + 1
    if cls in ("circular_arc", "circle"):
        delta = Fr(1, 100 * k)
        eps = delta / (2 * m)
        theta = eps / (2 * r)
        a = Fr(1, 3) + delta
        starts = [((t - 1) * (a + theta) + j * eps) % 1
                  for t in range(1, r + 1) for j in range(m)]
        ends = [(s + a) % 1 for s in starts]
        assert len(set(starts + ends)) == 2 * len(starts)
        make = Arc if cls == "circular_arc" else Chord
        return Representation(cls, tuple(make(s, e) for s, e in zip(starts, ends)))
    if cls == "unit_box":
        delta = Fr(1, 100 * k)
        eps = delta / (2 * m)
        prefixes = [(Fr(0), Fr(0)), (Fr(1), delta), (Fr(1, 2), 1 + delta)]
        boxes = []
        for t in range(r):
            triple, pos = divmod(t, 3)
            bx = prefixes[pos][0] + triple * delta
            by = prefixes[pos][1] + triple * delta
            for j in range(m):
                boxes.append(Box(Interval(bx + j * eps, bx + j * eps + 1),
                                 Interval(by + j * eps, by + j * eps + 1)))
        return Representation("box", tuple(boxes))
    t1 = (Fr(-144, 145), Fr(17, 145))
    t2 = (Fr(5, 13), Fr(-12, 13))
    t3 = (Fr(3, 5), Fr(4, 5))
    v = (t1[0] + t2[0] + t3[0], t1[1] + t2[1] + t3[1])
    prefixes = [(Fr(0), Fr(0)), t1, (t1[0] + t2[0], t1[1] + t2[1])]
    eps = Fr(1, 40000 * k * m)
    disks = []
    for t in range(r):
        triple, pos = divmod(t, 3)
        bx = prefixes[pos][0] + triple * v[0]
        by = prefixes[pos][1] + triple * v[1]
        for j in range(m):
            disks.append(Disk(bx + j * eps, by + j * eps))
    return Representation("unit_disk", tuple(disks))
