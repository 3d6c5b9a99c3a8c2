"""Exhaustive FO evaluation and the graph/poset agreement pipeline.

Evaluation is Tarskian semantics done with boolean tensors: a subformula
with free variables v1..vk has a truth table with one axis per variable,
atoms are adjacency or order matrices and connectives are elementwise ops.
Each axis ranges over a domain, an ascending array of elements; a table is
cached per key and tuple of domain ids, where id 0 is all n elements.  A
quantifier is a contraction (Yannakakis, VLDB 1981; Abo Khamis, Ngo and
Rudra, PODS 2016): ``forall v`` is read as ``!exists v !``, the body is split into conjuncts
through ``!``, ``&`` and negated ``|`` and ``->``, conjuncts without v are
ANDed outside, and the rest are joined and projected on v without building
the body's table.  A disjunction is split instead when it is the whole
body, or once per conjunction when it has three or more axes, as inside
the interval ``psi``, which thereby costs two matrix products.  So the cost
is set by the largest table a plan touches, not a flat n^O(|phi|).

A quantified variable ranges over its guards (the FAQ view of unary
factors): a guard is a positive unary ``Label`` or ``Defined`` atom on the
quantified variable among the conjuncts of a branch, as ``nu(v)`` from the
rewrite or ``D(z)`` in the interval ``psi``.  The branch's variable ranges
over the elements where all its guards hold, and the guards leave the
conjunction, which then holds on that domain; an empty conjunction is the
test that the domain is non-empty.  Domains pass down to the children by
position, an atom reads its matrix along them and a defined atom reads its
body's table over its parameters' domains, so the rewritten ``psi`` is a
|nu| x |nu| table whose ``z`` ranges over ``D``.

Subformulas equal up to renaming share one table per structure: tables
are cached under the key each formula node carries from its construction
(``formula.Key``, hashing modulo alpha-equivalence, Maziarz et al., PLDI
2021), and a node's free variables in first-occurrence order are its
table's axes.  How a table is made from others depends only on its key.
A connective's or an atom's key already holds it: its children's keys
and where their axes sit among its own.  A quantifier's plan is compiled
from its key once, on first use, into the key's ``plan`` slot, so it lives
as long as the key and serves every structure: the body's branches, each
with its guards as one set and its other literals, and for each branch,
on its first use of either, the lifts that broadcast its literals and the
grouping, lifts and join that contract them.  Tables are filled by one
loop over an explicit stack of (key, domains) demands: a step reads its
children's tables from the cache, or pushes the demands it lacks and runs
again once they are filled, so no formula depth reaches Python's recursion
limit, and tables are filled in the order a recursive evaluation would
fill them.  What depends on the structure is decided when a step runs:
the domains, broadcast or contraction, the cache and every budget check.

Every table and every contraction is checked against ``MAX_CELLS`` (the
product of its axes' domain sizes) before it is allocated, and einsum
plans its path under that limit; the n x n relation matrix a structure is
read through (adjacency, or the reflexive order) is checked against
``MAX_RELATION_CELLS`` before it is built; going over either raises
``EvalError``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import GeomfoError, formula as F
from .geometry import (ALL_CLASSES, GeometryError, LabeledGraph, Representation,
                       _single_polygon, bit_matrix, build_intersection_graph,
                       visibility_graph)
from .poset import LabeledPoset

Structure = Union[LabeledGraph, LabeledPoset]

# The most cells one table or contraction intermediate may have.  Counts in a
# contraction are float32, exact up to 2^24: a count is at most n, and a
# contracted group has two axes, so n^2 <= MAX_CELLS < 2^48 keeps n below it.
MAX_CELLS = 1 << 26
# The most cells of a structure's n x n relation matrix, one byte each: 256 MiB,
# so structures of up to 16,384 elements.
MAX_RELATION_CELLS = 1 << 28
# A quantifier whose body has at most this many cells is a broadcast & and any
# of its conjuncts: below it numpy call overhead, not arithmetic, sets the cost.
_SMALL_CELLS = 1 << 15


class EvalError(GeomfoError):
    pass


class AgreementError(GeomfoError):
    """The graph verdict and the poset verdict disagree: internal inconsistency."""


class _Context:
    def __init__(self, structure: Structure):
        if not isinstance(structure, (LabeledGraph, LabeledPoset)):
            raise EvalError(f"cannot evaluate over {type(structure).__name__}")
        # weak, so no cycle keeps a dropped structure's tables alive until a full collection
        self.structure = weakref.ref(structure)
        n = self.n = structure.n
        if n * n > MAX_RELATION_CELLS:
            raise EvalError(f"the relation matrix on n={n} elements has {n * n} cells, "
                            f"over the budget of {MAX_RELATION_CELLS}")
        if isinstance(structure, LabeledGraph):
            self.signature, self.rel = F.GRAPH, structure.adjacency_matrix()
        else:  # <= is the reflexive closure of the strict order
            self.signature = F.POSET
            self.rel = bit_matrix(n, structure.rows)
            np.fill_diagonal(self.rel, True)
        self.labels = {}
        for name, vs in structure.labels.items():
            self.labels[name] = inside = np.zeros(n, dtype=bool)
            inside[list(vs)] = True
        self.tables: dict[Union[F.Key, tuple], np.ndarray] = {}  # key or (key, *doms) -> table
        self.domains: list[np.ndarray] = [np.arange(n)]  # domain id -> its elements, ascending
        self.sizes: list[int] = [n]  # domain id -> its number of elements
        self.domain_ids: dict[bytes, int] = {}  # a domain's elements -> its id
        self.guards: dict[tuple[F.Key, ...], int] = {}  # guard keys -> where they all hold


def _context(structure: Structure) -> _Context:
    ctx = getattr(structure, "_eval_context", None)
    if ctx is None or ctx.structure() is not structure:
        ctx = structure._eval_context = _Context(structure)
    return ctx


def _lifter(pos: tuple[int, ...], k: int) -> Optional[tuple]:
    """How ``_put`` makes a table a k-axis array whose axis ``pos[i]`` is its
    axis i, the other axes of length 1: None when that is the table itself."""
    if pos == tuple(range(k)):
        return None
    return tuple(sorted(range(len(pos)), key=pos.__getitem__)), pos, k


def _put(arr: np.ndarray, lift: Optional[tuple]) -> np.ndarray:
    if lift is None:
        return arr
    order, pos, k = lift
    shape = [1] * k
    for i, p in enumerate(pos):
        shape[p] = arr.shape[i]
    return arr.transpose(order).reshape(shape)


def _lift(arr: np.ndarray, pos: tuple[int, ...], k: int) -> np.ndarray:
    """``arr`` as a k-axis array whose axis ``pos[i]`` is its axis i; the
    other axes have length 1."""
    return _put(arr, _lifter(pos, k))


def _check(ctx: _Context, sizes: Sequence[int]) -> None:
    """Raise EvalError unless an array with axes of ``sizes`` fits MAX_CELLS."""
    cells = math.prod(sizes)
    if cells > MAX_CELLS:
        raise EvalError(f"a table of arity {len(sizes)} on n={ctx.n} elements, with axes of "
                        f"{'x'.join(map(str, sizes))}, has {cells} cells, over the budget "
                        f"of {MAX_CELLS}")


# ``doms`` holds the domain id of each axis of a table, at least one of them
# not 0, or is empty when every axis spans all n elements; so a table over the
# whole structure is cached under its key alone.

def _pick(doms: tuple[int, ...], pos: Sequence[int]) -> tuple[int, ...]:
    """The domains ``doms[p]`` for p in ``pos``, in the form above."""
    picked = tuple([doms[p] for p in pos]) if doms else ()
    return picked if any(picked) else ()


def _shape(ctx: _Context, doms: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The axis lengths of a k-axis table over ``doms``."""
    return tuple([ctx.sizes[d] for d in doms]) if doms else (ctx.n,) * k


def _table(ctx: _Context, key: F.Key, doms: tuple[int, ...] = ()) -> np.ndarray:
    """The table of ``key`` over the domains ``doms``, filled on first use."""
    at = (key, *doms) if doms else key
    table = ctx.tables.get(at)
    return _run(ctx, key, doms, at) if table is None else table


# A demand is (key, doms, at): the table of ``key`` over ``doms``, cached
# under ``at``.  The step of a key's kind is called with the context, the key
# and the demand's domains; it returns the table, or the demands it waits
# for as a list, the first needed last.

def _run(ctx: _Context, key: F.Key, doms: tuple[int, ...], at) -> np.ndarray:
    """Fill the table of ``key`` over ``doms``, and first every table it
    needs that is not cached, in the order a recursive evaluation would."""
    tables, root = ctx.tables, at
    todo = [(key, doms, at)]
    paused: dict = {}  # at -> the state of a quantifier that waits
    while todo:
        key, doms, at = todo[-1]
        if at in tables:  # demanded twice
            todo.pop()
            continue
        if ctx.n ** key.arity > MAX_CELLS:  # no domain has more than n elements
            _check(ctx, _shape(ctx, doms, key.arity))
        step = _STEPS[key.desc[0]]
        out = (step(ctx, key, doms) if step is not _quantify
               else _quantify(ctx, key, doms, at, paused))
        if out.__class__ is list:
            todo += out
        else:
            tables[at] = out
            todo.pop()
    return tables[root]


def _leaf(ctx: _Context, key: F.Key, doms: tuple[int, ...], at) -> Optional[np.ndarray]:
    """The table of an atom without children, filled and cached now as
    ``_run`` would fill it; None for any other key.  A step fills a missing
    child so while no child before it waits: that keeps the order of a
    recursive evaluation, and saves the child and its parent a turn of the
    loop each."""
    if key.desc[0] not in _LEAVES:
        return None
    if ctx.n ** key.arity > MAX_CELLS:
        _check(ctx, _shape(ctx, doms, key.arity))
    table = ctx.tables[at] = _atom(ctx, key, doms)
    return table


def _negate(ctx: _Context, key: F.Key, doms: tuple[int, ...]) -> object:
    kid = key.kids[0]
    at = (kid, *doms) if doms else kid
    table = ctx.tables.get(at)
    return [(kid, doms, at)] if table is None else ~table


def _connect(ctx: _Context, key: F.Key, doms: tuple[int, ...]) -> object:
    """A binary connective: its left child's axes come first, in order, and
    ``desc[3]`` places its right child's."""
    desc, (left, right) = key.desc, key.kids
    ka, rpos = left.arity, desc[3]
    if doms:
        ldoms, rdoms = doms[:ka], _pick(doms, rpos)
        if not any(ldoms):
            ldoms = ()
        lat = (left, *ldoms) if ldoms else left
        rat = (right, *rdoms) if rdoms else right
    else:
        ldoms = rdoms = ()
        lat, rat = left, right
    la, ra = ctx.tables.get(lat), ctx.tables.get(rat)
    if la is None:
        la = _leaf(ctx, left, ldoms, lat)
    if ra is None and la is not None:
        ra = _leaf(ctx, right, rdoms, rat)
    if la is None or ra is None:
        wait = [] if ra is not None else [(right, rdoms, rat)]
        if la is None:
            wait.append((left, ldoms, lat))
        return wait
    k = key.arity
    if ka < k:
        la = la.reshape(la.shape + (1,) * (k - ka))
    ra = _lift(ra, rpos, k)
    kind = desc[0]
    if kind is F.And:
        return la & ra
    return la | ra if kind is F.Or else ~la | ra


def _atom(ctx: _Context, key: F.Key, doms: tuple[int, ...]) -> object:
    desc, k = key.desc, key.arity
    # the table is over distinct variables; repeated ones read a diagonal
    kind, pos = desc[0], desc[-1]
    args = _pick(doms, pos)  # the domain of each argument
    if kind is F.Edge or kind is F.Leq:
        want = F.GRAPH if kind is F.Edge else F.POSET
        if ctx.signature != want:
            raise EvalError(f"{'edge' if want == F.GRAPH else '<='} atom evaluated "
                            f"on a {ctx.signature} structure")
        table = _slice(ctx, ctx.rel, args)
    elif kind is F.Eq:
        table = np.equal.outer(*[ctx.domains[d] for d in args or (0, 0)])
    elif kind is F.Label:
        if desc[1] not in ctx.labels:
            raise EvalError(f"undeclared label {desc[1]!r}")
        table = _slice(ctx, ctx.labels[desc[1]], args)
    else:  # a defined atom: its body's table over its parameters' domains
        _, _, at, params, _ = desc
        body = key.kids[0]
        inner = _pick(args, at)
        body_at = (body, *inner) if inner else body
        table = ctx.tables.get(body_at)
        if table is None:
            return [(body, inner, body_at)]
        table, shape = _lift(table, at, params), _shape(ctx, args, params)
        if table.shape != shape:  # a parameter the body does not mention
            table = np.broadcast_to(table, shape)
    return np.einsum(table, list(pos), list(range(k))) if k < len(pos) else table


def _slice(ctx: _Context, table: np.ndarray, doms: tuple[int, ...]) -> np.ndarray:
    """``table``, whose axes span all n elements, read along the domains ``doms``."""
    for i, d in enumerate(doms):
        if d:
            table = table.take(ctx.domains[d], axis=i)
    return table


def _domain(ctx: _Context, guards: tuple[F.Key, ...]) -> int:
    """The id of the domain of the elements where every unary key of
    ``guards`` holds, whose tables are cached; the same elements always get
    the same id."""
    first, *rest = guards
    inside = ctx.tables[first]
    for g in rest:
        inside = inside & ctx.tables[g]
    elements = inside.nonzero()[0]  # guard tables have one axis
    if len(elements) == ctx.n:
        d = 0
    else:
        d = ctx.domain_ids.setdefault(elements.tobytes(), len(ctx.domains))
        if d == len(ctx.domains):
            ctx.domains.append(elements)
            ctx.sizes.append(len(elements))
    ctx.guards[guards] = d
    return d


# A literal is (key, pos, neg): the table of ``key`` with its axis i on the
# quantifier body's axis pos[i], negated when ``neg``.  A branch is [guard
# keys or None, literals, broadcast form, contraction form]; each form is
# made on the branch's first use of it (``_exists``).

def _branches(body: F.Key, k: int, ax: int, neg: bool) -> tuple[list, ...]:
    """The body of a k-ary quantifier on body axis ``ax``, negated when
    ``neg``, as a disjunction of conjunctions of literals that are no
    conjunction, each as a branch with neither form made yet.

    A disjunction is split when it is the whole conjunction, or when it
    mentions the quantified axis ``ax`` with three or more axes and no
    disjunction beside other conjuncts was split on the way here, so the
    number of branches stays linear in the formula.
    """
    at, branches = (ax,), []
    work = [([(body, tuple(range(k + 1)), neg)], True)]  # (literals, may_split), next last
    while work:
        todo, may_split = work.pop()
        done: list = []
        guards: dict[F.Key, None] = {}  # a set in insertion order, so plans are deterministic
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
                    work += ((rest + [right], whole and may_split),
                             (rest + [left], whole and may_split))
                    break
            if pos == at and not neg and (kind is F.Label or kind is F.Defined):
                guards[key] = None  # a positive unary atom on ax
            else:
                done.append(lit)
        else:
            # the guards in a set's order, kept as a tuple: a frozenset takes 216 bytes
            branches.append([tuple(frozenset(guards)) if guards else None, tuple(done),
                             None, None])
    return tuple(branches)


def _quantify(ctx: _Context, key: F.Key, doms: tuple[int, ...], at, paused: dict) -> object:
    """A quantifier's table, made branch by branch.  While a branch waits
    for tables, ``paused[at]`` holds its index, the OR of the branches
    before it, and where its literal tables will be cached, if it knows."""
    (kind, _, ax), (body,) = key.desc, key.kids
    forall, k = kind is F.Forall, key.arity
    sizes = _shape(ctx, doms, k)
    if ctx.n == 0:  # over the empty domain, exists is false and forall true
        return np.full(sizes, forall)
    tables = ctx.tables
    if ax < 0:  # the quantified variable does not occur
        body_at = (body, *doms) if doms else body
        table = tables.get(body_at)
        return [(body, doms, body_at)] if table is None else table
    branches = key.plan
    if branches is None:  # the key's plan, compiled on its first use
        branches = key.plan = _branches(body, k, ax, forall)
    i, out, ats = paused.pop(at, None) or (0, None, None)
    while i < len(branches):
        branch = branches[i]
        guards, lits = branch[0], branch[1]
        d = 0
        if guards is not None:
            d = ctx.guards.get(guards)
            if d is None:
                wait = [(g, (), g) for g in guards if g not in tables]
                if wait:
                    wait.reverse()
                    paused[at] = i, out, None
                    return wait
                d = _domain(ctx, guards)
        size = ctx.sizes[d]
        if lits and size:
            body_sizes = sizes[:ax] + (size,) + sizes[ax:]
            small = math.prod(body_sizes) <= min(_SMALL_CELLS, MAX_CELLS)
            if not small:
                lits = (branch[3] or _group(branch, ax, k))[0]
            if ats is None:  # the literals' tables over the body's domains
                outer = doms or (0,) * k
                inner = outer[:ax] + (d,) + outer[ax:] if d or doms else ()
                ats, got, wait = [], [], None
                for lit, pos, _ in lits:
                    sub = _pick(inner, pos) if inner else ()
                    lat = (lit, *sub) if sub else lit
                    table = tables.get(lat)
                    if table is None and wait is None:
                        table = _leaf(ctx, lit, sub, lat)
                    if table is None:
                        if wait is None:
                            wait = []
                        wait.append((lit, sub, lat))
                    ats.append(lat)
                    got.append(table)
                if wait is not None:
                    wait.reverse()
                    paused[at] = i, out, ats
                    return wait
            else:
                got = [tables[lat] for lat in ats]
            part = _exists(ctx, branch, ax, lits, got, body_sizes, small)
            ats = None
        else:  # a conjunction of guards holds on its domain if that has an element
            part = np.full((1,) * k, size > 0)
        out = part if out is None else out | part
        i += 1
    if forall:  # forall v. phi == !exists v. !phi
        out = ~out
    # a branch need not mention every axis
    return out if out.shape == sizes else np.broadcast_to(out, sizes)


def _exists(ctx: _Context, branch: list, ax: int, lits: tuple, tables: list,
            sizes: tuple[int, ...], small: bool) -> np.ndarray:
    """exists ax over the conjunction of the branch's literals ``lits``,
    whose tables are ``tables``, in the order of its broadcast form if
    ``small`` and of its contraction form if not; the body has ``sizes[i]``
    elements on axis i (none empty), and the result has the body axes after
    ``ax`` shifted down by one; axes no literal mentions have length 1."""
    k = len(sizes) - 1
    if small:
        lifts = branch[2]
        if lifts is None:  # each literal's lift onto the body axes
            lifts = branch[2] = tuple([_lifter(pos, k + 1) for _, pos, _ in lits])
        found = None
        for (_, _, neg), lift, table in zip(lits, lifts, tables):
            table = _put(~table if neg else table, lift)
            found = table if found is None else found & table
        return np.logical_or.reduce(found, axis=ax)
    form = branch[3]
    into, groups, rest = form[1], form[2], form[4]
    outside, joined = None, [None] * len(groups)  # the conjuncts without ax; each group's AND
    for (_, _, neg), (g, lift), table in zip(lits, into, tables):
        table = _put(~table if neg else table, lift)
        if g < 0:
            outside = table if outside is None else outside & table
        else:
            joined[g] = table if joined[g] is None else joined[g] & table
    if not groups:
        return outside
    if len(groups) == 1:
        found = np.logical_or.reduce(joined[0], axis=form[3])
    else:
        _check(ctx, [sizes[b] for b in rest])
        found = _contract(form, joined)
    found = _put(found, form[5])
    return found if outside is None else found & outside


def _group(branch: list, ax: int, k: int) -> tuple:
    """A branch's contraction form, filed in its last slot: its literals,
    longest first; for each, the group it joins (-1 when it lacks ax, so it
    is ANDed outside) and the lift into that group's axes (or the k result
    axes); each group's axis mask and axes; how the groups are joined (see
    ``_contract``; for one group, the position of ax in it); the body axes
    the join keeps, and their lift onto the result's.  A literal joins the
    first group whose axes hold its own, and costs no cells there.  Its
    tuples are built from lists; the comment above ``geometry._scaled``
    says why."""
    lits = sorted(branch[1], key=lambda lit: len(lit[1]), reverse=True)
    into, groups, union = [], [], 0
    for _, pos, _ in lits:
        mask = 0
        for b in pos:
            mask |= 1 << b
        if not mask >> ax & 1:
            into.append((-1, _lifter(tuple([b - (b > ax) for b in pos]), k)))
            continue
        for g, (group, axes) in enumerate(groups):
            if not mask & ~group:
                into.append((g, _lifter(tuple(map(axes.index, pos)), len(axes))))
                break
        else:
            into.append((len(groups), None))
            groups.append((mask, pos))
            union |= mask
    if len(groups) == 1:
        axes = groups[0][1]
        how, rest = axes.index(ax), tuple([b for b in axes if b != ax])
    elif len(groups) == 2 and groups[0][0] & groups[1][0] == 1 << ax:
        (_, a), (_, b) = groups
        i, j = a.index(ax), b.index(ax)
        how = (tuple([x for x in range(len(a)) if x != i] + [i]),  # ax last in a
               tuple([j] + [x for x in range(len(b)) if x != j]))  # ax first in b
        rest = tuple([x for x in a if x != ax] + [x for x in b if x != ax])
    else:
        how = None
        rest = tuple([b for b in range(union.bit_length()) if union >> b & 1 and b != ax])
    lift = _lifter(tuple([b - (b > ax) for b in rest]), k)
    form = branch[3] = (tuple(lits), tuple(into), tuple(groups), how, rest, lift)
    return form


def _contract(form: tuple, tables: list) -> np.ndarray:
    """exists ax over the AND of the tables of a contraction form's two or
    more groups, with the axes the form keeps.  Two groups that share only
    ax are one matrix product; more are a greedy einsum, whose path makes
    no intermediate with more cells than its limit."""
    groups, how, rest = form[2], form[3], form[4]
    if how is not None:
        a = tables[0].transpose(how[0]).astype(np.float32, order="C")
        b = tables[1].transpose(how[1]).astype(np.float32, order="C")
        m = b.shape[0]
        found = np.dot(a.reshape(-1, m), b.reshape(m, -1)) > 0
        return found.reshape(a.shape[:-1] + b.shape[1:])
    args = []
    for (_, axes), table in zip(groups, tables):
        args += (table.astype(np.float32), list(axes))
    return np.einsum(*args, list(rest), optimize=("greedy", MAX_CELLS)) > 0


_LEAVES = frozenset({F.Edge, F.Leq, F.Eq, F.Label})  # atoms without children
_STEPS = {F.Not: _negate, F.And: _connect, F.Or: _connect, F.Implies: _connect,
          F.Exists: _quantify, F.Forall: _quantify, F.Edge: _atom, F.Leq: _atom,
          F.Eq: _atom, F.Label: _atom, F.Defined: _atom}


def _axes(phi: F.Formula, axes: Sequence[F.Var]) -> None:
    """Raise EvalError unless ``axes`` are distinct and hold every free
    variable of ``phi``."""
    if not isinstance(phi, F.Formula):
        raise EvalError(f"not a formula: {phi!r}")
    if len(set(axes)) != len(axes):
        raise EvalError(f"repeated table axes: {[v.name for v in axes]}")
    missing = [v.name for v in phi.free if v not in axes]
    if missing:
        raise EvalError(f"unbound variables: {sorted(missing)}")


def truth_table(structure: Structure, phi: F.Formula,
                axes: Sequence[F.Var]) -> np.ndarray:
    """The table of ``phi`` with one axis per variable of ``axes``, in order.

    Every free variable of ``phi`` must appear in ``axes``; the table is
    constant along the axes of variables that are not free.  The result is a
    read-only view of the structure's cache.
    """
    ctx = _context(structure)
    axes = tuple(axes)
    _axes(phi, axes)
    return np.broadcast_to(_lift(_table(ctx, phi.key), tuple(map(axes.index, phi.free)),
                                 len(axes)), (ctx.n,) * len(axes))


def eval_structure(structure: Structure, phi: F.Formula,
                   assignment: Optional[dict[F.Var, int]] = None) -> bool:
    """Standard semantics; free variables must be covered by the assignment."""
    ctx = _context(structure)
    if not assignment and isinstance(phi, F.Formula) and not phi.free:  # a sentence
        key = phi.key
        table = ctx.tables.get(key)
        return bool(_run(ctx, key, (), key) if table is None else table)
    values = assignment or {}
    for v, e in values.items():
        if not 0 <= e < ctx.n:
            raise EvalError(f"assignment {v.name} -> {e} outside the domain")
    _axes(phi, tuple(values))
    return bool(_table(ctx, phi.key)[tuple(map(values.__getitem__, phi.free))])


@dataclass
class ModelCheckResult:
    graph_verdict: bool
    poset_verdict: bool
    instance: "InterpretationInstance"  # noqa: F821
    graph: LabeledGraph
    rewritten: F.Formula


def build_graph(cls: str, rep: Representation) -> LabeledGraph:
    if cls == "visibility":
        return visibility_graph(_single_polygon(rep))
    return build_intersection_graph(cls, rep)


def model_check(cls: str, rep: Representation, phi: F.Formula) -> ModelCheckResult:
    """Evaluate a graph sentence directly and through the poset interpretation.

    The two verdicts must agree; a mismatch raises AgreementError rather
    than being resolved silently.
    """
    return _model_checker(cls, rep)(phi)


def _model_checker(cls: str, rep: Representation):
    """``model_check`` on one representation, as a function of the sentence:
    it builds the graph and the poset instance on the first call whose
    sentence passes the checks, and reuses them on every later call.  Both
    structures' evaluation contexts are made right after the build, so an
    instance over a relation budget is refused before either side is
    evaluated."""
    from .interpret import _build

    if cls not in ALL_CLASSES:
        raise GeometryError(f"unknown class {cls!r}")
    built: list = []

    def check(phi: F.Formula) -> ModelCheckResult:
        if phi.free:
            raise EvalError("model checking needs a sentence")
        F.check_signature(phi, F.GRAPH)
        if not built:
            g, inst = _build(cls, rep)
            _context(g)
            _context(inst.poset)
            built[:] = g, inst
        return _decide(cls, rep, *built, phi)

    return check


def _decide(cls: str, rep: Representation, g: LabeledGraph,
            inst: "InterpretationInstance", phi: F.Formula) -> ModelCheckResult:  # noqa: F821
    """``model_check`` of a checked sentence on the graph and instance built
    from ``rep``: evaluate it on the graph, and rewritten on the poset."""
    phi_eff = F.complement_edges(phi) if inst.complemented else phi
    phi_i = F.rewrite_under_interpretation(phi_eff, inst.interp)
    gv = eval_structure(g, phi)
    pv = eval_structure(inst.poset, phi_i)
    if gv != pv:
        raise AgreementError(
            f"graph verdict {gv} != poset verdict {pv} for class {cls} "
            f"on {len(rep.objects)} objects: {F.print_formula(phi)}")
    return ModelCheckResult(gv, pv, inst, g, phi_i)
