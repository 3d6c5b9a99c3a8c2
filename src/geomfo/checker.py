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
|nu| x |nu| table whose ``z`` ranges over ``D``.  Every table and every
contraction is checked against ``MAX_CELLS`` (the product of its axes'
domain sizes) before it is allocated, and einsum plans its path under that
limit; going over raises ``EvalError``.

Subformulas equal up to renaming share one table per structure: tables
are cached under the key each formula node carries from its construction
(``formula.Key``, hashing modulo alpha-equivalence, Maziarz et al., PLDI
2021), and a node's free variables in first-occurrence order are its
table's axes.  Evaluation makes no pass over the formula to key it: a table
is filled from its key's description, over the domains a parent asks for,
when the parent needs it.
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
        if isinstance(structure, LabeledGraph):
            self.signature, self.rel = F.GRAPH, structure.adjacency_matrix()
        else:  # <= is the reflexive closure of the strict order
            self.signature = F.POSET
            self.rel = bit_matrix(n, structure.rows) | np.eye(n, dtype=bool)
        self.labels = {}
        for name, vs in structure.labels.items():
            self.labels[name] = inside = np.zeros(n, dtype=bool)
            inside[list(vs)] = True
        self.tables: dict[Union[F.Key, tuple], np.ndarray] = {}  # key or (key, *doms) -> table
        self.domains: list[np.ndarray] = [np.arange(n)]  # domain id -> its elements, ascending
        self.sizes: list[int] = [n]  # domain id -> its number of elements
        self.domain_ids: dict[bytes, int] = {}  # a domain's elements -> its id
        self.guards: dict[frozenset[F.Key], int] = {}  # guard keys -> where they all hold


def _context(structure: Structure) -> _Context:
    ctx = getattr(structure, "_eval_context", None)
    if ctx is None or ctx.structure() is not structure:
        ctx = structure._eval_context = _Context(structure)
    return ctx


def _lift(arr: np.ndarray, pos: tuple[int, ...], k: int) -> np.ndarray:
    """``arr`` as a k-axis array whose axis ``pos[i]`` is its axis i; the
    other axes have length 1."""
    if pos == tuple(range(k)):
        return arr
    shape = [1] * k
    for i, p in enumerate(pos):
        shape[p] = arr.shape[i]
    return arr.transpose(sorted(range(len(pos)), key=pos.__getitem__)).reshape(shape)


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
    """The table of ``key`` over the domains ``doms``, filled from its
    description on first use."""
    at = (key, *doms) if doms else key
    table = ctx.tables.get(at)
    if table is None:
        table = ctx.tables[at] = _fill(ctx, key, doms)
    return table


def _fill(ctx: _Context, key: F.Key, doms: tuple[int, ...]) -> np.ndarray:
    desc, kids, k = key.desc, key.kids, key.arity
    kind = desc[0]
    sizes = _shape(ctx, doms, k)
    _check(ctx, sizes)
    if kind is F.Exists or kind is F.Forall:
        return _quantify(ctx, key, doms, sizes)
    if kind is F.Not:
        return ~_table(ctx, kids[0], doms)
    if kind is F.And or kind is F.Or or kind is F.Implies:
        left, ka = kids[0], kids[0].arity
        la = _lift(_table(ctx, left, _pick(doms, range(ka))), tuple(range(ka)), k)
        ra = _lift(_table(ctx, kids[1], _pick(doms, desc[3])), desc[3], k)
        if kind is F.And:
            return la & ra
        return la | ra if kind is F.Or else ~la | ra
    pos = desc[-1]  # the atom's table is over distinct variables; repeated ones read a diagonal
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
        table = _lift(_table(ctx, kids[0], _pick(args, at)), at, params)
        table = np.broadcast_to(table, _shape(ctx, args, params))
    return np.einsum(table, list(pos), list(range(k))) if k < len(pos) else table


def _slice(ctx: _Context, table: np.ndarray, doms: tuple[int, ...]) -> np.ndarray:
    """``table``, whose axes span all n elements, read along the domains ``doms``."""
    for i, d in enumerate(doms):
        if d:
            table = table.take(ctx.domains[d], axis=i)
    return table


def _domain(ctx: _Context, guards: frozenset[F.Key]) -> int:
    """The id of the domain of the elements where every unary key of
    ``guards`` holds; the same elements always get the same id."""
    d = ctx.guards.get(guards)
    if d is None:
        first, *rest = guards
        inside = _table(ctx, first)
        for g in rest:
            inside = inside & _table(ctx, g)
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


# A literal is (key, pos, neg): the table of ``key`` with its axis i on the
# quantifier body's axis pos[i], negated when ``neg``.

def _quantify(ctx: _Context, key: F.Key, doms: tuple[int, ...],
              sizes: tuple[int, ...]) -> np.ndarray:
    (kind, _, ax), (body,) = key.desc, key.kids
    if ctx.n == 0:  # over the empty domain, exists is false and forall true
        return np.full(sizes, kind is F.Forall)
    if ax < 0:  # the quantified variable does not occur
        return _table(ctx, body, doms)
    neg = kind is F.Forall  # forall v. phi == !exists v. !phi
    k = len(sizes)
    out = None
    for guards, lits in _branches(ctx, [(body, tuple(range(k + 1)), neg)], ax, True):
        d = _domain(ctx, frozenset(guards)) if guards else 0
        size = ctx.sizes[d]
        if lits and size:
            outer = doms or (0,) * k
            inner = outer[:ax] + (d,) + outer[ax:] if d or doms else ()
            part = _exists(ctx, lits, ax, inner, sizes[:ax] + (size,) + sizes[ax:])
        else:  # a conjunction of guards holds on its domain if that has an element
            part = np.full((1,) * k, size > 0)
        out = part if out is None else out | part
    if neg:
        out = ~out
    # a branch need not mention every axis
    return out if out.shape == sizes else np.broadcast_to(out, sizes)


def _branches(ctx: _Context, todo: list, ax: int, may_split: bool) -> list[tuple[dict, list]]:
    """The conjunction of the literals ``todo`` as a disjunction of
    conjunctions of literals that are no conjunction, each as the keys of its
    guards on ``ax`` and its other literals.

    A disjunction is split when it is the whole conjunction, or when it
    mentions the quantified axis ``ax`` with three or more axes and no
    disjunction beside other conjuncts was split on the way here, so the
    number of branches stays linear in the formula.
    """
    done: list = []
    guards: dict[F.Key, None] = {}  # a set in insertion order, so plans are deterministic
    at = (ax,)
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
                return (_branches(ctx, rest + [left], ax, whole and may_split)
                        + _branches(ctx, rest + [right], ax, whole and may_split))
        if pos == at and not neg and (kind is F.Label or kind is F.Defined):
            guards[key] = None  # a positive unary atom on ax
        else:
            done.append(lit)
    return [(guards, done)]


def _exists(ctx: _Context, lits: list, ax: int, doms: tuple[int, ...],
            sizes: tuple[int, ...]) -> np.ndarray:
    """exists ax over the conjunction of ``lits``, the body over the domains
    ``doms``, with ``sizes[i]`` elements on axis i (none empty), and with the
    body axes after ``ax`` shifted down by one; axes no literal mentions have
    length 1."""
    k = len(sizes) - 1
    if math.prod(sizes) <= min(_SMALL_CELLS, MAX_CELLS):  # a small body: broadcast & and any
        found = None
        for key, pos, neg in lits:
            table = _table(ctx, key, _pick(doms, pos))
            table = _lift(~table if neg else table, pos, k + 1)
            found = table if found is None else found & table
        return found.any(axis=ax)
    outside = None  # the conjuncts without ax
    groups: list[list] = []  # [axis mask, axes, table]: joined conjuncts with ax
    for key, pos, neg in sorted(lits, key=lambda lit: len(lit[1]), reverse=True):
        table = _table(ctx, key, _pick(doms, pos))
        if neg:
            table = ~table
        mask = 0
        for b in pos:
            mask |= 1 << b
        if not mask >> ax & 1:
            table = _lift(table, tuple([b - (b > ax) for b in pos]), k)
            outside = table if outside is None else outside & table
            continue
        for g in groups:  # a conjunct within another's axes costs no cells
            if not mask & ~g[0]:
                g[2] = g[2] & _lift(table, tuple(map(g[1].index, pos)), len(g[1]))
                break
        else:
            groups.append([mask, pos, table])
    if not groups:
        return outside
    found, axes = _contract(ctx, groups, ax, sizes)
    found = _lift(found, tuple([b - (b > ax) for b in axes]), k)
    return found if outside is None else found & outside


def _contract(ctx: _Context, groups: list[list], ax: int,
              sizes: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """exists ax over the AND of ``groups``, each holding ax, and the body
    axes of the result; body axis i has ``sizes[i]`` elements.  Its tuples
    are built from lists; the comment above ``geometry._scaled`` says why."""
    if len(groups) == 1:
        _, axes, table = groups[0]
        return table.any(axis=axes.index(ax)), tuple([b for b in axes if b != ax])
    if len(groups) == 2 and groups[0][0] & groups[1][0] == 1 << ax:
        (_, a_axes, a), (_, b_axes, b) = groups
        rest = tuple([x for x in a_axes if x != ax]) + tuple([x for x in b_axes if x != ax])
        _check(ctx, [sizes[x] for x in rest])
        a = np.moveaxis(a, a_axes.index(ax), -1).astype(np.float32)
        b = np.moveaxis(b, b_axes.index(ax), 0).astype(np.float32)
        return np.tensordot(a, b, 1) > 0, rest
    union = 0
    for g in groups:
        union |= g[0]
    rest = tuple([b for b in range(union.bit_length()) if union >> b & 1 and b != ax])
    _check(ctx, [sizes[b] for b in rest])
    args = []
    for _, axes, table in groups:
        args += (table.astype(np.float32), list(axes))
    # the greedy path makes no intermediate with more cells than its limit
    return np.einsum(*args, list(rest), optimize=("greedy", MAX_CELLS)) > 0, rest


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
    sentence passes the checks, and reuses them on every later call."""
    from .interpret import make_instance

    if cls not in ALL_CLASSES:
        raise GeometryError(f"unknown class {cls!r}")
    built: list = []

    def check(phi: F.Formula) -> ModelCheckResult:
        if phi.free:
            raise EvalError("model checking needs a sentence")
        F.check_signature(phi, F.GRAPH)
        if not built:
            built[:] = build_graph(cls, rep), make_instance(cls, rep)
        g, inst = built
        phi_eff = F.complement_edges(phi) if inst.complemented else phi
        phi_i = F.rewrite_under_interpretation(phi_eff, inst.interp)
        gv = eval_structure(g, phi)
        pv = eval_structure(inst.poset, phi_i)
        if gv != pv:
            raise AgreementError(
                f"graph verdict {gv} != poset verdict {pv} for class {cls} "
                f"on {len(rep.objects)} objects: {F.print_formula(phi)}")
        return ModelCheckResult(gv, pv, inst, g, phi_i)

    return check
