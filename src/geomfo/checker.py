"""Exhaustive FO evaluation and the graph/poset agreement pipeline.

Evaluation is Tarskian semantics done with boolean tensors: a subformula
with free variables v1..vk has an n^k truth table, atoms are adjacency or
order matrices and connectives are elementwise ops.  A quantifier is a
contraction (Yannakakis, VLDB 1981; Abo Khamis, Ngo and Rudra, PODS 2016):
``forall v`` is read as ``!exists v !``, the body is split into conjuncts
through ``!``, ``&`` and negated ``|`` and ``->``, conjuncts without v are
ANDed outside, and the rest are joined and projected on v without building
the body's table.  A disjunction is split instead when it is the whole
body, or once per conjunction when it has three or more axes, as inside
the interval ``psi``, which thereby costs two n x n matrix products.  So the
cost is set by the largest table a plan touches, not a flat n^O(|phi|).
Every table and every contraction is checked against ``MAX_CELLS`` before
it is allocated, and einsum plans its path under that limit; going over
raises ``EvalError``.

Subformulas equal up to renaming share one table per structure: each node
gets a small-int key built bottom-up from its children's keys (hashing
modulo alpha-equivalence, Maziarz et al., PLDI 2021).  The keyed pass
computes keys and free-variable names only; a table is filled from its key's
description when a parent needs it, and the table of a defined atom's body
is computed once.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import GeomfoError, formula as F
from .geometry import (ALL_CLASSES, GeometryError, LabeledGraph, Representation,
                       build_intersection_graph, visibility_graph)
from .poset import LabeledPoset, order_matrix

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
            self.signature = F.GRAPH
            self.rel = rel = np.zeros((n, n), dtype=bool)
            for u, v in structure.edges:
                rel[u, v] = rel[v, u] = True
        else:
            self.signature = F.POSET
            self.rel = order_matrix(structure)
            self.rel |= np.eye(n, dtype=bool)  # <= is the reflexive closure of the strict order
        self.labels = {name: np.isin(np.arange(n), list(vs))
                       for name, vs in structure.labels.items()}
        self.keys: dict[tuple, int] = {}  # node description -> key
        self.descs: list[tuple] = []  # key -> node description
        self.arity: list[int] = []  # key -> number of free variables
        self.tables: list[Optional[np.ndarray]] = []  # key -> table, once filled
        self.defined: dict[int, F.Defined] = {}  # key -> defined atom; keeps its body's id unique


def _context(structure: Structure) -> _Context:
    ctx = getattr(structure, "_eval_context", None)
    if ctx is None or ctx.structure() is not structure:
        ctx = structure._eval_context = _Context(structure)
    return ctx


_NAME = operator.attrgetter("name")


def _lift(arr: np.ndarray, pos: tuple[int, ...], k: int) -> np.ndarray:
    """``arr`` as a k-axis array whose axis ``pos[i]`` is its axis i; the
    other axes have length 1."""
    if pos == tuple(range(k)):
        return arr
    shape = [1] * k
    for i, p in enumerate(pos):
        shape[p] = arr.shape[i]
    return arr.transpose(sorted(range(len(pos)), key=pos.__getitem__)).reshape(shape)


def _check(ctx: _Context, axes: int) -> None:
    """Raise EvalError unless an array with ``axes`` axes of length n fits MAX_CELLS."""
    if ctx.n ** axes > MAX_CELLS:
        raise EvalError(f"a table of arity {axes} on n={ctx.n} elements has "
                        f"{ctx.n ** axes} cells, over the budget of {MAX_CELLS}")


def _key(ctx: _Context, f: F.Formula) -> tuple[int, tuple[str, ...]]:
    """The key of ``f`` and the names of its free variables in first-occurrence
    order, the axis order of its table.

    The key is interned from the node kind, the atom name or definition (a
    defined atom's body object and parameters), the children's keys and
    where each child's free variables sit among the node's own (for a
    quantifier: where its variable sits among the child's), so two
    subformulas share a key exactly when they are equal up to renaming bound
    variables and the free ones in order of first occurrence.  No table is
    computed here.
    """
    if isinstance(f, F._Binary):
        lkey, lfree = _key(ctx, f.left)
        rkey, rfree = _key(ctx, f.right)
        free = lfree + tuple(v for v in rfree if v not in lfree)
        desc = (type(f), lkey, rkey, tuple(map(free.index, rfree)))
    elif isinstance(f, F._Unary):
        key, free = _key(ctx, f.sub)
        if isinstance(f, F._Quantifier):
            ax = free.index(f.var.name) if f.var.name in free else -1
            free = free[:ax] + free[ax + 1:] if ax >= 0 else free
            desc = (type(f), key, ax)
        else:
            desc = (type(f), key)
    elif isinstance(f, F._Atom):
        args = tuple(map(_NAME, f.variables()))
        free = tuple(dict.fromkeys(args))
        name = (f.name if isinstance(f, F.Label) else
                (id(f.body), f.params) if isinstance(f, F.Defined) else None)
        desc = (type(f), name, tuple(map(free.index, args)))
    else:
        raise EvalError(f"not a formula: {f!r}")
    key = ctx.keys.get(desc)
    if key is None:
        key = ctx.keys[desc] = len(ctx.descs)
        ctx.descs.append(desc)
        ctx.arity.append(len(free))
        ctx.tables.append(None)
        if isinstance(f, F.Defined):
            ctx.defined[key] = f
    return key, free


def _table(ctx: _Context, key: int) -> np.ndarray:
    """The table of ``key``, filled from its description on first use."""
    table = ctx.tables[key]
    if table is None:
        table = ctx.tables[key] = _fill(ctx, key)
    return table


def _fill(ctx: _Context, key: int) -> np.ndarray:
    desc, k = ctx.descs[key], ctx.arity[key]
    kind = desc[0]
    _check(ctx, k)
    if kind is F.Exists or kind is F.Forall:
        return _quantify(ctx, desc, k)
    if kind is F.Not:
        return ~_table(ctx, desc[1])
    if kind is F.And or kind is F.Or or kind is F.Implies:
        la = _table(ctx, desc[1])
        la, ra = _lift(la, tuple(range(la.ndim)), k), _lift(_table(ctx, desc[2]), desc[3], k)
        if kind is F.And:
            return la & ra
        return la | ra if kind is F.Or else ~la | ra
    if kind is F.Edge or kind is F.Leq:
        want = F.GRAPH if kind is F.Edge else F.POSET
        if ctx.signature != want:
            raise EvalError(f"{'edge' if want == F.GRAPH else '<='} atom evaluated "
                            f"on a {ctx.signature} structure")
        table = ctx.rel
    elif kind is F.Eq:
        table = np.eye(ctx.n, dtype=bool)
    elif kind is F.Label:
        if desc[1] not in ctx.labels:
            raise EvalError(f"undeclared label {desc[1]!r}")
        table = ctx.labels[desc[1]]
    else:  # a defined atom
        f = ctx.defined[key]
        table = truth_table(ctx.structure(), f.body, f.params)
    pos = desc[-1]  # the atom's table is over distinct variables; repeated ones read a diagonal
    return np.einsum(table, list(pos), list(range(k))) if k < len(pos) else table


# A literal is (key, pos, neg): the table of ``key`` with its axis i on the
# quantifier body's axis pos[i], negated when ``neg``.

def _quantify(ctx: _Context, desc: tuple, k: int) -> np.ndarray:
    kind, body, ax = desc
    if ctx.n == 0:  # over the empty domain, exists is false and forall true
        return np.full((0,) * k, kind is F.Forall)
    if ax < 0:  # the quantified variable does not occur
        return _table(ctx, body)
    neg = kind is F.Forall  # forall v. phi == !exists v. !phi
    out = None
    for lits in _branches(ctx, [(body, tuple(range(k + 1)), neg)], ax, True):
        part = _exists(ctx, lits, ax, k)
        out = part if out is None else out | part
    if neg:
        out = ~out
    full = (ctx.n,) * k  # a branch need not mention every axis
    return out if out.shape == full else np.broadcast_to(out, full)


def _branches(ctx: _Context, todo: list, ax: int, may_split: bool) -> list[list]:
    """The conjunction of the literals ``todo`` as a disjunction of
    conjunctions of literals that are no conjunction.

    A disjunction is split when it is the whole conjunction, or when it
    mentions the quantified axis ``ax`` with three or more axes and no
    disjunction beside other conjuncts was split on the way here, so the
    number of branches stays linear in the formula.
    """
    done: list = []
    while todo:
        lit = key, pos, neg = todo.pop()
        desc = ctx.descs[key]
        kind = desc[0]
        if kind is F.Not:
            todo.append((desc[1], pos, not neg))
            continue
        if kind is F.And or kind is F.Or or kind is F.Implies:
            left = (desc[1], pos[:ctx.arity[desc[1]]], neg != (kind is F.Implies))
            right = (desc[2], tuple([pos[i] for i in desc[3]]), neg)
            if (kind is F.And) != neg:
                todo += (left, right)
                continue
            whole = not todo and not done
            if whole or may_split and len(pos) >= 3 and ax in pos:
                rest = todo + done
                return (_branches(ctx, rest + [left], ax, whole and may_split)
                        + _branches(ctx, rest + [right], ax, whole and may_split))
        done.append(lit)
    return [done]


def _exists(ctx: _Context, lits: list, ax: int, k: int) -> np.ndarray:
    """exists ax over the conjunction of ``lits`` (n > 0), with the body axes
    after ``ax`` shifted down by one; axes no literal mentions have length 1."""
    if ctx.n ** (k + 1) <= min(_SMALL_CELLS, MAX_CELLS):  # a small body: broadcast & and any
        found = None
        for key, pos, neg in lits:
            table = _lift(~_table(ctx, key) if neg else _table(ctx, key), pos, k + 1)
            found = table if found is None else found & table
        return found.any(axis=ax)
    outside = None  # the conjuncts without ax
    groups: list[list] = []  # [axis mask, axes, table]: joined conjuncts with ax
    for key, pos, neg in sorted(lits, key=lambda lit: len(lit[1]), reverse=True):
        table = ~_table(ctx, key) if neg else _table(ctx, key)
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
    found, axes = _contract(ctx, groups, ax)
    found = _lift(found, tuple([b - (b > ax) for b in axes]), k)
    return found if outside is None else found & outside


def _contract(ctx: _Context, groups: list[list], ax: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """exists ax over the AND of ``groups``, each holding ax, and the body
    axes of the result."""
    if len(groups) == 1:
        _, axes, table = groups[0]
        return table.any(axis=axes.index(ax)), tuple(b for b in axes if b != ax)
    if len(groups) == 2 and groups[0][0] & groups[1][0] == 1 << ax:
        (_, a_axes, a), (_, b_axes, b) = groups
        rest = tuple(x for x in a_axes if x != ax) + tuple(x for x in b_axes if x != ax)
        _check(ctx, len(rest))
        a = np.moveaxis(a, a_axes.index(ax), -1).astype(np.float32)
        b = np.moveaxis(b, b_axes.index(ax), 0).astype(np.float32)
        return np.tensordot(a, b, 1) > 0, rest
    union = 0
    for g in groups:
        union |= g[0]
    rest = tuple(b for b in range(union.bit_length()) if union >> b & 1 and b != ax)
    _check(ctx, len(rest))
    args = []
    for _, axes, table in groups:
        args += (table.astype(np.float32), list(axes))
    # the greedy path makes no intermediate with more cells than its limit
    return np.einsum(*args, list(rest), optimize=("greedy", MAX_CELLS)) > 0, rest


def _bound_table(ctx: _Context, phi: F.Formula, names) -> tuple[np.ndarray, tuple[str, ...]]:
    """The table of ``phi`` and the names of its axes, each of which must be in ``names``."""
    key, free = _key(ctx, phi)
    missing = [v for v in free if v not in names]
    if missing:
        raise EvalError(f"unbound variables: {sorted(missing)}")
    return _table(ctx, key), free


def truth_table(structure: Structure, phi: F.Formula,
                axes: Sequence[F.Var]) -> np.ndarray:
    """The table of ``phi`` with one axis per variable of ``axes``, in order.

    Every free variable of ``phi`` must appear in ``axes``; the table is
    constant along the axes of variables that are not free.  The result is a
    read-only view of the structure's cache.
    """
    ctx = _context(structure)
    names = tuple(map(_NAME, axes))
    if len(set(names)) != len(names):
        raise EvalError(f"repeated table axes: {list(names)}")
    table, free = _bound_table(ctx, phi, names)
    return np.broadcast_to(_lift(table, tuple(map(names.index, free)), len(names)),
                           (ctx.n,) * len(names))


def eval_structure(structure: Structure, phi: F.Formula,
                   assignment: Optional[dict[F.Var, int]] = None) -> bool:
    """Standard semantics; free variables must be covered by the assignment."""
    ctx = _context(structure)
    values = {v.name: e for v, e in (assignment or {}).items()}
    for name, e in values.items():
        if not 0 <= e < ctx.n:
            raise EvalError(f"assignment {name} -> {e} outside the domain")
    table, free = _bound_table(ctx, phi, values)
    return bool(table[tuple(map(values.__getitem__, free))])


@dataclass
class ModelCheckResult:
    graph_verdict: bool
    poset_verdict: bool
    instance: "InterpretationInstance"  # noqa: F821
    graph: LabeledGraph
    rewritten: F.Formula


def build_graph(cls: str, rep: Representation) -> LabeledGraph:
    if cls == "visibility":
        if len(rep.objects) != 1:
            raise GeometryError("visibility representation holds a single polygon")
        return visibility_graph(rep.objects[0])
    return build_intersection_graph(cls, rep)


def model_check(cls: str, rep: Representation, phi: F.Formula,
                require_agreement: bool = True) -> ModelCheckResult:
    """Evaluate a graph sentence directly and through the poset interpretation.

    The two verdicts must agree; a mismatch raises AgreementError rather
    than being resolved silently.
    """
    from .interpret import make_instance

    if cls not in ALL_CLASSES:
        raise GeometryError(f"unknown class {cls!r}")
    if F.free_vars(phi):
        raise EvalError("model checking needs a sentence")
    F.check_signature(phi, F.GRAPH)

    g = build_graph(cls, rep)
    inst = make_instance(cls, rep)
    phi_eff = F.complement_edges(phi) if inst.complemented else phi
    phi_i = F.rewrite_under_interpretation(phi_eff, inst.interp)
    gv = eval_structure(g, phi)
    pv = eval_structure(inst.poset, phi_i)
    if require_agreement and gv != pv:
        raise AgreementError(
            f"graph verdict {gv} != poset verdict {pv} for class {cls} "
            f"on {len(rep.objects)} objects: {F.print_formula(phi)}")
    return ModelCheckResult(gv, pv, inst, g, phi_i)
