"""Naive exhaustive FO evaluation and the graph/poset agreement pipeline.

Evaluation is Tarskian semantics done with boolean tensors: a subformula
with free variables v1..vk becomes an n^k truth table, atoms are adjacency
or order matrices, connectives are elementwise ops and quantifiers reduce
an axis.  Cost stays n^O(|phi|).  Subformulas equal up to renaming share
one table per structure: each node gets a small-int key built bottom-up
from its children's keys (hashing modulo alpha-equivalence, Maziarz et al.,
PLDI 2021), and the table of a defined atom's body is computed once.
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
from .poset import LabeledPoset

Structure = Union[LabeledGraph, LabeledPoset]


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
        self.rel = rel = np.zeros((n, n), dtype=bool)
        if isinstance(structure, LabeledGraph):
            self.signature = F.GRAPH
            for u, v in structure.edges:
                rel[u, v] = rel[v, u] = True
        else:
            self.signature = F.POSET
            for a, row in enumerate(structure.rows):
                rel[a] = [row >> b & 1 for b in range(n)]
            rel |= np.eye(n, dtype=bool)  # <= is the reflexive closure of the strict order
        self.labels = {name: np.isin(np.arange(n), list(vs))
                       for name, vs in structure.labels.items()}
        self.keys: dict[tuple, int] = {}  # node description -> key
        self.tables: list[np.ndarray] = []  # key -> table, one axis per free variable
        self.bodies: list[F.Formula] = []  # of the defined atoms evaluated here


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
    arr = np.transpose(arr, sorted(range(len(pos)), key=pos.__getitem__))
    return np.expand_dims(arr, tuple(i for i in range(k) if i not in pos))


def _eval_raw(ctx: _Context, f: F.Formula) -> tuple[int, tuple[str, ...], np.ndarray]:
    """The key of ``f``, the names of its free variables in first-occurrence
    order, and its table with one axis per free variable in that order.

    The key is interned from the node kind, the atom name or definition (a
    defined atom's body object and parameters), the children's keys and
    where each child's free variables sit among the node's own (for a
    quantifier: where its variable sits among the child's), so two
    subformulas share a key exactly when they are equal up to renaming bound
    variables and the free ones in order of first occurrence.  Only a new
    key computes a table.
    """
    if isinstance(f, F._Binary):
        lkey, lfree, la = _eval_raw(ctx, f.left)
        rkey, rfree, ra = _eval_raw(ctx, f.right)
        free = lfree + tuple(v for v in rfree if v not in lfree)
        desc = (type(f), lkey, rkey, tuple(map(free.index, rfree)))
        arrs = (la, ra)
    elif isinstance(f, F._Unary):
        key, free, arr = _eval_raw(ctx, f.sub)
        arrs = (arr,)
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
        arrs = ()
    else:
        raise EvalError(f"not a formula: {f!r}")
    key = ctx.keys.get(desc)
    if key is None:
        table = _new_table(ctx, f, desc, arrs, len(free))
        key = ctx.keys[desc] = len(ctx.tables)
        ctx.tables.append(table)
    return key, free, ctx.tables[key]


def _new_table(ctx: _Context, f: F.Formula, desc: tuple, arrs: tuple, k: int) -> np.ndarray:
    """The table of a node missing from the cache, from its children's;
    ``desc[-1]`` holds the positions or the axis that its key records."""
    if isinstance(f, F._Binary):
        la, ra = _lift(arrs[0], tuple(range(arrs[0].ndim)), k), _lift(arrs[1], desc[-1], k)
        if isinstance(f, F.And):
            return la & ra
        return la | ra if isinstance(f, F.Or) else ~la | ra
    if isinstance(f, F.Not):
        return ~arrs[0]
    if isinstance(f, F._Quantifier):
        arr, ax = arrs[0], desc[-1]
        if ax >= 0:
            return arr.any(axis=ax) if isinstance(f, F.Exists) else arr.all(axis=ax)
        # quantified variable does not occur: only the empty domain matters
        return arr & (ctx.n > 0) if isinstance(f, F.Exists) else arr | (ctx.n == 0)
    if isinstance(f, (F.Edge, F.Leq)):
        want = F.GRAPH if isinstance(f, F.Edge) else F.POSET
        if ctx.signature != want:
            raise EvalError(f"{'edge' if want == F.GRAPH else '<='} atom evaluated "
                            f"on a {ctx.signature} structure")
        table = ctx.rel
    elif isinstance(f, F.Eq):
        table = np.eye(ctx.n, dtype=bool)
    elif isinstance(f, F.Label):
        if f.name not in ctx.labels:
            raise EvalError(f"undeclared label {f.name!r}")
        table = ctx.labels[f.name]
    else:  # a defined atom; holding its body keeps the id in its key unique
        ctx.bodies.append(f.body)
        table = truth_table(ctx.structure(), f.body, f.params)
    pos = desc[-1]  # the atom's table is over distinct variables; repeated ones read a diagonal
    return np.einsum(table, list(pos), list(range(k))) if k < len(pos) else table


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
    _, free, arr = _eval_raw(ctx, phi)
    missing = [v for v in free if v not in names]
    if missing:
        raise EvalError(f"unbound variables: {sorted(missing)}")
    return np.broadcast_to(_lift(arr, tuple(map(names.index, free)), len(names)),
                           (ctx.n,) * len(names))


def eval_structure(structure: Structure, phi: F.Formula,
                   assignment: Optional[dict[F.Var, int]] = None) -> bool:
    """Standard semantics; free variables must be covered by the assignment."""
    assignment = assignment or {}
    n = _context(structure).n
    for v, e in assignment.items():
        if not 0 <= e < n:
            raise EvalError(f"assignment {v.name} -> {e} outside the domain")
    return bool(truth_table(structure, phi, assignment)[tuple(assignment.values())])


def eval_slow(structure: Structure, phi: F.Formula,
              assignment: Optional[dict[F.Var, int]] = None) -> bool:
    """Direct recursive evaluator; oracle for the tensor evaluator."""
    ctx = _context(structure)

    def rec(g: F.Formula, asg: dict[F.Var, int]) -> bool:
        if isinstance(g, (F.Edge, F.Leq)):
            want = F.GRAPH if isinstance(g, F.Edge) else F.POSET
            if ctx.signature != want:
                raise EvalError("atom/structure signature mismatch")
            return bool(ctx.rel[asg[g.x], asg[g.y]])
        if isinstance(g, F.Eq):
            return asg[g.x] == asg[g.y]
        if isinstance(g, F.Label):
            if g.name not in ctx.labels:
                raise EvalError(f"undeclared label {g.name!r}")
            return bool(ctx.labels[g.name][asg[g.x]])
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
            return any(rec(g.sub, {**asg, g.var: e}) for e in range(ctx.n))
        if isinstance(g, F.Forall):
            return all(rec(g.sub, {**asg, g.var: e}) for e in range(ctx.n))
        raise EvalError(f"not a formula: {g!r}")

    return rec(phi, dict(assignment or {}))


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
