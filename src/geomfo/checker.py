"""Naive exhaustive FO evaluation and the graph/poset agreement pipeline.

Evaluation is Tarskian semantics done with boolean tensors: a subformula
with free variables v1..vk becomes an n^k truth table, atoms are adjacency
or order matrices, connectives are elementwise ops and quantifiers reduce
an axis.  Cost stays n^O(|phi|); identical subformulas (up to renaming) are
cached per structure, which matters because rewriting a sentence under an
interpretation stamps out many copies of nu and psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import formula as F
from .geometry import (ALL_CLASSES, GeometryError, LabeledGraph, Representation,
                       build_intersection_graph, visibility_graph)
from .poset import LabeledPoset

Structure = Union[LabeledGraph, LabeledPoset]


class EvalError(Exception):
    pass


class AgreementError(Exception):
    """The graph verdict and the poset verdict disagree: internal inconsistency."""


def _graph_tables(g: LabeledGraph):
    n = g.n
    rel = np.zeros((n, n), dtype=bool)
    for u, v in g.edges:
        rel[u, v] = True
        rel[v, u] = True
    return rel, {name: _label_vec(n, vs) for name, vs in g.labels.items()}


def _poset_tables(p: LabeledPoset):
    n = p.n
    rel = np.zeros((n, n), dtype=bool)
    for a in range(n):
        row = p.rows[a]
        for b in range(n):
            if row >> b & 1:
                rel[a, b] = True
        rel[a, a] = True  # <= is the reflexive closure of the strict order
    return rel, {name: _label_vec(n, vs) for name, vs in p.labels.items()}


def _label_vec(n: int, vs) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    for v in vs:
        out[v] = True
    return out


class _Context:
    def __init__(self, structure: Structure):
        self.structure = structure
        if isinstance(structure, LabeledGraph):
            self.signature = F.GRAPH
            self.rel, self.labels = _graph_tables(structure)
        elif isinstance(structure, LabeledPoset):
            self.signature = F.POSET
            self.rel, self.labels = _poset_tables(structure)
        else:
            raise EvalError(f"cannot evaluate over {type(structure).__name__}")
        self.n = structure.n
        self.cache: dict[str, tuple[np.ndarray, int]] = {}


def _context(structure: Structure) -> _Context:
    ctx = getattr(structure, "_eval_context", None)
    if ctx is None or ctx.structure is not structure:
        ctx = _Context(structure)
        try:
            structure._eval_context = ctx
        except AttributeError:
            pass
    return ctx


def _canonical(f: F.Formula) -> tuple[str, list[F.Var]]:
    """Serialize with bound variables De Bruijn-style and free ones by slot."""
    free_order: list[F.Var] = []
    free_tok: dict[F.Var, str] = {}

    def tok(v: F.Var, env: dict[F.Var, str]) -> str:
        if v in env:
            return env[v]
        if v not in free_tok:
            free_tok[v] = f"F{len(free_order)}"
            free_order.append(v)
        return free_tok[v]

    def rec(g: F.Formula, env: dict[F.Var, str], depth: int) -> str:
        if isinstance(g, F.Edge):
            return f"E({tok(g.x, env)},{tok(g.y, env)})"
        if isinstance(g, F.Leq):
            return f"L({tok(g.x, env)},{tok(g.y, env)})"
        if isinstance(g, F.Eq):
            return f"=({tok(g.x, env)},{tok(g.y, env)})"
        if isinstance(g, F.Label):
            return f"P[{g.name}]({tok(g.x, env)})"
        if isinstance(g, F.Not):
            return f"!{rec(g.sub, env, depth)}"
        if isinstance(g, F.And):
            return f"&({rec(g.left, env, depth)},{rec(g.right, env, depth)})"
        if isinstance(g, F.Or):
            return f"|({rec(g.left, env, depth)},{rec(g.right, env, depth)})"
        if isinstance(g, F.Implies):
            return f">({rec(g.left, env, depth)},{rec(g.right, env, depth)})"
        if isinstance(g, (F.Exists, F.Forall)):
            q = "Ex" if isinstance(g, F.Exists) else "Fa"
            env2 = dict(env)
            env2[g.var] = f"B{depth}"
            return f"{q}.{rec(g.sub, env2, depth + 1)}"
        raise EvalError(f"not a formula: {g!r}")

    s = rec(f, {}, 0)
    return s, free_order


def _expand(arr: np.ndarray, axes: tuple, target: tuple, n: int) -> np.ndarray:
    if axes == target:
        return arr
    perm = sorted(range(len(axes)), key=lambda i: target.index(axes[i]))
    arr = np.transpose(arr, perm)
    shape = [n if v in axes else 1 for v in target]
    return arr.reshape(shape)


def _eval_node(ctx: _Context, f: F.Formula) -> tuple[np.ndarray, tuple[F.Var, ...]]:
    key, free_order = _canonical(f)
    hit = ctx.cache.get(key)
    if hit is not None:
        arr, nfree = hit
        return arr, tuple(free_order[:nfree])
    arr, axes = _eval_raw(ctx, f)
    # normalize axis order to canonical slot order before caching
    target = tuple(v for v in free_order if v in axes)
    arr = _expand(arr, axes, target, ctx.n) if axes else arr
    if axes and arr.shape != (ctx.n,) * len(target):
        arr = np.broadcast_to(arr, (ctx.n,) * len(target)).copy()
    ctx.cache[key] = (arr, len(target))
    return arr, target


def _eval_raw(ctx: _Context, f: F.Formula) -> tuple[np.ndarray, tuple[F.Var, ...]]:
    n = ctx.n
    if isinstance(f, (F.Edge, F.Leq)):
        want = F.GRAPH if isinstance(f, F.Edge) else F.POSET
        if ctx.signature != want:
            raise EvalError(f"{'edge' if want == F.GRAPH else '<='} atom evaluated "
                            f"on a {ctx.signature} structure")
        if f.x == f.y:
            return np.diagonal(ctx.rel).copy(), (f.x,)
        return ctx.rel, (f.x, f.y)
    if isinstance(f, F.Eq):
        if f.x == f.y:
            return np.ones(n, dtype=bool), (f.x,)
        return np.eye(n, dtype=bool), (f.x, f.y)
    if isinstance(f, F.Label):
        if f.name not in ctx.labels:
            raise EvalError(f"undeclared label {f.name!r}")
        return ctx.labels[f.name], (f.x,)
    if isinstance(f, F.Not):
        arr, axes = _eval_node(ctx, f.sub)
        return ~arr, axes
    if isinstance(f, (F.And, F.Or, F.Implies)):
        la, lax = _eval_node(ctx, f.left)
        ra, rax = _eval_node(ctx, f.right)
        axes = tuple(list(lax) + [v for v in rax if v not in lax])
        la = _expand(la, lax, axes, n)
        ra = _expand(ra, rax, axes, n)
        if isinstance(f, F.And):
            return la & ra, axes
        if isinstance(f, F.Or):
            return la | ra, axes
        return ~la | ra, axes
    if isinstance(f, (F.Exists, F.Forall)):
        arr, axes = _eval_node(ctx, f.sub)
        if f.var in axes:
            ax = axes.index(f.var)
            out = arr.any(axis=ax) if isinstance(f, F.Exists) else arr.all(axis=ax)
            return out, tuple(v for v in axes if v != f.var)
        # quantified variable does not occur: only the empty domain matters
        if isinstance(f, F.Exists):
            return (arr & (n > 0)), axes
        return (arr | (n == 0)), axes
    raise EvalError(f"not a formula: {f!r}")


def truth_table(structure: Structure, phi: F.Formula,
                axes: Sequence[F.Var]) -> np.ndarray:
    """The table of ``phi`` with one axis per variable of ``axes``, in order.

    Every free variable of ``phi`` must appear in ``axes``; the table is
    constant along the axes of variables that are not free.  The result is a
    read-only view of the structure's cache.
    """
    ctx = _context(structure)
    axes = tuple(axes)
    if len(set(axes)) != len(axes):
        raise EvalError(f"repeated table axes: {[v.name for v in axes]}")
    arr, free = _eval_node(ctx, phi)  # free: phi's free variables, in slot order
    missing = [v.name for v in free if v not in axes]
    if missing:
        raise EvalError(f"unbound variables: {sorted(missing)}")
    return np.broadcast_to(_expand(arr, free, axes, ctx.n), (ctx.n,) * len(axes))


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
