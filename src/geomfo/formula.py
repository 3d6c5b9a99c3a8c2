"""First-order formulas over graphs and posets.

One AST serves both signatures: ``edge`` atoms belong to the graph
signature, ``<=`` atoms to the poset signature; equality and unary label
atoms are shared.  Formula nodes are interned (hash-consed, Filliatre and
Conchon, "Type-safe modular hash-consing", ML Workshop 2006): building a
node returns the live node with the same class and fields, so nodes are
shared and must never be changed, and ``==`` and ``hash`` are identity.  A
node stores facts computed once, when it is built, from its children's:
its free variables and its key modulo alpha-equivalence (Maziarz et al.,
"Hashing modulo alpha-equivalence", PLDI 2021), under which the evaluator
caches its tables; the key holds the signature kinds and labels the node
mentions and its quantifier depth.  So the functions that report these
facts read them and never recurse.  The intern tables hold their entries
weakly.  A defined atom applies a shared formula (its body) to variables
without copying it: the rewrite and the hardness generators reuse ``nu``,
``psi`` and label definitions this way, and a body may hold defined atoms
itself.  ``expand`` gives the pure first-order formula, inlining defined
atoms at every depth; it is the one place that renames bound variables.
``print_formula`` prints it, so the concrete syntax below has no defined
atoms.  ``map_atoms``, the printer, ``repr`` and the rewrite are one
post-order fold, each node once, and ``expand`` is one walk, all on
explicit stacks, as is the parser, so no traversal or parse recurses
once per node or parenthesis.  A sentence's
rewrite under an interpretation depends only on the sentence and the
interpretation's ``nu`` and ``psi``, so one more weak table, ``_REWRITES``,
files it under their ids: it lives as long as the sentence, and every
instance whose interpretation has the same ``nu`` and ``psi`` nodes gets it
without folding again.  A sentence's edge complement, which a reversed
permutation instance rewrites, is filed in the same table.

The concrete syntax (whitespace-insensitive)::

    formula := quant | impl
    quant   := ("exists"|"forall") VAR "." formula
    impl    := or [ "->" impl ]
    or      := and { "|" and }
    and     := unary { "&" unary }
    unary   := "!" unary | "(" formula ")" | atom
    atom    := "edge(" VAR "," VAR ")" | VAR "=" VAR | VAR "<=" VAR
             | IDENT "(" VAR ")"

``edge``, ``exists`` and ``forall`` are reserved; any other identifier is a
legal variable or label name.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import GeomfoError

GRAPH = "graph"
POSET = "poset"

RESERVED = frozenset({"edge", "exists", "forall"})


class FormulaError(GeomfoError):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class SignatureError(FormulaError):
    pass


class _WeakTable(dict):
    """An intern table: ident -> weak reference to the object interned
    under it, with an optional value; the entry leaves the table when its
    object dies.  An ident names the interned objects it is made of by
    ``id``, so it keeps nothing alive, and a live object's parts (or, in
    ``_REWRITES``, its value) cannot die and hand their ids to other
    objects.  ``weakref.WeakValueDictionary`` does the same through
    a Python-level ``get``, ``__setitem__`` and reference class; on
    agreement_mix, which builds about 7,000 nodes and 5,000 keys per pass,
    it made ``pass_ref`` about 7% higher than this table."""

    def live(self, ident):
        """The live object interned under ``ident``, or None."""
        ref = self.get(ident)
        return None if ref is None else ref()

    def intern(self, ident, obj, value=None):
        ref = self[ident] = _Entry(obj, _drop)
        ref.table, ref.ident, ref.value = self, ident, value
        return obj


class _Entry(weakref.ref):
    """A weak reference that knows where it is stored, with a value held
    strongly while its object lives."""

    __slots__ = ("table", "ident", "value")


def _drop(ref: _Entry) -> None:
    """Remove a dead object's entry, unless its ident was interned again."""
    table = ref.table
    if table.get(ref.ident) is ref:
        del table[ref.ident]


_VARS = _WeakTable()  # name -> variable
_KEYS = _WeakTable()  # Key.desc -> key
_NODES = _WeakTable()  # (class, *fields by id) -> node
# (sentence, nu, psi by id) -> sentence, valued (rewrite, nu, psi);
# (sentence by id,) -> sentence, valued its edge complement
_REWRITES = _WeakTable()


class Var:
    """A variable; interned, so two variables are equal exactly when they
    are the same object."""

    __slots__ = ("name", "__weakref__")

    def __new__(cls, name: str):
        v = _VARS.live(name)
        if v is None:
            if (not isinstance(name, str) or name in RESERVED
                    or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name)):
                raise FormulaError(f"illegal variable name {name!r}")
            v = _VARS.intern(name, object.__new__(cls))
            object.__setattr__(v, "name", name)
        return v

    def __setattr__(self, name, *value):
        raise AttributeError("Var is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"Var(name={self.name!r})"

    def __str__(self):
        return self.name


# the variables of every interpretation: nu(x) and psi(x, y)
X, Y = Var("x"), Var("y")


class Key:
    """A node modulo alpha-equivalence (Maziarz et al., PLDI 2021).

    ``kids`` are the keys of the node's children, or of a defined atom's
    body.  ``desc`` is the node's class and the ids of ``kids``, then for an
    atom its label name (a defined atom: where each of its body's free
    variables sits among its parameters, and their number) and where each
    argument sits among its free variables; for a quantifier, where its
    variable sits among its child's free variables, or -1; for a binary node,
    where its right child's free variables sit among its own.  Keys are
    interned by ``desc``, so two nodes have the same key exactly when they
    are equal up to renaming bound variables and the free ones in order of
    first occurrence.

    A key also holds the facts that renaming leaves alone: ``arity``, the
    number of free variables; ``kinds``, the ``EDGE_KIND`` and ``LEQ_KIND``
    bits of the atoms the node mentions; ``labels``, the label names it
    mentions; and ``depth``, its quantifier depth.  A defined atom counts
    its body's kinds, labels and depth.  Like nodes, keys must never be
    changed after they are built, which the class does not enforce; the
    one exception is ``plan``, None until the evaluator compiles a
    quantifier key's plan on first use and files it there, so the plan
    lives as long as the key."""

    __slots__ = ("desc", "kids", "arity", "kinds", "labels", "depth", "plan", "__weakref__")

    def __new__(cls, desc: tuple, kids: tuple, arity: int):
        key = _KEYS.live(desc)
        if key is None:
            kind = desc[0]
            kinds, depth = kind._kinds, 0
            labels = frozenset((desc[1],)) if kind is Label else _NO_LABELS
            for kid in kids:
                kinds |= kid.kinds
                labels = _union(labels, kid.labels)
                depth = max(depth, kid.depth)
            key = _KEYS.intern(desc, object.__new__(cls))
            key.desc, key.kids, key.arity = desc, kids, arity
            key.kinds, key.labels, key.depth = kinds, labels, depth + kind._binds
            key.plan = None
        return key


# the signature kinds a node mentions, as bits
EDGE_KIND, LEQ_KIND = 1, 2
_NO_LABELS: frozenset[str] = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, reusing ``a`` or ``b`` where it holds the other: a
    frozenset union is a new set of at least 216 bytes, even when empty.
    With plain ``|``, check_scaling ``peak_rss_mb`` read about 0.3 MB
    higher in 5 of 5 paired runs."""
    return a if b <= a else b if a <= b else a | b


class Formula:
    """A formula node, interned: building a node returns the live node of
    the same class and fields if there is one, so ``==`` and ``hash`` are
    identity.  An ident names the fields by ``id``, but a label name by
    value.  Nodes are shared, so their fields and facts are set once, when
    they are built, and must never be assigned again: one assignment would
    change every formula that holds the node and leave the intern table and
    the evaluator's tables filed under stale ids.  The classes do not refuse
    assignment, because a ``__setattr__`` guard turns every field set while
    building into a call: it made agreement_mix ``pass_ref`` about 8%
    higher.  Each node class derives from one of four bases (atom, unary,
    binary, quantifier), which give the generic traversal pair:
    ``children()`` lists the direct subformulas left to right, and
    ``rebuild(kids)`` makes the same kind of node over new subformulas.

    A node holds facts computed when it is built from its children's:
    ``free``, its free variables in first-occurrence order (the axis order
    of its truth table), and ``key``, its ``Key``, which holds the others."""

    __slots__ = ("free", "key", "__weakref__")
    _fields: tuple[str, ...] = ()
    _kinds = 0  # the kind bit of the class's atoms
    _binds = 0  # 1 for a quantifier

    def __repr__(self):
        return _text(_bottom_up(self, _repr_node))

    def rebuild(self, kids) -> Formula:
        return type(self)(*kids)

    def variables(self) -> tuple[Var, ...]:
        """The variables this node names itself: atom arguments or a binder."""
        return ()


class _Atom(Formula):
    __slots__ = ()

    def __new__(cls, x: Var, y: Var):
        ident = (cls, id(x), id(y))
        node = _NODES.live(ident)
        if node is None:
            node = object.__new__(cls)
            node.x, node.y = x, y
            node.free = (x,) if x is y else (x, y)
            node.key = Key((cls, None, (0, 0) if x is y else (0, 1)), (), len(node.free))
            _NODES.intern(ident, node)
        return node

    def children(self) -> tuple[Formula, ...]:
        return ()

    def rebuild(self, kids) -> Formula:
        return self

    def variables(self) -> tuple[Var, ...]:
        return (self.x, self.y)

    def rename(self, env: dict[Var, Var]) -> Formula:
        return type(self)(env.get(self.x, self.x), env.get(self.y, self.y))


class _Unary(Formula):
    __slots__ = ()

    def __new__(cls, sub: Formula):
        ident = (cls, id(sub))
        node = _NODES.live(ident)
        if node is None:
            node = object.__new__(cls)
            node.sub, node.free, key = sub, sub.free, sub.key
            node.key = Key((cls, id(key)), (key,), len(sub.free))
            _NODES.intern(ident, node)
        return node

    def children(self) -> tuple[Formula, ...]:
        return (self.sub,)


class _Binary(Formula):
    __slots__ = ()

    def __new__(cls, left: Formula, right: Formula):
        ident = (cls, id(left), id(right))
        node = _NODES.live(ident)
        if node is None:
            node = object.__new__(cls)
            node.left, node.right = left, right
            lfree, rfree, lkey, rkey = left.free, right.free, left.key, right.key
            node.free = free = lfree if rfree == lfree else tuple(dict.fromkeys(lfree + rfree))
            node.key = Key((cls, id(lkey), id(rkey), tuple(map(free.index, rfree))),
                           (lkey, rkey), len(free))
            _NODES.intern(ident, node)
        return node

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


class _Quantifier(_Unary):
    """A unary node that binds ``var`` in its subformula."""

    __slots__ = ()
    _binds = 1

    def __new__(cls, var: Var, sub: Formula):
        ident = (cls, id(var), id(sub))
        node = _NODES.live(ident)
        if node is None:
            node = object.__new__(cls)
            node.var, node.sub, free, key = var, sub, sub.free, sub.key
            ax = free.index(var) if var in free else -1
            if ax >= 0:
                free = free[:ax] + free[ax + 1:]
            node.free = free
            node.key = Key((cls, id(key), ax), (key,), len(free))
            _NODES.intern(ident, node)
        return node

    def rebuild(self, kids) -> Formula:
        return type(self)(self.var, *kids)

    def variables(self) -> tuple[Var, ...]:
        return (self.var,)


class Edge(_Atom):
    __slots__ = _fields = ("x", "y")
    _kinds = EDGE_KIND


class Leq(_Atom):
    __slots__ = _fields = ("x", "y")
    _kinds = LEQ_KIND


class Eq(_Atom):
    __slots__ = _fields = ("x", "y")


class Label(_Atom):
    __slots__ = _fields = ("name", "x")

    def __new__(cls, name: str, x: Var):
        ident = (cls, name, id(x))
        node = _NODES.live(ident)
        if node is None:
            if not isinstance(name, str) or name in RESERVED:
                raise FormulaError(f"illegal label name {name!r}")
            node = object.__new__(cls)
            node.name, node.x, node.free = name, x, (x,)
            node.key = Key((cls, name, (0,)), (), 1)
            _NODES.intern(ident, node)
        return node

    def variables(self) -> tuple[Var, ...]:
        return (self.x,)

    def rename(self, env: dict[Var, Var]) -> Formula:
        return Label(self.name, env.get(self.x, self.x))


class Defined(_Atom):
    """``body`` with its free variables ``params`` standing for ``args``.

    Its key names the body by the body's key, never by the body object."""

    __slots__ = _fields = ("body", "params", "args")

    def __new__(cls, body: Formula, params, args):
        params, args = tuple(params), tuple(args)
        ident = (cls, id(body), tuple(map(id, params)), tuple(map(id, args)))
        node = _NODES.live(ident)
        if node is None:
            if len(set(params)) != len(params) or len(args) != len(params):
                raise FormulaError("a defined atom needs distinct parameters, one per argument")
            outside = [v.name for v in body.free if v not in params]
            if outside:
                raise FormulaError(f"free variables of a defined atom's body outside "
                                   f"its parameters: {outside}")
            node = object.__new__(cls)
            node.body, node.params, node.args, key = body, params, args, body.key
            node.free = free = tuple(dict.fromkeys(args))
            node.key = Key((cls, id(key), tuple(map(params.index, body.free)), len(params),
                            tuple(map(free.index, args))), (key,), len(free))
            _NODES.intern(ident, node)
        return node

    def variables(self) -> tuple[Var, ...]:
        return self.args


class Not(_Unary):
    __slots__ = _fields = ("sub",)


class And(_Binary):
    __slots__ = _fields = ("left", "right")


class Or(_Binary):
    __slots__ = _fields = ("left", "right")


class Implies(_Binary):
    __slots__ = _fields = ("left", "right")


class Exists(_Quantifier):
    __slots__ = _fields = ("var", "sub")


class Forall(_Quantifier):
    __slots__ = _fields = ("var", "sub")


def _fold(op, parts: Iterable[Formula], if_empty: Optional[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        if if_empty is None:
            raise FormulaError(f"empty {'conjunction' if op is And else 'disjunction'}")
        return if_empty
    out = parts[0]
    for p in parts[1:]:
        out = op(out, p)
    return out


def big_and(parts: Iterable[Formula], if_empty: Optional[Formula] = None) -> Formula:
    return _fold(And, parts, if_empty)


def big_or(parts: Iterable[Formula], if_empty: Optional[Formula] = None) -> Formula:
    return _fold(Or, parts, if_empty)


def exists_many(vs: Iterable[Var], body: Formula) -> Formula:
    for v in reversed(list(vs)):
        body = Exists(v, body)
    return body


def walk(f: Formula) -> Iterator[Formula]:
    """Every node of ``f`` in pre-order, left to right, without recursion."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(g.children()))


def free_vars(f: Formula) -> frozenset[Var]:
    return frozenset(f.free)


def all_var_names(f: Formula) -> set[str]:
    return {v.name for node in walk(f) for v in node.variables()}


def label_names(f: Formula) -> frozenset[str]:
    """The label names ``f`` mentions, counting those inside defined atoms."""
    return f.key.labels


def quantifier_depth(f: Formula) -> int:
    """Quantifier depth, counting the quantifiers inside defined atoms."""
    return f.key.depth


def is_quantifier_free(f: Formula) -> bool:
    return f.key.depth == 0


def is_existential(f: Formula) -> bool:
    """True for sentences of the form ``exists x1 ... exists xk. qf``."""
    while isinstance(f, Exists):
        f = f.sub
    return is_quantifier_free(f)


def formula_signature(f: Formula) -> Optional[str]:
    """GRAPH, POSET, or None when the formula fits both signatures; the
    atoms inside defined atoms count."""
    kinds = f.key.kinds
    if kinds == EDGE_KIND | LEQ_KIND:
        raise SignatureError("formula mixes edge and <= atoms")
    return GRAPH if kinds == EDGE_KIND else POSET if kinds == LEQ_KIND else None


def check_signature(f: Formula, signature: str) -> None:
    if signature not in (GRAPH, POSET):
        raise SignatureError(f"unknown signature {signature!r}")
    got = formula_signature(f)
    if got is not None and got != signature:
        raise SignatureError(f"{got} atom used under {signature} signature")


def _bottom_up(f: Formula, combine):
    """Fold ``f`` children first, on an explicit stack: each distinct node
    ``g`` is folded once, to ``combine(g, its children folded)``, where a
    defined atom's one child is its body."""
    memo: dict = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in memo:
            stack.pop()
            continue
        kids = g.children() or ((g.body,) if isinstance(g, Defined) else ())
        todo = [k for k in kids if k not in memo]
        if todo:
            stack += todo
            continue
        stack.pop()
        memo[g] = combine(g, [memo[k] for k in kids])
    return memo[f]


def _text(parts) -> str:
    """The string that nested tuples of strings spell, joined on an
    explicit stack."""
    out, stack = [], [parts]
    while stack:
        text = stack.pop()
        if isinstance(text, str):
            out.append(text)
        else:
            stack += reversed(text)
    return "".join(out)


def _repr_node(g: Formula, kids: list) -> tuple:
    """``g`` folded to its ``repr``, sharing its children's texts as
    ``_print_node`` does: ``Class(field=value, ...)``."""
    kids = iter(kids)
    parts = [type(g).__name__, "("]
    for name in g._fields:
        value = getattr(g, name)
        parts += (name, "=", next(kids) if isinstance(value, Formula) else repr(value), ", ")
    parts[-1] = ")"
    return tuple(parts)


def map_atoms(f: Formula, fn) -> Formula:
    """``f`` with every atom ``a`` replaced by ``fn(a)``; a defined atom
    keeps its arguments over its body mapped the same way."""

    def combine(g: Formula, kids: list) -> Formula:
        if isinstance(g, Defined):
            return Defined(kids[0], g.params, g.args)
        return fn(g) if isinstance(g, _Atom) else g.rebuild(kids)

    return _bottom_up(f, combine)


@dataclass(frozen=True)
class Interpretation:
    """A pair (nu, psi) of poset formulas defining a graph inside a poset.

    ``nu`` has the single free variable ``X``, nu(x); ``psi`` has exactly
    the two free variables ``X`` and ``Y``, psi(x, y).  ``labels`` is the
    label vocabulary the formulas may mention.
    """

    nu: Formula
    psi: Formula
    labels: frozenset[str] = frozenset()

    def __post_init__(self):
        check_signature(self.nu, POSET)
        check_signature(self.psi, POSET)
        if self.nu.free != (X,):
            raise FormulaError("nu must have exactly the free variable x")
        if set(self.psi.free) != {X, Y}:
            raise FormulaError("psi must have exactly the free variables x and y")
        undeclared = (self.nu.key.labels | self.psi.key.labels) - self.labels
        if undeclared:
            raise FormulaError(f"undeclared labels in interpretation: {sorted(undeclared)}")


def rewrite_under_interpretation(phi: Formula, interp: Interpretation) -> Formula:
    """Rewrite a graph sentence into the poset sentence phi^I.

    edge(x,y) becomes !(x=y) & (psi(x,y) | psi(y,x)); each quantifier is
    relativized to nu.  nu and psi enter as defined atoms naming the
    interpretation's formulas, so nothing is copied.  The disequality guard
    keeps the diagonal faithful: the interpreted edge set ranges over
    distinct pairs, while psi(u,u) may well hold in the poset even though
    edge(u,u) is false in every simple graph.  A defined atom in ``phi``
    keeps its arguments over its rewritten body.

    The rewrite depends only on ``phi``, ``nu`` and ``psi``, so it is filed
    in ``_REWRITES`` under their ids, weakly on ``phi``: a rewrite lives as
    long as its sentence, and every interpretation with the same ``nu`` and
    ``psi`` nodes gets the same rewrite object.  The entry holds the
    rewrite, ``nu`` and ``psi``, so no id in its ident is reused while it lives,
    and ``nu`` and ``psi`` stay interned for the next instance that builds
    them.  Per live sentence, the table holds one rewrite per distinct
    (nu, psi) pair it was rewritten under.  On a miss, the rewrite is one
    ``_bottom_up`` fold.
    """
    if phi.free:
        raise FormulaError("rewrite requires a sentence (no free variables)")
    ident = (id(phi), id(interp.nu), id(interp.psi))
    entry = _REWRITES.get(ident)
    if entry is not None and entry() is phi:  # phi's signature was checked when it was filed
        return entry.value[0]
    check_signature(phi, GRAPH)

    def combine(g: Formula, kids: list) -> Formula:
        if isinstance(g, Edge):
            psi = interp.psi
            return And(Not(Eq(g.x, g.y)),
                       Or(Defined(psi, (X, Y), (g.x, g.y)), Defined(psi, (X, Y), (g.y, g.x))))
        if isinstance(g, _Quantifier):
            nu = Defined(interp.nu, (X,), (g.var,))
            return type(g)(g.var, (And if isinstance(g, Exists) else Implies)(nu, kids[0]))
        if isinstance(g, Defined):
            return Defined(kids[0], g.params, g.args)
        return g.rebuild(kids)

    out = _bottom_up(phi, combine)
    _REWRITES.intern(ident, phi, (out, interp.nu, interp.psi))
    return out


def expand(f: Formula) -> Formula:
    """The pure first-order formula of ``f``.

    Each defined atom becomes a copy of its body with the parameters replaced
    by the arguments, its own defined atoms expanded the same way, and every
    bound variable of the copy renamed fresh.  Names are handed out per
    occurrence, in pre-order, left to right, avoiding every name in ``f`` and
    in the bodies it uses at any depth; ``f``'s own binders keep their names.
    """
    bodies, todo = set(), [f]
    while todo:
        for n in walk(todo.pop()):
            if isinstance(n, Defined) and n.body not in bodies:
                bodies.add(n.body)
                todo.append(n.body)
    used = all_var_names(f).union(*map(all_var_names, bodies))
    counters: dict[str, Iterator[int]] = {}

    def fresh(v: Var) -> Var:  # base_1, base_2, ... skipping used names
        base = v.name.rstrip("_0123456789") or "z"
        count = counters.setdefault(base, itertools.count(1))
        name = next(name for name in (f"{base}_{i}" for i in count) if name not in used)
        used.add(name)
        return Var(name)

    # enter (node, env, False): env renames free variables, None outside every
    # body; (node, var, True) makes the node, binding var, from the last of done
    done: list[Formula] = []
    stack: list = [(f, None, False)]
    while stack:
        g, env, build = stack.pop()
        if build:
            k = len(g.children())
            kids, done[-k:] = done[-k:], []
            done.append(type(g)(env, *kids) if isinstance(g, _Quantifier) else g.rebuild(kids))
        elif isinstance(g, Defined):
            stack.append((g.body, {p: env.get(a, a) if env else a
                                   for p, a in zip(g.params, g.args)}, False))
        elif isinstance(g, _Atom):
            done.append(g.rename(env) if env else g)
        else:
            var = g.var if isinstance(g, _Quantifier) else None
            if var is not None and env is not None:
                var = fresh(var)
                env = {**env, g.var: var}
            stack.append((g, var, True))
            stack += [(k, env, False) for k in reversed(g.children())]
    return done[0]


def complement_edges(phi: Formula) -> Formula:
    """Replace every edge(x,y) by (!edge(x,y) & !(x=y)).

    Used when a construction hands us the complement of the intended graph
    (reversed permutation representations, complement-flagged witnesses).
    A sentence's complement is filed in ``_REWRITES`` weakly on it, as a
    rewrite is, so it lives as long as the sentence and keeps its own
    rewrites alive.  A formula with no edge atom is its own complement, and
    one with free variables may be part of its complement (``edge(x,y)``
    is); neither is filed, since the entry would keep it alive.
    """
    if not phi.key.kinds & EDGE_KIND:
        return phi
    entry = _REWRITES.get((id(phi),))
    if entry is not None and entry() is phi:
        return entry.value
    out = map_atoms(phi, lambda g: And(Not(g), Not(Eq(g.x, g.y))) if isinstance(g, Edge) else g)
    if not phi.free:
        _REWRITES.intern((id(phi),), phi, out)
    return out


# ---------------------------------------------------------------------------
# printing

_QUANT, _IMPL, _OR, _AND, _UNARY = range(5)


# binary connective -> (infix, own level, left operand level, right operand level)
_INFIX = {Implies: (" -> ", _IMPL, _OR, _IMPL), Or: (" | ", _OR, _OR, _AND),
          And: (" & ", _AND, _AND, _UNARY)}


def _operand(kid: tuple, level: int):
    """A folded child's text, parenthesised unless it binds at ``level``."""
    text, own = kid
    return text if own >= level else ("(", text, ")")


def _print_node(g: Formula, kids: list) -> tuple:
    """``g`` folded to (text, level): the text as nested tuples of strings,
    which share the children's texts, so a deep chain costs linear space,
    and the level of its outermost operator, which tells its parent whether
    to parenthesise it."""
    if isinstance(g, Edge):
        return f"edge({g.x},{g.y})", _UNARY
    if isinstance(g, Leq):
        return f"{g.x}<={g.y}", _UNARY
    if isinstance(g, Eq):
        return f"{g.x}={g.y}", _UNARY
    if isinstance(g, Label):
        return f"{g.name}({g.x})", _UNARY
    if isinstance(g, Not):
        return ("!", _operand(kids[0], _UNARY)), _UNARY
    if isinstance(g, _Quantifier):
        kw = "exists" if isinstance(g, Exists) else "forall"
        return (f"{kw} {g.var}. ", _operand(kids[0], _QUANT)), _QUANT
    infix, own, left, right = _INFIX[type(g)]
    return (_operand(kids[0], left), infix, _operand(kids[1], right)), own


def print_formula(f: Formula) -> str:
    """The concrete syntax of ``expand(f)``."""
    return _text(_bottom_up(expand(f), _print_node)[0])


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><=|->|[().,=|&!]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        if m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, signature: str):
        if signature not in (GRAPH, POSET):
            raise SignatureError(f"unknown signature {signature!r}")
        self.tokens = _tokenize(text)
        self.i = 0
        self.signature = signature

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Formula:
        f = self.formula()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting with {val!r}", pos)
        return f

    def formula(self) -> Formula:
        """The grammar's ``formula``, on an explicit stack, so no input
        nests Python calls: each open parenthesis pushes the state of the
        level around it, and a level keeps the left operands of its ``->``
        chain until the chain ends."""
        outer = []  # per open parenthesis: its negations, then the enclosing level
        prefix, lefts, disj, conj = self.quantifiers(), [], None, None
        while True:
            negations = 0
            while self.peek()[1] == "!":
                self.next()
                negations += 1
            if self.peek()[1] == "(":
                self.next()
                outer.append((negations, prefix, lefts, disj, conj))
                prefix, lefts, disj, conj = self.quantifiers(), [], None, None
                continue
            f = self.atom()
            while True:  # fold the unary f into its level, closing levels it ends
                for _ in range(negations):
                    f = Not(f)
                conj = f if conj is None else And(conj, f)
                if self.peek()[1] == "&":
                    break
                disj, conj = conj if disj is None else Or(disj, conj), None
                if self.peek()[1] == "|":
                    break
                lefts.append(disj)
                disj = None
                if self.peek()[1] == "->":
                    break
                f = lefts.pop()
                while lefts:
                    f = Implies(lefts.pop(), f)
                for quantifier, v in reversed(prefix):
                    f = quantifier(v, f)
                if not outer:
                    return f
                self.expect(")")
                negations, prefix, lefts, disj, conj = outer.pop()
            self.next()  # the '&', '|' or '->' before the next unary

    def quantifiers(self) -> list:
        """The quantifiers in front of a formula, outermost first."""
        prefix = []
        while self.peek()[1] in ("exists", "forall"):
            quantifier = Exists if self.next()[1] == "exists" else Forall
            prefix.append((quantifier, self.variable()))
            self.expect(".")
        return prefix

    def variable(self) -> Var:
        kind, val, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected a variable, found {val or 'end of input'!r}", pos)
        if val in RESERVED:
            raise ParseError(f"{val!r} is a reserved word", pos)
        return Var(val)

    def atom(self) -> Formula:
        kind, val, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected an atom, found {val or 'end of input'!r}", pos)
        if val == "edge":
            if self.signature != GRAPH:
                raise ParseError("edge atom under poset signature", pos)
            self.expect("(")
            x = self.variable()
            self.expect(",")
            y = self.variable()
            self.expect(")")
            return Edge(x, y)
        if val in RESERVED:
            raise ParseError(f"{val!r} is a reserved word", pos)
        nxt = self.peek()[1]
        if nxt == "(":
            self.next()
            x = self.variable()
            self.expect(")")
            return Label(val, x)
        if nxt == "=":
            self.next()
            return Eq(Var(val), self.variable())
        if nxt == "<=":
            if self.signature != POSET:
                raise ParseError("<= atom under graph signature", pos)
            self.next()
            return Leq(Var(val), self.variable())
        raise ParseError(f"expected '=', '<=' or '(' after {val!r}", self.peek()[2])


def parse_formula(text: str, signature: str) -> Formula:
    """Parse the concrete syntax under the given signature."""
    return _Parser(text, signature).parse()


# ---------------------------------------------------------------------------
# EFO <-> induced-subgraph pattern translations

def pattern_formula(h) -> Formula:
    """EFO sentence asserting an induced copy of the (unlabeled) graph ``h``.

    Vertices 0..k-1 of ``h`` map to variables x1..xk; the quantifier-free
    matrix fixes every pair as an edge or a non-edge plus all disequalities.
    """
    k = h.n
    if k < 1:
        raise FormulaError("pattern graph needs at least one vertex")
    vs = [Var(f"x{i + 1}") for i in range(k)]
    parts: list[Formula] = []
    for i in range(k):
        for j in range(i + 1, k):
            parts.append(Not(Eq(vs[i], vs[j])))
            if h.has_edge(i, j):
                parts.append(Edge(vs[i], vs[j]))
            else:
                parts.append(Not(Edge(vs[i], vs[j])))
    matrix = big_and(parts, if_empty=Eq(vs[0], vs[0]))
    return exists_many(vs, matrix)


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


MAX_EFO_VARS = 6  # efo_to_patterns enumerates every graph on this many vertices


def efo_to_patterns(phi: Formula) -> list:
    """All pattern graphs equivalent to an EFO sentence.

    Enumerates every identification of the quantified variables and every
    (labelled) graph on the identified vertex set whose induced evaluation
    satisfies the matrix.  ``G |= phi`` iff some returned pattern embeds in
    ``G`` as an induced (label-respecting) subgraph.
    """
    from .checker import eval_structure
    from .geometry import LabeledGraph

    vs: list[Var] = []
    body = phi
    while isinstance(body, Exists):
        vs.append(body.var)
        body = body.sub
    if not vs or not is_quantifier_free(body):
        raise FormulaError("not an EFO sentence with quantifier-free matrix")
    if free_vars(body) - set(vs):
        raise FormulaError("matrix has free variables outside the prefix")
    if len(vs) > MAX_EFO_VARS:
        raise FormulaError(f"EFO prefix of {len(vs)} variables exceeds bound {MAX_EFO_VARS}")
    labels = sorted(label_names(body))

    seen = set()
    out = []
    for part in _set_partitions(list(range(len(vs)))):
        m = len(part)
        cls = {vs[idx]: ci for ci, block in enumerate(part) for idx in block}
        pairs = list(itertools.combinations(range(m), 2))
        for edge_bits in itertools.product((False, True), repeat=len(pairs)):
            edges = {p for p, b in zip(pairs, edge_bits) if b}
            for label_bits in itertools.product(
                *(itertools.product((False, True), repeat=m) for _ in labels)
            ) if labels else [()]:
                lab = {
                    name: frozenset(i for i in range(m) if bits[i])
                    for name, bits in zip(labels, label_bits)
                }
                cand = LabeledGraph(m, edges, lab)
                if eval_structure(cand, body, cls) and cand not in seen:
                    seen.add(cand)
                    out.append(cand)
    return out
