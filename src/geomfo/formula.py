"""First-order formulas over graphs and posets.

One AST serves both signatures: ``edge`` atoms belong to the graph
signature, ``<=`` atoms to the poset signature; equality and unary label
atoms are shared.  A formula is an immutable tree, so sharing subtrees is
safe.  A defined atom applies a shared formula (its body) to variables
without copying it; ``expand`` gives the pure first-order formula, which is
what ``print_formula`` prints, so the concrete syntax below has no defined
atoms.

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


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name) or self.name in RESERVED:
            raise FormulaError(f"illegal variable name {self.name!r}")

    def __str__(self):
        return self.name


class Formula:
    """A formula node.  Each node class derives from one of four bases (atom,
    unary, binary, quantifier), which give the generic traversal pair:
    ``children()`` lists the direct subformulas left to right, and
    ``rebuild(kids)`` makes the same kind of node over new subformulas."""

    __slots__ = ()

    def rebuild(self, kids) -> Formula:
        return type(self)(*kids)

    def variables(self) -> tuple[Var, ...]:
        """The variables this node names itself: atom arguments or a binder."""
        return ()


class _Atom(Formula):
    __slots__ = ()

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

    def children(self) -> tuple[Formula, ...]:
        return (self.sub,)


class _Binary(Formula):
    __slots__ = ()

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


class _Quantifier(_Unary):
    """A unary node that binds ``var`` in its subformula."""

    __slots__ = ()

    def rebuild(self, kids) -> Formula:
        return type(self)(self.var, *kids)

    def variables(self) -> tuple[Var, ...]:
        return (self.var,)


@dataclass(frozen=True)
class Edge(_Atom):
    x: Var
    y: Var


@dataclass(frozen=True)
class Leq(_Atom):
    x: Var
    y: Var


@dataclass(frozen=True)
class Eq(_Atom):
    x: Var
    y: Var


@dataclass(frozen=True)
class Label(_Atom):
    name: str
    x: Var

    def __post_init__(self):
        if self.name in RESERVED:
            raise FormulaError(f"label name {self.name!r} is reserved")

    def variables(self) -> tuple[Var, ...]:
        return (self.x,)

    def rename(self, env: dict[Var, Var]) -> Formula:
        return Label(self.name, env.get(self.x, self.x))


@dataclass(frozen=True)
class Defined(_Atom):
    """``body`` with its free variables ``params`` standing for ``args``."""

    body: Formula
    params: tuple[Var, ...]
    args: tuple[Var, ...]

    def variables(self) -> tuple[Var, ...]:
        return self.args

    def rename(self, env: dict[Var, Var]) -> Formula:
        return Defined(self.body, self.params, tuple(env.get(a, a) for a in self.args))


@dataclass(frozen=True)
class Not(_Unary):
    sub: Formula


@dataclass(frozen=True)
class And(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(_Binary):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(_Quantifier):
    var: Var
    sub: Formula


@dataclass(frozen=True)
class Forall(_Quantifier):
    var: Var
    sub: Formula


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
    inner = frozenset().union(*map(free_vars, f.children()))
    if isinstance(f, _Quantifier):
        return inner - {f.var}
    return inner.union(f.variables())


def all_var_names(f: Formula) -> set[str]:
    return {v.name for node in walk(f) for v in node.variables()}


def label_names(f: Formula) -> frozenset[str]:
    return frozenset(n.name for n in walk(f) if isinstance(n, Label))


def quantifier_depth(f: Formula) -> int:
    """Quantifier depth, counting the quantifiers inside defined atoms."""
    if isinstance(f, Defined):
        return quantifier_depth(f.body)
    return (isinstance(f, _Quantifier)
            + max(map(quantifier_depth, f.children()), default=0))


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(n, _Quantifier)
                   or isinstance(n, Defined) and not is_quantifier_free(n.body)
                   for n in walk(f))


def is_existential(f: Formula) -> bool:
    """True for sentences of the form ``exists x1 ... exists xk. qf``."""
    while isinstance(f, Exists):
        f = f.sub
    return is_quantifier_free(f)


def formula_signature(f: Formula) -> Optional[str]:
    """GRAPH, POSET, or None when the formula fits both signatures."""
    kinds = {type(n) for n in walk(f)}
    has_edge, has_leq = Edge in kinds, Leq in kinds
    if has_edge and has_leq:
        raise SignatureError("formula mixes edge and <= atoms")
    if has_edge:
        return GRAPH
    if has_leq:
        return POSET
    return None


def check_signature(f: Formula, signature: str) -> None:
    if signature not in (GRAPH, POSET):
        raise SignatureError(f"unknown signature {signature!r}")
    got = formula_signature(f)
    if got is not None and got != signature:
        raise SignatureError(f"{got} atom used under {signature} signature")


class FreshVars:
    """Deterministic fresh-name supply avoiding a set of used names."""

    def __init__(self, used: Iterable[str] = ()):
        self.used = set(used)
        self._counters: dict[str, int] = {}

    def fresh(self, base: str = "z") -> Var:
        n = self._counters.get(base, 0)
        while True:
            n += 1
            name = f"{base}_{n}"
            if name not in self.used:
                break
        self._counters[base] = n
        self.used.add(name)
        return Var(name)


def map_atoms(f: Formula, fn) -> Formula:
    """``f`` with every atom ``a`` replaced by ``fn(a)``."""
    if isinstance(f, _Atom):
        return fn(f)
    return f.rebuild([map_atoms(k, fn) for k in f.children()])


def instantiate(f: Formula, mapping: dict[Var, Var], fresh: FreshVars) -> Formula:
    """Substitute free variables and rename every bound variable fresh.

    Renaming all binders makes the substitution capture-avoiding without a
    case analysis, at the cost of longer names in the output.
    """

    def rec(g: Formula, env: dict[Var, Var]) -> Formula:
        if isinstance(g, _Atom):
            return g.rename(env)
        if isinstance(g, _Quantifier):
            nv = fresh.fresh(g.var.name.rstrip("_0123456789") or "z")
            return type(g)(nv, rec(g.sub, {**env, g.var: nv}))
        return g.rebuild([rec(k, env) for k in g.children()])

    return rec(f, dict(mapping))


@dataclass(frozen=True)
class Interpretation:
    """A pair (nu, psi) of poset formulas defining a graph inside a poset.

    ``nu`` has the single free variable ``nu_var``; ``psi`` has exactly the
    two free variables ``psi_vars`` (in that argument order).  ``labels`` is
    the label vocabulary the formulas may mention.
    """

    nu: Formula
    psi: Formula
    labels: frozenset[str] = frozenset()
    nu_var: Var = Var("x")
    psi_vars: tuple[Var, Var] = (Var("x"), Var("y"))

    def __post_init__(self):
        check_signature(self.nu, POSET)
        check_signature(self.psi, POSET)
        if free_vars(self.nu) != {self.nu_var}:
            raise FormulaError("nu must have exactly its declared free variable")
        if free_vars(self.psi) != set(self.psi_vars):
            raise FormulaError("psi must have exactly its two declared free variables")
        undeclared = (label_names(self.nu) | label_names(self.psi)) - self.labels
        if undeclared:
            raise FormulaError(f"undeclared labels in interpretation: {sorted(undeclared)}")


def rewrite_under_interpretation(phi: Formula, interp: Interpretation) -> Formula:
    """Rewrite a graph sentence into the poset sentence phi^I.

    edge(x,y) becomes !(x=y) & (psi(x,y) | psi(y,x)); each quantifier is
    relativized to nu.  nu and psi enter as defined atoms naming the
    interpretation's formulas, so nothing is copied.  The disequality guard
    keeps the diagonal faithful: the interpreted edge set ranges over
    distinct pairs, while psi(u,u) may well hold in the poset even though
    edge(u,u) is false in every simple graph.
    """
    if free_vars(phi):
        raise FormulaError("rewrite requires a sentence (no free variables)")
    check_signature(phi, GRAPH)

    def rec(g: Formula) -> Formula:
        if isinstance(g, Edge):
            return And(Not(Eq(g.x, g.y)), Or(Defined(interp.psi, interp.psi_vars, (g.x, g.y)),
                                             Defined(interp.psi, interp.psi_vars, (g.y, g.x))))
        if isinstance(g, _Quantifier):
            nu = Defined(interp.nu, (interp.nu_var,), (g.var,))
            return type(g)(g.var, (And if isinstance(g, Exists) else Implies)(nu, rec(g.sub)))
        return g.rebuild([rec(k) for k in g.children()])

    return rec(phi)


def expand(f: Formula) -> Formula:
    """The pure first-order formula of ``f``.

    Each defined atom becomes a copy of its body with the parameters replaced
    by the arguments and every bound variable renamed fresh, in pre-order,
    left to right, avoiding every name in ``f`` and in the bodies it uses.
    """
    bodies = {id(n.body): n.body for n in walk(f) if isinstance(n, Defined)}
    fresh = FreshVars(all_var_names(f).union(*map(all_var_names, bodies.values())))
    return map_atoms(f, lambda g: instantiate(g.body, dict(zip(g.params, g.args)), fresh)
                     if isinstance(g, Defined) else g)


def complement_edges(phi: Formula) -> Formula:
    """Replace every edge(x,y) by (!edge(x,y) & !(x=y)).

    Used when a construction hands us the complement of the intended graph
    (reversed permutation representations, complement-flagged witnesses).
    """
    return map_atoms(phi, lambda g: And(Not(g), Not(Eq(g.x, g.y))) if isinstance(g, Edge) else g)


# ---------------------------------------------------------------------------
# printing

_QUANT, _IMPL, _OR, _AND, _UNARY = range(5)


# binary connective -> (infix, own level, left operand level, right operand level)
_INFIX = {Implies: (" -> ", _IMPL, _OR, _IMPL), Or: (" | ", _OR, _OR, _AND),
          And: (" & ", _AND, _AND, _UNARY)}


def print_formula(f: Formula) -> str:
    """The concrete syntax of ``expand(f)``."""

    def rec(g: Formula, level: int) -> str:
        if isinstance(g, Edge):
            return f"edge({g.x},{g.y})"
        if isinstance(g, Leq):
            return f"{g.x}<={g.y}"
        if isinstance(g, Eq):
            return f"{g.x}={g.y}"
        if isinstance(g, Label):
            return f"{g.name}({g.x})"
        if isinstance(g, Not):
            return "!" + rec(g.sub, _UNARY)
        if isinstance(g, _Quantifier):
            kw = "exists" if isinstance(g, Exists) else "forall"
            s, own = f"{kw} {g.var}. {rec(g.sub, _QUANT)}", _QUANT
        else:
            infix, own, left, right = _INFIX[type(g)]
            s = rec(g.left, left) + infix + rec(g.right, right)
        return f"({s})" if level > own else s

    return rec(expand(f), _QUANT)


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
        kind, val, pos = self.peek()
        if kind == "ident" and val in ("exists", "forall"):
            self.next()
            v = self.variable()
            self.expect(".")
            body = self.formula()
            return Exists(v, body) if val == "exists" else Forall(v, body)
        return self.impl()

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek()[1] == "->":
            self.next()
            return Implies(left, self.impl())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek()[1] == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "!":
            self.next()
            return Not(self.unary())
        if val == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

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


def efo_to_patterns(phi: Formula, max_vars: Optional[int] = None) -> list:
    """All pattern graphs equivalent to an EFO sentence.

    Enumerates every identification of the quantified variables and every
    (labelled) graph on the identified vertex set whose induced evaluation
    satisfies the matrix.  ``G |= phi`` iff some returned pattern embeds in
    ``G`` as an induced (label-respecting) subgraph.
    """
    from .checker import eval_structure
    from .generators import size_cap
    from .geometry import LabeledGraph

    if max_vars is None:
        max_vars = size_cap(6)
    vs: list[Var] = []
    body = phi
    while isinstance(body, Exists):
        vs.append(body.var)
        body = body.sub
    if not vs or not is_quantifier_free(body):
        raise FormulaError("not an EFO sentence with quantifier-free matrix")
    if free_vars(body) - set(vs):
        raise FormulaError("matrix has free variables outside the prefix")
    if len(vs) > max_vars:
        raise FormulaError(f"EFO prefix of {len(vs)} variables exceeds bound {max_vars}")
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
