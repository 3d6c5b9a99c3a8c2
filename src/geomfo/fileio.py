"""Line-oriented ASCII formats for representations, posets and graphs.

All coordinates are reduced rationals written as ``p/q`` (plain integers
allowed).  Comment lines start with ``#``.  Emitting and re-reading any of
these files reproduces an identical structure.  An object of an
intersection class is one line, its keyword and then its coordinates, as
``geometry._OBJECTS`` lists them; a visibility file holds one polygon.
"""

from __future__ import annotations

from . import GeomfoError
from .formula import Formula, parse_formula, print_formula
from .geometry import (_OBJECTS, LabeledGraph, Polygon, Representation, format_rat,
                       parse_rat)
from .poset import LabeledPoset, transitive_closure


class FileFormatError(GeomfoError):
    pass


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(f"bad integer {text!r}") from None


def _lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def write_representation(rep: Representation) -> str:
    out = [f"class {rep.cls}"]
    if rep.cls == "visibility":
        if len(rep.objects) != 1:
            raise FileFormatError("a visibility representation holds one polygon")
        out += ["polygon"] + [f"pt {format_rat(x)} {format_rat(y)}"
                              for x, y in rep.objects[0].vertices]
    else:
        spec = _OBJECTS[rep.cls]
        for obj in rep.objects:
            if not isinstance(obj, spec.type):
                raise FileFormatError(f"cannot serialize {obj!r}")
            out.append(" ".join([spec.keyword, *map(format_rat, spec.coords(obj))]))
    return "\n".join(out) + "\n"


def read_representation(text: str) -> Representation:
    lines = _lines(text)
    if not lines or lines[0][0] != "class" or len(lines[0]) != 2:
        raise FileFormatError("representation must start with 'class <name>'")
    cls, body = lines[0][1], lines[1:]
    if cls == "visibility":
        if not body or body[0][0] != "polygon":
            raise FileFormatError("visibility representation needs a polygon line first")
        pts = []
        for parts in body[1:]:
            if parts[0] == "polygon":
                raise FileFormatError("a visibility representation holds one polygon")
            if parts[0] != "pt" or len(parts) != 3:
                raise FileFormatError(f"bad polygon line: {' '.join(parts)}")
            pts.append((parse_rat(parts[1]), parse_rat(parts[2])))
        return Representation("visibility", (Polygon(tuple(pts)),))

    if cls not in _OBJECTS:
        raise FileFormatError(f"unknown representation class {cls!r}")
    spec = _OBJECTS[cls]
    objs = []
    for parts in body:
        if parts[0] != spec.keyword or len(parts) != len(spec.names) + 1:
            raise FileFormatError(f"bad object line for class {cls}: {' '.join(parts)}")
        objs.append(spec.make(*[parse_rat(p) for p in parts[1:]]))
    return Representation(cls, tuple(objs))


def _write_pairs(header: str, n: int, keyword: str, pairs, labels) -> str:
    """The graph and poset format: ``<header> <n>``, one ``<keyword> a b``
    line per pair, then one ``label <name> v`` line per labelled element."""
    out = [f"{header} {n}"]
    out += [f"{keyword} {a} {b}" for a, b in pairs]
    for name in sorted(labels):
        out += [f"label {name} {v}" for v in sorted(labels[name])]
    return "\n".join(out) + "\n"


def _read_pairs(text: str, header: str,
                keyword: str) -> tuple[int, list[tuple[int, int]], dict[str, set[int]]]:
    """(n, pairs, labels) of a file in ``_write_pairs``' format."""
    lines = _lines(text)
    if not lines or lines[0][0] != header or len(lines[0]) != 2:
        raise FileFormatError(f"{header} must start with '{header} <n>'")
    n = _int(lines[0][1])
    pairs = []
    labels: dict[str, set[int]] = {}
    for parts in lines[1:]:
        if parts[0] == keyword and len(parts) == 3:
            pairs.append((_int(parts[1]), _int(parts[2])))
        elif parts[0] == "label" and len(parts) == 3:
            labels.setdefault(parts[1], set()).add(_int(parts[2]))
        else:
            raise FileFormatError(f"bad {header} line: {' '.join(parts)}")
    return n, pairs, labels


def write_poset(p: LabeledPoset) -> str:
    return _write_pairs("poset", p.n, "lt", p.pairs(), p.labels)


def read_poset(text: str) -> LabeledPoset:
    """The poset of a file listing its whole strict order.

    The order is checked on bit rows, with no n x n matrix: its pairs must
    have no cycle (``transitive_closure`` raises ``PosetError`` on one) and
    closing them must add no pair.
    """
    n, lt, labels = _read_pairs(text, "poset", "lt")
    p = LabeledPoset(n, lt, labels)
    if list(p.rows) != transitive_closure(n, lt):
        raise FileFormatError("the lt lines are not transitively closed")
    return p


def write_graph(g: LabeledGraph) -> str:
    return _write_pairs("graph", g.n, "edge", sorted(g.edges), g.labels)


def read_graph(text: str) -> LabeledGraph:
    return LabeledGraph(*_read_pairs(text, "graph", "edge"))


def write_interpretation_formulas(nu: Formula, psi: Formula) -> str:
    return f"nu {print_formula(nu)}\npsi {print_formula(psi)}\n"


def read_interpretation_formulas(text: str, signature: str) -> tuple[Formula, Formula]:
    nu = psi = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "nu":
            nu = parse_formula(rest, signature)
        elif key == "psi":
            psi = parse_formula(rest, signature)
        else:
            raise FileFormatError(f"bad interpretation line: {line}")
    if nu is None or psi is None:
        raise FileFormatError("interpretation file needs both nu and psi")
    return nu, psi
