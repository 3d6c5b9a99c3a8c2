"""Exact-rational geometric representations and their graphs.

The API takes and returns ``fractions.Fraction`` coordinates; there is no
floating point anywhere.  The predicates themselves run on Python ints: a
polygon or a representation is rescaled once by the lcm of its coordinates'
denominators, and every test after that is integer arithmetic, so predicates
are exact and scale-invariant.  One boundary scan, ``_boundary_hits``,
finds whether an edge properly crosses a segment and which vertices lie on
it.  It decides whether a polygon is simple (each edge meets the boundary
only at its own two ends) and, with the cone tests, whether a segment from
a vertex lies in the polygon, both toward another vertex and toward a
vertex's perpendicular foot on the closing edge; the foot is a point of the
polygon's grid scaled once more, by the squared length of that edge.
The proper parts of an interval family (``_proper_parts``) work on
endpoint ranks, and the poset builders take integers.
Angular positions live in [0,1) turns measured clockwise from angle
0 (a half turn is exactly 1/2).

Each intersection class is described once, in ``_OBJECTS``: its object
type, file keyword, coordinates in file order and constructor, and the
array predicate that decides which objects meet.  File I/O and intersection
graphs both read that table.  An intersection graph comes from the class's
predicate, evaluated over row blocks of at most ``_PAIR_CELLS`` object
pairs, so no n x n array is allocated.  Interval,
arc, chord, permutation and box tests only compare coordinates, so they
run on int64 dense ranks of the rescaled ints (equal values share a rank,
so every ``<``, ``<=`` and tie is kept).  The unit-disk test
``dx^2 + dy^2 <= S^2`` runs on int64 when every scaled coordinate, the
unit S included, is below 2^30 in absolute value, so no term can
overflow, and otherwise on Python ints in an object array.
``_checked_objects`` checks a representation's class and object types,
once, for ``_grid`` (the one rescale of an intersection class) and for
``_single_polygon``.

Intersection semantics: closed-set intersection for intervals, arcs, boxes
and disks (tangency is an edge); strict crossing for chords and permutation
segments (shared endpoints are not an edge).  Every class breaks ties by a
rule on ranks, never by moving a coordinate.  Tied permutation coordinates
are broken once, by ``_permutation_ranks``, so that tied segments never
cross; the chord map and the permutation instance read only those ranks.
The interval-family instances order tied ends by ``interpret._tie_keys``.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import GeomfoError

Point = tuple[Fraction, Fraction]


class GeometryError(GeomfoError):
    pass


def rat(x) -> Fraction:
    """``x`` as an exact Fraction, as ``Fraction(x)`` reads it: a finite
    float converts exactly.  What Fraction refuses raises GeometryError."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise GeometryError(f"not a finite rational: {x!r}") from None


def parse_rat(text: str) -> Fraction:
    """The rational ``Fraction(text)`` reads.  Text that is exactly ``-?digits``
    or ``-?digits/digits`` in ASCII, the form files are written in, is read
    by ``int``; everything else, and a zero denominator, goes to ``Fraction``,
    so the accepted language and every error message are ``Fraction``'s."""
    try:
        num, slash, den = text.partition("/")
        if text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isdigit():
                n, d = int(num), int(den)
                if d:
                    return Fraction(n, d)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GeometryError(f"bad rational {text!r}: {exc}") from None


def format_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _exact(obj) -> None:
    """Store every field of a frozen coordinate object as a Fraction."""
    for name in _field_names(type(obj)):
        object.__setattr__(obj, name, rat(getattr(obj, name)))


# ---------------------------------------------------------------------------
# object types

@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        _exact(self)
        if not self.lo < self.hi:
            raise GeometryError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Arc:
    """Circle arc from ``start`` clockwise to ``end``; wraps 0 iff start > end."""

    start: Fraction
    end: Fraction

    def __post_init__(self):
        _exact(self)
        for p in (self.start, self.end):
            if not 0 <= p < 1:
                raise GeometryError(f"arc endpoint {p} outside [0,1)")
        if self.start == self.end:
            raise GeometryError("degenerate arc")

    def wraps(self) -> bool:
        return self.start > self.end

    def length(self) -> Fraction:
        return (self.end - self.start) % 1


@dataclass(frozen=True)
class Chord:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        _exact(self)
        for p in (self.a, self.b):
            if not 0 <= p < 1:
                raise GeometryError(f"chord endpoint {p} outside [0,1)")
        if self.a == self.b:
            raise GeometryError("degenerate chord")


@dataclass(frozen=True)
class PermSegment:
    top: Fraction
    bottom: Fraction

    __post_init__ = _exact


@dataclass(frozen=True)
class Box:
    x: Interval
    y: Interval


@dataclass(frozen=True)
class Disk:
    """Disk of diameter 1 centered at (cx, cy)."""

    cx: Fraction
    cy: Fraction

    __post_init__ = _exact


@dataclass(frozen=True)
class Representation:
    cls: str
    objects: tuple

    def __post_init__(self):
        if self.cls not in ALL_CLASSES:
            raise GeometryError(f"unknown representation class {self.cls!r}")


# ---------------------------------------------------------------------------
# labelled graphs

def bit_matrix(n: int, rows: Sequence[int]) -> np.ndarray:
    """The n x n boolean matrix of packed bit rows: entry [a, b] iff bit b of rows[a]."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in rows]),
                           dtype=np.uint8).reshape(n, width)
    # unpacked bits are 0 or 1, so they read as bool in place: no second n x n copy
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _packed_rows(m: np.ndarray) -> tuple[int, ...]:
    """The bit rows of a square boolean matrix: bit b of row a is m[a, b]."""
    packed = np.packbits(m, axis=1, bitorder="little")
    width, buf = packed.shape[1], packed.tobytes()
    return tuple([int.from_bytes(buf[a * width:(a + 1) * width], "little") for a in range(len(m))])


def symmetric_rows(rel: np.ndarray) -> tuple[int, ...]:
    """The bit rows of the loop-free graph with an edge ab iff rel[a, b] or rel[b, a]."""
    m = rel | rel.T
    np.fill_diagonal(m, False)
    return _packed_rows(m)


def _check_adjacency(m: np.ndarray) -> None:
    """Refuse an adjacency matrix with a loop or an asymmetric pair."""
    if m.diagonal().any() or (m != m.T).any():
        raise GeometryError("adjacency rows must be loop-free and symmetric")


class LabeledGraph:
    """Finite simple graph with named vertex-label sets.

    The adjacency is held once, as packed bit rows (bit v of ``rows[u]`` is
    set iff uv is an edge), the form of ``LabeledPoset``'s order.  They are
    given to the constructor, as rows, edges or both (their union), and
    cannot be reassigned; ``edges``, ``neighbors`` and the rest derive from them.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 labels: Optional[dict[str, Iterable[int]]] = None,
                 rows: Optional[Sequence[int]] = None):
        self.n = n
        acc = list(rows) if rows is not None else [0] * n
        if len(acc) != n or acc and (min(acc) < 0 or max(acc) >> n):
            raise GeometryError(f"adjacency needs {n} rows of bits 0..{n - 1}")
        for u, v in edges:
            if u == v:
                raise GeometryError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GeometryError(f"edge ({u},{v}) outside 0..{n - 1}")
            acc[u] |= 1 << v
            acc[v] |= 1 << u
        self._rows: tuple[int, ...] = tuple(acc)
        self._matrix: Optional[np.ndarray] = None
        if rows is not None:
            _check_adjacency(self.adjacency_matrix())
        labs = {}
        for name, vs in (labels or {}).items():
            vs = frozenset(vs)
            if any(not 0 <= v < n for v in vs):
                raise GeometryError(f"label {name!r} mentions a vertex outside 0..{n - 1}")
            labs[name] = vs
        self.labels: dict[str, frozenset[int]] = labs
        self._edges: Optional[frozenset[tuple[int, int]]] = None
        self._nbrs: Optional[list[frozenset[int]]] = None

    @classmethod
    def _from_pairs(cls, n: int, i: np.ndarray, j: np.ndarray) -> "LabeledGraph":
        """The unlabelled graph whose edges are the pairs (i[t], j[t]); every
        pair must have 0 <= i[t] < j[t] < n, which is checked on the arrays.
        The adjacency matrix is built once, checked as the constructor checks
        rows, packed into the rows and kept as ``adjacency_matrix``."""
        bad = (i < 0) | (i >= j) | (j >= n)
        if bad.any():
            t = int(np.argmax(bad))
            raise GeometryError(f"edge ({i[t]},{j[t]}) is not a pair 0 <= i < j < {n}")
        m = np.zeros((n, n), dtype=bool)
        m[i, j] = m[j, i] = True
        _check_adjacency(m)
        g = cls(n)
        g._rows, g._matrix = _packed_rows(m), m
        m.flags.writeable = False
        return g

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            i, j = np.nonzero(self.adjacency_matrix())
            upper = i < j
            self._edges = frozenset(zip(i[upper].tolist(), j[upper].tolist()))
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def adjacency_matrix(self) -> np.ndarray:
        """The n x n boolean adjacency matrix, unpacked from the rows once; read-only."""
        if self._matrix is None:
            self._matrix = bit_matrix(self.n, self._rows)
            self._matrix.flags.writeable = False
        return self._matrix

    def neighbors(self, v: int) -> frozenset[int]:
        if self._nbrs is None:
            self._nbrs = [frozenset(np.flatnonzero(r).tolist()) for r in self.adjacency_matrix()]
        return self._nbrs[v]

    def complement(self) -> "LabeledGraph":
        full = (1 << self.n) - 1
        return LabeledGraph(self.n, labels=self.labels,
                            rows=[full ^ r ^ 1 << u for u, r in enumerate(self._rows)])

    def induced(self, vertices: Sequence[int]) -> "LabeledGraph":
        """Induced subgraph; vertex i of the result is vertices[i]."""
        idx = {v: i for i, v in enumerate(vertices)}
        if len(idx) != len(vertices):
            raise GeometryError("duplicate vertices in induced-subgraph request")
        keep = np.array(vertices, dtype=np.intp)
        labs = {name: frozenset(idx[v] for v in vs if v in idx)
                for name, vs in self.labels.items()}
        m = self.adjacency_matrix()[np.ix_(keep, keep)]
        return LabeledGraph(len(vertices), labels=labs, rows=symmetric_rows(m))

    def with_labels(self, labels: dict[str, Iterable[int]]) -> "LabeledGraph":
        merged = dict(self.labels)
        for name, vs in labels.items():
            merged[name] = frozenset(vs)
        return LabeledGraph(self.n, labels=merged, rows=self._rows)

    def __eq__(self, other):
        return (isinstance(other, LabeledGraph) and self.n == other.n
                and self._rows == other._rows and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self._rows, tuple(sorted(self.labels.items()))))

    def __repr__(self):
        return f"LabeledGraph(n={self.n}, m={sum(r.bit_count() for r in self._rows) // 2})"


def true_twins(g: LabeledGraph, u: int, v: int) -> bool:
    """Closed neighbourhoods coincide (u,v adjacent and same neighbours)."""
    return u != v and g.has_edge(u, v) and g.rows[u] | 1 << u == g.rows[v] | 1 << v


# ---------------------------------------------------------------------------
# intersection graphs

# Tuples and star-arguments on the per-instance paths, here and in
# ``checker``, are built from lists, not generators.  CPython builds a tuple
# from a generator at a guessed size and then resizes it, and once freed the
# tuple waits on the free list of its final size until a full collection.
# Where few full collections run (agreement_mix, once the rewrite table
# serves most rewrites), those lists filled towards their cap of 2000 per
# size: 1.2 MB more after 40 passes, and peak RSS about 2.5 MB higher.

def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators of ``values``, and each value times it."""
    scale = math.lcm(*[c.denominator for c in values])
    return scale, [c.numerator * (scale // c.denominator) for c in values]


_PAIR_CELLS = 1 << 20  # object pairs in one row block of an intersection test
_INT64_SAFE = 1 << 30   # disk coordinates below this in absolute value stay int64


# Array intersection tests: ``p`` holds the coordinate columns of a row block
# as (rows, 1) arrays, ``q`` those of the other objects as flat arrays, and
# each test broadcasts to a (rows, others) boolean block.  ``unit`` is the
# length 1 at the coordinates' common scale; only a test that does
# arithmetic on unranked coordinates reads it.

def _intervals_meet(p, q, unit):
    return (p[0] <= q[1]) & (q[0] <= p[1])


def _arc_holds(start, end, t):
    return np.where(start < end, (start <= t) & (t <= end), (t >= start) | (t <= end))


def _arcs_meet(p, q, unit):
    """Two arcs meet iff one holds the other's start."""
    return _arc_holds(p[0], p[1], q[0]) | _arc_holds(q[0], q[1], p[0])


def _chords_cross(p, q, unit):
    """With each chord's ends in increasing order, the four ends alternate."""
    a, b = np.minimum(p[0], p[1]), np.maximum(p[0], p[1])
    c, d = np.minimum(q[0], q[1]), np.maximum(q[0], q[1])
    return ((a < c) & (c < b) & (b < d)) | ((c < a) & (a < d) & (d < b))


def _segments_meet(p, q, unit):
    return ((p[0] < q[0]) & (q[1] < p[1])) | ((q[0] < p[0]) & (p[1] < q[1]))


def _boxes_meet(p, q, unit):
    return (p[0] <= q[1]) & (q[0] <= p[1]) & (p[2] <= q[3]) & (q[2] <= p[3])


def _disks_meet(p, q, unit):
    """Centres at most one diameter, ``unit``, apart."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy <= unit * unit


class _Objects:
    """What the objects of one intersection class are: instances of
    ``type``, written after ``keyword`` in a file.

    ``names`` are the object's coordinates in file order (``x.lo`` is the
    ``lo`` of its ``x``), read together by ``coords``; ``make`` builds the
    object from them.  ``ranks`` groups the coordinate columns whose dense
    ranks the array test ``meets`` reads; it is None for a test that does
    arithmetic, which reads the scaled ints themselves.
    """

    def __init__(self, type_: type, keyword: str, names: tuple[str, ...], make: Callable,
                 ranks: Optional[tuple[tuple[int, ...], ...]], meets: Callable):
        self.type, self.keyword, self.names, self.make = type_, keyword, names, make
        self.ranks, self.meets, self.coords = ranks, meets, operator.attrgetter(*names)


# The one description of each intersection class: file I/O, intersection
# graphs both read it.
_OBJECTS = {
    "interval": _Objects(Interval, "interval", ("lo", "hi"), Interval, ((0, 1),),
                         _intervals_meet),
    "circular_arc": _Objects(Arc, "arc", ("start", "end"), Arc, ((0, 1),), _arcs_meet),
    "circle": _Objects(Chord, "chord", ("a", "b"), Chord, ((0, 1),), _chords_cross),
    "permutation": _Objects(PermSegment, "perm", ("top", "bottom"), PermSegment,
                            ((0,), (1,)), _segments_meet),
    "box": _Objects(Box, "box", ("x.lo", "x.hi", "y.lo", "y.hi"),
                    lambda xlo, xhi, ylo, yhi: Box(Interval(xlo, xhi), Interval(ylo, yhi)),
                    ((0, 1), (2, 3)), _boxes_meet),
    "unit_disk": _Objects(Disk, "disk", ("cx", "cy"), Disk, None, _disks_meet),
}
INTERSECTION_CLASSES = tuple(_OBJECTS)
ALL_CLASSES = INTERSECTION_CLASSES + ("visibility",)


def _dense_ranks(values: Sequence[int]) -> np.ndarray:
    """int64 ranks of ``values`` from one sort; equal values share a rank."""
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return np.array([rank[v] for v in values], dtype=np.int64)


def _test_columns(cls: str, keys: Sequence[int], unit: int) -> list[np.ndarray]:
    """The coordinate columns the test of ``cls`` reads, from the objects'
    integer coordinates in file order, one object after another."""
    spec = _OBJECTS[cls]
    width = len(spec.names)
    cols = [keys[k::width] for k in range(width)]
    if spec.ranks is None:
        small = unit < _INT64_SAFE and all(-_INT64_SAFE < v < _INT64_SAFE for v in keys)
        return [np.array(col, dtype=np.int64 if small else object) for col in cols]
    out: list = [None] * width
    n = len(cols[0])
    for group in spec.ranks:
        ranks = _dense_ranks([v for k in group for v in cols[k]])
        for t, k in enumerate(group):
            out[k] = ranks[t * n:(t + 1) * n]
    return out


def _pair_arrays(cls: str, keys: Sequence[int], unit: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the meeting pairs, i < j, in lexicographic order.

    ``keys`` holds each object's coordinates in file order, one object after
    another, as ints at one common scale, at which 1 is ``unit``.  Row block
    [start, stop) is tested against objects start+1.. only, and the block's
    lower triangle is dropped.
    """
    spec = _OBJECTS[cls]
    n = len(keys) // len(spec.names)
    if n < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    cols = _test_columns(cls, keys, unit)
    step = max(1, _PAIR_CELLS // n)
    iis, jjs = [], []
    for start in range(0, n - 1, step):
        stop = min(start + step, n - 1)
        hit = spec.meets([c[start:stop, None] for c in cols], [c[start + 1:] for c in cols], unit)
        a, t = np.nonzero(np.triu(hit))
        iis.append(a + start)
        jjs.append(t + start + 1)
    return np.concatenate(iis), np.concatenate(jjs)


def _checked_objects(cls: str, rep: Representation) -> tuple:
    """The objects of ``rep``, after the one check of a representation for
    every class: it is of class ``cls``, and each object is of the class's
    type (``Polygon`` for visibility).  One pass over the objects."""
    if rep.cls != cls:
        raise GeometryError(f"representation is of class {rep.cls!r}, not {cls!r}")
    want = Polygon if cls == "visibility" else _OBJECTS[cls].type
    for obj in rep.objects:
        if not isinstance(obj, want):
            raise GeometryError(f"object {obj!r} is not a {want.__name__}")
    return rep.objects


def _grid(cls: str, rep: Representation) -> tuple[int, list[int]]:
    """The one rescale of a representation of an intersection class, after
    ``_checked_objects``: the objects' coordinates in file order, one object
    after another, through ``_scaled``."""
    if cls not in INTERSECTION_CLASSES:
        raise GeometryError(f"not an intersection class: {cls!r}")
    coords = _OBJECTS[cls].coords
    return _scaled([c for o in _checked_objects(cls, rep) for c in coords(o)])


def build_intersection_graph(cls: str, rep: Representation) -> LabeledGraph:
    """Intersection graph of a representation; vertex order = input order."""
    scale, keys = _grid(cls, rep)
    return LabeledGraph._from_pairs(len(rep.objects), *_pair_arrays(cls, keys, scale))


def _permutation_ranks(keys: Sequence[int]) -> tuple[list[int], list[int]]:
    """Each segment's rank among the tops and among the bottoms, 0..n-1, from
    the segments' (top, bottom) at a common scale, one after another.

    The one rule for tied coordinates: ties on the top line are ordered by
    bottom, then by index, and ties on the bottom line by top rank, so tied
    segments never cross, and the ranks cross exactly where the segments do.
    """
    n = len(keys) // 2
    top, bottom = [0] * n, [0] * n
    for r, i in enumerate(sorted(range(n), key=lambda i: (keys[2 * i], keys[2 * i + 1], i))):
        top[i] = r
    for r, i in enumerate(sorted(range(n), key=lambda i: (keys[2 * i + 1], top[i]))):
        bottom[i] = r
    return top, bottom


def _rank_chord_ends(top: Sequence[int], bottom: Sequence[int]) -> tuple[int, list[int]]:
    """Chords of segments given by their ranks, as ends at the scale d =
    2(n + 1), chord i at 2i, 2i+1: top ranks map in order into (0, 1/2),
    bottom ranks in reverse order into (1/2, 1)."""
    n = len(top)
    return 2 * (n + 1), [k for t, b in zip(top, bottom) for k in (t + 1, 2 * n + 1 - b)]


def permutation_to_chords(segments: Sequence[PermSegment]) -> list[Chord]:
    """Map segments between two parallel lines to chords of a circle.

    The chords are placed by ``_permutation_ranks``, so crossings are
    preserved exactly, tied coordinates included.
    """
    _, keys = _grid("permutation", Representation("permutation", tuple(segments)))
    d, ends = _rank_chord_ends(*_permutation_ranks(keys))
    return [Chord(Fraction(a, d), Fraction(b, d)) for a, b in zip(ends[::2], ends[1::2])]


# ---------------------------------------------------------------------------
# proper partitions

def increasing_run_lengths(keys: Sequence) -> list[int]:
    """Length of the longest strictly increasing subsequence of ``keys`` that
    ends at each position, by patience sorting in O(n log n)."""
    tails: list = []  # tails[d]: least last key of such a subsequence of length d + 1
    out = []
    for key in keys:
        d = bisect.bisect_left(tails, key)
        tails[d:d + 1] = [key]
        out.append(d + 1)
    return out


def _proper_parts(by_value: Sequence[int], rank: Sequence[int]) -> tuple[int, list[int]]:
    """Mirsky decomposition of the containment order, on endpoint ranks:
    item i's ends are positions 2i and 2i+1, and ``by_value`` lists the
    positions of the items to partition in increasing order.

    Returns (k, assignment) where the part of item i counts the longest
    chain of items nested around item i (itself included); items left out
    get part 0.  k is minimal, i.e. the family is k-fold proper but not
    (k-1)-fold proper.  On distinct ranks, the items around i come
    before it in left-end order and end after it, so its part is a longest
    strictly decreasing run of right-end ranks in that order.
    """
    order = [e >> 1 for e in by_value if not e & 1]  # items by left end
    h = [0] * (len(rank) // 2)
    for i, depth in zip(order, increasing_run_lengths([-rank[2 * i + 1] for i in order])):
        h[i] = depth
    return (max(h, default=0), h)


# ---------------------------------------------------------------------------
# exact planar predicates

def orient(o: Point, a: Point, b: Point) -> int:
    """Sign of the cross product (a-o) x (b-o): +1 left turn, -1 right, 0 collinear."""
    v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# polygons

@dataclass(frozen=True)
class Polygon:
    """Simple polygon, vertices clockwise; first vertex is u, last is v.

    The closing edge v->u is the distinguished edge (the weak-visibility
    edge for the theorems that need one).  ``_grid`` holds the vertices
    scaled once to a common denominator; the predicates run on it.
    ``_graph`` holds the visibility graph once ``visibility_graph`` has
    built it, so every caller shares one graph, which cannot change.
    """

    vertices: tuple[Point, ...]
    _grid: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _graph: Optional[LabeledGraph] = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        pts = tuple((rat(x), rat(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", pts)
        _, flat = _scaled([c for pt in pts for c in pt])
        grid = tuple([*zip(flat[::2], flat[1::2])])
        object.__setattr__(self, "_grid", grid)
        if len(pts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        if len(set(pts)) != len(pts):
            raise GeometryError("repeated polygon vertex")
        n = len(pts)
        for i in range(n):
            if orient(grid[i - 1], grid[i], grid[(i + 1) % n]) == 0:
                raise GeometryError(f"three consecutive collinear vertices at index {i}")
        area2 = sum(grid[i][0] * grid[(i + 1) % n][1] - grid[(i + 1) % n][0] * grid[i][1]
                    for i in range(n))
        if area2 >= 0:
            raise GeometryError("polygon vertices must be listed clockwise")
        # Each edge may meet the boundary only at its own two ends.  Adjacent
        # edges share one vertex and, as no three consecutive vertices are
        # collinear, meet nowhere else; two others that meet either cross
        # properly or put a vertex of one on the other.
        for i in range(n):
            hits = _boundary_hits(grid, grid[i], grid[(i + 1) % n])
            if hits is None or len(hits) != 2:
                raise GeometryError("non-adjacent edges intersect; polygon not simple")

    @property
    def n(self) -> int:
        return len(self.vertices)


def _in_cone(grid: Sequence[tuple[int, int]], k: int, t: tuple[int, int]) -> bool:
    """The direction from vertex k toward t lies in k's closed interior cone.

    The polygon is clockwise, so the interior is right of both edges at a
    convex vertex and right of either edge at a reflex one.
    """
    a, o, b = grid[k - 1], grid[k], grid[(k + 1) % len(grid)]
    right_of_in = orient(a, o, t) <= 0
    right_of_out = orient(o, b, t) <= 0
    if orient(a, o, b) < 0:
        return right_of_in and right_of_out
    return right_of_in or right_of_out


def _boundary_hits(grid: Sequence[tuple[int, int]], p: tuple[int, int],
                   q: tuple[int, int]) -> Optional[list[int]]:
    """One pass over the boundary for the closed segment pq: None if an edge
    properly crosses it, else the indices of the vertices on it."""
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    side = [dx * (y - py) - dy * (x - px) for x, y in grid]
    xlo, xhi, ylo, yhi = min(px, q[0]), max(px, q[0]), min(py, q[1]), max(py, q[1])
    hits = []
    for k, o in enumerate(grid):
        s, t = side[k - 1], side[k]
        if (s < 0 < t or t < 0 < s) and (
                orient(grid[k - 1], o, p) * orient(grid[k - 1], o, q) < 0):
            return None
        if t == 0 and xlo <= o[0] <= xhi and ylo <= o[1] <= yhi:
            hits.append(k)
    return hits


def _sight_line(grid: Sequence[tuple[int, int]], i: int, q: tuple[int, int],
                j: Optional[int]) -> bool:
    """The closed segment from vertex i to the point q lies in the closed polygon.

    q is vertex j, or (j None) a point inside the closing edge with vertex i
    strictly on its interior side, so the segment meets that edge at q only
    and leaves it inward.  No edge may properly cross the segment, and every
    other vertex on the closed segment must have the directions toward both
    segment ends (j only toward i) in its closed interior cone.  Vertex i
    needs no cone test: a segment that leaves i outward and ends inside must
    first cross an edge or pass a vertex, which the boundary scan finds.
    """
    p = grid[i]
    hits = _boundary_hits(grid, p, q)
    return hits is not None and all(
        k == i or _in_cone(grid, k, p) and (k == j or _in_cone(grid, k, q)) for k in hits)


def _single_polygon(rep: Representation) -> Polygon:
    """The polygon of a visibility representation, which must hold exactly one,
    after ``_checked_objects``."""
    objects = _checked_objects("visibility", rep)
    if len(objects) != 1:
        raise GeometryError("visibility representation holds a single polygon")
    return objects[0]


def _vertex(poly: Polygon, i: int) -> int:
    """``i``, which must be a vertex index of ``poly``: 0..n-1, no wrapping."""
    if not 0 <= i < poly.n:
        raise GeometryError(f"vertex index {i} outside 0..{poly.n - 1}")
    return i


def sees(poly: Polygon, i: int, j: int) -> bool:
    """Vertices i and j are mutually visible.

    The closed segment between them lies in the closed polygon, so grazing a
    vertex or running along an edge counts.
    """
    i, j = _vertex(poly, i), _vertex(poly, j)
    return i != j and _sight_line(poly._grid, i, poly._grid[j], j)


def sees_foot(poly: Polygon, i: int) -> bool:
    """Vertex i sees its perpendicular foot on the closing edge uv.

    With d = |uv|^2 on the polygon's grid, the foot is u + (t/d)(v - u) for
    the integer t = (p - u).(v - u), so it is a point of the grid scaled by
    d, where ``sees``' predicate decides it.  Only a foot strictly inside uv
    counts, seen from a vertex strictly on the interior side of the edge
    v->u; from the other side the segment reaches uv from outside.
    """
    grid = poly._grid
    (ux, uy), v, p = grid[0], grid[-1], grid[_vertex(poly, i)]
    dx, dy = v[0] - ux, v[1] - uy
    d = dx * dx + dy * dy
    t = (p[0] - ux) * dx + (p[1] - uy) * dy
    return 0 < t < d and orient(v, grid[0], p) < 0 and _sight_line(
        [(x * d, y * d) for x, y in grid], i, (ux * d + t * dx, uy * d + t * dy), None)


def visibility_graph(w: Polygon) -> LabeledGraph:
    """Visibility graph in boundary order u..v; boundary neighbours always adjacent.
    Built on the first call and held by the polygon for every later one."""
    if w._graph is None:
        n, grid = w.n, w._grid
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):  # in range, so not through the checked ``sees``
                if j == i + 1 or (i == 0 and j == n - 1) or _sight_line(grid, i, grid[j], j):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        object.__setattr__(w, "_graph", LabeledGraph(n, rows=rows))
    return w._graph


def reflex_vertices(w: Polygon) -> list[int]:
    grid = w._grid
    n = len(grid)
    return [i for i in range(n)
            if orient(grid[i - 1], grid[i], grid[(i + 1) % n]) > 0]


@dataclass
class PolygonReport:
    polygon: Polygon
    reflex_vertices: list[int]
    ears: list[list[int]]
    is_terrain: bool

    def ear_interiors(self) -> list[list[int]]:
        return [ear[1:-1] for ear in self.ears]

    def is_convex_fan_at(self, v: int) -> bool:
        """Vertex-level test: v is convex and sees every vertex."""
        v = _vertex(self.polygon, v)
        g = visibility_graph(self.polygon)
        return v not in self.reflex_vertices and g.rows[v] | 1 << v == (1 << g.n) - 1

    def weak_visibility_vertexwise(self) -> bool:
        """Every vertex sees an endpoint of the edge uv or its foot on uv.

        The foot is decided on the integer grid, by ``sees_foot``.
        Necessary vertex-level condition only; full weak visibility is a
        continuous property with no finite certificate here.
        """
        poly = self.polygon
        g = visibility_graph(poly)
        last = poly.n - 1
        return all(g.has_edge(i, 0) or g.has_edge(i, last) or sees_foot(poly, i)
                   for i in range(1, last))


def polygon_report(w: Polygon) -> PolygonReport:
    refl = reflex_vertices(w)
    n = w.n
    anchors = [0] + [r for r in refl if 0 < r < n - 1] + [n - 1]
    anchors = sorted(set(anchors))
    ears = [list(range(a, b + 1)) for a, b in zip(anchors, anchors[1:])]

    pts = w.vertices
    u, v = pts[0], pts[-1]
    terrain = (u[1] == 0 and v[1] == 0
               and all(pts[i][1] > 0 for i in range(1, n - 1))
               and all(pts[i][0] <= pts[i + 1][0] for i in range(n - 1))
               and u[0] < v[0])
    return PolygonReport(w, refl, ears, terrain)


# ---------------------------------------------------------------------------
# gradual connectivity and clique-width certificates

def gradually_connected_check(g: LabeledGraph, xs: Sequence[int], ys: Sequence[int]) -> bool:
    """x_j y_i must be an edge and x_i y_j a non-edge for all i < j."""
    if len(xs) != len(ys):
        raise GeometryError("gradual connectivity needs equal-size lists")
    if set(xs) & set(ys):
        raise GeometryError("gradual connectivity needs disjoint lists")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise GeometryError("duplicate vertices in ordering")
    rows, prefix = g.rows, [0]  # prefix[j]: y_1..y_j as bits
    for y in ys:
        prefix.append(prefix[-1] | 1 << y)
    # x_j sees each y_i with i < j and no y_i with i > j
    return all(rows[x] & prefix[j] == prefix[j] and not rows[x] & prefix[-1] & ~prefix[j + 1]
               for j, x in enumerate(xs))


def cliquewidth_certificate_check(g: LabeledGraph, parts: Sequence[Sequence[int]],
                                  index_set: Iterable[int], k: int) -> bool:
    """Verify the hypotheses of the clique-width lower-bound lemma.

    ``parts`` are ordered vertex lists V_1..V_r (the list order is the
    certificate ordering); ``index_set`` is the 1-based set I with |I| = 2k.
    """
    r = len(parts)
    sizes = {len(p) for p in parts}
    if len(sizes) != 1:
        raise GeometryError("parts must have equal sizes")
    m = sizes.pop()
    allv = [v for p in parts for v in p]
    if sorted(allv) != list(range(g.n)):
        raise GeometryError("parts must partition the vertex set")
    idx = sorted(set(index_set))
    if len(idx) != 2 * k:
        raise GeometryError(f"index set must have exactly 2k = {2 * k} entries")
    if any(i < 1 or i + 1 > r for i in idx):
        raise GeometryError("index set entries must satisfy 1 <= i and i+1 <= r")

    if not m > 6 * k * r:
        return False
    for i in range(r - 1):
        if not (gradually_connected_check(g, parts[i], parts[i + 1])
                or gradually_connected_check(g, parts[i + 1], parts[i])):
            return False

    return _transversal_ok(g.rows, [parts[i - 1] for i in idx], [parts[i] for i in idx])


def _transversal_ok(rows: Sequence[int], x_parts: Sequence[Sequence[int]],
                    y_parts: Sequence[Sequence[int]]) -> bool:
    """Every choice x_a in X_a, y_a in Y_a has x_b y_a an edge and x_a y_b a
    non-edge for all a < b, on bit rows (bit y of ``rows[x]`` is xy).

    Each conjunct reads one x and one y, so over non-empty parts the
    quantifier over all choices splits into one check per pair of parts:
    Y_a lies inside every row of X_b, and Y_b misses every row of X_a.
    """
    y_bits = [sum(1 << y for y in set(ys)) for ys in y_parts]
    for b, xb in enumerate(x_parts):
        for a, xa in enumerate(x_parts[:b]):
            if (any(rows[x] & y_bits[a] != y_bits[a] for x in xb)
                    or any(rows[x] & y_bits[b] for x in xa)):
                return False
    return True
