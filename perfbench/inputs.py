"""Seeded input generators for the benchmark.

Every input is drawn from a ``random.Random`` seeded by the command line,
or, for agreement_mix's sentences, by class and size (see
``sentence_battery``), so one seed always gives the same inputs.  Nothing
here comes from the test
suite: a change to the tests cannot change what the benchmark measures.

Representations are plain tuples of exact rationals (``Fraction``), tagged
by class name; ``to_objects`` turns them into geomfo objects and
``to_text`` into the line format that ``geomfo check`` reads.  Sentences
are tuples too (see ``rand_sentence``), so the brute-force oracle can
evaluate them without touching geomfo's formula module.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as Fr

CLASSES = ("interval", "circular_arc", "circle", "permutation", "box",
           "unit_disk", "visibility")

VARS = ("x", "y", "z", "w")


def _neq(a, b):
    return ("!", ("=", a, b))


# The default sentence battery of ``geomfo check``/``verify`` in tuple form
# (see "sentences" below), copied so that the benchmark's inputs do not
# follow changes to the CLI.
BATTERY = (
    ("X", "x", ("X", "y", ("&", ("E", "x", "y"), _neq("x", "y")))),
    ("A", "x", ("X", "y", ("&", ("E", "x", "y"), _neq("x", "y")))),
    ("X", "x", ("X", "y", ("X", "z", ("&", ("&", ("&", ("&", ("&",
        ("E", "x", "y"), ("E", "y", "z")), ("E", "x", "z")),
        _neq("x", "y")), _neq("y", "z")), _neq("x", "z"))))),
    ("A", "x", ("A", "y", ("|", ("|", ("E", "x", "y"), ("=", "x", "y")),
                           ("X", "z", ("&", ("E", "x", "z"), ("E", "z", "y")))))),
    ("X", "x", ("A", "y", ("|", ("E", "x", "y"), ("=", "x", "y")))),
)


# ---------------------------------------------------------------------------
# representations: (cls, objects), each object a tuple of Fractions
#   interval (lo, hi); circular_arc (start, end); circle (a, b);
#   permutation (top, bottom); box (xlo, xhi, ylo, yhi); unit_disk (cx, cy);
#   visibility: objects is a single tuple of clockwise (x, y) vertices

def _distinct_pair(rng, den):
    a = rng.randrange(den)
    b = rng.randrange(den)
    while b == a:
        b = rng.randrange(den)
    return Fr(a, den), Fr(b, den)


def rand_intervals(rng, n):
    out = []
    for _ in range(n):
        lo = Fr(rng.randint(0, 32), 4)
        out.append((lo, lo + Fr(rng.randint(1, 8), 4)))
    return "interval", tuple(out)


def rand_arcs(rng, n):
    return "circular_arc", tuple(_distinct_pair(rng, 32) for _ in range(n))


def rand_chords(rng, n):
    return "circle", tuple(_distinct_pair(rng, 32) for _ in range(n))


def rand_segments(rng, n):
    tops = rng.sample(range(4 * n + 8), n)
    bots = rng.sample(range(4 * n + 8), n)
    return "permutation", tuple((Fr(t), Fr(b)) for t, b in zip(tops, bots))


def rand_boxes(rng, n, bands=3):
    ys = []
    for _ in range(bands):
        lo = Fr(rng.randint(0, 32), 4)
        ys.append((lo, lo + Fr(rng.randint(1, 8), 4)))
    out = []
    for _ in range(n):
        lo = Fr(rng.randint(0, 32), 4)
        y = ys[rng.randrange(bands)]
        out.append((lo, lo + Fr(rng.randint(1, 8), 4)) + y)
    return "box", tuple(out)


# Rows 1/2 apart keep every row pair within one diameter, and the first
# disks take one row each, so from three disks on the disk poset has exactly
# 7n elements whatever the seed draws (its size sets the table sizes).
DISK_ROWS = (Fr(0), Fr(1, 2), Fr(1))


def rand_disks(rng, n, span=3):
    """Unit-diameter disks on the three rows of ``DISK_ROWS``."""
    return "unit_disk", tuple(
        (Fr(rng.randint(0, 8 * span), 8),
         DISK_ROWS[i] if i < len(DISK_ROWS) else rng.choice(DISK_ROWS))
        for i in range(n))


def rand_fan(rng, n):
    """Clockwise polygon u, p_1..p_m, v that is star-shaped from u."""
    m = max(4, n) - 2
    while True:
        pts = []
        for i in range(m):
            r = rng.randint(2, 6)
            pts.append((Fr(r * (i + 1)), Fr(r * (m - i))))
        poly = ((Fr(0), Fr(0)),) + tuple(pts) + ((Fr(8 * m), Fr(0)),)
        if _no_collinear_triples(poly):
            return "visibility", poly


def _no_collinear_triples(pts):
    n = len(pts)
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = pts[i - 1], pts[i], pts[(i + 1) % n]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
            return False
    return True


MAKERS = {
    "interval": rand_intervals,
    "circular_arc": rand_arcs,
    "circle": rand_chords,
    "permutation": rand_segments,
    "box": rand_boxes,
    "unit_disk": rand_disks,
    "visibility": rand_fan,
}


def scaling_intervals(rng, n):
    """n intervals on a line of length n/2, so density stays flat as n grows."""
    out = []
    for _ in range(n):
        lo = Fr(rng.randint(0, 4 * n), 8)
        out.append((lo, lo + Fr(rng.randint(2, 12), 8)))
    return "interval", tuple(out)


def scaling_disks(rng, n):
    return rand_disks(rng, n, span=n // 4 + 1)


# ---------------------------------------------------------------------------
# conversions

def _fmt(q: Fr) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_KEYWORD = {"interval": "interval", "circular_arc": "arc", "circle": "chord",
            "permutation": "perm", "box": "box", "unit_disk": "disk"}


def to_text(rep) -> str:
    """The representation file format read by ``geomfo check``."""
    cls, objs = rep
    lines = [f"class {cls}"]
    if cls == "visibility":
        lines.append("polygon")
        lines.extend(f"pt {_fmt(x)} {_fmt(y)}" for x, y in objs)
    else:
        lines.extend(_KEYWORD[cls] + " " + " ".join(map(_fmt, o)) for o in objs)
    return "\n".join(lines) + "\n"


def to_objects(geometry, rep):
    """A ``geomfo.geometry.Representation`` for the tuple form."""
    cls, objs = rep
    g = geometry
    if cls == "visibility":
        return g.Representation(cls, (g.Polygon(objs),))
    make = {
        "interval": lambda o: g.Interval(*o),
        "circular_arc": lambda o: g.Arc(*o),
        "circle": lambda o: g.Chord(*o),
        "permutation": lambda o: g.PermSegment(*o),
        "box": lambda o: g.Box(g.Interval(o[0], o[1]), g.Interval(o[2], o[3])),
        "unit_disk": lambda o: g.Disk(*o),
    }[cls]
    return g.Representation(cls, tuple(make(o) for o in objs))


# ---------------------------------------------------------------------------
# sentences: ("E", a, b) | ("=", a, b) | ("!", f) | ("&"|"|"|">", f, g)
#            | ("A"|"X", var, f)      (A = forall, X = exists)

def rand_sentence(rng, depth):
    """A random graph sentence of quantifier depth at most ``depth``."""

    def rec(d, avail):
        r = rng.random()
        if d <= 0 or r < 0.25:
            a, b = rng.choice(avail), rng.choice(avail)
            return ("E", a, b) if rng.random() < 0.65 else ("=", a, b)
        if r < 0.45:
            return ("!", rec(d - 1, avail))
        if r < 0.6 and len(avail) < len(VARS):
            v = VARS[len(avail)]
            return (rng.choice("AX"), v, rec(d - 1, avail + [v]))
        return (rng.choice("&|>"), rec(d - 1, avail), rec(d - 1, avail))

    return (("X" if rng.random() < 0.7 else "A"), VARS[0], rec(depth - 1, [VARS[0]]))


def quantifier_depth(s) -> int:
    op = s[0]
    if op in "E=":
        return 0
    if op == "!":
        return quantifier_depth(s[1])
    if op in "&|>":
        return max(quantifier_depth(s[1]), quantifier_depth(s[2]))
    return 1 + quantifier_depth(s[2])


def sentence_of_depth(rng, depth):
    """A random sentence of quantifier depth exactly ``depth`` (1 to 4)."""
    while True:
        s = rand_sentence(rng, depth)
        if quantifier_depth(s) == depth:
            return s


def sentence_battery(cls, size, depths):
    """The sentences decided on every ``cls`` instance with ``size`` objects.

    They come from a generator seeded by class and size, not by the run's
    seed.  One sentence's cost is heavy-tailed (a depth-2 sentence on a
    70-element disk poset can fill 3 million table cells, most fill none), so
    sentences drawn afresh per seed changed a pass's work by up to 1.8x from
    seed to seed; the run's seed draws the instances.
    """
    rng = random.Random(f"sentences/{cls}/{size}")
    return [sentence_of_depth(rng, d) for d in depths]


def to_formula(F, s):
    """The geomfo formula AST for a tuple sentence."""
    op = s[0]
    if op == "E":
        return F.Edge(F.Var(s[1]), F.Var(s[2]))
    if op == "=":
        return F.Eq(F.Var(s[1]), F.Var(s[2]))
    if op == "!":
        return F.Not(to_formula(F, s[1]))
    if op in "&|>":
        cons = {"&": F.And, "|": F.Or, ">": F.Implies}[op]
        return cons(to_formula(F, s[1]), to_formula(F, s[2]))
    cons = F.Forall if op == "A" else F.Exists
    return cons(F.Var(s[1]), to_formula(F, s[2]))


def to_text_formula(s) -> str:
    """Concrete syntax for a tuple sentence, fully parenthesised."""
    op = s[0]
    if op == "E":
        return f"edge({s[1]},{s[2]})"
    if op == "=":
        return f"{s[1]}={s[2]}"
    if op == "!":
        return f"!({to_text_formula(s[1])})"
    if op in "&|>":
        sym = {"&": "&", "|": "|", ">": "->"}[op]
        return f"({to_text_formula(s[1])}) {sym} ({to_text_formula(s[2])})"
    kw = "forall" if op == "A" else "exists"
    return f"{kw} {s[1]}. ({to_text_formula(s[2])})"


# ---------------------------------------------------------------------------
# small graphs H for the terrain/fan construction

def unlabelled_graphs(n):
    """One edge set per isomorphism class of graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    seen, out = set(), []
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        canon = min(tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
                    for perm in itertools.permutations(range(n)))
        if canon not in seen:
            seen.add(canon)
            out.append(edges)
    return out


def relabel(rng: random.Random, n, edges):
    """The same graph under a random vertex numbering."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)
