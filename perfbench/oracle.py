"""Output checks that do not use ``geomfo.checker``.

Graphs are rebuilt from the tuple representations with predicates written
here, sentences are decided by plain nested loops over those graphs, and
polygon facts are tested with a visibility oracle of its own (Cramer-rule
crossings plus winding-number point location).  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction as Fr


# ---------------------------------------------------------------------------
# graphs

def _arc_pieces(a):
    start, end = a
    return [(start, end)] if start < end else [(start, Fr(1)), (Fr(0), end)]


def _closed_overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def _arcs_meet(a, b):
    return any(_closed_overlap(p, q) for p in _arc_pieces(a) for q in _arc_pieces(b))


def _chords_cross(c, d):
    a, b = sorted(c)
    p, q = sorted(d)
    return a < p < b < q or p < a < q < b


def _segments_cross(s, t):
    return (s[0] < t[0] and s[1] > t[1]) or (s[0] > t[0] and s[1] < t[1])


def _boxes_meet(a, b):
    return _closed_overlap(a[0:2], b[0:2]) and _closed_overlap(a[2:4], b[2:4])


def _disks_meet(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 <= 1


_MEETS = {
    "interval": _closed_overlap,
    "circular_arc": _arcs_meet,
    "circle": _chords_cross,
    "permutation": _segments_cross,
    "box": _boxes_meet,
    "unit_disk": _disks_meet,
}


def graph_edges(rep) -> frozenset:
    """Edge set {(i, j): i < j} of the intersection or visibility graph."""
    cls, objs = rep
    if cls == "visibility":
        n = len(objs)
        return frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                         if j == i + 1 or (i == 0 and j == n - 1) or sees(objs, i, j))
    meets = _MEETS[cls]
    return frozenset((i, j) for i in range(len(objs)) for j in range(i + 1, len(objs))
                     if meets(objs[i], objs[j]))


# ---------------------------------------------------------------------------
# sentences

def _source(s) -> str:
    op = s[0]
    if op == "E":
        return f"A[{s[1]}][{s[2]}]"
    if op == "=":
        return f"({s[1]} == {s[2]})"
    if op == "!":
        return f"(not {_source(s[1])})"
    if op == "&":
        return f"({_source(s[1])} and {_source(s[2])})"
    if op == "|":
        return f"({_source(s[1])} or {_source(s[2])})"
    if op == ">":
        return f"((not {_source(s[1])}) or {_source(s[2])})"
    quant = "all" if op == "A" else "any"
    return f"{quant}({_source(s[2])} for {s[1]} in R)"


def decide(sentence, n: int, edges) -> bool:
    """Tarskian semantics by exhaustive nested loops over 0..n-1."""
    adj = [[False] * n for _ in range(n)]
    for a, b in edges:
        adj[a][b] = adj[b][a] = True
    return bool(eval(_source(sentence), {"A": adj, "R": range(n)}))


# ---------------------------------------------------------------------------
# polygons (vertices clockwise, u first, v last)

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _meet_params(p, q, a, b):
    """Parameters t in [0, 1] where p + t(q - p) touches closed segment ab."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    ex, ey = b[0] - a[0], b[1] - a[1]
    den = dx * ey - dy * ex
    if den != 0:
        t = Fr((a[0] - p[0]) * ey - (a[1] - p[1]) * ex) / den
        s = Fr((a[0] - p[0]) * dy - (a[1] - p[1]) * dx) / den
        return [t] if 0 <= t <= 1 and 0 <= s <= 1 else []
    if _cross(p, q, a) != 0:
        return []  # parallel, not collinear
    ts = []
    norm = dx * dx + dy * dy
    for pt in (a, b):
        t = Fr((pt[0] - p[0]) * dx + (pt[1] - p[1]) * dy) / norm
        if 0 <= t <= 1:
            ts.append(t)
    enorm = ex * ex + ey * ey
    for pt, t in ((p, Fr(0)), (q, Fr(1))):
        s = Fr((pt[0] - a[0]) * ex + (pt[1] - a[1]) * ey) / enorm
        if 0 <= s <= 1:
            ts.append(t)
    return ts


def _on_boundary(pt, poly):
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if (_cross(a, b, pt) == 0 and min(a[0], b[0]) <= pt[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1])):
            return True
    return False


def _winding(pt, poly):
    wind = 0
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if a[1] <= pt[1] < b[1] and _cross(a, b, pt) > 0:
            wind += 1
        elif b[1] <= pt[1] < a[1] and _cross(a, b, pt) < 0:
            wind -= 1
    return wind


def sees(poly, i: int, j: int) -> bool:
    """The closed segment between vertices i and j stays in the closed polygon."""
    p, q = poly[i], poly[j]
    params = {Fr(0), Fr(1)}
    n = len(poly)
    for e in range(n):
        params.update(_meet_params(p, q, poly[e], poly[(e + 1) % n]))
    ordered = sorted(params)
    for t1, t2 in zip(ordered, ordered[1:]):
        tm = (t1 + t2) / 2
        mid = (p[0] + tm * (q[0] - p[0]), p[1] + tm * (q[1] - p[1]))
        if not (_on_boundary(mid, poly) or _winding(mid, poly) != 0):
            return False
    return True


def is_terrain(poly) -> bool:
    """u and v on the x-axis, every other vertex above it, x non-decreasing."""
    u, v = poly[0], poly[-1]
    return (u[1] == 0 and v[1] == 0 and u[0] < v[0]
            and all(pt[1] > 0 for pt in poly[1:-1])
            and all(a[0] <= b[0] for a, b in zip(poly, poly[1:])))


def is_convex_fan_at_v(poly) -> bool:
    """The last vertex is convex (a right turn, clockwise) and sees every vertex."""
    n = len(poly)
    return (_cross(poly[-2], poly[-1], poly[0]) < 0
            and all(sees(poly, n - 1, j) for j in range(n - 1)))


# ---------------------------------------------------------------------------
# clique-width certificates

def gradually_connected(edges, xs, ys) -> bool:
    """x_j y_i is an edge and x_i y_j is not, for all i < j."""
    def adj(a, b):
        return (min(a, b), max(a, b)) in edges

    return all(adj(xs[j], ys[i]) and not adj(xs[i], ys[j])
               for i in range(len(xs)) for j in range(i + 1, len(xs)))
