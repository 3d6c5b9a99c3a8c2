"""Differential tests of the poset construction kernels against the O(n^2)
loops and the Fraction builds they replaced, kept in ``helpers`` as oracles."""

import functools
import random
from fractions import Fraction as Fr

import pytest

from geomfo.geometry import (Arc, Box, Chord, Disk, GeometryError, Interval, PermSegment,
                             Representation, build_intersection_graph, perturb_endpoints,
                             proper_partition)
from geomfo.interpret import (_chord_ends, longest_crossing, longest_noncrossing,
                              make_instance)
from geomfo.poset import (LabeledPoset, build_interval_poset, transitive_closure,
                          validate_poset)

from helpers import (disk_endpoint_cmp, fixpoint_closure, instance_graph, longest_chain_dp,
                     mirsky_partition, poset_digest, rand_intervals, ref_build_interval_poset,
                     ref_interval_family_instance, ref_perturb_endpoints, ref_proper_partition,
                     ref_unit_disk_poset, validate_poset_scan)


def _poset(rows):
    return LabeledPoset(len(rows), rows=rows)


def _random_relations(rng, n):
    """Relations on n elements: dense and sparse, loop-free ones, and closed
    DAGs as they are and with one bit flipped."""
    dense = [rng.getrandbits(n) if n else 0 for _ in range(n)]
    yield dense
    yield [row & ~(1 << a) for a, row in enumerate(dense)]
    sparse = [0] * n
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            sparse[a] |= 1 << b
    yield sparse
    perm = rng.sample(range(n), n)
    pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 3 / n]
    closed = transitive_closure(n, pairs)
    yield closed
    for _ in range(3):
        if n:
            a, b = rng.randrange(n), rng.randrange(n)
            flipped = list(closed)
            flipped[a] ^= 1 << b
            yield flipped


@pytest.mark.parametrize("seed", [1 << 20, 7])
def test_validate_poset_matches_full_scan(seed):
    """``validate_poset`` reports the same first violation, or None, as the
    element-by-element scan, on two independent draws of relations."""
    rng = random.Random(seed)
    kinds = set()
    for n in list(range(0, 71)) + [0, 1, 7, 8, 9, 17] * 4:
        for rows in _random_relations(rng, n):
            want = validate_poset_scan(_poset(rows))
            assert validate_poset(_poset(rows)) == want, (n, rows)
            kinds.add(want and want.kind)
    assert kinds == {None, "irreflexivity", "antisymmetry", "transitivity"}


def test_validate_poset_against_closure_oracle():
    """``validate_poset`` accepts exactly the irreflexive relations that equal
    the fixpoint closure of their own pairs, and each violation it reports
    holds in the relation."""
    rng = random.Random(71)
    kinds = set()
    for n in list(range(0, 71)) + [0, 1, 7, 8, 9, 17] * 4:
        for rows in _random_relations(rng, n):
            p = _poset(rows)
            got = validate_poset(p)
            pairs = set(p.pairs())
            is_order = (all(not row >> a & 1 for a, row in enumerate(rows))
                        and fixpoint_closure(n, pairs) == pairs)
            assert (got is None) == is_order, (n, rows)
            if got is not None:
                lt = p.lt
                if got.kind == "irreflexivity":
                    (a,) = got.pair
                    assert lt(a, a)
                elif got.kind == "antisymmetry":
                    a, b = got.pair
                    assert lt(a, b) and lt(b, a)
                else:
                    a, b, c = got.pair
                    assert lt(a, b) and lt(b, c) and not lt(a, c)
            kinds.add(got and got.kind)
    assert kinds == {None, "irreflexivity", "antisymmetry", "transitivity"}


def _nested_family(rng, n):
    """n intervals on distinct endpoints, many of them nested."""
    ends = rng.sample(range(4 * n + 4), 2 * n)
    out = []
    for _ in range(n):
        lo, hi = sorted((ends.pop(), ends.pop()))
        out.append(Interval(Fr(lo), Fr(hi)))
    return out


def test_proper_partition_matches_mirsky_loop():
    rng = random.Random(72)
    depths = set()
    for _ in range(300):
        n = rng.randint(0, 40)
        items = (_nested_family(rng, n) if rng.random() < 0.7
                 else list(perturb_endpoints(rand_intervals(rng, n)).objects))
        got = proper_partition(items)
        assert got == mirsky_partition(items)
        depths.add(got[0])
    assert max(depths) >= 6
    onion = [Interval(Fr(-i), Fr(i)) for i in range(1, 9)]
    assert proper_partition(onion) == mirsky_partition(onion) == (8, list(range(8, 0, -1)))
    with pytest.raises(GeometryError):
        proper_partition([Interval(Fr(0), Fr(2)), Interval(Fr(1), Fr(2))])


def test_chord_ends_match_comparator_sort():
    rng = random.Random(73)
    # dy = 0, 3/5, 1/2 and 1: tangents at d = 1 and d = 4/5, none at sqrt(3)/2,
    # and q4w2 = 0 for rows exactly one apart
    q4w2s = [Fr(1), Fr(16, 25), Fr(3, 4), Fr(0)]
    seen = {"tangent": 0, "equal_cx": 0, "equal_cx_one_apart": 0}
    for _ in range(400):
        q4w2 = rng.choice(q4w2s)
        n = rng.randint(1, 12)
        disks = [Disk(Fr(rng.randint(0, 15), 5), Fr(0)) for _ in range(n)]
        along = sorted(range(n), key=lambda i: (disks[i].cx, i))
        ends = [(disks[i].cx, s, i) for i in range(n) for s in (-1, 1)]
        ends.sort(key=functools.cmp_to_key(disk_endpoint_cmp(q4w2)))
        want = [(i, s) for _, s, i in ends]
        assert _chord_ends([d.cx for d in disks], along, q4w2) == want
        # the same on ints, rescaled by 10 (q4w2 by 100)
        assert _chord_ends([int(10 * d.cx) for d in disks], along, int(100 * q4w2)) == want
        for a in disks:
            for b in disks:
                d = a.cx - b.cx
                seen["tangent"] += d > 0 and d * d == q4w2
                seen["equal_cx"] += a is not b and d == 0
                seen["equal_cx_one_apart"] += a is not b and d == 0 and q4w2 == 0
    assert all(seen.values()), seen


def test_permutation_chains_match_dp_with_ties():
    rng = random.Random(74)
    for _ in range(400):
        n = rng.randint(0, 14)
        m = rng.randint(1, 2 * n + 1)
        segments = [PermSegment(Fr(rng.randrange(m)), Fr(rng.randrange(m)))
                    for _ in range(n)]
        assert longest_noncrossing(segments) == longest_chain_dp(segments, False)
        assert longest_crossing(segments) == longest_chain_dp(segments, True)


# ---------------------------------------------------------------------------
# integer-rank builds against the Fraction builds they replaced

_BIG = 10 ** 30


def _tie_value(rng, lo, hi):
    """A value in [lo, hi) from a small pool, so that ties are common; the
    pool mixes small and huge (up to 10^30) denominators."""
    den = rng.choice((1, 2, 3, 8, _BIG))
    num = rng.choice((0, 1, 2, 3))
    base = Fr(rng.randrange(lo * 8, hi * 8), 8)
    return min(base + Fr(num, den) / 16, Fr(hi * 8 - 1, 8))


def _tie_family(rng, cls, n):
    if cls == "interval":
        objs = []
        for _ in range(n):
            a, b = _tie_value(rng, 0, 3), _tie_value(rng, 0, 3)
            objs.append(Interval(min(a, b), max(a, b) + (a == b)))
        return Representation(cls, tuple(objs))
    if cls == "box":
        rows = [(Fr(r, 4), Fr(r, 4) + Fr(w, 8)) for r, w in
                ((rng.randrange(8), rng.randint(1, 8)) for _ in range(rng.randint(1, 3)))]
        rows.append((Fr(1, _BIG), Fr(1, 3)))
        xs = _tie_family(rng, "interval", n).objects
        return Representation(cls, tuple(Box(x, Interval(*rng.choice(rows))) for x in xs))
    objs = []
    make = Arc if cls == "circular_arc" else Chord
    for _ in range(n):
        a = _tie_value(rng, 0, 1) if rng.random() < 0.8 else Fr(0)
        b = _tie_value(rng, 0, 1)
        while b == a:
            b = _tie_value(rng, 0, 1)
        objs.append(make(a, b))
        if rng.random() < 0.2:  # a duplicate, or the same ends swapped
            objs.append(make(a, b) if cls == "circular_arc" or rng.random() < 0.5
                        else make(b, a))
    return Representation(cls, tuple(objs))


def _tie_disks(rng, n):
    """Disks on up to three rows drawn from a pool with gaps 0, 4/5 and 1, so
    tangent pairs at dy = 4/5 (dx = 3/5), dy = 1 (dx = 0) and dy = 0 (dx = 1)
    occur; centres share abscissae, and some carry a 10^30 denominator."""
    base = rng.choice((Fr(0), Fr(1, 3), Fr(1, _BIG)))
    rows = rng.sample([base, base + Fr(4, 5), base + 1, base + Fr(1, 2)], rng.randint(1, 3))
    xs = [Fr(rng.randrange(12), 5) + rng.choice((0, 0, Fr(1, _BIG))) for _ in range(n)]
    return Representation("unit_disk", tuple(
        Disk(rng.choice(xs[:max(1, n // 2)]) if rng.random() < 0.4 else xs[i],
             rng.choice(rows)) for i in range(n)))


def _summary(poset, vertex_map, width_bound, provenance):
    return poset_digest(poset), vertex_map, width_bound, provenance


def _ends(o):
    return (o.lo, o.hi) if isinstance(o, Interval) else \
        (o.start, o.end) if isinstance(o, Arc) else (o.a, o.b)


@pytest.mark.parametrize("cls", ["interval", "circular_arc", "circle", "box"])
def test_interval_family_builds_equal_the_fraction_builds(cls):
    rng = random.Random(75)
    seen = {"perturbed": 0, "big": 0, "at_zero": 0, "wraps": 0}
    for _ in range(150):
        rep = _tie_family(rng, cls, rng.randint(1, 12))
        inst = make_instance(cls, rep)
        assert (_summary(inst.poset, inst.vertex_map, inst.width_bound, inst.provenance)
                == _summary(*ref_interval_family_instance(cls, rep)))
        assert instance_graph(inst).edges == build_intersection_graph(cls, rep).edges
        base = (Representation("interval", tuple(b.x for b in rep.objects))
                if cls == "box" else rep)
        out = perturb_endpoints(base)
        assert out.objects == ref_perturb_endpoints(base).objects
        ends = [e for o in base.objects for e in _ends(o)]
        seen["perturbed"] += out is not base
        seen["big"] += any(e.denominator % _BIG == 0 for e in ends)
        seen["at_zero"] += 0 in ends
        seen["wraps"] += any(o.wraps() for o in out.objects if isinstance(o, Arc))
        if cls in ("interval", "box"):
            flat = out.objects
            k, parts = proper_partition(flat)
            assert (k, parts) == ref_proper_partition(flat)
            odd = {"odd": range(1, len(flat), 2)}
            p, ids, dmap = build_interval_poset(flat, parts, odd)
            rp, rids, rdmap = ref_build_interval_poset(flat, parts, odd)
            assert (poset_digest(p), ids, dmap) == (poset_digest(rp), rids, rdmap)
    assert seen["perturbed"] > 50 and seen["big"] > 30, seen
    if cls in ("circular_arc", "circle"):
        assert seen["at_zero"] > 10, seen
    if cls == "circular_arc":
        assert seen["wraps"] > 30, seen


def test_unit_disk_build_equals_the_fraction_build():
    rng = random.Random(76)
    seen = {"tangent": 0, "equal_cx": 0, "big": 0}
    for _ in range(150):
        rep = _tie_disks(rng, rng.randint(1, 12))
        inst = make_instance("unit_disk", rep)
        assert (_summary(inst.poset, inst.vertex_map, inst.width_bound, inst.provenance)
                == _summary(*ref_unit_disk_poset(rep.objects)))
        disks = rep.objects
        pairs = [(a, b) for i, a in enumerate(disks) for b in disks[i + 1:]]
        seen["tangent"] += any((a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2 == 1 for a, b in pairs)
        seen["equal_cx"] += any(a.cx == b.cx for a, b in pairs)
        seen["big"] += any(d.cx.denominator % _BIG == 0 or d.cy.denominator % _BIG == 0
                           for d in disks)
    assert all(v > 20 for v in seen.values()), seen
