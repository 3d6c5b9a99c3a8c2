"""Differential tests of the poset construction kernels against the O(n^2)
loops they replaced, kept in ``helpers`` as oracles."""

import functools
import operator
import random
from fractions import Fraction as Fr

import pytest

from geomfo import poset as P
from geomfo.geometry import (Disk, GeometryError, Interval, PermSegment,
                             perturb_endpoints, proper_partition)
from geomfo.interpret import _chord_ends, longest_crossing, longest_noncrossing
from geomfo.poset import LabeledPoset, transitive_closure, validate_poset

from helpers import (disk_endpoint_cmp, longest_chain_dp, mirsky_partition,
                     rand_intervals, validate_poset_scan)


def _poset(rows):
    p = LabeledPoset(len(rows))
    p.rows = rows
    return p


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


@pytest.mark.parametrize("product_cells", [1 << 20, 7])
def test_validate_poset_matches_full_scan(monkeypatch, product_cells):
    monkeypatch.setattr(P, "_PRODUCT_CELLS", product_cells)
    rng = random.Random(71)
    kinds = set()
    for n in list(range(0, 71)) + [0, 1, 7, 8, 9, 17] * 4:
        for rows in _random_relations(rng, n):
            want = validate_poset_scan(_poset(rows))
            assert validate_poset(_poset(rows)) == want, (n, rows)
            kinds.add(want and want.kind)
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
        assert _chord_ends(disks, along, q4w2) == [(i, s) for _, s, i in ends]
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
        assert longest_noncrossing(segments) == longest_chain_dp(segments, operator.lt)
        assert longest_crossing(segments) == longest_chain_dp(segments, operator.gt)
