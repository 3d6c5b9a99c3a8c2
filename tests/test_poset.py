import random
from fractions import Fraction as Fr

import pytest

from geomfo.checker import eval_structure
from geomfo.formula import Var
from geomfo.geometry import Interval, Representation, _proper_parts
from geomfo.interpret import interval_nu, interval_psi, interval_theta, make_instance
from geomfo.poset import (LabeledPoset, PosetError, _chain_rows, _ranked_interval_poset,
                          transitive_closure, validate_poset)

from helpers import (brute_force_width, contains, fixpoint_closure, generated_poset,
                     interval_grid, overlaps, poset_width, rand_intervals,
                     ref_perturb_endpoints)


def _interval_poset(items):
    """The interval instance's poset of intervals with distinct ends, the
    element of each interval, and the element of each end value: endpoint
    elements come first, in increasing order."""
    inst = make_instance("interval", Representation("interval", tuple(items)))
    ends = sorted(e for it in items for e in (it.lo, it.hi))
    return inst, inst.vertex_map, {v: r for r, v in enumerate(ends)}


def _parted_poset(items, parts, labels=None):
    """``_ranked_interval_poset`` of intervals in the given parts, on their
    grid ranks."""
    return _ranked_interval_poset(*interval_grid(items), parts, labels)


def test_validate_examples():
    ok = LabeledPoset(3, {(0, 1), (1, 2), (0, 2)})
    assert validate_poset(ok) is None
    anti = LabeledPoset(2, {(0, 1), (1, 0)})
    v = validate_poset(anti)
    assert v is not None and v.kind == "antisymmetry"
    trans = LabeledPoset(3, {(0, 1), (1, 2)})
    v = validate_poset(trans)
    assert v is not None and v.kind == "transitivity"
    refl = LabeledPoset(1, {(0, 0)})
    assert validate_poset(refl).kind == "irreflexivity"


def test_width_chain_and_antichain():
    n = 7
    chain = LabeledPoset(n, {(i, j) for i in range(n) for j in range(i + 1, n)})
    assert poset_width(chain) == 1
    anti = LabeledPoset(n)
    assert poset_width(anti) == n


def test_width_matches_bruteforce_on_random_posets():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 10)
        base = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3}
        p = generated_poset(n, base)
        assert validate_poset(p) is None
        assert poset_width(p) == brute_force_width(p)


def test_closure_matches_fixpoint_on_shuffled_ids():
    """Random DAGs whose ids are permuted, so id order is not a topological order."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 14)
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < rng.choice((0.1, 0.3, 0.6))]
        pairs += rng.sample(pairs, len(pairs) // 3)  # repeated pairs
        rng.shuffle(pairs)
        rows = transitive_closure(n, pairs)
        got = {(a, b) for a in range(n) for b in range(n) if rows[a] >> b & 1}
        assert got == fixpoint_closure(n, pairs)
        assert validate_poset(LabeledPoset(n, rows=rows)) is None
        assert generated_poset(n, pairs).rows == tuple(rows)


def _chain_system(rng):
    """A random main chain and side chains on shuffled ids that meet
    ``_chain_rows``' two conditions, as its arguments, with the pairs that
    generate the order: main successors, chain successors, links and
    up-links."""
    m = rng.randint(0, 8)
    lengths = [rng.randint(1, 6) for _ in range(rng.randint(0, 4))]
    ids = list(range(m + sum(lengths)))
    rng.shuffle(ids)
    main, ids = ids[:m], ids[m:]
    chains, links = [], [[] for _ in range(m)]
    pairs = list(zip(main, main[1:]))
    for c, length in enumerate(lengths):
        elems, ids = ids[:length], ids[length:]
        pairs += zip(elems, elems[1:])
        # links step down the chain as the sweep steps down the main chain
        k = rng.randint(0, 3) if m else 0
        at = list(zip(sorted(rng.choices(range(m), k=k)), sorted(rng.choices(range(length), k=k))))
        for t, pos in at:
            links[t].append((c, pos))
            pairs.append((main[t], elems[pos]))
        chain = []
        for pos, e in enumerate(elems):
            # an element swept at main[t] links up only after main[t]
            swept = max((t for t, p in at if p <= pos), default=-1)
            up = -1
            if swept < m - 1 and rng.random() < 0.5:
                up = main[rng.randrange(swept + 1, m)]
                pairs.append((e, up))
            chain.append((e, up))
        chains.append(chain)
    for row in links:
        rng.shuffle(row)
    return (m + sum(lengths), main, chains, links), pairs


def test_chain_rows_equal_the_closure_of_their_generating_pairs():
    rng = random.Random(28)
    shared = unlinked = 0
    for _ in range(2000):
        args, pairs = _chain_system(rng)
        assert _chain_rows(*args) == transitive_closure(args[0], pairs)
        _, _, chains, links = args
        shared += any(len({c for c, _ in row}) > 1 for row in links)
        unlinked += len(chains) - len({c for row in links for c, _ in row})
    assert shared and unlinked  # several chains linked from one main element; chains never linked


@pytest.mark.parametrize("n, pairs", [
    (3, [(0, 1), (1, 1)]),                  # self-pair
    (4, [(2, 0), (1, 3), (0, 2)]),          # 2-cycle
    (5, [(0, 1), (1, 2), (2, 3), (3, 1)]),  # longer cycle
    (3, [(0, 1), (1, 3)]),                  # past n-1
    (3, [(0, 1), (-1, 0)]),                 # negative, would wrap to 2 < 0
    (3, [(1, -3)]),                         # negative target
])
def test_closure_rejects_non_orders(n, pairs):
    with pytest.raises(PosetError):
        transitive_closure(n, pairs)
    with pytest.raises(PosetError):
        generated_poset(n, pairs)


def test_width_of_a_long_staircase_needs_no_recursion():
    """x_i < y_i and x_i < y_{i+1}: matching each x to its lower-id y first
    leaves x_m an augmenting path through every other x, longer than the
    default recursion limit."""
    m = 1500
    x = list(range(m + 1))
    y = [2 * m + 1 - i for i in range(m + 1)]  # ids descend with the index
    lt = [(x[i], y[i]) for i in range(m + 1)] + [(x[i], y[i + 1]) for i in range(m)]
    assert poset_width(LabeledPoset(2 * m + 2, lt)) == m + 1


def test_width_rejects_invalid():
    with pytest.raises(PosetError):
        poset_width(LabeledPoset(2, {(0, 1), (1, 0)}))


def test_build_interval_poset_single_interval():
    inst, ids, dmap = _interval_poset([Interval(Fr(1), Fr(2))])
    p = inst.poset
    assert p.n == 3
    a, b = dmap[Fr(1)], dmap[Fr(2)]
    t = ids[0]
    assert p.lt(a, t) and p.lt(t, b) and p.lt(a, b)
    assert p.labels["D"] == frozenset({a, b})


def test_build_interval_poset_two_overlapping():
    items = [Interval(Fr(1), Fr(3)), Interval(Fr(2), Fr(4))]
    inst, ids, dmap = _interval_poset(items)
    assert inst.provenance["k"] == 1
    p = inst.poset
    assert p.n == 6
    # [1,3] incomparable with endpoint 2
    e2 = dmap[Fr(2)]
    assert not p.lt(ids[0], e2) and not p.lt(e2, ids[0])
    assert p.lt(ids[0], ids[1])  # same proper part, left to right
    assert poset_width(p) == 2


def test_build_interval_poset_rejects_nonproper_part():
    items = [Interval(Fr(1), Fr(4)), Interval(Fr(2), Fr(3))]
    with pytest.raises(PosetError, match=r"^part 1 is not proper: interval 0 contains "):
        _parted_poset(items, [1, 1])
    # [1,9] contains [3,8], two apart in left-end order
    items = [Interval(Fr(1), Fr(9)), Interval(Fr(2), Fr(10)), Interval(Fr(3), Fr(8))]
    with pytest.raises(PosetError, match=r"^part 1 is not proper: interval 1 contains "):
        _parted_poset(items, [1, 1, 1])


def test_build_interval_poset_on_tied_ends_builds_the_reference_poset():
    """Shared ends are ranked by the tie rule: the poset is the one on the
    ends moved apart."""
    for items in ([Interval(Fr(1), Fr(3)), Interval(Fr(3), Fr(4))],
                  [Interval(Fr(1, 3), Fr(1)), Interval(Fr(2, 6), Fr(2))]):
        p, ids = _parted_poset(items, [1, 2])
        moved = ref_perturb_endpoints(Representation("interval", tuple(items))).objects
        rp, rids = _parted_poset(moved, [1, 2])
        assert (p.n, p.rows, p.labels, ids) == (rp.n, rp.rows, rp.labels, rids)


def test_build_interval_poset_exact_endpoint_relation():
    """Endpoint e < I iff value(e) <= I.lo and I < e iff value(e) >= I.hi."""
    rng = random.Random(9)
    for _ in range(60):
        items = ref_perturb_endpoints(rand_intervals(rng, rng.randint(1, 10))).objects
        inst, ids, dmap = _interval_poset(items)
        p = inst.poset
        for it, t in zip(items, ids):
            for v, e in dmap.items():
                assert p.lt(e, t) == (v <= it.lo)
                assert p.lt(t, e) == (v >= it.hi)


def test_build_interval_poset_extra_labels_by_index():
    items = [Interval(Fr(1), Fr(3)), Interval(Fr(2), Fr(4)), Interval(Fr(5), Fr(6))]
    p, ids = _parted_poset(items, [0, 0, 0], {"red": [2, 0], "blue": []})
    assert list(p.labels) == ["D", "red", "blue"]
    assert p.labels["red"] == frozenset({ids[0], ids[2]})
    assert p.labels["blue"] == frozenset()


def test_build_interval_poset_random_properties():
    rng = random.Random(8)
    for _ in range(40):
        rep = ref_perturb_endpoints(rand_intervals(rng, rng.randint(1, 10)))
        inst, _, _ = _interval_poset(rep.objects)
        p, k = inst.poset, inst.provenance["k"]
        assert validate_poset(p) is None
        assert poset_width(p) <= k + 1


def test_lemma_formula_semantics():
    """nu/psi/theta evaluate to membership, intersection and containment."""
    rng = random.Random(12)
    x, y = Var("x"), Var("y")
    for _ in range(30):
        rep = ref_perturb_endpoints(rand_intervals(rng, rng.randint(1, 8)))
        items = rep.objects
        inst, ids, _ = _interval_poset(items)
        p = inst.poset
        nu = interval_nu()
        for e in range(p.n):
            assert eval_structure(p, nu, {x: e}) == (e in ids)
        psi = interval_psi()
        theta = interval_theta(x, y)
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                assert eval_structure(p, psi, {x: ids[i], y: ids[j]}) == overlaps(a, b)
                assert eval_structure(p, theta, {x: ids[i], y: ids[j]}) == contains(b, a)


def test_chain_cover_structure():
    """D and the proper parts each form chains covering the poset."""
    rng = random.Random(13)
    rep = ref_perturb_endpoints(rand_intervals(rng, 9))
    items = rep.objects
    grid = interval_grid(items)
    _, parts = _proper_parts(*grid)
    p, ids = _ranked_interval_poset(*grid, parts)
    dset = sorted(p.labels["D"])
    for i in range(len(dset)):
        for j in range(i + 1, len(dset)):
            assert p.lt(dset[i], dset[j]) or p.lt(dset[j], dset[i])
    by_part = {}
    for i, pid in enumerate(parts):
        by_part.setdefault(pid, []).append(ids[i])
    for members in by_part.values():
        for i in members:
            for j in members:
                assert i == j or p.lt(i, j) or p.lt(j, i)
