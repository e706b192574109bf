import random
from fractions import Fraction as F
from itertools import product

import pytest

from glpair.census import (class_orbit_count, conjugate,
                           expected_stabilizer_orders, fingerprint,
                           generators, good_prime, group_order, is_rss,
                           orbit_of, stabilizer_order, verify_separation,
                           _group_pairs, _mat_inv)
from glpair.exact import GF, Matrix, Polynomial, QQ
from glpair.invariants import build_rrss_class, invariants, \
    is_regular_semisimple


def test_group_enumeration():
    "Each invertible matrix once, paired with its inverse."
    assert sorted(_group_pairs(1, 3)) == [(((1,),), ((1,),)),
                                          (((2,),), ((2,),))]
    for p in (3, 5):
        inverse = dict(_group_pairs(2, p))
        assert len(inverse) == group_order(2, p)
        assert all(inverse[gi] == g for g, gi in inverse.items())


def test_generators_generate():
    "Closure of the generating set is the whole group (n=2, p=3)."
    gens = generators(2, 3)
    seen = {tuple(map(tuple, g)) for g in gens}
    frontier = list(seen)
    from glpair.census import _mat_mul
    while frontier:
        new = []
        for a in frontier:
            for b in gens:
                c = _mat_mul(a, b, 3)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    assert len(seen) == group_order(2, 3)


def test_orbit_example():
    orb = orbit_of((1, 1, 1, 0), 1, 3)
    assert orb == {(1, 1, 1, 0), (1, 2, 2, 0)}
    central = (2, 0, 0, 1)   # u = v = 0, B central
    assert orbit_of(central, 1, 3) == {central}


def test_orbit_stabilizer_products():
    rng = random.Random(6)
    for _ in range(12):
        x = tuple(rng.randrange(3) for _ in range(9))
        orb = orbit_of(x, 2, 3)
        stab = stabilizer_order(x, 2, 3)
        assert len(orb) * stab == group_order(2, 3)
    assert stabilizer_order((0,) * 9, 2, 3) == group_order(2, 3)


def test_fingerprint_matches_exact_invariants():
    "The census fingerprint agrees with the exact-arithmetic invariants."
    rng = random.Random(8)
    g3 = GF(3)
    for _ in range(50):
        flat = tuple(rng.randrange(3) for _ in range(9))
        fp = fingerprint(flat, 2, 3)
        rows = [flat[0:3], flat[3:6], flat[6:9]]
        M = Matrix(g3, rows)
        from glpair.invariants import decompose
        X = decompose(M)
        inv = invariants(X)
        assert fp == tuple(s.r for s in inv.a) + tuple(s.r for s in inv.b)
        assert is_rss(flat, 2, 3) == is_regular_semisimple(X)


def test_rss_has_trivial_stabilizer():
    rng = random.Random(9)
    found = 0
    while found < 10:
        x = tuple(rng.randrange(3) for _ in range(9))
        if not is_rss(x, 2, 3):
            continue
        found += 1
        assert stabilizer_order(x, 2, 3) == 1


def test_separation_exhaustive_small():
    rep = verify_separation(1, 3)
    assert rep.ok()
    assert rep.orbit_count == 45
    total = sum(size for entries in rep.class_table.values()
                for size, _ in entries)
    assert total == 3 ** 4


def test_separation_sampled():
    rep = verify_separation(2, 5, sample=400, seed=2)
    assert rep.ok()
    assert rep.samples >= 400
    assert rep.mode == "sampled"


def test_class_orbit_count_degenerate_cases():
    B = Matrix(QQ, [[1, 0], [0, 2]])
    facs = [Polynomial(QQ, [-1, 1]), Polynomial(QQ, [-2, 1])]
    cls0 = build_rrss_class(B, facs, [F(1), F(4)], F(1))
    cnt, stabs = class_orbit_count(cls0, 3)
    assert cnt == 1 and stabs == [1]
    cls1 = build_rrss_class(B, facs, [F(0), F(4)], F(1))
    cnt, stabs = class_orbit_count(cls1, 3)
    assert cnt == 3 and stabs == expected_stabilizer_orders(cls1, 3)


def test_class_orbit_count_inert_factor():
    "A factor that stays irreducible mod p contributes p^deg - 1."
    B = Matrix(QQ, [[0, -1], [1, 0]])
    facs = [Polynomial(QQ, [1, 0, 1])]
    cls = build_rrss_class(B, facs, [F(0)], F(2))
    assert good_prime(cls, 3)
    assert not good_prime(cls, 5)        # t^2 + 1 splits mod 5
    cnt, stabs = class_orbit_count(cls, 3)
    assert cnt == 3 and stabs == [1, 1, 8]
    with pytest.raises(ValueError):
        class_orbit_count(cls, 5)


def test_bad_prime_detected_by_alpha():
    "A unit alpha component that dies mod p disqualifies the prime."
    B = Matrix(QQ, [[1, 0], [0, 2]])
    facs = [Polynomial(QQ, [-1, 1]), Polynomial(QQ, [-2, 1])]
    cls = build_rrss_class(B, facs, [F(1), F(3)], F(1))
    assert not good_prime(cls, 3)
    assert good_prime(cls, 5)


def test_conjugate_blocks():
    g = ((1, 1), (0, 1))
    gi = _mat_inv(g, 5)
    x = (1, 0, 2, 0, 2, 3, 4, 1, 0)
    y = conjugate(g, gi, x, 2, 5)
    assert fingerprint(x, 2, 5) == fingerprint(y, 2, 5)


def test_global_census_agrees_with_class_census():
    """The per-class enumeration and the whole-space sweep must report the
    same orbit structure for the class's fingerprint."""
    from glpair.census import reduce_element
    B = Matrix(QQ, [[1, 0], [0, 2]])
    facs = [Polynomial(QQ, [-1, 1]), Polynomial(QQ, [-2, 1])]
    cls = build_rrss_class(B, facs, [F(0), F(4)], F(1))
    count, stabs = class_orbit_count(cls, 3)
    fp = fingerprint(reduce_element(cls, frozenset(), 3), 2, 3)

    global_rep = verify_separation(2, 3)
    entries = global_rep.class_table[fp]
    assert len(entries) == count == 3
    assert sorted(st for _, st in entries) == stabs


def test_per_representative_stabilizer_orders():
    """Each labelled representative reduces to an element whose stabilizer
    is the torus of the indices left out of the label's support."""
    from glpair.census import reduce_element
    from glpair.rrss import abs_set, enumerate_eps_subsets
    B = Matrix(QQ, [[1, 0], [0, 2]])
    facs = [Polynomial(QQ, [-1, 1]), Polynomial(QQ, [-2, 1])]
    cls = build_rrss_class(B, facs, [F(0), F(0)], F(1))
    degs = {i: facs[i - 1].degree for i in cls.I0}
    for p in (3, 5):
        for sub in enumerate_eps_subsets(cls.I0):
            x = reduce_element(cls, sub, p)
            want = 1
            for i in set(cls.I0) - set(abs_set(sub)):
                want *= p ** degs[i] - 1
            assert stabilizer_order(x, 2, p) == want


def test_n1_class_orbit_counts():
    B = Matrix(QQ, [[3]])
    facs = [Polynomial(QQ, [-3, 1])]
    alive = build_rrss_class(B, facs, [F(1)], F(0))
    dead = build_rrss_class(B, facs, [F(0)], F(0))
    for p in (5, 7):
        assert class_orbit_count(alive, p) == (1, [1])
        cnt, stabs = class_orbit_count(dead, p)
        assert cnt == 3 and stabs == [1, 1, p - 1]


def _criterion_2_classes():
    B = Matrix(QQ, [[1, 0], [0, 2]])
    facs = [Polynomial(QQ, [-1, 1]), Polynomial(QQ, [-2, 1])]
    out = [build_rrss_class(B, facs, a, F(1))
           for a in ([F(1), F(4)], [F(0), F(4)], [F(0), F(0)])]
    Bq = Matrix(QQ, [[0, -1], [1, 0]])
    out.append(build_rrss_class(Bq, [Polynomial(QQ, [1, 0, 1])], [F(0)],
                                F(2)))
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_class_enumeration_matches_a_fingerprint_scan(p, monkeypatch):
    """The elements class_orbit_count partitions are exactly the elements
    of gl(3, F_p) whose fingerprint is the class's.  The scan calls
    `fingerprint` on every element whose d entry (the A_0 coordinate)
    is a target's; at p = 3 it covers the whole space."""
    from glpair import census
    from glpair.census import reduce_element
    seen = []
    partition = census._orbit_partition
    monkeypatch.setattr(census, "_orbit_partition",
                        lambda els, n, q: seen.append(list(els))
                        or partition(els, n, q))
    enumerated = {}
    for cls in _criterion_2_classes():
        if not good_prime(cls, p):
            continue
        target = fingerprint(reduce_element(cls, frozenset(), p), 2, p)
        class_orbit_count(cls, p)
        enumerated[target] = seen.pop()
    assert len(enumerated) == (4 if p == 3 else 3)
    ds = range(p) if p == 3 else {fp[0] for fp in enumerated}
    scanned = {fp: [] for fp in enumerated}
    for d in ds:
        for head in product(range(p), repeat=8):
            x = head + (d,)
            fp = fingerprint(x, 2, p)
            assert fp[0] == d
            if fp in scanned:
                scanned[fp].append(x)
    for fp, xs in enumerated.items():
        assert len(xs) == len(set(xs))
        assert sorted(xs) == sorted(scanned[fp]) and xs


@pytest.mark.parametrize("n, p", [(1, 5), (2, 3)])
def test_exhaustive_census_fingerprints_each_element_once(n, p, monkeypatch):
    from glpair import census
    calls = []
    exact = census.fingerprint
    monkeypatch.setattr(census, "fingerprint",
                        lambda x, n, p: calls.append(x) or exact(x, n, p))
    assert verify_separation(n, p).ok()
    assert len(calls) == len(set(calls)) == p ** ((n + 1) ** 2)


@pytest.mark.parametrize("n, p, seed", [(2, 3, 1), (2, 5, 3), (3, 3, 2)])
def test_sampled_conjugators_are_invertible(n, p, seed, monkeypatch):
    from glpair import census
    from glpair.census import _mat_mul
    pairs = []
    exact = census.conjugate
    monkeypatch.setattr(census, "conjugate",
                        lambda g, gi, x, n, p: pairs.append((g, gi))
                        or exact(g, gi, x, n, p))
    rep = verify_separation(n, p, sample=40, seed=seed)
    assert rep.ok() and len(pairs) >= 40
    one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for g, gi in pairs:
        assert _mat_inv(g, p) is not None
        assert _mat_mul(g, gi, p) == one
