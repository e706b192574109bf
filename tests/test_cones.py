import random
from fractions import Fraction as F

import pytest

from glpair import cones
from glpair.cones import (gamma_prime, sigma, support_box, tau, tau_bar,
                          tau_hat, verify_basic_identity,
                          verify_gamma_recurrence, verify_gamma_support,
                          verify_langlands, verify_sigma_decomposition,
                          _centered_block_basis, _gamma_walls)
from glpair.parabolics import (RelStdParabolic, coweights, delta_hat, dot,
                               enumerate_rel_std, full_group, int_pair_data,
                               int_scaled, parabolics_above, simple_roots)


def test_indicator_boundaries():
    n = 2
    G = full_group(n)
    Q = RelStdParabolic(n, (0, 1, 2), 1)
    zero = (F(0),) * (n + 1)
    assert tau(Q, G, zero) == 0
    assert tau_hat(Q, G, zero) == 0
    assert tau_bar(Q, zero) == 1
    assert tau(Q, Q, zero) == 1 and tau_hat(Q, Q, zero) == 1
    # a point deep in the positive chamber for Q: blocks {0,1} then {2}
    deep = (F(10), F(10), F(-10))
    assert tau(Q, G, deep) == 1 and tau_hat(Q, G, deep) == 1
    assert tau_bar(Q, deep) == 0
    for fn in (tau, tau_hat, sigma):
        with pytest.raises(ValueError):
            fn(G, Q, zero)


def test_sigma_trivial_cases():
    G = full_group(2)
    H = (F(5), F(2), F(-1))
    assert sigma(G, G, H) == 1
    rep = verify_sigma_decomposition(2, 20, 3)
    assert rep["failures"] == 0


def test_gamma_prime_full_group():
    G = full_group(3)
    assert gamma_prime(G, (F(1),) * 4, (F(2),) * 4) == 1


def test_gamma_prime_rank_one_expansion():
    "On a corank-one parabolic the sum collapses to two terms."
    for Q in enumerate_rel_std(2):
        if Q.corank != 1:
            continue
        G = full_group(2)
        weights, _ = delta_hat(Q)
        w = weights[0]
        for H, X in [((F(1), F(2), F(-3)), (F(2), F(-1), F(0))),
                     ((F(-4), F(1), F(3)), (F(1), F(1), F(-2)))]:
            expect = int(dot(w, H) - dot(w, X) > 0) - tau(Q, G, H)
            assert gamma_prime(Q, H, X) == expect


def test_basic_identity_small():
    for n in (1, 2, 3):
        assert verify_basic_identity(n)["failures"] == 0


def test_langlands_and_recurrence_small():
    assert verify_langlands(2, 40, 11)["failures"] == 0
    assert verify_gamma_recurrence(2, 40, 11)["failures"] == 0


def test_langlands_and_recurrence_depth_spot_check():
    "A thin sample at the largest lattice the suite touches."
    assert verify_langlands(5, 2, 3)["failures"] == 0
    assert verify_gamma_recurrence(5, 2, 3)["failures"] == 0


def test_langlands_chamber_endpoints():
    "Deep positive: only the full group contributes; deep negative: only P."
    n = 2
    G = full_group(n)
    for P in enumerate_rel_std(n):
        if P.is_full_group():
            continue
        blocks = P.blocks()
        pos = [F(0)] * (n + 1)
        for j, blk in enumerate(blocks):
            for i in blk:
                pos[i] = F(100 * (len(blocks) - j))
        neg = [-x for x in pos]
        pos, neg = tuple(pos), tuple(neg)
        from glpair.parabolics import parabolics_above
        contributions_pos = [(Q, tau_hat(P, Q, pos) * tau_bar(Q, pos))
                             for Q in parabolics_above(P)]
        assert sum(c for _, c in contributions_pos) == 1
        assert dict(contributions_pos)[G] == 1
        contributions_neg = [(Q, tau_hat(P, Q, neg) * tau_bar(Q, neg))
                             for Q in parabolics_above(P)]
        assert sum(c for _, c in contributions_neg) == 1
        assert dict(contributions_neg)[P] == 1


def test_gamma_support_and_value_range():
    rep = verify_gamma_support(2, 150, 5)
    assert rep["failures"] == 0 and rep["cases"] >= 1000
    assert rep["values_in_unit_range"]
    rep = verify_gamma_support(3, 30, 5)
    assert rep["failures"] == 0
    assert rep["values_in_unit_range"]


def test_support_box_is_finite():
    for Q in enumerate_rel_std(2):
        basis = _centered_block_basis(Q)
        if not basis:
            continue
        X = (F(3), F(-2), F(1))
        box = support_box(Q, X, [tuple(b) for b in basis])
        assert len(box) == len(basis)
        for lo, hi in box:
            assert lo < hi


def test_gamma_walls_are_the_distinct_term_walls():
    """Each term R >= Q contributes its roots of Q in R and its coweights
    shifted by X; the terms share them, and 2 * corank remain at a generic
    X (c root walls through 0, c coweight walls through X)."""
    for n, X in ((2, (F(3), F(-2), F(1))), (3, (F(3), F(-2), F(1), F(7)))):
        G = full_group(n)
        for Q in enumerate_rel_std(n):
            walls = _gamma_walls(Q, X)
            listed = [(tuple(a), F(0)) for R in parabolics_above(Q)
                      for a in simple_roots(Q, R)]
            listed += [(tuple(w), dot(w, X)) for R in parabolics_above(Q)
                       for w in coweights(R, G)]
            assert len(set(walls)) == len(walls) == 2 * Q.corank
            assert set(walls) == set(listed)


def _sign(x):
    return (x > 0) - (x < 0)


def _rational_points(n, vecs, rng):
    """Two seeded rational points with non-unit denominators, and one point
    on the wall of each vector in vecs (H minus its projection onto v)."""
    pts = [tuple(F(rng.randint(-30, 30), rng.randint(1, 7))
                 for _ in range(n + 1)) for _ in range(2)]
    for v in vecs:
        H = pts[0]
        c = dot(v, H) / dot(v, v)
        pts.append(tuple(h - c * x for h, x in zip(H, v)))
    return pts


def test_integer_kernel_matches_fraction_signs():
    """For every nested pair at n <= 4, each integer-scaled root and coweight
    pairs with the scaled point to the sign of the Fraction pairing, so the
    integer tau, tau_hat, tau_bar and genericity test equal the Fraction
    reference, on walls too."""
    rng = random.Random(20)
    on_wall = 0
    for n in (1, 2, 3, 4):
        G = full_group(n)
        for P in enumerate_rel_std(n):
            for Q in parabolics_above(P):
                roots, cws = simple_roots(P, Q), coweights(P, Q)
                iroots, icws = int_pair_data(P, Q)
                for H in _rational_points(n, roots + cws, rng):
                    h = int_scaled(H)
                    for v, iv in zip(roots + cws, iroots + icws):
                        ref = _sign(dot(v, H))
                        assert _sign(sum(a * b for a, b in zip(iv, h))) == ref
                        on_wall += ref == 0
                    assert tau(P, Q, H) == int(all(dot(a, H) > 0
                                                   for a in roots))
                    assert tau_hat(P, Q, H) == int(all(dot(w, H) > 0
                                                       for w in cws))
                    assert tau_bar(Q, H) == int(all(
                        dot(a, H) <= 0 for a in simple_roots(Q, G)))
                    assert cones._generic_for(P, h) == all(
                        dot(v, H) != 0 for R in parabolics_above(P)
                        for v in coweights(P, R) + coweights(R, G)
                        + simple_roots(P, R))
    assert on_wall > 100


def test_gamma_prime_and_sigma_equal_their_alternating_sums():
    """The boundary products equal the definitions, for every Q and every
    nested P1 <= P2 at n <= 4: gamma_prime(Q, H, X) is the sum over R >= Q
    of (-1)^(d_Q - d_R) tau(Q,R,H) tau_hat(R,G,H-X), and sigma(P1, P2, H)
    the sum over Q >= P2 of (-1)^(d_P2 - d_Q) tau(P1,Q,H) tau_hat(Q,G,H).
    Points are seeded rationals and points on every root and coweight
    wall, for H and (through X) for H - X."""
    rng = random.Random(21)
    on_wall = 0
    for n in (1, 2, 3, 4):
        G = full_group(n)
        for Q in enumerate_rel_std(n):
            pts = _rational_points(n, simple_roots(Q, G)
                                   + coweights(Q, G), rng)
            for H in pts:
                for HX in pts:
                    X = tuple(h - y for h, y in zip(H, HX))
                    expect = sum(
                        (-1) ** (Q.num_blocks - R.num_blocks)
                        * tau(Q, R, H) * tau_hat(R, G, HX)
                        for R in parabolics_above(Q))
                    assert gamma_prime(Q, H, X) == expect
        for P1 in enumerate_rel_std(n):
            vecs = simple_roots(P1, G) + coweights(P1, G)
            pts = _rational_points(n, vecs, rng)
            on_wall += sum(dot(v, H) == 0 for v in vecs for H in pts)
            for P2 in parabolics_above(P1):
                for H in pts:
                    expect = sum(
                        (-1) ** (P2.num_blocks - Q.num_blocks)
                        * tau(P1, Q, H) * tau_hat(Q, G, H)
                        for Q in parabolics_above(P2))
                    assert sigma(P1, P2, H) == expect
    assert on_wall > 100


@pytest.mark.parametrize("samples", [0, -3])
def test_sweeps_refuse_an_empty_sample(samples):
    "A sweep over no sample checked nothing and passed with cases = 0."
    for fn in (verify_langlands, verify_gamma_recurrence,
               verify_sigma_decomposition, verify_gamma_support):
        with pytest.raises(ValueError, match="sample"):
            fn(2, samples, 0)


def test_gamma_value_out_of_range_is_a_failure(monkeypatch):
    """Every nonzero gamma_prime value becomes 2.  Outside the box it is
    still 0, so only the range check can fail; it used to clear
    values_in_unit_range without counting a failure."""
    kernel = cones._gamma_prime
    monkeypatch.setattr(cones, "_gamma_prime",
                        lambda Q, h, hx: 2 if kernel(Q, h, hx) else 0)
    rep = verify_gamma_support(2, 10, 0)
    assert rep["failures"] > 0
    assert not rep["values_in_unit_range"]
