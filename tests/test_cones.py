from fractions import Fraction as F

import pytest

from glpair.cones import (gamma_prime, sigma, support_box, tau, tau_bar,
                          tau_hat, verify_basic_identity,
                          verify_gamma_recurrence, verify_gamma_support,
                          verify_langlands, verify_sigma_decomposition,
                          _centered_block_basis, _gamma_walls)
from glpair.parabolics import (RelStdParabolic, coweights, delta_hat, dot,
                               enumerate_rel_std, full_group,
                               parabolics_above, simple_roots)


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
    with pytest.raises(ValueError):
        tau(G, Q, zero)


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
