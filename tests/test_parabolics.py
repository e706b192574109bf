from fractions import Fraction as F
from itertools import combinations

import pytest

from glpair import parabolics
from glpair.parabolics import (AffineWeight, RelStdParabolic, block_indicator,
                               boundary_table, center, contains, coweights,
                               delta_hat, det_center_weight, det_weight, dot,
                               enumerate_rel_std, full_group, int_scaled,
                               jacobian_sq, parabolics_above, rho_Q_s,
                               restriction_check, s_sub, simple_roots,
                               st_basis, theta_hat, two_rho_ambient,
                               two_rho_intersected, varpi_minus, varpi_plus)


def brute_force_flag_count(n):
    """Independent enumeration: totally ordered subsets of the proper
    nonzero subspace labels ('V', i) for 1 <= i <= n and ('W', j) for
    0 <= j <= n-1, ordered by ('V',i) < ('V',j) iff i < j, ('W',i) < ('W',j)
    iff i < j, ('V',i) < ('W',j) iff i <= j, and never ('W',.) < ('V',.)."""
    labels = [("V", i) for i in range(1, n + 1)] + \
             [("W", j) for j in range(n)]

    def comparable(x, y):
        (tx, ix), (ty, iy) = x, y
        if tx == ty:
            return ix != iy
        if tx == "V":
            return ix <= iy
        return iy <= ix  # the V entry must sit below the W entry

    count = 0
    for r in range(len(labels) + 1):
        for sub in combinations(labels, r):
            if all(comparable(x, y) for x, y in combinations(sub, 2)):
                count += 1
    return count


def test_lattice_counts():
    assert len(enumerate_rel_std(1)) == 3
    assert len(enumerate_rel_std(2)) == 8
    # re-derived by the independent flag enumerator before freezing
    for n in (1, 2, 3, 4, 5):
        assert len(enumerate_rel_std(n)) == brute_force_flag_count(n)
    assert len(enumerate_rel_std(3)) == 20
    assert len(enumerate_rel_std(4)) == 48
    assert len(enumerate_rel_std(5)) == 112


def test_lattice_canonical_order_and_validation():
    ps = enumerate_rel_std(2)
    assert ps[0] == full_group(2)
    assert len(set(ps)) == len(ps)
    with pytest.raises(ValueError):
        RelStdParabolic(2, (0, 0, 0, 2), 1)   # two repeats
    with pytest.raises(ValueError):
        RelStdParabolic(2, (0, 1, 1, 2), 1)   # repeat away from k
    with pytest.raises(ValueError):
        RelStdParabolic(2, (0, 1), 1)         # does not end at n


def test_contains():
    G = full_group(1)
    ps = enumerate_rel_std(1)
    for P in ps:
        assert contains(G, P)
        assert contains(P, P)
    A = RelStdParabolic(1, (0, 0, 1), 1)
    B = RelStdParabolic(1, (0, 1, 1), 2)
    assert not contains(A, B) and not contains(B, A)


def test_varpi_coordinates():
    assert varpi_minus(1, 1) == (F(-1, 2), F(1, 2))
    assert varpi_plus(1, 1) == (F(1, 2), F(-1, 2))
    for n in (1, 2, 3):
        for i in range(-1, n + 3):
            wm, wp = varpi_minus(i, n), varpi_plus(i, n)
            assert sum(wm) == 0 and sum(wp) == 0
            if not 1 <= i <= n:
                assert not any(wm) and not any(wp)


def test_delta_hat():
    G = full_group(2)
    assert delta_hat(G) == ((), ())
    Q = RelStdParabolic(1, (0, 0, 1), 1)
    weights, covs = delta_hat(Q)
    assert weights == (varpi_plus(1, 1),)
    for n in (1, 2, 3, 4):
        for P in enumerate_rel_std(n):
            w, cv = delta_hat(P)
            assert len(w) == P.num_blocks - 1 == P.corank


def test_delta_hat_matches_dual_basis():
    for n in (1, 2, 3):
        G = full_group(n)
        for Q in enumerate_rel_std(n):
            _, covs = delta_hat(Q)
            assert sorted(covs) == sorted(coweights(Q, G))


def test_root_coweight_duality():
    "Simple roots against the coweight covectors pair to the identity."
    for n in (1, 2, 3):
        G = full_group(n)
        for Q in enumerate_rel_std(n):
            roots = simple_roots(Q, G)
            covs = coweights(Q, G)
            for i, a in enumerate(roots):
                for j, w in enumerate(covs):
                    assert dot(a, w) == (1 if i == j else 0)
            for a in roots:
                _, paper_covs = delta_hat(Q)
                # paper covectors are the same dual family, so pairings with
                # the roots (their own coroots) form a permutation of the
                # identity
                row = [dot(pc, a) for pc in paper_covs]
                assert sorted(row) == [0] * (len(row) - 1) + [1]


def test_coarsenings_are_the_subsets_of_boundaries():
    """The R >= Q are the 2^corank subsets of Q's boundaries that R keeps:
    the roots of Q in R are Q's roots at the boundaries R drops, and the
    coweights of R in G are the coweights at those it keeps (all 1457
    nested pairs at n <= 5).  For P <= Q, boundary_table(P, Q) holds P's
    roots at Q's boundaries and Q's coweights."""
    pairs = 0
    for n in range(1, 6):
        G = full_group(n)
        for Q in enumerate_rel_std(n):
            roots, cws, iroots, icws = boundary_table(Q, Q)
            assert (roots, cws) == (simple_roots(Q, G), coweights(Q, G))
            assert iroots == tuple(int_scaled(a) for a in roots)
            assert icws == tuple(int_scaled(w) for w in cws)
            above = parabolics_above(Q)
            assert len(above) == 2 ** Q.corank
            dropped_sets = set()
            for R in above:
                pairs += 1
                dropped = {j for j, a in enumerate(roots)
                           if a in simple_roots(Q, R)}
                dropped_sets.add(frozenset(dropped))
                assert sorted(simple_roots(Q, R)) == sorted(
                    roots[j] for j in dropped)
                assert sorted(coweights(R, G)) == sorted(
                    cws[j] for j in range(Q.corank) if j not in dropped)
            assert len(dropped_sets) == 2 ** Q.corank
            for P in enumerate_rel_std(n):
                if not contains(Q, P):
                    continue
                proots, pcws = boundary_table(P, Q)[:2]
                assert pcws == cws and len(proots) == Q.corank
                assert set(proots) <= set(simple_roots(P, G))
                assert not set(proots) & set(simple_roots(P, Q))
    assert pairs == 1457


def test_s_sub_examples():
    assert s_sub(full_group(5)) == (F(0), F(1))
    assert s_sub(RelStdParabolic(2, (0, 1, 2), 2)) == (F(1, 2), F(3, 2))
    assert s_sub(RelStdParabolic(1, (0, 0, 1), 1)) == (F(-1), F(2))


def test_rho_closed_forms():
    for n in range(1, 6):
        for Q in enumerate_rel_std(n):
            rho = rho_Q_s(Q)
            idx, k, l = Q.indices, Q.k, Q.num_blocks
            for a in range(1, k):
                assert rho.pair(varpi_minus(idx[a], n)) == \
                    (F(idx[a]), F(idx[a]))
            for b in range(k, l):
                w = F(n - idx[b])
                assert rho.pair(varpi_plus(idx[b] + 1, n)) == (w, -w)


def test_rho_full_group_vanishes():
    for n in (1, 2, 3):
        rho = rho_Q_s(full_group(n))
        assert not any(rho.const) and not any(rho.slope)


def test_rho_pairings_positive_on_open_strip():
    "Every coweight pairing of rho_{Q,s} is positive for -1 < s < 1."
    for n in (1, 2, 3, 4):
        G = full_group(n)
        for Q in enumerate_rel_std(n):
            rho = rho_Q_s(Q)
            for w in coweights(Q, G):
                c0, c1 = rho.pair(w)
                for s in (F(0), F(9, 10), F(-9, 10), F(1, 3)):
                    assert c0 + c1 * s > 0


def test_theta_hat():
    G = full_group(2)
    poly, vsq = theta_hat(G, rho_Q_s(G))
    assert poly.coeffs == (F(1),) and vsq == 1
    for n in (1, 2, 3, 4):
        for Q in enumerate_rel_std(n):
            poly, vsq = theta_hat(Q, rho_Q_s(Q))
            assert vsq > 0
            # roots of the pairing polynomial lie in {-1, 1}
            for s in (F(0), F(1, 2), F(-1, 3), F(5, 7)):
                assert poly(s) != 0
            if not Q.is_full_group():
                root_prod = poly(F(1)) * poly(F(-1))
                assert root_prod == 0


def test_jacobian_sq():
    assert jacobian_sq(full_group(3)) == 1
    assert jacobian_sq(RelStdParabolic(1, (0, 1, 1), 2)) == F(1, 2)
    for n in (1, 2, 3):
        for Q in enumerate_rel_std(n):
            assert jacobian_sq(Q) > 0


def test_transport_identity():
    "rho_{Q,s} agrees with s det - 2rho_Q + 2rho_Q~ on the standard part."
    for n in (1, 2, 3, 4):
        for Q in enumerate_rel_std(n):
            rho = rho_Q_s(Q)
            det = det_weight(n)
            r2t = two_rho_ambient(Q)
            r2g = two_rho_intersected(Q)
            for b in st_basis(Q):
                assert rho.pair(b) == \
                    (dot(r2t, b) - dot(r2g, b), dot(det, b))


def test_center_block_exponent_identity():
    "s det - rho_{Q,s} - s_Q det_Z vanishes on the distinguished block."
    for n in (1, 2, 3, 4):
        for Q in enumerate_rel_std(n):
            rho = rho_Q_s(Q)
            bk = det_center_weight(Q)
            c0, c1 = s_sub(Q)
            mk = dot(bk, bk)
            assert -rho.pair(bk)[0] - c0 * mk == 0
            assert dot(det_weight(n), bk) - rho.pair(bk)[1] - c1 * mk == 0


def test_restriction_identity():
    for n in (1, 2, 3, 4):
        for Q in enumerate_rel_std(n):
            for R in parabolics_above(Q):
                assert restriction_check(Q, R)
    with pytest.raises(ValueError):
        restriction_check(full_group(1), RelStdParabolic(1, (0, 0, 1), 1))


def _centred_blocks(R):
    return [center(block_indicator(b, R.n)) for b in R.blocks()]


def test_integer_restriction_check_matches_the_fraction_pairing():
    "All 1457 nested pairs at n <= 5, against AffineWeight.restrict_equal."
    pairs = [(Q, R) for n in range(1, 6) for Q in enumerate_rel_std(n)
             for R in parabolics_above(Q)]
    assert len(pairs) == 1457
    for Q, R in pairs:
        ref = rho_Q_s(Q).restrict_equal(rho_Q_s(R), _centred_blocks(R))
        assert restriction_check(Q, R) == ref


def test_restriction_check_rejects_a_perturbed_weight(monkeypatch):
    """Every real pair restricts equal, so a constant True would pass the
    test above; shifting rho_{Q,s} by e_0 / 3 in its constant or its slope
    part breaks the identity on every proper R > Q, where e_0 pairs nonzero
    with the centred indicator of the block holding coordinate 0."""
    true_rho = parabolics.rho_Q_s
    checked = 0
    for n in (1, 2, 3):
        for Q in enumerate_rel_std(n):
            for R in parabolics_above(Q):
                if R == Q or R.is_full_group():
                    continue
                rho = true_rho(Q)
                bump = (F(1, 3),) + (F(0),) * n
                for bad in (AffineWeight(parabolics.add_vec(rho.const, bump),
                                         rho.slope),
                            AffineWeight(rho.const,
                                         parabolics.add_vec(rho.slope, bump))):
                    monkeypatch.setattr(
                        parabolics, "rho_Q_s",
                        lambda P, bad=bad: bad if P == Q else true_rho(P))
                    assert not bad.restrict_equal(true_rho(R),
                                                  _centred_blocks(R))
                    assert not restriction_check(Q, R)
                    checked += 1
    assert checked > 50


def test_rho_nonzero_on_intermediate_restrictions():
    "For R >= Q with R proper, rho_{Q,s} restricted to the centered part of"
    " a_R is a nonzero functional at generic rational s."
    from glpair.parabolics import block_indicator, center
    for n in (1, 2, 3):
        for Q in enumerate_rel_std(n):
            for R in parabolics_above(Q):
                if R.is_full_group():
                    continue
                rho = rho_Q_s(Q)
                for s in (F(0), F(1, 2), F(-2, 3), F(7, 4)):
                    vals = []
                    for blk in R.blocks():
                        b = center(block_indicator(blk, n))
                        c0, c1 = rho.pair(b)
                        vals.append(c0 + c1 * s)
                    assert any(v != 0 for v in vals), (Q, R, s)
