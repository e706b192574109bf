import random
from fractions import Fraction as F

import pytest

from glpair import rrss
from glpair.exact import Matrix, Polynomial, QQ
from glpair.invariants import alpha_invariant
from glpair.rrss import (EtaleAlgebra, Hyperplane, abs_set, add_functionals,
                         enumerate_eps_subsets, indicator_1, iota,
                         is_eps_subset, lambda_bar_pole_set, lambda_bar_shell,
                         lambda_bar_vanishes, mu, mu_by_corank,
                         ordered_partition_count, rho_of_eps,
                         s_det_functional, sharp, upeta_factor,
                         verify_signed_sum_identity,
                         zeta_pole_set, disjoint_subset_pairs)


def test_eps_subset_enumeration():
    assert enumerate_eps_subsets([]) == [frozenset()]
    assert set(enumerate_eps_subsets([1])) == \
        {frozenset(), frozenset({1}), frozenset({-1})}
    assert len(enumerate_eps_subsets([1, 2])) == 9
    assert len(enumerate_eps_subsets([1, 2, 3])) == 27
    assert is_eps_subset({1, -3}, {1, 2, 3})
    assert not is_eps_subset({1, -1}, {1})


def test_sharp_and_abs():
    S = frozenset({1, -3})
    assert sharp(S) == frozenset({-1, 3})
    assert sharp(sharp(S)) == S
    assert abs_set(S) == frozenset({1, 3})


def test_ordered_partition_counts():
    assert ordered_partition_count(0, 0) == 1
    assert ordered_partition_count(0, 4) == 0
    for m in range(1, 9):
        assert ordered_partition_count(1, m) == 1
    assert ordered_partition_count(2, 2) == 2
    for m in range(9):
        alt = sum((-1) ** i * ordered_partition_count(i, m)
                  for i in range(m + 1))
        assert alt == (-1) ** m


def test_mu_is_sign():
    for I0 in ([], [1], [1, 2], [1, 2, 3]):
        for J in enumerate_eps_subsets(I0):
            assert mu(J, I0) == (-1) ** len(J)
    with pytest.raises(ValueError):
        mu(frozenset({5}), [1, 2])


def test_mu_corank_breakdown():
    "Per-corank counts factor as convolutions of chain counts."
    I0 = [1, 2, 3]
    for J in enumerate_eps_subsets(I0):
        j1 = len([i for i in J if i > 0])
        j2 = len([i for i in J if i < 0])
        bc = mu_by_corank(J, I0)
        for k, cnt in bc.items():
            conv = sum(ordered_partition_count(i, j1)
                       * ordered_partition_count(k - i, j2)
                       for i in range(k + 1))
            assert cnt == conv


def _sample_algebra():
    t = Polynomial.x(QQ)
    return EtaleAlgebra(QQ, [t - 1, t - 2, t * t + 1])


def test_iota_ring_isomorphism():
    A = _sample_algebra()
    assert iota(A.one()).poly == A.dual().one().poly
    b = A.generator()
    assert iota(b).poly == (A.dual().element(-Polynomial.x(QQ))).poly
    rng = random.Random(1)
    for _ in range(100):
        x = A.from_coeffs([F(rng.randint(-5, 5)) for _ in range(A.dim)])
        y = A.from_coeffs([F(rng.randint(-5, 5)) for _ in range(A.dim)])
        assert iota(x * y).poly == (iota(x) * iota(y)).poly
        assert iota(x + y).poly == (iota(x) + iota(y)).poly
        assert iota(iota(x)).poly == x.poly


def test_idempotents_and_components():
    A = _sample_algebra()
    es = [A.idempotent(i) for i in A.index_set]
    total = A.zero()
    for e in es:
        assert (e * e).poly == e.poly
        total = total + e
    assert total.poly == A.one().poly
    assert (es[0] * es[1]).is_zero()
    x = A.element(Polynomial(QQ, [3, 1]))  # T + 3
    comps = x.components()
    assert comps[0].coeffs == (F(4),)      # at T = 1
    assert comps[1].coeffs == (F(5),)      # at T = 2


def test_trace_form_nondegenerate():
    """alpha_invariant solves the Hankel system of the trace form, which
    raises on a degenerate form; the solution has trace(alpha) = v . u."""
    for B, facs in (
            ([[1, 0], [0, 2]],
             [Polynomial(QQ, [-1, 1]), Polynomial(QQ, [-2, 1])]),
            ([[0, -1], [1, 0]], [Polynomial(QQ, [1, 0, 1])]),
            ([[0, 2, 0], [1, 0, 0], [0, 0, 3]],
             [Polynomial(QQ, [-2, 0, 1]), Polynomial(QQ, [-3, 1])])):
        n = len(B)
        u = tuple(F(i + 1) for i in range(n))
        v = tuple(F(2 - i) for i in range(n))
        alpha = alpha_invariant(Matrix(QQ, B), facs, u, v)
        assert alpha.trace() == sum(x * y for x, y in zip(u, v))


def test_etale_validation():
    t = Polynomial.x(QQ)
    with pytest.raises(ValueError):
        EtaleAlgebra(QQ, [t - 1, t - 1])       # not separable
    with pytest.raises(ValueError):
        EtaleAlgebra(QQ, [Polynomial.constant(QQ, F(2))])


def test_indicator_examples():
    I0 = [1, 2]
    H0 = {1: F(0), 2: F(0)}
    assert indicator_1(frozenset({1, 2}), H0, I0) == 1     # non-strict
    assert indicator_1(frozenset({1, -2}), H0, I0) == 0    # strict fails
    rng = random.Random(3)
    for _ in range(50):
        H = {i: F(rng.choice([-1, 1]) * rng.randint(1, 9)) for i in I0}
        Hneg = {i: -v for i, v in H.items()}
        for sub in enumerate_eps_subsets(I0):
            if len(sub) < 2:
                continue
            # at generic H, flipping both the subset sign and H preserves
            # the indicator value
            assert indicator_1(sub, H, I0) == \
                indicator_1(sharp(sub), Hneg, I0)


def test_indicators_tile_the_space():
    "Fully supported cones partition every point (boundaries included)."
    I0 = [1, 2]
    full = [S for S in enumerate_eps_subsets(I0)
            if abs_set(S) == frozenset(I0)]
    rng = random.Random(4)
    pts = [{1: F(0), 2: F(0)}] + \
        [{i: F(rng.randint(-5, 5)) for i in I0} for _ in range(40)]
    for H in pts:
        assert sum(indicator_1(S, H, I0) for S in full) == 1


def test_upeta():
    lam = add_functionals(s_det_functional({1, 2}),
                          rho_of_eps(frozenset({1, -2})))
    f = upeta_factor(frozenset({1, -2}), lam)
    assert f.scale == 1                       # (-1)^2
    assert f.denominator_roots() <= {F(-1), F(1)}
    assert f.symbols == ("c[1,2]", "v[1,2]")
    empty = upeta_factor(frozenset(), lam)
    assert empty.denominator.degree == 0 and not empty.is_zero()
    assert upeta_factor(frozenset({1}), lam, eta_indices={1}).is_zero()
    assert not upeta_factor(frozenset({1}), lam, eta_indices={2}).is_zero()
    lam_neg = add_functionals(s_det_functional({1}),
                              rho_of_eps(frozenset({-1})))
    one_neg = upeta_factor(frozenset({-1}), lam_neg)
    assert one_neg.scale == -1
    # denominator (1 + (i/|i|) s) per index: for -1 it is 1 - s
    assert one_neg.denominator.coeffs == (F(1), F(-1))


def test_pole_sets():
    # nothing left over: empty pole set
    assert lambda_bar_pole_set({1, -2}, {1}, {-2}) == set()
    ps = lambda_bar_pole_set({1, -2, 3}, {1}, {3})
    assert ps == {Hyperplane(frozenset({1, 2, 3}), 2, -2)}
    for h in ps:
        assert h.s_restriction() in (F(-1), F(1))
    # s-restrictions of the default two-parameter pole sets stay in {-1,1}
    I0 = [1, 2, 3]
    for J in enumerate_eps_subsets(I0):
        for J1, J2 in disjoint_subset_pairs(J):
            for h in lambda_bar_pole_set(J, J1, J2):
                assert h.s_restriction() in (F(-1), F(1))
    zs = zeta_pole_set({1, -2})
    assert {h.s_restriction() for h in zs} == {F(0), F(-1), F(1)}
    with pytest.raises(ValueError):
        lambda_bar_pole_set({1}, {1}, {1})


def test_det_line_not_contained():
    "The determinant line meets each singular locus in a single point."
    for J in enumerate_eps_subsets([1, 2]):
        for h in zeta_pole_set(J):
            # s*det pairs to s on the covector, so the pairing is a nonzero
            # affine function of s: the line is not inside the hyperplane
            lam = s_det_functional(abs_set(J) or {1})
            from glpair.rrss import eval_on_covector
            c0, c1 = eval_on_covector(lam, h.index)
            assert (c0, c1) != (0, 0) and c1 != 0


def test_eta_vanishing_exactness():
    "Switching an index into the character set kills exactly the shells"
    " whose leftover set meets it."
    I0 = [1, 2, 3]
    for eta in (frozenset(), frozenset({2}), frozenset({1, 3}),
                frozenset(I0)):
        for J in enumerate_eps_subsets(I0):
            for J1, J2 in disjoint_subset_pairs(J):
                shell = lambda_bar_shell(J, J1, J2, eta)
                assert shell.factor.is_zero() == \
                    lambda_bar_vanishes(J, J1, J2, eta)


def test_lambda_bar_shell_structure():
    "The shell is the upeta factor times a single opaque symbol, and its"
    " pole set matches the bookkeeping set."
    I0 = [1, 2]
    for J in enumerate_eps_subsets(I0):
        for J1, J2 in disjoint_subset_pairs(J):
            shell = lambda_bar_shell(J, J1, J2)
            poles = lambda_bar_pole_set(J, J1, J2)
            if shell.factor.is_zero():
                continue
            roots = shell.factor.denominator_roots()
            assert roots == {h.s_restriction() for h in poles}
            assert shell.holomorphic_symbol.startswith("Ups[")


def test_signed_sum_identity_small():
    "One case per sign class of H: 2^#I0 of them, all passing."
    for size in range(5):
        rep = verify_signed_sum_identity(range(1, size + 1))
        assert (rep["cases"], rep["failures"]) == (2 ** size, 0)
        assert "seed" not in rep


def test_signed_sum_identity_three_indices(monkeypatch):
    "A wrong lattice resummation rule fails on some sign class."
    assert verify_signed_sum_identity([1, 2, 3])["failures"] == 0
    wrong = dict(rrss._FLIP_RULES)
    wrong[("-", "+")] = ((1, rrss.E0), (1, rrss.OV), (1, rrss.AV))
    monkeypatch.setattr(rrss, "_FLIP_RULES", wrong)
    for size in (1, 3):
        rep = verify_signed_sum_identity(range(1, size + 1))
        assert rep["cases"] == 2 ** size and rep["failures"] > 0
