"""Acceptance suite: every headline claim of the library at its stated
tolerance, one printed pass/fail line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from fractions import Fraction as F
from itertools import combinations

from glpair.census import (class_orbit_count, expected_stabilizer_orders,
                           verify_separation)
from glpair.cones import (verify_basic_identity, verify_gamma_recurrence,
                          verify_langlands, verify_sigma_decomposition)
from glpair.exact import Matrix, Polynomial, QQ
from glpair.invariants import build_rrss_class
from glpair.parabolics import (det_center_weight, det_weight, dot,
                               enumerate_rel_std, parabolics_above,
                               restriction_check, rho_Q_s, s_sub, st_basis,
                               two_rho_ambient, two_rho_intersected,
                               varpi_minus, varpi_plus)
from glpair.polyexp import (exponential_integral, measure_constant_term,
                            p_quadrature)
from glpair.rrss import (enumerate_eps_subsets, lambda_bar_pole_set,
                         lambda_bar_shell, lambda_bar_vanishes, mu,
                         ordered_partition_count, verify_signed_sum_identity,
                         disjoint_subset_pairs)


def _report(number, name, ok, started, budget=None):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print("criterion %d [%s] %s (%.1fs)" % (number, status, name, elapsed))
    assert ok, "criterion %d failed: %s" % (number, name)
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %ds" % (number, budget)


def test_criterion_1_invariant_separation():
    t0 = time.time()
    ok = True
    rep = verify_separation(1, 3)
    ok &= rep.ok() and sum(s for e in rep.class_table.values()
                           for s, _ in e) == 81
    rep = verify_separation(2, 3)
    ok &= rep.ok() and sum(s for e in rep.class_table.values()
                           for s, _ in e) == 3 ** 9
    sampled = verify_separation(2, 5, sample=10000, seed=11)
    ok &= sampled.ok() and sampled.samples >= 10000
    _report(1, "invariant separation over F_3 exhaustive + F_5 sampled",
            ok, t0, budget=120)


def test_criterion_2_orbit_classification():
    t0 = time.time()
    B = Matrix(QQ, [[1, 0], [0, 2]])
    facs = [Polynomial(QQ, [-1, 1]), Polynomial(QQ, [-2, 1])]
    classes = [build_rrss_class(B, facs, a, F(1))
               for a in ([F(1), F(4)], [F(0), F(4)], [F(0), F(0)])]
    # an inert quadratic factor exercises the p^deg - 1 stabilizer order
    Bq = Matrix(QQ, [[0, -1], [1, 0]])
    quad = build_rrss_class(Bq, [Polynomial(QQ, [1, 0, 1])], [F(0)], F(2))
    ok = True
    for cls in classes:
        for p in (3, 5):
            count, stabs = class_orbit_count(cls, p)
            ok &= count == 3 ** len(cls.I0)
            ok &= stabs == expected_stabilizer_orders(cls, p)
            ok &= stabs.count(1) == 2 ** len(cls.I0)  # maximal orbits free
    count, stabs = class_orbit_count(quad, 3)
    ok &= count == 3 and stabs == [1, 1, 8]
    _report(2, "orbit count 3^#I0 and torus stabilizer orders at p in {3,5}",
            ok, t0, budget=300)


def test_criterion_3_cone_identity_suite():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        ok &= verify_basic_identity(n)["failures"] == 0
    lang_cases = rec_cases = sig_cases = 0
    for n in range(1, 5):
        size = len(enumerate_rel_std(n))
        per = max(2, (1100 if n == 4 else 300) // size)
        r = verify_langlands(n, per, seed=7)
        ok &= r["failures"] == 0
        lang_cases += r["cases"]
        r = verify_gamma_recurrence(n, per, seed=7)
        ok &= r["failures"] == 0
        rec_cases += r["cases"]
    for n in (2, 3):
        r = verify_sigma_decomposition(n, 8 if n == 3 else 20, seed=7)
        ok &= r["failures"] == 0
        sig_cases += r["cases"]
    ok &= lang_cases >= 1000 and rec_cases >= 1000 and sig_cases >= 1000
    _report(3, "cone identities: exhaustive n<=5 and %d/%d/%d samples"
            % (lang_cases, rec_cases, sig_cases), ok, t0, budget=180)


def test_criterion_4_exponent_lemmas_symbolic():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        for Q in enumerate_rel_std(n):
            rho = rho_Q_s(Q)
            idx, k, l = Q.indices, Q.k, Q.num_blocks
            for a in range(1, k):
                ok &= rho.pair(varpi_minus(idx[a], n)) == \
                    (F(idx[a]), F(idx[a]))
            for b in range(k, l):
                w = F(n - idx[b])
                ok &= rho.pair(varpi_plus(idx[b] + 1, n)) == (w, -w)
    for n in range(1, 5):
        for Q in enumerate_rel_std(n):
            rho = rho_Q_s(Q)
            det = det_weight(n)
            r2t = two_rho_ambient(Q)
            r2g = two_rho_intersected(Q)
            for bvec in st_basis(Q):
                ok &= rho.pair(bvec) == \
                    (dot(r2t, bvec) - dot(r2g, bvec), dot(det, bvec))
            bk = det_center_weight(Q)
            c0, c1 = s_sub(Q)
            mk = dot(bk, bk)
            ok &= -rho.pair(bk)[0] - c0 * mk == 0
            ok &= dot(det, bk) - rho.pair(bk)[1] - c1 * mk == 0
            for R in parabolics_above(Q):
                ok &= restriction_check(Q, R)
    _report(4, "exponent closed forms n<=5 and transport identities n<=4",
            ok, t0)


def test_criterion_5_flag_count_identities():
    t0 = time.time()
    ok = True
    for size in range(0, 4):
        I0 = list(range(1, size + 1))
        for J in enumerate_eps_subsets(I0):
            ok &= mu(J, I0) == (-1) ** len(J)
    for m in range(0, 9):
        ok &= sum((-1) ** i * ordered_partition_count(i, m)
                  for i in range(m + 1)) == (-1) ** m
    _report(5, "signed parabolic counts mu_J and flag-count alternation",
            ok, t0)


def test_criterion_6_exponential_integrals():
    """The constant term is j^-1 theta-hat(rho_{Q,s})^-1 exactly, for every
    Q at n <= 4 at five s and every Q at n = 5 at s = 1/2; the quadrature
    is the oracle for the exact route on seeded draws at n <= 2."""
    t0 = time.time()
    ok = True
    import math
    import random
    cases = [(Q, s) for n in (1, 2, 3, 4) for Q in enumerate_rel_std(n)
             for s in (F(0), F(1, 2), F(-1, 3), F(2, 7), F(5, 3))]
    cases += [(Q, F(1, 2)) for Q in enumerate_rel_std(5)]
    for Q, s in cases:
        rep = measure_constant_term(Q, s)
        ok &= (rep["selected"], rep["sign"], rep["relative_error"]) == \
            ("with_jacobian", 1, 0.0)
    rng = random.Random(13)
    for n in (1, 2):
        for Q in enumerate_rel_std(n):
            for s in (F(0), F(1, 2), F(-1, 3), F(1), F(-1)):
                X = tuple(F(rng.randint(-5, 5)) for _ in range(n + 1))
                f, gram = exponential_integral(Q, s)
                exact = math.sqrt(gram) * f.eval_float(X)
                ok &= abs(exact - p_quadrature(Q, s, X)) <= 1e-12 * abs(exact)
    _report(6, "exponential integrals: exact constant term j^-1 theta-hat^-1"
               " at n <= 5, exact route vs quadrature 1e-12", ok, t0,
            budget=120)


def test_criterion_7_rational_function_discipline():
    t0 = time.time()
    ok = True
    I0 = [1, 2, 3]
    for J in enumerate_eps_subsets(I0):
        for J1, J2 in disjoint_subset_pairs(J):
            poles = lambda_bar_pole_set(J, J1, J2)
            ok &= all(h.s_restriction() in (F(-1), F(1)) for h in poles)
            for eta in (frozenset(), frozenset({1}), frozenset(I0)):
                shell = lambda_bar_shell(J, J1, J2, eta)
                ok &= shell.factor.is_zero() == \
                    lambda_bar_vanishes(J, J1, J2, eta)
                if not shell.factor.is_zero():
                    ok &= shell.factor.denominator_roots() <= \
                        {F(-1), F(1)}
    for size in range(0, 4):
        sub_i0 = list(range(1, size + 1))
        rep = verify_signed_sum_identity(sub_i0, H_samples=100, seed=21)
        ok &= rep["failures"] == 0 and rep["cases"] == 100
    _report(7, "pole discipline in {-1,1}, character-model vanishing,"
               " signed-sum identity at 100 samples per size", ok, t0)


def _independent_flag_count(n):
    "Chains of proper subspace labels, enumerated from the inclusion rule."
    labels = [("V", i) for i in range(1, n + 1)] + \
             [("W", j) for j in range(n)]

    def comparable(x, y):
        (tx, ix), (ty, iy) = x, y
        if tx == ty:
            return ix != iy
        if tx == "V":
            return ix <= iy
        return iy <= ix

    return sum(1 for r in range(len(labels) + 1)
               for sub in combinations(labels, r)
               if all(comparable(x, y) for x, y in combinations(sub, 2)))


def test_criterion_8_parabolic_counts():
    t0 = time.time()
    ok = len(enumerate_rel_std(1)) == 3 == _independent_flag_count(1)
    ok &= len(enumerate_rel_std(2)) == 8 == _independent_flag_count(2)
    _report(8, "relative parabolic counts 3 (n=1) and 8 (n=2),"
               " re-derived independently", ok, t0)
