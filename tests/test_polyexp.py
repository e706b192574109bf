import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from glpair import polyexp
from glpair.cones import _gamma_walls, gamma_prime, support_box
from glpair.parabolics import (delta_hat, det_weight, dot, enumerate_rel_std,
                               full_group, gram_det, jacobian_sq, rho_Q_s,
                               st_basis, theta_hat, two_rho_ambient,
                               two_rho_intersected)
from glpair.polyexp import (PolyExp, exponential_integral,
                            measure_constant_term, p_quadrature, p_rank1)


def _rand_polyexp(rng, dim, nterms=3):
    terms = {}
    for _ in range(nterms):
        lam = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        poly = {tuple(rng.randint(0, 2) for _ in range(dim)):
                F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))}
        tgt = terms.setdefault(lam, {})
        for m, c in poly.items():
            tgt[m] = tgt.get(m, F(0)) + c
    return PolyExp(dim, terms)


def test_pure_poly_part():
    f = PolyExp.exponential((F(2), F(0)), {(0, 0): F(1)}) \
        + PolyExp.constant(2, 3)
    assert f.pure_poly_part() == {(0, 0): F(3)}
    g = PolyExp.exponential((F(0), F(0)), {(1, 0): F(2)})
    assert g.pure_poly_part() == {(1, 0): F(2)}


def test_mul_merges_exponents():
    f = PolyExp.exponential((F(1),))
    g = PolyExp.exponential((F(2),))
    h = f * g
    assert h.exponents() == [(F(3),)]


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        PolyExp.constant(1, 1) + PolyExp.constant(2, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_ring_laws(sa, sb, sc):
    rng = random.Random(sa * 10007 + sb * 101 + sc)
    d = rng.randint(1, 2)
    f, g, h = (_rand_polyexp(rng, d) for _ in range(3))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_pointwise_uniqueness_oracle():
    """Interpolation-style uniqueness: polynomial-exponentials agree as term
    maps exactly when they agree pointwise on a generic rational grid (the
    grid large enough for the degrees involved)."""
    rng = random.Random(17)
    for _ in range(25):
        d = rng.randint(1, 2)
        f = _rand_polyexp(rng, d)
        g = _rand_polyexp(rng, d)
        grid = [tuple(F(rng.randint(1, 60), rng.randint(1, 7))
                      for _ in range(d)) for _ in range(25)]
        agree = all(f.eval_split(v) == g.eval_split(v) for v in grid)
        assert agree == (f == g)
        # rebuilding f from its own terms in scrambled order normalizes to
        # the identical term map
        parts = [PolyExp(d, {lam: poly}) for lam, poly in f.terms.items()]
        rng.shuffle(parts)
        total = PolyExp.zero(d)
        for p in parts:
            total = total + p
        assert total == f


def test_eval_float_matches_split():
    f = PolyExp.exponential((F(1, 2),), {(1,): F(2)}) + PolyExp.constant(1, 5)
    v = (F(3),)
    split = f.eval_split(v)
    assert split == {F(3, 2): F(6), F(0): F(5)}
    assert abs(f.eval_float(v) - (6 * math.exp(1.5) + 5)) < 1e-12


def _rank1_parabolics(ns):
    for n in ns:
        for Q in enumerate_rel_std(n):
            if Q.corank == 1:
                yield n, Q


def _zero(n):
    return (F(0),) * (n + 1)


def test_rank1_zero_region():
    "At X = 0 the support of gamma' is null: the value is exactly zero."
    for n, Q in _rank1_parabolics((1, 2)):
        f, _ = exponential_integral(Q, F(1, 2))
        assert f.eval_split(_zero(n)) == {}
        assert p_rank1(Q, F(1, 2), _zero(n)) == 0.0


def _rho_at(Q, s):
    "The covector rho_{Q,s} at rational s."
    rho = rho_Q_s(Q)
    return tuple(c + m * s for c, m in zip(rho.const, rho.slope))


def test_rank1_exponent_is_rho_of_X():
    "The two exponent classes at corank one are 0 and rho_{Q,s}."
    for n, Q in _rank1_parabolics((1, 2)):
        f, _ = exponential_integral(Q, F(1, 3))
        assert f.exponents() == sorted([_zero(n), _rho_at(Q, F(1, 3))])


def test_rank1_constant_term_closed_form():
    "The constant is sqrt(v^2/j^2) / theta-poly(s) over sqrt(gram), exactly."
    for n, Q in _rank1_parabolics((1, 2)):
        for s in (F(0), F(1, 2), F(-1, 3)):
            f, gram = exponential_integral(Q, s)
            poly, vsq = theta_hat(Q, rho_Q_s(Q))
            const = f.pure_poly_part()
            assert list(const) == [(0,) * (n + 1)]
            c = const[(0,) * (n + 1)]
            assert c ** 2 * gram == vsq / jacobian_sq(Q) / poly(s) ** 2
            assert c * poly(s) > 0


def test_rank1_agrees_with_quadrature():
    rng = random.Random(3)
    for n, Q in _rank1_parabolics((1, 2)):
        for s in (F(0), F(1, 2), F(-1, 3)):
            X = tuple(F(rng.randint(-5, 5)) for _ in range(n + 1))
            exact = p_rank1(Q, s, X)
            quad = p_quadrature(Q, s, X)
            assert abs(exact - quad) <= 1e-12 * max(1e-6, abs(exact))


def test_rank1_degenerate_s_is_linear():
    """Where rho_{Q,s} vanishes (s at an endpoint) the integral is a single
    polynomial class of degree one, linear along the coweight line."""
    seen = 0
    for n, Q in _rank1_parabolics((1, 2)):
        for s in (F(1), F(-1)):
            if any(_rho_at(Q, s)):
                continue  # this endpoint is not degenerate for this Q
            seen += 1
            f, _ = exponential_integral(Q, s)
            assert f.exponents() == [_zero(n)]
            assert max(map(sum, f.pure_poly_part())) == 1
            weights, _ = delta_hat(Q)
            vals = [p_rank1(Q, s, tuple(F(t) * x for x in weights[0]))
                    for t in (1, 2, 3)]
            assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0])
    assert seen


def test_full_group_convention():
    G = full_group(2)
    assert p_quadrature(G, F(1, 2), (F(1), F(2), F(3))) == 1.0
    assert exponential_integral(G, F(1, 2)) == (PolyExp.constant(3, 1), 1)
    with pytest.raises(ValueError):
        p_rank1(G, F(1, 2), (F(0), F(0), F(0)))


def test_rank2_constant_term_measurement():
    for Q in enumerate_rel_std(2):
        if Q.corank != 2:
            continue
        rep = measure_constant_term(Q, F(1, 2))
        assert rep["relative_error"] == 0.0
        assert rep["selected"] == "with_jacobian"
        assert rep["sign"] == 1


def test_rank1_integral_is_a_polyexp_in_X():
    """At corank one the integral is sqrt(gram) times a constant plus a
    constant times e^{rho_{Q,s}(X)}; it matches the quadrature at
    arbitrary points."""
    rng = random.Random(7)
    for n, Q in _rank1_parabolics((1, 2)):
        s = F(1, 2)
        f, gram = exponential_integral(Q, s)
        assert all(list(p) == [(0,) * (n + 1)] for p in f.terms.values())
        for _ in range(4):
            X = tuple(F(rng.randint(-4, 4)) for _ in range(n + 1))
            value = math.sqrt(gram) * f.eval_float(X)
            assert value == pytest.approx(p_quadrature(Q, s, X), rel=1e-12,
                                          abs=1e-12)


# -- the exact route ----------------------------------------------------------

def _exact_value(Q, s, X):
    f, gram = exponential_integral(Q, s)
    return math.sqrt(gram) * f.eval_float(X)


def test_exact_route_is_independent_of_the_perturbation(monkeypatch):
    """The eps^0 coefficient does not depend on the direction beta of the
    perturbation: a second beta gives the identical PolyExp for every Q at
    n <= 4, at s where exponent pairings vanish (0, +-1) and where none
    needs to."""
    base = {(Q, s): exponential_integral(Q, s)
            for n in (1, 2, 3, 4) for Q in enumerate_rel_std(n)
            for s in (F(0), F(1), F(-1), F(1, 2), F(-1, 3))}
    monkeypatch.setattr(polyexp, "_perturbation",
                        lambda c: [F(2 + i, 5 + 11 * i) for i in range(c)])
    for (Q, s), value in base.items():
        assert exponential_integral(Q, s) == value, (Q, s)


def test_exact_route_matches_the_quadrature():
    """Seeded draws at n <= 4 and coranks 1 to 3, s = +-1 included, X with
    denominators up to 3: relative agreement to 1e-12."""
    rng = random.Random(11)
    draws = 0
    for n in (1, 2, 3, 4):
        Qs = [Q for Q in enumerate_rel_std(n) if 1 <= Q.corank <= 3]
        for Q in rng.sample(Qs, min(len(Qs), 6)):
            for s in (F(1), F(-1), rng.choice((F(0), F(1, 2), F(-1, 3)))):
                X = tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(n + 1))
                exact = _exact_value(Q, s, X)
                assert abs(exact - p_quadrature(Q, s, X)) \
                    <= 1e-12 * abs(exact), (Q, s, X)
                draws += 1
    assert draws == 60


def test_corank5_value_is_finite():
    Q = next(Q for Q in enumerate_rel_std(5) if Q.corank == 5)
    value = _exact_value(Q, F(1, 2), (F(1), F(-2), F(0), F(3), F(-1), F(2)))
    assert math.isfinite(value) and value != 0


def test_exact_route_refuses_past_its_work_bound():
    Q = next(Q for Q in enumerate_rel_std(7) if Q.corank == 7)
    with pytest.raises(ValueError):
        exponential_integral(Q, F(1, 2))


# -- the vertex-split quadrature ----------------------------------------------

@pytest.mark.parametrize("n", (2, 3))
def test_every_corank2_constant_term_selects_the_jacobian(n):
    """Criterion 6 for every corank-2 (Q, s) at n = 2, 3, including the four
    combinations where the adaptive Simpson rule returned false zeros."""
    combos = 0
    for Q in enumerate_rel_std(n):
        if Q.corank != 2:
            continue
        for s in (F(0), F(1, 2), F(-1, 3)):
            rep = measure_constant_term(Q, s)
            assert rep["selected"] == "with_jacobian", (Q, s, rep)
            assert rep["sign"] == 1
            assert rep["relative_error"] == 0.0
            combos += 1
    assert combos == {2: 9, 3: 27}[n]


def _composite_rule(panels):
    "The 16-point rule on `panels` equal parts of [-1, 1], as one rule."
    return [(-1 + (2 * j + 1 + x) / panels, w / panels)
            for j in range(panels) for x, w in polyexp._GL_NODES]


def test_corank3_value_is_stable_under_halving(monkeypatch):
    Q = enumerate_rel_std(3)[16]
    X = (F(0), F(-2), F(3), F(-1))
    value = p_quadrature(Q, F(-1, 3), X)
    assert value == pytest.approx(1.734046227764, rel=1e-9)
    monkeypatch.setattr(polyexp, "_GL_NODES", _composite_rule(2))
    assert p_quadrature(Q, F(-1, 3), X) == pytest.approx(value, rel=1e-12)


def _midpoint_reference(Q, s, X, cells):
    """Outer midpoint rule with about `cells` cells over the support box,
    and an exact inner line integral: gamma' (exact, from cones) is
    constant between consecutive wall crossings, and e^{a t} integrates in
    closed form.  The outer integrand jumps only across walls parallel to
    the inner axis, so each of those walls is a cell boundary; elsewhere
    it is continuous with kinks, and the rule converges at second order."""
    basis = st_basis(Q)
    a = [float(s * dot(det_weight(Q.n), b) + dot(two_rho_ambient(Q), b)
               - dot(two_rho_intersected(Q), b)) for b in basis]
    (lo0, hi0), (lo1, hi1) = support_box(Q, X, basis)
    walls = [(dot(w, basis[0]), dot(w, basis[1]), off)
             for w, off in _gamma_walls(Q, X)]
    breaks = sorted({lo0, hi0} | {off / c0 for c0, c1, off in walls
                                  if c1 == 0 and c0 != 0})
    total = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        parts = max(1, round(cells * (hi - lo) / (hi0 - lo0)))
        h = (hi - lo) / parts
        for i in range(parts):
            t0 = lo + (i + F(1, 2)) * h
            cuts = sorted({lo1, hi1} | {
                t for c0, c1, off in walls if c1 != 0
                for t in [(off - c0 * t0) / c1] if lo1 < t < hi1})
            inner = 0.0
            for u, v in zip(cuts, cuts[1:]):
                H = tuple(t0 * x + (u + v) / 2 * y for x, y in zip(*basis))
                g = gamma_prime(Q, H, X)
                if g and a[1]:
                    inner += g * (math.exp(a[1] * v)
                                  - math.exp(a[1] * u)) / a[1]
                elif g:
                    inner += g * float(v - u)
            total += math.exp(a[0] * float(t0)) * inner * float(h)
    return math.sqrt(float(gram_det(list(basis)))) * total


def test_former_false_zero_matches_a_midpoint_grid():
    """The adaptive Simpson rule gave 0.0 here: its first five points all
    missed the thin support.  The reference rule converges at second
    order, so its 400-cell value is off by about a third of its distance
    to the 200-cell value; the quadrature must land within that distance
    of it."""
    Q = enumerate_rel_std(3)[11]
    s, X = F(-1, 3), (F(1), F(0), F(1), F(4))
    value = p_quadrature(Q, s, X)
    assert value == pytest.approx(0.76336, abs=1e-5)
    coarse = _midpoint_reference(Q, s, X, 200)
    fine = _midpoint_reference(Q, s, X, 400)
    assert abs(value - fine) <= abs(fine - coarse)
    assert abs(fine - coarse) < 1e-3 * abs(fine)
