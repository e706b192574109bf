import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from glpair import polyexp
from glpair.cones import _gamma_walls, gamma_prime, support_box
from glpair.parabolics import (delta_hat, det_weight, dot, enumerate_rel_std,
                               full_group, gram_det, parabolics_above,
                               rho_Q_s, st_basis, two_rho_ambient,
                               two_rho_intersected)
from glpair.polyexp import (PolyExp, SqrtVal, constant_term_candidates,
                            measure_constant_term, p_quadrature, p_rank1,
                            shanks_constant)


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


def test_rank1_zero_region():
    for n, Q in _rank1_parabolics((1, 2)):
        r = p_rank1(Q, F(1, 2), (F(0),) * (n + 1))
        assert abs(r.value()) < 1e-14
        assert float(r.constant) + float(r.exp_coeff) == pytest.approx(0.0)


def test_rank1_exponent_is_rho_of_X():
    rng = random.Random(2)
    for n, Q in _rank1_parabolics((1, 2)):
        for _ in range(5):
            X = tuple(F(rng.randint(-5, 5)) for _ in range(n + 1))
            r = p_rank1(Q, F(1, 3), X)
            c0, c1 = rho_Q_s(Q).pair(X)
            assert r.exponent == c0 + c1 * F(1, 3)


def test_rank1_constant_term_closed_form():
    "The constant equals sqrt(v^2/j^2) / theta-poly(s), to float precision."
    for n, Q in _rank1_parabolics((1, 2)):
        for s in (F(0), F(1, 2), F(-1, 3)):
            r = p_rank1(Q, s, (F(0),) * (n + 1))
            cand = constant_term_candidates(Q, s)["with_jacobian"]
            assert r.constant.square() == cand.square()
            assert abs(float(r.constant) - float(cand)) < 1e-9


def test_rank1_agrees_with_quadrature():
    rng = random.Random(3)
    for n, Q in _rank1_parabolics((1, 2)):
        for s in (F(0), F(1, 2), F(-1, 3)):
            X = tuple(F(rng.randint(-5, 5)) for _ in range(n + 1))
            exact = p_rank1(Q, s, X).value()
            quad = p_quadrature(Q, s, X)
            assert abs(exact - quad) <= 1e-6 * max(1e-6, abs(exact))


def test_rank1_degenerate_s_is_linear():
    "At the endpoint values of s the integral degenerates to a linear form."
    for n, Q in _rank1_parabolics((1, 2)):
        a1 = rho_Q_s(Q).pair(delta_hat(Q)[1][0])
        for s in (F(1), F(-1)):
            if a1[0] + a1[1] * s != 0:
                continue  # this endpoint is not degenerate for this Q
            vals = []
            weights, _ = delta_hat(Q)
            for t in (1, 2, 3):
                X = tuple(F(t) * x for x in weights[0])
                r = p_rank1(Q, s, X)
                assert r.degenerate
                vals.append(r.value())
            # equally spaced X along the coweight line: values are linear
            assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0])


def test_full_group_convention():
    G = full_group(2)
    assert p_quadrature(G, F(1, 2), (F(1), F(2), F(3))) == 1.0
    with pytest.raises(ValueError):
        p_rank1(G, F(1, 2), (F(0), F(0), F(0)))


def test_shanks_kills_single_mode():
    c, amp, lam = 2.5, -0.7, 0.3
    p1, p2, p3 = (c + amp * lam ** t for t in (1, 2, 3))
    assert shanks_constant(p1, p2, p3) == pytest.approx(c, abs=1e-12)


def _deep_negative_direction(Q, s):
    _, covs = delta_hat(Q)
    direction = tuple(-4 * sum(col) for col in zip(*covs))
    for R in parabolics_above(Q):
        if R.is_full_group():
            continue
        c0, c1 = rho_Q_s(R).pair(direction)
        if not c0 + c1 * s < 0:
            return None
    return direction


def test_rank2_constant_term_measurement():
    for Q in enumerate_rel_std(2):
        if Q.corank != 2:
            continue
        s = F(1, 2)
        direction = _deep_negative_direction(Q, s)
        assert direction is not None
        rep = measure_constant_term(Q, s, direction, tol=1e-9)
        assert rep["relative_error"] < 1e-4
        assert rep["selected"] == "with_jacobian"
        assert rep["sign"] == 1


def test_sqrtval():
    v = SqrtVal(F(3, 2), F(2))
    assert float(v) == pytest.approx(1.5 * math.sqrt(2))
    assert v.square() == F(9, 2)
    assert v.scale(2).rational == 3


def test_rank1_integral_is_a_polyexp_in_X():
    """Normalized by its common radical, the corank-one integral is a
    two-term polynomial-exponential in X with exponent rho_{Q,s}; its
    PolyExp form evaluates to the quadrature value at arbitrary points."""
    rng = random.Random(7)
    for n, Q in _rank1_parabolics((1, 2)):
        s = F(1, 2)
        probe = tuple(F(1 + i) for i in range(n + 1))
        r0 = p_rank1(Q, s, probe)
        radical = r0.constant.radicand
        rho = rho_Q_s(Q)
        lam = tuple(c + m * s for c, m in zip(rho.const, rho.slope))
        f = PolyExp(n + 1, {
            (F(0),) * (n + 1): {(0,) * (n + 1): r0.constant.rational},
            lam: {(0,) * (n + 1): r0.exp_coeff.rational}})
        scale = math.sqrt(float(radical))
        for _ in range(4):
            X = tuple(F(rng.randint(-4, 4)) for _ in range(n + 1))
            value = scale * f.eval_float(X)
            assert value == pytest.approx(p_rank1(Q, s, X).value(), abs=1e-10)
            assert value == pytest.approx(p_quadrature(Q, s, X), rel=1e-6,
                                          abs=1e-9)


# -- the vertex-split quadrature ----------------------------------------------

def _coweight_direction(Q):
    "-4 times the sum of the coweight covectors of Q."
    _, covs = delta_hat(Q)
    return tuple(-4 * sum(col) for col in zip(*covs))


@pytest.mark.parametrize("n", (2, 3))
def test_every_corank2_constant_term_selects_the_jacobian(n):
    """Criterion 6 for every corank-2 (Q, s) at n = 2, 3, including the four
    combinations where the adaptive Simpson rule returned false zeros."""
    combos = 0
    for Q in enumerate_rel_std(n):
        if Q.corank != 2:
            continue
        for s in (F(0), F(1, 2), F(-1, 3)):
            rep = measure_constant_term(Q, s, _coweight_direction(Q), tol=1e-9)
            assert rep["selected"] == "with_jacobian", (Q, s, rep)
            assert rep["sign"] == 1
            assert rep["relative_error"] < 1e-4
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
