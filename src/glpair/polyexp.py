"""Polynomial-exponential functions and the exponential integrals of the
compactly supported cone combination over the standard part of a_Q.

A polynomial-exponential on Q^d is a finite sum of e^{lambda(v)} P_lambda(v)
with rational exponent covectors lambda and rational-coefficient
polynomials P_lambda; the lambda = 0 polynomial is its purely polynomial
part.  The exponential integral is evaluated two independent ways: a
closed form on one-dimensional quotients, and Gauss-Legendre quadrature
over the standard coordinates for corank up to three, split at the
vertices of the cone combination's wall arrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from .cones import _gamma_walls
from .parabolics import (delta_hat, det_weight, dot, gram_det, jacobian_sq,
                         rho_Q_s, st_basis, theta_hat, two_rho_ambient,
                         two_rho_intersected)


class PolyExp:
    """terms: map exponent-covector (tuple of Fractions, length dim) ->
    polynomial, itself a map monomial-exponent-tuple -> rational
    coefficient.  Zero polynomials are never stored."""

    def __init__(self, dim, terms=None):
        self.dim = dim
        clean = {}
        for lam, poly in (terms or {}).items():
            lam = tuple(Fraction(x) for x in lam)
            if len(lam) != dim:
                raise ValueError("exponent dimension mismatch")
            p = {tuple(m): Fraction(c) for m, c in poly.items() if c != 0}
            if p:
                clean[lam] = p
        self.terms = clean

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, c):
        return cls(dim, {(Fraction(0),) * dim: {(0,) * dim: Fraction(c)}})

    @classmethod
    def exponential(cls, lam, poly=None):
        lam = tuple(Fraction(x) for x in lam)
        d = len(lam)
        if poly is None:
            poly = {(0,) * d: Fraction(1)}
        return cls(d, {lam: poly})

    def __eq__(self, other):
        return (isinstance(other, PolyExp) and self.dim == other.dim
                and self.terms == other.terms)

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = {lam: dict(p) for lam, p in self.terms.items()}
        for lam, poly in other.terms.items():
            tgt = out.setdefault(lam, {})
            for m, c in poly.items():
                tgt[m] = tgt.get(m, Fraction(0)) + c
        return PolyExp(self.dim, out)

    def __neg__(self):
        return PolyExp(self.dim, {lam: {m: -c for m, c in p.items()}
                                  for lam, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolyExp):
            if self.dim != other.dim:
                raise ValueError("dimension mismatch")
            out = {}
            for l1, p1 in self.terms.items():
                for l2, p2 in other.terms.items():
                    lam = tuple(a + b for a, b in zip(l1, l2))
                    tgt = out.setdefault(lam, {})
                    for m1, c1 in p1.items():
                        for m2, c2 in p2.items():
                            m = tuple(a + b for a, b in zip(m1, m2))
                            tgt[m] = tgt.get(m, Fraction(0)) + c1 * c2
            return PolyExp(self.dim, out)
        c = Fraction(other)
        return PolyExp(self.dim, {lam: {m: c * v for m, v in p.items()}
                                  for lam, p in self.terms.items()})

    __rmul__ = __mul__

    def pure_poly_part(self):
        return dict(self.terms.get((Fraction(0),) * self.dim, {}))

    def exponents(self):
        return sorted(self.terms)

    def eval_split(self, v):
        """Exact evaluation with the exponentials left formal: a map
        lambda(v) -> P_lambda(v) (exact rationals, merged by exponent value)."""
        v = tuple(Fraction(x) for x in v)
        out = {}
        for lam, poly in self.terms.items():
            a = sum((l * x for l, x in zip(lam, v)), Fraction(0))
            val = Fraction(0)
            for m, c in poly.items():
                term = c
                for e, x in zip(m, v):
                    term *= x ** e
                val += term
            out[a] = out.get(a, Fraction(0)) + val
        return {a: c for a, c in out.items() if c != 0}

    def eval_float(self, v):
        return sum(math.exp(float(a)) * float(c)
                   for a, c in self.eval_split(v).items())


@dataclass(frozen=True)
class SqrtVal:
    "rational * sqrt(radicand), with a fixed nonnegative rational radicand."
    rational: Fraction
    radicand: Fraction

    def __float__(self):
        return float(self.rational) * math.sqrt(float(self.radicand))

    def scale(self, c):
        return SqrtVal(self.rational * Fraction(c), self.radicand)

    def square(self):
        return self.rational ** 2 * self.radicand

    def is_zero(self):
        return self.rational == 0 or self.radicand == 0


@dataclass(frozen=True)
class Rank1Integral:
    """The exponential integral over a one-dimensional standard part:
    constant + exp_coeff * e^{exponent}; when the exponent functional
    degenerates (s at the endpoints) the value is linear in the coweight
    pairing of X and is stored in `constant` with degenerate = True."""
    constant: SqrtVal
    exp_coeff: SqrtVal
    exponent: Fraction
    degenerate: bool = False

    def value(self):
        if self.degenerate:
            return float(self.constant)
        return float(self.constant) + float(self.exp_coeff) * \
            math.exp(float(self.exponent))


def _exponent_on_centered_line(Q, s):
    "rho_{Q,s} paired with the single coweight covector, at rational s."
    _, covs = delta_hat(Q)
    (c0, c1) = rho_Q_s(Q).pair(covs[0])
    return c0 + c1 * Fraction(s)


def p_rank1(Q, s, X):
    """Closed form of the standard-part exponential integral for a corank
    one parabolic: integrate e^{at} against the signed-interval cone
    combination along the coweight line; the result is
    (sqrt(v^2/j^2)/a) * (1 - e^{a x0}) with a the exponent pairing and
    x0 the normalized coweight coordinate of X."""
    if Q.corank != 1:
        raise ValueError("closed form requires corank one")
    s = Fraction(s)
    weights, covs = delta_hat(Q)
    w = covs[0]
    vsq = gram_det(list(covs))
    jsq = jacobian_sq(Q)
    q = vsq / jsq
    a = _exponent_on_centered_line(Q, s)
    x0 = dot(weights[0], X) / dot(weights[0], w)
    if a == 0:
        return Rank1Integral(SqrtVal(-x0, q), SqrtVal(Fraction(0), q),
                             Fraction(0), degenerate=True)
    rho_at_X = rho_Q_s(Q)
    expo = rho_at_X.pair(tuple(Fraction(x) for x in X))
    expo_val = expo[0] + expo[1] * s
    assert expo_val == a * x0, "exponent transport failed"
    return Rank1Integral(SqrtVal(1 / a, q), SqrtVal(-1 / a, q), expo_val)


def constant_term_candidates(Q, s):
    """The two closed-form candidates for the purely polynomial term of the
    standard-part integral: with and without the Jacobian factor, both as
    exact square-root values (the leading sign is the quadrature's to
    measure)."""
    s = Fraction(s)
    poly, vsq = theta_hat(Q, rho_Q_s(Q))
    denom = poly(s)
    if denom == 0:
        raise ValueError("degenerate s")
    return {"with_jacobian": SqrtVal(1 / denom, vsq / jacobian_sq(Q)),
            "without_jacobian": SqrtVal(1 / denom, vsq)}


# ---------------------------------------------------------------------------
# quadrature over the standard coordinates


def _gamma_eval_t(walls, t):
    """gamma_prime(Q, ., X) at the t-coordinates t, as the product over Q's
    boundaries on the float walls of `cones._gamma_walls` (wall j is the
    root and wall c + j the shifted coweight of boundary j).  Sign tests
    away from the walls are exact in spirit: the integrator only evaluates
    at points separated from every wall by the piece construction."""
    c = len(walls) // 2
    out = 1
    for (a, _), (w, off) in zip(walls[:c], walls[c:]):
        out *= (sum(map(mul, w, t)) > off) - (sum(map(mul, a, t)) > 0)
        if not out:
            break
    return out


_GL_NODES = [(-0.9894009349916499, 0.027152459411754094),
             (-0.9445750230732326, 0.06225352393864789),
             (-0.8656312023878318, 0.09515851168249278),
             (-0.755404408355003, 0.12462897125553387),
             (-0.6178762444026438, 0.14959598881657673),
             (-0.45801677765722737, 0.16915651939500254),
             (-0.2816035507792589, 0.18260341504492358),
             (-0.09501250983763744, 0.18945061045506849)]
_GL_NODES = _GL_NODES + [(-x, w) for x, w in _GL_NODES]


# The 16-point rule integrates e^{c t} to about 1e-13 while c times the
# panel width stays below this span; longer pieces are cut into panels.
_PANEL_SPAN = 24.0


def _panels(lo, hi, rate):
    """Equal panels of [lo, hi], as (midpoint, half-width), short enough
    for the 16-point rule on terms growing like e^{rate t}."""
    p = max(1, math.ceil(rate * (hi - lo) / _PANEL_SPAN))
    edges = [lo + (hi - lo) * j / p for j in range(p)] + [hi]
    return [(0.5 * (u + v), 0.5 * (v - u)) for u, v in zip(edges, edges[1:])]


def _line_integral(walls, fixed, a_last):
    """Integral over the last coordinate along the line through `fixed`:
    split at the wall crossings, then 16-point Gauss-Legendre per panel
    (the integrand is a constant times e^{a t} on each piece).  Before the
    first crossing and after the last the line runs in unbounded cells,
    where gamma' vanishes."""
    cuts = _slice_cuts(walls, fixed)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo < 1e-15:
            continue
        g = _gamma_eval_t(walls, fixed + (0.5 * (lo + hi),))
        if g == 0:
            continue
        for mid, half in _panels(lo, hi, abs(a_last)):
            acc = 0.0
            for x, w in _GL_NODES:
                t = mid + half * x
                acc += w * math.exp(a_last * t)
            total += g * half * acc
    return total


def _det(rows):
    "Determinant of a small square float matrix, by cofactor expansion."
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * c * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, c in enumerate(rows[0]))


def _slice_cuts(walls, fixed):
    """Sorted t_k-coordinates of the vertices of the wall arrangement
    restricted to the slice where the leading coordinates equal `fixed`
    (k = len(fixed)).  Between two of them the integral over the remaining
    coordinates is smooth in t_k, and the support of the slice lies
    between the first and the last."""
    k = len(fixed)
    rows = [(vec[k:], off - sum(v * x for v, x in zip(vec, fixed)))
            for vec, off in walls]
    cuts = set()
    for sel in combinations(rows, len(rows[0][0])):
        A = [vec for vec, _ in sel]
        det = _det(A)
        if abs(det) <= 1e-12 * math.prod(math.hypot(*vec) for vec in A):
            continue
        cuts.add(_det([(b,) + vec[1:] for vec, b in sel]) / det)
    return sorted(cuts)


def _slice_rate(walls, a, k):
    """How fast the integral over coordinates k, k+1, ... can grow in t_k.
    Between two cuts it is an exponential-polynomial whose exponents are
    `a` read along the lines of the slice arrangement, as each line's
    point on the slice moves with t_k (Brion's vertex formula): the
    largest such |exponent|, or |a_k| if larger."""
    m = len(a) - k
    rate = abs(a[k])
    for sel in combinations([vec[k:] for vec, _ in walls], m - 1):
        line = [(-1) ** j * _det([v[:j] + v[j + 1:] for v in sel])
                for j in range(m)]
        if abs(line[0]) > 1e-12 * math.hypot(*line):
            rate = max(rate, abs(sum(x * y for x, y in zip(a[k:], line))
                                 / line[0]))
    return rate


def _slice_integral(walls, a, rates, fixed):
    """Integral of e^{a.t} gamma'(t) over the coordinates after `fixed`.
    The innermost coordinate is `_line_integral`; every outer one is cut
    at the vertex coordinates of its slice, with the 16-point
    Gauss-Legendre rule on each panel of each piece."""
    k = len(fixed)
    if k == len(a) - 1:
        return _line_integral(walls, fixed, a[k])
    cuts = _slice_cuts(walls, fixed)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        for mid, half in _panels(lo, hi, rates[k]):
            acc = 0.0
            for x, w in _GL_NODES:
                t = mid + half * x
                acc += w * math.exp(a[k] * t) * _slice_integral(
                    walls, a, rates, fixed + (t,))
            total += half * acc
    return total


def p_quadrature(Q, s, X):
    """Numeric value of the standard-part exponential integral
    int e^{(s det + 2rho~ - 2rho)(H)} gamma'(H, X) dH over the standard
    coordinates of Q, for corank up to three.  The integrand is smooth
    between the vertices of gamma's wall arrangement, so every coordinate
    is cut at the vertex coordinates of its slice and each piece takes the
    16-point Gauss-Legendre rule, on panels short enough for the growth of
    the exponential; the innermost coordinate is integrated along its
    wall-split segments, where the cone combination is constant."""
    basis = st_basis(Q)
    d = len(basis)
    if d == 0:
        return 1.0
    if d > 3:
        raise ValueError("quadrature limited to corank three")
    det = det_weight(Q.n)
    r2t = two_rho_ambient(Q)
    r2g = two_rho_intersected(Q)
    sf = float(s)
    a = [sf * float(dot(det, b)) + float(dot(r2t, b)) - float(dot(r2g, b))
         for b in basis]
    measure = math.sqrt(float(gram_det(list(basis))))
    walls = [(tuple(float(dot(w, b)) for b in basis), float(off))
             for w, off in _gamma_walls(Q, X)]
    rates = [_slice_rate(walls, a, k) for k in range(d - 1)]
    return measure * _slice_integral(walls, a, rates, ())


def shanks_constant(p1, p2, p3):
    """Shanks extrapolation of the sequence p(X), p(2X), p(3X): removes a
    single dominant geometric mode and returns the limit estimate."""
    denom = (p3 - p2) - (p2 - p1)
    if abs(denom) < 1e-300:
        return p3
    return p3 - (p3 - p2) ** 2 / denom


def measure_constant_term(Q, s, direction, tol=1e-9):
    """Estimate the purely polynomial term of the standard-part integral by
    evaluating at t*direction for t = 1, 2, 3 (direction chosen with every
    nonzero exponent strictly negative) and extrapolating; report which
    closed-form candidate (with or without the Jacobian factor) the
    measurement selects and the winning sign.  `tol` is accepted and
    unused: the vertex-split quadrature is a fixed rule, not an adaptive
    one."""
    vals = [p_quadrature(Q, s, tuple(Fraction(t) * Fraction(x)
                                     for x in direction))
            for t in (1, 2, 3)]
    est = shanks_constant(*vals)
    cands = constant_term_candidates(Q, s)
    out = {"estimate": est, "values": vals}
    best = None
    for name, sv in cands.items():
        mag = float(sv)
        for sign in (1, -1):
            err = abs(est - sign * mag) / max(abs(est), 1e-30)
            if best is None or err < best[0]:
                best = (err, name, sign, mag)
    out.update({"relative_error": best[0], "selected": best[1],
                "sign": best[2], "candidates": {k: float(v)
                                                for k, v in cands.items()}})
    return out
