"""Polynomial-exponential functions and the exponential integrals of the
compactly supported cone combination over the standard part of a_Q.

A polynomial-exponential on Q^d is a finite sum of e^{lambda(v)} P_lambda(v)
with rational exponent covectors lambda and rational-coefficient
polynomials P_lambda; the lambda = 0 polynomial is its purely polynomial
part.  The exponential integral has one exact route,
`exponential_integral`: a signed sum over the vertices of the cone
combination's simplicial cone decomposition, which returns a PolyExp in X
at every corank up to six.  Its independent oracle is `p_quadrature`,
Gauss-Legendre quadrature over the standard coordinates for corank up to
three, split at the vertices of the cone combination's wall arrangement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from operator import mul

from .cones import _gamma_walls
from .exact import QQ, Matrix
from .parabolics import (boundary_table, det_weight, dot, gram_det,
                         jacobian_sq, rho_Q_s, st_basis, theta_hat,
                         two_rho_ambient, two_rho_intersected)


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


# A work bound: the vertex sum has 2^corank terms; six is the largest measured.
MAX_CORANK = 6


def _perturbation(c):
    "beta in a + eps beta: generic, so every c^S_i vanishing at eps = 0 moves."
    return [Fraction(1, 7 + 3 * i) for i in range(c)]


def _times_linear(poly, form, scale):
    "The polynomial poly(X) * form(X) * scale, form a covector on X."
    out = {}
    for mono, c in poly.items():
        for x, w in enumerate(form):
            if w:
                key = mono[:x] + (mono[x] + 1,) + mono[x + 1:]
                out[key] = out.get(key, 0) + c * w * scale
    return out


def exponential_integral(Q, s):
    """The standard-part exponential integral
    int e^{(s det + 2rho~ - 2rho)(H)} gamma'(H, X) dH = sqrt(gram) f(X), as
    (f, gram): f a PolyExp in X, gram the standard basis's Gram determinant.

    gamma' is the product over Q's c boundaries of
    [varpi_j(H - X) > 0] - [alpha_j(H) > 0].  Its expansion is a signed sum
    of 2^c cones {L_S t > b_S} in the standard coordinates t: row j of L_S
    is varpi_j for j in S and alpha_j otherwise, b_S is varpi_j(X) on S and
    0 off it.  With a the exponent and c^S = a L_S^-1, each cone integrates
    to e^{sum_S c^S_j varpi_j(X)} / (|det L_S| prod_i (-c^S_i))
    (Brion-Lawrence); a singular L_S bounds a region containing a line,
    worth nothing.

    Where some c^S_i vanish, a becomes a + eps beta for a fixed generic
    beta.  A term with m vanishing c^S_i has a pole of order m in eps, so
    its other factors and e^{eps beta.v_S} (v_S the apex) are kept up to
    eps^m before its eps^0 coefficient is read off; the powers of
    beta.v_S, linear in X, are the polynomial parts."""
    c = Q.corank
    if c > MAX_CORANK:
        raise ValueError("exact route limited to corank %d" % MAX_CORANK)
    s, dim, basis = Fraction(s), Q.n + 1, st_basis(Q)
    roots, cws = boundary_table(Q, Q)[:2]
    rows = [[[dot(v, b) for b in basis] for v in pair]
            for pair in zip(roots, cws)]
    det_w, r2t, r2g = det_weight(Q.n), two_rho_ambient(Q), \
        two_rho_intersected(Q)
    a_beta = Matrix(QQ, [[s * dot(det_w, b) + dot(r2t, b) - dot(r2g, b)
                          for b in basis], _perturbation(c)])
    terms = {}
    for S in product((0, 1), repeat=c):
        L = Matrix(QQ, [pair[k] for pair, k in zip(rows, S)])
        det = L.det()
        if det == 0:
            continue
        cvec, dvec = (a_beta * L.inverse()).rows
        coeff = Fraction((-1) ** (c - sum(S))) / abs(det)
        m = cvec.count(0)
        series = [Fraction(1)] + [Fraction(0)] * m
        for ci, di in zip(cvec, dvec):
            # 1/(-ci - eps di): a simple pole where ci = 0, else a
            # geometric series in eps, multiplied into `series`
            coeff /= -di if ci == 0 else -ci
            if ci != 0:
                for k in range(1, m + 1):
                    series[k] -= di / ci * series[k - 1]
        on_S = [j for j in range(c) if S[j]]
        lam, mu = (tuple(sum((x[j] * cws[j][i] for j in on_S), Fraction(0))
                         for i in range(dim)) for x in (cvec, dvec))
        poly = terms.setdefault(lam, {})
        power = {(0,) * dim: coeff}
        for k in range(m + 1):
            if k:
                power = _times_linear(power, mu, Fraction(1, k))
            for mono, v in power.items():
                poly[mono] = poly.get(mono, 0) + v * series[m - k]
    return PolyExp(dim, terms), gram_det(list(basis))


def p_rank1(Q, s, X):
    """The integral at a corank-one Q, on the exact route.  Kept because
    the benchmark's tracer wraps it by name, until ROADMAP item 5 drops
    that row."""
    if Q.corank != 1:
        raise ValueError("closed form requires corank one")
    f, gram = exponential_integral(Q, s)
    return math.sqrt(gram) * f.eval_float(X)


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


def measure_constant_term(Q, s, direction=None, tol=None):
    """Criterion 6: the purely polynomial part of the integral against
    j^-1 theta-hat(rho_{Q,s})^-1 = sqrt(v^2 / j^2) / theta-poly(s).  Where
    the part is that constant exactly (squares equal as rationals, same
    sign), `selected` is "with_jacobian", `sign` is 1 and `relative_error`
    is 0.0.  No quadrature runs.  `direction` and `tol` are unused; they
    remain for callers of the former extrapolated measurement."""
    s = Fraction(s)
    f, gram = exponential_integral(Q, s)
    poly, vsq = theta_hat(Q, rho_Q_s(Q))
    denom = poly(s)
    if denom == 0:
        raise ValueError("degenerate s")
    pure = f.pure_poly_part()
    const = pure.get((0,) * f.dim, Fraction(0))
    radicand = vsq / jacobian_sq(Q)
    estimate = float(const) * math.sqrt(gram)
    target = math.sqrt(radicand) / float(denom)
    sign = 1 if const * denom > 0 else -1
    exact = (len(pure) == 1 and sign == 1
             and (const * denom) ** 2 * gram == radicand)
    return {"estimate": estimate, "selected": "with_jacobian" if exact
            else None, "sign": sign, "candidates": {"with_jacobian": target},
            "relative_error": 0.0 if exact
            else abs(estimate - target) / abs(target)}
