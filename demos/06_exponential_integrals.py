#!/usr/bin/env python3
"""Walkthrough: exponential integrals of the cone combination.

Integrating e^{(s det + 2rho~ - 2rho)(H)} gamma'(H, X) over the standard
part of a_Q produces a polynomial-exponential in X whose purely polynomial
term is constant away from s = -1, 1.  The corank-one closed form and a
Gauss-Legendre quadrature, split at the vertices of the wall arrangement,
evaluate the same integral by independent routes, and
the quadrature adjudicates the normalization of the constant term: it
carries the inverse Jacobian of the standard-part isomorphism, with
positive sign.
"""

from fractions import Fraction as F

from glpair import enumerate_rel_std, p_quadrature, p_rank1
from glpair.parabolics import delta_hat
from glpair.polyexp import constant_term_candidates, measure_constant_term

s = F(1, 2)
print("corank-one integrals at s = 1/2:")
for Q in enumerate_rel_std(2):
    if Q.corank != 1:
        continue
    X = (F(1), F(2), F(-1))
    r = p_rank1(Q, s, X)
    quad = p_quadrature(Q, s, X)
    print("  %-14s closed form %+.9f  quadrature %+.9f  exponent %s"
          % (Q, r.value(), quad, r.exponent))
    print("                constant term %+.9f  (= +sqrt(v^2/j^2)/pairing)"
          % float(r.constant))

print("\ncorank-two constant terms at n = 2 (Shanks-extrapolated):")
for Q in enumerate_rel_std(2):
    if Q.corank != 2:
        continue
    _, covs = delta_hat(Q)
    direction = tuple(-4 * sum(col) for col in zip(*covs))
    rep = measure_constant_term(Q, s, direction)
    cands = constant_term_candidates(Q, s)
    print("  %-16s measured %+.6f  candidates %.6f / %.6f  -> %s, sign %+d"
          % (Q, rep["estimate"], float(cands["with_jacobian"]),
             float(cands["without_jacobian"]), rep["selected"], rep["sign"]))
