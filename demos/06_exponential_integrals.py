#!/usr/bin/env python3
"""Walkthrough: exponential integrals of the cone combination.

Integrating e^{(s det + 2rho~ - 2rho)(H)} gamma'(H, X) over the standard
part of a_Q produces a polynomial-exponential in X.  The exact route
expands gamma' into signed simplicial cones, sums one closed form per cone
apex, and returns a PolyExp in X times sqrt(gram).  Gauss-Legendre
quadrature, split at the vertices of the wall arrangement, is its
independent oracle up to corank three.  The purely polynomial term is
j^-1 theta-hat(rho_{Q,s})^-1: it carries the inverse Jacobian of the
standard-part isomorphism, with positive sign.
"""

import math
from fractions import Fraction as F

from glpair import enumerate_rel_std, exponential_integral, p_quadrature
from glpair.polyexp import measure_constant_term

s = F(1, 2)
X = (F(1), F(2), F(-1))
print("exact route vs quadrature at s = 1/2, X = (1, 2, -1):")
for Q in enumerate_rel_std(2):
    f, gram = exponential_integral(Q, s)
    exact = math.sqrt(gram) * f.eval_float(X)
    print("  %-16s corank %d  exact %+.12f  quadrature %+.12f  classes %d"
          % (Q, Q.corank, exact, p_quadrature(Q, s, X), len(f.exponents())))

print("\nconstant terms against j^-1 theta-hat(rho_{Q,s})^-1:")
for Q in enumerate_rel_std(2):
    rep = measure_constant_term(Q, s)
    print("  %-16s constant %+.9f  closed form %+.9f  exact identity %s"
          % (Q, rep["estimate"], rep["candidates"]["with_jacobian"],
             rep["selected"] == "with_jacobian"))

print("\npast the quadrature's reach, at s = 1/2:")
for n in (4, 5):
    Q = next(Q for Q in enumerate_rel_std(n) if Q.corank == n)
    f, gram = exponential_integral(Q, s)
    Xn = tuple(F((-1) ** i * i) for i in range(n + 1))
    print("  %-22s corank %d  value %+.9f  classes %d"
          % (Q, n, math.sqrt(gram) * f.eval_float(Xn), len(f.exponents())))
