#!/usr/bin/env python3
"""Walkthrough: signed-index combinatorics behind the orbit decomposition.

Orbits in a separable class are labelled by signed subsets of the
degenerate index set; the decomposition machinery rests on a handful of
finite identities (signed parabolic counts, flag-count alternation, a
multiset identity between two signed sums) and on rational-function shells
whose poles on the determinant line stay inside {-1, 1}.
"""

from fractions import Fraction as F

from glpair.rrss import (add_functionals, enumerate_eps_subsets,
                         lambda_bar_pole_set, lambda_bar_shell, mu,
                         ordered_partition_count, rho_of_eps,
                         s_det_functional, upeta_factor,
                         verify_signed_sum_identity)

I0 = [1, 2]
print("signed subsets of %s: %d" % (I0, len(enumerate_eps_subsets(I0))))
for J in enumerate_eps_subsets(I0):
    print("  mu(%-10s) = %+d" % (sorted(J), mu(J, I0)))

print("\nflag-count alternation:")
for m in range(6):
    vals = [ordered_partition_count(i, m) for i in range(m + 1)]
    print("  m=%d chain counts %s  alternating sum %+d"
          % (m, vals, sum((-1) ** i * v for i, v in enumerate(vals))))

sub = frozenset({1, -2})
lam = add_functionals(s_det_functional({1, 2}), rho_of_eps(sub))
fac = upeta_factor(sub, lam)
print("\ntorus shell for %s: scale %s, symbols %s, denominator %s"
      % (sorted(sub), fac.scale, fac.symbols, fac.denominator))
print("denominator roots:", sorted(fac.denominator_roots()))

shell = lambda_bar_shell(frozenset({1, -2}), frozenset({1}), frozenset())
print("\ntwo-parameter shell: factor denominator %s x opaque %s"
      % (shell.factor.denominator, shell.holomorphic_symbol))
print("pole restrictions to the s-line:",
      sorted(h.s_restriction()
             for h in lambda_bar_pole_set({1, -2}, {1}, frozenset())))

for size in (1, 2, 3):
    rep = verify_signed_sum_identity(list(range(1, size + 1)))
    print("signed-sum identity, %d indices: %d sign classes, %d failures"
          % (size, rep["cases"], rep["failures"]))
