"""Exact invariant theory and truncation combinatorics for the conjugation
action of GL(n) on gl(n+1): class invariants and orbit classification with
finite-field brute-force oracles, the relative parabolic lattice with its
cone functions and exponent identities, and the polynomial-exponential
integrals they produce."""

from .exact import Fp, GF, Matrix, Polynomial, QQ, exterior_trace, \
    is_separable, krylov_basis
from .invariants import (BlockElement, ClassInvariants, SeparableClass, act,
                         alpha_invariant, assemble, build_rrss_class,
                         class_invariants, cyclic_module_iso, decompose,
                         invariants, is_regular_semisimple,
                         orbit_representative, same_class)
from .parabolics import (AffineWeight, RelStdParabolic, contains, delta_hat,
                         enumerate_rel_std, jacobian_sq, rho_Q_s, s_sub,
                         theta_hat, varpi_minus, varpi_plus)
from .cones import (gamma_prime, sigma, tau, tau_bar, tau_hat,
                    verify_basic_identity, verify_gamma_recurrence,
                    verify_langlands, verify_sigma_decomposition)
from .polyexp import PolyExp, exponential_integral, p_quadrature, p_rank1
from .rrss import (EtaleAlgebra, abs_set, enumerate_eps_subsets, indicator_1,
                   iota, lambda_bar_pole_set, lambda_bar_shell, mu,
                   ordered_partition_count, sharp, upeta_factor,
                   verify_signed_sum_identity, zeta_pole_set)

__version__ = "0.1.0"
