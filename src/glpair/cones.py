"""Truncation cone functions on a_0 and their alternating-sum identities.

Every indicator is an exact integer sign test: each evaluation scales H
(and H - X) once to a positive integer multiple and pairs it with the
integer-scaled roots and coweights of `parabolics.int_pair_data`; a sign
does not change under positive scaling.

Gamma' and sigma are defined as alternating sums over the coarsenings
R >= Q (Arthur's truncation).  Those coarsenings are exactly the subsets
of Q's c flag boundaries that R keeps, with Q's root at each boundary R
drops and the coweight at each boundary R keeps, so the 2^c-term sum
factors into a product over the boundaries j of Q (of P2 for sigma):

    Gamma'_Q(H, X) = prod_j ([w_j(H - X) > 0] - [a_j(H) > 0]),
    sigma_P1^P2(H) = tau_P1^P2(H) prod_j ([w_j(H) > 0] - [a1_j(H) > 0]),

with w_j the coweight and a_j Q's root at boundary j (a1_j: P1's root
there), read from `parabolics.boundary_table`.

The verify_* sweeps check each identity by exact integer comparison at
generic rational points (no pairing exactly zero), resampling degenerate
draws.  Identity sweeps are
embarrassingly parallel over sample points; the report merge is a plain
sum of per-sample counters.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from operator import mul

from .exact import QQ, Matrix
from .parabolics import (block_indicator, boundary_table, contains, dot,
                         enumerate_rel_std, full_group, int_pair_data,
                         int_scaled, parabolics_above, parabolics_between)


def _int_point(H):
    "A positive integer multiple of the rational point H."
    return int_scaled([Fraction(x) for x in H])


def _positive(vecs, h):
    "1 iff every integer vector in vecs pairs positively with h."
    return int(all(sum(map(mul, v, h)) > 0 for v in vecs))


def _nonzero(vecs, h):
    "True iff no integer vector in vecs pairs to zero with h."
    return all(sum(map(mul, v, h)) for v in vecs)


# The kernels below take integer points h (and hx for H - X); the public
# functions scale their rational arguments and check nesting.


def _tau(P, Q, h):
    return _positive(int_pair_data(P, Q)[0], h)


def _tau_hat(P, Q, h):
    return _positive(int_pair_data(P, Q)[1], h)


def _tau_bar(Q, h):
    return int(all(sum(map(mul, a, h)) <= 0
                   for a in int_pair_data(Q, full_group(Q.n))[0]))


def _boundary_product(P, Q, h, hw):
    """Product over the boundaries of Q of [w(hw) > 0] - [a(h) > 0], with a
    P's root and w the coweight at that boundary (`boundary_table`)."""
    out = 1
    for a, w in zip(*boundary_table(P, Q)[2:]):
        out *= (sum(map(mul, w, hw)) > 0) - (sum(map(mul, a, h)) > 0)
        if not out:
            break
    return out


def _sigma(P1, P2, h):
    return _tau(P1, P2, h) and _boundary_product(P1, P2, h, h)


def _gamma_prime(Q, h, hx):
    return _boundary_product(Q, Q, h, hx)


def tau(P, Q, H):
    "1 iff every simple root of the pair is positive on H (via a_P averages)."
    if not contains(Q, P):
        raise ValueError("pair is not nested")
    return _tau(P, Q, _int_point(H))


def tau_hat(P, Q, H):
    "1 iff every coweight of the pair is positive on H."
    if not contains(Q, P):
        raise ValueError("pair is not nested")
    return _tau_hat(P, Q, _int_point(H))


def tau_bar(Q, H):
    "1 iff every simple root of Q (in the full group) is <= 0 on H."
    return _tau_bar(Q, _int_point(H))


def sigma(P1, P2, H):
    """sigma_{P1}^{P2}(H), defined as the signed sum over Q >= P2 of
    (-1)^(d_{P2} - d_Q) tau(P1,Q,H) tau_hat(Q,G,H).  Computed as the product
    tau(P1,P2,H) * prod_j ([w_j(H) > 0] - [alpha_j(H) > 0]) over the
    boundaries j of P2, with alpha_j P1's root and w_j the coweight there:
    the coarsenings Q of P2 are the subsets of its boundaries that Q keeps."""
    if not contains(P2, P1):
        raise ValueError("pair is not nested")
    return _sigma(P1, P2, _int_point(H))


def gamma_prime(Q, H, X):
    """Gamma'_Q(H, X), defined as the sum over R >= Q of
    (-1)^(d_Q - d_R) tau(Q,R,H) tau_hat(R,G,H-X).  Computed as the product
    prod_j ([w_j(H - X) > 0] - [alpha_j(H) > 0]) over the boundaries j of
    Q, with alpha_j and w_j Q's root and coweight there: R drops the
    boundaries whose root enters tau(Q,R,.) and keeps those whose coweight
    enters tau_hat(R,G,.).  The projections onto a_R are implicit in the
    pairings (every functional vector already lies in the relevant
    subspace)."""
    HX = [Fraction(h) - Fraction(x) for h, x in zip(H, X)]
    return _gamma_prime(Q, _int_point(H), int_scaled(HX))


# ---------------------------------------------------------------------------
# support of gamma_prime(., X)


def _gamma_walls(Q, X):
    """Affine walls (vector, offset) with wall = {H : <vector,H> = offset}
    across which gamma_prime(Q, ., X) can jump: Q's c roots through 0, then
    the c coweights shifted by X, boundary by boundary, so walls j and
    c + j belong to boundary j.  Every term R >= Q of the alternating sum
    draws its walls from these 2c, which are distinct unless X lies on a
    wall (a coweight can equal a root, with two blocks of two)."""
    roots, cws = boundary_table(Q, Q)[:2]
    return ([(a, Fraction(0)) for a in roots]
            + [(w, dot(w, X)) for w in cws])


def support_box(Q, X, basis):
    """A box [lo_i, hi_i] in the coordinates of `basis` (a basis of the
    integration space) containing the support of gamma_prime(Q, ., X).

    The function is piecewise constant on the cells of the wall arrangement
    and vanishes on every unbounded cell (its support is compact), so the
    bounding box of the arrangement vertices, padded by 1, suffices.
    """
    walls = _gamma_walls(Q, X)
    d = len(basis)
    if d == 0:
        return []
    rows = [[dot(w, b) for b in basis] for w, _ in walls]
    offs = [off for _, off in walls]
    verts = []
    for sel in combinations(range(len(walls)), d):
        A = Matrix(QQ, [rows[i] for i in sel])
        if A.rank() < d:
            continue
        verts.append(A.solve([offs[i] for i in sel]))
    if not verts:
        return [(Fraction(-1), Fraction(1))] * d
    los = [min(v[i] for v in verts) - 1 for i in range(d)]
    his = [max(v[i] for v in verts) + 1 for i in range(d)]
    return list(zip(los, his))


# ---------------------------------------------------------------------------
# verification sweeps


def _sample_in_a(P, rng, span=40):
    "A random integer point of a_P (constant on blocks)."
    vals = [rng.randint(-span, span) for _ in P.blocks()]
    out = [0] * (P.n + 1)
    for v, blk in zip(vals, P.blocks()):
        for i in blk:
            out[i] = v
    return tuple(out)


def _generic_for(P, h):
    "No root or coweight pairing relevant to P vanishes at the integer h."
    G = full_group(P.n)
    for Q in parabolics_above(P):
        roots, cws = int_pair_data(P, Q)
        if not (_nonzero(cws, h) and _nonzero(int_pair_data(Q, G)[1], h)
                and _nonzero(roots, h)):
            return False
    return True


def _check_samples(sample_count):
    "A sweep over no sample checks nothing; refuse it."
    if sample_count < 1:
        raise ValueError("sample count must be at least 1, got %d"
                         % sample_count)


def verify_basic_identity(n):
    """For every nested pair R <= P2, the signed count of intermediate
    parabolics sum_{R <= P <= P2} (-1)^(d_P - d_{P2}) is 1 if R = P2 and
    0 otherwise."""
    cases = failures = 0
    for P2 in enumerate_rel_std(n):
        for R in enumerate_rel_std(n):
            if not contains(P2, R):
                continue
            cases += 1
            total = 0
            for P in parabolics_between(R, P2):
                total += -1 if (P.num_blocks - P2.num_blocks) % 2 else 1
            if total != (1 if R == P2 else 0):
                failures += 1
    return {"identity": "cones.basic-identity", "n": n,
            "cases": cases, "failures": failures}


def verify_langlands(n, sample_count, seed):
    """sum over Q >= P of tau_hat(P,Q,H) tau_bar(Q,H) = 1 at generic
    rational H in a_P, for every P."""
    _check_samples(sample_count)
    rng = random.Random(seed)
    cases = failures = degenerate = 0
    fail_list = []
    for P in enumerate_rel_std(n):
        above = parabolics_above(P)
        G = full_group(n)
        for _ in range(sample_count):
            while True:
                H = _sample_in_a(P, rng)
                ok = all(_nonzero(int_pair_data(P, Q)[1], H)
                         for Q in above) and \
                     all(_nonzero(int_pair_data(Q, G)[0], H) for Q in above)
                if ok:
                    break
                degenerate += 1
            cases += 1
            total = sum(_tau_hat(P, Q, H) * _tau_bar(Q, H) for Q in above)
            if total != 1:
                failures += 1
                if len(fail_list) < 5:
                    fail_list.append({"P": repr(P), "H": [str(h) for h in H]})
    return {"identity": "cones.langlands-partition", "n": n, "seed": seed,
            "cases": cases, "failures": failures, "degenerate": degenerate,
            "failure_samples": fail_list}


def verify_gamma_recurrence(n, sample_count, seed):
    """tau_hat(P, G, H - X) = sum over Q >= P of tau_hat(P,Q,H) gamma_prime(Q,H,X)
    at generic rational (H, X) in a_P x a_P.

    The alternating sign on the right is already inside gamma_prime as
    defined here (its leading term is tau_hat(Q, G, H - X) with sign +1),
    so no extra (-1)-power appears.
    """
    _check_samples(sample_count)
    rng = random.Random(seed)
    G = full_group(n)
    cases = failures = degenerate = 0
    fail_list = []
    for P in enumerate_rel_std(n):
        above = parabolics_above(P)
        for _ in range(sample_count):
            while True:
                H = _sample_in_a(P, rng)
                X = _sample_in_a(P, rng)
                HX = tuple(h - x for h, x in zip(H, X))
                ok = all(_nonzero(int_pair_data(Q, G)[1], H) and
                         _nonzero(int_pair_data(Q, G)[1], HX)
                         for Q in above) and \
                     all(_nonzero(int_pair_data(P, Q)[1], H)
                         for Q in above) and \
                     all(_nonzero(int_pair_data(Q, G)[0], H)
                         for Q in above)
                if ok:
                    break
                degenerate += 1
            cases += 1
            lhs = _tau_hat(P, G, HX)
            rhs = sum(_tau_hat(P, Q, H) * _gamma_prime(Q, H, HX)
                      for Q in above)
            if lhs != rhs:
                failures += 1
                if len(fail_list) < 5:
                    fail_list.append({"P": repr(P),
                                      "H": [str(h) for h in H],
                                      "X": [str(x) for x in X]})
    return {"identity": "cones.gamma-recurrence", "n": n, "seed": seed,
            "cases": cases, "failures": failures, "degenerate": degenerate,
            "failure_samples": fail_list}


def verify_sigma_decomposition(n, sample_count, seed):
    """tau(P1,P,H) tau_hat(P,G,H) = sum over P2 >= P of sigma(P1,P2,H), and
    sigma(P,P,.) vanishes at every generic sample unless P is the full group."""
    _check_samples(sample_count)
    rng = random.Random(seed)
    G = full_group(n)
    cases = failures = degenerate = 0
    for P1 in enumerate_rel_std(n):
        for P in parabolics_above(P1):
            for _ in range(sample_count):
                H = _sample_in_a(P1, rng)
                while not _generic_for(P1, H):
                    degenerate += 1
                    H = _sample_in_a(P1, rng)
                cases += 1
                lhs = _tau(P1, P, H) * _tau_hat(P, G, H)
                rhs = sum(_sigma(P1, P2, H) for P2 in parabolics_above(P))
                if lhs != rhs:
                    failures += 1
    for P in enumerate_rel_std(n):
        expected = 1 if P.is_full_group() else 0
        for _ in range(sample_count):
            H = _sample_in_a(P, rng)
            while not _generic_for(P, H):
                degenerate += 1
                H = _sample_in_a(P, rng)
            cases += 1
            if _sigma(P, P, H) != expected:
                failures += 1
    return {"identity": "cones.sigma-decomposition", "n": n, "seed": seed,
            "cases": cases, "failures": failures, "degenerate": degenerate}


def verify_gamma_support(n, sample_count, seed):
    """gamma_prime(Q, ., X) vanishes at sampled points outside its support
    box, and takes values in {-1, 0, 1} at points inside, for every Q.
    A value outside {-1, 0, 1} counts as a failure and also clears
    `values_in_unit_range`; only the points outside the box count as cases."""
    _check_samples(sample_count)
    rng = random.Random(seed)
    cases = failures = 0
    value_range_ok = True
    for Q in enumerate_rel_std(n):
        basis = [tuple(v) for v in _centered_block_basis(Q)]
        if not basis:
            continue
        X = _sample_in_a(Q, rng)
        box = support_box(Q, X, basis)
        for _ in range(sample_count):
            t = [Fraction(rng.randint(-20, 20)) for _ in basis]
            j = rng.randrange(len(basis))
            lo, hi = box[j]
            t[j] = hi + rng.randint(1, 30) if rng.random() < 0.5 \
                else lo - rng.randint(1, 30)
            H = [Fraction(0)] * (Q.n + 1)
            for c, b in zip(t, basis):
                H = [h + c * x for h, x in zip(H, b)]
            cases += 1
            if gamma_prime(Q, H, X) != 0:
                failures += 1
        for _ in range(sample_count):
            H = _sample_in_a(Q, rng)
            HX = tuple(h - x for h, x in zip(H, X))
            if _gamma_prime(Q, H, HX) not in (-1, 0, 1):
                failures += 1
                value_range_ok = False
    return {"identity": "cones.gamma-support", "n": n, "seed": seed,
            "cases": cases, "failures": failures,
            "values_in_unit_range": value_range_ok}


def _centered_block_basis(Q):
    "Basis of the centered part of a_Q: differences of block indicators."
    blks = Q.blocks()
    return [tuple(x - y for x, y in
                  zip(block_indicator(blks[j], Q.n),
                      block_indicator(blks[j + 1], Q.n)))
            for j in range(len(blks) - 1)]
