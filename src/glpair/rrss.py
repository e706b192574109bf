"""Signed-index combinatorics for orbits inside a separable class, the
etale algebra attached to a separable characteristic polynomial, and the
rational-function shells (with opaque volume constants) that the orbit
decomposition produces.

Signed indices: an eps-subset of a finite index set I is a set of nonzero
integers containing at most one of {i, -i} for each i; it records, per
index, whether the column vector (positive sign), the row covector
(negative sign), or neither is switched on.

The verify_* functions check the finite identities exhaustively and
return one record each (`identity`, `cases`, `failures`, own keys): the
sign of mu, the flag-count alternation, the pole discipline of the
shells, and the signed-sum identity, at one point per sign class of H.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .exact import Polynomial, QQ, is_separable


# ---------------------------------------------------------------------------
# eps-subsets


def is_eps_subset(sub, I):
    sub = frozenset(sub)
    return all(isinstance(i, int) and i != 0 and abs(i) in I for i in sub) \
        and not any(-i in sub for i in sub)


def enumerate_eps_subsets(I):
    "All 3^#I eps-subsets (each index absent, positive or negative), sorted."
    I = sorted(I)
    out = []
    for signs in product((0, 1, -1), repeat=len(I)):
        out.append(frozenset(s * i for s, i in zip(signs, I) if s))
    out.sort(key=lambda S: (len(S), sorted(S)))
    return out


def sharp(sub):
    "The sign flip -I of an eps-subset."
    return frozenset(-i for i in sub)


def abs_set(sub):
    return frozenset(abs(i) for i in sub)


# ---------------------------------------------------------------------------
# flag counting


@lru_cache(maxsize=None)
def ordered_partition_count(i, m):
    """Number of strictly increasing chains of subsets
    empty = I_0 < I_1 < ... < I_i = {1..m}; zero when no chain exists."""
    if i < 0 or m < 0:
        raise ValueError("negative arguments")
    if i == 0:
        return 1 if m == 0 else 0
    from math import comb
    return sum(comb(m, r) * ordered_partition_count(i - 1, r)
               for r in range(m))


def _ordered_set_partitions(items):
    "All ordered set partitions (tuples of disjoint nonempty frozensets)."
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _ordered_set_partitions(rest):
        for j, blk in enumerate(part):
            yield part[:j] + (blk | {first},) + part[j + 1:]
        for j in range(len(part) + 1):
            yield part[:j] + (frozenset([first]),) + part[j:]


def mu(J, I0):
    """Signed count of the parabolics of `mu_by_corank`, with sign
    (-1)^(number of parts - 1) = (-1)^(corank).  Equals (-1)^#J."""
    if not is_eps_subset(J, I0):
        raise ValueError("J is not an eps-subset of I0")
    return sum((-1) ** k * count for k, count in mu_by_corank(J, I0).items())


def mu_by_corank(J, I0):
    """The parabolics containing the block Levi of I0 whose stable
    pair-space is labelled by J, counted by number of proper flag steps.
    Parabolics are ordered set partitions of the blocks {F_i : i in I0}
    plus the complementary block R (the one containing the distinguished
    line); the label collects +i for blocks before R's part and -i for
    blocks after it."""
    J = frozenset(J)
    blocks = list(sorted(I0)) + ["R"]
    out = Counter()
    for part in _ordered_set_partitions(blocks):
        r_at = next(j for j, blk in enumerate(part) if "R" in blk)
        label = set()
        for j, blk in enumerate(part):
            for i in blk:
                if i == "R":
                    continue
                label.add(i if j < r_at else -i if j > r_at else None)
        label.discard(None)
        if frozenset(label) == J:
            out[len(part) - 1] += 1
    return dict(out)


def verify_mu_sign(I0):
    "mu(J, I0) = (-1)^#J for every eps-subset J of I0."
    I0 = sorted(I0)
    subsets = enumerate_eps_subsets(I0)
    failures = sum(mu(J, I0) != (-1) ** len(J) for J in subsets)
    return {"identity": "rrss.mu-sign", "I0": I0,
            "cases": len(subsets), "failures": failures}


def verify_flag_count_alternation():
    """sum_i (-1)^i ordered_partition_count(i, m) = (-1)^m for m = 0..8."""
    ms = range(9)
    failures = sum(sum((-1) ** i * ordered_partition_count(i, m)
                       for i in range(m + 1)) != (-1) ** m for m in ms)
    return {"identity": "rrss.flag-count-alternation",
            "cases": len(ms), "failures": failures}


# ---------------------------------------------------------------------------
# etale algebra F[T]/(Q) with a fixed factorization


class EtaleAlgebra:
    """F[T]/(Q) for a separable monic Q with a supplied factorization into
    pairwise coprime factors; elements are residues of degree < deg Q."""

    def __init__(self, field, factors):
        factors = tuple(f.monic() for f in factors)
        if not factors:
            raise ValueError("need at least one factor")
        modulus = Polynomial.constant(field, field.one)
        for f in factors:
            if f.degree < 1:
                raise ValueError("constant factor")
            modulus = modulus * f
        if not is_separable(modulus):
            raise ValueError("product of factors is not separable")
        self.field = field
        self.factors = factors
        self.modulus = modulus
        self.dim = modulus.degree

    def element(self, poly):
        if not isinstance(poly, Polynomial):
            poly = Polynomial.constant(self.field, self.field(poly))
        return EtaleElement(self, poly % self.modulus)

    def from_coeffs(self, coeffs):
        return self.element(Polynomial(self.field, coeffs))

    def zero(self):
        return self.element(Polynomial(self.field, []))

    def one(self):
        return self.element(self.field.one)

    def generator(self):
        "The image of T; generates the algebra over the base field."
        return self.element(Polynomial.x(self.field))

    @property
    def index_set(self):
        return tuple(range(1, len(self.factors) + 1))

    def idempotent(self, i):
        "The unit of the i-th factor (1-based index)."
        Qi = self.factors[i - 1]
        rest = Polynomial.constant(self.field, self.field.one)
        for j, f in enumerate(self.factors):
            if j != i - 1:
                rest = rest * f
        g, s, t = Qi.xgcd(rest)
        if g.degree != 0:
            raise ValueError("factors are not pairwise coprime")
        return self.element(t * rest)

    def dual(self):
        "The algebra with every factor reflected through T -> -T."
        return EtaleAlgebra(self.field,
                            [f.subst_neg().monic() for f in self.factors])

    def __eq__(self, other):
        return (isinstance(other, EtaleAlgebra)
                and self.field == other.field and self.factors == other.factors)

    def __repr__(self):
        return "EtaleAlgebra(%r)" % (list(self.factors),)


@dataclass(frozen=True)
class EtaleElement:
    algebra: EtaleAlgebra
    poly: Polynomial

    def components(self):
        "Residues modulo each factor, in factor order."
        return tuple(self.poly % f for f in self.algebra.factors)

    def component_is_zero(self, i):
        return (self.poly % self.algebra.factors[i - 1]).is_zero()

    def __add__(self, other):
        self._check(other)
        return self.algebra.element(self.poly + other.poly)

    def __sub__(self, other):
        self._check(other)
        return self.algebra.element(self.poly - other.poly)

    def __mul__(self, other):
        if isinstance(other, EtaleElement):
            self._check(other)
            return self.algebra.element(self.poly * other.poly)
        return self.algebra.element(self.poly * self.algebra.field(other))

    def _check(self, other):
        if other.algebra != self.algebra:
            raise ValueError("elements of different algebras")

    def is_zero(self):
        return self.poly.is_zero()

    def coeffs(self):
        d = self.algebra.dim
        return tuple(self.poly.coeff(j) for j in range(d))

    def trace(self):
        "Trace of multiplication by the element on the algebra."
        field = self.algebra.field
        acc = field.zero
        basis = Polynomial.constant(field, field.one)
        T = Polynomial.x(field)
        for j in range(self.algebra.dim):
            img = (self.poly * basis) % self.algebra.modulus
            acc = acc + img.coeff(j)
            basis = basis * T
        return acc


def iota(elem):
    """The base-preserving isomorphism onto the reflected algebra induced
    by T -> -T; a ring isomorphism, self-inverse across the two algebras."""
    dual = elem.algebra.dual()
    return dual.element(elem.poly.subst_neg())


# ---------------------------------------------------------------------------
# indicator functions on the orbit coordinate space


def indicator_1(sub, H, I0):
    """The indicator on the coordinate space of I0 (H given as a mapping or
    dict index -> value): non-strict rho_i(H) <= 0 for positive members,
    strict rho_i(H) < 0 (i.e. rho_{|i|}(H) > 0) for negative ones; together
    over all fully-supported eps-subsets these tile the space exactly."""
    if not is_eps_subset(sub, I0):
        raise ValueError("not an eps-subset of the index set")
    for i in sub:
        v = Fraction(H[abs(i)])
        if i > 0:
            if not v <= 0:
                return 0
        else:
            if not v > 0:
                return 0
    return 1


# ---------------------------------------------------------------------------
# rational functions of s with opaque positive constants


@dataclass(frozen=True)
class SRationalFn:
    """scale * (product of opaque symbols) * numerator(s)/denominator(s),
    reduced; is_zero marks functions killed by the character model."""
    scale: Fraction
    symbols: tuple
    numerator: Polynomial
    denominator: Polynomial

    @classmethod
    def zero(cls):
        return cls(Fraction(0), (), Polynomial(QQ, []),
                   Polynomial.constant(QQ, Fraction(1)))

    def is_zero(self):
        return self.scale == 0 or self.numerator.is_zero()

    def denominator_roots(self):
        "Rational roots of the denominator (it factors into linear terms)."
        return set(_linear_roots(self.denominator))


def _linear_roots(poly):
    "All rational roots, by the root theorem after clearing denominators."
    roots = set()
    if poly.is_zero() or poly.degree == 0:
        return roots
    from math import lcm
    den = 1
    for c in poly.coeffs:
        den = lcm(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in poly.coeffs]
    if ints[0] == 0:
        roots.add(Fraction(0))
        while ints and ints[0] == 0:
            ints = ints[1:]
    if len(ints) <= 1:
        return roots
    for pnum in _divisors(abs(ints[0])):
        for pden in _divisors(abs(ints[-1])):
            for c in (Fraction(pnum, pden), -Fraction(pnum, pden)):
                if poly(c) == 0:
                    roots.add(c)
    return roots


def _divisors(m):
    m = int(m)
    return [d for d in range(1, m + 1) if m % d == 0]


def s_det_functional(I):
    "s * det restricted to the coordinates of I: coefficient s on each rho_i."
    return {i: (Fraction(0), Fraction(1)) for i in I}


def add_functionals(f, g):
    out = dict(f)
    for i, (a, b) in g.items():
        c, d = out.get(i, (Fraction(0), Fraction(0)))
        out[i] = (a + c, b + d)
    return out


def rho_of_eps(sub):
    "The functional sum of rho_i over a signed index set."
    out = {}
    for i in sub:
        a, b = out.get(abs(i), (Fraction(0), Fraction(0)))
        out[abs(i)] = (a + (1 if i > 0 else -1), b)
    return out


def eval_on_covector(functional, i):
    "Pairing with the i-th coordinate covector: rho_j -> sign agreement."
    a, b = functional.get(abs(i), (Fraction(0), Fraction(0)))
    if i > 0:
        return (a, b)
    return (-a, -b)


def upeta_factor(sub, functional, eta_indices=frozenset()):
    """(-1)^#sub * c_{|sub|} * v_{|sub|} * prod over the signed indices of
    1/(functional paired with the index covector); identically zero when
    |sub| meets the character-nontrivial index set (the c constant
    vanishes).  The c and v constants stay opaque symbols."""
    core = abs_set(sub)
    if core & frozenset(eta_indices):
        return SRationalFn.zero()
    den = Polynomial.constant(QQ, Fraction(1))
    for i in sorted(sub):
        c0, c1 = eval_on_covector(functional, i)
        lin = Polynomial(QQ, [c0, c1])
        if lin.is_zero():
            raise ZeroDivisionError(
                "functional vanishes identically on covector %d" % i)
        den = den * lin
    sign = Fraction(-1 if len(sub) % 2 else 1)
    symbols = ("c[%s]" % _set_label(core), "v[%s]" % _set_label(core))
    return SRationalFn(sign, symbols,
                       Polynomial.constant(QQ, Fraction(1)), den)


def _set_label(S):
    return ",".join(map(str, sorted(S)))


# ---------------------------------------------------------------------------
# pole bookkeeping


@dataclass(frozen=True)
class Hyperplane:
    "The locus (lambda - shift)(e_index) = 0 inside the J coordinate space."
    context: frozenset  # |J|
    index: int          # positive coordinate index
    shift: int          # 0, or a signed index i meaning shift by rho_{-i}

    def s_restriction(self):
        """Where the line lambda = s*det meets the hyperplane: s*det(e_i) =
        s; the shift moves the locus to s = -sign(i).  None if the whole
        line lies inside (never happens: det pairs to 1)."""
        if self.shift == 0:
            return Fraction(0)
        return Fraction(-1 if self.shift > 0 else 1)


def lambda_bar_pole_set(J, J1, J2, J3=None):
    """Pole hyperplanes of the two-parameter (or three-parameter) signed
    integral shells: the unshifted family runs over |J - J13| and the
    shifted one over J3 - J2 (shift by rho_{-i}).  With the default
    J3 = J - J1 the unshifted family is empty."""
    J, J1, J2 = frozenset(J), frozenset(J1), frozenset(J2)
    if J3 is None:
        J3 = J - J1
    J3 = frozenset(J3)
    if not (J1 <= J and J2 <= J3 <= J and not (J1 & J3)):
        raise ValueError("index sets are not properly nested")
    ctx = abs_set(J)
    out = set()
    for i in abs_set(J) - abs_set(J1 | J3):
        out.add(Hyperplane(ctx, i, 0))
    for i in J3 - J2:
        out.add(Hyperplane(ctx, abs(i), i))
    return out


def zeta_pole_set(J):
    "Superset of pole hyperplanes for the orbital shell attached to J."
    J = frozenset(J)
    ctx = abs_set(J)
    out = {Hyperplane(ctx, i, 0) for i in ctx}
    out |= {Hyperplane(ctx, abs(i), i) for i in J}
    return out


def lambda_bar_vanishes(J, J1, J2, eta_indices):
    "The eta-model kill rule: zero iff |J - J12| meets the eta index set."
    J, J12 = frozenset(J), frozenset(J1) | frozenset(J2)
    return bool(abs_set(J - J12) & frozenset(eta_indices))


@dataclass(frozen=True)
class LambdaBarShell:
    """The meromorphic shell of the two-parameter integral: an upeta factor
    (carrying all poles on the s-line) times one opaque holomorphic symbol."""
    factor: SRationalFn
    holomorphic_symbol: str


def lambda_bar_shell(J, J1, J2, eta_indices=frozenset()):
    J, J1, J2 = frozenset(J), frozenset(J1), frozenset(J2)
    rest = J - (J1 | J2)
    functional = add_functionals(s_det_functional(abs_set(J)),
                                 rho_of_eps(rest))
    fac = upeta_factor(rest, functional, eta_indices)
    sym = "Ups[%s;%s;%s]" % (_set_label(J1), _set_label(J2), _set_label(J))
    return LambdaBarShell(fac, sym)


def verify_pole_discipline(I0, eta):
    """For every eps-subset J of I0 and disjoint J1, J2 in J: the shell
    vanishes exactly when the character model kills it, and a surviving
    shell has its denominator roots and its pole hyperplanes' points on
    the s-line inside {-1, 1}.  eta must lie in I0."""
    I0, eta = sorted(I0), frozenset(eta)
    if not eta <= frozenset(I0):
        raise ValueError("eta indices %s lie outside I0 = %s"
                         % (sorted(eta - frozenset(I0)), I0))
    unit = {Fraction(-1), Fraction(1)}
    cases = failures = 0
    for J in enumerate_eps_subsets(I0):
        for J1, J2 in disjoint_subset_pairs(J):
            cases += 1
            factor = lambda_bar_shell(J, J1, J2, eta).factor
            killed = lambda_bar_vanishes(J, J1, J2, eta)
            if factor.is_zero() != killed:
                failures += 1
            elif not killed and not (
                    factor.denominator_roots() <= unit
                    and {h.s_restriction() for h in
                         lambda_bar_pole_set(J, J1, J2)} <= unit):
                failures += 1
    return {"identity": "rrss.pole-discipline", "I0": I0,
            "eta": sorted(eta), "cases": cases, "failures": failures}


# ---------------------------------------------------------------------------
# the signed-sum identity behind the orbital decomposition


# per-index atoms of a term: evaluation at zero, punctured lattice sum over
# the column or row line, and transformed evaluation at zero
E0, OU, OV, AU, AV = "E0", "Ou", "Ov", "Au", "Av"

_FLIP_RULES = {
    # a punctured column sum of a row-transformed term resums to the full
    # column lattice (Poisson duality with both quotients of volume one)
    # minus the zero term: Ou(Av-side) = E0 + Ov - Av, and symmetrically
    ("-", "+"): ((1, E0), (1, OV), (-1, AV)),
    ("+", "-"): ((1, E0), (1, OU), (-1, AU)),
}


def _atom(a_sign, b_sign):
    "Local atom for one index given its sign in the transform and orbit slots."
    if a_sign == 0 and b_sign == 0:
        return ((1, E0),)
    if a_sign == 0:
        return ((1, OU),) if b_sign > 0 else ((1, OV),)
    if b_sign == 0:
        return ((1, AU),) if a_sign > 0 else ((1, AV),)
    key = ("+" if a_sign > 0 else "-", "+" if b_sign > 0 else "-")
    if key not in _FLIP_RULES:
        raise ValueError("same-sign transform/orbit overlap cannot occur")
    return _FLIP_RULES[key]


def _expand_term(sign, A, B, I0):
    "Tensor-expand a (transform-set, orbit-set) pair into normal-form atoms."
    out = Counter({(): sign})
    for i in sorted(I0):
        a_sign = 1 if i in A else -1 if -i in A else 0
        b_sign = 1 if i in B else -1 if -i in B else 0
        new = Counter()
        for tail, c in out.items():
            for s, atom in _atom(a_sign, b_sign):
                new[tail + (atom,)] += c * s  # plain dict-style add, keeps signs
        out = new
    return out


def verify_signed_sum_identity(I0, eta_indices=()):
    """Check that the fully-supported signed double sum (weighted by the
    exact orbit-cone indicators at H) equals the free signed sum over
    disjoint label pairs, as multisets of per-index atom words.  Mixed
    transform/orbit indices are normalized by the lattice resummation rule
    before comparison; the delta-coset sums match label-by-label and are
    dropped.  `indicator_1` reads H only through the signs H_i <= 0 and
    H_i > 0, so one point per sign class (H_i = -1 or 1), 2^#I0 cases in
    all, proves the identity for this I0.  The character model plays no
    role in the identity and is recorded in the report only."""
    I0 = sorted(I0)
    rhs = Counter()
    for I_lab, J_lab in _disjoint_label_pairs(I0):
        sign = -1 if len(J_lab) % 2 else 1
        rhs.update(_expand_term(sign, J_lab, I_lab, I0))
    rhs = {k: v for k, v in rhs.items() if v}

    full = [S for S in enumerate_eps_subsets(I0)
            if abs_set(S) == frozenset(I0)]
    cases = failures = 0
    fail_samples = []
    for signs in product((-1, 1), repeat=len(I0)):
        H = dict(zip(I0, signs))
        lhs = Counter()
        for J in full:
            for J1, J2 in disjoint_subset_pairs(J):
                cone = (J - J2) | sharp(J2)
                w = indicator_1(cone, H, I0)
                if not w:
                    continue
                rest = len(J) - len(J1) - len(J2)
                sign = -1 if rest % 2 else 1
                lhs.update(_expand_term(sign * w, J - J1, J1 | sharp(J2), I0))
        lhs = {k: v for k, v in lhs.items() if v}
        cases += 1
        if lhs != rhs:
            failures += 1
            if len(fail_samples) < 3:
                fail_samples.append({i: str(v) for i, v in H.items()})
    return {"identity": "rrss.signed-sum", "I0": I0,
            "eta_indices": sorted(eta_indices), "cases": cases,
            "failures": failures, "lhs_terms": len(rhs),
            "failure_samples": fail_samples}


def _disjoint_label_pairs(I0):
    "(I, J) disjoint with eps-subset union, including empty parts."
    for states in product(range(5), repeat=len(I0)):
        I_lab, J_lab = set(), set()
        for st, i in zip(states, I0):
            if st == 1:
                I_lab.add(i)
            elif st == 2:
                I_lab.add(-i)
            elif st == 3:
                J_lab.add(i)
            elif st == 4:
                J_lab.add(-i)
        yield frozenset(I_lab), frozenset(J_lab)


def disjoint_subset_pairs(J):
    "(J1, J2) disjoint subsets of the eps-subset J."
    J = sorted(J)
    for states in product(range(3), repeat=len(J)):
        J1, J2 = set(), set()
        for st, i in zip(states, J):
            if st == 1:
                J1.add(i)
            elif st == 2:
                J2.add(i)
        yield frozenset(J1), frozenset(J2)
