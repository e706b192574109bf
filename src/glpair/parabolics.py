"""The lattice of relatively standard parabolic subgroups of GL(n+1)
relative to the embedded GL(n), together with its root/weight data.

Coordinates: a_0 = Q^{n+1} with basis e_0, ..., e_n, where index 0 is the
distinguished line added to the n-dimensional space and indices 1..n are
the flag coordinates of that space.  The Euclidean structure is the
standard inner product in these coordinates (it is invariant under the
permutation action of the Weyl group, which is all the theory requires);
every volume or Jacobian is carried as its exact rational *square*.

A relatively standard parabolic is encoded by a nondecreasing index
sequence (i_0, ..., i_l) with i_0 = 0, i_l = n, strictly increasing except
for at most one repeat, whose position is k; it stabilizes the flag

    0 = V_{i_0} < ... < V_{i_{k-1}} < V_{i_k} + D < ... < V_{i_l} + D,

D being the distinguished line.  Block j of the parabolic is the set of
coordinates {i_{j-1}+1, ..., i_j}, with coordinate 0 inserted into block k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm

from .exact import QQ, Matrix, Polynomial


@dataclass(frozen=True)
class RelStdParabolic:
    n: int
    indices: tuple
    k: int

    def __post_init__(self):
        idx = self.indices
        if not idx or idx[0] != 0 or idx[-1] != self.n:
            raise ValueError("index sequence must run from 0 to n")
        if not 1 <= self.k <= len(idx) - 1:
            raise ValueError("k out of range")
        repeats = [j for j in range(1, len(idx)) if idx[j - 1] == idx[j]]
        if any(idx[j - 1] > idx[j] for j in range(1, len(idx))):
            raise ValueError("indices must be nondecreasing")
        if len(repeats) > 1 or (repeats and repeats[0] != self.k):
            raise ValueError("at most one repeat, and only at position k")

    @property
    def num_blocks(self):
        return len(self.indices) - 1

    @property
    def corank(self):
        "d_P - d_G for the ambient GL(n+1); equals num_blocks - 1."
        return self.num_blocks - 1

    def blocks(self):
        """Ordered coordinate blocks; block k (1-based) contains coordinate 0."""
        out = []
        for j in range(1, len(self.indices)):
            blk = list(range(self.indices[j - 1] + 1, self.indices[j] + 1))
            if j == self.k:
                blk = [0] + blk
            out.append(tuple(blk))
        return tuple(out)

    def flag(self):
        """The proper nonzero flag entries as labels ('V', i) / ('W', i);
        ('W', i) stands for V_i + D."""
        ent = [("V", self.indices[j]) for j in range(1, self.k)]
        ent += [("W", self.indices[j])
                for j in range(self.k, len(self.indices) - 1)]
        return frozenset(ent)

    def is_full_group(self):
        return self.num_blocks == 1

    def __repr__(self):
        return "P(%s;%d)" % (",".join(map(str, self.indices)), self.k)


@lru_cache(maxsize=None)
def enumerate_rel_std(n):
    """All relatively standard parabolics for GL(n+1) relative to GL(n),
    in lexicographic order on (number of blocks, indices, k)."""
    if n < 1:
        raise ValueError("n must be positive")
    found = []
    def extend(seq, used_repeat):
        last = seq[-1]
        if last == n and len(seq) >= 2:
            rep = [j for j in range(1, len(seq)) if seq[j - 1] == seq[j]]
            for k in range(1, len(seq)):
                if rep and rep[0] != k:
                    continue
                found.append(RelStdParabolic(n, tuple(seq), k))
        start = last if not used_repeat else last + 1
        for nxt in range(start, n + 1):
            extend(seq + [nxt], used_repeat or nxt == last)
    extend([0], False)
    found.sort(key=lambda P: (P.num_blocks, P.indices, P.k))
    return tuple(found)


def contains(P, Q):
    "True iff the flag of Q refines the flag of P, i.e. P contains Q."
    if P.n != Q.n:
        raise ValueError("rank mismatch")
    return P.flag() <= Q.flag()


@lru_cache(maxsize=None)
def parabolics_above(Q):
    "All relatively standard P with P >= Q, i.e. coarsenings of Q's flag."
    return tuple(P for P in enumerate_rel_std(Q.n) if contains(P, Q))


@lru_cache(maxsize=None)
def parabolics_between(Q, P2):
    return tuple(P for P in parabolics_above(Q) if contains(P2, P))


# ---------------------------------------------------------------------------
# weights


def varpi_minus(i, n):
    """Coordinates of the i-th weight of the first kind in (e_0*, ..., e_n*):
    ((n+1-i)/(n+1)) * sum_{j=1..i} e_j*  -  (i/(n+1)) * (e_0* + sum_{j>i} e_j*),
    and zero for i outside 1..n."""
    if not 1 <= i <= n:
        return (Fraction(0),) * (n + 1)
    hi = Fraction(n + 1 - i, n + 1)
    lo = Fraction(-i, n + 1)
    return tuple([lo] + [hi] * i + [lo] * (n - i))


def varpi_plus(i, n):
    """((n+1-i)/(n+1)) * (e_0* + sum_{j<i} e_j*)  -  (i/(n+1)) * sum_{j>=i} e_j*,
    zero outside 1..n."""
    if not 1 <= i <= n:
        return (Fraction(0),) * (n + 1)
    hi = Fraction(n + 1 - i, n + 1)
    lo = Fraction(-i, n + 1)
    return tuple([hi] * i + [lo] * (n - i + 1))


def dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)),
               Fraction(0))


def add_vec(u, v):
    return tuple(a + b for a, b in zip(u, v))


def scale_vec(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def delta_hat(Q):
    """The coweight system of Q at the top level: the weights
    { varpi^-_{i_a} (1 <= a <= k-1), varpi^+_{i_b + 1} (k <= b <= l-1) }
    with their covectors (same coordinates, read in the dual basis).
    Its size is num_blocks - 1."""
    n, idx, k = Q.n, Q.indices, Q.k
    l = len(idx) - 1
    weights = [varpi_minus(idx[a], n) for a in range(1, k)]
    weights += [varpi_plus(idx[b] + 1, n) for b in range(k, l)]
    covectors = list(weights)
    return tuple(weights), tuple(covectors)


@dataclass(frozen=True)
class AffineWeight:
    "const + s * slope, both coordinate vectors of length n+1."
    const: tuple
    slope: tuple

    def pair(self, v):
        "Pairing with a covector; returns (c0, c1) meaning c0 + c1*s."
        return (dot(self.const, v), dot(self.slope, v))

    def restrict_equal(self, other, vectors):
        "True iff self and other agree on every vector, identically in s."
        return all(self.pair(v) == other.pair(v) for v in vectors)


def s_sub(Q):
    """The block exponent of Q as an affine function of s:
    (s(n+1) + i_{k-1} + i_k - n) / (i_k - i_{k-1} + 1), returned as
    (c0, c1) with value c0 + c1*s."""
    n, idx, k = Q.n, Q.indices, Q.k
    den = idx[k] - idx[k - 1] + 1
    return (Fraction(idx[k - 1] + idx[k] - n, den), Fraction(n + 1, den))


@lru_cache(maxsize=None)
def rho_Q_s(Q):
    """The affine weight (1 + s_Q) * varpi^-_{i_{k-1}} + (1 - s_Q) * varpi^+_{i_k + 1};
    the two extreme coweights degenerate to zero when k = 1 or k = l."""
    n, idx, k = Q.n, Q.indices, Q.k
    c0, c1 = s_sub(Q)
    wm = varpi_minus(idx[k - 1], n)
    wp = varpi_plus(idx[k] + 1, n)
    const = add_vec(scale_vec(1 + c0, wm), scale_vec(1 - c0, wp))
    slope = add_vec(scale_vec(c1, wm), scale_vec(-c1, wp))
    return AffineWeight(const, slope)


def gram_det(vectors):
    "Determinant of the Gram matrix, exact; 1 for an empty family."
    if not vectors:
        return Fraction(1)
    G = Matrix(QQ, [[dot(u, v) for v in vectors] for u in vectors])
    return G.det()


def theta_hat(Q, mu):
    """The product of pairings of mu against the coweight covectors of Q,
    as a polynomial in s, together with the squared volume of the
    covector parallelotope.  theta-hat itself is (volume)^{-1} * product."""
    _, covs = delta_hat(Q)
    prod = Polynomial.constant(QQ, Fraction(1))
    for cv in covs:
        if isinstance(mu, AffineWeight):
            c0, c1 = mu.pair(cv)
        else:
            c0, c1 = dot(mu, cv), Fraction(0)
        prod = prod * Polynomial(QQ, [c0, c1])
    return prod, gram_det(covs)


# ---------------------------------------------------------------------------
# subspaces of a_0 attached to a parabolic


def ones(n):
    return (Fraction(1),) * n


def block_indicator(blk, n):
    return tuple(Fraction(1) if i in blk else Fraction(0) for i in range(n + 1))


def center(v):
    "Orthogonal projection killing the all-ones direction."
    n = len(v)
    avg = sum(v, Fraction(0)) / n
    return tuple(x - avg for x in v)


def st_basis(Q):
    """Block-indicator basis of the standard part of a_Q: vectors constant
    on each block other than block k and zero on block k."""
    blks = Q.blocks()
    return tuple(block_indicator(blks[j], Q.n)
                 for j in range(len(blks)) if j != Q.k - 1)


def jacobian_sq(Q):
    """Squared Jacobian of the isomorphism from the standard part of a_Q
    onto the centered part, induced by the projection along the all-ones
    line; equals the Gram-determinant ratio, and 1 for the full group."""
    basis = st_basis(Q)
    if not basis:
        return Fraction(1)
    num = gram_det([center(b) for b in basis])
    den = gram_det(list(basis))
    return num / den


def _two_rho(blks, n):
    """On block j of the ordered block list, the coefficient (total size of
    later blocks) - (total size of earlier blocks); zero off the blocks."""
    sizes = [len(b) for b in blks]
    total = sum(sizes)
    out = [Fraction(0)] * (n + 1)
    before = 0
    for size, blk in zip(sizes, blks):
        for i in blk:
            out[i] = Fraction(total - 2 * before - size)
        before += size
    return tuple(out)


def two_rho_ambient(Q):
    """2 * (half-sum of roots in the unipotent radical of Q inside GL(n+1)),
    as a coordinate functional: on block j the coefficient is
    (total size of later blocks) - (total size of earlier blocks)."""
    return _two_rho(Q.blocks(), Q.n)


def two_rho_intersected(Q):
    """Same half-sum functional for the intersection Q cap GL(n): coordinate
    0 is dropped from every block (so block k may be empty)."""
    return _two_rho([tuple(i for i in b if i != 0) for b in Q.blocks()], Q.n)


def det_weight(n):
    "The determinant character of the full torus: the all-ones functional."
    return ones(n + 1)


def det_center_weight(Q):
    "Determinant of the middle GL(Z + D) factor: indicator of block k."
    return block_indicator(Q.blocks()[Q.k - 1], Q.n)


# ---------------------------------------------------------------------------
# root data of nested pairs (used by the cone functions)


@lru_cache(maxsize=None)
def _pair_data(P, Q):
    """Root/coweight data for a nested pair P <= Q.

    Returns (roots, coweights):
      roots     - functionals alpha_j(H) = avg(block j) - avg(block j+1) for
                  each boundary between consecutive P-blocks lying in one
                  Q-block, as coordinate vectors; each is supported in one
                  Q-block with zero coordinate sum, so it is its own coroot
                  projection onto the orthogonal complement of a_Q in a_P;
      coweights - the basis of that complement dual to the roots.
    """
    if not contains(Q, P):
        raise ValueError("pair is not nested")
    pb = P.blocks()
    qb = Q.blocks()
    owner = {}
    for qj, blk in enumerate(qb):
        for i in blk:
            owner[i] = qj
    roots = []
    n = P.n
    for j in range(len(pb) - 1):
        if owner[pb[j][0]] != owner[pb[j + 1][0]]:
            continue
        a = scale_vec(Fraction(1, len(pb[j])), block_indicator(pb[j], n))
        b = scale_vec(Fraction(1, len(pb[j + 1])), block_indicator(pb[j + 1], n))
        roots.append(tuple(x - y for x, y in zip(a, b)))
    if not roots:
        return (), ()
    C = Matrix.from_columns(QQ, [list(a) for a in roots])
    G = Matrix(QQ, [[dot(u, v) for v in roots] for u in roots])
    W = C * G.inverse()
    coweights = tuple(W.column(j) for j in range(len(roots)))
    return tuple(roots), coweights


def simple_roots(P, Q):
    return _pair_data(P, Q)[0]

def coweights(P, Q):
    return _pair_data(P, Q)[1]


@lru_cache(maxsize=None)
def full_group(n):
    return RelStdParabolic(n, (0, n), 1)


# ---------------------------------------------------------------------------
# integer sign kernel: a sign or zero test of a pairing does not change when
# either vector is multiplied by a positive number


def int_scaled(v, m=None):
    """The integer vector m * v, for m a positive multiple of every
    denominator of v (by default their lcm)."""
    if m is None:
        m = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (m // x.denominator) for x in v)


@lru_cache(maxsize=None)
def int_pair_data(P, Q):
    """(roots, coweights) of the nested pair P <= Q as in `_pair_data`, each
    vector scaled by the lcm of its denominators to integer coordinates."""
    return tuple(tuple(int_scaled(v) for v in vecs)
                 for vecs in _pair_data(P, Q))


@lru_cache(maxsize=None)
def boundary_table(P, Q):
    """For the nested pair P <= Q, at each boundary between consecutive
    blocks of Q, in order: P's simple root there and the coweight of that
    boundary, as (roots, coweights, int_roots, int_coweights), the last
    two scaled as in `int_pair_data`.

    The coarsenings R >= Q are exactly the subsets of Q's boundaries that
    R keeps: the roots of Q in R are Q's roots at the boundaries R drops,
    and the coweights of R in G are the coweights at the boundaries R
    keeps.  A boundary's coweight is the same vector for every parabolic
    having that boundary, so it is read off P's."""
    if not contains(Q, P):
        raise ValueError("pair is not nested")
    G = full_group(P.n)
    cuts = set(accumulate(len(b) for b in Q.blocks()))
    keep = [j for j, size in enumerate(accumulate(
        len(b) for b in P.blocks()[:-1])) if size in cuts]
    return tuple(tuple(vecs[j] for j in keep)
                 for vecs in _pair_data(P, G) + int_pair_data(P, G))


def restriction_check(Q, R):
    """True iff the affine weights of Q and R agree, identically in s, on
    the subspace a_R (spanned by R's block indicators).  Requires R >= Q.

    With d the difference of the two weights (constant and slope parts, on
    one positive integer scale), the pairing of d with R's centred
    indicator of block b vanishes iff (n+1) * sum_{i in b} d_i equals
    |b| * sum_i d_i."""
    if not contains(R, Q):
        raise ValueError("R must contain Q")
    a, b = rho_Q_s(Q), rho_Q_s(R)
    parts = (a.const, a.slope, b.const, b.slope)
    m = lcm(*(x.denominator for v in parts for x in v))
    blocks = R.blocks()
    for u, v in ((a.const, b.const), (a.slope, b.slope)):
        d = [x - y for x, y in zip(int_scaled(u, m), int_scaled(v, m))]
        total = sum(d)
        for blk in blocks:
            if (R.n + 1) * sum(d[i] for i in blk) != len(blk) * total:
                return False
    return True


# ---------------------------------------------------------------------------
# identity checks over the lattices of ranks 1..n: each returns a record
# with the identity's name, its cases and its failures


def _ranks(n):
    "Ranks 1..n of a check; refuses n < 1, where it would check nothing."
    if n < 1:
        raise ValueError("n must be positive")
    return range(1, n + 1)


def verify_lattice_count(n):
    """The lattice sizes at ranks 1..n, against the independent flag counts
    3 (rank 1) and 8 (rank 2); one verdict, so the record has no cases."""
    counts = {m: len(enumerate_rel_std(m)) for m in _ranks(n)}
    ok = counts.get(1, 3) == 3 and counts.get(2, 8) == 8
    return {"identity": "parabolics.lattice-count", "counts": counts,
            "failures": 0 if ok else 1}


def verify_exponent_closed_forms(n):
    """rho_{Q,s} pairs with each coweight of Q to a closed form: i_a (1 + s)
    with varpi^-_{i_a} for a < k, and (m - i_b)(1 - s) with
    varpi^+_{i_b + 1} for b >= k, for every Q at ranks m = 1..n."""
    cases = failures = 0
    for m in _ranks(n):
        for Q in enumerate_rel_std(m):
            rho = rho_Q_s(Q)
            idx, k, l = Q.indices, Q.k, Q.num_blocks
            for a in range(1, k):
                cases += 1
                if rho.pair(varpi_minus(idx[a], m)) != \
                        (Fraction(idx[a]), Fraction(idx[a])):
                    failures += 1
            for b in range(k, l):
                cases += 1
                want = Fraction(m - idx[b])
                if rho.pair(varpi_plus(idx[b] + 1, m)) != (want, -want):
                    failures += 1
    return {"identity": "parabolics.exponent-closed-forms",
            "cases": cases, "failures": failures}


def verify_restriction(n):
    "`restriction_check` holds for every nested pair Q <= R at ranks 1..n."
    cases = failures = 0
    for m in _ranks(n):
        for Q in enumerate_rel_std(m):
            for R in parabolics_above(Q):
                cases += 1
                if not restriction_check(Q, R):
                    failures += 1
    return {"identity": "parabolics.restriction",
            "cases": cases, "failures": failures}
