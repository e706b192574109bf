"""Brute-force census of GL(n, F_p)-orbits on gl(n+1, F_p).

This module is the oracle side of the invariant-separation and
orbit-classification claims, so it deliberately reimplements everything it
needs (fingerprints, conjugation, orbit partition) with raw modular
integer arithmetic instead of reusing the exact-matrix classes.

Elements are flat tuples of residues of length (n+1)^2, row-major.
Orbits are connected components of the action graph generated by a small
generating set of GL(n, F_p) (transvections plus one primitive diagonal);
this gives the same partition as the full group sweep at a fraction of the
cost.  The exhaustive census makes two sweeps of the element space: one
joins each element to its generator images in a union-find, the next
fingerprints each element once and tallies it under its orbit's root.
Sampled mode conjugates each pooled element by a matrix drawn uniformly
from GL(n, F_p) by rejection: a random matrix is kept when it inverts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

SIZE_GUARD = 10 ** 8


@dataclass
class CensusReport:
    p: int
    n: int
    orbit_count: int = 0
    class_table: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    mode: str = "exhaustive"
    samples: int = 0
    seed: int | None = None

    def ok(self):
        return not self.violations


# ---------------------------------------------------------------------------
# modular matrix helpers (matrices as tuples of row tuples)


def _mat_mul(A, B, p):
    m, k2 = len(A), len(B[0])
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) % p
                       for j in range(k2)) for i in range(m))


def _mat_vec(A, v, p):
    return tuple(sum(A[i][t] * v[t] for t in range(len(v))) % p
                 for i in range(len(A)))


def _mat_inv(A, p):
    n = len(A)
    rows = [list(r) + [1 if i == j else 0 for j in range(n)]
            for i, r in enumerate(A)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] % p), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def _charpoly_mod(B, p):
    "Coefficients of det(tI - B), lowest degree first, division-free."
    n = len(B)
    if n == 0:
        return (1,)
    poly = [1, -B[0][0] % p]
    for k in range(1, n):
        row = [B[k][j] for j in range(k)]
        col = [B[j][k] for j in range(k)]
        toep = [1, -B[k][k] % p]
        vec = col
        for _ in range(k):
            toep.append(-sum(r * c for r, c in zip(row, vec)) % p)
            vec = [sum(B[i][t] * vec[t] for t in range(k)) % p
                   for i in range(k)]
        new = [0] * (k + 2)
        for i, t in enumerate(toep):
            for j, c in enumerate(poly):
                if i + j <= k + 1:
                    new[i + j] = (new[i + j] + t * c) % p
        poly = new
    return tuple(reversed([c % p for c in poly]))


def _poly_gcd_mod(f, g, p):
    f, g = list(f), list(g)
    def deg(h):
        d = len(h) - 1
        while d >= 0 and h[d] % p == 0:
            d -= 1
        return d
    while deg(g) >= 0:
        df, dg = deg(f), deg(g)
        if df < dg:
            f, g = g, f
            continue
        inv = pow(g[dg], p - 2, p)
        c = f[df] * inv % p
        for i in range(dg + 1):
            f[df - dg + i] = (f[df - dg + i] - c * g[i]) % p
    return [c % p for c in f[:deg(f) + 1]] if deg(f) >= 0 else []


# ---------------------------------------------------------------------------
# the group


def group_order(n, p):
    order = 1
    for i in range(n):
        order *= p ** n - p ** i
    return order


def _group_pairs(n, p):
    "(g, g^{-1}) for every invertible n x n matrix g over F_p."
    if p ** (n * n) > SIZE_GUARD:
        raise ValueError("group too large to enumerate")
    for entries in product(range(p), repeat=n * n):
        g = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
        gi = _mat_inv(g, p)
        if gi is not None:
            yield g, gi


def _is_prime(p):
    """Miller-Rabin with the first twelve prime bases: exact for every p
    below 3.3 * 10^24, a strong probable-prime test beyond."""
    if p < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p in bases:
        return True
    if any(p % b == 0 for b in bases):
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _primitive_root(p):
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    return 1


def generators(n, p):
    "Transvections and one primitive diagonal: they generate GL(n, F_p)."
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            g = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            g[i][j] = 1
            gens.append(tuple(tuple(r) for r in g))
    r = _primitive_root(p)
    if r != 1:
        g = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        g[0][0] = r
        gens.append(tuple(tuple(r2) for r2 in g))
    return gens


# ---------------------------------------------------------------------------
# elements, action, fingerprints


def split_blocks(x, n):
    "Flat (n+1)^2 tuple -> (B, u, v, d) with raw tuples."
    m = n + 1
    rows = [x[i * m:(i + 1) * m] for i in range(m)]
    B = tuple(tuple(rows[i][:n]) for i in range(n))
    u = tuple(rows[i][n] for i in range(n))
    v = tuple(rows[n][:n])
    return B, u, v, rows[n][n]


def join_blocks(B, u, v, d, n, p):
    rows = []
    for i in range(n):
        rows.extend([c % p for c in B[i]] + [u[i] % p])
    rows.extend([c % p for c in v] + [d % p])
    return tuple(rows)


def conjugate(g, gi, x, n, p):
    "(B, u, v, d) -> (g^{-1} B g, g^{-1} u, v g, d) on flat tuples."
    m, idx = n + 1, range(n)
    rows = [x[i * m:(i + 1) * m] for i in idx]  # row i is (B[i], u[i])
    out = []
    for gi_row in gi:
        giB = [sum(a * r[j] for a, r in zip(gi_row, rows)) for j in idx]
        out.extend(sum(giB[t] * g[t][j] for t in idx) % p for j in idx)
        out.append(sum(a * r[n] for a, r in zip(gi_row, rows)) % p)
    v = x[n * m:n * m + n]
    out.extend(sum(v[t] * g[t][j] for t in idx) % p for j in idx)
    out.append(x[-1] % p)
    return tuple(out)


def fingerprint(x, n, p):
    "(A_0, ..., A_n, B_1, ..., B_n) mod p, computed from scratch."
    B, u, v, d = split_blocks(x, n)
    a = [d % p]
    w = u
    for _ in range(n):
        a.append(sum(vi * wi for vi, wi in zip(v, w)) % p)
        w = _mat_vec(B, w, p)
    cp = _charpoly_mod(B, p)
    b = [(cp[n - j] if j % 2 == 0 else -cp[n - j]) % p for j in range(1, n + 1)]
    return tuple(a + b)


def is_rss(x, n, p):
    "det(v B^{i+j} u) != 0 mod p."
    B, u, v, d = split_blocks(x, n)
    powers = []
    w = u
    for _ in range(2 * n - 1):
        powers.append(w)
        w = _mat_vec(B, w, p)
    rows = [[sum(vi * wi for vi, wi in zip(v, powers[i + j])) % p
             for j in range(n)] for i in range(n)]
    return _mat_inv(rows, p) is not None if n else True


def orbit_of(x, n, p):
    "The full orbit as a set of flat tuples, by breadth-first closure."
    if p ** ((n + 1) ** 2) > SIZE_GUARD:
        raise ValueError("element space too large")
    gens = [(g, _mat_inv(g, p)) for g in generators(n, p)]
    gens += [(gi, g) for g, gi in list(gens)]
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for g, gi in gens:
                z = conjugate(g, gi, y, n, p)
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return seen


def stabilizer_order(x, n, p):
    "Direct count of group elements fixing x under conjugation."
    return sum(conjugate(g, gi, x, n, p) == x for g, gi in _group_pairs(n, p))


# ---------------------------------------------------------------------------
# union-find over the full element space


class _UnionFind:
    def __init__(self, elements):
        self.parent = {x: x for x in elements}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _orbit_union_find(elements, n, p):
    "The union-find of `elements` joined along the generator action."
    uf = _UnionFind(elements)
    gens = [(g, _mat_inv(g, p)) for g in generators(n, p)]
    for x in uf.parent:
        for g, gi in gens:
            y = conjugate(g, gi, x, n, p)
            if y not in uf.parent:
                raise ValueError("generator edge leaves the element set")
            uf.union(x, y)
    return uf


def _orbit_partition(elements, n, p):
    "Union-find components under the generator action, root -> set."
    uf = _orbit_union_find(elements, n, p)
    comps = {}
    for x in uf.parent:
        comps.setdefault(uf.find(x), set()).add(x)
    return comps


def _conjugator_certificate(x, y, n, p):
    """For regular semisimple x, y with equal fingerprints, try to produce
    g with x conjugated into y via the two Krylov bases; returns a verified
    g or None.  Verification is by direct conjugation, so a wrong candidate
    can never be accepted."""
    Bx, ux, vx, dx = split_blocks(x, n)
    By, uy, vy, dy = split_blocks(y, n)
    def krylov(B, u):
        cols = [u]
        for _ in range(n - 1):
            cols.append(_mat_vec(B, cols[-1], p))
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    Kx, Ky = krylov(Bx, ux), krylov(By, uy)
    Kxi, Kyi = _mat_inv(Kx, p), _mat_inv(Ky, p)
    if Kxi is None or Kyi is None:
        return None
    g, gi = _mat_mul(Kx, Kyi, p), _mat_mul(Ky, Kxi, p)
    if conjugate(g, gi, x, n, p) == y:
        return g
    return None


DEFAULT_SAMPLE = 2000


def verify_separation(n, p, sample=None, seed=0):
    """Check that among regular semisimple elements of gl(n+1, F_p), equal
    fingerprints and equal orbits coincide.  Exhaustive when the space is
    enumerable and `sample` is None; past the size guard it falls back to
    sampling mode with a declared sample count.  Sampling checks `sample`
    conjugate pairs for invariance and every fingerprint collision in the
    pool through a verified conjugator certificate."""
    if n < 1:
        raise ValueError("n must be at least 1, got %d" % n)
    if not _is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    if sample is not None and sample < 1:
        raise ValueError("sample must be at least 1, got %d" % sample)
    report = CensusReport(p=p, n=n, seed=seed)
    m = (n + 1) ** 2
    if sample is None and p ** m > SIZE_GUARD:
        sample = DEFAULT_SAMPLE
        report.mode = "sampled-fallback"
    if sample is None:
        uf = _orbit_union_find(product(range(p), repeat=m), n, p)
        # One fingerprint per element: each orbit root is tallied under
        # the fingerprints of its elements, and a root met under a second
        # fingerprint breaks invariance.  An orbit counts as regular
        # semisimple under a fingerprint when one of its elements there
        # is; is_rss runs until one is found.
        size, fp_of_root, broken, by_fp = {}, {}, {}, {}
        for x in uf.parent:
            root = uf.find(x)
            size[root] = size.get(root, 0) + 1
            fp = fingerprint(x, n, p)
            if fp_of_root.setdefault(root, fp) != fp:
                broken[root] = True
            roots = by_fp.setdefault(fp, {})
            if not roots.get(root):
                roots[root] = is_rss(x, n, p)
        report.orbit_count = len(size)
        order = group_order(n, p)
        for fp, roots in sorted(by_fp.items()):
            rss_roots = [root for root, rss in roots.items() if rss]
            if len(rss_roots) > 1:
                report.violations.append(
                    {"kind": "separation", "fingerprint": fp,
                     "orbits": len(rss_roots)})
            # regular semisimple orbits must be free (trivial stabilizer)
            for root in rss_roots:
                if size[root] != order:
                    report.violations.append(
                        {"kind": "rss-stabilizer", "fingerprint": fp,
                         "orbit_size": size[root]})
            entries = []
            for root in sorted(roots):
                if order % size[root]:
                    report.violations.append(
                        {"kind": "orbit-stabilizer", "fingerprint": fp,
                         "orbit_size": size[root]})
                    continue
                entries.append((size[root], order // size[root]))
            report.class_table[fp] = sorted(entries)
        # orbits refine fingerprints: every component must sit inside one
        for root in broken:
            report.violations.append({"kind": "invariance", "orbit_of": root})
        return report

    if report.mode == "exhaustive":
        report.mode = "sampled"
    rng = random.Random(seed)
    pool = []
    attempts = 0
    while len(pool) < sample and attempts < 50 * sample:
        attempts += 1
        x = tuple(rng.randrange(p) for _ in range(m))
        if is_rss(x, n, p):
            pool.append(x)
    pairs_checked = 0
    by_fp = {}
    for x in pool:
        gi = None
        while gi is None:
            g = tuple(tuple(rng.randrange(p) for _ in range(n))
                      for _ in range(n))
            gi = _mat_inv(g, p)
        fp = fingerprint(x, n, p)
        pairs_checked += 1
        if fingerprint(conjugate(g, gi, x, n, p), n, p) != fp:
            report.violations.append({"kind": "invariance",
                                      "element": x, "g": g})
        by_fp.setdefault(fp, []).append(x)
    for fp, xs in by_fp.items():
        base = xs[0]
        for other in xs[1:]:
            pairs_checked += 1
            if _conjugator_certificate(base, other, n, p) is None:
                report.violations.append(
                    {"kind": "separation", "fingerprint": fp,
                     "pair": (base, other)})
    report.samples = pairs_checked
    return report


def _reduce_scalar(x, p):
    from fractions import Fraction
    x = Fraction(x) if not hasattr(x, "r") else Fraction(x.r)
    if x.denominator % p == 0:
        raise ValueError("bad prime: denominator divisible by %d" % p)
    return x.numerator * pow(x.denominator, p - 2, p) % p


def _poly_mod_p(poly, p):
    return [_reduce_scalar(c, p) for c in poly.coeffs]


def _is_irreducible_mod(coeffs, p):
    "Irreducibility over F_p for degree <= 3: no roots (plus deg-2 cofactor check)."
    d = len(coeffs) - 1
    if d == 1:
        return True
    if d > 3:
        raise ValueError("good-prime irreducibility check limited to degree 3")
    for r in range(p):
        if sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p == 0:
            return False
    return True  # degree 2 or 3 with no roots is irreducible


def good_prime(cls, p):
    """Separability, factor irreducibility and the degenerate index set all
    survive reduction mod p (an alpha component nonzero over the rationals
    must stay nonzero in the residue field)."""
    try:
        cp = [_reduce_scalar(c, p) for c in cls.B.charpoly().coeffs]
        for row in cls.B.rows:
            for entry in row:
                _reduce_scalar(entry, p)
        _reduce_scalar(cls.d, p)
        for c in cls.alpha.coeffs():
            _reduce_scalar(c, p)
    except ValueError:
        return False
    der = [(i * c) % p for i, c in enumerate(cp)][1:]
    if len(_poly_gcd_mod(cp, der, p)) > 1:
        return False
    for i, f in enumerate(cls.algebra.factors, start=1):
        fm = _poly_mod_p(f, p)
        if not _is_irreducible_mod(fm, p):
            return False
        if i not in cls.I0:
            comp = _poly_mod_p(cls.alpha.components()[i - 1], p)
            if not any(c % p for c in comp):
                return False
    return True


def reduce_element(cls, eps, p):
    "The orbit representative of an eps-subset, reduced to a flat F_p tuple."
    from .invariants import orbit_representative
    rep = orbit_representative(cls, frozenset(eps))
    flat = []
    for i in range(cls.n):
        flat.extend([_reduce_scalar(x, p) for x in cls.B.rows[i]]
                    + [_reduce_scalar(rep.u[i], p)])
    flat.extend([_reduce_scalar(x, p) for x in rep.v]
                + [_reduce_scalar(cls.d, p)])
    return tuple(flat)


def _fibre(target, n, p):
    """Every element of gl(n+1, F_p) with fingerprint `target`, in
    enumeration order.  B runs over the matrices whose charpoly the B-part
    of `target` fixes, u over F_p^n with its Krylov vectors u, Bu, ...,
    B^{n-1}u computed once, and v over F_p^n; d is the A_0 coordinate.
    With d and charpoly(B) matched, the fingerprint matches exactly when
    v . B^k u is the target A_{k+1} for every k < n."""
    d, target_a, target_b = target[0], target[1:n + 1], target[n + 1:]
    target_cp = tuple((-1) ** (n - k) * target_b[n - k - 1] % p
                      for k in range(n)) + (1,)
    out = []
    for b_entries in product(range(p), repeat=n * n):
        B = tuple(tuple(b_entries[i * n:(i + 1) * n]) for i in range(n))
        if _charpoly_mod(B, p) != target_cp:
            continue
        for u in product(range(p), repeat=n):
            krylov = [u]
            for _ in range(n - 1):
                krylov.append(_mat_vec(B, krylov[-1], p))
            for v in product(range(p), repeat=n):
                if all(sum(a * b for a, b in zip(v, w)) % p == t
                       for w, t in zip(krylov, target_a)):
                    out.append(join_blocks(B, u, v, d, n, p))
    return out


def class_orbit_count(cls, p):
    """Reduce a separable class mod a good prime, enumerate every element
    of gl(n+1, F_p) with the reduced fingerprint, and partition it into
    orbits.  Returns (orbit count, sorted stabilizer orders)."""
    n = cls.n
    if not good_prime(cls, p):
        raise ValueError("%d is not a good prime for this class" % p)
    target = fingerprint(reduce_element(cls, frozenset(), p), n, p)
    comps = _orbit_partition(_fibre(target, n, p), n, p)
    stab_orders = []
    for comp in comps.values():
        rep = min(comp)
        stab_orders.append(stabilizer_order(rep, n, p))
        if stab_orders[-1] * len(comp) != group_order(n, p):
            raise AssertionError("orbit-stabilizer mismatch in census")
    return len(comps), sorted(stab_orders)


def expected_stabilizer_orders(cls, p):
    """Multiset of stabilizer orders predicted by the orbit classification:
    over the eps-subsets of I0, the product of (p^deg - 1) over the factors
    left out of the subset's support."""
    degs = {i: cls.algebra.factors[i - 1].degree for i in cls.I0}
    from .rrss import enumerate_eps_subsets, abs_set
    out = []
    for sub in enumerate_eps_subsets(cls.I0):
        left = set(cls.I0) - set(abs_set(sub))
        order = 1
        for i in left:
            order *= p ** degs[i] - 1
        out.append(order)
    return sorted(out)
