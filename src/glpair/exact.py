"""Exact scalar, matrix and polynomial arithmetic over Q and prime fields.

Everything in this module is exact: rationals are `fractions.Fraction`
(always in lowest terms, positive denominator), prime-field elements are
residues in [0, p).  All values are immutable, so they can be shared
freely between threads.
"""

from __future__ import annotations

from fractions import Fraction


class Rationals:
    """The field Q.  A stateless singleton, exposed as `QQ`."""

    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, x):
        return Fraction(x)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = Rationals()


class Fp:
    """An element of F_p, stored as a residue in [0, p)."""

    __slots__ = ("r", "p")

    def __init__(self, r, p):
        self.r = r % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.r + other.r, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.r - other.r, self.p)

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.r * other.r, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.r == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return Fp(self.r * pow(other.r, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __neg__(self):
        return Fp(-self.r, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            return self.r == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.r, self.p))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return "%d" % self.r


class GF:
    """The prime field F_p as a scalar domain."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.zero = Fp(0, p)
        self.one = Fp(1, p)

    def __call__(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise ValueError("mixed prime fields")
            return x
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return Fp(x.numerator, self.p) / Fp(x.denominator, self.p)
        return Fp(int(x), self.p)

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


class Matrix:
    """An immutable matrix over a fixed scalar domain (QQ or GF(p))."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = tuple(tuple(field(x) for x in row) for row in rows)
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def zeros(cls, field, n, m):
        return cls(field, [[field.zero] * m for _ in range(n)])

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero
                            for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field, cols):
        return cls(field, list(zip(*cols))) if cols else cls(field, [])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return zip(self.rows, other.rows)

    def __add__(self, other):
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in self._same_shape(other)])

    def __sub__(self, other):
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in self._same_shape(other)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.rows])

    def scale(self, s):
        s = self.field(s)
        return Matrix(self.field, [[s * a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.rows))
            return Matrix(self.field,
                          [[_dot(row, col) for col in cols] for row in self.rows])
        return NotImplemented

    def apply(self, v):
        "Matrix times column vector, returned as a tuple."
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(_dot(row, v) for row in self.rows)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows))) if self.rows \
            else Matrix(self.field, [])

    def is_square(self):
        return self.nrows == self.ncols

    def _echelon(self):
        "Row echelon form by exact Gaussian elimination; returns (rows, det, rank)."
        rows = [list(r) for r in self.rows]
        zero, one = self.field.zero, self.field.one
        det = one
        rank = 0
        for col in range(self.ncols):
            piv = None
            for i in range(rank, self.nrows):
                if rows[i][col] != zero:
                    piv = i
                    break
            if piv is None:
                det = zero
                continue
            if piv != rank:
                rows[rank], rows[piv] = rows[piv], rows[rank]
                det = -det
            det = det * rows[rank][col]
            inv = one / rows[rank][col]
            rows[rank] = [inv * x for x in rows[rank]]
            for i in range(self.nrows):
                if i != rank and rows[i][col] != zero:
                    f = rows[i][col]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
            rank += 1
        if rank < self.nrows:
            det = zero
        return rows, det, rank

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            return self.field.one
        return self._echelon()[1]

    def rank(self):
        return self._echelon()[2]

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = Matrix(self.field,
                     [list(self.rows[i]) + list(Matrix.identity(self.field, n).rows[i])
                      for i in range(n)])
        rows, det, rank = aug._echelon()
        if rank < n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix(self.field, [row[n:] for row in rows])

    def solve(self, b):
        "Solve self * x = b for the column vector b; raises if singular."
        return self.inverse().apply(tuple(b))

    def charpoly(self):
        """det(tI - M) as a monic polynomial, by the division-free
        Berkowitz recursion (valid over any commutative ring)."""
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.nrows
        zero, one = self.field.zero, self.field.one
        if n == 0:
            return Polynomial(self.field, [one])
        A = self.rows
        # coefficients of det(tI - A_k) for the leading k x k block,
        # highest degree first
        poly = [one, -A[0][0]]
        for k in range(1, n):
            row = [A[k][j] for j in range(k)]
            col = [A[j][k] for j in range(k)]
            # first column of the Toeplitz factor:
            # 1, -a_kk, -(R C), -(R A C), -(R A^2 C), ...
            toep = [one, -A[k][k]]
            vec = col
            for _ in range(k):
                toep.append(-_dot(row, vec))
                vec = [_dot(A[i][:k], vec) for i in range(k)]
            # p_{k+1} = T p_k with T the (k+2) x (k+1) lower-triangular
            # Toeplitz matrix whose first column is toep
            new = [zero] * (k + 2)
            for i, t in enumerate(toep):
                if t == zero:
                    continue
                for j, c in enumerate(poly):
                    if i + j <= k + 1:
                        new[i + j] = new[i + j] + t * c
            poly = new
        return Polynomial(self.field, list(reversed(poly)))

    def __repr__(self):
        return "Matrix(%r)" % (self.rows,)


def _dot(xs, ys):
    it = iter(zip(xs, ys))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def exterior_trace(M, j):
    """Trace of the j-th exterior power of M, i.e. the j-th elementary
    symmetric function of the eigenvalues, read off the characteristic
    polynomial with sign (-1)^j."""
    n = M.nrows
    if not 1 <= j <= n:
        raise ValueError("exterior power index out of range")
    f = M.charpoly()
    c = f.coeff(n - j)
    return c if j % 2 == 0 else -c


def charpoly(M):
    return M.charpoly()


def krylov_basis(B, w):
    """The matrix [w, Bw, ..., B^{n-1}w] and its rank."""
    if B.nrows != len(w):
        raise ValueError("vector length does not match matrix side")
    w = tuple(B.field(x) for x in w)
    cols = [w]
    for _ in range(B.nrows - 1):
        w = B.apply(w)
        cols.append(w)
    K = Matrix.from_columns(B.field, cols)
    return K, K.rank()


class Polynomial:
    """A univariate polynomial; coefficients stored lowest degree first,
    leading coefficient nonzero unless the polynomial is zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field(c) for c in coeffs]
        while coeffs and coeffs[-1] == field.zero:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else self.field.zero

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field,
                          [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field,
                          [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def _lift(self, other):
        if isinstance(other, Polynomial):
            return other
        return Polynomial(self.field, [self.field(other)])

    def __mul__(self, other):
        other = self._lift(other)
        if self.is_zero() or other.is_zero():
            return Polynomial(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == self.field.zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._lift(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.field.zero] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        inv = self.field.one / other.leading()
        for k in range(len(r) - len(other.coeffs), -1, -1):
            c = r[k + other.degree] * inv
            if c == self.field.zero:
                continue
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] = r[k + i] - c * b
        return Polynomial(self.field, q), Polynomial(self.field, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.field.one / self.leading()
        return Polynomial(self.field, [inv * c for c in self.coeffs])

    def derivative(self):
        return Polynomial(self.field,
                          [self.field(i) * c
                           for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other):
        a, b = self, self._lift(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def xgcd(self, other):
        "Extended Euclid: returns (g, s, t) with s*self + t*other = g, g monic."
        zero = Polynomial(self.field, [])
        one = Polynomial.constant(self.field, self.field.one)
        a, b = self, self._lift(other)
        s0, s1, t0, t1 = one, zero, zero, one
        while not b.is_zero():
            q, r = divmod(a, b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if a.is_zero():
            return a, s0, t0
        inv = self.field.one / a.leading()
        c = Polynomial.constant(self.field, inv)
        return a.monic(), c * s0, c * t0

    def __call__(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def subst_neg(self):
        "p(-T)."
        return Polynomial(self.field,
                          [c if i % 2 == 0 else -c
                           for i, c in enumerate(self.coeffs)])

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            if i == 0:
                parts.append("%s" % (c,))
            elif i == 1:
                parts.append("%s*t" % (c,))
            else:
                parts.append("%s*t^%d" % (c, i))
        return " + ".join(reversed(parts))


def is_separable(f):
    "True iff gcd(f, f') is constant, by the exact Euclidean algorithm."
    if f.is_zero():
        raise ValueError("separability of the zero polynomial is undefined")
    g = f.gcd(f.derivative())
    return g.degree == 0


def scalar_to_str(x):
    "Rationals serialize as 'p/q' (or 'p' when q = 1); F_p residues as ints."
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, Fp):
        return str(x.r)
    return str(x)


def parse_rational(s):
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


def matrix_to_lists(M):
    return [[scalar_to_str(x) for x in row] for row in M.rows]


def matrix_from_lists(field, lists):
    return Matrix(field, [[field(parse_rational(str(x))) for x in row]
                          for row in lists])
