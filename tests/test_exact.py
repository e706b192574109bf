import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from glpair.exact import (GF, Matrix, Polynomial, QQ, exterior_trace,
                          is_separable, krylov_basis, matrix_from_lists,
                          parse_rational, scalar_to_str)


def test_charpoly_examples():
    assert Matrix(QQ, [[0]]).charpoly().coeffs == (F(0), F(1))
    f = Matrix(QQ, [[1, 0], [0, 2]]).charpoly()
    assert f.coeffs == (F(2), F(-3), F(1))  # t^2 - 3t + 2
    g3 = GF(3)
    g = Matrix(g3, [[0, 1], [1, 0]]).charpoly()
    assert g.coeffs == (g3(2), g3(0), g3(1))  # t^2 + 2 = t^2 - 1 mod 3


def test_charpoly_against_determinant():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(1, 5)
        M = Matrix(QQ, [[rng.randint(-5, 5) for _ in range(n)]
                        for _ in range(n)])
        f = M.charpoly()
        assert f.degree == n and f.leading() == 1
        lam = F(rng.randint(-8, 8), rng.randint(1, 5))
        direct = (Matrix.identity(QQ, n).scale(lam) - M).det()
        assert f(lam) == direct


def test_charpoly_non_square_rejected():
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2, 3], [4, 5, 6]]).charpoly()


def test_exterior_trace():
    M = Matrix(QQ, [[1, 0], [0, 2]])
    assert exterior_trace(M, 2) == 2
    assert exterior_trace(M, 1) == 3
    Z = Matrix.zeros(QQ, 3, 3)
    for j in (1, 2, 3):
        assert exterior_trace(Z, j) == 0
    assert exterior_trace(Matrix(QQ, [[7]]), 1) == 7
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 4)
        M = Matrix(QQ, [[rng.randint(-4, 4) for _ in range(n)]
                        for _ in range(n)])
        assert exterior_trace(M, n) == M.det()
        assert exterior_trace(M, 1) == sum(M.rows[i][i] for i in range(n))
    with pytest.raises(ValueError):
        exterior_trace(M, 0)


def test_is_separable():
    t = Polynomial.x(QQ)
    assert is_separable(t * t - 1)
    assert not is_separable(t * t)
    assert is_separable(t * t + 1)
    with pytest.raises(ValueError):
        is_separable(Polynomial(QQ, []))


def test_krylov_basis():
    B = Matrix(QQ, [[1, 0], [0, 2]])
    K, rank = krylov_basis(B, (1, 1))
    assert rank == 2 and K.column(1) == (F(1), F(2))
    _, rank = krylov_basis(B, (1, 0))
    assert rank == 1
    _, rank = krylov_basis(Matrix(QQ, [[0, 1], [0, 0]]), (0, 1))
    assert rank == 2
    with pytest.raises(ValueError):
        krylov_basis(B, (1, 0, 0))


@given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
def test_rational_arithmetic_cross_multiplication(a, b, c, d):
    # a/b as plain Fractions against cross-multiplied integers
    lhs = a + c
    assert lhs.numerator * a.denominator * c.denominator == \
        (a.numerator * c.denominator + c.numerator * a.denominator) \
        * lhs.denominator
    if b != 0:
        q = a / b
        assert q * b == a
    assert (a * d) * c == a * (d * c)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_arithmetic(x, y):
    g5 = GF(5)
    a, b = g5(x), g5(y)
    assert (a + b).r == (x + y) % 5
    assert (a * b).r == (x * y) % 5
    if b.r:
        assert (a / b) * b == a


def test_gaussian_elimination_det_and_inverse():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 4)
        M = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(n)]
                        for _ in range(n)])
        if M.det() == 0:
            continue
        assert M * M.inverse() == Matrix.identity(QQ, n)
        b = tuple(F(rng.randint(-5, 5)) for _ in range(n))
        assert M.apply(M.solve(b)) == b


def test_inverse_refuses_a_singular_matrix():
    "It returned [[0, 1], [1, -1]]: the augmented rows always reach rank n."
    for rows in ([[1, 1], [1, 1]], [[0]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        with pytest.raises(ZeroDivisionError):
            Matrix(QQ, rows).inverse()
    with pytest.raises(ZeroDivisionError):
        Matrix(GF(3), [[1, 2], [2, 1]]).inverse()


def test_solve_refuses_a_singular_matrix():
    "It returned (2, -1), which does not solve the system."
    with pytest.raises(ZeroDivisionError):
        Matrix(QQ, [[1, 1], [1, 1]]).solve([1, 2])


def test_sum_and_difference_reject_mismatched_shapes():
    "A 2x2 plus a 3x3 returned a 2x2: zip truncated the rows."
    A = Matrix(QQ, [[1, 2], [3, 4]])
    for B in (Matrix.identity(QQ, 3), Matrix(QQ, [[1, 2, 3], [4, 5, 6]])):
        with pytest.raises(ValueError):
            A + B
        with pytest.raises(ValueError):
            B - A
    assert A + A == A.scale(2) and A - A == Matrix.zeros(QQ, 2, 2)


def test_polynomial_euclid():
    t = Polynomial.x(QQ)
    f = (t - 1) * (t - 2) * (t - 2)
    g = (t - 2) * (t + 3)
    assert f.gcd(g).coeffs == (F(-2), F(1))
    gg, s, u = f.xgcd(g)
    assert (s * f + u * g).coeffs == gg.coeffs
    q, r = divmod(f, g)
    assert q * g + r == f


def test_serialization_round_trip():
    assert scalar_to_str(F(3, 4)) == "3/4"
    assert scalar_to_str(F(5)) == "5"
    assert parse_rational("3/4") == F(3, 4)
    M = Matrix(QQ, [[F(1, 2), 3], [0, F(-7, 5)]])
    lists = [["1/2", "3"], ["0", "-7/5"]]
    assert matrix_from_lists(QQ, lists) == M
    assert [[scalar_to_str(x) for x in row] for row in M.rows] == lists
