"""Determinant, adjugate, nullspace, minors, and inverse tests."""

import itertools
import random
from fractions import Fraction

import pytest

from canonforms.algebra import GF, Poly, QQ, ZZ, DomainError, scalar_is_zero
from canonforms.matrix import (
    Mat,
    PolynomialRing,
    ShapeError,
    SingularMatrixError,
    det,
    k_minors,
    mat_inverse,
    nullspace,
    rref,
)
from conftest import (
    adjugate,
    chain3,
    det_cofactor,
    proportional,
    rand_matrix,
    rand_unimodular,
    unimodular_inverse,
)


def test_det_singular_chain_matrix():
    assert det(chain3()) == 0


def test_det_identity():
    for n in (1, 2, 5):
        assert det(Mat.identity(QQ, n)) == 1


def test_char_det_of_chain_matrix():
    # det(A - xI) = -x(3-x)(1-x) = -x^3 + 4x^2 - 3x
    a = chain3()
    ring = PolynomialRing(QQ)
    a_minus_x = Mat(ring, [[Poly(QQ, (a.entries[i][j], -1 if i == j else 0))
                            for j in range(3)] for i in range(3)])
    assert det(a_minus_x) == Poly(QQ, [0, -3, 4, -1])
    x = Poly.x(QQ)
    assert det(a_minus_x) == -x * (3 - x) * (1 - x)


def test_adjugate_entries_of_characteristic_matrix():
    # column 1 of adj(A - xI) carries the classical minor pattern
    a = chain3()
    ring = PolynomialRing(QQ)
    a_minus_x = Mat(ring, [[Poly(QQ, (a.entries[i][j], -1 if i == j else 0))
                            for j in range(3)] for i in range(3)])
    adj = adjugate(a_minus_x)
    x = Poly.x(QQ)
    assert adj[0, 0] == (1 - x) * (2 - x) - 1
    assert adj[1, 0] == (1 - x)          # transpose convention
    assert adj[2, 0] == Poly.constant(QQ, -1)
    # defining identity
    d = det(a_minus_x)
    prod = a_minus_x * adj
    n = 3
    for i in range(n):
        for j in range(n):
            assert prod[i, j] == (d if i == j else Poly.zero(QQ))


def test_adjugate_identity_matrix():
    for n in (1, 2, 4):
        assert adjugate(Mat.identity(QQ, n)) == Mat.identity(QQ, n)


@pytest.mark.parametrize("dom", [QQ, GF(3), ZZ, None])
def test_adjugate_defining_identity_randomized(dom):
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        if dom is None:
            ring = PolynomialRing(QQ)
            m = Mat(ring, [[Poly(QQ, [rng.randint(-2, 2), rng.randint(-1, 1)])
                            for _ in range(n)] for _ in range(n)])
        elif dom is ZZ:
            m = Mat(ZZ, [[rng.randint(-4, 4) for _ in range(n)]
                         for _ in range(n)])
        else:
            m = rand_matrix(dom, n, rng)
        adj = adjugate(m)
        d = det(m)
        prod = m * adj
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert prod[i, j] == d
                else:
                    assert scalar_is_zero(prod[i, j])


@pytest.mark.parametrize("dom", [QQ, GF(5)])
def test_det_multiplicative(dom):
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_matrix(dom, n, rng)
        b = rand_matrix(dom, n, rng)
        assert det(a * b) == det(a) * det(b)


def test_bareiss_equals_cofactor_exhaustive_gf2():
    F2 = GF(2)
    for n in (1, 2, 3):
        for bits in itertools.product(range(2), repeat=n * n):
            m = Mat(F2, [bits[i * n:(i + 1) * n] for i in range(n)])
            assert det(m) == det_cofactor(m)
    # n = 4: full exhaustive sweep
    n = 4
    mism = 0
    for code in range(1 << 16):
        bits = [(code >> k) & 1 for k in range(16)]
        m = Mat(F2, [bits[i * n:(i + 1) * n] for i in range(n)])
        if det(m) != det_cofactor(m):
            mism += 1
    assert mism == 0


def test_bareiss_equals_cofactor_randomized_q():
    rng = random.Random(9)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = Mat(QQ, [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(n)] for _ in range(n)])
        assert det(m) == det_cofactor(m)


def test_nullspace_eigenvectors_of_chain_matrix():
    a = chain3()
    expectations = {1: (1, 0, 1), 0: (1, 1, -1), 3: (1, -2, -1)}
    for ev, expect in expectations.items():
        w = a - Mat.identity(QQ, 3) * ev
        basis = nullspace(w)
        assert len(basis) == 1
        assert proportional(basis[0], tuple(Fraction(c) for c in expect))
        assert all(scalar_is_zero(sum(w.entries[i][j] * basis[0][j]
                                      for j in range(3)))
                   for i in range(3))


def test_nullspace_identity_empty():
    assert nullspace(Mat.identity(QQ, 3)) == []


def test_nullspace_dimension_counts():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_matrix(GF(3), n, rng)
        basis = nullspace(m)
        _, piv = rref(m)
        assert len(basis) == n - len(piv)
        for v in basis:
            out = [sum((m.entries[i][j] * v[j] for j in range(n)),
                       start=m.domain.zero) for i in range(n)]
            assert all(scalar_is_zero(c) for c in out)


def test_k_minors_of_identity():
    vals = [v for _, v in k_minors(Mat.identity(QQ, 3), 2)]
    assert sorted(vals) == [0, 0, 0, 0, 0, 0, 1, 1, 1]


def test_one_minors_are_entries():
    m = Mat(QQ, [[1, 2], [3, 4]])
    assert [v for _, v in k_minors(m, 1)] == [1, 2, 3, 4]


def test_two_minor_of_2x2():
    m = Mat(QQ, [[1, 2], [3, 4]])
    assert [v for _, v in k_minors(m, 2)] == [-2]


def test_k_minors_range_errors():
    m = Mat(QQ, [[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        list(k_minors(m, 0))
    with pytest.raises(ShapeError):
        list(k_minors(m, 3))


def test_inverse_identity_and_diagonal():
    assert mat_inverse(Mat.identity(QQ, 3)) == Mat.identity(QQ, 3)
    d = Mat(QQ, [[2, 0], [0, Fraction(1, 2)]])
    assert mat_inverse(d) == Mat(QQ, [[Fraction(1, 2), 0], [0, 2]])


def test_inverse_unimodular_integer_matrix():
    rng = random.Random(3)
    for _ in range(20):
        t = rand_unimodular(ZZ, 3, rng)
        assert det(t) == 1
        # adjugate/det oracle: the inverse of a det-1 integer matrix is its adjugate
        adj = adjugate(t)
        tq = t.map(Fraction, QQ)
        inv = mat_inverse(tq)
        assert inv == adj.map(Fraction, QQ)
        assert all(f.denominator == 1 for row in inv.entries for f in row)
        assert unimodular_inverse(t) == adj


def test_inverse_singular_reports_zero_det():
    with pytest.raises(SingularMatrixError) as exc:
        mat_inverse(Mat(QQ, [[1, 2], [2, 4]]))
    assert exc.value.determinant == 0


def test_domain_mismatch_rejected():
    with pytest.raises(DomainError):
        Mat(QQ, [[1]]) + Mat(GF(2), [[1]])


def test_shape_errors():
    with pytest.raises(ShapeError):
        det(Mat(QQ, [[1, 2]]))
    with pytest.raises(ShapeError):
        Mat(QQ, [[1], [2]]) * Mat(QQ, [[1], [2]])
