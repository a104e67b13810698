"""Smith reduction, gcd-of-minors oracle, and invariant-ledger tests."""

import random

import pytest

from canonforms.algebra import GF, DomainError, Poly, QQ, ZZ, factor
from canonforms.canonical import companion
from canonforms.matrix import Mat, PolynomialRing, ShapeError, det, mat_inverse
from canonforms.smith import (
    char_matrix,
    divisor_data,
    elementary_divisors_from_chain,
    gcd_minors_chain,
    smith_diagonal,
    smith_form,
)

from conftest import (
    J6_CHAIN3,
    J6_CHAIN21,
    J6_SEMISIMPLE,
    chain3,
    is_irreducible,
    jordan6,
    rand_matrix,
    rand_unimodular,
)

X = Poly.x(QQ)


def lin(c, dom=QQ):
    return Poly.linear(dom, c)


def assert_smith_contract(m):
    u, s, v = smith_form(m)
    assert u * m * v == s
    if isinstance(m.domain, PolynomialRing):
        du, dv = det(u), det(v)
        assert du.degree == 0 and not du.is_zero()
        assert dv.degree == 0 and not dv.is_zero()
        diag = [s.entries[k][k] for k in range(min(s.rows, s.cols))]
        for d in diag:
            assert d.is_zero() or d.leading() == m.domain.base.one
        for a, b in zip(diag, diag[1:]):
            if not a.is_zero() and not b.is_zero():
                assert (b % a).is_zero()
    else:
        assert det(u) in (1, -1) and det(v) in (1, -1)
        diag = [s.entries[k][k] for k in range(min(s.rows, s.cols))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
    return u, s, v


def test_smith_scalar_characteristic_matrix():
    m = char_matrix(Mat.identity(QQ, 3))     # xI - I
    _, s, _ = assert_smith_contract(m)
    assert smith_diagonal(m) == [lin(1)] * 3


def test_smith_integer_example():
    m = Mat(ZZ, [[2, 4], [6, 8]])
    # oracle: D_1 = gcd of entries = 2, D_2 = |det| = |16 - 24| = 8
    assert det(m) == -8
    _, s, _ = assert_smith_contract(m)
    assert [s[0, 0], s[1, 1]] == [2, 4]
    assert gcd_minors_chain(m) == [2, 8]


def test_smith_of_companion_characteristic_matrix():
    f = X ** 2 + 3 * X + 5
    c = companion(f)
    diag = smith_diagonal(char_matrix(c))
    assert diag == [Poly.one(QQ), f]


def test_smith_rectangular_and_rank_deficient():
    m = Mat(ZZ, [[1, 2, 3], [2, 4, 6]])
    _, s, _ = assert_smith_contract(m)
    assert [s[0, 0], s[1, 1]] == [1, 0]
    mq = char_matrix(Mat(QQ, [[0, 0], [0, 0]]))   # xI: diag(x, x)
    _, s2, _ = assert_smith_contract(mq)
    assert smith_diagonal(mq) == [Poly.x(QQ), Poly.x(QQ)]


@pytest.mark.parametrize("dom", [ZZ, None])
def test_smith_randomized_contract(dom):
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        if dom is ZZ:
            m = Mat(ZZ, [[rng.randint(-6, 6) for _ in range(cols)]
                         for _ in range(rows)])
        else:
            ring = PolynomialRing(GF(3))
            m = Mat(ring, [[Poly(GF(3), [rng.randrange(3), rng.randrange(3)])
                            for _ in range(cols)] for _ in range(rows)])
        assert_smith_contract(m)


def _random_smith_input(rng, dom, rows, cols, rank):
    """A rows x cols matrix over Z or GF(3)[x] of rank at most ``rank``."""
    if dom is ZZ:
        def entry():
            return rng.randint(-6, 6)
    else:
        def entry():
            return Poly(GF(3), [rng.randrange(3) for _ in range(rng.randint(0, 3))])
    left = Mat(dom, [[entry() for _ in range(rank)] for _ in range(rows)])
    right = Mat(dom, [[entry() for _ in range(cols)] for _ in range(rank)])
    return left * right


@pytest.mark.parametrize("dom", [ZZ, PolynomialRing(GF(3))], ids=["Z", "GF3[x]"])
def test_smith_diagonal_equals_the_diagonal_of_smith_form(dom):
    rng = random.Random(29)
    ranks = set()
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_smith_input(rng, dom, rows, cols, rng.randint(1, min(rows, cols)))
        _, s, _ = smith_form(m)
        diag = [s.entries[k][k] for k in range(min(rows, cols))]
        assert smith_diagonal(m) == diag
        ranks.add((rows == cols, sum(1 for d in diag if d) < min(rows, cols)))
    # square and rectangular inputs, of full and of deficient rank
    assert ranks == {(True, True), (True, False), (False, True), (False, False)}


# U, S and V over Z as the reduction first recorded them: a 3 x 3 of full
# rank, a 3 x 4 of rank 2 and a 4 x 3 of rank 3 (the last two normalize a
# negative pivot)
_INTEGER_SMITH_GOLDEN = [
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
     [[1, 0, 0], [3, 1, 0], [1, 2, 1]],
     [[2, 0, 0], [0, 6, 0], [0, 0, 12]],
     [[1, 0, -2], [0, -1, 4], [0, 1, -3]]),
    ([[1, 2, 3, 4], [2, 4, 6, 8], [3, 5, 7, 9]],
     [[1, 0, 0], [3, 0, -1], [-2, 1, 0]],
     [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
     [[1, -2, 1, 2], [0, 1, -2, -3], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ([[0, -3, 6], [4, 0, -2], [7, 5, 1], [-2, 8, 3]],
     [[0, 0, 1, 0], [0, 0, 3, -1], [17, 76, -34, 28], [104, 465, -216, 174]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
     [[0, -3, 7], [0, 10, -23], [1, -29, 66]]),
]


@pytest.mark.parametrize("m,u,s,v", _INTEGER_SMITH_GOLDEN, ids=["3x3", "3x4", "4x3"])
def test_smith_form_integer_transforms_are_pinned(m, u, s, v):
    got = smith_form(Mat(ZZ, m))
    assert [[list(row) for row in x.entries] for x in got] == [u, s, v]


def test_gcd_minors_identity():
    m = char_matrix(Mat(QQ, [[0]]))
    assert gcd_minors_chain(m) == [Poly.x(QQ)]
    ident = Mat(ZZ, [[1, 0], [0, 1]])
    assert gcd_minors_chain(ident) == [1, 1]


def test_gcd_minors_vanishing_orders():
    # rank-1 integer matrix: all 2x2 minors vanish, D_2 = 0
    m = Mat(ZZ, [[2, 4], [1, 2]])
    assert gcd_minors_chain(m) == [1, 0]


def test_smith_of_zero_matrix():
    z = Mat(ZZ, [[0, 0], [0, 0]])
    u, s, v = smith_form(z)
    assert s == z
    assert u == Mat.identity(ZZ, 2) and v == Mat.identity(ZZ, 2)


def test_gcd_minors_cap_enforced():
    m = Mat(ZZ, [[1] * 6 for _ in range(6)])
    with pytest.raises(ShapeError):
        gcd_minors_chain(m)
    assert gcd_minors_chain(m, cap=6)[0] == 1


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(3)])
def test_gcd_minors_oracle_vs_smith_chain(dom):
    # Kronecker-definition / elimination cross-check, sizes up to 5
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randint(1, 5)
        a = rand_matrix(dom, n, rng, lo=-3, hi=3)
        xm = char_matrix(a)
        oracle = gcd_minors_chain(xm, cap=5)
        acc = Poly.one(dom)
        products = []
        for d in smith_diagonal(xm):
            acc = acc * d
            products.append(acc)
        assert oracle == products


def test_gcd_minors_oracle_vs_smith_chain_exhaustive_gf2_2x2():
    F2 = GF(2)
    for bits in range(16):
        a = Mat(F2, [[(bits >> 0) & 1, (bits >> 1) & 1],
                     [(bits >> 2) & 1, (bits >> 3) & 1]])
        xm = char_matrix(a)
        oracle = gcd_minors_chain(xm)
        acc = Poly.one(F2)
        products = []
        for d in smith_diagonal(xm):
            acc = acc * d
            products.append(acc)
        assert oracle == products


def test_chain_to_elementary_divisors_exponent_differences():
    # successive-minor data: D_8 = (s-c3), D_9 = (s-c1)(s-c2)(s-c3)^3,
    # D_10 = (s-c1)^3 (s-c2)^2 (s-c3)^5
    c1, c2, c3 = lin(1), lin(2), lin(3)
    chain = [Poly.one(QQ)] * 7 + [c3, c1 * c2 * c3 ** 3, c1 ** 3 * c2 ** 2 * c3 ** 5]
    divisors = elementary_divisors_from_chain(chain)
    expected = sorted([(lin(1), 2), (lin(1), 1), (lin(2), 1), (lin(2), 1),
                       (lin(3), 2), (lin(3), 2), (lin(3), 1)],
                      key=lambda t: (t[0].sort_key(), -t[1]))
    assert divisors == expected
    # exponent bookkeeping in the classical letters: e = l - l', ...
    assert [e for base, e in divisors if base == lin(1)] == [2, 1]
    assert [e for base, e in divisors if base == lin(2)] == [1, 1]
    assert [e for base, e in divisors if base == lin(3)] == [2, 2, 1]


def test_chain_to_elementary_divisors_simple_cases():
    chain = [lin(1), lin(1) ** 2]
    assert elementary_divisors_from_chain(chain) == [(lin(1), 1), (lin(1), 1)]
    f = lin(0) * lin(1) * lin(-1)
    got = elementary_divisors_from_chain([Poly.one(QQ), f])
    assert got == sorted([(b.base, 1) for b in factor(f)],
                         key=lambda t: (t[0].sort_key(), -t[1]))


def test_chain_divisibility_violation_rejected():
    with pytest.raises(ValueError):
        elementary_divisors_from_chain([lin(1) ** 2, lin(1)])
    with pytest.raises(ValueError):
        elementary_divisors_from_chain([lin(2), lin(1) ** 2])


def test_integer_chain_divisibility_violation_rejected():
    with pytest.raises(ValueError, match="divisibility"):
        elementary_divisors_from_chain([4, 6])


def test_chain_is_read_as_a_gcd_chain():
    # J_1(1) + J_2(1): gcd chain [1, (x-1), (x-1)^3], invariant factors
    # [1, (x-1), (x-1)^2]; only the gcd chain gives the right divisors
    gcd_chain = [Poly.one(QQ), lin(1), lin(1) ** 3]
    assert gcd_minors_chain(char_matrix(Mat(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]))) \
        == gcd_chain
    assert elementary_divisors_from_chain(gcd_chain) == [(lin(1), 2), (lin(1), 1)]
    assert elementary_divisors_from_chain([lin(1), lin(1) ** 2]) == [(lin(1), 1), (lin(1), 1)]


def test_chain_integer_variant():
    # exponents sort descending within one prime
    assert elementary_divisors_from_chain([2, 8]) == [(2, 2), (2, 1)]


def test_integer_chain_entries_are_bounded_by_10_to_the_12():
    # at the bound: 999999999989 is the largest prime below 10^12, the
    # slowest case for trial division
    assert elementary_divisors_from_chain([1, 10 ** 12]) == [(2, 12), (5, 12)]
    assert elementary_divisors_from_chain([-999999999989]) == [(999999999989, 1)]
    # above it: refused at once, also for a product of two 10-digit primes
    for entry in (10 ** 12 + 1, -(10 ** 12 + 1), (10 ** 9 + 7) * (10 ** 9 + 9)):
        with pytest.raises(DomainError, match="10\\^12"):
            elementary_divisors_from_chain([1, entry])


def test_divisor_data_jordan_layouts():
    dd = divisor_data(jordan6(J6_CHAIN3))
    assert list(dd.elementary_divisors) == [
        (lin(1), 1), (lin(1), 1), (lin(2), 3), (lin(3), 1)]
    dd2 = divisor_data(jordan6(J6_SEMISIMPLE))
    assert list(dd2.elementary_divisors) == [
        (lin(1), 1), (lin(1), 1), (lin(2), 1), (lin(2), 1), (lin(2), 1), (lin(3), 1)]
    dd3 = divisor_data(jordan6(J6_CHAIN21))
    assert list(dd3.elementary_divisors) == [
        (lin(1), 1), (lin(1), 1), (lin(2), 2), (lin(2), 1), (lin(3), 1)]


def test_divisor_data_identity():
    dd = divisor_data(Mat.identity(QQ, 3))
    assert list(dd.invariant_factors) == [lin(1)] * 3
    assert list(dd.elementary_divisors) == [(lin(1), 1)] * 3


def test_divisor_data_chain_matrix_nonderogatory():
    dd = divisor_data(chain3())
    assert list(dd.elementary_divisors) == [(lin(0), 1), (lin(1), 1), (lin(3), 1)]
    assert dd.invariant_factors[0] == Poly.one(QQ)
    assert dd.invariant_factors[1] == Poly.one(QQ)
    assert dd.invariant_factors[2] == X * (X - 1) * (X - 3)
    assert dd.rank == 3
    assert all(is_irreducible(b) for b, _ in dd.elementary_divisors)


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(3)])
def test_divisor_data_conjugation_invariance(dom):
    rng = random.Random(57)
    for _ in range(200):
        n = rng.randint(2, 4)
        a = rand_matrix(dom, n, rng, lo=-2, hi=2)
        t = rand_unimodular(dom, n, rng)
        conj = mat_inverse(_to_field(t)) * _to_field(a) * _to_field(t) \
            if dom is QQ else mat_inverse(t) * a * t
        assert divisor_data(_to_field(a) if dom is QQ else a).elementary_divisors \
            == divisor_data(conj).elementary_divisors


def _to_field(m):
    return m


def test_divisibility_of_diagonal_by_exact_division():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = rand_matrix(GF(3), n, rng)
        diag = smith_diagonal(char_matrix(a))
        for d1, d2 in zip(diag, diag[1:]):
            q, r = divmod(d2, d1)
            assert r.is_zero() and q * d1 == d2
