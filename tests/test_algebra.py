"""Scalar, polynomial, gcd, factorization, and root-isolation tests."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import canonforms.algebra as algebra
from canonforms.algebra import (
    GF,
    BinaryForm,
    DomainError,
    HomogeneousPoint,
    Poly,
    QQ,
    RootInterval,
    VerificationError,
    _MAX_MODULUS,
    _is_prime,
    factor,
    isolate_real_roots,
    poly_gcd,
    rational_roots,
    squarefree_decompose,
    squarefree_part,
    sturm_count,
)

from conftest import derivative, is_irreducible, rational_roots_by_divisors

X = Poly.x(QQ)


def lin(c, dom=QQ):
    return Poly.linear(dom, c)


# ---------------------------------------------------------------------------
# scalars and domains


def test_gf_requires_prime_modulus():
    with pytest.raises(DomainError):
        GF(6)
    assert GF(7).characteristic == 7


def _prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_primality_agrees_with_trial_division_below_10000():
    assert [p for p in range(10 ** 4) if _is_prime(p)] == \
        [p for p in range(10 ** 4) if _prime_by_trial_division(p)]


@pytest.mark.parametrize("n", [561, 41041, 2047, 3215031751,
                               3825123056546413051])
def test_pseudoprimes_are_refused(n):
    # Carmichael numbers and strong pseudoprimes to the smaller bases
    assert not _is_prime(n)
    with pytest.raises(DomainError, match="not prime"):
        GF(n)


def test_large_prime_moduli():
    assert GF(2 ** 61 - 1).characteristic == 2 ** 61 - 1
    assert _is_prime(2 ** 31 - 1) and not _is_prime((2 ** 31 - 1) * (2 ** 61 - 1))
    for n in (_MAX_MODULUS, 2 ** 89 - 1):
        with pytest.raises(DomainError, match=f"supported limit {_MAX_MODULUS}"):
            GF(n)


def test_mixed_gf_moduli_rejected():
    a = GF(3).coerce(2)
    b = GF(5).coerce(2)
    with pytest.raises(DomainError):
        a + b


def test_gf_arithmetic_basics():
    F5 = GF(5)
    a = F5.coerce(3)
    assert a + 4 == 2
    assert a * a == 4
    assert a / 2 == 4          # 3 * inverse(2) = 3 * 3 = 9 = 4
    assert -a == 2
    assert a ** 4 == 1


# ---------------------------------------------------------------------------
# gcd


def test_gcd_shared_factor_by_construction():
    f = lin(1) ** 2 * lin(2)
    g = lin(1) * lin(3)
    assert poly_gcd(f, g) == lin(1)


def test_gcd_zero_identity():
    f = 3 * lin(1) ** 2 * lin(2)
    assert poly_gcd(f, Poly.zero(QQ)) == f.monic()
    assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)).is_zero()


def test_gcd_gf2_square_identity():
    # over GF(2): x^2 + 1 = (x + 1)^2, checked by expansion first
    F2 = GF(2)
    y = Poly.x(F2)
    assert (y + 1) * (y + 1) == y ** 2 + 1
    assert poly_gcd(y ** 2 + 1, y + 1) == y + 1


def test_gcd_divides_both_and_is_greatest():
    rng = random.Random(11)
    pool = [lin(0), lin(1), lin(-2), X ** 2 + 1, X ** 2 - 2, lin(Fraction(1, 2))]
    for _ in range(150):
        common = pool[rng.randrange(len(pool))]
        f = common * pool[rng.randrange(len(pool))]
        g = common * pool[rng.randrange(len(pool))]
        d = poly_gcd(f, g)
        assert (f % d).is_zero() and (g % d).is_zero()
        assert (d % common.monic()).is_zero()   # any common divisor divides d


def test_gcd_domain_mismatch_rejected():
    with pytest.raises(DomainError):
        poly_gcd(X, Poly.x(GF(2)))


# ---------------------------------------------------------------------------
# square-free decomposition


def test_squarefree_multiplicity_ladder():
    f = lin(1) ** 2 * lin(2) ** 3 * lin(3)
    assert squarefree_decompose(f) == [(lin(3), 1), (lin(1), 2), (lin(2), 3)]


def test_squarefree_already_squarefree():
    assert squarefree_decompose(lin(5)) == [(lin(5), 1)]


def test_squarefree_gf3_product_of_all_linears():
    F3 = GF(3)
    z = Poly.x(F3)
    f = z ** 3 - z    # x(x-1)(x+1) over GF(3)
    assert poly_gcd(f, derivative(f)).degree == 0   # square-freeness oracle
    assert squarefree_decompose(f) == [(f.monic(), 1)]


def test_squarefree_char_p_power():
    F3 = GF(3)
    z = Poly.x(F3)
    f = (z + 1) ** 3 * (z + 2) ** 2
    parts = squarefree_decompose(f)
    assert parts == [((z + 2).monic(), 2), ((z + 1).monic(), 3)]
    prod = Poly.one(F3)
    for g, m in parts:
        prod = prod * g ** m
    assert prod == f.monic()


def test_squarefree_parts_pairwise_coprime():
    rng = random.Random(5)
    for _ in range(60):
        f = Poly.one(QQ)
        for c in range(-2, 3):
            f = f * lin(c) ** rng.randint(0, 3)
        if f.degree < 1:
            continue
        parts = squarefree_decompose(f)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i][0], parts[j][0]).degree == 0


def test_squarefree_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_decompose(Poly.zero(QQ))


# ---------------------------------------------------------------------------
# factorization


def test_factor_cubic_times_linear():
    f = lin(3) ** 3 * lin(2)
    terms = [(t.base, t.exponent) for t in factor(f)]
    assert terms == [(lin(2), 1), (lin(3), 3)]


def test_factor_gf2_irreducible_quadratic():
    F2 = GF(2)
    y = Poly.x(F2)
    f = y ** 2 + y + 1
    # no root in GF(2) and degree 2 force irreducibility
    assert f(0) != 0 and f(1) != 0
    terms = factor(f)
    assert len(terms) == 1 and terms[0].base == f and terms[0].exponent == 1
    assert is_irreducible(terms[0].base)


def test_factor_difference_of_squares():
    terms = [(t.base, t.exponent) for t in factor(X ** 2 - 1)]
    assert terms == [(lin(-1), 1), (lin(1), 1)]


def test_factor_nonmonic_keeps_product():
    f = 6 * X ** 2 - 5 * X + 1
    terms = factor(f)
    prod = Poly.constant(QQ, f.leading())
    for t in terms:
        prod = prod * t.base ** t.exponent
    assert prod == f


def test_factor_irreducible_quartic_over_q():
    f = X ** 4 + 1       # irreducible over Q
    terms = factor(f)
    assert [(t.base, t.exponent) for t in terms] == [(f, 1)]
    assert is_irreducible(terms[0].base)


def test_factor_quartic_into_quadratics():
    f = (X ** 2 + 1) * (X ** 2 - 2)
    terms = [(t.base, t.exponent) for t in factor(f)]
    assert terms == [(X ** 2 + 1, 1), (X ** 2 - 2, 1)]


def test_factor_degree_cap_reports_unsplit():
    # product of two irreducible quintics, once refused above degree 8
    f = (X ** 5 - X - 1) * (X ** 5 - X - 2)
    terms = [(t.base, t.exponent) for t in factor(f)]
    assert terms == [(X ** 5 - X - 1, 1), (X ** 5 - X - 2, 1)]
    assert all(is_irreducible(base) for base, _ in terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_roundtrip_randomized_gf(p):
    rng = random.Random(100 + p)
    F = GF(p)
    y = Poly.x(F)
    for _ in range(1000):
        f = Poly.constant(F, rng.randrange(1, p))
        for _ in range(rng.randint(1, 3)):
            g = Poly(F, [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1])
            f = f * g
        if f.degree < 1:
            continue
        lead = f.leading()
        prod = Poly.constant(F, lead)
        for t in factor(f):
            assert is_irreducible(t.base)
            prod = prod * t.base ** t.exponent
        assert prod == f


def test_factor_roundtrip_randomized_q():
    rng = random.Random(200)
    quads = [X ** 2 + 1, X ** 2 - 2, X ** 2 + X + 1]
    for _ in range(1000):
        f = Poly.constant(QQ, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 3)):
            f = f * lin(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        if rng.random() < 0.25:
            f = f * quads[rng.randrange(3)]
        prod = Poly.constant(QQ, f.leading())
        for t in factor(f):
            assert is_irreducible(t.base)
            prod = prod * t.base ** t.exponent
        assert prod == f


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(Poly.zero(QQ))


# ---------------------------------------------------------------------------
# rational roots


def test_rational_roots_multiplicity_ladder():
    f = lin(1) ** 2 * lin(2) ** 3 * lin(3)
    assert rational_roots(f) == [(Fraction(1), 2), (Fraction(2), 3), (Fraction(3), 1)]


def test_rational_roots_irrational_quadratic():
    assert rational_roots(X ** 2 - 2) == []


def test_rational_roots_quadratic_formula_oracle():
    f = 6 * X ** 2 - 5 * X + 1
    # quadratic formula: (5 +- sqrt(25 - 24)) / 12 = 1/2, 1/3
    disc = Fraction(5) ** 2 - 4 * 6 * 1
    assert disc == 1
    r1 = (5 + 1) / Fraction(12)
    r2 = (5 - 1) / Fraction(12)
    assert sorted([r1, r2]) == [Fraction(1, 3), Fraction(1, 2)]
    assert rational_roots(f) == [(Fraction(1, 3), 1), (Fraction(1, 2), 1)]


def test_rational_roots_at_zero():
    f = X ** 2 * lin(Fraction(-1, 3))
    assert rational_roots(f) == [(Fraction(-1, 3), 1), (Fraction(0), 2)]


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=7))
def test_rational_roots_match_divisor_enumeration(coeffs):
    f = Poly(QQ, coeffs)
    if f.is_zero():
        return
    assert rational_roots(f) == rational_roots_by_divisors(f)


@given(roots=st.dictionaries(st.fractions(min_value=-20, max_value=20,
                                          max_denominator=9),
                             st.integers(1, 3), max_size=4),
       squares=st.lists(st.integers(-12, 12).filter(
           lambda d: d < 0 or math.isqrt(d) ** 2 != d), max_size=2),
       lead=st.integers(1, 7))
def test_rational_roots_of_constructed_products(roots, squares, lead):
    # rational linear factors with multiplicities times irreducible x^2 - d
    f = Poly.constant(QQ, lead)
    for r, m in roots.items():
        f = f * lin(r) ** m
    for d in squares:
        f = f * (X ** 2 - d)
    assert rational_roots(f) == sorted(roots.items())


def test_rational_roots_need_a_rational_polynomial():
    with pytest.raises(DomainError):
        rational_roots(Poly.x(GF(5)))
    with pytest.raises(DomainError):
        isolate_real_roots(Poly.x(GF(5)))


# ---------------------------------------------------------------------------
# Sturm counting and isolation


def test_sturm_cubic_all_roots():
    s = -X * (3 - X) * (1 - X)      # roots 0, 1, 3
    assert sturm_count(s) == 3


def test_sturm_no_real_roots():
    assert sturm_count(X ** 2 + 1) == 0


def test_sturm_multiplicity_ignored():
    assert sturm_count(lin(2) ** 4, 0, 5) == 1


def test_sturm_half_open_endpoints():
    f = lin(0) * lin(1)
    assert sturm_count(f, 0, 1) == 1      # (0, 1] holds only the root 1
    assert sturm_count(f, -1, 0) == 1     # (-1, 0] holds only the root 0
    assert sturm_count(f, -1, 1) == 2


def test_sturm_partition_additivity():
    rng = random.Random(17)
    f = lin(-2) * lin(0) * lin(Fraction(3, 2)) * (X ** 2 - 3)
    for _ in range(40):
        cuts = {Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                for _ in range(3)}
        lo, hi = Fraction(-10), Fraction(10)
        pts = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
        total = sum(sturm_count(f, a, b) for a, b in zip(pts, pts[1:]))
        assert total == sturm_count(f, lo, hi)


def test_isolate_sqrt2():
    ivs = isolate_real_roots(X ** 2 - 2)
    assert len(ivs) == 2
    f = X ** 2 - 2
    for iv in ivs:
        assert not iv.is_point
        assert sturm_count(f, iv.lo, iv.hi) == 1
        # bisection-style sign oracle at the closed endpoints
        assert f(iv.lo) * f(iv.hi) < 0
    assert ivs[0].hi < ivs[1].lo


def test_isolate_exact_point():
    ivs = isolate_real_roots(lin(3))
    assert len(ivs) == 1 and ivs[0].is_point and ivs[0].lo == 3


def test_isolate_cubic_rational_points():
    s = -X * (3 - X) * (1 - X)
    ivs = isolate_real_roots(s)
    assert [(iv.lo, iv.hi) for iv in ivs] == [(0, 0), (1, 1), (3, 3)]


def test_isolate_mixed_rational_irrational():
    f = lin(1) * (X ** 2 - 2)
    ivs = isolate_real_roots(f)
    assert len(ivs) == 3
    points = [iv for iv in ivs if iv.is_point]
    assert [p.lo for p in points] == [1]
    for iv in ivs:
        assert sturm_count(f, iv.lo - Fraction(1, 10 ** 6) if iv.is_point else iv.lo,
                           iv.hi) >= 1
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi < b.lo


def test_overlapping_root_intervals_raise(monkeypatch):
    # an isolating interval that covers the rational root 1
    monkeypatch.setattr(algebra, "_isolate",
                        lambda rest, chain, blocked: [RootInterval(Fraction(0), Fraction(2))])
    with pytest.raises(VerificationError, match="overlap"):
        isolate_real_roots(lin(1) * (X ** 2 - 2))


# ---------------------------------------------------------------------------
# homogeneous points and binary forms


@given(a=st.integers(-30, 30), b=st.integers(-30, 30), t=st.integers(-9, 9))
def test_point_normalization_scale_invariant(a, b, t):
    if (a == 0 and b == 0) or t == 0:
        return
    p1 = HomogeneousPoint.of(QQ, a, b)
    p2 = HomogeneousPoint.of(QQ, t * a, t * b)
    assert p1 == p2
    renorm = HomogeneousPoint.of(QQ, p1.a, p1.b)
    assert renorm == p1        # idempotent


def test_point_at_infinity():
    p = HomogeneousPoint.of(QQ, 7, 0)
    assert p.is_infinity and p == HomogeneousPoint.infinity(QQ)
    with pytest.raises(ValueError):
        HomogeneousPoint.of(QQ, 0, 0)


def test_point_keeps_its_field_outside_equality_and_repr():
    for dom in (QQ, GF(7)):
        for p in (HomogeneousPoint.of(dom, 3, 2), HomogeneousPoint.infinity(dom)):
            assert p.domain == dom
            assert p == HomogeneousPoint(p.a, p.b, None)
            assert hash(p) == hash(HomogeneousPoint(p.a, p.b, None))
    assert repr(HomogeneousPoint.of(QQ, 3, 2)) == (
        "HomogeneousPoint(a=Fraction(3, 2), b=Fraction(1, 1))")


def test_binary_form_evaluation_and_factoring():
    # (u - v)^2 (2u + v)
    b = (BinaryForm.linear_power(QQ, 1, -1, 2)
         * BinaryForm.linear_power(QQ, 2, 1, 1))
    assert b.d == 3
    assert b.evaluate(1, 1) == 0
    const, factors = b.factor_linear()
    as_points = {(str(base.a), e) for base, e in factors}
    assert as_points == {("1", 2), ("-1/2", 1)}


def test_binary_form_zero_and_infinity_content():
    # u^2 * v = zero at infinity with multiplicity 1
    b = BinaryForm(QQ, 3, [0, 0, 1, 0])   # u^2 v
    const, factors = b.factor_linear()
    kinds = {(base.is_infinity, e) for base, e in factors}
    assert (True, 1) in kinds
    assert (False, 2) in kinds


# ---------------------------------------------------------------------------
# randomized algebraic laws


small_rationals = st.builds(Fraction, st.integers(-9, 9),
                            st.integers(1, 6))
small_polys = st.builds(lambda cs: Poly(QQ, cs),
                        st.lists(small_rationals, max_size=5))


@given(f=small_polys, g=small_polys, h=small_polys)
def test_poly_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f + (g + h) == (f + g) + h
    assert f - f == Poly.zero(QQ)


@given(f=small_polys, g=small_polys)
def test_poly_division_identity(f, g):
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@given(f=small_polys, g=small_polys)
def test_gcd_symmetric_and_divides(f, g):
    d = poly_gcd(f, g)
    assert d == poly_gcd(g, f)
    if not d.is_zero():
        assert (f % d).is_zero() and (g % d).is_zero()
