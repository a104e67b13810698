"""The integer coefficient-list kernel of ``factor``, ``squarefree_decompose``
and ``poly_gcd`` against the ``Poly``-level engine it replaced
(``conftest.factor_by_poly`` and its helpers), over Q and prime fields from
GF(2) to GF(2^61 - 1): constructed products with repeated factors, p-th
powers in characteristic p, and the characteristic polynomial of a seeded
dense 24x24 rational matrix.  Swinnerton-Dyer polynomials, which split into
factors of degree at most 2 modulo every prime, bound the cost of subset
recombination."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonforms import GF, QQ, Mat, Poly, factor, poly_gcd, squarefree_decompose
from canonforms.matrix import SingularMatrixError, mat_inverse
from canonforms.smith import _char_poly

from conftest import derivative, factor_by_poly, gcd_by_poly, squarefree_by_poly

FIELDS = [QQ, GF(2), GF(3), GF(101), GF(10007), GF(2 ** 61 - 1)]


def _agree(f):
    assert factor(f) == factor_by_poly(f)
    assert squarefree_decompose(f) == squarefree_by_poly(f)
    assert poly_gcd(f, derivative(f)) == gcd_by_poly(f, derivative(f))


@st.composite
def _base(draw, dom, max_degree):
    """A polynomial of degree 1 to max_degree over dom."""
    coeff = st.integers(-4, 4) if dom is QQ else st.integers(0, dom.characteristic - 1)
    cs = draw(st.lists(coeff, min_size=max_degree + 1, max_size=max_degree + 1))
    cs[draw(st.integers(1, max_degree))] = 1
    return Poly(dom, cs)


@st.composite
def _product(draw):
    """(dom, f, g) with f and g products of shared and own bases, each to a
    power of up to three, times a nonzero constant."""
    dom = draw(st.sampled_from(FIELDS))
    bases = draw(st.lists(_base(dom, 3), min_size=1, max_size=4))
    exps = draw(st.lists(st.integers(1, 3), min_size=len(bases), max_size=len(bases)))
    lead = (Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) if dom is QQ
            else draw(st.integers(1, dom.characteristic - 1)))
    f = Poly.constant(dom, lead)
    g = Poly.one(dom)
    for k, (b, e) in enumerate(zip(bases, exps)):
        f = f * b ** e
        if k % 2 == 0:
            g = g * b ** (4 - e)
    return dom, f, g


@settings(max_examples=150, deadline=None)
@given(case=_product())
def test_kernel_agrees_with_the_poly_engine_on_products(case):
    dom, f, g = case
    _agree(f)
    assert poly_gcd(f, g) == gcd_by_poly(f, g)
    assert poly_gcd(g, f) == gcd_by_poly(g, f)
    assert poly_gcd(f, Poly.zero(dom)) == gcd_by_poly(f, Poly.zero(dom))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_kernel_agrees_on_pth_powers(p, data):
    # g(x)^p has a zero derivative, and f mixes multiplicities that p
    # divides with ones it does not
    dom = GF(p)
    g = data.draw(_base(dom, 2))
    h = data.draw(_base(dom, 2))
    k = data.draw(st.integers(1, 2))
    for f in (g ** p, g ** (p * p) * h, g ** p * h ** (k * p + 1)):
        _agree(f)


def test_kernel_agrees_on_pth_powers_over_gf101():
    dom = GF(101)
    x = Poly.x(dom)
    _agree((x ** 2 + 3) ** 101)
    _agree((x + 5) ** 101 * (x ** 2 + 2) ** 2)


def _dense(n):
    """P^-1 Q for P, Q with entries in [-3, 3] drawn from random.Random(n)."""
    rng = random.Random(n)
    while True:
        p = Mat(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        q = Mat(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            return mat_inverse(p) * q
        except SingularMatrixError:
            continue


def test_kernel_agrees_on_a_dense_characteristic_polynomial():
    _agree(_char_poly(_dense(24)))
    chi = _char_poly(_dense(6))
    _agree(chi * chi.monic() ** 2)


def swinnerton_dyer(radicands):
    """The monic polynomial whose roots are all the sums of +-sqrt(a) over
    the radicands a: adjoining sqrt(a) to a root set of f, write
    f(x + y) = E(x) + y O(x) modulo y^2 = a; then
    f(x + sqrt(a)) f(x - sqrt(a)) = E^2 - a O^2."""
    f = Poly.x(QQ)
    for a in radicands:
        parts = [Poly.zero(QQ), Poly.zero(QQ)]
        for j in range(f.degree + 1):
            g = Poly(QQ, [f.coeff(k) * math.comb(k, j) for k in range(j, f.degree + 1)])
            parts[j % 2] = parts[j % 2] + g * a ** (j // 2)
        even, odd = parts
        f = even * even - odd * odd * a
    return f


def test_swinnerton_dyer_polynomials_come_back_irreducible():
    assert swinnerton_dyer([2, 3]) == Poly(QQ, [1, 0, -10, 0, 1])
    for radicands in ([2, 3], [2, 3, 5], [2, 3, 5, 7]):
        f = swinnerton_dyer(radicands)
        assert f.degree == 2 ** len(radicands)
        start = time.process_time()
        terms = factor(f)
        assert [(t.base, t.exponent) for t in terms] == [(f, 1)]
        assert time.process_time() - start < 5


@pytest.mark.parametrize("radicands", [[2, 3], [2, 3, 5]])
def test_swinnerton_dyer_products_split(radicands):
    f = swinnerton_dyer(radicands)
    g = swinnerton_dyer([2, 7])
    assert [(t.base, t.exponent) for t in factor(f * g * g)] == sorted(
        [(f, 1), (g, 2)], key=lambda t: t[0].sort_key())
