"""Exact matrix arithmetic on integer rows against the element-by-element
oracles of ``conftest``.

``rref`` runs fraction-free Gauss-Jordan over Q and Gauss-Jordan on residues
over GF(p), and ``Mat.__mul__`` multiplies integer matrices over Q, Z and
GF(p); both map back to scalars once.  Each must give exactly what one scalar
operation at a time gives: the same reduced echelon form, pivots, kernel
basis, inverse and product, on zero, rank-deficient, wide, tall, 1 x n and
n x 1 matrices, with non-trivial denominators and negative pivots over Q and
residues up to the modulus 2^61 - 1.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonforms.algebra import GF, QQ, ZZ, scalar_is_zero
from canonforms.matrix import Mat, mat_inverse, nullspace, rref
from conftest import product_by_elements, rref_by_elements

FIELDS = {"Q": QQ, "GF2": GF(2), "GF101": GF(101), "GF(2^61-1)": GF(2 ** 61 - 1)}
RINGS = dict(FIELDS, Z=ZZ)

# (rows, cols, rank bound) for each shape class
SHAPES = {
    "zero": st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(0)),
    "rank_deficient": st.integers(2, 6).flatmap(lambda r: st.integers(2, 6).flatmap(
        lambda c: st.tuples(st.just(r), st.just(c), st.integers(1, min(r, c) - 1)))),
    "wide": st.integers(1, 4).flatmap(lambda r: st.tuples(
        st.just(r), st.integers(r + 1, 7), st.integers(0, r))),
    "tall": st.integers(1, 4).flatmap(lambda c: st.tuples(
        st.integers(c + 1, 7), st.just(c), st.integers(0, c))),
    "row": st.tuples(st.just(1), st.integers(1, 7), st.integers(0, 1)),
    "column": st.tuples(st.integers(1, 7), st.just(1), st.integers(0, 1)),
}


def entries(dom):
    """Scalars of dom: small and large, negative, and over Q with
    denominators up to 12; over GF(p) every residue, 0, 1 and p - 1."""
    if dom is QQ:
        return st.builds(Fraction, st.integers(-9, 9) | st.integers(-10 ** 20, 10 ** 20),
                         st.integers(1, 12))
    if dom is ZZ:
        return st.integers(-9, 9) | st.integers(-10 ** 20, 10 ** 20)
    p = dom.characteristic
    return (st.integers(0, p - 1) | st.sampled_from((0, 1, p - 1))).map(dom.coerce)


@st.composite
def matrices(draw, dom, shape):
    """A matrix of the shape class over dom whose rows are combinations,
    with coefficients in -3..3, of at most ``rank bound`` drawn rows."""
    r, c, k = draw(SHAPES[shape])
    base = [[draw(entries(dom)) for _ in range(c)] for _ in range(k)]
    rows = []
    for _ in range(r):
        coeffs = [dom.coerce(draw(st.integers(-3, 3))) for _ in range(k)]
        rows.append([sum((x * row[j] for x, row in zip(coeffs, base)), dom.zero)
                     for j in range(c)])
    return Mat(dom, rows)


def _column(v) -> list:
    return [[x] for x in v]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_rref_nullspace_and_inverse_match_the_element_oracle(field, shape):
    dom = FIELDS[field]

    @settings(max_examples=25, deadline=None)
    @given(matrices(dom, shape))
    def check(m):
        red, piv = rref(m)
        assert (red, piv) == rref_by_elements(m)
        assert all(type(e) is type(dom.zero) for row in red.entries for e in row)
        basis = nullspace(m)
        assert len(basis) == m.cols - len(piv)
        for fc, v in zip([c for c in range(m.cols) if c not in piv], basis):
            assert v[fc] == dom.one
            assert all(scalar_is_zero(x) for x in
                       product_by_elements(m, Mat(dom, _column(v))).col(0))
        if m.rows == m.cols == len(piv):
            n = m.rows
            aug = Mat(dom, [list(row) + [dom.one if i == j else dom.zero for j in range(n)]
                            for i, row in enumerate(m.entries)])
            assert mat_inverse(m) == rref_by_elements(aug)[0].submatrix(
                range(n), range(n, 2 * n))

    check()


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_product_matches_the_element_oracle(ring, shape):
    dom = RINGS[ring]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def check(data):
        a = data.draw(matrices(dom, shape))
        c = data.draw(st.integers(1, 6))
        b = Mat(dom, data.draw(st.lists(st.lists(entries(dom), min_size=c, max_size=c),
                                        min_size=a.cols, max_size=a.cols)))
        ab = a * b
        assert ab == product_by_elements(a, b)
        assert all(type(e) is type(dom.zero) for row in ab.entries for e in row)
        assert b.transpose() * a.transpose() == product_by_elements(b.transpose(), a.transpose())

    check()


def test_negative_pivots_and_denominators():
    # a negative first pivot (-1/2, cleared to -3), each row with its own
    # denominators, and a third row that is the sum of the other two
    m = Mat(QQ, [[Fraction(-1, 2), Fraction(1, 3), 1],
                 [Fraction(2, 5), Fraction(-7, 4), Fraction(1, 6)],
                 [Fraction(-1, 10), Fraction(-17, 12), Fraction(7, 6)]])
    red, piv = rref(m)
    assert piv == [0, 1]
    assert (red, piv) == rref_by_elements(m)
    assert red.entries[2] == (0, 0, 0)
    basis = nullspace(m)
    assert len(basis) == 1 and basis[0][2] == 1
    assert m * Mat(QQ, _column(basis[0])) == Mat.zero(QQ, 3, 1)
