"""``det`` against the cofactor oracle over every coefficient domain.

``det`` expands exactly along rows and columns with at most one nonzero
entry and hands the rest to the integer Gauss-Jordan elimination of
``rref``: over Q, Z and GF(p) on the integer rows of the matrix, over F[x]
on each entry packed as its value at x = 2^K, with the determinant read
back digit by digit.  So the cases below reach each branch: zero lines, a
lone entry at every position (both signs of (-1)^(i+j), by row and by
column), permutation matrices of both parities, characteristic matrices of
Jordan matrices, Kronecker's chain-form pencils, and dense matrices whose
elimination needs a row swap.  Entries up to 10^12 in absolute value and
exact powers of two, over Z, Q and Z[x], put coefficients of the packed
determinant on the boundaries of its digits.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonforms import GF, QQ, ZZ, Mat, Poly, PolynomialRing, det, kronecker_elementary_form
from canonforms.algebra import scalar_is_zero
from canonforms.matrix import _linear_pencil
from canonforms.smith import char_matrix
from conftest import det_cofactor

DOMAINS = [ZZ, QQ, GF(2), GF(7), PolynomialRing(QQ), PolynomialRing(GF(7)),
           PolynomialRing(ZZ), PolynomialRing(GF(10007))]

_LARGE = st.one_of(st.integers(-10**12, 10**12),
                   st.builds(lambda j, sign: sign * 2 ** j,
                             st.integers(0, 40), st.sampled_from((1, -1))))


def _scalars(dom):
    if isinstance(dom, PolynomialRing):
        return st.lists(_scalars(dom.base), max_size=5).map(
            lambda cs: Poly(dom.base, cs))
    if dom is ZZ:
        return st.one_of(st.integers(-5, 5), _LARGE)
    if dom is QQ:
        return st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                         st.builds(Fraction, _LARGE, st.integers(1, 3)))
    return st.integers(0, dom.characteristic - 1).map(dom.coerce)


def _nonzero(dom):
    return _scalars(dom).filter(lambda e: not scalar_is_zero(dom.coerce(e)))


def _parity(perm) -> int:
    """(-1)^(number of inversions)."""
    inversions = sum(1 for i in range(len(perm)) for j in range(i)
                     if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


@st.composite
def _square(draw):
    """(domain, rows, expected determinant or None)."""
    dom = draw(st.sampled_from(DOMAINS))
    kind = draw(st.sampled_from(["sparse", "zero_line", "lone_entry",
                                 "permutation", "row_swap"]))
    # the cofactor oracle multiplies n! products of polynomials
    top = 5 if isinstance(dom, PolynomialRing) else 7
    n = draw(st.integers(3 if kind == "row_swap" else 1, top))
    zero = dom.zero
    if kind == "sparse":
        entry = st.one_of(st.just(zero), _nonzero(dom))
        return dom, [[draw(entry) for _ in range(n)] for _ in range(n)], None
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return dom, [[dom.one if j == perm[i] else zero for j in range(n)]
                     for i in range(n)], dom.one if _parity(perm) > 0 else -dom.one
    rows = [[draw(_nonzero(dom)) for _ in range(n)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    by_row = draw(st.booleans())
    if kind == "row_swap":
        # every line keeps two nonzero entries, so no expansion applies and
        # the zero pivot forces a row swap in the elimination
        rows[0][0] = zero
    else:
        for k in range(n):
            if kind == "zero_line" or k != (j if by_row else i):
                if by_row:
                    rows[i][k] = zero
                else:
                    rows[k][j] = zero
    return dom, rows, zero if kind == "zero_line" else None


@settings(max_examples=300, deadline=None)
@given(_square())
def test_det_matches_cofactor_expansion(case):
    dom, rows, expected = case
    m = Mat(dom, rows)
    d = det(m)
    assert d == det_cofactor(m)
    if expected is not None:
        assert d == expected


@pytest.mark.parametrize("dom", DOMAINS)
@pytest.mark.parametrize("n", range(1, 6))
def test_det_lone_entry_at_every_position(dom, n):
    # the rest is dense, so the first expansion is along the lone line
    # itself; a row exercises the row scan, a column the column scan
    for i in range(n):
        for j in range(n):
            for by_row in (True, False):
                rows = [[dom.coerce(2 + (3 * r + 5 * c) % 4) for c in range(n)]
                        for r in range(n)]
                for k in range(n):
                    if by_row and k != j:
                        rows[i][k] = dom.zero
                    if not by_row and k != i:
                        rows[k][j] = dom.zero
                m = Mat(dom, rows)
                assert det(m) == det_cofactor(m)


@pytest.mark.parametrize("dom", DOMAINS)
def test_det_permutations_of_both_parities(dom):
    for perm, sign in (((1, 0, 2, 3, 4), -1), ((1, 2, 0, 3, 4), 1),
                       ((4, 3, 2, 1, 0), 1), ((6, 5, 4, 3, 2, 1, 0), -1)):
        n = len(perm)
        m = Mat(dom, [[dom.one if j == perm[i] else dom.zero for j in range(n)]
                      for i in range(n)])
        assert det(m) == det_cofactor(m) == (dom.one if sign > 0 else -dom.one)


@st.composite
def _jordan(draw):
    base = draw(st.sampled_from([QQ, GF(2), GF(7)]))
    blocks = draw(st.lists(st.tuples(_scalars(base), st.integers(1, 3)),
                           min_size=1, max_size=4).filter(
        lambda bs: sum(s for _, s in bs) <= 7))
    n = sum(s for _, s in blocks)
    rows = [[base.zero] * n for _ in range(n)]
    at = 0
    for ev, size in blocks:
        for k in range(size):
            rows[at + k][at + k] = base.coerce(ev)
            if k + 1 < size:
                rows[at + k][at + k + 1] = base.one
        at += size
    return Mat(base, rows), blocks


@settings(max_examples=60, deadline=None)
@given(_jordan())
def test_det_of_x_minus_jordan_matrix(case):
    j, blocks = case
    x_mat = char_matrix(j)
    base = j.domain
    expected = Poly.one(base)
    for ev, size in blocks:
        expected = expected * Poly(base, (-base.coerce(ev), base.one)) ** size
    assert det(x_mat) == det_cofactor(x_mat) == expected


@pytest.mark.parametrize("kind,sizes,params", [
    ("I", range(2, 8), (None, None)),
    ("II", (2, 4, 6), (None, None)),
    ("III", range(2, 8), (3, -1)),
    ("III", range(2, 8), (Fraction(1, 2), 2)),
])
def test_det_of_kronecker_chain_forms(kind, sizes, params):
    for size in sizes:
        m, _, _ = kronecker_elementary_form(kind, size, *params)
        assert det(m) == det_cofactor(m)
        for a, b in ((m, m.transpose()), (m.transpose(), m)):
            x_mat = _linear_pencil(a, b)
            assert det(x_mat) == det_cofactor(x_mat)
