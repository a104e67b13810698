"""The Smith reduction's tracked V^{-1} against the adjugate route.

Transforms used to be built as V_A * unimodular_inverse(V_B) evaluated at
B, with the inverse taken through the adjugate.  That route is kept here,
with the adjugate oracles of ``conftest``, as the oracle: V_B^{-1} is unique, so the tracked inverse must give the very
same transform, entry for entry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from canonforms.algebra import GF, Poly, QQ
from canonforms.canonical import (
    _right_value,
    companion,
    jordan_block,
    primary_form,
    rational_canonical_form,
    similar,
)
from canonforms.matrix import Mat, mat_inverse
from canonforms.smith import _tracked_smith, char_matrix, smith_form

from conftest import unimodular_inverse

FIELDS = (QQ, GF(101))


@st.composite
def conjugated_blocks(draw):
    """(A, B): B block diagonal of Jordan and companion blocks, n <= 6, and
    A = P^{-1} B P for a product P of elementary row additions."""
    dom = draw(st.sampled_from(FIELDS))
    blocks = []
    n = 0
    while n == 0 or (n < 6 and draw(st.booleans())):
        if n <= 4 and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
            block = companion(Poly(dom, tuple(dom.coerce(c) for c in coeffs)
                                   + (dom.one,)))
        else:
            size = draw(st.integers(1, 6 - n))
            block = jordan_block(dom, draw(st.integers(-2, 2)), size)
        blocks.append(block)
        n += block.rows
    b = Mat.block_diagonal(dom, blocks)
    p = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    if n > 1:
        ops = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1),
                                      st.sampled_from((-2, -1, 1, 2))),
                            max_size=3 * n))
        for i, j, c in ops:
            if i != j:
                p[i] = [x + dom.coerce(c) * y for x, y in zip(p[i], p[j])]
    pm = Mat(dom, p)
    return mat_inverse(pm) * b * pm, b


def _adjugate_route(a, b):
    _, _, va = smith_form(char_matrix(a))
    _, _, vb = smith_form(char_matrix(b))
    return _right_value(va * unimodular_inverse(vb), b)


@settings(max_examples=40, deadline=None)
@given(conjugated_blocks())
def test_tracked_inverse_is_two_sided(ab):
    for m in ab:
        x_mat = char_matrix(m)
        _, _, v, w = _tracked_smith(x_mat)
        ident = Mat.identity(x_mat.domain, m.rows)
        assert v * w == ident
        assert w * v == ident
        assert smith_form(x_mat)[2] == v


@settings(max_examples=25, deadline=None)
@given(conjugated_blocks())
def test_transform_equals_adjugate_route(ab):
    a, b = ab
    assert similar(a, b)[1] == _adjugate_route(a, b)
    for build in (rational_canonical_form, primary_form):
        res = build(a)
        assert res.transform == _adjugate_route(a, res.matrix)
