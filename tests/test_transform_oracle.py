"""The Krylov transforms against the old route through both reductions.

Transforms used to be built as V_A * V_B^{-1} evaluated at B (powers of B on
the right), from the Smith reductions of xI - A and xI - B.  That route is
kept here as the oracle, with V_B^{-1} taken through the adjugate of
``conftest``.  Both induce the module map sending column k of U_B^{-1} to
column k of U_A^{-1}, so the similarity witness T_A T_B^{-1} must be the very
same matrix; a form's own transform need not be, but both must satisfy
A T = T F with det T != 0.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonforms.canonical as canonical
import canonforms.smith as smith
from canonforms.algebra import GF, Poly, QQ, scalar_is_zero
from canonforms.canonical import (
    SplitFieldRequired,
    companion,
    jordan_block,
    jordan_form,
    primary_form,
    rational_canonical_form,
    similar,
)
from canonforms.matrix import Mat, det, mat_inverse
from canonforms.smith import char_matrix, smith_form

from conftest import J6_CHAIN21, _right_value, jordan6, unimodular_inverse

FIELDS = {"Q": QQ, "GF101": GF(101)}


@st.composite
def conjugated_blocks(draw, dom):
    """(A, B): B block diagonal of Jordan and companion blocks, n <= 6, and
    A = P^{-1} B P for a product P of elementary row additions."""
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


def _old_route(a, b):
    _, _, va = smith_form(char_matrix(a))
    _, _, vb = smith_form(char_matrix(b))
    return _right_value(va * unimodular_inverse(vb), b)


def _conjugates(a, t, f):
    return not scalar_is_zero(det(t)) and a * t == t * f


def _block_columns(t, sizes):
    cols = list(zip(*t.entries))
    out, start = [], 0
    for size in sizes:
        out.append(tuple(cols[start:start + size]))
        start += size
    return out


def _same_up_to_equal_blocks(t, old, factors):
    """T and the oracle agree after permuting the column blocks of equal
    consecutive companion blocks."""
    sizes = [f.degree for f in factors]
    new_blocks, old_blocks = _block_columns(t, sizes), _block_columns(old, sizes)
    start = 0
    while start < len(factors):
        end = start
        while end < len(factors) and factors[end] == factors[start]:
            end += 1
        if Counter(new_blocks[start:end]) != Counter(old_blocks[start:end]):
            return False
        start = end
    return True


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_similar_witness_equals_old_route(field):
    @settings(max_examples=30, deadline=None)
    @given(conjugated_blocks(FIELDS[field]))
    def check(ab):
        a, b = ab
        assert similar(a, b)[1] == _old_route(a, b)
        assert similar(b, a)[1] == _old_route(b, a)

    check()


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_new_and_old_form_transforms_both_conjugate(field):
    @settings(max_examples=25, deadline=None)
    @given(conjugated_blocks(FIELDS[field]))
    def check(ab):
        a, _ = ab
        for build in (rational_canonical_form, primary_form, jordan_form):
            try:
                res = build(a)
            except SplitFieldRequired:
                continue
            old = _old_route(a, res.matrix)
            assert _conjugates(a, res.transform, res.matrix)
            assert _conjugates(a, old, res.matrix)
            if build is rational_canonical_form:
                assert _same_up_to_equal_blocks(res.transform, old, res.blocks)

    check()


def test_equal_block_check_accepts_swaps_and_rejects_other_changes():
    one = Poly.linear(QQ, 1)
    t = Mat(QQ, [[1, 2, 0], [3, 4, 5], [0, 6, 7]])
    swapped = Mat(QQ, [[2, 1, 0], [4, 3, 5], [6, 0, 7]])
    assert _same_up_to_equal_blocks(t, swapped, [one, one, Poly.linear(QQ, 2)])
    assert not _same_up_to_equal_blocks(t, swapped,
                                        [one, Poly.linear(QQ, 3), Poly.linear(QQ, 2)])


@pytest.mark.parametrize("call,count", [
    (rational_canonical_form, 1), (primary_form, 1), (jordan_form, 1),
    (lambda a: similar(a, a.transpose()), 2),
], ids=["rcf", "primary", "jordan", "similar"])
def test_smith_reductions_per_call(monkeypatch, call, count):
    reductions = []
    for module in (canonical, smith):
        real = module.smith_form
        monkeypatch.setattr(module, "smith_form",
                            lambda m, real=real: reductions.append(m) or real(m))
    a = jordan6(J6_CHAIN21)
    call(a)
    assert len(reductions) == count
