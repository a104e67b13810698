"""The kernel-route transforms against the Smith route they replaced.

Transforms used to come from the one tracked Smith reduction of xI - A
(columns of U^{-1} evaluated at A); that engine is kept in ``conftest`` as
the oracle.  The two routes pick different generators, so their transforms
differ, but both must conjugate A to the identical form F (and the two
similarity witnesses must both conjugate A to B), with det T != 0.  No form,
similarity or shifted pencil decision reduces anything over F[x] any more.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from canonforms.pencil import Pencil, pencil_equivalent
from canonforms.smith import divisor_data

from conftest import J6_CHAIN21, jordan6, rand_invertible, smith_route_form

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


def _conjugates(a, t, f):
    return not scalar_is_zero(det(t)) and a * t == t * f


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_new_and_old_similarity_witnesses_both_conjugate(field):
    @settings(max_examples=30, deadline=None)
    @given(conjugated_blocks(FIELDS[field]))
    def check(ab):
        a, b = ab
        old = [smith_route_form(m, "rational")[1] for m in (a, b)]
        ok, t = similar(a, b)
        assert ok
        assert _conjugates(a, t, b)
        assert _conjugates(a, old[0] * mat_inverse(old[1]), b)

    check()


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_new_and_old_form_transforms_both_conjugate(field):
    @settings(max_examples=25, deadline=None)
    @given(conjugated_blocks(FIELDS[field]))
    def check(ab):
        a, _ = ab
        for build, kind in ((rational_canonical_form, "rational"), (primary_form, "primary"),
                            (jordan_form, "primary")):
            try:
                res = build(a)
            except SplitFieldRequired:
                continue
            form, old = smith_route_form(a, kind)
            assert form == res.matrix
            assert _conjugates(a, res.transform, res.matrix)
            assert _conjugates(a, old, form)

    check()


def _shifted_pencils(a):
    """(I, A) and a twist of it, which pencil_equivalent decides through
    one similarity of its shifted members."""
    pc = Pencil(Mat.identity(a.domain, a.rows), a)
    return pc, pc.transform(rand_invertible(a.domain, a.rows, random.Random(3)),
                            rand_invertible(a.domain, a.rows, random.Random(4)))


@pytest.mark.parametrize("call", [
    rational_canonical_form, primary_form, jordan_form,
    lambda a: similar(a, a.transpose()),
    lambda a: pencil_equivalent(*_shifted_pencils(a)),
    divisor_data,
], ids=["rcf", "primary", "jordan", "similar", "pencil", "divisor_data"])
def test_smith_reductions_per_call(monkeypatch, call):
    # every Smith reduction, tracked or not, runs through _smith_reduce
    reductions = []
    real_form, real_reduce = smith.smith_form, smith._smith_reduce
    monkeypatch.setattr(smith, "smith_form",
                        lambda m: reductions.append(m) or real_form(m))
    monkeypatch.setattr(smith, "_smith_reduce", lambda m, track: (
        reductions.append((m, track)) or real_reduce(m, track)))
    call(jordan6(J6_CHAIN21))
    assert reductions == []
