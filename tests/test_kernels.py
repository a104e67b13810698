"""Jordan's route: the characteristic polynomial by Hessenberg reduction, the
block counts from nested kernels, and generators over F[x]/(p) for a base p
of degree d > 1.

The ledger from the nullities must equal Kronecker's ledger from the Smith
diagonal of xI - A.  A base of degree d > 1 is where a generator pick can go
wrong: z and A z are independent over the field but not over F[x]/(p), so
each pick must add its whole orbit z, A z, ..., A^(d-1) z to the span the
next pick avoids.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonforms.canonical as canonical
from canonforms.algebra import GF, Poly, QQ, VerificationError, factor, scalar_is_zero
from canonforms.canonical import (
    companion,
    hypercompanion,
    jordan_block,
    primary_form,
    rational_canonical_form,
    similar,
)
from canonforms.matrix import Mat, det, mat_inverse, nullspace
from canonforms.smith import (
    _char_poly,
    _ledger,
    _nested_kernels,
    char_matrix,
    divisor_data,
    smith_diagonal,
)

from conftest import generators_by_extension

FIELDS = {"Q": QQ, "GF2": GF(2), "GF3": GF(3), "GF101": GF(101)}


def _conjugate(b: Mat, ops) -> Mat:
    """P^{-1} B P for P the product of the row additions row_i += c row_j."""
    dom, n = b.domain, b.rows
    p = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i != j:
            p[i] = [x + dom.coerce(c) * y for x, y in zip(p[i], p[j])]
    pm = Mat(dom, p)
    return mat_inverse(pm) * b * pm


def _verified(a: Mat, res) -> bool:
    t = res.transform
    return not scalar_is_zero(det(t)) and a * t == t * res.matrix


@st.composite
def block_matrices(draw, dom):
    """(A, B): B block diagonal of at most 6 rows, drawn from Jordan blocks,
    companion blocks of monic quadratics and cubics, and hypercompanion
    blocks of squared quadratics, with repeats; A = P^{-1} B P."""
    def poly(degree):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=degree, max_size=degree))
        return Poly(dom, [dom.coerce(c) for c in coeffs] + [dom.one])

    blocks, n = [], 0
    while n == 0 or (n < 6 and draw(st.booleans())):
        kind = draw(st.sampled_from(("jordan", "companion", "hyper", "repeat")))
        if kind == "repeat" and blocks and blocks[-1].rows <= 6 - n:
            block = blocks[-1]
        elif kind == "companion" and n <= 4:
            block = companion(poly(draw(st.integers(2, min(3, 6 - n)))))
        elif kind == "hyper" and n <= 2:
            block = hypercompanion(poly(2), 2)
        else:
            block = jordan_block(dom, draw(st.integers(-2, 2)), draw(st.integers(1, 6 - n)))
        blocks.append(block)
        n += block.rows
    b = Mat.block_diagonal(dom, blocks)
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.sampled_from((-2, -1, 1, 2))), max_size=3 * n))
    return _conjugate(b, ops), b


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_kernel_ledger_equals_smith_ledger(field):
    @settings(max_examples=40, deadline=None)
    @given(block_matrices(FIELDS[field]))
    def check(ab):
        a, b = ab
        assert _char_poly(a) == det(char_matrix(a))
        ledger = divisor_data(a)
        assert ledger == _ledger(a, smith_diagonal(char_matrix(a)))
        assert ledger == divisor_data(b)

    check()


def test_char_poly_of_small_and_zero_subdiagonal_matrices():
    for dom in (QQ, GF(2)):
        x = Poly.x(dom)
        assert _char_poly(Mat(dom, [[1]])) == x - 1
        assert _char_poly(Mat.zero(dom, 3, 3)) == x ** 3
        # a zero first column below the diagonal leaves nothing to pivot
        a = Mat(dom, [[1, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
        assert _char_poly(a) == det(char_matrix(a))


# ---------------------------------------------------------------------------
# the deg p > 1 pitfall

def _pitfall_cases():
    out = []
    for dom in (QQ, GF(3)):
        p = Poly(dom, [1, 0, 1])           # x^2 + 1, irreducible over Q and GF(3)
        blocks = [hypercompanion(p, 2), companion(p), companion(p)]
        out.append((dom, p, blocks, ((p, 2), (p, 1), (p, 1))))
    f2 = GF(2)
    p = Poly(f2, [1, 1, 1])                # x^2 + x + 1, irreducible over GF(2)
    out.append((f2, p, [hypercompanion(p, 2), companion(p)], ((p, 2), (p, 1))))
    return out


PITFALL_OPS = ([], [(0, 4, 1), (5, 1, -1), (3, 6, 1), (7, 2, 1)],
               [(i, (i + 1) % 6, 1) for i in range(6)] + [(2, 0, -1)])


@pytest.mark.parametrize("dom,base,blocks,divisors", _pitfall_cases(),
                         ids=["Q", "GF3", "GF2"])
@pytest.mark.parametrize("ops", PITFALL_OPS, ids=["plain", "sparse", "cyclic"])
def test_primary_form_of_repeated_nonlinear_base(dom, base, blocks, divisors, ops):
    b = Mat.block_diagonal(dom, blocks)
    a = _conjugate(b, [(i, j, c) for i, j, c in ops if max(i, j) < b.rows])
    res = primary_form(a)
    assert res.blocks == divisors
    assert res.matrix == b
    assert _verified(a, res)
    rcf = rational_canonical_form(a)
    assert rcf.blocks == tuple(sorted((base ** e for _, e in divisors),
                                      key=lambda f: f.sort_key()))
    assert _verified(a, rcf)
    ok, t = similar(a, b)
    assert ok and a * t == t * b


def test_kernel_nullities_count_the_blocks():
    dom = GF(3)
    p = Poly(dom, [1, 0, 1])
    a = Mat.block_diagonal(dom, [hypercompanion(p, 2), companion(p), companion(p)])
    m, kernels, exps = _nested_kernels(a, p, 4)
    assert m == a * a + Mat.identity(dom, 8)
    assert [len(k) for k in kernels] == [6, 8]
    assert exps == [2, 1, 1]


def _power_route(m: Mat, levels: int):
    """nullspace(M^j) for j = 1..levels, each power formed and reduced
    from scratch."""
    out, power = [], m
    for _ in range(levels):
        out.append(nullspace(power))
        power = power * m
    return out


def _incremental_cases():
    out = []
    for dom in (QQ, GF(101)):
        # eigenvalue 2 in blocks 3, 1, 1: the nullity jumps by 3 > d = 1
        blocks = [jordan_block(dom, 2, 3), jordan_block(dom, -1, 2),
                  jordan_block(dom, 2, 1), jordan_block(dom, 2, 1)]
        out.append((dom, Poly(dom, [-2, 1]), blocks, [3, 4, 5]))
    for dom in (QQ, GF(3)):
        # x^2 + 1 with exponents 2, 1, 1: the nullity jumps by 6 > d = 2
        p = Poly(dom, [1, 0, 1])
        blocks = [hypercompanion(p, 2), jordan_block(dom, 1, 1), companion(p), companion(p)]
        out.append((dom, p, blocks, [6, 8]))
    f2 = GF(2)
    p = Poly(f2, [1, 1, 1])
    out.append((f2, p, [companion(p), hypercompanion(p, 2), jordan_block(f2, 1, 2)], [4, 6]))
    return out


@pytest.mark.parametrize("dom,base,blocks,nullities", _incremental_cases(),
                         ids=["Q-linear", "GF101-linear", "Q-quadratic", "GF3-quadratic",
                              "GF2-quadratic"])
def test_incremental_kernels_equal_the_power_route(dom, base, blocks, nullities):
    b = Mat.block_diagonal(dom, blocks)
    n = b.rows
    a = _conjugate(b, [(i, (i + 1) % n, 1) for i in range(n)] + [(2, 0, -1), (n - 1, 1, 2)])
    m, kernels, _ = _nested_kernels(a, base, nullities[-1] // base.degree)
    power, value = Mat.identity(dom, n), Mat.zero(dom, n, n)
    for c in base.coeffs:
        value, power = value + power * c, power * a
    assert m == value
    assert [len(k) for k in kernels] == nullities
    assert kernels == _power_route(m, len(kernels))


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_incremental_kernels_equal_the_power_route_on_block_matrices(field):
    @settings(max_examples=30, deadline=None)
    @given(block_matrices(FIELDS[field]))
    def check(ab):
        a = ab[0]
        for term in factor(_char_poly(a)):
            m, kernels, _ = _nested_kernels(a, term.base, term.exponent)
            assert kernels == _power_route(m, len(kernels))

    check()


@functools.lru_cache(maxsize=None)
def _irreducible_bases(dom, degree):
    """The monic irreducible polynomials of this degree over dom whose lower
    coefficients are residues of -3..3, each once."""
    bases = []
    for cs in itertools.product(range(-3, 4), repeat=degree):
        f = Poly(dom, [dom.coerce(c) for c in cs] + [dom.one])
        terms = factor(f)
        if f not in bases and [(t.base, t.exponent) for t in terms] == [(f, 1)]:
            bases.append(f)
    return bases


@st.composite
def repeated_base_matrices(draw, dom):
    """(A, B): B block diagonal of hypercompanion blocks of one irreducible
    monic base of degree 2 or 3, with two exponents or more (repeats
    allowed) and at most 8 rows; A = P^{-1} B P for a drawn P, or B
    itself."""
    degree = draw(st.integers(2, 3))
    base = draw(st.sampled_from(_irreducible_bases(dom, degree)))
    room = 8 // degree
    exps = [draw(st.integers(1, room - 1))]
    while sum(exps) < room and (len(exps) < 2 or draw(st.booleans())):
        exps.append(draw(st.integers(1, room - sum(exps))))
    b = Mat.block_diagonal(dom, [hypercompanion(base, e) for e in exps])
    n = b.rows
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.sampled_from((-2, -1, 1, 2))), max_size=3 * n)
               if draw(st.booleans()) else st.just([]))
    return _conjugate(b, ops), b


@pytest.mark.parametrize("family", ["blocks", "repeated"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_generators_equal_the_extension_oracle(field, family):
    # the pivot columns of one elimination per level are exactly the picks
    # of the vector-by-vector extension they replaced
    matrices = block_matrices if family == "blocks" else repeated_base_matrices

    @settings(max_examples=30, deadline=None)
    @given(matrices(FIELDS[field]))
    def check(ab):
        a = ab[0]
        for base, m, kernels, exps in canonical._kernels(a, factor(_char_poly(a))):
            assert (canonical._generators(a, base, m, kernels, exps)
                    == generators_by_extension(a, base, m, kernels, exps))

    check()


def test_too_few_generators_raise():
    # kernels that cannot hold the blocks asked for: the count check fires
    dom = QQ
    a = jordan_block(dom, 0, 2)
    m, kernels, exps = _nested_kernels(a, Poly.x(dom), 2)
    assert exps == [2]
    with pytest.raises(VerificationError, match="kernel generators"):
        canonical._generators(a, Poly.x(dom), m, kernels, [2, 2])
