"""Pencil determinant forms, divisors, equivalence, and elementary forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonforms.pencil as pencil
import canonforms.smith as smith
from canonforms.algebra import (
    GF,
    BinaryForm,
    HomogeneousPoint,
    Poly,
    QQ,
    _divisor_key,
    factor,
    scalar_is_zero,
)
from canonforms.canonical import hypercompanion, jordan_block
from canonforms.matrix import Mat, _linear_pencil, det, mat_inverse
from canonforms.pencil import (
    Pencil,
    PencilInvariants,
    SingularPencilError,
    canonical_pencil,
    kronecker_elementary_form,
    pencil_det,
    pencil_divisors,
    pencil_equivalent,
    pencil_regular,
)
from canonforms.smith import divisor_data

from conftest import J6_CHAIN3, J6_CHAIN21, jordan6, rand_invertible, rand_matrix


def lin(c, dom=QQ):
    return Poly.linear(dom, c)


def point(c, dom=QQ):
    return HomogeneousPoint.of(dom, c, dom.one)


def inf_point(dom=QQ):
    return HomogeneousPoint.infinity(dom)


def pencil_of(a):
    """(I, -A), whose divisor set mirrors the similarity ledger of A."""
    return Pencil(Mat.identity(a.domain, a.rows), -a)


# ---------------------------------------------------------------------------
# determinant form


def test_det_form_scalar_pencil():
    for n in (1, 2, 4):
        pc = Pencil(Mat.identity(QQ, n), Mat.identity(QQ, n))
        assert pencil_det(pc) == BinaryForm.linear_power(QQ, 1, 1, n)


def test_det_form_elementary_size2():
    m, pc, expected = kronecker_elementary_form("I", 2)
    assert pencil_det(pc) == BinaryForm.linear_power(QQ, 1, -1, 2)
    assert expected == BinaryForm.linear_power(QQ, 1, -1, 2)


def test_det_form_odd_weighted_chain_vanishes():
    m, pc, expected = kronecker_elementary_form("III", 5, 2, 1)
    assert pencil_det(pc).is_zero() and expected.is_zero()
    assert not pencil_regular(pc)


def test_regular_flags():
    assert pencil_regular(Pencil(Mat.identity(QQ, 2), Mat.identity(QQ, 2)))
    a = Mat(QQ, [[0, 1], [2, 3]])
    assert pencil_regular(Pencil(Mat.identity(QQ, 2), a))


# ---------------------------------------------------------------------------
# divisors


def test_divisors_of_jordan_pencil():
    j = jordan6(J6_CHAIN3)
    inv = pencil_divisors(pencil_of(j))
    assert inv.regular and inv.rank == 6 and inv.infinity_defect == 0
    assert inv.multiset() == (
        (point(1), 1), (point(1), 1), (point(2), 3), (point(3), 1))


def test_divisor_at_infinity():
    n2 = Mat(QQ, [[0, 1], [0, 0]])
    pc = Pencil(n2, Mat.identity(QQ, 2))
    assert pencil_det(pc) == BinaryForm(QQ, 2, [1, 0, 0])   # v^2
    inv = pencil_divisors(pc)
    assert inv.multiset() == ((inf_point(), 2),)
    assert inv.infinity_defect == 2


def test_divisors_of_identity_pencil():
    pc = Pencil(Mat.identity(QQ, 3), Mat.identity(QQ, 3))
    inv = pencil_divisors(pc)
    assert inv.multiset() == ((point(-1), 1),) * 3


def test_pencil_divisors_match_matrix_ledger():
    rng = random.Random(83)
    for dom in (QQ, GF(3)):
        for _ in range(10):
            n = rng.randint(1, 4)
            a = rand_matrix(dom, n, rng, lo=-2, hi=2)
            inv = pencil_divisors(pencil_of(a))
            dd = divisor_data(a)
            expected = []
            for base, e in dd.elementary_divisors:
                if base.degree == 1:
                    expected.append((HomogeneousPoint.of(dom, -base.coeff(0),
                                                         dom.one), e))
                else:
                    expected.append((base, e))
            assert sorted(inv.multiset(), key=repr) == sorted(expected, key=repr)


def test_divisor_degrees_sum_to_n_with_infinity():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(2, 4)
        p = rand_matrix(QQ, n, rng, lo=-2, hi=2)
        q = rand_matrix(QQ, n, rng, lo=-2, hi=2)
        pc = Pencil(p, q)
        if not pencil_regular(pc):
            continue
        inv = pencil_divisors(pc)
        assert inv.total_degree() == n


def test_singular_pencil_reported_not_guessed():
    z = Mat(QQ, [[0, 0], [0, 0]])
    pc = Pencil(z, z)
    inv = pencil_divisors(pc)
    assert not inv.regular and inv.rank == 0
    with pytest.raises(SingularPencilError):
        canonical_pencil(inv)
    with pytest.raises(SingularPencilError):
        pencil_equivalent(pc, pc)


# ---------------------------------------------------------------------------
# equivalence


def test_equivalence_self_twist():
    rng = random.Random(5)
    for dom in (QQ, GF(3)):
        for _ in range(6):
            n = rng.randint(1, 3)
            a = rand_matrix(dom, n, rng, lo=-2, hi=2)
            pc = Pencil(Mat.identity(dom, n), a)
            h = rand_invertible(dom, n, rng)
            k = rand_invertible(dom, n, rng)
            twisted = pc.transform(h, k)
            ok, wit = pencil_equivalent(pc, twisted)
            assert ok
            hh, kk = wit
            assert hh.transpose() * pc.p * kk == twisted.p
            assert hh.transpose() * pc.q * kk == twisted.q


def test_equivalence_distinguishes_jordan_layouts():
    p1 = pencil_of(jordan6(J6_CHAIN3))
    p2 = pencil_of(jordan6(J6_CHAIN21))
    ok, wit = pencil_equivalent(p1, p2)
    assert not ok and wit is None


def test_equivalence_exhaustive_gf2_2x2_against_brute_force():
    F2 = GF(2)
    mats = [Mat(F2, [[a, b], [c, d]])
            for a in range(2) for b in range(2) for c in range(2) for d in range(2)]
    invertible = [m for m in mats if not scalar_is_zero(det(m))]
    assert len(invertible) == 6          # 36 (H, K) pairs
    pencils = [Pencil(p, q) for p in mats for q in mats
               if pencil_regular(Pencil(p, q))]
    # orbit partition under every invertible (H, K) pair
    index = {(pc.p, pc.q): i for i, pc in enumerate(pencils)}
    parent = list(range(len(pencils)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for i, pc in enumerate(pencils):
        for h in invertible:
            for k in invertible:
                img = pc.transform(h, k)
                union(i, index[(img.p, img.q)])
    # the invariant classification must equal the brute-force partition
    keys = [pencil_divisors(pc).multiset() for pc in pencils]
    mismatches = 0
    for i in range(len(pencils)):
        for j in range(i + 1, len(pencils)):
            if (keys[i] == keys[j]) != (find(i) == find(j)):
                mismatches += 1
    assert mismatches == 0
    # and pencil_equivalent’s verified witness agrees on a sample
    rng = random.Random(2)
    sample = rng.sample(range(len(pencils)), 12)
    for i in sample:
        for j in sample:
            ok, wit = pencil_equivalent(pencils[i], pencils[j])
            assert ok == (find(i) == find(j))
            if ok:
                h, k = wit
                assert h.transpose() * pencils[i].p * k == pencils[j].p
                assert h.transpose() * pencils[i].q * k == pencils[j].q


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(3)])
def test_divisors_invariant_under_twists(dom):
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(2, 5)
        p = rand_matrix(dom, n, rng, lo=-2, hi=2)
        q = rand_matrix(dom, n, rng, lo=-2, hi=2)
        pc = Pencil(p, q)
        if not pencil_regular(pc):
            continue
        h = rand_invertible(dom, n, rng)
        k = rand_invertible(dom, n, rng)
        assert pencil_divisors(pc).multiset() \
            == pencil_divisors(pc.transform(h, k)).multiset()


# ---------------------------------------------------------------------------
# canonical pairs


def test_canonical_single_linear_divisor():
    inv = PencilInvariants(regular=True, size=1, rank=1, infinity_defect=0,
                           divisors=((point(Fraction(-7, 3)), 1),))
    pc = canonical_pencil(inv)
    assert pc.p == Mat(QQ, [[1]])
    assert pc.q == Mat(QQ, [[Fraction(7, 3)]])


def test_canonical_infinite_divisor_block():
    inv = PencilInvariants(regular=True, size=2, rank=2, infinity_defect=2,
                           divisors=((inf_point(), 2),))
    pc = canonical_pencil(inv)
    assert pc.p == Mat(QQ, [[0, 1], [0, 0]])
    assert pc.q == Mat.identity(QQ, 2)
    assert pencil_det(pc) == BinaryForm(QQ, 2, [1, 0, 0])


def test_canonical_roundtrip_on_random_regular_pencils():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 4)
        p = rand_matrix(QQ, n, rng, lo=-2, hi=2)
        q = rand_matrix(QQ, n, rng, lo=-2, hi=2)
        pc = Pencil(p, q)
        if not pencil_regular(pc):
            continue
        inv = pencil_divisors(pc)
        out = canonical_pencil(inv)        # self-test runs inside
        assert pencil_divisors(out).multiset() == inv.multiset()
        ok, _ = pencil_equivalent(pc, out)
        assert ok


def test_mixed_finite_and_infinite_divisors():
    # block pair: a nilpotent 2-block (infinity^2) next to ([1], [-5])
    p = Mat(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    q = Mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, -5]])
    inv = pencil_divisors(Pencil(p, q))
    assert inv.regular
    assert inv.multiset() == ((point(5), 1), (inf_point(), 2))
    assert inv.infinity_defect == 2
    assert inv.total_degree() == 3


def test_canonical_pencil_with_irreducible_quadratic_divisor():
    x = Poly.x(QQ)
    inv = PencilInvariants(
        regular=True, size=3, rank=3, infinity_defect=0,
        divisors=((point(2), 1), (x ** 2 + 1, 1)))
    pc = canonical_pencil(inv)            # self-test runs inside
    assert pc.size == 3
    assert pencil_divisors(pc).multiset() == inv.multiset()


def test_canonical_rejects_degree_mismatch():
    inv = PencilInvariants(regular=True, size=3, rank=3, infinity_defect=0,
                           divisors=((point(1), 1),))
    with pytest.raises(ValueError):
        canonical_pencil(inv)


# ---------------------------------------------------------------------------
# elementary bilinear forms


def test_elementary_form_kind_i_small():
    m, pc, expected = kronecker_elementary_form("I", 2)
    assert m == Mat(QQ, [[0, -1], [1, 1]])
    assert pencil_det(pc) == expected == BinaryForm.linear_power(QQ, 1, -1, 2)


def test_elementary_form_kind_ii_small():
    m, pc, expected = kronecker_elementary_form("II", 2)
    assert pencil_det(pc) == expected == BinaryForm.linear_power(QQ, 1, -1, 2)


def test_elementary_form_kind_iii_sign_recorded():
    m, pc, expected = kronecker_elementary_form("III", 2, 2, 1)
    got = pencil_det(pc)
    # direct 2x2 expansion gives the negative of the displayed product
    assert got == -expected
    assert expected == (BinaryForm.linear_power(QQ, 2, 1, 1)
                        * BinaryForm.linear_power(QQ, 1, 2, 1))


def test_elementary_form_parameter_validation():
    with pytest.raises(ValueError):
        kronecker_elementary_form("II", 3)
    with pytest.raises(ValueError):
        kronecker_elementary_form("III", 4, 2, 2)     # a^2 == b^2
    with pytest.raises(ValueError):
        kronecker_elementary_form("I", 1)
    with pytest.raises(ValueError):
        kronecker_elementary_form("IV", 4)


def test_small_field_decision_without_witness():
    # GF(2), size 3, divisors at every projective point: no shift exists,
    # yet the decision must still come back (with witness None)
    F2 = GF(2)
    pt2 = lambda c: HomogeneousPoint.of(F2, c, F2.one)
    inv = PencilInvariants(
        regular=True, size=3, rank=3, infinity_defect=1,
        divisors=((pt2(0), 1), (pt2(1), 1),
                  (HomogeneousPoint.infinity(F2), 1)))
    pc = canonical_pencil(inv)
    ok, wit = pencil_equivalent(pc, pc)
    assert ok and wit is None


# ---------------------------------------------------------------------------
# one decision route: the shifted members' similarity


def _refuse(*args):
    raise AssertionError("a shifted pair must not take the divisor route")


@pytest.mark.parametrize("case", ["identity-leading", "singular-leading"])
def test_shifted_pair_decides_without_a_smith_reduction(case, monkeypatch):
    rng = random.Random(11)
    a = rand_matrix(QQ, 3, rng, lo=-2, hi=2)
    if case == "identity-leading":
        pc = Pencil(Mat.identity(QQ, 3), a)
    else:
        pc = Pencil(Mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]), a + Mat.identity(QQ, 3))
        assert pencil_regular(pc) and scalar_is_zero(det(pc.p))
    twisted = pc.transform(rand_invertible(QQ, 3, rng), rand_invertible(QQ, 3, rng))
    # one similarity decision of the shifted members, by nested kernels
    decisions = []
    real = pencil.similar
    monkeypatch.setattr(pencil, "similar",
                        lambda a, b: decisions.append(a) or real(a, b))
    for module in (pencil, smith):
        monkeypatch.setattr(module, "smith_diagonal", _refuse)
    monkeypatch.setattr(smith, "_smith_reduce", _refuse)
    monkeypatch.setattr(pencil, "pencil_divisors", _refuse)
    ok, (h, k) = pencil_equivalent(pc, twisted)
    assert ok and len(decisions) == 1
    assert h.transpose() * pc.p * k == twisted.p
    assert h.transpose() * pc.q * k == twisted.q


def test_gf2_pair_without_a_shift_decides_without_witness():
    # diag(1, 1, 0) u + diag(0, 1, 1) v: the leading members P, P + Q and Q
    # are all singular, so only the divisor route can decide
    F2 = GF(2)
    pc = Pencil(Mat(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                Mat(F2, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]))
    h = Mat(F2, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    k = Mat(F2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert pencil_equivalent(pc, pc.transform(h, k)) == (True, None)


def test_shift_search_over_q_stops_after_2n_plus_1_values(monkeypatch):
    # the first pencil is singular, so every P + c Q of it is singular:
    # c = 0, 1, -1, 2, -2, 3, -3 and then Q itself, one inversion tried each
    n = 3
    singular = Pencil(Mat.zero(QQ, n, n), Mat.zero(QQ, n, n))
    regular = Pencil(Mat.identity(QQ, n), Mat.identity(QQ, n))
    tried = []
    monkeypatch.setattr(pencil, "mat_inverse", lambda m: tried.append(m) or mat_inverse(m))
    monkeypatch.setattr(pencil, "det", lambda m: pytest.fail("the shift search takes no det"))
    assert pencil._joint_regular_shift(singular, regular) is None
    assert len(tried) == 2 * n + 2


def test_shift_search_over_q_reaches_its_last_value():
    # det(P1 + c Q) = c (c - 1) and det(P2 + c Q) = (c + 1)(c - 2): c = 0, 1,
    # -1, 2 fail, so the shift is -2, the (2n + 1)-th value tried
    eye = Mat.identity(QQ, 2)
    pc1 = Pencil(Mat(QQ, [[0, 0], [0, -1]]), eye)
    pc2 = Pencil(Mat(QQ, [[1, 0], [0, -2]]), eye)
    shift, p1_inv, p2_inv = pencil._joint_regular_shift(pc1, pc2)
    assert shift == ((1, -2), (1, 0))
    assert p1_inv == mat_inverse(pc1.p - eye * 2) and p2_inv == mat_inverse(pc2.p - eye * 2)


def test_shift_search_inverses_serve_the_decision(monkeypatch):
    # P is invertible at c = 0 for both pencils: the search inverts P1 and P2
    # once, and the decision inverts only the similarity witness K
    pc1 = Pencil(Mat.identity(QQ, 2), Mat(QQ, [[1, 1], [0, 2]]))
    pc2 = Pencil(Mat(QQ, [[1, 1], [0, 1]]), Mat(QQ, [[1, 3], [0, 2]]))
    tried = []
    monkeypatch.setattr(pencil, "mat_inverse", lambda m: tried.append(m) or mat_inverse(m))
    monkeypatch.setattr(pencil, "det", lambda m: pytest.fail("the decision takes no det"))
    ok, (h, k) = pencil_equivalent(pc1, pc2)
    assert ok and h.transpose() * pc1.p * k == pc2.p and h.transpose() * pc1.q * k == pc2.q
    assert tried[:2] == [pc1.p, pc2.p] and len(tried) == 3


def _decide_by_divisors(pc1, pc2):
    """The divisor-multiset decision: None for a singular pair."""
    inv1, inv2 = pencil_divisors(pc1), pencil_divisors(pc2)
    if not (inv1.regular and inv2.regular):
        return None
    return inv1.multiset() == inv2.multiset()


@st.composite
def _pencil_pairs(draw):
    dom = draw(st.sampled_from([QQ, GF(5)]))
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)

    def square(values):
        return Mat(dom, [[values.pop() for _ in range(n)] for _ in range(n)])

    def draw_square():
        return square(draw(st.lists(entry, min_size=n * n, max_size=n * n)))

    def draw_invertible():
        # unit lower times upper with a nonzero diagonal (nonzero mod 5 too)
        lower, upper = draw_square(), draw_square()
        diag = draw(st.lists(st.sampled_from([1, 2, -1, -2]), min_size=n, max_size=n))
        lo = Mat(dom, [[lower.entries[i][j] if j < i else dom.one if j == i else dom.zero
                        for j in range(n)] for i in range(n)])
        up = Mat(dom, [[upper.entries[i][j] if j > i else dom.coerce(diag[i]) if j == i
                        else dom.zero for j in range(n)] for i in range(n)])
        return lo * up

    pc = Pencil(draw_square(), draw_square())
    if draw(st.booleans()):
        return pc, pc.transform(draw_invertible(), draw_invertible())
    return pc, Pencil(draw_square(), draw_square())


@settings(max_examples=120, deadline=None)
@given(_pencil_pairs())
def test_equivalence_decision_matches_the_divisor_multisets(pair):
    pc1, pc2 = pair
    expected = _decide_by_divisors(pc1, pc2)
    if expected is None:
        with pytest.raises(SingularPencilError):
            pencil_equivalent(pc1, pc2)
        return
    ok, wit = pencil_equivalent(pc1, pc2)
    assert ok == expected
    if not ok:
        assert wit is None
    elif wit is not None:
        h, k = wit
        assert h.transpose() * pc1.p * k == pc2.p
        assert h.transpose() * pc1.q * k == pc2.q
    else:
        assert pc1.domain != QQ       # over Q a joint shift always exists


# ---------------------------------------------------------------------------
# divisors on Jordan's side: one shift, one divisor_data, Smith only without
# a shift

_IRREDUCIBLE = {
    # monic irreducible bases, low-to-high coefficients
    QQ: [(1, 0, 1), (-2, 0, 1), (1, 1, 1)],
    GF(2): [(1, 1, 1), (1, 1, 0, 1)],
    GF(3): [(1, 0, 1), (2, 1, 1)],
    GF(101): [(-2, 0, 1), (1, 1, 1)],
}


@st.composite
def _block_pencils(draw):
    """(pencil, expected divisors): (I, -J(c)), (I, -H) and (N, I) blocks
    conjugated by unit triangular (so unimodular) H and K."""
    dom = draw(st.sampled_from(list(_IRREDUCIBLE)))
    p_blocks, q_blocks, expected = [], [], []
    # half the pencils get a singular P, so that the shift moves every divisor
    kinds = ["N"] if draw(st.booleans()) else []
    while len(kinds) < 3 and (not kinds or draw(st.booleans())):
        kinds.append(draw(st.sampled_from(["J", "H", "N"])))
    for kind in kinds:
        e = draw(st.integers(1, 2))
        if kind == "J":
            c = dom.coerce(draw(st.integers(-2, 2)))
            p_blocks.append(Mat.identity(dom, e))
            q_blocks.append(-jordan_block(dom, c, e))
            expected.append((point(c, dom), e))
        elif kind == "H":
            base = Poly(dom, draw(st.sampled_from(_IRREDUCIBLE[dom])))
            e = 1 if base.degree > 2 else e
            h = hypercompanion(base, e)
            p_blocks.append(Mat.identity(dom, h.rows))
            q_blocks.append(-h)
            expected.append((base, e))
        else:
            p_blocks.append(jordan_block(dom, dom.zero, e))
            q_blocks.append(Mat.identity(dom, e))
            expected.append((inf_point(dom), e))
    pc = Pencil(Mat.block_diagonal(dom, p_blocks), Mat.block_diagonal(dom, q_blocks))
    n = pc.size
    entry = st.integers(-2, 2)

    def unit_triangular(lower):
        vals = draw(st.lists(entry, min_size=n * n, max_size=n * n))
        return Mat(dom, [[1 if i == j else vals[i * n + j] if (j < i) == lower else 0
                          for j in range(n)] for i in range(n)])

    h = unit_triangular(True) * unit_triangular(False)
    k = unit_triangular(False) * unit_triangular(True)
    return pc.transform(h, k), sorted(expected, key=_divisor_key)


@settings(max_examples=200, deadline=None)
@given(_block_pencils())
def test_shift_route_matches_the_smith_route(case):
    pc, expected = case
    assert all(len(factor(b)) == 1 for b, _ in expected if isinstance(b, Poly))
    fx = det(_linear_pencil(pc.p, pc.q))
    inv = pencil._pencil_divisors(pc, fx)
    assert inv == pencil._smith_pencil_divisors(pc, fx)
    assert list(inv.multiset()) == expected


def test_regular_pencil_with_a_shift_runs_no_smith_reduction(monkeypatch):
    # P singular (a divisor at infinity) and an irreducible quadratic: the
    # shift is P + Q, and the quadratic is mapped back through it
    base = Poly(QQ, (2, -2, 1))
    inv = PencilInvariants(regular=True, size=5, rank=5, infinity_defect=2,
                           divisors=((point(3), 1), (base, 1), (inf_point(), 2)))
    pc = canonical_pencil(inv).transform(rand_invertible(QQ, 5, random.Random(3)),
                                         rand_invertible(QQ, 5, random.Random(4)))
    for module in (pencil, smith):
        monkeypatch.setattr(module, "smith_diagonal", _refuse)
    monkeypatch.setattr(smith, "_smith_reduce", _refuse)
    assert pencil._joint_regular_shift(pc)[0] == ((1, 1), (1, 0))
    assert pencil_divisors(pc) == inv


def test_gf2_pencil_without_a_shift_takes_the_smith_route(monkeypatch):
    F2 = GF(2)
    pc = Pencil(Mat(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                Mat(F2, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert pencil._joint_regular_shift(pc) is None
    reduced = []
    real = pencil.smith_diagonal
    monkeypatch.setattr(pencil, "smith_diagonal", lambda m: reduced.append(m) or real(m))
    inv = pencil_divisors(pc)
    assert len(reduced) == 2
    assert inv.multiset() == ((point(0, F2), 1), (point(1, F2), 1), (inf_point(F2), 1))


def test_pair_without_a_joint_shift_decides_by_shifted_divisors(monkeypatch):
    # GF(2): diag(1, 0) u + diag(0, 1) v has its shift at P + Q, (I, I) at P,
    # and no candidate serves both
    F2 = GF(2)
    pc1 = Pencil(Mat(F2, [[1, 0], [0, 0]]), Mat(F2, [[0, 0], [0, 1]]))
    pc2 = Pencil(Mat.identity(F2, 2), Mat.identity(F2, 2))
    assert pencil._joint_regular_shift(pc1, pc2) is None
    for module in (pencil, smith):
        monkeypatch.setattr(module, "smith_diagonal", _refuse)
    monkeypatch.setattr(smith, "_smith_reduce", _refuse)
    assert pencil_equivalent(pc1, pc2) == (False, None)
    assert _decide_by_divisors(pc1, pc2) is False
