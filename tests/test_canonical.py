"""Companion blocks, canonical forms, Jordan dictionary, and similarity."""

import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import canonforms.canonical as canonical
from canonforms.algebra import GF, Poly, QQ, scalar_is_zero
from canonforms.canonical import (
    SplitFieldRequired,
    companion,
    eldiv_to_jordan,
    hypercompanion,
    jordan_block,
    jordan_form,
    jordan_to_eldiv,
    multiplicative_jordan_block,
    primary_form,
    rational_canonical_form,
    similar,
)
from canonforms.cli import parse_matrix, run
from canonforms.matrix import Mat, det, mat_inverse
from canonforms.smith import char_matrix, divisor_data, gcd_minors_chain

from conftest import (
    J6_CHAIN3,
    J6_CHAIN21,
    J6_SEMISIMPLE,
    chain3,
    det_cofactor,
    jordan6,
    proportional,
    rand_matrix,
    rand_unimodular,
)

X = Poly.x(QQ)
GOLDEN = Path(__file__).resolve().parent / "golden"


def lin(c, dom=QQ):
    return Poly.linear(dom, c)


# ---------------------------------------------------------------------------
# companion blocks


def test_companion_quadratic_cofactor_oracle():
    # det(rI - C) expanded by cofactors must be r^2 + a1 r + a2
    for a1, a2 in [(3, 5), (-1, 2), (0, -7)]:
        f = X ** 2 + a1 * X + a2
        c = companion(f)
        assert det_cofactor(char_matrix(c)) == f


def test_companion_linear():
    c = companion(lin(Fraction(7, 2)))
    assert c == Mat(QQ, [[Fraction(7, 2)]])


def test_companion_nilpotent_cube():
    c = companion(X ** 3)
    assert det(char_matrix(c)) == X ** 3
    assert det(c) == 0


def test_companion_rejects_bad_input():
    with pytest.raises(ValueError):
        companion(2 * X + 1)          # not monic
    with pytest.raises(ValueError):
        companion(Poly.one(QQ))       # constant


def test_hypercompanion_linear_base_is_jordan_block():
    h = hypercompanion(lin(5), 3)
    assert h == jordan_block(QQ, 5, 3)


def test_hypercompanion_single_elementary_divisor():
    F2 = GF(2)
    y = Poly.x(F2)
    base = y ** 2 + y + 1
    h = hypercompanion(base, 2)
    assert h.rows == 4
    dd = divisor_data(h)
    assert list(dd.elementary_divisors) == [(base, 2)]


def test_multiplicative_block_dictionary():
    # K (I + N) = K I + K N, the classical substitution convention
    m = multiplicative_jordan_block(QQ, 3, 3)
    nil = jordan_block(QQ, 0, 3)
    ident = Mat.identity(QQ, 3)
    assert m == (ident + nil) * 3


# ---------------------------------------------------------------------------
# rational canonical form


def test_rcf_nonderogatory_single_block(a_chain3):
    res = rational_canonical_form(a_chain3)
    assert res.kind == "rational" and res.verified
    assert list(res.blocks) == [X ** 3 - 4 * X ** 2 + 3 * X]
    assert res.matrix == companion(X ** 3 - 4 * X ** 2 + 3 * X)


def test_rcf_scalar_matrix():
    a = Mat.identity(QQ, 3) * 5
    res = rational_canonical_form(a)
    assert list(res.blocks) == [lin(5)] * 3
    assert res.matrix == a
    assert res.verified


def test_rcf_jordan6_invariant_factor_regrouping():
    res = rational_canonical_form(jordan6(J6_CHAIN3))
    # largest exponents per irreducible go into the last factor
    i2 = lin(1) * lin(2) ** 3 * lin(3)
    assert list(res.blocks) == [lin(1), i2]
    assert res.matrix.rows == 6
    sizes = [b.degree for b in res.blocks]
    assert sizes == [1, 5]
    assert res.verified


def test_rcf_transform_is_exact():
    rng = random.Random(3)
    for dom in (QQ, GF(3)):
        for _ in range(10):
            n = rng.randint(1, 4)
            a = rand_matrix(dom, n, rng, lo=-2, hi=2)
            res = rational_canonical_form(a)
            assert res.verified
            assert mat_inverse(res.transform) * a * res.transform == res.matrix


# ---------------------------------------------------------------------------
# primary form


def test_primary_single_divisor_block_has_unit_lower_minors():
    # one elementary divisor (x - a)^l: the gcd of (l-1)-minors of xI - R is 1
    r = jordan_block(QQ, 4, 3)
    res = primary_form(r)
    assert res.matrix == r
    dd = divisor_data(r)
    assert list(dd.elementary_divisors) == [(lin(4), 3)]
    chain = gcd_minors_chain(char_matrix(r), cap=5)
    assert chain[1] == Poly.one(QQ)      # gcd of 2x2 minors
    assert chain[2] == lin(4) ** 3


def test_primary_gf2_quartic_roundtrip():
    F2 = GF(2)
    y = Poly.x(F2)
    base = y ** 2 + y + 1
    h = hypercompanion(base, 2)
    rng = random.Random(8)
    t = rand_unimodular(F2, 4, rng)
    a = mat_inverse(t) * h * t
    res = primary_form(a)
    assert res.verified
    assert list(res.blocks) == [(base, 2)]
    assert divisor_data(res.matrix).elementary_divisors == ((base, 2),)


def test_primary_diagonalizable_gives_diagonal(a_chain3):
    res = primary_form(a_chain3)
    assert res.matrix == Mat(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 3]])
    assert res.verified


# ---------------------------------------------------------------------------
# jordan form


def test_jordan_chain3_eigrows(a_chain3):
    res = jordan_form(a_chain3)
    assert res.matrix == Mat(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 3]])
    cols = [tuple(res.transform.entries[i][j] for i in range(3)) for j in range(3)]
    assert proportional(cols[0], (Fraction(1), Fraction(1), Fraction(-1)))
    assert proportional(cols[1], (Fraction(1), Fraction(0), Fraction(1)))
    assert proportional(cols[2], (Fraction(1), Fraction(-2), Fraction(-1)))
    assert res.structure.blocks == (
        (Fraction(0), (1,)), (Fraction(1), (1,)), (Fraction(3), (1,)))


def test_jordan_recovers_structure_of_scrambled_matrix():
    # fixed unimodular scrambler built from recorded elementary operations
    t0 = Mat(QQ, [[1, 0, 0, 0, 0, 0],
                  [2, 1, 0, 0, 0, 0],
                  [0, -1, 1, 0, 0, 0],
                  [3, 0, 2, 1, 0, 0],
                  [0, 0, 0, -2, 1, 0],
                  [1, 1, 0, 0, 3, 1]])
    assert det(t0) == 1
    j = jordan6(J6_CHAIN21)
    a = mat_inverse(t0) * j * t0
    res = jordan_form(a)
    assert res.structure.blocks == (
        (Fraction(1), (1, 1)), (Fraction(2), (2, 1)), (Fraction(3), (1,)))
    assert res.verified


def test_jordan_identity_fixed_point():
    ident = Mat.identity(QQ, 4)
    res = jordan_form(ident)
    assert res.matrix == ident
    assert res.transform == ident


def test_jordan_idempotent_on_canonical_layouts():
    for layout in (J6_SEMISIMPLE, J6_CHAIN3, J6_CHAIN21):
        j = jordan6(layout)
        res = jordan_form(j)
        assert res.matrix == j


def test_jordan_split_field_required():
    F2 = GF(2)
    y = Poly.x(F2)
    base = y ** 2 + y + 1
    a = companion(base)
    with pytest.raises(SplitFieldRequired) as exc:
        jordan_form(a)
    assert exc.value.factors == (base,)
    res = primary_form(a)           # the documented fallback
    assert res.verified


def test_jordan_refusal_is_decided_before_any_transform(monkeypatch):
    # the factors of the characteristic polynomial alone decide the refusal:
    # no kernel, Krylov chain, det T or A T = T F check runs, and the CLI
    # report stays byte-identical
    path = GOLDEN / "gf7_nonsplit4.mat"
    calls = []
    monkeypatch.setattr(canonical, "_nested_kernels",
                        lambda a, base, mult: calls.append(base))
    with pytest.raises(SplitFieldRequired) as exc:
        jordan_form(parse_matrix(path.read_text(encoding="utf-8")))
    y = Poly.x(GF(7))
    assert exc.value.factors == (y ** 2 + 1,)
    assert str(exc.value) == ("characteristic polynomial does not split; "
                              "irreducible factor(s): x^2+1")
    buf = io.StringIO()
    code = run(["jordan", "--json", str(path)], out=buf)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes["jordan-gf7_nonsplit4"]
    assert buf.getvalue() == (GOLDEN / "jordan-gf7_nonsplit4.json").read_text(
        encoding="utf-8")
    assert calls == []


# ---------------------------------------------------------------------------
# the elementary-divisor <-> Jordan dictionary


def test_dictionary_middle_layout():
    divisors = [(lin(1), 1), (lin(1), 1), (lin(2), 3), (lin(3), 1)]
    st = eldiv_to_jordan(divisors)
    assert st.blocks == ((Fraction(1), (1, 1)), (Fraction(2), (3,)),
                         (Fraction(3), (1,)))


def test_dictionary_third_layout():
    divisors = [(lin(1), 1), (lin(1), 1), (lin(2), 1), (lin(2), 2), (lin(3), 1)]
    st = eldiv_to_jordan(divisors)
    assert st.blocks == ((Fraction(1), (1, 1)), (Fraction(2), (2, 1)),
                         (Fraction(3), (1,)))


def test_dictionary_single_block_and_roundtrip():
    divisors = [(lin(Fraction(-1, 2)), 1)]
    st = eldiv_to_jordan(divisors)
    assert st.blocks == ((Fraction(-1, 2), (1,)),)
    assert jordan_to_eldiv(st, QQ) == divisors
    # general round trip
    divisors = [(lin(1), 2), (lin(1), 1), (lin(5), 3)]
    st = eldiv_to_jordan(divisors)
    back = jordan_to_eldiv(st, QQ)
    assert sorted(back, key=lambda t: (t[0].sort_key(), -t[1])) == \
        sorted(divisors, key=lambda t: (t[0].sort_key(), -t[1]))


def test_dictionary_rejects_nonlinear():
    with pytest.raises(ValueError):
        eldiv_to_jordan([(X ** 2 + 1, 1)])


# ---------------------------------------------------------------------------
# similarity


def test_jordan6_layouts_pairwise_not_similar():
    mats = [jordan6(layout) for layout in (J6_SEMISIMPLE, J6_CHAIN3, J6_CHAIN21)]
    # identical characteristic polynomials ...
    polys = {det(char_matrix(m)) for m in mats}
    assert len(polys) == 1
    # ... but pairwise distinct similarity classes
    for i in range(3):
        for j in range(i + 1, 3):
            ok, wit = similar(mats[i], mats[j])
            assert not ok and wit is None


def test_similar_by_construction_with_witness():
    rng = random.Random(21)
    for dom in (QQ, GF(3)):
        for _ in range(10):
            n = rng.randint(1, 4)
            a = rand_matrix(dom, n, rng, lo=-2, hi=2)
            t0 = rand_unimodular(dom, n, rng)
            b = mat_inverse(t0) * a * t0
            ok, t = similar(a, b)
            assert ok
            assert mat_inverse(t) * a * t == b


def test_similarity_classes_gf2_2x2_exhaustive():
    F2 = GF(2)
    mats = [Mat(F2, [[a, b], [c, d]])
            for a in range(2) for b in range(2) for c in range(2) for d in range(2)]
    invertible = [m for m in mats if not scalar_is_zero(det(m))]
    assert len(invertible) == 6
    # brute-force partition by conjugation
    index = {m: i for i, m in enumerate(mats)}
    parent = list(range(16))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for m in mats:
        for t in invertible:
            conj = mat_inverse(t) * m * t
            union(index[m], index[conj])
    brute_classes = {find(i) for i in range(16)}
    assert len(brute_classes) == 6
    # invariant-factor classification agrees with the brute-force partition
    for m1 in mats:
        for m2 in mats:
            inv_same = (divisor_data(m1).invariant_factors
                        == divisor_data(m2).invariant_factors)
            brute_same = find(index[m1]) == find(index[m2])
            assert inv_same == brute_same
    inv_classes = {divisor_data(m).invariant_factors for m in mats}
    assert len(inv_classes) == 6


def test_similar_size_field_mismatch():
    from canonforms.algebra import DomainError
    from canonforms.matrix import ShapeError
    with pytest.raises(DomainError):
        similar(Mat(QQ, [[1]]), Mat(GF(2), [[1]]))
    with pytest.raises(ShapeError):
        similar(Mat(QQ, [[1]]), Mat.identity(QQ, 2))


# ---------------------------------------------------------------------------
# cross-form properties


def _kernel_chain_structure(a, eigenvalue):
    """Independent oracle: block sizes from generalized-eigenvector kernels.

    With w_k = dim ker(A - cI)^k - dim ker(A - cI)^(k-1), exactly w_k blocks
    have size >= k; the sizes are the conjugate partition of (w_1, w_2, ...).
    """
    from canonforms.matrix import nullspace
    n = a.rows
    shifted = a - Mat.identity(a.domain, n) * eigenvalue
    dims = [0]
    power = Mat.identity(a.domain, n)
    for _ in range(n):
        power = power * shifted
        dims.append(len(nullspace(power)))
        if dims[-1] == dims[-2]:
            break
    weyr = [dims[k + 1] - dims[k] for k in range(len(dims) - 1)]
    sizes = []
    for idx, count in enumerate(weyr, start=1):
        nxt = weyr[idx] if idx < len(weyr) else 0
        sizes.extend([idx] * (count - nxt))
    return tuple(sorted((s for s in sizes if s), reverse=True))


@pytest.mark.parametrize("dom", [QQ, GF(3)])
def test_jordan_structure_matches_kernel_chain_oracle(dom):
    rng = random.Random(44)
    fixtures = [jordan6(J6_CHAIN21)] if dom is QQ else []
    produced = 0
    while produced < 10:
        n = rng.randint(2, 4)
        a = rand_matrix(dom, n, rng, lo=-2, hi=2)
        try:
            res = jordan_form(a)
        except SplitFieldRequired:
            continue
        for ev, sizes in res.structure.blocks:
            assert sizes == _kernel_chain_structure(a, ev)
        produced += 1
    for a in fixtures:
        res = jordan_form(a)
        for ev, sizes in res.structure.blocks:
            assert sizes == _kernel_chain_structure(a, ev)


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(3)])
def test_jordan_roundtrip_divisors(dom):
    rng = random.Random(61)
    done = 0
    while done < 8:
        n = rng.randint(1, 4)
        a = rand_matrix(dom, n, rng, lo=-2, hi=2)
        try:
            res = jordan_form(a)
        except SplitFieldRequired:
            continue
        assert divisor_data(res.matrix).elementary_divisors \
            == divisor_data(a).elementary_divisors
        done += 1


def test_primary_and_rcf_are_similar():
    rng = random.Random(29)
    for _ in range(8):
        n = rng.randint(1, 4)
        a = rand_matrix(QQ, n, rng, lo=-2, hi=2)
        p = primary_form(a)
        r = rational_canonical_form(a)
        ok, _ = similar(p.matrix, r.matrix)
        assert ok


def test_canonical_forms_preserve_trace_det_charpoly(a_chain3):
    for builder in (rational_canonical_form, primary_form, jordan_form):
        res = builder(a_chain3)
        m = res.matrix
        assert det(char_matrix(m)) == det(char_matrix(a_chain3))
        assert det(m) == det(a_chain3)
        tr = sum((m.entries[i][i] for i in range(3)), start=Fraction(0))
        tr_a = sum((a_chain3.entries[i][i] for i in range(3)), start=Fraction(0))
        assert tr == tr_a


def test_similar_builds_no_generator_for_a_not_similar_pair(monkeypatch):
    # unequal characteristic polynomials decide NOT SIMILAR before any
    # kernel; equal ones with unequal nullities before any generator
    kernels, generators = [], []
    real_kernels, real_generators = canonical._nested_kernels, canonical._generators
    monkeypatch.setattr(canonical, "_nested_kernels", lambda *args: (
        kernels.append(args) or real_kernels(*args)))
    monkeypatch.setattr(canonical, "_generators", lambda *args: (
        generators.append(args) or real_generators(*args)))
    a = jordan6(J6_CHAIN21)
    assert similar(a, a + Mat.identity(QQ, 6)) == (False, None)
    assert kernels == [] and generators == []
    assert similar(a, jordan6(J6_CHAIN3)) == (False, None)
    assert similar(a, jordan6(J6_SEMISIMPLE)) == (False, None)
    assert kernels and generators == []
    ok, t = similar(a, a)
    assert ok and t is not None and len(generators) == 2 * 3   # three bases each
