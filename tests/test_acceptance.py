"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact (bit-identical values), there is no
numerical slack anywhere.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from canonforms.algebra import (
    GF,
    HomogeneousPoint,
    Poly,
    QQ,
    scalar_is_zero,
)
from canonforms.canonical import jordan_block, similar
from canonforms.cli import run as cli_run
from canonforms.matrix import Mat, PolynomialRing, det, mat_inverse
from canonforms.oscillations import (
    OscSystem,
    analyze_roots,
    char_poly,
    classify_stability,
    eigvec_adjugate,
    inertia,
)
from canonforms.pencil import (
    Pencil,
    PencilInvariants,
    canonical_pencil,
    kronecker_elementary_form,
    pencil_det,
    pencil_divisors,
    pencil_equivalent,
    pencil_regular,
)
from canonforms.smith import (
    char_matrix,
    divisor_data,
    gcd_minors_chain,
    smith_diagonal,
    smith_form,
)

from conftest import (
    J6_CHAIN3,
    J6_CHAIN21,
    J6_SEMISIMPLE,
    adjugate,
    chain3,
    jordan6,
    proportional,
    rand_matrix,
    rand_unimodular,
)

LAM = "λ"


def ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def canonical_divisor_string(m: Mat) -> str:
    return divisor_data(m).render(LAM)


def test_criterion_01_divisor_dictionary_and_similarity(tmp_path):
    """Three 6x6 layouts with one characteristic polynomial: exact divisor
    strings from the eldiv surface, pairwise not similar."""
    from canonforms.cli import print_matrix
    layouts = {
        "semisimple": (jordan6(J6_SEMISIMPLE),
                       f"({LAM}-1), ({LAM}-1), ({LAM}-2), ({LAM}-2), "
                       f"({LAM}-2), ({LAM}-3)"),
        "chain3": (jordan6(J6_CHAIN3),
                   f"({LAM}-1), ({LAM}-1), ({LAM}-2)^3, ({LAM}-3)"),
        "chain21": (jordan6(J6_CHAIN21),
                    f"({LAM}-1), ({LAM}-1), ({LAM}-2)^2, ({LAM}-2), ({LAM}-3)"),
    }
    mats = []
    paths = []
    for name, (m, expected) in layouts.items():
        assert canonical_divisor_string(m) == expected
        path = tmp_path / f"{name}.mat"
        path.write_text(print_matrix(m), encoding="utf-8")
        buf = io.StringIO()
        code = cli_run(["eldiv", str(path)], out=buf)
        assert code == 0
        assert buf.getvalue().strip() == expected, name
        mats.append(m)
        paths.append(str(path))
    # shared characteristic polynomial
    x = Poly.x(QQ)
    shared = (x - 1) ** 2 * (x - 2) ** 3 * (x - 3)
    for m in mats:
        assert det(char_matrix(m)) == shared
    # pairwise not similar, library and CLI agreeing
    for i in range(3):
        for j in range(i + 1, 3):
            decided, witness = similar(mats[i], mats[j])
            assert not decided and witness is None
            buf = io.StringIO()
            code = cli_run(["similar", paths[i], paths[j]], out=buf)
            assert code == 0
            assert buf.getvalue().startswith("NOT SIMILAR")
    ok("criterion 1: eldiv emits the three divisor columns exactly; "
       "similar declares all pairs NOT SIMILAR despite one "
       "characteristic polynomial")


def test_criterion_02_worked_3x3_pipeline():
    """char poly, adjugate entry, eigenvectors, inertia of the worked 3x3."""
    a = chain3()
    sys_ = OscSystem(Mat.identity(QQ, 3), a)
    f = char_poly(sys_)
    assert f == Poly(QQ, [0, -3, 4, -1])          # -s^3 + 4s^2 - 3s
    ring = PolynomialRing(QQ)
    x = Poly.x(QQ)
    k_minus_sm = Mat(ring, [[Poly(QQ, (a.entries[i][j],
                                       -1 if i == j else 0))
                             for j in range(3)] for i in range(3)])
    adj = adjugate(k_minus_sm)
    assert adj[0, 0] == (1 - x) * (2 - x) - 1
    for root, expect in [(1, (1, 0, 1)), (0, (1, 1, -1)), (3, (1, -2, -1))]:
        vec = eigvec_adjugate(sys_, root)
        assert proportional(vec.vector, tuple(Fraction(c) for c in expect))
    assert inertia(a).signature == (2, 0, 1)
    ok("criterion 2: worked 3x3 pipeline (char poly, adjugate entry, "
       "three eigenvectors, inertia (2,0,1)) exact")


def test_criterion_03_ten_by_ten_minor_chain():
    """The canonical pencil realizing the classical divisor data reproduces
    the successive-minor gcd chain by both the oracle and the Smith route."""
    pt = lambda c: HomogeneousPoint.of(QQ, c, 1)
    divisors = ((pt(1), 2), (pt(1), 1), (pt(2), 1), (pt(2), 1),
                (pt(3), 2), (pt(3), 2), (pt(3), 1))
    inv = PencilInvariants(regular=True, size=10, rank=10,
                           infinity_defect=0, divisors=divisors)
    pc = canonical_pencil(inv)
    x_mat = Mat(PolynomialRing(QQ),
                [[Poly(QQ, (qe, pe)) for pe, qe in zip(r1, r2)]
                 for r1, r2 in zip(pc.p.entries, pc.q.entries)])
    x = Poly.x(QQ)
    expected_det = (x - 1) ** 3 * (x - 2) ** 2 * (x - 3) ** 5
    oracle = gcd_minors_chain(x_mat, cap=10)
    assert oracle[9] == expected_det
    assert oracle[8] == (x - 1) * (x - 2) * (x - 3) ** 3
    assert oracle[7] == (x - 3)
    assert oracle[6] == Poly.one(QQ)
    assert all(oracle[k] == Poly.one(QQ) for k in range(7))
    # production route: cumulative products of the Smith diagonal
    acc = Poly.one(QQ)
    produced = []
    for d in smith_diagonal(x_mat):
        acc = acc * d
        produced.append(acc)
    assert produced == oracle
    ok("criterion 3: 10x10 successive-minor chain (det, first, second, "
       "third minor gcds) exact via oracle and Smith route")


def test_criterion_04_elementary_form_determinants():
    """Determinant identities of the three elementary bilinear forms."""
    for size in range(2, 9):
        m, pc, expected = kronecker_elementary_form("I", size)
        assert pencil_det(pc) == expected, f"kind I size {size}"
    for size in range(2, 9, 2):
        m, pc, expected = kronecker_elementary_form("II", size)
        assert pencil_det(pc) == expected, f"kind II size {size}"
    signs = {}
    for a, b in ((2, 1), (3, -1)):
        for size in range(2, 9, 2):
            m, pc, expected = kronecker_elementary_form("III", size, a, b)
            got = pencil_det(pc)
            half = size // 2
            if got == expected:
                signs[(a, b, size)] = 1
            elif got == -expected:
                signs[(a, b, size)] = -1
            else:
                raise AssertionError(f"kind III size {size}: no sign match")
            # the recorded sign is (-1)^m for size 2m
            assert signs[(a, b, size)] == (1 if half % 2 == 0 else -1)
    for size in range(3, 10, 2):
        m, pc, expected = kronecker_elementary_form("III", size, 2, 1)
        assert pencil_det(pc).is_zero() and expected.is_zero()
    ok("criterion 4: determinant identities exact for kinds I and II "
       "(sizes <= 8); kind III up to the recorded global sign (-1)^m, "
       "identically zero at odd sizes <= 9")


def test_criterion_05_similarity_oracle_agreement():
    """Exhaustive GF(2) 2x2 partition plus 500 randomized GF(3) trials."""
    F2 = GF(2)
    mats = [Mat(F2, [[a, b], [c, d]])
            for a in range(2) for b in range(2)
            for c in range(2) for d in range(2)]
    invertible = [m for m in mats if not scalar_is_zero(det(m))]
    assert len(invertible) == 6
    index = {m: i for i, m in enumerate(mats)}
    parent = list(range(16))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for m in mats:
        for t in invertible:
            a, b = find(index[m]), find(index[mat_inverse(t) * m * t])
            if a != b:
                parent[a] = b
    classes = {find(i) for i in range(16)}
    assert len(classes) == 6
    disagreements = 0
    for m1 in mats:
        for m2 in mats:
            brute = find(index[m1]) == find(index[m2])
            decided = (divisor_data(m1).invariant_factors
                       == divisor_data(m2).invariant_factors)
            if brute != decided:
                disagreements += 1
    assert disagreements == 0

    # 500 randomized GF(3) 3x3 trials: positives by construction,
    # negatives by structurally distinct canonical layouts
    F3 = GF(3)
    rng = random.Random(505)
    for trial in range(250):
        a = rand_matrix(F3, 3, rng)
        t = rand_unimodular(F3, 3, rng)
        b = mat_inverse(t) * a * t
        decided, witness = similar(a, b)
        assert decided, f"positive trial {trial} misclassified"
        assert mat_inverse(witness) * a * witness == b
    negative_layouts = [
        (jordan_block(F3, 1, 3),
         Mat.block_diagonal(F3, [jordan_block(F3, 1, 2), jordan_block(F3, 1, 1)])),
        (jordan_block(F3, 2, 3), Mat(F3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])),
        (Mat.block_diagonal(F3, [jordan_block(F3, 0, 2), jordan_block(F3, 1, 1)]),
         Mat(F3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])),
        (Mat(F3, [[0, 0, 0], [0, 1, 0], [0, 0, 2]]),
         Mat(F3, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])),
    ]
    for trial in range(250):
        base_a, base_b = negative_layouts[trial % len(negative_layouts)]
        t1 = rand_unimodular(F3, 3, rng)
        t2 = rand_unimodular(F3, 3, rng)
        a = mat_inverse(t1) * base_a * t1
        b = mat_inverse(t2) * base_b * t2
        decided, witness = similar(a, b)
        assert not decided, f"negative trial {trial} misclassified"
    ok("criterion 5: similarity oracle agreement (exhaustive GF(2) 2x2, "
       "6 classes; 500 randomized GF(3) 3x3 trials, zero disagreements)")


def test_criterion_06_pencil_oracle_agreement():
    """Exhaustive GF(2) 2x2 regular pencils against the (H, K) brute force."""
    F2 = GF(2)
    mats = [Mat(F2, [[a, b], [c, d]])
            for a in range(2) for b in range(2)
            for c in range(2) for d in range(2)]
    invertible = [m for m in mats if not scalar_is_zero(det(m))]
    pencils = [Pencil(p, q) for p in mats for q in mats
               if pencil_regular(Pencil(p, q))]
    index = {(pc.p, pc.q): i for i, pc in enumerate(pencils)}
    parent = list(range(len(pencils)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, pc in enumerate(pencils):
        for h in invertible:
            for k in invertible:
                j = index[(lambda t: (t.p, t.q))(pc.transform(h, k))]
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    keys = [pencil_divisors(pc).multiset() for pc in pencils]
    disagreements = 0
    for i in range(len(pencils)):
        for j in range(len(pencils)):
            if (keys[i] == keys[j]) != (find(i) == find(j)):
                disagreements += 1
    assert disagreements == 0
    ok(f"criterion 6: pencil equivalence matches brute force on all "
       f"{len(pencils)} regular GF(2) 2x2 pencils, zero disagreements")


def test_criterion_07_every_emitted_transform_verifies(tmp_path):
    """Every transform emitted across the golden suite satisfies its
    defining equation exactly; the CLI verify battery passes 100%."""
    # similarity transforms of all golden layouts
    for layout in (J6_SEMISIMPLE, J6_CHAIN3, J6_CHAIN21):
        m = jordan6(layout)
        from canonforms.canonical import (
            jordan_form, primary_form, rational_canonical_form)
        for builder in (rational_canonical_form, primary_form, jordan_form):
            res = builder(m)
            assert res.verified
            assert mat_inverse(res.transform) * m * res.transform == res.matrix
    # smith transforms of the same inputs
    for layout in (J6_CHAIN3, J6_CHAIN21):
        x_mat = char_matrix(jordan6(layout))
        u, s, v = smith_form(x_mat)
        assert u * x_mat * v == s
        du, dv = det(u), det(v)
        assert du.degree == 0 and dv.degree == 0
    # pencil witnesses: against a random twist and against the canonical pair
    j1 = jordan6(J6_CHAIN3)
    pc1 = Pencil(Mat.identity(QQ, 6), -j1)
    rng = random.Random(6)
    h0 = rand_unimodular(QQ, 6, rng)
    k0 = rand_unimodular(QQ, 6, rng)
    pc2 = pc1.transform(h0, k0)
    decided, (h, k) = pencil_equivalent(pc1, pc2)
    assert decided
    assert h.transpose() * pc1.p * k == pc2.p
    assert h.transpose() * pc1.q * k == pc2.q
    canon = canonical_pencil(pencil_divisors(pc2))
    decided, (hc, kc) = pencil_equivalent(pc2, canon)
    assert decided
    assert hc.transpose() * pc2.p * kc == canon.p
    assert hc.transpose() * pc2.q * kc == canon.q
    # CLI verify: 100% PASS lines on the bundled inputs
    chain_file = tmp_path / "chain3.mat"
    chain_file.write_text(
        "FIELD Q\nROWS 3 COLS 3\n1 -1 0\n-1 2 1\n0 1 1\n", encoding="utf-8")
    buf = io.StringIO()
    code = cli_run(["verify", str(chain_file), "--trials", "2"], out=buf)
    assert code == 0
    lines = [ln for ln in buf.getvalue().splitlines()
             if ln.startswith(("PASS", "FAIL"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)
    ok("criterion 7: every emitted transform (canonical forms, Smith pairs, "
       "pencil witnesses) verified exactly; CLI verify 100% PASS")


def test_criterion_08_realness_certificates_300_trials():
    """300 randomized positive-definite systems; Sturm certificates must
    confirm every characteristic root real."""
    rng = random.Random(1858)
    failures = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        l = Mat(QQ, [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                     for _ in range(n)])
        m = l.transpose() * l + Mat.identity(QQ, n)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-3, 3))
                entries[i][j] = entries[j][i] = v
        k = Mat(QQ, entries)
        if not analyze_roots(OscSystem(m, k)).all_real:
            failures += 1
    assert failures == 0
    ok("criterion 8: 300 randomized symmetric definite systems, Sturm "
       "certificate confirms all roots real in every trial")


def test_criterion_09_historical_gap():
    """Equal frequencies: the two verdicts must split exactly as recorded."""
    sys_ = OscSystem(Mat.identity(QQ, 2), Mat.identity(QQ, 2))
    v = classify_stability(sys_)
    assert v.lagrange_1766 == "conditional"
    assert v.weierstrass_1858 == "stable"
    ok("criterion 9: repeated root demoted to conditional by the 1766 "
       "trichotomy yet certified stable by the 1858 criterion")


def test_criterion_10_json_determinism(tmp_path):
    """Two runs of the full machine-readable battery are byte-identical."""
    files = {
        "chain3.mat": "FIELD Q\nROWS 3 COLS 3\n1 -1 0\n-1 2 1\n0 1 1\n",
        "j6.mat": ("FIELD Q\nROWS 6 COLS 6\n"
                   "1 0 0 0 0 0\n0 1 0 0 0 0\n0 0 2 1 0 0\n"
                   "0 0 0 2 1 0\n0 0 0 0 2 0\n0 0 0 0 0 3\n"),
        "gf2.mat": "FIELD GF 2\nROWS 2 COLS 2\n0 1\n1 1\n",
        "ident2.mat": "FIELD Q\nROWS 2 COLS 2\n1 0\n0 1\n",
        "ident3.mat": "FIELD Q\nROWS 3 COLS 3\n1 0 0\n0 1 0\n0 0 1\n",
    }
    paths = {}
    for name, text in files.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    battery = [
        ["eldiv", "--json", paths["chain3.mat"]],
        ["invfactors", "--json", paths["j6.mat"]],
        ["smith", "--json", paths["chain3.mat"]],
        ["jordan", "--json", paths["j6.mat"]],
        ["rcf", "--json", paths["j6.mat"]],
        ["primary", "--json", paths["gf2.mat"]],
        ["similar", "--json", paths["chain3.mat"], paths["chain3.mat"]],
        ["pencil-eldiv", "--json", paths["ident3.mat"], paths["chain3.mat"]],
        ["pencil-canon", "--json", paths["ident3.mat"], paths["chain3.mat"]],
        ["kron-form", "--json", "--kind", "I", "--size", "5"],
        ["oscillate", "--json", paths["ident2.mat"], paths["ident2.mat"]],
        ["verify", "--json", paths["chain3.mat"], "--seed", "3"],
    ]
    transcripts = []
    for _ in range(2):
        chunks = []
        for args in battery:
            buf = io.StringIO()
            code = cli_run(args, out=buf)
            assert code in (0,)
            chunks.append(buf.getvalue())
            json.loads(buf.getvalue())      # well-formed JSON
        transcripts.append("".join(chunks).encode("utf-8"))
    assert transcripts[0] == transcripts[1]
    ok("criterion 10: machine-readable battery byte-identical across runs")
