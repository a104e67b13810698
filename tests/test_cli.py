"""Matrix file parsing, subcommand behavior, exit codes, JSON stability."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import canonforms.cli as cli
from canonforms.algebra import GF, QQ
from canonforms.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUSED,
    MatrixParseError,
    build_parser,
    parse_matrix,
    print_matrix,
    run,
)
from canonforms.matrix import Mat
from canonforms.oscillations import OscSystem, char_poly

from fractions import Fraction

SRC = str(Path(__file__).resolve().parent.parent / "src")


CHAIN3_TEXT = """FIELD Q
ROWS 3 COLS 3
1 -1 0
-1 2 1
0 1 1
"""


def invoke(args):
    buf = io.StringIO()
    code = run(args, out=buf)
    return code, buf.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# parsing


def test_parse_chain3():
    m = parse_matrix(CHAIN3_TEXT)
    assert m == Mat(QQ, [[1, -1, 0], [-1, 2, 1], [0, 1, 1]])


def test_parse_gf_reduction():
    m = parse_matrix("FIELD GF 2\nROWS 1 COLS 1\n5\n")
    assert m == Mat(GF(2), [[1]])


def test_parse_rationals():
    m = parse_matrix("FIELD Q\nROWS 2 COLS 2\n1/2 0\n0 -3/4\n")
    assert m[0, 0] == Fraction(1, 2)
    assert m[1, 1] == Fraction(-3, 4)


def test_parse_comments_and_whitespace():
    text = "# heading\nFIELD Q  # trailing\nROWS 1 COLS 2\n  7   8\n"
    assert parse_matrix(text) == Mat(QQ, [[7, 8]])


def test_print_parse_print_fixed_point():
    for m in (Mat(QQ, [[Fraction(1, 2), -3], [0, 4]]),
              Mat(GF(7), [[1, 6], [0, 3]])):
        text = print_matrix(m)
        again = print_matrix(parse_matrix(text))
        assert text == again
        assert parse_matrix(text) == m


@pytest.mark.parametrize("text,needle", [
    ("FIELD R\nROWS 1 COLS 1\n1\n", "unknown field"),
    ("FIELD GF 6\nROWS 1 COLS 1\n1\n", "not prime"),
    ("FIELD GF 318665857834031151167461\nROWS 1 COLS 1\n1\n",
     "modulus 318665857834031151167461 exceeds the supported limit"),
    ("FIELD Q\nROWS 1 COLS 2\n1\n", "unexpected end"),
    ("FIELD Q\nROWS 1 COLS 1\n1 2\n", "wrong entry count"),
    ("FIELD Q\nROWS 1 COLS 1\n1/0\n", "zero denominator"),
    ("FIELD Q\nROWS 1 COLS 1\nx\n", "malformed entry"),
    ("FIELD GF 5\nROWS 1 COLS 1\n1/2\n", "GF entries are integers"),
    ("FIELD Q\nROWS 1 COLS 2\n1\u00a02\n", "3:1: malformed entry '1\\xa02'"),
])
def test_parse_errors_have_positions(text, needle):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(text)
    assert needle in str(exc.value)
    assert exc.value.line >= 1 and exc.value.col >= 1


@pytest.mark.parametrize("text,message", [
    ("", "1:1: unexpected end of input, expected FIELD"),
    ("# only a comment\n", "1:1: unexpected end of input, expected FIELD"),
    ("ROWS 1 COLS 1\n1\n", "1:1: expected FIELD, got 'ROWS'"),
    ("FIELDS Q\nROWS 1 COLS 1\n1\n", "1:1: expected FIELD, got 'FIELDS'"),
    ("FIELD\n", "1:1: unexpected end of input, expected field name"),
    ("FIELD R\nROWS 1 COLS 1\n1\n", "1:7: unknown field 'R' (use Q or GF <p>)"),
    ("FIELD q\nROWS 1 COLS 1\n1\n", "1:7: unknown field 'q' (use Q or GF <p>)"),
    ("FIELD GF\n", "1:7: unexpected end of input, expected modulus"),
    ("FIELD GF x\nROWS 1 COLS 1\n1\n", "1:10: modulus must be an integer, got 'x'"),
    ("FIELD GF 7.0\nROWS 1 COLS 1\n1\n",
     "1:10: modulus must be an integer, got '7.0'"),
    ("FIELD GF 6\nROWS 1 COLS 1\n1\n", "1:10: modulus 6 is not prime"),
    ("FIELD  GF  9\nROWS 1 COLS 1\n1\n", "1:12: modulus 9 is not prime"),
    ("FIELD Q\n", "1:7: unexpected end of input, expected ROWS"),
    ("FIELD Q\nROW 1 COLS 1\n1\n", "2:1: expected ROWS, got 'ROW'"),
    ("FIELD Q\nCOLS 1 ROWS 1\n1\n", "2:1: expected ROWS, got 'COLS'"),
    ("FIELD Q\nROWS\n", "2:1: unexpected end of input, expected row count"),
    ("FIELD Q\nROWS x COLS 1\n1\n", "2:6: row count must be an integer, got 'x'"),
    ("FIELD Q\nROWS 1.5 COLS 1\n1\n",
     "2:6: row count must be an integer, got '1.5'"),
    ("FIELD Q\nROWS 1\n", "2:6: unexpected end of input, expected COLS"),
    ("FIELD Q\nROWS 1 cols 1\n1\n", "2:8: expected COLS, got 'cols'"),
    ("FIELD Q\nROWS 1 COLS\n", "2:8: unexpected end of input, expected column count"),
    ("FIELD Q\nROWS 1 COLS one\n1\n",
     "2:13: column count must be an integer, got 'one'"),
    ("FIELD Q\nROWS 1 COLS 1\n", "2:13: unexpected end of input, expected matrix entry"),
    ("FIELD Q\nROWS 2 COLS 2\n1 2\n3\n",
     "4:1: unexpected end of input, expected matrix entry"),
    ("FIELD Q\nROWS 1 COLS 1\n1 2\n", "3:3: wrong entry count: trailing token '2'"),
    ("FIELD Q\nROWS 1 COLS 1\n1\nFIELD Q\n",
     "4:1: wrong entry count: trailing token 'FIELD'"),
])
def test_header_errors_name_their_token(text, message):
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("header,where", [
    ("ROWS 0 COLS 3", "2:6"),
    ("ROWS 3 COLS 0", "2:13"),
    ("ROWS -2 COLS 3", "2:6"),
    ("ROWS 0 COLS x", "2:6"),      # a count is checked before the next token is read
], ids=["zero-rows", "zero-cols", "negative-rows", "zero-rows-bad-cols"])
def test_nonpositive_count_is_reported_at_its_own_token(tmp_path, capsys, header, where):
    path = write(tmp_path, "a.mat", f"FIELD Q\n{header}\n1 2 3\n")
    code, out = invoke(["eldiv", path])
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == (
        f"input error: {path}:{where}: dimensions must be positive\n")


@pytest.mark.parametrize("data,where,needle", [
    (b"\xff\xfeFIELD Q\nROWS 1 COLS 1\n1\n", "1:1", "non-ASCII byte 0xff"),
    ("FIELD Q\nROWS 1 COLS 1\n\u0663\n".encode("utf-8"), "3:1", "non-ASCII byte 0xd9"),
    (b"FIELD Q\nROWS 1 COLS 1\n1_0\n", "3:1", "malformed entry '1_0'"),
], ids=["utf16-bom", "arabic-indic-digit", "underscore-digits"])
def test_file_bytes_outside_ascii_integers_are_input_errors(tmp_path, capsys, data,
                                                            where, needle):
    path = tmp_path / "a.mat"
    path.write_bytes(data)
    code, out = invoke(["eldiv", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == ""
    assert err == f"input error: {path}:{where}: {needle}\n"


def test_input_error_without_a_position(tmp_path, capsys):
    path = write(tmp_path, "rect.mat", "FIELD Q\nROWS 1 COLS 2\n1 2\n")
    code, _ = invoke(["eldiv", path])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {path}: expected a square matrix\n"


# ---------------------------------------------------------------------------
# subcommands


def test_eldiv_output(tmp_path):
    path = write(tmp_path, "a.mat", CHAIN3_TEXT)
    code, out = invoke(["eldiv", path])
    assert code == EXIT_OK
    assert out.strip() == "(λ), (λ-1), (λ-3)"


def test_eldiv_and_jordan_over_a_61_bit_prime(tmp_path):
    # 2^61 - 1: primality by Miller-Rabin, not trial division up to 2^30.5
    path = write(tmp_path, "a.mat", "FIELD GF 2305843009213693951\n"
                                    "ROWS 2 COLS 2\n2 1\n1 2\n")
    code, out = invoke(["eldiv", path])
    p = 2 ** 61 - 1
    assert code == EXIT_OK and out.strip() == f"(λ+{p - 1}), (λ+{p - 3})"
    code, out = invoke(["jordan", "--json", path])
    assert code == EXIT_OK and json.loads(out)["verified"] is True


def test_smith_reports_unimodular(tmp_path):
    path = write(tmp_path, "a.mat", CHAIN3_TEXT)
    code, out = invoke(["smith", path, "--no-transform"])
    assert code == EXIT_OK
    assert "diagonal: 1, 1" in out
    assert "unimodular" in out


def test_similar_not_similar_exit_zero(tmp_path):
    a = write(tmp_path, "a.mat", CHAIN3_TEXT)
    b = write(tmp_path, "b.mat",
              "FIELD Q\nROWS 3 COLS 3\n1 0 0\n0 2 0\n0 0 3\n")
    code, out = invoke(["similar", a, b])
    assert code == EXIT_OK
    assert "NOT SIMILAR" in out


def _no_call(*args):
    raise AssertionError("the --json report must not recompute invariants")


def test_not_similar_json_skips_the_human_divisor_lines(tmp_path, monkeypatch):
    a = write(tmp_path, "a.mat", CHAIN3_TEXT)
    b = write(tmp_path, "b.mat",
              "FIELD Q\nROWS 3 COLS 3\n1 0 0\n0 2 0\n0 0 3\n")
    code, out = invoke(["similar", a, b])
    assert out == ("NOT SIMILAR\nA divisors: (λ), (λ-1), (λ-3)\n"
                   "B divisors: (λ-1), (λ-2), (λ-3)\n")
    monkeypatch.setattr(cli, "divisor_data", _no_call)
    code, out = invoke(["similar", "--json", a, b])
    assert code == EXIT_OK and json.loads(out)["invariants"] == {"similar": False}


def test_not_equivalent_json_skips_the_human_divisor_lines(tmp_path, monkeypatch):
    p = write(tmp_path, "p.mat", "FIELD Q\nROWS 2 COLS 2\n1 0\n0 1\n")
    q = write(tmp_path, "q.mat", "FIELD Q\nROWS 2 COLS 2\n-1 0\n0 -2\n")
    q2 = write(tmp_path, "q2.mat", "FIELD Q\nROWS 2 COLS 2\n-1 1\n0 -1\n")
    code, out = invoke(["pencil-equiv", p, q, p, q2])
    assert out == ("NOT EQUIVALENT\nfirst divisors: (λ-1), (λ-2)\n"
                   "second divisors: (λ-1)^2\n")
    monkeypatch.setattr(cli, "pencil_divisors", _no_call)
    code, out = invoke(["pencil-equiv", "--json", p, q, p, q2])
    assert code == EXIT_OK and json.loads(out)["invariants"] == {"equivalent": False}


def test_pencil_eldiv_computes_the_determinant_form_once(tmp_path, monkeypatch):
    import canonforms.pencil as pencil
    from canonforms.matrix import _linear_pencil

    p = write(tmp_path, "p.mat", "FIELD Q\nROWS 2 COLS 2\n1 0\n0 1\n")
    q = write(tmp_path, "q.mat", "FIELD Q\nROWS 2 COLS 2\n-1 1\n0 -1\n")
    calls, dets = [], []
    orig = cli.pencil_det
    monkeypatch.setattr(cli, "pencil_det", lambda pc: calls.append(pc) or orig(pc))
    orig_det = pencil.det
    monkeypatch.setattr(pencil, "det", lambda m: dets.append(m) or orig_det(m))
    code, out = invoke(["pencil-eldiv", p, q])
    assert out.endswith("det(uP + vQ) = u^2 - 2uv + v^2\n")
    assert len(calls) == 1
    x_pencil = _linear_pencil(calls[0].p, calls[0].q)     # x P + Q
    assert sum(m == x_pencil for m in dets) == 1


def test_pencil_with_a_rectangular_member_is_an_input_error(tmp_path, capsys):
    p = write(tmp_path, "p.mat", "FIELD GF 2\nROWS 3 COLS 3\n0 0 0\n0 0 0\n0 0 0\n")
    q = write(tmp_path, "q.mat", "FIELD GF 2\nROWS 3 COLS 1\n0\n0\n0\n")
    code, out = invoke(["pencil-eldiv", p, q])
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == (
        "input error: invalid pencil: pencil members must be square of equal size\n")


@pytest.mark.parametrize("second_p,second_q", [
    ("FIELD GF 7\nROWS 1 COLS 1\n1\n", "FIELD GF 7\nROWS 1 COLS 1\n2\n"),
    ("FIELD Q\nROWS 2 COLS 2\n1 0\n0 1\n", "FIELD Q\nROWS 2 COLS 2\n2 0\n0 3\n"),
], ids=["fields", "sizes"])
def test_pencil_equiv_across_fields_or_sizes_is_an_input_error(tmp_path, capsys,
                                                              second_p, second_q):
    p = write(tmp_path, "p.mat", "FIELD Q\nROWS 1 COLS 1\n1\n")
    q = write(tmp_path, "q.mat", "FIELD Q\nROWS 1 COLS 1\n2\n")
    p2 = write(tmp_path, "p2.mat", second_p)
    q2 = write(tmp_path, "q2.mat", second_q)
    code, out = invoke(["pencil-equiv", p, q, p2, q2])
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == (
        "input error: pencil equivalence needs equal sizes over one field\n")


def test_verify_builds_its_ledger_from_the_smith_form(tmp_path, monkeypatch):
    a = write(tmp_path, "a.mat", CHAIN3_TEXT)
    calls = []
    orig = cli.divisor_data
    monkeypatch.setattr(cli, "divisor_data", lambda m: calls.append(m) or orig(m))
    code, out = invoke(["verify", "--trials", "2", a])
    assert code == EXIT_OK and "FAIL" not in out
    assert len(calls) == 2   # the conjugation trials only


def test_verify_reduces_xI_minus_A_once(tmp_path, monkeypatch):
    import canonforms.smith as smith

    a = parse_matrix(CHAIN3_TEXT)
    x_mat = smith.char_matrix(a)
    reductions, ledgers = [], []
    orig_reduce = smith._smith_reduce
    monkeypatch.setattr(smith, "_smith_reduce", lambda m, track: (
        reductions.append(m == x_mat) or orig_reduce(m, track)))
    for module in (cli, smith):
        orig = module._ledger
        monkeypatch.setattr(module, "_ledger", lambda m, diag, orig=orig: (
            ledgers.append(m == a) or orig(m, diag)))
    code, out = invoke(["verify", "--trials", "2", write(tmp_path, "a.mat", CHAIN3_TEXT)])
    assert code == EXIT_OK and "FAIL" not in out
    # xI - A once, for Kronecker's ledger: the forms take the kernel route,
    # and the conjugation trials reduce nothing
    assert reductions == [True]
    assert ledgers.count(True) == 1


def test_verify_evaluates_the_smith_identity_once(tmp_path, monkeypatch):
    import canonforms.canonical as canonical
    import canonforms.smith as smith

    x_mat = smith.char_matrix(parse_matrix(CHAIN3_TEXT))
    identities = []
    for module in (cli, smith, canonical):
        orig = getattr(module, "_products_agree", None)
        if orig is not None:
            monkeypatch.setattr(module, "_products_agree", lambda left, right, orig=orig: (
                identities.append(len(left) == 3 and left[1] == x_mat)
                or orig(left, right)))
    code, out = invoke(["verify", "--trials", "0", write(tmp_path, "a.mat", CHAIN3_TEXT)])
    assert code == EXIT_OK
    # smith_form checks U (xI - A) V = S and the divisibility chain, or
    # raises; the report states both
    assert identities.count(True) == 1
    assert "PASS  smith identity U (xI - A) V = S" in out.splitlines()
    assert "PASS  divisibility d_k | d_{k+1}" in out.splitlines()


def test_similar_with_witness(tmp_path):
    a = write(tmp_path, "a.mat", "FIELD Q\nROWS 2 COLS 2\n1 1\n0 2\n")
    b = write(tmp_path, "b.mat", "FIELD Q\nROWS 2 COLS 2\n2 0\n1 1\n")
    code, out = invoke(["similar", a, b])
    assert code == EXIT_OK
    assert out.startswith("SIMILAR")


def test_jordan_refusal_exit_2(tmp_path):
    # companion of an irreducible quadratic over GF(2)
    path = write(tmp_path, "c.mat", "FIELD GF 2\nROWS 2 COLS 2\n0 1\n1 1\n")
    code, out = invoke(["jordan", path])
    assert code == EXIT_REFUSED
    assert "does not split" in out
    assert "x^2+x+1" in out or "λ^2+λ+1" in out
    assert "primary" in out
    code2, out2 = invoke(["primary", path])
    assert code2 == EXIT_OK and "verified: True" in out2


def test_pencil_equiv_singular_refused(tmp_path):
    z = write(tmp_path, "z.mat", "FIELD Q\nROWS 2 COLS 2\n0 0\n0 0\n")
    code, out = invoke(["pencil-equiv", z, z, z, z])
    assert code == EXIT_REFUSED


def test_pencil_eldiv_reports_singular(tmp_path):
    z = write(tmp_path, "z.mat", "FIELD Q\nROWS 2 COLS 2\n0 0\n0 0\n")
    code, out = invoke(["pencil-eldiv", z, z])
    assert code == EXIT_OK
    assert "SINGULAR" in out
    assert "out of scope" in out


def test_pencil_canon_roundtrip(tmp_path):
    p = write(tmp_path, "p.mat", "FIELD Q\nROWS 2 COLS 2\n1 0\n0 1\n")
    q = write(tmp_path, "q.mat", "FIELD Q\nROWS 2 COLS 2\n-1 0\n0 -2\n")
    code, out = invoke(["pencil-canon", p, q])
    assert code == EXIT_OK
    assert "canonical pair" in out


def test_kron_form_cli():
    code, out = invoke(["kron-form", "--kind", "II", "--size", "6"])
    assert code == EXIT_OK and "[exact]" in out
    code, out = invoke(["kron-form", "--kind", "III", "--size", "4",
                        "--a", "3", "--b", "-1"])
    assert code == EXIT_OK and ("[exact]" in out or "up to sign" in out)


def test_kron_form_bad_parameters():
    code, _ = invoke(["kron-form", "--kind", "III", "--size", "4",
                      "--a", "2", "--b", "2"])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("argv,message", [
    (["kron-form", "--kind", "I", "--size", "33"],
     "argument --size: 33 is outside 0..MAX_KRON_SIZE = 32"),
    (["kron-form", "--kind", "I", "--size", "100000000"],
     "argument --size: 100000000 is outside 0..MAX_KRON_SIZE = 32"),
    (["verify", "--trials", "101", "CHAIN3"],
     "argument --trials: 101 is outside 0..MAX_TRIALS = 100"),
    (["verify", "--trials", "100000000", "CHAIN3"],
     "argument --trials: 100000000 is outside 0..MAX_TRIALS = 100"),
    (["verify", "--trials", "-1", "CHAIN3"],
     "argument --trials: -1 is outside 0..MAX_TRIALS = 100"),
    (["verify", "--trials", "2.5", "CHAIN3"],
     "argument --trials: invalid integer value: '2.5'"),
    (["kron-form", "--kind", "III", "--size", "2", "--a", "1_0", "--b", "3"],
     "argument --a: invalid integer value: '1_0'"),
    (["kron-form", "--kind", "III", "--size", "2", "--a", "1", "--b", "\u0663"],
     "argument --b: invalid integer value: '\u0663'"),
    (["kron-form", "--kind", "III", "--size", "2", "--a", " 3", "--b", "1"],
     "argument --a: invalid integer value: ' 3'"),
    (["kron-form", "--kind", "I", "--size", "\u0663"],
     "argument --size: invalid integer value: '\u0663'"),
    (["--seed", "\u0663", "verify", "CHAIN3"],
     "argument --seed: invalid integer value: '\u0663'"),
    (["verify", "--seed", "1_0", "CHAIN3"],
     "argument --seed: invalid integer value: '1_0'"),
    (["verify", "--seed", " 3", "CHAIN3"],
     "argument --seed: invalid integer value: ' 3'"),
])
def test_arguments_beyond_their_limits_are_input_errors(tmp_path, capsys, argv,
                                                        message):
    path = write(tmp_path, "a.mat", CHAIN3_TEXT)
    code, out = invoke([path if a == "CHAIN3" else a for a in argv])
    assert code == EXIT_INPUT and out == ""
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_arguments_at_their_limits_run(tmp_path):
    assert cli.MAX_TRIALS == 100 and cli.MAX_KRON_SIZE == 32
    path = write(tmp_path, "a.mat", "FIELD GF 5\nROWS 2 COLS 2\n1 1\n0 1\n")
    for trials in ("0", "100"):
        code, out = invoke(["verify", "--trials", trials, path])
        assert code == EXIT_OK
        assert out.count("divisor invariance under conjugation") == int(trials)


def test_help_and_docstring_name_both_limits():
    sub = build_parser()._subparsers._group_actions[0].choices

    def words(text):
        return " ".join(text.split())

    assert "at most MAX_KRON_SIZE = 32" in words(sub["kron-form"].format_help())
    assert "at most MAX_TRIALS = 100" in words(sub["verify"].format_help())
    assert "MAX_TRIALS = 100" in words(cli.__doc__)
    assert "MAX_KRON_SIZE = 32" in words(cli.__doc__)


def test_oscillate_output(tmp_path):
    m = write(tmp_path, "m.mat", "FIELD Q\nROWS 2 COLS 2\n1 0\n0 1\n")
    code, out = invoke(["oscillate", m, m])
    assert code == EXIT_OK
    assert "verdict (Lagrange 1766):    conditional" in out
    assert "verdict (Weierstrass 1858): stable" in out
    assert "t does NOT leave the sine" in out


def _oscillate_json(tmp_path, mass, stiffness):
    """Run `oscillate --json` in a fresh interpreter; (exit code, report,
    wall seconds)."""
    paths = [write(tmp_path, name, print_matrix(Mat(QQ, m)))
             for name, m in (("m.mat", mass), ("k.mat", stiffness))]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "canonforms", "oscillate", "--json"] + paths,
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, json.loads(proc.stdout), time.perf_counter() - start


def test_oscillate_large_stiffness_1x1(tmp_path):
    k = 10 ** 30 + 57
    code, rep, seconds = _oscillate_json(tmp_path, [[1]], [[k]])
    assert code == EXIT_OK and seconds < 5
    [mode] = rep["invariants"]["modes"]
    assert mode["root"] == str(k) and mode["kind"] == "oscillatory"


def test_oscillate_large_stiffness_2x2(tmp_path):
    mass = [[2, 1], [1, 3]]
    stiff = [[10 ** 30 + 57, 3], [3, 10 ** 35 - 9]]
    code, rep, seconds = _oscillate_json(tmp_path, mass, stiff)
    assert code == EXIT_OK and seconds < 5
    inv = rep["invariants"]
    f = char_poly(OscSystem(Mat(QQ, mass), Mat(QQ, stiff)))
    assert inv["char_poly"] == f.render("x", compact=True)

    def direct(s):   # det(K - s M) of a 2x2 by the cofactor formula
        (a, b), (c, d) = [[kk - s * mm for kk, mm in zip(kr, mr)]
                          for kr, mr in zip(stiff, mass)]
        return a * d - b * c

    assert f.degree == 2 and all(f(s) == direct(s) for s in range(3))
    modes = inv["modes"]
    assert len(modes) == 2
    for mode in modes:
        lo, hi = (Fraction(x) for x in mode["root_interval"])
        assert f(lo) * f(hi) < 0                # one root in (lo, hi]
        assert mode["kind"] == "oscillatory" and lo >= 0
    assert inv["verdict_weierstrass_1858"] == "stable"


def test_oscillate_rejects_indefinite_mass(tmp_path):
    m = write(tmp_path, "m.mat", "FIELD Q\nROWS 2 COLS 2\n-1 0\n0 1\n")
    code, _ = invoke(["oscillate", m, m])
    assert code == EXIT_INPUT


def test_verify_all_pass(tmp_path):
    path = write(tmp_path, "a.mat", CHAIN3_TEXT)
    code, out = invoke(["verify", path, "--seed", "5"])
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "all identities hold" in out


def test_input_error_missing_file():
    code, _ = invoke(["eldiv", "/nonexistent/file.mat"])
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# machine output


def test_json_byte_identical_runs(tmp_path):
    path = write(tmp_path, "a.mat", CHAIN3_TEXT)
    outputs = set()
    for _ in range(2):
        code, out = invoke(["eldiv", "--json", path])
        assert code == EXIT_OK
        outputs.add(out)
    assert len(outputs) == 1
    payload = json.loads(out)
    assert payload["kind"] == "eldiv"
    assert payload["invariants"]["elementary_divisors"] == \
        ["(x)", "(x-1)", "(x-3)"]
    assert payload["verified"] is True
    assert len(payload["input_digest"]) == 64


def test_json_no_transform_drops_transforms(tmp_path):
    path = write(tmp_path, "a.mat", CHAIN3_TEXT)
    _, with_t = invoke(["jordan", "--json", path])
    _, without_t = invoke(["jordan", "--json", "--no-transform", path])
    assert "transforms" in json.loads(with_t)
    assert "transforms" not in json.loads(without_t)


def test_json_machine_variable_is_x(tmp_path):
    path = write(tmp_path, "a.mat", CHAIN3_TEXT)
    _, out = invoke(["invfactors", "--json", path])
    payload = json.loads(out)
    assert payload["invariants"]["invariant_factors"] == \
        ["1", "1", "x^3-4x^2+3x"]
    assert "λ" not in out


@pytest.mark.parametrize("flag,argv", [
    (["--json"], ["eldiv"]),
    (["--no-transform"], ["jordan"]),
    (["--seed", "7"], ["verify", "--json"]),
], ids=["json", "no-transform", "seed"])
def test_global_flag_before_or_after_the_subcommand(tmp_path, flag, argv):
    path = write(tmp_path, "a.mat", CHAIN3_TEXT)
    before = flag + argv + [path]
    after = argv[:1] + flag + argv[1:] + [path]
    assert invoke(before) == invoke(after)
    assert build_parser().parse_args(before) == build_parser().parse_args(after)
    if flag != ["--seed", "7"]:
        assert invoke(before) != invoke(argv + [path])
    assert build_parser().parse_args(before).seed == (7 if "--seed" in flag else 0)


def test_run_builds_one_parser_and_leaks_no_flag(monkeypatch):
    # the parser is built on the first call of run and serves every later
    # call; a flag given to one call does not reach the next
    real = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    kron = ["kron-form", "--kind", "I", "--size", "2"]
    try:
        first, again = invoke(kron + ["--json", "--seed", "7"]), invoke(kron)
        assert invoke(kron + ["--json", "--seed", "7"]) == first
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert first[0] == EXIT_OK and again[0] == EXIT_OK
    assert again[1] == (Path(__file__).parent / "golden" / "text"
                        / "kron-form-I-2.txt").read_text()
    assert invoke(kron) == again
