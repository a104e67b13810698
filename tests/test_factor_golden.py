"""Byte identity of the reports whose content comes from factoring.

The stored reports under tests/golden/factor/ pin `eldiv`, `invfactors`,
`verify`, `pencil-eldiv`, `pencil-canon` and `pencil-equiv` (both `--json`
and the human text, with exit codes) on every sample_inputs/*.mat file, on
the inputs in tests/golden/*.mat, and on two inputs kept in the subdirectory: a
GF(101) matrix with irreducible cubic and quartic elementary divisors and a
rational matrix with two irreducible quadratic ones.  Pencils pair each
matrix M with the identity of its size and field, as (I, M) and (M, I);
`pencil-equiv` compares (I, A) with (I, B) for every A, B of one size and
field, and (M, I) with (I, M).  Any change of factorization engine must keep
every byte.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_factor_golden.py --regen
"""

import io
import json
import sys
from pathlib import Path

import pytest

from canonforms.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FACTOR = GOLDEN / "factor"
INPUTS = (sorted(ROOT.glob("sample_inputs/*.mat")) + sorted(GOLDEN.glob("*.mat"))
          + [FACTOR / "gf101_cubic_quartic.mat", FACTOR / "q_two_quadratics.mat"])


def _header(path: Path) -> tuple:
    lines = [ln.split("#")[0].strip() for ln in path.read_text().splitlines()]
    return tuple(ln for ln in lines if ln)[:2]


def _identity(path: Path) -> Path:
    field, shape = _header(path)
    n = shape.split()[1]
    tag = "q" if field == "FIELD Q" else "gf" + field.split()[-1]
    return FACTOR / f"i{n}_{tag}.mat"


def _cases():
    out = []
    for m in INPUTS:
        i = _identity(m)
        for cmd in ("eldiv", "invfactors", "verify"):
            out.append((f"{cmd}-{m.stem}", [cmd, m]))
        for cmd in ("pencil-eldiv", "pencil-canon"):
            out.append((f"{cmd}-I-{m.stem}", [cmd, i, m]))
            out.append((f"{cmd}-{m.stem}-I", [cmd, m, i]))
        out.append((f"pencil-equiv-{m.stem}-swap", ["pencil-equiv", m, i, i, m]))
    for a in INPUTS:
        for b in INPUTS:
            if a.stem <= b.stem and _header(a) == _header(b):
                i = _identity(a)
                out.append((f"pencil-equiv-{a.stem}-{b.stem}",
                            ["pencil-equiv", i, a, i, b]))
    return [(f"{name}{suffix}", [argv[0]] + flags + [str(p) for p in argv[1:]])
            for name, argv in out
            for suffix, flags in ((".json", ["--json"]), (".txt", []))]


CASES = _cases()


def _run(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def _codes():
    return json.loads((FACTOR / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_report_is_byte_identical(name, argv):
    code, text = _run(argv)
    assert code == _codes()[name]
    assert text == (FACTOR / name).read_text(encoding="utf-8")


def test_every_case_has_a_stored_report():
    assert sorted(_codes()) == sorted(name for name, _ in CASES)


def _regen():
    codes = {}
    for name, argv in CASES:
        code, text = _run(argv)
        codes[name] = code
        (FACTOR / name).write_text(text, encoding="utf-8")
    (FACTOR / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} reports to {FACTOR}")


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    _regen()
