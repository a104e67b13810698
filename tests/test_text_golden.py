"""Byte identity of the human text reports, with and without --no-transform.

The stored reports under tests/golden/text/ pin the text of `smith`, `rcf`,
`primary`, `jordan`, `similar`, `pencil-equiv`, `pencil-canon` and
`kron-form`, with their exit codes, on every sample_inputs/*.mat file and on
tests/golden/conj_j6_blocks21.mat.  `similar` runs on every pair of one size
and field.  Pencils pair each matrix M with the identity of its size and
field (tests/golden/factor/i<n>_<field>.mat): `pencil-canon` on (I, M) and
(M, I), `pencil-equiv` on (M, I) against (I, M) and on (I, A) against
(I, B).  `kron-form` runs each kind at two or more sizes.  Each case is
stored twice: `<name>.txt` as printed, `<name>.no-transform.txt` with
--no-transform, which drops exactly the transform matrices that the text
report would show.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_text_golden.py --regen
"""

import io
import json
import sys
from pathlib import Path

import pytest

from canonforms.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
TEXT = GOLDEN / "text"
INPUTS = sorted(ROOT.glob("sample_inputs/*.mat")) + [GOLDEN / "conj_j6_blocks21.mat"]
KRON = (("I", 2), ("I", 3), ("I", 4), ("I", 5), ("II", 2), ("II", 4),
        ("III", 3), ("III", 4))


def _header(path: Path) -> tuple:
    lines = [ln.split("#")[0].strip() for ln in path.read_text().splitlines()]
    return tuple(ln for ln in lines if ln)[:2]


def _identity(path: Path) -> Path:
    field, shape = _header(path)
    tag = "q" if field == "FIELD Q" else "gf" + field.split()[-1]
    return GOLDEN / "factor" / f"i{shape.split()[1]}_{tag}.mat"


def _cases():
    out = []
    for m in INPUTS:
        i = _identity(m)
        for cmd in ("smith", "rcf", "primary", "jordan"):
            out.append((f"{cmd}-{m.stem}", [cmd, m]))
        out.append((f"pencil-canon-I-{m.stem}", ["pencil-canon", i, m]))
        out.append((f"pencil-canon-{m.stem}-I", ["pencil-canon", m, i]))
        out.append((f"pencil-equiv-{m.stem}-swap", ["pencil-equiv", m, i, i, m]))
    for a in INPUTS:
        for b in INPUTS:
            if _header(a) != _header(b):
                continue
            out.append((f"similar-{a.stem}-{b.stem}", ["similar", a, b]))
            if a.stem <= b.stem:
                i = _identity(a)
                out.append((f"pencil-equiv-{a.stem}-{b.stem}",
                            ["pencil-equiv", i, a, i, b]))
    for kind, size in KRON:
        extra = ["--a", "3", "--b", "-1"] if kind == "III" else []
        out.append((f"kron-form-{kind}-{size}",
                    ["kron-form", "--kind", kind, "--size", str(size)] + extra))
    return [(f"{name}{suffix}", [str(a) for a in argv[:1] + flags + argv[1:]])
            for name, argv in out
            for suffix, flags in ((".txt", []), (".no-transform.txt", ["--no-transform"]))]


CASES = _cases()


def _run(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def _codes():
    return json.loads((TEXT / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_text_report_is_byte_identical(name, argv):
    code, text = _run(argv)
    assert code == _codes()[name]
    assert text == (TEXT / name).read_text(encoding="utf-8")


def test_every_case_has_a_stored_report():
    assert sorted(_codes()) == sorted(name for name, _ in CASES)


def _regen():
    TEXT.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES:
        code, text = _run(argv)
        codes[name] = code
        (TEXT / name).write_text(text, encoding="utf-8")
    (TEXT / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} reports to {TEXT}")


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    _regen()
