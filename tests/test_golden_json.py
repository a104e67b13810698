"""Byte identity of the `--json` reports on the golden inputs.

The stored reports under tests/golden/ pin `smith`, `rcf`, `primary`,
`jordan` and `similar` on every sample_inputs/*.mat file and on the extra
inputs in tests/golden/*.mat (a conjugated Jordan matrix over Q, so that
`similar` has a nontrivial witness, and a GF(7) matrix whose characteristic
polynomial does not split, so that `jordan` refuses).  Refactors of the
transform engine must keep every byte.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_json.py --regen
"""

import io
import json
import sys
from pathlib import Path

import pytest

from canonforms.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted(ROOT.glob("sample_inputs/*.mat")) + sorted(GOLDEN.glob("*.mat"))
SINGLE = ("smith", "rcf", "primary", "jordan")


def _header(path: Path) -> tuple:
    lines = [ln.split("#")[0].strip() for ln in path.read_text().splitlines()]
    return tuple(ln for ln in lines if ln)[:2]


def _cases():
    out = []
    for path in INPUTS:
        for cmd in SINGLE:
            out.append((f"{cmd}-{path.stem}", [cmd, str(path)]))
    for a in INPUTS:
        for b in INPUTS:
            if _header(a) == _header(b):
                out.append((f"similar-{a.stem}-{b.stem}",
                            ["similar", str(a), str(b)]))
    return out


CASES = _cases()


def _run_json(argv):
    buf = io.StringIO()
    code = run(argv[:1] + ["--json"] + argv[1:], out=buf)
    return code, buf.getvalue()


def _codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_json_report_is_byte_identical(name, argv):
    code, text = _run_json(argv)
    assert code == _codes()[name]
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_every_case_has_a_stored_report():
    assert sorted(_codes()) == sorted(name for name, _ in CASES)


def _regen():
    codes = {}
    for name, argv in CASES:
        code, text = _run_json(argv)
        codes[name] = code
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} reports to {GOLDEN}")


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    _regen()
