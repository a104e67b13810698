"""Bounded fuzz of ``cli.run``: every subcommand that reads matrix files, on
small well-formed files (mixed fields and sizes across files) and on raw
bytes, and the numeric arguments themselves (``verify --trials`` and
``kron-form --kind/--size/--a/--b``: negatives, zero, values at and just over
each limit, 10^8 and non-integers).  Whatever the input, the run ends in
exit 0, 1 or 2 without an escaping exception (exit 1 with one input-error
line, otherwise a JSON report), and the ``--json`` report is the same on a
second run."""

import argparse
import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from canonforms.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUSED,
    MAX_KRON_SIZE,
    MAX_TRIALS,
    build_parser,
    run,
)


def _file_commands():
    """Subcommand name -> number of matrix-file arguments, read off the
    parser so a new file subcommand is fuzzed too."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(1 for a in p._actions if not a.option_strings)
              for name, p in sub.choices.items()}
    return {name: k for name, k in counts.items() if k}


FILE_COMMANDS = _file_commands()
FIELDS = ["Q", "GF 2", "GF 3", "GF 7"]


def test_fuzz_covers_every_file_subcommand():
    assert set(FILE_COMMANDS) == {
        "smith", "invfactors", "eldiv", "jordan", "rcf", "primary", "similar",
        "pencil-eldiv", "pencil-equiv", "pencil-canon", "oscillate", "verify"}


@st.composite
def _matrix_file(draw, field, size):
    cols = draw(st.sampled_from([size, size, size, 1, 2, 3]))
    entry = st.integers(-3, 3).map(str)
    if field == "Q":
        entry = st.one_of(entry, st.sampled_from(["1/2", "-2/3", "3/4"]))
    lines = [f"FIELD {field}", f"ROWS {size} COLS {cols}"]
    for _ in range(size):
        lines.append(" ".join(draw(entry) for _ in range(cols)))
    return ("\n".join(lines) + "\n").encode("ascii")


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(FILE_COMMANDS)))
    field = draw(st.sampled_from(FIELDS))
    size = draw(st.integers(1, 3))
    files = []
    for _ in range(FILE_COMMANDS[command]):
        # mostly files that fit together; some of another field or size,
        # some raw bytes
        kind = draw(st.sampled_from(["fit", "fit", "fit", "other", "bytes"]))
        if kind == "bytes":
            files.append(draw(st.binary(max_size=64)))
        elif kind == "other":
            files.append(draw(_matrix_file(draw(st.sampled_from(FIELDS)),
                                           draw(st.integers(1, 3)))))
        else:
            files.append(draw(_matrix_file(field, size)))
    flags = draw(st.sampled_from([[], ["--no-transform"]]))
    return command, files, flags


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _check_clean_and_stable(argv):
    first = _run(argv)
    code, out, err = first
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_REFUSED), first
    if code == EXIT_INPUT:
        assert out == "" and err.startswith("input error: "), first
        assert err.count("\n") == 1 and err.endswith("\n"), first
    else:
        json.loads(out)
    assert _run(argv) == first
    return code


def _write_files(tmp, files):
    paths = []
    for i, data in enumerate(files):
        path = os.path.join(tmp, f"m{i}.mat")
        with open(path, "wb") as fh:
            fh.write(data)
        paths.append(path)
    return paths


@settings(max_examples=150, deadline=None)
@given(_invocations())
def test_cli_run_exits_cleanly_and_json_is_stable(invocation):
    command, files, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        _check_clean_and_stable([command, "--json", *flags,
                                 *_write_files(tmp, files)])


def _number_text(low, high, extra):
    """Integers low..high as text, plus edge values and non-integers."""
    return st.one_of(st.integers(low, high).map(str),
                     st.sampled_from(extra + ["100000000", "-100000000", "2.5",
                                              "1e3", "x", "", " 3", "0x10", "1_0",
                                              "\u0663"]))


# accepted sizes stay <= 12 so that every run is quick
_SIZES = _number_text(-3, 12, [str(MAX_KRON_SIZE + 1)])
_TRIALS = _number_text(-3, 4, [str(MAX_TRIALS), str(MAX_TRIALS + 1)])


@st.composite
def _argument_invocations(draw):
    if draw(st.booleans()):
        field = draw(st.sampled_from(FIELDS))
        matrix = draw(_matrix_file(field, draw(st.integers(1, 3))))
        return ["verify", "--trials", draw(_TRIALS)], [matrix]
    argv = ["kron-form", "--kind", draw(st.sampled_from(["I", "II", "III", "IV", ""])),
            "--size", draw(_SIZES)]
    for flag in ("--a", "--b"):
        if draw(st.booleans()):
            argv += [flag, draw(_number_text(-4, 4, []))]
    return argv, []


@settings(max_examples=150, deadline=None)
@given(_argument_invocations())
def test_cli_arguments_exit_cleanly(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        code = _check_clean_and_stable(argv[:1] + ["--json"] + argv[1:]
                                       + _write_files(tmp, files))
    values = dict(zip(argv[1::2], argv[2::2]))
    for flag, low, limit in (("--trials", 0, MAX_TRIALS), ("--size", 2, MAX_KRON_SIZE),
                             ("--a", None, None), ("--b", None, None)):
        text = values.get(flag)
        if text is None:
            continue
        if not re.fullmatch(r"[+-]?[0-9]+", text) or (
                low is not None and not low <= int(text) <= limit):
            assert code == EXIT_INPUT
