"""Byte-exact CLI outputs: every recorded command line prints the same
stdout and exits with the same code; a case with a ``stderr`` field also
prints the same stderr.  Help text, which argparse writes to
``sys.stdout``, counts as stdout.  Terminal width is pinned to 80 columns
because argparse wraps help and usage lines at it.  After an intended
output change, regenerate the data with
``PYTHONPATH=src python tests/test_cli_golden.py``, which prints the
command line of every case whose recorded output changed; to cover stderr
in a new case, give it a ``stderr`` field (any value) before regenerating."""

import contextlib
import io
import json
import os

import pytest

from polyinj.cli import COMMANDS, build_parser, main, parse_args

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")
with open(DATA) as fh:
    CASES = json.load(fh)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv), out=out)
    return rc, out.getvalue(), err.getvalue()


def expected(case):
    return (case["rc"], case["stdout"]) + ((case["stderr"],) if "stderr" in case else ())


def recorded(case, got):
    """``got`` cut down to the fields ``case`` records."""
    rc, stdout, stderr = got
    return (rc, stdout, stderr) if "stderr" in case else (rc, stdout)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert recorded(case, run(case["argv"])) == expected(case)


# lines not recorded above: "--" before or after the name, "=" and prefix
# options, a negative number as a value, an argument left over after the
# kind, help after options and a repeated option
VARIANTS = [
    ["--", "classify", "--weight", "5,2", "--l", "1", "--p", "2"],
    ["classify", "--", "--weight", "5,2", "--l", "1", "--p", "2"],
    ["classify", "--weight=5,2", "--l", "1", "--p", "2"],
    ["classify", "--wei", "5,2", "--p", "0", "--l", "3"],
    ["classify", "--weight", "5,2", "--l", "-1", "--p", "2"],
    ["char", "--weight", "5,2", "schur", "x"],
    ["classify", "--weight", "5,2", "--l", "1", "--p", "2", "-h"],
    ["classify", "--weight", "5,2", "--l", "1", "--p", "2", "--format", "json", "--format", "text"],
]


def parsed(parse, argv):
    """``vars`` of the namespace, or the exit code and output of a parse
    that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [case["argv"] for case in CASES
                                  if case["argv"] and case["argv"][0] in COMMANDS] + VARIANTS,
                         ids=" ".join)
def test_subcommand_parser_matches_full_parser(argv, monkeypatch):
    """A line parsed by its subcommand's parser alone gives the namespace,
    or the exit code, help and error bytes, of the parser of every
    subcommand, at any terminal width."""
    for columns in ("60", "80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        assert parsed(parse_args, argv) == parsed(lambda a: build_parser().parse_args(a), argv)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for case in CASES:
        rc, stdout, stderr = got = run(case["argv"])
        if recorded(case, got) != expected(case):
            print("changed: " + " ".join(case["argv"]))
        case["rc"], case["stdout"] = rc, stdout
        if "stderr" in case:
            case["stderr"] = stderr
    with open(DATA, "w") as fh:
        json.dump(CASES, fh, indent=1)
        fh.write("\n")
