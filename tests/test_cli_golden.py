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

from polyinj.cli import main

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
