"""Byte-exact CLI outputs: every recorded command line prints the same
stdout and exits with the same code.  After an intended output change,
regenerate the data with ``PYTHONPATH=src python tests/test_cli_golden.py``,
which prints the command line of every case whose stdout or exit code
changed."""

import io
import json
import os

import pytest

from polyinj.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")
with open(DATA) as fh:
    CASES = json.load(fh)


def run(argv):
    out = io.StringIO()
    rc = main(list(argv), out=out)
    return rc, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_golden_output(case):
    assert run(case["argv"]) == (case["rc"], case["stdout"])


if __name__ == "__main__":
    for case in CASES:
        got = run(case["argv"])
        if got != (case["rc"], case["stdout"]):
            print("changed: " + " ".join(case["argv"]))
        case["rc"], case["stdout"] = got
    with open(DATA, "w") as fh:
        json.dump(CASES, fh, indent=1)
        fh.write("\n")
