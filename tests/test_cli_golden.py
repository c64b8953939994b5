"""Byte-exact CLI outputs: every recorded command line prints the same
stdout and exits with the same code.  After an intended output change,
regenerate the data with ``PYTHONPATH=src python tests/test_cli_golden.py``."""

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
        case["rc"], case["stdout"] = run(case["argv"])
    with open(DATA, "w") as fh:
        json.dump(CASES, fh, indent=1)
        fh.write("\n")
