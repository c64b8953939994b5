"""Acceptance suite: every verification gate at full desk scale.

Every registered suite (closed form against independent oracle, or a
structural character identity) runs at its registry bound over the
standard parameter grid, through the same dispatch as ``selfcheck``, and
prints a PASS line.  All comparisons are exact integer or character
equality; there are no tolerances anywhere.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyinj import checks
from polyinj.gl2 import is_gm_injective
from polyinj.weights import GroupParams, Weight

SUITES = {suite[0]: suite for suite in checks.SUITES}


def _require(result):
    assert result.ok, "\n".join(result.failures)
    print("PASS %s (%d instances)" % (result.name, result.instances))


@pytest.mark.parametrize("suite", checks.SUITES, ids=[suite[0] for suite in checks.SUITES])
def test_suite_at_registry_bound(suite):
    """The suite at its registry bound over (l,p) in {(1,2),(1,3),(1,5),
    (2,3),(3,2),(2,0),(3,0)}; higher-kernels on the positive-p pairs."""
    _require(checks.run_suite(suite, suite[1], checks.PARAM_GRID))


def test_registry_is_complete(monkeypatch):
    """Every public suite function is registered, selfcheck runs the
    registry in order through the module attributes (which a tracer may
    wrap), and each suite returns the very result it was handed, named
    after its registry entry."""
    registered = {"check_" + name.replace("-", "_") for name in SUITES}
    public = {name for name in vars(checks) if name.startswith("check_")}
    assert public == registered
    calls = []

    def recording(check):
        def wrapper(res, *args):
            calls.append((res, check(res, *args)))
            return calls[-1][1]
        return wrapper

    for attr in registered:
        monkeypatch.setattr(checks, attr, recording(getattr(checks, attr)))
    results = checks.run_all(0)
    assert [r.name for r in results] == list(SUITES)
    assert len(calls) == len(results)
    assert all(handed is returned is res for (handed, returned), res in zip(calls, results))


def test_higher_kernel_monotonicity_and_instance():
    """Injectivity over a deeper Frobenius kernel implies injectivity over
    the shallower ones on the kernel grid, classical and quantum parameter
    sets with p in {2, 3}, at the registry bound; and the worked instance:
    (2,1) at l=1, p=2 is injective over the first kernel but not the
    second."""
    suite = SUITES["higher-kernels"]
    _require(checks.run_suite(suite, suite[1], checks.KERNEL_GRID))
    lam = Weight((2, 1))
    assert is_gm_injective(lam, 1, GroupParams(1, 2)) is True
    assert is_gm_injective(lam, 2, GroupParams(1, 2)) is False
    print("PASS higher-kernel worked instance")


def test_table_output_deterministic():
    """`table` at the table-determinism bound is byte-identical across fresh
    interpreter runs under different hash seeds (in-process re-rendering is
    the suite itself; row generation is sequential and sorted, so thread
    count cannot influence it)."""
    deg_max = str(SUITES["table-determinism"][1])
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = {}
    for fmt in ("text", "csv"):
        for seed in ("0", "1"):
            env = os.environ.copy()
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-m", "polyinj", "table", "--deg-max", deg_max,
                 "--l", "1", "--p", "2", "--format", fmt],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.setdefault(fmt, set()).add(proc.stdout)
    assert all(len(v) == 1 for v in outputs.values()), "output differs across hash seeds"
    print("PASS table byte-determinism across interpreter runs")
