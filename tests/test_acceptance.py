"""Acceptance suite: every verification gate at full desk scale.

Tier-1 runs each suite of the registry ``checks.SUITES`` (closed form
against independent oracle, or a structural character identity) once at
its registry bound over the standard parameter grid.
``checks.run_suite`` runs a suite by its registry name at exactly the
degree it is given, and ``checks.run_all``, which ``selfcheck`` calls,
runs every suite capped at its bound.  So the golden case of the
full-grid ``selfcheck`` line in ``tests/data/cli_golden.json`` (today
``--deg-max 40``) already runs each suite whose bound is at most that
degree at its bound, and pins its status and instance count.  This
module runs the suites whose bound is higher, reading that degree from
the corpus, each printing a PASS line, and pins the runner's contract.
All comparisons are exact integer or character equality; there are no
tolerances anywhere.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyinj import checks, gl2
from polyinj.gl2 import is_gm_injective
from polyinj.schur import partitions
from polyinj.weights import GroupParams, Weight

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def _golden_selfcheck_deg_max():
    """The highest ``--deg-max`` of a passing full-grid ``selfcheck`` line
    of the golden corpus, or -1 if it has none."""
    argvs = [case["argv"] for case in json.loads(GOLDEN.read_text()) if case["rc"] == 0]
    return max((int(argv[argv.index("--deg-max") + 1]) for argv in argvs
                if argv[0] == "selfcheck" and "--deg-max" in argv and "--l" not in argv),
               default=-1)


BEYOND_GOLDEN = [name for name, (bound, _) in checks.SUITES.items() if bound > _golden_selfcheck_deg_max()]


def _require(result):
    assert result.ok, "\n".join(result.failures)
    print("PASS %s (%d instances)" % (result.name, result.instances))


@pytest.mark.parametrize("name", BEYOND_GOLDEN)
def test_suite_at_registry_bound(name):
    """The suite at its registry bound over (l,p) in {(1,2),(1,3),(1,5),
    (2,3),(3,2),(2,0),(3,0)}, for each suite whose bound is above the
    golden full-grid selfcheck degree."""
    _require(checks.run_suite(name, checks.SUITES[name][0], checks.PARAM_GRID))


def test_run_suite_runs_past_the_bound():
    """run_suite runs a registered suite at exactly the degree it is given,
    past its registry bound."""
    res = checks.run_suite("sympow-recursion", 70, (GroupParams(1, 2),))
    _require(res)
    assert res.instances == 71


def test_run_suite_rejects_an_unregistered_name():
    with pytest.raises(KeyError):
        checks.run_suite("sympow", 70, (GroupParams(1, 2),))


def _stub_suites(monkeypatch, keep=()):
    """Replace every suite function but those named in ``keep`` by a stub
    that records the arguments after the result, keyed by suite name."""
    handed = {}

    def record(res, *args):
        handed[res.name] = args
        return res

    for name in checks.SUITES:
        if name not in keep:
            monkeypatch.setattr(checks, "check_" + name.replace("-", "_"), record)
    return handed


def test_run_all_caps_each_suite_at_its_bound(monkeypatch):
    """run_all hands a suite min(deg_max, bound): sympow-recursion, bound
    60, counts 61 instances at deg_max 70 where run_suite counts 71."""
    _stub_suites(monkeypatch, keep=("sympow-recursion",))
    counts = {res.name: res.instances for res in checks.run_all(70, (GroupParams(1, 2),))}
    assert counts["sympow-recursion"] == 61


@pytest.mark.parametrize("name", list(checks.SUITES))
def test_suite_is_handed_its_degree_and_grid(name, monkeypatch):
    """The suite function takes a grid exactly when its registry entry
    says "params"; run_suite hands it the degree it is given and that grid,
    and run_all the degree capped at the registry bound."""
    bound, kind = checks.SUITES[name]
    check = getattr(checks, "check_" + name.replace("-", "_"))
    takes = ["res", "deg_max"] + (["grid"] if kind == "params" else [])
    assert list(inspect.signature(check).parameters) == takes
    grid = (GroupParams(1, 2),)
    passed = (grid,) if kind == "params" else ()
    handed = _stub_suites(monkeypatch)
    assert checks.run_suite(name, bound + 10, grid).name == name
    assert handed == {name: (bound + 10,) + passed}
    handed.clear()
    checks.run_all(bound + 10, grid)
    assert handed[name] == (bound,) + passed
    checks.run_all(bound - 1, grid)
    assert handed[name] == (bound - 1,) + passed


def test_registry_is_complete(monkeypatch):
    """Every public suite function is registered, selfcheck runs the
    registry in order through the module attributes (which a tracer may
    wrap), and each suite returns the very result it was handed, named
    after its registry entry."""
    registered = {"check_" + name.replace("-", "_") for name in checks.SUITES}
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
    assert [r.name for r in results] == list(checks.SUITES)
    assert len(calls) == len(results)
    assert all(handed is returned is res for (handed, returned), res in zip(calls, results))


# ---------------------------------------------------------------------------
# the kill matrix: a seeded fault is caught by the suites that claim it


def _partitions_drop_last_rank3(monkeypatch):
    original = checks.partitions
    monkeypatch.setattr(checks, "partitions",
                        lambda r, n: original(r, n)[:-1] if n == 3 else original(r, n))


def _criterion_strict(monkeypatch):
    monkeypatch.setattr(gl2, "injectivity_criterion",
                        lambda first, divind, n, e: first + e * divind > (n - 1) * (e - 1))


def _simple_zero_lowest(monkeypatch):
    original = gl2._simple_character  # memoized; its recursion reads the patched name

    def mutant(n, params):
        v = original(n, params)
        return (0,) + v[1:] if params.p > 0 else v

    monkeypatch.setattr(gl2, "_simple_character", mutant)


@pytest.fixture
def fresh_gl2_memos(monkeypatch):
    """Empty the rank-2 character memos before a mutant runs and after, so
    no mutated vector outlives the test."""
    memos = (gl2._simple_character, gl2._sympow_recursive)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.mark.parametrize("mutate, killers", [
    (_partitions_drop_last_rank3, {"dominance-order"}),
    (_criterion_strict, {"injectivity-equivalence", "higher-kernels"}),
    (_simple_zero_lowest, {"character-ring", "sympow-recursion", "peeling-soundness"}),
], ids=["partitions-drop-last-rank3", "criterion-strict", "simple-zero-lowest"])
def test_mutant_is_killed(mutate, killers, monkeypatch, fresh_gl2_memos):
    """``selfcheck --deg-max 40`` on the parameter grid fails exactly the
    suites named for each seeded fault (unmutated, it fails none: the
    golden ``selfcheck`` line)."""
    mutate(monkeypatch)
    failed = {res.name for res in checks.run_all(40) if not res.ok}
    assert failed == killers


def test_dominance_order_counts_every_slice(monkeypatch):
    """The dominance-order suite holds every partitions(r, n) slice to a
    count built without partitions: dropping the last rank-3 weight fails
    it once at each degree r = 0..12."""
    _partitions_drop_last_rank3(monkeypatch)
    res = checks.run_suite("dominance-order", 12, None)
    assert res.failure_count == 13
    counts = [len(partitions(r, 3)) for r in range(5)]
    assert res.failures == ["partitions(%d, 3) has %d weights, not %d" % (r, c - 1, c)
                            for r, c in enumerate(counts)]


def test_higher_kernel_monotonicity_and_instance():
    """Injectivity over a deeper Frobenius kernel implies injectivity over
    the shallower ones on the kernel grid, classical and quantum parameter
    sets with p in {2, 3}, at the registry bound; and the worked instance:
    (2,1) at l=1, p=2 is injective over the first kernel but not the
    second."""
    _require(checks.run_suite("higher-kernels", checks.SUITES["higher-kernels"][0], checks.KERNEL_GRID))
    lam = Weight((2, 1))
    assert is_gm_injective(lam, 1, GroupParams(1, 2)) is True
    assert is_gm_injective(lam, 2, GroupParams(1, 2)) is False
    print("PASS higher-kernel worked instance")


def test_table_output_deterministic():
    """`table` at degree 15 is byte-identical across fresh interpreter runs
    under different hash seeds (row generation is sequential and sorted, so
    thread count cannot influence it)."""
    deg_max = "15"
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
