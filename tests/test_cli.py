import argparse
import io
import json
import time

import pytest

from polyinj import checks, gl2, weights
from polyinj.characters import Character
from polyinj.cli import COLUMN_ROW_LIMIT, COMMANDS, main, render
from polyinj.weights import GroupParams, Weight


def run(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


def test_classify_text():
    rc, out = run(["classify", "--weight", "2,1", "--l", "1", "--p", "2"])
    assert rc == 0
    assert "critical: false" in out
    assert "divind: 1" in out
    assert "inf_injective: true" in out
    assert "standard_form: Q(1,0)*D^1*I(0,0)^F" in out
    assert "oracle_checked: true" in out


def test_classify_trivial_weight():
    rc, out = run(["classify", "--weight", "0,0", "--l", "1", "--p", "3"])
    assert rc == 0
    assert "critical: true" in out
    assert "inf_injective: false" in out


def test_classify_json_round_trip():
    rc, out = run(["classify", "--weight", "2,1", "--l", "1", "--p", "2", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["divind"] == 1 and obj["inf_injective"] is True
    assert obj["standard_form"]["q_weight"] == [1, 0]


def test_classify_higher_rank_conditional():
    rc, out = run(["classify", "--weight", "3,1,0", "--l", "1", "--p", "2"])
    assert rc == 0
    assert "quantum digit: (1,1,0)" in out
    assert "steinberg_range: false" in out
    assert "verdict: conditional" in out


def test_classify_higher_rank_steinberg():
    rc, out = run(["classify", "--weight", "2,1,0", "--l", "1", "--p", "2"])
    assert rc == 0
    assert "steinberg_range: true" in out
    assert "infinitesimally injective" in out


def test_expand():
    rc, out = run(["expand", "--weight", "6,1", "--l", "2", "--p", "2"])
    assert rc == 0
    assert "quantum digit (base 2): (2,1)" in out
    assert "classical digits (base 2): (0,0) (1,0)" in out

    rc, out = run(["expand", "--weight", "2,2", "--l", "2", "--p", "0"])
    assert rc == 0
    assert "classical weight (unrefined): (1,1)" in out


def test_char_kinds():
    rc, out = run(["char", "schur", "--weight", "2,1"])
    assert rc == 0 and out.strip() == "1 * (2,1) + 1 * (1,2)"

    rc, out = run(["char", "simple", "--weight", "2,0", "--l", "1", "--p", "2"])
    assert rc == 0 and out.strip() == "1 * (2,0) + 1 * (0,2)"

    rc, out = run(["char", "injective", "--weight", "1,1", "--l", "1", "--p", "2"])
    assert rc == 0 and out.strip() == "1 * (2,0) + 2 * (1,1) + 1 * (0,2)"

    rc, out = run(["char", "sympow", "--weight", "4", "--l", "3", "--p", "2"])
    assert rc == 0 and out.strip() == str(gl2.sympow_character_recursive(4, GroupParams(3, 2)))


def test_divind_check():
    rc, out = run(["divind", "--weight", "5,2", "--l", "2", "--p", "2", "--check"])
    assert rc == 0
    assert "divind: 2" in out and "oracle: 2 (agrees)" in out


def test_usage_errors_exit_one():
    assert run(["classify", "--weight", "2,x", "--l", "1", "--p", "2"])[0] == 1
    assert run(["classify", "--weight", "2,1", "--l", "1", "--p", "0"])[0] == 1
    assert run(["classify", "--weight", "2,1"])[0] == 1  # missing params
    assert run(["divind", "--weight", "3,1,0", "--l", "1", "--p", "2"])[0] == 1
    assert run(["nonsense"])[0] == 1
    assert run(["classify", "--weight", "1,2", "--l", "1", "--p", "2"])[0] == 1
    assert run(["selfcheck", "--deg-max", "-1"])[0] == 1
    assert run(["table", "--deg-max", "2", "--l", "1", "--p", "2", "--gm-max", "-1"])[0] == 1
    assert run(["char", "sympow", "--weight", "3,-1", "--l", "1", "--p", "2"])[0] == 1
    assert run(["classify", "--weight", "2,1", "--l", "1", "--p", str(10 ** 25)])[0] == 1
    t0 = time.perf_counter()
    assert run(["char", "schur", "--weight", "12,8,4,2,1,0"])[0] == 1  # 38,675,000 tableaux
    assert run(["char", "schur", "--weight", "2000000,0"])[0] == 1  # 2,000,001 tableaux
    assert run(["char", "sympow", "--weight", "1000000", "--l", "1", "--p", "2"])[0] == 1
    assert run(["char", "simple", "--weight", "2000000,0", "--l", "3", "--p", "0"])[0] == 1
    assert run(["table", "--deg-max", "800", "--l", "1", "--p", "2"])[0] == 1  # 160,801 rows
    # one row of 1,000,006 cells
    assert run(["table", "--deg-max", "0", "--l", "1", "--p", "2", "--gm-max", "1000000"])[0] == 1
    # columns of 16,001 rows
    assert run(["char", "injective", "--weight", "48000,16000", "--l", "1", "--p", "2"])[0] == 1
    assert run(["classify", "--weight", "48000,16000", "--l", "1", "--p", "2", "--check"])[0] == 1
    assert run(["divind", "--weight", "48000,16000", "--l", "1", "--p", "2", "--check"])[0] == 1
    assert time.perf_counter() - t0 < 3


def test_classify_large_prime():
    """Primality of a 62-bit p is decided without trial division."""
    t0 = time.perf_counter()
    rc, out = run(["classify", "--weight", "2,1", "--l", "1", "--p", str(2 ** 62 - 57)])
    assert rc == 0 and "divind: 1" in out
    assert time.perf_counter() - t0 < 2


def test_classify_long_weight():
    """A weight of 701 digit layers gets a closed-form verdict."""
    rc, out = run(["classify", "--weight", "%d,1" % 2 ** 700, "--l", "1", "--p", "2"])
    assert rc == 0 and "divind: 1" in out


def test_char_schur_near_the_term_budget():
    """The Schur character of 7,5,2,2,2,2,2,0 (996,072 tableaux, just under
    TERM_LIMIT) answers within the time the budget is meant to bound."""
    t0 = time.perf_counter()
    rc, out = run(["char", "schur", "--weight", "7,5,2,2,2,2,2,0"])
    assert rc == 0 and "1 * (7,5,2,2,2,2,2,0)" in out
    assert time.perf_counter() - t0 < 3


def test_char_schur_at_rank_1000():
    """The budget check of a rank-1000 weight stays small: (1,0,...,0) has
    1,000 tableaux, and its character answers within seconds."""
    t0 = time.perf_counter()
    rc, out = run(["char", "schur", "--weight", "1" + ",0" * 999])
    assert rc == 0 and out.count(" * (") == 1000
    assert time.perf_counter() - t0 < 3


def test_render_contract():
    """A None key is text only and a None line JSON only; JSON keys come
    out sorted, a Weight and a tuple of Weights as (nested) lists."""
    record = [("weight", Weight([2, 1]), "weight: (2,1)"), (None, None, "text only"),
              ("digits", (Weight([1, 0]), Weight([0, 1])), None), ("a", 0, "a: 0")]
    assert render(record, "text") == "weight: (2,1)\ntext only\na: 0\n"
    out = render(record, "json")
    assert list(json.loads(out)) == ["a", "digits", "weight"]
    assert json.loads(out) == {"a": 0, "digits": [[1, 0], [0, 1]], "weight": [2, 1]}


def test_classify_check_reach():
    """The oracles at degree 500 answer in seconds."""
    t0 = time.perf_counter()
    rc, out = run(["classify", "--weight", "400,100", "--l", "1", "--p", "2", "--check"])
    assert rc == 0 and "oracle_checked: true" in out
    assert time.perf_counter() - t0 < 10


def test_classify_check_at_the_column_row_budget():
    """The row budget's worst accepted case, det^8191 at (1, 2), whose
    column has all of its 8,192 rows nonzero, answers in seconds."""
    top = COLUMN_ROW_LIMIT - 1
    t0 = time.perf_counter()
    rc, out = run(["classify", "--weight", "%d,%d" % (top, top), "--l", "1", "--p", "2", "--check"])
    assert rc == 0 and "oracle_checked: true" in out
    assert time.perf_counter() - t0 < 3


def test_unasked_oracle_columns_fit_the_row_budget():
    """classify solves a column unasked at every degree up to
    ORACLE_DEGREE_LIMIT, and the CLI budgets columns only under --check, so
    the deepest unasked column, lam_2 + 1 <= limit // 2 + 1 rows, must fit
    the row budget whatever the limit is raised to."""
    assert gl2.ORACLE_DEGREE_LIMIT // 2 + 1 <= COLUMN_ROW_LIMIT


def test_classical_layer_reuses_q1_params(monkeypatch):
    """The classical layer is the parameters themselves at l=1 and one
    shared instance per p at l >= 2, so a cold checked classification tests
    primality only when it parses --p and builds that instance."""
    params = GroupParams(1, 2)
    assert params.classical() is params
    assert GroupParams(4, 2).classical() is GroupParams(3, 2).classical() == params
    calls = []
    is_prime = weights._is_prime
    monkeypatch.setattr(weights, "_is_prime", lambda m: calls.append(m) or is_prime(m))
    for l in ("1", "4"):
        for module in (weights, gl2):
            for table in vars(module).values():
                if hasattr(table, "cache_clear"):
                    table.cache_clear()
        calls.clear()
        rc, _ = run(["classify", "--weight", "100,40", "--l", l, "--p", "2", "--check"])
        assert rc == 0 and len(calls) <= 2


def test_table_single_row():
    rc, out = run(["table", "--deg-max", "0", "--l", "1", "--p", "2"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2  # header + the zero weight
    assert lines[1].startswith("0\t0,0\ttrue\t0\tfalse")


def test_table_rows_match_worked_examples():
    rc, out = run(["table", "--deg-max", "2", "--l", "1", "--p", "2"])
    assert rc == 0
    lines = out.strip().split("\n")[1:]
    got = {line.split("\t")[1]: line.split("\t")[4] for line in lines}
    assert got == {"0,0": "false", "1,0": "true", "2,0": "false", "1,1": "true"}


def test_table_csv_header_and_sorting():
    import csv

    rc, out = run(
        ["table", "--deg-max", "3", "--l", "2", "--p", "0", "--gm-max", "2", "--format", "csv"]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["degree", "weight", "critical", "divind", "inf_injective", "gm1", "gm2", "standard_form"]
    degrees = [int(row[0]) for row in rows[1:]]
    assert degrees == sorted(degrees)
    # within a degree, weights come lex-descending
    assert [row[1] for row in rows[1:] if row[0] == "2"] == ["2,0", "1,1"]
    # characteristic zero: kernel columns beyond the first are blank
    row21 = [row for row in rows[1:] if row[1] == "2,1"][0]
    assert row21[6] == "" and row21[5] in ("true", "false")


def test_table_json_matches_library():
    """Every row of the JSON table carries the library's verdicts."""
    params = GroupParams(1, 2)
    rc, out = run(["table", "--deg-max", "4", "--l", "1", "--p", "2", "--gm-max", "2", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 9
    for row in rows:
        lam = Weight(row["weight"])
        cls = gl2.classify(lam, params)
        assert (row["critical"], row["divind"], row["inf_injective"]) == (
            cls.critical, cls.divind, cls.inf_injective)
        std = cls.standard_form
        assert row["standard_form"] == (None if std is None else {
            "q_weight": list(std.q_weight), "det_power": std.det_power,
            "bar_weight": list(std.bar_weight), "branch": std.branch})
        assert row["gm_flags"] == [gl2.is_gm_injective(lam, m, params) for m in (1, 2)]


def _divind_off_by_one(original):
    return lambda layers: original(layers) + 1


def _column_doubled_at_row_3(original):
    def corrupted(lam, params):
        col = original(lam, params)
        if lam[1] == 3:
            col[-1] *= 2  # the pivot [induced(lam) : simple(lam)], 1 in truth
        return col
    return corrupted


def _criticality_flipped_at_digit_21(original):
    return lambda layers: original(layers) != (layers[0][0] == (2, 1))


@pytest.mark.parametrize("attr, corrupt, suite", [
    ("_divind_formula", _divind_off_by_one, "divind-equivalence"),
    ("_column", _column_doubled_at_row_3, "divisibility-shift"),
    ("_all_critical", _criticality_flipped_at_digit_21, "criticality-equivalence"),
], ids=["divind-equivalence", "divisibility-shift", "criticality-equivalence"])
def test_selfcheck_reports_corrupted_closed_form(monkeypatch, attr, corrupt, suite):
    """A deliberately corrupted closed form or decomposition column must be
    caught and named by the suite that compares it, with a nonzero exit."""
    monkeypatch.setattr(gl2, attr, corrupt(getattr(gl2, attr)))
    rc, out = run(["selfcheck", "--deg-max", "8", "--l", "1", "--p", "2"])
    assert rc == 2
    assert any(line.startswith("FAIL") and suite in line for line in out.split("\n"))


def test_suite_result_counts_every_failure():
    res = checks.SuiteResult("demo")
    for i in range(8):
        res.fail("failure %d" % i)
    assert not res.ok and res.failure_count == 8 and len(res.failures) == 5
    assert res.summary().endswith("failure 4\n      ... and 3 more")
    few = checks.SuiteResult("demo")
    few.fail("only one")
    assert "more" not in few.summary()
    clean = checks.SuiteResult("demo", instances=3)
    assert clean.ok and clean.summary() == "ok    demo                               3 instances"


def test_crashed_suite_names_the_exception(monkeypatch):
    def boom(*args, **kwargs):
        raise KeyError("no such table")

    monkeypatch.setattr(checks, "check_table_determinism", boom)
    crashed = checks.run_all(deg_max=0, grid=(GroupParams(1, 2),))[-1]
    assert crashed.name == "table-determinism"
    assert crashed.failures == ["suite crashed after 0 instances: KeyError('no such table')"]


def test_suite_crash_mid_sweep_names_the_instance(monkeypatch):
    """A suite that raises mid-sweep keeps its partial count, and its FAIL
    line names the weight and params under test and the exception, even one
    whose message is empty."""
    original = gl2.divind_injective_oracle

    def stops(lam, params):
        if lam == Weight((5, 2)) and params == GroupParams(1, 2):
            raise StopIteration
        return original(lam, params)

    monkeypatch.setattr(gl2, "divind_injective_oracle", stops)
    rc, out = run(["selfcheck", "--deg-max", "7", "--l", "1", "--p", "2"])
    assert rc == 2
    assert ("FAIL  divind-equivalence                19 instances\n"
            "      suite crashed after 19 instances at Weight(5, 2) l=1,p=2: StopIteration()") in out


@pytest.mark.parametrize("module, attr, bad, expected", [
    (checks, "schur_character_jt", Weight((2, 1, 0)),
     "FAIL  schur-agreement                   16 instances\n"
     "      suite crashed after 16 instances at Weight(2, 1, 0)"),
    (checks, "dominance_leq", Weight((2, 1)),
     "FAIL  dominance-order                   10 instances\n"
     "      suite crashed after 10 instances at Weight(2, 1)"),
    # character-ring's two random pools name the sampled pair
    (checks, "min_last_entry", None,
     "FAIL  character-ring                     1 instances\n"
     "      suite crashed after 1 instances at (Weight(1, 1), Weight(1, 1))"),
    (Character, "twist", None,
     "FAIL  character-ring                    26 instances\n"
     "      suite crashed after 26 instances at (Weight(2, 1), Weight(2, 1))"),
    # its simple-basis peeling names the product's two weights and their (l, p)
    (gl2, "simple_character", Weight((1, 0)),
     "FAIL  character-ring                   152 instances\n"
     "      suite crashed after 152 instances at (Weight(0, 0), Weight(1, 0)) l=1,p=2"),
    # sympow-recursion takes (l, p), so its weight (r, 0) comes with them
    (gl2, "sympow_character_recursive", 2,
     "FAIL  sympow-recursion                   3 instances\n"
     "      suite crashed after 3 instances at Weight(2, 0) l=1,p=2"),
], ids=["schur-agreement", "dominance-order", "character-ring-pool",
        "character-ring-small-pool", "character-ring-peeling", "sympow-recursion"])
def test_rank_generic_suite_crash_names_the_weight(monkeypatch, module, attr, bad, expected):
    """A crash names the instance under test: the weight alone in a suite
    that takes no (l, p), the pair in a random pool, the pair and its
    (l, p) in a product that is peeled.  ``bad`` None fails every call."""
    original = getattr(module, attr)

    def fails(first, *rest):
        if bad is None or first == bad:
            raise RuntimeError("injected")
        return original(first, *rest)

    monkeypatch.setattr(module, attr, fails)
    rc, out = run(["selfcheck", "--deg-max", "3", "--l", "1", "--p", "2"])
    assert rc == 2
    assert expected + ": RuntimeError('injected')" in out


def _no_simple_support(original):
    return lambda n, e, p, width: 0


@pytest.mark.parametrize("corruptions, argv", [
    ([("_divind_formula", _divind_off_by_one)], ["divind", "--weight", "2,1", "--l", "1", "--p", "2"]),
    # a column that cannot be solved is an oracle failure too, not a usage error
    ([("_simple_support", _no_simple_support)],
     ["classify", "--weight", "5,2", "--l", "1", "--p", "2", "--check"]),
    ([("_simple_support", _no_simple_support)],
     ["char", "injective", "--weight", "5,2", "--l", "1", "--p", "2"]),
    # both divind forms off alike, above the oracle degree limit: only the
    # Steinberg edge of the standard form catches them
    ([("_divind_by_layers", _divind_off_by_one), ("_divind_formula", _divind_off_by_one)],
     ["classify", "--weight", "1000000234567,300000000089", "--l", "3", "--p", "2"]),
], ids=["divind", "classify-check", "char-injective", "classify-steinberg-edge"])
def test_oracle_mismatch_exit_code(monkeypatch, capsys, corruptions, argv):
    for attr, corrupt in corruptions:
        monkeypatch.setattr(gl2, attr, corrupt(getattr(gl2, attr)))
    rc, _ = run(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith("oracle disagreement: ")


def test_divind_check_runs_every_classify_oracle(monkeypatch):
    """divind --check is classify's oracle check, so an inverted injectivity
    inequality fails it; unchecked above the oracle degree limit, no oracle runs."""
    original = gl2.is_inf_injective_inequality
    monkeypatch.setattr(gl2, "is_inf_injective_inequality",
                        lambda lam, params: not original(lam, params))
    assert run(["divind", "--weight", "5,2", "--l", "2", "--p", "2", "--check"])[0] == 2
    assert run(["divind", "--weight", "60,30", "--l", "1", "--p", "2"])[0] == 0


def test_classify_builds_only_its_own_parser(monkeypatch):
    options, progs = [], []
    add_argument = argparse._ActionsContainer.add_argument
    init = argparse.ArgumentParser.__init__

    def counting_add_argument(self, *flags, **kwargs):
        options.append(flags[0])
        return add_argument(self, *flags, **kwargs)

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting_add_argument)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    rc, _ = run(["classify", "--weight", "2,1", "--l", "1", "--p", "2"])
    assert rc == 0
    assert progs == ["polyinj classify"]
    assert options == ["-h", "--weight", "--l", "--p", "--check", "--format"]
    # an argument left over falls back to the parser of every subcommand
    progs.clear()
    rc, _ = run(["classify", "--weight", "2,1", "--l", "1", "--p", "2", "extra"])
    assert rc == 1
    assert progs == ["polyinj classify", "polyinj"] + ["polyinj " + name for name in COMMANDS]

