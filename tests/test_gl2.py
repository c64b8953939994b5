import hashlib
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from polyinj import checks, cli, gl2
from polyinj.characters import Character, PeelError, min_last_entry, peel_into_basis
from polyinj.checks import PARAM_GRID, WIDE_GRID
from polyinj.gl2 import (
    TOP_DIGIT_LARGE,
    TOP_DIGIT_SMALL,
    classify,
    decomposition_number,
    divind_injective_closed,
    divind_injective_oracle,
    injective_character,
    is_critical_closed,
    is_gm_injective,
    is_inf_injective_inequality,
    reconstruct_weight,
    simple_character,
    standard_form,
    standard_form_character,
    sympow_character_recursive,
)
from polyinj.schur import h_character, partitions, schur_character, tableau_count
from polyinj.weights import GroupParams, Weight, digit_expansion, eadic_split, omega

P12 = GroupParams(1, 2)
P13 = GroupParams(1, 3)
P22 = GroupParams(2, 2)
P32 = GroupParams(3, 2)
P20 = GroupParams(2, 0)


def W(*entries):
    return Weight(entries)


# ---------------------------------------------------------------------------
# characters


def test_simple_character_examples():
    assert simple_character(W(1, 0), P12) == Character(2, {(1, 0): 1, (0, 1): 1})
    assert simple_character(W(2, 0), P12) == Character(2, {(2, 0): 1, (0, 2): 1})
    assert simple_character(W(5, 2), P22) == Character(
        2, {(5, 2): 1, (4, 3): 1, (3, 4): 1, (2, 5): 1}
    )
    # characteristic zero: the layer under the twist is a full Schur character
    assert simple_character(W(2, 2), P20) == Character.monomial((2, 2))
    assert simple_character(W(4, 0), P20) == Character(2, {(4, 0): 1, (2, 2): 1, (0, 4): 1})


def test_simple_character_highest_weight_multiplicity_one():
    for params in (P12, P22, P20):
        for r in range(12):
            for lam in partitions(r, 2):
                assert simple_character(lam, params).coeff(lam) == 1


@pytest.mark.parametrize("params", PARAM_GRID, ids=str)
def test_simple_and_induced_characters_have_divisibility_lam2(params):
    """The lowest term of the simple character of lam, like that of the
    induced (Schur) character, is the determinant shift lam_2: both have
    divisibility index lam_2, up to degree 20."""
    for r in range(21):
        for lam in partitions(r, 2):
            assert min_last_entry(simple_character(lam, params)) == lam[1], lam
            assert min_last_entry(schur_character(lam)) == lam[1], lam


def test_simple_character_rejects_bad_weights():
    with pytest.raises(ValueError):
        simple_character(W(1, 2), P12)
    with pytest.raises(ValueError):
        simple_character(W(1, 0, 0), P12)


def classify_rank_n(lam):
    args = cli.parse_args(["classify", "--weight", ",".join(map(str, lam)), "--l", "1", "--p", "2"])
    return args.func(args)


@pytest.mark.parametrize(
    "check, lam, message",
    [
        (gl2._check_weight, W(1, 0, 0), "rank-2 routine got a rank-3 weight"),
        (gl2._check_weight, W(1, 2), "expected a dominant polynomial weight"),
        (gl2._check_weight, W(-1, -2), "expected a dominant polynomial weight"),
        (gl2._check_weight, W(0, -1), "expected a dominant polynomial weight"),
        (gl2._check_weight, (1, 2), "expected a dominant polynomial weight"),
        (gl2._check_weight, [-1, -2], "expected a dominant polynomial weight"),
        (gl2._check_weight, (1, 0.5), "not an integer"),
        # every other entry point that needs a partition reads the one validator
        (schur_character, W(2, 5), r"expected a dominant polynomial weight, got Weight\(2, 5\)$"),
        (tableau_count, W(1, 2, 0), r"expected a dominant polynomial weight, got Weight\(1, 2, 0\)$"),
        (lambda lam: digit_expansion(lam, P12), W(3, -1),
         r"expected a dominant polynomial weight, got Weight\(3, -1\)$"),
        (classify_rank_n, W(1, 2, 3), r"expected a dominant polynomial weight, got Weight\(1, 2, 3\)$"),
    ],
    ids=["rank-3", "ascending", "negative", "last-negative", "tuple", "list", "float",
         "schur_character", "tableau_count", "digit_expansion", "classify-rank-3"],
)
def test_check_weight_rejects(check, lam, message):
    with pytest.raises(ValueError, match=message):
        check(lam)


def test_check_weight_accepts_and_coerces():
    lam = W(5, 2)
    assert gl2._check_weight(lam) is lam
    for given in ([5, 2], (5, 2), (5, True + 1)):
        got = gl2._check_weight(given)
        assert type(got) is Weight and got == lam and all(type(a) is int for a in got)
    np = pytest.importorskip("numpy")
    got = gl2._check_weight((np.int64(5), np.int32(2)))
    assert type(got) is Weight and got == lam and all(type(a) is int for a in got)
    assert gl2._check_weight(np.array([5, 2])) == lam


def test_sympow_examples():
    assert sympow_character_recursive(1, P12) == h_character(1, 2)
    # degree 2 at e=2 splits as L(2,0) + L(1,1)
    assert sympow_character_recursive(2, P12) == simple_character(W(2, 0), P12) + simple_character(
        W(1, 1), P12
    )
    assert sympow_character_recursive(4, P32) == h_character(4, 2)
    assert sympow_character_recursive(0, P20) == Character.one(2)


# ---------------------------------------------------------------------------
# decomposition numbers and injective characters


def test_decomposition_numbers():
    for params in (P12, P22, P20):
        for r in range(8):
            for tau in partitions(r, 2):
                assert decomposition_number(tau, tau, params) == 1
    assert decomposition_number(W(2, 0), W(1, 1), P12) == 1
    assert decomposition_number(W(6, 1), W(5, 2), P22) == 0
    assert decomposition_number(W(6, 1), W(4, 3), P22) == 1
    # degree mismatch gives zero
    assert decomposition_number(W(3, 0), W(1, 1), P12) == 0


def test_decomposition_sweep_keeps_peeling_checks(monkeypatch):
    """Back substitution refuses a negative entry and a simple whose leading
    coefficient is not one, as peel_into_basis does, on a column read
    through the corrupted simple and on that simple's own column."""
    original = gl2._simple_support

    def corrupt(bad):
        def support(n, e, p, width):
            if n == 5 and (e, p) == (P12.e, P12.p):
                return sum(c << k for k, c in enumerate(bad[:width]))
            return original(n, e, p, width)
        return support

    # simple(5, 0) at (1, 2) has support {0, 1, 4, 5}: with bit 2 in place of
    # bit 1 the entry at (5, 0) of column (3, 2) is -1, without bit 0 the
    # diagonal is 0
    for bad, match in (((1, 0, 1, 0, 1, 1), "multiplicity -1"),
                       ((0, 1, 0, 0, 1, 1), "leading multiplicity one")):
        monkeypatch.setattr(gl2, "_simple_support", corrupt(bad))
        with pytest.raises(PeelError, match=match):
            decomposition_number(W(5, 0), W(3, 2), P12)
    # the diagonal corruption, still in place, is caught on its own column
    with pytest.raises(PeelError, match="leading multiplicity one"):
        gl2.decomposition_column(W(5, 0), P12)
    monkeypatch.undo()
    row = {lam: decomposition_number(W(5, 0), lam, P12) for lam in partitions(5, 2)}
    assert row == {W(5, 0): 1, W(4, 1): 0, W(3, 2): 1}


def test_simple_support_matches_simple_vectors():
    """The support of simple(n, 0), built from its digits, is bit for bit
    the simple vector, for n <= 120 on the wide grid, in every window from
    one bit to one past the degree."""
    for params in WIDE_GRID:
        e, p = params.e, params.p
        for n in range(121):
            v = gl2._simple_character(n, params)
            assert set(v) <= {0, 1}
            full = sum(1 << k for k, c in enumerate(v) if c)
            for width in range(1, n + 3):
                got = gl2._simple_support(n, e, p, width)
                assert got == full & ((1 << width) - 1), (n, width, params)


def test_simple_vectors_are_memoized_per_sl2_weight():
    """Every simple of degree <= 40 at two (l, p) pairs fills the memo with
    one vector per SL2 weight a - b and layer, not one per weight (906)."""
    gl2._simple_character.cache_clear()
    for params in (P12, GroupParams(5, 7)):
        for r in range(41):
            for lam in partitions(r, 2):
                simple_character(lam, params)
    assert gl2._simple_character.cache_info().currsize < 100


def test_peeling_soundness_wide_grid():
    """Peeling agrees with the decomposition numbers over the wide grid, up to
    degree 60."""
    result = checks.run_suite("peeling-soundness", 60, WIDE_GRID)
    assert result.ok, result.failures


def test_decomposition_table_reach():
    """The whole degree-1000 table is 501 columns, each one back
    substitution: they are read in seconds, and three of its rows agree with
    dict-based peeling."""
    params = GroupParams(5, 7)
    t0 = time.perf_counter()
    columns = {lam: dict(gl2.decomposition_column(lam, params)) for lam in partitions(1000, 2)}
    assert time.perf_counter() - t0 < 10
    assert len(columns) == 501
    basis = lambda w: simple_character(w, params)
    for tau in (W(1000, 0), W(700, 300), W(500, 500)):
        row = {lam: col[tau] for lam, col in columns.items() if tau in col}
        assert row == peel_into_basis(schur_character(tau), basis)


def assert_column_agrees_with_closed_forms(lam, params):
    """The column of ``lam`` is a support, (tau, m >= 1) pairs of lam's
    degree by increasing tau_2 and ending at lam, whose first tau_2 is the
    divisibility index and whose first tau is (r, 0) exactly for a critical
    weight."""
    column = gl2.decomposition_column(lam, params)
    taus = [tau for tau, _ in column]
    assert all(m >= 1 for _, m in column)
    assert all(tau.degree() == lam.degree() for tau in taus)
    assert taus == sorted(taus, reverse=True) and taus[-1] == lam
    assert taus[0][1] == divind_injective_closed(lam, params)
    assert (taus[0] == W(lam.degree(), 0)) is is_critical_closed(lam, params)


def test_decomposition_column_reach():
    """One cold column per pair at degrees 3000-4000 agrees with the closed
    forms (two of the four weights are critical)."""
    for l, p, lam in ((1, 2, W(3000, 1000)), (5, 7, W(1711, 1290)),
                      (3, 0, W(2100, 1400)), (2, 3, W(2479, 522))):
        assert_column_agrees_with_closed_forms(lam, GroupParams(l, p))


def test_decomposition_column_reach_degree_16000():
    """Cold columns of degree 16000 read digit supports only: they agree
    with the closed forms and fill no memo of simple vectors."""
    gl2._simple_character.cache_clear()
    t0 = time.perf_counter()
    for l, p, lam in ((1, 2, W(12000, 4000)), (5, 7, W(9000, 7000)), (2, 3, W(12500, 3500))):
        assert_column_agrees_with_closed_forms(lam, GroupParams(l, p))
    assert time.perf_counter() - t0 < 10
    assert gl2._simple_character.cache_info().currsize == 0


def test_decomposition_column_reach_row_budget():
    """Columns of the row budget's size, 8,192 rows, and of degree 10^12
    agree with the closed forms in seconds: each row reads its simple's
    support in a window of the rows below it."""
    t0 = time.perf_counter()
    for l, p, lam in ((1, 2, W(8191, 8191)), (1, 2, W(24000, 8000)), (1, 2, W(10 ** 12, 8191)),
                      (3, 0, W(10 ** 12, 8191)), (5, 7, W(10 ** 12, 8191))):
        assert_column_agrees_with_closed_forms(lam, GroupParams(l, p))
    assert time.perf_counter() - t0 < 3


def test_columns_of_degree_80_are_pinned():
    """Every column of degree <= 80 on the wide grid, 28,577 of them, hashes
    to the digest that the solve reading one digit coefficient at a time
    gave."""
    digest = hashlib.sha256()
    count = 0
    for params in WIDE_GRID:
        for r in range(81):
            for lam in partitions(r, 2):
                column = [(tuple(tau), m) for tau, m in gl2.decomposition_column(lam, params)]
                digest.update(repr((params.l, params.p, tuple(lam), column)).encode())
                count += 1
    assert count == 28577
    assert digest.hexdigest() == "01811c6b827d2b9536ec581b132cb1949f3359087e331ca1ee7cdd91f65f8540"


def test_vector_characters_match_dict_formulas_wide_grid():
    """On the wide grid the vector characters equal the dict formulas: the
    injective character is the sum of [induced(tau) : simple(lam)] Schur
    characters, the standard form is Q times det^d times the twisted
    classical injective (both up to degree 30), and the symmetric-power
    recursion is h_r (up to degree 60)."""
    for params in WIDE_GRID:
        for r in range(31):
            for lam in partitions(r, 2):
                expected = Character.zero(2)
                for tau, m in gl2.decomposition_column(lam, params):
                    expected = expected + m * schur_character(tau)
                assert injective_character(lam, params) == expected, (lam, params)
                if not is_gm_injective(lam, 1, params):
                    continue
                desc = standard_form(lam, params)
                if params.p == 0:
                    bar = schur_character(desc.bar_weight)
                else:
                    bar = injective_character(desc.bar_weight, params.classical())
                expected = (injective_character(desc.q_weight, params)
                            * Character.monomial((desc.det_power, desc.det_power))
                            * bar.twist(params.e))
                assert standard_form_character(desc, params) == expected, (lam, params)
        for r in range(61):
            assert sympow_character_recursive(r, params) == h_character(r, 2), (r, params)


def test_columns_are_supports():
    assert gl2.decomposition_column(W(1, 1), P12) == [(W(2, 0), 1), (W(1, 1), 1)]
    assert gl2.decomposition_column(W(2, 1), P12) == [(W(2, 1), 1)]
    assert gl2.quotient_column(W(2, 2), P22) == gl2.decomposition_column(W(2, 2), P12)
    assert gl2.quotient_column(W(2, 2), P20) == [(W(2, 2), 1)]


def test_induced_sum_counts_multiplicities():
    """Rank-2 decomposition numbers are 0 or 1 on every grid the suites
    sweep, so no column there has a multiplicity above one: the vector
    builder is pinned on a list that does."""
    assert gl2._induced_sum([(W(2, 0), 2), (W(1, 1), 1)]) == [2, 3, 2]
    assert gl2._induced_sum([(W(3, 1), 3)]) == [0, 3, 3, 3, 0]


def test_injective_character_examples():
    assert injective_character(W(1, 0), P12) == Character(2, {(1, 0): 1, (0, 1): 1})
    assert injective_character(W(1, 1), P12) == schur_character(W(1, 1)) + schur_character(W(2, 0))
    assert injective_character(W(2, 1), P12) == schur_character(W(2, 1))


# ---------------------------------------------------------------------------
# criticality


@pytest.mark.parametrize(
    "lam, params, expected",
    [
        ((1, 0), P12, True),
        ((1, 1), P12, True),
        ((2, 1), P12, False),
        ((2, 2), P20, False),
        ((0, 0), P13, True),
        ((3, 0), P20, True),
    ],
)
def test_criticality(lam, params, expected):
    assert is_critical_closed(W(*lam), params) is expected
    assert (divind_injective_oracle(W(*lam), params) == 0) is expected


def test_small_symmetric_powers_are_simple():
    for params in (P13, P32):
        for r in range(params.e):
            assert divind_injective_oracle(W(r, 0), params) == 0


# ---------------------------------------------------------------------------
# divisibility index


@pytest.mark.parametrize(
    "lam, params, expected",
    [
        ((1, 1), P12, 0),
        ((2, 1), P12, 1),
        ((5, 2), P22, 2),
        ((4, 1), P32, 1),
        ((4, 1), P13, 1),  # discriminates the digit-pattern reading of the closed form
        ((2, 2), P20, 1),
        ((0, 0), P12, 0),
    ],
)
def test_divind(lam, params, expected):
    assert divind_injective_closed(W(*lam), params) == expected
    assert divind_injective_oracle(W(*lam), params) == expected


@pytest.mark.parametrize("lam, params", [
    (W(2 ** 700, 1), P12),
    (W(3 * 7 ** 520 + 12345, 7 ** 300 + 9), GroupParams(5, 7)),
])
def test_layer_recursion_on_long_weights(lam, params):
    """The layer recursion answers weights of several hundred digit layers
    and agrees with the closed form."""
    layers = gl2._layers(lam, params)
    assert len(layers) > 500
    assert gl2._divind_closed(lam, params, layers) == gl2._divind_formula(layers)


def naive_split(lam, e):
    """lam = lam0 + e*lbar for a rank-2 weight, lam0 column e-regular, read
    off entry by entry with ``%``."""
    b0 = lam[1] % e
    a0 = b0 + (lam[0] - b0) % e
    return (a0, b0), ((lam[0] - a0) // e, (lam[1] - b0) // e)


def quotient_walk_divind(lam, params):
    """The layer recursion on the weight itself: peel one digit with
    :func:`naive_split`, recurse on the quotient at the classical layer.
    It splits the weight again rather than read the digit list that the
    fold and the closed form share."""
    if lam == (0, 0):
        return 0
    lam0, lbar = naive_split(lam, params.e)
    if params.p == 0:
        bar_div = lbar[1]
    else:
        bar_div = quotient_walk_divind(lbar, params.classical())
    if lam0[0] < params.e - 1 and bar_div == 0:
        return lam0[1]
    return lam0[0] - (params.e - 1) + params.e * bar_div


def test_layer_fold_matches_quotient_walk():
    """The fold over the digit list, the closed form and the quotient walk
    agree on seeded weights of degree up to 1e15 at every wide-grid pair
    and on the long weights, whose walk is one frame per digit layer."""
    rng = random.Random(23)
    cases = [(W(2 ** 700, 1), P12), (W(3 * 7 ** 520 + 12345, 7 ** 300 + 9), GroupParams(5, 7))]
    for params in WIDE_GRID:
        for _ in range(300):
            r = int(10 ** rng.uniform(0, 15))
            b = rng.randint(0, r // 2)
            cases.append((W(r - b, b), params))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        for lam, params in cases:
            layers = gl2._layers(lam, params)
            div = quotient_walk_divind(lam, params)
            assert gl2._divind_by_layers(layers) == gl2._divind_formula(layers) == div, (lam, params)
            assert divind_injective_closed(lam, params) == div
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# infinitesimal injectivity


@pytest.mark.parametrize(
    "lam, params, expected",
    [
        ((2, 1), P12, True),
        ((2, 0), P12, False),
        ((2, 0), P20, False),
        ((2, 2), P20, True),
        ((1, 0), P12, True),
        ((1, 0), P32, False),
        ((0, 0), P12, False),
    ],
)
def test_inf_injective(lam, params, expected):
    assert is_gm_injective(W(*lam), 1, params) is expected
    assert is_inf_injective_inequality(W(*lam), params) is expected


# ---------------------------------------------------------------------------
# standard form


def test_standard_form_examples():
    desc = standard_form(W(2, 1), P12)
    assert desc.q_weight == W(1, 0)
    assert desc.det_power == 1
    assert desc.bar_weight == W(0, 0)
    assert desc.branch == TOP_DIGIT_LARGE
    assert standard_form_character(desc, P12) == Character(2, {(1, 0): 1, (0, 1): 1}) * Character.monomial((1, 1))

    desc = standard_form(W(1, 0), P12)
    assert desc.q_weight == W(1, 0) and desc.det_power == 0

    desc = standard_form(W(3, 1), P22)
    assert desc.q_weight == W(1, 1)
    assert desc.det_power == 0
    assert desc.bar_weight == W(1, 0)
    assert desc.branch == TOP_DIGIT_LARGE


def test_standard_form_requires_injectivity():
    with pytest.raises(ValueError):
        standard_form(W(1, 0), P32)
    with pytest.raises(ValueError):
        standard_form(W(2, 0), P12)


def test_standard_form_small_branch():
    # find a weight using the small-top-digit branch and check the bookkeeping
    found = 0
    for params in (P32, GroupParams(3, 0)):
        for r in range(16):
            for lam in partitions(r, 2):
                if not is_gm_injective(lam, 1, params):
                    continue
                desc = standard_form(lam, params)
                assert reconstruct_weight(desc, params) == lam
                assert desc.q_weight[0] == params.e - 1
                if desc.branch == TOP_DIGIT_SMALL:
                    found += 1
    assert found > 0


# ---------------------------------------------------------------------------
# higher kernels


def test_gm_injective_examples():
    assert is_gm_injective(W(2, 1), 1, P12) is True
    assert is_gm_injective(W(2, 1), 2, P12) is False
    for m in (1, 2, 3):
        assert is_gm_injective(W(0, 0), m, P12) is False
    with pytest.raises(ValueError):
        is_gm_injective(W(2, 1), 0, P12)


def test_gm_injective_validates_before_expanding(monkeypatch):
    def no_expansion(lam, params):
        raise AssertionError("expanded the digits of %r before validating m" % (lam,))

    monkeypatch.setattr(gl2, "digit_expansion", no_expansion)
    with pytest.raises(ValueError, match="kernel index"):
        is_gm_injective(W(2, 1), 0, P12)
    with pytest.raises(ValueError, match="positive characteristic"):
        is_gm_injective(W(2, 2), 2, P20)


def test_gm_injective_characteristic_zero():
    assert is_gm_injective(W(2, 2), 1, P20) is True
    with pytest.raises(ValueError):
        is_gm_injective(W(2, 2), 2, P20)


def test_gm_injective_quantum_reduces_to_classical():
    # the m-th quantum kernel test is the first-kernel test plus the
    # classical (m-1)-th kernel test of the quotient
    lam = W(7, 2)  # quantum digit (1,0), quotient (3,1)
    for m in (1, 2, 3):
        expected = is_gm_injective(lam, 1, P22) and (
            m == 1 or is_gm_injective(W(3, 1), m - 1, P12)
        )
        assert is_gm_injective(lam, m, P22) is expected
    assert is_gm_injective(lam, 3, P22) is True
    assert is_gm_injective(W(3, 1), 3, P12) is False


def test_gm_deep_kernel_instance():
    # all base-2 digits of (2^k - 1, 0) are (1, 0), so every digit shift is
    # injective over the first kernel and the weight is injective over all
    # the kernels its digits span
    lam = W(7, 0)
    assert [is_gm_injective(lam, m, P12) for m in (1, 2, 3, 4)] == [True, True, True, False]


# ---------------------------------------------------------------------------
# classify


def test_classify_examples():
    cls = classify(W(2, 1), P12)
    assert (cls.critical, cls.divind, cls.inf_injective) == (False, 1, True)
    assert cls.standard_form is not None

    cls = classify(W(0, 0), P13)
    assert (cls.critical, cls.divind, cls.inf_injective) == (True, 0, False)
    assert cls.standard_form is None

    cls = classify(W(2, 0), P20)
    assert (cls.critical, cls.divind, cls.inf_injective) == (True, 0, False)


def test_classify_above_oracle_limit_uses_closed_forms():
    lam = W(60, 30)
    cls = classify(lam, P12)
    assert cls.divind == divind_injective_closed(lam, P12)


def test_classify_check_runs_the_oracles_above_the_limit(monkeypatch):
    lam = W(60, 30)
    assert lam.degree() > gl2.ORACLE_DEGREE_LIMIT
    original = gl2.decomposition_column
    # every tau moved one row down: the column's least tau_2 is off by one
    down = W(-1, 1)
    monkeypatch.setattr(gl2, "decomposition_column",
                        lambda lam, params: [(tau + down, m) for tau, m in original(lam, params)])
    with pytest.raises(gl2.OracleMismatch):
        classify(lam, P12, check=True)
    cls = classify(lam, P12)
    assert cls.oracle_checked is False
    assert cls.divind == divind_injective_closed(lam, P12)


def test_classify_check_reads_each_column_once(monkeypatch):
    """classify(check=True) reads the weight's column once, for the
    divisibility index, which criticality is tied to; in positive
    characteristic the injectivity inequality reads the quotient weight's
    column too."""
    calls = []
    original = gl2._column

    def counted(lam, params):
        calls.append(lam)
        return original(lam, params)

    monkeypatch.setattr(gl2, "_column", counted)
    classify(W(60, 30), P12, check=True)
    assert len(calls) == 2
    calls.clear()
    classify(W(60, 30), GroupParams(3, 0), check=True)
    assert len(calls) == 1


def test_quotient_layer_is_read_from_quotient_column(monkeypatch):
    """The injectivity inequality and the standard-form character each take
    the layer under the twist from quotient_column, in characteristic zero
    as in positive characteristic."""
    calls = []
    original = gl2.quotient_column

    def counted(lbar, params):
        calls.append((lbar, params))
        return original(lbar, params)

    monkeypatch.setattr(gl2, "quotient_column", counted)
    for params in (P12, P20):
        lam = next(lam for lam in partitions(9, 2) if is_gm_injective(lam, 1, params))
        calls.clear()
        is_inf_injective_inequality(lam, params)
        assert calls == [(eadic_split(lam, params.e)[1], params)]
        calls.clear()
        desc = standard_form(lam, params)
        standard_form_character(desc, params)
        assert calls == [(desc.bar_weight, params)]


def test_gm_flags_match_kernel_tests():
    for params in WIDE_GRID:
        for r in range(25):
            for lam in partitions(r, 2):
                cls = classify(lam, params)
                assert cls.oracle_checked
                if params.p == 0:
                    assert cls.gm_flags(3) == (cls.inf_injective, None, None)
                else:
                    assert cls.gm_flags(3) == tuple(is_gm_injective(lam, m, params) for m in (1, 2, 3))
                    assert cls.kernel_depth == sum(is_gm_injective(lam, m, params) for m in range(1, 8))


def test_classify_consistency_bounds():
    for params in (P12, P22, P20):
        for r in range(12):
            for lam in partitions(r, 2):
                cls = classify(lam, params)
                assert cls.critical == (cls.divind == 0)
                assert 2 * cls.divind <= lam.degree()
                assert (cls.standard_form is not None) == cls.inf_injective


def _divind_off_by_one(original):
    return lambda layers: original(layers) + 1


def _divind_past_half_degree(original):
    """One more than the degree, which exceeds degree/2 at every weight."""
    return lambda layers: 1 + sum(scale * d.degree() for d, _, scale in layers)


@pytest.mark.parametrize("corrupt, verdict, message", [
    (_divind_off_by_one, lambda: classify(W(10 ** 12 + 234567, 3 * 10 ** 11 + 89), P32),
     "off the Steinberg edge"),
    (_divind_past_half_degree, lambda: divind_injective_closed(W(5, 2), P12),
     "exceeds degree/2"),
], ids=["steinberg-edge", "half-degree"])
def test_agreeing_divind_forms_still_meet_the_invariants(monkeypatch, corrupt, verdict, message):
    """The layer recursion and the closed form corrupted alike agree with
    each other, and no oracle runs on these calls, so only the invariants
    checked where the index and the standard form are built can raise."""
    for attr in ("_divind_by_layers", "_divind_formula"):
        monkeypatch.setattr(gl2, attr, corrupt(getattr(gl2, attr)))
    with pytest.raises(gl2.OracleMismatch, match=message):
        verdict()


# ---------------------------------------------------------------------------
# character-level identities


def test_injective_character_determinant_shift():
    """The dict-level oracle for the determinant shift that the
    divisibility-shift suite checks on columns, at that suite's bound."""
    det = Character.monomial((1, 1))
    for params in checks.PARAM_GRID:
        for r in range(checks.SUITES["divisibility-shift"][0] + 1):
            for lam in partitions(r, 2):
                m = divind_injective_closed(lam, params)
                shifted = injective_character(lam - m * omega(2), params)
                assert injective_character(lam, params) == det ** m * shifted


PRIMES_TO_47 = [p for p in range(2, 48) if all(p % d for d in range(2, p))]


@st.composite
def weights_and_params(draw):
    l = draw(st.integers(1, 12))
    p = draw(st.sampled_from(PRIMES_TO_47 + ([0] if l >= 2 else [])))
    b = draw(st.integers(0, 5 * 10 ** 11))
    a = draw(st.integers(b, 10 ** 12 - b))
    return Weight((a, b)), GroupParams(l, p)


@settings(deadline=None, max_examples=300)
@given(weights_and_params())
def test_closed_forms_hold_at_random_degrees(case):
    """Up to degree 1e12: the layer recursion equals the digit closed form
    (classify raises no OracleMismatch), the verdict is self-consistent,
    the standard form rebuilds the weight, kernel injectivity is monotone in
    the kernel index, the first kernel test is the inf_injective verdict,
    and a quantum kernel test reduces to the classical one a kernel down."""
    lam, params = case
    cls = classify(lam, params)
    assert cls.critical == (cls.divind == 0) and 2 * cls.divind <= lam.degree()
    assert cls.inf_injective == (cls.standard_form is not None)
    if cls.standard_form is not None:
        assert reconstruct_weight(cls.standard_form, params) == lam
    flags = [is_gm_injective(lam, m, params) for m in range(1, 4 if params.p else 2)]
    assert flags == sorted(flags, reverse=True)
    assert flags[0] == cls.inf_injective
    if params.l >= 2 and params.p:
        lbar = eadic_split(lam, params.e)[1]
        for m in (2, 3):
            expected = cls.inf_injective and is_gm_injective(lbar, m - 1, params.classical())
            assert flags[m - 1] == expected
    # classify reads one shared digit list; each entry point alone builds
    # its own, and both must give the same verdict
    assert cls.divind == divind_injective_closed(lam, params)
    assert cls.critical == is_critical_closed(lam, params)
    if cls.inf_injective:
        assert cls.standard_form == standard_form(lam, params)
    # a table row's kernel flags come off that list too
    assert cls.gm_flags(3) == tuple(is_gm_injective(lam, m, params) if params.p or m == 1 else None
                                    for m in (1, 2, 3))


def test_verdict_expands_digits_once(monkeypatch):
    calls = []
    original = gl2.digit_expansion

    def counted(lam, params):
        calls.append(lam)
        return original(lam, params)

    monkeypatch.setattr(gl2, "digit_expansion", counted)
    lam = W(10 ** 12 + 234567, 3 * 10 ** 11 + 89)
    classify(lam, P32)
    assert calls == [lam]
    del calls[:]
    rows = cli.table_rows(6, P12)
    assert len(rows) == len(calls) == 16
