import json
import random

import pytest

from polyinj.characters import (
    Character,
    PeelError,
    character_from_json,
    min_last_entry,
    peel_into_basis,
)
from polyinj.gl2 import simple_character
from polyinj.schur import h_character, partitions, schur_character
from polyinj.weights import GroupParams, Weight


def mono(*exp):
    return Character.monomial(exp)


X_PLUS_Y = Character(2, {(1, 0): 1, (0, 1): 1})


class Index:
    """An integer-like value that is not an int: it has ``__index__``, as
    numpy integers do."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v

    def __hash__(self):
        return hash(self.v)

    def __eq__(self, other):
        return isinstance(other, Index) and self.v == other.v


def test_addition():
    assert X_PLUS_Y + X_PLUS_Y == Character(2, {(1, 0): 2, (0, 1): 2})
    assert X_PLUS_Y + Character.zero(2) == X_PLUS_Y
    s20 = schur_character(Weight((2, 0)))
    assert s20 - s20 == Character.zero(2)
    assert not (s20 - s20)


def test_multiplication():
    assert X_PLUS_Y * X_PLUS_Y == Character(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    # a determinant factor shifts the induced character by one box per row
    assert mono(1, 1) * X_PLUS_Y == schur_character(Weight((2, 1)))
    h1 = h_character(1, 2)
    assert h1 * h1 == schur_character(Weight((2, 0))) + schur_character(Weight((1, 1)))


def test_scalar_and_power():
    assert 2 * X_PLUS_Y == X_PLUS_Y + X_PLUS_Y
    assert X_PLUS_Y * 0 == Character.zero(2)
    assert X_PLUS_Y ** 2 == X_PLUS_Y * X_PLUS_Y
    assert X_PLUS_Y ** 0 == Character.one(2)
    with pytest.raises(ValueError):
        X_PLUS_Y ** -1


def naive_product(a, b):
    """The product as the plain double loop over term pairs, with tuple
    keys: the reference the packed product is pinned to."""
    out = {}
    for e1, m1 in a.items():
        for e2, m2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(key, 0) + m1 * m2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return Character(a.n, out)


def random_character(rng, n, max_terms=12, span=4):
    """Up to ``max_terms`` terms with entries in [-span, span] (so negative
    ones too) and multiplicities of either sign; possibly zero."""
    return Character(n, [
        (tuple(rng.randint(-span, span) for _ in range(n)), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randint(0, max_terms))
    ])


def assert_clean_product(a, b):
    prod = a * b
    assert prod == naive_product(a, b)
    assert all(m != 0 for _, m in prod.items())
    assert all(type(x) is int for exp in prod.support() for x in exp)
    return prod


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_product_matches_naive_loop(n):
    rng = random.Random(100 + n)
    zero, one = Character.zero(n), Character.one(n)
    for _ in range(60):
        a, b = random_character(rng, n), random_character(rng, n)
        assert_clean_product(a, b)
        assert assert_clean_product(a, zero) == zero == assert_clean_product(zero, b)
        assert assert_clean_product(a, one) == a
        m = Character.monomial([rng.randint(-9, 9) for _ in range(n)], rng.choice((-2, 1, 5)))
        assert_clean_product(m, a)
        assert_clean_product(a, m)
        assert_clean_product(m, m)
    # wide exponent ranges in one coordinate, narrow in the others
    a = Character(n, {(10 ** 6,) + (0,) * (n - 1): 1, (-(10 ** 6),) + (1,) * (n - 1): -1})
    assert_clean_product(a, random_character(rng, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_product_cancellation(n):
    """(1 - m)(1 + m + ... + m^k) = 1 - m^(k+1): every middle term cancels,
    and none survives as a zero coefficient."""
    rng = random.Random(200 + n)
    for k in range(6):
        exp = [rng.randint(-3, 3) for _ in range(n)]
        if not any(exp):
            exp[0] = 1
        m = Character.monomial(exp)
        geometric = Character.zero(n)
        for j in range(k + 1):
            geometric = geometric + Character.monomial([j * a for a in exp])
        prod = assert_clean_product(Character.one(n) - m, geometric)
        assert prod == Character.one(n) - Character.monomial([(k + 1) * a for a in exp])
        # a difference of random characters whose product cancels in part
        a = random_character(rng, n)
        assert_clean_product(a - m, a + m)


def test_packed_product_coerces_index_entries():
    """Exponent entries are read with operator.index, so an integer-like
    entry (a numpy integer, say) comes out as a plain int and cannot
    overflow a fixed-width sum."""

    big = 2 ** 63 - 1
    a = Character(2, {(Index(big), Index(-1)): 2, (Index(0), Index(3)): 1})
    plain = Character(2, {(big, -1): 2, (0, 3): 1})
    prod = a * a
    assert prod == plain * plain == naive_product(plain, plain)
    assert prod.coeff((2 * big, -2)) == 4
    assert all(type(x) is int for exp in prod.support() for x in exp)


def test_exponent_entries_are_plain_ints():
    """Exponent entries are read with operator.index on the way in, so an
    integer-like entry becomes an exact int that twists and sums keep."""
    chi = Character(1, {(Index(2 ** 62),): 1}).twist(4)
    assert list(chi.items()) == [((2 ** 64,), 1)]
    assert type(next(iter(chi.support()))[0]) is int
    chi = Character(2, {(Index(3), Index(-1)): 2, (Index(0), 5): 1})
    assert chi == Character(2, {(3, -1): 2, (0, 5): 1})
    assert all(type(a) is int for exp in chi.support() for a in exp)
    assert all(type(a) is int for exp in (chi + chi.twist(Index(2))).support() for a in exp)
    with pytest.raises(ValueError, match="non-integer"):
        Character(2, {(1.0, 0): 1})
    for factor in (0, 2.0):
        with pytest.raises(ValueError, match="positive integer"):
            chi.twist(factor)


def test_numpy_exponent_twist_does_not_overflow():
    """A numpy int64 exponent twisted past 2**63 is exact, with no
    fixed-width overflow warning (an error under -W error)."""
    np = pytest.importorskip("numpy")
    chi = Character(1, {(np.int64(2 ** 62),): 1}).twist(4)
    assert list(chi.items()) == [((2 ** 64,), 1)]
    chi = Character(2, {(np.int64(3), np.int32(-1)): 2, (np.uint8(0), 5): 1})
    assert chi == Character(2, {(3, -1): 2, (0, 5): 1})
    assert all(type(a) is int for exp in chi.support() for a in exp)


def test_multiplicities_are_plain_ints():
    """Multiplicities are read with operator.index on the way in, as
    exponent entries are: a non-integral one is a ValueError rather than a
    term that prints truncated, and an integer-like one becomes an int."""
    for mult in (1.5, 0.5, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            Character(2, {(1, 0): mult})
    with pytest.raises(ValueError, match="not an integer"):
        character_from_json([{"exponent": [1, 0], "mult": 1.5}])
    chi = Character(2, {(1, 0): Index(3), (0, 1): Index(-2)})
    assert chi == Character(2, {(1, 0): 3, (0, 1): -2})
    assert all(type(m) is int for _, m in chi.items())
    np = pytest.importorskip("numpy")
    chi = character_from_json([{"exponent": [1, 0], "mult": np.int64(2)}])
    assert list(chi.items()) == [((1, 0), 2)]
    assert type(chi.coeff((1, 0))) is int
    assert str(chi) == "2 * (1,0)"


def test_rank_mismatch():
    with pytest.raises(ValueError):
        X_PLUS_Y + Character.one(3)
    with pytest.raises(ValueError):
        X_PLUS_Y * Character.one(3)


def test_canonical_form_drops_zeros():
    chi = Character(2, {(1, 0): 1, (0, 1): 0})
    assert list(chi.support()) == [(1, 0)]
    chi = Character(2, [((1, 0), 1), ((1, 0), -1)])
    assert chi == Character.zero(2)


@pytest.mark.parametrize(
    "chi, factor, expected",
    [
        (X_PLUS_Y, 3, Character(2, {(3, 0): 1, (0, 3): 1})),
        (mono(1, 1), 2, mono(2, 2)),
        (
            Character(2, {(2, 1): 1, (1, 2): 1}),
            2,
            Character(2, {(4, 2): 1, (2, 4): 1}),
        ),
    ],
)
def test_twist_scales_exponents(chi, factor, expected):
    assert chi.twist(factor) == expected


def test_twist_is_ring_homomorphism():
    rng = random.Random(1)
    pool = [lam for r in range(7) for lam in partitions(r, 3)]
    for _ in range(20):
        a = schur_character(rng.choice(pool))
        b = schur_character(rng.choice(pool))
        assert (a * b).twist(3) == a.twist(3) * b.twist(3)
        assert a * b == b * a
        c = schur_character(rng.choice(pool))
        assert (a * b) * c == a * (b * c)


def test_min_last_entry():
    chi_l52 = Character(2, {(5, 2): 1, (4, 3): 1, (3, 4): 1, (2, 5): 1})
    assert min_last_entry(chi_l52) == 2
    assert min_last_entry(mono(1, 1)) == 1
    for r in range(6):
        assert min_last_entry(h_character(r, 3)) == 0


def test_min_last_entry_errors():
    with pytest.raises(ValueError):
        min_last_entry(Character.zero(2))
    with pytest.raises(ValueError):
        min_last_entry(Character(2, {(1, 0): -1}))
    with pytest.raises(ValueError):
        min_last_entry(Character(2, {(1, -1): 1}))


def test_divisibility_additive_on_products():
    rng = random.Random(2)
    for n in (2, 3):
        pool = [lam for r in range(9) for lam in partitions(r, n)]
        for _ in range(30):
            a = schur_character(rng.choice(pool))
            b = schur_character(rng.choice(pool))
            assert min_last_entry(a * b) == min_last_entry(a) + min_last_entry(b)


def test_peel_into_simple_basis():
    params = GroupParams(1, 2)
    basis = lambda w: simple_character(w, params)
    factors = peel_into_basis(schur_character(Weight((2, 0))), basis)
    assert factors == {Weight((2, 0)): 1, Weight((1, 1)): 1}


def test_peel_basis_element_is_itself():
    factors = peel_into_basis(schur_character(Weight((2, 1))), schur_character)
    assert factors == {Weight((2, 1)): 1}


def test_peel_pieri_product():
    chi = h_character(2, 3) * h_character(1, 3)
    factors = peel_into_basis(chi, schur_character)
    assert factors == {Weight((3, 0, 0)): 1, Weight((2, 1, 0)): 1}


def test_peel_reconstructs_random_combinations():
    rng = random.Random(3)
    pool = [lam for r in range(7) for lam in partitions(r, 3)]
    for _ in range(15):
        combo = {lam: rng.randint(1, 3) for lam in rng.sample(pool, 4)}
        chi = Character.zero(3)
        for lam, m in combo.items():
            chi = chi + m * schur_character(lam)
        assert peel_into_basis(chi, schur_character) == combo


def test_peel_detects_illegitimate_input():
    # x^2 + y^2 is symmetric but not a nonnegative sum of Schur characters
    with pytest.raises(PeelError):
        peel_into_basis(Character(2, {(2, 0): 1, (0, 2): 1}), schur_character)
    # no dominant exponent at all
    with pytest.raises(PeelError):
        peel_into_basis(mono(0, 1), schur_character)


def naive_peel(chi, basis):
    """The earlier peeling, as a reference: every step builds new
    characters (a negation, a multiple and a sum) instead of subtracting
    in place."""
    remainder = chi
    out = {}
    while remainder:
        pivot = max(
            (exp for exp in remainder.support() if all(exp[i] >= exp[i + 1] for i in range(len(exp) - 1))),
            default=None,
        )
        if pivot is None:
            raise PeelError("remainder %s has no dominant exponent" % remainder)
        mult = remainder.coeff(pivot)
        if mult < 0:
            raise PeelError(
                "pivot %r carries multiplicity %d; not expressible in this basis" % (pivot, mult)
            )
        remainder = remainder - mult * basis(Weight(pivot))
        if remainder.coeff(pivot):
            raise PeelError("basis element at %r lacks leading multiplicity one" % (pivot,))
        out[Weight(pivot)] = mult
    return out


def peel_outcome(peel, chi, basis):
    """The pivots and multiplicities in order, or the PeelError message."""
    try:
        return list(peel(chi, basis).items())
    except PeelError as exc:
        return "PeelError: %s" % exc


def simple_basis(params):
    return lambda w: simple_character(w, params)


PEEL_BASES = [pytest.param(n, schur_character, id="schur-rank%d" % n) for n in (2, 3, 4)] + [
    pytest.param(2, simple_basis(GroupParams(l, p)), id="simple-l%d-p%d" % (l, p))
    for l, p in ((1, 2), (1, 3), (2, 3), (3, 0))
]


@pytest.mark.parametrize("n, basis", PEEL_BASES)
def test_peel_matches_naive_on_nonnegative_combinations(n, basis):
    rng = random.Random(18 + n)
    pool = [lam for r in range(9 if n == 2 else 6) for lam in partitions(r, n)]
    for _ in range(25):
        chi = Character.zero(n)
        for lam in rng.sample(pool, rng.randint(1, 5)):
            chi = chi + rng.randint(1, 3) * basis(lam) * schur_character(rng.choice(pool[:4]))
        expected = naive_peel(chi, basis)
        assert list(peel_into_basis(chi, basis).items()) == list(expected.items())
        reassembled = Character.zero(n)
        for lam, m in expected.items():
            reassembled = reassembled + m * basis(lam)
        assert reassembled == chi


@pytest.mark.parametrize("n, basis", PEEL_BASES)
def test_peel_matches_naive_on_signed_combinations(n, basis):
    """Signed combinations, with stray monomials, succeed or fail as the
    reference does: the same pivots, or the same PeelError message."""
    rng = random.Random(180 + n)
    pool = [lam for r in range(7 if n == 2 else 5) for lam in partitions(r, n)]
    failures = 0
    for _ in range(40):
        chi = Character.zero(n)
        for lam in rng.sample(pool, rng.randint(1, 4)):
            chi = chi + rng.choice((-2, -1, 1, 1, 2)) * basis(lam)
        if rng.random() < 0.3:
            chi = chi + Character.monomial([rng.randint(0, 3) for _ in range(n)], rng.choice((-1, 1)))
        outcome = peel_outcome(peel_into_basis, chi, basis)
        assert outcome == peel_outcome(naive_peel, chi, basis)
        failures += isinstance(outcome, str)
    assert 0 < failures < 40


@pytest.mark.parametrize(
    "chi, basis, message",
    [
        (mono(0, 1), schur_character, "remainder 1 * (0,1) has no dominant exponent"),
        # the pivot (2, 0) peels off and leaves y alone
        (schur_character(Weight((2, 0))) + mono(0, 1), schur_character,
         "remainder 1 * (0,1) has no dominant exponent"),
        # x^2 + y^2: peeling (2, 0) creates -xy, an exponent chi lacks
        (Character(2, {(2, 0): 1, (0, 2): 1}), schur_character,
         "pivot (1, 1) carries multiplicity -1; not expressible in this basis"),
        (-schur_character(Weight((2, 1, 0))), schur_character,
         "pivot (2, 1, 0) carries multiplicity -1; not expressible in this basis"),
        (schur_character(Weight((3, 1))), lambda w: 2 * schur_character(w),
         "basis element at (3, 1) lacks leading multiplicity one"),
    ],
)
def test_peel_errors_match_naive(chi, basis, message):
    assert peel_outcome(peel_into_basis, chi, basis) == "PeelError: " + message
    assert peel_outcome(naive_peel, chi, basis) == "PeelError: " + message


def test_peel_pivot_created_by_a_subtraction():
    """A basis with negative entries can create a dominant exponent that
    the input lacks; it must become a later pivot."""

    def basis(w):
        a, b = w
        below = Weight((a - 1, b + 1))
        return schur_character(w) - (2 * schur_character(below) if below.is_dominant() else Character.zero(2))

    chi = Character(2, {(2, 0): 1, (0, 2): 1})
    assert list(peel_into_basis(chi, basis).items()) == [(Weight((2, 0)), 1), (Weight((1, 1)), 1)]
    assert peel_into_basis(chi, basis) == naive_peel(chi, basis)


def test_factor_and_weight_divisibility_agree():
    params = GroupParams(1, 2)
    basis = lambda w: simple_character(w, params)
    for lam in [(2, 1), (3, 1), (4, 2)]:
        chi = simple_character(Weight(lam), params) * simple_character(Weight((2, 1)), params)
        factors = peel_into_basis(chi, basis)
        assert min(w[-1] for w in factors) == min_last_entry(chi)


def test_str_format():
    assert str(Character.zero(2)) == "0"
    assert str(schur_character(Weight((2, 1)))) == "1 * (2,1) + 1 * (1,2)"
    assert str(2 * mono(1, 1) - mono(2, 0)) == "-1 * (2,0) + 2 * (1,1)"


def test_json_round_trip():
    chi = schur_character(Weight((3, 1))) - 2 * mono(2, 2)
    obj = json.loads(json.dumps(chi.to_json_obj()))
    assert character_from_json(obj) == chi
    assert character_from_json([], n=2) == Character.zero(2)
    with pytest.raises(ValueError):
        character_from_json([])
