import itertools
import random
from functools import lru_cache

import pytest

from polyinj.gl2 import classify
from polyinj.weights import (
    _PRIME_LIMIT,
    GroupParams,
    Weight,
    _is_prime,
    delta,
    digit_expansion,
    dominance_leq,
    eadic_split,
    is_column_regular,
    omega,
)


def test_weight_basics():
    w = Weight((5, 2))
    assert w.n == 2 and w.degree() == 7
    assert w.is_dominant() and w.is_polynomial()
    assert not Weight((1, 2)).is_dominant()
    assert not Weight((1, -1)).is_polynomial()
    assert Weight((3, 1, 0)).reversed() == Weight((0, 1, 3))
    assert w + Weight((1, 1)) == (6, 3)
    assert w - Weight((1, 1)) == (4, 1)
    assert 3 * Weight((1, 0)) == (3, 0)
    assert -Weight((1, -2)) == (-1, 2)


def test_weight_entries_must_be_integers():
    for entries in ((2.7, 1), (2, 1.0), ("2", 1), (None, 0)):
        with pytest.raises(ValueError, match="not an integer"):
            Weight(entries)
    with pytest.raises(ValueError, match="2.9"):
        classify((2.9, 1.2), GroupParams(1, 2))
    # ints, bools and anything with __index__ (numpy integers, say) are
    # accepted as exact ints
    class Index:
        def __index__(self):
            return 7

    w = Weight((Index(), True, False))
    assert w == (7, 1, 0) and all(type(a) is int for a in w)


def test_weight_arithmetic_keeps_int_entries():
    lam = Weight((3, 1))
    for w in (lam + Weight((1, 1)), lam - Weight((1, 2)), -lam, 2 * lam, lam + (True, 2)):
        assert type(w) is Weight and all(type(a) is int for a in w)
    assert lam + (True, 2) == (4, 3)
    # a plain-tuple operand is still coerced entry by entry
    with pytest.raises(ValueError, match="not an integer"):
        Weight((1, 2)) + (0.5, 1)
    with pytest.raises(ValueError, match="not an integer"):
        Weight((1, 2)) - (1, 0.5)

def test_weight_rank_mismatch():
    with pytest.raises(ValueError):
        Weight((1, 0)) + Weight((1, 0, 0))
    with pytest.raises(ValueError):
        dominance_leq((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        Weight(())


def test_standard_weights():
    assert omega(3) == (1, 1, 1)
    assert delta(4) == (3, 2, 1, 0)
    assert delta(1) == (0,)


@pytest.mark.parametrize(
    "lam, e, expected",
    [((2, 1), 2, True), ((2, 0), 2, False), ((4, 2, 1), 3, True), ((0, 0), 5, True)],
)
def test_is_column_regular(lam, e, expected):
    assert is_column_regular(Weight(lam), e) is expected


@pytest.mark.parametrize(
    "lam, e, lam0, lbar",
    [
        ((2, 1), 2, (2, 1), (0, 0)),
        ((5, 2), 3, (2, 2), (1, 0)),
        ((0, 0), 5, (0, 0), (0, 0)),
        ((3, 1, 0), 2, (1, 1, 0), (1, 0, 0)),
    ],
)
def test_eadic_split_examples(lam, e, lam0, lbar):
    a, b = eadic_split(Weight(lam), e)
    assert (a, b) == (Weight(lam0), Weight(lbar))


def test_eadic_split_not_entrywise_reduction():
    # (2,1) base 2 keeps the 2 in front: only differences and the last entry
    # are bounded by the base
    lam0, lbar = eadic_split(Weight((2, 1)), 2)
    assert lam0 == (2, 1) and lbar == (0, 0)


def test_eadic_split_inherits_shape():
    for n in (2, 3):
        for entries in itertools.product(range(-3, 6), repeat=n):
            lam = Weight(entries)
            for e in (2, 3):
                lam0, lbar = eadic_split(lam, e)
                assert lam0 + e * lbar == lam
                assert is_column_regular(lam0, e)
                if lam.is_dominant():
                    assert lbar.is_dominant()
                if lam.is_dominant() and lam.is_polynomial():
                    assert lbar.is_polynomial()


@pytest.mark.parametrize(
    "lam, mu, expected",
    [
        ((1, 1), (2, 0), True),
        ((2, 0), (1, 1), False),
        ((2, 1, 0), (3, 0, 0), True),
        ((3, 0, 0), (2, 1, 0), False),
        # degrees differ, so incomparable either way
        ((2, 2, 0), (3, 0, 0), False),
        ((3, 0, 0), (2, 2, 0), False),
        ((1, 0), (0, 1), False),
        ((2, 1), (2, 1), True),
        ((2, 1), (3, 1), False),
    ],
)
def test_dominance_examples(lam, mu, expected):
    assert dominance_leq(Weight(lam), Weight(mu)) is expected


def _positive_roots(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            root = [0] * n
            root[i], root[j] = 1, -1
            out.append(tuple(root))
    return out


def test_dominance_against_root_sum_decomposition():
    """Brute-force oracle: mu - lam must decompose as a nonnegative sum of
    positive roots.  Subtracting a root strictly lowers sum((n-i)*v_i)."""
    for n in (2, 3):
        roots = _positive_roots(n)

        @lru_cache(maxsize=None)
        def decomposes(v):
            if all(a == 0 for a in v):
                return True
            return any(
                decomposes(tuple(a - b for a, b in zip(v, root)))
                for root in roots
                if sum((len(v) - i) * (a - b) for i, (a, b) in enumerate(zip(v, root))) >= 0
            )

        for lam in itertools.product(range(4), repeat=n):
            for mu in itertools.product(range(4), repeat=n):
                diff = tuple(b - a for a, b in zip(lam, mu))
                assert dominance_leq(Weight(lam), Weight(mu)) == decomposes(diff)


def test_group_params():
    assert GroupParams(1, 2).e == 2
    assert GroupParams(2, 3).e == 2
    assert GroupParams(3, 0).e == 3
    assert GroupParams(1, 5).classical() == GroupParams(1, 5)
    assert GroupParams(2, 3).classical() == GroupParams(1, 3)
    with pytest.raises(ValueError):
        GroupParams(1, 0)
    with pytest.raises(ValueError):
        GroupParams(1, 4)
    with pytest.raises(ValueError):
        GroupParams(0, 2)
    with pytest.raises(ValueError):
        GroupParams(2, 0).classical()


def test_is_prime_matches_trial_division():
    def by_trial_division(m):
        return m >= 2 and all(m % d for d in range(2, int(m ** 0.5) + 1))

    assert [_is_prime(m) for m in range(10 ** 5)] == [by_trial_division(m) for m in range(10 ** 5)]
    assert _is_prime(2 ** 62 - 57)
    # strong pseudoprime to every prime base up to 23
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not _is_prime(3825123056546413051)
    with pytest.raises(ValueError):
        _is_prime(_PRIME_LIMIT)


@pytest.mark.parametrize(
    "lam, l, p, quantum, classical",
    [
        ((6, 1), 2, 2, (2, 1), ((0, 0), (1, 0))),
        ((3, 1), 1, 2, (1, 1), ((1, 0),)),
        ((1, 0), 1, 2, (1, 0), ()),
        ((1, 0), 3, 2, (1, 0), ()),
        ((1, 0), 2, 0, (1, 0), ((0, 0),)),
        ((2, 2), 2, 0, (0, 0), ((1, 1),)),
    ],
)
def test_digit_expansion_examples(lam, l, p, quantum, classical):
    exp = digit_expansion(Weight(lam), GroupParams(l, p))
    assert exp.quantum_digit == Weight(quantum)
    assert exp.classical_digits == tuple(Weight(d) for d in classical)
    assert exp.reconstruct() == Weight(lam)


def test_digit_expansion_rejects_bad_weights():
    with pytest.raises(ValueError):
        digit_expansion(Weight((1, 2)), GroupParams(1, 2))
    with pytest.raises(ValueError):
        digit_expansion(Weight((1, -1)), GroupParams(1, 2))


def test_layers():
    # classical: the quantum digit is the 0-th base-p digit, scales p^i
    exp = digit_expansion(Weight((6, 1)), GroupParams(1, 2))
    layers = exp.layers()
    assert [d for d, _, _ in layers] == [Weight((2, 1)), Weight((0, 0)), Weight((1, 0))]
    assert [(base, scale) for _, base, scale in layers] == [(2, 1), (2, 2), (2, 4)]
    assert sum(scale * d[0] for d, _, scale in layers) == 6
    assert sum(scale * d[1] for d, _, scale in layers) == 1
    # quantum: base e, then base-p digits of the quotient at scales e*p^i
    layers = digit_expansion(Weight((6, 1)), GroupParams(2, 2)).layers()
    assert layers == ((Weight((2, 1)), 2, 1), (Weight((0, 0)), 2, 2), (Weight((1, 0)), 2, 4))
    layers = digit_expansion(Weight((6, 1)), GroupParams(2, 3)).layers()
    assert layers == ((Weight((2, 1)), 2, 1), (Weight((2, 0)), 3, 2))
    # characteristic zero: the unrefined quotient at base 0 and scale e,
    # kept when it is zero
    assert digit_expansion(Weight((6, 1)), GroupParams(3, 0)).layers() == (
        (Weight((3, 1)), 3, 1),
        (Weight((1, 0)), 0, 3),
    )
    assert digit_expansion(Weight((2, 1)), GroupParams(3, 0)).layers() == (
        (Weight((2, 1)), 3, 1),
        (Weight((0, 0)), 0, 3),
    )
    # in every context the weight is the sum of scale * digit
    lam = Weight((1000, 123))
    for params in (GroupParams(1, 3), GroupParams(4, 3), GroupParams(4, 0)):
        exp = digit_expansion(lam, params)
        acc = Weight((0, 0))
        for d, _, scale in exp.layers():
            acc = acc + scale * d
        assert exp.reconstruct() == acc == lam


# Naive references: the earlier implementations of the digit kernels, which
# coerced and checked their input on every call and built each layer's
# scale as a power.  The kernels must agree with them entry for entry.


def naive_split(lam, e):
    lam = Weight(lam)
    digits = []
    prev = 0
    for a in reversed(lam):
        prev += (a - prev) % e
        digits.append(prev)
    digits.reverse()
    return Weight(digits), Weight([(a - b) // e for a, b in zip(lam, digits)])


def naive_column_regular(lam, e):
    lam = Weight(lam)
    diffs = [lam[i] - lam[i + 1] for i in range(len(lam) - 1)] + [lam[-1]]
    return all(0 <= d < e for d in diffs)


def naive_digit_layers(lam, params):
    lam0, lbar = naive_split(lam, params.e)
    if params.p == 0:
        digits = [lbar]
    else:
        digits = []
        while any(lbar):
            d, lbar = naive_split(lbar, params.p)
            digits.append(d)
    return [(lam0, params.e, 1)] + [
        (d, params.p, params.e * params.p ** i) for i, d in enumerate(digits)
    ]


SPLIT_BASES = (2, 3, 7, 10007)
SPLIT_PARAMS = [
    GroupParams(l, p)
    for l, p in ((1, 2), (1, 3), (1, 7), (1, 10007), (7, 2), (2, 3), (10007, 7), (3, 0), (10007, 0))
]


def random_weight(rng, n, bound, dominant=False):
    """A rank-n weight, half the time with entries up to ``bound`` in size
    and otherwise small (so that digits and carries of every size occur);
    ``dominant`` draws a polynomial dominant one."""
    top = bound if rng.random() < 0.5 else 40
    if dominant:
        return Weight(sorted((rng.randint(0, top) for _ in range(n)), reverse=True))
    return Weight(rng.randint(-top, top) for _ in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_digit_kernels_match_naive_references(n):
    rng = random.Random(1800 + n)
    for _ in range(300):
        e = rng.choice(SPLIT_BASES)
        lam = random_weight(rng, n, 10 ** 30)
        lam0, lbar = eadic_split(lam, e)
        assert (lam0, lbar) == naive_split(lam, e)
        assert all(type(a) is int for a in lam0 + lbar)
        assert is_column_regular(lam0, e) and naive_column_regular(lam0, e)
        for w in (lam, lam0, lbar, lam0 - omega(n)):
            assert is_column_regular(w, e) == naive_column_regular(w, e)
        assert lam.is_dominant() == all(lam[i] >= lam[i + 1] for i in range(n - 1))
        assert lam.is_polynomial() == all(a >= 0 for a in lam)
    for _ in range(100):
        params = rng.choice(SPLIT_PARAMS)
        lam = random_weight(rng, n, 10 ** 30, dominant=True)
        exp = digit_expansion(lam, params)
        assert list(exp.layers()) == naive_digit_layers(lam, params)
        assert exp.reconstruct() == lam


def test_rank_one_weights_are_dominant():
    for a in (-(10 ** 30), -1, 0, 1, 10 ** 30):
        assert Weight((a,)).is_dominant()
        assert Weight((a,)).is_polynomial() == (a >= 0)


def test_group_params_store_plain_ints():
    class Index:
        def __init__(self, v):
            self.v = v

        def __index__(self):
            return self.v

    params = GroupParams(Index(1), Index(2))
    assert params == GroupParams(1, 2) and hash(params) == hash(GroupParams(1, 2))
    assert all(type(v) is int for v in (params.l, params.p, params.e))
    assert repr(params) == "GroupParams(l=1, p=2)"
    lam = Weight((3 * 10 ** 30 + 5, 10 ** 30))
    assert digit_expansion(lam, params) == digit_expansion(lam, GroupParams(1, 2))
    assert digit_expansion(lam, params).layers() == tuple(naive_digit_layers(lam, GroupParams(1, 2)))
    with pytest.raises(ValueError, match="integers"):
        GroupParams(2.0, 3)


def test_group_params_read_numpy_ints():
    """numpy integers are read as plain ints, so no fixed-width arithmetic
    reaches the digit split."""
    np = pytest.importorskip("numpy")
    params = GroupParams(np.int64(1), np.int64(2))
    assert all(type(v) is int for v in (params.l, params.p, params.e))
    lam = Weight((3 * 10 ** 30 + 5, 10 ** 30))
    assert digit_expansion(lam, params) == digit_expansion(lam, GroupParams(1, 2))
