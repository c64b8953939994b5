import random

import pytest

from polyinj import gl2
from polyinj.checks import WIDE_GRID
from polyinj.injectivity import (
    divind_from_factors,
    injectivity_criterion,
    necessary_condition,
    steinberg_complement,
    steinberg_range,
)
from polyinj.schur import partitions
from polyinj.weights import GroupParams, Weight, delta, eadic_split, is_column_regular

P12 = GroupParams(1, 2)


def W(*entries):
    return Weight(entries)


def test_injectivity_criterion():
    assert injectivity_criterion(2, 0, 2, 2) is True
    assert injectivity_criterion(0, 0, 1, 5) is True  # (n-1)(e-1) = 0
    assert injectivity_criterion(0, 0, 2, 2) is False
    assert injectivity_criterion(1, 1, 3, 3) is True  # 1 + 3 >= 4
    assert injectivity_criterion(0, 1, 3, 3) is False
    with pytest.raises(ValueError):
        injectivity_criterion(-1, 0, 2, 2)
    with pytest.raises(ValueError):
        injectivity_criterion(0, 0, 2, 1)


def test_criterion_monotone_in_divisibility():
    # once the Steinberg range test passes, the criterion holds whatever the
    # quotient layer contributes
    for e in (2, 3, 5):
        for n in (2, 3, 4):
            for first in range((n - 1) * (e - 1), (n - 1) * (e - 1) + 4):
                for d in range(4):
                    assert injectivity_criterion(first, d, n, e) is True


def test_steinberg_range():
    assert steinberg_range(W(2, 1), 2) is True
    assert steinberg_range(W(0, 0), 3) is False
    assert steinberg_range(W(4, 2, 1), 3) is True  # boundary: 4 >= 4
    with pytest.raises(ValueError):
        steinberg_range(W(4, 0), 2)  # not column-regular


def test_steinberg_complement_examples():
    assert steinberg_complement(W(1, 0), 2) == W(0, 0)
    assert steinberg_complement(W(2, 1), 2) == W(1, 1)
    assert steinberg_complement(W(1, 1), 3) is None
    assert steinberg_complement(W(4, 0), 2) is None  # not column-regular


def test_steinberg_complement_identity():
    for n in (2, 3):
        for e in (2, 3):
            import itertools

            for box in itertools.product(range(e), repeat=n):
                lam0 = [box[-1]]
                for g in box[:-1][::-1]:
                    lam0.append(lam0[-1] + g)
                lam0 = Weight(lam0[::-1])
                mu = steinberg_complement(lam0, e)
                if lam0[0] >= (n - 1) * (e - 1):
                    assert mu is not None
                    assert is_column_regular(mu, e)
                    assert (e - 1) * delta(n) + mu.reversed() == lam0
                else:
                    assert mu is None


def test_necessary_condition_with_rank2_oracle():
    lam0, lbar = eadic_split(W(2, 1), 2)
    assert necessary_condition(lam0, gl2.decomposition_column(lbar, P12), 2) is True
    lam0, lbar = eadic_split(W(2, 0), 2)
    assert gl2.decomposition_column(lbar, P12) == [(W(1, 0), 1)]
    assert necessary_condition(lam0, gl2.decomposition_column(lbar, P12), 2) is False
    # one factor too low sinks the whole list; every factor must have lam0's rank
    assert necessary_condition(W(0, 0), [(W(2, 2), 1)], 2) is True
    assert necessary_condition(W(0, 0), [(W(2, 2), 1), (W(4, 0), 2)], 2) is False
    assert necessary_condition(W(0, 0), [], 2) is True
    with pytest.raises(ValueError):
        necessary_condition(W(0, 0), [(W(2, 2), 1), (W(4, 0, 0), 1)], 2)


def test_necessary_condition_checks_factors_as_divind_does():
    """Both readers of a factor list refuse a tau that is not a partition
    and a multiplicity below one."""
    for bad in ((W(0, 1), 1), (W(2, 2), 0)):
        with pytest.raises(ValueError, match="bad factor"):
            necessary_condition(W(1, 0), [(W(2, 0), 1), bad], 2)
        with pytest.raises(ValueError, match="bad factor"):
            divind_from_factors([(W(2, 0), 1), bad])


def test_necessary_condition_is_the_criterion_at_the_least_tau():
    """On a nonempty valid factor list, the necessary inequality is the
    injectivity criterion fed the list's divisibility index: every tau
    clears the bound exactly when the one with the least last entry does."""
    rng = random.Random(7)
    verdicts = set()
    for _ in range(4800):
        n, e = rng.randint(1, 4), rng.choice((2, 3, 5, 7))
        lam0 = Weight(sorted((rng.randint(0, 3 * e) for _ in range(n)), reverse=True))
        factors = [(Weight(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True)),
                    rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        expected = injectivity_criterion(lam0[0], divind_from_factors(factors), n, e)
        assert necessary_condition(lam0, factors, e) == expected, (lam0, factors, e)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_necessary_condition_semisimple():
    # only tau = lbar contributes, and its last entry is nonnegative
    for n in (2, 3):
        for e in (2, 3):
            lam0 = Weight(((n - 1) * (e - 1),) + (0,) * (n - 1))
            for r in range(4):
                for lbar in partitions(r, n):
                    assert necessary_condition(lam0, [(lbar, 1)], e) is True


def necessary_by_partitions(lam0, lbar, e, number):
    """The necessary inequality as a per-entry oracle sees it: every
    partition tau of |lbar| with number(tau, lbar) != 0 clears the bound."""
    bound = (lam0.n - 1) * (e - 1)
    return all(lam0[0] + e * tau[-1] >= bound
               for tau in partitions(lbar.degree(), lam0.n) if number(tau, lbar))


def test_necessary_condition_matches_partition_enumeration():
    """On every wide-grid pair up to degree 30, the factor list of the
    quotient layer (gl2.quotient_column) gives the verdict of asking every
    partition of its degree for its decomposition number at the classical
    parameters (or for equality with the quotient weight at p = 0)."""
    verdicts = set()
    for params in WIDE_GRID:
        if params.p == 0:
            number = lambda tau, lbar: tau == lbar
        else:
            classical = params.classical()
            number = lambda tau, lbar: gl2.decomposition_number(tau, lbar, classical)
        for r in range(31):
            for lam in partitions(r, 2):
                lam0, lbar = eadic_split(lam, params.e)
                verdict = necessary_condition(lam0, gl2.quotient_column(lbar, params), params.e)
                assert verdict == necessary_by_partitions(lam0, lbar, params.e, number), (lam, params)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_divind_from_factors():
    assert divind_from_factors([(W(2, 0), 1), (W(1, 1), 1)]) == 0
    assert divind_from_factors([(W(3, 2), 4)]) == 2
    with pytest.raises(ValueError):
        divind_from_factors([])
    with pytest.raises(ValueError):
        divind_from_factors([(W(1, 0), 0)])
    with pytest.raises(ValueError):
        divind_from_factors([(W(0, 1), 1)])


def test_criterion_matches_rank2_digit_test():
    for params in (P12, GroupParams(2, 3), GroupParams(2, 0)):
        for r in range(15):
            for lam in partitions(r, 2):
                lam0, lbar = eadic_split(lam, params.e)
                if params.p == 0:
                    bar_div = lbar[1]
                else:
                    bar_div = gl2.divind_injective_oracle(lbar, params.classical())
                assert injectivity_criterion(lam0[0], bar_div, 2, params.e) == gl2.is_gm_injective(lam, 1, params)
