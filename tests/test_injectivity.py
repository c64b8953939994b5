import itertools

import pytest

from polyinj import gl2
from polyinj.checks import PARAM_GRID, WIDE_GRID
from polyinj.injectivity import (
    divind_from_factors,
    injectivity_criterion,
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


@pytest.mark.parametrize("n, e", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_steinberg_range_rebuilds_the_digit(n, e):
    """A column e-regular digit lam0 is in the Steinberg range exactly when
    lam0 = (e-1)*delta + w0(mu) for a partition mu, and that mu is again
    column e-regular."""
    seen = set()
    for gaps in itertools.product(range(e), repeat=n):
        lam0 = Weight(itertools.accumulate(gaps)).reversed()  # last entry, then the gaps up
        assert is_column_regular(lam0, e)
        mu = (lam0 - (e - 1) * delta(n)).reversed()
        in_range = steinberg_range(lam0, e)
        assert in_range == mu.is_polynomial(), lam0
        if in_range:
            assert mu.is_dominant() and is_column_regular(mu, e), (lam0, mu)
            assert (e - 1) * delta(n) + mu.reversed() == lam0
        seen.add(in_range)
    assert seen == {True, False}


def test_steinberg_range_suffices_for_the_inequality():
    """On every grid pair up to degree 40, a weight whose digit is in the
    Steinberg range passes the injectivity inequality read off its quotient
    layer, whatever that layer's divisibility index."""
    hits = 0
    for params in PARAM_GRID:
        for r in range(41):
            for lam in partitions(r, 2):
                if steinberg_range(eadic_split(lam, params.e)[0], params.e):
                    hits += 1
                    assert gl2.is_inf_injective_inequality(lam, params), (lam, params)
    assert hits > 0


def test_inequality_matches_partition_enumeration():
    """On every wide-grid pair up to degree 30, the injectivity inequality
    read off the quotient layer (gl2.quotient_column) gives the verdict of
    the criterion fed the least tau_2 found by asking every partition of
    the quotient's degree for its decomposition number at the classical
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
                verdict = gl2.is_inf_injective_inequality(lam, params)
                least = min(tau[1] for tau in partitions(lbar.degree(), 2) if number(tau, lbar))
                assert verdict == injectivity_criterion(lam0[0], least, 2, params.e), (lam, params)
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
    # a bad factor after a good one: not a partition, multiplicity below
    # one, another rank than the first
    for bad in ((W(0, 1), 1), (W(2, 2), 0), (W(4, 0, 0), 1)):
        with pytest.raises(ValueError, match="bad factor"):
            divind_from_factors([(W(2, 0), 1), bad])


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
