"""Rank-generic injectivity criterion.

The first-kernel injectivity of an injective envelope is governed by one
inequality in the column-regular digit of its highest weight and the
divisibility index of the quotient layer, :func:`injectivity_criterion`.
:func:`steinberg_range` is the case where the digit alone clears the
bound.  :func:`divind_from_factors` reads the index off the good
filtration of the quotient-layer injective, given as (tau, multiplicity)
pairs: the least last entry among the taus.  Rank 2 reads such a list off
a decomposition column (see :mod:`.gl2`), characteristic zero is
semisimple at every rank (the list is [(lbar, 1)]), and other ranks can
supply their own.
"""

from __future__ import annotations

from .weights import Weight, is_column_regular


def injectivity_criterion(lam0_first, divind_bar, n, e):
    """The first-kernel injectivity inequality:
    lam0_1 + e * divind_bar >= (n-1)(e-1)."""
    if min(lam0_first, divind_bar) < 0 or n < 1 or e < 2:
        raise ValueError("arguments out of range")
    return lam0_first + e * divind_bar >= (n - 1) * (e - 1)


def steinberg_range(lam0, e):
    """True iff the column-regular digit already clears (n-1)(e-1), in which
    case the envelope is infinitesimally injective with no condition on the
    quotient layer."""
    lam0 = Weight(lam0)
    if not is_column_regular(lam0, e):
        raise ValueError("%r is not column %d-regular" % (lam0, e))
    return lam0[0] >= (lam0.n - 1) * (e - 1)


def _factor_weights(factors):
    """The taus of a factor list [(tau, multiplicity), ...], each checked to
    be a partition of the first's rank with multiplicity >= 1."""
    taus = []
    n = None
    for tau, m in factors:
        tau = Weight(tau)
        n = tau.n if n is None else n
        if m < 1 or tau.n != n or not (tau.is_dominant() and tau.is_polynomial()):
            raise ValueError("bad factor (%r, %r)" % (tau, m))
        taus.append(tau)
    return taus


def divind_from_factors(factors):
    """Divisibility index of a module read off its factor list: the least last entry."""
    taus = _factor_weights(factors)
    if not taus:
        raise ValueError("empty factor list")
    return min(tau[-1] for tau in taus)
