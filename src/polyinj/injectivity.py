"""Rank-generic injectivity criteria.

The first-kernel injectivity of an injective envelope is governed by one
inequality in the column-regular digit of its highest weight and the
divisibility index of the quotient layer.  Everything here is a pure
function of those inputs plus a pluggable composition-factor oracle
(tau, lam) -> [induced(tau) : simple(lam)]: rank 2 has a complete engine
(see :mod:`.gl2`), characteristic zero is semisimple at every rank, and
other ranks can supply their own numbers.
"""

from __future__ import annotations

from .schur import partitions
from .weights import Weight, delta, is_column_regular


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


def steinberg_complement(lam0, e):
    """The weight mu with lam0 = (e-1)*delta + w0(mu), defined exactly when
    ``lam0`` is column e-regular and in the Steinberg range; None otherwise.
    The output is again column e-regular."""
    lam0 = Weight(lam0)
    if not is_column_regular(lam0, e):
        return None
    if lam0[0] < (lam0.n - 1) * (e - 1):
        return None
    return (lam0 - (e - 1) * delta(lam0.n)).reversed()


def necessary_condition(lam0, lbar, e, oracle):
    """Necessary inequality for infinitesimal injectivity: every partition
    tau contributing to the good filtration of the quotient-layer injective
    (oracle(tau, lbar) != 0) must satisfy lam0_1 + e*tau_n >= (n-1)(e-1).

    A consistency check, never a classifier.
    """
    lam0, lbar = Weight(lam0), Weight(lbar)
    lam0._same_rank(lbar)
    n = lam0.n
    bound = (n - 1) * (e - 1)
    for tau in partitions(lbar.degree(), n):
        if oracle(tau, lbar) and lam0[0] + e * tau[-1] < bound:
            return False
    return True


def divind_from_factors(factors):
    """Divisibility index of a module read off a factor list
    [(weight, multiplicity), ...]: the least last entry."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    for w, m in factors:
        if m < 1 or not (Weight(w).is_dominant() and Weight(w).is_polynomial()):
            raise ValueError("bad factor (%r, %r)" % (w, m))
    return min(Weight(w)[-1] for w, _ in factors)


def semisimple_comp_factors(tau, lam):
    """Composition-factor oracle of a semisimple category: induced modules
    are simple, so [induced(tau) : simple(lam)] is 1 iff tau = lam."""
    return 1 if Weight(tau) == Weight(lam) else 0

