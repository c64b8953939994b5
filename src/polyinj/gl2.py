"""The complete rank-2 theory: simple characters, decomposition numbers,
injective characters, and the closed-form classification with its
character-level oracles.

Conventions.  Weights have two entries; the determinant character is xy
and the r-th symmetric power of the natural module has character
h_r(x, y).  Simple characters are assembled layer by layer from the digit
expansion of the highest weight: a column-regular digit (d1, d2)
contributes (xy)^d2 * h_{d1-d2} (a determinant twist of an irreducible
symmetric power), and the layers are Frobenius-twisted by 1, e, e*p,
e*p^2, ...  In characteristic zero the layer under the twist is semisimple
and contributes a single Schur character.

Vectors.  Every rank-2 character here is homogeneous of some degree r
and symmetric, so inside this module it is an integer coefficient vector
v with v[k] the coefficient of x^(r-k) y^k.  A Schur character (so a
digit character) is a run of ones, det^d is a shift by d, and every
product is ``_twisted_product``: a vector times the Frobenius twist of
another.  Simple characters, symmetric powers and standard forms are such
products.  As L(a, b) = det^b * L(a - b, 0), one simple vector is memoized
per SL2 weight n = a - b and shifted by b: ``selfcheck --deg-max 40``
holds 287, every simple of degree <= 400 at two (l, p) pairs 882.
Decomposition numbers are read a column at a time, by back substitution
against the supports of simple characters, never whole simple vectors:
``_simple_support`` builds the support of simple(n, 0), cut to a window of
bits, as one int from the digits of n, and a row of the solve is a few
popcounts.  A column is its support, (tau, multiplicity) pairs by
increasing tau_2: by reciprocity the good filtration of the injective
envelope, and every oracle reads that one list (``quotient_column`` for
the layer under the twist).  An injective character sums its induced
modules as runs of ones, and the divisibility index is its least tau_2.
The simple vectors serve ``simple_character``, the symmetric-power
recursion and the peeling bases, so peeling against them and the columns
are two independent evaluations of the tensor product theorem.  Only
``_vector_character`` builds a :class:`Character`; tableaux, dict peeling
and the suites' dict arithmetic are the oracles for this path.

Every classification routine comes in two flavours: a closed form driven
by the digit pattern, and an oracle recomputing the same quantity from
characters alone (decomposition of Schur characters into simple
characters, reciprocity for injective multiplicities).  Criticality's
oracle is the divisibility oracle at zero: by reciprocity the simple lies
in the symmetric power S^r E = induced(r, 0) exactly when the column's
least tau_2 is 0.  ``classify`` runs both flavours and raises
:class:`OracleMismatch` rather than return conflicting answers.

The closed forms read one digit list, ``digit_expansion(lam).layers()``.
A verdict expands the digits once: ``classify`` builds the list, passes
it to the divisibility layer recursion (a fold from the top digit down)
and formula, the criticality test, the Frobenius-kernel depth (which
every kernel test reads) and the standard form, and returns one
:class:`Classification`.  The public closed forms, called alone, each
build the list themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Optional

from .characters import Character, PeelError
from .injectivity import injectivity_criterion
from .weights import GroupParams, Weight, _int_weight, _split, check_partition, digit_expansion, omega


class OracleMismatch(Exception):
    """A closed form and its independent oracle disagreed: a bug sentinel."""


TOP_DIGIT_LARGE = "top_digit_large"
TOP_DIGIT_SMALL = "top_digit_small"


def _check_weight(lam):
    """``lam`` as a rank-2 dominant polynomial :class:`Weight`, or a
    ValueError.  A Weight is returned as it is, with no copy."""
    lam = Weight(lam)
    if lam.n != 2:
        raise ValueError("rank-2 routine got a rank-%d weight" % lam.n)
    return check_partition(lam)


# ---------------------------------------------------------------------------
# characters


def _det(b, vec):
    """Coefficient vector of det^b times ``vec``: a shift by b."""
    return [0] * b + list(vec) + [0] * b


def _twisted_product(under, factor, left):
    """Coefficient vector of ``left`` times the Frobenius twist of ``under``
    by ``factor`` (which spreads its entries ``factor`` apart): one strided
    add of ``under``, scaled by c, per nonzero entry c of ``left``."""
    span = (len(under) - 1) * factor + 1
    out = [0] * (span + len(left) - 1)
    for i, c in enumerate(left):
        if c:
            step = under if c == 1 else [c * u for u in under]
            out[i:i + span:factor] = map(add, out[i:i + span:factor], step)
    return out


def _vector_character(vec):
    """The :class:`Character` of a coefficient vector."""
    r = len(vec) - 1
    return Character._from_clean(2, {(r - k, k): c for k, c in enumerate(vec) if c})


def simple_character(lam, params):
    """Character of the simple module of highest weight ``lam`` = (a, b)."""
    a, b = _check_weight(lam)
    return _vector_character(_det(b, _simple_character(a - b, params)))


@lru_cache(maxsize=None)
def _simple_character(n, params):
    """Coefficient vector (a tuple) of the simple character of (n, 0), by
    the tensor product theorem: for n = n0 + e*nbar, the run of n0 + 1 ones
    times the Frobenius twist by e of the simple of (nbar, 0) at the
    classical parameters, or in characteristic zero of h_nbar."""
    e, nbar = params.e, n // params.e
    if params.p == 0:
        under = [1] * (nbar + 1)
    else:
        under = _simple_character(nbar, params.classical()) if nbar else (1,)
    return tuple(_twisted_product(under, e, [1] * (n % e + 1)))


def sympow_character_recursive(r, params):
    """Character of the r-th symmetric power of the natural module, built by
    the layer recursion: write r = r0 + e*rbar; the top layer contributes
    the simple characters of highest weights (r0, 0) and, unless r0 = e-1,
    (e-1, r0+1), against symmetric powers of the layer underneath.

    Equals ``h_character(r, 2)``; the two routes are compared wholesale by
    the self-check suite.
    """
    if r < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    return _vector_character(_sympow_recursive(r, params))


@lru_cache(maxsize=None)
def _sympow_recursive(r, params):
    if r == 0:
        return (1,)
    e = params.e
    r0, rbar = r % e, r // e

    def bar_power(k):
        if params.p == 0:
            return [1] * (k + 1)  # h_k
        return _sympow_recursive(k, params.classical())

    out = _twisted_product(bar_power(rbar), e, _simple_character(r0, params))
    if rbar >= 1 and r0 < e - 1:
        top = _det(r0 + 1, _simple_character(e - 2 - r0, params))  # L(e-1, r0+1)
        out = map(add, out, _twisted_product(bar_power(rbar - 1), e, top))
    return tuple(out)


def _simple_support(n, e, p, width):
    """The support of the simple character of (n, 0) in a window of
    ``width`` bits, as one int: bit k, for k < width, is the coefficient
    (0 or 1) of x^(n-k) y^k.  By the tensor product theorem the support is
    a product of runs, one per digit: the n mod e + 1 ones of the base-e
    digit, then, for each base-p digit d of n // e at scale s, d + 1 copies
    of the support so far spaced s apart (in characteristic zero, where the
    layer under the twist is a whole Schur character, n // e + 1 copies
    spaced e apart).  The copies are made by doubling, only as far as the
    window reaches, and a digit at a scale past the window changes nothing
    in it, so a digit costs a few shifts of ints of about ``width`` bits."""
    support = (1 << (n % e + 1)) - 1
    n, scale = n // e, e
    while n and scale < width:
        d = n % p if p else n
        have = 1
        while have <= d and have * scale < width:
            support |= support << have * scale
            have *= 2
        if have > d + 1:  # the last doubling went past d + 1 copies
            support &= (1 << (d + 1) * scale) - 1
        n = n // p if p else 0
        scale *= p
    return support & ((1 << width) - 1)


def _column(lam, params):
    """Column ``lam`` of the decomposition matrix by back substitution:
    entry t is [induced(r-t, t) : simple(lam)] for t <= lam_2 (zero further
    down).  In the Weyl basis simple(r-i, i) = det^i * simple(n, 0), with
    n = r - 2i, has coefficient c(n, t-i) - c(n, t-i-1) at induced(r-t, t),
    c(n, k) bit k of :func:`_simple_support`; these coefficients form a
    unitriangular matrix whose inverse's column lam_2 this solves for, from
    y = 1 at lam_2 upward.  Row i reads the support S of simple(n, 0) in the
    window of the lam_2 - i + 1 rows it sums over, and, for each
    multiplicity m, the mask T of the rows solved with m, shifted down by
    i: m * (popcount(T & (S << 1)) - popcount(T & S)) is their share of y.
    Like :func:`peel_into_basis` on the simple vectors, which stays its
    oracle, it raises :class:`PeelError` on a negative entry and on a simple
    whose coefficient at its own pivot (bit 0 of S) is not one."""
    r, j = lam.degree(), lam[1]
    e, p = params.e, params.p
    col = [0] * (j + 1)
    solved = {}  # multiplicity -> mask with bit t for each row t solved with it
    for i in range(j, -1, -1):
        support = _simple_support(r - 2 * i, e, p, j - i + 1)
        if not support & 1:
            raise PeelError("basis element at %r lacks leading multiplicity one"
                            % (_int_weight((r - i, i)),))
        y = 1 if i == j else 0
        for m, mask in solved.items():
            mask >>= i
            y += m * ((mask & support << 1).bit_count() - (mask & support).bit_count())
        if y < 0:
            raise PeelError(
                "pivot %r carries multiplicity %d; not expressible in this basis"
                % (_int_weight((r - i, i)), y)
            )
        if y:
            col[i] = y
            solved[y] = solved.get(y, 0) | 1 << i
    return col


def decomposition_column(lam, params):
    """Column ``lam`` of the decomposition matrix as its support: the pairs
    (tau, [induced(tau) : simple(lam)]) with a nonzero entry, by increasing
    tau_2 <= lam_2, which is the good filtration of the injective of lam."""
    lam = _check_weight(lam)
    r = lam.degree()
    return [(_int_weight((r - t, t)), m) for t, m in enumerate(_column(lam, params)) if m]


def _least_tau2(column):
    """The least tau_2 of a column built here, read without a check: its
    first pair's, as a column runs by increasing tau_2.  A factor list from
    outside goes through :func:`.injectivity.divind_from_factors`, which
    validates it."""
    return column[0][0][1]


def quotient_column(lbar, params):
    """The good filtration of the injective envelope of ``lbar`` in the layer
    under the twist: ``lbar`` alone in characteristic zero, where that layer
    is semisimple, else its column at the classical parameters."""
    if params.p == 0:
        return [(_check_weight(lbar), 1)]
    return decomposition_column(lbar, params.classical())


def decomposition_number(tau, lam, params):
    """Composition multiplicity of the simple of highest weight ``lam`` in
    the induced module of highest weight ``tau`` (zero when degrees differ)."""
    return dict(decomposition_column(lam, params)).get(_check_weight(tau), 0)


def injective_character(lam, params):
    """Character of the injective envelope of the simple with highest weight
    ``lam`` in the polynomial category: the sum of its good filtration."""
    return _vector_character(_induced_sum(decomposition_column(lam, params)))


def _induced_sum(factors):
    """Coefficient vector of a (tau, multiplicity) list of induced modules of
    one degree, each induced(a, b) a run of ones on [b, a], summed by difference."""
    r = factors[0][0].degree()
    diff = [0] * (r + 2)
    for (a, b), m in factors:
        diff[b] += m
        diff[a + 1] -= m
    return list(accumulate(diff[:-1]))


# ---------------------------------------------------------------------------
# criticality


def _digit_is_critical(d, base):
    """A digit keeps the layer critical iff its top entry is base-1 or its
    bottom entry is 0 (for the unrefined quotient, base 0: iff it ends in 0)."""
    return d[0] == base - 1 or d[1] == 0


def _layers(lam, params):
    """The digit list of a checked weight, which every closed form reads."""
    return digit_expansion(lam, params).layers()


def _all_critical(layers):
    return all(_digit_is_critical(d, base) for d, base, _ in layers)


def is_critical_closed(lam, params):
    """Digit-pattern test for divisibility index zero: every digit of the
    expansion must be critical for its base."""
    return _all_critical(_layers(_check_weight(lam), params))


# ---------------------------------------------------------------------------
# divisibility index


def _divind_by_layers(layers):
    """Layer recursion for the divisibility index of the injective envelope,
    folded over the digit list from the top digit down: ``div`` is the index
    of the quotient weight that the digits above the current one spell."""
    div = 0
    for d, base, _ in reversed(layers):
        if base == 0 or (d[0] < base - 1 and div == 0):
            div = d[1]
        else:
            div = d[0] - (base - 1) + base * div
    return div


def _divind_formula(layers):
    """Closed form on the digit list.  m is the largest index carrying a
    non-critical digit; every digit above m is critical and contributes
    nothing, every digit below m contributes its top entry at its scale,
    and the digit at m contributes through one of two branches depending
    on whether its top entry clears base-1 (never for the unrefined
    quotient)."""
    bad = [i for i, (d, base, _) in enumerate(layers) if not _digit_is_critical(d, base)]
    if not bad:
        return 0
    m = bad[-1]
    alpha1 = sum(scale * d[0] for d, _, scale in layers[:m])
    dm, base, scale = layers[m]
    if base == 0 or dm[0] < base - 1:
        return alpha1 + scale * dm[1] - (scale - 1)
    return alpha1 + scale * dm[0] - (scale * base - 1)


def divind_injective_closed(lam, params):
    """Divisibility index of the injective envelope of highest weight ``lam``,
    evaluated on one digit list by both the layer recursion, folded over the
    digits, and the digit closed form; the two must agree or
    :class:`OracleMismatch` is raised."""
    lam = _check_weight(lam)
    return _divind_closed(lam, params, _layers(lam, params))


def _divind_closed(lam, params, layers):
    by_layers = _divind_by_layers(layers)
    by_formula = _divind_formula(layers)
    if by_layers != by_formula:
        raise OracleMismatch(
            "divisibility index of %r at %s: layer recursion says %d, closed form says %d"
            % (lam, params, by_layers, by_formula)
        )
    return by_layers


def divind_injective_oracle(lam, params):
    """Divisibility index from the good filtration of the injective envelope:
    the least last entry of a tau whose induced module contains the simple
    of highest weight ``lam``, read off its :func:`decomposition_column`."""
    return _least_tau2(decomposition_column(lam, params))


# ---------------------------------------------------------------------------
# infinitesimal injectivity


def _kernel_depth(layers, params):
    """Largest m such that the envelope is injective over the m-th Frobenius
    kernel (at most 1 in characteristic zero): the first-kernel tests of the
    digit tails from indices 0..m-1 pass.  A tail passes iff its lowest digit
    clears base-1 or a digit above it is not critical; the empty tail (the
    zero weight) fails.  One backward pass over the digits."""
    depth = len(layers)
    critical_above = True
    for r in range(len(layers) - 1, -1, -1):
        d, base, _ = layers[r]
        if d[0] < base - 1 and critical_above:
            depth = r
        critical_above = critical_above and _digit_is_critical(d, base)
    return min(depth, 1) if params.p == 0 else depth


def is_inf_injective_closed(lam, params):
    """Digit-pattern test for injectivity over the first Frobenius kernel:
    the quantum digit clears e-1, or the quotient layer is not critical."""
    return _kernel_depth(_layers(_check_weight(lam), params), params) >= 1


def is_inf_injective_inequality(lam, params):
    """Index-inequality test for injectivity over the first Frobenius kernel,
    with the quotient layer's divisibility index computed by the character
    ORACLE (not the closed form): lam0_1 + e * divind >= e - 1."""
    lam = _check_weight(lam)
    lam0, lbar = _split(lam, params.e)
    bar_div = _least_tau2(quotient_column(lbar, params))
    return injectivity_criterion(lam0[0], bar_div, 2, params.e)


# ---------------------------------------------------------------------------
# standard form


@dataclass(frozen=True)
class FactorizationDescriptor:
    """Standard tensor form of an infinitesimally injective envelope:
    a first-kernel injective Q(q_weight), det_power determinant factors, and
    a Frobenius-twisted injective with classical highest weight bar_weight.
    Always q_weight + det_power * omega + e * bar_weight = lam."""

    q_weight: Weight
    det_power: int
    bar_weight: Weight
    branch: str

    def rendered(self):
        return "Q(%d,%d)*D^%d*I(%d,%d)^F" % (
            self.q_weight[0],
            self.q_weight[1],
            self.det_power,
            self.bar_weight[0],
            self.bar_weight[1],
        )


def standard_form(lam, params):
    """Standard-form descriptor of the injective envelope of ``lam``; only
    defined when it is infinitesimally injective."""
    lam = _check_weight(lam)
    layers = _layers(lam, params)
    if not _kernel_depth(layers, params):
        raise ValueError("%r is not infinitesimally injective at %s" % (lam, params))
    return _standard_form(lam, params, _divind_closed(lam, params, layers))


def _standard_form(lam, params, m):
    """Standard form of an infinitesimally injective ``lam`` whose
    divisibility index is m."""
    e = params.e
    m0, mbar = m % e, m // e
    lam0, lbar = _split(lam, e)
    w = omega(2)
    if lam0[0] >= e - 1:
        desc = FactorizationDescriptor(lam0 - m0 * w, m, lbar - mbar * w, TOP_DIGIT_LARGE)
    else:
        desc = FactorizationDescriptor(
            lam0 - m0 * w + e * w, m, lbar - (mbar + 1) * w, TOP_DIGIT_SMALL
        )
    if reconstruct_weight(desc, params) != lam:
        raise OracleMismatch("standard form of %r at %s does not reconstruct" % (lam, params))
    return desc


def reconstruct_weight(desc, params):
    return desc.q_weight + desc.det_power * omega(2) + params.e * desc.bar_weight


def standard_form_character(desc, params):
    """Character of the standard tensor form: first-kernel injective times
    determinant power times the twisted classical injective character."""
    bar = _induced_sum(quotient_column(desc.bar_weight, params))
    q = _induced_sum(decomposition_column(desc.q_weight, params))
    prod = _twisted_product(bar, params.e, q)
    return _vector_character(_det(desc.det_power, prod))


# ---------------------------------------------------------------------------
# higher Frobenius kernels


def is_gm_injective(lam, m, params):
    """Injectivity of the envelope of ``lam`` over the m-th Frobenius kernel:
    first-kernel injectivity of the m digit-shifted weights whose digits are
    the expansion's from index r on, for r = 0..m-1.  Classically these are
    sum_{j>=r} p^{j-r} d_j; in the quantum case the test is first-kernel
    injectivity plus, for m >= 2, the classical (m-1)-th kernel test for
    the quotient weight.  Characteristic zero only has the first kernel.
    """
    if m < 1:
        raise ValueError("kernel index must be >= 1")
    if m >= 2 and params.p == 0:
        raise ValueError("higher Frobenius kernels need positive characteristic")
    return m <= _kernel_depth(_layers(_check_weight(lam), params), params)


# ---------------------------------------------------------------------------
# the full verdict


@dataclass(frozen=True)
class Classification:
    """Full verdict for one (weight, params) pair.  critical iff divind = 0,
    divind <= degree/2; kernel_depth is the largest m such that the envelope
    is injective over the m-th Frobenius kernel, and standard_form is
    present iff inf_injective (kernel_depth >= 1).  oracle_checked: the
    character oracles confirmed the closed forms."""

    lam: Weight
    params: GroupParams
    critical: bool
    divind: int
    kernel_depth: int
    standard_form: Optional[FactorizationDescriptor]
    oracle_checked: bool

    @property
    def inf_injective(self):
        return self.kernel_depth >= 1

    def gm_flags(self, gm_max):
        """``is_gm_injective`` for m = 1..gm_max; None where the kernel is
        undefined (m >= 2 in characteristic zero)."""
        return tuple(None if m >= 2 and self.params.p == 0 else m <= self.kernel_depth
                     for m in range(1, gm_max + 1))


# highest degree at which classify runs the character oracles unasked
ORACLE_DEGREE_LIMIT = 40


def classify(lam, params, check=False):
    """Classify one weight from one digit list, cross-checking the closed
    forms against the character oracles when ``check`` is set or the degree
    is at most ``ORACLE_DEGREE_LIMIT`` (the oracles cost a column of
    decomposition numbers, quadratic in lam_2 in machine words; the closed
    forms are digit arithmetic).  Any disagreement raises
    :class:`OracleMismatch`."""
    lam = _check_weight(lam)
    layers = _layers(lam, params)
    div = _divind_closed(lam, params, layers)
    crit = _all_critical(layers)
    depth = _kernel_depth(layers, params)
    inf = depth >= 1
    if crit != (div == 0):
        raise OracleMismatch(
            "criticality of %r at %s inconsistent with divisibility index %d" % (lam, params, div)
        )
    if 2 * div > lam.degree():
        raise OracleMismatch(
            "divisibility index %d of %r exceeds degree/2" % (div, lam)
        )
    checked = check or lam.degree() <= ORACLE_DEGREE_LIMIT
    if checked:
        # criticality is tied to div == 0 above, so this oracle covers it too
        div_o = divind_injective_oracle(lam, params)
        if div != div_o:
            raise OracleMismatch(
                "divisibility index of %r at %s: closed %d vs oracle %d" % (lam, params, div, div_o)
            )
        inf_o = is_inf_injective_inequality(lam, params)
        if inf != inf_o:
            raise OracleMismatch(
                "injectivity of %r at %s: closed %r vs inequality %r" % (lam, params, inf, inf_o)
            )
    std = _standard_form(lam, params, div) if inf else None
    return Classification(lam, params, crit, div, depth, std, checked)

