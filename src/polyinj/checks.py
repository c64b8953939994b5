"""Exhaustive desk-scale verification suites.

Each suite pits a closed form against an independent oracle (or checks a
structural identity) over a full grid of weights and parameter sets, and
reports the instance count plus the first few counterexamples.  Each
suite is declared once, in :data:`SUITES`: its name, its degree bound and
whether it takes the (l, p) grid.

:func:`run_suite` is the one runner.  It takes a registry name and runs
that suite at exactly the degree it is given, past the bound too: it
builds the :class:`SuiteResult` under the name and hands it to
``check_<name>(res, deg_max[, grid])``, which counts instances and
records failures on it and returns it.  :func:`run_all`, which the
``selfcheck`` command calls, runs every suite in registry order, each
capped at its bound.

The rank-2 suites iterate over :func:`_sweep`, which yields every
``(lam, params)`` pair and records it on the result as the instance
under test.  The rank-generic suites walk it too, at ranks 1..N_MAX and with
no parameters.  A suite that raises keeps its partial count, and the
runner adds one failure naming the instance and the exception, e.g.
``suite crashed after 19 instances at Weight(5, 2) l=1,p=2:
StopIteration()`` or ``... at Weight(2, 1, 0): ...``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import gl2, injectivity
from .characters import Character, PeelError, min_last_entry, peel_into_basis
from .schur import _schur_ssyt, h_character, partitions, schur_character, schur_character_jt
from .weights import GroupParams, Weight, digit_expansion, dominance_leq, eadic_split, is_column_regular, omega

PARAM_GRID = (
    GroupParams(1, 2),
    GroupParams(1, 3),
    GroupParams(1, 5),
    GroupParams(2, 3),
    GroupParams(3, 2),
    GroupParams(2, 0),
    GroupParams(3, 0),
)

# the parameter grid plus composite l, p = 7 and 11 and more characteristic-zero pairs
WIDE_GRID = PARAM_GRID + (
    GroupParams(4, 2), GroupParams(6, 3), GroupParams(9, 2), GroupParams(1, 7), GroupParams(5, 7),
    GroupParams(4, 0), GroupParams(6, 0), GroupParams(2, 2), GroupParams(3, 3), GroupParams(1, 11),
)

# the higher-kernel suite's pairs when the run's grid has no positive p
KERNEL_GRID = (
    GroupParams(1, 2),
    GroupParams(1, 3),
    GroupParams(2, 2),
    GroupParams(2, 3),
    GroupParams(3, 2),
    GroupParams(3, 3),
)

# The registry: every suite once, by name, as (degree bound, grid), in
# selfcheck order.  The grid is None for suites that take none and
# "params" for those handed the run's (l, p) grid.  The bound is only
# selfcheck's cap (run_all); run_suite runs a suite at any degree.
# ``check_<name>`` is looked up in the module globals when the suite runs,
# never stored here, and called as check_<name>(res, deg_max[, grid]).
SUITES = {
    "eadic-roundtrip": (30, None),
    "dominance-order": (12, None),
    "digit-expansion": (30, "params"),
    "character-ring": (10, None),
    "schur-agreement": (12, None),
    "divind-equivalence": (40, "params"),
    "criticality-equivalence": (40, "params"),
    "injectivity-equivalence": (40, "params"),
    "sympow-recursion": (60, "params"),
    "peeling-soundness": (40, "params"),
    "simple-divind": (20, "params"),
    "divisibility-shift": (20, "params"),
    "standard-form": (20, "params"),
    "necessary-inequality": (30, "params"),
    "higher-kernels": (20, "params"),
    "criterion-layer": (40, "params"),
    "table-determinism": (15, None),
}

N_MAX = 4  # highest rank of the rank-generic suites
EADIC_BASES = (2, 3, 5)
RING_SAMPLES = 25  # random pairs per rank in character-ring
RING_SEED = 0
KERNEL_M_MAX = 3  # deepest kernel pair (m, m+1) in higher-kernels

_MAX_RECORDED = 5


@dataclass
class SuiteResult:
    """Instance count, true failure count, and the first few failure
    messages of one suite."""

    name: str
    instances: int = 0
    failures: list = field(default_factory=list)
    failure_count: int = 0
    at: tuple = None  # the (lam, params) under test; params None in a suite without a grid

    @property
    def ok(self):
        return not self.failure_count

    def count(self):
        self.instances += 1

    def fail(self, message):
        self.failure_count += 1
        if len(self.failures) < _MAX_RECORDED:
            self.failures.append(message)

    def summary(self):
        status = "ok  " if self.ok else "FAIL"
        line = "%s  %-28s %7d instances" % (status, self.name, self.instances)
        for f in self.failures:
            line += "\n      " + f
        dropped = self.failure_count - len(self.failures)
        if dropped:
            line += "\n      ... and %d more" % dropped
        return line


def _weights(deg_max, n):
    for r in range(deg_max + 1):
        yield from partitions(r, n)


def _sweep(res, deg_max, grid, ranks=(2,)):
    """Every weight of degree <= deg_max at each rank of ``ranks`` (by
    rank, then degree) at every (l, p) of ``grid`` (None for a suite that
    takes none), as ``(lam, params)``, each recorded on ``res`` as the
    instance under test so that a crash can name it."""
    for params in grid:
        for n in ranks:
            for lam in _weights(deg_max, n):
                res.at = (lam, params)
                yield lam, params


# ---------------------------------------------------------------------------
# weight combinatorics


def check_eadic_roundtrip(res, deg_max):
    """The digit split is the unique column-regular decomposition (checked
    against exhaustive candidate enumeration) and reconstructs the weight."""
    for n in range(1, N_MAX + 1):
        for e in EADIC_BASES:
            # all column-regular candidates, parametrized by differences
            # (box = last entry, then differences bottom-up) and bucketed
            # by their residues mod e in enumeration order
            buckets = {}
            for box in itertools.product(range(e), repeat=n):
                cand = Weight(list(itertools.accumulate(box))[::-1])
                buckets.setdefault(tuple(a % e for a in cand), []).append(cand)
            for lam, _ in _sweep(res, deg_max, (None,), (n,)):
                res.count()
                lam0, lbar = eadic_split(lam, e)
                if lam0 + e * lbar != lam or not is_column_regular(lam0, e):
                    res.fail("split of %r base %d broken: %r + %d*%r" % (lam, e, lam0, e, lbar))
                    continue
                if not (lbar.is_dominant() and lbar.is_polynomial()):
                    res.fail("quotient of %r base %d not a partition: %r" % (lam, e, lbar))
                matches = buckets.get(tuple(a % e for a in lam), [])
                if matches != [lam0]:
                    res.fail("split of %r base %d: got %r, candidates %r" % (lam, e, lam0, matches))
    return res


def check_dominance_order(res, deg_max):
    """Dominance is a partial order on each degree slice, refined by lex."""
    for n in range(1, N_MAX + 1):
        for r in range(deg_max + 1):
            slice_ = partitions(r, n)
            above = {}  # lam -> the other mu of the slice with lam <= mu, in slice order
            for lam in slice_:
                res.at = (lam, None)
                res.count()
                if not dominance_leq(lam, lam):
                    res.fail("not reflexive at %r" % (lam,))
                above[lam] = [mu for mu in slice_ if mu != lam and dominance_leq(lam, mu)]
            for lam in slice_:
                res.at = (lam, None)
                for mu in above[lam]:
                    if dominance_leq(mu, lam):
                        res.fail("antisymmetry fails at %r, %r" % (lam, mu))
                    if not lam <= mu:
                        res.fail("lex does not refine dominance at %r <= %r" % (lam, mu))
                    # transitivity can only fail along a chain lam <= mu <= nu
                    for nu in above[mu]:
                        if nu != lam and not dominance_leq(lam, nu):
                            res.fail("transitivity fails at %r, %r, %r" % (lam, mu, nu))
    return res


def check_digit_expansion(res, deg_max, grid):
    """Every digit is column-regular for its base and the expansion
    reconstructs the weight."""
    for lam, params in _sweep(res, deg_max, grid, range(1, N_MAX + 1)):
        res.count()
        exp = digit_expansion(lam, params)
        if exp.reconstruct() != lam:
            res.fail("expansion of %r at %s does not reconstruct" % (lam, params))
            continue
        if not is_column_regular(exp.quantum_digit, params.e):
            res.fail("quantum digit of %r at %s not regular" % (lam, params))
        if params.p > 0 and not all(is_column_regular(d, params.p) for d in exp.classical_digits):
            res.fail("classical digits of %r at %s not regular" % (lam, params))
    return res


# ---------------------------------------------------------------------------
# character ring


def check_character_ring(res, deg_max):
    """Ring sanity on sampled Schur characters: divisibility additivity on
    products, commutativity and twist multiplicativity on smaller ones, and
    the agreement of the weight-level and factor-level divisibility
    readings through simple-basis peeling."""
    rng = random.Random(RING_SEED)
    for n in range(2, N_MAX + 1):
        pool = [lam for r in range(deg_max + 1) for lam in partitions(r, n)]
        small = [lam for lam in pool if lam.degree() <= min(deg_max, 5)]
        for _ in range(RING_SAMPLES):
            lam, mu = rng.choice(pool), rng.choice(pool)
            res.at = ((lam, mu), None)
            res.count()
            a, b = schur_character(lam), schur_character(mu)
            if min_last_entry(a * b) != min_last_entry(a) + min_last_entry(b):
                res.fail("divisibility not additive at %r, %r" % (lam, mu))
        for _ in range(RING_SAMPLES):
            lam, mu = rng.choice(small), rng.choice(small)
            res.at = ((lam, mu), None)
            res.count()
            a, b = schur_character(lam), schur_character(mu)
            if a * b != b * a:
                res.fail("product not commutative at %r, %r" % (lam, mu))
            if (a * b).twist(2) != a.twist(2) * b.twist(2):
                res.fail("twist not multiplicative at %r, %r" % (lam, mu))
    # factor-level vs weight-level divisibility, through simple-basis peeling
    for lam, params in _sweep(res, min(deg_max, 7), (GroupParams(1, 2), GroupParams(2, 3))):
        basis = lambda w: gl2.simple_character(w, params)
        for mu in _weights(min(deg_max, 7), 2):
            res.at = ((lam, mu), params)
            res.count()
            chi = gl2.simple_character(lam, params) * gl2.simple_character(mu, params)
            factors = peel_into_basis(chi, basis)
            if injectivity.divind_from_factors(factors.items()) != min_last_entry(chi):
                res.fail("factor/weight divisibility split at %r x %r, %s" % (lam, mu, params))
    return res


# ---------------------------------------------------------------------------
# Schur machinery


def check_schur_agreement(res, deg_max):
    """The Schur character (the closed form at rank 2) agrees with both the
    tableau and the Jacobi-Trudi routes at every rank.  Only at rank 2 is
    the first comparison a test: at every other rank ``schur_character(lam)``
    is the memoized ``_schur_ssyt(lam)`` itself, so there the real check is
    the second one, Jacobi-Trudi against tableaux."""
    for lam, _ in _sweep(res, deg_max, (None,), range(1, N_MAX + 1)):
        res.count()
        chi = schur_character(lam)
        if chi != _schur_ssyt(lam):
            res.fail("schur_character vs tableaux disagree at %r" % (lam,))
        if chi != schur_character_jt(lam):
            res.fail("schur_character vs determinant disagree at %r" % (lam,))
    return res


# ---------------------------------------------------------------------------
# rank-2 closed forms vs oracles


def check_divind_equivalence(res, deg_max, grid):
    """Closed-form divisibility index equals the good-filtration oracle."""
    for lam, params in _sweep(res, deg_max, grid):
        res.count()
        try:
            closed = gl2.divind_injective_closed(lam, params)
        except gl2.OracleMismatch as exc:
            res.fail(str(exc))
            continue
        oracle = gl2.divind_injective_oracle(lam, params)
        if closed != oracle:
            res.fail("lam=%r %s: closed=%d oracle=%d" % (lam, params, closed, oracle))
    return res


def check_criticality_equivalence(res, deg_max, grid):
    """Digit criticality test = (oracle divind == 0) = (closed divind == 0).
    The divisibility oracle at zero is the symmetric-power oracle: by
    reciprocity the simple of highest weight lam lies in S^r E = induced(r, 0)
    exactly when the least tau_2 of its column is 0."""
    for lam, params in _sweep(res, deg_max, grid):
        res.count()
        closed = gl2.is_critical_closed(lam, params)
        oracle = gl2.divind_injective_oracle(lam, params) == 0
        try:
            by_div = gl2.divind_injective_closed(lam, params) == 0
        except gl2.OracleMismatch as exc:
            res.fail(str(exc))
            continue
        if not (closed == oracle == by_div):
            res.fail(
                "lam=%r %s: closed=%r oracle=%r divind-zero=%r"
                % (lam, params, closed, oracle, by_div)
            )
    return res


def check_injectivity_equivalence(res, deg_max, grid):
    """Digit injectivity test = index-inequality test with oracle input."""
    for lam, params in _sweep(res, deg_max, grid):
        res.count()
        closed = gl2.is_gm_injective(lam, 1, params)
        via_index = gl2.is_inf_injective_inequality(lam, params)
        if closed != via_index:
            res.fail("lam=%r %s: closed=%r inequality=%r" % (lam, params, closed, via_index))
    return res


def check_sympow_recursion(res, deg_max, grid):
    """Layer recursion for symmetric-power characters equals the plain
    complete homogeneous character."""
    for params in grid:
        for r in range(deg_max + 1):
            res.at = (Weight((r, 0)), params)
            res.count()
            if gl2.sympow_character_recursive(r, params) != h_character(r, 2):
                res.fail("degree %d at %s" % (r, params))
    return res


def check_peeling_soundness(res, deg_max, grid):
    """Decomposing Schur characters into simple characters never goes
    negative, reconstructs, is unitriangular, respects dominance, and
    peeling agrees with the gl2 decomposition numbers, read one column of
    each weight once per (l, p)."""
    # a row reads only the columns of its degree; the sweep runs degree by
    # degree, each from (r, 0), so one degree's columns are held, as dicts
    for tau, params in _sweep(res, deg_max, grid):
        if tau[1] == 0:
            columns = {lam: dict(gl2.decomposition_column(lam, params))
                       for lam in partitions(tau.degree(), 2)}
        res.count()
        basis = lambda w: gl2.simple_character(w, params)
        try:
            factors = peel_into_basis(schur_character(tau), basis)
        except PeelError as exc:
            res.fail("tau=%r %s: %s" % (tau, params, exc))
            continue
        if factors.get(tau, 0) != 1:
            res.fail("tau=%r %s: leading multiplicity %r" % (tau, params, factors.get(tau)))
        total = Character.zero(2)
        for lam, m in factors.items():
            total = total + m * gl2.simple_character(lam, params)
            if not dominance_leq(lam, tau):
                res.fail("tau=%r %s: factor %r not below in dominance" % (tau, params, lam))
        if total != schur_character(tau):
            res.fail("tau=%r %s: factors do not reconstruct" % (tau, params))
        row = {lam: col[tau] for lam, col in columns.items() if tau in col}
        if factors != row:
            res.fail("tau=%r %s: peeling and the decomposition table disagree" % (tau, params))
    return res


def check_simple_divind(res, deg_max, grid):
    """Simple and induced characters both have divisibility index lam_2."""
    for lam, params in _sweep(res, deg_max, grid):
        res.count()
        a = min_last_entry(gl2.simple_character(lam, params))
        b = min_last_entry(schur_character(lam))
        if not (a == b == lam[1]):
            res.fail("lam=%r %s: simple=%d induced=%d" % (lam, params, a, b))
    return res


def check_divisibility_shift(res, deg_max, grid):
    """The good filtration of the injective envelope is that of
    lam - divind * omega with divind determinant factors added to each tau.
    Induced characters form a basis, so this is the character identity
    I(lam) = det^divind * I(lam - divind * omega).  The closed divind is
    at most degree/2 or raises, and the suite records that as a failure."""
    for lam, params in _sweep(res, deg_max, grid):
        res.count()
        try:
            m = gl2.divind_injective_closed(lam, params)
        except gl2.OracleMismatch as exc:
            res.fail(str(exc))
            continue
        shift = m * omega(2)
        shifted = [(tau + shift, k) for tau, k in gl2.decomposition_column(lam - shift, params)]
        if gl2.decomposition_column(lam, params) != shifted:
            res.fail("lam=%r %s: good filtration does not shift by det^%d" % (lam, params, m))
    return res


def check_standard_form(res, deg_max, grid):
    """For every infinitesimally injective weight the vector of the standard
    form's product equals the sum of the injective's good filtration.  The
    descriptor rebuilds the weight and puts Q on the Steinberg edge or
    :func:`gl2.standard_form` raises, and the suite records that as a
    failure."""
    for lam, params in _sweep(res, deg_max, grid):
        if not gl2.is_gm_injective(lam, 1, params):
            continue
        res.count()
        try:
            desc = gl2.standard_form(lam, params)
        except gl2.OracleMismatch as exc:
            res.fail(str(exc))
            continue
        injective = gl2._induced_sum(gl2.decomposition_column(lam, params))
        if gl2._standard_form_vector(desc, params) != injective:
            res.fail("lam=%r %s: character factorization fails" % (lam, params))
    return res


def check_necessary_inequality(res, deg_max, grid):
    """No infinitesimally injective weight violates the necessary inequality
    for any highest weight in the good filtration of the quotient-layer
    injective, :func:`gl2.quotient_column`."""
    for lam, params in _sweep(res, deg_max, grid):
        if not gl2.is_gm_injective(lam, 1, params):
            continue
        res.count()
        lam0, lbar = eadic_split(lam, params.e)
        factors = gl2.quotient_column(lbar, params)
        if not injectivity.necessary_condition(lam0, factors, params.e):
            res.fail("lam=%r %s violates the necessary inequality" % (lam, params))
    return res


def check_higher_kernels(res, deg_max, grid):
    """Injectivity over the (m+1)-th Frobenius kernel implies injectivity
    over the m-th, and the m-th kernel verdict is the conjunction of the
    first-kernel inequality oracle on the first m iterated quotients: lam
    at ``params``, its e-adic quotient at the classical parameters, then
    the base-p quotients.  Runs on the positive-p pairs of ``grid``, or on
    :data:`KERNEL_GRID` when it has none."""
    grid = tuple(params for params in grid if params.p > 0) or KERNEL_GRID
    for lam, params in _sweep(res, deg_max, grid):
        flags = [gl2.is_gm_injective(lam, m, params) for m in range(1, KERNEL_M_MAX + 2)]
        expected, ok, quotient, at = [], True, lam, params
        for _ in flags:
            ok = ok and gl2.is_inf_injective_inequality(quotient, at)
            expected.append(ok)
            quotient, at = eadic_split(quotient, at.e)[1], at.classical()
        for m in range(KERNEL_M_MAX):
            res.count()
            if flags[m + 1] and not flags[m]:
                res.fail("lam=%r %s: kernel %d injective but %d not" % (lam, params, m + 2, m + 1))
        for m, (flag, want) in enumerate(zip(flags, expected), 1):
            if flag != want:
                res.fail("lam=%r %s: kernel %d closed %r vs iterated inequality %r"
                         % (lam, params, m, flag, want))
    return res


def check_criterion_layer(res, deg_max, grid):
    """The Steinberg range condition is sufficient for the rank-generic
    inequality fed with the oracle divisibility index of the quotient
    layer, and the Steinberg complement is column-regular and rebuilds the
    digit.  (That inequality against the digit test is
    injectivity-equivalence.)"""
    for lam, params in _sweep(res, deg_max, grid):
        res.count()
        e = params.e
        lam0 = eadic_split(lam, e)[0]
        if injectivity.steinberg_range(lam0, e) and not gl2.is_inf_injective_inequality(lam, params):
            res.fail("lam=%r %s: Steinberg range not sufficient" % (lam, params))
        mu = injectivity.steinberg_complement(lam0, e)
        if mu is not None:
            if not is_column_regular(mu, e):
                res.fail("lam=%r %s: complement %r not regular" % (lam, params, mu))
            if (e - 1) * Weight((1, 0)) + mu.reversed() != lam0:
                res.fail("lam=%r %s: complement identity fails" % (lam, params))
    return res


def check_table_determinism(res, deg_max):
    """Rendering the classification table twice gives identical bytes."""
    from .cli import render_table, table_rows

    for params in (GroupParams(1, 2), GroupParams(2, 3)):
        for fmt in ("text", "csv", "json"):
            res.count()
            first = render_table(table_rows(deg_max, params), fmt, gm_max=2)
            second = render_table(table_rows(deg_max, params), fmt, gm_max=2)
            if first != second:
                res.fail("format %s at %s not deterministic" % (fmt, params))
    return res


def run_suite(name, deg_max, grid):
    """Run the registry suite ``name`` at exactly ``deg_max``, on the (l, p)
    pairs of ``grid`` if its registry entry takes a grid, recording into a
    fresh :class:`SuiteResult` under that name.  An unregistered name
    raises ``KeyError``.  A suite blowing up is itself a failure on that
    result: the instances counted so far stay, and the message names the
    instance under test and the exception."""
    kind = SUITES[name][1]
    res = SuiteResult(name)
    args = (res, deg_max) + ((grid,) if kind == "params" else ())
    try:
        globals()["check_" + name.replace("-", "_")](*args)
    except Exception as exc:  # a crashed suite must not kill the report
        lam, params = res.at or (None, None)
        at = "" if lam is None else " at %r" % (lam,) + (" %s" % params if params else "")
        res.fail("suite crashed after %d instances%s: %r" % (res.instances, at, exc))
    return res


def run_all(deg_max=20, grid=PARAM_GRID):
    """Run every registered suite in order, each at ``deg_max`` capped at
    its registry bound.  Returns the list of :class:`SuiteResult`."""
    return [run_suite(name, min(deg_max, bound), grid) for name, (bound, _) in SUITES.items()]
