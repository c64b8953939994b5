"""Characters of induced modules and symmetric powers, any rank.

Schur characters are computed two independent ways: by counting
semistandard tableaux as Gelfand-Tsetlin patterns, one rank at a time by
the branching rule, and by the Jacobi-Trudi determinant in complete
homogeneous characters, whose products add packed integer exponents.
Neither route calls the other.  At rank 2 :func:`schur_character` uses
the closed form instead (s_(a,b) is the run of monomials x^(a+b-k) y^k for
b <= k <= a), and both routes stay as its oracles.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .characters import Character, _pack, _unpack
from .weights import Weight, check_partition


@lru_cache(maxsize=None)
def compositions(r, parts):
    """All ``parts``-tuples of nonnegative integers summing to ``r``."""
    if r < 0 or parts < 0:
        raise ValueError("compositions need nonnegative arguments")
    if parts == 0:
        return ((),) if r == 0 else ()
    out = []
    for first in range(r, -1, -1):
        for rest in compositions(r - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partitions(r, n):
    """Partitions of ``r`` into at most ``n`` parts, as rank-n weights,
    in lex-descending order.  A depth-first walk with its own stack, so no
    recursion limit bounds the rank; a prefix summing to ``r`` ends in zeros."""
    if r < 0 or n < 1:
        raise ValueError("partitions need r >= 0 and n >= 1")
    out = []
    stack = [(r, r, ())]  # (remaining, largest part allowed, parts so far)
    while stack:
        remaining, maxpart, acc = stack.pop()
        if not remaining:
            out.append(Weight(acc + (0,) * (n - len(acc))))
            continue
        lo = -(-remaining // (n - len(acc)))  # ceil: the rest must still fit
        # pushed smallest first, so the largest next part is walked first
        stack.extend((remaining - a, a, acc + (a,))
                     for a in range(lo, min(maxpart, remaining) + 1))
    return tuple(out)


def h_character(r, n):
    """Character of the r-th symmetric power of the natural rank-n module:
    the sum of all degree-r monomials in n variables."""
    if r < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    return _h_character(r, n)


@lru_cache(maxsize=None)
def _h_character(r, n):
    return Character(n, {c: 1 for c in compositions(r, n)})


def schur_character(lam):
    """Schur character of ``lam`` in ``lam.n`` variables: the rank-2 closed
    form, else the sum of the content monomials of all semistandard
    tableaux of shape ``lam``."""
    lam = check_partition(lam)
    if lam.n == 2:
        a, b = lam
        return Character._from_clean(2, {(a + b - k, k): 1 for k in range(b, a + 1)})
    return _schur_ssyt(lam)


def tableau_count(lam):
    """Number of semistandard tableaux of shape ``lam`` with entries at most
    ``lam.n`` (an upper bound on the terms of its Schur character): the
    Weyl dimension formula, prod over i < j of (lam_i - lam_j + j - i) /
    (j - i), in integers.  The factors of each j are divided out by j! as
    soon as they are in, so every partial count is the dimension of the
    rank-(j+1) module of highest weight lam_1..lam_(j+1), an integer no
    larger than the answer."""
    lam = check_partition(lam)
    count = 1
    for j in range(1, lam.n):
        for i in range(j):
            count *= lam[i] - lam[j] + j - i
        count //= math.factorial(j)
    return count


@lru_cache(maxsize=None)
def _schur_ssyt(lam):
    """s_lam(x_1..x_n) by the branching rule.  In a semistandard tableau the
    entries up to k fill a partition mu of at most k parts, and the entries
    equal to k fill a horizontal strip mu/nu: mu and the shape nu of the
    entries below k interlace (mu_i >= nu_i >= mu_(i+1)).  A tableau is thus
    a Gelfand-Tsetlin pattern, a chain of interlacing rows from lam down to
    the empty row.  The rows are walked down one rank at a time, each row
    keeping the multiplicities of the exponents of x_(k+1)..x_n that lead
    to it, so tableaux that meet on a row are counted together rather than
    one by one.  Every row below an empty row is empty, so a pattern that
    reaches one is finished there: the variables of that rank and below
    have exponent 0."""
    rows = {tuple(lam): {(): 1}}
    terms = {}
    for k in range(lam.n - 1, -1, -1):
        below = {}
        for mu, tails in rows.items():
            size = sum(mu)
            if not size:
                zeros = (0,) * (k + 1)
                for tail, m in tails.items():
                    terms[zeros + tail] = m
                continue
            for nu in itertools.product(*[range(mu[i + 1], mu[i] + 1) for i in range(k)]):
                step = (size - sum(nu),)
                out = below.get(nu)
                if out is None:
                    out = below[nu] = {}
                get = out.get
                for tail, m in tails.items():
                    key = step + tail
                    out[key] = get(key, 0) + m
        rows = below
    terms.update(rows.get((), {}))
    return Character._from_clean(lam.n, terms)


def _perm_sign(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def _h_product(degrees, n, base):
    """h_{d_1} * ... * h_{d_k} for a sorted tuple of positive degrees, as a
    map from exponents packed in ``base`` (by ``characters._pack``, with
    no shift) to multiplicities, so a monomial product is one integer
    addition; ``base`` must exceed the total degree of the product it is
    used for.  Built on the memoized product of its prefix, which tuples of
    a determinant expansion often share."""
    if not degrees:
        return {0: 1}
    if len(degrees) == 1:
        return dict.fromkeys(_pack(compositions(degrees[0], n), (0,) * n, base), 1)
    factor = _h_product(degrees[-1:], n, base).items()
    out = {}
    get = out.get
    for e1, m1 in _h_product(degrees[:-1], n, base).items():
        for e2, m2 in factor:
            key = e1 + e2
            out[key] = get(key, 0) + m1 * m2
    return out


def schur_character_jt(lam):
    """Schur character via the Jacobi-Trudi determinant det(h_{lam_i - i + j}),
    expanded over permutations.  Independent of the tableau route.  Every
    product in the expansion has degree |lam|, so one base packs them all,
    and exponents are unpacked once per returned term.  The base is the
    power of two above |lam|, which determinants of nearby degrees share."""
    lam = check_partition(lam)
    n = lam.n
    base = 1 << lam.degree().bit_length()
    total = {}
    get = total.get
    for perm in itertools.permutations(range(n)):
        degs = [lam[i] - i + perm[i] for i in range(n)]
        if any(d < 0 for d in degs):
            continue
        sign = _perm_sign(perm)
        for key, m in _h_product(tuple(sorted(d for d in degs if d)), n, base).items():
            total[key] = get(key, 0) + sign * m
    lo = (0,) * n
    return Character._from_clean(n, {_unpack(key, lo, base): m for key, m in total.items() if m})
