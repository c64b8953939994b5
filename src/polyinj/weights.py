"""Integer weight combinatorics for rank-n general linear groups.

Weights are integer n-vectors used additively.  The module provides the
dominance order, column-regular digit decompositions in a mixed base (a
quantum base e followed by classical base p), and the standard weights
omega = (1,...,1) and delta = (n-1,...,1,0).

A weight is *column e-regular* if all consecutive differences and the last
entry lie in [0, e).  Column-regular weights are the digit alphabet: every
weight lam splits uniquely as lam = lam0 + e*lbar with lam0 column
e-regular, and iterating on lbar gives the mixed-base digit expansion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache


class Weight(tuple):
    """An integer vector (lam_1, ..., lam_n).  Entries are coerced with
    ``operator.index``, so ints, bools and numpy integers are accepted and
    anything non-integral (a float, say) is a ValueError, never truncated."""

    def __new__(cls, entries):
        if type(entries) is cls:
            return entries  # immutable, and its entries are already ints
        w = tuple.__new__(cls, map(_integer_entry, entries))
        if not w:
            raise ValueError("a weight needs at least one entry")
        return w

    @property
    def n(self):
        return len(self)

    def degree(self):
        return sum(self)

    def is_dominant(self):
        prev = self[0]
        for a in self:
            if a > prev:
                return False
            prev = a
        return True

    def is_polynomial(self):
        for a in self:
            if a < 0:
                return False
        return True

    def reversed(self):
        """Entry reversal (the longest-Weyl-element action)."""
        return _int_weight(self[::-1])

    def _same_rank(self, other):
        if len(self) != len(other):
            raise ValueError(
                "rank mismatch: %d-entry vs %d-entry weight" % (len(self), len(other))
            )

    # sums, differences and integer multiples of Weights have int entries
    # already; only a plain-tuple operand is coerced

    def __add__(self, other):
        self._same_rank(other)
        build = _int_weight if type(other) is Weight else Weight
        return build([a + b for a, b in zip(self, other)])

    def __sub__(self, other):
        self._same_rank(other)
        build = _int_weight if type(other) is Weight else Weight
        return build([a - b for a, b in zip(self, other)])

    def __neg__(self):
        return _int_weight([-a for a in self])

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return _int_weight([k * a for a in self])

    __rmul__ = __mul__

    def __repr__(self):
        return "Weight(%s)" % ", ".join(str(a) for a in self)


def _integer_entry(a):
    try:
        return operator.index(a)
    except TypeError:
        raise ValueError("weight entry %r is not an integer" % (a,)) from None


def _int_weight(entries):
    """A Weight of entries that are already ints, without coercing them."""
    return tuple.__new__(Weight, entries)


def omega(n):
    """The all-ones weight (1, ..., 1), the exponent of the determinant."""
    return _int_weight((1,) * n)


def delta(n):
    """The staircase weight (n-1, n-2, ..., 1, 0)."""
    return Weight(range(n - 1, -1, -1))


def is_column_regular(lam, e):
    """True iff all consecutive differences and the last entry lie in [0, e)."""
    lam = Weight(lam)
    if e < 1:
        raise ValueError("base must be a positive integer")
    prev = 0
    for a in reversed(lam):
        if not 0 <= a - prev < e:
            return False
        prev = a
    return True


def eadic_split(lam, e):
    """Split lam = lam0 + e*lbar with lam0 column e-regular.

    Solved digit-wise from the last entry upward: each entry of lam0 is the
    unique representative of lam_i mod e in the window
    [lam0_{i+1}, lam0_{i+1} + e).  Note this is not entrywise reduction
    mod e.  Dominance and polynomiality of lam are inherited by lbar.
    """
    lam = Weight(lam)
    e = operator.index(e)
    if e < 1:
        raise ValueError("base must be a positive integer")
    return _split(lam, e)


def _split(lam, e):
    """:func:`eadic_split` of a Weight by an int base e >= 1, unchecked.

    One pass from the last entry upward; ``divmod`` gives each digit's
    offset in its window and the matching quotient entry together."""
    digits = []
    quotient = []
    prev = 0  # plays the role of lam0_{n+1}, pinning the last entry to [0, e)
    for a in reversed(lam):
        q, r = divmod(a - prev, e)
        prev += r
        digits.append(prev)
        quotient.append(q)
    digits.reverse()
    quotient.reverse()
    return _int_weight(digits), _int_weight(quotient)


def dominance_leq(lam, mu):
    """lam <= mu in dominance order: mu - lam is a nonnegative sum of
    positive roots, equivalently the degrees agree and every prefix sum of
    mu - lam is nonnegative."""
    lam, mu = Weight(lam), Weight(mu)
    lam._same_rank(mu)
    if lam.degree() != mu.degree():
        return False
    acc = 0
    for a, b in zip(lam, mu):
        acc += b - a
        if acc < 0:
            return False
    return True


# Miller-Rabin with the prime bases up to 41 is exact below this bound.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(m):
    """Deterministic Miller-Rabin; raises ValueError at or above
    ``_PRIME_LIMIT``, where the fixed bases no longer decide."""
    if m >= _PRIME_LIMIT:
        raise ValueError("primality is decided only below %d, got %d" % (_PRIME_LIMIT, m))
    if m < 2:
        return False
    for q in _PRIME_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """Arithmetic context: quantum parameter class l and characteristic p.

    l = 1 encodes q = 1 (the classical group); l >= 2 encodes q a primitive
    l-th root of unity.  p is 0 or a prime.  The quantum characteristic e
    is l when l >= 2 and p otherwise.  The combination (l=1, p=0) is
    rejected: everything is then injective and there is nothing to
    classify.
    """

    l: int
    p: int
    e: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # stored as plain ints, so a numpy-int l or p cannot carry
        # fixed-width arithmetic into the digit splits
        try:
            l, p = operator.index(self.l), operator.index(self.p)
        except TypeError:
            raise ValueError("l and p must be integers, got %r and %r" % (self.l, self.p)) from None
        if l < 1:
            raise ValueError("l must be a positive integer")
        if p != 0 and not _is_prime(p):
            raise ValueError("p must be 0 or a prime, got %r" % (p,))
        if l == 1 and p == 0:
            raise ValueError("l=1 with p=0 is the semisimple case; nothing to do")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", l if l >= 2 else p)

    def classical(self):
        """Parameters of the classical layer sitting under the Frobenius twist."""
        if self.p == 0:
            raise ValueError("characteristic zero has no classical layer")
        return self if self.l == 1 else _classical_params(self.p)

    def __str__(self):
        return "l=%d,p=%d" % (self.l, self.p)


@lru_cache(maxsize=None)
def _classical_params(p):
    """The q = 1 parameters of characteristic p, validated once per p."""
    return GroupParams(1, p)


@dataclass(frozen=True)
class DigitExpansion:
    """Digit expansion of a polynomial dominant weight.

    quantum_digit is the column e-regular digit; classical_digits are the
    base-p digits of the quotient weight (trailing zero digits dropped, so
    the tuple is empty when the quotient is zero).  In characteristic zero
    the quotient carries no base-p refinement and is stored as the single
    entry of classical_digits.
    """

    quantum_digit: Weight
    classical_digits: tuple
    params: GroupParams

    def layers(self):
        """The digits least significant first, each as (digit, base, scale):
        (lam0, e, 1), then (d_i, p, e*p^i).  In characteristic zero the
        unrefined quotient follows as (lbar, 0, e), base 0 marking it."""
        e, p = self.params.e, self.params.p
        out = [(self.quantum_digit, e, 1)]
        scale = e
        for d in self.classical_digits:
            out.append((d, p, scale))
            scale *= p
        return tuple(out)

    def reconstruct(self):
        """The weight sum(scale * digit) over :meth:`layers`, in exact ints."""
        acc = [0] * self.quantum_digit.n
        for d, _, scale in self.layers():
            acc = [a + scale * b for a, b in zip(acc, d, strict=True)]
        return _int_weight(acc)


def digit_expansion(lam, params):
    """Expand a polynomial dominant weight into its mixed-base digits."""
    lam = Weight(lam)
    if not (lam.is_dominant() and lam.is_polynomial()):
        raise ValueError("digit expansion needs a polynomial dominant weight, got %r" % (lam,))
    lam0, lbar = _split(lam, params.e)
    p = params.p
    if p == 0:
        digits = (lbar,)
    else:
        digits = []
        while any(lbar):
            d, lbar = _split(lbar, p)
            digits.append(d)
        digits = tuple(digits)
    return DigitExpansion(lam0, digits, params)
