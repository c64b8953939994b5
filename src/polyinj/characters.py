"""The character ring: sparse Laurent polynomials in n variables over Z.

A character is a finite map from exponent vectors (length-n integer tuples)
to nonzero integer multiplicities.  Characters of actual modules have
positive multiplicities and symmetric support; intermediate differences
arising during peeling may be arbitrary.  Multiplicities are plain Python
integers, so they never overflow.

A product of two characters packs each exponent vector into one Python int
(Kronecker substitution: entries shifted to be nonnegative, read as digits
in a base wide enough that sums never carry), so a monomial product is one
integer addition.  Packing changes only the speed: the term map, the exact
arithmetic and the dict of tuples stay, and this monomial ring remains the
oracle that a character stored another way (in the Weyl basis, keyed by
dominant weight, say) is checked against.
"""

from __future__ import annotations

from operator import index

from .weights import Weight


class PeelError(ValueError):
    """A character is not a nonnegative combination of the given basis."""


_is_dominant_exp = Weight.is_dominant  # reads only iteration and [0], so a plain tuple works


class Character:
    """Element of the group ring Z[Z^n], with exponent-wise multiplication."""

    __slots__ = ("n", "_terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exp, mult in items:
                # entries and multiplicities coerced as Weight's entries are:
                # a numpy integer becomes an exact int, and a non-integral
                # value is a ValueError
                try:
                    exp = tuple(map(index, exp))
                except TypeError:
                    raise ValueError("exponent %r has a non-integer entry" % (exp,)) from None
                try:
                    mult = index(mult)
                except TypeError:
                    raise ValueError("multiplicity %r at %r is not an integer" % (mult, exp)) from None
                if len(exp) != n:
                    raise ValueError("exponent %r has wrong length for n=%d" % (exp, n))
                m = clean.get(exp, 0) + mult
                if m:
                    clean[exp] = m
                elif exp in clean:
                    del clean[exp]
        self._terms = clean

    @classmethod
    def _from_clean(cls, n, terms):
        """A character taking ``terms`` as its term map unchecked: the keys
        must be distinct length-n int tuples and every value a nonzero int."""
        res = cls.__new__(cls)
        res.n = n
        res._terms = terms
        return res

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, exp, mult=1):
        exp = tuple(exp)
        return cls(len(exp), {exp: mult})

    def items(self):
        return self._terms.items()

    def support(self):
        return self._terms.keys()

    def coeff(self, exp):
        return self._terms.get(tuple(exp), 0)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def _same_rank(self, other):
        if self.n != other.n:
            raise ValueError("rank mismatch: %d vs %d variables" % (self.n, other.n))

    def __add__(self, other):
        self._same_rank(other)
        out = dict(self._terms)
        for exp, m in other._terms.items():
            s = out.get(exp, 0) + m
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return Character._from_clean(self.n, out)

    def __neg__(self):
        return Character._from_clean(self.n, {exp: -m for exp, m in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Character(self.n)
            return Character._from_clean(self.n, {exp: other * m for exp, m in self._terms.items()})
        if not isinstance(other, Character):
            return NotImplemented
        self._same_rank(other)
        if not (self._terms and other._terms):
            return Character(self.n)
        # Kronecker substitution: shift each factor's exponents by its
        # entrywise minimum and read them as base-``base`` digits, where
        # ``base`` exceeds every coordinate's range in the product
        exps1, lo1, hi1 = _exponent_box(self._terms)
        exps2, lo2, hi2 = _exponent_box(other._terms)
        base = max((h1 - l1 + h2 - l2 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2)), default=0) + 1
        right = list(zip(_pack(exps2, lo2, base), other._terms.values()))
        packed = {}
        get = packed.get
        for e1, m1 in zip(_pack(exps1, lo1, base), self._terms.values()):
            for e2, m2 in right:
                key = e1 + e2
                packed[key] = get(key, 0) + m1 * m2
        lo = [l1 + l2 for l1, l2 in zip(lo1, lo2)]
        out = {}
        for key, m in packed.items():
            if m:
                out[_unpack(key, lo, base)] = m
        return Character._from_clean(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("character powers need a nonnegative integer exponent")
        res = Character.one(self.n)
        for _ in range(k):
            res = res * self
        return res

    def twist(self, factor):
        """Scale every exponent vector entrywise by ``factor``."""
        try:
            factor = index(factor)
        except TypeError:
            raise ValueError("twist factor must be a positive integer") from None
        if factor < 1:
            raise ValueError("twist factor must be a positive integer")
        return Character._from_clean(
            self.n, {tuple(factor * a for a in exp): m for exp, m in self._terms.items()})

    def sorted_terms(self):
        """Terms in lex-descending exponent order."""
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join(
            "%d * (%s)" % (m, ",".join(str(a) for a in exp))
            for exp, m in self.sorted_terms()
        )

    def __repr__(self):
        return "Character(n=%d, %s)" % (self.n, str(self))

    def to_json_obj(self):
        return [{"exponent": list(exp), "mult": m} for exp, m in self.sorted_terms()]


def _exponent_box(terms):
    """The exponent vectors of a term map as lists of ints, and their
    entrywise minimum and maximum."""
    exps = [list(exp) for exp in terms]
    cols = list(zip(*exps))
    return exps, [min(c) for c in cols], [max(c) for c in cols]


def _pack(exps, lo, base):
    """Each exponent vector minus ``lo`` as one int, first entry least
    significant; every shifted entry must lie in [0, base)."""
    out = []
    lo = lo[::-1]
    for exp in exps:
        key = 0
        for a, b in zip(reversed(exp), lo):
            key = key * base + a - b
        out.append(key)
    return out


def _unpack(key, lo, base):
    """The exponent tuple packed as ``key`` by :func:`_pack` with ``lo``."""
    exp = []
    for b in lo:
        key, d = divmod(key, base)
        exp.append(d + b)
    return tuple(exp)


def character_from_json(obj, n=None):
    """Inverse of :meth:`Character.to_json_obj`; ``n`` is needed only when
    the term list is empty."""
    if not obj:
        if n is None:
            raise ValueError("cannot infer the rank of an empty character")
        return Character.zero(n)
    if n is None:
        n = len(obj[0]["exponent"])
    return Character(n, ((tuple(t["exponent"]), t["mult"]) for t in obj))


def min_last_entry(chi):
    """Minimum last entry over the support of a genuine module character.

    For the character of a polynomial module this is its divisibility
    index: the number of determinant factors that can be split off.
    """
    if not chi:
        raise ValueError("the zero character has no divisibility index")
    for exp, m in chi.items():
        if m < 0:
            raise ValueError("negative multiplicity at %r; not a module character" % (exp,))
        if any(a < 0 for a in exp):
            raise ValueError("non-polynomial exponent %r; not a polynomial character" % (exp,))
    return min(exp[-1] for exp in chi.support())


def peel_into_basis(chi, basis):
    """Expand ``chi`` as a nonnegative combination of basis characters.

    ``basis(lam)`` must return, for each dominant weight, a character whose
    unique lex-maximal exponent is ``lam`` with multiplicity one (true for
    Schur characters and for simple characters).  ``chi`` must have
    permutation-symmetric support.

    One downward pass: the remainder is a dict, the pivot is its
    lex-maximal dominant exponent, and ``mult * basis(pivot)`` is
    subtracted from the dict in place, which touches only exponents at or
    below the pivot.  The result maps each pivot to its multiplicity, in
    pivot order.  Raises :class:`PeelError` when the remainder has no
    dominant exponent, when a pivot's multiplicity is negative, and when a
    basis element leaves its pivot behind (a leading multiplicity other
    than one).
    """
    remainder = dict(chi.items())
    out = {}
    while remainder:
        pivot = max((exp for exp in remainder if _is_dominant_exp(exp)), default=None)
        if pivot is None:
            raise PeelError("remainder %s has no dominant exponent"
                            % Character._from_clean(chi.n, remainder))
        mult = remainder[pivot]
        if mult < 0:
            raise PeelError(
                "pivot %r carries multiplicity %d; not expressible in this basis" % (pivot, mult)
            )
        element = basis(Weight(pivot))
        chi._same_rank(element)
        for exp, m in element.items():
            s = remainder.get(exp, 0) - mult * m
            if s:
                remainder[exp] = s
            elif exp in remainder:
                del remainder[exp]
        if pivot in remainder:
            raise PeelError("basis element at %r lacks leading multiplicity one" % (pivot,))
        out[Weight(pivot)] = mult
    return out
