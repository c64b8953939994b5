import functools
import itertools
import random

import pytest

from polyinj.characters import Character, peel_into_basis
from polyinj.schur import (
    _h_character,
    _h_product,
    _schur_ssyt,
    compositions,
    h_character,
    partitions,
    schur_character,
    schur_character_jt,
    tableau_count,
)
from polyinj.weights import Weight


def test_h_character():
    assert h_character(2, 2) == Character(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert h_character(0, 3) == Character.one(3)
    chi = h_character(3, 3)
    assert len(chi) == 10 and all(m == 1 for _, m in chi.items())
    with pytest.raises(ValueError):
        h_character(-1, 2)


def test_schur_examples():
    assert schur_character(Weight((2, 1))) == Character(2, {(2, 1): 1, (1, 2): 1})
    assert schur_character(Weight((1, 1, 1))) == Character.monomial((1, 1, 1))
    for r in range(7):
        assert schur_character(Weight((r, 0))) == h_character(r, 2)
    with pytest.raises(ValueError):
        schur_character(Weight((1, 2)))


def test_tableau_count_is_the_enumerated_count():
    for n in (1, 2, 3, 4):
        for r in range(7):
            for lam in partitions(r, n):
                assert tableau_count(lam) == sum(m for _, m in schur_character(lam).items())
    assert tableau_count(Weight((12, 8, 4, 2, 1, 0))) == 38675000
    with pytest.raises(ValueError):
        tableau_count(Weight((1, 2, 0)))


def weyl_dimension_whole(lam):
    """The Weyl dimension formula with all n(n-1)/2 factors multiplied
    before the one division."""
    num = den = 1
    for i, j in itertools.combinations(range(lam.n), 2):
        num *= lam[i] - lam[j] + j - i
        den *= j - i
    return num // den


def test_tableau_count_matches_the_whole_product():
    for n in range(1, 9):
        for r in range(14):
            for lam in partitions(r, n):
                assert tableau_count(lam) == weyl_dimension_whole(lam)
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 40)
        lam = Weight(sorted((rng.randint(0, 10 ** 6) for _ in range(n)), reverse=True))
        assert tableau_count(lam) == weyl_dimension_whole(lam)


def test_jacobi_trudi_examples():
    assert schur_character_jt(Weight((2, 1))) == h_character(2, 2) * h_character(1, 2) - h_character(3, 2)
    assert schur_character_jt(Weight((2, 2))) == Character.monomial((2, 2))
    for r in range(7):
        assert schur_character_jt(Weight((r, 0))) == h_character(r, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h_product_is_the_left_to_right_product(n):
    """The prefix-shared memo, read back from its packed exponents, gives
    h_{d_1} * ... * h_{d_k} for every sorted tuple of positive degrees of
    total at most 10."""
    base = 11  # exceeds every entry of a degree-10 exponent
    for r in range(11):
        for lam in partitions(r, max(r, 1)):
            degrees = tuple(sorted(a for a in lam if a))
            expected = functools.reduce(
                lambda acc, d: acc * _h_character(d, n), degrees, Character.one(n))
            unpacked = Character(n, {tuple(key // base ** i % base for i in range(n)): m
                                     for key, m in _h_product(degrees, n, base).items()})
            assert unpacked == expected


def test_jacobi_trudi_is_tableaux_at_rank_5():
    for r in range(8):
        for lam in partitions(r, 5):
            assert schur_character_jt(lam) == _schur_ssyt(lam)


def test_tableaux_of_long_rows_and_high_rank():
    """Rows longer than a thousand cells, deeper than a recursion over the
    cells could go: s_(a,a,a-1) is det^(a-1) times s_(1,1,0).  And a
    thousand variables: s_(1,0,...,0) is their sum."""
    a = 1200
    assert _schur_ssyt(Weight((a, a, a - 1))) == Character(
        3, {(a, a, a - 1): 1, (a, a - 1, a): 1, (a - 1, a, a): 1})
    n = 1000
    assert _schur_ssyt(Weight((1,) + (0,) * (n - 1))) == Character(
        n, {(0,) * i + (1,) + (0,) * (n - 1 - i): 1 for i in range(n)})


def test_schur_routes_agree_small():
    for n in (1, 2, 3):
        for r in range(7):
            for lam in partitions(r, n):
                assert schur_character(lam) == schur_character_jt(lam)


def test_schur_stability_under_variable_deletion():
    """A Schur character with empty last row restricts, by keeping the
    exponents whose last entry is zero, to the same Schur character in one
    variable fewer."""
    for n in (2, 3, 4):
        for r in range(7):
            for lam in partitions(r, n - 1):
                padded = Weight(tuple(lam) + (0,))
                chi = schur_character(padded)
                restricted = Character(
                    n - 1, {exp[:-1]: m for exp, m in chi.items() if exp[-1] == 0}
                )
                assert restricted == schur_character(lam)


@pytest.mark.parametrize(
    "lam, r, expected",
    [
        ((1, 0), 1, [(2, 0), (1, 1)]),
        ((0, 0, 0), 4, [(4, 0, 0)]),
        ((2, 1), 2, [(4, 1), (3, 2)]),
        ((2, 2), 1, [(3, 2)]),
    ],
)
def test_pieri_examples(lam, r, expected):
    """Pieri's rule in the character ring: s_lam * h_r is the sum of the
    Schur characters of the listed shapes, each once."""
    lam = Weight(lam)
    product = schur_character(lam) * h_character(r, lam.n)
    assert peel_into_basis(product, schur_character) == {Weight(mu): 1 for mu in expected}


def _horizontal_strips(lam, r):
    """Shapes mu of degree |lam| + r in lam.n parts that interlace lam
    (lam_i <= mu_i <= lam_{i-1}): lam plus a horizontal strip of r boxes."""
    bounds = (float("inf"),) + tuple(lam)[:-1]
    return [mu for mu in partitions(lam.degree() + r, lam.n)
            if all(a <= m <= b for a, m, b in zip(lam, mu, bounds))]


def test_pieri_matches_character_product():
    for n in (2, 3):
        for d in range(6):
            for lam in partitions(d, n):
                for r in range(6 - d):
                    total = Character.zero(n)
                    for mu in _horizontal_strips(lam, r):
                        total = total + schur_character(mu)
                    assert total == schur_character(lam) * h_character(r, n)


def _sym_tensor_character(alpha, n):
    """Character of S^alpha_1(V) (x) S^alpha_2(V) (x) ... for V of rank n."""
    return functools.reduce(lambda chi, a: chi * h_character(a, n), alpha, Character.one(n))


@pytest.mark.parametrize(
    "alpha, lam, expected",
    [
        ((1, 1), (1, 1), 1),
        ((2, 1), (2, 1), 1),
        ((3,), (2, 1), 0),
        ((2, 1, 0, 0), (2, 1), 1),  # zero parts are trivial factors
        ((1, 2), (2, 1), 1),  # order of the composition does not matter
    ],
)
def test_sym_tensor_good_filtration_multiplicity(alpha, lam, expected):
    """Young's rule: nabla(lam) occurs in a good filtration of the tensor
    product of the symmetric powers S^alpha_i(V) with multiplicity the
    coefficient of s_lam in h_alpha."""
    lam = Weight(lam)
    factors = peel_into_basis(_sym_tensor_character(alpha, lam.n), schur_character)
    assert factors.get(lam, 0) == expected


def test_young_rule_is_kostka_duality():
    """The coefficient of s_lam in h_alpha is the Kostka number K_(lam, alpha),
    the coefficient of the monomial x^alpha in s_lam, for every composition
    alpha of the degree."""
    for n in (2, 3):
        for d in range(6):
            for alpha in compositions(d, n):
                factors = peel_into_basis(_sym_tensor_character(alpha, n), schur_character)
                for lam in partitions(d, n):
                    assert factors.get(lam, 0) == schur_character(lam).coeff(alpha)


def test_partitions_enumeration():
    assert partitions(4, 2) == (Weight((4, 0)), Weight((3, 1)), Weight((2, 2)))
    assert partitions(0, 3) == (Weight((0, 0, 0)),)
    assert partitions(3, 1) == (Weight((3,)),)
    # lex-descending
    for r in range(8):
        ps = partitions(r, 4)
        assert list(ps) == sorted(ps, reverse=True)
        assert all(p.is_dominant() and p.degree() == r for p in ps)


def test_partitions_at_rank_1200():
    """The walk runs deeper than a recursion over the parts could go."""
    n = 1200
    zeros = lambda k: (0,) * (n - k)
    assert partitions(3, n) == (Weight((3,) + zeros(1)), Weight((2, 1) + zeros(2)),
                                Weight((1, 1, 1) + zeros(3)))


def test_compositions_enumeration():
    assert compositions(0, 0) == ((),)
    assert compositions(1, 0) == ()
    assert len(compositions(8, 4)) == 165  # stars and bars: C(11, 3)
    assert all(sum(c) == 8 for c in compositions(8, 4))
