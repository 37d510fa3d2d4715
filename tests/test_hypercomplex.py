"""Doubling algebras: products, norms, the Fano table, triality, unit rings."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from exceptia.exactnum import GOLDEN_ONE, GOLDEN_ZERO, PHI, GoldenRational
from exceptia import hypercomplex as hc


def e(level, index):
    return hc.basis_element(level, index)


def rand_element(rng, level, span=9):
    return hc.hyper([Fraction(rng.randint(-span, span),
                              rng.randint(1, 4)) for _ in range(1 << level)])


# --------------------------------------------------------------------------
# construction

def test_coordinate_count_must_be_power_of_two():
    with pytest.raises(ValueError):
        hc.hyper([1, 2, 3])


def test_level_property():
    assert hc.one(0).level == 0
    assert hc.zero(4).level == 4
    assert e(3, 5).level == 3


def test_basis_element_bounds():
    with pytest.raises(ValueError):
        e(2, 4)
    with pytest.raises(ValueError):
        hc.basis_element(1, -1)


def test_mixed_levels_refuse_to_combine():
    with pytest.raises(ValueError):
        hc.cd_mul(e(1, 1), e(2, 1))
    with pytest.raises(ValueError):
        e(1, 1) + e(2, 1)


def test_mixed_fields_refuse_to_combine():
    with pytest.raises(ValueError):
        e(2, 1) + hc.basis_element(2, 1, hc.GOLDEN)


def test_scale_and_arithmetic():
    x = hc.hyper([1, 2, 0, -1])
    assert x.scale(Fraction(1, 2)) == hc.hyper([Fraction(1, 2), 1, 0,
                                                Fraction(-1, 2)])
    assert (x - x).is_zero()
    assert -x + x == hc.zero(2)


# --------------------------------------------------------------------------
# the product at low levels

def test_level_one_is_complex_multiplication():
    # (1+2i)(3+4i) = -5+10i
    z = hc.cd_mul(hc.hyper([1, 2]), hc.hyper([3, 4]))
    assert z == hc.hyper([-5, 10])


def test_quaternion_table():
    i, j, k = e(2, 1), e(2, 2), e(2, 3)
    assert hc.cd_mul(i, j) == k
    assert hc.cd_mul(j, i) == -k
    assert hc.cd_mul(j, k) == i
    assert hc.cd_mul(k, i) == j
    assert hc.cd_mul(i, i) == -hc.one(2)


def test_imaginary_units_square_to_minus_one():
    for level in (1, 2, 3, 4):
        for idx in range(1, 1 << level):
            u = e(level, idx)
            assert hc.cd_mul(u, u) == -hc.one(level)


def test_one_is_the_identity_through_level_four():
    rng = random.Random(11)
    for level in range(5):
        x = rand_element(rng, level)
        u = hc.one(level)
        assert hc.cd_mul(u, x) == x
        assert hc.cd_mul(x, u) == x


def test_every_unit_pair_matches_the_doubling_recursion(doubling_laws):
    # e_i times y, where y has the distinct coefficients 1, 2, ..., 2^level:
    # each output coordinate k is one term +-(i ^ k + 1), so equal rows
    # mean equal signs for every pair (e_i, e_j)
    for level in range(6):
        n = 1 << level
        y = tuple(Fraction(j + 1) for j in range(n))
        for i in range(n):
            x = doubling_laws.basis(level, i)
            assert hc.cd_mul(hc.hyper(x), hc.hyper(y)).coords == \
                doubling_laws.cd_mul(x, y), (level, i)


def sparse_element(rng, level, count=3):
    # a sum of scaled units, some repeated or scaled by 0, so terms merge
    # and cancel on the way
    x = hc.zero(level)
    for _ in range(count):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        x = x + e(level, rng.randrange(1 << level)).scale(c)
    return x


def test_dense_products_match_the_doubling_recursion(doubling_laws):
    rng = random.Random(23)
    for level in range(7):
        for _ in range(3):
            x = rand_element(rng, level)
            y = rand_element(rng, level)
            assert hc.cd_mul(x, y).coords == \
                doubling_laws.cd_mul(x.coords, y.coords), level
        for _ in range(6):
            x, y = sparse_element(rng, level), sparse_element(rng, level)
            assert hc.cd_mul(x, y).coords == \
                doubling_laws.cd_mul(x.coords, y.coords), level
            # equal values built different ways are equal and hash equal
            for a, b in ((hc.hyper(x.coords), x), (x - x, hc.zero(level)),
                         (x + y, y + x)):
                assert a == b and hash(a) == hash(b), level
    for _ in range(20):
        x, y = (hc.hyper([GoldenRational(Fraction(rng.randint(-4, 4), 2),
                                         Fraction(rng.randint(-4, 4), 2))
                          for _ in range(4)], hc.GOLDEN) for _ in range(2))
        assert hc.cd_mul(x, y).coords == \
            doubling_laws.cd_mul(x.coords, y.coords)


def test_products_of_mixed_denominators_match_the_doubling_recursion(
        doubling_laws):
    rng = random.Random(29)
    big = 2 ** 61 - 1
    for level in range(6):
        n = 1 << level
        for dx, dy in ((2, 3), (big, 3), (big, big), (1, 10 ** 30)):
            x = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, dx)))
                      for _ in range(n))
            y = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, dy)))
                      for _ in range(n))
            z = hc.cd_mul(hc.hyper(x), hc.hyper(y)).coords
            assert z == doubling_laws.cd_mul(x, y), (level, dx, dy)
            assert all(type(c) is Fraction for c in z)


def test_zero_operands_and_cancelled_products(doubling_laws):
    half, third = Fraction(1, 2), Fraction(1, 3)
    x = hc.hyper([half, third, -half, 7])
    for a, b in ((x, hc.zero(2)), (hc.zero(2), x), (hc.zero(2), hc.zero(2))):
        z = hc.cd_mul(a, b)
        assert z == hc.zero(2) and all(type(c) is Fraction for c in z.coords)
    # (e1 + e2)^2 = -2: the e3 terms of e1 e2 and e2 e1 cancel
    u = hc.hyper([0, half, half, 0])
    assert hc.cd_mul(u, u).coords == (Fraction(-1, 2), 0, 0, 0)
    # sedenion zero divisors: (e1 + e10)(e4 - e15) = 0
    a = hc.hyper([Fraction(1, 3) if i in (1, 10) else 0 for i in range(16)])
    b = hc.hyper([{4: half, 15: -half}.get(i, 0) for i in range(16)])
    z = hc.cd_mul(a, b)
    assert z.is_zero() and z.coords == doubling_laws.cd_mul(a.coords, b.coords)
    assert all(type(c) is Fraction for c in z.coords)


@st.composite
def product_operands(draw):
    """(level, x, y) coordinate tuples at level <= 6 with all-integer
    coefficients, mixed denominators, or two unit pairs that cancel on one
    unit."""
    level = draw(st.integers(0, 6))
    n = 1 << level
    kind = draw(st.sampled_from(("integer", "mixed", "cancel")))
    denoms = (1,) if kind == "integer" else (1, 2, 3, 7, 2 ** 61 - 1)
    coef = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(denoms))
    units = st.integers(0, n - 1)
    if kind != "cancel":
        x, y = (draw(st.dictionaries(units, coef)) for _ in range(2))
    else:
        # e_a e_c and e_b e_d land on one unit, a ^ c = b ^ d; the
        # coefficient at d cancels them
        a, b, c = draw(units), draw(units), draw(units)
        assume(a != b)
        d = a ^ b ^ c
        ca, cb, cc = (draw(coef.filter(bool)) for _ in range(3))
        s1 = hc.cd_mul(e(level, a), e(level, c)).terms[0][1]
        s2 = hc.cd_mul(e(level, b), e(level, d)).terms[0][1]
        x, y = {a: ca, b: cb}, {c: cc, d: -s1 * ca * cc / (s2 * cb)}
    return tuple(tuple(v.get(k, Fraction(0)) for k in range(n))
                 for v in (x, y))


@given(xy=product_operands())
@settings(max_examples=150, deadline=None)
def test_products_match_the_recursion_fraction_by_fraction(doubling_laws, xy):
    x, y = xy
    z = hc.cd_mul(hc.hyper(x), hc.hyper(y))
    assert z.coords == doubling_laws.cd_mul(x, y)
    # ascending units, no zero term, reduced Fractions, one Fraction object
    # per distinct coefficient
    units = [k for k, _ in z.terms]
    assert units == sorted(set(units))
    coeffs = [c for _, c in z.terms]
    assert all(type(c) is Fraction and c and c.denominator > 0
               and math.gcd(c.numerator, c.denominator) == 1 for c in coeffs)
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


def test_golden_products_match_the_doubling_recursion(doubling_laws):
    rng = random.Random(31)

    def golden():
        return GoldenRational(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
                              Fraction(rng.randint(-4, 4), rng.choice((1, 2, 7))))

    for level in (0, 1, 2, 3):
        for _ in range(10):
            x, y = ([golden() for _ in range(1 << level)] for _ in range(2))
            z = hc.cd_mul(hc.hyper(x, hc.GOLDEN), hc.hyper(y, hc.GOLDEN))
            assert z.coords == doubling_laws.cd_mul(tuple(x), tuple(y))
            assert all(type(c) is GoldenRational for c in z.coords)
    # golden cancellation: (i + j)(i + j) = -2, and a zero operand
    ij = hc.hyper([GOLDEN_ZERO, PHI, PHI, GOLDEN_ZERO], hc.GOLDEN)
    assert hc.cd_mul(ij, ij).coords == (-2 * PHI * PHI, GOLDEN_ZERO,
                                        GOLDEN_ZERO, GOLDEN_ZERO)
    assert hc.cd_mul(ij, hc.zero(2, hc.GOLDEN)) == hc.zero(2, hc.GOLDEN)
    # the icosian closure still reaches exactly the 120 units, each of
    # which the recursion multiplies the same way
    units = sorted(hc.icosian_units(), key=lambda u: u.certificate)
    assert len(units) == 120
    for p, q in zip(units, units[7:] + units[:7]):
        assert hc.cd_mul(p.q, q.q).coords == \
            doubling_laws.cd_mul(p.q.coords, q.q.coords)


def test_unit_laws_at_level_seventeen():
    # 2^17 coordinates: far past any dense product, cheap for sparse units
    def terms(x):
        return dict(x.terms)

    rng = random.Random(17)
    level = 17
    picks = [1, (1 << level) - 1] + rng.sample(range(2, 1 << level), 2)
    units = {i: e(level, i) for i in [0] + picks}
    for i in picks:
        assert terms(hc.cd_mul(units[i], units[i])) == {0: -1}
        assert terms(hc.cd_mul(units[0], units[i])) == {i: 1}
        assert terms(hc.cd_mul(units[i], units[0])) == {i: 1}
    for i, j in zip(picks, picks[1:] + picks[:1]):
        (k, s), = terms(hc.cd_mul(units[i], units[j])).items()
        assert k == i ^ j and s in (1, -1)
        assert terms(hc.cd_mul(units[j], units[i])) == {k: -s}


def test_units_at_level_sixty_four_stay_one_term():
    # 2^64 coordinates could never be stored; a unit product and a sum cost
    # what their terms cost
    level = 64
    a, b = e(level, 1 << 63), e(level, (1 << level) - 1)
    ab = hc.cd_mul(a, b)
    assert ab.level == level and len(ab.terms) == 1
    (k, s), = ab.terms
    assert k == (1 << 63) ^ ((1 << level) - 1) and s in (1, -1)
    assert hc.cd_mul(b, a) == -ab
    assert hc.cd_mul(a, a) == -hc.one(level)
    total = a + a.scale(2)
    assert total.level == level and total.terms == ((1 << 63, 3),)


# --------------------------------------------------------------------------
# conjugation, norm, inverse

levels_le3 = st.integers(min_value=0, max_value=3)
small_fracs = st.fractions(min_value=-30, max_value=30, max_denominator=6)


@st.composite
def pairs_same_level(draw, max_level=3):
    level = draw(st.integers(min_value=0, max_value=max_level))
    n = 1 << level
    xs = draw(st.lists(small_fracs, min_size=n, max_size=n))
    ys = draw(st.lists(small_fracs, min_size=n, max_size=n))
    return hc.hyper(xs), hc.hyper(ys)


@given(pairs_same_level())
def test_norm_is_multiplicative_up_to_octonions(pair):
    x, y = pair
    assert hc.cd_norm(hc.cd_mul(x, y)) == hc.cd_norm(x) * hc.cd_norm(y)


@given(pairs_same_level(max_level=4))
def test_conjugation_reverses_products_at_every_level(pair):
    x, y = pair
    assert hc.cd_conj(hc.cd_mul(x, y)) == hc.cd_mul(hc.cd_conj(y),
                                                    hc.cd_conj(x))


def test_norm_equals_x_times_conj():
    rng = random.Random(23)
    for level in range(5):
        x = rand_element(rng, level)
        n = hc.cd_norm(x)
        prod = hc.cd_mul(x, hc.cd_conj(x))
        assert prod == hc.one(level).scale(n)


def test_inverse_is_two_sided_even_for_sedenions():
    """Nonzero elements invert at every level; the level-4 failure of
    division shows up as zero divisors, not as missing inverses."""
    rng = random.Random(5)
    for level in range(5):
        x = rand_element(rng, level)
        if x.is_zero():
            continue
        ix = hc.cd_inv(x)
        assert hc.cd_mul(x, ix) == hc.one(level)
        assert hc.cd_mul(ix, x) == hc.one(level)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        hc.cd_inv(hc.zero(3))


def test_golden_norm_multiplicativity_on_quaternions():
    rng = random.Random(7)
    for _ in range(60):
        def g():
            return hc.hyper(
                [GoldenRational(Fraction(rng.randint(-4, 4), 2),
                                Fraction(rng.randint(-4, 4), 2))
                 for _ in range(4)], hc.GOLDEN)
        x, y = g(), g()
        assert hc.cd_norm(hc.cd_mul(x, y)) == hc.cd_norm(x) * hc.cd_norm(y)


# --------------------------------------------------------------------------
# level four: zero divisors

def test_known_zero_divisor_pair():
    x = e(4, 1) + e(4, 10)
    y = e(4, 4) - e(4, 15)
    assert not x.is_zero() and not y.is_zero()
    assert hc.cd_mul(x, y).is_zero()
    # and the same pair breaks norm multiplicativity
    assert hc.cd_norm(x) * hc.cd_norm(y) == 4 != 0


def test_doubling_pair_product_value():
    # (e1, e4) * (-1, e5) written out in 16 coordinates
    x = e(4, 1) + e(4, 8 + 4)
    y = -hc.one(4) + e(4, 8 + 5)
    assert hc.cd_mul(x, y) == e(4, 1).scale(-2)


def test_associativity_fails_at_level_three_with_witness():
    a, b, c = e(3, 1), e(3, 2), e(3, 4)
    assert hc.cd_mul(hc.cd_mul(a, b), c) != hc.cd_mul(a, hc.cd_mul(b, c))


def test_associativity_holds_at_level_two():
    rng = random.Random(31)
    for _ in range(100):
        x, y, z = (rand_element(rng, 2) for _ in range(3))
        assert hc.cd_mul(hc.cd_mul(x, y), z) == hc.cd_mul(x, hc.cd_mul(y, z))


def test_alternative_law_holds_at_level_three():
    rng = random.Random(37)
    for _ in range(100):
        x, y = rand_element(rng, 3), rand_element(rng, 3)
        assert hc.cd_mul(x, hc.cd_mul(x, y)) == hc.cd_mul(hc.cd_mul(x, x), y)
        assert hc.cd_mul(hc.cd_mul(y, x), x) == hc.cd_mul(y, hc.cd_mul(x, x))


def test_alternative_law_fails_at_level_four_with_witness():
    x = e(4, 1) + e(4, 10)
    y = e(4, 4)
    assert hc.cd_mul(x, hc.cd_mul(x, y)) != hc.cd_mul(hc.cd_mul(x, x), y)


# --------------------------------------------------------------------------
# the Fano table

def test_fano_lines_shape():
    lines = hc.fano_lines()
    assert len(lines) == 7
    assert lines[0] == (1, 2, 4)
    # each ordered pair of distinct indices appears on exactly one line
    seen = set()
    for i, j, k in lines:
        for a, b in ((i, j), (j, k), (k, i)):
            assert (a, b) not in seen
            seen.add((a, b))
    assert len(seen) == 21


def test_fano_mul_cycles_every_line():
    for i, j, k in hc.fano_lines():
        assert hc.fano_mul(i, j) == (k, 1)
        assert hc.fano_mul(j, k) == (i, 1)
        assert hc.fano_mul(k, i) == (j, 1)


def test_fano_mul_antisymmetry_and_squares():
    for i in range(1, 8):
        assert hc.fano_mul(i, i) == (0, -1)
        for j in range(1, 8):
            if i == j:
                continue
            k, s = hc.fano_mul(i, j)
            assert hc.fano_mul(j, i) == (k, -s)


def test_fano_index_doubling_preserves_lines():
    lines = {frozenset(l) for l in hc.fano_lines()}

    def dbl(x):
        return (2 * x - 1) % 7 + 1

    for line in hc.fano_lines():
        assert frozenset(dbl(x) for x in line) in lines


def test_fano_octonion_products():
    def u(i):
        return e(3, i)

    def mul(i, j):
        return hc.fano_octonion_mul(u(i), u(j))

    assert mul(1, 2) == u(4)
    assert mul(2, 4) == u(1)
    assert mul(5, 2) == u(3)
    assert mul(3, 7) == u(1)


def test_fano_octonion_norms_multiply():
    rng = random.Random(41)
    for _ in range(80):
        x, y = rand_element(rng, 3), rand_element(rng, 3)
        z = hc.fano_octonion_mul(x, y)
        assert hc.cd_norm(z) == hc.cd_norm(x) * hc.cd_norm(y)


def test_fano_octonion_mul_rejects_other_levels():
    with pytest.raises(ValueError):
        hc.fano_octonion_mul(e(2, 1), e(2, 2))


def test_fano_and_doubling_tables_differ():
    # same vector space, two unit tables: e1 e2 gives e4 on the Fano
    # numbering and e3 under the doubling construction
    assert hc.fano_octonion_mul(e(3, 1), e(3, 2)) == e(3, 4)
    assert hc.cd_mul(e(3, 1), e(3, 2)) == e(3, 3)


# --------------------------------------------------------------------------
# the x-product

def unit_octonion(rng):
    """Random norm-one octonion from a Pythagorean pair."""
    a, b = rng.choice([(Fraction(3, 5), Fraction(4, 5)),
                       (Fraction(5, 13), Fraction(12, 13)),
                       (Fraction(8, 17), Fraction(15, 17))])
    i, j = rng.sample(range(8), 2)
    coords = [Fraction(0)] * 8
    coords[i] = a * rng.choice([1, -1])
    coords[j] = b * rng.choice([1, -1])
    return hc.hyper(coords)


def test_xproduct_with_unit_one_is_the_plain_product():
    rng = random.Random(43)
    for _ in range(40):
        b, c = rand_element(rng, 3), rand_element(rng, 3)
        assert hc.xproduct(hc.one(3), b, c) == hc.fano_octonion_mul(b, c)


def test_xproduct_norm_identity():
    rng = random.Random(47)
    for _ in range(60):
        a = unit_octonion(rng)
        b, c = rand_element(rng, 3), rand_element(rng, 3)
        z = hc.xproduct(a, b, c)
        assert hc.cd_norm(z) == hc.cd_norm(b) * hc.cd_norm(c)


def test_one_stays_the_identity_of_every_unit_xproduct():
    # alternativity gives (1 a)(a* c) = N(a) c, so for unit a the deformed
    # product keeps the original identity element
    rng = random.Random(53)
    for _ in range(20):
        a = unit_octonion(rng)
        b, c = rand_element(rng, 3), rand_element(rng, 3)
        assert hc.xproduct(a, hc.one(3), c) == c
        assert hc.xproduct(a, b, hc.one(3)) == b


# --------------------------------------------------------------------------
# quaternion triality: permuting i, j, k

def test_permutation_parities():
    by_images = {p.images: p.parity for p in hc.ALL_IJK_PERMUTATIONS}
    assert len(by_images) == 6
    assert by_images[(1, 2, 3)] == "even"
    assert by_images[(2, 3, 1)] == "even"
    assert by_images[(3, 1, 2)] == "even"
    assert by_images[(2, 1, 3)] == "odd"
    assert by_images[(1, 3, 2)] == "odd"
    assert by_images[(3, 2, 1)] == "odd"


def test_identity_permutation_fixes_quaternions():
    p = hc.PermutationIJK((1, 2, 3))
    rng = random.Random(59)
    q = rand_element(rng, 2)
    assert hc.ijk_permute(p, q) == q


def test_permutations_act_as_morphisms_by_parity():
    rng = random.Random(61)
    for p in hc.ALL_IJK_PERMUTATIONS:
        for _ in range(50):
            q1, q2 = rand_element(rng, 2), rand_element(rng, 2)
            lhs = hc.ijk_permute(p, hc.cd_mul(q1, q2))
            a, b = hc.ijk_permute(p, q1), hc.ijk_permute(p, q2)
            if p.parity == "even":
                assert lhs == hc.cd_mul(a, b)
            else:
                assert lhs == hc.cd_mul(b, a)


def test_permutations_preserve_norm_and_scalars():
    rng = random.Random(67)
    for p in hc.ALL_IJK_PERMUTATIONS:
        q = rand_element(rng, 2)
        assert hc.cd_norm(hc.ijk_permute(p, q)) == hc.cd_norm(q)
        assert hc.ijk_permute(p, q).coords[0] == q.coords[0]


def test_permutation_rejects_wrong_level():
    with pytest.raises(ValueError):
        hc.ijk_permute(hc.PermutationIJK((2, 3, 1)), e(3, 1))


def test_bad_permutation_images():
    with pytest.raises(ValueError):
        hc.PermutationIJK((1, 1, 2))


def test_permutation_from_a_list_is_the_tuple_value():
    p, q = hc.PermutationIJK([2, 3, 1]), hc.PermutationIJK((2, 3, 1))
    assert p == q and hash(p) == hash(q)
    assert p.images == (2, 3, 1)
    assert p.parity == q.parity == "even"


# --------------------------------------------------------------------------
# unit rings

def test_hurwitz_units_form_a_closed_set_of_24():
    units = hc.hurwitz_units()
    assert len(set(units)) == 24
    uset = set(units)
    for u in units:
        assert hc.cd_norm(u) == 1
        assert hc.cd_conj(u) in uset
        for v in units:
            assert hc.cd_mul(u, v) in uset


def test_hurwitz_membership():
    assert hc.hurwitz_contains(hc.hyper([3, -1, 0, 2]))
    assert hc.hurwitz_contains(hc.hyper([Fraction(1, 2)] * 4))
    assert not hc.hurwitz_contains(hc.hyper([Fraction(1, 2), 0, 0, 0]))
    assert not hc.hurwitz_contains(hc.hyper([Fraction(1, 3), 0, 0, 0]))
    with pytest.raises(ValueError):
        hc.hurwitz_contains(e(3, 1))


def test_icosian_units_are_120_of_norm_one():
    units = hc.icosian_units()
    assert len(units) == 120
    for x in units:
        assert hc.cd_norm(x.q) == GOLDEN_ONE


def test_icosian_closure_multiplies_each_unit_by_each_generator_once(
        monkeypatch):
    calls = []
    real = hc.cd_mul

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    hc._build_icosian_state.cache_clear()
    monkeypatch.setattr(hc, "cd_mul", counting)
    units, _ = hc._build_icosian_state()
    assert len(units) == 120
    assert len(calls) == 120 * 3


def test_icosian_units_close_under_multiplication():
    units = hc.icosian_units()
    certs = {x.certificate for x in units}
    assert len(certs) == 120
    sample = hc.sorted_units(x.q for x in units)[:10]
    for p in sample:
        for x in units:
            prod = hc.cd_mul(p, x.q)
            assert hc.to_icosian(prod).certificate in certs


def test_icosian_membership_certificates():
    gi = hc.basis_element(2, 1, hc.GOLDEN)
    elem = hc.to_icosian(gi)
    assert len(elem.certificate) == 8
    # certificates are coordinates in the basis: basis element i has e_i
    basis = hc.icosian_basis()
    assert len(basis) == 8
    for i, b in enumerate(basis):
        assert hc.to_icosian(b).certificate == tuple(
            int(k == i) for k in range(8))
    outside = hc.hyper((GoldenRational(Fraction(1, 3)), GOLDEN_ZERO,
                        GOLDEN_ZERO, GOLDEN_ZERO), hc.GOLDEN)
    with pytest.raises(ValueError):
        hc.to_icosian(outside)
    with pytest.raises(ValueError):
        hc.to_icosian(e(2, 1))  # wrong field


def test_icosian_r8_split():
    q = hc.hyper((PHI, GOLDEN_ONE, GOLDEN_ZERO, GOLDEN_ZERO), hc.GOLDEN)
    flat = hc.icosian_to_r8_raw(q)
    assert flat == (Fraction(1, 2), Fraction(1, 2), 1, 0, 0, 0, 0, 0)
