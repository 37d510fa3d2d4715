"""Clifford algebras over the rationals: products, classification, spinors."""

import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from exceptia import clifford as cl
from exceptia import hypercomplex as hc


SIG21 = cl.CliffordSignature(2, 1)


def rand_elem(rng, sig, blades=4, span=7):
    terms = {}
    for _ in range(blades):
        mask = rng.randrange(1 << sig.n)
        terms[mask] = Fraction(rng.randint(-span, span))
    return cl.CliffordElement.from_dict(sig, terms)


# --------------------------------------------------------------------------
# construction and the generator relations

def test_signature_validation():
    with pytest.raises(ValueError):
        cl.CliffordSignature(-1, 2)
    with pytest.raises(ValueError):
        cl.CliffordSignature(20, 10)  # more than 24 generators


def test_generator_index_is_one_based():
    sig = cl.CliffordSignature(3, 0)
    with pytest.raises(ValueError):
        cl.generator(sig, 0)
    with pytest.raises(ValueError):
        cl.generator(sig, 4)


def test_generators_square_by_signature():
    sig = cl.CliffordSignature(2, 3)
    one = cl.scalar(sig, 1)
    for i in (1, 2):
        g = cl.generator(sig, i)
        assert cl.clif_mul(g, g) == -one
    for i in (3, 4, 5):
        g = cl.generator(sig, i)
        assert cl.clif_mul(g, g) == one


def test_distinct_generators_anticommute():
    sig = cl.CliffordSignature(3, 2)
    for i in range(1, 6):
        for j in range(1, 6):
            if i == j:
                continue
            gi, gj = cl.generator(sig, i), cl.generator(sig, j)
            assert cl.clif_mul(gi, gj) == -cl.clif_mul(gj, gi)


def test_blade_equals_product_of_generators():
    sig = cl.CliffordSignature(0, 4)
    b = cl.blade(sig, (1, 3, 4), Fraction(5, 2))
    g = cl.clif_mul(cl.clif_mul(cl.generator(sig, 1), cl.generator(sig, 3)),
                    cl.generator(sig, 4))
    assert b == g.scale(Fraction(5, 2))


def test_blade_rejects_repeats_and_bad_indices():
    sig = cl.CliffordSignature(2, 0)
    with pytest.raises(ValueError):
        cl.blade(sig, (1, 1), 1)
    with pytest.raises(ValueError):
        cl.blade(sig, (3,), 1)
    with pytest.raises(ValueError, match="generator index out of range"):
        cl.blade(sig, [0])


def test_mixed_signatures_refuse_to_combine():
    a = cl.scalar(cl.CliffordSignature(1, 0), 1)
    b = cl.scalar(cl.CliffordSignature(0, 1), 1)
    message = re.escape("signature mismatch: CliffordSignature(p=1, q=0) "
                        "vs CliffordSignature(p=0, q=1)")
    for combine in (cl.clif_mul, operator.add, operator.sub):
        with pytest.raises(ValueError, match=f"^{message}$"):
            combine(a, b)


def test_sums_with_other_types_raise_type_error():
    # + and - return NotImplemented for a non-element, so Python raises its
    # TypeError rather than an AttributeError from reading other's fields
    sig = cl.CliffordSignature(1, 1)
    x = cl.scalar(sig, 1)
    for other in (2, Fraction(1, 3), hc.one(1)):
        for combine, sign in ((operator.add, "[+]"), (operator.sub, "-")):
            with pytest.raises(TypeError, match=f"unsupported .* for {sign}:"):
                combine(x, other)
            with pytest.raises(TypeError, match=f"unsupported .* for {sign}:"):
                combine(other, x)


def test_quaternions_live_inside_c2():
    # C_2 (two anticommuting roots of -1) is the quaternions: e1, e2, e1e2
    sig = cl.CliffordSignature(2, 0)
    i, j = cl.generator(sig, 1), cl.generator(sig, 2)
    k = cl.clif_mul(i, j)
    one = cl.scalar(sig, 1)
    assert cl.clif_mul(k, k) == -one
    assert cl.clif_mul(i, k) == -cl.clif_mul(k, i)


def test_associativity_on_random_elements():
    rng = random.Random(71)
    for _ in range(60):
        x, y, z = (rand_elem(rng, SIG21) for _ in range(3))
        assert cl.clif_mul(cl.clif_mul(x, y), z) == cl.clif_mul(x, cl.clif_mul(y, z))


def test_distributivity_on_random_elements():
    rng = random.Random(73)
    for _ in range(60):
        x, y, z = (rand_elem(rng, SIG21) for _ in range(3))
        assert cl.clif_mul(x, y + z) == cl.clif_mul(x, y) + cl.clif_mul(x, z)


def test_reverse_is_an_antiautomorphism():
    rng = random.Random(79)
    for _ in range(60):
        x, y = rand_elem(rng, SIG21), rand_elem(rng, SIG21)
        assert cl.clif_reverse(cl.clif_mul(x, y)) == cl.clif_mul(
            cl.clif_reverse(y), cl.clif_reverse(x))
        assert cl.clif_reverse(cl.clif_reverse(x)) == x


def test_element_roundtrip_through_dict():
    rng = random.Random(83)
    x = rand_elem(rng, SIG21)
    assert cl.CliffordElement.from_dict(SIG21, x.as_dict()) == x


# --------------------------------------------------------------------------
# clif_mul against a slow product on index lists

def slow_blade_mul(p, a, b):
    """e_a e_b for ascending index tuples a, b (1-based): bubble the
    concatenation into order by adjacent transpositions, each flipping the
    sign, and contract each equal neighbour pair e_i e_i to -1 for i <= p
    and +1 otherwise. Returns (index tuple, sign)."""
    word, sign = list(a) + list(b), 1
    done = False
    while not done:
        done = True
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                word[t], word[t + 1] = word[t + 1], word[t]
                sign, done = -sign, False
            elif word[t] == word[t + 1]:
                if word[t] <= p:
                    sign = -sign
                del word[t:t + 2]
                done = False
                break
    return tuple(word), sign


def indices(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def slow_mul(x, y):
    acc = {}
    for ma, ca in x.terms:
        for mb, cb in y.terms:
            word, sign = slow_blade_mul(x.signature.p, indices(ma), indices(mb))
            mask = sum(1 << (i - 1) for i in word)
            acc[mask] = acc.get(mask, 0) + sign * ca * cb
    return tuple(sorted((m, c) for m, c in acc.items() if c))


@pytest.mark.parametrize("n", range(5))
def test_every_blade_pair_matches_the_slow_product(n):
    for p in range(n + 1):
        sig = cl.CliffordSignature(p, n - p)
        for a in range(1 << n):
            x = cl.CliffordElement.from_dict(sig, {a: 1})
            for b in range(1 << n):
                y = cl.CliffordElement.from_dict(sig, {b: 1})
                (mask, c), = cl.clif_mul(x, y).terms
                word, sign = slow_blade_mul(p, indices(a), indices(b))
                assert (mask, c) == (a ^ b, sign) and indices(mask) == word, \
                    (p, n - p, a, b)


MIXED = [Fraction(1, 2), Fraction(-1, 3), Fraction(7, 9), Fraction(5),
         Fraction(-11, 6), Fraction(1, 2 ** 61 - 1), Fraction(13, 10 ** 12)]


def test_random_products_at_ten_generators_match_the_slow_product():
    rng = random.Random(97)
    for _ in range(12):
        p = rng.randint(0, 10)
        sig = cl.CliffordSignature(p, 10 - p)
        x, y = (cl.CliffordElement.from_dict(
            sig, {m: rng.choice(MIXED) * rng.randint(-4, 4)
                  for m in rng.sample(range(1 << 10), rng.randint(0, 24))})
            for _ in range(2))
        z = cl.clif_mul(x, y)
        assert z.terms == slow_mul(x, y)
        assert all(type(c) is Fraction and c for _, c in z.terms)


def test_cancelled_blades_vanish_from_the_terms():
    # e_A e_C and e_B e_D land on the same blade; choose d so they cancel
    rng = random.Random(101)
    for _ in range(40):
        p = rng.randint(0, 10)
        sig = cl.CliffordSignature(p, 10 - p)
        a, b, c = rng.sample(range(1 << 10), 3)
        d = a ^ b ^ c
        ca, cb, cc = (rng.choice(MIXED) for _ in range(3))
        s1 = slow_blade_mul(p, indices(a), indices(c))[1]
        s2 = slow_blade_mul(p, indices(b), indices(d))[1]
        cd = -s1 * ca * cc / (s2 * cb)
        x = cl.CliffordElement.from_dict(sig, {a: ca, b: cb})
        y = cl.CliffordElement.from_dict(sig, {c: cc, d: cd})
        z = cl.clif_mul(x, y)
        assert a ^ c not in z.as_dict()
        assert z.terms == slow_mul(x, y)
    # (e1 + e2)(e1 - e2) = -2 e1e2 in C(0,2): the scalars cancel
    sig = cl.CliffordSignature(0, 2)
    x = cl.CliffordElement.from_dict(sig, {1: 1, 2: 1})
    y = cl.CliffordElement.from_dict(sig, {1: 1, 2: -1})
    assert cl.clif_mul(x, y).terms == ((3, Fraction(-2)),)
    # (1 + e1)(1 - e1) = 1 - e1e1 = 0 in C(0,1): every blade cancels
    sig = cl.CliffordSignature(0, 1)
    x = cl.CliffordElement.from_dict(sig, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    y = cl.CliffordElement.from_dict(sig, {0: Fraction(1, 3), 1: Fraction(-1, 3)})
    assert cl.clif_mul(x, y).terms == ()


def test_products_with_the_empty_element_are_empty():
    sig = cl.CliffordSignature(4, 6)
    empty = cl.CliffordElement(sig, ())
    x = cl.CliffordElement.from_dict(sig, {5: Fraction(1, 3), 700: Fraction(-7, 9)})
    for a, b in ((empty, x), (x, empty), (empty, empty)):
        assert cl.clif_mul(a, b).terms == ()


def check_result_terms(terms):
    """Ascending masks, no zero coefficient, each coefficient a reduced
    Fraction, and one Fraction object per distinct coefficient."""
    masks = [m for m, _ in terms]
    assert masks == sorted(set(masks))
    coeffs = [c for _, c in terms]
    assert all(type(c) is Fraction and c and c.denominator > 0
               and math.gcd(c.numerator, c.denominator) == 1 for c in coeffs)
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


@st.composite
def operand_pairs(draw):
    """(x, y) with p + q <= 12 and all-integer coefficients, mixed
    denominators, or two blade pairs that cancel on one blade."""
    n = draw(st.integers(0, 12))
    p = draw(st.integers(0, n))
    sig = cl.CliffordSignature(p, n - p)
    kind = draw(st.sampled_from(("integer", "mixed", "cancel")))
    denoms = (1,) if kind == "integer" else (1, 2, 3, 7, 2 ** 61 - 1)
    coef = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(denoms))
    masks = st.integers(0, (1 << n) - 1)
    if kind != "cancel":
        x, y = (draw(st.dictionaries(masks, coef, max_size=24))
                for _ in range(2))
        return cl.CliffordElement.from_dict(sig, x), \
            cl.CliffordElement.from_dict(sig, y)
    # e_a e_c and e_b e_d land on one blade, a ^ c = b ^ d; cd cancels them
    a, b, c = draw(masks), draw(masks), draw(masks)
    assume(a != b)
    d = a ^ b ^ c
    ca, cb, cc = (draw(coef.filter(bool)) for _ in range(3))
    s1 = slow_blade_mul(p, indices(a), indices(c))[1]
    s2 = slow_blade_mul(p, indices(b), indices(d))[1]
    return (cl.CliffordElement.from_dict(sig, {a: ca, b: cb}),
            cl.CliffordElement.from_dict(
                sig, {c: cc, d: -s1 * ca * cc / (s2 * cb)}))


@given(operand_pairs())
@settings(max_examples=150, deadline=None)
def test_products_match_the_slow_product_fraction_by_fraction(xy):
    x, y = xy
    z = cl.clif_mul(x, y)
    assert z.terms == slow_mul(x, y)
    check_result_terms(z.terms)


# --------------------------------------------------------------------------
# classification against the standard tables

CN_TABLE = ["R", "C", "H", "H+H", "H(2)", "C(4)", "R(8)", "R(8)+R(8)",
            "R(16)"]
# one minus sign: C_{n-1,1}; one plus sign: C_{1,n-1}
MOSTLY_PLUS = ["R+R", "R(2)", "C(2)", "H(2)", "H(2)+H(2)", "H(4)", "C(8)",
               "R(16)"]
MOSTLY_MINUS = ["C", "R(2)", "R(2)+R(2)", "R(4)", "C(4)", "H(4)",
                "H(4)+H(4)", "H(8)"]


@pytest.mark.parametrize("n", range(9))
def test_classification_of_cn(n):
    assert str(cl.classify(cl.CliffordSignature(n, 0))) == CN_TABLE[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_classification_one_timelike(n):
    assert str(cl.classify(cl.CliffordSignature(n - 1, 1))) == MOSTLY_PLUS[n - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_classification_one_spacelike(n):
    assert str(cl.classify(cl.CliffordSignature(1, n - 1))) == MOSTLY_MINUS[n - 1]


def test_total_dimension_matches_2_to_n():
    # real dimension of the matrix form equals dim of the algebra
    ring_dim = {"R": 1, "C": 2, "H": 4}
    for p in range(5):
        for q in range(5):
            c = cl.classify(cl.CliffordSignature(p, q))
            total = c.summands * ring_dim[c.ring] * c.size ** 2
            assert total == 2 ** (p + q)


def test_periodicity_all_signatures_up_to_eight():
    for p in range(9):
        for q in range(9 - p):
            assert cl.periodicity_check(cl.CliffordSignature(p, q))


def test_periodicity_check_respects_generator_cap():
    with pytest.raises(ValueError):
        cl.periodicity_check(cl.CliffordSignature(9, 8))


def test_matrix_class_text_forms():
    assert str(cl.MatrixAlgebraClass("R", 16, 1)) == "R(16)"
    assert str(cl.MatrixAlgebraClass("H", 1, 2)) == "H+H"
    assert str(cl.MatrixAlgebraClass("C", 4, 1)) == "C(4)"
    assert str(cl.MatrixAlgebraClass("R", 8, 2)) == "R(8)+R(8)"


# --------------------------------------------------------------------------
# spinors in n spacetime dimensions

SPINOR_ROWS = {
    1: (1, True, False, False, 1),
    2: (2, True, True, True, 1),
    3: (2, True, False, False, 2),
    4: (4, True, True, False, 4),
    5: (4, False, False, False, 8),
    6: (8, False, True, False, 8),
    7: (8, False, False, False, 16),
    8: (16, True, True, False, 16),
}


@pytest.mark.parametrize("n", sorted(SPINOR_ROWS))
def test_spinor_taxonomy_rows(n):
    prof = cl.spinor_taxonomy(n)
    dirac, majorana, weyl, mw, minimal = SPINOR_ROWS[n]
    assert prof.n == n
    assert prof.dirac_complex_dim == dirac
    assert prof.majorana is majorana
    assert prof.weyl is weyl
    assert prof.majorana_weyl is mw
    assert prof.minimal_real_components == minimal


def test_spinor_taxonomy_validates_n():
    with pytest.raises(ValueError):
        cl.spinor_taxonomy(0)


def test_admissible_real_dims_for_n_equals_4():
    prof = cl.spinor_taxonomy(4)
    dims = cl.admissible_real_dims(prof.dirac_complex_dim, prof.majorana,
                                   prof.weyl, prof.majorana_weyl)
    # Dirac 8 real, Majorana 4, Weyl 4
    assert dims == {4, 8}


def test_super_ym_dimensions():
    assert cl.super_ym_dims(3, 12) == {3, 4, 6, 10}
    assert cl.super_ym_dims(5, 9) == {6}
    assert cl.super_ym_dims(11, 12) == set()


def test_super_ym_scan_stops_where_spinors_outgrow_the_vector(monkeypatch):
    # from n = 12 on every spinor has more than 2(n-2) real components, so
    # no taxonomy is built there however far the range reaches
    taxonomy = cl.spinor_taxonomy

    def spy(n):
        assert n < 12, f"spinor_taxonomy({n}) was built"
        return taxonomy(n)

    monkeypatch.setattr(cl, "spinor_taxonomy", spy)
    assert cl.super_ym_dims(3, 10 ** 6) == {3, 4, 6, 10}
    assert cl.super_ym_dims(12, 10 ** 6) == set()


def test_super_ym_range_validation():
    with pytest.raises(ValueError):
        cl.super_ym_dims(6, 3)


@given(st.integers(min_value=1, max_value=16))
def test_minimal_spinor_divides_dirac_real_dimension(n):
    prof = cl.spinor_taxonomy(n)
    assert (2 * prof.dirac_complex_dim) % prof.minimal_real_components == 0
