"""Integer matrix routines: HNF, kernels, exact solving."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exceptia import intlinalg as la


def det_int(m):
    return la.det_fraction([[Fraction(x) for x in row] for row in m])


small_mats = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=3, max_size=3)


@given(small_mats)
@settings(max_examples=60)
def test_hnf_transform_is_unimodular(a):
    h, u = la.hnf_transform(a)
    assert abs(det_int(u)) == 1
    assert la.matmul(u, a) == h


@given(small_mats)
@settings(max_examples=60)
def test_hnf_rows_are_staircase(a):
    h = la.hnf(a)
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        pivots.append(nz[0] if nz else None)
    # nonzero rows first, pivot columns strictly increasing
    seen_zero = False
    prev = -1
    for p in pivots:
        if p is None:
            seen_zero = True
            continue
        assert not seen_zero
        assert p > prev
        prev = p


@given(small_mats)
@settings(max_examples=60)
def test_left_kernel_annihilates(a):
    k = la.left_kernel(a)
    for row in k:
        assert all(x == 0 for x in la.matmul([row], a)[0])


def test_left_kernel_finds_known_relation():
    a = [[1, 2], [2, 4], [0, 1]]
    k = la.left_kernel(a)
    assert len(k) == 1
    r = k[0]
    assert r[0] * 1 + r[1] * 2 + r[2] * 0 == 0
    assert r[0] * 2 + r[1] * 4 + r[2] * 1 == 0


def test_solve_left_roundtrip():
    rng = random.Random(89)
    a = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
    x = [rng.randint(-7, 7) for _ in range(3)]
    t = la.matmul([x], a)[0]
    sol = la.solve_left(a, t)
    assert sol is not None
    assert la.matmul([sol], a)[0] == t


def test_solve_left_detects_unsolvable():
    assert la.solve_left([[2, 0], [0, 2]], [1, 0]) is None


def test_det_and_inverse():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert la.det_fraction(m) == 1
    inv = la.invert_fraction(m)
    assert la.matmul(m, inv) == [[1, 0], [0, 1]]


def test_invert_singular_raises():
    with pytest.raises(ZeroDivisionError):
        la.invert_fraction([[Fraction(1), Fraction(2)],
                            [Fraction(2), Fraction(4)]])


# --------------------------------------------------------------------------
# the fraction-free inverse and product against plain Fraction arithmetic

def fraction_inverse(m):
    """Gauss-Jordan over Fractions, the reference for `la.invert_fraction`."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def fraction_matmul(a, b):
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


# numerators up to 10^18 over mixed denominators, with small ones mixed in
# so that zero pivots, row swaps and singular matrices come up often
rationals = st.builds(
    Fraction,
    st.integers(-3, 3) | st.integers(-10**18, 10**18),
    st.sampled_from((1, 2, 3, 2**61 - 1)))


@st.composite
def square_rationals(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    row = st.lists(rationals, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@given(square_rationals())
# zero leading pivot (row swap, determinant -1), a zero pivot reached only
# after the first elimination step, a 1x1 matrix, and a singular one
@example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
@example([[Fraction(v) for v in row]
          for row in ((1, 1, 0), (1, 1, 1), (0, 1, 1))])
@example([[Fraction(-7, 2**61 - 1)]])
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]])
@settings(max_examples=150, deadline=None)
def test_invert_fraction_matches_fraction_gauss_jordan(m):
    try:
        ref = fraction_inverse(m)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            la.invert_fraction(m)
        return
    inv = la.invert_fraction(m)
    assert inv == ref
    assert all(type(x) is Fraction for row in inv for x in row)


@st.composite
def square_ints(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    entry = st.integers(-3, 3) | st.integers(-10**18, 10**18)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))


@given(square_ints())
# a zero leading pivot, a negative determinant, a singular matrix
@example([[0, 1], [1, 0]])
@example([[-3]])
@example([[1, 2], [2, 4]])
@settings(max_examples=150, deadline=None)
def test_invert_int_matches_fraction_gauss_jordan(a):
    # the integer core behind invert_fraction: (v, d) with d = |det a| and
    # v = d a^-1, all in ints
    before = [row[:] for row in a]
    try:
        ref = fraction_inverse(a)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            la.invert_int(a)
        return
    v, d = la.invert_int(a)
    assert a == before
    assert type(d) is int and d == abs(det_int(a)) > 0
    assert all(type(x) is int for row in v for x in row)
    assert v == [[d * x for x in row] for row in ref]


@given(square_rationals(), st.data())
@settings(max_examples=60, deadline=None)
def test_invert_fraction_rejects_dependent_rows(m, data):
    # the last row becomes an integer combination of the others (zero when
    # there are none)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m) - 1,
                                max_size=len(m) - 1))
    m[-1] = [sum((c * row[k] for c, row in zip(coeffs, m)), Fraction(0))
             for k in range(len(m))]
    with pytest.raises(ZeroDivisionError):
        la.invert_fraction(m)


@st.composite
def product_pairs(draw):
    p, q, r = (draw(st.integers(1, 5)) for _ in range(3))
    ints = st.integers(-10**18, 10**18)
    entry = draw(st.sampled_from((ints, ints | rationals)))
    a = draw(st.lists(st.lists(entry, min_size=q, max_size=q),
                      min_size=p, max_size=p))
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                      min_size=q, max_size=q))
    return a, b


@given(product_pairs())
@settings(max_examples=100, deadline=None)
def test_matmul_matches_the_naive_product(ab):
    a, b = ab
    prod = la.matmul(a, b)
    assert prod == fraction_matmul(a, b)
    ints = all(type(x) is int for m in (a, b) for row in m for x in row)
    assert all((type(x) is int) == ints for row in prod for x in row)


def clear_by_lcm(m):
    """clear_denominators' general rule, which the integral case skips:
    every numerator times s over its denominator."""
    s = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (s // x.denominator) for x in row] for row in m], s


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ints = st.integers(-10**18, 10**18)
    entry = draw(st.sampled_from(
        (ints, ints.map(Fraction), ints | ints.map(Fraction), rationals)))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@given(matrices())
# integral Fractions (one numerator pass), an int, and one denominator
@example([[Fraction(4), Fraction(-2)], [Fraction(-2), Fraction(4)]])
@example([[7]])
@example([[Fraction(0), Fraction(1, 2**61 - 1)]])
@settings(max_examples=150, deadline=None)
def test_clear_denominators_matches_the_lcm_rule(m):
    before = [row[:] for row in m]
    a, s = la.clear_denominators(m)
    assert (a, s) == clear_by_lcm(m)
    assert m == before
    assert type(s) is int and all(type(x) is int for row in a for x in row)
