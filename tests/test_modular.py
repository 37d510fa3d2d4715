"""Integer Laurent series, eta^24, and the j-function from rank-24 lattices."""

import math

import pytest
from hypothesis import example, given, strategies as st

from exceptia import lattices as lat
from exceptia import modular as mod
from exceptia.modular import LaurentSeries


# frozen reference expansions
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480)
INV_ETA24 = (1, 24, 324, 3200, 25650, 176256, 1073720)
J_COEFFS = (1, 744, 196884, 21493760, 864299970, 20245856256, 333202640600)
E4_CUBED_PREFIX = (1, 720, 179280, 16954560)


# --------------------------------------------------------------------------
# the series type

def test_series_strips_leading_zeros():
    s = LaurentSeries(-1, (0, 0, 3, 4))
    assert s.low == 1
    assert s.coeffs == (3, 4)


def test_zero_series():
    z = LaurentSeries(0, ())
    assert z.is_zero
    assert z == mod.ZERO_SERIES
    assert z.coefficient(5) == 0
    with pytest.raises(mod.SeriesError):
        z.order


def test_series_validation():
    with pytest.raises(mod.SeriesError):
        LaurentSeries(-2, (1,))
    with pytest.raises(mod.SeriesError):
        LaurentSeries(0, (1.5,))


def test_coefficient_lookup():
    s = LaurentSeries(-1, (1, 744, 196884))
    assert s.coefficient(-1) == 1
    assert s.coefficient(0) == 744
    assert s.coefficient(1) == 196884
    assert s.coefficient(-2) == 0
    assert s.coefficient(9) == 0
    assert s.order == 1  # highest exponent the truncation carries


# --------------------------------------------------------------------------
# eta^24

def test_eta24_matches_the_tau_expansion():
    s = mod.eta24(7)
    assert s.low == 1
    assert s.coeffs[:8] == TAU


def test_eta24_truncates_at_requested_exponent():
    s = mod.eta24(3)
    assert s.low == 1
    assert len(s.coeffs) == 3 + 1  # exponents 1 .. N+1


def test_eta24_validates_order():
    with pytest.raises(mod.SeriesError):
        mod.eta24(0)


def test_eta24_order_cap():
    cap = mod.ETA24_LIMIT
    budget = f"orders beyond {cap} exceed the time budget"
    with pytest.raises(mod.SeriesError, match=budget):
        mod.eta24(cap + 1)
    # theta and j of rank-24 lattices need eta24 through the order (j one
    # further) and reach the cap before any quadratic series product
    l = lat.direct_sum(*[lat.build_E8()] * 3)
    with pytest.raises(mod.SeriesError, match=budget):
        lat.theta_series(l, cap + 1)
    with pytest.raises(mod.SeriesError, match=budget):
        mod.j_from_lattice(l, cap)


def test_series_products_are_bounded_by_their_term_pairs():
    lim = mod.SERIES_PRODUCT_LIMIT
    budget = f"exceeds the time budget of {lim} term pairs"
    side = math.isqrt(lim)               # side^2 <= lim < (side + 1)^2
    wide = LaurentSeries(0, (1,) * (side + 1))
    with pytest.raises(mod.SeriesError, match=budget):
        mod.series_mul(wide, wide, side)
    with pytest.raises(mod.SeriesError, match=budget):
        mod.series_inv(wide, side)
    # the bound counts pairs of terms, not the order: one term against many
    # is linear, and so is the theta series of E8 far beyond side
    one = LaurentSeries(0, (1,))
    long = LaurentSeries(0, (1,) * (4 * side))
    assert mod.series_mul(one, long, 4 * side - 1) == long
    e8_theta = lat.theta_series(lat.build_E8(), 2 * side).counts
    assert e8_theta[:4] == (1, 240, 2160, 6720)
    assert e8_theta[-1] == 240 * sum(d ** 3 for d in range(1, 2 * side + 1)
                                     if (2 * side) % d == 0)
    # the inverse of eta^24 through q^1000 stays inside the bound
    assert mod.series_inv(mod.eta24(1001), 1000).coeffs[:7] == INV_ETA24
    # theta and j of the Leech lattice refuse before any series product:
    # theta through q^N multiplies E4 by E4 at N + 1 terms, and j through
    # q^N multiplies N + 2 terms by N + 2
    leech = lat.leech_from_ii26()
    with pytest.raises(mod.SeriesError, match=budget):
        lat.theta_series(leech, side)
    with pytest.raises(mod.SeriesError, match=budget):
        mod.j_from_lattice(leech, side - 1)
    calls = []

    def recording(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("series_mul", "theta_series", "eta24"):
            mp.setattr(mod, name, recording(getattr(mod, name)))
        mp.setattr(mod, "SERIES_PRODUCT_LIMIT", 9)
        # refused before theta, eta24 or any product runs
        with pytest.raises(mod.SeriesError, match="time budget of 9 term"):
            mod.j_from_lattice(leech, 2)
        with pytest.raises(mod.SeriesError, match="time budget of 9 term"):
            mod.even_unimodular_theta(16, [1], 3)
        assert not calls
        # Leech has no roots: j - 720 = q^-1 + 24 + 196884 q + ...
        assert mod.j_from_lattice(leech, 1).coeffs == (1, 24, 196884)
        assert calls


@pytest.mark.slow
def test_eta24_runs_at_its_order_cap():
    s = mod.eta24(mod.ETA24_LIMIT)
    assert (s.low, s.order) == (1, mod.ETA24_LIMIT + 1)
    assert s.coeffs[:8] == TAU


def test_eta24_repeated_squaring_agrees_with_sequential_powers():
    """An independent route to the pentagonal power recurrence: the dense
    Euler product multiplied out 24 times by plain convolution."""
    n = 50
    # Euler product of eta / q^{1/24}, dense through exponent n + 1
    euler = [0] * (n + 2)
    euler[0] = 1
    for k in range(1, n + 2):
        for i in range(n + 1, k - 1, -1):
            euler[i] -= euler[i - k]
    acc = [1] + [0] * (n + 1)
    for _ in range(24):
        nxt = [0] * (n + 2)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j in range(0, n + 2 - i):
                nxt[i + j] += a * euler[j]
        acc = nxt
    expected = LaurentSeries(1, tuple(acc[:n + 1]))
    assert mod.eta24(n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 12, 15, 22, 26, 35, 40, 120])
def test_eta24_matches_the_reference_script(qseries_ref, n):
    # n straddles generalized pentagonal numbers (1, 2, 5, 7, 12, 15, 22, 26,
    # 35, 40) and their neighbours, where a term enters the recurrence
    expected = qseries_ref.eta24_over_q(n)
    assert mod.eta24(n) == LaurentSeries(1, tuple(expected))


# --------------------------------------------------------------------------
# multiplication and inversion

def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def test_e4_is_the_divisor_sum_series():
    assert mod.e4(12) == LaurentSeries(
        0, (1,) + tuple(240 * sigma(3, n) for n in range(1, 13)))
    assert mod.e4(0) == LaurentSeries(0, (1,))
    with pytest.raises(mod.SeriesError):
        mod.e4(-1)


def test_e4_squared_is_e8():
    # M8 is one-dimensional, so E4^2 = E8 = 1 + 480 sum sigma7(n) q^n
    n = 30
    assert mod.series_mul(mod.e4(n), mod.e4(n), n) == LaurentSeries(
        0, (1,) + tuple(480 * sigma(7, k) for k in range(1, n + 1)))


def test_even_unimodular_theta_from_the_head():
    # rank 8 and 16 need no counts past norm 0; rank 24 needs norm 2
    assert mod.even_unimodular_theta(8, [1], 4) == (1, 240, 2160, 6720, 17520)
    assert mod.even_unimodular_theta(16, [1], 2) == (1, 480, 61920)
    assert mod.even_unimodular_theta(24, [1, 720], 3) == E4_CUBED_PREFIX
    assert mod.even_unimodular_theta(24, [1, 0], 4) == \
        (1, 0, 196560, 16773120, 398034000)
    # rank 48: E4^6, E4^3 Delta and Delta^2, with the head of 6E8
    e8 = LaurentSeries(0, (1, 240, 2160, 6720))
    e8_6 = LaurentSeries(0, (1,))
    for _ in range(6):
        e8_6 = mod.series_mul(e8_6, e8, 3)
    assert mod.even_unimodular_theta(48, list(e8_6.coeffs[:3]), 3) == \
        e8_6.coeffs


@pytest.mark.parametrize("rank,head,n", [
    (12, [1], 3), (0, [1], 3), (24, [1], 3), (8, [2], 3), (48, [1, 0, 0], 1),
])
def test_even_unimodular_theta_validates(rank, head, n):
    with pytest.raises(mod.SeriesError):
        mod.even_unimodular_theta(rank, head, n)


def test_series_mul_truncates():
    a = LaurentSeries(0, (1, 1))
    b = LaurentSeries(0, (1, 2, 3))
    prod = mod.series_mul(a, b, 2)
    assert prod == LaurentSeries(0, (1, 3, 5))


series_coeffs = st.lists(st.integers(min_value=-5, max_value=5), max_size=10)


@example(a=(0, [1, 1, 1, 1]), b=(0, [1, 1, 1]), n=1)
@given(a=st.tuples(st.integers(-1, 2), series_coeffs),
       b=st.tuples(st.integers(-1, 2), series_coeffs),
       n=st.integers(-2, 6))
def test_series_mul_matches_the_reference(qseries_ref, a, b, n):
    # inputs may carry terms past the truncation, as long as they like
    a, b = LaurentSeries(*a), LaurentSeries(*b)
    low = a.low + b.low
    if a.is_zero or b.is_zero or low > n:
        expected = mod.ZERO_SERIES
    elif low < -1:
        with pytest.raises(mod.SeriesError):
            mod.series_mul(a, b, n)
        return
    else:
        expected = LaurentSeries(low, tuple(qseries_ref.series_mul(
            list(a.coeffs), list(b.coeffs), n - low)))
    assert mod.series_mul(a, b, n) == expected


def test_series_inv_of_one_minus_q_is_geometric():
    # carried through exponent 6: coefficients past the truncation are
    # unknown, not zero, so the input has to be padded out
    a = LaurentSeries(0, (1, -1) + (0,) * 5)
    inv = mod.series_inv(a, 6)
    assert inv == LaurentSeries(0, (1,) * 7)


def test_series_inv_refuses_an_underdetermined_input():
    with pytest.raises(mod.SeriesError):
        mod.series_inv(LaurentSeries(0, (1, -1)), 6)


def test_series_inv_requires_unit_leading_coefficient():
    with pytest.raises(mod.SeriesError):
        mod.series_inv(LaurentSeries(0, (2, 1)), 3)
    with pytest.raises(mod.SeriesError):
        mod.series_inv(mod.ZERO_SERIES, 3)


def test_series_inv_needs_enough_coefficients():
    short = mod.eta24(2)
    with pytest.raises(mod.SeriesError):
        mod.series_inv(short, 10)


def test_series_inv_really_inverts_eta24():
    n = 50
    s = mod.eta24(n + 1)
    inv = mod.series_inv(s, n)
    prod = mod.series_mul(s, inv, n)
    assert prod.low == 0
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, n + 1))


def plain_series_inv(u, m_top):
    """The unit part of the inverse by the recurrence, one product at a time."""
    v = [u[0]]
    for m in range(1, m_top + 1):
        v.append(-u[0] * sum(u[k] * v[m - k] for k in range(1, m + 1)))
    return v


@given(st.integers(min_value=-2, max_value=2), st.sampled_from((1, -1)),
       st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                max_size=40),
       st.data())
def test_series_inv_matches_the_plain_recurrence(low, lead, tail, data):
    coeffs = (lead, *tail)
    N = data.draw(st.integers(min_value=-low, max_value=len(tail) - low))
    if low not in (-1, 0, 1):
        # q^-2 is not representable, so neither a nor its inverse is
        with pytest.raises(mod.SeriesError):
            mod.series_inv(LaurentSeries(low, coeffs), N)
        return
    inv = mod.series_inv(LaurentSeries(low, coeffs), N)
    assert inv == LaurentSeries(-low, tuple(plain_series_inv(coeffs, N + low)))


def test_inverse_eta24_has_nonnegative_coefficients():
    inv = mod.series_inv(mod.eta24(51), 50)
    assert inv.low == -1
    assert all(c >= 0 for c in inv.coeffs)
    assert inv.coeffs[:7] == INV_ETA24


def test_series_sub():
    a = LaurentSeries(-1, (1, 744, 196884))
    b = LaurentSeries(-1, (1, 720, 196884))
    diff = mod.series_sub(a, b)
    # the trailing zero stays: the difference is known through exponent 1
    assert diff == LaurentSeries(0, (24, 0))
    assert mod.series_sub(a, a).is_zero


# --------------------------------------------------------------------------
# j from rank-24 even unimodular lattices

def test_j_from_3E8_full_prefix():
    e8 = lat.build_E8()
    s = mod.j_from_lattice(lat.direct_sum(e8, e8, e8), 5)
    assert s.low == -1
    assert s.coeffs == J_COEFFS


def test_j_gates_on_rank_24_even_unimodular():
    with pytest.raises(mod.SeriesError):
        mod.j_from_lattice(lat.build_E8(), 2)
    a1_24 = lat.direct_sum(*[lat.build_An(1)] * 24)
    with pytest.raises(mod.SeriesError):
        mod.j_from_lattice(a1_24, 2)


def test_theta_3E8_is_E4_cubed():
    e8 = lat.build_E8()
    th = lat.theta_series(lat.direct_sum(e8, e8, e8), 3)
    assert th.counts == E4_CUBED_PREFIX


def test_j_is_lattice_independent_up_to_the_constant():
    e8 = lat.build_E8()
    a = mod.j_from_lattice(lat.direct_sum(e8, e8, e8), 2)
    b = mod.j_from_lattice(lat.direct_sum(e8, lat.build_D16plus()), 2)
    diff = mod.series_sub(a, b)
    assert diff.is_zero or all(diff.coefficient(k) == 0 for k in (-1, 1, 2))
    # these two lattices share a theta series, so here the difference
    # actually vanishes
    assert diff.is_zero


@pytest.mark.slow
def test_j_difference_stays_constant_at_order_three():
    e8 = lat.build_E8()
    d16 = lat.build_D16plus()
    a = mod.j_from_lattice(lat.direct_sum(e8, e8, e8), 3)
    b = mod.j_from_lattice(lat.direct_sum(e8, d16), 3)
    assert mod.series_sub(a, b).is_zero
    # both thetas come from E4 powers; enumerating D16+ and E8 to norm 8
    # (the counts j needs at order 3) checks that route
    counts = {}
    for l in (e8, d16):
        g = lat._reduced(l)[0]
        found = lat._enumerate_int_gram(g, 8)
        counts[l] = LaurentSeries(0, (1,) + tuple(found[k] for k in (2, 4, 6, 8)))
    e8_squared = mod.series_mul(counts[e8], counts[e8], 4)
    assert counts[d16] == e8_squared
    assert mod.series_mul(e8_squared, counts[e8], 4) == \
        lat.theta_series(lat.direct_sum(e8, d16), 4)


def test_j_from_the_leech_lattice_counts_coset_states():
    # theta has no norm-2 term, so the q coefficient is 196560 + 324
    leech = lat.leech_from_ii26()
    s = mod.j_from_lattice(leech, 1)
    assert s == LaurentSeries(-1, (1, 24, 196884))


# --------------------------------------------------------------------------
# text form

def test_format_series_examples():
    assert mod.format_series(LaurentSeries(-1, (1, 744, 196884))) == \
        "q^-1 + 744 + 196884 q"
    assert mod.format_series(LaurentSeries(1, (1, -24))) == "q - 24 q^2"
    assert mod.format_series(LaurentSeries(0, (-1, 0, 7))) == "-1 + 7 q^2"
    assert mod.format_series(LaurentSeries(-1, (-1, 0, -1))) == "-q^-1 - q"
    assert mod.format_series(mod.ZERO_SERIES) == "0"
