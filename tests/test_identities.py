"""Tests for digit extraction, cannonballs, spin areas, and linking numbers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exceptia import identities as ident
from exceptia.identities import (
    IdentityError,
    PolyLoop,
    SpinList,
    bbp_pi_hex,
    cannonball_search,
    linking_number,
    loops_disjoint,
    spin_area,
    square_pyramid,
)

# first 72 hex digits of pi after the point, from an exact-rational
# evaluation of the digit-extraction series (reproduced by the oracle below)
PI_HEX_72 = ("243F6A8885A308D313198A2E03707344"
             "A4093822299F31D0082EFA98EC4E6C89452821E6")


# ---------------------------------------------------------------------------
# hex digits of pi

def pi_hex_oracle(digits: int) -> str:
    """Hex digits of pi - 3 from a plain rational partial sum.

    Shares nothing with the fixed-point path in ``bbp_pi_hex``: every term
    is an exact Fraction, and the base-16 expansion is read off by repeated
    multiplication. Ten spare terms keep the truncation error far below one
    unit in the last requested digit.
    """
    s = Fraction(0)
    for n in range(digits + 10):
        s += Fraction(1, 16 ** n) * (Fraction(4, 8 * n + 1)
                                     - Fraction(2, 8 * n + 4)
                                     - Fraction(1, 8 * n + 5)
                                     - Fraction(1, 8 * n + 6))
    frac = s - 3
    out = []
    for _ in range(digits):
        frac *= 16
        d = int(frac)
        out.append("0123456789ABCDEF"[d])
        frac -= d
    return "".join(out)


def test_first_ten_hex_digits():
    assert bbp_pi_hex(1, 10) == "243F6A8885"


def test_first_72_hex_digits_match_frozen_constant():
    assert bbp_pi_hex(1, 72) == PI_HEX_72


def test_hex_digits_match_exact_rational_oracle():
    assert bbp_pi_hex(1, 40) == pi_hex_oracle(40)


def test_interior_windows_slice_the_frozen_constant():
    for start in (2, 7, 17, 40, 60):
        assert bbp_pi_hex(start, 8) == PI_HEX_72[start - 1:start + 7]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=11))
def test_overlapping_windows_agree(start, shift):
    wide = bbp_pi_hex(start, shift + 8)
    assert wide[shift:] == bbp_pi_hex(start + shift, 8)


def test_windows_agree_at_depth():
    # positional consistency far from the start, where the modular head
    # dominates the work
    wide = bbp_pi_hex(9990, 20)
    assert wide[5:13] == bbp_pi_hex(9995, 8)
    assert wide[12:] == bbp_pi_hex(10002, 8)


def test_position_gates():
    with pytest.raises(IdentityError):
        bbp_pi_hex(0, 5)
    with pytest.raises(IdentityError):
        bbp_pi_hex(3, 0)
    with pytest.raises(IdentityError):
        bbp_pi_hex(-1, 4)
    with pytest.raises(IdentityError, match="time budget"):
        bbp_pi_hex(ident.BBP_POSITION_LIMIT, 2)


def test_count_cap():
    cap = ident.BBP_COUNT_LIMIT
    assert bbp_pi_hex(1, cap).startswith(PI_HEX_72)
    with pytest.raises(IdentityError, match=f"above the cap of {cap} digits"):
        bbp_pi_hex(1, cap + 1)


def bbp_four_pass(start: int, count: int) -> str:
    """A second extractor, on the Bailey-Borwein-Plouffe series rather than
    the library's Bellard series: one walk over n per series term, one small
    modulus per pow, 16 guard digits, reduced mod 16^prec after every term."""
    d = start - 1
    prec = count + 16
    mod = 1 << (4 * prec)
    total = 0
    for coeff, k in ((4, 1), (-2, 4), (-1, 5), (-1, 6)):
        acc = 0
        for n in range(d + 1):
            m = 8 * n + k
            acc = (acc + pow(16, d - n, m) * mod // m) % mod
        for n in range(d + 1, d + prec + 1):
            m = 8 * n + k
            acc = (acc + (mod >> (4 * (n - d))) // m) % mod
        total = (total + coeff * acc) % mod
    return format(total, f"0{prec}x")[:count].upper()


def test_one_pass_matches_four_pass_on_every_early_window():
    for start in range(1, 501):
        assert bbp_pi_hex(start, 8) == bbp_four_pass(start, 8), start


def test_one_pass_matches_four_pass_at_seeded_depths():
    rng = random.Random(2024)
    for lo, hi in ((10 ** 3, 10 ** 4), (10 ** 4, 5 * 10 ** 4),
                   (5 * 10 ** 4, 10 ** 5 - 16)):
        start, count = rng.randrange(lo, hi), rng.randint(1, 16)
        assert bbp_pi_hex(start, count) == bbp_four_pass(start, count)


def test_narrow_guard_forces_a_certified_retry(monkeypatch):
    # with no guard digits the first pass cannot certify its last digit,
    # so the extractor must widen the guard and run again
    passes = []
    one_pass = ident._bbp_pass

    def counted(d, prec):
        passes.append(prec)
        return one_pass(d, prec)

    monkeypatch.setattr(ident, "_bbp_start_guard", lambda d, count: 0)
    monkeypatch.setattr(ident, "_bbp_pass", counted)
    assert bbp_pi_hex(9995, 8) == bbp_four_pass(9995, 8)
    assert bbp_pi_hex(1, 40) == pi_hex_oracle(40)
    assert passes[0] == 8 and len(passes) >= 2


def test_start_guard_is_log16_of_the_error_bound_plus_two():
    for d, count in ((0, 1), (19999, 16), (10 ** 6, 4096)):
        g = ident._bbp_start_guard(d, count)
        bound = ident._bbp_error_bound(d, count + g)
        assert 16 ** (g - 3) < bound <= 16 ** (g - 2)


def scaled_pi_fraction(d: int, prec: int) -> Fraction:
    """2^(4 prec) frac(16^d pi), exact up to a tail below 1/16 ulp.

    A second route to what ``_bbp_pass`` computes: it sums the
    Bailey-Borwein-Plouffe series, not Bellard's. The four fractions of
    every term n <= d + prec + 2 are summed apart, each head term reduced
    exactly mod 1; term n is below 6 * 16^(d-n), so the terms left out add
    less than 1/16 ulp.
    """
    x = Fraction(0)
    for n in range(d + prec + 3):
        for c, m in ((4, 8 * n + 1), (-2, 8 * n + 4), (-1, 8 * n + 5),
                     (-1, 8 * n + 6)):
            if n <= d:
                x += Fraction(c * pow(16, d - n, m) % m, m)
            else:
                x += Fraction(c, m * 16 ** (n - d))
    return x % 1 * 2 ** (4 * prec)


def test_one_pass_lies_within_its_error_bound():
    k, spare = ident._BBP_BLOCK, ident._BBP_SPARE
    # d = 0, 1: 4d - 6 < 0, no head block; d = 2..9: the first block
    # straddles e = 0, and d mod 5 sets the last term's e mod 10, so its bits
    # land at every offset from the result's last bit, below it (e < -4 prec)
    # included; prec 1..12 moves the end across several block boundaries
    cases = [(d, prec) for d in range(10) for prec in range(1, 13)]
    # deeper heads: passes that end on, just before and just after a block
    # boundary
    cases += [(d, prec) for d in (300, 517, 1001) for prec in range(1, 40)
              if ident._bbp_terms(d, prec) % k in (0, 1, k - 1)]
    ends, offsets, straddles = set(), set(), 0
    for d, prec in cases:
        mod = 1 << (4 * prec)
        exact = scaled_pi_fraction(d, prec)
        diff = (exact - ident._bbp_pass(d, prec) + mod // 2) % mod - mod // 2
        bound = ident._bbp_error_bound(d, prec)
        assert -bound <= diff and diff + Fraction(1, 16) <= bound, (d, prec)
        end = ident._bbp_terms(d, prec)
        ends.add(end % k)
        # bits of the last term's 2^e above the result's last bit
        offsets.add(4 * d - 6 - 10 * (end - 1) + 4 * prec)
        head = (4 * d - 6) // 10      # the last n with e >= 0
        straddles += 0 <= head < min(head // k * k + k, end) - 1
    # the cases reach every seam named above
    assert ends == set(range(k)) and straddles
    assert offsets == set(range(-spare, 10 - spare, 2))


def test_bellard_tables_step_through_p_and_q():
    # P and Q as the pass's docstring states them, and the seven fractions
    # of Bellard's series they put over one denominator
    p, q = list(ident._P_STEPS), list(ident._Q_STEPS)
    first = Fraction(11016388, 969969)  # P(1)/Q(1), the error bound's cap
    for n in range(60):
        assert p[0] == sum(c * n ** i for i, c in enumerate(
            (570042, 6543234, 29980024, 70652400, 90764000, 60500000,
             16400000)))
        assert q[0] == ((4 * n + 1) * (4 * n + 3) * (10 * n + 1) * (10 * n + 3)
                        * (10 * n + 5) * (10 * n + 7) * (10 * n + 9))
        assert Fraction(p[0], q[0]) == (
            Fraction(-32, 4 * n + 1) - Fraction(1, 4 * n + 3)
            + Fraction(256, 10 * n + 1) - Fraction(64, 10 * n + 3)
            - Fraction(4, 10 * n + 5) - Fraction(4, 10 * n + 7)
            + Fraction(1, 10 * n + 9))
        assert n == 0 or 0 < Fraction(p[0], q[0]) <= first
        for t in (p, q):
            for i in range(len(t) - 1):
                t[i] += t[i + 1]


def machin_pi_hex(digits: int) -> str:
    """The first hex digits of pi - 3 from pi = 16 atan(1/5) - 4 atan(1/239).

    A route that shares no series with BBP. Fixed point at 2^s: the j-th
    term of atan(1/x) is floor(floor(2^s / x^(2j+1)) / (2j+1)), which is the
    exact term floored, so each term is off by less than 1 ulp, and the
    alternating series stops at the first term that floors to 0, below 1
    ulp. Over t terms atan(1/x) is within t + 1 ulp, and pi within
    E = 16 (t5 + 1) + 4 (t239 + 1) ulp. The digits are returned once
    pi - E and pi + E agree on them; otherwise the guard widens.
    """
    guard = 8
    while True:
        s = 4 * (digits + guard)
        total = err = 0
        for coeff, x in ((16, 5), (-4, 239)):
            power, j, acc = (1 << s) // x, 0, 0
            while power:
                acc += (-1) ** j * (power // (2 * j + 1))
                power //= x * x
                j += 1
            total += coeff * acc
            err += abs(coeff) * (j + 1)
        total -= 3 << s
        if (total - err) >> 4 * guard == (total + err) >> 4 * guard:
            return format(total >> 4 * guard, f"0{digits}X")
        guard += 4


def test_machin_route_matches_seeded_windows_to_ten_thousand():
    digits = machin_pi_hex(10 ** 4)
    assert digits[:72] == PI_HEX_72
    rng = random.Random(5)
    windows = [(10 ** 4 - 15, 16)] + [
        (rng.randrange(1, 10 ** 4 - 15), rng.randint(1, 16)) for _ in range(3)]
    for start, count in windows:
        assert bbp_pi_hex(start, count) == digits[start - 1:start - 1 + count]


@pytest.mark.slow
def test_machin_route_matches_windows_near_twenty_and_fifty_thousand():
    digits = machin_pi_hex(5 * 10 ** 4)
    rng = random.Random(6)
    windows = [(20033, 16), (5 * 10 ** 4 - 15, 16)] + [
        (rng.randrange(lo, lo + 10 ** 3), 16)
        for lo in (2 * 10 ** 4, 5 * 10 ** 4 - 10 ** 3 - 15)]
    for start, count in windows:
        assert bbp_pi_hex(start, count) == digits[start - 1:start - 1 + count]


# ---------------------------------------------------------------------------
# cannonballs

def test_square_pyramid_values():
    assert square_pyramid(0) == 0
    assert square_pyramid(1) == 1
    assert square_pyramid(3) == 14
    assert square_pyramid(24) == 4900 == 70 ** 2


def test_square_pyramid_rejects_negatives():
    with pytest.raises(IdentityError):
        square_pyramid(-1)


@given(st.integers(min_value=1, max_value=1000))
def test_square_pyramid_difference_is_a_square(n):
    assert square_pyramid(n) - square_pyramid(n - 1) == n * n


def test_cannonball_search_finds_only_the_two_classical_solutions():
    assert cannonball_search(10 ** 5) == {1, 24}


def test_cannonball_search_small_limits():
    assert cannonball_search(1) == {1}
    assert cannonball_search(23) == {1}
    assert cannonball_search(24) == {1, 24}


def test_cannonball_search_rejects_bad_limits():
    with pytest.raises(IdentityError):
        cannonball_search(0)
    with pytest.raises(IdentityError, match="time budget"):
        cannonball_search(ident.CANNONBALL_LIMIT + 1)


def cannonball_loop(limit: int) -> set:
    """The search as a plain loop: every n, one exact square root each."""
    hits = set()
    total = 0
    for n in range(1, limit + 1):
        total += n * n
        r = math.isqrt(total)
        if r * r == total:
            hits.add(n)
    return hits


@pytest.mark.parametrize("q", ident._SIEVE_MODULI)
def test_sieve_strikes_only_non_square_classes(q):
    period, struck = ident._struck_classes(q)
    assert (6 * q) % period == 0
    squares = {k * k % q for k in range(q)}
    # P(n) mod q is constant on each class mod the period, so on each class
    # mod 6q; two periods of 6q cover every class twice
    for n in range(2 * 6 * q):
        assert square_pyramid(n) % q == square_pyramid(n % period) % q
    for r in struck:
        assert 0 <= r < period and square_pyramid(r) % q not in squares


def test_cannonball_sieve_matches_the_plain_loop():
    block = ident._SIEVE_BLOCK
    rng = random.Random(7)
    limits = [*range(1, 201), block - 1, block, block + 1,
              *(rng.randint(block + 2, 3 * block) for _ in range(3))]
    for limit in limits:
        assert cannonball_search(limit) == cannonball_loop(limit), limit


# ---------------------------------------------------------------------------
# spin areas

def test_spinlist_sorts_and_coerces():
    s = SpinList.from_values(["3/2", 1, Fraction(1, 2), "1/2"])
    assert s.spins == (Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(3, 2))


def test_spinlist_rejects_bad_spins():
    with pytest.raises(IdentityError):
        SpinList.from_values([Fraction(1, 3)])
    with pytest.raises(IdentityError):
        SpinList.from_values([-1])


def test_empty_surface_has_no_area():
    assert spin_area(SpinList(())) == ({}, 0.0)


def test_single_puncture_areas():
    exact, approx = spin_area(SpinList.from_values(["1/2"]))
    assert exact == {Fraction(1, 2): 1}
    assert approx == pytest.approx(math.sqrt(3) / 2, rel=1e-15)

    exact, approx = spin_area(SpinList.from_values([1, 1]))
    assert exact == {Fraction(1): 2}
    assert approx == pytest.approx(2 * math.sqrt(2), rel=1e-15)


def test_zero_spins_carry_no_area():
    exact, approx = spin_area(SpinList.from_values([0, 0, "1/2"]))
    assert exact == {Fraction(1, 2): 1}
    assert approx == pytest.approx(math.sqrt(3) / 2, rel=1e-15)


def sqrt_to_30_places(x: Fraction) -> Fraction:
    # floor of sqrt(x) in steps of 10^-30: sqrt(p/q) = sqrt(pq)/q
    n = x.numerator * x.denominator
    return Fraction(math.isqrt(n * 10 ** 60), x.denominator * 10 ** 30)


def test_area_float_is_good_to_twelve_digits():
    rng = random.Random(8)
    values = [Fraction(rng.randrange(1, 12), 2) for _ in range(200)]
    exact, approx = spin_area(SpinList.from_values(values))
    oracle = sum(m * sqrt_to_30_places(j * (j + 1)) for j, m in exact.items())
    assert abs(approx - float(oracle)) <= 1e-12 * float(oracle)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), max_size=8),
       st.lists(st.integers(min_value=0, max_value=9), max_size=8))
def test_areas_add(twice_a, twice_b):
    a = SpinList.from_values([Fraction(t, 2) for t in twice_a])
    b = SpinList.from_values([Fraction(t, 2) for t in twice_b])
    both = SpinList.from_values(a.spins + b.spins)
    exact_a, approx_a = spin_area(a)
    exact_b, approx_b = spin_area(b)
    exact_ab, approx_ab = spin_area(both)
    merged = dict(exact_a)
    for j, m in exact_b.items():
        merged[j] = merged.get(j, 0) + m
    assert exact_ab == merged
    assert approx_ab == pytest.approx(approx_a + approx_b, rel=1e-9, abs=1e-12)


def test_adding_a_puncture_grows_the_area():
    base = SpinList.from_values([1, "3/2"])
    _, a0 = spin_area(base)
    _, a1 = spin_area(SpinList.from_values(base.spins + (Fraction(1, 2),)))
    assert a1 > a0


# ---------------------------------------------------------------------------
# polygonal loops

SQUARE_XY = PolyLoop(((1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)))
# threads the square through its interior edge x in [-1, 1] at y = 0
THREAD_XZ = PolyLoop(((0, 0, 1), (0, 0, -1), (3, 0, -1), (3, 0, 1)))


def test_loop_validation():
    with pytest.raises(IdentityError, match="at least 3"):
        PolyLoop(((0, 0, 0), (1, 0, 0)))
    with pytest.raises(IdentityError, match="integer triples"):
        PolyLoop(((0, 0), (1, 0), (0, 1)))
    with pytest.raises(IdentityError, match="integer triples"):
        # a thread at x = 3/2, which truncation would move onto the square
        PolyLoop(((1.5, 0, 0), (0, 2.9, 0), (Fraction(7, 2), 0, 1)))
    with pytest.raises(IdentityError, match="integer triples"):
        PolyLoop(((0, 0, 0), (1.0, 0, 0), (0, 1, 0)))
    with pytest.raises(IdentityError, match="integer triples"):
        PolyLoop(((0, 0, 0), (Fraction(1), 0, 0), (0, 1, 0)))
    with pytest.raises(IdentityError, match="distinct"):
        PolyLoop(((0, 0, 0), (0, 0, 0), (1, 0, 0)))
    with pytest.raises(IdentityError, match="distinct"):
        # the closing edge repeats the first vertex
        PolyLoop(((0, 0, 0), (1, 0, 0), (0, 0, 0)))


def test_segments_close_the_loop():
    segs = SQUARE_XY.segments()
    assert len(segs) == 4
    assert segs[-1] == ((1, -1, 0), (1, 1, 0))


def test_reversed_and_translated():
    rev = SQUARE_XY.reversed()
    assert set(rev.vertices) == set(SQUARE_XY.vertices)
    forward = {frozenset(s) for s in SQUARE_XY.segments()}
    backward = {frozenset(s) for s in rev.segments()}
    assert forward == backward

    moved = SQUARE_XY.translated((2, -1, 5))
    assert moved.vertices[0] == (3, 0, 5)


def test_loops_disjoint():
    assert loops_disjoint(SQUARE_XY, THREAD_XZ)
    assert not loops_disjoint(SQUARE_XY, SQUARE_XY)
    touching = PolyLoop(((1, 1, 0), (0, 0, 1), (0, 0, -1)))
    assert not loops_disjoint(SQUARE_XY, touching)


# ---------------------------------------------------------------------------
# linking numbers

def test_hopf_pair_links_once():
    assert linking_number(SQUARE_XY, THREAD_XZ) == -1
    assert abs(linking_number(SQUARE_XY, THREAD_XZ)) == 1


def test_reversal_flips_the_sign():
    assert linking_number(SQUARE_XY, THREAD_XZ.reversed()) == 1
    assert linking_number(SQUARE_XY.reversed(), THREAD_XZ) == 1
    assert linking_number(SQUARE_XY.reversed(), THREAD_XZ.reversed()) == -1


def test_split_loops_do_not_link():
    far = SQUARE_XY.translated((50, 0, 0))
    assert linking_number(SQUARE_XY, far) == 0


def test_stacked_squares_do_not_link():
    # seen straight down, every shadow segment of one loop would lie on a
    # segment of the other; the tilted view of linking_number is generic
    # even here
    assert linking_number(SQUARE_XY, SQUARE_XY.translated((0, 0, 5))) == 0


def test_intersecting_loops_are_refused():
    crossing = PolyLoop(((1, -1, 0), (0, 0, 1), (0, 0, -1)))
    with pytest.raises(IdentityError, match="needs disjoint loops"):
        linking_number(SQUARE_XY, crossing)


def rand_rect(rng: random.Random) -> PolyLoop:
    """Axis-aligned rectangle at a random position and orientation."""
    normal = rng.randrange(3)
    u, v = [a for a in range(3) if a != normal]
    c = [rng.randrange(-4, 5) for _ in range(3)]
    du, dv = rng.randrange(2, 8), rng.randrange(2, 8)
    corners = []
    for su, sv in ((0, 0), (1, 0), (1, 1), (0, 1)):
        pt = list(c)
        pt[u] += su * du
        pt[v] += sv * dv
        corners.append(tuple(pt))
    return PolyLoop(tuple(corners))


def disjoint_pair(rng: random.Random):
    while True:
        g, h = rand_rect(rng), rand_rect(rng)
        if loops_disjoint(g, h):
            return g, h


def test_linking_is_symmetric():
    rng = random.Random(4)
    seen = set()
    for _ in range(50):
        g, h = disjoint_pair(rng)
        n = linking_number(g, h)
        assert n == linking_number(h, g)
        seen.add(n)
    assert seen - {0}, "sampling never produced a linked pair"


def test_linking_survives_translation_of_both_loops():
    rng = random.Random(15)
    for _ in range(20):
        g, h = disjoint_pair(rng)
        v = tuple(rng.randrange(-9, 10) for _ in range(3))
        assert linking_number(g.translated(v), h.translated(v)) == \
            linking_number(g, h)


def test_linking_is_invariant_on_crowded_small_loops():
    # triangles and quadrilaterals in a 5x5x5 box: vertices often lie on
    # the lines of the other loop's edges, the near-degenerate case that the
    # size of B in linking_number's view guards against; symmetry, reversal
    # and translation (which changes m, and so the view) must all agree
    rng = random.Random(7)
    pairs = 0
    while pairs < 300:
        g, h = ([tuple(rng.randrange(-2, 3) for _ in range(3))
                 for _ in range(rng.randrange(3, 5))] for _ in range(2))
        if any(a == b for loop in (g, h)
               for a, b in zip(loop, loop[1:] + loop[:1])):
            continue
        g, h = PolyLoop(g), PolyLoop(h)
        if not loops_disjoint(g, h):
            continue
        pairs += 1
        n = linking_number(g, h)
        v = tuple(rng.randrange(-20, 21) for _ in range(3))
        assert linking_number(h, g) == n
        assert linking_number(g.reversed(), h) == -n
        assert linking_number(g.translated(v), h.translated(v)) == n


# ---------------------------------------------------------------------------
# a second route: Seifert surfaces

def seifert_count(flat, other) -> int:
    """Linking number of a rectangle ``flat`` in the plane z = 0 with a loop
    ``other`` that misses it: the signed crossings of other's edges through
    the rectangle's interior, each signed by its z-direction against the
    rectangle's normal (right-hand rule). The rectangle is a Seifert surface
    of ``flat``. Restated from the benchmark's oracle; shares nothing with
    the projection in ``linking_number``."""
    area2 = sum(a[0] * b[1] - b[0] * a[1]
                for a, b in zip(flat, flat[1:] + flat[:1]))
    normal = 1 if area2 > 0 else -1
    xs = sorted(v[0] for v in flat)
    ys = sorted(v[1] for v in flat)
    total = 0
    for a, b in zip(other, other[1:] + other[:1]):
        if (a[2] > 0) == (b[2] > 0):
            continue
        t = Fraction(a[2], a[2] - b[2])
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        if xs[0] < x < xs[-1] and ys[0] < y < ys[-1]:
            total += normal * (1 if b[2] > a[2] else -1)
    return total


def seifert_pair(rng: random.Random):
    """A rectangle in z = 0 with even corners, traversed either way, and a
    loop of 3-8 vertices with odd x, y and odd (so nonzero) z, kept when it
    misses the rectangle: no vertex lies in the rectangle's plane, and no
    edge meets its boundary."""
    x0, x1 = sorted(rng.sample(range(-8, 9, 2), 2))
    y0, y1 = sorted(rng.sample(range(-8, 9, 2), 2))
    flat = [(x0, y0, 0), (x1, y0, 0), (x1, y1, 0), (x0, y1, 0)]
    if rng.random() < 0.5:
        flat.reverse()
    while True:
        other = [(rng.randrange(-9, 10, 2), rng.randrange(-9, 10, 2),
                  rng.randrange(-5, 6, 2)) for _ in range(rng.randrange(3, 9))]
        if all(a != b for a, b in zip(other, other[1:] + other[:1])) and \
                loops_disjoint(PolyLoop(flat), PolyLoop(other)):
            return flat, other


def signed_permutation(rng: random.Random):
    """A random signed permutation of the axes, as (perm, signs, det)."""
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    inversions = sum(perm[j] > perm[i] for i in range(3) for j in range(i))
    return perm, signs, (-1) ** inversions * math.prod(signs)


def test_linking_number_matches_the_seifert_count():
    rng = random.Random(32)
    seen = []
    for i in range(400):
        flat, other = seifert_pair(rng)
        n = seifert_count(flat, other)
        assert linking_number(PolyLoop(flat), PolyLoop(other)) == n
        perm, signs, det = signed_permutation(rng)
        k = (1, 3, 10 ** 9)[i % 3]

        def moved(loop):
            return PolyLoop(tuple(tuple(k * signs[a] * v[perm[a]]
                                        for a in range(3)) for v in loop))

        assert linking_number(moved(other), moved(flat)) == det * n
        seen.append(n)
    assert sum(n != 0 for n in seen) >= 40, "too few linked pairs"
    assert max(map(abs, seen)) >= 2, "no pair links more than once"
