"""Euclidean and Lorentzian lattices: builders, enumeration, reduction."""

import itertools
import json
import math
import multiprocessing.process
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from exceptia import hypercomplex as hc
from exceptia import lattices as lat
from exceptia import modular as mod
from exceptia.intlinalg import (clear_denominators, det_fraction,
                                hnf_transform, invert_fraction, left_kernel,
                                matmul, solve_left)
from test_acceptance import enumerated
from test_intlinalg import fraction_inverse, fraction_matmul


E8 = lat.build_E8()


# --------------------------------------------------------------------------
# construction and basic predicates

def test_lattice_requires_independent_rows():
    with pytest.raises(lat.LatticeError):
        lat.Lattice(2, 2, ((1, 0), (2, 0)))


def test_lattice_rank_must_match_rows():
    with pytest.raises(lat.LatticeError):
        lat.Lattice(2, 1, ((1, 0), (0, 1)))


def test_row_length_must_match_ambient():
    with pytest.raises(lat.LatticeError):
        lat.Lattice(3, 1, ((1, 0),))


def test_negative_definite_lorentzian_spans_are_constructible_but_gated():
    # a timelike basis row is a legal coordinatization, but everything
    # Euclidean refuses to run on it
    l = lat.Lattice(2, 1, ((1, 0),), signature=lat.LORENTZIAN)
    assert not lat.is_positive_definite(l)
    with pytest.raises(lat.LatticeError):
        lat.short_vectors(l, 2)
    with pytest.raises(lat.LatticeError):
        lat.lll_reduce(l)


def test_form_dot_signatures():
    l = lat.Lattice(2, 1, ((0, 1),), signature=lat.LORENTZIAN)
    assert l.form_dot((1, 0), (1, 0)) == -1
    assert l.form_dot((0, 1), (0, 1)) == 1
    e = lat.Lattice(2, 1, ((0, 1),))
    assert e.form_dot((1, 0), (1, 0)) == 1


@pytest.mark.parametrize("n,det,roots", [(1, 2, 2), (2, 3, 6), (3, 4, 12),
                                         (4, 5, 20), (6, 7, 42)])
def test_An_series(n, det, roots):
    a = lat.build_An(n)
    assert a.rank == n
    assert lat.is_even(a)
    assert lat.gram_determinant(a) == det
    assert lat.short_vectors(a, 2) == {2: roots}


@pytest.mark.parametrize("n,roots", [(3, 12), (4, 24), (5, 40), (8, 112)])
def test_Dn_series(n, roots):
    d = lat.build_Dn(n)
    assert d.rank == n
    assert lat.is_even(d)
    assert lat.gram_determinant(d) == 4
    assert lat.short_vectors(d, 2) == {2: roots}


def test_series_builders_validate_n():
    with pytest.raises(lat.LatticeError):
        lat.build_An(0)
    with pytest.raises(lat.LatticeError):
        lat.build_Dn(1)


def test_E8_is_even_unimodular_with_240_roots():
    assert E8.rank == 8
    assert lat.is_even(E8)
    assert lat.is_unimodular(E8)
    assert lat.short_vectors(E8, 2) == {2: 240}


def e8_embeddings():
    """E8 as built; E8 with a zero coordinate prepended; and that padded copy
    in a Lorentzian ambient, reflected in r = (2; 1, 1, 1, 1, 1, 0, 0, 0) of
    norm 1, so its rows leave the plane x0 = 0."""
    r = (2, 1, 1, 1, 1, 1, 0, 0, 0)
    padded = [(0, *row) for row in E8.basis]
    reflected = [[x - 2 * (sum(map(mul, v, r)) - 2 * v[0] * r[0]) * y
                  for x, y in zip(v, r)] for v in padded]
    return (E8, lat.Lattice(9, 8, padded),
            lat.Lattice(9, 8, reflected, signature=lat.LORENTZIAN))


def test_E7_E6_complements():
    for e8 in e8_embeddings():
        e7 = lat.build_E7(e8)
        assert (e7.rank, e7.ambient_dim, e7.signature) == (
            7, e8.ambient_dim, e8.signature)
        assert lat.gram_determinant(e7) == 2
        assert lat.short_vectors(e7, 2) == {2: 126}
        e6 = lat.build_E6(e8)
        assert (e6.rank, e6.ambient_dim, e6.signature) == (
            6, e8.ambient_dim, e8.signature)
        assert lat.gram_determinant(e6) == 3
        assert lat.short_vectors(e6, 2) == {2: 72}
        assert [e7, e6] == fraction_E7_E6(e8)


def test_D16plus_is_even_unimodular_with_480_roots():
    d = lat.build_D16plus()
    assert d.rank == 16
    assert lat.is_even(d)
    assert lat.is_unimodular(d)
    assert lat.short_vectors(d, 2) == {2: 480}


def test_integrality_flags():
    assert lat.is_integral(E8)
    dual_a2 = lat.dual_lattice(lat.build_An(2))
    assert not lat.is_integral(dual_a2)
    assert not lat.is_even(dual_a2)


# --------------------------------------------------------------------------
# duality, containment

def test_E8_is_self_dual():
    assert lat.same_lattice(lat.dual_lattice(E8), E8)


def test_dual_of_dual_returns_home():
    for l in (lat.build_An(3), lat.build_Dn(4), lat.build_E6(E8)):
        assert lat.same_lattice(lat.dual_lattice(lat.dual_lattice(l)), l)


def test_dual_determinant_inverts():
    a3 = lat.build_An(3)
    assert lat.gram_determinant(lat.dual_lattice(a3)) == Fraction(1, 4)


def test_D8_sits_inside_E8():
    d8 = lat.build_Dn(8)
    assert d8.ambient_dim == E8.ambient_dim
    assert lat.sublattice_of(d8, E8)
    assert not lat.sublattice_of(E8, d8)


def test_lattice_contains_handles_non_members():
    assert lat.lattice_contains(E8, (1, 1, 0, 0, 0, 0, 0, 0))
    assert lat.lattice_contains(E8, (Fraction(1, 2),) * 8)
    assert not lat.lattice_contains(E8, (1, 0, 0, 0, 0, 0, 0, 0))
    assert not lat.lattice_contains(E8, (Fraction(1, 3),) * 8)


def test_membership_in_a_lattice_with_a_lightlike_row():
    # the Gram of a lightlike row is [[0]], so membership cannot come from
    # inverting it; x B = v is solved over the integers instead
    null = lat.Lattice(2, 1, ((1, 1),), signature=lat.LORENTZIAN)
    assert null.gram == ((0,),)
    assert lat.lattice_contains(null, (-3, -3))
    assert not lat.lattice_contains(null, (1, 0))
    assert not lat.lattice_contains(null, (Fraction(1, 2), Fraction(1, 2)))
    plane = lat.Lattice(3, 2, ((1, 1, 0), (0, 0, 2)), signature=lat.LORENTZIAN)
    assert lat.lattice_contains(plane, (2, 2, -2))
    assert not lat.lattice_contains(plane, (1, 1, 1))


def test_same_lattice_distinguishes_scalings():
    a1 = lat.build_An(1)
    doubled = lat.Lattice(2, 1, tuple(tuple(2 * x for x in row)
                                      for row in a1.basis))
    assert not lat.same_lattice(a1, doubled)
    # equal Hermite rows over different denominators: a lattice and its half
    rows = ((1, 1), (0, 2))
    assert not lat.same_lattice(lat.Lattice._from_ints(2, 2, rows, 1),
                                lat.Lattice._from_ints(2, 2, rows, 2))
    assert not lat.same_lattice(lat.build_Dn(8), E8)
    # a basis change keeps the lattice; E8 and D16+ are built on Hermite
    # rows, and their scrambled bases are not
    for l in (E8, lat.build_D16plus()):
        s = scrambled(l, 40, 3)
        assert s.rows != l.rows
        assert lat.same_lattice(s, l) and lat.same_lattice(l, s)


# --------------------------------------------------------------------------
# direct sums and theta series

def test_direct_sum_shapes():
    s = lat.direct_sum(E8, E8, E8)
    assert s.rank == 24
    assert s.ambient_dim == 24
    assert lat.is_even(s) and lat.is_unimodular(s)
    # each part's basis fills its own diagonal block, so the Gram is E8's
    # Gram three times down the diagonal and zero off it
    for i, row in enumerate(s.gram):
        for j, v in enumerate(row):
            assert v == (E8.gram[i % 8][j % 8] if i // 8 == j // 8 else 0)


def enumerated_theta(l, order):
    counts = enumerated(l, 2 * order)
    return mod.LaurentSeries(0, (1,) + tuple(counts.get(2 * m, 0)
                                             for m in range(1, order + 1)))


def power_counts(values, n, top):
    """Coefficients of q^0..q^top in (sum of q^v over values)^n: with the
    squares j^2 as values, r_n(k), the number of x in Z^n with norm k."""
    one = [0] * (top + 1)
    for v in values:
        if v <= top:
            one[v] += 1
    out = [1] + [0] * top
    for _ in range(n):
        out = [sum(out[i] * one[k - i] for i in range(k + 1))
               for k in range(top + 1)]
    return out


def squares(top):
    r = math.isqrt(top)
    return [j * j for j in range(-r, r + 1)]


def d16plus_theta(order):
    """theta of D16+ = (theta2^16 + theta3^16 + theta4^16) / 2 through q^order
    (SPLAG ch. 4 section 7.4), counted in quarter-norm units: the integer
    vectors of even norm all lie in D16, and half of the vectors of
    (Z + 1/2)^16 of each norm have an even coordinate sum."""
    top = 8 * order
    whole = power_counts([4 * v for v in squares(top // 4)], 16, top)
    half = power_counts([(2 * j + 1) ** 2 for j in range(-4 * order, 4 * order)],
                        16, top)
    return mod.LaurentSeries(0, tuple(whole[8 * m] + half[8 * m] // 2
                                      for m in range(order + 1)))


def test_theta_E8_matches_the_eisenstein_expansion():
    # theta_series reads E8 off E4 = 1 + 240 sum sigma3(n) q^n, so the
    # enumerator checks the same expansion independently
    th = lat.theta_series(E8, 4)
    assert th.counts == (1, 240, 2160, 6720, 17520)
    assert enumerated_theta(E8, 4) == th


def test_theta_of_sums_is_the_product_of_thetas():
    a1 = lat.build_An(1)
    square = lat.direct_sum(a1, a1)
    th = lat.theta_series(square, 3)
    single = lat.theta_series(a1, 3)
    assert th == mod.series_mul(single, single, 3)


def test_theta_3E8_prefix():
    s = lat.direct_sum(E8, E8, E8)
    th = lat.theta_series(s, 2)
    assert th.counts == (1, 720, 179280)


def recorded_ranks(monkeypatch, name="_enumerate_int_gram"):
    """Patch the enumerator, or the Gram function ``name`` of lattices, to
    append the rank of every Gram it is called on."""
    ranks = []
    real = getattr(lat, name)

    def recording(g, *args, **kwargs):
        ranks.append(len(g))
        return real(g, *args, **kwargs)

    monkeypatch.setattr(lat, name, recording)
    return ranks


E8_THETA = (1, 240, 2160, 6720)
E8_SQUARED_THETA = (1, 480, 61920, 1050240)

# (builder, minimum, theta series through q^3 in units of the scale
# s^2): each primitive Gram is even unimodular of rank below 24
UNREDUCED = {
    "E8": (lambda: E8, (2, 240), E8_THETA),
    "E8+E8": (lambda: lat.direct_sum(E8, E8), (2, 480), E8_SQUARED_THETA),
    "D16+": (lambda: lat.build_D16plus(), (2, 480), E8_SQUARED_THETA),
    "E8-scrambled": (lambda: scrambled(E8, 32, 1), (2, 240), E8_THETA),
    "E8+E8-scrambled": (lambda: scrambled(lat.direct_sum(E8, E8), 32, 2),
                        (2, 480), E8_SQUARED_THETA),
    "D16+-scrambled": (lambda: scrambled(lat.build_D16plus(), 32, 3),
                       (2, 480), E8_SQUARED_THETA),
    "E8x10^8": (lambda: scaled_basis(E8, 10**8), (2 * 10**16, 240),
                E8_THETA),
    "lorentzian-E8": (lambda: e8_embeddings()[2], (2, 240), E8_THETA),
}


@pytest.mark.parametrize("name", list(UNREDUCED))
def test_even_unimodular_counts_run_no_lll(name, monkeypatch):
    # the counts of an even unimodular Gram of rank below 24 come from its
    # theta series as a modular form, so no query reduces or searches it
    build, minimum, theta = UNREDUCED[name]
    l = build()
    s = l.scale
    calls = recorded_ranks(monkeypatch, "_lll_gram")
    ranks = recorded_ranks(monkeypatch)
    assert lat._minimum(l) == minimum
    assert lat.short_vectors(l, 6 * s) == {
        2 * k * s: t for k, t in enumerate(theta) if k}
    info = lat.lattice_info(l)
    assert (info["min_norm"], info["kissing"]) == minimum
    # theta_series counts norms 2m, so the scaled copy shows its zeros
    expected = theta if s == 1 else (1, 0, 0, 0)
    assert lat.theta_series(l, 3).counts == expected
    assert calls == ranks == []


# (builder, minimum, a bound) of lattices that a count reduces once
REDUCED_ONCE = {
    "LeechII": (lat.leech_from_ii26, (4, 196560), 6),
    "LeechIcosian": (lat.leech_from_icosians, (4, 196560), 6),
    "3E8": (lambda: lat.direct_sum(E8, E8, E8), (2, 720), 6),
    "E8+D16+": (lambda: lat.named_lattice("E8+D16+"), (2, 720), 6),
    "E7": (lambda: lat.build_E7(E8), (2, 126), 4),
    "A4": (lambda: lat.build_An(4), (2, 20), 4),
}


@pytest.mark.parametrize("name", list(REDUCED_ONCE))
def test_other_counts_run_lll_once_per_query(name, monkeypatch):
    # rank 24 even unimodular lattices are searched up to norm 2 on their
    # reduced Gram; any other lattice is reduced, split and enumerated
    build, minimum, bound = REDUCED_ONCE[name]
    l = build()
    calls = recorded_ranks(monkeypatch, "_lll_gram")
    for query, check in (
            (lambda: lat._minimum(l), lambda r: r == minimum),
            (lambda: lat.short_vectors(l, bound),
             lambda r: min(r) == minimum[0] and r[minimum[0]] == minimum[1]),
            (lambda: lat.lattice_info(l),
             lambda r: (r["min_norm"], r["kissing"]) == minimum),
            (lambda: lat.theta_series(l, bound // 2),
             lambda r: r.coefficient(minimum[0] // 2) == minimum[1])):
        calls.clear()
        assert check(query())
        assert calls == [l.rank]


def test_theta_3E8_enumerates_E8_once_and_equals_its_cube(monkeypatch):
    # the per-summand fold is the oracle; the library counts the whole sum
    # and splits its reduced Gram, so no search sees more than one summand
    e8, a2 = lat.theta_series(E8, 3), lat.theta_series(lat.build_An(2), 3)
    ranks = recorded_ranks(monkeypatch)
    th = lat.theta_series(lat.direct_sum(E8, E8, E8), 3)
    assert th == mod.series_mul(mod.series_mul(e8, e8, 3), e8, 3)
    assert th.counts == (1, 720, 179280, 16954560)
    assert max(ranks, default=0) <= 8
    ranks.clear()
    mixed = lat.direct_sum(lat.build_An(2), E8, lat.build_An(2))
    assert lat.theta_series(mixed, 3) == \
        mod.series_mul(mod.series_mul(a2, e8, 3), a2, 3)
    assert ranks and max(ranks) <= 8


@pytest.mark.slow
def test_theta_3E8_against_flat_enumeration():
    s = lat.direct_sum(E8, E8, E8)
    plain = lat.Lattice(s.ambient_dim, s.rank, s.basis)
    assert enumerated_theta(plain, 2) == lat.theta_series(plain, 2) == \
        lat.theta_series(s, 2)


def test_theta_D16plus_agrees_with_E8_squared():
    d16 = lat.build_D16plus()
    th = lat.theta_series(d16, 2)
    e8sq = mod.series_mul(lat.theta_series(E8, 2), lat.theta_series(E8, 2), 2)
    assert th == e8sq == mod.LaurentSeries(0, (1, 480, 61920))
    # both sides above come from E4^2; the enumerator and the Jacobi theta
    # form of D16+ check them independently
    e8 = enumerated_theta(E8, 2)
    assert enumerated_theta(d16, 2) == mod.series_mul(e8, e8, 2) == th
    assert d16plus_theta(4) == lat.theta_series(d16, 4)


def test_flattened_sums_follow_the_theta_of_their_parts():
    # the whole rank-24 Gram is even unimodular, so theta_series counts
    # norm 2 (block by block once the reduced Gram splits) and solves for
    # the rest. D16+ to norm 8 comes from its Jacobi theta form
    # (enumerating it takes seconds;
    # test_theta_D16plus_agrees_with_E8_squared ties the two)
    e8 = enumerated_theta(E8, 4)
    for parts, expected, seed in (
            ((E8, E8, E8), mod.series_mul(mod.series_mul(e8, e8, 4), e8, 4), 5),
            ((E8, lat.build_D16plus()), mod.series_mul(e8, d16plus_theta(4), 4),
             6)):
        flat = scrambled(lat.direct_sum(*parts), 48, seed)
        assert lat.theta_series(flat, 4) == expected


def test_odd_unimodular_primitive_grams_keep_enumerating():
    # e_2k +- e_2k+1 span an even lattice with Gram 2 I_8; divided by its
    # content the Gram is I_8, unimodular but odd, so it must be counted (as
    # eight blocks of rank 1), not read off modular forms: its counts are
    # r_8(k) at norm 2k
    rows = []
    for k in range(4):
        for sign in (1, -1):
            row = [0] * 8
            row[2 * k], row[2 * k + 1] = 1, sign
            rows.append(tuple(row))
    l = lat.Lattice(8, 8, tuple(rows))
    assert lat.is_even(l) and not lat.is_unimodular(l)
    r8 = power_counts(squares(4), 8, 4)
    assert r8[1:] == [16, 112, 448, 1136]
    expected = {2 * k: r8[k] for k in range(1, 5)}
    assert lat.short_vectors(l, 8) == enumerated(l, 8) == expected
    assert lat.lattice_info(l)["kissing"] == 16


@pytest.mark.parametrize("build,s,bound", [
    (lambda: E8, 10**8, 8),
    (lat.leech_from_ii26, 3, 4),
], ids=["E8x10^8", "Leechx3"])
def test_scaled_unimodular_lattices_take_the_route(build, s, bound):
    l = build()
    big = lat.Lattice(l.ambient_dim, l.rank,
                      tuple(tuple(v * s for v in r) for r in l.basis),
                      signature=l.signature)
    scaled = {k * s * s: v for k, v in lat.short_vectors(l, bound).items()}
    assert lat.short_vectors(big, bound * s * s) == scaled == \
        enumerated(big, bound * s * s)


@pytest.mark.slow
def test_rank_48_flattened_sum_matches_the_theta_product():
    # rank 48 takes the route with a three-form basis (E4^6, E4^3 Delta,
    # Delta^2), counting the flattened Gram to norm 4 first, one block at a
    # time where its reduced Gram splits
    d16 = lat.build_D16plus()
    flat = scrambled(lat.direct_sum(E8, d16, E8, E8, E8), 48, 7)
    e8 = enumerated_theta(E8, 5)
    expected = mod.series_mul(d16plus_theta(5), e8, 5)
    for _ in range(3):
        expected = mod.series_mul(expected, e8, 5)
    assert expected.counts[:3] == (1, 1440, 876960)
    assert lat.theta_series(flat, 5) == expected


def test_theta_series_validates_order():
    with pytest.raises(lat.LatticeError):
        lat.theta_series(E8, -1)


def test_short_vector_listing_is_sorted_and_signed():
    a2 = lat.build_An(2)
    entries = lat.short_vector_list(a2, 2)
    assert len(entries) == 6
    assert sorted(entries) == entries
    for norm, v in entries:
        assert norm == 2
        assert a2.form_dot(v, v) == 2
        assert (norm, tuple(-x for x in v)) in entries


def test_short_vectors_gates():
    # an odd lattice is counted; only a negative bound is refused
    assert lat.short_vectors(lat.Lattice(1, 1, ((1,),)), 2) == {1: 2}
    with pytest.raises(lat.LatticeError):
        lat.short_vectors(lat.build_An(2), -1)


def scrambled(l, ops, seed):
    """The same lattice under ``ops`` random elementary row operations."""
    rng = random.Random(seed)
    rows = [list(r) for r in l.basis]
    for _ in range(ops):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return lat.Lattice(l.ambient_dim, l.rank, tuple(map(tuple, rows)))


def test_enumeration_matches_closed_forms_on_e8_and_d12():
    # D12 at norm 6 is not unimodular, so short_vectors enumerates it. D12
    # holds the x in Z^12 with even sum, so its count at norm 2k is r_12(2k)
    r12 = power_counts(squares(6), 12, 6)
    assert lat.short_vectors(E8, 4) == {2: 240, 4: 2160}
    assert lat.short_vectors(lat.build_Dn(12), 6) == {k: r12[k]
                                                      for k in (2, 4, 6)}


def test_enumeration_starts_no_process(monkeypatch):
    # D12 at norm 6 is a search of about 80 ms; every search, however large,
    # runs in the calling process
    def refuse(self):
        raise AssertionError("the enumerator started a process")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    assert lat.short_vectors(lat.build_Dn(12), 6)[2] == 264


@pytest.mark.parametrize("s", [1, 10**4, 10**8, 10**12])
def test_scaled_lattices_count_exactly(s):
    # dividing the Gram by its content makes every count scale-invariant;
    # without it E8 scaled by 10^8 reported kissing 184
    for l, bound in ((scrambled(E8, 32, 1), 6), (lat.build_D16plus(), 4)):
        big = lat.Lattice(l.ambient_dim, l.rank,
                          tuple(tuple(v * s for v in r) for r in l.basis))
        info = lat.lattice_info(big)
        assert (info["min_norm"], info["kissing"]) == (2 * s * s,
                                                       lat.lattice_info(l)["kissing"])
        assert lat.short_vectors(big, bound * s * s) == {
            k * s * s: v for k, v in lat.short_vectors(l, bound).items()}


def test_large_unstructured_gram_counts_exactly():
    # E8 scaled by 10^8 plus A1 scaled by 10^8 + 1, flattened and scrambled:
    # the Gram has content 2 and entries near 10^16, so dividing by the
    # content does not shrink it; windows taken in floating point with an
    # absolute slack lost 56 of the 240 minimal vectors here
    s = 10**8
    rows = ([tuple(v * s for v in r) + (0, 0) for r in E8.basis]
            + [(0,) * 8 + tuple(v * (s + 1) for v in r)
               for r in lat.build_An(1).basis])
    l = scrambled(lat.Lattice(10, 9, tuple(rows)), 40, 0)
    assert lat.short_vectors(l, 2 * s * s) == {2 * s * s: 240}
    info = lat.lattice_info(l)
    assert (info["min_norm"], info["kissing"]) == (2 * s * s, 240)
    # the queries above split the reduced Gram into two small blocks; the
    # enumerator must also count the whole primitive Gram exactly
    gr, _, c, _ = lat._reduced(l)
    assert c == 2 and max(abs(v) for row in gr for v in row) >= 10**15
    assert lat._enumerate_int_gram(gr, s * s) == {s * s: 240}


def scaled_basis(l, s):
    return lat.Lattice(l.ambient_dim, l.rank,
                       tuple(tuple(v * s for v in r) for r in l.basis))


FLAT_SUMS = {
    "E8+D6": ((E8, lat.build_Dn(6)), 4, 2),
    "E8+A4": ((E8, lat.build_An(4)), 6, 3),
    "A2+E8+A2": ((lat.build_An(2), E8, lat.build_An(2)), 6, 3),
    "D4+D4": ((lat.build_Dn(4), lat.build_Dn(4)), 6, 3),
    "E8+E8x2": ((E8, scaled_basis(E8, 2)), 8, 4),
}


@pytest.mark.parametrize("name", list(FLAT_SUMS))
def test_flat_sums_split_and_match_the_whole_enumeration(name):
    parts, bound, order = FLAT_SUMS[name]
    l = scrambled(lat.direct_sum(*parts), 48, 3)
    gr = lat._reduced(l)[0]
    assert len(lat._components(gr)) == len(parts)
    whole = enumerated(l, bound)
    assert lat.short_vectors(l, bound) == whole
    assert lat.theta_series(l, order) == enumerated_theta(l, order)
    info = lat.lattice_info(l)
    mn = min(whole)
    assert (info["min_norm"], info["kissing"]) == (mn, whole[mn])


def test_blocks_with_different_contents_split_exactly():
    # E8 * 10^8 + A1 * (10^8 + 1): the whole Gram has content 2, its blocks
    # 10^16 and 2 (10^8 + 1)^2
    s = 10**8
    l = scrambled(lat.direct_sum(scaled_basis(E8, s),
                                 scaled_basis(lat.build_An(1), s + 1)),
                  40, 1)
    gr, _, c, _ = lat._reduced(l)
    assert c == 2 and len(lat._components(gr)) == 2
    bound = 2 * (s + 1) ** 2
    expected = {2 * s * s: 240, 2 * (s + 1) ** 2: 2}
    assert lat.short_vectors(l, bound) == enumerated(l, bound) == expected
    info = lat.lattice_info(l)
    assert (info["min_norm"], info["kissing"]) == (2 * s * s, 240)


def test_flat_E8_D6_never_searches_more_than_one_block(monkeypatch):
    flat = scrambled(lat.direct_sum(E8, lat.build_Dn(6)), 48, 1)
    ranks = recorded_ranks(monkeypatch)
    # E8 has 240 roots and 2160 vectors of norm 4, D6 has 60 and 252
    assert lat.short_vectors(flat, 4) == {2: 300, 4: 2160 + 252 + 240 * 60}
    assert ranks and max(ranks) <= 8


@st.composite
def block_sums(draw):
    """(blocks, rows, scrambled, bound): the rows of 2-3 even blocks of rank
    <= 4 in orthogonal coordinates, the same rows permuted and scrambled by
    seeded row operations, and a bound up to 8."""
    blocks = []
    for _ in range(draw(st.integers(2, 3))):
        r = draw(st.integers(1, 4))
        m = draw(st.integers(r, 4))
        rows = []
        for _ in range(r):
            row = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
            row[-1] -= sum(row) % 2             # even coordinate sum
            rows.append(row)
        blocks.append(rows)
    ambient = sum(len(b[0]) for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        m = len(b[0])
        rows += [[0] * offset + row + [0] * (ambient - offset - m) for row in b]
        offset += m
    mixed = list(rows)
    rng = random.Random(draw(st.integers(0, 2**32)))
    rng.shuffle(mixed)
    for _ in range(rng.randrange(3 * len(mixed))):
        i, j = rng.sample(range(len(mixed)), 2)
        c = rng.choice((-1, 1))
        mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
    return len(blocks), rows, mixed, draw(st.integers(0, 8))


@given(data=block_sums())
@settings(max_examples=60, deadline=None)
def test_block_diagonal_grams_split_exactly(data):
    blocks, rows, mixed, bound = data
    g = matmul(rows, list(zip(*rows)))
    assume(det_fraction(g) != 0)
    l = lat.Lattice(len(rows[0]), len(rows), tuple(map(tuple, mixed)))
    assert lat.short_vectors(l, bound) == enumerated(l, bound)
    # the unscrambled block-diagonal Gram, divided by its content, splits
    # whatever LLL makes of the scramble
    c = math.gcd(*(v for row in g for v in row))
    g = [[v // c for v in row] for row in g]
    assert len(lat._components(g)) >= blocks
    assert lat._norm_counts(g, bound) == lat._enumerate_int_gram(g, bound)


def box_counts(g, bound):
    """{norm: count} of the nonzero x with x g x^T <= bound, searched over
    the box |x_i| <= isqrt(bound (g^-1)_ii) that holds all of them."""
    n = len(g)
    ginv = invert_fraction(g)
    box = [math.isqrt(math.floor(bound * ginv[i][i])) for i in range(n)]
    counts: dict = {}
    for x in itertools.product(*(range(-b, b + 1) for b in box)):
        nv = sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n))
        if 0 < nv <= bound:
            counts[nv] = counts.get(nv, 0) + 1
    return {k: counts[k] for k in sorted(counts)}


@st.composite
def large_even_grams(draw):
    """(basis rows, bound): rows of an even lattice with coordinates up to
    5 * 10^8, so Gram entries reach 10^18, and the norm of a short
    combination of them as the bound, so some vector lies on it."""
    r = draw(st.integers(1, 4))
    m = draw(st.integers(r, 4))
    size = draw(st.sampled_from((10, 10**4, 5 * 10**8)))
    rows = []
    for _ in range(r):
        row = draw(st.lists(st.integers(-size, size), min_size=m, max_size=m))
        row[-1] -= sum(row) % 2             # even coordinate sum
        rows.append(row)
    c = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    v = [sum(ci * row[k] for ci, row in zip(c, rows)) for k in range(m)]
    return rows, max(sum(t * t for t in v), 2)


@given(data=large_even_grams())
@settings(max_examples=60, deadline=None)
def test_short_vectors_match_a_box_search_on_large_grams(data):
    rows, bound = data
    g = matmul(rows, list(zip(*rows)))
    assume(det_fraction(g) != 0)
    ginv = invert_fraction(g)
    assume(math.prod(2 * math.isqrt(math.floor(bound * ginv[i][i])) + 1
                     for i in range(len(g))) <= 3000)
    l = lat.Lattice(len(rows[0]), len(rows), tuple(map(tuple, rows)))
    assert lat.short_vectors(l, bound) == box_counts(g, bound)


# --------------------------------------------------------------------------
# the merged-state counter against the depth-first lister

def listed_counts(g, bound):
    """Twice the norm histogram of `_list_int_gram`, which lists one x of
    each +-x pair, after checking each listed norm against x g x^T."""
    counts: dict = {}
    for nv, x in lat._list_int_gram(g, bound):
        gx = [sum(map(mul, row, x)) for row in g]
        assert sum(map(mul, x, gx)) == nv
        counts[nv] = counts.get(nv, 0) + 2
    return counts


def estimated_nodes(g, bound):
    """The Gaussian-heuristic count of the points a depth-first search over
    g visits: at level k, those of norm <= bound in the projected lattice
    of rank n - k and determinant d[n] / d[k]."""
    d, _ = lat._int_gso(g)
    n = len(g)
    return sum(math.pi ** (m / 2) / math.gamma(m / 2 + 1) * bound ** (m / 2)
               / math.sqrt(d[n] / d[n - m]) for m in range(1, n + 1))


@st.composite
def definite_grams(draw):
    """(g, bound): the Gram B B^T of a random square integer B of rank 1-8,
    its entries up to about 10^15, LLL-reduced or not, and a bound up to
    six times its least diagonal entry, drawn so that a search stays
    small."""
    n = draw(st.integers(1, 8))
    size = draw(st.sampled_from((2, 30, 10**4, 11 * 10**6)))
    rows = draw(st.lists(st.lists(st.integers(-size, size), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    g = matmul(rows, list(zip(*rows)))
    assume(lat._int_gso(g)[0][-1] > 0)
    if draw(st.booleans()):
        g = lat._lll_gram(g, lat.DEFAULT_LLL_DELTA)[0]
    bound = min(g[i][i] for i in range(n)) * draw(st.integers(0, 60)) // 10
    assume(estimated_nodes(g, bound) <= 2000)
    return g, bound


@given(data=definite_grams())
@settings(max_examples=300, deadline=None)
@example(data=([[2, 1], [1, 2]], 12))
def test_merged_state_counts_match_the_depth_first_listing(data):
    # the two kernels share no code: the counter merges equal partial
    # states level by level, the lister walks every node depth first
    g, bound = data
    assert lat._enumerate_int_gram(g, bound) == listed_counts(g, bound)


@pytest.mark.parametrize("name,bound", [
    ("D12", 6), ("A10", 6), ("E7*", 4), ("LeechII", 2)])
def test_a_capped_frontier_counts_the_same(monkeypatch, name, bound):
    l = (lat.dual_lattice(lat.build_E7(E8)) if name == "E7*"
         else lat.named_lattice(name))
    g, _, c, _ = lat._reduced(l)
    whole = lat._enumerate_int_gram(g, bound // c)
    # every level is finished in chunks of at most four states
    monkeypatch.setattr(lat, "_FRONTIER_CAP", 4)
    assert lat._enumerate_int_gram(g, bound // c) == whole


def jacobi_r4(top):
    """{N: r_4(N)} for even 2 <= N <= top, r_4(N) = 8 sum_{d | N, 4 !| d} d.
    D4 is the even-sum part of Z^4, and every x in Z^4 of even norm has an
    even sum, so these are D4's counts."""
    sigma = [0] * (top + 1)
    for d in range(1, top + 1):
        if d % 4:
            for m in range(d, top + 1, d):
                sigma[m] += d
    return {n: 8 * sigma[n] for n in range(2, top + 1, 2)}


def test_a_capped_frontier_keeps_its_memory_small(monkeypatch):
    # D4 to norm 300 holds 1,528 states at its widest level; with the cap
    # at 128 states no level holds more, so the count's peak traced memory
    # is a fraction of the uncapped one's
    g, _, c, _ = lat._reduced(lat.build_Dn(4))

    def peak():
        tracemalloc.start()
        try:
            counts = lat._enumerate_int_gram(g, 300 // c)
            return counts, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = peak()
    monkeypatch.setattr(lat, "_FRONTIER_CAP", 128)
    capped, capped_peak = peak()
    assert {c * k: v for k, v in capped.items()} == jacobi_r4(300)
    assert capped == whole and 3 * capped_peak < whole_peak


# D4 to norm 20000 reaches 590,067 distinct states at its last level, more
# than twice the frontier cap, so that level is finished in chunks; the
# count runs in a child process whose address space is limited
D4_CHUNKED = """
import json, resource, sys
from exceptia import lattices as lat
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
counts = lat.short_vectors(lat.build_Dn(4), int(sys.argv[1]))
print(json.dumps(sorted(counts.items())))
"""


@pytest.mark.slow
def test_a_chunked_d4_count_is_jacobis_r4():
    top = 20000
    assert 2 * lat._FRONTIER_CAP <= 590067
    src = Path(lat.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", D4_CHUNKED, str(top)],
                          capture_output=True, text=True, timeout=900,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert dict(json.loads(proc.stdout)) == jacobi_r4(top)


def brute_force_minimum(gram):
    """(least nonzero x G x^T, number of x reaching it) over the box
    |x_i| <= sqrt(c (G^-1)_ii), c the least diagonal entry; the box holds
    every x of norm at most c."""
    n = len(gram)
    ginv = invert_fraction(gram)
    cap = min(gram[i][i] for i in range(n))
    bounds = [math.isqrt(math.floor(cap * ginv[i][i])) for i in range(n)]
    scale = math.lcm(*(v.denominator for row in gram for v in row))
    g = [[int(v * scale) for v in row] for row in gram]
    best, count = cap * scale, 0

    def walk(k, norm, y):        # y = sum of x_j g_j over the fixed j < k
        nonlocal best, count
        for v in range(-bounds[k], bounds[k] + 1):
            nv = norm + v * (2 * y[k] + v * g[k][k])
            if k + 1 < n:
                walk(k + 1, nv, [a + v * b for a, b in zip(y, g[k])])
            elif 0 < nv < best:
                best, count = nv, 1
            elif nv == best:
                count += 1

    walk(0, 0, [0] * n)
    return Fraction(best, scale), count


# an integer basis whose LLL-reduced Gram has least diagonal entry 9 while
# the lattice holds a vector of norm 8
SKEW = ((4, -2, 4, -2), (-2, -2, 2, -2), (-6, 4, 1, 2), (-2, 4, -3, 4))


@pytest.mark.parametrize("build,expected", [
    (lambda: lat.dual_lattice(lat.build_An(2)), (Fraction(2, 3), 6)),
    (lambda: E8, (2, 240)),
    (lambda: lat.Lattice(8, 8, tuple(hc.icosian_to_r8_raw(b)
                                     for b in hc.icosian_basis())),
     (Fraction(1, 2), 240)),
    (lambda: lat.Lattice(4, 4, SKEW), (8, 2)),
], ids=["dual-A2", "E8", "flat-icosian-E8", "skew-Z4-sublattice"])
def test_minimal_norm_matches_brute_force(build, expected):
    lattice = build()
    assert lat._minimum(lattice) == brute_force_minimum(lattice.gram) == \
        expected


def identity_lattice(n):
    return lat.Lattice(n, n, tuple(tuple(int(i == j) for j in range(n))
                                   for i in range(n)))


F = Fraction
# the weight lattices and Z^5 through norm 3 (SPLAG ch. 4, sections 6.6,
# 7.3, 8.3 and 8.4): odd or rational, so counted by scaling their Grams
ODD_AND_RATIONAL = {
    "E7*": (lambda: lat.dual_lattice(lat.build_E7(E8)), {F(3, 2): 56, 2: 126}),
    "E6*": (lambda: lat.dual_lattice(lat.build_E6(E8)), {F(4, 3): 54, 2: 72}),
    "A2*": (lambda: lat.dual_lattice(lat.build_An(2)),
            {F(2, 3): 6, 2: 6, F(8, 3): 6}),
    "D4*": (lambda: lat.dual_lattice(lat.build_Dn(4)), {1: 24, 2: 24, 3: 96}),
    "Z5": (lambda: identity_lattice(5), {1: 10, 2: 40, 3: 80}),
}


@pytest.mark.parametrize("name", list(ODD_AND_RATIONAL))
def test_odd_and_rational_lattices_are_counted(name):
    build, expected = ODD_AND_RATIONAL[name]
    l = build()
    assert not lat.is_even(l)
    assert lat.short_vectors(l, 3) == enumerated(l, 3) == expected
    mn = min(expected)
    assert lat._minimum(l) == brute_force_minimum(l.gram) == \
        (mn, expected[mn])
    info = lat.lattice_info(l)
    assert (info["min_norm"], info["kissing"]) == (mn, expected[mn])
    listed = lat.short_vector_list(l, 2)
    assert all(l.form_dot(v, v) == nrm for nrm, v in listed)
    assert len(listed) == sum(c for k, c in expected.items() if k <= 2)


def test_z4_counts_follow_jacobi():
    # Jacobi's four-square theorem: r_4(k) = 8 sigma(k) - 32 sigma(k / 4)
    def sigma(k):
        return sum(d for d in range(1, k + 1) if k % d == 0)
    jacobi = {k: 8 * sigma(k) - (32 * sigma(k // 4) if k % 4 == 0 else 0)
              for k in range(1, 41)}
    assert lat.short_vectors(scrambled(identity_lattice(4), 12, 4), 40) == \
        jacobi


def test_odd_unimodular_d12plus_matches_its_theta_series():
    # D12+ = D12 with the glue (1/2, ..., 1/2): the HNF of 2 D12 and the
    # all-ones row, halved. As an odd unimodular lattice of rank 12 its
    # theta series is theta3^12 - 24 theta3^4 Delta8 in q^norm (SPLAG ch. 7
    # section 7), with Delta8 = q prod (1 - q^(2m-1))^8 (1 - q^(4m))^8
    top = 8
    h, _ = hnf_transform([[2 * int(v) for v in r]
                          for r in lat.build_Dn(12).basis] + [[1] * 12])
    d12plus = lat.Lattice(12, 12, tuple(tuple(F(v, 2) for v in r)
                                        for r in h[:12]))
    assert lat.is_unimodular(d12plus) and not lat.is_even(d12plus)

    def times(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1))
                for k in range(top + 1)]

    def power(a, n):
        out = [1] + [0] * top
        for _ in range(n):
            out = times(out, a)
        return out

    theta3 = power_counts(squares(top), 1, top)
    delta8 = [0, 1] + [0] * (top - 1)
    for m in range(1, top + 1):
        for e in (2 * m - 1, 4 * m):
            if e <= top:
                factor = [1] + [0] * top
                factor[e] = -1
                delta8 = times(delta8, power(factor, 8))
    theta = [a - 24 * b for a, b in zip(power(theta3, 12),
                                        times(power(theta3, 4), delta8))]
    assert theta[2:] == [264, 2048, 7944, 24576, 64416, 135168, 253704]
    counts = lat.short_vectors(d12plus, top)
    assert counts == {k: t for k, t in enumerate(theta) if k and t}


def test_rational_counts_are_scale_and_basis_invariant():
    # 3 A2* is integral (A2 has determinant 3): its counts are A2*'s with
    # every norm times 9; and a scrambled basis of E7* counts the same
    a2d = lat.dual_lattice(lat.build_An(2))
    tripled = scaled_basis(a2d, 3)
    assert lat.is_integral(tripled)
    assert lat.short_vectors(tripled, 27) == {
        9 * k: v for k, v in lat.short_vectors(a2d, 3).items()}
    e7d = lat.dual_lattice(lat.build_E7(E8))
    assert lat.short_vectors(scrambled(e7d, 24, 2), 3) == \
        lat.short_vectors(e7d, 3)


# (builder, bound): even unimodular inputs, which take the modular forms
# from any basis, and others, which are reduced, split and enumerated
INVARIANCE_CASES = {
    "E8": (lambda: E8, 6),
    "E8+E8": (lambda: lat.direct_sum(E8, E8), 4),
    "D16+": (lambda: lat.build_D16plus(), 4),
    "E8x3": (lambda: scaled_basis(E8, 3), 36),
    "lorentzian-E8": (lambda: e8_embeddings()[2], 4),
    "E7": (lambda: lat.build_E7(E8), 4),
    "A4": (lambda: lat.build_An(4), 6),
    "E8+A2": (lambda: lat.direct_sum(E8, lat.build_An(2)), 4),
    "A2*": (lambda: lat.dual_lattice(lat.build_An(2)), 3),
    "Z3": (lambda: identity_lattice(3), 5),
}


@given(name=st.sampled_from(sorted(INVARIANCE_CASES)),
       ops=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                              st.sampled_from((-2, -1, 1, 2))), max_size=30))
@settings(max_examples=60, deadline=None)
def test_counts_are_invariant_under_unimodular_scrambles(name, ops):
    # the counts and the minimum belong to the lattice, not to its basis,
    # whichever route the primitive Gram of the scramble takes
    build, bound = INVARIANCE_CASES[name]
    l = build()
    rows = [list(r) for r in l.basis]
    n = len(rows)
    for i, j, c in ops:
        if i % n != j % n:
            rows[i % n] = [a + c * b for a, b in zip(rows[i % n], rows[j % n])]
    m = lat.Lattice(l.ambient_dim, n, tuple(map(tuple, rows)), l.signature)
    assert lat.same_lattice(m, l)
    assert lat.short_vectors(m, bound) == lat.short_vectors(l, bound)
    assert lat._minimum(m) == lat._minimum(l)


def test_rescale_to_min_norm():
    # factor 1/9 takes the coordinates of 3 E8 back to E8's
    tripled = lat.Lattice(8, 8, tuple(tuple(3 * v for v in r)
                                      for r in E8.basis))
    assert lat._rescale_to_min_norm(tripled, 2, "probe") == E8
    # the rescaled rows keep the input's form: LeechII (even unimodular,
    # minimum 4) comes back unchanged, and E8 doubled with a zero timelike
    # coordinate comes back as E8 in the Lorentzian ambient
    leech = lat.leech_from_ii26()
    assert lat._rescale_to_min_norm(leech, 4, "probe") == leech
    doubled, lorentzian = (lat.Lattice(9, 8, tuple(
        (0,) + tuple(k * v for v in r) for r in E8.basis),
        signature=lat.LORENTZIAN) for k in (2, 1))
    assert lat._rescale_to_min_norm(doubled, 2, "probe") == lorentzian
    # E8 with each coordinate pair (a, b) sent to ((a+b)/2, (a-b)/2): its
    # Gram is E8's halved, so factor 2 gives E8's Gram back, but through no
    # rational coordinates
    half = Fraction(1, 2)
    halved = lat.Lattice(8, 8, tuple(
        tuple(x for a, b in zip(r[::2], r[1::2])
              for x in ((a + b) * half, (a - b) * half)) for r in E8.basis))
    assert halved.gram == tuple(tuple(v / 2 for v in r) for r in E8.gram)
    # A2 scaled by 4 has determinant 4^2 * 3, though 4 is a square
    a2 = lat.build_An(2)
    for raw, target, message, factor, m in (
        (halved, 2, "norm factor 2 is not a rational square, so the rescaled "
         "lattice has no rational coordinates", 2, 1),
        (a2, 8, "rescaling the Gram by 4 (minimal norm 2 -> 8) does not give "
         "an even unimodular matrix (determinant after rescaling: 48)", 4, 2),
    ):
        with pytest.raises(lat.LatticeConstructionError) as err:
            lat._rescale_to_min_norm(raw, target, "probe")
        assert str(err.value) == f"probe: {message}; raw Gram attached"
        assert (err.value.factor, err.value.min_norm) == (factor, m)
        assert err.value.raw_gram == raw.gram


# --------------------------------------------------------------------------
# reduction

def test_lll_preserves_the_lattice():
    for l in (lat.build_An(4), lat.build_E6(E8), E8):
        r = lat.lll_reduce(l)
        assert lat.same_lattice(r, l)
        assert lat.gram_determinant(r) == lat.gram_determinant(l)
        assert lat.short_vectors(r, 4) == lat.short_vectors(l, 4)


def test_lll_delta_validation():
    with pytest.raises(lat.LatticeError):
        lat.lll_reduce(E8, delta=Fraction(1, 4))
    with pytest.raises(lat.LatticeError):
        lat.lll_reduce(E8, delta=Fraction(101, 100))


def test_lll_improves_a_skewed_basis():
    skew = lat.Lattice(2, 2, ((1, 0), (10**6, 1)))
    r = lat.lll_reduce(skew)
    assert lat.same_lattice(r, skew)
    assert max(r.gram[i][i] for i in range(2)) <= 2


def fraction_lll(g0, delta):
    """Rational LLL on a Gram matrix, the reference for `lat._lll_gram`:
    (g, u, mu, bs) with g = u g0 u^T and (mu, bs) its Gram-Schmidt data."""
    n = len(g0)
    g = [[Fraction(v) for v in row] for row in g0]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    mu = [[Fraction(0)] * n for _ in range(n)]
    bs = [Fraction(0)] * n
    for i in range(n):
        bi = g[i][i]
        for j in range(i):
            num = g[i][j] - sum(mu[i][t] * mu[j][t] * bs[t] for t in range(j))
            mu[i][j] = num / bs[j]
            bi -= mu[i][j] * mu[i][j] * bs[j]
        bs[i] = bi
    half = Fraction(1, 2)

    def red(k, l):
        mkl = mu[k][l]
        if abs(mkl) > half:
            # the nearest integer, ties away from zero
            q = math.floor(abs(mkl) + half) * (1 if mkl > 0 else -1)
            u[k] = [a - q * b for a, b in zip(u[k], u[l])]
            g[k] = [a - q * b for a, b in zip(g[k], g[l])]
            for row in g:
                row[k] -= q * row[l]
            mu[k][l] -= q
            for t in range(l):
                mu[k][t] -= q * mu[l][t]

    k = 1
    while k < n:
        red(k, k - 1)
        if bs[k] < (delta - mu[k][k - 1] ** 2) * bs[k - 1]:
            u[k - 1], u[k] = u[k], u[k - 1]
            g[k - 1], g[k] = g[k], g[k - 1]
            for row in g:
                row[k - 1], row[k] = row[k], row[k - 1]
            m = mu[k][k - 1]
            big = bs[k] + m * m * bs[k - 1]
            mu[k][k - 1] = m * bs[k - 1] / big
            bs[k] = bs[k - 1] * bs[k] / big
            bs[k - 1] = big
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return g, u, mu, bs


@st.composite
def int_bases(draw, max_rank=8):
    r = draw(st.integers(1, max_rank))
    m = draw(st.integers(r, max_rank))
    size = draw(st.sampled_from((3, 40, 10**6)))
    row = st.lists(st.integers(-size, size), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=r, max_size=r))


@given(rows=int_bases(), den=st.sampled_from((1, 2, 3, 10**4)),
       delta=st.sampled_from((lat.DEFAULT_LLL_DELTA, Fraction(3, 4),
                              Fraction(26, 100))))
# mu = 3/2 and mu = -3/2: size reduction rounds both away from zero
@example(rows=[[1, 1, 0], [2, 1, 1]], den=1, delta=lat.DEFAULT_LLL_DELTA)
@example(rows=[[1, 1, 0], [-2, -1, 1]], den=2, delta=lat.DEFAULT_LLL_DELTA)
# the Lovasz test at equality, |b*_1|^2 = (3/4 - 1/4) |b*_0|^2: no swap
@example(rows=[[2, 0, 0], [1, 1, 1]], den=1, delta=Fraction(3, 4))
@settings(max_examples=80, deadline=None)
def test_lll_gram_matches_the_fraction_oracle(rows, den, delta):
    g = matmul(rows, list(zip(*rows)))
    assume(det_fraction(g) != 0)
    g_ref, u_ref, mu, bs = fraction_lll(g, delta)
    g_new, u_new, (d, lam) = lat._lll_gram(g, delta)
    assert (g_new, u_new) == (g_ref, u_ref)
    # the enumerator's windows rest on the fraction-free data of the
    # reduced Gram, which LLL keeps exact through every step:
    # lam[i][j] = d[j+1] mu[i][j] and d[i+1] = d[i] |b*_i|^2
    n = len(g)
    assert (d, lam) == lat._int_gso(g_new)
    assert len(d) == n + 1 and d[0] == 1
    assert all(d[i + 1] == d[i] * bs[i] for i in range(n))
    assert all(lam[i][j] == d[j + 1] * mu[i][j]
               for i in range(n) for j in range(i))
    # a rational basis through lll_reduce takes the same decisions
    basis = [[Fraction(v, den) for v in r] for r in rows]
    _, u_rat, _, _ = fraction_lll(matmul(basis, list(zip(*basis))), delta)
    reduced = lat.lll_reduce(lat.Lattice(len(rows[0]), n, basis), delta)
    assert reduced.basis == tuple(map(tuple, matmul(u_rat, basis)))


@pytest.mark.parametrize("build", [
    lat.leech_from_ii26, lambda: scrambled(lat.build_D16plus(), 40, 5),
], ids=["LeechII", "scrambled-D16+"])
def test_lll_gram_reads_back_the_reduced_gram(build):
    # g is read back from the Gram-Schmidt data, not formed from u
    g0 = [list(r) for r in build().prim_gram]
    g, u, gso = lat._lll_gram(g0, lat.DEFAULT_LLL_DELTA)
    assert g == matmul(matmul(u, g0), [list(c) for c in zip(*u)])
    assert gso == lat._int_gso(g)
    assert abs(det_fraction(u)) == 1
    # started from the caller's Gram-Schmidt data, LLL does the same
    assert lat._lll_gram(g0, lat.DEFAULT_LLL_DELTA, lat._int_gso(g0)) == \
        (g, u, gso)


def sylvester(g):
    """Positive definite: every leading principal minor is positive."""
    return all(det_fraction([row[:k] for row in g[:k]]) > 0
               for k in range(1, len(g) + 1))


@given(kind=st.sampled_from(("definite", "semidefinite", "indefinite")),
       rows=int_bases(max_rank=5), den=st.sampled_from((1, 2, 7)),
       ops=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(-3, 3)), max_size=12))
@settings(max_examples=80, deadline=None)
def test_positive_definite_agrees_with_sylvester(kind, rows, den, ops):
    # Lorentzian rows (x0, x1, y): the y rows span a spacelike space that
    # is orthogonal to one extra row (x0, x1, 0), spacelike (0, 1), null
    # (1, 1) or timelike (1, 0); row operations then hide the structure
    head = {"definite": [0, 1], "semidefinite": [1, 1],
            "indefinite": [1, 0]}[kind]
    m = len(rows[0])
    basis = [[Fraction(v, den) for v in r]
             for r in [head + [0] * m] + [[0, 0] + r for r in rows]]
    assume(det_fraction(matmul(rows, list(zip(*rows)))) != 0)
    n = len(basis)
    for i, j, c in ops:
        if i % n != j % n:
            basis[i % n] = [a + c * b for a, b in zip(basis[i % n],
                                                      basis[j % n])]
    l = lat.Lattice(m + 2, n, tuple(map(tuple, basis)),
                    signature=lat.LORENTZIAN)
    assert lat.is_positive_definite(l) == sylvester(l.gram) == (
        kind == "definite")


# --------------------------------------------------------------------------
# basis changes against the Fraction route

def reflected(l, v):
    """l under the rational reflection x -> x - 2 (x.v / v.v) v: the same
    Gram, with denominators v.v in the basis."""
    vv = sum(a * a for a in v)
    rows = [tuple(Fraction(x) - Fraction(2 * sum(map(mul, r, v)), vv) * a
                  for x, a in zip(r, v)) for r in l.basis]
    return lat.Lattice(l.ambient_dim, l.rank, tuple(rows))


def ii_9_1():
    """II_{9,1}: even-sum vectors of Z^10 or of (Z + 1/2)^10, Lorentzian,
    scrambled."""
    doubled = [[-1] + [1] * 9, [0, 2, 2] + [0] * 7]
    for i in range(1, 9):
        r = [0] * 10
        r[i], r[i + 1] = 2, -2
        doubled.append(r)
    halved = tuple(tuple(Fraction(v, 2) for v in r) for r in doubled)
    l = scrambled(lat.Lattice(10, 10, halved), 30, 7)
    return lat.Lattice(10, 10, l.basis, signature=lat.LORENTZIAN)


def fraction_vector_list(l, bound):
    """`short_vector_list` with every coordinate computed in Fractions."""
    gr, u, c, _ = lat._reduced(l)
    found = lat._list_int_gram(gr, bound // c)
    rows = fraction_matmul(u, l.basis)
    out = []
    for nrm, x in found:
        v = tuple(sum((a * r[k] for a, r in zip(x, rows)), Fraction(0))
                  for k in range(l.ambient_dim))
        out += [(c * nrm, v), (c * nrm, tuple(-a for a in v))]
    return sorted(out)


BASIS_CHANGE_CASES = {
    "scrambled-D16+": (lambda: scrambled(lat.build_D16plus(), 40, 5), 2),
    "E8-times-10^8": (lambda: lat.Lattice(8, 8, tuple(
        tuple(v * 10**8 for v in r) for r in scrambled(E8, 32, 2).basis)),
        2 * 10**16),
    "rational-A7": (lambda: reflected(scrambled(lat.build_An(7), 24, 4),
                                      range(1, 9)), 4),
    "lorentzian-E8": (lambda: e8_embeddings()[2], 2),
}


@pytest.mark.parametrize("name", list(BASIS_CHANGE_CASES))
def test_basis_changes_match_the_fraction_route(name):
    build, bound = BASIS_CHANGE_CASES[name]
    l = build()
    dual = fraction_matmul(fraction_inverse(l.gram), l.basis)
    assert lat.dual_lattice(l) == lat.Lattice(
        l.ambient_dim, l.rank, tuple(map(tuple, dual)), signature=l.signature)
    _, u, _, _ = fraction_lll(l.gram, lat.DEFAULT_LLL_DELTA)
    assert lat.lll_reduce(l).basis == tuple(map(tuple, fraction_matmul(u, l.basis)))
    assert lat.short_vector_list(l, bound) == fraction_vector_list(l, bound)


def test_dual_of_a_lorentzian_span_matches_the_fraction_route():
    l = ii_9_1()
    assert lat.gram_determinant(l) == -1
    dual = fraction_matmul(fraction_inverse(l.gram), l.basis)
    assert lat.dual_lattice(l) == lat.Lattice(
        10, 10, tuple(map(tuple, dual)), signature=lat.LORENTZIAN)


def fraction_gram(rows, signature):
    """The Gram of rational rows, Fraction by Fraction."""
    sign = -2 if signature == lat.LORENTZIAN else 0
    return [[sum((x * y for x, y in zip(a, b)), Fraction(0)) + sign * a[0] * b[0]
             for b in rows] for a in rows]


@st.composite
def rational_bases(draw):
    """(rows, signature): independent rational rows with mixed
    denominators. A Lorentzian basis spans a positive-definite space: a
    spacelike head row (0, 1, 0, ...) orthogonal to spacelike rows
    (0, 0, r), scrambled by row operations and then moved off the x0 = 0
    plane by a rational boost, which keeps the form."""
    r = draw(st.integers(1, 5))
    m = draw(st.integers(r, 6))
    size = draw(st.sampled_from((3, 40, 10**6)))
    entry = st.builds(Fraction, st.integers(-size, size),
                      st.sampled_from((1, 2, 3, 7, 10**4)))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=r, max_size=r))
    assume(det_fraction(fraction_gram(rows, lat.EUCLIDEAN)) != 0)
    if not draw(st.booleans()):
        return rows, lat.EUCLIDEAN
    rows = [[Fraction(0), Fraction(1)] + [Fraction(0)] * m] + [
        [Fraction(0), Fraction(0)] + row for row in rows]
    n = len(rows)
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.integers(-3, 3)), max_size=8))
    for i, j, c in ops:
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    t = draw(st.sampled_from((Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))))
    ch, sh = (1 + t * t) / (1 - t * t), 2 * t / (1 - t * t)
    rows = [[ch * x0 + sh * x1, sh * x0 + ch * x1] + rest
            for x0, x1, *rest in rows]
    return rows, lat.LORENTZIAN


@given(rational_bases())
@settings(max_examples=80, deadline=None)
def test_integer_path_matches_the_fraction_route(case):
    # construction, dual, LLL and direct sum each hand integer rows over
    # one denominator to the constructor; the reference computes every
    # entry as a Fraction
    rows, sig = case
    n, m = len(rows), len(rows[0])
    basis = tuple(map(tuple, rows))
    l = lat.Lattice(m, n, basis, signature=sig)
    gram = fraction_gram(rows, sig)
    assert l.basis == basis
    assert l.gram == tuple(map(tuple, gram))
    assert all(type(v) is Fraction for g in (l.basis, l.gram)
               for row in g for v in row)
    assert lat.is_positive_definite(l)
    dual = lat.dual_lattice(l)
    ref = tuple(map(tuple, fraction_matmul(invert_fraction(gram), rows)))
    assert dual.basis == ref
    assert dual.gram == tuple(map(tuple, fraction_gram(ref, sig)))
    assert dual == lat.Lattice(m, n, ref, signature=sig)
    assert hash(dual) == hash(lat.Lattice(m, n, ref, signature=sig))
    _, u, _, _ = fraction_lll(gram, lat.DEFAULT_LLL_DELTA)
    red = lat.lll_reduce(l)
    ref = tuple(map(tuple, fraction_matmul(u, rows)))
    assert red.basis == ref
    assert red.gram == tuple(map(tuple, fraction_gram(ref, sig)))
    if sig == lat.EUCLIDEAN:
        pad = (Fraction(0),) * 8
        s = lat.direct_sum(l, E8)
        assert s.basis == tuple(r + pad for r in basis) + tuple(
            pad[:m] + r for r in E8.basis)
        assert s.gram == tuple(map(tuple, fraction_gram(s.basis, sig)))


@pytest.mark.parametrize("rows, den, sig", [
    (((2, 1, 0), (0, 3, -1)), 3, lat.EUCLIDEAN),
    (((3, 1, 0), (1, 2, 4)), 2, lat.LORENTZIAN),
], ids=["euclidean", "lorentzian"])
def test_equality_ignores_the_denominator_handed_in(rows, den, sig):
    m, n = len(rows[0]), len(rows)
    same = [
        lat.Lattice._from_ints(m, n, [[2 * v for v in r] for r in rows],
                               2 * den, signature=sig),
        lat.Lattice._from_ints(m, n, rows, den, signature=sig),
        lat.Lattice(m, n, tuple(tuple(Fraction(v, den) for v in r)
                                for r in rows), signature=sig),
    ]
    assert same[0] == same[1] == same[2]
    assert len({hash(l) for l in same}) == 1
    assert same[0].basis == same[1].basis == same[2].basis
    assert same[0].gram == same[1].gram == same[2].gram
    assert same[0].gram == tuple(map(tuple, fraction_gram(same[2].basis, sig)))


def test_refusals_keep_their_messages():
    with pytest.raises(lat.LatticeError, match="^basis rows are linearly "
                                              "dependent$"):
        lat.Lattice(3, 2, ((1, Fraction(1, 2), 0), (2, 1, 0)),
                    signature=lat.LORENTZIAN)
    # Lorentzian spans that are not positive definite: even and indefinite
    # (LLL refuses it), a lightlike row whose Gram is zero, and a timelike
    # row whose Gram is odd
    pd = "needs a positive-definite Gram"
    for rows in (((1, 1, 0), (0, 1, 1)), ((1, 1),), ((1, 0),)):
        l = lat.Lattice(len(rows[0]), len(rows), rows,
                        signature=lat.LORENTZIAN)
        assert not lat.is_positive_definite(l)
        for f in (lat.short_vectors, lat.short_vector_list):
            with pytest.raises(lat.LatticeError, match=f"^{f.__name__} {pd}$"):
                f(l, 2)
        assert lat.lattice_info(l)["min_norm"] is None
        # theta refuses at every order, 0 included
        msg = (f"theta_series {pd}" if lat.is_even(l)
               else "theta_series is defined for even lattices")
        for order in (0, 1):
            with pytest.raises(lat.LatticeError, match=f"^{msg}$"):
                lat.theta_series(l, order)
    for order in (0, 1):
        with pytest.raises(lat.LatticeError, match="^theta_series is defined "
                                                  "for even lattices$"):
            lat.theta_series(lat.Lattice(1, 1, ((1,),)), order)
    # the rank is checked before the rows are counted
    for head in ("-1 1 euclidean", "0 1 euclidean", "2 1 euclidean\n1\n1"):
        with pytest.raises(lat.LatticeError, match="^rank must satisfy "
                                                  "1 <= rank <= ambient_dim$"):
            lat.parse_lattice(head)


@pytest.mark.parametrize("build, message", [
    (lambda: lat.direct_sum(E8), "direct_sum needs at least two lattices"),
    (lambda: lat.direct_sum(E8, lat.Lattice(2, 1, ((1, 1),),
                                            signature=lat.LORENTZIAN)),
     "direct_sum is defined for euclidean lattices"),
    (lambda: lat.build_E7(lat.build_Dn(8)),
     "build_E7 expects the rank-8 even unimodular lattice as input"),
    (lambda: lat.build_E6(lat.build_Dn(8)),
     "build_E6 expects the rank-8 even unimodular lattice as input"),
    (lambda: lat.Lattice(1, 1, ((1,),), signature="x"),
     "unknown signature 'x'"),
    (lambda: lat.sublattice_of(lat.build_Dn(2), lat.build_An(2)),
     "ambient_dim differs between the lattices"),
    (lambda: lat.same_lattice(lat.build_An(2), lat.build_Dn(2)),
     "ambient_dim differs between the lattices"),
    (lambda: lat.sublattice_of(lat.Lattice(2, 1, ((1, 0),)), lat.Lattice(
        2, 1, ((1, 0),), signature=lat.LORENTZIAN)),
     "signature differs between the lattices"),
    (lambda: lat.same_lattice(lat.Lattice(2, 1, ((1, 0),)), lat.Lattice(
        2, 1, ((1, 0),), signature=lat.LORENTZIAN)),
     "signature differs between the lattices"),
], ids=["one summand", "lorentzian summand", "E7 of D8", "E6 of D8",
        "signature x", "sublattice across ambients",
        "same lattice across ambients", "sublattice across signatures",
        "same lattice across signatures"])
def test_builder_and_value_refusals_keep_their_messages(build, message):
    with pytest.raises(lat.LatticeError) as info:
        build()
    assert str(info.value) == message


def fraction_leech_from_ii26():
    """The II_{25,1} construction of the Leech lattice with every coordinate
    a Fraction and w's coefficients from a Fraction inverse: the reference
    for `lat.leech_from_ii26`, which keeps doubled coordinates in ints."""
    half, one = Fraction(1, 2), Fraction(1)
    basis = [[-half] + [half] * 25, [0, one, one] + [0] * 23]
    for i in range(1, 25):
        r = [Fraction(0)] * 26
        r[i], r[i + 1] = one, -one
        basis.append(r)
    w = [Fraction(70), Fraction(0)] + [Fraction(k) for k in range(1, 25)]
    col = fraction_matmul(basis, [[-x] for x in w[:1]] + [[x] for x in w[1:]])
    assert all(c.denominator == 1 for (c,) in col)
    kern = left_kernel([[int(c)] for (c,) in col])
    assert len(kern) == 25
    (yw,) = fraction_matmul([w], fraction_inverse(basis))
    assert all(c.denominator == 1 for c in yw)
    yw = [int(c) for c in yw]
    z = solve_left(kern, yw)
    h, u = hnf_transform([[v] for v in z])
    assert h[0][0] == 1
    completed = [list(c) for c in zip(*hnf_transform(u)[1])]
    srows = fraction_matmul(completed, kern)
    assert srows[0] == yw
    return tuple(map(tuple, fraction_matmul(srows[1:], basis)))


def fraction_E7_E6(e8):
    """E7 and E6 cut out of e8 with every coordinate a Fraction: the root
    from `short_vector_list`, v2 by `form_dot`, and the kernel of the
    pairings cleared to integers. The reference for `lat.build_E7` and
    `lat.build_E6`, which pair and list in integer rows."""
    roots = [v for _, v in lat.short_vector_list(e8, 2)]
    v1 = roots[0]
    v2 = next(r for r in roots if e8.form_dot(v1, r) == -1)
    out = []
    for conditions in ([v1], [v1, v2]):
        pairings = [[e8.form_dot(b, v) for v in conditions] for b in e8.basis]
        kern = left_kernel(clear_denominators(pairings)[0])
        out.append(lat.Lattice(
            e8.ambient_dim, len(kern),
            tuple(map(tuple, fraction_matmul(kern, e8.basis))),
            signature=e8.signature))
    return out


def test_leech_from_ii26_matches_the_fraction_construction():
    ref = fraction_leech_from_ii26()
    leech = lat.leech_from_ii26()
    assert leech.basis == ref
    assert leech.gram == tuple(map(tuple, fraction_gram(ref, lat.LORENTZIAN)))
    assert leech == lat.Lattice(26, 24, ref, signature=lat.LORENTZIAN)


# --------------------------------------------------------------------------
# the Lorentzian side

def ii_parity_rule(vector):
    """The textbook description of II_{n-1,1}: all coordinates integers or
    all half-integers, with an even sum."""
    doubled = [2 * Fraction(c) for c in vector]
    if any(d.denominator != 1 for d in doubled):
        return False
    return (len({d % 2 for d in doubled}) == 1
            and sum(doubled) % 4 == 0)


def random_ii_candidate(rng, dim):
    """A vector of one of four kinds: integers, half-integers, a mix of the
    two, or one with a quarter; the first two are members half the time."""
    kind = rng.randrange(4)
    ints = [rng.randint(-3, 3) for _ in range(dim)]
    if kind == 0:
        return kind, ints
    halves = [Fraction(2 * v + 1, 2) for v in ints]
    if kind == 1:
        return kind, halves
    i = rng.randrange(dim)
    if kind == 2:
        return kind, ints[:i] + [halves[i]] + ints[i + 1:]
    return kind, ints[:i] + [Fraction(4 * ints[i] + 1, 4)] + ints[i + 1:]


@pytest.mark.parametrize("dim", [10, 18, 26])
def test_ii_lattice_is_even_unimodular_and_holds_the_parity_classes(dim):
    ii = lat.ii_lattice(dim)
    assert ii.signature == lat.LORENTZIAN
    assert ii.rank == ii.ambient_dim == dim
    assert lat.is_even(ii)
    assert abs(lat.gram_determinant(ii)) == 1
    rng = random.Random(dim)
    seen = set()
    for _ in range(60):
        kind, v = random_ii_candidate(rng, dim)
        member = lat.lattice_contains(ii, v)
        assert member == ii_parity_rule(v), v
        assert lat.ii_member(v) == member
        seen.add((kind, member))
    # both classes occur as members and as non-members, and the mixed and
    # quartered vectors never lie in the lattice
    assert seen == {(0, True), (0, False), (1, True), (1, False),
                    (2, False), (3, False)}


def test_lorentzian_vector_classes():
    ii = lat.ii_lattice(10)
    v = (1, 2, 3) + (0,) * 7
    h = (Fraction(1, 2),) * 9 + (Fraction(-1, 2),)
    assert lat.lattice_contains(ii, v)
    assert lat.lattice_contains(ii, h)
    # a sum of the two classes falls in the half-integer class
    assert lat.lattice_contains(ii, [a + b for a, b in zip(v, h)])


def test_lorentzian_vector_rejects_bad_classes():
    ii = lat.ii_lattice(10)
    assert not lat.lattice_contains(ii, (Fraction(1, 2),) + (0,) * 9)
    assert not lat.lattice_contains(ii, (Fraction(1, 4),) + (0,) * 9)
    # odd coordinate sum
    assert not lat.lattice_contains(ii, (1,) + (0,) * 9)


def test_ii_membership():
    assert lat.ii_member((2, 1, 1) + (0,) * 7)
    assert lat.ii_member((1, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    assert not lat.ii_member((1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    assert not lat.ii_member((Fraction(1, 2),) * 10)       # sum 5, odd
    assert not lat.ii_member((Fraction(1, 2),) + (0,) * 9)  # mixed classes
    with pytest.raises(lat.LatticeError):
        lat.ii_member((1, 2, 3))


def test_weyl_vectors_and_their_norms():
    by_dim = {10: -580, 18: -620, 26: 0}
    for dim, norm in by_dim.items():
        w = lat.weyl_vector(dim)
        assert len(w) == dim
        assert lat.ii_member(w)
        assert lat.ii_lattice(dim).form_dot(w, w) == norm
    with pytest.raises(lat.LatticeError):
        lat.weyl_vector(12)


def vinberg_simple_roots(dim):
    """The simple roots of II_{dim-1,1}, dim 10 or 18, as coordinates
    (t; x), that Vinberg's algorithm accepts from the controlling vector
    (1; 0, ..., 0): those of D_{dim-1}, e_i - e_(i+1) and -e_1 - e_2, then
    (1/2; -1/2, 1/2^8) in dim 10, and (1; 0^14, 1, 1, 1) and (3/2; 1/2^17)
    in dim 18 (Vinberg, Math. USSR Sb. 16, 1972; SPLAG ch. 27)."""
    n, half = dim - 1, Fraction(1, 2)
    roots = [[0] * i + [1, -1] + [0] * (n - i - 1) for i in range(1, n)]
    roots.append([0, -1, -1] + [0] * (n - 2))
    if dim == 10:
        roots.append([half, -half] + [half] * 8)
    else:
        roots += [[1] + [0] * 14 + [1, 1, 1], [3 * half] + [half] * 17]
    return roots


@pytest.mark.parametrize("dim", [
    # (28; 0, 1, ..., 8) meets the tenth root at 4; the vector that meets
    # all ten at -1 is (38; 0, 1, ..., 8), of norm -1240
    pytest.param(10, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="weyl_vector(10) has head 28, not 38")),
    18])
def test_weyl_vector_meets_vinberg_simple_roots_at_minus_one(dim):
    ii = lat.ii_lattice(dim)
    roots = vinberg_simple_roots(dim)
    assert len(roots) == {10: 10, 18: 19}[dim]
    for a, b in itertools.combinations(roots, 2):
        assert ii.form_dot(a, b) <= 0
    for r in roots:
        assert ii.form_dot(r, r) == 2
        assert lat.lattice_contains(ii, r)
        assert lat.is_fundamental_root(r, dim)


def test_fundamental_roots_next_to_the_weyl_vector():
    # spatial coordinate swaps (0, ..., 1, -1, ...) are simple roots
    for dim in (10, 18, 26):
        coords = [0] * dim
        coords[1], coords[2] = 1, -1
        assert lat.is_fundamental_root(coords, dim)
        coords2 = [0] * dim
        coords2[1], coords2[2] = 1, 1
        assert not lat.is_fundamental_root(coords2, dim)


def test_fundamental_root_dimension_gate():
    r = [0] * 10
    r[1], r[2] = 1, -1
    with pytest.raises(lat.LatticeError,
                       match="^vector has 10 coordinates, expected 18$"):
        lat.is_fundamental_root(r, 18)
    # the dimension is refused before the vector's length is compared
    with pytest.raises(lat.LatticeError, match="^unsupported dimension 12"):
        lat.is_fundamental_root(r, 12)


@pytest.mark.parametrize("dim, r", [
    (10, (Fraction(1, 2),) + (0,) * 9),               # mixed classes
    (10, (1,) + (0,) * 9),                            # odd sum
    (18, (Fraction(3, 2),) + (Fraction(1, 2),) * 16 + (0,)),
], ids=["mixed", "odd-sum", "mixed-18"])
def test_fundamental_root_refuses_non_members(dim, r):
    with pytest.raises(lat.LatticeError) as info:
        lat.is_fundamental_root(r, dim)
    assert str(info.value) == f"vector is not a member of II_{{{dim - 1},1}}"


def test_lorentzian_queries_refuse_float_coordinates():
    # a float is refused, not truncated to an integer
    v = (1.5,) + (1,) * 9
    with pytest.raises(TypeError):
        lat.is_fundamental_root(v, 10)
    with pytest.raises(TypeError):
        lat.ii_member(v)


def test_form_dot_length_gate():
    with pytest.raises(lat.LatticeError,
                       match="^vector length differs from ambient_dim$"):
        lat.ii_lattice(10).form_dot(lat.weyl_vector(10), lat.weyl_vector(18))


# --------------------------------------------------------------------------
# the two rank-24 constructions

def test_leech_from_ii26_shape():
    leech = lat.leech_from_ii26()
    assert leech.rank == 24
    assert leech.ambient_dim == 26
    assert leech.signature == lat.LORENTZIAN
    assert lat.is_positive_definite(leech)
    assert lat.is_even(leech)
    assert lat.is_unimodular(leech)
    assert lat.short_vectors(leech, 2) == {}


def test_icosian_E8_matches_the_coordinate_one():
    flat = lat.build_E8_from_icosians()
    assert flat.rank == 8
    assert lat.is_even(flat) and lat.is_unimodular(flat)
    assert lat.theta_series(flat, 2) == lat.theta_series(E8, 2)


def test_icosian_leech_attempt_reports_both_conventions():
    # both congruence readings, I*h and h*I, give the Leech lattice under the
    # twisted norm: even, unimodular, no norm-2 vectors, a norm-4 vector
    for side in ("right", "left"):
        raw = lat._icosian_triple_lattice(side)
        assert raw.rank == 24, side
        assert lat.is_even(raw) and lat.is_unimodular(raw), side
        assert lat.short_vectors(raw, 2) == {}, side
        red = lat.lll_reduce(raw)
        assert min(red.gram[i][i] for i in range(24)) == 4, side


# --------------------------------------------------------------------------
# names, formatting, parsing

def test_named_lattice_resolves_everything():
    for name, rank in [("A1", 1), ("A9", 9), ("D4", 4), ("E6", 6), ("E7", 7),
                       ("E8", 8), ("D16+", 16), ("3E8", 24), ("E8+D16+", 24),
                       ("LeechII", 24)]:
        assert lat.named_lattice(name).rank == rank


def test_named_lattice_rejects_unknown_names():
    for bad in ("E9", "A0", "Leech", "", "A", "Dx"):
        with pytest.raises(lat.LatticeError):
            lat.named_lattice(bad)


def test_icosian_name_propagates_the_construction_error(monkeypatch):
    assert lat.named_lattice("LeechIcosian").rank == 24

    def broken():
        raise lat.LatticeConstructionError("no rescaling")

    monkeypatch.setattr(lat, "leech_from_icosians", broken)
    with pytest.raises(lat.LatticeConstructionError):
        lat.named_lattice("LeechIcosian")


def test_lattice_info_summary():
    info = lat.lattice_info(E8)
    assert info == {"rank": 8, "even": True, "unimodular": True,
                    "min_norm": 2, "kissing": 240}


def test_lattice_info_on_an_odd_lattice():
    z1 = lat.Lattice(1, 1, ((1,),))
    info = lat.lattice_info(z1)
    assert info["even"] is False
    assert info["min_norm"] == 1 and info["kissing"] == 2


def test_format_parse_roundtrip():
    for l in (E8, lat.dual_lattice(lat.build_An(2)), lat.build_D16plus()):
        again = lat.parse_lattice(lat.format_lattice(l))
        assert again.basis == l.basis
        assert again.signature == l.signature


def test_parse_lattice_rejects_malformed_text():
    with pytest.raises(lat.LatticeError):
        lat.parse_lattice("")
    with pytest.raises(lat.LatticeError):
        lat.parse_lattice("2 2 euclidean\n1 0\n")
    with pytest.raises(lat.LatticeError):
        lat.parse_lattice("1 2 euclidean\n1\n")
    with pytest.raises(lat.LatticeError):
        lat.parse_lattice("1 2 hyperbolic\n1 0\n")
