"""Field arithmetic in Q(sqrt5)."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exceptia.exactnum import (GOLDEN_ONE, GOLDEN_ZERO, PHI, PHI_BAR,
                               GoldenRational)

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)
goldens = st.builds(GoldenRational, rationals, rationals)


def test_phi_satisfies_its_quadratic():
    assert PHI * PHI == PHI + GOLDEN_ONE


def test_phi_times_conjugate_is_minus_one():
    assert PHI * PHI_BAR == -GOLDEN_ONE


def test_phi_plus_conjugate_is_one():
    assert PHI + PHI_BAR == GOLDEN_ONE


def test_coercion_from_ints_and_fractions():
    assert GoldenRational(2) + 1 == GoldenRational(3)
    assert 1 - GoldenRational(0, 1) == GoldenRational(1, -1)
    assert Fraction(1, 2) * GoldenRational(4) == GoldenRational(2)


def test_truth_value():
    assert not GOLDEN_ZERO
    assert GoldenRational(0, Fraction(1, 7))
    assert GOLDEN_ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GOLDEN_ONE / GOLDEN_ZERO


def test_repr_mentions_sqrt5_only_when_needed():
    assert repr(GoldenRational(3)) == "golden(3)"
    assert "sqrt5" in repr(PHI)


def test_trace_value_evaluates_sqrt5_at_one():
    assert GoldenRational(2, 3).trace_value() == 5
    assert PHI.trace_value() == 1


@given(goldens, goldens)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(goldens, goldens, goldens)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(goldens, goldens, goldens)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(goldens)
def test_division_inverts_multiplication(a):
    if a:
        assert (a * PHI) / a == PHI
    else:
        with pytest.raises(ZeroDivisionError):
            PHI / a


@given(goldens, goldens)
def test_galois_conjugation_is_a_ring_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(goldens)
def test_norm_is_rational(a):
    n = a * a.conjugate()
    assert n.v == 0
    # u^2 - 5 v^2 = 0 only for u = v = 0, sqrt5 being irrational
    if a:
        assert n.u != 0
