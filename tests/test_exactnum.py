"""Field arithmetic in Q(sqrt5), the value semantics of the package's
immutable classes, and the sparse-term arithmetic of hypercomplex numbers
and Clifford elements."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exceptia import clifford as cl
from exceptia import hypercomplex as hc
from exceptia import identities as ident
from exceptia import lattices as lat
from exceptia import modular as mod
from exceptia.exactnum import (GOLDEN_ONE, GOLDEN_ZERO, PHI, PHI_BAR,
                               GoldenRational, LaurentSeries, Value,
                               read_integer, read_rational)

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


def test_read_rational_takes_integers_fractions_and_plain_decimals():
    for text, value in (("7", 7), ("-1/2", Fraction(-1, 2)),
                        ("+3/04", Fraction(3, 4)), ("0.25", Fraction(1, 4)),
                        ("-.5", Fraction(-1, 2)), ("5.", 5),
                        (" 1/3 ", Fraction(1, 3))):
        assert read_rational(text) == value, text
    for text in ("1e5", "1E-2", "1.5e3", "1/0", "1/00", "1_0", "\u0663",
                 "2\u00b2", "1/-2", "1.5/2", ".", "", "-", "nan", "inf",
                 "0x10", "1 2"):
        with pytest.raises(ValueError):
            read_rational(text)


def test_read_integer_takes_a_sign_and_ascii_digits_only():
    for text, value in (("7", 7), ("-12", -12), ("+3", 3), ("007", 7)):
        assert read_integer(text) == value and type(value) is int, text
    for text in ("\u0663", "\u0661\u0662", "2\u00b2", "1_0", " 2", "2 ",
                 "", "-", "+-1", "1.0", "1/1", "1e3", "0x10"):
        with pytest.raises(ValueError):
            read_integer(text)


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


# ---------------------------------------------------------------------------
# value semantics

# each value class with a builder and its fields in declaration order; a
# value hashes as that field tuple, so set and dict orders built from values
# do not depend on how the class is implemented
VALUE_CASES = [
    (lambda: GoldenRational(Fraction(1, 2), 3), ("u", "v")),
    (lambda: cl.CliffordSignature(1, 2), ("p", "q")),
    (lambda: cl.CliffordElement.from_dict(cl.CliffordSignature(1, 2),
                                          {0: 1, 3: Fraction(-2, 3)}),
     ("signature", "terms")),
    (lambda: cl.MatrixAlgebraClass("H", 2, 1), ("ring", "size", "summands")),
    (lambda: cl.spinor_taxonomy(10),
     ("n", "dirac_complex_dim", "majorana", "weyl", "majorana_weyl",
      "minimal_real_components")),
    (lambda: hc.hyper([1, 0, Fraction(1, 2), -3]), ("field", "level", "terms")),
    (lambda: hc.PermutationIJK((2, 3, 1)), ("images",)),
    (lambda: hc.IcosianElement(hc.one(2, hc.GOLDEN), (1, 0, 0, 0, 0, 0, 0, 0)),
     ("q", "certificate")),
    (lambda: ident.SpinList((1, Fraction(1, 2))), ("spins",)),
    (lambda: ident.PolyLoop(((0, 0, 0), (1, 0, 0), (0, 1, 0))), ("vertices",)),
    (lambda: lat.Lattice(2, 2, ((1, 1), (1, -1))),
     ("ambient_dim", "rank", "rows", "den", "signature", "prim_gram",
      "scale")),
    (lambda: mod.LaurentSeries(-1, (1, 744, 196884)), ("low", "coeffs")),
]


def _twin(x):
    """A value of a new class holding the same fields as ``x``."""
    names = type(x).__slots__
    twin = object.__new__(type("Twin", (Value,), {"__slots__": names}))
    for name in names:
        object.__setattr__(twin, name, getattr(x, name))
    return twin


@pytest.mark.parametrize("build, names", VALUE_CASES,
                         ids=[c[0]().__class__.__name__ for c in VALUE_CASES])
def test_value_semantics(build, names):
    x, y = build(), build()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    fields = tuple(getattr(x, n) for n in names)
    assert hash(x) == hash(fields)
    assert {x: 1}[y] == 1
    twin = _twin(x)
    assert x != twin and twin != x
    assert x != fields and fields != x
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, n) for n in names) == fields


def test_value_cases_cover_every_value_class():
    package = {c for c in Value.__subclasses__()
               if c.__module__.startswith("exceptia.")}
    assert package == {build().__class__ for build, _ in VALUE_CASES}


def test_dataclass_style_repr():
    assert repr(cl.MatrixAlgebraClass("H", 2, 1)) == \
        "MatrixAlgebraClass(ring='H', size=2, summands=1)"
    assert repr(mod.LaurentSeries(0, (1, 2))) == \
        "LaurentSeries(low=0, coeffs=(1, 2))"


def test_theta_series_is_the_one_series_type():
    th = lat.theta_series(lat.build_E8(), 3)
    assert type(th) is LaurentSeries is mod.LaurentSeries
    assert th == mod.LaurentSeries(0, (1, 240, 2160, 6720))
    assert th.counts == (1, 240, 2160, 6720)


# the classes whose fields Value.__init__ takes unchecked, each with a value
STORAGE_ONLY = [
    lambda: cl.MatrixAlgebraClass("H", 2, 1),
    lambda: cl.spinor_taxonomy(10),
    lambda: cl.CliffordElement.from_dict(cl.CliffordSignature(1, 2),
                                         {0: 1, 3: Fraction(-2, 3)}),
    lambda: hc.IcosianElement(hc.one(2, hc.GOLDEN), (1, 0, 0, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("build", STORAGE_ONLY,
                         ids=[b().__class__.__name__ for b in STORAGE_ONLY])
def test_storage_only_values_take_fields_by_position_or_name(build):
    x = build()
    cls = type(x)
    assert "__init__" not in vars(cls)
    values = tuple(getattr(x, n) for n in cls.__slots__)
    named = dict(zip(cls.__slots__, values))
    assert cls(*values) == x
    assert cls(**named) == x
    # by name in any order, and after some given by position
    assert cls(**dict(reversed(named.items()))) == x
    assert cls(values[0], **dict(list(named.items())[1:])) == x


@pytest.mark.parametrize("cls, args, named", [
    pytest.param(cl.MatrixAlgebraClass, ("H", 2), {}, id="storage too few"),
    pytest.param(cl.MatrixAlgebraClass, ("H", 2, 1, 1), {},
                 id="storage too many"),
    pytest.param(cl.MatrixAlgebraClass, (), {}, id="storage none"),
    pytest.param(cl.MatrixAlgebraClass, ("H",), {"size": 2},
                 id="storage missing"),
    pytest.param(cl.MatrixAlgebraClass, ("H", 2, 1), {"colour": "red"},
                 id="storage unknown"),
    pytest.param(cl.MatrixAlgebraClass, ("H", 2), {"summand": 1},
                 id="storage misspelt"),
    pytest.param(cl.MatrixAlgebraClass, ("H", 2, 1), {"ring": "R"},
                 id="storage repeated"),
    pytest.param(cl.MatrixAlgebraClass, ("H", 2), {"ring": "R"},
                 id="storage repeated and missing"),
    pytest.param(cl.CliffordSignature, (1,), {}, id="checking too few"),
    pytest.param(cl.CliffordSignature, (1, 2, 3), {}, id="checking too many"),
    pytest.param(cl.CliffordSignature, (), {"p": 1}, id="checking missing"),
    pytest.param(cl.CliffordSignature, (1, 2), {"r": 3},
                 id="checking unknown"),
    pytest.param(cl.CliffordSignature, (1,), {"p": 2}, id="checking repeated"),
    pytest.param(mod.LaurentSeries, (0,), {"coeff": (1, 240)},
                 id="checking misspelt"),
])
def test_wrong_fields_raise_type_error(cls, args, named):
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*args, **named)


# ---------------------------------------------------------------------------
# sparse-term arithmetic, shared by hypercomplex numbers and Clifford elements

small_rationals = st.fractions(min_value=-20, max_value=20,
                               max_denominator=12)
small_goldens = st.builds(GoldenRational, small_rationals, small_rationals)


@st.composite
def same_algebra_operands(draw):
    """(x, y, s): two elements of one algebra and a scalar for it. The
    algebra is a rational or golden doubling algebra at level 0-5, or a
    Clifford algebra with p + q <= 8; y negates some of x's terms, so sums
    and differences cancel."""
    kind = draw(st.sampled_from((hc.RATIONAL, hc.GOLDEN, "clifford")))
    coef = small_goldens if kind == hc.GOLDEN else small_rationals
    if kind == "clifford":
        n = draw(st.integers(0, 8))
        p = draw(st.integers(0, n))
        sig = cl.CliffordSignature(p, n - p)

        def build(d):
            return cl.CliffordElement.from_dict(sig, d)
    else:
        n = draw(st.integers(0, 5))

        def build(d):
            return hc.HyperNumber(kind, n, tuple(sorted(
                (k, c) for k, c in d.items() if c)))
    keys = st.integers(0, (1 << n) - 1)
    xd = draw(st.dictionaries(keys, coef, max_size=12))
    yd = draw(st.dictionaries(keys, coef, max_size=12))
    if xd:
        for k in draw(st.sets(st.sampled_from(sorted(xd)))):
            yd[k] = -xd[k]
    s = draw(st.one_of(st.just(0), coef))
    return build(xd), build(yd), s


def check_element(z, like, ref):
    """z is an element of like's algebra whose terms are the nonzero
    entries of the dict ref, in ascending index order, with coefficients
    of like's coefficient type."""
    assert type(z) is type(like)
    names = type(z).__slots__[:-1]
    assert [getattr(z, n) for n in names] == [getattr(like, n) for n in names]
    ks = [k for k, _ in z.terms]
    assert ks == sorted(set(ks))
    assert all(c for _, c in z.terms)
    golden = getattr(like, "field", None) == hc.GOLDEN
    assert all(type(c) is (GoldenRational if golden else Fraction)
               for _, c in z.terms)
    assert dict(z.terms) == {k: c for k, c in ref.items() if c}


def merged(x, y, sign):
    """The terms of x + sign * y as a dict, zeros kept."""
    acc = dict(x.terms)
    for k, c in y.terms:
        acc[k] = acc[k] + sign * c if k in acc else sign * c
    return acc


@given(same_algebra_operands())
def test_terms_arithmetic_matches_a_dict_merge(xys):
    x, y, s = xys
    check_element(x + y, x, merged(x, y, 1))
    check_element(x - y, x, merged(x, y, -1))
    check_element(-x, x, {k: -c for k, c in x.terms})
    check_element(x.scale(s), x, {k: s * c for k, c in x.terms})
    assert (x - x).is_zero() and (x - x).terms == ()
    assert x.is_zero() == (not x.terms)
