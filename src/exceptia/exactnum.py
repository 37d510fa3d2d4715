"""Exact scalar arithmetic: rationals and the field Q(sqrt5).

Everything downstream (hypercomplex numbers, lattices, q-series) does its
arithmetic in one of two fields: plain rationals, or the real quadratic field
Q(sqrt5) needed by the golden-ratio quaternions. Both are exact; no floats
enter or leave this module. Approximations, where a caller wants them, are the
caller's business.

Rationals are `fractions.Fraction` throughout. The stdlib type already keeps
the canonical reduced form with positive denominator, so we use it directly
rather than wrapping it.

The module also holds what every other module shares: `Value`, the base of
the immutable value classes, which stores the fields a subclass checks;
`LaurentSeries`, the one q-series type, of theta series and modular forms;
`format_terms`, the signed-sum text form; `read_integer` and
`read_rational`, the readers of numbers given as text; and
`shared_fractions`, which makes one Fraction per distinct integer numerator
over a common denominator.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

Rat = Union[int, Fraction]


def rat(x: Rat) -> Fraction:
    """Coerce an int or Fraction to Fraction (no floats accepted)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


# Fraction(text) alone also reads exponents, so a short token such as
# 1e99999999999 would build an integer of 10^11 digits
_RATIONAL = re.compile(
    r"\s*[-+]?(?:[0-9]+(?:/0*[1-9][0-9]*)?|[0-9]*\.[0-9]+|[0-9]+\.)\s*")


_INTEGER = re.compile(r"[-+]?[0-9]+")


def read_integer(text: str) -> int:
    """Read an integer: an optional sign and ASCII digits, nothing else.
    int() alone also reads other scripts' digits, underscores (1_0) and
    surrounding space; raise ValueError on those."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def read_rational(text: str) -> Fraction:
    """Read an integer, a fraction p/q or a plain decimal, each with an
    optional sign; raise ValueError on anything else, among it exponents,
    zero denominators and non-ASCII digits."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational number: {text!r}")
    return Fraction(text)


def shared_fractions(values: Iterable[int], d: int) -> Dict[int, Fraction]:
    """{v: Fraction(v, d)} for each distinct integer v among values.

    The exact kernels multiply in integers over one denominator d and make
    their Fractions at the end: one per distinct numerator, shared by every
    entry that holds it, since building a Fraction costs far more than
    looking one up.
    """
    return {v: Fraction(v, d) for v in set(values)}


class Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, in order; its own
    ``__init__``, if any, checks them, and ``Value.__init__`` stores them,
    given by position or by slot name. Two values are equal when they are
    of the same class and their field tuples are equal; a value hashes as
    its field tuple, and its fields cannot be assigned or deleted.
    """

    __slots__ = ()

    def __init__(self, *fields, **named):
        slots = self.__slots__
        if named:  # fields given by name follow those given by position
            fields += tuple(named.pop(n) for n in slots[len(fields):]
                            if n in named)
        if named or len(fields) != len(slots):
            raise TypeError(f"{type(self).__name__}() takes fields {slots}")
        for name, value in zip(slots, fields):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the methods close over the getter rather than look it up on the
        # class, because equality and hashing sit in set and dict lookups
        get = operator.attrgetter(*cls.__slots__)
        # attrgetter returns a bare value for one name, not a 1-tuple
        key = get if len(cls.__slots__) > 1 else lambda x: (get(x),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class SeriesError(ValueError):
    """Domain error raised by q-series operations."""


class LaurentSeries(Value):
    """Truncated Laurent series: coeffs[i] is the coefficient of q^(low+i).

    The leading coefficient is nonzero unless the series is zero (empty
    coeffs); leading zeros are stripped at construction. Trailing zeros are
    kept, since the length records how far the truncation is valid.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs: Tuple[int, ...]):
        cs = tuple(coeffs)
        if any(not isinstance(c, int) for c in cs):
            raise SeriesError("coefficients must be integers")
        k = 0
        while k < len(cs) and cs[k] == 0:
            k += 1
        low += k
        cs = cs[k:]
        if not cs:
            low = 0
        if low < -1:
            raise SeriesError("lowest exponent below -1 is not representable")
        super().__init__(low, cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> int:
        """Highest exponent carried by the truncation."""
        if self.is_zero:
            raise SeriesError("the zero series has no truncation order")
        return self.low + len(self.coeffs) - 1

    @property
    def counts(self) -> Tuple[int, ...]:
        """Coefficients of q^0 ... q^order (a theta series' counts)."""
        return tuple(map(self.coefficient, range(self.order + 1)))

    def coefficient(self, k: int) -> int:
        """Coefficient of q^k; exponents outside the carried range are 0."""
        i = k - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0


class GoldenRational(Value):
    """An element u + v*sqrt(5) of Q(sqrt5), with exact rational u, v.

    The basis is {1, sqrt5}, not {1, phi}; the coordinate split used by the
    icosian-to-R^8 embedding reads the two components off directly.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: Rat = 0, v: Rat = 0):
        super().__init__(rat(u), rat(v))

    def __add__(self, other: "GoldenRational") -> "GoldenRational":
        other = _coerce(other)
        return GoldenRational(self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other: "GoldenRational") -> "GoldenRational":
        other = _coerce(other)
        return GoldenRational(self.u - other.u, self.v - other.v)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self) -> "GoldenRational":
        return GoldenRational(-self.u, -self.v)

    def __mul__(self, other: "GoldenRational") -> "GoldenRational":
        other = _coerce(other)
        return GoldenRational(
            self.u * other.u + 5 * self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "GoldenRational") -> "GoldenRational":
        other = _coerce(other)
        # (u - v sqrt5)(u + v sqrt5) = u^2 - 5 v^2, nonzero for nonzero
        # elements because sqrt5 is irrational
        n = other.u * other.u - 5 * other.v * other.v
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return self * GoldenRational(other.u / n, -other.v / n)

    def __bool__(self) -> bool:
        return bool(self.u) or bool(self.v)

    def conjugate(self) -> "GoldenRational":
        """Galois conjugate sqrt5 -> -sqrt5."""
        return GoldenRational(self.u, -self.v)

    def trace_value(self) -> Fraction:
        """The rational u + v, i.e. the evaluation sqrt5 -> 1.

        Not a field map; used by callers comparing quadratic forms.
        """
        return self.u + self.v

    def __repr__(self) -> str:
        if self.v == 0:
            return f"golden({self.u})"
        return f"golden({self.u} + {self.v}*sqrt5)"


def _coerce(x) -> GoldenRational:
    if isinstance(x, GoldenRational):
        return x
    return GoldenRational(rat(x))


def format_terms(terms, name) -> str:
    """(index, coefficient) terms as a signed sum such as ``3 - e1 + 1/2 e5``.

    Index 0 prints as its coefficient alone; name(index) names every other
    basis element, bare when its coefficient has magnitude 1. The empty sum
    is "0". Hypercomplex and Clifford elements, q-series and spin-network
    areas all print this way.
    """
    out = []
    for k, c in terms:
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            body = name(k) if mag == 1 else f"{mag} {name(k)}"
        if out:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            out.append(body if c > 0 else f"-{body}")
    return " ".join(out) or "0"


GOLDEN_ZERO = GoldenRational(0)
GOLDEN_ONE = GoldenRational(1)
PHI = GoldenRational(Fraction(1, 2), Fraction(1, 2))
PHI_BAR = PHI.conjugate()
