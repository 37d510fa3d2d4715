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
the immutable value classes, `format_terms`, the signed-sum text form,
`read_integer` and `read_rational`, the readers of numbers given as text,
and `shared_fractions`, which turns integer numerators over one denominator
into Fractions, one per distinct numerator.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Dict, Iterable, Union

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

    A subclass names its fields in ``__slots__``, in order, and its
    ``__init__`` checks them and stores them with ``object.__setattr__``.
    Two values are equal when they are of the same class and their field
    tuples are equal; a value hashes as its field tuple, and its fields
    cannot be assigned or deleted.
    """

    __slots__ = ()

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


class GoldenRational(Value):
    """An element u + v*sqrt(5) of Q(sqrt5), with exact rational u, v.

    The basis is {1, sqrt5}, not {1, phi}; the coordinate split used by the
    icosian-to-R^8 embedding reads the two components off directly.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: Rat = 0, v: Rat = 0):
        object.__setattr__(self, "u", rat(u))
        object.__setattr__(self, "v", rat(v))

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
