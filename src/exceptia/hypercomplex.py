"""The doubling tower of hypercomplex numbers, and friends.

Starting from a base field (exact rationals, or Q(sqrt5) for the golden
quaternions), each doubling step builds pairs with

    (a, b)(c, d) = (ac - d*b, da + bc*)        (a, b)* = (a*, -b)

which yields the complex numbers, quaternions, octonions and sedenions at
levels 1 through 4. An element is stored sparsely, as its nonzero
coordinates in ascending unit order, so sums, scaling, conjugation and unit
products cost what the nonzero terms cost at any level; the sums, negation
and scaling are those of `exactnum.Terms`. `.coords` builds the dense tuple
of all 2^level coordinates on request. The product is not computed by
recursing on halves: the formula fixes e_i e_j = +-e_(i xor j) for the basis
units, and `cd_mul` sums that unit sign rule over the pairs of nonzero
terms, as `fano_octonion_mul` does with the Fano table. Rational products
run on integer numerators over one denominator per operand and make one
Fraction per distinct coefficient of the result. Alongside the doubling
product this module carries the classical Fano-plane octonion table, the
x-product deformation, the permutation action on quaternion units, and the
two famous unit rings: the 24 Hurwitz quaternions and the 120 icosians with
their rank-8 integer coordinate system.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, Sequence, Tuple, Union

from .exactnum import (GOLDEN_ONE, GOLDEN_ZERO, PHI, GoldenRational, Terms,
                       Value, rat)
from . import intlinalg

Scalar = Union[Fraction, GoldenRational]

RATIONAL = "rational"
GOLDEN = "golden"


class HyperNumber(Terms, Value):
    """An element of the level-k doubling algebra, which has 2^k coordinates.

    `terms` holds (unit index, coefficient) pairs in ascending index order,
    with no zero coefficient, so equal values have equal terms. Coefficients
    are Fractions (field="rational") or GoldenRationals (field="golden").
    Values are immutable and hashable.
    """

    __slots__ = ("field", "level", "terms")

    def __init__(self, field: str, level: int,
                 terms: Tuple[Tuple[int, Scalar], ...]):
        if field not in (RATIONAL, GOLDEN):
            raise ValueError(f"unknown field {field!r}")
        if level < 0:
            raise ValueError(f"negative level {level}")
        super().__init__(field, level, terms)

    @property
    def coords(self) -> Tuple[Scalar, ...]:
        """All 2^level coordinates, zeros included."""
        z = [_zero_scalar(self.field)] * (1 << self.level)
        for k, c in self.terms:
            z[k] = c
        return tuple(z)

    def _scalar(self, s) -> Scalar:
        return _as_scalar(s, self.field)

    def __repr__(self) -> str:
        parts = [f"{c}*e{k}" if k else f"{c}" for k, c in self.terms]
        body = " + ".join(parts) if parts else "0"
        return f"hyper[{self.field}]({body})"


def _as_scalar(v, field: str) -> Scalar:
    if field == GOLDEN:
        if isinstance(v, GoldenRational):
            return v
        return GoldenRational(rat(v))
    if isinstance(v, GoldenRational):
        raise ValueError("golden scalar in a rational-field number")
    return rat(v)


def _zero_scalar(field: str) -> Scalar:
    return GOLDEN_ZERO if field == GOLDEN else Fraction(0)


def hyper(coords, field: str = RATIONAL) -> HyperNumber:
    """Build a HyperNumber from all 2^level of its coordinates, given as
    any iterable of exact scalars."""
    cs = [_as_scalar(c, field) for c in coords]
    n = len(cs)
    if n == 0 or n & (n - 1):
        raise ValueError("coordinate count must be a power of two")
    return HyperNumber(field, n.bit_length() - 1,
                       tuple((k, c) for k, c in enumerate(cs) if c))


def zero(level: int, field: str = RATIONAL) -> HyperNumber:
    return HyperNumber(field, level, ())


def one(level: int, field: str = RATIONAL) -> HyperNumber:
    return basis_element(level, 0, field)


def basis_element(level: int, index: int, field: str = RATIONAL) -> HyperNumber:
    """e_index at the given level; e_0 is the multiplicative identity."""
    # built before the range test, which shifts by the level it checks
    e = HyperNumber(field, level, ((index, _as_scalar(1, field)),))
    if not 0 <= index < 1 << level:
        raise ValueError(f"index {index} out of range for level {level}")
    return e


# --------------------------------------------------------------------------
# the doubling product, conjugation, norm, inverse


@functools.lru_cache(maxsize=1 << 16)
def _cd_unit(i: int, j: int) -> Tuple[int, int]:
    """e_i e_j = sign * e_(i ^ j) in the doubling algebras; returns
    (i ^ j, sign).

    Each pass reads one case of (a, b)(c, d) = (ac - d*b, da + bc*) off the
    top bit h of i | j, with e_i = (e_i, 0) below h and (0, e_(i-h)) above:
        (a, 0)(c, 0) = (ac, 0)        (a, 0)(0, d) = (0, da)
        (0, b)(c, 0) = (0, bc*)       (0, b)(0, d) = (-d*b, 0)
    and e_m* = -e_m for m != 0. That is O(level) steps, and the answer does
    not depend on the level, so the same terms read at a higher level keep
    every product. The cache holds every pair through level 8.
    """
    k, sign = i ^ j, 1
    while i and j:
        h = 1 << ((i | j).bit_length() - 1)
        if i & h and j & h:
            i, j = j ^ h, i ^ h
            if not i:
                sign = -sign
        elif j & h:
            i, j = j ^ h, i
        else:
            i ^= h
            sign = -sign
    return k, sign


def _product(x: HyperNumber, y: HyperNumber, unit) -> HyperNumber:
    """The bilinear product of a unit rule unit(i, j) = (k, sign), meaning
    e_i e_j = sign * e_k, over the pairs of terms. Rational coefficients are
    cleared to integer numerators over one denominator per operand first,
    and each distinct coefficient of the result becomes one Fraction;
    golden ones are multiplied as they are."""
    x._same_algebra(y)
    rational = x.field == RATIONAL
    if rational:
        (xs, dx), (ys, dy) = x._numerators(), y._numerators()
    else:
        xs, ys = x.terms, y.terms
    zero = 0 if rational else GOLDEN_ZERO
    acc: Dict[int, Scalar] = {}
    for i, a in xs:
        for j, b in ys:
            k, s = unit(i, j)
            acc[k] = (acc.get(k, zero) + a * b if s > 0
                      else acc.get(k, zero) - a * b)
    if rational:
        return x._over(acc, dx * dy)
    return x._like(tuple((k, c) for k in sorted(acc) if (c := acc[k])))


def cd_mul(x: HyperNumber, y: HyperNumber) -> HyperNumber:
    """The doubling product (exact, any level), built from the unit sign
    rule e_i e_j = +-e_(i xor j) rather than by recursing on halves: the
    cost is one sign lookup per pair of nonzero coordinates."""
    return _product(x, y, _cd_unit)


def cd_conj(x: HyperNumber) -> HyperNumber:
    """Conjugation: negate every non-real coordinate."""
    return HyperNumber(x.field, x.level,
                       tuple((k, -c if k else c) for k, c in x.terms))


def cd_norm(x: HyperNumber) -> Scalar:
    """The scalar x x* = x* x, i.e. the sum of squared coordinates."""
    acc = _zero_scalar(x.field)
    for _, c in x.terms:
        acc = acc + c * c
    return acc


def cd_inv(x: HyperNumber) -> HyperNumber:
    """x* / (x x*). Two-sided inverse through the octonions."""
    n = cd_norm(x)
    if not n:
        raise ZeroDivisionError("inverse of a zero-norm element")
    if x.field == GOLDEN:
        inv = GOLDEN_ONE / n
    else:
        inv = Fraction(1) / n
    return cd_conj(x).scale(inv)


# --------------------------------------------------------------------------
# Fano-plane octonions

_FANO_LINES = tuple((i, i % 7 + 1, (i + 2) % 7 + 1) for i in range(1, 8))
# lines (1,2,4), (2,3,5), ..., (7,1,3): each cyclic triple multiplies forward
# with sign +1, backward with -1

_FANO_TABLE: Dict[Tuple[int, int], Tuple[int, int]] = {}
for _a, _b, _c in _FANO_LINES:
    for (i, j, k) in ((_a, _b, _c), (_b, _c, _a), (_c, _a, _b)):
        _FANO_TABLE[(i, j)] = (k, 1)
        _FANO_TABLE[(j, i)] = (k, -1)


def fano_mul(i: int, j: int) -> Tuple[int, int]:
    """Product of imaginary octonion units: e_i e_j = sign * e_k.

    Returns (k, sign); the diagonal case i = j returns (0, -1) meaning the
    real unit with coefficient -1.
    """
    if not (1 <= i <= 7 and 1 <= j <= 7):
        raise ValueError("unit indices must lie in 1..7")
    if i == j:
        return (0, -1)
    return _FANO_TABLE[(i, j)]


def fano_lines() -> Tuple[Tuple[int, int, int], ...]:
    return _FANO_LINES


def _fano_unit(i: int, j: int) -> Tuple[int, int]:
    return fano_mul(i, j) if i and j else (i | j, 1)


def fano_octonion_mul(x: HyperNumber, y: HyperNumber) -> HyperNumber:
    """Octonion product using the Fano table rather than the doubling rule."""
    if x.level != 3:
        raise ValueError("Fano multiplication is defined on octonions")
    return _product(x, y, _fano_unit)


def xproduct(a: HyperNumber, b: HyperNumber, c: HyperNumber) -> HyperNumber:
    """The deformed product b x c = (b a)(a* c), in Fano-table octonions.

    For unit-norm a this is again a composition algebra product.
    """
    a._same_algebra(b)
    a._same_algebra(c)
    if a.level != 3:
        raise ValueError("x-product is defined on octonions")
    return fano_octonion_mul(fano_octonion_mul(b, a),
                             fano_octonion_mul(cd_conj(a), c))


# --------------------------------------------------------------------------
# permutations of the quaternion units

_PARITY = {
    (1, 2, 3): "even", (2, 3, 1): "even", (3, 1, 2): "even",
    (2, 1, 3): "odd", (1, 3, 2): "odd", (3, 2, 1): "odd",
}


class PermutationIJK(Value):
    """A permutation of the three imaginary quaternion units.

    `images` lists the images of (1, 2, 3); parity is derived.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if tuple(sorted(images)) != (1, 2, 3):
            raise ValueError("images must be a permutation of (1, 2, 3)")
        super().__init__(images)

    @property
    def parity(self) -> str:
        return _PARITY[self.images]


def ijk_permute(p: PermutationIJK, q: HyperNumber) -> HyperNumber:
    """Carry coefficients along with their units: if p sends i to j, the i
    coefficient of q becomes the j coefficient of the result."""
    if q.level != 2:
        raise ValueError("unit permutation acts on quaternions")
    return HyperNumber(q.field, 2, tuple(sorted(
        (p.images[k - 1] if k else 0, c) for k, c in q.terms)))


ALL_IJK_PERMUTATIONS = tuple(PermutationIJK(im) for im in _PARITY)


# --------------------------------------------------------------------------
# the Hurwitz ring

def hurwitz_contains(q: HyperNumber) -> bool:
    """True iff all four coordinates are integers, or all four are odd
    halves; these are exactly the quaternions of the 24-cell ring."""
    if q.field != RATIONAL or q.level != 2:
        raise ValueError("Hurwitz membership is for rational quaternions")
    dens = {c.denominator for c in q.coords}
    return dens == {1} or dens == {2}


def hurwitz_units() -> Tuple[HyperNumber, ...]:
    """The 24 units: ±1, ±i, ±j, ±k and (±1 ± i ± j ± k)/2."""
    units = []
    for i in range(4):
        for s in (1, -1):
            units.append(basis_element(2, i).scale(s))
    half = Fraction(1, 2)
    for mask in range(16):
        coords = tuple(half if mask >> b & 1 else -half for b in range(4))
        units.append(hyper(coords))
    return tuple(units)


# --------------------------------------------------------------------------
# the icosian ring

class IcosianElement(Value):
    """A golden quaternion together with its integer coordinates in the
    fixed rank-8 basis of the ring (the membership certificate)."""

    __slots__ = ("q", "certificate")


_CLOSURE_BOUND = 10_000


@functools.cache
def _build_icosian_state():
    half = Fraction(1, 2)
    gi = basis_element(2, 1, GOLDEN)
    gj = basis_element(2, 2, GOLDEN)
    phi_inv = GOLDEN_ONE / PHI
    seed3 = hyper((
        phi_inv * GoldenRational(half),
        GoldenRational(half),
        PHI * GoldenRational(half),
        GOLDEN_ZERO,
    ), GOLDEN)
    # breadth-first search over right multiplication by the generators; the
    # group is finite, so the monoid they generate is the whole group
    gens = (gi, gj, seed3)
    order = [one(2, GOLDEN)]
    elems = set(order)
    for p in order:                       # order grows while it is walked
        for g in gens:
            r = cd_mul(p, g)
            if r not in elems:
                if len(elems) >= _CLOSURE_BOUND:
                    raise RuntimeError("unit closure exceeded the defensive "
                                       "bound; seed set is wrong")
                elems.add(r)
                order.append(r)

    # fixed integer coordinate system: HNF basis of the quadrupled images,
    # the same for any order of the rows; only certificates read these rows,
    # icosian_basis() decodes them
    scaled = [[_quad(c) for c in icosian_to_r8_raw(q)] for q in order]
    basis = intlinalg.hnf(scaled)
    if len(basis) != 8:
        raise RuntimeError("icosian images span the wrong rank")
    units = frozenset(
        IcosianElement(q, _certificate(q, basis)) for q in elems
    )
    return units, tuple(tuple(row) for row in basis)


def sorted_units(elems) -> list:
    """Deterministic ordering of golden quaternions (by coordinate tuples)."""
    def key(q):
        return tuple((c.u, c.v) for c in q.coords)
    return sorted(elems, key=key)


def _quad(c: Fraction) -> int:
    q = 4 * c
    if q.denominator != 1:
        raise ValueError("quaternion lies outside the icosian ring")
    return q.numerator


def _certificate(q: HyperNumber, basis) -> Tuple[int, ...]:
    target = [_quad(c) for c in icosian_to_r8_raw(q)]
    x = intlinalg.solve_left(basis, target)
    if x is None:
        raise ValueError("quaternion lies outside the icosian ring")
    return tuple(x)


def icosian_units() -> frozenset:
    """The 120 unit icosians (with membership certificates), cached."""
    return _build_icosian_state()[0]


def icosian_basis() -> Tuple[HyperNumber, ...]:
    """The ring's fixed rank-8 basis: a certificate lists an icosian's
    integer coordinates in it."""
    return tuple(
        hyper([GoldenRational(Fraction(u, 4), Fraction(v, 4))
               for u, v in zip(row[::2], row[1::2])], GOLDEN)
        for row in _build_icosian_state()[1])


def to_icosian(q: HyperNumber) -> IcosianElement:
    """Attach a membership certificate, or raise ValueError for non-members."""
    if q.field != GOLDEN or q.level != 2:
        raise ValueError("icosians are golden quaternions")
    return IcosianElement(q, _certificate(q, _build_icosian_state()[1]))


def icosian_to_r8_raw(q: HyperNumber) -> Tuple[Fraction, ...]:
    """Split each golden coordinate u + v*sqrt5 into (u, v), concatenated."""
    out = []
    for c in q.coords:
        out.append(c.u)
        out.append(c.v)
    return tuple(out)
