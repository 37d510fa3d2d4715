"""Clifford algebras C_{p,q}, their matrix classification, and spinor types.

Elements are exact rational combinations of blades. A blade is a subset of
the generators written in ascending order and stored as a bitmask; the first
p generators square to -1, the remaining q square to +1, and distinct
generators anticommute. Products run on integer numerators over one
denominator: each operand is cleared to integers once, every blade pair
costs one integer product and a sign read off a per-blade bitmask, and each
distinct coefficient of the result becomes one Fraction. The
classification into matrix algebras over R, C, H is table-driven mod 8, and
the spinor taxonomy (Dirac, Majorana, Weyl, Majorana-Weyl, and which
dimensions admit the supersymmetric balance 2(n-2)) is derived from it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Set

from .exactnum import Rat, Value, rat, shared_fractions
from .intlinalg import clear_denominators

MAX_GENERATORS = 24


class CliffordSignature(Value):
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        # p generators square to -1, q to +1
        if p < 0 or q < 0 or p + q > MAX_GENERATORS:
            raise ValueError("signature out of supported range")
        super().__init__(p, q)

    @property
    def n(self) -> int:
        return self.p + self.q


class CliffordElement(Value):
    """Map from blade bitmask to nonzero rational coefficient, as `terms`:
    (bitmask, Fraction) pairs sorted by bitmask, none with coefficient 0."""

    __slots__ = ("signature", "terms")

    @staticmethod
    def from_dict(sig: CliffordSignature, d: Dict[int, Rat]) -> "CliffordElement":
        items = []
        for mask, c in sorted(d.items()):
            if mask < 0 or mask >= 1 << sig.n:
                raise ValueError("blade outside the algebra")
            c = rat(c)
            if c:
                items.append((mask, c))
        return CliffordElement(sig, tuple(items))

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        _check(self, other)
        d = self.as_dict()
        for mask, c in other.terms:
            d[mask] = d.get(mask, Fraction(0)) + c
        return CliffordElement.from_dict(self.signature, d)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.signature,
                               tuple((m, -c) for m, c in self.terms))

    def scale(self, s: Rat) -> "CliffordElement":
        s = rat(s)
        if not s:
            return CliffordElement(self.signature, ())
        return CliffordElement(self.signature,
                               tuple((m, s * c) for m, c in self.terms))


def _check(x: CliffordElement, y: CliffordElement) -> None:
    if x.signature != y.signature:
        raise ValueError("signature mismatch")


def scalar(sig: CliffordSignature, c: Rat = 1) -> CliffordElement:
    return CliffordElement.from_dict(sig, {0: c})


def generator(sig: CliffordSignature, i: int) -> CliffordElement:
    """e_i for 1 <= i <= p+q (the first p square to -1)."""
    if not 1 <= i <= sig.n:
        raise ValueError("generator index out of range")
    return CliffordElement.from_dict(sig, {1 << (i - 1): 1})


def blade(sig: CliffordSignature, indices, c: Rat = 1) -> CliffordElement:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError("repeated index in blade")
        mask |= bit
    return CliffordElement.from_dict(sig, {mask: c})


def clif_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """The geometric product, on integer numerators over one denominator;
    each distinct coefficient of the result becomes one Fraction.

    e_a e_b = (-1)^|q(a) & b| e_(a ^ b), where bit j of the sign mask q(a)
    is the parity of the generators of a above j, which e_j hops over,
    flipped when j < p and e_j is in a, where e_j e_j = -1 contracts.
    """
    _check(x, y)
    sig = x.signature
    (xn,), dx = clear_denominators([[c for _, c in x.terms]])
    (yn,), dy = clear_denominators([[c for _, c in y.terms]])
    ys = [(mb, cb) for (mb, _), cb in zip(y.terms, yn)]
    low = (1 << sig.p) - 1
    acc: Dict[int, int] = {}
    for (ma, _), ca in zip(x.terms, xn):
        q = ma >> 1
        for k in (1, 2, 4, 8, 16):      # suffix parities, up to 32 generators
            q ^= q >> k
        q ^= ma & low
        for mb, cb in ys:
            m = ma ^ mb
            c = -ca * cb if (q & mb).bit_count() & 1 else ca * cb
            acc[m] = acc.get(m, 0) + c
    frac = shared_fractions(acc.values(), dx * dy)
    return CliffordElement(sig, tuple((m, frac[c]) for m in sorted(acc)
                                      if (c := acc[m])))


def clif_reverse(x: CliffordElement) -> CliffordElement:
    """Reverse the order of generators in each blade: grade g picks up
    (-1)^(g(g-1)/2). An anti-automorphism."""
    out = []
    for mask, c in x.terms:
        g = bin(mask).count("1")
        if (g * (g - 1) // 2) & 1:
            c = -c
        out.append((mask, c))
    return CliffordElement(x.signature, tuple(out))


# --------------------------------------------------------------------------
# classification

class MatrixAlgebraClass(Value):
    """The size x size matrices over ring "R", "C" or "H", with summands 1,
    or 2 for a direct sum of two equal blocks."""

    __slots__ = ("ring", "size", "summands")

    def __str__(self) -> str:
        one = self.ring if self.size == 1 else f"{self.ring}({self.size})"
        return one if self.summands == 1 else f"{one}+{one}"


_RING_DIM = {"R": 1, "C": 2, "H": 4}

# isomorphism type of C_{p,q} by (p - q) mod 8; sizes then follow from
# dimension counting: summands * m^2 * dim_R(ring) = 2^(p+q)
_CLASS_BY_RESIDUE = {
    0: ("R", 1),
    1: ("C", 1),
    2: ("H", 1),
    3: ("H", 2),
    4: ("H", 1),
    5: ("C", 1),
    6: ("R", 1),
    7: ("R", 2),
}


def _classify_raw(p: int, q: int) -> MatrixAlgebraClass:
    ring, summands = _CLASS_BY_RESIDUE[(p - q) % 8]
    total = 1 << (p + q)
    m2 = total // (summands * _RING_DIM[ring])
    m = math.isqrt(m2)
    if m * m != m2:
        raise ArithmeticError(f"dimension count {m2} is not a perfect square")
    return MatrixAlgebraClass(ring, m, summands)


def classify(sig: CliffordSignature) -> MatrixAlgebraClass:
    return _classify_raw(sig.p, sig.q)


def periodicity_check(sig: CliffordSignature) -> bool:
    """Adding eight negative-square generators multiplies size by 16."""
    if sig.n + 8 > MAX_GENERATORS:
        raise ValueError("shifted signature out of supported range")
    base = classify(sig)
    shifted = classify(CliffordSignature(sig.p + 8, sig.q))
    return (shifted.ring == base.ring
            and shifted.summands == base.summands
            and shifted.size == 16 * base.size)


# --------------------------------------------------------------------------
# spinor taxonomy

class SpinorProfile(Value):
    __slots__ = ("n", "dirac_complex_dim", "majorana", "weyl",
                 "majorana_weyl", "minimal_real_components")


def _smallest_real_rep(cls: MatrixAlgebraClass) -> int:
    """Real dimension of the smallest real representation of the algebra
    (one summand of it, for direct sums)."""
    return cls.size * _RING_DIM[cls.ring]


def spinor_taxonomy(n: int) -> SpinorProfile:
    """Which spinor kinds exist in an n-dimensional spacetime of signature
    (n-1, 1), and the smallest real component count among them."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    dirac_c = 1 << (n // 2)

    # Majorana condition: the Lorentzian Clifford algebra, in one of the two
    # metric conventions, acts irreducibly on a real vector space of half
    # the Dirac real dimension
    majorana = False
    for p, q in ((n - 1, 1), (1, n - 1)):
        if p >= 0 and q >= 0 and _smallest_real_rep(_classify_raw(p, q)) == dirac_c:
            majorana = True

    weyl = n % 2 == 0
    majorana_weyl = n % 8 == 2
    return SpinorProfile(
        n=n,
        dirac_complex_dim=dirac_c,
        majorana=majorana,
        weyl=weyl,
        majorana_weyl=majorana_weyl,
        minimal_real_components=min(admissible_real_dims(
            dirac_c, majorana, weyl, majorana_weyl)),
    )


def admissible_real_dims(dirac_c: int, majorana: bool, weyl: bool,
                         majorana_weyl: bool) -> Set[int]:
    """Real component counts of the spinor kinds that exist: Dirac always,
    then Majorana and Weyl at half, Majorana-Weyl at a quarter."""
    dims = {2 * dirac_c}
    if majorana:
        dims.add(dirac_c)
    if weyl:
        dims.add(dirac_c)
    if majorana_weyl:
        dims.add(dirac_c // 2)
    return dims


def super_ym_dims(lo: int, hi: int) -> Set[int]:
    """Dimensions where some admissible spinor kind has exactly 2(n-2) real
    components, the balance needed to pair a vector with a spinor.

    Every admissible count is at least 2^(n//2 - 1), a quarter of the Dirac
    real dimension. That bound first exceeds 2(n-2) at n = 12 and stays
    above it, since each step of n//2 doubles the bound and adds at most 4
    to 2(n-2); so the scan stops at the first n where it does, whatever hi is.
    """
    if not 3 <= lo <= hi:
        raise ValueError("need 3 <= lo <= hi")
    out = set()
    for n in range(lo, hi + 1):
        if 1 << (n // 2 - 1) > 2 * (n - 2):
            break
        prof = spinor_taxonomy(n)
        dims = admissible_real_dims(prof.dirac_complex_dim, prof.majorana,
                                    prof.weyl, prof.majorana_weyl)
        if 2 * (n - 2) in dims:
            out.add(n)
    return out
