"""Exact integral-lattice machinery.

Named constructions (A_n, D_n, E6, E7, E8, D16+, the Leech lattice two ways),
integrality and unimodularity tests, dual lattices, LLL reduction, exact
short-vector counts of every positive-definite lattice and theta series of
the even ones, plus the Lorentzian lattices II_{8k+1,1} (`ii_lattice`) and
their Weyl vectors.

Bases and Grams are rational, but a `Lattice` holds them in integers: its
basis rows over their least positive denominator, and its Gram as a scale
times the primitive Gram (the Gram divided by its content, the gcd of its
entries). Every query runs on that data in integer arithmetic only; the
Fractions are made for output. LLL and Gram-Schmidt are fraction-free
(leading minors d and scaled coefficients lam = d mu), and the enumerator
takes each coordinate's window as an integer square root over that same
data, so a window holds exactly the coordinates that keep the norm within
the bound. Counts are exact for every positive-definite Gram, whatever the
size of its entries; no floating point is used. Counts come from a search
that goes level by level and merges equal partial states; listing vectors
walks the search tree depth first. Every search runs in the calling
process. A count-only query first tests the primitive Gram as
stored: when it is even unimodular of rank n, the query searches it only
up to norm 2 * (n // 24) and reads the higher counts off the modular forms
E4^a Delta^b, so below rank 24 it neither reduces nor searches. Otherwise
the Gram is LLL-reduced once, and a reduced Gram whose nonzero pattern
falls into several blocks is counted one block at a time, and the counts
of the orthogonal sum are convolved from theirs. LLL reads its reduced
Gram back from its Gram-Schmidt data.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import hypercomplex, intlinalg
from .exactnum import (GoldenRational, LaurentSeries, Value, rat,
                       read_integer, read_rational, shared_fractions)
# invert_fraction is unused here but stays bound: bench/tracing.py wraps it
from .intlinalg import (clear_denominators, det_fraction, invert_fraction,
                        left_kernel, solve_left)

EUCLIDEAN = "euclidean"
LORENTZIAN = "lorentzian"

_SIGNATURES = (EUCLIDEAN, LORENTZIAN)

DEFAULT_LLL_DELTA = Fraction(99, 100)


class LatticeError(ValueError):
    """Domain error raised by lattice operations."""


class LatticeConstructionError(LatticeError):
    """A construction could not deliver its promised lattice.

    Carries whatever partial data makes the failure auditable (typically the
    raw Gram matrix before any rescaling attempt).
    """

    def __init__(self, message: str, **payload):
        super().__init__(message)
        for key, value in payload.items():
            setattr(self, key, value)


class Lattice(Value):
    """A lattice given by basis rows in an ambient bilinear space.

    ``signature`` names the ambient form: the identity for ``euclidean``,
    diag(-1, +1, ..., +1) with the first coordinate timelike for
    ``lorentzian``. The basis is ``rows`` / ``den`` over the least positive
    denominator; the Gram, derived from the basis and the form, is ``scale``
    times ``prim_gram``, whose integer entries have gcd 1 (or are all 0), and
    ``scale`` is an int exactly when the Gram is integral. ``basis`` and
    ``gram`` are their Fraction views, made on each read.
    """

    __slots__ = ("ambient_dim", "rank", "rows", "den", "signature",
                 "prim_gram", "scale")

    def __init__(self, ambient_dim: int, rank: int,
                 basis: Tuple[Tuple[Fraction, ...], ...],
                 signature: str = EUCLIDEAN):
        b, s = clear_denominators([[rat(v) for v in row] for row in basis])
        self._set_ints(ambient_dim, rank, b, s, signature)

    @classmethod
    def _from_ints(cls, ambient_dim: int, rank: int,
                   rows: Sequence[Sequence[int]], den: int,
                   signature: str = EUCLIDEAN) -> "Lattice":
        """The lattice with basis rows / den, for integer rows and den > 0."""
        lat = object.__new__(cls)
        lat._set_ints(ambient_dim, rank, rows, den, signature)
        return lat

    def _set_ints(self, ambient_dim, rank, b, s, signature) -> None:
        # the one construction path, for `Lattice(...)` (its rows cleared)
        # and `_from_ints` alike: basis b / s with b integer and s > 0
        if signature not in _SIGNATURES:
            raise LatticeError(f"unknown signature {signature!r}")
        if len(b) != rank:
            raise LatticeError("rank does not match the number of basis rows")
        if rank < 1 or rank > ambient_dim:
            raise LatticeError("rank must satisfy 1 <= rank <= ambient_dim")
        if any(len(row) != ambient_dim for row in b):
            raise LatticeError("basis row length differs from ambient_dim")
        c = math.gcd(s, *(v for row in b for v in row))
        b, s = [[v // c for v in row] for row in b], s // c
        # the Gram is g / s^2 for the integer products g of the rows b; the
        # plain products b b^T are positive definite exactly when the rows
        # are independent, and under the identity form they are g itself
        g = [[0] * rank for _ in range(rank)]
        for i, r in enumerate(b):
            gi = g[i]
            for j in range(i + 1):
                gi[j] = g[j][i] = sum(map(operator.mul, r, b[j]))
        if _int_gso(g)[0][-1] <= 0:
            raise LatticeError("basis rows are linearly dependent")
        if signature == LORENTZIAN:
            g = [[v - 2 * r[0] * t[0] for v, t in zip(row, b)]
                 for row, r in zip(g, b)]
        # g / s^2 = (c / s^2) (g / c); a zero Gram is integral, with scale 1
        c = math.gcd(*(v for row in g for v in row)) or s * s
        q, r = divmod(c, s * s)
        Value.__init__(self, ambient_dim, rank, tuple(map(tuple, b)), s,
                       signature, tuple(tuple(v // c for v in x) for x in g),
                       Fraction(c, s * s) if r else q)

    basis = property(lambda self: _fraction_view(self.rows, 1, self.den))
    gram = property(lambda self: _fraction_view(
        self.prim_gram, *self.scale.as_integer_ratio()))

    def form_dot(self, a: Sequence, b: Sequence) -> Fraction:
        """Ambient bilinear form applied to two coordinate vectors."""
        av = [rat(x) for x in a]
        bv = [rat(x) for x in b]
        if len(av) != self.ambient_dim or len(bv) != self.ambient_dim:
            raise LatticeError("vector length differs from ambient_dim")
        s = sum(x * y for x, y in zip(av, bv))
        if self.signature == LORENTZIAN:
            s -= 2 * av[0] * bv[0]
        return s


def _fraction_view(m: Sequence[Sequence[int]], p: int, q: int):
    """The integer matrix m p / q as Fractions, one per distinct entry."""
    frac = shared_fractions((p * v for row in m for v in row), q)
    return tuple(tuple(frac[p * v] for v in row) for row in m)


def is_positive_definite(lat: Lattice) -> bool:
    """Whether the induced Gram is positive definite.

    Euclidean-signature lattices always are (enforced at construction); a
    lattice coordinatized in a Lorentzian ambient may still induce a positive
    definite form on its span, and every Euclidean-only operation here gates
    on this property rather than on the signature label.
    """
    if lat.signature == EUCLIDEAN:
        return True
    # Sylvester's criterion: every leading principal minor is positive
    return _int_gso(lat.prim_gram)[0][-1] > 0


def is_integral(lat: Lattice) -> bool:
    return type(lat.scale) is int


def is_even(lat: Lattice) -> bool:
    return is_integral(lat) and not any(
        lat.scale * lat.prim_gram[i][i] % 2 for i in range(lat.rank))


def gram_determinant(lat: Lattice) -> Fraction:
    return det_fraction(lat.prim_gram) * lat.scale ** lat.rank


def is_unimodular(lat: Lattice) -> bool:
    return abs(gram_determinant(lat)) == 1


def lattice_contains(lat: Lattice, vector: Sequence) -> bool:
    """Exact membership of an ambient coordinate vector."""
    v = [rat(x) for x in vector]
    if len(v) != lat.ambient_dim:
        raise LatticeError("vector length differs from ambient_dim")
    return _spans(lat, *clear_denominators([v]))


def _spans(lat: Lattice, m: Sequence[Sequence[int]], t: int) -> bool:
    # w / t lies in rows / den exactly when den w lies in the span of t rows,
    # that is, when adding it leaves the span's Hermite form unchanged
    h = intlinalg.hnf([[t * x for x in row] for row in lat.rows])
    return intlinalg.hnf(h + [[lat.den * x for x in w] for w in m]) == h


def _check_comparable(a: Lattice, b: Lattice) -> None:
    for attr in ("ambient_dim", "signature"):
        if getattr(a, attr) != getattr(b, attr):
            raise LatticeError(f"{attr} differs between the lattices")


def sublattice_of(inner: Lattice, outer: Lattice) -> bool:
    _check_comparable(inner, outer)
    return _spans(outer, inner.rows, inner.den)


def same_lattice(a: Lattice, b: Lattice) -> bool:
    """Point-set equality. The Hermite form of a lattice's integer rows is
    unique for the lattice, and den, the least d with d L in Z^n, is too."""
    _check_comparable(a, b)
    return a.den == b.den and intlinalg.hnf(a.rows) == intlinalg.hnf(b.rows)


def dual_lattice(lat: Lattice) -> Lattice:
    """Dual basis in the same span, via the Gram inverse."""
    # with the Gram (p / q) P and (v, d) the integer inverse of P, the dual
    # basis G^-1 B is q v rows / (p d den)
    p, q = lat.scale.as_integer_ratio()
    try:
        v, d = intlinalg.invert_int(lat.prim_gram)
    except ZeroDivisionError:
        raise LatticeError("singular Gram matrix has no dual basis") from None
    rows = intlinalg.matmul([[q * x for x in row] for row in v], lat.rows)
    return Lattice._from_ints(lat.ambient_dim, lat.rank, rows, p * d * lat.den,
                              signature=lat.signature)


# ---------------------------------------------------------------------------
# named constructions

def build_An(n: int) -> Lattice:
    """Integer vectors in R^{n+1} with coordinate sum zero."""
    if n < 1:
        raise LatticeError("A_n needs n >= 1")
    rows = []
    for i in range(n):
        r = [0] * (n + 1)
        r[i], r[i + 1] = 1, -1
        rows.append(r)
    return Lattice._from_ints(n + 1, n, rows, 1)


def _dn_rows(n: int) -> List[List[int]]:
    rows = [[1, 1] + [0] * (n - 2)]
    for i in range(n - 1):
        r = [0] * n
        r[i], r[i + 1] = 1, -1
        rows.append(r)
    return rows


def build_Dn(n: int) -> Lattice:
    """Integer vectors in R^n with even coordinate sum."""
    if n < 2:
        raise LatticeError("D_n needs n >= 2")
    return Lattice._from_ints(n, n, _dn_rows(n), 1)


def _dn_plus(n: int) -> Lattice:
    """D_n and the all-halves glue vector, on the Hermite form basis."""
    gens = [[2 * v for v in row] for row in _dn_rows(n)] + [[1] * n]
    return Lattice._from_ints(n, n, intlinalg.hnf(gens), 2)


def build_E8() -> Lattice:
    """Vectors with all-integer or all-half-integer coordinates and even sum."""
    return _dn_plus(8)


def build_D16plus() -> Lattice:
    """The even-sum integer/half-integer construction in 16 dimensions."""
    return _dn_plus(16)


def _e8_roots(e8: Lattice, caller: str) -> List[Tuple[int, ...]]:
    """E8's roots as integer rows over e8.den, in the listing's order, which
    is by coordinates alone: every nonzero vector of norm <= 2 is a root."""
    if e8.rank != 8 or not (is_even(e8) and is_unimodular(e8)):
        raise LatticeError(f"{caller} expects the rank-8 even unimodular "
                           "lattice as input")
    return [v for _, v in _short_vector_rows(e8, 2)]


def _complement(lat: Lattice, conditions: Sequence[Sequence[int]],
                what: str) -> List[List[int]]:
    """Integer rows, over lat.den, of a basis of the vectors of lat that the
    form makes orthogonal to each integer vector in conditions, or to any
    positive multiple of it: scaling a pairing column keeps the kernel."""
    c = conditions
    if lat.signature == LORENTZIAN:
        c = [[-v[0], *v[1:]] for v in c]
    kern = left_kernel(intlinalg.matmul(lat.rows, list(zip(*c))))
    rank = lat.rank - len(conditions)
    if len(kern) != rank:
        raise LatticeConstructionError(
            f"{what}: kernel rank {len(kern)}, expected {rank}")
    return intlinalg.matmul(kern, lat.rows)


def build_E7(e8: Lattice) -> Lattice:
    """Orthogonal complement in E8 of its lexicographically least root."""
    v = _e8_roots(e8, "build_E7")[0]
    return Lattice._from_ints(e8.ambient_dim, 7, _complement(e8, [v], "E7"),
                              e8.den, signature=e8.signature)


def build_E6(e8: Lattice) -> Lattice:
    """Orthogonal complement in E8 of an explicit A2 root pair."""
    roots = _e8_roots(e8, "build_E6")
    v1 = roots[0]
    # r + v1 is listed exactly when r.v1 = -1: |r + v1|^2 = 4 + 2 r.v1
    listed = set(roots)
    v2 = next((r for r in roots
               if tuple(map(operator.add, r, v1)) in listed), None)
    if v2 is None:
        raise LatticeConstructionError(
            "E6: no root meets the chosen one at inner product -1; "
            "the input cannot be E8")
    return Lattice._from_ints(e8.ambient_dim, 6,
                              _complement(e8, [v1, v2], "E6"), e8.den,
                              signature=e8.signature)


def direct_sum(*lattices: Lattice) -> Lattice:
    """Orthogonal direct sum, with the components' bases in diagonal blocks."""
    if len(lattices) < 2:
        raise LatticeError("direct_sum needs at least two lattices")
    if any(l.signature != EUCLIDEAN for l in lattices):
        raise LatticeError("direct_sum is defined for euclidean lattices")
    ambient = sum(l.ambient_dim for l in lattices)
    s = math.lcm(*(l.den for l in lattices))
    rows: List[List[int]] = []
    offset = 0
    for l in lattices:
        pad = ambient - offset - l.ambient_dim
        rows += ([0] * offset + [v * (s // l.den) for v in row] + [0] * pad
                 for row in l.rows)
        offset += l.ambient_dim
    return Lattice._from_ints(ambient, len(rows), rows, s)


# ---------------------------------------------------------------------------
# LLL reduction (exact, Gram-based, with the unimodular transform)

def _int_gso(g: Sequence[Sequence[int]]):
    """Fraction-free Gram-Schmidt data (d, lam) of a symmetric int matrix.

    d[0] = 1 and d[i+1] = d[i] |b*_i|^2, so d[i] is the leading principal
    minor of order i, and lam[i][j] = d[j+1] mu[i][j] for j < i. Both are
    integers and every division is exact (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7). Stops after the first d[i+1] <= 0,
    so the matrix is positive definite exactly when d[-1] > 0.
    """
    n = len(g)
    d = [1]
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        li = lam[i]
        for j in range(i + 1):
            lj = lam[j]
            s = g[i][j]
            for t in range(j):
                s = (d[t + 1] * s - li[t] * lj[t]) // d[t]
            if j < i:
                li[j] = s
        d.append(s)
        if s <= 0:
            break
    return d, lam


def _lll_gram(g0: Sequence[Sequence[int]], delta: Fraction, gso=None):
    """LLL on a positive-definite int Gram matrix, in integers only.

    Returns (g, u, gso) where u is unimodular, g = u g0 u^T is the reduced
    Gram and gso = (d, lam) is `_int_gso(g)`. The argument ``gso`` is
    `_int_gso(g0)` when the caller already holds it; it is updated in place.
    That data is kept up to date through every size reduction and swap with
    exact divisions (Cohen, Alg. 2.6.7), so each decision is the one
    rational LLL takes with mu[i][j] = lam[i][j]/d[j+1] and
    |b*_i|^2 = d[i+1]/d[i]. No decision reads the Gram itself, and the data
    determine it, so g is read back from them at the end by undoing
    `_int_gso`'s exact steps. Works entirely on the Gram; callers holding a
    basis apply u themselves.
    """
    n = len(g0)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d, lam = gso or _int_gso(g0)
    if d[-1] <= 0:
        raise LatticeError("Gram matrix is not positive definite")
    p, q = delta.numerator, delta.denominator

    def red(k: int, l: int) -> None:
        # called when |mu[k][l]| > 1/2, that is 2 |lam[k][l]| > d[l+1]:
        # b_k -= r b_l with r the nearest integer to mu[k][l], ties rounded
        # away from zero (3/2 -> 2, -3/2 -> -2)
        lk, dl = lam[k], d[l + 1]
        r = (2 * abs(lk[l]) + dl) // (2 * dl)
        if lk[l] < 0:
            r = -r
        u[k] = [x - r * y for x, y in zip(u[k], u[l])]
        lk[l] -= r * dl
        ll = lam[l]
        for t in range(l):
            lk[t] -= r * ll[t]

    k = 1
    while k < n:
        lk = lam[k]
        if 2 * abs(lk[k - 1]) > d[k]:
            red(k, k - 1)
        m = lk[k - 1]
        # Lovasz: |b*_k|^2 < (delta - mu^2) |b*_{k-1}|^2, times q d[k-1] d[k]
        if q * (d[k + 1] * d[k - 1] + m * m) < p * d[k] * d[k]:
            # swap rows k-1 and k everywhere, then repair (d, lam)
            u[k - 1], u[k] = u[k], u[k - 1]
            lk1 = lam[k - 1]
            lk1[:k - 1], lk[:k - 1] = lk[:k - 1], lk1[:k - 1]
            b = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, n):
                li = lam[i]
                t = li[k]
                li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
                li[k - 1] = (b * t + m * li[k]) // d[k + 1]
            d[k] = b
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                if 2 * abs(lk[l]) > d[l + 1]:
                    red(k, l)
            k += 1
    # g from (d, lam): _int_gso's step s -> (d[t+1] s - lam[i][t] lam[j][t])
    # // d[t], run backwards from lam[i][j] (d[i+1] on the diagonal)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        li, gi = lam[i], g[i]
        for j in range(i + 1):
            lj = lam[j]
            s = li[j] if j < i else d[i + 1]
            for t in range(j - 1, -1, -1):
                s = (d[t] * s + li[t] * lj[t]) // d[t + 1]
            gi[j] = g[j][i] = s
    return g, u, (d, lam)


def lll_reduce(lat: Lattice, delta: Fraction = DEFAULT_LLL_DELTA) -> Lattice:
    """Exact LLL reduction of the basis; the lattice itself is unchanged.

    The transform is verified unimodular before the new lattice is returned.
    """
    delta = rat(delta)
    if not (Fraction(1, 4) < delta < 1):
        raise LatticeError("delta must lie strictly between 1/4 and 1")
    _, u, _ = _lll_gram(lat.prim_gram, delta,
                        _definite_gso(lat, "lll_reduce"))
    if abs(det_fraction(u)) != 1:
        raise LatticeConstructionError("LLL transform lost unimodularity")
    return Lattice._from_ints(lat.ambient_dim, lat.rank,
                              intlinalg.matmul(u, lat.rows), lat.den,
                              signature=lat.signature)


# ---------------------------------------------------------------------------
# short-vector enumeration
#
# Fincke-Pohst on an LLL-reduced integer Gram, in integers only, over the
# fraction-free Gram-Schmidt data (d, lam) of `_int_gso` (Fincke-Pohst 1985;
# Cohen, Alg. 2.6.7). With C_i = sum_{j > i} lam[j][i] x_j and
# w_i = d[i+1] x_i + C_i, a vector's norm is the sum of
# w_i^2 / (d[i] d[i+1]). Write E_i for d[i+1] times the part of that sum
# over the levels above i, so E_top = 0. Level i then admits exactly the x_i
# with w_i^2 <= d[i] (bound d[i+1] - E_i), an integer window taken with
# isqrt, and the next level gets E_{i-1} = (d[i] E_i + w_i^2) // d[i+1]. That
# division is exact, because d[i] times the squared length of a lattice
# vector projected away from b_0, ..., b_{i-1} is a Gram determinant; and
# since d[0] = 1, E_{-1} is the norm itself. No vector outside the bound is
# visited and none inside it is missed, at any size of the Gram entries.
# Only one representative of each +-v pair is visited (its top nonzero
# coordinate is positive), and each is counted twice. E_i == 0 holds exactly
# when every coordinate above i is zero.
#
# Counts come from merged states. What a level r sees of the coordinates
# above it is its state: E_r and the centers C_0, ..., C_r summed over those
# coordinates so far. Equal states have equal subtrees, and on root lattices
# most of the tree repeats (D12 to norm 4: 8,081 window entries, 109
# states), so `_enumerate_int_gram` goes level by level with a frontier
# {state: multiplicity} in which equal children merge. Listing needs every
# vector, so `_list_int_gram` walks the tree depth first instead, keeping
# Schnorr-Euchner partial sums for the C_i and rebuilding only the entries
# whose coordinates changed, so a node costs amortised O(1) (Schnorr-Euchner
# 1994).

# the most states a level's frontier holds: a full one is finished down to
# the leaves before the level above goes on, so memory stays bounded at any
# bound (D4 to norm 20000 reaches 590,067 states at its last level)
_FRONTIER_CAP = 1 << 18


def _enumerate_int_gram(g: Sequence[Sequence[int]], bound: int,
                        gso=None) -> Dict[int, int]:
    """Counts {norm: count} of the x with 0 < x g x^T <= bound over an
    LLL-reduced positive-definite int Gram g, by merged states. ``gso`` is
    `_int_gso(g)` when the caller already holds it.

    A state is one int: C_j + 2^(K-1) in the K-bit slot j, E_r above the
    slots. Every visited x_k and every partial sum of C_k obey the
    Fincke-Pohst bounds |x_k| <= X_k (``xs``) and |C_k| <= M_k (``m``)
    computed below, since each visited w_k has w_k^2 <= d[k] d[k+1] bound.
    With K one bit wider than the largest M_k, |C_k| < 2^(K-1) and no slot
    overflows, so a child is the parent's lower slots plus x_r P_r, with
    P_r = sum_{j<r} lam[r][j] 2^(jK), and its E shifted in.
    """
    d, lam = gso or _int_gso(g)
    n = len(d) - 1
    counts: Dict[int, int] = {}
    if bound <= 0:
        return counts
    isqrt = math.isqrt
    xs = [0] * n
    most = 0
    for k in range(n - 1, -1, -1):
        m = sum(abs(lam[i][k]) * xs[i] for i in range(k + 1, n))
        xs[k] = (isqrt(d[k] * d[k + 1] * bound) + m) // d[k + 1]
        most = max(most, m)
    K = most.bit_length() + 1
    bias, mask = 1 << (K - 1), (1 << K) - 1
    P = [sum(lam[r][j] << (j * K) for j in range(r)) for r in range(n)]

    def finish(r: int, frontier: Dict[int, int]) -> None:
        # every state of the frontier entering level r, down to the leaves;
        # the frontier is emptied before the last chunk goes down, so the
        # levels above hold no states that are done
        dl, dr = d[r], d[r + 1]
        room = bound * dr
        shift = r * K
        if not r:
            # d[0] = 1, so the norm is (E_0 + w^2) // d[1], stepped along
            # the window; x = 0 is not counted
            for s, m in frontier.items():
                e, c = s >> K, (s & mask) - bias
                t = isqrt(room - e)
                a = -((t + c) // dr) if e else 1
                w = dr * a + c
                nv = (e + w * w) // dr
                for _ in range(a, (t - c) // dr + 1):
                    counts[nv] = counts.get(nv, 0) + 2 * m
                    nv += 2 * w + dr
                    w += dr
            return
        p, low, cap = P[r], (1 << shift) - 1, _FRONTIER_CAP
        out: Dict[int, int] = {}
        for s, m in frontier.items():
            e, c = s >> (shift + K), ((s >> shift) & mask) - bias
            t = isqrt(dl * (room - e))
            a = -((t + c) // dr) if e else 0
            w = dr * a + c
            key = (s & low) + a * p
            for _ in range(a, (t - c) // dr + 1):
                child = key + ((dl * e + w * w) // dr << shift)
                out[child] = out.get(child, 0) + m
                if len(out) >= cap:
                    finish(r - 1, out)
                    out = {}
                w += dr
                key += p
        frontier.clear()
        if out:
            finish(r - 1, out)

    finish(n - 1, {sum(bias << (j * K) for j in range(n)): 1})
    return counts


def _list_int_gram(g: Sequence[Sequence[int]], bound: int,
                   gso=None) -> List[Tuple[int, Tuple[int, ...]]]:
    """(norm, coefficient tuple) of one representative of each +-x pair with
    0 < x g x^T <= bound over an LLL-reduced positive-definite int Gram g,
    depth first. ``gso`` is `_int_gso(g)` when the caller already holds it.
    """
    d, lam = gso or _int_gso(g)
    n = len(d) - 1
    found: List[Tuple[int, Tuple[int, ...]]] = []
    if bound <= 0:
        return found
    top = n - 1
    isqrt = math.isqrt
    room = [bound * d[k + 1] for k in range(n)]
    col = [[lam[j][k] for j in range(n)] for k in range(n)]

    x = [0] * n
    hi = [-1] * n
    es = [0] * n                  # E_i at each level
    cs = [0] * n                  # C_i at each level
    # Row i of S holds at j > i the partial sum over k >= j of
    # lam[k][i] x[k], so S[i][i+1] = C_i. Entries i+1 .. stale[i] must be
    # rebuilt before row i is read again.
    S = [[0] * (n + 1) for _ in range(n)]
    stale = list(range(n))

    # start by entering the top row; hi[top] = -1 ends the search at once
    # if its window is empty
    i = top
    r, h, e = top, top, 0
    while True:
        # enter row r: rebuild its stale partial sums, then take its window
        Sr = S[r]
        if h > r:
            lr = col[r]
            for j in range(h, r, -1):
                Sr[j] = Sr[j + 1] + lr[j] * x[j]
            if r and stale[r - 1] < h:
                stale[r - 1] = h
            stale[r] = r
        c = Sr[r + 1]
        dr = d[r + 1]
        s = isqrt(d[r] * (room[r] - e))
        a = -((s + c) // dr) if e else (0 if r else 1)  # x = 0 is not listed
        b = (s - c) // dr
        if a <= b:
            if r:
                es[r], cs[r] = e, c
                x[r], hi[r] = a - 1, b
                i = r
            else:
                # the last level: d[0] = 1 and d[1] = g[0][0], so the norm
                # is (E_0 + w^2) // d[1], stepped along the window
                w = dr * a + c
                nv = (e + w * w) // dr
                for v in range(a, b + 1):
                    x[0] = v
                    found.append((nv, tuple(x)))
                    nv += 2 * w + dr
                    w += dr
        # move to the next value, backtracking as needed
        v = x[i] + 1
        while v > hi[i]:
            i += 1
            if i > top:
                return found
            v = x[i] + 1
        x[i] = v
        w = d[i + 1] * v + cs[i]
        e = (d[i] * es[i] + w * w) // d[i + 1]
        r = i - 1
        h = stale[r] if stale[r] > i else i


def _definite_gso(lat: Lattice, what: str = "a lattice count"):
    """`_int_gso` of the primitive Gram. Raises LatticeError "<what> needs a
    positive-definite Gram" unless it is positive definite."""
    gso = _int_gso(lat.prim_gram)
    if gso[0][-1] <= 0:
        raise LatticeError(f"{what} needs a positive-definite Gram")
    return gso


def _reduced(lat: Lattice, what: str = "a lattice count"):
    """LLL on the primitive Gram: (reduced Gram, transform, scale, its
    `_int_gso` data); callers count up to bound // scale and scale the norms
    back. Raises LatticeError "<what> needs a positive-definite Gram"."""
    gr, u, gso = _lll_gram(lat.prim_gram, DEFAULT_LLL_DELTA,
                           _definite_gso(lat, what))
    return gr, u, lat.scale, gso


def _components(g: Sequence[Sequence[int]]) -> List[List[int]]:
    """Index sets of the connected components of the nonzero pattern of a
    symmetric matrix, each sorted, in the order of their least index."""
    n = len(g)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [], [s]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j, v in enumerate(g[i]):
                if v and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        out.append(sorted(comp))
    return out


def _norm_counts(g: Sequence[Sequence[int]], bound: Optional[int],
                 gso=None, reduce: bool = False) -> Dict[int, int]:
    """Counts {norm: count} of the nonzero vectors with norm <= bound over a
    positive-definite primitive Gram g, as `_enumerate_int_gram` gives them.
    ``gso`` is `_int_gso(g)` when the caller already holds it, and may be
    updated in place. g is LLL-reduced, unless ``reduce`` is set: then it is
    reduced here, from gso, only when a search or a block split follows. A
    bound of None counts up to a norm that the minimum cannot exceed.

    When g is even unimodular of rank n (an even diagonal, and `_int_gso`
    ending in d[-1] == 1), its theta series is fixed by the counts up to
    norm 2 * (n // 24) (`modular.even_unimodular_theta`), so only those are
    counted (nothing below rank 24, so g is not reduced there) and every
    higher count is read off E4^a Delta^b. Its minimum is at most
    2 * (n // 24) + 2 (Siegel; Mallows-Odlyzko-Sloane, J. Algebra 36, 1975),
    the norm that a bound of None counts up to.

    Otherwise a bound of None is the least diagonal entry of the reduced
    Gram, and when the nonzero pattern of that Gram has several connected
    components, the basis splits into mutually orthogonal blocks and the
    lattice is their orthogonal sum, whose theta series is the product of
    theirs. Each block, divided by its own content c, is counted up to
    bound // c by this function as it is (so every even unimodular block
    takes the route above), and the counts are convolved up to the bound.
    The other blocks are orthogonal to a block, so it keeps its
    Gram-Schmidt data from g and stays reduced. A single component is
    enumerated whole.
    """
    if bound is not None and bound <= 0:
        return {}
    n = len(g)
    head = n // 24
    if ((bound is None or bound > 2 * head)
            and not any(g[i][i] % 2 for i in range(n))):
        gso = gso or _int_gso(g)
        if gso[0][-1] == 1:
            # modular imports this module, so the solver is imported at
            # call time
            from .modular import even_unimodular_theta
            counts = _norm_counts(g, 2 * head, gso, reduce)
            theta = even_unimodular_theta(
                n, [1] + [counts.get(2 * k, 0) for k in range(1, head + 1)],
                head + 1 if bound is None else bound // 2)
            return {2 * k: t for k, t in enumerate(theta) if k and t}
    if reduce:
        g, _, gso = _lll_gram(g, DEFAULT_LLL_DELTA, gso)
    if bound is None:
        bound = min(g[i][i] for i in range(n))
    blocks = _components(g)
    if len(blocks) == 1:
        return _enumerate_int_gram(g, bound, gso=gso)
    total = {0: 1}
    for idx in blocks:
        block = [[g[i][j] for j in idx] for i in idx]
        c = math.gcd(*(v for row in block for v in row))
        part = _norm_counts([[v // c for v in row] for row in block],
                            bound // c)
        part = {0: 1, **{c * k: v for k, v in part.items()}}
        prod: Dict[int, int] = {}
        for a, x in total.items():
            for b, y in part.items():
                if a + b <= bound:
                    prod[a + b] = prod.get(a + b, 0) + x * y
        total = prod
    del total[0]
    return total


def short_vectors(lat: Lattice, max_norm: int, gso=None) -> Dict[int, int]:
    """Exact counts of nonzero lattice vectors with norm <= max_norm.

    The map omits norms with zero count; a rational Gram gives Fraction
    norms. Deterministic: the search runs in one process, in a fixed order.
    A lattice whose Gram divided by its content is even unimodular of rank n
    is enumerated only up to that content times 2 * (n // 24), so below rank
    24 not at all and without LLL; its higher counts come from its theta
    series as a modular form. Any other lattice is LLL-reduced once, and
    when its reduced Gram splits into orthogonal blocks it is counted block
    by block, whatever its basis (`_norm_counts`). ``gso`` is
    `_definite_gso(lat)` when the caller already holds it.
    """
    if not isinstance(max_norm, int) or max_norm < 0:
        raise LatticeError("max_norm must be a nonnegative integer")
    c = lat.scale
    counts = _norm_counts(lat.prim_gram, max_norm // c,
                          gso or _definite_gso(lat, "short_vectors"),
                          reduce=True)
    return {c * k: counts[k] for k in sorted(counts)}


def _short_vector_rows(lat: Lattice, max_norm: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """`short_vector_list` with each vector v as the integer row lat.den v;
    den > 0, so sorting the rows sorts the coordinates."""
    if not isinstance(max_norm, int) or max_norm < 0:
        raise LatticeError("max_norm must be a nonnegative integer")
    gr, u, c, gso = _reduced(lat, "short_vector_list")
    found = _list_int_gram(gr, max_norm // c, gso)
    cols = list(zip(*intlinalg.matmul(u, lat.rows)))
    out = []
    for nrm, coeffs in found:
        amb = tuple(sum(map(operator.mul, coeffs, col)) for col in cols)
        out.append((c * nrm, amb))
        out.append((c * nrm, tuple(-v for v in amb)))
    return sorted(out)


def short_vector_list(lat: Lattice, max_norm: int) -> List[Tuple[int, Tuple[Fraction, ...]]]:
    """All nonzero vectors with norm <= max_norm as (norm, ambient coords).

    Both members of each +-v pair are returned; the list is sorted by norm
    and then lexicographically. Intended for small bounds (root systems).
    """
    out = _short_vector_rows(lat, max_norm)
    frac = shared_fractions((v for _, amb in out for v in amb), lat.den)
    return [(nrm, tuple(map(frac.__getitem__, amb))) for nrm, amb in out]


def _minimum(lat: Lattice, gso=None):
    """(minimal norm, kissing number) of a positive-definite lattice.

    On a primitive Gram that is even unimodular of rank n, counts up to
    Siegel's bound 2 * (n // 24) + 2 and takes the first nonzero theta
    coefficient, so below rank 24 nothing is reduced or enumerated and the
    Leech lattice is searched only up to norm 2. Any other lattice counts up
    to the least diagonal entry of its LLL-reduced Gram (`_norm_counts`).
    The norm is a Fraction unless the Gram is integral. Raises LatticeError
    if it is not positive definite. ``gso`` is `_definite_gso(lat)` when
    the caller already holds it.
    """
    counts = _norm_counts(lat.prim_gram, None, gso or _definite_gso(lat),
                          reduce=True)
    mn = min(counts)
    return lat.scale * mn, counts[mn]


def theta_series(lat: Lattice, order: int) -> LaurentSeries:
    """The theta series of an even lattice through q^order, whose coefficient
    of q^m counts the vectors of norm 2m.

    Takes the counts of `short_vectors` up to norm 2*order, so an even
    unimodular lattice of rank n is enumerated only up to norm 2 * (n // 24)
    and LLL-reduced only from rank 24 on, and an orthogonal sum is counted
    one component at a time and convolved (`_norm_counts`). The higher
    counts of an even unimodular lattice (or block) of rank 24 or more are
    read off eta24 through the order, so there an order above
    `modular.ETA24_LIMIT` raises its SeriesError; from rank 16 on, an order
    whose series products pair more terms than `modular.SERIES_PRODUCT_LIMIT`
    raises one too.
    """
    if not isinstance(order, int) or order < 0:
        raise LatticeError("order must be a nonnegative integer")
    if not is_even(lat):
        raise LatticeError("theta_series is defined for even lattices")
    counts = short_vectors(lat, 2 * order, _definite_gso(lat, "theta_series"))
    return LaurentSeries(0, (1,) + tuple(counts.get(2 * m, 0)
                                         for m in range(1, order + 1)))


# ---------------------------------------------------------------------------
# the even unimodular Lorentzian lattices II_{8k+1,1}

_II_DIMS = (10, 18, 26)


def _check_ii_dim(dim: int) -> None:
    if dim not in _II_DIMS:
        raise LatticeError(f"unsupported dimension {dim}; "
                           f"expected one of {_II_DIMS}")


def ii_lattice(dim: int) -> Lattice:
    """II_{dim-1,1} for dim 10, 18 or 26: the vectors whose coordinates are
    all integers or all half-integers with an even sum, under the Lorentzian
    form. The basis is the all-halves row (-1/2; 1/2, ..., 1/2) and then
    D_{dim-1} on the spacelike coordinates, held doubled over den 2."""
    _check_ii_dim(dim)
    rows = [[-1] + [1] * (dim - 1)] + [[0] + [2 * v for v in row]
                                       for row in _dn_rows(dim - 1)]
    return Lattice._from_ints(dim, dim, rows, 2, signature=LORENTZIAN)


def ii_member(vector: Sequence) -> bool:
    """Membership in II_{n-1,1}, for n the vector's length."""
    v = [rat(c) for c in vector]
    if len(v) not in _II_DIMS:
        raise LatticeError(f"unsupported length {len(v)}; "
                           f"expected one of {_II_DIMS}")
    return lattice_contains(ii_lattice(len(v)), v)


_WEYL_HEAD = {10: 28, 18: 46, 26: 70}


def weyl_vector(dim: int) -> Tuple[int, ...]:
    """The vectors (28,0,1..8), (46,0,1..16), (70,0,1..24)."""
    _check_ii_dim(dim)
    return (_WEYL_HEAD[dim],) + tuple(range(dim - 1))


def is_fundamental_root(r: Sequence, dim: int) -> bool:
    """Whether r, a vector of II_{dim-1,1}, has norm 2 and meets the Weyl
    vector of dim at -1. Raises LatticeError if r is not a member."""
    w = weyl_vector(dim)
    if len(r) != dim:
        raise LatticeError(f"vector has {len(r)} coordinates, expected {dim}")
    ii = ii_lattice(dim)
    if not lattice_contains(ii, r):
        raise LatticeError(f"vector is not a member of II_{{{dim - 1},1}}")
    return ii.form_dot(r, r) == 2 and ii.form_dot(r, w) == -1


def leech_from_ii26() -> Lattice:
    """The rank-24 quotient w-perp / Zw inside II_{25,1}.

    w is the lightlike Weyl vector (70,0,1,...,24). Its orthogonal sublattice
    S, taken in II_{25,1} by the complement step that gives E7 and E6, has
    rank 25 and contains w; w is isotropic and orthogonal to all of S, so the
    form descends to S/Zw. The result keeps the ambient Lorentzian
    coordinates (its rows are the non-w rows of a basis of S completed from
    w), and its Gram is positive definite, integral and even. Coordinates
    stay doubled, so in integers, until the quotient rows are halved.
    """
    ii = ii_lattice(26)
    w = [2 * v for v in weyl_vector(26)]

    # S's rows, doubled; w is isotropic, so it lies in S exactly when it
    # lies in II_{25,1}, and z gives its coefficients over S's rows
    s = _complement(ii, [w], "w-perp")
    z = solve_left(s, w)
    if z is None:
        raise LatticeConstructionError("w is not a lattice member")

    # complete z to a unimodular matrix with z as first row: if U z^T = e1
    # then the transpose of U^{-1} has first row z
    h, u = intlinalg.hnf_transform([[v] for v in z])
    if h[0][0] != 1:
        raise LatticeConstructionError("w is not primitive in w-perp")
    # u is unimodular, so its Hermite form is the identity and the
    # transform that reaches it is u^{-1}
    uinv = intlinalg.hnf_transform(u)[1]
    srows = intlinalg.matmul([list(col) for col in zip(*uinv)], s)
    if srows[0] != w:
        raise LatticeConstructionError("basis completion lost the w row")
    return Lattice._from_ints(26, 24, srows[1:], 2, signature=LORENTZIAN)


# ---------------------------------------------------------------------------
# icosian constructions

def _ring_mult_matrix(factor, side: str) -> List[Tuple[int, ...]]:
    """Matrix of s -> s*factor (side "right") or factor*s ("left") in ring
    coordinates: row i is the certificate of basis element i's image."""
    mul = hypercomplex.cd_mul
    images = (mul(b, factor) if side == "right" else mul(factor, b)
              for b in hypercomplex.icosian_basis())
    return [hypercomplex.to_icosian(q).certificate for q in images]


def _rescale_to_min_norm(raw: Lattice, target: int, what: str) -> Lattice:
    """Scale a lattice, in its own ambient form, so its minimal norm hits
    the target. Raise with the raw Gram when the norm factor is not a
    rational square, or when the scaled lattice is not even unimodular."""
    m = _minimum(raw)[0]
    factor = Fraction(target, m)
    p, q = math.isqrt(factor.numerator), math.isqrt(factor.denominator)
    if p * p != factor.numerator or q * q != factor.denominator:
        raise LatticeConstructionError(
            f"{what}: norm factor {factor} is not a rational square, so the "
            "rescaled lattice has no rational coordinates; raw Gram attached",
            raw_gram=raw.gram, min_norm=m, factor=factor)
    lat = Lattice._from_ints(raw.ambient_dim, raw.rank,
                             [[p * v for v in row] for row in raw.rows],
                             q * raw.den, raw.signature)
    if not (is_even(lat) and is_unimodular(lat)):
        raise LatticeConstructionError(
            f"{what}: rescaling the Gram by {factor} (minimal norm {m} -> "
            f"{target}) does not give an even unimodular matrix "
            f"(determinant after rescaling: {gram_determinant(lat)}); "
            "raw Gram attached", raw_gram=raw.gram, min_norm=m, factor=factor)
    return lat


def build_E8_from_icosians() -> Lattice:
    """The flat coordinate image of the icosian ring, rescaled to match E8.

    Each golden coordinate u + v sqrt5 contributes the pair (u, v); the ring's
    rank-8 integer basis is mapped through that splitting and the result is
    rescaled by the single global factor that makes the minimal norm 2.
    `_rescale_to_min_norm` refuses a result that is not even unimodular, and
    an even unimodular lattice of rank 8 is E8, the unique such lattice.
    """
    raw = Lattice(8, 8, tuple(hypercomplex.icosian_to_r8_raw(b)
                              for b in hypercomplex.icosian_basis()))
    return _rescale_to_min_norm(raw, 2, "icosian E8")


def _icosian_triple_lattice(side: str) -> Lattice:
    """The lattice of icosian triples with x = y = z mod h and
    x + y + z = 0 mod h-bar, embedded with the twisted norm: a quaternion
    norm a + b sqrt5 counts as a + b, which sending each golden coordinate
    u + v sqrt5 to (u + v, 2v) makes a plain dot product."""
    half = Fraction(1, 2)
    h = hypercomplex.hyper((
        GoldenRational(0, -half),            # the rational part is -sqrt5/2
        GoldenRational(half),
        GoldenRational(half),
        GoldenRational(half),
    ), hypercomplex.GOLDEN)
    H = _ring_mult_matrix(h, side)
    Hbar = _ring_mult_matrix(hypercomplex.cd_conj(h), side)

    # unknowns: ring coordinates of (x, y, z, s, t, u); equations state
    # x - y = s h, y - z = t h, x + y + z = u h-bar (or the left-handed
    # versions), eight coordinates each
    nv, ne = 48, 24
    A = [[0] * ne for _ in range(nv)]
    for i in range(8):
        A[i][i] = 1                      # x in eq1
        A[8 + i][i] = -1                 # -y in eq1
        A[8 + i][8 + i] = 1              # y in eq2
        A[16 + i][8 + i] = -1            # -z in eq2
        A[i][16 + i] = 1                 # x in eq3
        A[8 + i][16 + i] = 1             # y in eq3
        A[16 + i][16 + i] = 1            # z in eq3
        for j in range(8):
            A[24 + i][j] = -H[i][j]      # -s h in eq1
            A[32 + i][8 + j] = -H[i][j]  # -t h in eq2
            A[40 + i][16 + j] = -Hbar[i][j]
    kern = left_kernel(A)
    if len(kern) != 24:
        raise LatticeConstructionError(
            f"icosian triple lattice: kernel rank {len(kern)}, expected 24")
    emb8 = [[t for c in b.coords for t in (c.trace_value(), 2 * c.v)]
            for b in hypercomplex.icosian_basis()]
    # the ring coordinates of x, y and z are a kernel row's first 24 entries
    xyz = [k[i:i + 8] for k in kern for i in (0, 8, 16)]
    amb = intlinalg.matmul(xyz, emb8)
    rows = [amb[i] + amb[i + 1] + amb[i + 2] for i in range(0, 72, 3)]
    return Lattice(24, 24, rows)


def leech_from_icosians() -> Lattice:
    """Icosian triple construction of the Leech lattice (Wilson 1982;
    Conway-Sloane, SPLAG ch. 8 sec. 2).

    Each triple is measured with the twisted norm: the quaternion norm
    a + b sqrt5 of each coordinate counts as a + b, which the embedding
    u + v sqrt5 -> (u + v, 2v) realizes as a plain dot product. The
    congruence u = v mod h is read as u - v in I*h (multiples of h from the
    right). That lattice is already even unimodular with minimal norm 4, so
    the rescaling check passes with factor 1. The left-handed reading h*I
    (`_icosian_triple_lattice("left")`) is even unimodular with minimal
    norm 4 as well; the tests check it as an independent route.
    """
    return _rescale_to_min_norm(_icosian_triple_lattice("right"), 4,
                                "icosian Leech")


# ---------------------------------------------------------------------------
# registry, info report, text format

# on a 2-vCPU host `lattice_info` takes 2.0-3.1 s on D128 (three runs) and
# 29 s on D256 (one run), almost all of it the search for the 2n(n-1)
# roots, and the Gram of A<n> holds n^2 entries, so larger names are
# refused.
_MAX_NAMED_RANK = 128


# the fixed names, besides A<n> and D<n>, in the order that the usage text
# and the unknown-name message list them; each builder is looked up when the
# name is resolved, so a wrapped or replaced module function takes effect
NAMED_LATTICES = {
    "E6": lambda: build_E6(build_E8()),
    "E7": lambda: build_E7(build_E8()),
    "E8": lambda: build_E8(),
    "D16+": lambda: build_D16plus(),
    "3E8": lambda: direct_sum(*[build_E8()] * 3),
    "E8+D16+": lambda: direct_sum(build_E8(), build_D16plus()),
    "LeechII": lambda: leech_from_ii26(),
    "LeechIcosian": lambda: leech_from_icosians(),
}


def named_lattice(name: str) -> Lattice:
    """Resolve the names accepted by the command line tool."""
    if name in NAMED_LATTICES:
        return NAMED_LATTICES[name]()
    if name[:1] in ("A", "D") and name[1:].isascii() and name[1:].isdigit():
        n = int(name[1:])
        if n > _MAX_NAMED_RANK:
            raise LatticeError(f"{name} has rank {n}, above the cap of "
                               f"{_MAX_NAMED_RANK} for A<n> and D<n>")
        return build_An(n) if name[0] == "A" else build_Dn(n)
    *names, last = NAMED_LATTICES
    raise LatticeError(f"unknown lattice name {name!r}; expected A<n>, D<n>, "
                       f"{', '.join(names)} or {last}")


def lattice_info(lat: Lattice) -> dict:
    """Summary facts: rank, parity, unimodularity, minimum, kissing number.

    The minimum and kissing number are `_minimum`'s, for every lattice with
    a positive-definite Gram, and None otherwise. A positive-definite Gram's
    determinant is the last leading minor of its `_int_gso` data, so only
    any other Gram is eliminated by `gram_determinant`.
    """
    gso = _int_gso(lat.prim_gram)
    det = gso[0][-1]
    if det > 0:
        mn, kissing = _minimum(lat, gso)
        unimodular = abs(det * lat.scale ** lat.rank) == 1
    else:
        mn = kissing = None
        unimodular = is_unimodular(lat)
    return {
        "rank": lat.rank,
        "even": is_even(lat),
        "unimodular": unimodular,
        "min_norm": mn,
        "kissing": kissing,
    }


def format_lattice(lat: Lattice) -> str:
    lines = [f"{lat.rank} {lat.ambient_dim} {lat.signature}"]
    for row in lat.basis:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_lattice(text: str) -> Lattice:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise LatticeError("empty lattice description")
    head = lines[0].split()
    if len(head) != 3:
        raise LatticeError("first line must be: rank ambient signature")
    try:
        rank, ambient = read_integer(head[0]), read_integer(head[1])
    except ValueError:
        raise LatticeError("rank and ambient dimension must be integers")
    signature = head[2]
    if signature not in _SIGNATURES:
        raise LatticeError(f"unknown signature {signature!r}")
    if rank < 1 or rank > ambient:
        raise LatticeError("rank must satisfy 1 <= rank <= ambient_dim")
    if len(lines) != rank + 1:
        raise LatticeError(f"expected {rank} basis rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append(tuple(read_rational(tok) for tok in ln.split()))
        except ValueError:
            raise LatticeError(f"bad rational entry in row: {ln!r}")
    return Lattice(ambient, rank, tuple(rows), signature=signature)
