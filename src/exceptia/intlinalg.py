"""Integer and rational linear algebra used across the package.

One audited core: Hermite-style row reduction over the integers, in which
each row carries its row of the unimodular transform. Kernels, membership
certificates, sublattices and quotients are all phrased through it.
Rational matrices are cleared to integers once (`clear_denominators`):
determinants and inverses run fraction-free on the cleared matrix (Bareiss
elimination, every division exact), and products multiply the cleared
operands in ints. A `lattices.Lattice` holds its basis and Gram as integer
matrices with a denominator or a scale, so the lattice code calls the
integer cores (`invert_int`, `matmul` on ints) directly. The rule holds in
every exact kernel of the package, here and in the lattices,
`clifford.clif_mul` and `hypercomplex.cd_mul`: Fractions are made once, at
the end, one per distinct value (`exactnum.shared_fractions`).

Conventions: matrices are lists of rows; vectors act on the left (x @ A is a
row vector), so "the lattice of A" means the set of integer combinations of
A's rows.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import shared_fractions

IntMatrix = List[List[int]]


def _joined(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, int]:
    """(the rows of [a | I], the width of a)."""
    n = len(a)
    return [[*row] + [0] * i + [1] + [0] * (n - 1 - i)
            for i, row in enumerate(a)], len(a[0]) if n else 0


def _hermite(rows: IntMatrix, m: int) -> List[int]:
    """Put the first m columns of `rows` into `hnf_transform`'s row Hermite
    normal form, in place, and return the pivot columns. Entries past column
    m take part in every row operation: the tails of [a | I] end as u."""
    live = list(range(len(rows)))    # indices of rows not yet chosen as pivots
    pivots: Dict[int, int] = {}      # pivot row index -> pivot column

    def reduce(r, p, col):
        f = rows[r][col] // rows[p][col]
        if f:
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[p])]

    for col in range(m):
        cand = [r for r in live if rows[r][col] != 0]
        if not cand:
            continue
        # gcd elimination within the column
        while len(cand) > 1:
            cand.sort(key=lambda r: abs(rows[r][col]))
            for r in cand[1:]:
                reduce(r, cand[0], col)
            cand = [r for r in cand if rows[r][col] != 0]
        p = cand[0]
        if rows[p][col] < 0:
            rows[p] = [-x for x in rows[p]]
        # reduce the entries above the new pivot into [0, pivot)
        for q in pivots:
            reduce(q, p, col)
        pivots[p] = col
        live.remove(p)
    rows[:] = [rows[i] for i in [*pivots, *live]]
    return list(pivots.values())


def hnf_transform(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form with transform.

    Returns (h, u) with u unimodular and u @ a = h. Pivot rows come first in
    pivot-column order, each with positive pivot and entries above a pivot
    reduced into [0, pivot); the remaining rows of h are zero. The
    corresponding rows of u therefore span the left kernel of a.
    """
    rows, m = _joined(a)
    _hermite(rows, m)
    return [row[:m] for row in rows], [row[m:] for row in rows]


def hnf(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Nonzero rows of the Hermite normal form (a canonical lattice basis)."""
    rows = [list(row) for row in a]
    return rows[:len(_hermite(rows, len(rows[0]) if rows else 0))]


def left_kernel(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis of {x integer row : x @ a = 0}."""
    rows, m = _joined(a)
    return [row[m:] for row in rows[len(_hermite(rows, m)):]]


def solve_left(a: Sequence[Sequence[int]], t: Sequence[int]) -> Optional[List[int]]:
    """An integer row x with x @ a = t, or None if none exists: [t | 0]
    reduced by the pivot rows of [a | I] in Hermite form ends as [0 | -x]
    exactly when t is a member."""
    rows, m = _joined(a)
    resid = [*t] + [0] * len(rows)
    for row, col in zip(rows, _hermite(rows, m)):
        q = resid[col] // row[col]
        if q:
            resid = [x - q * y for x, y in zip(resid, row)]
    if any(resid[:len(t)]):
        return None
    return [-x for x in resid[len(t):]]


def matmul(a, b):
    """Exact matrix product; entries may be int or Fraction.

    Each operand is cleared to integers once, the product runs in ints, and
    each distinct entry becomes one Fraction over the two denominators. The
    product of two int matrices stays int."""
    ints = all(type(x) is int for m in (a, b) for row in m for x in row)
    ai, s = (a, 1) if ints else clear_denominators(a)
    bi, t = (b, 1) if ints else clear_denominators(b)
    bt = list(zip(*bi))
    prod = [[sum(map(operator.mul, row, col)) for col in bt] for row in ai]
    if ints:
        return prod
    frac = shared_fractions((v for row in prod for v in row), s * t)
    return [[frac[v] for v in row] for row in prod]


def clear_denominators(m: Sequence[Sequence]) -> Tuple[IntMatrix, int]:
    """(a, s) with s the least positive integer making a = s m integral;
    entries may be int or Fraction. An integral m (s = 1) costs one pass
    over the numerators."""
    s = math.lcm(*(x.denominator for row in m for x in row))
    if s == 1:
        return [[x.numerator for x in row] for row in m], 1
    return [[x.numerator * (s // x.denominator) for x in row] for row in m], s


def det_fraction(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination of s m, the
    matrix cleared to integers: every division is exact, and
    det m = det(s m) / s^n."""
    a, s = clear_denominators(m)
    n = len(a)
    sign, prev = 1, 1
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        ac = a[c]
        piv = ac[c]
        for r in range(c + 1, n):
            ar = a[r]
            f = ar[c]
            for k in range(c + 1, n):
                ar[k] = (piv * ar[k] - f * ac[k]) // prev
        prev = piv
    return Fraction(sign * prev, s ** n)


def invert_int(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, int]:
    """(v, d) with d = |det a| > 0 and v = d a^-1, an integer matrix, by
    fraction-free Gauss-Jordan elimination (Bareiss) of [a | I]; raises
    ZeroDivisionError if a is singular.

    Every row update (piv x - f y) // prev is an exact division, and at the
    end each diagonal entry is the last pivot D = +-det a and the right half
    is D a^-1."""
    n = len(a)
    rows = _joined(a)[0]
    prev = 1
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        rows[c], rows[p] = rows[p], rows[c]
        rc = rows[c]
        piv = rc[c]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [(piv * x - f * y) // prev for x, y in zip(rows[r], rc)]
        prev = piv
    if prev < 0:
        return [[-v for v in row[n:]] for row in rows], -prev
    return [row[n:] for row in rows], prev


def invert_fraction(m: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse of a rational matrix: with s m cleared to integers,
    m^-1 = s (s m)^-1 = s v / d for `invert_int`'s (v, d); raises
    ZeroDivisionError if singular."""
    a, s = clear_denominators(m)
    v, d = invert_int(a)
    frac = shared_fractions((s * x for row in v for x in row), d)
    return [[frac[s * x] for x in row] for row in v]
