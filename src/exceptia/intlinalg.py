"""Integer and rational linear algebra used across the package.

One audited core: Hermite-style row reduction over the integers, with the
unimodular transform tracked. Kernels, membership certificates, sublattices
and quotients are all phrased through it. Rational matrices are cleared to
integers once (`clear_denominators`): determinants and inverses run
fraction-free on the cleared matrix (Bareiss elimination, every division
exact), and products multiply the cleared operands in ints. Callers that
hold integer rows over a known denominator (the lattice constructions) call
the integer cores (`invert_int`, `matmul` on ints) directly. The rule holds
in every exact kernel of the package, here and in the lattice
constructions, `clifford.clif_mul` and `hypercomplex.cd_mul`: Fractions are
made once, at the end, one per distinct value (`exactnum.shared_fractions`).

Conventions: matrices are lists of rows; vectors act on the left (x @ A is a
row vector), so "the lattice of A" means the set of integer combinations of
A's rows.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exactnum import shared_fractions

IntMatrix = List[List[int]]


def hnf_transform(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form with transform.

    Returns (h, u) with u unimodular and u @ a = h. Pivot rows come first in
    pivot-column order, each with positive pivot and entries above a pivot
    reduced into [0, pivot); the remaining rows of h are zero. The
    corresponding rows of u therefore span the left kernel of a.
    """
    rows = [list(r) for r in a]
    n = len(rows)
    m = len(rows[0]) if n else 0
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    live = list(range(n))          # indices of rows not yet chosen as pivots
    pivots: List[Tuple[int, int]] = []   # (row index, pivot column)

    for col in range(m):
        cand = [r for r in live if rows[r][col] != 0]
        if not cand:
            continue
        # gcd elimination within the column
        while len(cand) > 1:
            cand.sort(key=lambda r: abs(rows[r][col]))
            p = cand[0]
            for r in cand[1:]:
                f = rows[r][col] // rows[p][col]
                if f:
                    _row_sub(rows, u, r, p, f)
            cand = [r for r in cand if rows[r][col] != 0]
        p = cand[0]
        if rows[p][col] < 0:
            rows[p] = [-x for x in rows[p]]
            u[p] = [-x for x in u[p]]
        pivots.append((p, col))
        live.remove(p)

    # reduce entries above each pivot into [0, pivot)
    for p, col in pivots:
        for q, qcol in pivots:
            if qcol < col and rows[q][col] != 0:
                f = rows[q][col] // rows[p][col]
                if f:
                    _row_sub(rows, u, q, p, f)

    order = [p for p, _ in pivots] + live
    h = [rows[i] for i in order]
    ut = [u[i] for i in order]
    return h, ut


def _row_sub(rows, u, r, p, f):
    rows[r] = [x - f * y for x, y in zip(rows[r], rows[p])]
    u[r] = [x - f * y for x, y in zip(u[r], u[p])]


def hnf(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Nonzero rows of the Hermite normal form (a canonical lattice basis)."""
    h, _ = hnf_transform(a)
    return [row for row in h if any(row)]


def left_kernel(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis of {x integer row : x @ a = 0}."""
    h, u = hnf_transform(a)
    return [u[i] for i, row in enumerate(h) if not any(row)]


def solve_left(a: Sequence[Sequence[int]], t: Sequence[int]) -> Optional[List[int]]:
    """An integer row x with x @ a = t, or None if none exists."""
    h, u = hnf_transform(a)
    piv = []
    for i, row in enumerate(h):
        if any(row):
            piv.append((i, next(c for c, v in enumerate(row) if v)))
    resid = list(t)
    coeffs = {}
    for i, col in piv:
        q, r = divmod(resid[col], h[i][col])
        if r:
            return None
        if q:
            coeffs[i] = q
            resid = [x - q * y for x, y in zip(resid, h[i])]
    if any(resid):
        return None
    n = len(u)
    x = [0] * n
    for i, q in coeffs.items():
        for k in range(n):
            x[k] += q * u[i][k]
    return x


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
    rows = [list(row) + [0] * n for row in a]
    for i, row in enumerate(rows):
        row[n + i] = 1
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
