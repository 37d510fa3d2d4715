"""Standalone integer kernels: pi hex digits, the cannonball problem,
spin-network areas, and the Gauss linking number of lattice polygons.

Nothing here depends on machine floating point for a tested result. The BBP
digit extractor works in fixed-point integer arithmetic, the cannonball
search uses exact integer square roots, areas are kept as exact multisets
next to a float evaluation, and linking numbers come from signed crossing
counts decided in rational arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple


class IdentityError(ValueError):
    """Domain error raised by the kernels in this module."""


# ---------------------------------------------------------------------------
# pi in hexadecimal

BBP_POSITION_LIMIT = 10 ** 6
_BBP_GUARD = 16          # guard hex digits; see the error budget below


def bbp_pi_hex(start: int, count: int) -> str:
    """Hex digits of the fractional part of pi at positions start..start+count-1.

    Positions are 1-based: position 1 is the first digit after the point
    (pi = 3.243F6A8885... in base 16). The series
    sum 16^-n (4/(8n+1) - 2/(8n+4) - 1/(8n+5) - 1/(8n+6)) is evaluated at
    offset start-1 by splitting each term at n = start-1: the head is summed
    with modular exponentiation, the tail converges after a few terms. All
    accumulation is fixed-point with ``_BBP_GUARD`` guard digits.

    Error budget: each of the ~4*(start + precision) summands contributes
    less than one unit in the last place through its floor division, so the
    total error stays below 16^7 ulp for positions up to the documented
    limit of 10^6; with 16 guard digits that leaves a margin of 16^9, and
    the reported digits are unaffected unless a carry would have to travel
    across nine hex places.
    """
    if start < 1 or count < 1:
        raise IdentityError("start and count must be at least 1")
    if start + count - 1 > BBP_POSITION_LIMIT:
        raise IdentityError(
            f"positions beyond {BBP_POSITION_LIMIT} exceed the guard-digit "
            "error budget")
    d = start - 1
    prec = count + _BBP_GUARD
    mod = 1 << (4 * prec)         # 16^prec
    total = 0
    for coeff, k in ((4, 1), (-2, 4), (-1, 5), (-1, 6)):
        acc = 0
        for n in range(d + 1):
            m = 8 * n + k
            acc = (acc + pow(16, d - n, m) * mod // m) % mod
        # tail: 16^{d-n} for n > d; stops once the shift exhausts prec
        for n in range(d + 1, d + prec + 1):
            m = 8 * n + k
            acc = (acc + (mod >> (4 * (n - d))) // m) % mod
        total = (total + coeff * acc) % mod
    return format(total, f"0{prec}x")[:count].upper()


# ---------------------------------------------------------------------------
# cannonballs

def square_pyramid(n: int) -> int:
    """1^2 + 2^2 + ... + n^2, exactly."""
    if n < 0:
        raise IdentityError("n must be nonnegative")
    return n * (n + 1) * (2 * n + 1) // 6


def cannonball_search(limit: int) -> set:
    """All n in 1..limit whose square-pyramid number is a perfect square."""
    if limit < 1:
        raise IdentityError("limit must be at least 1")
    hits = set()
    total = 0
    for n in range(1, limit + 1):
        total += n * n
        r = math.isqrt(total)
        if r * r == total:
            hits.add(n)
    return hits


# ---------------------------------------------------------------------------
# spin-network areas

@dataclass(frozen=True)
class SpinList:
    """A multiset of spins j with 2j a nonnegative integer."""

    spins: Tuple[Fraction, ...]

    def __post_init__(self):
        vals = []
        for j in self.spins:
            j = Fraction(j)
            if j < 0 or (2 * j).denominator != 1:
                raise IdentityError(f"spin {j} is not a nonnegative "
                                    "half-integer")
            vals.append(j)
        object.__setattr__(self, "spins", tuple(sorted(vals)))

    @classmethod
    def from_values(cls, values: Iterable) -> "SpinList":
        spins = []
        for v in values:
            try:
                spins.append(Fraction(v))
            except (ValueError, ZeroDivisionError):
                raise IdentityError(f"spin {v} is not a nonnegative "
                                    "half-integer") from None
        return cls(tuple(spins))


def spin_area(spins: SpinList) -> Tuple[Dict[Fraction, int], float]:
    """Surface area from punctures labelled by spins, in Planck-area units.

    A puncture with spin j contributes sqrt(j(j+1)). The exact part is the
    multiset {j: multiplicity} with zero spins dropped (they contribute no
    area), so the total is sum m_j * sqrt(j(j+1)); the float evaluation is
    good to a relative error of 1e-12. The Planck area is set to 1.
    """
    exact = Counter(j for j in spins.spins if j > 0)
    approx = math.fsum(m * math.sqrt(j * (j + 1)) for j, m in exact.items())
    return dict(sorted(exact.items())), approx


# ---------------------------------------------------------------------------
# linking numbers

Point = Tuple[int, int, int]


@dataclass(frozen=True)
class PolyLoop:
    """A closed polygonal loop through integer points.

    The loop closes implicitly from the last vertex back to the first.
    Consecutive vertices must be distinct; everything else (including
    self-intersection) is allowed here and checked where it matters.
    """

    vertices: Tuple[Point, ...]

    def __post_init__(self):
        vs = tuple(tuple(int(c) for c in v) for v in self.vertices)
        if len(vs) < 3:
            raise IdentityError("a loop needs at least 3 vertices")
        if any(len(v) != 3 for v in vs):
            raise IdentityError("vertices must be integer triples")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if a == b:
                raise IdentityError("consecutive vertices must be distinct")
        object.__setattr__(self, "vertices", vs)

    def segments(self) -> List[Tuple[Point, Point]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def reversed(self) -> "PolyLoop":
        return PolyLoop(tuple(reversed(self.vertices)))

    def translated(self, offset: Point) -> "PolyLoop":
        dx, dy, dz = offset
        return PolyLoop(tuple((x + dx, y + dy, z + dz)
                              for x, y, z in self.vertices))


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Exact 3D test: do segments ab and cd share a point?"""
    r, s, w = _sub(b, a), _sub(d, c), _sub(c, a)
    n = _cross(r, s)
    if n != (0, 0, 0):
        if _dot(w, n) != 0:
            return False                       # skew lines
        den = _dot(n, n)
        t_num = _dot(_cross(w, s), n)
        u_num = _dot(_cross(w, r), n)
        return 0 <= t_num <= den and 0 <= u_num <= den
    # parallel: a shared point needs collinearity, then 1D overlap
    if _cross(w, r) != (0, 0, 0):
        return False
    rr = _dot(r, r)
    t0 = _dot(w, r)
    t1 = t0 + _dot(s, r)
    lo, hi = min(t0, t1), max(t0, t1)
    return hi >= 0 and lo <= rr


def loops_disjoint(g: PolyLoop, h: PolyLoop) -> bool:
    """Whether no segment of g touches a segment of h (exact)."""
    for a, b in g.segments():
        for c, d in h.segments():
            if _segments_intersect(a, b, c, d):
                return False
    return True


class _Degenerate(Exception):
    """The current projection direction is non-generic; try the next one."""


def _crossing_sum(g: PolyLoop, h: PolyLoop, p: Fraction, q: Fraction) -> int:
    """Signed count of crossings where g passes over h, viewed along the
    direction (p, q, 1): the projection is (x - p z, y - q z), height is z."""
    def project(v):
        x, y, z = v
        return (x - p * z, y - q * z, z)

    gsegs = [(project(a), project(b)) for a, b in g.segments()]
    hsegs = [(project(c), project(d)) for c, d in h.segments()]
    total = 0
    for (a, b) in gsegs:
        rx, ry = b[0] - a[0], b[1] - a[1]
        if rx == 0 and ry == 0:
            raise _Degenerate                  # segment seen end-on
        for (c, d) in hsegs:
            sx, sy = d[0] - c[0], d[1] - c[1]
            if sx == 0 and sy == 0:
                raise _Degenerate
            den = rx * sy - ry * sx
            wx, wy = c[0] - a[0], c[1] - a[1]
            if den == 0:
                # parallel in projection: any shared point is degenerate
                if wx * ry - wy * rx == 0:
                    rr = rx * rx + ry * ry
                    t0 = wx * rx + wy * ry
                    t1 = t0 + sx * rx + sy * ry
                    if max(t0, t1) >= 0 and min(t0, t1) <= rr:
                        raise _Degenerate
                continue
            t = Fraction(wx * sy - wy * sx, den)
            u = Fraction(wx * ry - wy * rx, den)
            if t <= 0 or t >= 1 or u <= 0 or u >= 1:
                if (0 <= t <= 1 and u in (0, 1)) or (0 <= u <= 1 and t in (0, 1)):
                    raise _Degenerate          # crossing at a vertex shadow
                continue
            zg = a[2] + t * (b[2] - a[2])
            zh = c[2] + u * (d[2] - c[2])
            if zg == zh:
                raise IdentityError("loops touch along the view direction; "
                                    "disjointness check should have caught "
                                    "this")
            if zg > zh:
                total += 1 if den > 0 else -1
    return total


_MAX_PROJECTIONS = 40


def linking_number(g: PolyLoop, h: PolyLoop) -> int:
    """Gauss linking number of two disjoint loops.

    Counts signed crossings of g over h in a generic projection. The first
    attempt looks straight down the z-axis; any degeneracy (a crossing at a
    vertex shadow, segments collinear in projection, a segment seen end-on)
    moves to the next direction in a fixed rational schedule, so results are
    deterministic. Raises if the loops touch or if every scheduled direction
    is degenerate.
    """
    if not loops_disjoint(g, h):
        raise IdentityError("loops intersect; the linking number needs "
                            "disjoint loops")
    p, q = Fraction(0), Fraction(0)
    for k in range(_MAX_PROJECTIONS):
        try:
            return _crossing_sum(g, h, p, q)
        except _Degenerate:
            base = 2 * k + 3
            p = Fraction(1, base)
            q = Fraction(1, base * (base + 2))
    raise IdentityError(f"no generic projection found after "
                        f"{_MAX_PROJECTIONS} perturbations")
