"""Standalone integer kernels: pi hex digits, the cannonball problem,
spin-network areas, and the Gauss linking number of lattice polygons.

Nothing here depends on machine floating point for a tested result. The pi
digit extractor sums Bellard's BBP-type series in fixed-point integer
arithmetic, the cannonball search sieves n by quadratic residues and checks
each survivor with an exact integer square root, areas are kept as exact
multisets next to a float evaluation, and linking numbers come from signed
crossing counts decided in rational arithmetic.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .exactnum import Value, read_rational


class IdentityError(ValueError):
    """Domain error raised by the kernels in this module."""


# ---------------------------------------------------------------------------
# pi in hexadecimal

BBP_POSITION_LIMIT = 10 ** 6     # 16 digits at 10^6 take 2.1-2.6 s
BBP_COUNT_LIMIT = 4096           # 4096 digits ending at 10^6: 4.5-4.9 s
# Terms of the series that share one pow in _bbp_pass. A sweep of 2-8 was
# flat within 5% from 3 to 6 and slower at 2 and 8: fewer terms leave more
# pows, more terms a pow whose cost grows with the square of the modulus.
_BBP_BLOCK = 4
# Bits _bbp_pass carries below the ones it returns. The pass sums every term
# that reaches its own last bit, and with 3 or more spare bits the terms it
# leaves out stay below 1 ulp of the result.
_BBP_SPARE = 4
# Bellard's series pi = 2^-6 sum (-1)^n 2^(-10n) sum c/(a n + b) over these
# seven (c, a, b).
_BELLARD = ((-32, 4, 1), (-1, 4, 3), (256, 10, 1), (-64, 10, 3), (-4, 10, 5),
            (-4, 10, 7), (1, 10, 9))


def _bellard_pq(n: int) -> Tuple[int, int]:
    """P(n), Q(n): the seven fractions of term n over one denominator."""
    q = math.prod(a * n + b for _, a, b in _BELLARD)
    return sum(c * (q // (a * n + b)) for c, a, b in _BELLARD), q


def _forward_differences(values: List[int]) -> Tuple[int, ...]:
    """f(0), then the first, second, ... forward differences of f at 0, of
    a polynomial f given at 0, 1, ..., deg f."""
    table = []
    while values:
        table.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(table)


# P has degree 6 and Q degree 7, so 7 and 8 values fix their tables
_P_STEPS = _forward_differences([_bellard_pq(n)[0] for n in range(7)])
_Q_STEPS = _forward_differences([_bellard_pq(n)[1] for n in range(8)])


def _bbp_terms(d: int, prec: int) -> int:
    """The number of terms _bbp_pass(d, prec) sums: every n whose 2^e,
    e = 4d - 6 - 10n, reaches the pass's last bit 2^-(4 prec + spare)."""
    return (4 * prec + _BBP_SPARE + 4 * d - 6) // 10 + 1


def _bbp_error_bound(d: int, prec: int) -> int:
    """Bound on |exact - computed| in ulp for ``_bbp_pass(d, prec)``.

    At 2^S, each of the pass's B blocks adds one floored quotient, which
    loses less than 1. From n = 1 on, 0 < P(n)/Q(n) <= P(1)/Q(1) < 11.4, so
    the first term left out, n >= 1 with S + e <= -1, is below 5.7, and the
    terms after it alternate in sign and shrink, so all of them add less
    than 5.7. Shifting the spare bits away floors once more, so the pass is
    off by less than (B + 5.7)/2^spare + 1 < ceil(B/2^spare) + 2 ulp.
    """
    blocks = -(-_bbp_terms(d, prec) // _BBP_BLOCK)
    return -(-blocks >> _BBP_SPARE) + 2


def _bbp_start_guard(d: int, count: int) -> int:
    """ceil(log16 E) + 2 guard digits, E the error bound of the first pass."""
    guard = 2
    while 16 ** (guard - 2) < _bbp_error_bound(d, count + guard):
        guard += 1
    return guard


def _bbp_pass(d: int, prec: int) -> int:
    """16^prec * frac(16^d pi), up to _bbp_error_bound(d, prec) ulp, reduced
    mod 16^prec.

    Term n of Bellard's series for 16^d pi is (-1)^n 2^e P(n)/Q(n) with
    e = 4d - 6 - 10n, the seven fractions -2^5/(4n+1) - 1/(4n+3)
    + 2^8/(10n+1) - 2^6/(10n+3) - 2^2/(10n+5) - 2^2/(10n+7) + 1/(10n+9)
    over one denominator: P = 16400000n^6 + 60500000n^5 + 90764000n^4
    + 70652400n^3 + 29980024n^2 + 6543234n + 570042 and
    Q = (4n+1)(4n+3)(10n+1)(10n+3)(10n+5)(10n+7)(10n+9). P and Q step from
    n to n + 1 by their forward differences. The pass works at 2^S,
    S = 4 prec + ``_BBP_SPARE``, and sums the terms with S + e >= 0 in
    blocks [lo, hi) of ``_BBP_BLOCK``. Horner in -1024 gives each block as
    (-1)^(hi-1) 2^e N/M, with e that of term hi - 1 and M the product of
    the block's Q(n). A block with e >= 0 needs one pow modulo M for its
    fractional part, a block with e < 0 only a shift, and one floor
    division puts that part at 2^S.
    """
    s = 4 * prec                  # 16^prec = 2^s
    wide = s + _BBP_SPARE         # S
    p0, p1, p2, p3, p4, p5, p6 = _P_STEPS
    q0, q1, q2, q3, q4, q5, q6, q7 = _Q_STEPS
    total = 0
    end = _bbp_terms(d, prec)
    for lo in range(0, end, _BBP_BLOCK):
        hi = min(lo + _BBP_BLOCK, end)
        num, den = 0, 1
        for _ in range(lo, hi):
            num = p0 * den - 1024 * num * q0
            den *= q0
            p0, p1, p2, p3, p4, p5 = (p0 + p1, p1 + p2, p2 + p3, p3 + p4,
                                      p4 + p5, p5 + p6)
            q0, q1, q2, q3, q4, q5, q6 = (q0 + q1, q1 + q2, q2 + q3, q3 + q4,
                                          q4 + q5, q5 + q6, q6 + q7)
        if hi % 2 == 0:           # term hi - 1 is odd: the block is negative
            num = -num
        e = 4 * d - 6 - 10 * (hi - 1)
        if e >= 0:
            total += (pow(2, e, den) * num % den << wide) // den
        else:
            total += (num % (den << -e) << wide + e) // den
    return (total >> _BBP_SPARE) & ((1 << s) - 1)


def bbp_pi_hex(start: int, count: int) -> str:
    """Hex digits of the fractional part of pi at positions start..start+count-1.

    Positions are 1-based: position 1 is the first digit after the point
    (pi = 3.243F6A8885... in base 16). Bellard's series
    pi = 2^-6 sum (-1)^n 2^(-10n) (-2^5/(4n+1) - 1/(4n+3) + 2^8/(10n+1)
    - 2^6/(10n+3) - 2^2/(10n+5) - 2^2/(10n+7) + 1/(10n+9)) is evaluated at
    offset start-1 by splitting it where 2^(4(start-1) - 6 - 10n) drops
    below 1, near n = 0.4 start: the head is summed with one modular
    exponentiation per block of terms, the tail converges after about
    0.4 (count + guard) terms. All accumulation is fixed-point with guard
    digits below the requested ones.

    The cost is one pow per block and one division of a 4 (count + guard)
    bit number per block, so it grows with start and with start * count:
    16 digits take 19-28 ms at position 2*10^4, 0.10-0.14 s at 8*10^4 and
    2.1-2.6 s at 10^6, and the largest request, 4096 digits ending at 10^6,
    4.5-4.9 s (minima and medians on a shared 2-vCPU host).

    The digits are certified: the pass's floor divisions put the exact
    value within E = ``_bbp_error_bound`` ulp of the computed total, and
    digits are returned only when total - E and total + E agree on them.
    Otherwise the guard widens and the pass runs again.
    """
    if start < 1 or count < 1:
        raise IdentityError("start and count must be at least 1")
    if count > BBP_COUNT_LIMIT:
        raise IdentityError(f"count {count} is above the cap of "
                            f"{BBP_COUNT_LIMIT} digits")
    if start + count - 1 > BBP_POSITION_LIMIT:
        raise IdentityError(
            f"positions beyond {BBP_POSITION_LIMIT} exceed the time budget")
    d = start - 1
    guard = _bbp_start_guard(d, count)
    while True:
        prec = count + guard
        total = _bbp_pass(d, prec)
        err = _bbp_error_bound(d, prec)
        shift = 4 * guard
        if (total - err) >> shift == (total + err) >> shift:
            return format(total >> shift, f"0{count}x").upper()
        guard += 8


# ---------------------------------------------------------------------------
# cannonballs

def square_pyramid(n: int) -> int:
    """1^2 + 2^2 + ... + n^2, exactly."""
    if n < 0:
        raise IdentityError("n must be nonnegative")
    return n * (n + 1) * (2 * n + 1) // 6


# Moduli of the cannonball sieve and its block length. P(n) = square_pyramid(n)
# mod q depends only on n mod q * gcd(6, q), a divisor of 6q (6 P(n) mod 6q
# depends only on n mod 6q); the 12 moduli leave ~1e-4 of all n.
_SIEVE_MODULI = (64, 27, 49, 53, 61, 37, 31, 23, 19, 11, 17, 43)
_SIEVE_BLOCK = 1 << 16
CANNONBALL_LIMIT = 10 ** 8       # the sieve is linear: 10^8 takes 1.2-1.4 s


@functools.cache
def _struck_classes(q: int) -> Tuple[int, Tuple[int, ...]]:
    """(period, residues r mod period with P(r) a non-square mod q)."""
    period = q * math.gcd(6, q)
    squares = {k * k % q for k in range(q)}
    return period, tuple(r for r in range(period)
                         if square_pyramid(r) % q not in squares)


def cannonball_search(limit: int) -> set:
    """All n in 1..limit whose square-pyramid number is a perfect square.

    A residue sieve: in each block of n, every class whose P(n) is a
    non-square modulo one of ``_SIEVE_MODULI`` is struck out, and each
    survivor is checked with an exact integer square root.
    """
    if limit < 1:
        raise IdentityError("limit must be at least 1")
    if limit > CANNONBALL_LIMIT:
        raise IdentityError(
            f"limits beyond {CANNONBALL_LIMIT} exceed the time budget")
    hits = set()
    for lo in range(1, limit + 1, _SIEVE_BLOCK):
        size = min(_SIEVE_BLOCK, limit + 1 - lo)
        alive = bytearray(b"\1") * size
        for q in _SIEVE_MODULI:
            period, struck = _struck_classes(q)
            for r in struck:
                i = (r - lo) % period
                alive[i::period] = bytes(len(range(i, size, period)))
        i = alive.find(1)
        while i >= 0:
            p = square_pyramid(lo + i)
            r = math.isqrt(p)
            if r * r == p:
                hits.add(lo + i)
            i = alive.find(1, i + 1)
    return hits


# ---------------------------------------------------------------------------
# spin-network areas

class SpinList(Value):
    """A multiset of spins j with 2j a nonnegative integer."""

    __slots__ = ("spins",)

    def __init__(self, spins: Tuple[Fraction, ...]):
        vals = []
        for j in spins:
            j = Fraction(j)
            if j < 0 or (2 * j).denominator != 1:
                raise IdentityError(f"spin {j} is not a nonnegative "
                                    "half-integer")
            vals.append(j)
        super().__init__(tuple(sorted(vals)))

    @classmethod
    def from_values(cls, values: Iterable) -> "SpinList":
        spins = []
        for v in values:
            try:
                spins.append(read_rational(v) if isinstance(v, str)
                             else Fraction(v))
            except ValueError:
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
    try:
        approx = math.fsum(m * math.sqrt(j * (j + 1)) for j, m in exact.items())
    except OverflowError:           # j (j + 1) is beyond the float range
        raise IdentityError(f"spin {max(exact)} is too large for a float "
                            "area") from None
    return dict(sorted(exact.items())), approx


# ---------------------------------------------------------------------------
# linking numbers

Point = Tuple[int, int, int]


class PolyLoop(Value):
    """A closed polygonal loop through integer points.

    The loop closes implicitly from the last vertex back to the first.
    Consecutive vertices must be distinct; everything else (including
    self-intersection) is allowed here and checked where it matters.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Tuple[Point, ...]):
        vs = tuple(tuple(int(c) for c in v) for v in vertices)
        if len(vs) < 3:
            raise IdentityError("a loop needs at least 3 vertices")
        if any(len(v) != 3 for v in vs):
            raise IdentityError("vertices must be integer triples")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if a == b:
                raise IdentityError("consecutive vertices must be distinct")
        super().__init__(vs)

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
