"""Integer q-series arithmetic: E4, eta^24, truncated products and inverses,
the theta series of an even unimodular lattice from its first few counts,
and the j-function of a rank-24 even unimodular lattice.

Only the 24th power of eta is ever represented, so every exponent is an
integer and every coefficient stays in Z. Division is multiplication by an
exactly computed integer inverse series, which exists because eta^24 has
leading coefficient 1.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence, Tuple

from .exactnum import Value, format_terms
from .lattices import Lattice, is_even, is_unimodular, theta_series


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
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> int:
        """Highest exponent carried by the truncation."""
        if self.is_zero:
            raise SeriesError("the zero series has no truncation order")
        return self.low + len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        """Coefficient of q^k; exponents outside the carried range are 0."""
        i = k - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0


ZERO_SERIES = LaurentSeries(0, ())

# each of eta24's N coefficients sums over the ~1.6 sqrt(N) pentagonal terms
# below it: on a 2-vCPU host the kernel takes 5.9 s at 8*10^4, and `modular
# eta24 --order 80000` 5.9-7.4 s end to end (2.8 MB of output)
ETA24_LIMIT = 8 * 10 ** 4


def eta24(N: int) -> LaurentSeries:
    """q * prod_{n=1..N} (1 - q^n)^24, carried through exponent N + 1.

    The product a = prod (1 - q^n) has only the O(sqrt N) terms of Euler's
    pentagonal theorem, (-1)^k q^(k(3k - 1)/2) and (-1)^k q^(k(3k + 1)/2),
    and b = a^24 follows from a b' = 24 a' b term by term:
    n b_n = sum_j (25 j - n) a_j b_(n-j), an exact division (Knuth, TAOCP
    vol. 2, 4.7). N above ETA24_LIMIT is refused.
    """
    if N < 1:
        raise SeriesError("eta24 needs N >= 1")
    if N > ETA24_LIMIT:
        raise SeriesError(f"orders beyond {ETA24_LIMIT} exceed the time budget")
    pent = []                             # (j, a_j) for j >= 1, ascending
    k = 1
    while k * (3 * k - 1) // 2 <= N:
        for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if j <= N:
                pent.append((j, -1 if k & 1 else 1))
        k += 1
    b = [1] + [0] * N
    for n in range(1, N + 1):
        acc = 0
        for j, a in pent:
            if j > n:
                break
            acc += a * (25 * j - n) * b[n - j]
        b[n] = acc // n
    return LaurentSeries(1, tuple(b))


def e4(N: int) -> LaurentSeries:
    """The Eisenstein series E4 = 1 + 240 sum sigma3(n) q^n through q^N."""
    if N < 0:
        raise SeriesError("e4 needs N >= 0")
    sigma3 = [0] * (N + 1)
    for d in range(1, N + 1):
        for n in range(d, N + 1, d):
            sigma3[n] += d ** 3
    return LaurentSeries(0, (1,) + tuple(240 * s for s in sigma3[1:]))


def series_mul(a: LaurentSeries, b: LaurentSeries, N: int) -> LaurentSeries:
    """Cauchy product truncated at exponent N."""
    if a.is_zero or b.is_zero:
        return ZERO_SERIES
    low = a.low + b.low
    if low > N:
        return ZERO_SERIES
    out = [0] * (N - low + 1)
    for i, ai in enumerate(a.coeffs[: N - low + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b.coeffs[: N - low - i + 1]):
            if bj:
                out[i + j] += ai * bj
    return LaurentSeries(low, tuple(out))


def series_inv(a: LaurentSeries, N: int) -> LaurentSeries:
    """Inverse through exponent N: a * series_inv(a, N) = 1 + O(q^(N+1)).

    The leading coefficient must be 1 or -1 so the inverse stays integral,
    and a must carry enough coefficients to determine the result: exponents
    up to N + 2*a.low.
    """
    if a.is_zero:
        raise SeriesError("the zero series has no inverse")
    lead = a.coeffs[0]
    if lead not in (1, -1):
        raise SeriesError(f"leading coefficient must be 1 or -1, got {lead}")
    if N < -a.low:
        raise SeriesError("truncation order lies below the leading exponent "
                          "of the inverse")
    m_top = N + a.low                   # unit-part length of the result
    if len(a.coeffs) - 1 < m_top:
        raise SeriesError(
            f"series carried through exponent {a.order} cannot determine its "
            f"inverse through exponent {N}; extend it to exponent {m_top + a.low}")
    # v[m] = -lead * sum(u[k] v[m-k], k = 1..m), with the result kept
    # reversed (w[m_top - m] = v[m]) so that each sum is one C-level dot
    # product of u[1:] with a slice of w
    u1 = a.coeffs[1:m_top + 1]
    w = [0] * (m_top + 1)
    w[m_top] = lead
    for i in range(m_top - 1, -1, -1):
        w[i] = -lead * sum(map(mul, u1, w[i + 1:]))
    return LaurentSeries(-a.low, tuple(reversed(w)))


def series_sub(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Difference, valid through the shorter of the two truncations."""
    if a.is_zero:
        return LaurentSeries(b.low, tuple(-c for c in b.coeffs))
    if b.is_zero:
        return a
    top = min(a.order, b.order)
    low = min(a.low, b.low)
    if top < low:
        raise SeriesError("truncations do not overlap")
    out = [a.coefficient(k) - b.coefficient(k) for k in range(low, top + 1)]
    return LaurentSeries(low, tuple(out))


def even_unimodular_theta(rank: int, head: Sequence[int],
                          N: int) -> Tuple[int, ...]:
    """Theta coefficients through q^N (q^k counting norm 2k) of an even
    unimodular lattice of the given rank, from its counts head[k] of norm 2k
    for k = 0..rank // 24.

    By Hecke's theorem such a theta series is a modular form of weight
    rank / 2 = 4m, and that space is spanned by the forms
    F_b = E4^(m - 3b) Delta^b, 0 <= b <= m // 3 (Serre, A Course in
    Arithmetic, ch. VII; Conway-Sloane, SPLAG, ch. 2 section 6 and ch. 7).
    F_b = q^b + O(q^(b+1)), so head fixes the coefficients of theta over the
    F_b by a unit-triangular system, solved here in integers.
    """
    m, s = rank // 8, rank // 24
    if rank <= 0 or rank % 8 or len(head) != s + 1 or head[0] != 1:
        raise SeriesError("an even unimodular lattice has rank 8m > 0 and "
                          "its head counts norms 0, 2, ..., 2 (rank // 24), "
                          "starting with 1")
    if N < s:
        raise SeriesError("truncation order lies below the head")
    one = LaurentSeries(0, (1,))
    e_pow, d_pow = [one], [one]
    if s:                       # first, so that eta24's bound refuses early
        delta = eta24(N)
        for _ in range(s):
            d_pow.append(series_mul(d_pow[-1], delta, N))
    e = e4(N)
    for _ in range(m):
        e_pow.append(series_mul(e_pow[-1], e, N))
    forms = [series_mul(e_pow[m - 3 * b], d_pow[b], N) for b in range(s + 1)]
    c: list = []

    def at(k):                  # q^k of the combination found so far
        return sum(cb * f.coefficient(k) for cb, f in zip(c, forms))

    for k in range(s + 1):
        c.append(head[k] - at(k))
    return tuple(at(k) for k in range(N + 1))


def j_from_lattice(lat: Lattice, N: int = 5) -> LaurentSeries:
    """j as theta(L)/eta^24, through exponent N, for rank-24 even unimodular L.

    theta through order N+1 comes from `theta_series`, which enumerates
    only up to norm 2 and reads the higher counts off E4^3 and Delta, so
    at any N the lattice costs an LLL and that short search, not an
    enumeration up to norm 2N+2. eta24 is taken through exponent N + 1, so
    N at or above ETA24_LIMIT raises its SeriesError.
    """
    if lat.rank != 24 or not (is_even(lat) and is_unimodular(lat)):
        raise SeriesError("j_from_lattice needs a rank-24 even unimodular "
                          "lattice")
    if N < 0:
        raise SeriesError("truncation order must be nonnegative")
    eta = eta24(N + 1)          # first, so that its bound refuses early
    th = theta_series(lat, N + 1)
    theta_q = LaurentSeries(0, th.counts)
    return series_mul(theta_q, series_inv(eta, N), N)


def format_series(s: LaurentSeries) -> str:
    """Render as a readable sum, e.g. "q^-1 + 744 + 196884 q"."""
    return format_terms(((s.low + i, c) for i, c in enumerate(s.coeffs) if c),
                        lambda k: "q" if k == 1 else f"q^{k}")
