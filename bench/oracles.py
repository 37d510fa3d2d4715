"""Independent routes that every timed answer is checked against.

Nothing here calls into ``exceptia``. The closed forms are textbook
identities; the rest comes from the standalone reference scripts in
``scripts/`` (imported read-only) or from short independent re-derivations.
The benchmark runs these checks outside every timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import doubling_laws
import lattice_ref
import pi_hex_ref
import qseries_ref

# ---------------------------------------------------------------------------
# lattices

E6_ROOTS, E7_ROOTS, E8_ROOTS = 72, 126, 240
D16PLUS_THETA = (1, 480, 61920)
LEECH_NORM4 = 196560


@lru_cache(maxsize=None)
def an_roots(n: int) -> int:
    closed = n * (n + 1)
    if n <= 6 and lattice_ref.count_an_roots(n) != closed:
        raise AssertionError(f"A{n} root count disagrees with lattice_ref")
    return closed


@lru_cache(maxsize=None)
def dn_roots(n: int) -> int:
    closed = 2 * n * (n - 1)
    if n <= 6 and lattice_ref.count_dn_roots(n) != closed:
        raise AssertionError(f"D{n} root count disagrees with lattice_ref")
    return closed


def sigma3(m: int) -> int:
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


def e8_theta(order: int) -> tuple:
    """theta_E8 = E4: 240 sigma_3(m) vectors of norm 2m."""
    return (1,) + tuple(240 * sigma3(m) for m in range(1, order + 1))


@lru_cache(maxsize=None)
def _squares_counts(n: int, top: int) -> tuple:
    """r_n(k) for k <= top: ways to write k as a sum of n integer squares."""
    counts = [1] + [0] * top
    for _ in range(n):
        nxt = [0] * (top + 1)
        for k, c in enumerate(counts):
            if not c:
                continue
            x = 0
            while k + x * x <= top:
                nxt[k + x * x] += c if x == 0 else 2 * c
                x += 1
        counts = nxt
    return tuple(counts)


def dn_theta(n: int, order: int) -> tuple:
    """D_n is Z^n with even coordinate sum, and an even norm forces an even
    sum, so the norm-2m count is r_n(2m)."""
    r = _squares_counts(n, 2 * order)
    return tuple(r[2 * m] for m in range(order + 1))


@lru_cache(maxsize=None)
def an_theta(n: int, order: int) -> tuple:
    """Vectors of Z^(n+1) with coordinate sum 0, counted by norm."""
    top = 2 * order
    reach = math.isqrt(top)
    states = {(0, 0): 1}                      # (coordinate sum, norm) -> count
    for _ in range(n + 1):
        nxt = {}
        for (s, q), c in states.items():
            for x in range(-reach, reach + 1):
                if q + x * x <= top:
                    key = (s + x, q + x * x)
                    nxt[key] = nxt.get(key, 0) + c
        states = nxt
    return tuple(states.get((0, 2 * m), 0) for m in range(order + 1))


def theta_product(a: tuple, b: tuple) -> tuple:
    return tuple(sum(a[i] * b[m - i] for i in range(m + 1))
                 for m in range(min(len(a), len(b))))


def counts_from_theta(theta: tuple) -> dict:
    """A theta series as the {norm: count} map ``short_vectors`` returns."""
    return {2 * m: c for m, c in enumerate(theta) if m and c}


def _det(rows) -> Fraction:
    return lattice_ref.det_gauss([list(r) for r in rows])


def _gram(rows) -> list:
    return [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]


def _solve(gram, rhs_rows) -> list:
    """X with X gram = rhs, by Gauss-Jordan over Fractions."""
    n = len(gram)
    aug = [[Fraction(v) for v in gram[i]] + [Fraction(r[i]) for r in rhs_rows]
           for i in range(n)]                 # gram is symmetric: solve gram X^T = rhs^T
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [[aug[i][n + k] for i in range(n)] for k in range(len(rhs_rows))]


def same_lattice(new_rows, old_rows) -> bool:
    """new = U old with U integral and |det U| = 1."""
    g = _gram(old_rows)
    u = _solve(g, [[sum(x * y for x, y in zip(a, b)) for b in old_rows]
                   for a in new_rows])
    if any(v.denominator != 1 for row in u for v in row):
        return False
    recon = [[sum(u[i][k] * old_rows[k][j] for k in range(len(old_rows)))
              for j in range(len(old_rows[0]))] for i in range(len(u))]
    return recon == [list(r) for r in new_rows] and abs(_det(u)) == 1


def is_lll_reduced(rows, delta=Fraction(99, 100)) -> bool:
    """Size reduction and the Lovasz condition, from a fresh exact GSO."""
    g = _gram(rows)
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bs = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[i][t] * mu[j][t] * bs[t]
                                      for t in range(j))) / bs[j]
        bs.append(g[i][i] - sum(mu[i][t] ** 2 * bs[t] for t in range(i)))
    half = Fraction(1, 2)
    return (all(abs(mu[i][j]) <= half for i in range(n) for j in range(i))
            and all(bs[k] >= (delta - mu[k][k - 1] ** 2) * bs[k - 1]
                    for k in range(1, n)))


def is_dual_basis(dual_rows, rows) -> bool:
    """<d_i, b_j> = delta_ij, and every d_i lies in the span of the b_j."""
    n = len(rows)
    pair = [[sum(x * y for x, y in zip(d, b)) for b in rows] for d in dual_rows]
    if pair != [[int(i == j) for j in range(n)] for i in range(n)]:
        return False
    coeffs = _solve(_gram(rows), [[sum(x * y for x, y in zip(d, b))
                                   for b in rows] for d in dual_rows])
    recon = [[sum(c[k] * rows[k][j] for k in range(n))
              for j in range(len(rows[0]))] for c in coeffs]
    return recon == [list(d) for d in dual_rows]


# ---------------------------------------------------------------------------
# algebra kernels

def cd_mul(x, y) -> tuple:
    return doubling_laws.cd_mul(tuple(x), tuple(y))


def blade_mul(p: int, a: tuple, b: tuple):
    """Product of basis blades e_a e_b given as sorted 1-based index tuples;
    the first p generators square to -1. Returns (indices, sign)."""
    sign = -1 if sum(1 for i in a for j in b if i > j) % 2 else 1
    out = sorted(set(a) ^ set(b))
    for i in set(a) & set(b):
        if i <= p:
            sign = -sign
    return tuple(out), sign


def clif_mul(p: int, x: dict, y: dict) -> dict:
    """Product of {index tuple: Fraction} elements, zero terms dropped."""
    acc: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            blade, sign = blade_mul(p, a, b)
            acc[blade] = acc.get(blade, 0) + sign * ca * cb
    return {k: v for k, v in acc.items() if v}


@lru_cache(maxsize=None)
def eta24(n: int) -> tuple:
    """Coefficients of q^1 .. q^(n+1) in q prod (1-q^k)^24."""
    return tuple(qseries_ref.eta24_over_q(n))


def is_series_inverse(a: tuple, inv: tuple, n: int) -> bool:
    """a * inv = 1 + O(q^(n+1)) for unit-leading power series a and inv."""
    prod = qseries_ref.series_mul(list(a), list(inv), n)
    return prod == [1] + [0] * n


@lru_cache(maxsize=None)
def j_coeffs(n: int) -> tuple:
    """c(-1), c(0), ..., c(n) of j = E4^3 / Delta."""
    m = n + 1
    e4 = qseries_ref.eisenstein4(m)
    e4cubed = qseries_ref.series_mul(qseries_ref.series_mul(e4, e4, m), e4, m)
    disc = qseries_ref.eta24_over_q(m)
    return tuple(qseries_ref.series_mul(e4cubed, qseries_ref.series_inv(disc, m), m))


@lru_cache(maxsize=None)
def pi_hex_digits() -> str:
    """The first 72 fractional hex digits of pi from exact partial sums."""
    frac = pi_hex_ref.pi_fraction(pi_hex_ref.DIGITS + 8) - 3
    num, den = frac.numerator, frac.denominator
    out = []
    for _ in range(pi_hex_ref.DIGITS):
        d, num = divmod(num * 16, den)
        out.append("0123456789ABCDEF"[d])
    return "".join(out)


CANNONBALL_HITS = frozenset({1, 24})          # Watson (1918)


def cannonball_hits(limit: int) -> list:
    return sorted(n for n in CANNONBALL_HITS if n <= limit)


def linking_number(flat, other) -> int:
    """Signed crossings of ``other``'s edges through the flat rectangle
    ``flat`` lying in the plane z = 0. The rectangle's orientation gives its
    normal by the right-hand rule; each edge of ``other`` that passes through
    its interior adds the sign of its z-direction against that normal. The
    rectangle is a Seifert surface of ``flat``, so this is the linking number.
    Vertices must be in general position (edges never touch the boundary)."""
    area2 = sum(a[0] * b[1] - b[0] * a[1]
                for a, b in zip(flat, flat[1:] + flat[:1]))
    normal = 1 if area2 > 0 else -1
    xs = sorted({v[0] for v in flat})
    ys = sorted({v[1] for v in flat})
    total = 0
    for a, b in zip(other, other[1:] + other[:1]):
        if (a[2] > 0) == (b[2] > 0) or a[2] == 0 or b[2] == 0:
            continue
        # the crossing point of a vertical edge is its own (x, y)
        t = Fraction(a[2], a[2] - b[2])
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        if xs[0] < x < xs[-1] and ys[0] < y < ys[-1]:
            total += normal * (1 if b[2] > a[2] else -1)
    return total


# ---------------------------------------------------------------------------
# Clifford classification and spinors (standard tables, own indexing)

# Cl with s = (#generators squaring to +1 - #squaring to -1) mod 8:
# M(R), M(R)+M(R), M(R), M(C), M(H), M(H)+M(H), M(H), M(C)
_BOTT = {0: ("R", 1), 1: ("R", 2), 2: ("R", 1), 3: ("C", 1),
         4: ("H", 1), 5: ("H", 2), 6: ("H", 1), 7: ("C", 1)}
_RING_DIM = {"R": 1, "C": 2, "H": 4}


def clifford_class(p: int, q: int) -> tuple:
    """(ring, matrix size, blocks, text) when p generators square to -1
    and q to +1."""
    ring, blocks = _BOTT[(q - p) % 8]
    size = math.isqrt((1 << (p + q)) // (blocks * _RING_DIM[ring]))
    one = ring if size == 1 else f"{ring}({size})"
    return ring, size, blocks, one if blocks == 1 else f"{one}+{one}"


def spinor_row(n: int) -> dict:
    """Lorentzian spinors in n dimensions, either sign convention."""
    dirac = 1 << (n // 2)
    majorana = n % 8 in (0, 1, 2, 3, 4)
    weyl = n % 2 == 0
    mw = n % 8 == 2
    dims = {2 * dirac} | ({dirac} if majorana or weyl else set()) | (
        {dirac // 2} if mw else set())
    return {"n": n, "dirac_complex_dim": dirac, "majorana": majorana,
            "weyl": weyl, "majorana_weyl": mw,
            "minimal_real_components": min(dims), "_dims": dims}


def super_ym(lo: int, hi: int) -> list:
    return [n for n in range(lo, hi + 1)
            if 2 * (n - 2) in spinor_row(n)["_dims"]]


def spin_area(spins) -> tuple:
    """({spin: multiplicity} for spins > 0, float total of m sqrt(j(j+1)))."""
    exact: dict = {}
    for j in sorted(Fraction(s) for s in spins):
        if j > 0:
            exact[j] = exact.get(j, 0) + 1
    return exact, math.fsum(m * math.sqrt(j * (j + 1)) for j, m in exact.items())


def weyl_vector(dim: int) -> tuple:
    head = {10: 28, 18: 46, 26: 70}[dim]
    coords = (head,) + tuple(range(dim - 1))
    return coords, -head * head + sum(c * c for c in coords[1:])


def is_fundamental_root(coords, dim: int) -> bool:
    """Norm 2 in the form diag(-1, 1, ..., 1) and product -1 with the Weyl
    vector; coords are integers here."""
    w, _ = weyl_vector(dim)

    def dot(a, b):
        return -a[0] * b[0] + sum(x * y for x, y in zip(a[1:], b[1:]))

    return dot(coords, coords) == 2 and dot(coords, w) == -1
