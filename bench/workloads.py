"""The benchmark's workloads: seeded inputs, the calls they time, and the
oracle check of every answer.

A workload yields ``cold`` ops, run once at the start of a process, and one
``round`` of ops that the run repeats until its time is up. Every input is
built from the seed before any timing starts; an op's ``call`` holds only
the library call (or the ``exceptia`` subprocess) being timed, and its
``check`` runs afterwards, outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import oracles as orc
from exceptia import (clifford as cl, hypercomplex as hc, identities as ident,
                      lattices as lat, modular as mod)

# Every query on a lattice scaled by at least 10^8 is expected to fail on
# this code: the enumerator's float windows lose vectors at that size
# (E8 * 10^8 reports kissing 186, not 240). They stay in and count as
# failures; see bench/README.md.
KNOWN_DEFECT_SCALE = 8


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    props: dict = field(default_factory=dict)
    known_defect: bool = False
    group: str = ""
    result: object = None             # of the latest call; checks may read it
    passed: object = None             # the latest result the oracle accepted


@dataclass
class Workload:
    name: str
    threads: Optional[str]            # EXCEPTIA_THREADS, None = library default
    cold: list
    round: list
    subprocess_requests: bool = False  # each request starts an interpreter


# ---------------------------------------------------------------------------
# leech

def leech(rng: random.Random, ctx) -> Workload:
    """The input is fixed (the seed has nothing to vary); the op is the
    whole user-visible path: construct LeechII, count its norm-4 vectors.
    Two workers, the library default on a 2-core machine, pinned so the
    figure means the same elsewhere; a traced run also times one worker."""
    op = Op("leech_norm4", lambda: lat.short_vectors(lat.leech_from_ii26(), 4),
            lambda r: r == {4: orc.LEECH_NORM4}, {"rank": 24})
    return Workload("leech", "2", [], [op])


# ---------------------------------------------------------------------------
# lattice-mix

def scramble(rows, depth: int, rng: random.Random):
    """Apply ``depth`` random elementary row operations, then shuffle."""
    rows = [list(r) for r in rows]
    for _ in range(depth):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return tuple(tuple(r) for r in rows)


def _family(fam: str, e8):
    """(lattice, info oracle, theta oracle by order, tag) for E6, E7, E8,
    D16+, A<n> or D<n>."""
    if fam[0] == "A":
        n = int(fam[1:])
        return (lat.build_An(n), (n, True, False, 2, orc.an_roots(n)),
                lambda k: orc.an_theta(n, k), fam)
    if fam[0] == "D" and fam[1:].isdigit():
        n = int(fam[1:])
        return (lat.build_Dn(n), (n, True, False, 2, orc.dn_roots(n)),
                lambda k: orc.dn_theta(n, k), fam)
    if fam == "E8":
        return e8, (8, True, True, 2, orc.E8_ROOTS), orc.e8_theta, fam
    if fam == "E7":
        return (lat.build_E7(e8), (7, True, False, 2, orc.E7_ROOTS),
                lambda k: (1, orc.E7_ROOTS)[:k + 1], fam)
    if fam == "E6":
        return (lat.build_E6(e8), (6, True, False, 2, orc.E6_ROOTS),
                lambda k: (1, orc.E6_ROOTS)[:k + 1], fam)
    if fam == "D16+":
        return (lat.build_D16plus(), (16, True, True, 2, 480),
                lambda k: orc.D16PLUS_THETA[:k + 1], fam)
    raise ValueError(fam)


def _info_check(expected):
    keys = ("rank", "even", "unimodular", "min_norm", "kissing")
    return lambda r: tuple(r[k] for k in keys) == tuple(expected)


def _rebuilt(l, rows):
    return lat.Lattice(l.ambient_dim, l.rank, rows)


# One round: (query, lattice, theta order or norm). The lattices and their
# ranks are fixed, so every round has the same cost profile and p50/p90 do
# not swing with the seed; the seed draws the scrambles. Scramble depth
# alternates 8 / 32 down the list, so each depth is exactly half the round.
MIX_CELLS = [
    ("theta", "E8", 4), ("theta", "E8", 3), ("theta", "D6", 2), ("theta", "D12", 2),
    ("theta", "A5", 2), ("theta", "A10", 2),
    ("short", "E7", 2), ("short", "E6", 2), ("short", "D16+", 4),
    *[("info", f, 0) for f in ("E8", "E7", "E6", "A8", "D10", "D16+")],
    *[("lll", f, 0) for f in ("E8", "A12", "D8", "E6")],
    *[("dual", f, 0) for f in ("E7", "A6", "D14", "D16+")],
    ("sum-theta", "D6 summands", 2), ("sum-theta", "D6 flat", 2),
    ("sum-info", "A4 summands", 0), ("sum-info", "A4 flat", 0),
    *[(q, f"1e{k}", 0) for k in (0, 4, 8) for q in ("scaled-info", "scaled-short")],
]


def lattice_mix(rng: random.Random, ctx) -> Workload:
    e8 = lat.build_E8()
    ops = []
    for idx, (query, variant, order) in enumerate(MIX_CELLS):
        depth = 8 if idx % 2 == 0 else 32
        props = {"depth": depth, "scale": "1e0", "sum": "none"}
        defect = False
        if query in ("theta", "short", "info", "lll", "dual"):
            base, info, theta, tag = _family(variant, e8)
            l = _rebuilt(base, scramble(base.basis, depth, rng))
        elif query.startswith("sum"):
            # E8 + the named lattice, with remembered summands or flattened
            # to a plain basis that theta_series has to enumerate whole
            fam, props["sum"] = variant.split()
            fam_b, info_b, theta_b, tag_b = _family(fam, e8)
            parts = [e8, fam_b]
            info = (8 + fam_b.rank, True, False, 2, orc.E8_ROOTS + info_b[4])
            theta = (lambda k, tb=theta_b: orc.theta_product(orc.e8_theta(k), tb(k)))
            tag = f"E8+{tag_b}"
            if props["sum"] == "summands":
                l = lat.direct_sum(*(_rebuilt(p, scramble(p.basis, depth, rng))
                                     for p in parts))
            else:
                flat = lat.direct_sum(*parts)
                l = _rebuilt(flat, scramble(flat.basis, depth, rng))
        else:
            k = int(variant[2:])
            s = 10 ** k
            l = _rebuilt(e8, scramble(tuple(tuple(v * s for v in r)
                                            for r in e8.basis), depth, rng))
            info = (8, True, k == 0, 2 * s * s, orc.E8_ROOTS)
            tag, props["scale"] = f"E8*1e{k}", variant
            defect = k >= KNOWN_DEFECT_SCALE
        props["rank"] = l.rank
        if query in ("theta", "sum-theta"):
            call = (lambda l=l, o=order: lat.theta_series(l, o))
            check = (lambda r, t=theta(order): r.counts == tuple(t))
        elif query == "short":
            call = (lambda l=l, o=order: lat.short_vectors(l, o))
            check = (lambda r, t=theta(order // 2): r == orc.counts_from_theta(t))
        elif query in ("info", "sum-info", "scaled-info"):
            call = (lambda l=l: lat.lattice_info(l))
            check = _info_check(info)
        elif query == "scaled-short":
            norm = info[3]
            call = (lambda l=l, m=norm: lat.short_vectors(l, m))
            check = (lambda r, m=norm: r == {m: orc.E8_ROOTS})
        elif query == "lll":
            call = (lambda l=l: lat.lll_reduce(l))
            check = (lambda r, l=l: orc.is_lll_reduced(r.basis)
                     and orc.same_lattice(r.basis, l.basis))
        else:
            call = (lambda l=l: lat.dual_lattice(l))
            check = (lambda r, l=l: orc.is_dual_basis(r.basis, l.basis))
        ops.append(Op(f"{query}:{tag}", call, check, props, defect))
    rng.shuffle(ops)
    return Workload("lattice-mix", None, [], ops)


# ---------------------------------------------------------------------------
# algebra

def _rand_rat(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))


def _icosian_oracle() -> set:
    """The binary icosahedral group as golden coordinates (u, v) of
    u + v sqrt5: the 24 Hurwitz units and the even permutations of
    (0, +-1, +-1/phi, +-phi)/2."""
    def g(u, v=0):
        return (Fraction(u), Fraction(v))

    zero, half = g(0), g(Fraction(1, 2))
    out = set()
    for i in range(4):
        for s in (1, -1):
            out.add(tuple(g(s) if k == i else zero for k in range(4)))
    for signs in itertools.product((1, -1), repeat=4):
        out.add(tuple(g(Fraction(s, 2)) for s in signs))
    base = (g(0), half, g(Fraction(-1, 4), Fraction(1, 4)),
            g(Fraction(1, 4), Fraction(1, 4)))
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[a] > perm[b] for a in range(4) for b in range(a + 1, 4))
        if inversions % 2:
            continue
        for signs in itertools.product((1, -1), repeat=3):
            vals = [base[0]] + [(s * c[0], s * c[1])
                                for s, c in zip(signs, base[1:])]
            out.add(tuple(vals[perm[k]] for k in range(4)))
    return out


def _icosians_ok(units) -> bool:
    got = {tuple((c.u, c.v) for c in x.q.coords) for x in units}
    return len(units) == 120 and got == _icosian_oracle()


def _is_e8(l) -> bool:
    """Even, integral, positive definite (all leading minors > 0) and of
    determinant 1 in rank 8: that is E8, the unique such lattice."""
    g = [[sum(x * y for x, y in zip(a, b)) for b in l.basis] for a in l.basis]
    minors = [orc.lattice_ref.det_gauss([row[:k] for row in g[:k]])
              for k in range(1, 9)]
    return (l.rank == 8 and all(v.denominator == 1 for r in g for v in r)
            and all(g[i][i] % 2 == 0 for i in range(8))
            and all(m > 0 for m in minors) and minors[-1] == 1)


def _expr(terms) -> str:
    """Command-line text of a sum of (coefficient, unit product) terms. A
    leading minus would read as an option, so positive terms go first and
    an all-negative sum starts from 0."""
    terms = sorted(terms, key=lambda t: t[0] < 0)
    text = "+".join(f"{c}*{u}" if u else f"{c}" for c, u in terms)
    return ("0+" + text if terms[0][0] < 0 else text).replace("+-", "-")


def _clif_text(terms) -> str:
    return _expr([(c, "*".join(f"e{i}" for i in blade))
                  for blade, c in terms.items()])


def algebra(rng: random.Random, ctx) -> Workload:
    cold = [
        Op("icosian_units", lambda: hc.icosian_units(), _icosians_ok),
        Op("build_E8_from_icosians", lambda: lat.build_E8_from_icosians(), _is_e8),
    ]
    ops = []
    for level in (3, 3, 4, 4, 5, 5):
        x = [_rand_rat(rng) for _ in range(1 << level)]
        y = [_rand_rat(rng) for _ in range(1 << level)]
        ops.append(Op(f"cd_mul:L{level}",
                      lambda x=hc.hyper(x), y=hc.hyper(y): hc.cd_mul(x, y),
                      lambda r, x=x, y=y: r.coords == orc.cd_mul(x, y),
                      {"level": level}))
    # The round's costs fall in three bands: 9 calls under ~7 ms (cd_mul,
    # the short BBP window, links), 6 clif_mul calls of 1600 blade products
    # (~10 ms), and 8 calls above 50 ms. The median lands inside the clif_mul
    # band and the 90th percentile inside the top three, whatever the seed.
    for _ in range(6):
        p = rng.randint(0, 10)
        sig = cl.CliffordSignature(p, 10 - p)
        xs, ys = ({tuple(i + 1 for i in range(10) if m >> i & 1):
                   _rand_rat(rng) or Fraction(1) for m in rng.sample(range(1024), 40)}
                  for _ in range(2))
        to_el = (lambda d, sig=sig: cl.CliffordElement.from_dict(
            sig, {sum(1 << (i - 1) for i in b): c for b, c in d.items()}))
        ops.append(Op("clif_mul:n10",
                      lambda a=to_el(xs), b=to_el(ys): cl.clif_mul(a, b),
                      lambda r, p=p, xs=xs, ys=ys, to_el=to_el:
                      r == to_el(orc.clif_mul(p, xs, ys)), {"p": p}))
    # two overlapping 16-digit windows in each of two position strata; each
    # window checks the 8 digits it shares with the other
    for lo in (2 * 10 ** 4, 8 * 10 ** 4):
        pos = rng.randrange(lo, lo + lo // 20)
        pair = [Op("bbp_pi_hex", lambda p=p: ident.bbp_pi_hex(p, 16), None,
                   {"position": p}) for p in (pos, pos + 8)]
        pair[0].check = lambda r, o=pair[1]: len(r) == 16 and r[8:] == o.result[:8]
        pair[1].check = lambda r, o=pair[0]: len(r) == 16 and r[:8] == o.result[8:]
        ops.extend(pair)
    start = rng.randint(1, 56)
    ops.append(Op("bbp_pi_hex", lambda s=start: ident.bbp_pi_hex(s, 16),
                  lambda r, s=start: r == orc.pi_hex_digits()[s - 1:s + 15],
                  {"position": start}))
    n = 1000
    ops.append(Op("eta24", lambda: mod.eta24(n),
                  lambda r: r.low == 1 and r.coeffs == orc.eta24(n)))
    eta = mod.eta24(n + 1)
    ops.append(Op("series_inv", lambda: mod.series_inv(eta, n),
                  lambda r: r.low == -1 and orc.is_series_inverse(
                      eta.coeffs[:n + 2], r.coeffs, n + 1)))
    e8 = lat.build_E8()
    three = lat.direct_sum(e8, e8, e8)
    ops.append(Op("j_from_lattice", lambda: mod.j_from_lattice(three, 5),
                  lambda r: r.low == -1 and r.coeffs == orc.j_coeffs(5)))
    ops.append(Op("cannonball_search", lambda: ident.cannonball_search(10 ** 6),
                  lambda r: sorted(r) == orc.cannonball_hits(10 ** 6)))
    for _ in range(2):
        a, b = link_pair(rng)
        ops.append(Op("linking_number",
                      lambda a=a, b=b: ident.linking_number(
                          ident.PolyLoop(a), ident.PolyLoop(b)),
                      lambda r, a=a, b=b: r == orc.linking_number(a, b)))
    rng.shuffle(ops)
    return Workload("algebra", None, cold, ops)


def link_pair(rng: random.Random):
    """A rectangle in the plane z = 0 (even coordinates) and one in a plane
    y = c (odd coordinates) crossing z = 0, so no edge meets the other
    loop; each is traversed in a random direction."""
    x0, x1 = sorted(rng.sample(range(-8, 9, 2), 2))
    y0, y1 = sorted(rng.sample(range(-8, 9, 2), 2))
    flat = [(x0, y0, 0), (x1, y0, 0), (x1, y1, 0), (x0, y1, 0)]
    u0, u1 = sorted(rng.sample(range(-9, 10, 2), 2))
    c = rng.randrange(-9, 10, 2)
    z0, z1 = -rng.randrange(1, 8, 2), rng.randrange(1, 8, 2)
    other = [(u0, c, z0), (u1, c, z0), (u1, c, z1), (u0, c, z1)]
    if rng.random() < 0.5:
        flat.reverse()
    if rng.random() < 0.5:
        other.reverse()
    return tuple(flat), tuple(other)


# ---------------------------------------------------------------------------
# cli

ENTRY = "import sys; from exceptia.cli import main; sys.exit(main())"

HOPF = "1 1 0\n-1 1 0\n-1 -1 0\n1 -1 0\n\n0 0 1\n0 0 -1\n3 0 -1\n3 0 1\n"

# the round trips documented in README.md, with their documented bytes
README_TRIPS = [
    (["hyper", "mul", "(e1,e4)", "(-1,e5)", "--level", "4"], "-2 e1\n"),
    (["hyper", "fano", "5", "2"], "e5 e2 = e3\n"),
    (["hyper", "permute", "231", "1+2e1", "--json"],
     '{"level": 2, "coords": ["1", "0", "2", "0"], "parity": "even"}\n'),
    (["clifford", "classify", "--p", "0", "--q", "2"], "R(2)\n"),
    (["clifford", "spinors", "4"], "n 4\ndirac_complex_dim 4\nmajorana true\n"
     "weyl true\nmajorana_weyl false\nminimal_real_components 4\n"),
    (["lattice", "info", "E8"], '{"rank": 8, "even": true, "unimodular": true,'
     ' "min_norm": 2, "kissing": 240}\n'),
    (["lattice", "theta", "E8", "--order", "2"], "1 + 240 q + 2160 q^2\n"),
    (["lattice", "weyl", "10"], "28 0 1 2 3 4 5 6 7 8\nnorm -580\n"),
    (["modular", "j", "--lattice", "3E8", "--order", "2"],
     "q^-1 + 744 + 196884 q + 21493760 q^2\n"),
    (["id", "pihex", "1", "10"], "243F6A8885\n"),
    (["id", "area", "1/2", "1/2", "1"],
     "2 sqrt(3/4) + sqrt(2) = 3.1462643699419726\n"),
    (["id", "link", "--input", "hopf.txt"], "-1\n"),
]


def join_terms(parts) -> str:
    """(sign, body) pairs in the CLI's ``a + b - c`` layout."""
    if not parts:
        return "0"
    out = []
    for sign, body in parts:
        if not out:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(out)


def series_text(low: int, coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            k = low + i
            power = "" if k == 0 else "q" if k == 1 else f"q^{k}"
            mag = abs(c)
            body = str(mag) if k == 0 else power if mag == 1 else f"{mag} {power}"
            parts.append((1 if c > 0 else -1, body))
    return join_terms(parts)


def _hyper_args(rng, level):
    def elem():
        terms = rng.sample(range(1 << level), rng.randint(1, 4))
        coords = [Fraction(0)] * (1 << level)
        text = []
        for t in terms:
            c = _rand_rat(rng) or Fraction(1)
            coords[t] += c
            text.append((c, f"e{t}" if t else ""))
        return coords, _expr(text)
    return elem(), elem()


def _cli_generated(rng: random.Random, ctx):
    """(argv, expected text stdout, expected json object, group) per command;
    the json form is used on every other command."""
    out = []
    for level in (rng.randint(3, 5), rng.randint(3, 5)):
        (x, xt), (y, yt) = _hyper_args(rng, level)
        z = orc.cd_mul(x, y)
        text = join_terms([(1 if c > 0 else -1,
                            str(abs(c)) if k == 0 else
                            f"e{k}" if abs(c) == 1 else f"{abs(c)} e{k}")
                           for k, c in enumerate(z) if c])
        out.append((["hyper", "mul", xt, yt, "--level", str(level)], text,
                    {"level": level, "coords": [str(c) for c in z]}))
    p = rng.randint(0, 6)
    q = rng.randint(0, 10 - p)
    xs, ys = ({tuple(sorted(rng.sample(range(1, p + q + 1),
                                       rng.randint(0, p + q)))):
               _rand_rat(rng) or Fraction(1) for _ in range(4)} for _ in range(2))
    z = orc.clif_mul(p, xs, ys)
    mask = {b: sum(1 << (i - 1) for i in b) for b in z}
    order = sorted(z, key=mask.get)
    body = (lambda b, c: str(abs(c)) if not b else
            "*".join(f"e{i}" for i in b) if abs(c) == 1 else
            f"{abs(c)} " + "*".join(f"e{i}" for i in b))
    out.append((["clifford", "mul", "--p", str(p), "--q", str(q),
                 _clif_text(xs), _clif_text(ys)],
                join_terms([(1 if z[b] > 0 else -1, body(b, z[b])) for b in order]),
                {"p": p, "q": q, "terms": [{"blade": list(b), "coeff": str(z[b])}
                                           for b in order]}))
    p, q = rng.randint(0, 12), rng.randint(0, 12)
    ring, size, blocks, cls = orc.clifford_class(p, q)
    out.append((["clifford", "classify", "--p", str(p), "--q", str(q)], cls,
                {"p": p, "q": q, "ring": ring, "size": size,
                 "summands": blocks, "text": cls}))
    n = rng.randint(1, 16)
    row = {k: v for k, v in orc.spinor_row(n).items() if not k.startswith("_")}
    out.append((["clifford", "spinors", str(n)],
                "\n".join(f"{k} {str(v).lower() if isinstance(v, bool) else v}"
                          for k, v in row.items()), row))
    lo = rng.randint(3, 12)
    hi = rng.randint(lo, 20)
    dims = orc.super_ym(lo, hi)
    out.append((["clifford", "superym", str(lo), str(hi)],
                " ".join(map(str, dims)), {"lo": lo, "hi": hi, "dims": dims}))
    e8 = lat.build_E8()
    for fam in ("E7", "E6", rng.choice([f"A{rng.randint(2, 16)}",
                                        f"D{rng.randint(4, 16)}"])):
        base, info, theta, tag = _family(fam, e8)
        obj = dict(zip(("rank", "even", "unimodular", "min_norm", "kissing"), info))
        out.append((["lattice", "info", tag], json.dumps(obj), obj))
    for fam in ("E8", rng.choice([f"A{rng.randint(2, 10)}", f"D{rng.randint(4, 10)}"])):
        base, info, theta, tag = _family(fam, e8)
        k = rng.randint(1, 3 if fam == "E8" else 2)
        t = theta(k)
        out.append((["lattice", "theta", tag, "--order", str(k)],
                    series_text(0, t), {"order": k, "counts": [str(c) for c in t]}))
    dim = rng.choice((10, 18, 26))
    w, norm = orc.weyl_vector(dim)
    out.append((["lattice", "weyl", str(dim)],
                " ".join(map(str, w)) + f"\nnorm {norm}",
                {"dim": dim, "coords": [str(c) for c in w], "norm": str(norm)}))
    a = rng.randint(1, dim - 2)
    b = a + 1 if rng.random() < 0.5 else rng.choice(
        [i for i in range(1, dim) if i not in (a, a + 1)])
    coords = [0] * dim
    coords[a], coords[b] = 1, -1
    ok = orc.is_fundamental_root(coords, dim)
    out.append((["lattice", "root", "--dim", str(dim), *map(str, coords)],
                "true" if ok else "false", {"dim": dim, "fundamental": ok}))
    n = rng.randint(400, 600)
    eta = orc.eta24(n)
    out.append((["modular", "eta24", "--order", str(n)], series_text(1, eta),
                {"low": 1, "coeffs": [str(c) for c in eta]}))
    n = 3
    j = orc.j_coeffs(n)
    out.append((["modular", "j", "--lattice", "3E8", "--order", str(n)],
                series_text(-1, j), {"low": -1, "coeffs": [str(c) for c in j]}))
    s = rng.randint(1, 60)
    c = rng.randint(1, 73 - s)
    d = orc.pi_hex_digits()[s - 1:s - 1 + c]
    out.append((["id", "pihex", str(s), str(c)], d,
                {"start": s, "count": c, "digits": d}))
    lim = rng.randint(1, 5000)
    hits = orc.cannonball_hits(lim)
    out.append((["id", "cannonball", "--limit", str(lim)], " ".join(map(str, hits)),
                {"limit": lim, "hits": hits}))
    spins = [str(Fraction(rng.randint(0, 6), 2)) for _ in range(rng.randint(1, 5))]
    exact, approx = orc.spin_area(spins)
    terms = [(1, f"sqrt({j * (j + 1)})" if m == 1 else f"{m} sqrt({j * (j + 1)})")
             for j, m in exact.items()]
    out.append((["id", "area", *spins], f"{join_terms(terms)} = {approx!r}",
                {"terms": [{"spin": str(j), "count": m} for j, m in exact.items()],
                 "approx": approx}))
    fa, fb = link_pair(rng)
    path = ctx.workdir / "link.txt"
    path.write_text("\n".join(" ".join(map(str, v)) for v in fa) + "\n\n"
                    + "\n".join(" ".join(map(str, v)) for v in fb) + "\n")
    n = orc.linking_number(fa, fb)
    out.append((["id", "link", "--input", path.name], str(n), {"linking_number": n}))
    return out


def run_cli(ctx, argv):
    """One ``exceptia`` invocation through its console-script entry point;
    EXCEPTIA_THREADS is inherited from the benchmark's environment."""
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=ctx.workdir,
                          env=ctx.env(), capture_output=True, timeout=170)
    return proc.returncode, proc.stdout


def cli(rng: random.Random, ctx) -> Workload:
    (ctx.workdir / "hopf.txt").write_text(HOPF)
    ops = []
    for argv, expect in README_TRIPS:
        ops.append(Op(" ".join(argv[:2]), lambda a=argv: run_cli(ctx, a),
                      lambda r, e=expect.encode(): r == (0, e),
                      {"form": "json" if "--json" in argv else "text",
                       "source": "readme"}, group=argv[0]))
    for i, (argv, text, obj) in enumerate(_cli_generated(rng, ctx)):
        as_json = i % 2 == 1
        if as_json:
            argv = argv + ["--json"]
            check = (lambda r, o=obj: r[0] == 0 and json.loads(r[1]) == o)
        else:
            check = (lambda r, t=(text + "\n").encode(): r == (0, t))
        ops.append(Op(" ".join(argv[:2]), lambda a=argv: run_cli(ctx, a), check,
                      {"form": "json" if as_json else "text",
                       "source": "generated"}, group=argv[0]))
    rng.shuffle(ops)
    return Workload("cli", None, [], ops, subprocess_requests=True)


BUILDERS = {
    "leech": leech,
    "lattice-mix": lattice_mix,
    "algebra": algebra,
    "cli": cli,
}
