"""Command line front end.

Five groups mirror the library modules: ``hyper`` (doubling algebras),
``clifford``, ``lattice``, ``modular`` (q-series), ``id`` (standalone
kernels). Every subcommand has a ``--json`` mode; numbers that can outgrow
64 bits travel as decimal strings so nothing is rounded in transport. Exit
codes: 0 success, 1 domain error (the library message is echoed verbatim on
stderr), 2 usage error (the grammar is printed).
"""

from __future__ import annotations

import argparse
import operator
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import clifford as cl
from . import hypercomplex as hc
from . import identities as ident
from . import lattices as lat
from . import modular as mod
from .exactnum import format_terms, read_integer, read_rational

GRAMMAR = """\
usage: exceptia <group> <command> [arguments]

  hyper     mul | conj | norm | inv | fano | xprod | permute
  clifford  mul | classify | spinors | superym
  lattice   build | info | theta | shortvec | dual | lll | leech | weyl | root
  modular   eta24 | j
  id        pihex | cannonball | area | link

named lattices: A<n> D<n> E6 E7 E8 D16+ 3E8 E8+D16+ LeechII LeechIcosian
common flags:   --order N   --max-norm M   --limit L   --json   --input FILE
operands that begin with '-' go after '--':  exceptia hyper mul -- e1 -e2
run `exceptia <group> <command> --help` for the arguments of one command
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"error: {message}\n\n")
        sys.stderr.write(GRAMMAR)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# element expressions
#
# shared grammar for hyper and clifford operands:
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (['*'] factor)*        (juxtaposition multiplies)
#   factor := rational | e<digits> | '(' expr ',' expr ')'
# the pair form builds a doubling pair (hyper only); products associate to
# the left, which matters once multiplication is non-associative.

_TOKEN = re.compile(r"\s*(?:([0-9]+/[0-9]+|[0-9]+)|e([0-9]+)|([()+\-*,]))")
# Elements are stored as their nonzero terms, so a unit costs the same at any
# level, but a level-L element has up to 2^L terms (--json prints all 2^L
# coordinates) and a dense product costs 4^L integer products: one dense
# level-8 product (256 coordinates) takes 13-25 ms, or 80-135 ms as the first
# in a process (it fills the sign cache), and `hyper mul` on two dense
# level-8 operands about 0.3 s, mostly interpreter start-up and that first
# product (reading a 256-term operand takes ~10 ms). Units e<n>, pair
# results and --level are held to this cap. A pair of level-L
# elements has level L + 1, so pairs may nest at most this deep, which also
# keeps the recursive descent far inside Python's recursion limit.
_MAX_LEVEL = 8


def _tokenize(text: str) -> List[Tuple[str, object]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot read element {text!r}: unexpected "
                             f"character {text[pos:].strip()[0]!r}")
        if m.group(1):
            try:
                out.append(("num", Fraction(m.group(1))))
            except ZeroDivisionError:
                raise ValueError(f"cannot read element {text!r}: {m.group(1)} "
                                 "has a zero denominator") from None
        elif m.group(2) is not None:
            out.append(("unit", int(m.group(2))))
        else:
            out.append(("sym", m.group(3)))
        pos = m.end()
    return out


class _ExprParser:
    """Reads one element with the given operations; atom(kind, val, parser)
    builds a number, a unit e<n>, or (kind "pair") a doubling pair."""

    def __init__(self, text: str, pairs: bool, atom, add, mul, neg):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.pairs = pairs
        self.depth = 0
        self.atom, self.add, self.mul, self.neg = atom, add, mul, neg

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def _take(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def fail(self, why: str):
        raise ValueError(f"cannot read element {self.text!r}: {why}")

    def parse(self):
        v = self.expr()
        if self.pos != len(self.toks):
            self.fail("trailing input after the expression")
        return v

    def expr(self):
        negate = False
        kind, val = self._peek()
        if kind == "sym" and val in "+-":
            self._take()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = self.neg(acc)
        while True:
            kind, val = self._peek()
            if kind == "sym" and val in "+-":
                self._take()
                t = self.term()
                acc = self.add(acc, self.neg(t) if val == "-" else t)
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val = self._peek()
            if kind == "sym" and val == "*":
                self._take()
                acc = self.mul(acc, self.factor())
            elif kind in ("num", "unit") or (kind == "sym" and val == "("
                                             and self.pairs):
                # juxtaposition multiplies, so "2 e1" and "2*e1" agree
                acc = self.mul(acc, self.factor())
            else:
                return acc

    def factor(self):
        kind, val = self._take()
        if kind in ("num", "unit"):
            return self.atom(kind, val, self)
        if kind == "sym" and val == "(" and self.pairs:
            self.depth += 1
            if self.depth > _MAX_LEVEL:
                self.fail(f"pairs nest deeper than {_MAX_LEVEL} levels")
            v = self.atom("pair", None, self)
            self.depth -= 1
            return v
        if kind is None:
            self.fail("it ends where a value was expected")
        self.fail(f"unexpected {val!r}")

    def expect(self, ch: str):
        kind, val = self._take()
        if kind != "sym" or val != ch:
            self.fail(f"expected {ch!r}")


def _check_level(level: int, what: str) -> None:
    if level > _MAX_LEVEL:
        raise ValueError(f"{what} needs level {level}, above the cap of "
                         f"{_MAX_LEVEL}")


def _h_lift(x: hc.HyperNumber, level: int) -> hc.HyperNumber:
    # the unit sign rule does not depend on the level, so a lift keeps the
    # terms and only changes the level
    if x.level > level:
        raise ValueError(f"element needs level {x.level}, which exceeds "
                         f"level {level}")
    return hc.HyperNumber(x.field, level, x.terms)


def _h_common(x, y):
    level = max(x.level, y.level)
    return _h_lift(x, level), _h_lift(y, level)


def _h_add(x, y):
    x, y = _h_common(x, y)
    return x + y


def _h_mul(x, y):
    x, y = _h_common(x, y)
    return hc.cd_mul(x, y)


def _h_atom(kind, val, p: _ExprParser):
    if kind == "num":
        return hc.hyper([val])
    if kind == "unit":
        level = val.bit_length()
        _check_level(level, f"e{val}")
        return hc.basis_element(level, val)
    # pair: '(' already consumed; b's units sit 2^level above a's
    a = p.expr()
    p.expect(",")
    b = p.expr()
    p.expect(")")
    a, b = _h_common(a, b)
    _check_level(a.level + 1, "the pair")
    shift = 1 << a.level
    return hc.HyperNumber(a.field, a.level + 1,
                          a.terms + tuple((k + shift, c) for k, c in b.terms))


def parse_hyper(text: str, level: Optional[int] = None) -> hc.HyperNumber:
    """Read a doubling-algebra element; lift it to `level` when given."""
    if level is not None:
        if level < 0:
            raise ValueError(f"--level must be at least 0, not {level}")
        _check_level(level, "--level")
    x = _ExprParser(text, True, _h_atom, _h_add, _h_mul, operator.neg).parse()
    if level is not None:
        x = _h_lift(x, level)
    return x


def parse_clifford(text: str, sig: cl.CliffordSignature) -> cl.CliffordElement:
    def atom(kind, val, p):
        return cl.scalar(sig, val) if kind == "num" else cl.generator(sig, val)

    return _ExprParser(text, False, atom, operator.add, cl.clif_mul,
                       operator.neg).parse()


# ---------------------------------------------------------------------------
# formatting

def format_hyper(x: hc.HyperNumber) -> str:
    return format_terms(x.terms, lambda k: f"e{k}")


def _blade_name(mask: int) -> str:
    return "*".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def _emit(args, text_fn, json_obj_fn) -> int:
    if args.json:
        import json  # imported here so that text output skips its cost
        print(json.dumps(json_obj_fn()))
    else:
        print(text_fn())
    return 0


def _emit_hyper(args, z: hc.HyperNumber, **extra) -> int:
    return _emit(args, lambda: format_hyper(z), lambda: {
        "level": z.level, "coords": [str(c) for c in z.coords], **extra})


def _emit_series(args, s: mod.LaurentSeries) -> int:
    return _emit(args, lambda: mod.format_series(s), lambda: {
        "low": s.low, "coeffs": [str(c) for c in s.coeffs]})


def _emit_lattice(args, l: lat.Lattice) -> int:
    return _emit(args, lambda: lat.format_lattice(l).rstrip("\n"), lambda: {
        "rank": l.rank,
        "ambient": l.ambient_dim,
        "signature": l.signature,
        "basis": [[str(v) for v in row] for row in l.basis],
    })


# ---------------------------------------------------------------------------
# hyper group

def _cmd_hyper_mul(args):
    x = parse_hyper(args.x, args.level)
    y = parse_hyper(args.y, args.level)
    return _emit_hyper(args, _h_mul(x, y))


def _cmd_hyper_conj(args):
    return _emit_hyper(args, hc.cd_conj(parse_hyper(args.x, args.level)))


def _cmd_hyper_norm(args):
    n = hc.cd_norm(parse_hyper(args.x, args.level))
    return _emit(args, lambda: str(n), lambda: {"norm": str(n)})


def _cmd_hyper_inv(args):
    return _emit_hyper(args, hc.cd_inv(parse_hyper(args.x, args.level)))


def _cmd_hyper_fano(args):
    if (args.i is None) != (args.j is None):
        raise ValueError("fano takes either two unit indices or none")
    if args.i is None:
        lines = hc.fano_lines()
        return _emit(args,
                     lambda: "\n".join(" ".join(map(str, ln)) for ln in lines),
                     lambda: {"lines": [list(ln) for ln in lines]})
    k, sign = hc.fano_mul(args.i, args.j)
    lhs = f"e{args.i} e{args.j}"
    rhs = ("" if sign > 0 else "-") + (f"e{k}" if k else "1")
    return _emit(args, lambda: f"{lhs} = {rhs}",
                 lambda: {"i": args.i, "j": args.j, "k": k, "sign": sign})


def _cmd_hyper_xprod(args):
    a = parse_hyper(args.a, 3)
    b = parse_hyper(args.b, 3)
    c = parse_hyper(args.c, 3)
    return _emit_hyper(args, hc.xproduct(a, b, c))


def _cmd_hyper_permute(args):
    if sorted(args.images) != ["1", "2", "3"]:
        raise ValueError("the permutation must be three digits rearranging "
                         "123, e.g. 231")
    p = hc.PermutationIJK(tuple(int(ch) for ch in args.images))
    q = parse_hyper(args.q, 2)
    return _emit_hyper(args, hc.ijk_permute(p, q), parity=p.parity)


# ---------------------------------------------------------------------------
# clifford group

def _sig(args) -> cl.CliffordSignature:
    return cl.CliffordSignature(args.p, args.q)


def _cmd_clifford_mul(args):
    sig = _sig(args)
    x = parse_clifford(args.x, sig)
    y = parse_clifford(args.y, sig)
    z = cl.clif_mul(x, y)
    return _emit(args, lambda: format_terms(z.terms, _blade_name), lambda: {
        "p": sig.p, "q": sig.q,
        "terms": [{"blade": [i + 1 for i in range(m.bit_length()) if m >> i & 1],
                   "coeff": str(c)} for m, c in z.terms],
    })


def _cmd_clifford_classify(args):
    c = cl.classify(_sig(args))
    return _emit(args, lambda: str(c), lambda: {
        "p": args.p, "q": args.q,
        "ring": c.ring, "size": c.size, "summands": c.summands,
        "text": str(c),
    })


# `clifford spinors` prints 2^(n // 2) in decimal, which has 4300 digits at
# n = 28569; one more digit passes Python's default cap on int-to-str
# conversion (sys.get_int_max_str_digits), so larger n are refused here.
_MAX_SPINOR_DIM = 28569


def _cmd_clifford_spinors(args):
    if args.n > _MAX_SPINOR_DIM:
        raise ValueError(f"dimension {args.n} is above the cap of "
                         f"{_MAX_SPINOR_DIM} for clifford spinors")
    prof = cl.spinor_taxonomy(args.n)
    fields = [(k, getattr(prof, k)) for k in prof.__slots__]

    def text():
        return "\n".join(f"{k} {str(v).lower() if isinstance(v, bool) else v}"
                         for k, v in fields)

    return _emit(args, text, lambda: dict(fields))


def _cmd_clifford_superym(args):
    dims = sorted(cl.super_ym_dims(args.lo, args.hi))
    return _emit(args, lambda: " ".join(map(str, dims)),
                 lambda: {"lo": args.lo, "hi": args.hi, "dims": dims})


# ---------------------------------------------------------------------------
# lattice group

def _resolve_lattice(args) -> lat.Lattice:
    if args.input and args.name:
        raise ValueError("give a lattice name or --input FILE, not both")
    if args.input:
        with open(args.input) as fh:
            return lat.parse_lattice(fh.read())
    if not args.name:
        raise ValueError("a lattice name or --input FILE is required")
    return lat.named_lattice(args.name)


def _cmd_lattice_build(args):
    return _emit_lattice(args, _resolve_lattice(args))


def _cmd_lattice_info(args):
    l = _resolve_lattice(args)
    info = lat.lattice_info(l)
    import json
    print(json.dumps(info))
    return 0


def _cmd_lattice_theta(args):
    l = _resolve_lattice(args)
    th = lat.theta_series(l, args.order)
    series = mod.LaurentSeries(0, th.counts)
    return _emit(args, lambda: mod.format_series(series), lambda: {
        "order": th.order, "counts": [str(c) for c in th.counts]})


def _cmd_lattice_shortvec(args):
    l = _resolve_lattice(args)
    counts = lat.short_vectors(l, args.max_norm)
    return _emit(args,
                 lambda: "\n".join(f"{n} {c}" for n, c in counts.items()),
                 lambda: {"max_norm": args.max_norm,
                          "counts": {str(n): str(c) for n, c in counts.items()}})


def _cmd_lattice_dual(args):
    return _emit_lattice(args, lat.dual_lattice(_resolve_lattice(args)))


def _cmd_lattice_lll(args):
    return _emit_lattice(args, lat.lll_reduce(_resolve_lattice(args)))


def _cmd_lattice_leech(args):
    return _emit_lattice(args, lat.leech_from_ii26() if args.method == "ii"
                         else lat.leech_from_icosians())


def _cmd_lattice_weyl(args):
    w = lat.weyl_vector(args.dim)
    norm = lat.minkowski_dot(w, w)
    coords = [str(c) for c in w.coords]
    return _emit(args,
                 lambda: " ".join(coords) + f"\nnorm {norm}",
                 lambda: {"dim": args.dim, "coords": coords,
                          "norm": str(norm)})


def _cmd_lattice_root(args):
    coords = []
    for tok in args.coords:
        try:
            coords.append(read_rational(tok))
        except ValueError:
            raise ValueError(f"coordinate {tok} is not a rational "
                             "number") from None
    v = lat.LorentzianVector.from_coords(coords)
    ok = lat.is_fundamental_root(v, args.dim)
    return _emit(args, lambda: "true" if ok else "false",
                 lambda: {"dim": args.dim, "fundamental": ok})


# ---------------------------------------------------------------------------
# modular group

def _cmd_modular_eta24(args):
    return _emit_series(args, mod.eta24(args.order))


def _cmd_modular_j(args):
    return _emit_series(args,
                        mod.j_from_lattice(_resolve_lattice(args), args.order))


# ---------------------------------------------------------------------------
# id group

def _cmd_id_pihex(args):
    digits = ident.bbp_pi_hex(args.start, args.count)
    return _emit(args, lambda: digits,
                 lambda: {"start": args.start, "count": args.count,
                          "digits": digits})


def _cmd_id_cannonball(args):
    hits = sorted(ident.cannonball_search(args.limit))
    return _emit(args, lambda: " ".join(map(str, hits)),
                 lambda: {"limit": args.limit, "hits": hits})


def _cmd_id_area(args):
    exact, approx = ident.spin_area(ident.SpinList.from_values(args.spins))

    def text():
        area = format_terms(exact.items(), lambda j: f"sqrt({j * (j + 1)})")
        return f"{area} = {approx!r}"

    return _emit(args, text, lambda: {
        "terms": [{"spin": str(j), "count": m} for j, m in exact.items()],
        "approx": approx,
    })


def _parse_loop_file(path: str) -> Tuple[ident.PolyLoop, ident.PolyLoop]:
    with open(path) as fh:
        content = fh.read()
    blocks: List[List[Tuple[int, int, int]]] = [[]]
    for raw in content.splitlines():
        line = raw.strip()
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        try:
            x, y, z = map(read_integer, line.split())
        except ValueError:
            raise ValueError(f"loop file line {line!r} is not an integer "
                             "triple") from None
        blocks[-1].append((x, y, z))
    blocks = [b for b in blocks if b]
    if len(blocks) != 2:
        raise ValueError(f"loop file must hold two blank-line-separated "
                         f"blocks of vertices, found {len(blocks)}")
    return ident.PolyLoop(tuple(blocks[0])), ident.PolyLoop(tuple(blocks[1]))


def _cmd_id_link(args):
    g, h = _parse_loop_file(args.input)
    n = ident.linking_number(g, h)
    return _emit(args, lambda: str(n), lambda: {"linking_number": n})


# ---------------------------------------------------------------------------
# wiring

def _int(text: str) -> int:
    """The type of every integer argument: `read_integer`, whose refusal is
    a usage error."""
    try:
        return read_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


def _build_parser() -> _Parser:
    top = _Parser(prog="exceptia", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True, metavar="group")

    def sub(parent, name, fn, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=fn)
        return p

    hy = groups.add_parser("hyper").add_subparsers(
        dest="command", required=True, metavar="command")
    p = sub(hy, "mul", _cmd_hyper_mul)
    p.add_argument("--level", type=_int)
    p.add_argument("x")
    p.add_argument("y")
    for name, fn in (("conj", _cmd_hyper_conj), ("norm", _cmd_hyper_norm),
                     ("inv", _cmd_hyper_inv)):
        p = sub(hy, name, fn)
        p.add_argument("--level", type=_int)
        p.add_argument("x")
    p = sub(hy, "fano", _cmd_hyper_fano)
    p.add_argument("i", nargs="?", type=_int)
    p.add_argument("j", nargs="?", type=_int)
    p = sub(hy, "xprod", _cmd_hyper_xprod)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p = sub(hy, "permute", _cmd_hyper_permute)
    p.add_argument("images")
    p.add_argument("q")

    cf = groups.add_parser("clifford").add_subparsers(
        dest="command", required=True, metavar="command")
    p = sub(cf, "mul", _cmd_clifford_mul)
    p.add_argument("--p", type=_int, default=0)
    p.add_argument("--q", type=_int, default=0)
    p.add_argument("x")
    p.add_argument("y")
    p = sub(cf, "classify", _cmd_clifford_classify)
    p.add_argument("--p", type=_int, default=0)
    p.add_argument("--q", type=_int, default=0)
    p = sub(cf, "spinors", _cmd_clifford_spinors)
    p.add_argument("n", type=_int)
    p = sub(cf, "superym", _cmd_clifford_superym)
    p.add_argument("lo", type=_int)
    p.add_argument("hi", type=_int)

    la = groups.add_parser("lattice").add_subparsers(
        dest="command", required=True, metavar="command")
    for name, fn in (("build", _cmd_lattice_build), ("info", _cmd_lattice_info),
                     ("dual", _cmd_lattice_dual), ("lll", _cmd_lattice_lll)):
        p = sub(la, name, fn)
        p.add_argument("name", nargs="?")
        p.add_argument("--input")
    p = sub(la, "theta", _cmd_lattice_theta)
    p.add_argument("name", nargs="?")
    p.add_argument("--input")
    p.add_argument("--order", type=_int, required=True)
    p = sub(la, "shortvec", _cmd_lattice_shortvec)
    p.add_argument("name", nargs="?")
    p.add_argument("--input")
    p.add_argument("--max-norm", type=_int, required=True, dest="max_norm")
    p = sub(la, "leech", _cmd_lattice_leech)
    p.add_argument("method", nargs="?", choices=("ii", "icosian"),
                   default="ii")
    p = sub(la, "weyl", _cmd_lattice_weyl)
    p.add_argument("dim", type=_int)
    p = sub(la, "root", _cmd_lattice_root)
    p.add_argument("--dim", type=_int, required=True)
    p.add_argument("coords", nargs="+")

    mo = groups.add_parser("modular").add_subparsers(
        dest="command", required=True, metavar="command")
    p = sub(mo, "eta24", _cmd_modular_eta24)
    p.add_argument("--order", type=_int, required=True)
    p = sub(mo, "j", _cmd_modular_j)
    p.add_argument("--lattice", dest="name", metavar="LATTICE")
    p.add_argument("--input")
    p.add_argument("--order", type=_int, default=5)

    idg = groups.add_parser("id").add_subparsers(
        dest="command", required=True, metavar="command")
    p = sub(idg, "pihex", _cmd_id_pihex)
    p.add_argument("start", type=_int)
    p.add_argument("count", type=_int)
    p = sub(idg, "cannonball", _cmd_id_cannonball)
    p.add_argument("--limit", type=_int, required=True)
    p = sub(idg, "area", _cmd_id_area)
    p.add_argument("spins", nargs="*")
    p = sub(idg, "link", _cmd_id_link)
    p.add_argument("--input", required=True)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("out of memory: the request is too large", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
