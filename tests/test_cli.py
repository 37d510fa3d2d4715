"""End-to-end tests of the command line interface.

Everything below calls ``exceptia.cli.main`` in-process and inspects the
captured streams, except for one subprocess check that the console script
behaves the same way (the installed one, or the declared entry point when
nothing is installed), and the determinism checks, which need a fresh
interpreter per run.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from exceptia import cli
from exceptia import hypercomplex as hc
from exceptia import identities as ident
from exceptia import modular as mod
from exceptia.modular import LaurentSeries
from test_acceptance import e4_cubed_and_delta
from test_lattices import power_counts, squares

HOPF = "1 1 0\n-1 1 0\n-1 -1 0\n1 -1 0\n\n0 0 1\n0 0 -1\n3 0 -1\n3 0 1\n"
TOUCHING = "1 1 0\n-1 1 0\n-1 -1 0\n1 -1 0\n\n1 -1 0\n0 0 1\n0 0 -1\n"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# the three worked examples from the interface notes

def test_sedenion_doubling_pair_product(capsys):
    rc, out, _ = run(capsys, "hyper", "mul", "(e1,e4)", "(-1,e5)", "--level", "4")
    assert rc == 0
    assert out == "-2 e1\n"


def test_lattice_info_e8(capsys):
    rc, out, _ = run(capsys, "lattice", "info", "E8")
    assert rc == 0
    assert json.loads(out) == {"rank": 8, "even": True, "unimodular": True,
                               "min_norm": 2, "kissing": 240}


def test_j_series_of_triple_e8(capsys):
    rc, out, _ = run(capsys, "modular", "j", "--lattice", "3E8", "--order", "2")
    assert rc == 0
    assert out == "q^-1 + 744 + 196884 q + 21493760 q^2\n"


def test_leech_j_through_q50_within_budget(capsys):
    # theta(Leech) = E4^3 - 720 Delta and theta(3E8) = E4^3, so j(LeechII)
    # is E4^3 / Delta - 720 and j(LeechII) - j(3E8) is the constant -720
    e4_cubed, delta = e4_cubed_and_delta(52)
    quotient = []               # E4^3 / Delta by long division through q^50
    for k in range(52):
        quotient.append(e4_cubed[k] - sum(quotient[i] * delta[k + 1 - i]
                                          for i in range(k)))
    leech = list(quotient)
    leech[1] -= 720
    start = time.perf_counter()
    rc, out, _ = run(capsys, "modular", "j", "--lattice", "LeechII",
                     "--order", "50")
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert out == mod.format_series(LaurentSeries(-1, tuple(leech))) + "\n"
    assert run(capsys, "modular", "j", "--lattice", "3E8", "--order", "50")[1] \
        == mod.format_series(LaurentSeries(-1, tuple(quotient))) + "\n"
    assert elapsed < 1.0, f"{elapsed:.2f}s (budget 1s)"


def test_leech_info_within_budget(capsys):
    start = time.perf_counter()
    rc, out, _ = run(capsys, "lattice", "info", "LeechII")
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert json.loads(out) == {"rank": 24, "even": True, "unimodular": True,
                               "min_norm": 4, "kissing": 196560}
    assert elapsed < 1.0, f"{elapsed:.2f}s (budget 1s)"


# ---------------------------------------------------------------------------
# hyper group

def test_many_term_level_eight_element_reads_fast(capsys, doubling_laws):
    # each juxtaposed k e<n> scales a unit and each + adds one coordinate;
    # a dense level-8 product per term once took ~14 s for these 32 terms
    x = "+".join(f"{k + 1}e{k}" for k in range(128, 160))
    start = time.perf_counter()
    rc, out, _ = run(capsys, "hyper", "mul", x, "e3")
    elapsed = time.perf_counter() - start
    assert rc == 0
    coords = [Fraction(0)] * 256
    for k in range(128, 160):
        coords[k] = Fraction(k + 1)
    ref = doubling_laws.cd_mul(tuple(coords), doubling_laws.basis(8, 3))
    assert out == cli.format_hyper(hc.hyper(ref)) + "\n"
    assert elapsed < 5.0


def test_dense_256_term_operands_multiply_like_the_reference(capsys,
                                                             doubling_laws):
    # every term of a sum or difference is added into the dense level-8
    # element read so far; the product is the doubling recursion's
    x = "+".join(f"{k + 1}/{k + 1}e{k}" for k in range(256))
    y = "-".join(f"{k + 3}/{k + 2}e{k}" for k in range(256))
    rc, out, _ = run(capsys, "hyper", "mul", x, y)
    assert rc == 0
    xs = (Fraction(1),) * 256
    ys = tuple(Fraction(k + 3, k + 2) * (1 if k == 0 else -1)
               for k in range(256))
    assert cli.parse_hyper(x) == hc.hyper(xs)
    assert cli.parse_hyper(y) == hc.hyper(ys)
    assert out == cli.format_hyper(hc.hyper(doubling_laws.cd_mul(xs, ys))) + "\n"


def test_hyper_text_commands(capsys):
    assert run(capsys, "hyper", "norm", "3+4e1", "--level", "1")[1] == "25\n"
    assert run(capsys, "hyper", "inv", "e1+e2", "--level", "2")[1] == \
        "-1/2 e1 - 1/2 e2\n"
    assert run(capsys, "hyper", "conj", "1+e1+2e3", "--level", "2")[1] == \
        "1 - e1 - 2 e3\n"
    # without --level the operands fix the smallest level that fits
    assert run(capsys, "hyper", "mul", "e1", "e2")[1] == "e3\n"
    # a negative unit part, and the empty sum
    assert run(capsys, "hyper", "mul", "e1", "e1")[1] == "-1\n"
    assert run(capsys, "hyper", "mul", "e1", "0")[1] == "0\n"
    # a pair's second half sits 2^level above its first, at every nesting
    assert run(capsys, "hyper", "conj", "((1,2),(3,e1))")[1] == \
        "1 - 2 e1 - 3 e4 - e7\n"


def test_hyper_json_coords(capsys):
    rc, out, _ = run(capsys, "hyper", "mul", "(e1,e4)", "(-1,e5)",
                     "--level", "4", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["level"] == 4
    assert doc["coords"][1] == "-2"
    assert all(c == "0" for i, c in enumerate(doc["coords"]) if i != 1)
    rc, out, _ = run(capsys, "hyper", "conj", "((1,2),(3,e1))", "--json")
    assert json.loads(out) == {
        "level": 3, "coords": ["1", "-2", "0", "0", "-3", "0", "0", "-1"]}


def test_fano_table(capsys):
    rc, out, _ = run(capsys, "hyper", "fano")
    lines = out.splitlines()
    assert rc == 0
    assert len(lines) == 7
    assert lines[0] == "1 2 4"


def test_fano_products(capsys):
    assert run(capsys, "hyper", "fano", "5", "2")[1] == "e5 e2 = e3\n"
    assert run(capsys, "hyper", "fano", "3", "3")[1] == "e3 e3 = -1\n"


def test_xprod_and_permute(capsys):
    assert run(capsys, "hyper", "xprod", "e1", "e2", "e4")[1] == "e1\n"
    rc, out, _ = run(capsys, "hyper", "permute", "231", "1+2e1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["coords"] == ["1", "0", "2", "0"]
    assert doc["parity"] == "even"


# ---------------------------------------------------------------------------
# clifford group

def test_clifford_mul(capsys):
    rc, out, _ = run(capsys, "clifford", "mul", "--p", "3", "--q", "0",
                     "e1*e2", "e2*e3")
    assert rc == 0
    assert out == "-e1*e3\n"
    rc, out, _ = run(capsys, "clifford", "mul", "--p", "3", "--q", "0",
                     "e1*e2", "e2*e3", "--json")
    assert json.loads(out)["terms"] == [{"blade": [1, 3], "coeff": "-1"}]


def test_clifford_classify(capsys):
    assert run(capsys, "clifford", "classify", "--p", "0", "--q", "2")[1] == \
        "R(2)\n"
    rc, out, _ = run(capsys, "clifford", "classify", "--p", "0", "--q", "2",
                     "--json")
    assert json.loads(out) == {"p": 0, "q": 2, "ring": "R", "size": 2,
                               "summands": 1, "text": "R(2)"}


def test_clifford_spinors_block(capsys):
    rc, out, _ = run(capsys, "clifford", "spinors", "4")
    assert rc == 0
    assert out == ("n 4\ndirac_complex_dim 4\nmajorana true\nweyl true\n"
                   "majorana_weyl false\nminimal_real_components 4\n")


def test_clifford_spinors_cap(capsys):
    # the cap is the largest n whose 2^(n // 2) still converts to decimal
    cap = cli._MAX_SPINOR_DIM
    for flags in ((), ("--json",)):
        rc, out, _ = run(capsys, "clifford", "spinors", str(cap), *flags)
        assert rc == 0
        assert str(1 << cap // 2) in out
        rc, out, err = run(capsys, "clifford", "spinors", str(cap + 1), *flags)
        assert (rc, out) == (1, "")
        assert err == (f"dimension {cap + 1} is above the cap of {cap} "
                       "for clifford spinors\n")


def test_out_of_memory_exits_1(capsys, monkeypatch):
    # `lattice shortvec E8 --max-norm 10^12` asks e4 for 5 * 10^11
    # coefficients; the test raises the MemoryError without allocating
    def exhausted(N):
        raise MemoryError
    monkeypatch.setattr(mod, "e4", exhausted)
    rc, out, err = run(capsys, "lattice", "shortvec", "E8",
                       "--max-norm", str(10**12))
    assert (rc, out) == (1, "")
    assert err == "out of memory: the request is too large\n"


def test_clifford_superym(capsys):
    assert run(capsys, "clifford", "superym", "3", "12")[1] == "3 4 6 10\n"


# ---------------------------------------------------------------------------
# lattice group

def test_lattice_build_info_roundtrip(capsys, tmp_path):
    rc, out, _ = run(capsys, "lattice", "build", "A2")
    assert rc == 0
    assert out.splitlines()[0] == "2 3 euclidean"
    f = tmp_path / "a2.lat"
    f.write_text(out)
    rc, out, _ = run(capsys, "lattice", "info", "--input", str(f))
    assert rc == 0
    assert json.loads(out) == {"rank": 2, "even": True, "unimodular": False,
                               "min_norm": 2, "kissing": 6}
    # the Leech lattice two ways, pinned by the sha256 of stdout (text, then
    # --json); the icosian build reads back as even unimodular with 196560
    # minima
    icosian = (
        "003fa46d87b95ed378155a21a7315473430e46cccf8c520cf267885239d2c53b",
        "16bacf1d407438405698d7143f4d9cc125aa1e6adb98bd6f87d640d4b3103e4b")
    pinned = {
        ("leech", "icosian"): icosian,
        ("build", "LeechIcosian"): icosian,
        ("leech",): (
            "e6b5aac8d3bbf5d26542e2918d4f06dd77811993b70ccf924aad69733b7a1a66",
            "bcfe500c2cfcc9c43e7a422af4126e808681f014b664aaaa1cb1111d8f4d3ae8"),
    }
    for argv, digests in pinned.items():
        for flags, digest in zip(((), ("--json",)), digests):
            rc, out, _ = run(capsys, "lattice", *argv, *flags)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    f = tmp_path / "leech.lat"
    f.write_text(run(capsys, "lattice", "build", "LeechIcosian")[1])
    rc, out, _ = run(capsys, "lattice", "info", "--input", str(f))
    assert json.loads(out) == {"rank": 24, "even": True, "unimodular": True,
                               "min_norm": 4, "kissing": 196560}


def test_lattice_dual_of_e8_is_e8_again(capsys, tmp_path):
    rc, out, _ = run(capsys, "lattice", "dual", "E8")
    assert rc == 0
    f = tmp_path / "e8d.lat"
    f.write_text(out)
    rc, out, _ = run(capsys, "lattice", "info", "--input", str(f))
    assert json.loads(out) == {"rank": 8, "even": True, "unimodular": True,
                               "min_norm": 2, "kissing": 240}


def test_lattice_lll_preserves_the_lattice(capsys, tmp_path):
    rc, out, _ = run(capsys, "lattice", "lll", "D4")
    assert rc == 0
    f = tmp_path / "d4.lll"
    f.write_text(out)
    rc, out, _ = run(capsys, "lattice", "info", "--input", str(f))
    assert json.loads(out) == {"rank": 4, "even": True, "unimodular": False,
                               "min_norm": 2, "kissing": 24}


def test_lattice_theta_and_shortvec(capsys):
    assert run(capsys, "lattice", "theta", "E8", "--order", "2")[1] == \
        "1 + 240 q + 2160 q^2\n"
    rc, out, _ = run(capsys, "lattice", "shortvec", "A2", "--max-norm", "4",
                     "--json")
    assert json.loads(out) == {"max_norm": 4, "counts": {"2": "6"}}


def test_lattice_weyl_and_root(capsys):
    rc, out, _ = run(capsys, "lattice", "weyl", "10")
    assert out == "28 0 1 2 3 4 5 6 7 8\nnorm -580\n"
    good = ["0", "1", "-1", "0", "0", "0", "0", "0", "0", "0"]
    assert run(capsys, "lattice", "root", "--dim", "10", *good)[1] == "true\n"
    bad = ["1", "-1", "0", "0", "0", "0", "0", "0", "0", "0"]
    assert run(capsys, "lattice", "root", "--dim", "10", *bad)[1] == "false\n"


# ---------------------------------------------------------------------------
# modular group

def test_modular_eta24(capsys):
    rc, out, _ = run(capsys, "modular", "eta24", "--order", "3")
    assert out == "q - 24 q^2 + 252 q^3 - 1472 q^4\n"


def test_modular_eta24_order_cap(capsys, monkeypatch):
    cap = mod.ETA24_LIMIT
    rc, out, err = run(capsys, "modular", "eta24", "--order", str(cap + 1))
    assert (rc, out) == (1, "")
    assert err == f"orders beyond {cap} exceed the time budget\n"
    # the cap itself is allowed; a small cap shows it without the cost
    monkeypatch.setattr(mod, "ETA24_LIMIT", 3)
    assert run(capsys, "modular", "eta24", "--order", "3") == \
        (0, "q - 24 q^2 + 252 q^3 - 1472 q^4\n", "")
    assert run(capsys, "modular", "eta24", "--order", "4") == \
        (1, "", "orders beyond 3 exceed the time budget\n")


def test_series_product_bound_exits_1_on_leech(capsys):
    # theta through q^N multiplies E4 by E4 at N + 1 terms, j through q^N
    # multiplies N + 2 terms by N + 2; both refuse before any product
    lim = mod.SERIES_PRODUCT_LIMIT
    side = math.isqrt(lim)
    err = (f"a product of series carrying {side + 1} and {side + 1} terms "
           f"exceeds the time budget of {lim} term pairs\n")
    assert run(capsys, "lattice", "theta", "LeechII",
               "--order", str(side)) == (1, "", err)
    assert run(capsys, "modular", "j", "--lattice", "LeechII",
               "--order", str(side - 1)) == (1, "", err)


def test_modular_j_json(capsys):
    rc, out, _ = run(capsys, "modular", "j", "--lattice", "3E8",
                     "--order", "1", "--json")
    assert json.loads(out) == {"low": -1, "coeffs": ["1", "744", "196884"]}


# ---------------------------------------------------------------------------
# id group

def test_id_pihex(capsys):
    assert run(capsys, "id", "pihex", "1", "10")[1] == "243F6A8885\n"
    rc, out, _ = run(capsys, "id", "pihex", "3", "6", "--json")
    assert json.loads(out) == {"start": 3, "count": 6, "digits": "3F6A88"}


def test_id_pihex_count_cap(capsys):
    # the tail of the digit extractor costs ~count^2, so counts are capped
    cap = ident.BBP_COUNT_LIMIT
    for flags in ((), ("--json",)):
        rc, out, _ = run(capsys, "id", "pihex", "1", str(cap), *flags)
        assert rc == 0
        assert ident.bbp_pi_hex(1, cap) in out
        rc, out, err = run(capsys, "id", "pihex", "1", str(cap + 1), *flags)
        assert (rc, out) == (1, "")
        assert err == f"count {cap + 1} is above the cap of {cap} digits\n"


def test_id_cannonball(capsys):
    assert run(capsys, "id", "cannonball", "--limit", "100")[1] == "1 24\n"


def test_id_cannonball_limit_cap(capsys):
    cap = ident.CANNONBALL_LIMIT
    rc, out, err = run(capsys, "id", "cannonball", "--limit", str(cap + 1))
    assert (rc, out) == (1, "")
    assert err == f"limits beyond {cap} exceed the time budget\n"


def test_id_area(capsys):
    rc, out, _ = run(capsys, "id", "area", "1/2", "1/2", "1")
    assert rc == 0
    exact, approx = out.rstrip("\n").split(" = ")
    assert exact == "2 sqrt(3/4) + sqrt(2)"
    assert float(approx) == pytest.approx(math.sqrt(3) + math.sqrt(2),
                                          rel=1e-12)
    assert run(capsys, "id", "area")[1] == "0 = 0.0\n"


def test_id_link(capsys, tmp_path):
    f = tmp_path / "hopf.txt"
    f.write_text(HOPF)
    assert run(capsys, "id", "link", "--input", str(f))[1] == "-1\n"
    rc, out, _ = run(capsys, "id", "link", "--input", str(f), "--json")
    assert json.loads(out) == {"linking_number": -1}


def test_operands_beginning_with_minus_follow_double_dash(capsys):
    # argparse reads a leading '-' as an option; the grammar names the fix
    rc, out, err = run(capsys, "hyper", "conj", "-2+e1")
    assert (rc, out) == (2, "")
    assert "go after '--'" in err
    assert run(capsys, "hyper", "conj", "--", "-2+e1")[:2] == (0, "-2 - e1\n")
    assert run(capsys, "hyper", "mul", "--", "e1", "-e2")[:2] == (0, "-e3\n")
    assert run(capsys, "clifford", "mul", "--p", "2", "--", "-e1", "e2")[:2] \
        == (0, "-e1*e2\n")


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_2(capsys):
    for argv in ([], ["bogus"], ["hyper"], ["hyper", "bogus"],
                 ["lattice", "build", "A2", "--output", "x"],
                 # integer arguments are ASCII digits, which int() alone
                 # does not check
                 ["modular", "eta24", "--order", "\u0663"],
                 ["id", "pihex", "\u0661", "\u0662"],
                 ["id", "pihex", "\u0661", "2"],
                 ["modular", "eta24", "--order", "1_0"]):
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert "usage: exceptia" in err, argv


def test_domain_errors_exit_1(capsys, tmp_path):
    touch = tmp_path / "touch.txt"
    touch.write_text(TOUCHING)
    a2 = tmp_path / "a2.lat"
    rc, out, _ = run(capsys, "lattice", "build", "A2")
    a2.write_text(out)
    short, long, odd = (tmp_path / f"{n}.txt" for n in ("short", "long", "odd"))
    short.write_text(HOPF.replace("1 1 0\n", "1 1\n", 1))
    long.write_text(HOPF.replace("1 1 0\n", "1 1 0 0\n", 1))
    odd.write_text(HOPF.replace("1 1 0\n", "1 1 0.5\n", 1))
    huge = tmp_path / "huge.lat"
    huge.write_text("1 1 euclidean\n1e999999999999\n")
    arabic = tmp_path / "arabic.lat"
    arabic.write_text("\u0661 1 euclidean\n2\n")
    underscored = tmp_path / "underscored.txt"
    underscored.write_text(HOPF.replace("1 1 0\n", "1 1_0 0\n", 1))

    cases = [
        (["lattice", "info", "E9"], "unknown lattice name 'E9'"),
        (["hyper", "mul", "(e1", "e2"], "cannot read element"),
        (["hyper", "inv", "0", "--level", "1"], "zero-norm"),
        (["hyper", "mul", "(e1,e4)", "(-1,e5)", "--level", "1"],
         "element needs level 4, which exceeds level 1"),
        (["modular", "eta24", "--order", "0"], "eta24 needs N >= 1"),
        (["modular", "j", "--input", str(a2), "--order", "1"],
         "rank-24 even unimodular"),
        (["modular", "j", "--lattice", "3E8", "--input", str(a2)],
         "not both"),
        (["modular", "j", "--order", "1"], "is required"),
        (["id", "link", "--input", str(touch)],
         "needs disjoint loops"),
        (["id", "link", "--input", str(tmp_path / "absent.txt")], ""),
        (["id", "link", "--input", str(short)],
         "loop file line '1 1' is not an integer triple"),
        (["id", "link", "--input", str(long)],
         "loop file line '1 1 0 0' is not an integer triple"),
        (["id", "link", "--input", str(odd)],
         "loop file line '1 1 0.5' is not an integer triple"),
        (["id", "area", "1/2", "1/0"], "spin 1/0 is not"),
        (["hyper", "mul", "(" * 1200 + "1" + ")" * 1200, "1"],
         "pairs nest deeper than"),
        (["hyper", "mul", "(" * 32 + "1" + ",0)" * 32, "1"],
         "pairs nest deeper than 8 levels"),
        (["hyper", "mul", "e100000", "e1"], "e100000 needs level 17"),
        (["hyper", "norm", "1", "--level", "40"], "--level needs level 40"),
        (["hyper", "norm", "0", "--level", "-3"],
         "--level must be at least 0, not -3"),
        (["hyper", "mul", "e1", "e2", "--level", "-1"],
         "--level must be at least 0, not -1"),
        (["hyper", "mul", "(e128,0)", "1"], "the pair needs level 9"),
        (["hyper", "mul", "1/0", "1"], "1/0 has a zero denominator"),
        (["clifford", "mul", "--p", "1", "1/0", "e1"],
         "1/0 has a zero denominator"),
        (["lattice", "root", "--dim", "10", "1/0"] + ["0"] * 9,
         "coordinate 1/0 is not a rational number"),
        (["lattice", "info", "A99999999999"], "above the cap of 128"),
        (["lattice", "info", "D3000"], "D3000 has rank 3000, above the cap"),
        # exponents are refused before any power of ten is built
        (["id", "area", "1e99999999999"],
         "spin 1e99999999999 is not a nonnegative half-integer"),
        (["lattice", "root", "--dim", "10", "1e99999999999"] + ["0"] * 9,
         "coordinate 1e99999999999 is not a rational number"),
        (["lattice", "info", "--input", str(huge)],
         "bad rational entry in row: '1e999999999999'"),
        # only ASCII digits make a rank
        (["lattice", "build", "A\u00b2"], "unknown lattice name 'A\u00b2'"),
        (["lattice", "info", "D\u0663"], "unknown lattice name 'D\u0663'"),
        (["hyper", "mul", "\u0663", "1"],
         "cannot read element '\u0663': unexpected character '\u0663'"),
        (["clifford", "mul", "e\u0661", "1"],
         "cannot read element 'e\u0661'"),
        (["lattice", "info", "--input", str(arabic)],
         "rank and ambient dimension must be integers"),
        (["id", "link", "--input", str(underscored)],
         "loop file line '1 1_0 0' is not an integer triple"),
    ]
    for argv, needle in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == 1, argv
        assert needle in err, argv


# ---------------------------------------------------------------------------
# the installed script, and determinism

def console_script_command():
    """The installed ``exceptia`` script, or else the entry point that
    pyproject.toml declares for it, run the way pip's wrapper runs it."""
    script = shutil.which("exceptia")
    if script:
        return [script]
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["exceptia"]
    module, attr = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_console_script_runs():
    proc = subprocess.run(console_script_command() + ["lattice", "info", "E8"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kissing"] == 240


def test_cli_import_skips_dataclasses_inspect_and_json():
    # these modules cost start-up time on every call and none is needed to
    # parse arguments or print text; json is imported where --json prints
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; before = set(sys.modules); import exceptia.cli; "
             "print(sorted({'dataclasses', 'inspect', 'json'} "
             "& (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_output_is_deterministic_across_runs():
    # each command runs under two different string-hash seeds, so neither
    # hash nor dict order can reach stdout. D12 at norm 6 is enumerated (it
    # is not unimodular); its counts are r_12(2k)
    r12 = power_counts(squares(6), 12, 6)
    leech = {"rank": 24, "even": True, "unimodular": True, "min_norm": 4,
             "kissing": 196560}
    for args, check in (
            (["shortvec", "E8", "--max-norm", "4"],
             lambda out: out.splitlines() == ["2 240", "4 2160"]),
            (["shortvec", "D12", "--max-norm", "6"],
             lambda out: out.splitlines() == [f"{k} {r12[k]}"
                                              for k in (2, 4, 6)]),
            (["dual", "D16+"], lambda out: out.startswith("16 16 euclidean\n")),
            (["lll", "E7"], lambda out: out.startswith("7 8 euclidean\n")),
            (["info", "LeechII", "--json"],
             lambda out: json.loads(out) == leech)):
        outs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "exceptia.cli", "lattice", *args],
                capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert check(outs[0].decode())
