"""Spans recorded around calls into exceptia's public functions.

``Tracer.install`` replaces each traced name on its module with a wrapper
that records (name, layer, start, end, parent span, op id) and restores the
originals on ``uninstall``. Spans stay in memory until the run ends, when
``write`` puts them in one file. Child
processes of the enumerator's pool are not traced; their work shows up
inside the parent's ``short_vectors``/``theta_series``/``lattice_info`` span.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from exceptia import (clifford, hypercomplex, identities, intlinalg, lattices,
                      modular)

INTLINALG = ("hnf", "hnf_transform", "left_kernel", "solve_left",
             "det_fraction", "invert_fraction", "matmul")
# exact work counters: they depend on the seed only
COUNTERS = ("lattices.vectors", "lattices.lll_calls", "intlinalg.calls",
            "hypercomplex.cd_mul_calls", "clifford.clif_mul_calls",
            "modular.coeffs", "identities.hex_digits", "cli.stdout_bytes")
CLI_GROUPS = ("hyper", "clifford", "lattice", "modular", "id")


def _vectors(result) -> int:
    if "kissing" in result:
        return result["kissing"] or 0
    return sum(result.values())


def _coeffs(series) -> int:
    return len(series.coeffs)


# (module, attribute, span name, layer, work measure of the result or None)
TRACED = [
    # vectors are counted where they are enumerated; theta_series reaches
    # them through short_vectors, or convolves summands without enumerating
    *[(lattices, n, n, "lattices.query", _vectors)
      for n in ("short_vectors", "lattice_info")],
    (lattices, "theta_series", "theta_series", "lattices.query", None),
    (modular, "theta_series", "theta_series", "lattices.query", None),
    *[(lattices, n, n, "lattices.query", None)
      for n in ("lll_reduce", "dual_lattice")],
    # the enumerator's LLL has no public entry; _lll_gram is the one LLL core
    (lattices, "_lll_gram", "lll", "lattices.lll", None),
    *[(lattices, n, n, "lattices.construct", None)
      for n in ("leech_from_ii26", "build_An", "build_Dn", "build_E8",
                "build_E7", "build_E6", "build_D16plus", "direct_sum",
                "named_lattice", "build_E8_from_icosians")],
    *[(intlinalg, n, n, "intlinalg", None) for n in INTLINALG],
    # names lattices binds with ``from .intlinalg import``
    *[(lattices, n, n, "intlinalg", None)
      for n in ("left_kernel", "solve_left", "det_fraction", "invert_fraction")],
    (hypercomplex, "cd_mul", "cd_mul", "hypercomplex", None),
    (hypercomplex, "icosian_units", "icosian_units", "hypercomplex", None),
    (clifford, "clif_mul", "clif_mul", "clifford", None),
    (modular, "eta24", "eta24", "modular", _coeffs),
    (modular, "series_inv", "series_inv", "modular", _coeffs),
    (modular, "series_mul", "series_mul", "modular", _coeffs),
    (modular, "j_from_lattice", "j_from_lattice", "modular", _coeffs),
    (identities, "bbp_pi_hex", "bbp_pi_hex", "identities", len),
    (identities, "linking_number", "linking_number", "identities", None),
    (identities, "cannonball_search", "cannonball_search", "identities", None),
]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, op, work]
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, layer, measure):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[6] = measure(result)
            return result

        return traced

    def install(self):
        for module, attr, name, layer, measure in TRACED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, layer, measure))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        """All spans as JSON rows [name, layer, start_s, end_s, parent, op],
        times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], round(s[2] - t0, 6), round(s[3] - t0, 6), s[4], s[5]]
                for s in self.spans]
        path.write_text(json.dumps(rows, separators=(",", ":")))
        return path

    def summary(self, ops=None) -> dict:
        """Per span name: calls, total and self seconds, and work, over the
        spans of the given op ids (all spans when None). Work is counted
        only where no enclosing span measures the same layer, so nested
        calls (theta_series over direct-sum summands) count once."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "work": 0})
        for i, s in enumerate(self.spans):
            if ops is not None and s[5] not in ops:
                continue
            row = out[s[0]]
            row["calls"] += 1
            row["total_s"] += s[3] - s[2]
            row["self_s"] += s[3] - s[2] - child[i]
            if s[6] is not None and not self._inside_layer(s):
                row["work"] += s[6]
        return dict(out)

    def _inside_layer(self, span) -> bool:
        p = span[4]
        while p is not None:
            if self.spans[p][1] == span[1] and self.spans[p][6] is not None:
                return True
            p = self.spans[p][4]
        return False


def layer_metrics(summary, ops) -> dict:
    """Per-layer times and counts of one pass, from ``Tracer.summary`` over
    its spans and from the pass's ops (CLI subprocesses are timed from
    outside). Rates are left to the caller, which aggregates passes."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def total(names, key):
        return sum(get(n, key) for n in names)

    query = ("short_vectors", "theta_series", "lattice_info")
    return {
        "lattices.enum_s": total(query, "self_s"),
        "lattices.vectors": total(query, "work"),
        "lattices.lll_s": total(("lll", "lll_reduce"), "self_s"),
        "lattices.lll_calls": get("lll", "calls"),
        "lattices.construct_s": total(
            ("leech_from_ii26", "build_An", "build_Dn", "build_E8", "build_E7",
             "build_E6", "build_D16plus", "direct_sum", "named_lattice",
             "build_E8_from_icosians"), "self_s"),
        "intlinalg.s": total(INTLINALG, "self_s"),
        "intlinalg.calls": total(INTLINALG, "calls"),
        "hypercomplex.icosian_closure_s": get("icosian_units", "total_s"),
        "hypercomplex.cd_mul_calls": get("cd_mul", "calls"),
        "hypercomplex.cd_mul_s": get("cd_mul", "self_s"),
        "clifford.clif_mul_s": get("clif_mul", "self_s"),
        "clifford.clif_mul_calls": get("clif_mul", "calls"),
        "modular.eta24_s": get("eta24", "self_s"),
        "modular.series_inv_s": get("series_inv", "self_s"),
        "modular.series_mul_s": get("series_mul", "self_s"),
        "modular.j_self_s": get("j_from_lattice", "self_s"),
        "modular.coeffs": total(("eta24", "series_inv", "series_mul",
                                 "j_from_lattice"), "work"),
        "identities.bbp_s": get("bbp_pi_hex", "total_s"),
        "identities.hex_digits": get("bbp_pi_hex", "work"),
        "identities.link_s": get("linking_number", "self_s"),
        "cli.stdout_bytes": sum(len(op.result[1]) for op in ops
                                if op.group and op.result),
        **{f"cli.{g}_p50_ms": 1000 * statistics.median(
            [op.latency for op in ops if op.group == g] or [0]) for g in CLI_GROUPS},
    }
