"""exceptia benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; the reference scripts in ``scripts/`` serve as oracles). One
client issues one request at a time. The run repeats the workload's seeded
round of requests while the timed wall time stays within ``--seconds``,
checks every answer against an independent route outside the timed regions,
prints a readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("leech", "lattice-mix", "algebra", "cli")
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
# The reference machine's speed swings by up to 1.7x between minutes
# (other tenants), and in-process timings swing with it. They are therefore
# reported at a reference speed, scaled by a fixed pure-Python loop timed
# before, between and after the rounds of the same run (about 3 ms at the
# reference speed); set-up is scaled by a bare `python -c pass` timed next
# to each set-up sample (about 50 ms). Neither probe runs exceptia code.
# CLI requests stay unscaled: their wall time held within 5% across runs
# while both probes swung by 30%. Raw timings are printed alongside.
REFERENCE_PROBE_S = 0.003
REFERENCE_SPAWN_S = 0.05


@dataclass
class Ctx:
    workdir: Path
    src: str

    def env(self) -> dict:
        """Environment of every interpreter the benchmark starts: the
        checkout's sources on the path, and bytecode caching on (as for an
        installed package), whatever the caller's environment says."""
        env = {**os.environ, "PYTHONPATH": self.src}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def spawn_s(ctx: Ctx, code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    env = ctx.env()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    return time.perf_counter() - t0


def startup_samples(ctx: Ctx, code: str, n: int) -> list:
    spawn_s(ctx, code)                  # fills the bytecode cache; not timed
    return [spawn_s(ctx, code) for _ in range(n)]


def _probe_kernel():
    """Fixed interpreter work shaped like exceptia's (Fraction arithmetic,
    big-int products, dict updates); it never touches exceptia."""
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, i + 3)
    table = {}
    x = 1
    for i in range(4500):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        table[x % 997] = table.get(x % 997, 0) + i
    return acc, len(table)


def probe_samples(n: int) -> list:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _probe_kernel()
        out.append(time.perf_counter() - t0)
    return out


def set_threads(value):
    if value is None:
        os.environ.pop("EXCEPTIA_THREADS", None)
    else:
        os.environ["EXCEPTIA_THREADS"] = value


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_ops(ops, tracer=None, tag="") -> float:
    """Time each op's call; store its result or exception. Returns the sum
    of the op latencies (the timed wall time)."""
    total = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{tag}:{i}"
        t0 = time.perf_counter()
        try:
            op.result, op.error = op.call(), None
        except Exception as exc:        # a failed request, counted below
            op.result, op.error = None, exc
        op.latency = time.perf_counter() - t0
        total += op.latency
    return total


def check_ops(ops) -> list:
    """Oracle checks after timing. Returns the failed ops. Rounds repeat
    the same inputs, so an answer equal to one the oracle already passed
    for that op is passed again without redoing the oracle's work."""
    bad = []
    for op in ops:
        if op.error is None and op.passed is not None and op.result == op.passed:
            continue
        try:
            ok = op.error is None and bool(op.check(op.result))
        except Exception as exc:        # an answer the oracle cannot read
            op.error, ok = exc, False
        if ok:
            op.passed = op.result
        else:
            bad.append(op)
    return bad


class Tally:
    """Latencies and failures over every op the run made."""

    def __init__(self):
        self.latencies, self.failures, self.attempted = [], Counter(), 0
        self.unexpected = 0

    def add(self, ops):
        self.attempted += len(ops)
        self.latencies.extend(op.latency for op in ops)
        for op in check_ops(ops):
            why = type(op.error).__name__ if op.error else "wrong answer"
            self.failures[(op.kind, op.known_defect, why)] += 1
            self.unexpected += not op.known_defect

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def measure_rounds(seconds, one_round) -> int:
    """Repeat ``one_round`` (returns its timed seconds) while the next round
    is expected to fit in ``seconds``; always at least one round."""
    elapsed, rounds = 0.0, 0
    while True:
        last = one_round(rounds)
        elapsed += last
        rounds += 1
        if elapsed + last > seconds:
            return rounds


def shares(wl) -> dict:
    ops = wl.cold + wl.round
    out = {}
    for key in sorted({k for op in ops for k in op.props}):
        vals = Counter(str(op.props[key]) for op in ops if key in op.props)
        total = sum(vals.values())
        out[key] = {v: round(c / total, 4) for v, c in sorted(vals.items())}
    return out


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def untraced(wl, ctx, seconds, record) -> tuple:
    # Set-up and the speed probe are sampled in turn before the first round,
    # after it and after the last (and the probe after every round), so
    # their medians span the run rather than one burst of machine noise.
    setup, bare, probe = [], [], []

    def sample():
        for _ in range(SETUP_SAMPLES):
            setup.append(spawn_s(ctx, "import exceptia.cli"))
            bare.append(spawn_s(ctx, "pass"))
            probe.extend(probe_samples(3))

    spawn_s(ctx, "import exceptia.cli")         # fills the bytecode cache
    sample()
    set_threads(wl.threads)
    tally = Tally()
    round_s = []
    if wl.cold:
        run_ops(wl.cold)
        tally.add(wl.cold)

    def one_round(r):
        t = run_ops(wl.round)
        tally.add(wl.round)
        round_s.append(t)
        probe.extend(probe_samples(3))
        if r == 0:
            sample()
        return t

    record["rounds"] = measure_rounds(seconds - sum(op.latency for op in wl.cold),
                                      one_round)
    sample()
    spawn_scale = REFERENCE_SPAWN_S / statistics.median(bare)
    scale = (1.0 if wl.subprocess_requests
             else REFERENCE_PROBE_S / statistics.median(probe))
    record["probe_ms"] = 1000 * statistics.median(probe)
    record["bare_spawn_ms"] = 1000 * statistics.median(bare)
    record["speed_scale"] = {"requests": scale, "setup": spawn_scale}
    lat = tally.latencies
    steady = len(wl.round) * len(round_s)
    raw = {
        "setup_s": (statistics.median(setup), len(setup), "s"),
        "p50_ms": (1000 * statistics.median(lat), len(lat), "ms"),
        "p90_ms": (1000 * quantile(lat, 0.9), len(lat), "ms"),
        # over the repeated rounds only: one cold sample would dominate it
        "ops_per_s": (steady / sum(round_s), steady, "1/s"),
    }
    metrics = {
        "setup_s": (raw["setup_s"][0] * spawn_scale, len(setup)),
        "p50_ref_ms": (raw["p50_ms"][0] * scale, len(lat)),
        "p90_ref_ms": (raw["p90_ms"][0] * scale, len(lat)),
        "ops_per_ref_s": (raw["ops_per_s"][0] / scale, steady),
    }
    named = {
        "leech": {"leech_2w_s": (statistics.median(lat), len(lat), "s")},
        "lattice-mix": {"mix_p50_ms": raw["p50_ms"], "mix_p90_ms": raw["p90_ms"],
                        "mix_qps": raw["ops_per_s"]},
        "algebra": {"icosian_cold_s": (wl.cold[0].latency if wl.cold else 0, 1, "s"),
                    "algebra_batch_s": (statistics.median(round_s), len(round_s),
                                        "s")},
        "cli": {"cli_p50_ms": raw["p50_ms"], "cli_p90_ms": raw["p90_ms"]},
    }[wl.name]
    named = {**{f"raw {k}": v for k, v in raw.items()}, **named}
    named["fail_share"] = (tally.failed / tally.attempted, tally.attempted, "share")
    return tally, metrics, named


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def traced(wl, ctx, seconds, record) -> tuple:
    import tracing
    from exceptia import lattices

    layers_of = tracing.layer_metrics

    e8 = lattices.build_E8()
    pool = {}
    for threads in ("1", "2"):
        set_threads(threads)
        pool[threads] = []
        for _ in range(PROBE_SAMPLES):
            t0 = time.perf_counter()
            lattices.lattice_info(e8)
            pool[threads].append(time.perf_counter() - t0)
    bare = startup_samples(ctx, "pass", PROBE_SAMPLES)
    imported = startup_samples(ctx, "import exceptia.cli", PROBE_SAMPLES)

    tracer = tracing.Tracer()
    tally = Tally()
    main = wl.threads if wl.threads is not None else str(os.cpu_count() or 1)
    other = "1" if main != "1" else "2"
    record["exceptia_threads"] = {"untraced_pass": main, "traced_pass": main,
                                  "traced_check_pass": other, "probes": "1 and 2"}
    set_threads(main)
    tracer.install()
    try:
        run_ops(wl.cold, tracer, "cold")
    finally:
        tracer.uninstall()
    tally.add(wl.cold)
    cold = layers_of(tracer.summary({f"cold:{i}" for i in range(len(wl.cold))}),
                     wl.cold)
    passes = {"plain": [], "main": [], "other": []}
    per_round, mismatches, ratios = [], [], []

    def one_round(r):
        set_threads(main)
        passes["plain"].append(run_ops(wl.round))
        plain = [op.latency for op in wl.round]
        tally.add(wl.round)
        layers = {}
        for name, threads in (("main", main), ("other", other)):
            set_threads(threads)
            tracer.install()
            try:
                passes[name].append(run_ops(wl.round, tracer, f"{name}{r}"))
            finally:
                tracer.uninstall()
            if name == "main":
                ratios.extend(op.latency / t for op, t in zip(wl.round, plain))
            tally.add(wl.round)
            layers[name] = layers_of(tracer.summary(
                {f"{name}{r}:{i}" for i in range(len(wl.round))}), wl.round)
        for c in tracing.COUNTERS:
            ref = per_round[0][c] if per_round else layers["main"][c]
            if not layers["main"][c] == layers["other"][c] == ref:
                mismatches.append((r, c, ref, layers["main"][c], layers["other"][c]))
        per_round.append(layers["main"])
        return passes["plain"][-1] + passes["main"][-1] + passes["other"][-1]

    record["rounds"] = measure_rounds(seconds, one_round)
    n = len(per_round)
    layer = {k: cold[k] + (v if k in tracing.COUNTERS else
                           sum(p[k] for p in per_round) / n)
             for k, v in per_round[0].items()}
    for rate, num, den in (("lattices.vectors_per_s", "lattices.vectors",
                            "lattices.enum_s"),
                           ("identities.hex_digits_per_s", "identities.hex_digits",
                            "identities.bbp_s")):
        layer[rate] = layer[num] / layer[den] if layer[den] else 0.0
    one = statistics.median(passes["main" if main == "1" else "other"])
    two = statistics.median(passes["main" if main != "1" else "other"])
    layer["lattices.speedup_2w"] = one / two
    layer["lattices.pool_call_ms"] = 1000 * (statistics.median(pool["2"])
                                             - statistics.median(pool["1"]))
    layer["cli.startup_ms"] = 1000 * (statistics.median(imported)
                                      - statistics.median(bare))
    # per request, so one burst of machine noise in either pass cannot
    # swing it the way a ratio of pass totals would
    layer["trace.overhead_share"] = statistics.median(ratios) - 1
    record["counter_mismatches"] = mismatches
    record["counters"] = {c: layer[c] for c in tracing.COUNTERS}
    record["spans_file"] = str(tracer.write(ROOT / ".bench_work" /
                                            f"spans-{wl.name}-{record['seed']}.json"))
    metrics = {k: (v, n) for k, v in layer.items()}
    named = {"leech_1w_s": (one, n, "s"), "leech_2w_s": (two, n, "s")} \
        if wl.name == "leech" else {}
    return tally, metrics, named, not mismatches


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order follows str hashing, and with it the number of
        # products the icosian closure makes; pin it (for the CLI and pool
        # children too) so that work counters repeat from run to run.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "exceptia" / "__init__.py").is_file():
        print(f"bench: no exceptia sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT / "scripts"), str(HERE)]
    import workloads

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "nproc": os.cpu_count(),
              "python": sys.version.split()[0], "loadavg_start": loadavg()}
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Ctx(workdir, src)
        wl = workloads.BUILDERS[args.workload](
            random.Random(f"{args.workload}:{args.seed}"), ctx)
        if args.trace:
            tally, metrics, named, counters_ok = traced(wl, ctx, args.seconds, record)
        else:
            record["exceptia_threads"] = {"measure": wl.threads or "default"}
            tally, metrics, named = untraced(wl, ctx, args.seconds, record)
            counters_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_end"] = loadavg()
    kinds = {}
    for op in wl.cold + wl.round:
        kinds.setdefault(op.kind.split(":")[0], []).append(op.latency)
    record["latest_round_ms_by_kind"] = {k: round(1000 * statistics.median(v), 3)
                                         for k, v in sorted(kinds.items())}
    record["input_shares"] = shares(wl)
    record["failures"] = [{"op": k, "known_defect": d, "why": w, "count": c}
                          for (k, d, w), c in sorted(tally.failures.items())]

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    rows = {m["name"]: metrics[m["name"]] + (m["unit"],) for m in spec}
    print(f"# exceptia benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"# {'metric':34} {'unit':6} {'median':>14} samples")
    for name, (value, count, unit) in {**rows, **named}.items():
        print(f"# {name:34} {unit:6} {value:14.6g} {count}")
    if any(f["known_defect"] for f in record["failures"]):
        print("# known defect: queries on lattices scaled by >= 1e8 lose "
              "vectors to the enumerator's float windows; they count as failures")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": tally.unexpected == 0 and counters_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, _, u) in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
