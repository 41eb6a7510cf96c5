"""Benchmark of the nscurves engine: four workloads, closed loop, one process.

    python3 nsbench/run.py --workload golden-derive --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
Each op runs to completion before the next starts (one client, one
process).  The loop repeats the workload's whole pool of ops until
``--seconds`` have passed, so every run measures the same mix.  Every
output is checked by ``oracles.py``, which does not use the engine.  Op
times are scaled for the host's speed (``HostSpeed``) and read at each
op's median over the passes (``steady_times``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the pool, prints the per-layer metrics and
writes the spans to ``nsbench/out/``.  The last line of standard output is
the JSON result; the lines before it are the readable report.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# one process, one BLAS thread: the small dense solves here gain nothing
# from threads and their scheduling noise would blur the timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy  # noqa: E402 - after the BLAS thread settings above
import oracles  # noqa: E402 - needs the path above; imports no engine code

SETUP_PROBES = 15
WORKLOAD_NAMES = ("golden-derive", "rational-derive", "divisor-roundtrip", "hyper-loop")
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
REFERENCE_S = 0.003  # nominal time of reference_kernel: times read as if it took this
REFERENCE_EVERY_S = 0.1
REFERENCE_REACH_S = 0.35  # kernel timings this close to an op scale it
REFERENCE_MIN_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "err_margin_digits": "digits",
}

# Spans whose total time, self time or call count is a per-layer metric, and
# counters kept by the tracer.  Times and counts are per traced op.
TIMED_SPANS = (
    "expansions.expand_at_infinity",
    "expansions.first_kind_basis",
    "expansions.associated_second_kind",
    "algebra.residue_of_product",
    "abelian.log_sigma_derivative_expansion",
    "abelian.zeta_relations",
    "abelian.build_inversion_system",
    "abelian.emit_system",
    "curves.lift_x_to_points",
    "divisors.random_divisor",
    "divisors.sample_point",
    "divisors.rfunctions_from_divisor",
    "divisors.solve_divisor",
    "divisors.chi_polynomial",
    "divisors.make_divisor",
    "hyperell.compute_periods",
    "hyperell.abel_map",
    "hyperell.theta_with_derivs",
    "hyperell.wp_from_theta",
    "hyperell.verify_inversion",
)
SELF_TIMED_SPANS = (
    "expansions.associated_second_kind",
    "abelian.build_inversion_system",
    "divisors.random_divisor",
    "divisors.rfunctions_from_divisor",
    "divisors.solve_divisor",
    "hyperell.compute_periods",
    "hyperell.wp_from_theta",
    "hyperell.verify_inversion",
)
COUNTED_SPANS = (
    "algebra.residue_of_product",
    "curves.lift_x_to_points",
    "divisors.sample_point",
    "hyperell.abel_map",
    "hyperell.theta_with_derivs",
)
COUNTERS = {
    "algebra.poly_mul.count": "algebra.poly_mul",
    "algebra.poly_add.count": "algebra.poly_add",
    "algebra.series_mul.count": "algebra.series_mul",
    "algebra.series_invert.count": "algebra.series_invert",
    "abelian.emitted_terms.count": "abelian.emitted_terms",
    "algebra.poly_mul.term_products": "algebra.poly_mul.term_products",
    "hyperell.theta.lattice_terms": "hyperell.theta.lattice_terms",
}
# (metric, span, parent span): time of a span split by the caller
TIME_UNDER = (
    ("hyperell.abel_map.periods_s", "hyperell.abel_map", "hyperell.compute_periods"),
    ("hyperell.abel_map.verify_s", "hyperell.abel_map", "hyperell.verify_inversion"),
    ("hyperell.theta_with_derivs.periods_s", "hyperell.theta_with_derivs", "hyperell.compute_periods"),
)
PER_LAYER = {
    **{f"{span}.s": "s/op" for span in TIMED_SPANS},
    **{f"{span}.self_s": "s/op" for span in SELF_TIMED_SPANS},
    **{f"{span}.count": "count/op" for span in COUNTED_SPANS},
    **{metric: "count/op" for metric in COUNTERS},
    **{metric: "s/op" for metric, _, _ in TIME_UNDER},
    "hyperell.theta_context.radius": "count",  # mean over theta_context calls
    "curves.check_nondegenerate.s": "s",  # input generation, per run
    "divisors.sample_useful_ratio": "ratio",  # g * ops / sample_point calls
    "check.worst_margin_digits": "digits",
    "host.reference_ms": "ms",  # per-layer times are unscaled wall time
    "trace.ops": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_frac": "frac",
}


def reference_kernel():
    """Fixed work in the engine's mix: Fraction and dict churn, small numpy calls."""
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[(i % 7, i % 5)] = acc
    a = numpy.arange(16.0)
    for _ in range(150):
        a = numpy.sqrt(a * a + 1.0)


def time_reference():
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


class HostSpeed:
    """How fast the host ran, from a fixed kernel timed between ops.

    The shared host's speed drifts by 20-30% over seconds to minutes, for
    every process alike.  The kernel is timed at most every
    REFERENCE_EVERY_S, and again right after any longer op, so each op is
    bracketed.  An op's time is scaled by REFERENCE_S over the median kernel
    time around it, so it reads as if the kernel took REFERENCE_S
    throughout; the drift cancels, a change to the engine does not, since
    the kernel runs no engine code.
    """

    def __init__(self):
        self.whens = []  # when each kernel timing was taken, ascending
        self.samples = []  # kernel seconds
        self.next_at = 0.0

    def tick(self):
        if perf_counter() >= self.next_at:
            self.whens.append(perf_counter())
            self.samples.append(time_reference())
            self.next_at = perf_counter() + REFERENCE_EVERY_S

    def scale(self, start, end):
        """REFERENCE_S over the median kernel time near [start, end]."""
        lo = bisect_left(self.whens, start - REFERENCE_REACH_S)
        hi = bisect_right(self.whens, end + REFERENCE_REACH_S)
        if hi - lo < REFERENCE_MIN_SAMPLES:
            # too few close by: the nearest few timings on either side
            mid = (start + end) / 2
            around = range(max(0, lo - REFERENCE_MIN_SAMPLES), hi + REFERENCE_MIN_SAMPLES)
            nearest = sorted(
                (i for i in around if i < len(self.whens)),
                key=lambda i: abs(self.whens[i] - mid),
            )
            near = [self.samples[i] for i in nearest[:REFERENCE_MIN_SAMPLES]]
        else:
            near = self.samples[lo:hi]
        return REFERENCE_S / statistics.median(near)

    def median_ms(self):
        return 1e3 * statistics.median(self.samples)


class Tally:
    """Op times and outcomes of one kind of pass (plain or traced)."""

    def __init__(self):
        self.runs = []  # (pool index, start, wall seconds) per op execution
        self.ok = 0
        self.wrong = 0
        self.typed = Counter()
        self.bare = Counter()
        self.ratios = {}  # pool index -> error/tolerance ratios; ops repeat exactly
        self.points_needed = 0

    @property
    def attempted(self):
        return len(self.runs)

    def wall_s(self):
        return sum(wall for _, _, wall in self.runs)

    def scaled_times(self, host):
        """Pool index -> the op's scaled time in each pass."""
        out = defaultdict(list)
        for index, start, wall in self.runs:
            out[index].append(wall * host.scale(start, start + wall))
        return out


def run_pool(plan, tally, nscurve_error, host, tracer=None):
    """Run every op of the pool once, timing only the engine call."""
    for index, op in enumerate(plan.ops):
        host.tick()
        if tracer is not None:
            tracer.op = len(tally.runs)
        failure = None
        start = perf_counter()
        try:
            out = plan.run(op)
        except nscurve_error as exc:
            failure = tally.typed, type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - a bare failure is counted, not fatal
            failure = tally.bare, type(exc).__name__
        tally.runs.append((index, start, perf_counter() - start))
        if tracer is not None:
            tracer.op = None
        host.tick()
        if failure is not None:
            kinds, name = failure
            kinds[name] += 1
            continue
        tally.points_needed += plan.points_needed(op)
        try:
            ok, ratios = plan.check(op, out)
        except Exception:  # noqa: BLE001 - an output the check cannot read is wrong
            ok, ratios = False, []
        tally.ratios[index] = ratios
        if ok:
            tally.ok += 1
        else:
            tally.wrong += 1


def steady_times(op_times):
    """Each op execution valued at the median scaled time of that op over the passes.

    The pool repeats identical ops, so the spread of one op's times is the
    host's, not the program's; a raw percentile would move with whichever
    repetitions a burst of host speed happens to hit.
    """
    return [statistics.median(times) for times in op_times.values() for _ in times]


def ops_rate(op_times):
    """Ops per second of a pass at the median scaled time of each op."""
    return len(op_times) / sum(statistics.median(times) for times in op_times.values())


def tail_percentile(values):
    """(percentile, value, count beyond): the highest ladder step with >= 10 beyond."""
    n = len(values)
    pct = max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), default=50)
    ordered = sorted(values)
    idx = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return pct, ordered[idx], n - idx - 1


def margins(tally):
    """(mean margin, worst margin, note) over the distinct checked items.

    Errors repeat exactly from pass to pass, so each item of the pool counts
    once.  The mean of log10(tolerance / error) moves with every item, so
    an accuracy loss shows before any item crosses its tolerance.
    """
    ratios = [r for rs in tally.ratios.values() for r in rs]
    if not ratios:
        cap = oracles.MARGIN_CAP_DIGITS
        return cap, cap, "exact outputs (byte or Fraction equal): margins at the cap"
    digits = [oracles.margin_digits(r) for r in ratios]
    worst = min(digits)
    note = (
        f"err_margin_digits is the mean margin of {len(digits)} checked items; "
        f"worst margin {worst:.3f} digits"
    )
    return statistics.fmean(digits), worst, note


def source_identity():
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "nscurves"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(pkg).as_posix().encode())
            digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"source_sha256": digest.hexdigest()[:16], "commit": commit}


def metadata(args, plan):
    return {
        **source_identity(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": plan.sizes,
    }


def set_up(args, tracer=None):
    """Import, build the inputs and oracles, warm up; returns the plan."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from nscurves.errors import NSCurveError

    with tracer.installed() if tracer is not None else nullcontext():
        plan = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    # one untimed op runs first-call set-up; the same op is in the pool,
    # where any failure of it is counted
    try:
        plan.run(plan.warmup)
    except Exception:  # noqa: BLE001
        pass
    return plan, NSCurveError


def probe_setup(args):
    """Median scaled wall time of fresh processes that only set up and exit.

    Each probe is scaled by the reference kernel timed just before and just
    after it, in this process, where the kernel runs warm.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        before = statistics.median(time_reference() for _ in range(3))
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        wall = perf_counter() - start
        after = statistics.median(time_reference() for _ in range(3))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(wall * REFERENCE_S / ((before + after) / 2))
    return statistics.median(samples), samples


def end_to_end(tally, setup, host):
    setup_s, samples = setup
    op_times = tally.scaled_times(host)
    steady = steady_times(op_times)
    pct, tail_s, beyond = tail_percentile(steady)
    margin, _, margin_note = margins(tally)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_rate(op_times),
        "op_p50_ms": 1e3 * statistics.median(steady),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": tally.ok / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_margin_digits": margin,
    }
    notes = [
        host_note(host, tally),
        f"setup probes (scaled s): {', '.join(f'{s:.4f}' for s in samples)}",
        f"op_tail_ms is p{pct:g} of {tally.attempted} ops ({beyond} beyond it)",
        margin_note,
    ]
    return values, notes


def host_note(host, tally):
    return (
        f"times scaled to a {1e3 * REFERENCE_S:g} ms reference kernel; it took a median "
        f"{host.median_ms():.4f} ms over {len(host.samples)} timings in this run; "
        f"unscaled ops_per_s {tally.attempted / tally.wall_s():.6g}"
    )


def per_layer(tracer, plain, traced, host):
    from spans import layer_table, setup_time, time_under

    table = layer_table(tracer.spans)
    ops = traced.attempted

    def per_op(span, field):
        return table.get(span, {}).get(field, 0) / ops

    values = {}
    for span in TIMED_SPANS:
        values[f"{span}.s"] = per_op(span, "total_s")
    for span in SELF_TIMED_SPANS:
        values[f"{span}.self_s"] = per_op(span, "self_s")
    for span in COUNTED_SPANS:
        values[f"{span}.count"] = per_op(span, "calls")
    for metric, counter in COUNTERS.items():
        values[metric] = tracer.counts[counter] / ops
    for metric, span, parent in TIME_UNDER:
        values[metric] = time_under(tracer.spans, span, parent) / ops
    contexts = table.get("hyperell.theta_context", {}).get("calls", 0)
    values["hyperell.theta_context.radius"] = (
        tracer.counts["hyperell.theta_context.radius_sum"] / contexts if contexts else 0
    )
    values["curves.check_nondegenerate.s"] = setup_time(tracer.spans, "curves.check_nondegenerate")
    sampled = table.get("divisors.sample_point", {}).get("calls", 0)
    values["divisors.sample_useful_ratio"] = traced.points_needed / sampled if sampled else 0
    values["check.worst_margin_digits"] = margins(traced)[1]
    values["host.reference_ms"] = host.median_ms()
    values["trace.ops"] = ops
    values["trace.untraced_ops_per_s"] = ops_rate(plain.scaled_times(host))
    values["trace.traced_ops_per_s"] = ops_rate(traced.scaled_times(host))
    values["trace.overhead_frac"] = values["trace.untraced_ops_per_s"] / values["trace.traced_ops_per_s"] - 1.0
    notes = [
        host_note(host, plain),
        "layer                                      calls/op     s/op   self s/op  parents",
    ]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
        parents = ", ".join(f"{p}x{c}" for p, c in row["parents"].most_common())
        notes.append(
            f"{name:42s} {row['calls'] / ops:9.2f} {row['total_s'] / ops:9.6f} "
            f"{row['self_s'] / ops:9.6f}  {parents}"
        )
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nscurves" / "__init__.py").is_file():
        print(f"error: no engine sources at {ROOT / 'src' / 'nscurves'}", file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args)
        return 0

    setup = None if args.trace else probe_setup(args)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    plan, nscurve_error = set_up(args, tracer)

    plain, traced, host = Tally(), Tally(), HostSpeed()
    start = perf_counter()
    passes = 0
    while True:
        if tracer is None:
            run_pool(plan, plain, nscurve_error, host)
        else:
            # alternate which pass goes first, so drift hits both alike
            if passes % 2 == 0:
                run_pool(plan, plain, nscurve_error, host)
            with tracer.installed():
                run_pool(plan, traced, nscurve_error, host, tracer)
            if passes % 2 == 1:
                run_pool(plan, plain, nscurve_error, host)
        passes += 1
        if perf_counter() - start >= args.seconds:
            break

    meta = metadata(args, plan)
    if tracer is None:
        values, notes = end_to_end(plain, setup, host)
        units = END_TO_END
    else:
        values, notes = per_layer(tracer, plain, traced, host)
        units = PER_LAYER
        out = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out, meta)
        notes.append(f"spans written to {out.relative_to(ROOT)}")

    attempted = plain.attempted + traced.attempted
    ok = plain.ok + traced.ok
    typed = plain.typed + traced.typed
    bare = plain.bare + traced.bare
    wrong = plain.wrong + traced.wrong
    print(f"# nsbench {json.dumps(meta, sort_keys=True)}")
    print(
        f"# outcomes: attempted={attempted} ok={ok} wrong_output={wrong} "
        f"typed_error={sum(typed.values())} {dict(typed)} "
        f"bare_exception={sum(bare.values())} {dict(bare)} "
        f"fail_frac={(attempted - ok) / attempted:.6g}"
    )
    for line in notes:
        print(f"# {line}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
