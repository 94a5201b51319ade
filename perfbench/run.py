#!/usr/bin/env python3
"""The hlkit benchmark.

    python3 perfbench/run.py --workload gate|qprime|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; hlkit is imported from its ``src``.
Each run is one fresh single-threaded process on one workload, driven
as a closed loop by one client: an operation starts when the previous
one has finished.  Workloads, and why each is chosen, are in
``BENCHMARK.json`` and ``workloads.py``.

The run sets up (import, memo discovery, input generation), then runs
passes over the workload's operations for ``--seconds``: it starts no
pass that would end later, going by the median pass so far, and runs
at least one.  Every output is checked against the frozen
references in ``perfbench/refs`` (see ``freeze.py``).

Every time in the metrics is given at a reference speed of the host.
On a shared host (the 2-vCPU one the benchmark was written on) the
speed changes by up to 1.7x, from one tenth of a second to the next
and over minutes, which spread the wall-clock medians of 35 s runs of
the same code by a quarter of their value.  So while a pass runs, a timer
signal runs a fixed pure-Python chunk that calls no hlkit code
(``reference_chunk``, under 2 ms) every ``SAMPLE_INTERVAL_S`` of wall
time, and the pass's times are multiplied by the mean of
``REFERENCE_S`` over the chunk's time in its samples: times read as
wall times on a host where the chunk takes ``REFERENCE_S``.  The
samples meet the host at the speeds the pass meets; their own time is
left out of the operations' times.  A change to hlkit moves the scaled
times as it moves wall time; a change of the host's speed moves them
much less.  The wall-clock figures are on the detail line.

With ``--trace 0`` the metrics are the end-to-end ones, untraced:

- ``wall_s``: median time of one pass;
- ``setup_s``: median over fresh processes, spread over the run, of
  the set-up time: import of hlkit, memo discovery and input
  generation, scaled by speed samples taken while it runs, every
  ``SETUP_SAMPLE_INTERVAL_S``.  Interpreter start-up is Python's, not
  hlkit's, and is left out;
- ``peak_rss_mb``: ``ru_maxrss`` of this process;
- ``req_p50_ms``, ``req_p95_ms``: latency of one user request, and
  ``req_per_s``: requests per second of pass time.  A request is one
  command on ``cli`` and one pass elsewhere (one gate run, one sweep
  over the scaling points), whose single criteria and cases are too
  unlike each other for percentiles over them to be steady; their own
  median times are details.

With ``--trace 1`` untraced passes and passes traced by ``tracing.py``
alternate, and the metrics are the per-layer ones: counts of the first
traced pass (identical in every traced pass, which is checked), self
times and traced pass time as medians over the traced passes, and the
tracing overhead: the median traced pass minus the median untraced
one.  These times are scaled as above.  The spans of the first traced
pass go to ``perfbench/out/spans-<workload>-seed<N>.txt.gz``.

The line before the result carries details that are not metrics of
every workload: sample counts, ``failed_frac`` (0 when all outputs
match, so it is carried by ``attempted`` and ``failed`` rather than by
a metric), ``src_lines`` (also a per-layer count), per-criterion and
per-case times, and the self times and counts of layers and functions
that some workload never reaches.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from tracing import Tracer

SETUP_RUNS = 15
SETUP_TIMEOUT_S = 60
OUT = W.HERE / "out"
# The speed that scaled times refer to: a host on which ``reference_chunk``
# takes this long, about its median on the 2-vCPU host the benchmark was
# written on.
REFERENCE_S = 0.0016
# Wall time between two speed samples, in passes and in the set-up.
SAMPLE_INTERVAL_S = 0.03
SETUP_SAMPLE_INTERVAL_S = 0.005

# Self times of the layers and functions that every workload reaches
# are per-layer metrics.  The others are printed as details: on a
# workload that never calls them their time is no measurement.
METRIC_LAYERS = ("laurent", "xpoly", "partitions", "tableaux", "symmetrize",
                 "hall_littlewood")
METRIC_FUNCTIONS = ("hall_littlewood.plane_partition_qprime",)
DETAIL_FUNCTIONS = ("hall_littlewood.qprime_schur", "hall_littlewood.add_one",
                    "hall_littlewood.skew_qprime")
# Spans whose calls are counted: count name -> span name.
TRACED_CALLS = {
    "xpoly.init.calls": "xpoly.init",
    "xpoly.mul.calls": "xpoly.mul",
    "xpoly.add.calls": "xpoly.add",
    "xpoly.mul_capped.calls": "xpoly.mul_capped",
    "laurent.mul.calls": "laurent.mul",
    "laurent.add.calls": "laurent.add",
    "laurent.exact_div.calls": "laurent.exact_div",
    "alphabets.complete_series.calls": "alphabets.complete_series",
    "alphabets.schur_eval.calls": "alphabets.schur_eval",
    "tableaux.charge.calls": "tableaux.charge",
    "symmetrize.kernel_schur.calls": "symmetrize.kernel_schur",
    "symmetrize.straighten.calls": "symmetrize.straighten_schur",
    "hall_littlewood.qprime_schur.calls": "hall_littlewood.qprime_schur",
    "hall_littlewood.plane_partition_qprime.calls": "hall_littlewood.plane_partition_qprime",
    "hall_littlewood.add_one.calls": "hall_littlewood.add_one",
    "hall_littlewood.skew_qprime.calls": "hall_littlewood.skew_qprime",
}
# Counts that every workload reaches are per-layer metrics; the others
# (alphabets, identities, shifts by one, most memos) are details.
METRIC_COUNTS = (
    "xpoly.init.calls", "xpoly.add.calls", "xpoly.terms_out",
    "laurent.mul.calls", "laurent.add.calls", "laurent.exact_div.calls",
    "tableaux.charge.calls", "tableaux.ssyt_yielded", "tableaux.layer_chains.chains",
    "symmetrize.kernel_schur.calls", "symmetrize.straighten.calls",
    "hall_littlewood.plane_partition_qprime.calls",
    "memo.hall_littlewood._qprime_schur_cached.misses",
    "memo.hall_littlewood._qprime_schur_cached.entries",
    "memo.hall_littlewood.kostka_foulkes.misses",
    "memo.hall_littlewood.kostka_foulkes.entries",
    "memo.hall_littlewood.skew_qprime_one.hits",
    "memo.hall_littlewood.skew_qprime_one.misses",
    "memo.hall_littlewood.skew_qprime_one.entries",
    "memo.partitions.b_poly.hits", "memo.partitions.b_poly.misses",
    "memo.partitions.b_poly.entries",
    "memo.symmetrize._kernel_schur_cached.misses",
    "memo.symmetrize._kernel_schur_cached.entries",
    "memo.tableaux.layer_chains.hits", "memo.tableaux.layer_chains.misses",
    "memo.tableaux.layer_chains.entries",
    "memo.count",
)


def reference_chunk():
    """Run a fixed pure-Python chunk of hlkit's kind of work (dicts keyed
    by tuples, small-int arithmetic, a polynomial product) that calls no
    hlkit code, and return its time: a sample of the host's speed."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * i % 7
    poly = {(i, j): i - 2 * j + 1 for i in range(6) for j in range(6)}
    prod = {}
    for ka, ca in poly.items():
        for kb, cb in poly.items():
            key = (ka[0] + kb[0], ka[1] + kb[1])
            prod[key] = prod.get(key, 0) + ca * cb
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the host's speed while a pass runs.

    A timer signal runs ``reference_chunk`` every ``interval`` seconds of
    wall time, so the samples meet the host at the speeds the pass
    meets.  A pass's factor is the mean of ``REFERENCE_S`` over the
    chunk time of its samples.  ``spent`` is the time taken by the
    signal handler, which timed operations leave out.
    """

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval
        self.spent = 0.0
        self.samples = []  # samples per pass
        self.factors = []  # factor per pass
        self._ratios = []
        self._busy = False
        reference_chunk()  # warm-up
        # The handler stays installed: a signal still pending when the
        # timer stops then meets it, not the default action.
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum=None, _frame=None):
        if self._busy:  # the host stalled a sample past the interval
            return
        self._busy = True
        t0 = time.perf_counter()
        self._ratios.append(REFERENCE_S / reference_chunk())
        self.spent += time.perf_counter() - t0
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample while the block runs, then record its factor."""
        self._ratios = []
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not self._ratios:  # a block shorter than the interval
            self._sample()
        self.samples.append(len(self._ratios))
        self.factors.append(statistics.fmean(self._ratios))


def parse_args(argv):
    ap = argparse.ArgumentParser(description="hlkit benchmark")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time, exit")
    return ap.parse_args(argv)


def setup(workload, seed):
    mods = W.import_hlkit()
    memos = W.Memos(mods)
    return mods, memos, W.build(workload, seed, mods)


def report_setup(workload, seed):
    """The ``--setup-only`` child: set up once in this fresh process and
    print the set-up time, scaled and wall-clock."""
    sampler = SpeedSampler(SETUP_SAMPLE_INTERVAL_S)
    t0 = time.perf_counter()
    with sampler.sampling():
        setup(workload, seed)
    wall = time.perf_counter() - t0 - sampler.spent
    print(wall * sampler.factors[0], wall)


def time_setup(workload, seed):
    """Set-up time of a fresh process, as it measures and prints it:
    (scaled, wall-clock)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=W.ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                          capture_output=True, text=True)
    scaled, wall = map(float, done.stdout.split())
    return scaled, wall


class Tally:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(wl, memos, tally, sampler, call=lambda run: run()):
    """One pass over the workload, sampled by ``sampler``; returns the
    time of each operation.

    Only the operations are timed: memo clears and output checks run
    between them, outside the clock, and the sampler's time is taken out.
    """
    perf = time.perf_counter
    op_s = []
    with sampler.sampling():
        gc.collect()
        memos.clear()
        for op in wl.ops:
            if wl.clear_each_op:
                memos.clear()
            held = sampler.spent
            t0 = perf()
            try:
                out = call(op.run)
            except Exception as e:  # an operation that raises counts as failed
                out = e
            op_s.append(perf() - t0 - (sampler.spent - held))
            tally.attempted += 1
            if isinstance(out, Exception) or not op.check(out):
                tally.failed += 1
                print(f"FAILED {wl.name} {op.name}: {out!r}"[:300], file=sys.stderr)
    return op_s


def measure(args, mods, memos, wl):
    tally = Tally()
    sampler = SpeedSampler()
    wall_passes, passes, took, op_s, by_op, setups = [], [], [], [], {}, []
    end = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() + statistics.median(took) <= end:
        t0 = time.perf_counter()
        times = run_pass(wl, memos, tally, sampler)
        took.append(time.perf_counter() - t0)
        factor = sampler.factors[-1]
        wall_passes.append(sum(times))
        passes.append(sum(times) * factor)
        op_s += [dt * factor for dt in times]
        for op, dt in zip(wl.ops, times):
            by_op.setdefault(op.name, []).append(dt * factor)
        # Set-up runs are spread evenly over the run, so that they meet the
        # machine at the same speeds as the passes.  Their time is added.
        left = max(0.0, end - time.perf_counter()) / args.seconds if args.seconds else 0
        while len(setups) < SETUP_RUNS * (1 - left):
            t0 = time.perf_counter()
            setups.append(time_setup(args.workload, args.seed))
            end += time.perf_counter() - t0
    while len(setups) < SETUP_RUNS:
        setups.append(time_setup(args.workload, args.seed))
    req = op_s if wl.requests_are_ops else passes
    p95 = statistics.quantiles(req, n=20, method="inclusive")[18] if len(req) > 1 else req[0]
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(scaled for scaled, _wall in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "req_p50_ms": (statistics.median(req) * 1e3, "ms"),
        "req_p95_ms": (p95 * 1e3, "ms"),
        "req_per_s": (len(req) / sum(passes), "1/s"),
    }
    detail = {
        "passes": len(passes),
        "wall_clock.pass_s": wall_passes,
        "wall_clock.wall_s": statistics.median(wall_passes),
        "wall_clock.setup_s": statistics.median(wall for _scaled, wall in setups),
        "speed_factors": sampler.factors,
        "speed_samples": sampler.samples,
        "req_samples": len(req),
    }
    if wl.name != "cli":
        prefix = "acceptance." if wl.name == "gate" else "qprime."
        for name, times in by_op.items():
            detail[f"{prefix}{name}_s"] = statistics.median(times)
    return tally, metrics, detail


def trace_snapshot(tracer, memos):
    """The exact per-pass counts of a traced pass."""
    calls = {name: c for name, (c, _s) in tracer.by_name().items()}
    snap = {metric: calls.get(span, 0) for metric, span in TRACED_CALLS.items()}
    snap.update(tracer.counts)
    for name in memos.memos:
        snap[f"memo.{name}.hits"] = memos.hits[name]
        snap[f"memo.{name}.misses"] = memos.misses[name]
        snap[f"memo.{name}.entries"] = memos.entries[name]
    snap["memo.count"] = len(memos.memos)
    return snap


def measure_traced(args, mods, memos, wl):
    tally = Tally()
    tracer = Tracer(mods, W.LAYERS)
    sampler = SpeedSampler()
    snaps, untraced, walls, layer_times, fn_times = [], [], [], [], []
    pair_s = []  # wall-clock time of an untraced and a traced pass
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.txt.gz"
    end = time.perf_counter() + args.seconds

    # Untraced and traced passes alternate, so that the overhead compares
    # passes made at the same machine speed.
    while not walls or time.perf_counter() + statistics.median(pair_s) <= end:
        t0 = time.perf_counter()
        plain = run_pass(wl, memos, tally, sampler)
        untraced.append(sum(plain) * sampler.factors[-1])
        tracer.install()
        try:
            memos.restart_stats()
            tracer.reset()
            held = sampler.spent
            times = run_pass(wl, memos, tally, sampler, call=tracer.op)
            held = sampler.spent - held
            memos.clear()
        finally:
            tracer.uninstall()
            memos.stats = False
        pair_s.append(time.perf_counter() - t0)
        factor = sampler.factors[-1]
        walls.append(sum(times) * factor)
        # The sampler's time falls in whatever span is open when it runs,
        # evenly over time, so it is taken out of self times in proportion.
        self_factor = factor * sum(times) / (sum(times) + held)
        snaps.append(trace_snapshot(tracer, memos))
        layer_times.append({k: s * self_factor for k, s in tracer.layer_self_s().items()})
        fn_times.append({k: (c, s * self_factor) for k, (c, s) in tracer.by_name().items()})
        if len(walls) == 1:
            t0 = time.perf_counter()
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_path)
            end += time.perf_counter() - t0
            span_count = len(tracer.span_name)
    for i, snap in enumerate(snaps[1:], 2):
        if snap != snaps[0]:
            diff = {k: (v, snap[k]) for k, v in snaps[0].items() if snap[k] != v}
            raise W.BenchError(f"traced pass {i} counts differ from pass 1: {diff}")

    def med(times, key):
        return statistics.median(t.get(key, 0.0) for t in times)

    def fn_self(span):
        return statistics.median(t.get(span, (0, 0.0))[1] for t in fn_times)

    traced_wall = statistics.median(walls)
    metrics = {k: (snaps[0][k], "count") for k in METRIC_COUNTS}
    metrics["src_lines"] = (W.src_lines(), "count")
    metrics.update({f"{layer}.self_s": (med(layer_times, layer), "s")
                    for layer in METRIC_LAYERS})
    metrics.update({f"{fn}.self_s": (fn_self(fn), "s") for fn in METRIC_FUNCTIONS})
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")

    detail = {
        "traced_passes": len(walls),
        "untraced_pass_s": untraced,
        "speed_factors": sampler.factors,
        "spans": span_count,
        "spans_file": str(spans_path.relative_to(W.ROOT)),
        # Request time outside library calls: parsing, rendering, JSON.
        "cli.overhead_s": med(layer_times, "cli"),
    }
    for layer in ("alphabets", "identities", "acceptance", "bench"):
        detail[f"{layer}.self_s"] = med(layer_times, layer)
    for fn in DETAIL_FUNCTIONS:
        detail[f"{fn}.self_s"] = fn_self(fn)
    detail.update((k, v) for k, v in snaps[0].items() if k not in METRIC_COUNTS)
    return tally, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_only:
            report_setup(args.workload, args.seed)
            return 0
        t0 = time.perf_counter()
        mods, memos, wl = setup(args.workload, args.seed)
        setup_inproc = time.perf_counter() - t0
        run = measure_traced if args.trace else measure
        tally, metrics, detail = run(args, mods, memos, wl)
    except W.BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "ops_per_pass": len(wl.ops),
        "failed_frac": tally.failed / tally.attempted,
        "src_lines": W.src_lines(),
        "memo.count": len(memos.memos),
        "setup_inproc_s": setup_inproc,
        **detail,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
