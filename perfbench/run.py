#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pla-suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same seeded half-size plan twice, untraced and
then traced from a fresh set-up; it reports the per-layer ledger, the
tracing overhead, and writes a Chrome trace under ``perfbench/out/``.

Every output is checked against a known answer.  The last line of
standard output is one JSON object; the lines before it, prefixed ``#``,
show raw and drift-corrected numbers side by side, the tail percentile
and its sample count, and the fail ratio.  The exit code is 1 when any
request failed or gave a wrong answer.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: set-up runs this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 5

#: ``personality(2)`` flag that turns address-space randomization off
ADDR_NO_RANDOMIZE = 0x0040000

END_TO_END_UNITS = {
    "throughput_ips": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cover_cubes": "count",
    "cover_literals": "count",
}

PER_LAYER_UNITS = {
    "pla.parse_ms": "ms",
    "hazards.validate_ms": "ms",
    "hazards.derive_ms": "ms",
    "hf.minimize_ms": "ms",
    "hazards.verify_ms": "ms",
    "pla.format_ms": "ms",
    "hf.canonicalize_ms": "ms",
    "hf.essentials_ms": "ms",
    "hf.expand_ms": "ms",
    "hf.irredundant_ms": "ms",
    "hf.reduce_ms": "ms",
    "hf.last_gasp_ms": "ms",
    "hf.make_prime_ms": "ms",
    "hf.final_irredundant_ms": "ms",
    "hf.unattributed_ms": "ms",
    "hazards.required_cubes": "count",
    "hazards.privileged_cubes": "count",
    "hf.supercube_calls": "count",
    "hf.supercube_hit_ratio": "ratio",
    "hf.expand_probes": "count",
    "hf.coverage_hit_ratio": "ratio",
    "hf.mincov_rows": "count",
    "hf.passes_executed": "count",
    "serve.hit_ms": "ms",
    "serve.miss_ms": "ms",
    "serve.warm_ms": "ms",
    "serve.reject_ms": "ms",
    "serve.worker_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.warm_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.retries": "count",
    "serve.shed_ratio": "ratio",
    "guard.isolation_ms": "ms",
    "detect.netlist_ms": "ms",
    "detect.detect_ms": "ms",
    "transform.uf_ms": "ms",
    "detect.points_checked": "count",
    "detect.points_per_s": "1/s",
    "transform.uf_gates": "count",
    "trace.overhead_ms": "ms",
}

WORKLOADS = {
    "pla-suite": ("pla_suite", "PlaSuite"),
    "serve-mix": ("serve_mix", "ServeMix"),
    "detect-suite": ("detect_suite", "DetectSuite"),
}


def load_workload(name: str):
    """The workload class; importing it imports the program from ``src``."""
    import importlib

    module_name, class_name = WORKLOADS[name]
    return getattr(importlib.import_module(module_name), class_name)


def request_count(cls, seconds: float) -> int:
    """Fixed request count: whole passes worth ``seconds`` at nominal speed."""
    passes = max(1, math.ceil(seconds * cls.nominal_rps / cls.pass_size))
    return passes * cls.pass_size


def layer_times_ms(rec, samples) -> dict:
    """Mean corrected self time per request of every span name, in ms."""
    factor = {s.request: s.factor for s in samples}
    own = rec.self_seconds()
    totals: dict = {}
    for span in rec.spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.index] * factor[span.request]
    return {name: seconds * 1e3 / len(samples) for name, seconds in totals.items()}


def per_class_ms(samples) -> dict:
    """Median corrected latency per request class, in ms."""
    by_class: dict = {}
    for s in samples:
        by_class.setdefault(s.klass, []).append(s.corrected)
    return {k: statistics.median(v) * 1e3 for k, v in sorted(by_class.items())}


def fix_layout() -> None:
    """Re-execute once with address-space randomization off and a fixed hash seed.

    Both are chosen anew for every process, and each shifts the program's
    speed: the same 1 s of detection work, drift-corrected, spread by
    ±8% across fresh processes with them and by ±3.5% without.  The
    setting passes to every child, the daemon included.  Where the kernel
    refuses, the run goes on with randomization on.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        current = libc.personality(0xFFFFFFFF)
        if current == -1 or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
            raise OSError(ctypes.get_errno(), "personality")
    except (OSError, AttributeError) as exc:
        print(f"# address-space randomization stays on: {exc}", file=sys.stderr)
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the benchmark, the program and the daemon, which inherits
    # it: the slices then run where the program runs.  Unpinned, the daemon
    # sometimes ran 40% slower than the benchmark thread on the other CPU,
    # and no slice could see it.  One closed-loop caller keeps the request
    # path sequential, so little parallelism is given up.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from measure import latency_metrics
    from refslice import S0, DriftClock
    from tracing import NullRecorder, SpanRecorder

    cls = load_workload(args.workload)
    os.makedirs(OUT, exist_ok=True)
    # set-up is always sampled while it runs; requests only when they
    # run in this thread (see DriftClock)
    setup_clock = DriftClock()
    setup_corrected, setup_wall = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload, corrected, wall, _ = setup_clock.measure(lambda: cls(ROOT, args.seed))
        setup_corrected.append(corrected)
        setup_wall.append(wall)
    gc.collect()
    gc.freeze()
    # no slices inside the traced run's intervals: a span must not contain one
    clock = DriftClock(period=None if args.trace else cls.sample_period)

    try:
        if args.trace:
            n = request_count(cls, args.seconds / 2)
            untraced = workload.run(clock, n, NullRecorder())
            workload.verify(untraced)
            # The traced half replays the same seeded plan from a fresh
            # set-up (on serve-mix a fresh daemon), so both halves time the
            # same requests from the same state, and their difference is
            # the cost of tracing alone.
            workload.close()
            workload = None
            workload = cls(ROOT, args.seed)
            gc.collect()
            gc.freeze()
            rec = SpanRecorder()
            samples = workload.run(clock, n, rec)
            checked = untraced + samples
            self_ms = layer_times_ms(rec, samples)
            layers = workload.layer_metrics(samples, self_ms)
        else:
            samples = checked = workload.run(clock, request_count(cls, args.seconds), NullRecorder())
        peak_rss = workload.peak_rss_mb()
        workload.verify(samples)
    finally:
        if workload is not None:
            workload.close()

    failed = sum(1 for s in checked if not s.ok)
    attempted = len(checked)
    corrected = latency_metrics(samples, corrected=True)
    raw = latency_metrics(samples, corrected=False)
    cubes, literals = workload.quality()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "corrected": corrected,
        "raw": raw,
        "setup_s": {"corrected": setup_corrected, "raw": setup_wall},
        "slices_s": {
            "s0": S0,
            "count": len(clock.slices),
            "median": statistics.median(clock.slices),
            "setup_median": statistics.median(setup_clock.slices),
            "min": min(clock.slices),
            "max": max(clock.slices),
        },
        "per_class_ms": per_class_ms(samples),
    }
    if args.trace:
        overhead = corrected["latency_p50_ms"] - latency_metrics(untraced)["latency_p50_ms"]
        values = {name: 0.0 for name in PER_LAYER_UNITS}
        values.update(layers)
        values["trace.overhead_ms"] = overhead
        units = PER_LAYER_UNITS
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        rec.write_chrome_trace(trace_path)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
        report["self_ms"] = self_ms
    else:
        values = {
            "throughput_ips": corrected["throughput_ips"],
            "latency_p50_ms": corrected["latency_p50_ms"],
            "latency_tail_ms": corrected["latency_tail_ms"],
            "setup_s": statistics.median(setup_corrected),
            "peak_rss_mb": peak_rss,
            "cover_cubes": cubes,
            "cover_literals": literals,
        }
        units = END_TO_END_UNITS
    report["metrics"] = values
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed}: {attempted} requests, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    print(f"# tail = p{corrected['tail_percentile']:g} with {corrected['tail_beyond']} of "
          f"{corrected['samples']} samples beyond it")
    for key in ("throughput_ips", "latency_p50_ms", "latency_tail_ms"):
        print(f"# {key}: raw {raw[key]:.4f}  corrected {corrected[key]:.4f}")
    print(f"# setup_s: raw {statistics.median(setup_wall):.4f}  "
          f"corrected {statistics.median(setup_corrected):.4f}")
    if args.trace:
        for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
            print(f"# self time {name}: {ms:.4f} ms/request")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    fix_layout()
    sys.exit(main())
