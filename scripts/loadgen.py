#!/usr/bin/env python
"""Concurrency-ramped load generator for the minimization daemon.

Drives a daemon (an embedded one by default, or ``--host/--port`` for an
external process) through a ramp of concurrency stages and reports, per
stage and overall: client-observed p50/p99 latency, cache-hit rate, and
shed rate.  Everything is also published through a
:class:`repro.obs.MetricsRegistry` and written with ``--out`` in the same
snapshot schema the rest of the observability stack consumes
(:func:`repro.obs.merge_snapshots`), so service load numbers from several
runs can be archived and merged.

The workload is a deterministic mix (seeded ``--seed``): benchmark
circuits drawn with repetition (repeats exercise the canonical-key cache),
a slice of metamorphic rewrites (equivalent-but-not-identical instances —
these *should* hit the cache), and optionally malformed lines
(``--malformed-every``).

Usage::

    python scripts/loadgen.py                          # embedded daemon
    python scripts/loadgen.py --ramp 1,4,16 --requests 40
    python scripts/loadgen.py --host 127.0.0.1 --port 7777 --out load.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bm.benchmarks import build_benchmark  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.obs.metrics import TIME_BUCKETS_S  # noqa: E402
from repro.pla import format_pla  # noqa: E402
from repro.proptest.metamorphic import (  # noqa: E402
    flip_instance,
    permute_instance,
)
from repro.serve import ServeClient, ServeConfig, start_in_thread  # noqa: E402

#: small-to-medium circuits: a load test should saturate the queue, not
#: spend minutes inside one minimization
DEFAULT_CIRCUITS = (
    "dram-ctrl",
    "pscsi-ircv",
    "pscsi-isend",
    "pscsi-tsend",
    "sscsi-isend-bm",
    "sscsi-trcv-bm",
    "sscsi-tsend-bm",
    "stetson-p3",
)

def build_workload(circuits, n, rng, malformed_every=0):
    """A deterministic request mix: (label, pla_text_or_None) pairs."""
    instances = {name: build_benchmark(name) for name in circuits}
    work = []
    for i in range(n):
        if malformed_every and i % malformed_every == malformed_every - 1:
            work.append(("malformed", ".i 2\n.o\n"))
            continue
        name = rng.choice(list(circuits))
        inst = instances[name]
        if rng.random() < 0.3:
            # an equivalent rewrite: same canonical key, different bytes
            perm = list(range(inst.n_inputs))
            rng.shuffle(perm)
            mask = rng.randrange(1 << inst.n_inputs)
            inst = permute_instance(flip_instance(inst, mask), tuple(perm))
            work.append((f"{name}~rw", format_pla(inst)))
        else:
            work.append((name, format_pla(inst)))
    return work


def run_stage(host, port, concurrency, work, registry, timeout_s):
    """One ramp stage: ``concurrency`` threads drain a shared work list."""
    latencies = []
    outcomes = {"ok": 0, "cached": 0, "shed": 0, "failed": 0, "other": 0}
    lock = threading.Lock()
    cursor = {"i": 0}

    def next_item():
        with lock:
            if cursor["i"] >= len(work):
                return None
            item = work[cursor["i"]]
            cursor["i"] += 1
            return item

    def worker():
        try:
            client = ServeClient(host, port, timeout_s=timeout_s)
        except OSError:
            with lock:
                outcomes["failed"] += len(work)  # daemon unreachable
            return
        try:
            while True:
                item = next_item()
                if item is None:
                    return
                label, pla = item
                t0 = time.perf_counter()
                try:
                    reply = client.minimize(pla, req_id=label)
                except (OSError, ValueError):
                    with lock:
                        outcomes["failed"] += 1
                    registry.counter("loadgen.transport_errors").inc()
                    return
                elapsed = time.perf_counter() - t0
                registry.histogram(
                    "loadgen.latency_seconds", TIME_BUCKETS_S
                ).observe(elapsed)
                registry.counter("loadgen.requests").inc()
                status = reply.get("status")
                with lock:
                    latencies.append(elapsed)
                    if status == "shed":
                        outcomes["shed"] += 1
                        registry.counter("loadgen.shed").inc()
                    elif reply.get("ok"):
                        outcomes["ok"] += 1
                        registry.counter("loadgen.ok").inc()
                        if reply.get("cached"):
                            outcomes["cached"] += 1
                            registry.counter("loadgen.cache_hits").inc()
                    else:
                        outcomes["other"] += 1
                        registry.counter("loadgen.rejected").inc()
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(concurrency)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return latencies, outcomes, wall


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default=None,
                        help="target an external daemon (default: embedded)")
    parser.add_argument("--port", type=int, default=7777)
    parser.add_argument("--ramp", default="1,2,4,8",
                        help="comma-separated concurrency stages")
    parser.add_argument("--requests", type=int, default=24,
                        help="requests per stage")
    parser.add_argument("--circuits", nargs="+",
                        default=list(DEFAULT_CIRCUITS),
                        help="benchmark circuits (default: the small mix)")
    parser.add_argument("--malformed-every", type=int, default=0, metavar="N",
                        help="make every Nth request malformed")
    parser.add_argument("--workers", type=int, default=2,
                        help="embedded daemon worker count")
    parser.add_argument("--queue-limit", type=int, default=32)
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="client-side request timeout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="write the metrics snapshot as JSON")
    parser.add_argument("--json", action="store_true",
                        help="print the stage table as JSON instead of text")
    args = parser.parse_args(argv)

    ramp = [int(c) for c in args.ramp.split(",") if c.strip()]
    rng = random.Random(args.seed)
    registry = MetricsRegistry()

    handle = None
    if args.host is None:
        handle = start_in_thread(ServeConfig(
            workers=args.workers,
            queue_limit=args.queue_limit,
            max_inputs=32,
            max_cubes=4096,
        ))
        host, port = handle.host, handle.port
        print(f"loadgen: embedded daemon on {host}:{port}", file=sys.stderr)
    else:
        host, port = args.host, args.port

    stages = []
    try:
        for concurrency in ramp:
            work = build_workload(
                args.circuits, args.requests, rng, args.malformed_every
            )
            latencies, outcomes, wall = run_stage(
                host, port, concurrency, work, registry, args.timeout
            )
            latencies.sort()
            n = len(latencies)
            answered = sum(outcomes.values()) - outcomes["failed"]
            stage = {
                "concurrency": concurrency,
                "requests": len(work),
                "answered": answered,
                "failed": outcomes["failed"],
                "wall_s": round(wall, 3),
                "rps": round(answered / wall, 2) if wall > 0 else 0.0,
                "p50_ms": round(percentile(latencies, 0.50) * 1e3, 2),
                "p99_ms": round(percentile(latencies, 0.99) * 1e3, 2),
                "cache_hit_rate": round(
                    outcomes["cached"] / max(1, outcomes["ok"]), 3
                ),
                "shed_rate": round(outcomes["shed"] / max(1, n), 3),
            }
            stages.append(stage)
            registry.gauge(f"loadgen.c{concurrency}.p50_ms").set(stage["p50_ms"])
            registry.gauge(f"loadgen.c{concurrency}.p99_ms").set(stage["p99_ms"])
            registry.gauge(f"loadgen.c{concurrency}.rps").set(stage["rps"])
    finally:
        if handle is not None:
            handle.stop()

    if args.json:
        print(json.dumps(stages, indent=1))
    else:
        header = (
            f"{'conc':>5} {'reqs':>5} {'rps':>8} {'p50 ms':>9} "
            f"{'p99 ms':>9} {'hit%':>6} {'shed%':>6} {'failed':>7}"
        )
        print(header)
        print("-" * len(header))
        for s in stages:
            print(
                f"{s['concurrency']:>5} {s['requests']:>5} {s['rps']:>8.2f} "
                f"{s['p50_ms']:>9.2f} {s['p99_ms']:>9.2f} "
                f"{100 * s['cache_hit_rate']:>5.1f} "
                f"{100 * s['shed_rate']:>5.1f} {s['failed']:>7}"
            )

    if args.out:
        snapshot = registry.snapshot()
        snapshot["loadgen.stages"] = {"kind": "meta", "stages": stages}
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=1, sort_keys=True)
        print(f"loadgen: snapshot written to {args.out}", file=sys.stderr)

    failed = sum(s["failed"] for s in stages)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
