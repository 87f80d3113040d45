#!/usr/bin/env python
"""Concurrency-ramped load generator for the minimization daemon.

Drives a daemon (an embedded one by default, or ``--host/--port`` for an
external process) through a ramp of concurrency stages and reports, per
stage and overall: client-observed p50/p99 latency, cache-hit rate, and
shed rate.  Everything is also published through a
:class:`repro.obs.MetricsRegistry` and written with ``--out`` in the same
snapshot schema the rest of the observability stack consumes
(:func:`repro.obs.merge_snapshots`, ``scripts/bench_gate.py``'s
snapshot-diff machinery), so service load numbers can be archived and
diffed exactly like benchmark numbers.

The workload is a deterministic mix (seeded ``--seed``): benchmark
circuits drawn with repetition (repeats exercise the canonical-key cache),
a slice of metamorphic rewrites (equivalent-but-not-identical instances —
these *should* hit the cache), and optionally malformed lines
(``--malformed-every``).

``--edit-workload K`` switches to the warm-start edit workload
(docs/WARMSTART.md): per circuit, a chain of K seeded single-transition
edits, each edit submitted twice (edit, then identical resubmit — the
save/tweak/save rhythm of an editing session).  The same request sequence
runs twice — a *cold* arm (no sessions) and a *warm* arm threading
``warm_key`` from each response into the next (an edit runs cold, an
identical resubmit returns its stored cover) — and the report shows
warm-hit rate and warm-vs-cold p50/p99 side by side.  Both arms run with
``no_cache`` so the result cache cannot mask the comparison, and every
warm cover is byte-compared to its cold twin.  ``--gate-ratio R`` turns
the report into a gate: exit 1 unless warm p50 <= R x cold p50, at least
one warm hit, and zero cover mismatches.

Usage::

    python scripts/loadgen.py                          # embedded daemon
    python scripts/loadgen.py --ramp 1,4,16 --requests 40
    python scripts/loadgen.py --host 127.0.0.1 --port 7777 --out load.json
    python scripts/loadgen.py --edit-workload 3 --gate-ratio 0.6
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

#: compute-heavy circuits for --edit-workload: an identical resubmit pays
#: for the session machinery only where minimization dominates the
#: request; the tiny circuits above are transport/parse-bound through the
#: service either way
EDIT_CIRCUITS = (
    "cache-ctrl",
    "stetson-p1",
    "stetson-p2",
    "sd-control",
    "pscsi-pscsi",
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


# ----------------------------------------------------------------------
# Edit workload (--edit-workload): warm-start vs cold on edit chains
# ----------------------------------------------------------------------


def build_edit_chain(inst, k, rng):
    """Base instance plus up to ``k`` chained single-transition drops."""
    from repro.proptest.metamorphic import subset_transitions_instance

    chain = [inst]
    cur = inst
    for _ in range(k):
        if len(cur.transitions) <= 2:
            break
        drop = rng.randrange(len(cur.transitions))
        keep = [i for i in range(len(cur.transitions)) if i != drop]
        cur = subset_transitions_instance(cur, keep)
        chain.append(cur)
    return chain


def run_edit_workload(
    host, port, circuits, k, rng, registry, timeout_s, resubmits=2
):
    """Cold arm vs warm arm over per-circuit edit chains.

    Returns (per-circuit rows, aggregate dict).  Request sequence per
    circuit: base, then for each edit the edited text ``1 + resubmits``
    times (the edit itself, then identical resubmits — re-minimizing an
    unchanged design is the common case of an editing session, exactly
    like no-op rebuilds dominate incremental builds).  The warm arm
    threads ``warm_key`` through the whole sequence; the cold arm never
    mentions sessions.
    """
    rows = []
    cold_all, warm_all = [], []
    total_hits = total_warmable = total_mismatches = total_failed = 0
    client = ServeClient(host, port, timeout_s=timeout_s)
    try:
        for name in circuits:
            inst = build_benchmark(name)
            chain = build_edit_chain(inst, k, rng)
            requests = [(f"{name}@base", format_pla(chain[0]))]
            for i, edited in enumerate(chain[1:], 1):
                text = format_pla(edited)
                requests.append((f"{name}@e{i}", text))
                for r in range(max(0, resubmits)):
                    requests.append((f"{name}@e{i}r{r + 1}", text))

            cold_lat, cold_covers = [], []
            failed = 0
            for label, text in requests:
                t0 = time.perf_counter()
                reply = client.minimize(
                    text, no_cache=True, req_id=f"{label}:cold"
                )
                cold_lat.append(time.perf_counter() - t0)
                if not reply.get("ok"):
                    failed += 1
                cold_covers.append(reply.get("cover_pla"))

            warm_lat = []
            hits = mismatches = 0
            warm_key = None
            for i, (label, text) in enumerate(requests):
                t0 = time.perf_counter()
                reply = client.minimize(
                    text,
                    no_cache=True,
                    session=warm_key is None,
                    warm_key=warm_key,
                    req_id=f"{label}:warm",
                )
                warm_lat.append(time.perf_counter() - t0)
                if not reply.get("ok"):
                    failed += 1
                warm_key = reply.get("warm_key") or warm_key
                if reply.get("warm") == "identical":
                    hits += 1
                    registry.counter("loadgen.warm_hits").inc()
                if reply.get("cover_pla") != cold_covers[i]:
                    mismatches += 1
                    registry.counter("loadgen.warm_mismatches").inc()

            warmable = len(requests) - 1  # the base request is always cold
            total_hits += hits
            total_warmable += warmable
            total_mismatches += mismatches
            total_failed += failed
            cold_all.extend(cold_lat)
            warm_all.extend(warm_lat)
            cs, ws = sorted(cold_lat), sorted(warm_lat)
            rows.append({
                "circuit": name,
                "requests": len(requests),
                "edits": len(chain) - 1,
                "warm_hits": hits,
                "warmable": warmable,
                "mismatches": mismatches,
                "failed": failed,
                "cold_p50_ms": round(percentile(cs, 0.50) * 1e3, 2),
                "cold_p99_ms": round(percentile(cs, 0.99) * 1e3, 2),
                "warm_p50_ms": round(percentile(ws, 0.50) * 1e3, 2),
                "warm_p99_ms": round(percentile(ws, 0.99) * 1e3, 2),
                "cold_total_s": round(sum(cold_lat), 4),
                "warm_total_s": round(sum(warm_lat), 4),
            })
    finally:
        client.close()
    cold_all.sort()
    warm_all.sort()
    cold_p50 = percentile(cold_all, 0.50)
    warm_p50 = percentile(warm_all, 0.50)
    aggregate = {
        "requests_per_arm": len(cold_all),
        "warm_hits": total_hits,
        "warmable": total_warmable,
        "warm_hit_rate": round(total_hits / max(1, total_warmable), 3),
        "mismatches": total_mismatches,
        "failed": total_failed,
        "cold_p50_ms": round(cold_p50 * 1e3, 2),
        "cold_p99_ms": round(percentile(cold_all, 0.99) * 1e3, 2),
        "warm_p50_ms": round(warm_p50 * 1e3, 2),
        "warm_p99_ms": round(percentile(warm_all, 0.99) * 1e3, 2),
        "p50_ratio": round(warm_p50 / cold_p50, 3) if cold_p50 > 0 else 0.0,
        "cold_total_s": round(sum(cold_all), 4),
        "warm_total_s": round(sum(warm_all), 4),
    }
    registry.gauge("loadgen.edit.warm_hit_rate").set(
        aggregate["warm_hit_rate"]
    )
    registry.gauge("loadgen.edit.p50_ratio").set(aggregate["p50_ratio"])
    return rows, aggregate


def edit_workload_main(args, host, port, rng, registry):
    """Run --edit-workload and print/gate the report; returns exit code."""
    rows, agg = run_edit_workload(
        host, port, args.circuits, args.edit_workload, rng, registry,
        args.timeout, resubmits=args.resubmits,
    )
    if args.json:
        print(json.dumps({"circuits": rows, "aggregate": agg}, indent=1))
    else:
        header = (
            f"{'circuit':<16} {'reqs':>5} {'hits':>5} "
            f"{'cold p50':>9} {'warm p50':>9} {'cold p99':>9} "
            f"{'warm p99':>9} {'miss':>5}"
        )
        print(header)
        print("-" * len(header))
        for r in rows:
            print(
                f"{r['circuit']:<16} {r['requests']:>5} "
                f"{r['warm_hits']:>3}/{r['warmable']:<2}"
                f"{r['cold_p50_ms']:>9.2f} {r['warm_p50_ms']:>9.2f} "
                f"{r['cold_p99_ms']:>9.2f} {r['warm_p99_ms']:>9.2f} "
                f"{r['mismatches']:>5}"
            )
        print(
            f"aggregate: warm-hit rate {agg['warm_hit_rate']:.0%} "
            f"({agg['warm_hits']}/{agg['warmable']}), "
            f"p50 warm/cold {agg['warm_p50_ms']:.2f}/"
            f"{agg['cold_p50_ms']:.2f} ms "
            f"(ratio {agg['p50_ratio']}), "
            f"{agg['mismatches']} cover mismatches, "
            f"{agg['failed']} failed"
        )
    if args.out:
        snapshot = registry.snapshot()
        snapshot["loadgen.edit_workload"] = {
            "kind": "meta", "circuits": rows, "aggregate": agg,
        }
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=1, sort_keys=True)
        print(f"loadgen: snapshot written to {args.out}", file=sys.stderr)
    if agg["failed"] or agg["mismatches"]:
        return 1
    if args.gate_ratio is not None:
        if agg["warm_hits"] == 0:
            print("loadgen: GATE FAILED (no warm hits)", file=sys.stderr)
            return 1
        if agg["warm_p50_ms"] > args.gate_ratio * agg["cold_p50_ms"]:
            print(
                f"loadgen: GATE FAILED (warm p50 {agg['warm_p50_ms']} ms > "
                f"{args.gate_ratio} x cold p50 {agg['cold_p50_ms']} ms)",
                file=sys.stderr,
            )
            return 1
        print(
            f"loadgen: gate ok (ratio {agg['p50_ratio']} <= "
            f"{args.gate_ratio}, {agg['warm_hits']} warm hits)",
            file=sys.stderr,
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default=None,
                        help="target an external daemon (default: embedded)")
    parser.add_argument("--port", type=int, default=7777)
    parser.add_argument("--ramp", default="1,2,4,8",
                        help="comma-separated concurrency stages")
    parser.add_argument("--requests", type=int, default=24,
                        help="requests per stage")
    parser.add_argument("--circuits", nargs="+", default=None,
                        help="benchmark circuits (default: the small mix; "
                        "the compute-heavy set with --edit-workload)")
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
    parser.add_argument("--edit-workload", type=int, default=0, metavar="K",
                        help="warm-start edit workload: K chained edits per "
                        "circuit, each followed by identical resubmits; "
                        "reports warm vs cold latency (docs/WARMSTART.md)")
    parser.add_argument("--resubmits", type=int, default=2, metavar="N",
                        help="identical resubmits after each edit in "
                        "--edit-workload mode (default 2)")
    parser.add_argument("--gate-ratio", type=float, default=None, metavar="R",
                        help="with --edit-workload: exit 1 unless warm p50 "
                        "<= R x cold p50 with at least one warm hit")
    args = parser.parse_args(argv)
    if args.circuits is None:
        args.circuits = list(
            EDIT_CIRCUITS if args.edit_workload > 0 else DEFAULT_CIRCUITS
        )

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

    if args.edit_workload > 0:
        try:
            return edit_workload_main(args, host, port, rng, registry)
        finally:
            if handle is not None:
                handle.stop()

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
