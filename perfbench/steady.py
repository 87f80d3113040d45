#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 --seconds 20

Runs two sets, one after the other.  Each set runs ``perfbench/run.py``
``--runs`` times per workload, alternating the workloads, each time with
another seed: seeds 1 to ``--runs`` in the first set, the next ``--runs``
in the second.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints, per set, the median and quartiles of the runs
and the spread (third minus first quartile, as a share of the median)
against the metric's bound; for the timed metrics the raw spread stands
next to the drift-corrected one, so the effect of the correction is
measured, not assumed.  Then it prints how far the second set's median
lies from the first's, against the same bound: two sets of the same code
must agree within it.  Exits 1 when a run fails, or a spread or the
difference between the medians exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import quartiles  # noqa: E402

RAW_KEYS = ("throughput_ips", "latency_p50_ms", "latency_tail_ms")


def spread(values):
    q1, q2, q3 = quartiles(values)
    return q1, q2, q3, (q3 - q1) / q2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    with open(os.path.join(HERE, "out", f"report-{workload}-seed{seed}-trace0.json")) as fh:
        result["report"] = json.load(fh)
    return result


def run_set(bench: dict, first_seed: int, runs: int, seconds: int) -> dict:
    """``runs`` runs of every workload, alternating; results by workload."""
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    for r in range(runs):
        for w in workloads:
            result = run_once(w, first_seed + r, seconds)
            results[w].append(result)
            print(f"run {r + 1}/{runs} {w} seed {first_seed + r}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return results


def print_set(bench: dict, results: dict, label: str, seconds: int) -> bool:
    """The quartile table of one set; False when a run failed or a spread is over its bound."""
    ok = True
    for w, runs in results.items():
        print(f"\n{label} {w}: {len(runs)} runs of {seconds} s")
        print(f"  {'metric':16s} {'q1':>11s} {'median':>11s} {'q3':>11s} {'spread':>8s} "
              f"{'bound':>6s} {'raw spread':>10s}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            q1, q2, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            raw = ""
            if name in RAW_KEYS:
                raw = f"{spread([r['report']['raw'][name] for r in runs])[3]:10.2%}"
            elif name == "setup_s":
                raw_setup = [statistics.median(r["report"]["setup_s"]["raw"]) for r in runs]
                raw = f"{spread(raw_setup)[3]:10.2%}"
            flag = ""
            if s > metric["bound"]:
                flag, ok = "  OVER BOUND", False
            elif s > metric["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {name:16s} {q1:11.4f} {q2:11.4f} {q3:11.4f} {s:8.2%} "
                  f"{metric['bound']:6.2f} {raw}{flag}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  fail_ratio {failed / attempted:.4f} ({failed} of {attempted})")
        ok = ok and failed == 0
    return ok


def print_agreement(bench: dict, first: dict, second: dict) -> bool:
    """Second set's median against the first's; False when one moved past its bound."""
    ok = True
    print("\nagreement of the two sets: (median 2 - median 1) / median 1")
    print(f"  {'workload':13s} {'metric':16s} {'median 1':>11s} {'median 2':>11s} "
          f"{'change':>8s} {'bound':>6s}")
    for w in first:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            m1 = statistics.median(r["metrics"][name]["value"] for r in first[w])
            m2 = statistics.median(r["metrics"][name]["value"] for r in second[w])
            change = (m2 - m1) / m1
            flag = ""
            if abs(change) > metric["bound"]:
                flag, ok = "  OVER BOUND", False
            elif abs(change) > metric["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {w:13s} {name:16s} {m1:11.4f} {m2:11.4f} {change:8.2%} "
                  f"{metric['bound']:6.2f}{flag}")
    return ok


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    first = run_set(bench, 1, args.runs, args.seconds)
    second = run_set(bench, 1 + args.runs, args.runs, args.seconds)
    ok = print_set(bench, first, "set 1", args.seconds)
    ok = print_set(bench, second, "set 2", args.seconds) and ok
    ok = print_agreement(bench, first, second) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
