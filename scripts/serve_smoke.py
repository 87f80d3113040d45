#!/usr/bin/env python
"""CI service smoke: a real daemon process under concurrent load.

The end-to-end check the unit suites cannot give: a separate
``espresso-hf serve`` *process* (not an in-thread server), hit with 50
concurrent requests — including one malformed and one oversized — then,
once all of them are answered, a second wave repeating each circuit the
first wave solved, then drained with a real ``SIGTERM``.  Asserts:

* every request is answered with the right status (zero hangs, bounded
  by a hard wall-clock);
* every second-wave repeat is answered from the cache (first-wave
  repeats may coalesce instead, so they prove nothing about the cache);
* ``SIGTERM`` produces a clean drain and exit code 0;
* ``--metrics-out`` / ``--trace-out`` artifacts are written and
  well-formed (CI uploads them).

Exit code 0 on success, 1 with a diagnostic on any failure.

Usage::

    python scripts/serve_smoke.py [--requests 50] [--artifacts DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bm.benchmarks import build_benchmark  # noqa: E402
from repro.pla import format_pla  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

CIRCUITS = ("dram-ctrl", "pscsi-ircv", "sscsi-trcv-bm", "stetson-p3")


def fail(message: str) -> int:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--artifacts", default="artifacts")
    parser.add_argument("--deadline", type=float, default=300.0,
                        help="hard wall-clock bound for the whole smoke")
    args = parser.parse_args(argv)

    os.makedirs(args.artifacts, exist_ok=True)
    metrics_path = os.path.join(args.artifacts, "serve-metrics.json")
    trace_path = os.path.join(args.artifacts, "serve-trace.jsonl")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--workers", "2",
            "--max-inputs", "16",
            "--bundle-dir", args.artifacts,
            "--metrics-out", metrics_path,
            "--trace-out", trace_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=REPO_ROOT,
        text=True,
    )
    try:
        # Port discovery: the daemon announces itself on stdout.
        line = proc.stdout.readline()
        if "listening on" not in line:
            return fail(f"unexpected startup line: {line!r}")
        host, port = line.split("listening on ")[1].split()[0].split(":")
        port = int(port)
        print(f"serve-smoke: daemon pid={proc.pid} on {host}:{port}")

        plas = {name: format_pla(build_benchmark(name)) for name in CIRCUITS}
        oversized = format_pla(build_benchmark("cache-ctrl"))  # 20 inputs
        replies = {}
        errors = []
        lock = threading.Lock()

        def submit(key, text):
            try:
                with ServeClient(host, port, timeout_s=args.deadline) as c:
                    reply = c.minimize(text, req_id=str(key))
                with lock:
                    replies[key] = reply
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append((key, repr(exc)))

        def wave(jobs):
            """Send every job at once; an error message, or None."""
            threads = [
                threading.Thread(target=submit, args=job) for job in jobs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=args.deadline)
            if any(t.is_alive() for t in threads):
                return "client threads hung — daemon not answering"
            if errors:
                return f"transport errors: {errors[:5]}"
            missing = [key for key, _ in jobs if key not in replies]
            if missing:
                return f"{len(missing)} requests unanswered"
            return None

        # Wave 1: everything at once.  Repeats may coalesce onto one
        # another, so this wave makes no claim about cache hits.
        first = []
        for i in range(args.requests):
            if i == 1:
                first.append((f"r{i}", ".i 2\n.o\n"))
            elif i == 2:
                first.append((f"r{i}", oversized))
            else:
                first.append((f"r{i}", plas[CIRCUITS[i % len(CIRCUITS)]]))
        t0 = time.monotonic()
        problem = wave(first)
        if problem:
            return fail(problem)
        for key, _ in first:
            reply = replies[key]
            if key == "r1":
                if reply["status"] != "malformed":
                    return fail(f"malformed request got {reply['status']}")
            elif key == "r2":
                if reply["status"] != "shed" or reply.get("reason") != "oversized":
                    return fail(f"oversized request got {reply}")
            elif reply["status"] != "ok":
                return fail(f"request {key} got {reply['status']}: "
                            f"{reply.get('error')}")

        # Wave 2, once every wave-1 reply is in: one repeat of each
        # circuit wave 1 solved.  Each must be answered from the cache.
        solved = sorted({text for key, text in first if replies[key]["status"] == "ok"})
        second = [(f"w2-{k}", text) for k, text in enumerate(solved)]
        problem = wave(second)
        if problem:
            return fail(problem)
        for key, _ in second:
            reply = replies[key]
            if reply["status"] != "ok" or not reply.get("cached"):
                return fail(f"repeat {key} was not answered from the cache: "
                            f"status {reply['status']}, cached {reply.get('cached')}")
        wall = time.monotonic() - t0
        total = len(first) + len(second)
        print(
            f"serve-smoke: {total} requests in {wall:.1f}s "
            f"({len(second)} repeats all cache hits), malformed+oversized "
            f"rejected explicitly"
        )

        # Real SIGTERM: the daemon must drain and exit 0 on its own.
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            return fail("daemon did not exit within 60s of SIGTERM")
        if proc.returncode != 0:
            return fail(f"daemon exited {proc.returncode} after SIGTERM "
                        f"(stderr: {proc.stderr.read()[-500:]})")
        print("serve-smoke: SIGTERM drain clean, exit 0")

        # Artifacts: both exports exist and parse.
        with open(metrics_path) as fh:
            snapshot = json.load(fh)
        for metric in ("serve.admitted", "serve.cache_hits", "serve.shed_oversized"):
            if metric not in snapshot:
                return fail(f"metrics snapshot missing {metric}")
        if snapshot["serve.cache_hits"]["value"] < len(second):
            return fail("metrics disagree: fewer cache hits than repeats")
        with open(trace_path) as fh:
            spans = [json.loads(line) for line in fh if line.strip()]
        if len(spans) < total:
            return fail(f"trace has {len(spans)} spans for "
                        f"{total} requests")
        print(
            f"serve-smoke: artifacts ok ({len(spans)} spans, "
            f"{len(snapshot)} metrics) -> {args.artifacts}/"
        )
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
