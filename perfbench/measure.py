"""Samples, percentiles and the end-to-end metrics built from them.

Like :mod:`refslice`, this module never imports ``repro``.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

#: Percentiles the tail may be reported at.  The tail is the highest one
#: with at least :data:`TAIL_MIN_BEYOND` samples beyond it, so it is never
#: set by one or two outliers.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


@dataclass
class Sample:
    """One timed request."""

    request: str
    klass: str
    wall: float
    corrected: float
    factor: float
    ok: bool = True


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Tuple[float, int]:
    """(percentile, samples beyond it) of the tail for ``n`` samples."""
    best = (TAIL_LADDER[0], n - math.ceil(TAIL_LADDER[0] / 100.0 * n))
    for p in TAIL_LADDER:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, beyond)
    return best


def latency_metrics(samples: Sequence[Sample], corrected: bool = True) -> Dict[str, float]:
    """Throughput, median and tail over the samples that completed."""
    done = [s for s in samples if s.ok]
    times = [s.corrected if corrected else s.wall for s in done]
    p, beyond = tail_percentile(len(times))
    return {
        "throughput_ips": len(times) / sum(times),
        "latency_p50_ms": percentile(times, 50.0) * 1e3,
        "latency_tail_ms": percentile(times, p) * 1e3,
        "tail_percentile": p,
        "tail_beyond": beyond,
        "samples": len(times),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the acceptance check takes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def program_env(root: str) -> Dict[str, str]:
    """Environment for a child process that imports the program from ``src``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program(root: str, modules: Sequence[str]) -> None:
    """Import ``modules`` in a fresh interpreter: the import share of set-up.

    Imports happen once per process, so repeating set-up in one run needs
    a new process each time.  No timeout: with one, the wait polls, and
    the import time would be read in steps of up to 50 ms.
    """
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=program_env(root),
        check=True,
    )
