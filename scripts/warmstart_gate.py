#!/usr/bin/env python
"""Warm-start differential gate over the benchmark suite.

For every benchmark circuit this script builds a deterministic edit chain
(chained single-transition drops) and re-minimizes each edit twice:

* **cold** — plain :func:`repro.hf.espresso_hf`, no session;
* **warm** — given the :class:`repro.session.MinimizationSession`
  captured from the previous link of the chain (an edit, so it runs
  cold), then resubmitted unchanged ``--resubmits`` times against its
  own session (the identical-mode short-circuit, the common case of an
  editing session).

Each arm runs on its own freshly built copy of the chain, so both pay
the derived-set construction an instance memoizes on first use.

Three properties are enforced on every warm result, not sampled:

1. the warm cover is **byte-identical** to the cold cover of the same
   instance (``format_cover`` comparison);
2. the warm cover passes the Theorem 2.11 hazard-freedom verifier
   independently of the in-run defensive check;
3. the chain's warm minimization time totals at most ``--ratio`` (default
   0.6) of the cold total across the suite.

Any violation exits 1.  ``--out`` writes a JSON artifact with the
per-circuit rows and totals for CI upload.  The totals also report
``edits_only_ratio``, warm over cold time on the edit links alone
(resubmits left out): a field, not a bound.

Usage::

    python scripts/warmstart_gate.py                      # full suite
    python scripts/warmstart_gate.py --edits 3 --resubmits 2
    python scripts/warmstart_gate.py --circuits cache-ctrl stetson-p1
    python scripts/warmstart_gate.py --out artifacts/warmstart-gate.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bm.benchmarks import BENCHMARKS, build_benchmark  # noqa: E402
from repro.hazards.verify import verify_hazard_free_cover  # noqa: E402
from repro.hf import EspressoHFOptions, espresso_hf  # noqa: E402
from repro.pla import format_cover  # noqa: E402
from repro.proptest.metamorphic import (  # noqa: E402
    subset_transitions_instance,
)


def build_edit_chain(inst, k: int, rng: random.Random) -> List:
    """Base instance plus up to ``k`` chained single-transition drops."""
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


def _run_cold(inst, options):
    t0 = time.perf_counter()
    result = espresso_hf(inst, options, capture_session=True)
    return result, time.perf_counter() - t0


def _run_warm(inst, options, session):
    t0 = time.perf_counter()
    result = espresso_hf(
        inst, options, warm_start=session, capture_session=True
    )
    return result, time.perf_counter() - t0


def run_gate(
    circuits: Sequence[str],
    edits: int,
    resubmits: int,
    seed: int,
) -> dict:
    """Run the differential; returns the report dict (see module doc)."""
    options = EspressoHFOptions()
    rows = []
    problems: List[str] = []
    total_cold = total_warm = 0.0
    edits_cold = edits_warm = 0.0
    total_hits = total_warmable = 0
    for name in circuits:
        # One chain per arm (module doc).  random.Random seeds str/bytes
        # stably across processes, unlike tuple hashes (PYTHONHASHSEED).
        cold_chain, chain = (
            build_edit_chain(build_benchmark(name), edits, random.Random(f"{seed}:{name}"))
            for _ in range(2)
        )
        base, _ = _run_cold(chain[0], options)
        if base.session is None:
            problems.append(f"{name}: base run captured no session")
            continue
        session = base.session
        cold_s = warm_s = 0.0
        hits = warmable = 0
        modes = []
        for i, edited in enumerate(chain[1:], 1):
            cold, t_cold = _run_cold(cold_chain[i], options)
            cold_text = format_cover(cold.cover, name=f"{name}@e{i}")
            # The edit gets the predecessor's session (and runs cold),
            # then identical resubmits get the edit's own — the no-op
            # rebuild case.  The cold arm would re-minimize from
            # scratch every time; one measured cold run per distinct text
            # stands in for all of them (same bytes, same work).
            for r in range(1 + max(0, resubmits)):
                identical = r > 0
                warm, t_warm = _run_warm(edited, options, session)
                session = warm.session or session
                warmable += 1
                warm_s += t_warm
                cold_s += t_cold
                modes.append(warm.warm)
                if not identical:
                    edits_cold += t_cold
                    edits_warm += t_warm
                if warm.warm == "identical":
                    hits += 1
                warm_text = format_cover(warm.cover, name=f"{name}@e{i}")
                if warm_text != cold_text:
                    problems.append(
                        f"{name}@e{i}: warm cover differs from cold "
                        f"(mode {warm.warm})"
                    )
                if verify_hazard_free_cover(edited, warm.cover):
                    problems.append(
                        f"{name}@e{i}: warm cover failed Theorem 2.11 "
                        f"verification (mode {warm.warm})"
                    )
                if identical and warm.warm != "identical":
                    problems.append(
                        f"{name}@e{i}: identical resubmit planned as "
                        f"{warm.warm!r}"
                    )
        total_cold += cold_s
        total_warm += warm_s
        total_hits += hits
        total_warmable += warmable
        rows.append(
            {
                "circuit": name,
                "edits": len(chain) - 1,
                "warmable": warmable,
                "warm_hits": hits,
                "modes": modes,
                "cold_s": round(cold_s, 6),
                "warm_s": round(warm_s, 6),
            }
        )
    ratio = (total_warm / total_cold) if total_cold else 0.0
    edits_only = (edits_warm / edits_cold) if edits_cold else 0.0
    return {
        "meta": {
            "kind": "warmstart.gate",
            "seed": seed,
            "edits": edits,
            "resubmits": resubmits,
            "circuits": list(circuits),
        },
        "rows": rows,
        "totals": {
            "cold_s": round(total_cold, 6),
            "warm_s": round(total_warm, 6),
            "ratio": round(ratio, 4),
            "edits_only_ratio": round(edits_only, 4),
            "warm_hits": total_hits,
            "warmable": total_warmable,
        },
        "problems": problems,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=None,
        help="circuit subset (default: the full benchmark suite)",
    )
    parser.add_argument(
        "--edits", type=int, default=2, help="edit-chain length per circuit"
    )
    parser.add_argument(
        "--resubmits",
        type=int,
        default=2,
        help="identical resubmits per edit (the no-op rebuild case)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--ratio",
        type=float,
        default=0.6,
        help="gate: warm total must be <= ratio x cold total",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here"
    )
    args = parser.parse_args(argv)

    known = {b.name for b in BENCHMARKS}
    circuits = args.circuits or [b.name for b in BENCHMARKS]
    unknown = [c for c in circuits if c not in known]
    if unknown:
        parser.error(f"unknown circuits: {', '.join(unknown)}")

    report = run_gate(circuits, args.edits, args.resubmits, args.seed)
    totals = report["totals"]

    print(f"{'circuit':<16} {'hits':>9} {'cold s':>9} {'warm s':>9}")
    print("-" * 46)
    for row in report["rows"]:
        print(
            f"{row['circuit']:<16} "
            f"{row['warm_hits']:>4}/{row['warmable']:<4} "
            f"{row['cold_s']:>9.3f} {row['warm_s']:>9.3f}"
        )
    print(
        f"totals: cold {totals['cold_s']:.3f}s warm {totals['warm_s']:.3f}s "
        f"ratio {totals['ratio']:.3f} "
        f"(edits only {totals['edits_only_ratio']:.3f}) "
        f"hits {totals['warm_hits']}/{totals['warmable']}"
    )

    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")

    ok = True
    for problem in report["problems"]:
        print(f"FAIL: {problem}")
        ok = False
    if totals["warm_hits"] == 0:
        print("GATE FAILED: no warm hits at all")
        ok = False
    if totals["ratio"] > args.ratio:
        print(
            f"GATE FAILED: warm/cold ratio {totals['ratio']:.3f} > "
            f"{args.ratio}"
        )
        ok = False
    if ok:
        print(f"gate ok (ratio {totals['ratio']:.3f} <= {args.ratio})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
