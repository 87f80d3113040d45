"""``espresso-hf detect`` / ``espresso-hf transform`` subcommands.

Dispatched from :func:`repro.cli.main` before the minimizer's argparse
(the ``serve`` idiom), so foreign circuits are first-class traffic::

    espresso-hf detect circuit.net                # verdict per transition
    espresso-hf detect cover.pla --algebra        # + 8-valued advisory
    espresso-hf detect circuit.net --mode exhaustive --json report.json
    espresso-hf transform circuit.net -o fixed.net
    espresso-hf transform spec.pla --pla-out uf.pla --mode complete

Inputs are sniffed: PLA text (``.i``/``.type`` directives) is read as a
specification whose ON cover realizes the network under test;
``.net`` text (``.inputs``/gate lines, see ``docs/FORMAT.md``) is parsed
as a netlist with optional ``.trans`` transitions.

Exit codes come from the outcome table (:data:`repro.guard.errors.OUTCOMES`,
``docs/FAILURES.md``): 0 clean / success, 3 (``invariant_violation``) hazard
or functional mismatch found (detect) or verification failed (transform),
4 malformed input, 5 (``timeout``) budget exhausted before a definitive
answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.detect.detector import (
    DetectionReport,
    DetectOptions,
    detect_netlist,
)
from repro.detect.netlist import Netlist
from repro.detect.nlformat import format_netlist, parse_netlist
from repro.guard.budget import RunBudget
from repro.guard.errors import (
    OUTCOMES,
    BudgetExceeded,
    MalformedInstance,
    outcome_of,
)
from repro.obs.metrics import MetricsRegistry


def _exit(name: str) -> int:
    return OUTCOMES[name].exit_code


def _sniff_pla(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] in (".i", ".o", ".type", ".ilb", ".ob", ".p"):
            return True
        if line.startswith(".model") or line.startswith(".inputs"):
            return False
    return False


def _load(path: str, forced: Optional[str]):
    """Read a circuit file: returns (netlist, on, off, transitions)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInstance(f"cannot read {path}: {exc}")
    kind = forced or ("pla" if _sniff_pla(text) else "net")
    if kind == "pla":
        from repro.pla.reader import parse_pla

        instance = parse_pla(text, name=path).to_instance()
        netlist = Netlist.from_cover(instance.on, name=instance.name)
        return netlist, instance.on, instance.off, list(instance.transitions)
    netlist, transitions = parse_netlist(text, name=path)
    from repro.transform.extract import extract_covers

    on, off = extract_covers(netlist)
    return netlist, on, off, transitions


def _print_report(report: DetectionReport, quiet: bool) -> None:
    bad = report.hazards + report.mismatches
    if not quiet:
        for v in report.verdicts:
            line = (
                f"{''.join(map(str, v.transition.start))} -> "
                f"{''.join(map(str, v.transition.end))} out={v.output}: "
                f"{v.status}"
            )
            if not v.exhaustive:
                line += f" (sampled {v.points_checked}/{v.points_total})"
            if v.algebra is not None:
                line += f" [algebra {v.algebra}]"
            print(line)
    for v in bad:
        w = v.witness
        print(
            f"witness: output {w.output} at point {w.point} "
            f"(pair {''.join(map(str, w.start))} -> "
            f"{''.join(map(str, w.end))}): expected {w.expected}, "
            f"observed {w.observed}; unstable gates: "
            f"{', '.join(w.unstable_gates) or '-'}"
        )
    verdict = "HAZARD-FREE" if report.hazard_free else "HAZARDOUS"
    extra = " (budget exhausted; partial)" if report.budget_exhausted else ""
    print(f"{report.name}: {verdict}{extra}")


def detect_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="espresso-hf detect",
        description="Gate-level hazard detection for AND/OR/NOT netlists "
        "(docs/DETECTION.md).",
    )
    parser.add_argument("input", help=".net netlist or PLA file")
    parser.add_argument(
        "--format",
        choices=("auto", "net", "pla"),
        default="auto",
        help="force the input format (default: sniff)",
    )
    parser.add_argument(
        "--mode",
        choices=("auto", "exhaustive", "sampled"),
        default="auto",
        help="point enumeration mode (default auto = sampled with cap)",
    )
    parser.add_argument(
        "--max-points",
        type=int,
        default=DetectOptions.max_points,
        metavar="N",
        help="per-transition ternary-point cap in sampled mode",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument(
        "--algebra",
        action="store_true",
        help="annotate verdicts with the advisory 8-valued class",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget; partial reports exit 5",
    )
    parser.add_argument("--json", help="write the full report as JSON here")
    parser.add_argument(
        "--quiet", action="store_true", help="print only failures and summary"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _exit("ok" if exc.code in (0, None) else "usage")

    try:
        netlist, on, off, transitions = _load(
            args.input, None if args.format == "auto" else args.format
        )
        if not transitions:
            raise MalformedInstance(
                f"{args.input}: no transitions to check; add .trans lines "
                "(see docs/FORMAT.md)"
            )
        registry = MetricsRegistry()
        options = DetectOptions(
            mode=args.mode,
            max_points=args.max_points,
            seed=args.seed,
            algebra=args.algebra,
            budget=RunBudget(wall_s=args.timeout) if args.timeout else None,
            registry=registry,
        )
        report = detect_netlist(netlist, on, off, transitions, options)
    except (MalformedInstance, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return outcome_of(exc).exit_code

    _print_report(report, args.quiet)
    if args.json:
        payload = report.as_dict()
        payload["metrics"] = registry.snapshot()
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not report.hazard_free:
        return _exit("invariant_violation")
    if report.budget_exhausted:
        return _exit("timeout")
    return _exit("ok")


def transform_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="espresso-hf transform",
        description="Hazard-free u(f) rewrite of a netlist or PLA spec "
        "(docs/DETECTION.md).",
    )
    parser.add_argument("input", help=".net netlist or PLA file")
    parser.add_argument(
        "--format",
        choices=("auto", "net", "pla"),
        default="auto",
        help="force the input format (default: sniff)",
    )
    parser.add_argument(
        "--mode",
        choices=("auto", "transitions", "complete"),
        default="auto",
        help="transition-scoped rewrite or complete sum "
        "(default: transitions when the input specifies any)",
    )
    parser.add_argument(
        "-o", "--output", help="write the rewritten netlist (.net) here"
    )
    parser.add_argument("--pla-out", help="also write the cover as PLA here")
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget for the rewrite",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip re-running the detector on the result",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the size report"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _exit("ok" if exc.code in (0, None) else "usage")

    from repro.hazards.instance import HazardFreeInstance
    from repro.transform.uf import transform_instance

    try:
        netlist, on, off, transitions = _load(
            args.input, None if args.format == "auto" else args.format
        )
        mode = args.mode
        if mode == "auto":
            mode = "transitions" if transitions else "complete"
        if mode == "transitions" and not transitions:
            raise MalformedInstance(
                f"{args.input}: transition-scoped rewrite needs .trans lines"
            )
        budget = RunBudget(wall_s=args.timeout) if args.timeout else None
        instance = HazardFreeInstance(
            on,
            off,
            list(transitions) if mode == "transitions" else [],
            name=netlist.name,
            validate=(mode == "transitions"),
        )
        result = transform_instance(instance, mode=mode, budget=budget)
    except (MalformedInstance, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return outcome_of(exc).exit_code

    if not args.quiet:
        print(
            f"{netlist.name}: {netlist.num_gates} gates depth "
            f"{netlist.depth}  ->  u(f) {result.num_gates} gates depth "
            f"{result.depth} ({result.num_cubes} cubes, mode {result.mode}, "
            f"{result.elapsed_s * 1000:.1f} ms)"
        )
    if not args.no_verify:
        if transitions:
            report = detect_netlist(
                result.netlist, on, off, transitions, DetectOptions()
            )
            if not report.hazard_free:
                _print_report(report, quiet=True)
                return _exit("invariant_violation")
            if not args.quiet:
                print(
                    f"verified hazard-free over {len(report.verdicts)} "
                    "verdicts"
                )
        elif not args.quiet:
            print("no transitions specified; detector verification skipped")
    text = format_netlist(
        result.netlist, transitions if mode == "transitions" else ()
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not args.pla_out:
        sys.stdout.write(text)
    if args.pla_out:
        from repro.pla.writer import format_cover

        with open(args.pla_out, "w", encoding="utf-8") as fh:
            fh.write(format_cover(result.cover, name=netlist.name))
    return _exit("ok")
