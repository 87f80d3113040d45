"""Command-line interface: ``espresso-hf``.

Reads a hazard-free minimization instance from an extended PLA file
(``.type fr`` with ``.trans`` lines, see :mod:`repro.pla`), minimizes it,
and writes the cover back as a PLA.

Examples::

    espresso-hf input.pla                     # minimize, print cover
    espresso-hf input.pla -o out.pla          # write the result
    espresso-hf input.pla --exact             # exact flow instead
    espresso-hf input.pla --check-existence   # Theorem 4.1 only
    espresso-hf input.pla --verify            # re-verify via Theorem 2.11
    espresso-hf input.pla --checked           # phase-boundary invariants on
    espresso-hf input.pla --timeout 30        # isolated run, 30s wall cap
    espresso-hf input.pla --jobs 4            # per-output mode, 4 workers
    espresso-hf input.pla --pipeline essentials,loop   # skip MAKE_DHF_PRIME
    espresso-hf input.pla --trace-out t.json  # Chrome trace of the run
    espresso-hf serve --port 7777             # minimization-as-a-service
                                              # daemon (see docs/SERVICE.md)
    espresso-hf detect circuit.net            # gate-level hazard detection
    espresso-hf transform circuit.net -o f.net  # hazard-free u(f) rewrite
                                              # (see docs/DETECTION.md)

Exit codes are the ``exit_code`` column of the outcome table,
:data:`repro.guard.errors.OUTCOMES` (see ``docs/FAILURES.md``): 0 success,
1 usage error or internal failure, 2 no hazard-free cover (Theorem 4.1),
3 verification failed, 4 malformed input, 5 timeout or budget exhausted,
6 worker process died without reporting.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.exact import exact_hazard_free_minimize, ExactBudget, ExactFailure
from repro.guard.errors import (
    OUTCOMES,
    HFError,
    MalformedInstance,
    NoSolutionError,
    outcome_of,
)
from repro.hazards.existence import existence_report
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import EspressoHFOptions
from repro.pla import format_cover, read_pla, write_pla

EXIT_OK = OUTCOMES["ok"].exit_code
EXIT_USAGE = OUTCOMES["usage"].exit_code
EXIT_NO_SOLUTION = OUTCOMES["no_solution"].exit_code
EXIT_VERIFY_FAILED = OUTCOMES["invariant_violation"].exit_code
EXIT_MALFORMED = OUTCOMES["malformed"].exit_code
EXIT_TIMEOUT = OUTCOMES["timeout"].exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="espresso-hf",
        description="Heuristic hazard-free two-level logic minimization "
        "(Theobald/Nowick/Wu, DAC 1996).",
    )
    parser.add_argument("input", help="PLA file (.type fr with .trans lines)")
    parser.add_argument("-o", "--output", help="write the minimized cover here")
    parser.add_argument(
        "--exact",
        action="store_true",
        help="run the exact flow (all primes -> dhf-primes -> MINCOV)",
    )
    parser.add_argument(
        "--exact-time-limit",
        type=float,
        default=300.0,
        metavar="S",
        help="wall-clock budget for the exact flow (default 300s)",
    )
    parser.add_argument(
        "--check-existence",
        action="store_true",
        help="only decide whether a hazard-free cover exists (Theorem 4.1)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="verify the result against Theorem 2.11 after minimizing",
    )
    parser.add_argument(
        "--checked",
        action="store_true",
        help="guarded mode: assert the Theorem 2.11 invariants at every "
        "phase boundary and cross-check the coverage engine (slower)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="run the minimizer in an isolated subprocess with this "
        "wall-clock cap; exceeding it exits with code 5",
    )
    parser.add_argument(
        "--bundle-dir",
        metavar="DIR",
        default="artifacts",
        help="directory for failure repro bundles (default: artifacts/)",
    )
    parser.add_argument(
        "--no-essentials",
        action="store_true",
        help="disable essential equivalence-class detection",
    )
    parser.add_argument(
        "--no-last-gasp", action="store_true", help="disable the LAST_GASP step"
    )
    parser.add_argument(
        "--no-make-prime",
        action="store_true",
        help="skip the final MAKE_DHF_PRIME pass",
    )
    parser.add_argument(
        "--pipeline",
        metavar="STAGES",
        help="comma-separated pipeline stage list (essentials,loop,"
        "last_gasp,make_prime); overrides the default stage sequence",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=1,
        help="minimize each output independently on N parallel worker "
        "processes (per-output mode; N=1 keeps the native multi-output "
        "algorithm)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace (chrome://tracing JSON) of the run: "
        "one span per pipeline pass/group/fixed point, worker spans "
        "included in --jobs and --timeout modes; see docs/OBSERVABILITY.md",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print per-phase statistics"
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print a full instance/cover report (sizes, literals, PLA area)",
    )
    parser.add_argument(
        "--simulate",
        type=int,
        metavar="N",
        default=0,
        help="Monte-Carlo check the result with N random delay trials per "
        "specified transition and output",
    )
    return parser


def _heuristic_options(args) -> EspressoHFOptions:
    passes = None
    if args.pipeline:
        from repro.hf.espresso_hf import validate_stages

        stages = tuple(
            s.strip() for s in args.pipeline.split(",") if s.strip()
        )
        try:
            passes = validate_stages(stages)
        except ValueError as exc:
            print(f"error: --pipeline: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return EspressoHFOptions(
        use_essentials=not args.no_essentials,
        use_last_gasp=not args.no_last_gasp,
        make_prime=not args.no_make_prime,
        checked=args.checked,
        jobs=max(1, args.jobs),
        passes=passes,
    )


def _report_failure(outcome, error: str, bundle_path=None) -> int:
    """Print a run's failure to stderr; returns its exit code."""
    if outcome.name == "no_solution":
        print(error, file=sys.stderr)
    elif outcome.name == "crash":
        print(f"error: worker failed:\n{error}", file=sys.stderr)
    else:
        print(f"error: {error}", file=sys.stderr)
    if bundle_path:
        print(f"repro bundle: {bundle_path}", file=sys.stderr)
    return outcome.exit_code


def _report_heuristic(args, result) -> None:
    """Warn on a cover that is not ``ok``; print the ``--stats`` lines."""
    if result.status != "ok":
        print(
            f"warning: run finished with status={result.status} "
            "(the cover is hazard-free but may not be locally "
            "minimal); see docs/FAILURES.md",
            file=sys.stderr,
        )
    if args.stats:
        print(f"# {result.summary()}", file=sys.stderr)
        for phase, seconds in result.phase_seconds.items():
            print(f"# {phase}: {seconds:.2f}s", file=sys.stderr)
        for line in result.counters.summary_lines():
            print(f"# {line}", file=sys.stderr)


def _run_isolated(args, instance, pla_text: str):
    """Minimize in a subprocess under ``--timeout``; returns (cover, row).

    Exits (via SystemExit) with the taxonomy code when the run does not
    produce a cover.
    """
    from repro.guard.runner import cover_from_row, pla_payload, run_one
    from repro.obs import current_tracer

    tracer = current_tracer()
    payload = pla_payload(
        pla_text,
        name=instance.name,
        options=_heuristic_options(args),
        checked=args.checked,
        verify=False,  # verification runs in the parent, on the real cover
        collect_spans=tracer is not None,
    )
    row = run_one(payload, timeout_s=args.timeout, bundle_dir=args.bundle_dir)
    if tracer is not None:
        tracer.adopt(row.get("spans") or [], tid=1)
    status = row["status"]
    outcome = OUTCOMES.get(status, OUTCOMES["crash"])
    if not outcome.cover:
        raise SystemExit(
            _report_failure(outcome, row["error"], row.get("bundle_path"))
        )
    if status != "ok":
        # degraded / budget_exceeded: the cover is still valid — warn only.
        print(f"warning: run finished with status={status}", file=sys.stderr)
    cover = cover_from_row(row)
    if args.stats:
        print(
            f"# {instance.name}: {row['num_cubes']} cubes, "
            f"{row['num_literals']} literals, {row['time_s']:.3f}s "
            f"(isolated run, status={status})",
            file=sys.stderr,
        )
        for phase, seconds in row.get("phase_seconds", {}).items():
            print(f"# {phase}: {seconds:.2f}s", file=sys.stderr)
    return cover, row


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        # Minimization-as-a-service daemon (docs/SERVICE.md).  Dispatched
        # before argparse so the positional-PLA interface stays untouched.
        from repro.serve.daemon import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "detect":
        # Gate-level hazard detection for foreign netlists (docs/DETECTION.md).
        from repro.detect.cli import detect_main

        return detect_main(argv[1:])
    if argv and argv[0] == "transform":
        # Hazard-free u(f) rewrite (docs/DETECTION.md).
        from repro.detect.cli import transform_main

        return transform_main(argv[1:])
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; remap usage
        # errors onto the taxonomy (1 = usage) and pass --help through.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    if not args.trace_out:
        return _run_command(args, tracer=None)

    # --trace-out: run under an active span tracer and export whatever
    # was captured on every exit path — a trace of a failed run is
    # exactly when you want one.
    from repro.obs import Tracer, activate, write_chrome_trace

    tracer = Tracer()
    with activate(tracer):
        code = _run_command(args, tracer=tracer)
    try:
        write_chrome_trace(args.trace_out, tracer)
    except OSError as exc:
        print(f"error: cannot write {args.trace_out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.stats:
        from repro.obs import top_spans_report

        for line in top_spans_report(tracer):
            print(f"# {line}", file=sys.stderr)
    return code


def _run_command(args, tracer) -> int:
    """Parse the instance and execute the selected mode (see :func:`main`)."""
    try:
        pla = read_pla(args.input)
        instance = pla.to_instance()
    except (MalformedInstance, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.check_existence:
        report = existence_report(instance)
        if report.exists:
            print("a hazard-free cover exists")
            return EXIT_OK
        print(NoSolutionError(instance.name, report.failures))
        return EXIT_NO_SOLUTION

    result = None
    try:
        if args.exact:
            result = exact_hazard_free_minimize(
                instance, budget=ExactBudget(time_limit_s=args.exact_time_limit)
            )
            if result.status == "no_solution":
                return _report_failure(OUTCOMES["no_solution"], result.detail)
            cover = result.cover
            if args.stats:
                print(f"# dhf-primes: {result.num_dhf_primes}", file=sys.stderr)
                for phase, seconds in result.phase_seconds.items():
                    print(f"# {phase}: {seconds:.2f}s", file=sys.stderr)
        elif args.timeout:
            from repro.pla.writer import format_pla

            cover, _row = _run_isolated(args, instance, format_pla(instance))
        elif args.jobs > 1:
            from repro.hf.espresso_hf import espresso_hf_per_output

            result = espresso_hf_per_output(instance, _heuristic_options(args))
            cover = result.cover
            _report_heuristic(args, result)
        else:
            from repro.guard.runner import guarded_espresso_hf

            result = guarded_espresso_hf(
                instance,
                _heuristic_options(args),
                bundle_dir=args.bundle_dir if args.checked else None,
            )
            cover = result.cover
            _report_heuristic(args, result)
    except SystemExit as exc:
        return int(exc.code or 0)
    except HFError as exc:
        return _report_failure(
            outcome_of(exc), str(exc), getattr(exc, "bundle_path", None)
        )
    except ExactFailure as exc:
        print(f"exact flow failed (budget): {exc}", file=sys.stderr)
        return EXIT_TIMEOUT

    if args.verify:
        violations = verify_hazard_free_cover(instance, cover)
        if violations:
            print("VERIFICATION FAILED:", file=sys.stderr)
            for v in violations:
                print(f"   {v}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        print("# verified hazard-free (Theorem 2.11)", file=sys.stderr)

    if args.report:
        from repro.report import minimization_report

        counters = getattr(result, "counters", None)
        status = getattr(result, "status", "ok")
        print(
            minimization_report(
                instance,
                cover,
                counters=counters,
                status=status,
                phase_seconds=getattr(result, "phase_seconds", None),
            ),
            file=sys.stderr,
        )

    if args.simulate > 0:
        from repro.detect.netlist import Netlist
        from repro.simulate import find_glitch

        glitches = 0
        network = Netlist.from_cover(cover)
        for j in range(instance.n_outputs):
            for t in instance.transitions:
                if find_glitch(network, t, trials=args.simulate, output=j) is not None:
                    glitches += 1
                    print(
                        f"GLITCH: output {j} on transition {t}", file=sys.stderr
                    )
        if glitches:
            return EXIT_VERIFY_FAILED
        print(
            f"# simulation clean ({args.simulate} delay trials per "
            "transition/output)",
            file=sys.stderr,
        )

    text = format_cover(cover, pla_type="f", name=f"{instance.name} minimized")
    if args.output:
        write_pla(cover, args.output, pla_type="f", name=f"{instance.name} minimized")
    else:
        print(text, end="")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
