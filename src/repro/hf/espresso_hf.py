"""The Espresso-HF driver (paper Figure 2), as a declarative pass pipeline.

::

    Espresso-HF(f, T):
        Q  = required cubes, P = privileged cubes, R = OFF-set
        Qf = { supercube_dhf(q) | q in Q }        # dhf-canonicalization
        if undefined in Qf: no solution            # Theorem 4.1
        Qf = SCC-minimize(Qf)
        F  = Qf
        (F, E) = expand_and_compute_essentials(F)
        remove required cubes covered by E; F = F - E
        F = irredundant(F)
        do: s2 = |F|
            do: s1 = |F|
                F = reduce(F); F = expand(F); F = irredundant(F)
            while |F| < s1
            F = last_gasp(F)
        while |F| < s2
        F = F ∪ E
        F = make_dhf_prime(F)

The algorithm is expressed as a pipeline spec executed by
:class:`repro.pipeline.PassManager`::

    canonicalize → essentials → [reduce, expand, irredundant]* →
    last_gasp → make_prime → final_irredundant

The manager times every pass once into ``phase_seconds`` — the only
pipeline clock; the operators carry no timers of their own — and applies
every other cross-cutting concern through its hook stack:
:class:`~repro.guard.budget.RunBudget` iteration charging, best-verified
snapshot capture, checked-mode :func:`~repro.guard.invariants.check_phase`
checkpoints, and trace emission.  None of it is hand-threaded through the
driver.  :func:`build_hf_pipeline` builds the spec from the options;
``EspressoHFOptions.passes`` (CLI ``--pipeline``) skips or reorders the
optional stages.

The minimizer is heuristic *only in cover cardinality*: the result is
always a hazard-free cover.  The guarded runtime (:mod:`repro.guard`)
enforces that contract operationally:

* a :class:`~repro.guard.budget.RunBudget` on the options bounds the run;
  once the canonical cover exists, budget exhaustion returns the best
  phase-boundary snapshot with ``status="budget_exceeded"`` instead of
  hanging or raising — every snapshot is a valid hazard-free cover by
  construction (the canonical cubes cover everything, and every pass
  preserves coverage and dhf-implicant validity);
* ``checked=True`` asserts the Theorem 2.11 conditions at every phase
  boundary and cross-checks the coverage-bitset engine against the scalar
  predicate, falling back to the scalar path on divergence
  (:mod:`repro.guard.invariants`);
* an outer loop that stops on ``max_outer_iterations`` without converging
  reports ``status="degraded"`` instead of posing as converged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.guard.budget import RunBudget
from repro.guard.errors import (
    OUTCOMES,
    InvariantViolation,
    NoSolutionError,
    status_rank,
)
from repro.guard.invariants import check_final
from repro.hazards.instance import HazardFreeInstance
from repro.hf.context import HFContext, TaggedRequired
from repro.hf.essentials import EssentialsPass
from repro.hf.expand import ExpandPass
from repro.hf.irredundant import IrredundantPass
from repro.hf.lastgasp import LastGaspPass
from repro.hf.make_prime import MakePrimePass
from repro.hf.reduce_ import ReducePass
from repro.hf.result import HFResult
from repro.obs import ObsHook, current_tracer
from repro.perf import PerfCounters
from repro.pipeline import (
    FixedPoint,
    Group,
    PassManager,
    PipelineState,
    Step,
)
from repro.pipeline.manager import default_hooks

#: stage names ``EspressoHFOptions.passes`` / CLI ``--pipeline`` accepts
HF_STAGES = ("essentials", "loop", "last_gasp", "make_prime")

#: the paper's Figure 2 stage order
DEFAULT_HF_STAGES = ("essentials", "loop", "make_prime")


@dataclass
class EspressoHFOptions:
    """Tuning knobs for Espresso-HF.

    ``exact_irredundant`` selects MINCOV's branch-and-bound inside
    IRREDUNDANT (the paper notes either mode works; the tables are small
    because rows are required cubes, not minterms).  ``make_prime`` controls
    the final MAKE_DHF_PRIME pass.

    ``passes`` overrides the default pipeline stage sequence (see
    :data:`HF_STAGES`; ``None`` = the paper's default).  Stages may be
    omitted or reordered; ``make_prime``, when present, must come last.

    ``jobs`` sets the worker-process count for
    :func:`espresso_hf_per_output`: with ``jobs > 1`` the independent
    per-output sub-runs execute in parallel on the guard runner's worker
    pool.  Plain :func:`espresso_hf` is natively multi-output and ignores
    it.

    ``budget`` attaches a :class:`~repro.guard.budget.RunBudget`; the run
    then degrades gracefully (``HFResult.status``) instead of running
    unbounded.  ``checked`` turns on phase-boundary invariant checkpoints
    and the scalar-vs-bitset coverage cross-check — slower, but every
    intermediate cover is machine-checked.  ``coverage_fault_hook`` is a
    fault injector for the coverage engine ((inbits, outbits, mask) ->
    mask), used to validate that checked mode catches engine bugs; never
    set it in production.

    ``pass_decorator`` routes every pipeline pass through a wrapper
    (``Pass -> Pass``, applied via :func:`repro.pipeline.map_passes`).
    It exists for the property-based testing toolkit — the
    :mod:`repro.proptest.faults` defect injector substitutes deliberately
    broken phase operators through it to prove the oracles catch them —
    and, like ``coverage_fault_hook``, must never be set in production.
    """

    use_essentials: bool = True
    use_last_gasp: bool = True
    make_prime: bool = True
    exact_irredundant: bool = True
    irredundant_node_limit: Optional[int] = 200_000
    max_outer_iterations: int = 20
    jobs: int = 1
    passes: Optional[Tuple[str, ...]] = None
    budget: Optional[RunBudget] = None
    checked: bool = False
    coverage_fault_hook: Optional[Callable[[int, int, int], int]] = None
    pass_decorator: Optional[Callable] = None


# ----------------------------------------------------------------------
# Pipeline state and the driver-level passes
# ----------------------------------------------------------------------


class HFState(PipelineState):
    """Pipeline state of one Espresso-HF run.

    ``f`` is the working cover, ``essentials`` the pending essential-class
    representatives not yet merged back into ``f`` (the merge is itself a
    pass), ``essential_classes`` the computed classes as reported on
    :class:`~repro.hf.result.HFResult` regardless of later degradation.
    ``trace`` aliases ``HFContext.trace`` so pass-boundary lines and guard
    events (scalar fallback, budget exhaustion) interleave in execution
    order.
    """

    def __init__(
        self,
        instance: HazardFreeInstance,
        options: EspressoHFOptions,
        ctx: HFContext,
    ):
        super().__init__()
        self.instance = instance
        self.options = options
        self.ctx = ctx
        self.trace = ctx.trace
        self.qf: List[TaggedRequired] = []
        self.remaining: List[TaggedRequired] = []
        self.f: List[Cube] = []
        self.essentials: List[Cube] = []
        self.essential_classes: List[Cube] = []
        self.num_required = 0

    def snapshot_cubes(self) -> List[Cube]:
        return list(self.f) + list(self.essentials)

    def cover_size(self) -> int:
        return len(self.f) + len(self.essentials)

    def measure(self) -> int:
        return len(self.f)

    def on_budget_exceeded(self, exc) -> None:
        self.f = list(self.best)
        self.essentials = []


class CanonicalizePass:
    """dhf-canonicalization (paper §3.2): build ``Q_f`` and the seed cover.

    :meth:`HFContext.canonical_required` raises :class:`NoSolutionError`
    when some required cube has no dhf-supercube (Theorem 4.1).  An
    instance with no required cubes stops the pipeline with an empty
    cover.  On success the canonical cubes form the first valid
    hazard-free cover, so the snapshot hook arms budget degradation from
    here on.
    """

    name = "canonicalize"

    def run(self, state: HFState):
        ctx = state.ctx
        instance = state.instance
        state.num_required = len(instance.required_cubes())
        qf = ctx.canonical_required()
        state.qf = qf
        state.remaining = list(qf)
        state.f = [ctx.cube_for(q) for q in qf]
        if not qf:
            state.stop = True
            state.stopped_early = True
        return state


class MergeEssentialsPass:
    """``F = F ∪ E``: fold the pending essentials back into the cover."""

    name = "merge_essentials"

    def run(self, state: HFState):
        state.f = list(state.f) + list(state.essentials)
        state.essentials = []
        return state


# ----------------------------------------------------------------------
# The declarative pipeline spec
# ----------------------------------------------------------------------


def _remaining(state: HFState) -> Sequence[TaggedRequired]:
    return state.remaining


def _qf(state: HFState) -> Sequence[TaggedRequired]:
    return state.qf


def _have_cover(state: HFState) -> bool:
    return bool(state.f)


def validate_stages(stages: Sequence[str]) -> Tuple[str, ...]:
    """Check a ``--pipeline`` stage sequence; returns it as a tuple.

    Stage names must come from :data:`HF_STAGES`, appear at most once, and
    ``make_prime`` (which re-establishes dhf-primeness over the *full*
    canonical required set) must be last when present.
    """
    stages = tuple(stages)
    unknown = [s for s in stages if s not in HF_STAGES]
    if unknown:
        raise ValueError(
            f"unknown pipeline stage(s) {', '.join(unknown)}; "
            f"valid stages: {', '.join(HF_STAGES)}"
        )
    if len(set(stages)) != len(stages):
        raise ValueError("pipeline stages may appear at most once")
    if "make_prime" in stages and stages[-1] != "make_prime":
        raise ValueError("the make_prime stage must be last")
    return stages


def _loop_stage(options: EspressoHFOptions) -> Group:
    """The minimization loop: initial EXPAND/IRREDUNDANT, then the nested
    fixed points — ``[reduce, expand, irredundant]*`` charged per round,
    LAST_GASP per outer round, outer convergence tracked for the
    ``degraded`` status."""
    inner = FixedPoint(
        "loop",
        body=(
            Step(ReducePass(), check_reqs=_remaining),
            Step(ExpandPass(), check_reqs=_remaining),
            Step(IrredundantPass(), check_reqs=_remaining),
        ),
        charge=True,
    )
    outer = FixedPoint(
        "outer",
        body=(
            inner,
            Step(
                LastGaspPass(),
                check_reqs=_remaining,
                enabled=lambda s: s.options.use_last_gasp,
            ),
        ),
        max_rounds=options.max_outer_iterations,
        track_convergence=True,
        exhausted_message=(
            "outer loop stopped by max_outer_iterations="
            f"{options.max_outer_iterations} before converging"
        ),
    )
    return Group(
        "minimize",
        enabled=_have_cover,
        body=(
            Step(ExpandPass(), check_reqs=_remaining),
            Step(IrredundantPass(), check_reqs=_remaining),
            outer,
        ),
    )


def build_hf_pipeline(options: EspressoHFOptions) -> Tuple:
    """Build the Espresso-HF pipeline spec from the options.

    The default is the paper's Figure 2 sequence; ``options.passes``
    substitutes an explicit stage order (see :func:`validate_stages`).
    Canonicalization always runs first and the pending essentials are
    always merged back before MAKE_DHF_PRIME / the end of the pipeline,
    whatever the stage selection.
    """
    if options.passes is not None:
        stages = validate_stages(options.passes)
    else:
        stages = tuple(
            s
            for s in DEFAULT_HF_STAGES
            if s != "make_prime" or options.make_prime
        )
    steps: List = [Step(CanonicalizePass(), check=False)]
    for stage in stages:
        if stage == "essentials":
            steps.append(
                Step(
                    EssentialsPass(),
                    check_cubes=lambda s: list(s.f) + list(s.essentials),
                    check_reqs=_qf,
                )
            )
        elif stage == "loop":
            steps.append(_loop_stage(options))
        elif stage == "last_gasp":
            steps.append(
                Step(LastGaspPass(), check_reqs=_remaining, enabled=_have_cover)
            )
    steps.append(Step(MergeEssentialsPass(), record=False, check=False))
    if "make_prime" in stages:
        # Expansion to dhf-primes can (rarely) make another cube redundant;
        # the final required-cube IRREDUNDANT pass over the full canonical
        # set restores irredundancy and can only shrink the cover.
        steps.append(Step(MakePrimePass(), check_reqs=_qf))
        steps.append(Step(IrredundantPass(final=True), check_reqs=_qf))
    if options.pass_decorator is not None:
        from repro.pipeline import map_passes

        return map_passes(steps, options.pass_decorator)
    return tuple(steps)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


def espresso_hf(
    instance: HazardFreeInstance,
    options: Optional[EspressoHFOptions] = None,
) -> HFResult:
    """Minimize a hazard-free instance heuristically (the paper's algorithm).

    Raises :class:`NoSolutionError` when no hazard-free cover exists.  With
    a budget on the options, :class:`~repro.guard.errors.BudgetExceeded`
    can only escape while the canonical cover is still being computed
    (before any valid cover exists); afterwards exhaustion is reported via
    ``HFResult.status``.
    """
    options = options or EspressoHFOptions()
    t_start = time.perf_counter()

    ctx = HFContext(instance, budget=options.budget, checked=options.checked)
    if options.coverage_fault_hook is not None:
        ctx.coverage.fault_hook = options.coverage_fault_hook

    state = HFState(instance, options, ctx)
    tracer = current_tracer()
    if tracer is None:
        PassManager().run(build_hf_pipeline(options), state)
    else:
        # Span tracing is active: the ObsHook leads the stack so pass
        # spans close before the (potentially slow) checked-mode
        # invariant hook runs, and a root span brackets the whole run.
        manager = PassManager([ObsHook(tracer)] + default_hooks())
        root = tracer.start(
            f"run:{instance.name}",
            n_inputs=instance.n_inputs,
            n_outputs=instance.n_outputs,
        )
        try:
            manager.run(build_hf_pipeline(options), state)
        finally:
            tracer.unwind(
                root, status=state.status, cover_size=state.cover_size()
            )

    cover = Cover(ctx.n_inputs, (), ctx.n_outputs)
    seen = set()
    for c in list(state.f) + list(state.essentials):
        key = (c.inbits, c.outbits)
        if key not in seen:
            seen.add(key)
            cover.append(c)
    if options.checked and not state.stopped_early:
        check_final(ctx, instance, cover)
    return HFResult(
        cover=cover,
        essentials=state.essential_classes,
        num_required=state.num_required,
        num_canonical_required=len(state.qf),
        iterations=state.iterations,
        runtime_s=time.perf_counter() - t_start,
        phase_seconds=state.phase_seconds,
        counters=ctx.perf,
        status=state.status,
        trace=list(state.trace),
    )


def espresso_hf_per_output(
    instance: HazardFreeInstance, options: Optional[EspressoHFOptions] = None
) -> HFResult:
    """Single-output mode: minimize every output independently.

    The paper's algorithm is natively multi-output (one cube may serve
    several outputs); this mode runs it once per output and merges cubes
    with identical input parts afterwards.  It is the right choice when
    outputs are implemented as separate PLAs, and it serves as the baseline
    for measuring the benefit of multi-output sharing
    (``benchmarks/test_output_sharing.py``).

    With ``options.jobs > 1`` the independent sub-runs execute in parallel
    worker processes on the guard runner
    (:func:`repro.guard.runner.run_pool`); results merge identically to
    the serial sweep.  A budget then applies *per worker* (each process
    rebuilds the budget from its configuration; a wall-clock cap bounds
    each concurrently-running sub-run).  In serial mode a budget on the
    options is shared statefully across the per-output sub-runs — one
    deadline for the whole call.  Either way the merged result's
    ``status`` is the worst of the sub-run statuses.
    """
    options = options or EspressoHFOptions()
    t_start = time.perf_counter()
    jobs = max(1, int(options.jobs or 1))
    tracer = current_tracer()
    root = None
    if tracer is not None:
        # One sweep-level span; serial sub-runs nest their own run spans
        # under it, parallel workers' spans are adopted under it below.
        root = tracer.start(
            f"per_output:{instance.name}",
            n_outputs=instance.n_outputs,
            jobs=jobs,
        )
    try:
        if jobs > 1 and instance.n_outputs > 1:
            results = _per_output_results_parallel(instance, options, jobs)
        else:
            results = [
                _output_run(instance, j, options)
                for j in range(instance.n_outputs)
            ]
    finally:
        if tracer is not None:
            tracer.unwind(root)
    return merge_output_results(instance, results, t_start=t_start)


def _no_solution_in_output(
    instance: HazardFreeInstance, j: int, failures
) -> NoSolutionError:
    """A restricted sub-run's Theorem 4.1 failure, named in ``instance``'s
    terms: its name, and output ``j`` instead of the restriction's 0."""
    return NoSolutionError(
        instance.name, [replace(q, output=j) for q in failures]
    )


def _output_run(
    instance: HazardFreeInstance, j: int, options: EspressoHFOptions
) -> HFResult:
    """One serial per-output sub-run."""
    try:
        return espresso_hf(instance.restrict_to_output(j), options)
    except NoSolutionError as exc:
        raise _no_solution_in_output(instance, j, exc.failures) from None


def merge_output_results(
    instance: HazardFreeInstance,
    results: Sequence[HFResult],
    t_start: Optional[float] = None,
) -> HFResult:
    """Merge per-output sub-run results into one multi-output result.

    Cubes with identical input parts are merged across outputs; statuses
    merge worst-of (``ok`` < ``degraded`` < ``budget_exceeded``); counters,
    phase timings, iteration counts, and problem sizes are summed; trace
    lines are prefixed with their output index.  Used by both the serial
    and the parallel per-output sweep, so the two modes are
    merge-identical by construction.
    """
    merged = {}
    essentials: List[Cube] = []
    num_required = 0
    num_canonical = 0
    iterations = 0
    phases: dict = {}
    counters = PerfCounters()
    status = "ok"
    trace: List[str] = []
    for j, result in enumerate(results):
        num_required += result.num_required
        num_canonical += result.num_canonical_required
        iterations += result.iterations
        for phase, seconds in result.phase_seconds.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        counters.merge(result.counters)
        if status_rank(result.status) > status_rank(status):
            status = result.status
        trace.extend(f"out{j}/{line}" for line in result.trace)
        essentials.extend(
            Cube(instance.n_inputs, e.inbits, 1 << j, instance.n_outputs)
            for e in result.essentials
        )
        for c in result.cover:
            merged[c.inbits] = merged.get(c.inbits, 0) | (1 << j)
    cover = Cover(instance.n_inputs, (), instance.n_outputs)
    for inbits, outbits in sorted(merged.items()):
        cover.append(Cube(instance.n_inputs, inbits, outbits, instance.n_outputs))
    runtime = time.perf_counter() - t_start if t_start is not None else 0.0
    return HFResult(
        cover=cover,
        essentials=essentials,
        num_required=num_required,
        num_canonical_required=num_canonical,
        iterations=iterations,
        runtime_s=runtime,
        phase_seconds=phases,
        counters=counters,
        status=status,
        trace=trace,
    )


def _per_output_results_parallel(
    instance: HazardFreeInstance, options: EspressoHFOptions, jobs: int
) -> List[HFResult]:
    """Run the per-output sub-runs on the guard runner's worker pool.

    With a tracer active, each worker collects its own spans and ships
    them back on its row; they are adopted into the parent trace here —
    exactly once per worker, laned by output index (``tid``).
    """
    from repro.guard.runner import per_output_payload, run_pool
    from repro.pla.writer import format_pla

    tracer = current_tracer()
    pla_text = format_pla(instance)
    payloads = [
        per_output_payload(
            pla_text,
            instance.name,
            j,
            options,
            collect_spans=tracer is not None,
        )
        for j in range(instance.n_outputs)
    ]
    rows = run_pool(payloads, jobs=jobs)
    if tracer is not None:
        for j, row in enumerate(rows):
            tracer.adopt(row.get("spans") or [], tid=j + 1)
    return [_result_from_row(instance, j, row) for j, row in enumerate(rows)]


def _result_from_row(
    instance: HazardFreeInstance, j: int, row: dict
) -> HFResult:
    """Rebuild output ``j``'s sub-run :class:`HFResult` from a runner row.

    Failure rows re-raise the same exception the serial sweep would have
    propagated, so the two modes are behaviour-identical at the call site;
    a ``no_solution`` row's error is rebuilt from its failing cubes.
    """
    status = row["status"]
    outcome = OUTCOMES.get(status, OUTCOMES["crash"])
    if outcome.exc is NoSolutionError:
        from repro.hazards.existence import failures_from_rows

        raise _no_solution_in_output(
            instance, j, failures_from_rows(row.get("failures") or [])
        )
    if not outcome.cover:
        error = row.get("error") or row.get("name", "per-output")
        if outcome.exc is None:
            raise RuntimeError(f"per-output worker failed ({status}): {error}")
        if outcome.exc is InvariantViolation:
            raise InvariantViolation("final", [error])
        raise outcome.exc(error)
    from repro.guard.runner import cover_from_row

    n = instance.n_inputs
    return HFResult(
        cover=cover_from_row(row),
        essentials=[Cube(n, b, 1, 1) for b in row["essentials_inbits"]],
        num_required=row["num_required"],
        num_canonical_required=row["num_canonical_required"],
        iterations=row["iterations"],
        runtime_s=row.get("time_s", 0.0),
        phase_seconds=dict(row.get("phase_seconds", {})),
        counters=PerfCounters.from_dict(row.get("counters", {})),
        status=status,
        trace=list(row.get("trace", [])),
    )
