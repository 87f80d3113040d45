"""Phase-boundary invariant checkpoints (checked mode).

Espresso-HF's contract is that the result is heuristic *only in cover
cardinality* — the cover itself must always satisfy the three Theorem 2.11
conditions.  Hazard verification is intractable in general (Ikenmeyer et
al.), so the only trustworthy run is a machine-checked one: with
``EspressoHFOptions(checked=True)`` the driver calls
:func:`check_phase` after every operator (EXPAND, IRREDUNDANT, REDUCE,
LAST_GASP, ESSENTIALS, MAKE_PRIME) and :func:`check_final` on the finished
cover.

``check_phase`` is a *fast incremental* check on the bitset engine:

1. **Cross-check** — every cover cube's coverage mask from the bitset
   engine (:class:`repro.hf.coverage.CoverageIndex`) is recomputed with the
   scalar per-pair containment predicate.  A divergence means the engine
   (or its caches) is wrong; the context falls back to the scalar coverage
   path for the rest of the run and the event lands in
   :class:`repro.perf.PerfCounters` — the run *continues correctly* on the
   slow path instead of silently producing a wrong cover.
2. **Validity** — every cube must be a dhf-implicant of each output it
   drives (conditions (a)+(c) of Theorem 2.11, via
   :meth:`HFContext.is_dhf_implicant`), and the cover plus essentials must
   contain every canonical required cube (condition (b), one OR/AND over
   the scalar masks).

A validity failure is an implementation bug and raises
:class:`~repro.guard.errors.InvariantViolation`; the guarded wrapper
(:mod:`repro.guard.runner`) serializes and shrinks a repro bundle for it.

``check_final`` re-verifies the finished cover with the full
:func:`repro.hazards.verify.verify_hazard_free_cover` oracle — the slow,
engine-independent ground truth over the *original* (non-canonical)
required cubes.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.guard.errors import InvariantViolation
from repro.hazards.verify import verify_hazard_free_cover
from repro.pipeline.hooks import Hook


def scalar_coverage_mask(cube, reqs: Sequence, positions: Sequence[int]) -> int:
    """Ground-truth coverage mask of one cover cube, computed per pair.

    Independent of the coverage engine and all of its caches: bit
    ``positions[i]`` is set iff ``cube`` has ``reqs[i]``'s output and its
    input part contains the canonical input part.
    """
    mask = 0
    inbits = cube.inbits
    outbits = cube.outbits
    for q, pos in zip(reqs, positions):
        if (outbits >> q.output) & 1:
            q_in = q.canonical.inbits
            if q_in & inbits == q_in:
                mask |= 1 << pos
    return mask


def check_phase(ctx, phase: str, cubes: Sequence, reqs: Sequence) -> None:
    """Assert the Theorem 2.11 conditions after one operator.

    ``cubes`` must cover every canonical required cube in ``reqs``.
    Cross-check divergences trigger the scalar fallback and are recorded;
    genuine violations raise :class:`InvariantViolation`.
    """
    perf = ctx.perf
    perf.invariant_checks += 1
    cov = ctx.coverage
    positions = cov.positions(reqs)
    sel = cov.selection_mask(reqs)
    all_cubes = list(cubes)

    # 1. scalar-vs-bitset cross-check (and coverage accumulation).
    covered = 0
    diverged = False
    for c in all_cubes:
        engine_mask = cov.covered_bits(c.inbits, c.outbits) & sel
        scalar_mask = scalar_coverage_mask(c, reqs, positions) & sel
        if engine_mask != scalar_mask:
            diverged = True
            perf.crosscheck_divergences += 1
        covered |= scalar_mask
    if diverged:
        ctx.activate_scalar_fallback(phase)
        # Re-derive the engine masks on the scalar path; a divergence that
        # survives the fallback is a real invariant problem, not a cache bug.
        for c in all_cubes:
            engine_mask = cov.covered_bits(c.inbits, c.outbits) & sel
            scalar_mask = scalar_coverage_mask(c, reqs, positions) & sel
            if engine_mask != scalar_mask:
                raise InvariantViolation(
                    phase,
                    [
                        "coverage cross-check divergence survives scalar "
                        f"fallback for cube {c.input_string()}"
                    ],
                )

    violations: List[str] = []
    # 2a. every cube a dhf-implicant of its outputs ((a) + (c)).
    for c in cubes:
        if c.outbits and not ctx.is_dhf_implicant(c, c.outbits):
            violations.append(
                f"cube {c.input_string()} is not a dhf-implicant of its "
                f"output set {c.outbits:#x}"
            )
    # 2b. required-cube containment ((b)).
    missing = sel & ~covered
    if missing:
        for q, pos in zip(reqs, positions):
            if (missing >> pos) & 1:
                violations.append(f"required cube {q} uncovered")
                if len(violations) >= 8:
                    break
    if violations:
        raise InvariantViolation(phase, violations)


def check_final(ctx, instance, cover, phase: str = "final") -> None:
    """Full Theorem 2.11 oracle over the finished cover (checked mode)."""
    ctx.perf.invariant_checks += 1
    failures = verify_hazard_free_cover(instance, cover, collect_all=False)
    if failures:
        raise InvariantViolation(phase, [str(v) for v in failures])


class InvariantCheckHook(Hook):
    """Pipeline hook running :func:`check_phase` after each checked pass.

    Active only when the state carries a checked-mode context
    (``state.ctx.checked``).  The step spec supplies what to verify:
    ``check_cubes(state)`` for the cover cubes (default ``state.f``) and
    ``check_reqs(state)`` for the required cubes they must keep covering —
    a step without ``check_reqs`` is skipped, since the Theorem 2.11
    conditions are only meaningful against a required-cube set.  See
    :mod:`repro.pipeline.hooks` for the hook protocol.
    """

    def pass_finished(self, step, state, seconds: float) -> None:
        ctx = state.ctx
        if ctx is None or not getattr(ctx, "checked", False) or not step.check:
            return
        reqs = step.check_reqs(state) if step.check_reqs is not None else None
        if reqs is None:
            return
        cubes = (
            step.check_cubes(state) if step.check_cubes is not None else state.f
        )
        check_phase(ctx, step.name, cubes, reqs)
