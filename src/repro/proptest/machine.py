"""Stateful pipeline testing: drive the PassManager pass-by-pass.

The declarative pipeline (:mod:`repro.pipeline`) makes every legal pass
order *expressible* — so this machine explores orders the shipping driver
never runs.  A :class:`~hypothesis.stateful.RuleBasedStateMachine` holds
one in-flight :class:`~repro.hf.espresso_hf.HFState` and fires passes as
rules: any interleaving of REDUCE / EXPAND / IRREDUNDANT / LAST_GASP, the
essentials split at an arbitrary point, finalization (merge + MAKE_PRIME +
final IRREDUNDANT) whenever Hypothesis feels like it.

What must hold regardless of order — checked after every rule via
:func:`repro.guard.invariants.check_phase` — is the algorithm's core
safety argument: every operator preserves the Theorem 2.11 conditions, so
*every* reachable intermediate cover is a valid hazard-free cover of the
pending required cubes.  Finalization then asserts the independent
:func:`~repro.hazards.verify.verify_hazard_free_cover` oracle on the
result.

Separate whole-run rules assert the driver-level contracts on the same
instance: budget exhaustion mid-sweep degrades to a *valid* snapshot
cover (never a broken one), checked and unchecked runs return byte-equal
covers, and the serial and parallel per-output sweeps are
merge-identical.  ``tests/test_pipeline_machine.py`` instantiates the
machine's ``TestCase``.
"""

from __future__ import annotations

from repro.cubes.cover import Cover
from repro.guard.budget import RunBudget
from repro.guard.errors import OUTCOMES, BudgetExceeded
from repro.guard.invariants import check_phase
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf.context import HFContext
from repro.hf.espresso_hf import (
    CanonicalizePass,
    EspressoHFOptions,
    HFState,
    MergeEssentialsPass,
    espresso_hf,
    espresso_hf_per_output,
)
from repro.hf.essentials import EssentialsPass
from repro.hf.expand import ExpandPass
from repro.hf.irredundant import IrredundantPass
from repro.hf.lastgasp import LastGaspPass
from repro.hf.make_prime import MakePrimePass
from repro.hf.reduce_ import ReducePass
from repro.pipeline import PassManager, Step
from repro.proptest.strategies import InstanceConfig

try:
    from hypothesis import strategies as st
    from hypothesis.stateful import (
        RuleBasedStateMachine,
        initialize,
        invariant,
        precondition,
        rule,
    )

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

#: machine instances stay small: every rule re-runs whole passes, and the
#: whole-run rules re-minimize the instance from scratch
MACHINE_CONFIG = InstanceConfig(
    min_inputs=2,
    max_inputs=4,
    min_outputs=1,
    max_outputs=2,
    max_on_cubes=5,
    max_transitions=3,
)


def _dedup_cover(state: HFState) -> Cover:
    """The driver's result assembly: dedup ``f`` + pending essentials."""
    cover = Cover(state.ctx.n_inputs, (), state.ctx.n_outputs)
    seen = set()
    for c in list(state.f) + list(state.essentials):
        key = (c.inbits, c.outbits)
        if key not in seen:
            seen.add(key)
            cover.append(c)
    return cover


if HAVE_HYPOTHESIS:
    from repro.proptest.strategies import solvable_instances

    class HFPipelineMachine(RuleBasedStateMachine):
        """Arbitrary legal pass orders on one solvable instance."""

        def __init__(self):
            super().__init__()
            self.manager = PassManager()
            self.state = None
            self.ctx = None
            self.instance = None
            self.finalized = False
            self.did_essentials = False
            self.did_parallel = False
            self.did_checked_diff = False

        # -- setup ------------------------------------------------------

        @initialize(inst=solvable_instances(MACHINE_CONFIG))
        def setup(self, inst):
            self.instance = inst
            options = EspressoHFOptions(checked=True)
            self.ctx = HFContext(inst, checked=True)
            self.state = HFState(inst, options, self.ctx)
            self.manager.run([Step(CanonicalizePass(), check=False)], self.state)

        # -- pass rules (any interleaving) ------------------------------

        def _active(self) -> bool:
            return (
                self.state is not None
                and not self.state.stop
                and not self.finalized
            )

        def _step(self, pass_) -> None:
            self.manager.run(
                [Step(pass_, check_reqs=lambda s: s.remaining)], self.state
            )

        @precondition(lambda self: self._active())
        @rule()
        def expand(self):
            self._step(ExpandPass())

        @precondition(lambda self: self._active())
        @rule()
        def reduce(self):
            self._step(ReducePass())

        @precondition(lambda self: self._active())
        @rule()
        def irredundant(self):
            self._step(IrredundantPass())

        @precondition(lambda self: self._active())
        @rule()
        def last_gasp(self):
            self._step(LastGaspPass())

        @precondition(lambda self: self._active() and not self.did_essentials)
        @rule()
        def essentials(self):
            self.did_essentials = True
            self.manager.run(
                [
                    Step(
                        EssentialsPass(),
                        check_cubes=lambda s: list(s.f) + list(s.essentials),
                        check_reqs=lambda s: s.qf,
                    )
                ],
                self.state,
            )

        @precondition(lambda self: self._active())
        @rule()
        def finalize(self):
            """Merge essentials, make dhf-prime, final irredundant — then the
            independent Theorem 2.11 oracle must accept the cover."""
            self.finalized = True
            self.manager.run(
                [
                    Step(MergeEssentialsPass(), record=False, check=False),
                    Step(MakePrimePass(), check_reqs=lambda s: s.qf),
                    Step(IrredundantPass(final=True), check_reqs=lambda s: s.qf),
                ],
                self.state,
            )
            violations = verify_hazard_free_cover(
                self.instance, _dedup_cover(self.state), collect_all=True
            )
            assert not violations, violations[:3]

        # -- whole-run rules (driver contracts on the same instance) ----

        @precondition(lambda self: self.instance is not None)
        @rule(cap=st.integers(min_value=1, max_value=40))
        def budget_exhaustion_mid_sweep(self, cap):
            """A run cut off after ``cap`` checkpoints must still return a
            valid hazard-free cover (the best snapshot), never garbage."""
            options = EspressoHFOptions(
                checked=True, budget=RunBudget(max_checkpoints=cap)
            )
            try:
                result = espresso_hf(self.instance, options)
            except BudgetExceeded:
                return  # exhausted before any valid cover existed: legal
            assert OUTCOMES[result.status].cover
            assert not verify_hazard_free_cover(self.instance, result.cover)

        @precondition(lambda self: self.instance is not None and not self.did_checked_diff)
        @rule()
        def checked_matches_unchecked(self):
            """Checked mode observes; it must not steer the result."""
            self.did_checked_diff = True
            plain = espresso_hf(self.instance, EspressoHFOptions(checked=False))
            checked = espresso_hf(self.instance, EspressoHFOptions(checked=True))
            assert plain.cover.key() == checked.cover.key()

        @precondition(
            lambda self: self.instance is not None
            and self.instance.n_outputs > 1
            and not self.did_parallel
        )
        @rule()
        def serial_parallel_identical(self):
            """``--jobs`` parallelism must be invisible in the cover."""
            self.did_parallel = True
            serial = espresso_hf_per_output(
                self.instance, EspressoHFOptions(jobs=1)
            )
            parallel = espresso_hf_per_output(
                self.instance, EspressoHFOptions(jobs=2)
            )
            assert serial.cover.key() == parallel.cover.key()
            assert serial.status == parallel.status

        # -- the standing invariant -------------------------------------

        @invariant()
        def theorem_2_11_holds(self):
            """Every reachable intermediate state is a valid cover of the
            pending required cubes (conditions (a)-(c) via check_phase)."""
            if self.state is None or self.state.stop or not self.state.qf:
                return
            reqs = self.state.qf if self.finalized else self.state.remaining
            check_phase(
                self.ctx,
                "machine",
                list(self.state.f) + list(self.state.essentials),
                reqs,
            )

else:  # pragma: no cover - exercised only without hypothesis

    class HFPipelineMachine:  # type: ignore[no-redef]
        def __init__(self, *_args, **_kwargs):
            raise RuntimeError(
                "HFPipelineMachine requires the 'hypothesis' package"
            )
