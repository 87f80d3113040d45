"""Test-only fault injection: the ``inject`` payload seam.

A work-item payload may carry an ``inject`` dict that makes the worker
misbehave on purpose — the fault-injection suites for the isolated
runners and the serve daemon are built on it (docs/SERVICE.md "Fault
injection").  Both worker bodies (:func:`repro.guard.runner.minimize_payload`
and :func:`repro.corpus.differential.run_differential_payload`) apply it.
Supported keys:

``kill``              kill this worker with SIGKILL, unconditionally
``kill_attempts``     list of attempt numbers (``payload["attempt"]``,
                      maintained by the retrying supervisor) to kill on —
                      attempt 0 killed / attempt 1 clean models a
                      transient crash that a retry survives
``kill_prob`` +       probabilistic kill, derandomized per
``seed``              (seed, name, attempt) so replays are deterministic
``sleep_s``           sleep before minimizing (forces the parent timeout)
``defect``            install one :data:`repro.proptest.faults.DEFECTS`
                      corruption through the ``pass_decorator`` seam
``raise``             raise from the first pipeline pass via the same
                      seam: ``"malformed"`` -> MalformedInstance,
                      anything else -> RuntimeError

Kills are honoured only inside a worker process (never in MainProcess),
so an accidental ``inject`` on an in-process call cannot take down the
caller.  The serve daemon forwards ``inject`` only when started with
``--allow-test-faults``.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Dict

from repro.guard.errors import MalformedInstance


def apply_preflight_faults(inject: Dict[str, Any], payload: Dict[str, Any]) -> None:
    """Kill / delay faults, applied before any real work starts."""
    attempt = int(payload.get("attempt", 0))
    kill = bool(inject.get("kill")) or attempt in set(
        inject.get("kill_attempts") or ()
    )
    prob = float(inject.get("kill_prob") or 0.0)
    if not kill and prob > 0.0:
        import random

        token = f"{inject.get('seed', 0)}:{payload.get('name', '')}:{attempt}"
        kill = random.Random(token).random() < prob
    if kill and multiprocessing.current_process().name != "MainProcess":
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    if inject.get("sleep_s"):
        time.sleep(float(inject["sleep_s"]))


class _RaisingPass:
    """Pipeline pass replacement that raises instead of running."""

    def __init__(self, inner, exc_factory):
        self.inner = inner
        self.name = inner.name
        self._exc_factory = exc_factory

    def run(self, state):
        raise self._exc_factory()


def apply_option_faults(inject: Dict[str, Any], options) -> None:
    """Pipeline-level faults, installed through the pass_decorator seam."""
    defect = inject.get("defect")
    raise_kind = inject.get("raise")
    if defect:
        from repro.proptest.faults import DEFECTS, fault_decorator

        options.pass_decorator = fault_decorator(DEFECTS[defect])
    elif raise_kind:
        if raise_kind == "malformed":
            def factory():
                return MalformedInstance("injected malformed-instance fault")
        else:
            def factory():
                return RuntimeError(f"injected fault: {raise_kind}")

        raised = []

        def decorate(pass_):
            if raised:
                return pass_
            raised.append(pass_.name)
            return _RaisingPass(pass_, factory)

        options.pass_decorator = decorate
