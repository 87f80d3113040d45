"""Self-contained failure repro bundles.

When a guarded run fails — an invariant violation, a coverage cross-check
divergence, or an outright crash — the runtime serializes everything needed
to replay the failure into one JSON file under ``artifacts/``:

* the instance as extended PLA text (``.type fr`` + ``.trans`` lines, the
  same format the CLI reads),
* the :class:`~repro.hf.espresso_hf.EspressoHFOptions` that were active
  (budget configuration included),
* the failure kind and message,
* the phase trace up to the failure,
* shrink metadata once :mod:`repro.guard.shrink` has minimized the input.

``replay_bundle`` re-runs the bundle's instance under checked mode and
reports whether the recorded failure kind reproduces, so a bundle attached
to a bug report is executable evidence, not a prose description.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional

from repro.guard.errors import InvariantViolation, NoSolutionError
from repro.hazards.instance import HazardFreeInstance

#: default directory for bundles, relative to the current working directory
DEFAULT_BUNDLE_DIR = "artifacts"

BUNDLE_FORMAT = "espresso-hf-repro-bundle"
BUNDLE_VERSION = 1

#: failure kinds a bundle can record / a replay can observe
FAILURE_KINDS = (
    "invariant_violation",
    "crosscheck_divergence",
    "verify_failed",
    "crash",
    "property_falsified",
)

#: EspressoHFOptions fields that serialize into a bundle (plain scalars)
_OPTION_FIELDS = (
    "use_essentials",
    "use_last_gasp",
    "make_prime",
    "exact_irredundant",
    "irredundant_node_limit",
    "max_outer_iterations",
    "jobs",
    "passes",
)


def options_to_dict(options) -> Dict[str, Any]:
    """JSON-ready snapshot of an :class:`EspressoHFOptions` (or None)."""
    if options is None:
        return {}
    out = {name: getattr(options, name) for name in _OPTION_FIELDS}
    budget = getattr(options, "budget", None)
    if budget is not None:
        out["budget"] = {
            "wall_s": budget.wall_s,
            "max_iterations": budget.max_iterations,
            "max_checkpoints": budget.max_checkpoints,
        }
    return out


def options_from_dict(data: Dict[str, Any]):
    """Rebuild :class:`EspressoHFOptions` from a bundle's options dict."""
    from repro.guard.budget import RunBudget
    from repro.hf.espresso_hf import EspressoHFOptions

    kwargs = {k: v for k, v in data.items() if k in _OPTION_FIELDS}
    if kwargs.get("passes") is not None:
        # JSON round-trips the tuple as a list.
        kwargs["passes"] = tuple(kwargs["passes"])
    options = EspressoHFOptions(**kwargs)
    if data.get("budget"):
        options.budget = RunBudget(**data["budget"])
    return options


@dataclass
class ReproBundle:
    """In-memory form of one serialized failure bundle."""

    name: str
    pla_text: str
    options: Dict[str, Any] = field(default_factory=dict)
    failure_kind: str = "crash"
    failure_message: str = ""
    failure_phase: str = ""
    trace: list = field(default_factory=list)
    shrink: Dict[str, Any] = field(default_factory=dict)
    path: Optional[str] = None

    def instance(self) -> HazardFreeInstance:
        """Parse the embedded PLA back into an instance."""
        from repro.pla import parse_pla

        return parse_pla(self.pla_text, name=self.name).to_instance()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "format": BUNDLE_FORMAT,
            "version": BUNDLE_VERSION,
            "name": self.name,
            "pla": self.pla_text,
            "options": self.options,
            "failure": {
                "kind": self.failure_kind,
                "message": self.failure_message,
                "phase": self.failure_phase,
            },
            "trace": list(self.trace),
            "shrink": self.shrink,
        }


def write_bundle(
    instance: HazardFreeInstance,
    failure_kind: str,
    failure_message: str = "",
    failure_phase: str = "",
    options=None,
    trace=None,
    shrink: Optional[Dict[str, Any]] = None,
    bundle_dir: str = DEFAULT_BUNDLE_DIR,
    filename: Optional[str] = None,
) -> str:
    """Serialize a failure bundle to ``bundle_dir``; returns its path.

    By default the filename is content-addressed (instance name plus a hash
    of the PLA text and failure message), so re-runs of the same failure
    overwrite one file instead of accumulating duplicates.  An explicit
    ``filename`` pins the path instead — the property-test harness uses a
    per-test name so Hypothesis's final shrunk replay is what survives on
    disk, not every intermediate falsifying example.
    """
    from repro.pla.writer import format_pla

    pla_text = format_pla(instance)
    bundle = ReproBundle(
        name=instance.name,
        pla_text=pla_text,
        options=options_to_dict(options),
        failure_kind=failure_kind,
        failure_message=failure_message,
        failure_phase=failure_phase,
        trace=list(trace or []),
        shrink=dict(shrink or {}),
    )
    if filename is None:
        digest = hashlib.sha1(
            (pla_text + "\0" + failure_kind + "\0" + failure_message).encode()
        ).hexdigest()[:10]
        safe_name = "".join(
            c if c.isalnum() or c in "-_." else "_" for c in instance.name
        )
        filename = f"{safe_name}-{digest}.bundle"
    os.makedirs(bundle_dir, exist_ok=True)
    path = os.path.join(bundle_dir, filename)
    with open(path, "w") as fh:
        json.dump(bundle.as_dict(), fh, indent=2)
        fh.write("\n")
    return path


def load_bundle(path: str) -> ReproBundle:
    """Load a bundle file back into memory (validates the format marker)."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"{path}: not an {BUNDLE_FORMAT} file")
    failure = data.get("failure", {})
    return ReproBundle(
        name=data.get("name", "bundle"),
        pla_text=data["pla"],
        options=data.get("options", {}),
        failure_kind=failure.get("kind", "crash"),
        failure_message=failure.get("message", ""),
        failure_phase=failure.get("phase", ""),
        trace=data.get("trace", []),
        shrink=data.get("shrink", {}),
        path=path,
    )


def probe_failure(
    instance: HazardFreeInstance,
    options=None,
    fault_hook: Optional[Callable[[int, int, int], int]] = None,
) -> Optional[str]:
    """Run one checked minimization and classify what (if anything) failed.

    Returns a failure kind from :data:`FAILURE_KINDS` or ``None`` when the
    run is clean.  ``fault_hook`` re-installs a coverage-engine fault
    injector (used when replaying injected-fault bundles; organic failures
    replay without one).  ``NoSolutionError`` counts as clean — it is a
    property of the input, not a fault.
    """
    from repro.hazards.verify import verify_hazard_free_cover
    from repro.hf.espresso_hf import EspressoHFOptions, espresso_hf

    # Every recorded option (``passes`` included) carries over; the replay
    # runs uncapped, since a budget would mask the failure.
    probe_options = replace(
        options or EspressoHFOptions(),
        budget=None,
        checked=True,
        coverage_fault_hook=fault_hook,
    )
    try:
        result = espresso_hf(instance, probe_options)
    except NoSolutionError:
        return None
    except InvariantViolation:
        return "invariant_violation"
    except Exception:  # noqa: BLE001 - any crash is the finding
        return "crash"
    if result.counters.crosscheck_divergences:
        return "crosscheck_divergence"
    if verify_hazard_free_cover(instance, result.cover):
        return "verify_failed"
    return None


def replay_bundle(
    path: str,
    fault_hook: Optional[Callable[[int, int, int], int]] = None,
) -> Dict[str, Any]:
    """Re-run a bundle and report whether its failure reproduces.

    Returns ``{"reproduced": bool, "expected": kind, "observed": kind or
    None, "name": ...}``.  A replay reproduces when it observes the same
    failure kind the bundle recorded (any failure matches a recorded
    ``"crash"``).
    """
    bundle = load_bundle(path)
    try:
        instance = bundle.instance()
    except Exception as exc:  # noqa: BLE001 - malformed bundle is a result
        return {
            "name": bundle.name,
            "expected": bundle.failure_kind,
            "observed": "crash",
            "reproduced": bundle.failure_kind == "crash",
            "error": f"{type(exc).__name__}: {exc}",
        }
    options = options_from_dict(bundle.options)
    observed = probe_failure(instance, options, fault_hook=fault_hook)
    reproduced = observed == bundle.failure_kind or (
        bundle.failure_kind == "crash" and observed is not None
    )
    return {
        "name": bundle.name,
        "expected": bundle.failure_kind,
        "observed": observed,
        "reproduced": reproduced,
    }


def describe_exception(exc: BaseException, limit: int = 20) -> str:
    """Compact single-string traceback for bundle messages."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__, limit=limit)
    ).strip()
