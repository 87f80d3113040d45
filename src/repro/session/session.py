"""The serializable session object and its capture side.

A session records what a later run needs to short-circuit a resubmit of
the same instance:

* the minimized cover and essential classes (the identical-mode result),
* the pipeline's best-verified snapshot,
* the derived-set **signature** of the producing instance — the per-output
  required, privileged, and OFF cube lists the algorithm actually
  consumes.  Identity is decided on signatures, never on raw text, so
  formatting or comment edits cost nothing,
* the cover-shaping options of the producing run (:func:`options_record`):
  the planner short-circuits only under equal options.

Cubes serialize as ``[inbits, outbits]`` integer pairs — the 2-bits-per-
variable encoding is already a plain int, and Python's ``json`` round-
trips big ints exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cubes.cube import Cube
from repro.guard.bundle import options_to_dict
from repro.hazards.instance import HazardFreeInstance
from repro.hf.espresso_hf import EspressoHFOptions

#: bump when the serialized layout changes; ``plan_warm_start`` falls back
#: cold on any mismatch rather than guessing at old layouts
SESSION_VERSION = 1


def signature_of(instance: HazardFreeInstance) -> Dict[str, Any]:
    """The derived-set signature the minimizer's behaviour depends on.

    Per output ``j``: the ordered privileged ``(cube, start)`` input-bit
    pairs, the ordered OFF-cover input bits, and the ordered required-cube
    input bits.  Plus the *global* required order, because the pipeline
    (canonicalize, essentials, the main loop) iterates ``Q`` in that
    order and the heuristic trace — hence the cover — is order-sensitive.
    Two instances with equal signatures are indistinguishable to
    ``espresso_hf``: the algorithm reads the instance only through these
    sets.
    """
    outputs = []
    for j in range(instance.n_outputs):
        outputs.append(
            {
                "priv": [
                    [p.cube.inbits, p.start.inbits]
                    for p in instance.privileged_for_output(j)
                ],
                "off": [o.inbits for o in instance.off_for_output(j)],
                "required": [
                    q.cube.inbits for q in instance.required_for_output(j)
                ],
            }
        )
    return {
        "outputs": outputs,
        "required_order": [
            [q.cube.inbits, q.output] for q in instance.required_cubes()
        ],
    }


def options_record(options=None) -> Dict[str, Any]:
    """The cover-shaping fields of ``options`` (``None`` = the defaults),
    as JSON: the bundle's option fields without ``jobs``, which
    ``espresso_hf`` ignores, and without ``budget``.  Checked mode shapes
    no cover.  A budget does when it runs out, so
    :func:`~repro.session.plan_warm_start` plans every budgeted run cold
    and the record need not carry it."""
    record = options_to_dict(options or EspressoHFOptions())
    del record["jobs"]
    record.pop("budget", None)
    return json.loads(json.dumps(record))


def _cube_pairs(cubes) -> List[List[int]]:
    return [[c.inbits, c.outbits] for c in cubes]


@dataclass
class MinimizationSession:
    """Capture of one successful minimization run, restore-ready.

    ``signature`` is :func:`signature_of` applied to the
    producing instance, ``options`` the producing run's
    :func:`options_record`.
    """

    name: str
    n_inputs: int
    n_outputs: int
    cover: List[List[int]]
    signature: Dict[str, Any]
    essentials: List[List[int]] = field(default_factory=list)
    best: Optional[List[List[int]]] = None
    options: Optional[Dict[str, Any]] = None
    num_canonical_required: int = 0
    iterations: int = 0
    status: str = "ok"
    version: int = SESSION_VERSION

    # ------------------------------------------------------------------
    # Restore-side helpers
    # ------------------------------------------------------------------

    def cover_cubes(self) -> List[Cube]:
        """The session cover as :class:`Cube` objects."""
        return [
            Cube(self.n_inputs, inbits, outbits, self.n_outputs)
            for inbits, outbits in self.cover
        ]

    def essential_cubes(self) -> List[Cube]:
        return [
            Cube(self.n_inputs, inbits, outbits, self.n_outputs)
            for inbits, outbits in self.essentials
        ]

    # ------------------------------------------------------------------
    # Serialization protocol
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "name": self.name,
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "cover": [list(pair) for pair in self.cover],
            "signature": self.signature,
            "essentials": [list(pair) for pair in self.essentials],
            "best": (
                None
                if self.best is None
                else [list(pair) for pair in self.best]
            ),
            "options": self.options,
            "num_canonical_required": self.num_canonical_required,
            "iterations": self.iterations,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MinimizationSession":
        """Rebuild a session from :meth:`to_dict` output.

        Raises ``ValueError`` on structurally broken input; version skew
        is *not* an error here — the warm planner downgrades it to a cold
        fallback so stale session files stay usable.  Keys this layout does not
        know (the memo ``caches`` and the always-empty ``canonical_key`` of
        older session files) are ignored.
        """
        if not isinstance(data, dict):
            raise ValueError("session payload must be a dict")
        try:
            return cls(
                name=str(data.get("name", "session")),
                n_inputs=int(data["n_inputs"]),
                n_outputs=int(data["n_outputs"]),
                cover=[
                    [int(a), int(b)] for a, b in data.get("cover", [])
                ],
                signature=dict(data.get("signature", {})),
                essentials=[
                    [int(a), int(b)] for a, b in data.get("essentials", [])
                ],
                best=(
                    None
                    if data.get("best") is None
                    else [[int(a), int(b)] for a, b in data["best"]]
                ),
                options=data.get("options"),
                num_canonical_required=int(
                    data.get("num_canonical_required", 0)
                ),
                iterations=int(data.get("iterations", 0)),
                status=str(data.get("status", "ok")),
                version=int(data.get("version", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed session payload: {exc}") from None

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "MinimizationSession":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def capture_session(
    instance: HazardFreeInstance,
    cover,
    essentials=(),
    best: Optional[List[Cube]] = None,
    iterations: int = 0,
    num_canonical_required: int = 0,
    options=None,
) -> MinimizationSession:
    """Capture a finished run's state into a session.

    ``options`` are the run's options.
    """
    return MinimizationSession(
        name=instance.name,
        n_inputs=instance.n_inputs,
        n_outputs=instance.n_outputs,
        cover=_cube_pairs(cover),
        signature=signature_of(instance),
        essentials=_cube_pairs(essentials),
        best=None if best is None else _cube_pairs(best),
        options=options_record(options),
        num_canonical_required=num_canonical_required,
        iterations=iterations,
        status="ok",
    )
