"""Hazard-free transformation: the ``u(f)`` rewrite backend.

Companion to :mod:`repro.detect` — where the detector *judges* circuits,
this package *repairs* them: :func:`transform_instance` /
:func:`transform_netlist` produce two-level networks that the detector
verifies hazard-free, as a size/depth/latency comparison baseline for
Espresso-HF covers (see ``scripts/detect_run.py`` and
``docs/DETECTION.md``).
"""

from repro.transform.extract import DEFAULT_MAX_INPUTS, extract_covers
from repro.transform.uf import (
    DEFAULT_PRIME_LIMIT,
    MODES,
    TransformResult,
    transform_instance,
    transform_netlist,
)

__all__ = [
    "DEFAULT_MAX_INPUTS",
    "extract_covers",
    "DEFAULT_PRIME_LIMIT",
    "MODES",
    "TransformResult",
    "transform_instance",
    "transform_netlist",
]
