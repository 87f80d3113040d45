"""pla-suite: the 15 Figure 8 PLA files through the CLI's ``--verify`` path.

Why: large real instances, where validation and derivation of the
required cubes cost more than the minimizer's pass pipeline.  Every
request runs parse -> validate -> derive -> minimize -> verify -> format
in-process with one caller, so it bypasses serve, isolation and detect.
"""

from __future__ import annotations

import glob
import json
import os
import random
from typing import Dict, List

from measure import Sample, import_program, self_peak_rss_mb
from refslice import SAMPLE_PERIOD_S

from repro.guard.runner import guarded_espresso_hf
from repro.hazards.verify import verify_hazard_free_cover
from repro.pla import format_cover, parse_pla

IMPORTS = ("repro.pla", "repro.guard.runner", "repro.hazards.verify")

#: phases read from ``HFResult.phase_seconds``; the rest of the
#: minimizer's time (merge_essentials included) is ``hf.unattributed_ms``
HF_PHASES = (
    "canonicalize",
    "essentials",
    "expand",
    "irredundant",
    "reduce",
    "last_gasp",
    "make_prime",
    "final_irredundant",
)

LAYER_SPANS = (
    "pla.parse",
    "hazards.validate",
    "hazards.derive",
    "hf.minimize",
    "hazards.verify",
    "pla.format",
)


def cover_key(cover) -> List[List[str]]:
    """The golden file's cover encoding: sorted (inbits, outbits) hex pairs."""
    return sorted([f"{c.inbits:x}", f"{c.outbits:x}"] for c in cover)


class PlaSuite:
    name = "pla-suite"
    #: requests in one pass over the distinct inputs
    pass_size = 15
    #: requests per second at nominal speed; sets the request count
    nominal_rps = 9.5
    #: the work runs in this thread, so it may be sampled while it runs
    sample_period = SAMPLE_PERIOD_S

    def __init__(self, root: str, seed: int):
        import_program(root, IMPORTS)
        self.rng = random.Random(seed)
        self.texts: Dict[str, str] = {}
        for path in sorted(glob.glob(os.path.join(root, "data", "benchmarks", "*.pla"))):
            with open(path) as fh:
                self.texts[os.path.basename(path)[:-4]] = fh.read()
        with open(os.path.join(root, "data", "golden_pipeline.json")) as fh:
            self.golden = json.load(fh)["circuits"]
        if sorted(self.texts) != sorted(self.golden):
            raise RuntimeError("data/benchmarks does not match data/golden_pipeline.json")
        self.results: Dict[str, object] = {}
        self.counts: Dict[str, float] = {}
        self.phase_seconds: Dict[str, float] = {}

    def run(self, clock, n: int, rec) -> List[Sample]:
        names = sorted(self.texts)
        samples: List[Sample] = []
        self.counts = {}
        self.phase_seconds = {}
        while len(samples) < n:
            order = list(names)
            self.rng.shuffle(order)
            for name in order:
                rid = f"r{len(samples)}"
                outcome, corrected, wall, factor = clock.measure(
                    lambda: self._request(name, rid, rec)
                )
                ok, result, required, privileged = outcome
                samples.append(Sample(rid, name, wall, corrected, factor, ok))
                self.results[name] = result
                self._count(result, required, privileged, factor)
        return samples

    def _request(self, name: str, rid: str, rec):
        with rec.span("request", rid):
            with rec.span("pla.parse", rid):
                pla = parse_pla(self.texts[name], name=name)
            with rec.span("hazards.validate", rid):
                instance = pla.to_instance()
            with rec.span("hazards.derive", rid):
                required = instance.required_cubes()
                privileged = instance.privileged_cubes()
            with rec.span("hf.minimize", rid):
                result = guarded_espresso_hf(instance)
            with rec.span("hazards.verify", rid):
                violations = verify_hazard_free_cover(instance, result.cover)
            with rec.span("pla.format", rid):
                text = format_cover(result.cover, pla_type="f", name=f"{name} minimized")
        golden = self.golden[name]
        ok = (
            not violations
            and result.status == golden["status"]
            and result.num_literals == golden["num_literals"]
            and cover_key(result.cover) == golden["cover"]
            and text.startswith(f"# {name} minimized")
        )
        return ok, result, len(required), len(privileged)

    def _count(self, result, required: int, privileged: int, factor: float) -> None:
        c = result.counters
        for key, value in (
            ("hazards.required_cubes", required),
            ("hazards.privileged_cubes", privileged),
            ("hf.supercube_calls", c.supercube_calls),
            ("hf.supercube_hits", c.supercube_cache_hits),
            ("hf.expand_probes", c.expand_probes),
            ("hf.coverage_built", c.coverage_masks_built),
            ("hf.coverage_hits", c.coverage_mask_hits),
            ("hf.mincov_rows", c.mincov_rows),
            ("hf.passes_executed", c.passes_executed),
        ):
            self.counts[key] = self.counts.get(key, 0) + value
        for phase, seconds in result.phase_seconds.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds * factor

    def quality(self):
        cubes = sum(r.num_cubes for r in self.results.values())
        literals = sum(r.num_literals for r in self.results.values())
        return cubes, literals

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_metrics(self, samples: List[Sample], layer_ms: Dict[str, float]) -> Dict[str, float]:
        """Per-layer ledger: mean corrected ms per request, counts per pass."""
        n = len(samples)
        passes = n / self.pass_size
        out = {f"{span}_ms": layer_ms.get(span, 0.0) for span in LAYER_SPANS}
        attributed = 0.0
        for phase in HF_PHASES:
            ms = self.phase_seconds.get(phase, 0.0) * 1e3 / n
            out[f"hf.{phase}_ms"] = ms
            attributed += ms
        out["hf.unattributed_ms"] = out["hf.minimize_ms"] - attributed
        c = self.counts
        out["hazards.required_cubes"] = c["hazards.required_cubes"] / passes
        out["hazards.privileged_cubes"] = c["hazards.privileged_cubes"] / passes
        out["hf.supercube_calls"] = c["hf.supercube_calls"] / passes
        out["hf.supercube_hit_ratio"] = c["hf.supercube_hits"] / max(1, c["hf.supercube_calls"])
        out["hf.expand_probes"] = c["hf.expand_probes"] / passes
        looked_up = c["hf.coverage_built"] + c["hf.coverage_hits"]
        out["hf.coverage_hit_ratio"] = c["hf.coverage_hits"] / max(1, looked_up)
        out["hf.mincov_rows"] = c["hf.mincov_rows"] / passes
        out["hf.passes_executed"] = c["hf.passes_executed"] / passes
        return out

    def verify(self, samples: List[Sample]) -> None:
        """Nothing left to check: every request was checked as it completed."""

    def close(self) -> None:
        pass
