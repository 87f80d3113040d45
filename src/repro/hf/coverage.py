"""Coverage-bitset engine: required-cube covering as big-int bitmasks.

Every operator of Espresso-HF asks the same question over and over: *which
canonical required cubes does this cover cube cover?*  The scalar answer
(:meth:`repro.hf.context.HFContext.covers` per pair) costs two Python method
calls per (cube, required-cube) pair and dominated the profile.  This module
collapses the question to one memoized big-int per (input bits, output) —
bit ``i`` of the mask is set iff required cube ``i`` is covered — so the
EXPAND gain function, the REDUCE/LAST_GASP uniqueness counts, and the
IRREDUNDANT covering rows all become AND/OR/popcount operations.  Python
big ints are the vector unit, the same trick as the 2-bits-per-variable
cube encoding.

The index assigns each distinct required cube (keyed on canonical input
bits + output) a stable *universe index* in registration order.  Operators
work on arbitrary subsequences of the canonical set, so they first
``register`` their sequence, take a ``selection_mask``, and intersect
engine masks with it.  Registration is idempotent and the per-``(inbits,
output)`` mask cache extends incrementally if the universe grows after a
mask was computed (only relevant for ad-hoc test universes; one minimizer
run registers everything up front).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf import PerfCounters

# Deliberately untyped import target: TaggedRequired lives in context.py,
# which imports this module; only duck-typed attributes are used here.


class CoverageIndex:
    """Memoized |Q|-wide coverage bitmasks over the required-cube universe.

    The index runs in one of two modes.  The default *engine* mode serves
    masks from the per-output and combined caches.  *Scalar* mode
    (:meth:`enter_scalar_mode`) recomputes every mask from the per-pair
    containment predicate on each call, bypassing all caches — it is the
    fallback path checked mode switches to when the scalar-vs-bitset
    cross-check (:mod:`repro.guard.invariants`) catches a divergence, so a
    wrong cache entry degrades the run to the slow path instead of a wrong
    cover.  ``fault_hook`` is the injection point those cross-check tests
    use: it perturbs engine-mode masks only (a fault model for cache
    corruption), never the scalar path.
    """

    def __init__(self, n_outputs: int, perf: Optional[PerfCounters] = None):
        self.n_outputs = n_outputs
        self.perf = perf if perf is not None else PerfCounters()
        #: scalar fallback switch (see class docstring)
        self.scalar_mode = False
        #: optional (inbits, outbits, mask) -> mask fault injector
        self.fault_hook = None
        #: (canonical inbits, output) -> universe index
        self._index: Dict[Tuple[int, int], int] = {}
        #: per output j: [(universe index, canonical inbits), ...]
        self._by_output: List[List[Tuple[int, int]]] = [
            [] for _ in range(n_outputs)
        ]
        #: (inbits, output j) -> (bucket length at computation, mask)
        self._mask_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: (inbits, outbits) -> (universe size at computation, combined mask)
        self._combined_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Universe registration
    # ------------------------------------------------------------------

    def register(self, reqs: Sequence) -> None:
        """Ensure every tagged required cube has a universe index."""
        index = self._index
        for q in reqs:
            key = (q.canonical.inbits, q.output)
            if key not in index:
                index[key] = len(index)
                self._by_output[q.output].append((index[key], key[0]))

    def index_of(self, req) -> int:
        """Universe index of one tagged required cube (must be registered)."""
        return self._index[(req.canonical.inbits, req.output)]

    def positions(self, reqs: Sequence) -> List[int]:
        """Universe indices aligned with ``reqs`` (registers as needed)."""
        self.register(reqs)
        index = self._index
        return [index[(q.canonical.inbits, q.output)] for q in reqs]

    def selection_mask(self, reqs: Sequence) -> int:
        """Bitmask selecting exactly the universe indices of ``reqs``."""
        mask = 0
        for pos in self.positions(reqs):
            mask |= 1 << pos
        return mask

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------
    # Coverage masks
    # ------------------------------------------------------------------

    def covered_bits(self, inbits: int, outbits: int) -> int:
        """Mask of registered required cubes covered by a cover cube.

        Bit ``i`` is set iff universe cube ``i`` belongs to an output in
        ``outbits`` and its canonical input part is contained in ``inbits``.
        The combined (input bits, output set) result is memoized on top of
        the per-output masks, so the hot-path cost is one dictionary probe.
        """
        if self.scalar_mode:
            return self._scalar_covered_bits(inbits, outbits)
        key = (inbits, outbits)
        cached = self._combined_cache.get(key)
        if cached is not None and cached[0] == len(self._index):
            self.perf.coverage_mask_hits += 1
            return cached[1]
        mask = 0
        ob = outbits
        while ob:
            b = ob & -ob
            ob ^= b
            mask |= self._output_mask(inbits, b.bit_length() - 1)
        if self.fault_hook is not None:
            mask = self.fault_hook(inbits, outbits, mask)
        self._combined_cache[key] = (len(self._index), mask)
        return mask

    def _scalar_covered_bits(self, inbits: int, outbits: int) -> int:
        """Uncached per-pair containment scan (the fallback oracle path)."""
        mask = 0
        ob = outbits
        while ob:
            b = ob & -ob
            ob ^= b
            for pos, q_in in self._by_output[b.bit_length() - 1]:
                if q_in & inbits == q_in:
                    mask |= 1 << pos
        return mask

    def enter_scalar_mode(self) -> None:
        """Switch to the scalar fallback path and drop every cached mask."""
        self.scalar_mode = True
        self._mask_cache.clear()
        self._combined_cache.clear()

    def _output_mask(self, inbits: int, j: int) -> int:
        bucket = self._by_output[j]
        key = (inbits, j)
        cached = self._mask_cache.get(key)
        if cached is not None:
            known, mask = cached
            if known == len(bucket):
                self.perf.coverage_mask_hits += 1
                return mask
            # The universe grew since this mask was computed: extend it by
            # scanning only the new bucket entries.
            start = known
        else:
            mask = 0
            start = 0
        for pos, q_in in bucket[start:]:
            if q_in & inbits == q_in:
                mask |= 1 << pos
        self.perf.coverage_masks_built += 1
        self._mask_cache[key] = (len(bucket), mask)
        return mask

    # ------------------------------------------------------------------
    # Convenience views for the operators
    # ------------------------------------------------------------------

    def covered_subset(self, mask: int, reqs: Sequence) -> List:
        """The members of ``reqs`` selected by ``mask``, in ``reqs`` order."""
        index = self._index
        return [
            q
            for q in reqs
            if (mask >> index[(q.canonical.inbits, q.output)]) & 1
        ]

