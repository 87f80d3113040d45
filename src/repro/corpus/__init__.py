"""Corpus scale-out: stratified generation, sharded execution, differential.

The Figure-8 comparison in the paper covers 15 circuits.  This package
scales it to thousands (ROADMAP item 1):

* :mod:`repro.corpus.generator` — seeded, size-stratified corpus
  synthesis (1k–10k instances; unsolvable and degenerate strata included
  on purpose);
* :mod:`repro.corpus.manifest` — canonical byte-reproducible manifests
  with per-instance content hashes, freeze/load round-trip;
* :mod:`repro.corpus.executor` — work-stealing shard executor: a shared
  task queue over crash-isolated worker processes, one per slot (a
  worker runs tasks until it dies, times out or reports a ``crash``) with
  per-instance timeouts, resumable NDJSON checkpointing, and a stdio
  transport seam for remote shards (:mod:`repro.corpus.worker`);
* :mod:`repro.corpus.differential` — the exact-vs-heuristic differential
  worker (every heuristic cover re-verified under Theorem 2.11, every
  disagreement classified, unexplained ones bundled for replay);
* :mod:`repro.corpus.scoreboard` — associative merging of out-of-order
  shard rows and :mod:`repro.obs` metric snapshots into a corpus-wide
  quality/latency scoreboard.

Entry point: ``scripts/corpus_run.py`` (see docs/CORPUS.md).
"""

from repro.corpus.generator import (
    DEFAULT_STRATA,
    CorpusInstance,
    StratumSpec,
    allocate_counts,
    build_stratum_instance,
    derive_seed,
    generate_corpus,
    strata_by_name,
)
from repro.corpus.manifest import (
    CorpusIntegrityError,
    CorpusManifest,
    ManifestEntry,
    instance_digest,
    load_frozen_corpus,
    manifest_json,
    parse_manifest,
    write_frozen_corpus,
)

__all__ = [
    "DEFAULT_STRATA",
    "CorpusInstance",
    "CorpusIntegrityError",
    "CorpusManifest",
    "ManifestEntry",
    "StratumSpec",
    "allocate_counts",
    "build_stratum_instance",
    "derive_seed",
    "generate_corpus",
    "instance_digest",
    "load_frozen_corpus",
    "manifest_json",
    "parse_manifest",
    "strata_by_name",
    "write_frozen_corpus",
    # lazy (PEP 562) — the executor/differential layers import the
    # minimizer engines back, keep package import light
    "ShardExecutor",
    "ExecutorStats",
    "run_corpus",
    "differential_payload",
    "run_differential_payload",
    "build_scoreboard",
    "merge_row_metrics",
    "format_scoreboard",
    "unexplained_rows",
]

_LAZY = {
    "ShardExecutor": "repro.corpus.executor",
    "ExecutorStats": "repro.corpus.executor",
    "run_corpus": "repro.corpus.executor",
    "differential_payload": "repro.corpus.differential",
    "run_differential_payload": "repro.corpus.differential",
    "build_scoreboard": "repro.corpus.scoreboard",
    "merge_row_metrics": "repro.corpus.scoreboard",
    "format_scoreboard": "repro.corpus.scoreboard",
    "unexplained_rows": "repro.corpus.scoreboard",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
