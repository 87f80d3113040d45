"""Differential and property tests for the batched essentials engine.

The batched engine (:mod:`repro.hf.essentials`) must be *observationally
identical* to the straightforward reference fixpoint kept in
``tests/essentials_ref.py`` — the escape-row filter is exact and the
incremental skips are verdict-preserving, so only the amount of work may
differ.  These tests pin that equivalence on the full benchmark suite and
on random instances, and additionally pin the batch supercube entry point
(``supercube_dhf_many``) and the escape-row soundness claim the engine's
filters rest on.  Contexts run in checked mode so the engine's own
phase-boundary invariants are armed while the comparison runs.
"""

import pytest
from hypothesis import given

from repro.bm.benchmarks import BENCHMARKS, build_benchmark
from repro.cubes.cube import mask01
from repro.hf.context import HFContext
from repro.hf.essentials import compute_essentials
from tests.essentials_ref import compute_essentials_reference
from repro.proptest.strategies import InstanceConfig, instances, solvable_instances

#: small instances keep per-example minimization cheap; multi-output so
#: cross-output pair probes (the two-environment alternation path) are hit
SMALL = InstanceConfig(max_inputs=3, max_outputs=2, max_on_cubes=4)
#: unsolvable instances allowed: pair probes must agree on ``None`` too
SMALL_ANY = InstanceConfig(
    max_inputs=3, max_outputs=2, max_on_cubes=4, solvable_bias=False
)


def _essentials_pair(inst):
    """Run both engines on fresh checked contexts; return comparable views."""
    results = []
    for engine in (compute_essentials, compute_essentials_reference):
        ctx = HFContext(inst, checked=True)
        reqs = ctx.canonical_required()
        if reqs is None:
            return None
        essentials, remaining = engine(ctx, reqs)
        results.append(
            (
                [(c.inbits, c.outbits) for c in essentials],
                [q.key() for q in remaining],
            )
        )
    return results


@pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
def test_differential_on_benchmark_suite(name):
    """Batched == reference on every circuit of the paper's suite."""
    pair = _essentials_pair(build_benchmark(name))
    assert pair is not None
    batched, reference = pair
    assert batched == reference


@given(solvable_instances(SMALL))
def test_differential_on_random_instances(inst):
    """Batched == reference on random solvable instances."""
    pair = _essentials_pair(inst)
    if pair is None:  # a required cube without a dhf-supercube
        return
    batched, reference = pair
    assert batched == reference


@given(instances(SMALL_ANY))
def test_supercube_many_matches_scalar(inst):
    """The batch entry point returns exactly the scalar verdicts.

    Probes every pair of canonical required cubes (plus each diagonal
    pair, a degenerate single-seed probe) through ``supercube_dhf_many``
    on one fresh context and ``supercube_dhf_bits`` on another, so
    neither run can warm the other's memo.
    """
    ctx = HFContext(inst)
    reqs = ctx.canonical_required()
    if not reqs:
        return
    pairs = []
    for i, a in enumerate(reqs):
        for b in reqs[i:]:
            pairs.append(
                (
                    a.canonical.inbits | b.canonical.inbits,
                    (1 << a.output) | (1 << b.output),
                )
            )
    batch_ctx = HFContext(inst)
    scalar_ctx = HFContext(inst)
    batch = batch_ctx.supercube_dhf_many(pairs)
    scalar = [scalar_ctx.supercube_dhf_bits(r, ob) for r, ob in pairs]
    assert batch == scalar


@given(instances(SMALL_ANY))
def test_escape_rows_sound(inst):
    """A cleared escape-row bit proves the pair probe returns ``None``.

    The engine's filters treat cleared bits as proven-infeasible pairs;
    a set bit promises nothing.  Verify against scalar probes on a fresh
    context (including the diagonal: a seed must pair with itself).
    """
    ctx = HFContext(inst)
    reqs = ctx.canonical_required()
    if not reqs:
        return
    positions = ctx.coverage.positions(reqs)
    rows = ctx.escape_filter_rows(
        [
            (pos, q.canonical.inbits, q.output)
            for pos, q in zip(positions, reqs)
        ]
    )
    at = dict(zip(positions, reqs))
    scalar_ctx = HFContext(inst)
    for pos, row in rows.items():
        q = at[pos]
        for pos2, s in at.items():
            if (row >> pos2) & 1:
                continue
            assert (
                scalar_ctx.supercube_dhf_bits(
                    q.canonical.inbits | s.canonical.inbits,
                    (1 << q.output) | (1 << s.output),
                )
                is None
            )


@pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
def test_escape_row_partners_clear_the_pair_off_set(name):
    """Every pair seed left in an escape row meets no OFF cube of the pair.

    ``supercube_dhf_many`` runs no seed-level OFF check of its own: the
    essentials engine probes only partners ``s`` left set in ``pp[q]``,
    and this pins that each such seed ``q_in | s_in`` already clears the
    OFF cubes of both outputs.  Checked against the instance's own OFF
    cover, not the context's deduplicated OFF rows.
    """
    inst = build_benchmark(name)
    ctx = HFContext(inst)
    reqs = ctx.canonical_required()
    positions = ctx.coverage.positions(reqs)
    rows = ctx.escape_filter_rows(
        [
            (pos, q.canonical.inbits, q.output)
            for pos, q in zip(positions, reqs)
        ]
    )
    at = dict(zip(positions, reqs))
    m01 = mask01(inst.n_inputs)
    off_in = [
        [c.inbits for c in inst.off_for_output(j)]
        for j in range(inst.n_outputs)
    ]
    probed = 0
    for pos, row in rows.items():
        q = at[pos]
        for pos2, s in at.items():
            if not (row >> pos2) & 1:
                continue
            seed = q.canonical.inbits | s.canonical.inbits
            for j in {q.output, s.output}:
                for o in off_in[j]:
                    meet = seed & o
                    # an empty meet has some variable with both bits clear
                    assert ~(meet | (meet >> 1)) & m01, (str(q), str(s), j)
            probed += 1
    assert probed >= len(reqs)  # the diagonal alone is always in the rows


def test_incremental_fixpoint_counters():
    """The incremental engine visibly skips work and bounds its memos.

    ``cache-ctrl`` discovers secondary essentials, so the fixpoint runs
    several passes: clean verdicts must be skipped (rescans avoided) and
    the memo peak must cover at least the escape-row table.
    """
    inst = build_benchmark("cache-ctrl")
    ctx = HFContext(inst)
    reqs = ctx.canonical_required()
    essentials, remaining = compute_essentials(ctx, reqs)
    assert essentials
    assert ctx.perf.essentials_rescans_avoided > 0
    assert ctx.perf.essentials_memo_peak >= len(reqs)
    # escape rows survive for EXPAND; one row per universe position
    assert len(ctx._escape_rows) == len(reqs)


def test_escape_rows_reused_across_phases():
    """EXPAND's anchor prefilter sees the rows ESSENTIALS built."""
    inst = build_benchmark("dram-ctrl")
    ctx = HFContext(inst)
    reqs = ctx.canonical_required()
    compute_essentials(ctx, reqs)
    sel = ctx._escape_rows_sel
    assert sel
    for pos in ctx._escape_rows:
        assert (sel >> pos) & 1
