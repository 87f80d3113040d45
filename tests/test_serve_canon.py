"""Canonical instance keys: the properties the serve cache relies on.

The cache serves a cover computed for instance A to any request whose
instance is A modulo input permutation and polarity flip.  That is sound
iff (1) every such rewrite hashes to the same key, (2) genuinely
different instances get different keys, and (3) the stored transform maps
canonical-space covers back onto the requester's instance hazard-free.
Each is pinned here, plus the overflow fallback's soundness.
"""

import os
import random

from hypothesis import given, strategies as st

from repro.bm.benchmarks import BENCHMARKS, build_benchmark
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import espresso_hf
from repro.pla import format_cover, parse_pla
from repro.proptest.metamorphic import flip_instance, permute_instance
from repro.proptest.strategies import (
    InstanceConfig,
    instances,
    solvable_instances,
)
from repro.serve.canon import (
    DEFAULT_MAX_CANDIDATES,
    MAX_ROW_SERIALIZATIONS,
    CanonicalForm,
    canonical_instance_key,
    canonicalize,
)

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data", "benchmarks"
)

SMALL = InstanceConfig(max_inputs=4, max_outputs=2, max_on_cubes=5, max_transitions=3)


def _rewrite(inst, data):
    """Draw one random element of the symmetry group and apply it."""
    perm = tuple(data.draw(st.permutations(range(inst.n_inputs))))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << inst.n_inputs) - 1))
    return permute_instance(flip_instance(inst, mask), perm)


class TestKeyInvariance:
    @given(instances(SMALL), st.data())
    def test_every_metamorphic_rewrite_hashes_identically(self, inst, data):
        rewritten = _rewrite(inst, data)
        assert canonical_instance_key(inst) == canonical_instance_key(rewritten)

    @given(instances(SMALL), st.data())
    def test_canonical_representative_is_shared(self, inst, data):
        # Stronger than key equality: both sides canonicalize to the very
        # same instance text, so the cache entry's canonical-space cover
        # means the same thing to both.
        rewritten = _rewrite(inst, data)
        assert canonicalize(inst).text == canonicalize(rewritten).text

    @given(instances(SMALL))
    def test_canonicalize_is_idempotent(self, inst):
        form = canonicalize(inst)
        again = canonicalize(form.canonical_instance(inst))
        assert again.key == form.key


class TestKeyDistinctness:
    def test_benchmark_corpus_has_no_collisions(self):
        keys = {
            bench.name: canonical_instance_key(build_benchmark(bench.name))
            for bench in BENCHMARKS
        }
        assert len(set(keys.values())) == len(keys), keys

    @given(instances(InstanceConfig(max_inputs=4, max_outputs=2,
                                    max_on_cubes=5, min_transitions=1,
                                    max_transitions=3)))
    def test_dropping_a_transition_changes_the_key(self, inst):
        # A ground-truth non-equivalent mutation: the transition set is
        # part of the problem, so removing one must change the key.
        from repro.hazards.instance import HazardFreeInstance

        smaller = HazardFreeInstance(
            inst.on, inst.off, inst.transitions[1:], name=inst.name
        )
        assert canonical_instance_key(inst) != canonical_instance_key(smaller)

    @given(instances(SMALL), instances(SMALL))
    def test_independent_instances_rarely_share_keys(self, a, b):
        # Two independently drawn instances either differ in key, or they
        # are genuinely equivalent — in which case their canonical
        # representatives must be the identical instance text.
        ka, kb = canonicalize(a), canonicalize(b)
        if ka.key == kb.key:
            assert ka.text == kb.text


def _parity_instance():
    """11 inputs, 2048 cubes, no transitions: x0..x4 split ON (odd parity)
    from OFF (even parity), each crossed with the same 64 seeded patterns
    over x5..x10, where x_j is ``-`` with probability 0.12 * (j - 5).  The
    five parity variables are interchangeable under both polarities."""
    from repro.cubes import Cover, Cube
    from repro.hazards.instance import HazardFreeInstance

    rng = random.Random(11)
    patterns = [
        "".join(
            "-" if rng.random() < 0.12 * (j - 5) else rng.choice("01")
            for j in range(5, 11)
        )
        for _ in range(64)
    ]
    on, off = Cover(11), Cover(11)
    for a in range(32):
        head = format(a, "05b")
        side = on if head.count("1") % 2 else off
        for pattern in patterns:
            side.append(Cube.from_string(head + pattern))
    return HazardFreeInstance(on, off, [], name="parity")


class TestCoverMapping:
    @given(solvable_instances(SMALL), st.data())
    def test_cover_roundtrip_is_identity(self, inst, data):
        form = canonicalize(inst)
        cover = espresso_hf(inst).cover
        back = form.cover_from_canonical(form.cover_to_canonical(cover))
        # Byte-identical text, not just the same cube set: a served miss
        # replies with the worker's own cover text and a hit formats the
        # relabeled canonical rows, so both must agree in cube order too.
        assert format_cover(back, pla_type="f", name="x") == format_cover(
            cover, pla_type="f", name="x"
        )

    @given(solvable_instances(SMALL), st.data())
    def test_cache_hit_path_serves_hazard_free_covers(self, inst, data):
        # The exact cache-hit flow: instance A populates the cache in
        # canonical labeling; an equivalent instance B gets that cover
        # mapped through B's own transform.  It must verify on B.
        form_a = canonicalize(inst)
        canonical_cover = form_a.cover_to_canonical(espresso_hf(inst).cover)
        equivalent = _rewrite(inst, data)
        form_b = canonicalize(equivalent)
        assert form_a.key == form_b.key
        served = form_b.cover_from_canonical(canonical_cover)
        assert not verify_hazard_free_cover(equivalent, served)


class TestOverflowFallback:
    def test_overflow_is_identity_and_marked(self):
        inst = build_benchmark("dram-ctrl")
        form = canonicalize(inst, max_candidates=0)
        assert form.overflow
        assert form.perm == tuple(range(inst.n_inputs))
        assert form.flip_mask == 0
        assert form.text.startswith("sym-overflow\n")

    def test_overflow_keys_never_alias_canonical_keys(self):
        # The same instance keyed both ways must produce different keys:
        # an overflowed request must not hit a canonically-keyed entry
        # (whose cover lives in a labeling the overflow path never
        # computed).
        inst = build_benchmark("dram-ctrl")
        assert (
            canonicalize(inst, max_candidates=0).key
            != canonicalize(inst).key
        )

    def test_overflow_decision_is_group_invariant(self):
        # Whether an instance overflows depends only on signature
        # multiplicities, which every rewrite preserves — so two
        # equivalent requests always take the same path.
        inst = build_benchmark("pe-send-ifc")
        rng = random.Random(3)
        perm = list(range(inst.n_inputs))
        rng.shuffle(perm)
        rewritten = permute_instance(flip_instance(inst, 0b101), tuple(perm))
        for cap in (0, 10, 20_000):
            assert (
                canonicalize(inst, max_candidates=cap).overflow
                == canonicalize(rewritten, max_candidates=cap).overflow
            )

    def test_large_instance_overflows_on_work_not_candidates(self):
        # Few enough candidates for the search, but each one serializes
        # all 2048 rows: the work cap must fall back, and every rewrite
        # must fall back with it.
        inst = _parity_instance()
        form = canonicalize(inst)
        assert form.candidates <= DEFAULT_MAX_CANDIDATES
        assert form.candidates * 2048 > MAX_ROW_SERIALIZATIONS
        assert form.overflow
        perm = list(range(inst.n_inputs))
        random.Random(5).shuffle(perm)
        rewritten = permute_instance(flip_instance(inst, 0b10100110101), tuple(perm))
        assert canonicalize(rewritten).overflow

    def test_low_cap_still_keys_identical_instances_together(self):
        inst = build_benchmark("dram-ctrl")
        a = canonicalize(inst, max_candidates=0)
        b = canonicalize(inst, max_candidates=0)
        assert a.key == b.key


class TestCanonicalFormShape:
    @given(instances(SMALL))
    def test_candidate_count_respects_cap(self, inst):
        form = canonicalize(inst)
        if not form.overflow:
            assert form.candidates <= 20_000
        assert isinstance(form, CanonicalForm)
        assert len(form.key) == 64


class TestUnvalidatedInstance:
    def test_canonicalize_builds_no_cover_columns(self):
        # the daemon's preparation of a request: it never reads the columns
        with open(os.path.join(BENCH_DIR, "dram-ctrl.pla")) as fh:
            instance = parse_pla(fh.read(), name="dram-ctrl").to_instance(validate=False)
        canonicalize(instance)
        assert "on_columns" not in vars(instance)
        assert "off_columns" not in vars(instance)
        instance.validate()
        assert "on_columns" in vars(instance)
