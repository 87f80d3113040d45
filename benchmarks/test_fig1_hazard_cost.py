"""Figure 1: hazard-freedom costs cover cardinality (5 vs 4 products).

Also sweeps random instances to measure how often and by how much the
minimal hazard-free cover exceeds the minimal unconstrained cover.
"""

from repro.bench.figure1 import (
    figure1_experiment,
    figure1_instance,
    minimum_plain_cover,
)
from repro.bm.random_spec import random_instance
from repro.detect import Netlist
from repro.exact import exact_hazard_free_minimize
from repro.hazards import hazard_free_solution_exists
from repro.simulate import find_glitch


def test_figure1_gap(benchmark):
    """The frozen Figure 1 instance: minimal HF = 5, minimal plain = 4."""
    result = benchmark.pedantic(figure1_experiment, rounds=1, iterations=1)
    assert result.hazard_free_cubes == 5
    assert result.plain_cubes == 4


def test_figure1_plain_cover_glitches(benchmark):
    """The 4-product minimum cover really glitches under random delays."""
    instance = figure1_instance()
    result = figure1_experiment()
    network = Netlist.from_cover(result.plain_cover)

    def run():
        return [
            t for t in instance.transitions if find_glitch(network, t, trials=300)
        ]

    glitching = benchmark.pedantic(run, rounds=1, iterations=1)
    assert glitching  # at least one specified transition glitches


def test_figure1_hf_cover_never_glitches(benchmark):
    instance = figure1_instance()
    result = figure1_experiment()
    network = Netlist.from_cover(result.hazard_free_cover)

    def run():
        return [
            t for t in instance.transitions if find_glitch(network, t, trials=300)
        ]

    glitching = benchmark.pedantic(run, rounds=1, iterations=1)
    assert glitching == []


def test_hazard_cost_on_suite(benchmark, instances):
    """Suite-level cost of hazard-freedom: Espresso-HF covers vs a
    hazard-oblivious heuristic baseline minimizing the same specification
    (required-cube union per output, same OFF-set, rest don't-care)."""
    from repro.cubes import Cover
    from repro.espresso import espresso
    from repro.hf import espresso_hf

    names = ["dram-ctrl", "pscsi-ircv", "sscsi-isend-bm", "stetson-p3", "pscsi-isend"]

    def run():
        rows = []
        for name in names:
            inst = instances[name]
            hf = espresso_hf(inst).num_cubes
            plain_total = 0
            for j in range(inst.n_outputs):
                req = Cover(
                    inst.n_inputs,
                    [q.cube for q in inst.required_cubes() if q.output == j],
                )
                if req.is_empty:
                    continue
                off = inst.off_for_output(j)
                plain_total += len(espresso(req, off=off))
            rows.append((name, hf, plain_total))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # the multi-output hazard-free cover must stay in the same ballpark as
    # the per-output hazard-oblivious baseline (sharing vs hazard cost)
    for name, hf, plain in rows:
        assert hf > 0 and plain > 0, name


def test_hazard_cost_sweep(benchmark):
    """Random 4-variable sweep: HF minimum >= plain minimum, strictly larger
    on a nontrivial fraction of instances."""

    def run():
        gaps = []
        for seed in range(60):
            inst = random_instance(4, 1, n_transitions=4, seed=seed)
            if not inst.transitions or not hazard_free_solution_exists(inst):
                continue
            hf = exact_hazard_free_minimize(inst)
            plain = minimum_plain_cover(inst)
            gaps.append(hf.num_cubes - len(plain))
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(g >= 0 for g in gaps)
    assert any(g > 0 for g in gaps)
