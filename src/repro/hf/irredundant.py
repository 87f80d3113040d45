"""Required-cube based IRREDUNDANT (paper §3.6).

A cover redundant with respect to minterms may be irredundant with respect
to required cubes, so the unate-recursive IRREDUNDANT does not apply.
Instead the problem *is* a covering problem — rows are the required cubes,
columns the cover cubes — solved with MINCOV exactly or heuristically.

The covering table is built from the coverage-bitset engine: one memoized
``covered_bits`` mask per cover cube, transposed into rows by iterating set
bits, instead of O(|Q|·|F|) per-pair ``ctx.covers`` calls on every
invocation inside the reduce/expand/irredundant loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cubes.cube import Cube
from repro.hf.context import HFContext, TaggedRequired
from repro.mincov import solve_mincov


def irredundant_cover(
    cubes: List[Cube],
    reqs: Sequence[TaggedRequired],
    ctx: HFContext,
    exact: bool = True,
    node_limit: Optional[int] = None,
) -> List[Cube]:
    """A minimum (or greedily small) subset of ``cubes`` covering ``reqs``.

    ``exact`` selects MINCOV's branch-and-bound; the heuristic mode mirrors
    Espresso's ``mincov`` heuristic option.  The incoming cover must cover
    every required cube (an internal invariant of the algorithm).
    """
    if not reqs:
        return []
    ctx.checkpoint("irredundant")
    cov = ctx.coverage
    positions = cov.positions(reqs)
    sel = cov.selection_mask(reqs)
    # Transpose cube coverage masks into covering rows: row ``pos`` lists
    # the cover cubes (columns) whose mask has bit ``pos`` set.  Column
    # indices come out ascending because the outer loop is ascending.
    cols_by_pos: Dict[int, List[int]] = {}
    for j, c in enumerate(cubes):
        mask = cov.covered_bits(c.inbits, c.outbits) & sel
        while mask:
            low = mask & -mask
            cols_by_pos.setdefault(low.bit_length() - 1, []).append(j)
            mask ^= low
    rows = []
    for q, pos in zip(reqs, positions):
        cols = cols_by_pos.get(pos)
        if not cols:
            raise AssertionError(
                f"cover invariant broken: required cube {q} uncovered"
            )
        rows.append(cols)
    perf = ctx.perf
    perf.mincov_problems += 1
    perf.mincov_rows += len(rows)
    # Fast path: columns demanded by a singleton row are in every
    # feasible solution; if they alone cover all rows, they are the
    # unique minimum and MINCOV has nothing to decide.
    forced = {cols[0] for cols in rows if len(cols) == 1}
    if forced and all(forced.intersection(cols) for cols in rows):
        return [cubes[j] for j in sorted(forced)]
    stats: Dict[str, int] = {}
    chosen = solve_mincov(
        rows,
        len(cubes),
        heuristic=not exact,
        node_limit=node_limit,
        stats=stats,
    )
    perf.mincov_nodes += stats.get("nodes", 0)
    assert chosen is not None
    return [cubes[j] for j in sorted(chosen)]


class IrredundantPass:
    """IRREDUNDANT as a pipeline pass (see :mod:`repro.pipeline`).

    ``final=True`` is the post-MAKE_DHF_PRIME pass: it restores
    irredundancy over the *full* canonical required set (``state.qf``),
    essentials included, instead of the still-uncovered ``state.remaining``.
    """

    name = "irredundant"

    def __init__(self, final: bool = False):
        self.final = final
        if final:
            self.name = "final_irredundant"

    def run(self, state):
        options = state.options
        state.f = irredundant_cover(
            state.f,
            state.qf if self.final else state.remaining,
            state.ctx,
            exact=options.exact_irredundant,
            node_limit=options.irredundant_node_limit,
        )
        return state
