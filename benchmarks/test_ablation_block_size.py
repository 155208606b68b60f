"""Ablation A1 — MILC/Fix block size sweep.

The fixed-length schemes take the block cardinality ``m`` as a
hyper-parameter (the paper's Example 1 uses m = 8; Section 5.3 motivates
Adapt precisely by the difficulty of tuning such knobs).  This bench sweeps
``m`` and shows (i) the size U-curve — small blocks drown in metadata, large
blocks absorb skew — and (ii) that CSS's DP sits at or below the best fixed
choice without tuning.
"""

from repro.bench import grid

EXPERIMENT = grid.ablation_block_size


def test_block_size_sweep(experiment):
    sizes = dict(experiment.cells)
    css = sizes.pop("css")
    best_fixed = min(sizes.values())
    # CSS needs no tuning yet matches or beats the best fixed block size
    assert css <= best_fixed * 1.02
    # extreme block sizes are visibly worse than the best
    assert max(sizes.values()) > best_fixed * 1.1
