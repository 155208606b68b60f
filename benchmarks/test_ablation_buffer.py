"""Ablation A2 — Vari's uncompressed-region capacity.

Theorem 1 bounds the optimal block cardinality by 2|M| = 138, which the
paper uses as Vari's buffer capacity.  This bench sweeps the capacity:
smaller buffers clip the DP's view (worse compression), larger buffers
cannot help (the optimum never needs more context) but cost more DP time.
"""

from repro.bench import grid
from repro.compression.online import THEOREM_1_BUFFER

EXPERIMENT = grid.ablation_buffer


def test_buffer_capacity_sweep(experiment):
    bits = {capacity: bits for capacity, (_, bits) in experiment.cells.items()}
    # Beyond the Theorem 1 bound extra capacity buys under 1%: Theorem 1
    # bounds *block* cardinality, and the only residual gain from a larger
    # window is slightly better first-block boundary placement.
    theorem_bits = bits[THEOREM_1_BUFFER]
    for capacity in (276, 552):
        assert bits[capacity] >= theorem_bits * 0.99
    # a tiny buffer visibly clips the DP
    assert bits[8] > theorem_bits
