"""Ablation A6 — cache-aware metadata layout (§6.2.1).

The paper sketches reorganizing the metadata layer into an implicit
pointer-free tree so each fetched cache line is fully used.  We implement
the Eytzinger (BFS) layout and compare it against plain sorted binary
search on the *access-pattern* level: identical results, identical
O(log n) touch counts, but the tree layout touches array prefixes (the top
levels stay cache-resident) instead of jumping around the sorted array.
"""

import numpy as np

from repro.bench import grid

EXPERIMENT = grid.ablation_cacheaware


def test_cache_aware_metadata_layout(experiment):
    results = experiment.cells["lists"]
    assert all(mismatches == 0 for _, _, mismatches in results)
    for blocks, touches, _ in results:
        assert touches <= np.ceil(np.log2(blocks)) + 1
