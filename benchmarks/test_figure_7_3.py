"""Figure 7.3 — Comparison of Execution Time: Similarity Join.

Sweeps the join threshold for each (filter, dataset) pairing of Table 7.3
and times the end-to-end join (online index construction included, per
Section 2.1) under Uncomp, Fix, Vari, and Adapt.

Expected shape (paper): all compressed schemes within a modest factor of
Uncomp; Vari the slowest (per-seal dynamic programming); Adapt tracking
Uncomp closely and occasionally beating it.
"""

import statistics

import pytest

from repro.bench import grid

EXPERIMENT = grid.figure_7_3


@pytest.mark.parametrize("name", ["dblp", "tweet", "dna", "aol"])
def test_join_time(experiment, name):
    table = experiment.cells[name]
    thresholds = sorted({t for _, t in table})
    schemes = sorted({s for s, _ in table})
    for threshold in thresholds:
        pair_counts = {table[(scheme, threshold)].pairs for scheme in schemes}
        assert len(pair_counts) == 1, (name, threshold)
    # shape: compressed join time within a modest factor of Uncomp —
    # compared on per-scheme medians across thresholds of each cell's
    # median, since single cells are noisy
    medians = {
        scheme: statistics.median(
            table[(scheme, t)].time.median for t in thresholds
        )
        for scheme in schemes
    }
    for scheme in ("fix", "adapt"):
        assert medians[scheme] < 5 * medians["uncomp"] + 1.0, (name, medians)
