"""Figure 7.2 — Comparison of Execution Time: Similarity Search.

Per dataset, sweeps the threshold and times the paper's five method
combinations: ScanCount on Uncomp and PForDelta, MergeSkip on Uncomp, MILC,
and CSS.  (AOL uses edit distance with delta = 1..3; the others use Jaccard.)

Expected shape (paper): MergeSkip over MILC/CSS tracks MergeSkip over
Uncomp closely (compression does not hurt query time).  Substrate note,
recorded in EXPERIMENTS.md: in pure Python ScanCount vectorizes with numpy
while MergeSkip's heap does not, so the absolute SC-vs-MS comparison is
substrate-biased; the scheme-vs-scheme comparisons within one algorithm are
the meaningful, reproduced signal.
"""

import pytest

from repro.bench import grid

EXPERIMENT = grid.figure_7_2


@pytest.mark.parametrize("name", ["dblp", "tweet", "dna", "aol"])
def test_query_time(experiment, name):
    table = experiment.cells[name]
    thresholds = sorted({t for _, _, t in table})

    # all five methods must return identical result counts at each threshold
    for threshold in thresholds:
        counts = {
            cell["total_results"]
            for (_, _, t), cell in table.items()
            if t == threshold
        }
        assert len(counts) == 1, (name, threshold, counts)

    # shape: MergeSkip on compressed lists is the same order of magnitude as
    # on uncompressed lists (paper: 24.6 vs 30.0 vs 33.6 ms on Tweet)
    mid = thresholds[len(thresholds) // 2]
    uncomp_ms = table[("uncomp", "mergeskip", mid)]["ms"].median
    for scheme in ("milc", "css"):
        assert table[(scheme, "mergeskip", mid)]["ms"].median < 30 * uncomp_ms + 5
