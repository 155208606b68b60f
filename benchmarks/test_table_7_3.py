"""Table 7.3 — Index Size for Compression Schemes: Similarity Join (MB).

One filter per dataset, as in the paper: Count/DBLP, Prefix/Tweet,
Position/DNA (Jaccard tau = 0.6) and Segment/AOL (edit distance 4).  The
index is built online during the join under Uncomp, Fix, Vari, and Adapt.

Expected shape (paper): all compressed schemes well below Uncomp; Vari the
smallest (it runs the DP); Adapt close behind Vari; Fix the largest of the
compressed trio.  On AOL's very short segment lists Adapt degrades (the
paper measures Adapt *above* Fix there).
"""

import pytest

from repro.bench import grid

EXPERIMENT = grid.table_7_3


@pytest.mark.parametrize("name", ["dblp", "tweet", "dna", "aol"])
def test_join_index_size(experiment, name):
    results = experiment.cells[name]
    sizes = {scheme: result.index_mb for scheme, result in results.items()}
    # every scheme must produce the same join result
    pair_counts = {result.pairs for result in results.values()}
    assert len(pair_counts) == 1

    # shape: Vari compresses at least as well as Fix (it runs the DP)
    assert sizes["vari"] <= sizes["fix"] * 1.01
