"""Table 7.2 — Index Size for Compression Schemes: Similarity Search (MB).

Builds the offline inverted index of every dataset under Uncomp, PForDelta,
MILC, and CSS, and reports sizes under the paper's bit-accounting model.

Expected shape (paper): CSS < MILC < PForDelta < Uncomp, with CSS's edge
over MILC widest on the skewed DNA lists.  Measured deviation we document in
EXPERIMENTS.md: a modern cost-optimal PForDelta can out-compress the
two-layer layouts on dense gap streams; the classic original-spec PForDelta
used here loses to CSS on the word-token datasets, as in the paper.
"""

import pytest

from repro.bench import grid
from repro.datasets.loader import repro_scale

EXPERIMENT = grid.table_7_2


@pytest.mark.parametrize("name", ["dblp", "tweet", "dna", "aol"])
def test_index_sizes(experiment, name):
    sizes = experiment.cells[name]
    # shape assertions (paper's headline ordering)
    assert sizes["css"] <= sizes["milc"] < sizes["uncomp"]
    # pfordelta's fixed per-list header outweighs its packing on the
    # few-element lists of the smoke-scale DNA corpus
    if repro_scale() >= 1.0:
        assert sizes["pfordelta"] < sizes["uncomp"]
    # the paper's DNA compression ratio for CSS is ~4.8; ours must at least
    # show CSS's clear advantage over the fixed-length scheme on skewed data
    if name == "dna":
        assert sizes["css"] < 0.98 * sizes["milc"]
