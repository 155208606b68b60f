"""Figure 7.1 — Index Time for Similarity Search.

Times offline index construction per scheme.  Expected shape (paper): MILC
builds about as fast as Uncomp; CSS pays a visible (but offline, hence
acceptable) dynamic-programming overhead.
"""

import pytest

from repro.bench import grid

EXPERIMENT = grid.figure_7_1


@pytest.mark.parametrize("name", ["dblp", "tweet", "dna", "aol"])
def test_index_build_time(experiment, name):
    times = experiment.cells[name]
    # shape: the CSS dynamic program dominates construction time
    assert times["css"].median >= times["milc"].median
