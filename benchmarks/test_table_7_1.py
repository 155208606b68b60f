"""Table 7.1 — Statistics of Datasets.

Regenerates the dataset-statistics table for the synthetic stand-ins at the
configured scale, alongside the paper's full-scale numbers.
"""

from repro.bench import grid

EXPERIMENT = grid.table_7_1


def test_table_7_1(experiment):
    stats = experiment.cells
    # shape check: DNA has by far the longest signatures, as in the paper
    lengths = {name: s["average_length"] for name, s in stats.items()}
    assert lengths["dna"] == max(lengths.values())
    assert all(s["cardinality"] >= 100 for s in stats.values())
