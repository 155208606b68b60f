"""Ablation A7 — online compression inside the *search* path.

The paper's conclusion claims the online algorithms generalize to any
workload that builds lists on the fly.  This bench measures that claim in a
streaming-ingest search index (`repro.search.dynamic`): ingestion time and
final index size per online scheme, against (i) the uncompressed dynamic
baseline and (ii) the offline CSS index rebuilt from scratch (the
compression ceiling).
"""

from repro.bench import grid

EXPERIMENT = grid.ablation_dynamic


def test_dynamic_index(experiment):
    table = experiment.cells
    # identical answers across schemes
    hits = {v[2] for k, v in table.items() if v[2] is not None}
    assert len(hits) == 1
    # compression works online in the search path...
    assert table["adapt"][1] < table["uncomp"][1]
    assert table["vari"][1] < table["uncomp"][1]
    # ...paying only the offline-vs-online gap against rebuilt CSS
    assert table["vari"][1] <= 1.5 * table["offline css"][1]
