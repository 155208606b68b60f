"""Table 7.4 — Case Study: Amazon Review index sizes.

The paper's case study: on the Amazon Reviews corpus the uncompressed (and
PForDelta) search indexes exceed the machine's 16 GB of memory, forcing
disk-based algorithms, while MILC/CSS (search) and Vari/Adapt (join) fit
comfortably.  We reproduce the regime at scale: the same schemes, the same
orderings, and the derived memory-budget multiple.
"""

from repro.bench import grid
from repro.datasets.loader import repro_scale

EXPERIMENT = grid.table_7_4


def test_search_index_sizes(experiment):
    sizes = experiment.cells["search"]
    assert sizes["css"] <= sizes["milc"] < sizes["uncomp"]
    # the case study's point: CSS is several times below Uncomp, so a memory
    # budget that Uncomp overflows still fits the CSS index — once lists are
    # long enough to amortize their 69-bit metadata blocks, which the
    # 100-record smoke corpus's are not (ratio ~1.85)
    if repro_scale() >= 1.0:
        assert sizes["uncomp"] / sizes["css"] > 2


def test_join_index_sizes(experiment):
    sizes = experiment.cells["join"]
    assert sizes["vari"] < sizes["uncomp"]
    assert sizes["adapt"] < sizes["uncomp"]
