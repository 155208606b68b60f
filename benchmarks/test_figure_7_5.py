"""Figure 7.5 — Scalability: Execution Time.

(a) similarity search: MergeSkip over the CSS index on Uniform data,
20%..100% of the base cardinality; (b) similarity join: Position Filter over
the Adapt scheme on Zipf data.

Expected shape (paper): search time grows roughly linearly with data size;
join time grows superlinearly ("quadratic, consistent with the increasing
search space").
"""

from repro.bench import grid

EXPERIMENT = grid.figure_7_5


def test_search_time_scaling(experiment):
    times = [timing.median for timing in experiment.cells["search_ms"]]
    # shape: more data -> more work; full size costs more than 20%
    assert times[-1] > times[0]


def test_join_time_scaling(experiment):
    times = [timing.median for timing in experiment.cells["join_s"]]
    # shape: superlinear growth — 5x the data costs clearly more than 5x 20%'s
    assert times[-1] > times[0] * 3
