"""Ablation A9 — the length filter pushed into the index.

Li et al.'s framework (which the paper's similarity-search experiments
build on) can partition records into signature-length groups so the
T-occurrence threshold tightens per group.  This bench measures the trade
on the Tweet workload: candidate counts and query time go down, index size
goes up (more, shorter lists — worse for the metadata-heavy two-layer
schemes).  Answers are identical by construction (asserted).
"""

from repro.bench import grid

EXPERIMENT = grid.ablation_grouping


def test_length_grouping(experiment):
    flat_candidates = experiment.cells["flat"]
    grouped = experiment.cells["grouped"]
    for width, (_, identical) in grouped.items():
        assert identical, width
    best_grouped = min(candidates for candidates, _ in grouped.values())
    assert best_grouped <= flat_candidates
