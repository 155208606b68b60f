"""Ablation A3 — Adapt vs the full KDE benefit model (Section 5.3).

The paper proposes the KDE benefit-estimation model, observes its overhead,
and ships the O(1) Adapt approximation.  This bench quantifies the trade on
real posting-list streams: compression achieved and time spent per scheme
(Fix / Vari / Adapt / Model).
"""

from repro.bench import grid

EXPERIMENT = grid.ablation_model


def test_adapt_vs_model(experiment):
    table = experiment.cells
    # the paper's justification for Adapt, quantified:
    # (i) Adapt is drastically cheaper to run than the full KDE model
    assert table["adapt"][0].median < table["model"][0].median
    # (ii) Adapt compresses within a modest factor of the DP-based Vari
    assert table["adapt"][1] <= table["vari"][1] * 1.4
