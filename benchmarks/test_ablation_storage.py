"""Ablation A5 — the §6.1 storage model: which scheme/device pairs work.

The Discussion chapter claims the offline two-layer index "dovetails with
SSD": its binary searches are a handful of random page reads, which SSDs
serve at near-sequential speed, while a spinning disk pays a full seek per
probe (favoring streaming codecs).  This bench evaluates the first-order
device model across posting-list lengths from 10^4 to 3*10^6 and prints the
modeled per-lookup latency for every (scheme, device) pair — the crossover
where the two-layer layout overtakes streaming PForDelta on SSD is the
chapter's argument, quantified.
"""

from repro.bench import grid

EXPERIMENT = grid.ablation_storage


def test_storage_model(experiment):
    # §6.1's shape, at the 3M-element scale of the paper's corpora:
    us = {key[1:]: v for key, v in experiment.cells.items() if key[0] == 3_000_000}
    # (i) on SSD/DRAM the two-layer probe pattern beats both alternatives
    for device in ("ssd", "dram"):
        assert us[("twolayer", device)] <= us[("uncomp", device)]
        assert us[("twolayer", device)] < us[("pfordelta", device)]
    # (ii) on HDD the seek-bound probes lose to the streaming codec —
    # the two-layer benefit is specific to SSD/DRAM, as §6.1 says
    assert us[("pfordelta", "hdd")] < us[("twolayer", "hdd")]
