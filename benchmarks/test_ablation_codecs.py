"""Ablation A4 — related-work codecs vs the two-layer schemes.

Chapter 8 surveys the codec families the paper rules out (delta codecs that
must decompress, bitmaps that cannot update online).  This bench puts them
on the same posting lists: size for VByte, Elias-Fano, Roaring, both
PForDelta width rules, MILC, and CSS — plus each codec's random-access
capability, the property that actually disqualifies the sequential codecs
for MergeSkip.
"""

from repro.bench import grid

EXPERIMENT = grid.ablation_codecs


def test_codec_comparison(experiment):
    sizes = {label: mb for label, (mb, _) in experiment.cells.items()}
    access = {label: ra for label, (_, ra) in experiment.cells.items()}
    # the disqualifier the paper leans on: sequential codecs can't seek
    assert not access["vbyte"] and not access["pfordelta"]
    assert access["milc"] and access["css"] and access["eliasfano"]
    # two-layer schemes compress; css beats milc
    assert sizes["css"] <= sizes["milc"] < sizes["uncomp"]
