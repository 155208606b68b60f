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

from conftest import print_block, search_dataset, search_index
from repro.bench import render_table
from repro.bench.paper_numbers import TABLE_7_2_MB
from repro.datasets.loader import repro_scale

DATASETS = ["dblp", "tweet", "dna", "aol"]
SCHEMES = ["uncomp", "pfordelta", "milc", "css"]

_results = {}


@pytest.mark.parametrize("name", DATASETS)
def test_index_sizes(benchmark, name):
    def build_all():
        return {scheme: search_index(name, scheme) for scheme in SCHEMES}

    built = benchmark.pedantic(build_all, rounds=1, iterations=1)
    sizes = {scheme: result.size_mb for scheme, result in built.items()}
    _results[name] = sizes
    for scheme, size in sizes.items():
        benchmark.extra_info[f"{scheme}_mb"] = round(size, 3)

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


def test_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name in DATASETS:
        if name not in _results:
            continue
        measured = _results[name]
        paper = TABLE_7_2_MB[name]
        rows.append(
            [name]
            + [measured[s] for s in SCHEMES]
            + [paper[s] for s in SCHEMES]
        )
    print_block(
        render_table(
            ["dataset"]
            + [f"{s}_mb" for s in SCHEMES]
            + [f"paper_{s}" for s in SCHEMES],
            rows,
            title="Table 7.2: Index Size, Similarity Search (measured | paper)",
        )
    )
