"""Figure 7.2 — Comparison of Execution Time: Similarity Search.

Per dataset, sweeps the threshold and times the paper's five method
combinations: ScanCount on Uncomp and PForDelta, MergeSkip on Uncomp, MILC,
and CSS.  (AOL uses edit distance with delta = 1..4; the others use Jaccard.)

Expected shape (paper): MergeSkip over MILC/CSS tracks MergeSkip over
Uncomp closely (compression does not hurt query time).  Substrate note,
recorded in EXPERIMENTS.md: in pure Python ScanCount vectorizes with numpy
while MergeSkip's heap does not, so the absolute SC-vs-MS comparison is
substrate-biased; the scheme-vs-scheme comparisons within one algorithm are
the meaningful, reproduced signal.
"""

import pytest

from conftest import print_block, search_dataset, search_index
from repro.bench import render_table, run_search_queries, sample_queries
from repro.bench.paper_numbers import FIGURE_7_2_TWEET_MS

JACCARD_THRESHOLDS = [0.65, 0.7, 0.75, 0.8, 0.85]
ED_THRESHOLDS = [1, 2, 3]
COMBOS = [
    ("uncomp", "scancount"),
    ("pfordelta", "scancount"),
    ("uncomp", "mergeskip"),
    ("milc", "mergeskip"),
    ("css", "mergeskip"),
]
DATASETS = ["dblp", "tweet", "dna", "aol"]

_results = {}


def _thresholds(name):
    return ED_THRESHOLDS if name == "aol" else JACCARD_THRESHOLDS


def _metric(name):
    return "ed" if name == "aol" else "jaccard"


@pytest.mark.parametrize("name", DATASETS)
def test_query_time(benchmark, name, query_count):
    dataset = search_dataset(name)
    queries = sample_queries(dataset, query_count)
    indexes = {scheme: search_index(name, scheme).index for scheme, _ in COMBOS}

    def sweep():
        table = {}
        for scheme, algorithm in COMBOS:
            for threshold in _thresholds(name):
                cell = run_search_queries(
                    indexes[scheme],
                    queries,
                    threshold,
                    algorithm,
                    metric=_metric(name),
                )
                table[(scheme, algorithm, threshold)] = cell
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _results[name] = table

    # all five methods must return identical result counts at each threshold
    for threshold in _thresholds(name):
        counts = {
            table[(scheme, algorithm, threshold)]["total_results"]
            for scheme, algorithm in COMBOS
        }
        assert len(counts) == 1, (name, threshold, counts)

    # shape: MergeSkip on compressed lists is the same order of magnitude as
    # on uncompressed lists (paper: 24.6 vs 30.0 vs 33.6 ms on Tweet)
    mid = _thresholds(name)[len(_thresholds(name)) // 2]
    uncomp_ms = table[("uncomp", "mergeskip", mid)]["avg_ms"]
    for scheme in ("milc", "css"):
        assert table[(scheme, "mergeskip", mid)]["avg_ms"] < 30 * uncomp_ms + 5


def test_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, table in _results.items():
        rows = []
        for scheme, algorithm in COMBOS:
            label = ("SC" if algorithm == "scancount" else "MS") + f"-{scheme}"
            rows.append(
                [label]
                + [
                    round(table[(scheme, algorithm, t)]["avg_ms"], 2)
                    for t in _thresholds(name)
                ]
            )
        header = ["method"] + [f"t={t}" for t in _thresholds(name)]
        print_block(
            render_table(
                header,
                rows,
                title=f"Figure 7.2 ({name}): avg query time (ms) per threshold",
            )
        )
    if "tweet" in _results:
        paper = FIGURE_7_2_TWEET_MS
        print_block(
            "Paper reference (Tweet, tau=0.75): "
            f"MS-uncomp {paper['uncomp_ms']} ms, MS-milc {paper['milc_ms']} ms, "
            f"MS-css {paper['css_ms']} ms"
        )
