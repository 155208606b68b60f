"""Ablation A9 — the length filter pushed into the index.

Li et al.'s framework (which the paper's similarity-search experiments
build on) can partition records into signature-length groups so the
T-occurrence threshold tightens per group.  This bench measures the trade
on the Tweet workload: candidate counts and query time go down, index size
goes up (more, shorter lists — worse for the metadata-heavy two-layer
schemes).  Answers are identical by construction (asserted).
"""

import time

from conftest import print_block, search_dataset
from repro.bench import render_table, sample_queries
from repro.search import InvertedIndex, JaccardSearcher
from repro.search.grouped import GroupedJaccardSearcher, LengthGroupedIndex

WIDTHS = [0.1, 0.25, 0.5, 1.0]
THRESHOLD = 0.7


def test_length_grouping(benchmark, query_count):
    dataset = search_dataset("tweet")
    queries = sample_queries(dataset, max(10, query_count // 2))

    def sweep():
        flat_index = InvertedIndex(dataset.collection, scheme="css")
        flat = JaccardSearcher(flat_index, algorithm="mergeskip")
        start = time.perf_counter()
        flat_answers = [flat.search(q, THRESHOLD) for q in queries]
        flat_seconds = time.perf_counter() - start
        flat_candidates = sum(a.stats.candidates for a in flat_answers)
        rows = [
            [
                "flat",
                round(flat_index.size_mb(), 4),
                flat_candidates,
                round(1000 * flat_seconds / len(queries), 2),
            ]
        ]
        for width in WIDTHS:
            index = LengthGroupedIndex(
                dataset.collection, scheme="css", group_width=width
            )
            searcher = GroupedJaccardSearcher(index, algorithm="mergeskip")
            start = time.perf_counter()
            answers = [searcher.search(q, THRESHOLD) for q in queries]
            seconds = time.perf_counter() - start
            assert answers == flat_answers, width
            candidates = sum(a.stats.candidates for a in answers)
            rows.append(
                [
                    f"grouped w={width} ({index.num_groups()} groups)",
                    round(index.size_bits() / 8 / 1024 / 1024, 4),
                    candidates,
                    round(1000 * seconds / len(queries), 2),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_block(
        render_table(
            ["index", "size MB", "candidates", "ms/query"],
            rows,
            title=(
                f"Ablation A9: length-grouped index (Tweet, tau={THRESHOLD})"
            ),
        )
    )
    flat_candidates = rows[0][2]
    best_grouped = min(row[2] for row in rows[1:])
    assert best_grouped <= flat_candidates
