"""Figure 7.4 — Scalability: Index Size.

Scales the Mann-style synthetic datasets from 20% to 100% and records index
size: (a) similarity search, all four offline schemes on Uniform data;
(b)/(c) similarity join (Position and Count filters) on Zipf data under the
Adapt scheme.

Expected shape (paper): index size grows linearly with dataset cardinality
for both search and join (CSS on Uniform: 45.78 / 91.66 / 137.57 / 183.49 /
214.36 MB at full scale).
"""

import numpy as np
import pytest

from conftest import print_block, scaled, JOIN_CARDINALITY, SEARCH_CARDINALITY
from repro.bench import build_search_index, render_table, run_join
from repro.bench.paper_numbers import FIGURE_7_4_CSS_MB
from repro.datasets import load_dataset
from repro.datasets.loader import repro_scale

FRACTIONS = [0.2, 0.4, 0.6, 0.8, 1.0]
OFFLINE_SCHEMES = ["uncomp", "pfordelta", "milc", "css"]

_search_results = {}
_join_results = {}


def _linear_fit_r2(xs, ys):
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    residual = ((ys - predicted) ** 2).sum()
    total = ((ys - ys.mean()) ** 2).sum()
    return 1 - residual / total if total else 1.0


def test_search_index_size_scaling(benchmark):
    base = scaled(SEARCH_CARDINALITY["uniform"])

    def sweep():
        table = {scheme: [] for scheme in OFFLINE_SCHEMES}
        for fraction in FRACTIONS:
            dataset = load_dataset("uniform", cardinality=int(base * fraction))
            for scheme in OFFLINE_SCHEMES:
                table[scheme].append(
                    build_search_index(dataset, scheme).size_mb
                )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _search_results.update(table)
    # shape: linear growth (paper reports linear scalability) — at full
    # scale; the smoke fractions are 50-250 records, where pfordelta's
    # per-list headers make the first points sub-linear (r2 ~ 0.96)
    if repro_scale() >= 1.0:
        for scheme in OFFLINE_SCHEMES:
            assert _linear_fit_r2(FRACTIONS, table[scheme]) > 0.98, scheme
    # shape: css smallest two-layer index at every size
    for i in range(len(FRACTIONS)):
        assert table["css"][i] <= table["milc"][i] < table["uncomp"][i]


@pytest.mark.parametrize("filter_name", ["position", "count"])
def test_join_index_size_scaling(benchmark, filter_name):
    base = scaled(JOIN_CARDINALITY["zipf"])
    if filter_name == "count":
        base = max(100, base // 2)  # the count filter indexes every token

    def sweep():
        sizes = []
        for fraction in FRACTIONS:
            dataset = load_dataset("zipf", cardinality=int(base * fraction))
            sizes.append(run_join(dataset, filter_name, "adapt", 0.6).index_mb)
        return sizes

    sizes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _join_results[filter_name] = sizes
    assert _linear_fit_r2(FRACTIONS, sizes) > 0.97


def test_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        [scheme] + [round(v, 3) for v in values]
        for scheme, values in _search_results.items()
    ]
    print_block(
        render_table(
            ["scheme"] + [f"{int(f * 100)}%" for f in FRACTIONS],
            rows,
            title="Figure 7.4(a): search index size (MB) on Uniform, 20%..100%",
        )
    )
    rows = [
        [name] + [round(v, 4) for v in values]
        for name, values in _join_results.items()
    ]
    print_block(
        render_table(
            ["join filter (Adapt)"] + [f"{int(f * 100)}%" for f in FRACTIONS],
            rows,
            title="Figure 7.4(b,c): join index size (MB) on Zipf, 20%..100%",
        )
    )
    print_block(
        f"Paper reference: CSS on Uniform scales {FIGURE_7_4_CSS_MB} MB — linear"
    )
