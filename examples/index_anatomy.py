#!/usr/bin/env python
"""Anatomy of a compressed index: where do the bits go?

Uses the introspection API to dissect MILC vs CSS layouts on skewed data —
block-size and delta-width histograms, metadata share — and the §6.1
storage model to show on which device each layout makes sense.  This is the
analysis a deployment runs before choosing a scheme.

Run:  python examples/index_anatomy.py [cardinality]
"""

import sys

from repro import InvertedIndex, tokenize_collection
from repro.compression.introspect import format_histogram, index_layout
from repro.compression.storage import DRAM, HDD, SSD, estimate_lookup_us
from repro.datasets import dna_like


def main() -> None:
    cardinality = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    print(f"generating {cardinality} DNA reads (the paper's skewest regime)...")
    collection = tokenize_collection(dna_like(cardinality), mode="qgram", q=6)

    for scheme in ("milc", "css"):
        index = InvertedIndex(collection, scheme=scheme)
        stats = index_layout(index)
        print(f"\n=== {scheme.upper()} layout ===")
        print(f"  lists: {stats.num_lists}, postings: {stats.num_elements}")
        print(
            f"  blocks: {stats.num_blocks} "
            f"(avg {stats.average_block_size:.1f} elements)"
        )
        print(
            f"  bits: {stats.metadata_bits} metadata + {stats.data_bits} data "
            f"({stats.metadata_fraction:.0%} metadata)"
        )
        print(f"  compression ratio: {stats.compression_ratio:.2f}")
        print(
            "  block sizes: "
            + format_histogram(stats.block_size_histogram, [4, 16, 64, 256])
        )
        print(
            "  delta widths: "
            + format_histogram(stats.width_histogram, [4, 8, 12, 16])
        )

    print("\n=== modeled lookup latency on the longest list ===")
    longest_token = max(
        InvertedIndex(collection, scheme="css").lists.items(),
        key=lambda item: len(item[1]),
    )[0]
    print(f"{'scheme':>8} | {'dram us':>8} | {'ssd us':>7} | {'hdd us':>9}")
    print("-" * 42)
    for scheme in ("uncomp", "pfordelta", "milc", "css"):
        lst = InvertedIndex(collection, scheme=scheme).lists[longest_token]
        costs = [
            estimate_lookup_us(lst, device) for device in (DRAM, SSD, HDD)
        ]
        print(
            f"{scheme:>8} | {costs[0]:>8.2f} | {costs[1]:>7.1f} | "
            f"{costs[2]:>9.0f}"
        )
    print(
        "\nreading: every random-probe scheme pays seeks on HDD (the paper's"
        "\n§6.1: the two-layer layout is an SSD/DRAM design).  At this demo"
        "\nscale lists are short, so streaming codecs still look cheap; the"
        "\ncrossover where the two-layer probes win sits near 10^6-element"
        "\nlists — `pytest benchmarks/test_ablation_storage.py -s` prints it."
    )


if __name__ == "__main__":
    main()
