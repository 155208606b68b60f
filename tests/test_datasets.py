"""Tests for the synthetic dataset generators and the registry."""

import numpy as np
import pytest

from repro.datasets import (
    PAPER_CARDINALITIES,
    amazon_like,
    aol_like,
    dataset_names,
    dblp_like,
    default_cardinality,
    dna_like,
    load_dataset,
    tweet_like,
    uniform_sets,
    zipf_sets,
)

GENERATORS = [dblp_like, tweet_like, aol_like, dna_like, amazon_like]


@pytest.mark.parametrize("generator", GENERATORS)
class TestGeneratorContracts:
    def test_cardinality_respected(self, generator):
        assert len(generator(157)) == 157

    def test_deterministic(self, generator):
        assert generator(60) == generator(60)

    def test_strings_non_empty_mostly(self, generator):
        strings = generator(200)
        non_empty = sum(1 for s in strings if s)
        assert non_empty >= 195

    def test_different_seeds_differ(self, generator):
        assert generator(50, seed=1) != generator(50, seed=2)


class TestGeneratorRegimes:
    def test_dblp_has_near_duplicates(self):
        """The planted variants must surface as high-similarity join pairs."""
        from repro.join import PrefixFilterJoin
        from repro.similarity import tokenize_collection

        coll = tokenize_collection(dblp_like(400), mode="word")
        assert PrefixFilterJoin(coll).join(0.8)

    def test_dna_alphabet(self):
        for read in dna_like(50):
            assert set(read) <= set("ACGT")

    def test_dna_average_length(self):
        reads = dna_like(300, average_length=103)
        mean = np.mean([len(r) for r in reads])
        assert 80 < mean < 130

    def test_aol_short_queries(self):
        queries = aol_like(500)
        mean = np.mean([len(q) for q in queries])
        assert 5 < mean < 40

    def test_tweet_token_counts(self):
        posts = tweet_like(300)
        mean = np.mean([len(p.split()) for p in posts])
        assert 10 < mean < 30

    def test_amazon_long_records(self):
        reviews = amazon_like(100)
        mean = np.mean([len(r.split()) for r in reviews])
        assert 20 < mean < 130

    def test_zipf_sets_skewed(self):
        from collections import Counter

        records = zipf_sets(500, average_size=20, universe=5000)
        counts = Counter(t for r in records for t in r.split())
        frequencies = sorted(counts.values(), reverse=True)
        assert frequencies[0] > 10 * frequencies[len(frequencies) // 2]

    def test_uniform_sets_parameters(self):
        records = uniform_sets(400, average_size=25, universe=150)
        sizes = [len(r.split()) for r in records]
        assert 20 < np.mean(sizes) < 30
        tokens = {int(t) for r in records for t in r.split()}
        assert max(tokens) < 150

    def test_set_records_are_unique_tokens(self):
        for record in zipf_sets(100, average_size=30, universe=1000):
            tokens = record.split()
            assert len(tokens) == len(set(tokens))


class TestRegistry:
    def test_names(self):
        assert set(dataset_names()) == {
            "dblp", "tweet", "dna", "aol", "amazon", "zipf", "uniform",
        }

    def test_paper_cardinalities_recorded(self):
        assert PAPER_CARDINALITIES["dblp"] == 10_000_000

    def test_default_cardinality_positive(self):
        for name in dataset_names():
            assert default_cardinality(name) >= 100

    def test_load_dataset(self):
        ds = load_dataset("tweet", cardinality=300)
        assert len(ds.strings) == 300
        assert ds.metric == "jaccard"
        assert ds.collection.mode == "word"
        assert ds.statistics["cardinality"] == 300
        assert ds.statistics["average_length"] > 0

    def test_load_qgram_dataset(self):
        ds = load_dataset("dna", cardinality=100)
        assert ds.collection.mode == "qgram"
        assert ds.q == 6

    def test_aol_uses_edit_distance(self):
        ds = load_dataset("aol", cardinality=100)
        assert ds.metric == "ed"
        # edit-distance statistics use character lengths
        assert ds.statistics["average_length"] == pytest.approx(
            np.mean([len(s) for s in ds.strings])
        )

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            load_dataset("wikipedia")

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        from repro.datasets.loader import repro_scale

        assert repro_scale() == 0.5
        assert default_cardinality("dblp") == 10_000
