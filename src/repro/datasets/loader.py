"""Dataset registry: named, scaled, tokenization-ready workloads.

Maps the paper's dataset names (Table 7.1) to the synthetic generators, with
per-dataset tokenization mode (3-grams for DBLP, 6-grams for DNA, words for
Tweet/AOL-words…) and the similarity metric each is used with in Chapter 7.
``REPRO_SCALE`` (environment variable, default 1.0) scales cardinalities so
the whole evaluation suite runs on a laptop; the full-paper cardinalities
are recorded for reference in :data:`PAPER_CARDINALITIES`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from ..similarity.tokenize import TokenizedCollection, tokenize_collection
from .amazon import amazon_like
from .dna import dna_like
from .synthetic import uniform_sets, zipf_sets
from .text import aol_like, dblp_like, tweet_like

__all__ = [
    "Dataset",
    "load_dataset",
    "dataset_names",
    "default_cardinality",
    "repro_scale",
    "PAPER_CARDINALITIES",
]

#: cardinalities the paper reports (Table 7.1 / Section 7.4).
PAPER_CARDINALITIES: Dict[str, int] = {
    "dblp": 10_000_000,
    "tweet": 2_000_000,
    "dna": 1_000_000,
    "aol": 1_200_000,
    "amazon": 8_900_000,
    "zipf": 10_000_000,
    "uniform": 10_000_000,
}

#: laptop-scale defaults at REPRO_SCALE=1.0, preserving the relative sizes.
_BASE_CARDINALITIES: Dict[str, int] = {
    "dblp": 20_000,
    "tweet": 8_000,
    "dna": 3_000,
    "aol": 10_000,
    "amazon": 4_000,
    "zipf": 20_000,
    "uniform": 20_000,
}

_GENERATORS: Dict[str, Callable[[int], List[str]]] = {
    "dblp": lambda n: dblp_like(n, seed=0),
    "tweet": lambda n: tweet_like(n, seed=1),
    "dna": lambda n: dna_like(n, seed=3),
    "aol": lambda n: aol_like(n, seed=2),
    "amazon": lambda n: amazon_like(n, seed=4),
    "zipf": lambda n: zipf_sets(n, seed=5),
    "uniform": lambda n: uniform_sets(n, seed=6),
}

#: (tokenization mode, q) per dataset — Section 7.1.
_TOKENIZATION: Dict[str, tuple] = {
    "dblp": ("qgram", 3),
    "tweet": ("word", 0),
    "dna": ("qgram", 6),
    "aol": ("qgram", 2),
    "amazon": ("word", 0),
    "zipf": ("word", 0),
    "uniform": ("word", 0),
}

#: similarity metric each dataset is evaluated with in Chapter 7.
_METRICS: Dict[str, str] = {
    "dblp": "jaccard",
    "tweet": "jaccard",
    "dna": "jaccard",
    "aol": "ed",
    "amazon": "jaccard",
    "zipf": "jaccard",
    "uniform": "jaccard",
}


def repro_scale() -> float:
    """The global dataset scale factor (``REPRO_SCALE`` env var)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def default_cardinality(name: str) -> int:
    """Scaled cardinality for a named dataset."""
    return max(100, int(_BASE_CARDINALITIES[name] * repro_scale()))


def dataset_names() -> List[str]:
    return sorted(_GENERATORS)


@dataclass
class Dataset:
    """A named, generated, tokenized workload."""

    name: str
    strings: List[str]
    collection: TokenizedCollection
    metric: str
    q: int = 0
    statistics: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = (
            self.collection.lengths
            if self.metric != "ed"
            else np.asarray([len(text) for text in self.strings])
        )
        raw_bytes = sum(len(text) for text in self.strings)
        self.statistics = {
            "cardinality": len(self.strings),
            "average_length": float(np.mean(lengths)) if len(lengths) else 0.0,
            "size_mb": raw_bytes / 1024 / 1024,
            "distinct_tokens": self.collection.num_tokens,
        }


def load_dataset(name: str, cardinality: int = 0) -> Dataset:
    """Generate and tokenize a named dataset (0 = scaled default size)."""
    if name not in _GENERATORS:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {dataset_names()}"
        )
    if cardinality <= 0:
        cardinality = default_cardinality(name)
    strings = _GENERATORS[name](cardinality)
    mode, q = _TOKENIZATION[name]
    collection = tokenize_collection(strings, mode=mode, q=q)
    return Dataset(
        name=name,
        strings=strings,
        collection=collection,
        metric=_METRICS[name],
        q=q,
    )
