"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.similarity import tokenize_collection


@pytest.fixture(scope="session", autouse=True)
def _lock_sanitizer():
    """Run the suite under the RA10 lock sanitizer when REPRO_SANITIZE=1.

    The CI ``sanitize`` job sets the flag and replays the serve/engine
    suites with every guarded class asserting lock ownership on writes
    (see ``repro.analysis.sanitize``); a bare ``pytest`` run is unaffected.
    """
    if os.environ.get("REPRO_SANITIZE") != "1":
        yield
        return
    from repro.analysis import sanitize

    sanitize.install()
    try:
        yield
    finally:
        sanitize.uninstall()


@pytest.fixture
def two_usable_cpus(monkeypatch):
    """Let a ``workers=2`` batch fork on any host: pools never run more
    workers than the CPUs this process may use."""
    from repro.core import fork

    monkeypatch.setattr(fork, "usable_cpus", lambda: 2)


#: the running-example list of Figure 2.2, reconstructed from Examples 1-3.
FIGURE_2_2_LIST = [
    3, 6, 11, 12, 13, 16, 989, 990, 992, 1000, 1020, 1042,
    8015, 8101, 8105, 8240, 8401, 8502, 8622, 8701, 8706,
]

#: the online running example of Examples 4-5 (Figure 5.1).
EXAMPLE_5_LIST = [
    15, 17, 18, 19, 20, 23, 33, 37, 39, 40, 4058, 4152, 4156, 4230, 4235,
]


@pytest.fixture
def rng():
    return np.random.default_rng(20220711)


@pytest.fixture
def random_ids(rng):
    """A medium-sized sorted unique id array."""
    return np.unique(rng.integers(0, 500_000, size=4000))


@pytest.fixture
def clustered_ids(rng):
    """Runs of near-consecutive ids separated by large jumps (skewed lists)."""
    chunks, base = [], 0
    for _ in range(60):
        base += int(rng.integers(5_000, 80_000))
        run = np.cumsum(rng.integers(1, 5, size=int(rng.integers(4, 40))))
        chunks.append(base + run)
    return np.concatenate(chunks)


def _make_word_strings(seed: int, count: int) -> list:
    gen = np.random.default_rng(seed)
    vocab = [f"tok{i}" for i in range(120)]
    weights = np.arange(1, 121, dtype=float) ** -0.8
    weights /= weights.sum()
    strings = []
    for _ in range(count):
        size = int(gen.integers(2, 9))
        words = gen.choice(vocab, size=size, replace=False, p=weights)
        strings.append(" ".join(words))
    return strings


@pytest.fixture(scope="session")
def word_strings():
    base = _make_word_strings(5, 120)
    return base + [s + " tok0" for s in base[:25]] + base[:8]


@pytest.fixture(scope="session")
def word_collection(word_strings):
    return tokenize_collection(word_strings, mode="word")


@pytest.fixture(scope="session")
def char_strings():
    gen = np.random.default_rng(9)
    strings = [
        "".join(gen.choice(list("abcdef"), size=int(gen.integers(3, 14))))
        for _ in range(150)
    ]
    return strings + [s + "a" for s in strings[:25]] + ["", "a"]


@pytest.fixture(scope="session")
def qgram_collection(char_strings):
    return tokenize_collection(char_strings, mode="qgram", q=2)
