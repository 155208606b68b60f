"""Shape tests for the paper's Chapter 7, one file per DESIGN.md §4 row.

Each file names its ``repro.bench`` function as ``EXPERIMENT``; the
module-scoped ``experiment`` fixture runs it once at ``REPRO_SCALE``
(default 1.0), prints its markdown (``pytest <file> -s``) and hands the
result to the file's assertions.  Absolute numbers differ from the paper
(Python vs C++, synthetic vs real corpora, scaled cardinalities); the
*shape* — orderings and trends — is what reproduces.
"""

from __future__ import annotations

import pytest

from repro.bench import render_experiment
from repro.datasets.loader import repro_scale


@pytest.fixture(scope="module")
def experiment(request):
    result = request.module.EXPERIMENT(repro_scale())
    print("\n" + render_experiment(result) + "\n")
    return result
