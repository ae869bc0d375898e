"""Benchmark-suite configuration.

Every file in this directory regenerates one table or figure of the paper's
evaluation (the ``repro.experiments`` docstring maps each to the function that
runs it).  The simulation-backed benchmarks run each experiment exactly once
per benchmark round (``rounds=1``) -- the interesting output is the
reproduced numbers, which are attached to ``benchmark.extra_info`` (and
therefore land in the pytest-benchmark JSON) and printed when running with
``-s``.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items):
    """Every test in this directory is a benchmark: tag it ``bench`` + ``slow``.

    This keeps the fast tier (``pytest -m "not slow"``) free of the
    multi-second figure regenerations without annotating every file.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.bench)
            item.add_marker(pytest.mark.slow)
