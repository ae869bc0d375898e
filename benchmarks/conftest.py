"""Benchmark-suite configuration.

``test_claims.py`` checks every row of the paper's claims table
(:mod:`repro.experiments.claims`) and records the reproduced numbers in
``benchmark.extra_info``, so they land in the pytest-benchmark JSON.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items):
    """Tag every test in this directory ``bench``; the test module marks its serving rows ``slow``."""
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.bench)
