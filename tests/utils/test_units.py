"""Tests for unit constants and conversions."""

import pytest

from repro.utils import units


def test_decimal_constants():
    assert units.KB == 1_000
    assert units.MB == 1_000_000
    assert units.GB == 1_000_000_000


def test_binary_constants():
    assert units.KIB == 1024
    assert units.MIB == 1024**2
    assert units.GIB == 1024**3


def test_tera_and_giga():
    assert units.tera(1.5) == pytest.approx(1.5e12)
    assert units.giga(2.0) == pytest.approx(2.0e9)


def test_gb_bytes_roundtrip():
    assert units.gb_to_bytes(80) == 80_000_000_000


def test_gb_to_bytes_fractional_rounds_down():
    assert units.gb_to_bytes(0.5) == 500_000_000


def test_gbit_link_conversion():
    # A 100 Gbit/s LAN moves 12.5 GB/s.
    assert units.gbit_per_s_to_bytes_per_s(100.0) == pytest.approx(12.5e9)
