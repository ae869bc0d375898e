"""Unit constants and conversion helpers.

The simulator keeps all internal quantities in SI base units:

* time in **seconds**
* memory and data volume in **bytes**
* compute in **FLOP** (floating point operations) and FLOP/s
* bandwidth in **bytes/second**

These helpers exist so that calibration constants in the hardware catalog can
be written in the units people actually quote (GB, TFLOP/s, GB/s, Gbit/s)
without sprinkling magic multipliers through the code.
"""

from __future__ import annotations

# Decimal (vendor-style) units -- GPU memory sizes and bandwidths are quoted
# with decimal prefixes in datasheets.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# Binary units, used by the KV-cache block managers which count real bytes.
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

TERA = 1e12
GIGA = 1e9


def tera(x: float) -> float:
    """Convert a value quoted in tera-units (e.g. TFLOP/s) to base units."""
    return x * TERA


def giga(x: float) -> float:
    """Convert a value quoted in giga-units (e.g. GB/s) to base units."""
    return x * GIGA


def gb_to_bytes(gb: float) -> int:
    """Convert decimal gigabytes to bytes (rounded down to an integer)."""
    return int(gb * GB)


def gbit_per_s_to_bytes_per_s(gbit: float) -> float:
    """Convert a link speed quoted in Gbit/s to bytes/s."""
    return gbit * 1e9 / 8.0
