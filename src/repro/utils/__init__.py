"""Small shared utilities: unit helpers, deterministic RNG, validation."""

from repro.utils.units import (
    GB,
    MB,
    KB,
    GIB,
    MIB,
    KIB,
    gb_to_bytes,
    tera,
    giga,
)
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.validation import check_positive, check_in

__all__ = [
    "GB",
    "MB",
    "KB",
    "GIB",
    "MIB",
    "KIB",
    "gb_to_bytes",
    "tera",
    "giga",
    "make_rng",
    "spawn_rngs",
    "check_positive",
    "check_in",
]
