"""Tiny argument-validation helpers used across the package.

Keeping validation in one place gives consistent error messages and keeps the
hot simulation paths free of ad-hoc ``assert`` statements (which disappear
under ``python -O``).
"""

from __future__ import annotations

from typing import Any, Iterable


class ConfigError(ValueError):
    """A deployment spec failed validation; the message names the field."""


def is_number(value: Any) -> bool:
    """An int or a float, but not a bool (``True`` is an int to Python)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_integer(value: Any) -> bool:
    """An int, but not a bool: ``0.5``, ``2.0`` and ``True`` all fail."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_in(name: str, value: Any, allowed: Iterable[Any]) -> Any:
    """Raise ``ValueError`` unless ``value`` is a member of ``allowed``."""
    allowed = list(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return value
