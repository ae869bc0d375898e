"""Time-series recording of per-device resource usage.

The dynamic-behaviour figure of the paper (Fig. 14) plots, over wall-clock
time, each device's KV-cache utilization and the number of Attention heads it
is serving.  :class:`TimeSeriesRecorder` collects arbitrary named per-device
series at irregular timestamps and can resample them to a regular grid for
plotting or for assertions in tests.  Execution units write those two series
themselves, and only when a value moves
(:meth:`~repro.sim.batching.ContinuousBatchingUnit.observe`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class TimeSeriesRecorder:
    """Append-only store of (time, value) samples per (series, key).

    A series is piecewise constant between samples (``resample`` carries the
    last observation forward), so a writer may skip a sample equal to its
    key's previous one without changing any query but ``raw``: the units
    write their per-device series that way, one sample per change.

    ``max_samples_per_key`` caps memory for long runs: when a key's sample
    list exceeds the cap it is thinned to every other point (the newest sample
    is always kept, so ``last_value`` stays exact), giving an effective rollup
    that coarsens as the run grows.  ``max_value`` stays exact under thinning
    -- a running maximum is tracked per key at record time -- while
    ``resample`` becomes an approximation at the thinned resolution.  Since
    units write only changed samples, thinning sees only those.
    ``samples_dropped`` counts the points discarded by thinning.

    Query-path arrays for :meth:`resample` are cached per (series, key) and
    invalidated on append, so repeated resampling of a settled recorder (the
    plotting/report path) rebuilds nothing.
    """

    samples: Dict[str, Dict[str, List[Tuple[float, float]]]] = field(default_factory=dict)
    max_samples_per_key: Optional[int] = None
    samples_dropped: int = 0
    _max: Dict[Tuple[str, str], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _arrays: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_samples_per_key is not None and self.max_samples_per_key < 2:
            raise ValueError("max_samples_per_key must be >= 2 (or None for unbounded)")
        # Seed the running maxima from constructor-provided samples so a
        # recorder rebuilt from serialized data answers max_value correctly.
        for series, by_key in self.samples.items():
            for key, data in by_key.items():
                if data:
                    self._max[(series, key)] = max(v for _, v in data)

    def record(self, series: str, key: str, time: float, value: float) -> None:
        """Append one sample, e.g. ``record("cache_usage", "a100:0", 12.5, 0.73)``."""
        if time < 0:
            raise ValueError("time must be >= 0")
        time = float(time)
        value = float(value)
        by_key = self.samples.get(series)
        if by_key is None:
            by_key = self.samples[series] = {}
        data = by_key.get(key)
        if data is None:
            data = by_key[key] = []
        data.append((time, value))
        cache_key = (series, key)
        prev = self._max.get(cache_key)
        if prev is None or value > prev:
            self._max[cache_key] = value
        if self._arrays:
            self._arrays.pop(cache_key, None)
        cap = self.max_samples_per_key
        if cap is not None and len(data) > cap:
            # Thin to every other point, always keeping the newest sample.
            kept = data[0:-1:2]
            kept.append(data[-1])
            self.samples_dropped += len(data) - len(kept)
            data[:] = kept

    def record_many(self, series: str, time: float, values: Dict[str, float]) -> None:
        for key, value in values.items():
            self.record(series, key, time, value)

    # -- queries -----------------------------------------------------------------

    def series_names(self) -> List[str]:
        return sorted(self.samples)

    def keys(self, series: str) -> List[str]:
        return sorted(self.samples.get(series, {}))

    def raw(self, series: str, key: str) -> List[Tuple[float, float]]:
        return list(self.samples.get(series, {}).get(key, []))

    def last_value(self, series: str, key: str) -> float:
        data = self.samples.get(series, {}).get(key)
        if not data:
            return 0.0
        return data[-1][1]

    def max_value(self, series: str, key: str) -> float:
        return self._max.get((series, key), 0.0)

    def _series_arrays(self, series: str, key: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        cache_key = (series, key)
        cached = self._arrays.get(cache_key)
        if cached is not None:
            return cached
        data = self.samples.get(series, {}).get(key)
        if not data:
            return None
        times = np.array([t for t, _ in data])
        values = np.array([v for _, v in data])
        self._arrays[cache_key] = (times, values)
        return times, values

    def resample(self, series: str, key: str, grid: Sequence[float]) -> np.ndarray:
        """Piecewise-constant (last observation carried forward) resampling."""
        grid = np.asarray(list(grid), dtype=float)
        arrays = self._series_arrays(series, key)
        if arrays is None:
            return np.zeros_like(grid)
        times, values = arrays
        idx = np.searchsorted(times, grid, side="right") - 1
        out = np.where(idx >= 0, values[np.clip(idx, 0, len(values) - 1)], 0.0)
        return out


class PrefixedRecorderView:
    """Recorder facade that prefixes every written key with a namespace tag.

    Composed systems (e.g. several same-blueprint replicas behind a router)
    reuse unit and device names, so their per-device time series would silently
    merge under one key without a disambiguating prefix.  Only ``record``
    prefixes; every other attribute (queries such as ``keys``/``raw``, or
    further writes by nested views) is forwarded to the wrapped recorder
    unchanged, so the view is a drop-in ``TimeSeriesRecorder`` everywhere a
    hook only holds the facade and writes through ``record``.

    The prefix must end with ``/`` and raw keys must not contain ``/``; this
    makes a prefixed key structurally distinct from any unprefixed key (and
    from any key written under a different prefix), so namespaces can never
    collide.
    """

    def __init__(self, inner: "TimeSeriesRecorder | PrefixedRecorderView", prefix: str) -> None:
        if not prefix.endswith("/"):
            raise ValueError(f"prefix must end with '/': {prefix!r}")
        self._inner = inner
        self._prefix = prefix

    def record(self, series: str, key: str, time: float, value: float) -> None:
        self._inner.record(series, self._prefix + key, time, value)

    def __getattr__(self, name: str):
        # Defensive passthrough: recorder methods beyond record (queries)
        # work on the view too instead of raising AttributeError inside a
        # system hook.
        return getattr(self._inner, name)
