"""Tests for the time-series recorder."""

import numpy as np
import pytest

from repro.sim.recorder import PrefixedRecorderView, TimeSeriesRecorder


def test_record_and_query():
    rec = TimeSeriesRecorder()
    rec.record("cache_usage", "a100:0", 1.0, 0.5)
    rec.record("cache_usage", "a100:0", 2.0, 0.7)
    assert rec.series_names() == ["cache_usage"]
    assert rec.keys("cache_usage") == ["a100:0"]
    assert rec.last_value("cache_usage", "a100:0") == 0.7
    assert rec.max_value("cache_usage", "a100:0") == 0.7


def test_record_many():
    rec = TimeSeriesRecorder()
    rec.record_many("heads", 3.0, {"a100:0": 40.0, "rtx3090:1": 8.0})
    assert set(rec.keys("heads")) == {"a100:0", "rtx3090:1"}


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        TimeSeriesRecorder().record("x", "k", -1.0, 0.0)


def test_missing_series_defaults():
    rec = TimeSeriesRecorder()
    assert rec.last_value("nope", "k") == 0.0
    assert rec.max_value("nope", "k") == 0.0
    assert rec.raw("nope", "k") == []


def test_resample_carries_last_value_forward():
    rec = TimeSeriesRecorder()
    rec.record("s", "k", 1.0, 10.0)
    rec.record("s", "k", 5.0, 20.0)
    grid = [0.0, 1.0, 3.0, 5.0, 7.0]
    values = rec.resample("s", "k", grid)
    assert np.allclose(values, [0.0, 10.0, 10.0, 20.0, 20.0])


def test_resample_empty_series_is_zero():
    rec = TimeSeriesRecorder()
    assert np.allclose(rec.resample("s", "k", [0.0, 1.0]), [0.0, 0.0])


class TestPrefixedRecorderView:
    def test_writes_are_prefixed(self):
        rec = TimeSeriesRecorder()
        view = PrefixedRecorderView(rec, "r0/")
        view.record("cache_usage", "a100:0", 1.0, 0.5)
        assert rec.keys("cache_usage") == ["r0/a100:0"]

    def test_prefix_must_be_namespace_like(self):
        with pytest.raises(ValueError, match="must end with"):
            PrefixedRecorderView(TimeSeriesRecorder(), "r0")

    def test_non_write_methods_pass_through(self):
        """Every recorder method beyond record must work on the view
        (defensive __getattr__ forwarding, not a frozen method list)."""
        rec = TimeSeriesRecorder()
        view = PrefixedRecorderView(rec, "r1/")
        view.record("s", "k", 1.0, 10.0)
        view.record("s", "k", 5.0, 20.0)
        assert view.series_names() == ["s"]
        assert view.keys("s") == ["r1/k"]
        assert view.raw("s", "r1/k") == [(1.0, 10.0), (5.0, 20.0)]
        assert view.last_value("s", "r1/k") == 20.0
        assert view.max_value("s", "r1/k") == 20.0
        assert np.allclose(view.resample("s", "r1/k", [1.0, 5.0]), [10.0, 20.0])
        assert view.samples is rec.samples
        with pytest.raises(AttributeError):
            view.not_a_recorder_method

    def test_prefixed_and_unprefixed_keys_never_collide(self):
        """A key written through a view can never equal a key written directly
        (or through a different view): prefixes end with '/' and device keys
        contain none."""
        rec = TimeSeriesRecorder()
        v0 = PrefixedRecorderView(rec, "r0/")
        v1 = PrefixedRecorderView(rec, "r1/")
        for key in ("a100:0", "r0"):  # even a key spelled like a prefix stem
            rec.record("s", key, 0.0, 1.0)
            v0.record("s", key, 0.0, 2.0)
            v1.record("s", key, 0.0, 3.0)
        keys = rec.keys("s")
        assert len(keys) == 6, keys
        assert rec.last_value("s", "a100:0") == 1.0
        assert rec.last_value("s", "r0/a100:0") == 2.0
        assert rec.last_value("s", "r1/a100:0") == 3.0

    def test_views_nest(self):
        rec = TimeSeriesRecorder()
        inner = PrefixedRecorderView(PrefixedRecorderView(rec, "outer/"), "inner/")
        inner.record("s", "k", 0.0, 1.0)
        assert rec.keys("s") == ["outer/inner/k"]


class TestBoundedRecorder:
    def test_downsampling_caps_length_and_keeps_extremes(self):
        rec = TimeSeriesRecorder(max_samples_per_key=8)
        for i in range(100):
            rec.record("s", "k", float(i), float(i))
        data = rec.raw("s", "k")
        assert len(data) <= 8
        assert data[-1] == (99.0, 99.0)  # newest sample always survives
        assert rec.last_value("s", "k") == 99.0
        assert rec.samples_dropped > 0

    def test_max_value_exact_under_downsampling(self):
        rec = TimeSeriesRecorder(max_samples_per_key=4)
        values = [3.0, 97.0, 1.0, 5.0, 2.0, 8.0, 4.0, 6.0, 7.0]
        for i, v in enumerate(values):
            rec.record("s", "k", float(i), v)
        # 97.0 may have been thinned out of the sample list, but the running
        # maximum never forgets it.
        assert rec.max_value("s", "k") == 97.0

    def test_resample_cache_invalidated_on_append(self):
        rec = TimeSeriesRecorder()
        rec.record("s", "k", 1.0, 10.0)
        assert np.allclose(rec.resample("s", "k", [1.0, 2.0]), [10.0, 10.0])
        rec.record("s", "k", 2.0, 20.0)  # must invalidate the cached arrays
        assert np.allclose(rec.resample("s", "k", [1.0, 2.0]), [10.0, 20.0])

    def test_max_seeded_from_constructor_samples(self):
        rec = TimeSeriesRecorder(samples={"s": {"k": [(0.0, 5.0), (1.0, 3.0)]}})
        assert rec.max_value("s", "k") == 5.0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(max_samples_per_key=1)
