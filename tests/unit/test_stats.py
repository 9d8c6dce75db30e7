"""Tests for repro.utils.stats."""

import numpy as np
import pytest

from repro.utils.stats import StreamingStats, percentile


class TestPercentile:
    def test_matches_numpy(self, rng):
        samples = rng.normal(size=500)
        assert percentile(samples, 99) == pytest.approx(np.percentile(samples, 99))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize("q", [-1, 101])
    def test_bad_quantile_rejected(self, q):
        with pytest.raises(ValueError):
            percentile([1.0], q)


class TestStreamingStats:
    def test_mean_and_variance_match_numpy(self, rng):
        data = rng.normal(loc=3.0, scale=2.0, size=1000)
        stats = StreamingStats()
        stats.extend(data)
        assert stats.count == 1000
        assert stats.mean == pytest.approx(np.mean(data))
        assert stats.variance == pytest.approx(np.var(data))
        assert stats.std == pytest.approx(np.std(data))
        assert stats.min == pytest.approx(np.min(data))
        assert stats.max == pytest.approx(np.max(data))

    def test_total(self):
        stats = StreamingStats()
        stats.extend([1.0, 2.0, 3.0])
        assert stats.total == pytest.approx(6.0)

    def test_single_sample_variance_zero(self):
        stats = StreamingStats()
        stats.add(5.0)
        assert stats.variance == 0.0

    def test_merge_equivalent_to_combined(self, rng):
        a_data = rng.normal(size=300)
        b_data = rng.normal(loc=1.0, size=200)
        a, b = StreamingStats(), StreamingStats()
        a.extend(a_data)
        b.extend(b_data)
        merged = a.merge(b)
        combined = np.concatenate([a_data, b_data])
        assert merged.count == 500
        assert merged.mean == pytest.approx(np.mean(combined))
        assert merged.variance == pytest.approx(np.var(combined))

    def test_merge_with_empty(self):
        a = StreamingStats()
        a.extend([1.0, 2.0])
        merged = a.merge(StreamingStats())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)
        merged2 = StreamingStats().merge(a)
        assert merged2.count == 2
