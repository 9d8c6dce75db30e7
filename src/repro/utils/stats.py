"""Streaming statistics helpers for the simulator's metric collection.

The serving simulations produce one latency sample per query; the QoS check needs tail
percentiles (typically p99) and the throughput accounting needs counts and means.  The
helpers here stay exact: :func:`percentile` reads the whole sample list, and
``StreamingStats`` keeps Welford moments only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact percentile (linear interpolation) of ``samples`` with ``q`` in [0, 100]."""
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of an empty sample set")
    return float(np.percentile(arr, q))


@dataclass
class StreamingStats:
    """Welford-style streaming mean/variance/min/max accumulator."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Population variance of the observations seen so far (0 for <2 samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self.mean * self.count

    def merge(self, other: "StreamingStats") -> "StreamingStats":
        """Return a new accumulator equivalent to having seen both sample streams."""
        if other.count == 0:
            return StreamingStats(self.count, self.mean, self._m2, self.min, self.max)
        if self.count == 0:
            return StreamingStats(other.count, other.mean, other._m2, other.min, other.max)
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / count
        return StreamingStats(
            count,
            mean,
            m2,
            min(self.min, other.min),
            max(self.max, other.max),
        )
