"""Query batch-size distributions.

The paper's evaluation is driven by the production trace of real query batch sizes from
Meta (DeepRecSys), which is heavily skewed toward small batches with a long tail up to
the 1000-request cap, and by Gaussian-distributed batch sizes for sensitivity studies.
This module provides both families plus empirical/fixed distributions, each exposing:

* ``sample(n, rng)`` — draw ``n`` integer batch sizes;
* ``fraction_at_or_below(s)`` — the CDF value the upper-bound estimator's ``f`` uses;
* ``mean_batch()`` — analytic/numeric mean, used by reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive, check_positive_int

#: Default cap on batch sizes (paper Sec. 5.1 limits queries to 1000 requests).
DEFAULT_MAX_BATCH = 1000


# The two CDFs below equal ``scipy.stats.lognorm.cdf`` / ``scipy.stats.norm.cdf`` bit
# for bit (pinned by the batch-size property tests); ``scipy.special`` keeps the slow
# ``scipy.stats`` import off every simulation's start-up path.
def _lognormal_cdf(x, sigma: float, median: float):
    """``lognorm.cdf(x, s=sigma, scale=median)``: ``ndtr(log(x / median) / sigma)``
    for ``x > 0``, else 0."""
    x = np.asarray(x, dtype=float)
    positive = x > 0
    with np.errstate(divide="ignore"):  # x / median can underflow to 0: log is -inf
        z = np.log(np.where(positive, x, median) / median) / sigma
    return np.where(positive, ndtr(z), 0.0)


def _normal_cdf(x, mean: float, std: float):
    """``norm.cdf(x, loc=mean, scale=std)``."""
    return ndtr((np.asarray(x, dtype=float) - mean) / std)


class BatchSizeDistribution:
    """Interface for query batch-size distributions."""

    #: inclusive smallest / largest batch size this distribution can produce
    min_batch: int
    max_batch: int

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``n`` integer batch sizes in ``[min_batch, max_batch]``."""
        raise NotImplementedError

    def fraction_at_or_below(self, s: float) -> float:
        """P(batch <= s) — the fraction ``f`` in the paper's upper-bound math."""
        raise NotImplementedError

    def mean_batch(self) -> float:
        """Expected batch size."""
        raise NotImplementedError

    def support(self) -> Tuple[int, int]:
        return (self.min_batch, self.max_batch)

    def _clip(self, values: np.ndarray) -> np.ndarray:
        clipped = np.clip(np.rint(values), self.min_batch, self.max_batch)
        return clipped.astype(int)


@dataclass(frozen=True)
class TruncatedLogNormalBatchSizes(BatchSizeDistribution):
    """Heavy-tailed, production-like batch sizes (truncated, discretized log-normal).

    ``median`` and ``sigma`` parameterize the underlying log-normal; samples are rounded
    to integers and truncated to ``[min_batch, max_batch]`` by resampling-free clipping.
    The defaults give a mix where most queries are some tens of requests and a small
    fraction approaches the 1000-request cap, qualitatively matching the Meta trace the
    paper uses.
    """

    median: float = 80.0
    sigma: float = 1.25
    min_batch: int = 1
    max_batch: int = DEFAULT_MAX_BATCH

    def __post_init__(self) -> None:
        check_positive(self.median, "median")
        check_positive(self.sigma, "sigma")
        check_positive_int(self.min_batch, "min_batch")
        check_positive_int(self.max_batch, "max_batch")
        if self.min_batch > self.max_batch:
            raise ValueError("min_batch must not exceed max_batch")

    @property
    def mu(self) -> float:
        """Log-space mean of the underlying log-normal."""
        return math.log(self.median)

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        gen = ensure_rng(rng)
        raw = gen.lognormal(mean=self.mu, sigma=self.sigma, size=n)
        return self._clip(raw)

    def fraction_at_or_below(self, s: float) -> float:
        if s < self.min_batch:
            return 0.0
        if s >= self.max_batch:
            return 1.0
        # Clipping concentrates the tail mass at max_batch, so within the interior the
        # truncated CDF equals the un-truncated CDF (values below min_batch are clipped
        # *up* to min_batch, hence included for s >= min_batch).
        return float(_lognormal_cdf(s + 0.5, self.sigma, self.median))

    def mean_batch(self) -> float:
        grid = np.arange(self.min_batch, self.max_batch + 1)
        pmf = self._pmf(grid)
        return float(np.dot(grid, pmf))

    def _pmf(self, grid: np.ndarray) -> np.ndarray:
        cdf_hi = _lognormal_cdf(grid + 0.5, self.sigma, self.median)
        cdf_lo = _lognormal_cdf(grid - 0.5, self.sigma, self.median)
        pmf = cdf_hi - cdf_lo
        # mass clipped into the boundary bins
        pmf[0] += _lognormal_cdf(grid[0] - 0.5, self.sigma, self.median)
        pmf[-1] += 1.0 - _lognormal_cdf(grid[-1] + 0.5, self.sigma, self.median)
        return pmf / pmf.sum()


@dataclass(frozen=True)
class GaussianBatchSizes(BatchSizeDistribution):
    """Gaussian-distributed batch sizes (the paper's sensitivity-study distribution)."""

    mean: float = 250.0
    std: float = 120.0
    min_batch: int = 1
    max_batch: int = DEFAULT_MAX_BATCH

    def __post_init__(self) -> None:
        check_positive(self.mean, "mean")
        check_positive(self.std, "std")
        check_positive_int(self.min_batch, "min_batch")
        check_positive_int(self.max_batch, "max_batch")
        if self.min_batch > self.max_batch:
            raise ValueError("min_batch must not exceed max_batch")

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        gen = ensure_rng(rng)
        raw = gen.normal(loc=self.mean, scale=self.std, size=n)
        return self._clip(raw)

    def fraction_at_or_below(self, s: float) -> float:
        if s < self.min_batch:
            return 0.0
        if s >= self.max_batch:
            return 1.0
        return float(_normal_cdf(s + 0.5, self.mean, self.std))

    def mean_batch(self) -> float:
        grid = np.arange(self.min_batch, self.max_batch + 1)
        cdf_hi = _normal_cdf(grid + 0.5, self.mean, self.std)
        cdf_lo = _normal_cdf(grid - 0.5, self.mean, self.std)
        pmf = cdf_hi - cdf_lo
        pmf[0] += _normal_cdf(grid[0] - 0.5, self.mean, self.std)
        pmf[-1] += 1.0 - _normal_cdf(grid[-1] + 0.5, self.mean, self.std)
        pmf = pmf / pmf.sum()
        return float(np.dot(grid, pmf))


@dataclass(frozen=True)
class EmpiricalBatchSizes(BatchSizeDistribution):
    """Distribution defined by an observed sample of batch sizes (trace replay)."""

    observations: Tuple[int, ...]
    min_batch: int = field(init=False, default=1)
    max_batch: int = field(init=False, default=DEFAULT_MAX_BATCH)

    def __post_init__(self) -> None:
        if not self.observations:
            raise ValueError("observations must be non-empty")
        obs = tuple(int(b) for b in self.observations)
        if any(b < 1 for b in obs):
            raise ValueError("observed batch sizes must be >= 1")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "min_batch", min(obs))
        object.__setattr__(self, "max_batch", max(obs))

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        gen = ensure_rng(rng)
        arr = np.asarray(self.observations, dtype=int)
        idx = gen.integers(0, arr.size, size=n)
        return arr[idx]

    def fraction_at_or_below(self, s: float) -> float:
        arr = np.asarray(self.observations)
        return float(np.mean(arr <= s))

    def mean_batch(self) -> float:
        return float(np.mean(self.observations))

    @classmethod
    def from_samples(cls, samples: Sequence[int]) -> "EmpiricalBatchSizes":
        return cls(observations=tuple(int(b) for b in samples))


@dataclass(frozen=True)
class FixedBatchSizes(BatchSizeDistribution):
    """Degenerate distribution producing a single batch size (useful in unit tests)."""

    batch_size: int
    min_batch: int = field(init=False, default=1)
    max_batch: int = field(init=False, default=DEFAULT_MAX_BATCH)

    def __post_init__(self) -> None:
        check_positive_int(self.batch_size, "batch_size")
        object.__setattr__(self, "min_batch", self.batch_size)
        object.__setattr__(self, "max_batch", self.batch_size)

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        return np.full(n, self.batch_size, dtype=int)

    def fraction_at_or_below(self, s: float) -> float:
        return 1.0 if s >= self.batch_size else 0.0

    def mean_batch(self) -> float:
        return float(self.batch_size)


def production_batch_distribution(
    max_batch: int = DEFAULT_MAX_BATCH,
    *,
    median: float = 80.0,
    sigma: float = 1.25,
) -> TruncatedLogNormalBatchSizes:
    """The default 'production trace'-like distribution used in all main experiments."""
    return TruncatedLogNormalBatchSizes(
        median=median, sigma=sigma, min_batch=1, max_batch=max_batch
    )
