"""Query-latency prediction for the Kairos controller.

The paper's controller must predict the latency of any batch size on any instance type
to build the ``L`` matrix.  It observes (Sec. 5.1, "Remarks") that inference latency is
deterministic and almost perfectly linear in the batch size, so Kairos "starts with a
linear model ... and quickly transitions into a lookup table after processing more
queries", learning *completely online* from the queries it serves, with no prior
profiling.

Three estimators are provided:

* :class:`PerfectLatencyEstimator` — reads the true profiles (used for the baselines,
  which the paper deliberately advantages with accurate latency knowledge);
* :class:`OnlineLatencyEstimator` — the Kairos learner: per-type lookup table of
  observed (batch, latency) pairs backed by an online least-squares linear fit for
  batches not yet seen.  Each table is mirrored, as it learns, into a dense
  NaN-filled array of means indexed by batch size, so a vector prediction applies
  every exact-table override with one gather and one mask instead of a loop over
  the vector's distinct batches;
* :class:`NoisyLatencyEstimator` — wraps another estimator and adds Gaussian white
  noise to predictions (Fig. 16b's robustness experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.cloud.models import MLModel
from repro.cloud.profiles import LatencyProfile, ProfileRegistry
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative, check_positive


class LatencyEstimator:
    """Interface: predict and learn per-(instance type, batch size) query latency.

    A *versioned* estimator (``belief_version`` not ``None``) promises that its
    scalar and vector predictions agree bit for bit: ``predict_ms(t, b)`` equals
    ``predict_many_ms(t, [b])[0]`` under any observation history.  Single-query
    scheduling rounds rely on it to ask such estimators for one float per type
    instead of a 1-element array.
    """

    #: Version of the estimator's beliefs for callers that memoize predictions:
    #: while it holds one value, every prediction is a pure function of the inputs.
    #: ``None`` means a prediction may differ between calls, so never reuse one.
    belief_version: Optional[int] = None

    def predict_ms(self, instance_type: str, batch_size: int) -> float:
        """Predicted service latency in milliseconds."""
        raise NotImplementedError

    def observe(self, instance_type: str, batch_size: int, latency_ms: float) -> None:
        """Feed back one observed (batch, latency) pair; default is stateless."""

    def predict_many_ms(self, instance_type: str, batch_sizes) -> np.ndarray:
        """Vectorized prediction (default: loop over :meth:`predict_ms`)."""
        return np.asarray(
            [self.predict_ms(instance_type, int(b)) for b in np.atleast_1d(batch_sizes)],
            dtype=float,
        )


class PerfectLatencyEstimator(LatencyEstimator):
    """Oracle estimator backed by the true latency profiles."""

    belief_version = 0  # the true profiles never change

    def __init__(self, profiles: ProfileRegistry, model: Union[str, MLModel]):
        self._profiles = profiles
        self._model = model if isinstance(model, str) else model.name
        #: each type's profile, resolved on its first prediction
        self._profile_of: Dict[str, LatencyProfile] = {}

    def _profile(self, instance_type: str) -> LatencyProfile:
        profile = self._profile_of.get(instance_type)
        if profile is None:
            profile = self._profile_of[instance_type] = self._profiles.profile(
                self._model, instance_type
            )
        return profile

    def predict_ms(self, instance_type: str, batch_size: int) -> float:
        return float(self._profile(instance_type).latency_ms(batch_size))

    def predict_many_ms(self, instance_type: str, batch_sizes) -> np.ndarray:
        return np.asarray(
            self._profile(instance_type).latency_ms(np.atleast_1d(batch_sizes)),
            dtype=float,
        )


@dataclass
class _TypeState:
    """Per-instance-type learning state of the online estimator."""

    table: Dict[int, Tuple[float, int]]  # batch -> (mean latency, observation count)
    #: ``table``'s means as a dense array indexed by batch size, NaN where no batch
    #: was observed, with NaN past the largest observed batch: a gather clipped to
    #: its last slot reads every exact-table entry of a batch vector at once
    means: np.ndarray = field(default_factory=lambda: np.full(2, np.nan))
    sum_b: float = 0.0
    sum_l: float = 0.0
    sum_bb: float = 0.0
    sum_bl: float = 0.0
    count: int = 0
    # memoized (intercept, slope) of the current sums; None = recompute after observe
    fit: Optional[Tuple[float, float]] = None

    def distinct_batches(self) -> int:
        return len(self.table)


class OnlineLatencyEstimator(LatencyEstimator):
    """Kairos's online latency learner (lookup table + linear model fallback).

    Prediction rules, in order:

    1. exact batch size already observed → mean of its observations (lookup table);
    2. at least two distinct batch sizes observed → online least-squares linear fit
       ``intercept + slope * batch`` (slope clamped non-negative);
    3. exactly one distinct batch observed → proportional scaling through the origin;
    4. nothing observed yet → an optimistic prior (``cold_start_prior_ms``), which makes
       the distributor willing to try the instance and thereby gather the observation.
    """

    def __init__(self, cold_start_prior_ms: float = 1.0):
        check_positive(cold_start_prior_ms, "cold_start_prior_ms")
        self.cold_start_prior_ms = float(cold_start_prior_ms)
        self._state: Dict[str, _TypeState] = {}
        # Memoized prediction vectors keyed by (type, batch-vector bytes).  A scheduling
        # round asks for the same batch vector once per instance type, and consecutive
        # rounds often repeat the vector verbatim; entries are dropped for a type the
        # moment it learns something new (observe), so cached vectors can never go stale.
        self._prediction_cache: Dict[str, Dict[bytes, np.ndarray]] = {}
        self.belief_version = 0

    # -- learning ---------------------------------------------------------------------
    def observe(self, instance_type: str, batch_size: int, latency_ms: float) -> None:
        if not (latency_ms > 0.0 and latency_ms < float("inf")):  # inline check_positive
            check_positive(latency_ms, "latency_ms")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._prediction_cache.pop(instance_type, None)
        self.belief_version += 1  # invalidates callers' memoized predictions too
        state = self._state.get(instance_type)
        if state is None:
            state = self._state[instance_type] = _TypeState(table={})
        batch = int(batch_size)
        mean, count = state.table.get(batch, (0.0, 0))
        count += 1
        mean += (latency_ms - mean) / count
        state.table[batch] = (mean, count)
        means = state.means
        if batch >= means.size - 1:
            grown = np.full(max(2 * means.size, batch + 2), np.nan)
            grown[: means.size] = means
            means = state.means = grown
        means[batch] = mean
        state.sum_b += batch_size
        state.sum_l += latency_ms
        state.sum_bb += batch_size * batch_size
        state.sum_bl += batch_size * latency_ms
        state.count += 1
        state.fit = None

    def observations(self, instance_type: str) -> int:
        """Number of observations folded in for ``instance_type``."""
        state = self._state.get(instance_type)
        return state.count if state else 0

    # -- prediction -------------------------------------------------------------------
    def predict_ms(self, instance_type: str, batch_size: int) -> float:
        state = self._state.get(instance_type)
        if state is None or state.count == 0:
            return self.cold_start_prior_ms
        exact = state.table.get(int(batch_size))
        if exact is not None:
            return exact[0]
        if state.distinct_batches() >= 2:
            intercept, slope = self._fit_of(state)
            return max(1e-6, intercept + slope * batch_size)
        # single distinct batch: proportional scaling through the origin
        only_batch, (only_mean, _) = next(iter(state.table.items()))
        return max(1e-6, only_mean * batch_size / only_batch)

    def predict_many_ms(self, instance_type: str, batch_sizes) -> np.ndarray:
        """Vectorized prediction over a batch-size vector (hot path of the ``L`` matrix).

        Applies the same per-element rules as :meth:`predict_ms` — exact lookup first,
        then the linear fit (or proportional scaling) — as whole-vector numpy
        operations, and memoizes the result per (type, vector) until the next
        :meth:`observe` on the type.  The exact lookup is one gather from the type's
        dense means array (clipped, so batches past the array read its trailing NaN)
        and one copy where the gathered mean is not NaN.  The returned array is
        shared with the cache and marked read-only; copy it before mutating.
        """
        batches = np.atleast_1d(np.asarray(batch_sizes, dtype=int))
        cache = self._prediction_cache.setdefault(instance_type, {})
        key = batches.tobytes()
        cached = cache.get(key)
        if cached is not None:
            return cached
        if len(cache) >= 256:
            # A type that never receives an observe() (e.g. always penalized away)
            # would otherwise accumulate one entry per distinct pending vector forever.
            cache.clear()

        state = self._state.get(instance_type)
        if batches.size <= 8:
            # Tiny vectors (near-empty pending queues) are cheaper through the scalar
            # rules than through whole-array numpy ops.
            predictions = np.asarray(
                [self.predict_ms(instance_type, b) for b in batches.tolist()],
                dtype=float,
            )
        elif state is None or state.count == 0:
            predictions = np.full(batches.shape, self.cold_start_prior_ms, dtype=float)
        else:
            if state.distinct_batches() >= 2:
                intercept, slope = self._fit_of(state)
                predictions = np.maximum(1e-6, intercept + slope * batches)
            else:
                only_batch, (only_mean, _) = next(iter(state.table.items()))
                predictions = np.maximum(1e-6, only_mean * batches / only_batch)
            # exact lookup-table entries override the model, as in predict_ms
            exact = state.means.take(batches, mode="clip")
            np.copyto(predictions, exact, where=exact == exact)
        predictions.setflags(write=False)
        cache[key] = predictions
        return predictions

    def linear_coefficients(self, instance_type: str) -> Optional[Tuple[float, float]]:
        """The current (intercept, slope) fit, or ``None`` with <2 distinct batches."""
        state = self._state.get(instance_type)
        if state is None or state.distinct_batches() < 2:
            return None
        return self._fit_of(state)

    @classmethod
    def _fit_of(cls, state: _TypeState) -> Tuple[float, float]:
        """The memoized least-squares fit (recomputed only after new observations)."""
        fit = state.fit
        if fit is None:
            fit = state.fit = cls._linear_fit(state)
        return fit

    @staticmethod
    def _linear_fit(state: _TypeState) -> Tuple[float, float]:
        n = state.count
        denom = n * state.sum_bb - state.sum_b * state.sum_b
        if abs(denom) < 1e-12:
            mean_lat = state.sum_l / n
            return mean_lat, 0.0
        slope = (n * state.sum_bl - state.sum_b * state.sum_l) / denom
        slope = max(slope, 0.0)
        intercept = (state.sum_l - slope * state.sum_b) / n
        return intercept, slope


class NoisyLatencyEstimator(LatencyEstimator):
    """Adds multiplicative Gaussian white noise to another estimator's predictions.

    Used by the Fig. 16b robustness experiment (5% noise) to emulate cloud performance
    variability in the *prediction* path while the true service times stay unchanged.
    """

    def __init__(self, inner: LatencyEstimator, relative_std: float, rng: RngLike = None):
        check_non_negative(relative_std, "relative_std")
        self.inner = inner
        self.relative_std = float(relative_std)
        self._rng = ensure_rng(rng)

    def predict_ms(self, instance_type: str, batch_size: int) -> float:
        base = self.inner.predict_ms(instance_type, batch_size)
        factor = 1.0 + self.relative_std * float(self._rng.standard_normal())
        return max(1e-6, base * factor)

    def predict_many_ms(self, instance_type: str, batch_sizes) -> np.ndarray:
        """Vectorized noisy prediction: one rng vector draw over the inner predictions.

        Without this override every cost-matrix build fell back to the per-element
        Python loop of :meth:`LatencyEstimator.predict_many_ms` (one scalar normal draw
        per entry); the white-noise model is unchanged — i.i.d. Gaussian factors per
        predicted element — only drawn as a single vector.  Note that the cost-matrix
        builder calls this once per instance *type* per round, so within one round all
        same-type servers see the same noisy prediction vector (the noise perturbs the
        controller's belief about a type, not individual servers).
        """
        base = np.asarray(
            self.inner.predict_many_ms(instance_type, batch_sizes), dtype=float
        )
        factors = 1.0 + self.relative_std * self._rng.standard_normal(base.shape)
        return np.maximum(1e-6, base * factors)

    def observe(self, instance_type: str, batch_size: int, latency_ms: float) -> None:
        self.inner.observe(instance_type, batch_size, latency_ms)
