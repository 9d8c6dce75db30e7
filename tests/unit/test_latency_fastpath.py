"""Vectorized latency-prediction fast paths: scalar equivalence, caching, noise draws."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.latency_model import (
    NoisyLatencyEstimator,
    OnlineLatencyEstimator,
    PerfectLatencyEstimator,
)


def trained_estimator():
    est = OnlineLatencyEstimator()
    for batch, latency in ((1, 10.2), (64, 45.0), (256, 160.0), (700, 420.0)):
        est.observe("gpu", batch, latency)
    est.observe("cpu", 50, 33.0)  # single distinct batch: proportional-scaling branch
    return est


class TestOnlineVectorized:
    @pytest.mark.parametrize("type_name", ["gpu", "cpu", "never-seen"])
    def test_matches_scalar_rules_elementwise(self, type_name):
        est = trained_estimator()
        batches = np.asarray([1, 2, 50, 64, 100, 256, 500, 700, 999, 1, 50, 3])
        vectorized = est.predict_many_ms(type_name, batches)
        scalar = np.asarray(
            [est.predict_ms(type_name, int(b)) for b in batches], dtype=float
        )
        assert np.array_equal(vectorized, scalar)  # exact

    def test_tiny_vector_path_matches_large_vector_path(self):
        est = trained_estimator()
        small = est.predict_many_ms("gpu", [64, 999])  # scalar fast path (<= 8)
        large = est.predict_many_ms("gpu", [64, 999] * 10)  # vectorized path
        assert np.array_equal(small, large[:2])

    def test_cache_returns_same_vector_until_observe(self):
        est = trained_estimator()
        batches = [1, 64, 300]
        first = est.predict_many_ms("gpu", batches)
        assert est.predict_many_ms("gpu", batches) is first  # memoized
        assert not first.flags.writeable  # shared vectors are frozen
        est.observe("gpu", 64, 45.0)
        second = est.predict_many_ms("gpu", batches)
        assert second is not first  # observe invalidated the type's cache

    def test_cache_is_per_type(self):
        est = trained_estimator()
        gpu = est.predict_many_ms("gpu", [1, 64])
        est.observe("cpu", 10, 7.0)  # other type: gpu cache untouched
        assert est.predict_many_ms("gpu", [1, 64]) is gpu

    def test_scalar_input_still_works(self):
        est = trained_estimator()
        out = est.predict_many_ms("gpu", 64)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(45.0)


_TYPES = ("gpu", "cpu")
_observe = st.tuples(
    st.just("observe"),
    st.sampled_from(_TYPES),
    st.sampled_from((1, 3, 8, 64, 200)),
    st.floats(min_value=0.05, max_value=5_000.0, allow_nan=False),
)
# batch vectors of 1-24 entries straddle the tiny-vector cutoff (8); sizes hit the
# observable batches and their neighbours, and run up to 600, past every observed
# batch (at most 200)
_batch = st.one_of(
    st.sampled_from((1, 2, 3, 4, 7, 8, 9, 63, 64, 65, 199, 200, 201)),
    st.integers(min_value=1, max_value=600),
)
_predict = st.tuples(
    st.just("predict"),
    st.sampled_from(_TYPES),
    st.lists(_batch, min_size=1, max_size=24),
)


class TestVectorMatchesScalarProperty:
    """``predict_many_ms(t, v)[i]`` equals ``predict_ms(t, v[i])`` bit for bit at
    every point of any observe/predict interleaving: the dense override array
    reads exactly the lookup table's means."""

    @given(st.lists(st.one_of(_observe, _predict), min_size=1, max_size=40))
    @example([("predict", "gpu", [5] * 12), ("predict", "cpu", [5, 7])])  # cold start
    @example(  # one distinct batch: proportional scaling, above and below it
        [("observe", "gpu", 64, 30.0), ("observe", "gpu", 64, 34.0),
         ("predict", "gpu", [1, 64, 65, 600] * 3), ("predict", "gpu", [64, 600])]
    )
    @example(  # every predicted batch above every observed one
        [("observe", "cpu", 3, 2.0), ("observe", "cpu", 8, 5.0),
         ("predict", "cpu", [300, 301, 599, 600] * 3), ("predict", "cpu", [9, 599])]
    )
    def test_vector_equals_scalar_bitwise(self, steps):
        est = OnlineLatencyEstimator()
        for step in steps:
            if step[0] == "observe":
                _, type_name, batch, latency = step
                est.observe(type_name, batch, latency)
                continue
            _, type_name, batches = step
            vector = est.predict_many_ms(type_name, np.asarray(batches))
            scalar = np.asarray([est.predict_ms(type_name, b) for b in batches])
            assert vector.tobytes() == scalar.tobytes()


class TestNoisyVectorized:
    def test_single_vector_draw_matches_manual_replication(self, profiles, rm2):
        inner = PerfectLatencyEstimator(profiles, rm2)
        batches = np.asarray([10, 100, 400, 900])
        noisy = NoisyLatencyEstimator(inner, relative_std=0.05, rng=123)
        out = noisy.predict_many_ms("g4dn.xlarge", batches)

        reference_rng = np.random.default_rng(123)
        base = inner.predict_many_ms("g4dn.xlarge", batches)
        factors = 1.0 + 0.05 * reference_rng.standard_normal(base.shape)
        assert np.array_equal(out, np.maximum(1e-6, base * factors))

    def test_noise_is_elementwise_iid(self, profiles, rm2):
        inner = PerfectLatencyEstimator(profiles, rm2)
        noisy = NoisyLatencyEstimator(inner, relative_std=0.05, rng=0)
        out = noisy.predict_many_ms("g4dn.xlarge", [500] * 64)
        assert len(set(out.tolist())) > 1  # one draw per element, not one per call

    def test_zero_std_is_identity(self, profiles, rm2):
        inner = PerfectLatencyEstimator(profiles, rm2)
        noisy = NoisyLatencyEstimator(inner, relative_std=0.0, rng=0)
        batches = [1, 50, 200]
        assert np.array_equal(
            noisy.predict_many_ms("g4dn.xlarge", batches),
            np.asarray(inner.predict_many_ms("g4dn.xlarge", batches), dtype=float),
        )

    def test_predictions_stay_positive(self):
        inner = OnlineLatencyEstimator(cold_start_prior_ms=0.001)
        noisy = NoisyLatencyEstimator(inner, relative_std=5.0, rng=1)
        out = noisy.predict_many_ms("x", [1] * 200)
        assert np.all(out > 0)
