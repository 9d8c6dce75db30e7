"""Property-based tests for workload generation and streaming statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.stats import StreamingStats
from repro.workload.batch_sizes import GaussianBatchSizes, TruncatedLogNormalBatchSizes
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.query import Query
from repro.workload.trace_io import (
    Trace,
    load_trace_csv,
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
)


@settings(max_examples=50, deadline=None)
@given(
    median=st.floats(min_value=2.0, max_value=400.0),
    sigma=st.floats(min_value=0.2, max_value=2.0),
    seed=st.integers(0, 2**20),
)
def test_lognormal_samples_stay_in_support(median, sigma, seed):
    dist = TruncatedLogNormalBatchSizes(median=median, sigma=sigma)
    samples = dist.sample(300, seed)
    assert samples.min() >= dist.min_batch
    assert samples.max() <= dist.max_batch


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(min_value=10.0, max_value=900.0),
    std=st.floats(min_value=1.0, max_value=400.0),
    thresholds=st.lists(st.integers(0, 1100), min_size=2, max_size=6),
)
def test_cdf_is_monotone_and_bounded(mean, std, thresholds):
    dist = GaussianBatchSizes(mean=mean, std=std)
    ordered = sorted(thresholds)
    values = [dist.fraction_at_or_below(t) for t in ordered]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=1.0, max_value=500.0),
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(0, 2**20),
)
def test_generated_workloads_are_well_formed(rate, n, seed):
    spec = WorkloadSpec(num_queries=n)
    queries = WorkloadGenerator(spec).generate(rate, seed)
    assert len(queries) == n
    times = [q.arrival_time_ms for q in queries]
    assert times == sorted(times)
    assert all(q.batch_size >= 1 for q in queries)
    assert [q.query_id for q in queries] == list(range(n))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_streaming_stats_match_numpy(values):
    stats = StreamingStats()
    stats.extend(values)
    assert np.isclose(stats.mean, np.mean(values), rtol=1e-9, atol=1e-6)
    assert np.isclose(stats.variance, np.var(values), rtol=1e-6, atol=1e-6)
    assert stats.min == min(values)
    assert stats.max == max(values)


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=80),
    b=st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=80),
)
def test_streaming_stats_merge_equals_concatenation(a, b):
    sa, sb = StreamingStats(), StreamingStats()
    sa.extend(a)
    sb.extend(b)
    merged = sa.merge(sb)
    combined = a + b
    assert np.isclose(merged.mean, np.mean(combined), rtol=1e-9, atol=1e-6)
    assert np.isclose(merged.variance, np.var(combined), rtol=1e-6, atol=1e-6)
    assert merged.count == len(combined)


# -- trace round-trip properties ----------------------------------------------------------

#: None (untagged) plus realistic tag shapes; the CSV writer encodes None as "".
#: ``Query`` rejects ``""`` as a tag, so the encoding can never collide — the
#: asymmetry the round-trip properties below pin down.
_model_names = st.one_of(
    st.none(),
    st.sampled_from(["NCF", "RM2", "WND", "MT-WND", "DIEN"]),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="-_."
        ),
        min_size=1,
        max_size=12,
    ),
)


@st.composite
def _traces(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    queries = [
        Query(
            query_id=i,
            batch_size=draw(st.integers(min_value=1, max_value=1024)),
            arrival_time_ms=t,
            model_name=draw(_model_names),
        )
        for i, t in enumerate(times)
    ]
    return Trace.from_queries(queries)


def test_query_rejects_empty_model_name():
    # Load-bearing for the CSV format: save_trace_csv writes "" for None and
    # load_trace_csv maps "" back to None.  That is only an *exact* round trip
    # because no real query can carry the empty string as its tag.
    with pytest.raises(ValueError, match="non-empty"):
        Query(query_id=0, batch_size=1, arrival_time_ms=0.0, model_name="")


@settings(max_examples=60, deadline=None)
@given(trace=_traces())
def test_csv_round_trip_is_exact(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    save_trace_csv(trace, path)
    loaded = load_trace_csv(path)
    assert list(loaded.queries) == list(trace.queries)
    assert loaded.duration_ms == trace.duration_ms


@settings(max_examples=60, deadline=None)
@given(trace=_traces())
def test_jsonl_round_trip_is_exact(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
    save_trace_jsonl(trace, path)
    loaded = load_trace_jsonl(path)
    assert list(loaded.queries) == list(trace.queries)
    assert loaded.duration_ms == trace.duration_ms


# The CDFs are computed with scipy.special.ndtr so that simulations never import
# scipy.stats; they must equal scipy.stats' own CDFs bit for bit.
_cdf_points = st.lists(
    st.one_of(
        st.floats(min_value=-5.0, max_value=2000.0),
        st.integers(-2, 1001).map(lambda b: b + 0.5),
        st.integers(-2, 1001).map(lambda b: b - 0.5),
        st.sampled_from([0.0, -0.0, 5e-324, 1e-300]),
    ),
    min_size=1,
    max_size=40,
)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(
    median=st.floats(min_value=0.5, max_value=1000.0),
    sigma=st.floats(min_value=0.01, max_value=3.0),
    points=_cdf_points,
)
def test_lognormal_cdf_is_scipy_stats_bit_for_bit(median, sigma, points):
    from scipy import stats

    from repro.workload.batch_sizes import _lognormal_cdf

    x = np.asarray(points)
    assert _bits(_lognormal_cdf(x, sigma, median)) == _bits(
        stats.lognorm.cdf(x, s=sigma, scale=median)
    )
    # the scalar path the upper bound reads
    dist = TruncatedLogNormalBatchSizes(median=median, sigma=sigma)
    for s in points[:5]:
        if dist.min_batch <= s < dist.max_batch:
            assert _bits(dist.fraction_at_or_below(s)) == _bits(
                float(stats.lognorm.cdf(s + 0.5, s=sigma, scale=median))
            )


@settings(max_examples=200, deadline=None)
@given(
    mean=st.floats(min_value=-100.0, max_value=1500.0),
    std=st.floats(min_value=0.01, max_value=500.0),
    points=_cdf_points,
)
def test_normal_cdf_is_scipy_stats_bit_for_bit(mean, std, points):
    from scipy import stats

    from repro.workload.batch_sizes import _normal_cdf

    x = np.asarray(points)
    want = stats.norm.cdf(x, loc=mean, scale=std)
    assert _bits(_normal_cdf(x, mean, std)) == _bits(want)


def test_simulation_imports_leave_scipy_stats_out():
    """``scipy.stats`` costs about half a second to import; nothing a simulation
    imports may pull it in."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import repro; "
        "import repro.fuzz.runner, repro.workload.batch_sizes; "
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
