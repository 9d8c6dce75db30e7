"""The serving loops' shared no-progress guard.

Every loop takes its step budget from :func:`repro.sim.engine.step_budget` and
raises :func:`repro.sim.engine.no_progress_error` past it.  Each test forces the
guard by shrinking the helper's budget under a policy that never dispatches, and
checks that the error names the stuck state: simulated time, the pending queries
and the queued events.
"""

import pytest

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.spot import SpotMarket
from repro.pipeline.policy import CriticalPathKairosPolicy
from repro.pipeline.simulation import PipelineServingSimulation
from repro.schedulers.kairos_policy import KairosPolicy, MultiModelKairosPolicy
from repro.sim import engine
from repro.sim.cluster import Cluster, MultiModelCluster
from repro.sim.elasticity import simulate_elastic_serving
from repro.sim.engine import step_budget
from repro.sim.faults import RetryPolicy
from repro.sim.multi_model import simulate_multi_model_serving
from repro.sim.simulation import simulate_serving
from repro.workload.query import Query

#: Steps each forced run may take before the guard fires.
BUDGET = 5


def _stalling(base):
    """``base`` policy that never dispatches anything."""

    class Stalling(base):
        def schedule(self, now_ms, pending, cluster):
            return []

    return Stalling()


def _queries(model_name=None):
    return [Query(100 + i, 10, 1.0 + i, model_name=model_name) for i in range(12)]


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(engine, "STEPS_PER_QUERY", 0)
    monkeypatch.setattr(engine, "STEP_BUDGET_SLACK", BUDGET)


def _assert_names_stuck_state(excinfo, now_ms, event_kind=None):
    message = str(excinfo.value)
    assert f"exceeded {BUDGET} steps" in message
    assert "Stalling" in message
    assert f"t={now_ms:.3f} ms" in message
    # the first arrivals are still pending, oldest first
    assert f"{BUDGET} queries pending (first ids [100, 101, 102, 103, 104])" in message
    if event_kind is not None:
        assert f"{event_kind} x" in message


def _single(profiles, rm2, catalog):
    return Cluster(HeterogeneousConfig((1, 1, 1, 0), catalog), rm2, profiles)


def _multi(profiles, catalog):
    return MultiModelCluster(
        {
            "RM2": HeterogeneousConfig((1, 1, 1, 0), catalog),
            "WND": HeterogeneousConfig((1, 0, 1, 0), catalog),
        },
        profiles,
    )


def test_budget_scales_with_retry_attempts():
    assert step_budget(50) == 20 * 50 + 1000
    assert step_budget(50, RetryPolicy(max_attempts=3)) == 20 * 50 * 3 + 1000


def test_static_loop(small_budget, profiles, rm2, catalog):
    with pytest.raises(RuntimeError, match="no progress") as excinfo:
        simulate_serving(
            HeterogeneousConfig((1, 1, 1, 0), catalog),
            rm2,
            profiles,
            _stalling(KairosPolicy),
            _queries(),
        )
    _assert_names_stuck_state(excinfo, 1.0 + BUDGET - 1)


def test_elastic_loop(small_budget, profiles, rm2, catalog):
    with pytest.raises(RuntimeError, match="no progress") as excinfo:
        simulate_elastic_serving(
            _single(profiles, rm2, catalog), _stalling(KairosPolicy), _queries()
        )
    _assert_names_stuck_state(excinfo, 1.0 + BUDGET - 1, "QUERY_ARRIVAL")


def test_spot_loop(small_budget, profiles, rm2, catalog):
    with pytest.raises(RuntimeError, match="no progress") as excinfo:
        simulate_elastic_serving(
            _single(profiles, rm2, catalog),
            _stalling(KairosPolicy),
            _queries(),
            market=SpotMarket.uniform(catalog, discount=0.65, preemptions_per_hour=0.0),
            spot_server_ids=[2],
        )
    _assert_names_stuck_state(excinfo, 1.0 + BUDGET - 1, "QUERY_ARRIVAL")


def test_multi_model_loop(small_budget, profiles, catalog):
    with pytest.raises(RuntimeError, match="no progress") as excinfo:
        simulate_multi_model_serving(
            _multi(profiles, catalog), _stalling(MultiModelKairosPolicy), _queries("RM2")
        )
    _assert_names_stuck_state(excinfo, 1.0 + BUDGET - 1, "QUERY_ARRIVAL")


def test_pipeline_loop(small_budget, profiles, catalog):
    sim = PipelineServingSimulation(
        _multi(profiles, catalog), _stalling(CriticalPathKairosPolicy)
    )
    with pytest.raises(RuntimeError, match="no progress") as excinfo:
        sim.run(_queries("WND"))
    _assert_names_stuck_state(excinfo, 1.0 + BUDGET - 1, "QUERY_ARRIVAL")
