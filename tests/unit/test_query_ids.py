"""Every serving loop rejects an input stream with a repeated query id up front.

The loops key their bookkeeping (pending set, retries, response deadlines,
records) on ``query_id``, so a duplicate used to be served twice by the static
loop, or to collide mid-run in the multi-model loop only when both copies were
pending at once.  Each loop now checks the stream before any event fires and
raises one ``ValueError`` naming the id.
"""

import numpy as np
import pytest

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.spot import SpotMarket
from repro.pipeline import (
    CriticalPathKairosPolicy,
    PipelineServingSimulation,
    chain_graph,
    realize_graphs,
)
from repro.schedulers.kairos_policy import KairosPolicy, MultiModelKairosPolicy
from repro.sim.cluster import Cluster, MultiModelCluster
from repro.sim.elasticity import ElasticServingSimulation
from repro.sim.multi_model import MultiModelServingSimulation
from repro.sim.preemption import PreemptibleElasticSimulation
from repro.sim.simulation import ServingSimulation
from repro.workload.query import Query

DUPLICATE = "duplicate query id 7"


class NeverSchedules(KairosPolicy):
    """Fails the test if the loop reaches a scheduling round."""

    def schedule(self, now_ms, pending, cluster):
        raise AssertionError("a scheduling round ran before the ids were checked")


def stream(model_name=None):
    # the two copies of id 7 arrive far apart: never pending at the same time
    return [
        Query(3, 8, 0.0, model_name),
        Query(7, 8, 10.0, model_name),
        Query(7, 16, 5_000.0, model_name),
    ]


def rm2_cluster(profiles, catalog):
    return Cluster(
        HeterogeneousConfig((1, 0, 3, 0), catalog), profiles.models["RM2"], profiles
    )


def two_model_cluster(profiles, catalog):
    return MultiModelCluster(
        {
            "RM2": HeterogeneousConfig((1, 1, 2, 0), catalog),
            "WND": HeterogeneousConfig((1, 1, 2, 0), catalog),
        },
        profiles,
    )


class TestDuplicateQueryIds:
    def test_static_loop(self, profiles, catalog):
        sim = ServingSimulation(rm2_cluster(profiles, catalog), NeverSchedules())
        with pytest.raises(ValueError, match=DUPLICATE):
            sim.run(stream())

    def test_elastic_loop(self, profiles, catalog):
        sim = ElasticServingSimulation(rm2_cluster(profiles, catalog), NeverSchedules())
        with pytest.raises(ValueError, match=DUPLICATE):
            sim.run(stream())

    def test_spot_loop(self, profiles, catalog):
        sim = PreemptibleElasticSimulation(
            rm2_cluster(profiles, catalog),
            NeverSchedules(),
            market=SpotMarket.uniform(catalog, discount=0.65, preemptions_per_hour=60.0),
            spot_server_ids=[2, 3],
            market_rng=np.random.default_rng(1),
        )
        with pytest.raises(ValueError, match=DUPLICATE):
            sim.run(stream())

    def test_multi_model_loop(self, profiles, catalog):
        sim = MultiModelServingSimulation(
            two_model_cluster(profiles, catalog), MultiModelKairosPolicy()
        )
        with pytest.raises(ValueError, match=DUPLICATE):
            sim.run(stream("RM2"))

    def test_pipeline_loop(self, profiles, catalog):
        graphs = [chain_graph(0, [("RM2", 8), ("WND", 8)], 2_000.0)]
        sources, coordinator = realize_graphs(graphs, first_query_id=100)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles, catalog),
            CriticalPathKairosPolicy(coordinator),
            coordinator=coordinator,
        )
        with pytest.raises(ValueError, match=DUPLICATE):
            sim.run(stream("RM2") + sources)

    def test_pipeline_loop_checks_unreleased_stage_ids(self, profiles, catalog):
        # stage s1 (id 101) joins the stream only when s0 completes: a plain query
        # already carrying that id would be mistaken for the stage
        graphs = [chain_graph(0, [("RM2", 8), ("WND", 8)], 2_000.0)]
        sources, coordinator = realize_graphs(graphs, first_query_id=100)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles, catalog),
            CriticalPathKairosPolicy(coordinator),
            coordinator=coordinator,
        )
        with pytest.raises(ValueError, match="duplicate query id 101"):
            sim.run([Query(101, 8, 0.0, "WND")] + sources)
