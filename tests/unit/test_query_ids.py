"""Every serving loop rejects malformed inputs up front.

The loops key their bookkeeping (pending set, retries, response deadlines,
records) on ``query_id``, so a duplicate used to be served twice by the static
loop, or to collide mid-run in the multi-model loop only when both copies were
pending at once.  A query tagged with a model the cluster does not serve used to
be served silently by the single-model loops, and a scripted event naming an
unknown instance type failed only when it fired.  Each loop now checks its
stream and scripted events before any event fires and raises one ``ValueError``
naming the offending item.  A cluster, or a multi-model partition, built from an
all-zero configuration is refused the same way, when the loop is built.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.sim.events import Event, EventKind, ScaleRequest
from repro.sim.multi_model import MultiModelServingSimulation
from repro.sim.simulation import simulate_serving
from repro.workload.query import Query, check_serving_inputs

DUPLICATE = "duplicate query id 7"


class NeverSchedules(KairosPolicy):
    """Fails the test if the loop reaches a scheduling round."""

    def schedule(self, now_ms, pending, cluster):
        raise AssertionError("a scheduling round ran before the ids were checked")


class NeverSchedulesJoint(MultiModelKairosPolicy):
    """Fails the test if the joint loop reaches a scheduling round."""

    def schedule(self, now_ms, pending, cluster):
        raise AssertionError("a scheduling round ran before the inputs were checked")


def stream(model_name=None):
    # the two copies of id 7 arrive far apart: never pending at the same time
    return [
        Query(3, 8, 0.0, model_name),
        Query(7, 8, 10.0, model_name),
        Query(7, 16, 5_000.0, model_name),
    ]


def rm2_cluster(profiles, catalog, counts=(1, 0, 3, 0)):
    return Cluster(HeterogeneousConfig(counts, catalog), profiles.models["RM2"], profiles)


def static_run(profiles, catalog, queries):
    """The static entry point: the serving kernel on a fixed RM2 fleet."""
    config = HeterogeneousConfig((1, 0, 3, 0), catalog)
    rm2 = profiles.models["RM2"]
    return simulate_serving(config, rm2, profiles, NeverSchedules(), queries)


def two_model_cluster(profiles, catalog, rm2_counts=(1, 1, 2, 0)):
    return MultiModelCluster(
        {
            "RM2": HeterogeneousConfig(rm2_counts, catalog),
            "WND": HeterogeneousConfig((1, 1, 2, 0), catalog),
        },
        profiles,
    )


class TestDuplicateQueryIds:
    def test_static_loop(self, profiles, catalog):
        with pytest.raises(ValueError, match=DUPLICATE):
            static_run(profiles, catalog, stream())

    def test_elastic_loop(self, profiles, catalog):
        sim = ElasticServingSimulation(rm2_cluster(profiles, catalog), NeverSchedules())
        with pytest.raises(ValueError, match=DUPLICATE):
            sim.run(stream())

    def test_spot_loop(self, profiles, catalog):
        sim = ElasticServingSimulation(
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


def tagged(model_name, stray="NCF"):
    """A stream whose second query targets a model no test cluster serves."""
    return [
        Query(3, 8, 0.0, model_name),
        Query(7, 8, 10.0, stray),
        Query(9, 16, 20.0, model_name),
    ]


UNKNOWN_MODEL = "query 7 targets model 'NCF'"
CATALOG_TYPES = ("g4dn.xlarge", "c5n.2xlarge", "r5n.large", "t3.xlarge")
UNKNOWN_TYPE = "unknown instance type 'p3.2xlarge'"
SCALE_TO_UNKNOWN_TYPE = Event(50.0, EventKind.SCALE_UP, ScaleRequest("p3.2xlarge", 1))


class TestUnknownTargets:
    def test_static_loop(self, profiles, catalog):
        with pytest.raises(ValueError, match=UNKNOWN_MODEL):
            static_run(profiles, catalog, tagged("RM2"))

    def test_elastic_loop(self, profiles, catalog):
        sim = ElasticServingSimulation(rm2_cluster(profiles, catalog), NeverSchedules())
        with pytest.raises(ValueError, match=UNKNOWN_MODEL):
            sim.run(tagged(None))
        with pytest.raises(ValueError, match=UNKNOWN_TYPE):
            ElasticServingSimulation(
                rm2_cluster(profiles, catalog),
                NeverSchedules(),
                scripted_events=[SCALE_TO_UNKNOWN_TYPE],
            )

    def test_spot_loop(self, profiles, catalog):
        def spot(events=()):
            return ElasticServingSimulation(
                rm2_cluster(profiles, catalog),
                NeverSchedules(),
                market=SpotMarket.uniform(
                    catalog, discount=0.65, preemptions_per_hour=60.0
                ),
                spot_server_ids=[2, 3],
                market_rng=np.random.default_rng(1),
                scripted_events=events,
            )

        with pytest.raises(ValueError, match=UNKNOWN_MODEL):
            spot().run(tagged("RM2"))
        with pytest.raises(ValueError, match=UNKNOWN_TYPE):
            spot([SCALE_TO_UNKNOWN_TYPE])

    def test_multi_model_loop(self, profiles, catalog):
        sim = MultiModelServingSimulation(
            two_model_cluster(profiles, catalog), NeverSchedulesJoint()
        )
        with pytest.raises(ValueError, match=UNKNOWN_MODEL):
            sim.run(tagged("RM2"))
        with pytest.raises(ValueError, match=UNKNOWN_TYPE):
            MultiModelServingSimulation(
                two_model_cluster(profiles, catalog),
                NeverSchedulesJoint(),
                scripted_events=[
                    Event(
                        50.0, EventKind.SCALE_UP, ScaleRequest("p3.2xlarge", 1, "", "WND")
                    )
                ],
            )

    def test_pipeline_loop(self, profiles, catalog):
        graphs = [chain_graph(0, [("RM2", 8), ("WND", 8)], 2_000.0)]
        sources, coordinator = realize_graphs(graphs, first_query_id=100)
        sim = PipelineServingSimulation(
            two_model_cluster(profiles, catalog),
            NeverSchedulesJoint(),
            coordinator=coordinator,
        )
        with pytest.raises(ValueError, match=UNKNOWN_MODEL):
            sim.run(tagged("WND") + sources)


LOOPS = ("static", "elastic", "spot", "multi_model", "pipeline")
EMPTY = "cannot build a cluster from an empty configuration"


def build_loop(loop, profiles, catalog, events, empty=False):
    """A simulation of ``loop`` whose policy fails the test if a round runs.

    ``empty`` gives the (first) model an all-zero partition.
    """
    counts = (0, 0, 0, 0) if empty else (1, 0, 3, 0)
    if loop == "static":  # the kernel with no controller and no scripted events
        return ElasticServingSimulation(
            rm2_cluster(profiles, catalog, counts), NeverSchedules()
        )
    if loop == "elastic":
        return ElasticServingSimulation(
            rm2_cluster(profiles, catalog, counts), NeverSchedules(), scripted_events=events
        )
    if loop == "spot":
        return ElasticServingSimulation(
            rm2_cluster(profiles, catalog, counts),
            NeverSchedules(),
            market=SpotMarket.uniform(catalog, discount=0.65, preemptions_per_hour=60.0),
            spot_server_ids=[2, 3],
            market_rng=np.random.default_rng(1),
            scripted_events=events,
        )
    if loop == "multi_model":
        simulation = MultiModelServingSimulation
    else:
        simulation = PipelineServingSimulation
    return simulation(
        two_model_cluster(profiles, catalog, (0, 0, 0, 0) if empty else (1, 1, 2, 0)),
        NeverSchedulesJoint(),
        scripted_events=events,
    )


@st.composite
def malformed_inputs(draw):
    """A loop, plus a well-formed stream and event script with one item corrupted."""
    loop = draw(st.sampled_from(LOOPS))
    joint = loop in ("multi_model", "pipeline")
    models = ("RM2", "WND") if joint else ("RM2",)
    n = draw(st.integers(1, 8))
    tags = models if joint else models + (None,)
    queries = [Query(i, 8, float(i), draw(st.sampled_from(tags))) for i in range(n)]
    scripted = loop != "static"
    events = [
        Event(
            float(t),
            EventKind.SCALE_UP,
            ScaleRequest(draw(st.sampled_from(CATALOG_TYPES)), 1, "", models[0]),
        )
        for t in range(draw(st.integers(0, 2)) if scripted else 0)
    ]
    flaws = ("model", "duplicate", "empty") + (("untagged",) if joint else ())
    flaws += ("type", "scale") if scripted else ()
    flaws += ("untagged_scale",) if joint else ()
    flaw = draw(st.sampled_from(flaws))
    at = draw(st.integers(0, n - 1))
    if flaw == "empty":
        match = EMPTY
    elif flaw == "model":
        queries[at] = Query(at, 8, float(at), "NCF")
        match = f"query {at} targets model 'NCF'"
    elif flaw == "untagged":
        queries[at] = Query(at, 8, float(at))
        match = f"query {at} carries no model tag"
    elif flaw == "duplicate":
        queries.append(Query(at, 4, 99.0, models[0]))
        match = f"duplicate query id {at}"
    elif flaw == "type":
        events.append(
            Event(7.0, EventKind.SCALE_DOWN, ScaleRequest("p3.2xlarge", 1, "", models[0]))
        )
        match = UNKNOWN_TYPE
    elif flaw == "untagged_scale":
        events.append(Event(7.0, EventKind.SCALE_DOWN, ScaleRequest("r5n.large", 1)))
        match = "SCALE_DOWN at 7.0 ms carries no model tag"
    else:
        events.append(
            Event(7.0, EventKind.SCALE_DOWN, ScaleRequest("r5n.large", 1, "", "NCF"))
        )
        match = "model 'NCF'"
    return loop, queries, events, flaw == "empty", match


@settings(max_examples=60, deadline=None)
@given(inputs=malformed_inputs())
def test_every_malformed_input_is_named_before_any_round(inputs, profiles, catalog):
    loop, queries, events, empty, match = inputs
    with pytest.raises(ValueError, match=match):
        build_loop(loop, profiles, catalog, events, empty).run(queries)


@pytest.mark.parametrize("loop", LOOPS)
def test_an_all_zero_partition_is_rejected_by_every_loop(loop, profiles, catalog):
    with pytest.raises(ValueError, match=EMPTY):
        build_loop(loop, profiles, catalog, [], empty=True)


@settings(max_examples=30, deadline=None)
@given(
    models=st.lists(st.sampled_from(("RM2", "WND")), min_size=1, max_size=8),
    single=st.booleans(),
)
def test_well_formed_inputs_pass(models, single):
    served = ("RM2",) if single else ("RM2", "WND")
    queries = [
        Query(i, 8, float(i), None if single else name) for i, name in enumerate(models)
    ]
    events = [Event(5.0, EventKind.SCALE_UP, ScaleRequest("t3.xlarge", 1, "", served[0]))]
    check_serving_inputs(queries, served, events, CATALOG_TYPES)
