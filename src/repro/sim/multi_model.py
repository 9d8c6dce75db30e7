"""Multi-model serving: N co-located models, one event loop, one shared budget.

:class:`MultiModelServingSimulation` runs the elastic event loop of
:class:`~repro.sim.elasticity.ElasticServingSimulation` on a
:class:`~repro.sim.cluster.MultiModelCluster`: arrivals are tagged with the model they
target, scheduling rounds run over the *union* of pending queries and every partition's
accepting instances (the policy sees a
:class:`~repro.sim.cluster.MultiModelClusterView`), metrics aggregate per model against
per-model QoS targets, and the billing ledger tags every instance with its model so
spend is attributable per tenant.

The subclass overrides only what a multi-model cluster changes: model-scoped
membership, per-model metrics and billing tags, sharded per-model queues, the
commit's cross-model guard, and the shape of a joint re-plan.  Every fault, retry,
admission, health and hedge handler is the elastic loop's own.  With exactly one
registered model, completions, dead letters, retries, hedges, ledger intervals and
scale-log actions equal the single-model elastic run's on the fault-free and chaos
configurations ``test_multi_model.py::TestSingleModelByteIdentity`` pins (the scale
log's reasons carry the model name).  Elsewhere the joint policy can break ties among
identical pending queries differently from ``KairosPolicy``.

Elasticity carries over: ``SCALE_UP`` / ``SCALE_DOWN`` requests name the model
partition they target, and an optional
:class:`~repro.core.controller.MultiModelElasticController` re-plans the *joint*
allocation of all models under the shared budget.  When a re-plan shrinks several
(model, type) pairs at once, scale-downs are emitted most-cost-efficient-first (the
same $/hr-per-capacity rule as :func:`~repro.sim.elasticity.scale_down_priority`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cloud.billing import InstanceUsageLedger
from repro.sim.cluster import Cluster, MultiModelCluster
from repro.sim.elasticity import (
    ElasticServingSimulation,
    ElasticSimulationReport,
    drain_cost_efficiency,
)
from repro.sim.engine import EventQueue
from repro.sim.events import Event, EventKind, ScaleRequest
from repro.sim.metrics import MultiModelServingMetrics
from repro.sim.server import ServerInstance
from repro.workload.query import Query


class MultiModelSimulationReport(ElasticSimulationReport):
    """Everything a multi-model serving run produced."""

    def cost_by_model(self) -> Dict[str, float]:
        """Per-model attributed spend; sums to :meth:`total_cost` (ledger tags)."""
        by_tag = self.ledger.cost_by_tag(self.billing_horizon_ms)
        return {name: cost for name, cost in by_tag.items() if name is not None}

    def all_meet_qos(self) -> bool:
        return self.metrics.all_meet_qos()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-model metric summaries plus run-level totals under ``"__run__"``."""
        data: Dict[str, Dict[str, float]] = dict(self.metrics.summary())
        cost_by_model = self.cost_by_model()
        for name in cost_by_model:
            data[name] = dict(data.get(name, {}))
            data[name]["attributed_cost"] = cost_by_model[name]
        data["__run__"] = {
            "scheduling_rounds": float(self.scheduling_rounds),
            "simulated_duration_ms": self.simulated_duration_ms,
            "num_replans": float(len(self.replans)),
            "total_cost": self.total_cost(),
            "peak_instances": float(self.peak_instances),
        }
        return data


class MultiModelServingSimulation(ElasticServingSimulation):
    """Serve an interleaved multi-model query stream on one co-located cluster.

    Parameters are :class:`~repro.sim.elasticity.ElasticServingSimulation`'s, with a
    :class:`~repro.sim.cluster.MultiModelCluster` (per-model QoS comes from its
    models); the policy must understand a
    :class:`~repro.sim.cluster.MultiModelClusterView`
    (:class:`~repro.schedulers.kairos_policy.MultiModelKairosPolicy` is the reference
    implementation).  Scripted scale events and controller decisions address model
    partitions via ``ScaleRequest.model_name`` (``None`` is only legal with a single
    registered model).  Like the elastic simulator this driver is one-shot.
    """

    cluster: MultiModelCluster
    _report_type = MultiModelSimulationReport

    def __init__(self, cluster: MultiModelCluster, policy, *, market=None, **kwargs):
        if market is not None:
            raise ValueError(
                "spot markets serve single-model clusters only: a multi-model run "
                "takes no market"
            )
        super().__init__(cluster, policy, **kwargs)

    def _model_names(self) -> Sequence[str]:
        return self.cluster.model_names

    def _catalog(self):
        return self.cluster.profiles.catalog

    def _new_metrics(self) -> MultiModelServingMetrics:
        return MultiModelServingMetrics(self.cluster.qos_by_model(), self.qos_percentile)

    def _bind(self, view) -> None:
        self.policy.bind(view)

    def _queues(self):
        if not self.sharded_events:
            return super()._queues()
        from repro.sim.sharding import (
            ShardedEventQueue,
            ShardedPendingQueue,
            shard_key_by_model,
        )

        return ShardedEventQueue(shard_key_by_model), ShardedPendingQueue()

    def _open_initial_billing(self, ledger: InstanceUsageLedger, events: EventQueue) -> None:
        for name in self.cluster.model_names:
            for server in self.cluster.cluster_of(name):
                ledger.start(server.server_id, server.instance_type, 0.0, tag=name)

    def _start_billing(self, ledger, server_id, itype, now, request) -> None:
        ledger.start(server_id, itype, now, tag=self._request_model(request))

    # -- model-keyed membership ------------------------------------------------------------
    def _request_model(self, request: ScaleRequest) -> str:
        """Resolve the model a scale request targets (sole-model fallback)."""
        if request.model_name is not None:
            self.cluster.cluster_of(request.model_name)  # raises on unknown model
            return request.model_name
        names = self.cluster.model_names
        if len(names) != 1:
            raise ValueError(
                f"scale request for type {request.type_name!r} carries no model tag "
                f"but {len(names)} models are co-located"
            )
        return names[0]

    def _reason(self, reason: str, model_name: str) -> str:
        return f"{reason}:{model_name}" if reason else model_name

    def _reserve_server_id(self, model_name: str) -> int:
        return self.cluster.reserve_server_id(model_name)

    def _add_server(self, model_name: str, type_name: str, now: float, server_id: int) -> None:
        self.cluster.add_server(model_name, type_name, now_ms=now, server_id=server_id)

    def _drain_servers(
        self, model_name: str, type_name: str, count: int, now: float
    ) -> List[ServerInstance]:
        return self.cluster.drain_servers(model_name, type_name, count, now)

    def _partition_of(self, server_id: int) -> Cluster:
        """Quarantine guards, hedges and replacements stay inside one model's partition."""
        return self.cluster.cluster_of(self.cluster.model_of_server(server_id))

    def _commit(self, assignments, pending, view, now: float, events: EventQueue) -> int:
        """A query only ever runs on a server hosting its own model: a round that
        breaks this is rejected before any of its assignments is committed."""
        server_models = view.server_models()
        for query, server_idx in assignments:
            if (
                query.model_name is not None
                and 0 <= server_idx < len(view)
                and server_models[server_idx] != query.model_name
            ):
                raise ValueError(
                    f"policy assigned query {query.query_id} ({query.model_name}) to a "
                    f"server hosting {server_models[server_idx]}"
                )
        return super()._commit(assignments, pending, view, now, events)

    def _emit_scale_events(self, decision, now: float, events: EventQueue) -> None:
        """Turn a joint re-plan into per-(model, type) provisioning events.

        Scale-ups go out in model/catalog order; scale-downs across all shrinking
        (model, type) pairs are ordered by drain cost-efficiency (most $/hr freed per
        unit of lost QoS-feasible capacity first), generalizing the single-model rule.
        """
        shrinking: List[Tuple[float, int, int, str, str, int]] = []
        for order, (model_name, deltas) in enumerate(decision.scale_deltas.items()):
            for type_name, delta in deltas.items():
                if delta > 0:
                    events.push(
                        Event(
                            now,
                            EventKind.SCALE_UP,
                            ScaleRequest(
                                type_name, delta, reason="replan", model_name=model_name
                            ),
                        )
                    )
                elif delta < 0:
                    score = drain_cost_efficiency(
                        self.cluster.profiles,
                        self.cluster.cluster_of(model_name).model,
                        type_name,
                    )
                    tie = self.cluster.profiles.catalog.index_of(type_name)
                    shrinking.append((-score, order, tie, type_name, model_name, -delta))
        for _, _, _, type_name, model_name, count in sorted(
            shrinking, key=lambda item: item[:3]
        ):
            events.push(
                Event(
                    now,
                    EventKind.SCALE_DOWN,
                    ScaleRequest(
                        type_name, count, reason="replan", model_name=model_name
                    ),
                )
            )


def simulate_multi_model_serving(
    cluster: MultiModelCluster,
    policy,
    queries: Sequence[Query],
    *,
    controller=None,
    **kwargs,
) -> MultiModelSimulationReport:
    """Convenience wrapper mirroring :func:`~repro.sim.elasticity.simulate_elastic_serving`."""
    sim = MultiModelServingSimulation(cluster, policy, controller=controller, **kwargs)
    return sim.run(queries)
