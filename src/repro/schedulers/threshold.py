"""DRS: DeepRecSys's static batch-size-threshold query distribution.

DeepRecSys (ISCA'20) splits queries between CPUs and GPUs with a single static batch-size
threshold: queries larger than the threshold go to the base (accelerated) instances,
smaller ones to the auxiliary instances.  DeepRecSys finds the threshold with a
hill-climbing sweep that, as the paper points out, has to be repeated for every
heterogeneous configuration (the scheme's tuning overhead); the policy here takes the
sweep's fixed point directly (see :class:`DRSThresholdPolicy`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.schedulers.base import Decision, SchedulingPolicy
from repro.sim.cluster import Cluster
from repro.utils.validation import check_positive_int
from repro.workload.query import Query


class DRSThresholdPolicy(SchedulingPolicy):
    """Static-threshold distribution: batch > threshold → base, otherwise → auxiliary.

    Queries wait for an idle instance of their designated class; if the cluster simply
    has no instance of that class the query falls back to the other class (required for
    degenerate configurations explored during configuration search).

    ``threshold=None`` selects a per-configuration tuned threshold at bind time: the
    largest batch size any auxiliary instance *present in the cluster* can serve within
    QoS — which is where DeepRecSys's hill-climbing sweep converges on deterministic
    profiles, granted for free per the paper's advantageous baseline treatment.
    """

    name = "DRS"

    def __init__(self, threshold: Optional[int] = None):
        super().__init__()
        if threshold is not None:
            check_positive_int(threshold, "threshold")
        self.threshold: Optional[int] = int(threshold) if threshold is not None else None

    def on_bind(self) -> None:
        cluster = self._require_bound()
        base_name = cluster.config.catalog.base_type.name
        self._base_indices = [
            i for i, s in enumerate(cluster) if s.type_name == base_name
        ]
        self._aux_indices = [
            i for i, s in enumerate(cluster) if s.type_name != base_name
        ]
        if self.threshold is None:
            aux_cutoffs = [
                cluster[i].profile.max_feasible_batch(self.qos_ms, cluster.model.max_batch_size)
                for i in self._aux_indices
            ]
            self.threshold = max(1, max(aux_cutoffs)) if aux_cutoffs else cluster.model.max_batch_size

    def schedule(
        self, now_ms: float, pending: Sequence[Query], cluster: Cluster
    ) -> List[Decision]:
        idle = set(self.idle_server_indices(cluster, now_ms))
        if not idle:
            return []
        idle_base = [i for i in self._base_indices if i in idle]
        idle_aux = [i for i in self._aux_indices if i in idle]
        decisions: List[Decision] = []
        for query in pending:
            wants_base = query.batch_size > self.threshold
            # fall back to the other class when the designated class does not exist
            if wants_base and not self._base_indices:
                wants_base = False
            if not wants_base and not self._aux_indices:
                wants_base = True
            pool = idle_base if wants_base else idle_aux
            chosen = None
            for pos, server_idx in enumerate(pool):
                feasible_batch = cluster[server_idx].profile.max_feasible_batch(
                    self.qos_ms, cluster.model.max_batch_size
                )
                if query.batch_size <= feasible_batch:
                    chosen = pos
                    break
            if chosen is None:
                # No idle instance of the designated class can serve this query within
                # QoS; it keeps waiting for one (DRS never re-routes across the threshold).
                continue
            decisions.append((query, pool.pop(chosen)))
            if not idle_base and not idle_aux:
                break
        return decisions

