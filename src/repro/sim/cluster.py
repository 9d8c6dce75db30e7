"""A cluster of simulated inference servers built from a heterogeneous configuration.

Clusters start static (one server per allocated instance, ids equal to list indices)
but support elastic membership for the online-elasticity subsystem: servers can be
added after a provisioning delay (``add_server``), put into draining
(``drain_servers``), and removed once drained (``remove_server``).  Because scheduling
policies address servers by *index within the object they are handed*, elastic runs
hand policies a :class:`ClusterView` of the currently schedulable servers instead of
the raw (mutating) cluster.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import InstanceType
from repro.cloud.models import MLModel
from repro.cloud.profiles import ProfileRegistry
from repro.sim.server import ServerInstance
from repro.utils.validation import check_non_negative


class ServerIdAllocator:
    """Monotone server-id source; ids are never reused.

    A standalone :class:`Cluster` owns a private allocator (ids 0, 1, 2, ... exactly as
    before), while the model partitions of a :class:`MultiModelCluster` share one, so
    server ids — and therefore billing-ledger keys and completion-event routing — stay
    globally unique across co-located models.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("server ids must be non-negative")
        self._next = int(start)

    def reserve(self) -> int:
        server_id = self._next
        self._next += 1
        return server_id


class Cluster:
    """All servers allocated for one model under one heterogeneous configuration.

    Server ids are assigned in catalog order (all base-type servers first), matching the
    paper's ``(base, aux1, aux2, ...)`` configuration notation.
    """

    def __init__(
        self,
        config: HeterogeneousConfig,
        model: MLModel,
        profiles: ProfileRegistry,
        *,
        dispatch_overhead_ms: float = 0.0,
        id_allocator: Optional[ServerIdAllocator] = None,
    ):
        if config.is_empty():
            raise ValueError("cannot build a cluster from an empty configuration")
        check_non_negative(dispatch_overhead_ms, "dispatch_overhead_ms")
        self.config = config
        self.model = model
        self.profiles = profiles
        self.dispatch_overhead_ms = float(dispatch_overhead_ms)
        self._ids = id_allocator if id_allocator is not None else ServerIdAllocator()
        self._servers: List[ServerInstance] = []
        #: present servers by id (membership changes keep it in step with _servers)
        self._by_id: Dict[int, ServerInstance] = {}
        for itype in config.expand_instance_types():
            profile = profiles.profile(model, itype)
            self._append(
                ServerInstance(
                    server_id=self._ids.reserve(),
                    instance_type=itype,
                    profile=profile,
                    dispatch_overhead_ms=self.dispatch_overhead_ms,
                )
            )

    def _append(self, server: ServerInstance) -> None:
        self._servers.append(server)
        self._by_id[server.server_id] = server

    # -- container protocol --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self) -> Iterator[ServerInstance]:
        return iter(self._servers)

    def __getitem__(self, index: int) -> ServerInstance:
        return self._servers[index]

    @property
    def servers(self) -> List[ServerInstance]:
        return list(self._servers)

    # -- views -----------------------------------------------------------------------------
    def idle_servers(self, now_ms: float) -> List[ServerInstance]:
        """Servers with no running or queued query at ``now_ms``."""
        return [s for s in self._servers if s.is_idle(now_ms)]

    def servers_of_type(self, type_name: str) -> List[ServerInstance]:
        return [s for s in self._servers if s.type_name == type_name]

    def base_servers(self) -> List[ServerInstance]:
        return self.servers_of_type(self.config.catalog.base_type.name)

    def auxiliary_servers(self) -> List[ServerInstance]:
        base = self.config.catalog.base_type.name
        return [s for s in self._servers if s.type_name != base]

    def earliest_idle_time_ms(self) -> float:
        """The soonest any server frees up (0 when at least one is already idle)."""
        return min(s.busy_until_ms for s in self._servers)

    def type_names(self) -> List[str]:
        """Per-server instance-type names, indexed by server id."""
        return [s.type_name for s in self._servers]

    def utilization_by_type(self, horizon_ms: float) -> Dict[str, float]:
        """Mean utilization of each instance type present in the cluster."""
        result: Dict[str, float] = {}
        for name in self.config.catalog.names:
            servers = self.servers_of_type(name)
            if servers:
                result[name] = sum(s.utilization(horizon_ms) for s in servers) / len(servers)
        return result

    # -- elastic membership ----------------------------------------------------------------
    def server_by_id(self, server_id: int) -> ServerInstance:
        """Look a server up by its (stable) id rather than its (shifting) list index."""
        try:
            return self._by_id[server_id]
        except KeyError:
            raise KeyError(f"no server with id {server_id} in the cluster") from None

    def reserve_server_id(self) -> int:
        """Claim the next fresh server id (used when billing starts before readiness)."""
        return self._ids.reserve()

    def add_server(
        self,
        instance_type: Union[str, InstanceType],
        *,
        now_ms: float = 0.0,
        server_id: Optional[int] = None,
    ) -> ServerInstance:
        """Commission one new server of ``instance_type``; returns the new instance.

        Ids are fresh and never reused (pass a previously reserved one via
        ``server_id``), so in-flight completion events for removed servers can never
        alias onto a newcomer.
        """
        if server_id is None:
            server_id = self.reserve_server_id()
        elif server_id in self._by_id:
            raise ValueError(f"server id {server_id} is already present in the cluster")
        itype = (
            self.config.catalog[instance_type]
            if isinstance(instance_type, str)
            else instance_type
        )
        server = ServerInstance(
            server_id=server_id,
            instance_type=itype,
            profile=self.profiles.profile(self.model, itype),
            dispatch_overhead_ms=self.dispatch_overhead_ms,
            commissioned_at_ms=float(now_ms),
        )
        self._append(server)
        return server

    def drain_servers(self, type_name: str, count: int, now_ms: float) -> List[ServerInstance]:
        """Put ``count`` servers of ``type_name`` into draining; returns those drained.

        Victims are chosen deterministically, least-loaded first (queue depth, then
        remaining busy time, then id), so idle servers leave before busy ones.
        """
        candidates = [
            s for s in self._servers if s.type_name == type_name and not s.draining
        ]
        candidates.sort(key=lambda s: (s.local_queue_depth, s.busy_until_ms, s.server_id))
        victims = candidates[:count]
        for s in victims:
            s.start_draining()
        return victims

    def remove_server(self, server_id: int) -> ServerInstance:
        """Decommission a server (it must exist); returns the removed instance."""
        server = self.server_by_id(server_id)
        self._servers.remove(server)
        del self._by_id[server_id]
        return server

    def active_servers(self) -> List[ServerInstance]:
        """Servers currently eligible for new dispatches (not draining)."""
        return [s for s in self._servers if s.accepting]

    def active_view(self) -> "ClusterView":
        """An index-contiguous view over the schedulable servers (see module docstring)."""
        return ClusterView(self, self.active_servers())

    def current_config(self) -> HeterogeneousConfig:
        """The configuration implied by present membership (draining servers included)."""
        counts: Dict[str, int] = {}
        for s in self._servers:
            counts[s.type_name] = counts.get(s.type_name, 0) + 1
        return HeterogeneousConfig.from_mapping(counts, self.config.catalog)

    def reset(self) -> None:
        """Reset all per-server dynamic state."""
        for s in self._servers:
            s.reset()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster(model={self.model.name}, config={self.config})"


def initial_spot_server_ids(
    cluster: Cluster, spot_config: HeterogeneousConfig
) -> List[int]:
    """The server ids of a mixed cluster's initial spot portion.

    A mixed-market plan is instantiated as one :class:`Cluster` over the *combined*
    (on-demand + spot) configuration; server ids are assigned in catalog order with
    same-type servers contiguous, so within each type block the last
    ``spot_config[type]`` ids are deterministically designated spot.
    """
    ids: List[int] = []
    for type_name, spot_count in spot_config:
        if spot_count <= 0:
            continue
        of_type = [s.server_id for s in cluster if s.type_name == type_name]
        if spot_count > len(of_type):
            raise ValueError(
                f"spot config wants {spot_count} x {type_name} but the cluster "
                f"only has {len(of_type)}"
            )
        ids.extend(of_type[len(of_type) - spot_count :])
    return ids


class ClusterView:
    """A frozen, index-contiguous subset of a cluster's servers.

    Scheduling policies address servers by index into whatever container they are
    handed; when membership changes mid-run (elastic scaling), indices into the raw
    cluster would shift under the policy's feet.  A view taken at the top of each
    scheduling round pins the mapping: ``view[i]`` is stable for the round, and the
    simulator commits dispatches on the :class:`ServerInstance` objects themselves.

    The view quacks like a :class:`Cluster` for everything the policy protocol uses
    (iteration, indexing, ``config``/``model``/``profiles``, ``type_names``).
    """

    def __init__(self, cluster: Cluster, servers: Sequence[ServerInstance]):
        self._cluster = cluster
        self._servers = list(servers)

    # -- container protocol ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self) -> Iterator[ServerInstance]:
        return iter(self._servers)

    def __getitem__(self, index: int) -> ServerInstance:
        return self._servers[index]

    @property
    def servers(self) -> List[ServerInstance]:
        return list(self._servers)

    # -- cluster delegation ------------------------------------------------------------------
    @property
    def config(self) -> HeterogeneousConfig:
        return self._cluster.config

    @property
    def model(self) -> MLModel:
        return self._cluster.model

    @property
    def profiles(self) -> ProfileRegistry:
        return self._cluster.profiles

    @property
    def dispatch_overhead_ms(self) -> float:
        return self._cluster.dispatch_overhead_ms

    def type_names(self) -> List[str]:
        return [s.type_name for s in self._servers]

    def idle_servers(self, now_ms: float) -> List[ServerInstance]:
        return [s for s in self._servers if s.is_idle(now_ms)]

    def servers_of_type(self, type_name: str) -> List[ServerInstance]:
        return [s for s in self._servers if s.type_name == type_name]

    def earliest_idle_time_ms(self) -> float:
        return min(s.busy_until_ms for s in self._servers)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterView({len(self._servers)} of {len(self._cluster)} servers)"


class MultiModelCluster:
    """N co-located models sharing one physical pool, partitioned per model.

    Each model owns a :class:`Cluster` over its own heterogeneous configuration (every
    instance hosts exactly one model copy, as in the single-model system), but all
    partitions share one :class:`ServerIdAllocator` so server ids — the keys of the
    billing ledger and of completion events — are globally unique.  The scheduling
    surface is the union: :meth:`active_view` concatenates every partition's accepting
    servers (in registration order) into one :class:`MultiModelClusterView` with a
    parallel model-name column, which the multi-model cost matrix consumes.
    """

    def __init__(
        self,
        configs: Mapping[str, HeterogeneousConfig],
        profiles: ProfileRegistry,
        *,
        dispatch_overhead_ms: float = 0.0,
    ):
        if not configs:
            raise ValueError("need at least one model configuration")
        self.profiles = profiles
        self.dispatch_overhead_ms = float(dispatch_overhead_ms)
        self._ids = ServerIdAllocator()
        self._clusters: Dict[str, Cluster] = {}
        self._model_of_id: Dict[int, str] = {}
        for name, config in configs.items():
            model = profiles.models[name]
            cluster = Cluster(
                config,
                model,
                profiles,
                dispatch_overhead_ms=dispatch_overhead_ms,
                id_allocator=self._ids,
            )
            self._clusters[name] = cluster
            for server in cluster:
                self._model_of_id[server.server_id] = name

    # -- partitions ------------------------------------------------------------------------
    @property
    def model_names(self) -> List[str]:
        """Registered model names, in registration order."""
        return list(self._clusters)

    @property
    def models(self) -> List[MLModel]:
        return [c.model for c in self._clusters.values()]

    def cluster_of(self, model_name: str) -> Cluster:
        """The model's partition; raises ``KeyError`` for unregistered models."""
        try:
            return self._clusters[model_name]
        except KeyError:
            raise KeyError(
                f"no model {model_name!r} in the cluster; registered: {self.model_names}"
            ) from None

    def qos_by_model(self) -> Dict[str, float]:
        return {name: c.model.qos_ms for name, c in self._clusters.items()}

    def current_configs(self) -> Dict[str, HeterogeneousConfig]:
        return {name: c.current_config() for name, c in self._clusters.items()}

    # -- container protocol (union of all partitions) ----------------------------------------
    def __len__(self) -> int:
        return sum(len(c) for c in self._clusters.values())

    def __iter__(self) -> Iterator[ServerInstance]:
        for cluster in self._clusters.values():
            yield from cluster

    # -- id routing --------------------------------------------------------------------------
    def model_of_server(self, server_id: int) -> str:
        """Model hosted by ``server_id`` (also resolves reserved and removed ids)."""
        try:
            return self._model_of_id[server_id]
        except KeyError:
            raise KeyError(f"no server with id {server_id} in the cluster") from None

    def server_by_id(self, server_id: int) -> ServerInstance:
        return self.cluster_of(self.model_of_server(server_id)).server_by_id(server_id)

    def remove_server(self, server_id: int) -> ServerInstance:
        return self.cluster_of(self.model_of_server(server_id)).remove_server(server_id)

    # -- elastic membership --------------------------------------------------------------------
    def reserve_server_id(self, model_name: str) -> int:
        """Reserve a fresh global id for a booting instance of ``model_name``."""
        server_id = self.cluster_of(model_name).reserve_server_id()
        self._model_of_id[server_id] = model_name
        return server_id

    def add_server(
        self,
        model_name: str,
        instance_type: Union[str, InstanceType],
        *,
        now_ms: float = 0.0,
        server_id: Optional[int] = None,
    ) -> ServerInstance:
        server = self.cluster_of(model_name).add_server(
            instance_type, now_ms=now_ms, server_id=server_id
        )
        self._model_of_id[server.server_id] = model_name
        return server

    def drain_servers(
        self, model_name: str, type_name: str, count: int, now_ms: float
    ) -> List[ServerInstance]:
        return self.cluster_of(model_name).drain_servers(type_name, count, now_ms)

    # -- views -----------------------------------------------------------------------------
    def active_view(self) -> "MultiModelClusterView":
        return MultiModelClusterView(self)

    def reset(self) -> None:
        for cluster in self._clusters.values():
            cluster.reset()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{n}={c.current_config()}" for n, c in self._clusters.items())
        return f"MultiModelCluster({inner})"


class MultiModelClusterView:
    """A frozen, index-contiguous union of every partition's accepting servers.

    Like :class:`ClusterView`, the mapping ``view[i] -> server`` is pinned for one
    scheduling round.  The extra surface multi-model policies need is the parallel
    model column (:meth:`server_models`) plus per-model substrate accessors
    (:meth:`model`, :meth:`config_of`, :meth:`qos_by_model`).
    """

    def __init__(self, cluster: MultiModelCluster):
        self._cluster = cluster
        self._servers: List[ServerInstance] = []
        self._server_models: List[str] = []
        for name in cluster.model_names:
            for server in cluster.cluster_of(name).active_servers():
                self._servers.append(server)
                self._server_models.append(name)

    # -- container protocol ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self) -> Iterator[ServerInstance]:
        return iter(self._servers)

    def __getitem__(self, index: int) -> ServerInstance:
        return self._servers[index]

    @property
    def servers(self) -> List[ServerInstance]:
        return list(self._servers)

    def server_models(self) -> List[str]:
        """Model names parallel to the server list (``server_models()[i]`` hosts ``view[i]``)."""
        return list(self._server_models)

    def type_names(self) -> List[str]:
        return [s.type_name for s in self._servers]

    # -- cluster delegation ------------------------------------------------------------------
    @property
    def profiles(self) -> ProfileRegistry:
        return self._cluster.profiles

    @property
    def model_names(self) -> List[str]:
        return self._cluster.model_names

    def model(self, model_name: str) -> MLModel:
        return self._cluster.cluster_of(model_name).model

    def config_of(self, model_name: str) -> HeterogeneousConfig:
        return self._cluster.cluster_of(model_name).config

    def qos_by_model(self) -> Dict[str, float]:
        return self._cluster.qos_by_model()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiModelClusterView({len(self._servers)} servers, "
            f"{len(self._cluster.model_names)} models)"
        )
