"""Simulated inference server instances.

Each allocated cloud instance hosts one copy of the model and serves exactly one query
(one batch) at a time, as in the paper's Triton-style implementation (Sec. 6).  Queries
dispatched to a busy server queue locally in FIFO order; the server's ``busy_until``
timestamp therefore accumulates the backlog.  True service latencies come from the
model/instance latency profile, optionally perturbed by a service-time noise model to
emulate cloud performance variability (Fig. 16b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.cloud.instances import InstanceType
from repro.cloud.profiles import LatencyProfile
from repro.workload.query import Query

#: Optional callable perturbing a true latency: (latency_ms, rng) -> perturbed latency.
ServiceNoiseModel = Callable[[float, np.random.Generator], float]


@dataclass(slots=True)
class ServerInstance:
    """One allocated cloud instance running one model copy.

    Attributes
    ----------
    server_id:
        Index of the server within its cluster.
    instance_type:
        The cloud VM type backing this server.
    profile:
        True latency profile of the served model on this instance type.
    busy_until_ms:
        Simulated time at which the server's local queue drains (<= now means idle).
    """

    server_id: int
    instance_type: InstanceType
    profile: LatencyProfile
    busy_until_ms: float = 0.0
    dispatch_overhead_ms: float = 0.0

    # elasticity lifecycle
    draining: bool = False
    commissioned_at_ms: float = 0.0

    # transient fault-injected slowdown: while ``now < slowdown_until_ms`` every
    # dispatched query's true service latency is multiplied by ``slowdown_factor``
    # (>= 1), modelling a degraded instance (thermal throttling, noisy neighbour).
    slowdown_factor: float = 1.0
    slowdown_until_ms: float = 0.0
    # permanent gray degradation: a second, window-less multiplier (>= 1) that
    # compounds multiplicatively with any active transient window above.  Within
    # the *transient* mechanism overlapping windows replace each other (see
    # begin_slowdown); across the two mechanisms the factors compound.
    degraded_factor: float = 1.0
    # gray-failure quarantine: an open circuit breaker parked the server.  A
    # quarantined server keeps its local queue (in-flight work may still finish)
    # but is excluded from every active view, so no loop's cost matrix can match
    # new work onto it until a probation probe re-admits it.
    quarantined: bool = False

    # accounting
    queries_served: int = 0
    busy_time_ms: float = 0.0
    local_queue_depth: int = 0
    _version: int = field(default=0, repr=False)
    #: ``(dirty set, index)`` per watching column state
    #: (:class:`~repro.core.cost_matrix.RoundColumnState`): every change adds the
    #: server's index in that state to its dirty set.
    _sinks: tuple = field(default=(), repr=False, compare=False)
    _service_log: List[float] = field(default_factory=list, repr=False)

    # -- change notification -----------------------------------------------------------
    @property
    def state_version(self) -> int:
        """Monotone change counter, bumped by every mutation that can affect a
        scheduling round's view of the server (dispatch, completion, draining,
        degradation, quarantine, reset).  Each bump — including an assignment from
        outside — is pushed to the watching column states, so a round re-reads only
        the servers that changed."""
        return self._version

    @state_version.setter
    def state_version(self, value: int) -> None:
        self._version = value
        for sink, k in self._sinks:
            sink.add(k)

    def _changed(self) -> None:
        self._version += 1
        for sink, k in self._sinks:
            sink.add(k)

    # -- state queries -----------------------------------------------------------------
    def is_idle(self, now_ms: float) -> bool:
        """True when the server has no running or locally queued query at ``now_ms``."""
        return self.busy_until_ms <= now_ms + 1e-9

    @property
    def accepting(self) -> bool:
        """True when the server may receive new dispatches (not draining or quarantined)."""
        return not self.draining and not self.quarantined

    def start_draining(self) -> None:
        """Stop accepting new work; in-flight and locally queued queries still finish."""
        self.draining = True
        self._changed()

    @property
    def drained(self) -> bool:
        """True when a draining server has emptied its local queue and can be removed."""
        return self.draining and self.local_queue_depth == 0

    def remaining_busy_ms(self, now_ms: float) -> float:
        """Time until the server's local queue drains (0 when idle)."""
        return max(0.0, self.busy_until_ms - now_ms)

    def earliest_start_ms(self, now_ms: float) -> float:
        """Earliest time a newly dispatched query could start service."""
        return max(now_ms, self.busy_until_ms)

    # -- service -------------------------------------------------------------------------
    def true_service_latency_ms(
        self,
        query: Query,
        *,
        noise: Optional[ServiceNoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Ground-truth service latency of ``query`` on this server."""
        latency = float(self.profile.latency_ms(query.batch_size))
        if noise is not None:
            if rng is None:
                raise ValueError("a noise model requires an rng")
            latency = max(1e-6, float(noise(latency, rng)))
        return latency

    def dispatch(
        self,
        query: Query,
        now_ms: float,
        *,
        noise: Optional[ServiceNoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple:
        """Commit ``query`` to this server; returns ``(start_ms, completion_ms, service_ms)``.

        The query starts when the local queue drains and occupies the server for its
        true service latency plus the configured dispatch overhead (modelling the
        controller-to-server RPC).
        """
        if self.draining:
            raise RuntimeError(
                f"cannot dispatch query {query.query_id} to draining server {self.server_id}"
            )
        start = self.earliest_start_ms(now_ms) + self.dispatch_overhead_ms
        service = self.true_service_latency_ms(query, noise=noise, rng=rng)
        if self.slowdown_factor != 1.0 and start < self.slowdown_until_ms:
            service *= self.slowdown_factor
        if self.degraded_factor != 1.0:
            service *= self.degraded_factor
        completion = start + service
        self.busy_until_ms = completion
        self.queries_served += 1
        self.busy_time_ms += service
        self.local_queue_depth += 1
        self._changed()
        self._service_log.append(service)
        return start, completion, service

    def begin_slowdown(self, factor: float, until_ms: float) -> None:
        """Enter a transient degraded mode: service latencies scale by ``factor``.

        Overlapping transient windows **replace** each other: a second
        ``begin_slowdown`` before the first window elapses installs the new
        ``(factor, until_ms)`` pair outright — factors never compound within the
        transient mechanism, and the new window may lengthen *or shorten* the
        remaining degradation.  (Permanent gray degradation lives in
        :attr:`degraded_factor` and compounds multiplicatively with whatever
        transient window is active; see :meth:`begin_degradation`.)
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.slowdown_factor = factor
        self.slowdown_until_ms = until_ms
        self._changed()

    def end_slowdown(self) -> None:
        """Leave degraded mode (no-op if never slowed)."""
        if self.slowdown_factor == 1.0 and self.slowdown_until_ms == 0.0:
            return
        self.slowdown_factor = 1.0
        self.slowdown_until_ms = 0.0
        self._changed()

    def begin_degradation(self, factor: float) -> None:
        """Enter *permanent* gray degradation: all future service scales by ``factor``.

        Unlike transient windows this never expires and repeated onsets compound
        multiplicatively (each onset is an independent physical degradation).
        """
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor}")
        self.degraded_factor *= factor
        self._changed()

    def begin_quarantine(self) -> None:
        """Park the server behind an open circuit breaker (stops new dispatches)."""
        self.quarantined = True
        self._changed()

    def end_quarantine(self) -> None:
        """Re-admit the server (breaker half-open/closed); no-op when not quarantined."""
        if not self.quarantined:
            return
        self.quarantined = False
        self._changed()

    def complete_one(self) -> None:
        """Acknowledge that one dispatched query finished (pops the local queue)."""
        if self.local_queue_depth <= 0:
            raise RuntimeError("completion acknowledged on a server with an empty local queue")
        self.local_queue_depth -= 1
        self._changed()

    def utilization(self, horizon_ms: float) -> float:
        """Fraction of ``[0, horizon_ms]`` the server spent serving queries."""
        if horizon_ms <= 0:
            return 0.0
        return min(1.0, self.busy_time_ms / horizon_ms)

    def reset(self) -> None:
        """Clear all dynamic state (used when reusing a cluster across runs)."""
        self.busy_until_ms = 0.0
        self.draining = False
        self.commissioned_at_ms = 0.0
        self.slowdown_factor = 1.0
        self.slowdown_until_ms = 0.0
        self.degraded_factor = 1.0
        self.quarantined = False
        self.queries_served = 0
        self.busy_time_ms = 0.0
        self.local_queue_depth = 0
        self._changed()
        self._service_log.clear()

    @property
    def type_name(self) -> str:
        return self.instance_type.name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Server{self.server_id}[{self.instance_type.name}]"
