"""Sharded event/pending queues: shards label events, one heap orders them.

One Python process drives one :class:`~repro.sim.engine.EventQueue` and one
:class:`~repro.sim.pending.PendingQueue`.  The queues here add a per-shard view on
top of them (per model for the multi-model loop, per event-kind class for the
single-model loops) **without changing a single observable ordering decision**:

* :class:`ShardedEventQueue` is an :class:`~repro.sim.engine.EventQueue`: every
  event sits on the one ``(sort_key, event)`` heap under its globally unique sort
  key ``(time, kind priority, sequence)``, and :meth:`~ShardedEventQueue.pop_batch`
  takes the base queue's batches under its one anchor rule.  Shards only label
  events; the partition can never change the pop order or a batch split.
* :class:`ShardClock` gives each shard a monotone time, the time of the last event
  of that shard a popped batch carried, plus a global round clock that is their
  maximum.
* :class:`ShardedPendingQueue` is a :class:`~repro.sim.pending.PendingQueue` in
  admission order; :meth:`~ShardedPendingQueue.shard` builds one model's queue on
  request.

What each per-shard observable costs:

* ``push`` costs exactly what :meth:`EventQueue.push` costs.
* Each event :meth:`~ShardedEventQueue.pop_batch` pops adds one shard-key call
  and two dict writes: the queue's record of drained shards and the clock's
  shard time (``pop`` and ``discard`` write the record only).
* :attr:`~ShardedEventQueue.num_shards` and :meth:`~ShardedEventQueue.shard_sizes`
  label every queued event when read: O(queued events).
* :meth:`ShardedPendingQueue.shard` filters the snapshot when read:
  O(pending queries); an admission adds one dict write.

The driving loops read none of these, so sharding cannot leak into scheduling
decisions.  Byte-identity per seed against the unsharded path, over the committed
regression corpus, is pinned in ``tests/regression/test_regression_scenarios.py``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from repro.sim.engine import TIME_EPSILON_MS, EventQueue
from repro.sim.events import Event, EventKind
from repro.sim.pending import PendingQueue
from repro.workload.query import Query

ShardKey = Callable[[Event], object]


def shard_key_by_model(event: Event) -> object:
    """Shard key for the multi-model loop: the model the event belongs to.

    Model-tagged payloads (queries, scale requests, completion records) shard by
    model name; everything else (fault timers, control events) shards by event
    kind.
    """
    model = getattr(event.payload, "model_name", None)
    if model is not None:
        return ("model", model)
    return ("kind", int(event.kind))


def shard_key_by_kind(event: Event) -> object:
    """Shard key for single-model loops: the event-kind class.

    Completions and arrivals (the hot kinds) each get a shard; the provisioning
    and fault kinds share a third.
    """
    if event.kind == EventKind.SERVICE_COMPLETION:
        return "completion"
    if event.kind == EventKind.QUERY_ARRIVAL:
        return "arrival"
    return "control"


class ShardClock:
    """Per-shard monotone times advanced at round boundaries, plus a global clock.

    The global clock is always ``max`` over the shard times (and never behind a
    direct :meth:`advance_round`); a shard's time advances only when the shard
    contributes events to a round.  Both are observability only.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        if start_ms < 0:
            raise ValueError("start time must be non-negative")
        self._start_ms = self._now = float(start_ms)
        self._times: Dict[object, float] = {}

    @property
    def now_ms(self) -> float:
        return self._now

    def shard_now_ms(self, shard: object) -> float:
        """The shard's local time (the start time if it never saw a round)."""
        return self._times.get(shard, self._start_ms)

    def advance_round(self, time_ms: float) -> float:
        """Advance the global round clock (monotone, like the unsharded clock)."""
        if time_ms < self._now - TIME_EPSILON_MS:
            raise ValueError(
                f"cannot move the clock backwards: now={self._now}, requested={time_ms}"
            )
        if time_ms > self._now:
            self._now = float(time_ms)
        return self._now

    def advance_shard(self, shard: object, time_ms: float) -> float:
        """Advance one shard's time to the round boundary it participated in."""
        local = self.shard_now_ms(shard)
        if time_ms < local - TIME_EPSILON_MS:
            raise ValueError(
                f"cannot move shard {shard!r} backwards: now={local}, requested={time_ms}"
            )
        local = self._times[shard] = max(local, float(time_ms))
        if local > self._now:
            self._now = local
        return local


class ShardedEventQueue(EventQueue):
    """An :class:`~repro.sim.engine.EventQueue` that labels its events with shards.

    Ordering is the base queue's own (see the module docstring).  ``clock`` (a
    :class:`ShardClock`) tracks which shards took part in each batch
    :meth:`pop_batch` returns.
    """

    def __init__(self, shard_key: Optional[ShardKey] = None) -> None:
        super().__init__()
        self._shard_key: ShardKey = shard_key or shard_key_by_kind
        #: shards that had an event popped since the last clear()
        self._drained: Dict[object, None] = {}
        self.clock = ShardClock()

    # ``push`` and ``pop_batch`` are defined here, not inherited: tracers patch each
    # queue class's own methods, and an inherited one would be wrapped twice.
    push = EventQueue.push

    def pop_batch(self, time_ms: Optional[float] = None) -> List[Event]:
        """:meth:`EventQueue.pop_batch`'s batch, anchor rule included; each shard
        the batch carries advances to the time of its last event in it."""
        heap = self._heap
        if not heap:
            return []
        limit = (heap[0][1].time_ms if time_ms is None else time_ms) + TIME_EPSILON_MS
        batch: List[Event] = []
        clock = self.clock
        pop, key, drained, times, start = (
            heapq.heappop, self._shard_key, self._drained, clock._times, clock._start_ms
        )
        while heap and heap[0][1].time_ms <= limit:
            event = pop(heap)[1]
            batch.append(event)
            shard = key(event)
            drained[shard] = None
            # a pop within epsilon before the shard's time leaves it unchanged
            if event.time_ms > times.get(shard, start):
                times[shard] = event.time_ms
        if batch:
            clock.advance_round(batch[-1].time_ms)
        return batch

    def pop(self) -> Event:
        event = EventQueue.pop(self)
        self._drained[self._shard_key(event)] = None
        return event

    def discard(self, predicate) -> int:
        drained, key = self._drained, self._shard_key

        def removed(event: Event) -> bool:
            if predicate(event):
                drained[key(event)] = None
                return True
            return False

        return EventQueue.discard(self, removed)

    @property
    def num_shards(self) -> int:
        """Shards seen since :meth:`clear`, emptied ones included."""
        return len(self.shard_sizes())

    def shard_sizes(self) -> Dict[object, int]:
        """Queued events per shard seen since :meth:`clear` (emptied shards read 0)."""
        sizes = dict.fromkeys(self._drained, 0)
        key = self._shard_key
        for _, event in self._heap:
            shard = key(event)
            sizes[shard] = sizes.get(shard, 0) + 1
        return sizes

    def clear(self) -> None:
        super().clear()
        self._drained.clear()


class ShardedPendingQueue(PendingQueue):
    """A :class:`~repro.sim.pending.PendingQueue` with per-model views on request.

    Every model (``None`` for untagged queries) that ever had a query admitted is a
    shard; :meth:`shard` returns its pending queries, in admission order, as a fresh
    :class:`~repro.sim.pending.PendingQueue`.
    """

    __slots__ = ("_models",)

    def __init__(self) -> None:
        super().__init__()
        self._models: Dict[Optional[str], None] = {}

    @property
    def num_shards(self) -> int:
        return len(self._models)

    def shard(self, model_name: Optional[str]) -> Optional[PendingQueue]:
        """One model's pending queue (``None`` when that model was never admitted)."""
        if model_name not in self._models:
            return None
        view = PendingQueue()
        for query in self.snapshot():
            if query.model_name == model_name:
                view.append(query)
        return view

    def append(self, query: Query) -> None:
        PendingQueue.append(self, query)
        self._models[query.model_name] = None

    # defined here, not inherited, for the reason given on ShardedEventQueue.push
    snapshot_arrays = PendingQueue.snapshot_arrays
