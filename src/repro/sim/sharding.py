"""Sharded event/pending queues with a deterministic, anchor-preserving merge rule.

One Python process drives one global :class:`~repro.sim.engine.EventQueue` and one
:class:`~repro.sim.pending.PendingQueue` — the explicit fleet-scale ceiling named in
the ROADMAP.  This module shards both **without changing a single observable
ordering decision**:

* :class:`ShardedEventQueue` partitions events across per-shard binary heaps (per
  model for the multi-model loop, per event-kind class for the single-model loops)
  while handing out **globally unique** insertion sequence numbers.  Every event's
  sort key ``event.sort_key(sequence)`` — ``(time, kind priority, sequence)`` — is
  therefore globally comparable and globally unique, so merging the shard heads by
  smallest key reproduces the exact pop order of one global heap, *whatever the
  partition*.  Correctness never depends on the shard-key function; shard keys only
  decide which heap absorbs the O(log n) push/pop cost.
* Batch coalescing reuses the **anchor rule** of
  :meth:`~repro.sim.engine.EventQueue.pop_batch` with one **global** anchor across
  all shards: the limit is ``anchor + TIME_EPSILON_MS`` where the anchor is the
  single timestamp the batch is taken at (the given ``time_ms``, else the earliest
  event across every shard).  Letting each shard anchor its own batch would split
  the same sub-epsilon chain differently per shard and diverge from the unsharded
  loop — the divergence the anchor rule exists to forbid.
* :class:`ShardClock` gives each shard a monotone clock advanced at round
  boundaries, plus a global round clock that is always their maximum; fault draws
  stay in commission order because pushes (and therefore sequence numbers) happen
  in exactly the order the unsharded loop performs them.
* :class:`ShardedPendingQueue` keeps one :class:`~repro.sim.pending.PendingQueue`
  per model and merges snapshots by a global admission sequence — the merged view
  is byte-identical to the append order of the single queue it replaces.

Byte-identity per seed against the unsharded path, over the full committed
regression corpus, is pinned in ``tests/regression/test_regression_scenarios.py``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.engine import TIME_EPSILON_MS, SimulationClock
from repro.sim.events import Event, EventKind
from repro.sim.pending import PendingQueue
from repro.workload.query import Query

ShardKey = Callable[[Event], object]


def shard_key_by_model(event: Event) -> object:
    """Shard key for the multi-model loop: the model the event belongs to.

    Model-tagged payloads (queries, scale requests, completion records) shard by
    model name; everything else (fault timers, control events) shards by event
    kind.  The partition is a performance choice only — the sequence-number merge
    makes any partition order-identical to the global heap.
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
    """Per-shard monotone clocks advanced at round boundaries, plus a global clock.

    The global clock is always ``max`` over the shard clocks (and never behind a
    direct :meth:`advance_round`); each shard clock advances lazily, only when its
    shard contributes events to a round.  Shard clocks exist for observability —
    the driving loops consume only the global round clock, so sharding cannot leak
    into scheduling decisions.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        self._start_ms = float(start_ms)
        self._global = SimulationClock(start_ms)
        self._shards: Dict[object, SimulationClock] = {}

    @property
    def now_ms(self) -> float:
        return self._global.now_ms

    def shard_now_ms(self, shard: object) -> float:
        """The shard's local clock (the start time if it never saw a round)."""
        clock = self._shards.get(shard)
        return clock.now_ms if clock is not None else self._start_ms

    def advance_round(self, time_ms: float) -> float:
        """Advance the global round clock (monotone, like the unsharded clock)."""
        return self._global.advance_to(time_ms)

    def advance_shard(self, shard: object, time_ms: float) -> float:
        """Advance one shard's clock to the round boundary it participated in."""
        clock = self._shards.get(shard)
        if clock is None:
            clock = self._shards[shard] = SimulationClock(self._start_ms)
        local = clock.advance_to(time_ms)
        # the global clock is the max over shards: a shard lagging behind another
        # shard's round boundary must not read as backward global motion
        if local > self._global.now_ms:
            self._global.advance_to(local)
        return local


class ShardedEventQueue:
    """A drop-in :class:`~repro.sim.engine.EventQueue` over per-shard heaps.

    The public API and every ordering guarantee are identical to the single-heap
    queue; see the module docstring for why the merge is exact.  ``clock`` (a
    :class:`ShardClock`, created on demand) tracks which shards participated in
    each popped batch.
    """

    def __init__(self, shard_key: Optional[ShardKey] = None) -> None:
        self._shard_key: ShardKey = shard_key or shard_key_by_kind
        self._shards: Dict[object, List[Tuple[tuple, Event]]] = {}
        #: events pushed so far; global, so sort keys are unique across shards
        self.pushed = 0
        self.clock = ShardClock()

    def __len__(self) -> int:
        return sum(len(heap) for heap in self._shards.values())

    def __bool__(self) -> bool:
        return any(self._shards.values())

    @property
    def num_shards(self) -> int:
        """Live shards (shards emptied by pops still count until :meth:`clear`)."""
        return len(self._shards)

    def shard_sizes(self) -> Dict[object, int]:
        return {key: len(heap) for key, heap in self._shards.items()}

    def push(self, event: Event) -> None:
        """Insert an event into its shard; sequence numbers are global."""
        heap = self._shards.setdefault(self._shard_key(event), [])
        heapq.heappush(heap, (event.sort_key(self.pushed), event))
        self.pushed += 1

    def push_all(self, events) -> None:
        for event in events:
            self.push(event)

    def _min_shard(self) -> Optional[object]:
        """The shard whose head has the globally smallest sort key."""
        best_key: Optional[object] = None
        best_sort = None
        for key, heap in self._shards.items():
            if heap and (best_sort is None or heap[0][0] < best_sort):
                best_key, best_sort = key, heap[0][0]
        return best_key

    def pop(self) -> Event:
        """Remove and return the earliest event across all shards."""
        shard = self._min_shard()
        if shard is None:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._shards[shard])[1]

    def peek(self) -> Event:
        shard = self._min_shard()
        if shard is None:
            raise IndexError("peek on an empty event queue")
        return self._shards[shard][0][1]

    def peek_time(self) -> Optional[float]:
        shard = self._min_shard()
        return self._shards[shard][0][1].time_ms if shard is not None else None

    def pop_until(self, time_ms: float) -> Iterator[Event]:
        """Yield and remove every event with ``time <= time_ms`` (within epsilon)."""
        limit = time_ms + TIME_EPSILON_MS
        while True:
            shard = self._min_shard()
            if shard is None or self._shards[shard][0][1].time_ms > limit:
                return
            self.clock.advance_shard(shard, self._shards[shard][0][1].time_ms)
            yield heapq.heappop(self._shards[shard])[1]

    def pop_batch(self, time_ms: Optional[float] = None) -> List[Event]:
        """The whole equal-timestamp batch, merged across shards, in heap order.

        Reuses the exact anchor rule of
        :meth:`~repro.sim.engine.EventQueue.pop_batch` with one **global** anchor:
        ``limit = anchor + TIME_EPSILON_MS`` where the anchor is ``time_ms`` when
        given, else the earliest event across *every* shard.  Events are then
        drained smallest-sort-key-first across shards, which is exactly the order
        a single global heap would produce.
        """
        anchor_shard = self._min_shard()
        if time_ms is None:
            if anchor_shard is None:
                return []
            anchor = self._shards[anchor_shard][0][1].time_ms
        else:
            anchor = time_ms
        limit = anchor + TIME_EPSILON_MS
        batch: List[Event] = []
        while True:
            shard = self._min_shard()
            if shard is None:
                break
            heap = self._shards[shard]
            if heap[0][1].time_ms > limit:
                break
            self.clock.advance_shard(shard, heap[0][1].time_ms)
            batch.append(heapq.heappop(heap)[1])
        if batch:
            self.clock.advance_round(batch[-1].time_ms)
        return batch

    def kind_counts(self) -> Counter:
        """Queued events per kind name over every shard (for diagnostics)."""
        return Counter(e[1].kind.name for heap in self._shards.values() for e in heap)

    def only_kinds(self, kinds) -> bool:
        """True when non-empty and every queued event's kind is in ``kinds``."""
        return bool(self) and all(
            entry[1].kind in kinds
            for heap in self._shards.values()
            for entry in heap
        )

    def discard(self, predicate) -> int:
        """Remove every queued event matching ``predicate``; returns how many.

        Per-shard filter + heapify, as in the unsharded queue: survivors keep
        their original sort keys, so relative order is untouched.
        """
        removed = 0
        for key, heap in self._shards.items():
            kept = [entry for entry in heap if not predicate(entry[1])]
            if len(kept) != len(heap):
                removed += len(heap) - len(kept)
                heapq.heapify(kept)
                self._shards[key] = kept
        return removed

    def clear(self) -> None:
        self._shards.clear()


class ShardedPendingQueue:
    """Per-model pending queues whose merged view equals global append order.

    Each model (``None`` for untagged queries) gets its own
    :class:`~repro.sim.pending.PendingQueue`; every admitted query also records a
    global admission sequence number.  The merged snapshot interleaves the
    per-shard snapshots by that sequence — each shard's snapshot is already in
    increasing sequence order, so an ``heapq.merge`` reproduces exactly the append
    order of the single queue this replaces.  Scheduling policies written against
    :class:`PendingQueue` (snapshot, positional indexing, ``snapshot_arrays``)
    work unchanged.
    """

    __slots__ = (
        "_shards",
        "_shard_of",
        "_seq_of",
        "_sequence",
        "_version",
        "_snapshot",
        "_arrays",
    )

    def __init__(self) -> None:
        self._shards: Dict[Optional[str], PendingQueue] = {}
        self._shard_of: Dict[int, Optional[str]] = {}
        self._seq_of: Dict[int, int] = {}
        self._sequence = 0
        self._version = 0
        self._snapshot: Optional[List[Query]] = None
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self._shard_of)

    def __bool__(self) -> bool:
        return bool(self._shard_of)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._shard_of

    def __iter__(self) -> Iterator[Query]:
        return iter(self.snapshot())

    def __getitem__(self, index):
        return self.snapshot()[index]

    @property
    def version(self) -> int:
        return self._version

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard(self, model_name: Optional[str]) -> Optional[PendingQueue]:
        """One model's pending queue (``None`` when that model has no backlog)."""
        return self._shards.get(model_name)

    def append(self, query: Query) -> None:
        if query.query_id in self._shard_of:
            raise ValueError(f"query {query.query_id} is already pending")
        shard = self._shards.setdefault(query.model_name, PendingQueue())
        shard.append(query)
        self._shard_of[query.query_id] = query.model_name
        self._seq_of[query.query_id] = self._sequence
        self._sequence += 1
        self._version += 1
        self._snapshot = None
        self._arrays = None

    def remove(self, query_id: int) -> Query:
        model = self._shard_of.pop(query_id, None)
        if model is None and query_id not in self._seq_of:
            raise KeyError(query_id)
        self._seq_of.pop(query_id, None)
        query = self._shards[model].remove(query_id)
        self._version += 1
        self._snapshot = None
        self._arrays = None
        return query

    def snapshot(self) -> List[Query]:
        """All pending queries, merged across shards in global admission order."""
        if self._snapshot is None:
            runs = [
                [(self._seq_of[q.query_id], q) for q in shard.snapshot()]
                for shard in self._shards.values()
                if len(shard)
            ]
            self._snapshot = [q for _, q in heapq.merge(*runs)]
        return self._snapshot

    def snapshot_arrays(self) -> Tuple[List[Query], np.ndarray, np.ndarray]:
        """``(queries, batch_sizes, arrival_times)``, as for :class:`PendingQueue`."""
        if self._arrays is None:
            snapshot = self.snapshot()
            batches = np.asarray([q.batch_size for q in snapshot], dtype=int)
            arrivals = np.asarray([q.arrival_time_ms for q in snapshot], dtype=float)
            self._arrays = (batches, arrivals)
        return self.snapshot(), self._arrays[0], self._arrays[1]
