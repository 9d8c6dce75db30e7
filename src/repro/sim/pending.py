"""The central controller's pending queue, without per-round list churn.

The serving simulators used to copy the whole pending list every scheduling round
(``list(pending)``), rebuild a ``query_id`` set on every commit, and reconstruct the
list after each round (``pending[:] = [q for q in pending if ...]``) — O(n) work per
commit that turns long backlogs into O(n^2) churn.  :class:`PendingQueue` keeps the
same arrival-ordered semantics with O(1) membership tests, O(1) removal (tombstones +
amortized compaction), and a memoized snapshot that is only rebuilt when the queue
actually changed between rounds.

For the incremental cost-matrix path the queue also exposes a :attr:`version`
counter (bumped on every logical change) and :meth:`snapshot_arrays`, the pending
batch-size / arrival-time columns as memoized numpy arrays — so a scheduling round
whose queue did not change since the previous round reuses the row side of the ``L``
matrix without touching a single :class:`~repro.workload.query.Query` object.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.workload.query import Query


class PendingQueue:
    """Arrival-ordered pending queries with O(1) lookup/removal by ``query_id``.

    The iteration/snapshot order is exactly the append order of the still-pending
    queries — identical to the plain-list implementation it replaces, which is what
    keeps optimized runs byte-identical per seed.  The queue also supports positional
    indexing (over the live entries, in the same order), so policies written against
    a plain ``Sequence[Query]`` work unchanged when handed the queue itself.
    """

    __slots__ = ("_entries", "_positions", "_live", "_snapshot", "_version", "_arrays")

    def __init__(self) -> None:
        self._entries: List[Optional[Query]] = []
        self._positions: Dict[int, int] = {}
        self._live = 0
        self._snapshot: Optional[List[Query]] = None
        self._version = 0
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._positions

    def __iter__(self) -> Iterator[Query]:
        return iter(self.snapshot())

    def __getitem__(self, index):
        return self.snapshot()[index]

    @property
    def version(self) -> int:
        """Monotone change counter: bumped by every ``append``/``remove``.

        Two equal versions guarantee the pending set (and therefore every snapshot
        view) is unchanged; round-over-round caches key off it.
        """
        return self._version

    def append(self, query: Query) -> None:
        """Admit one arriving query (ids must be unique among pending queries)."""
        if query.query_id in self._positions:
            raise ValueError(f"query {query.query_id} is already pending")
        self._positions[query.query_id] = len(self._entries)
        self._entries.append(query)
        self._live += 1
        self._snapshot = None
        self._arrays = None
        self._version += 1

    def remove(self, query_id: int) -> Query:
        """Remove (and return) a pending query by id; raises ``KeyError`` if absent.

        Removal leaves a tombstone; the backing list is compacted once more than half
        of it is tombstones, keeping removal O(1) amortized while preserving order.
        """
        position = self._positions.pop(query_id, None)
        if position is None:
            raise KeyError(query_id)
        query = self._entries[position]
        assert query is not None
        self._entries[position] = None
        self._live -= 1
        self._snapshot = None
        self._arrays = None
        self._version += 1
        if not self._live:
            self._entries = []  # emptied: nothing left to compact
        elif len(self._entries) > 32 and self._live * 2 < len(self._entries):
            self._compact()
        return query

    def snapshot(self) -> List[Query]:
        """The pending queries in arrival order.

        The returned list is memoized until the next ``append``/``remove`` — callers
        (scheduling policies) must treat it as read-only.
        """
        if self._snapshot is None:
            self._snapshot = [q for q in self._entries if q is not None]
        return self._snapshot

    def snapshot_arrays(self) -> Tuple[List[Query], np.ndarray, np.ndarray]:
        """``(queries, batch_sizes, arrival_times)`` for the current snapshot.

        The arrays parallel :meth:`snapshot` (``batch_sizes`` as the platform int
        dtype the cost matrix always used, ``arrival_times`` as float64), are
        memoized together with it, and are read-only shared state — slice, never
        mutate.  One queue change rebuilds them once; unchanged queues serve any
        number of scheduling rounds for free.
        """
        if self._arrays is None:
            snapshot = self.snapshot()
            batches = np.asarray([q.batch_size for q in snapshot], dtype=int)
            arrivals = np.asarray([q.arrival_time_ms for q in snapshot], dtype=float)
            self._arrays = (batches, arrivals)
        return self.snapshot(), self._arrays[0], self._arrays[1]

    def _compact(self) -> None:
        self._entries = [q for q in self._entries if q is not None]
        self._positions = {q.query_id: i for i, q in enumerate(self._entries)}
