"""Inference queries.

A *query* is a batch of individual inference requests submitted together (the paper's
terminology); its ``batch_size`` is the number of requests in the batch.  The query's
QoS clock starts at its arrival time: it must complete within the model's QoS target of
its arrival, including any time spent waiting in the central queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence

from repro.utils.validation import check_non_negative, check_positive_int


@dataclass(frozen=True, order=False, slots=True)
class Query:
    """A single inference query (a batch of requests).

    Attributes
    ----------
    query_id:
        Unique identifier within a workload (monotone in arrival order by convention).
    batch_size:
        Number of requests batched into the query (1 .. model max batch size).
    arrival_time_ms:
        Simulated wall-clock arrival time in milliseconds.
    model_name:
        The served model this query targets.  ``None`` (the default) means the single
        model of the cluster, preserving the original single-model workloads byte for
        byte; multi-model clusters require every query to be tagged so the central
        controller can route it to an instance hosting the right model.
    """

    query_id: int
    batch_size: int
    arrival_time_ms: float
    model_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.query_id < 0:
            raise ValueError(f"query_id must be non-negative, got {self.query_id}")
        check_positive_int(self.batch_size, "batch_size")
        check_non_negative(self.arrival_time_ms, "arrival_time_ms")
        if self.model_name is not None and not self.model_name:
            raise ValueError("model_name must be None or non-empty")

    def deadline_ms(self, qos_ms: float) -> float:
        """Absolute completion deadline implied by a QoS target."""
        return self.arrival_time_ms + qos_ms

    def waiting_time_ms(self, now_ms: float) -> float:
        """Time the query has already spent waiting at simulated time ``now_ms``.

        This is the ``W_i`` term of the paper's QoS constraint (Eq. 3); it is clamped at
        zero for times before the arrival.
        """
        return max(0.0, now_ms - self.arrival_time_ms)

    def with_arrival_time(self, arrival_time_ms: float) -> "Query":
        """Copy of the query shifted to a new arrival time (used by trace replay)."""
        return Query(self.query_id, self.batch_size, float(arrival_time_ms), self.model_name)

    def for_model(self, model_name: str) -> "Query":
        """Copy of the query tagged with the model it targets (multi-model workloads)."""
        return Query(self.query_id, self.batch_size, self.arrival_time_ms, model_name)

    def with_query_id(self, query_id: int) -> "Query":
        """Copy with a new id (used when interleaving per-model streams globally)."""
        return Query(int(query_id), self.batch_size, self.arrival_time_ms, self.model_name)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = f", {self.model_name}" if self.model_name else ""
        return f"Q{self.query_id}(b={self.batch_size}, t={self.arrival_time_ms:.2f}ms{tag})"


def check_serving_inputs(
    queries: Sequence[Query],
    model_names: Collection[str],
    scripted_events: Iterable = (),
    catalog: Collection[str] = (),
) -> None:
    """Reject a run's inputs that name something its cluster cannot serve.

    Every serving loop calls this before any event fires (on its scripted events
    when built, on its query stream when run), so a bad input raises a
    ``ValueError`` naming it rather than being served silently or failing mid-run:

    * a repeated query id — the loops key their bookkeeping (pending set,
      retries, deadlines, records) on it, so a duplicate is either served twice
      or collides mid-run;
    * a query tagged with a model outside ``model_names``, or untagged while
      several models are co-located;
    * a scripted event whose payload names an instance type outside ``catalog``,
      or a scale request naming a model outside ``model_names`` (or none while
      several models are co-located).
    """
    sole = len(model_names) == 1
    seen = set()
    for query in queries:
        if query.query_id in seen:
            raise ValueError(f"duplicate query id {query.query_id} in the input stream")
        seen.add(query.query_id)
        tag = query.model_name
        if tag is None:
            if not sole:
                raise ValueError(
                    f"query {query.query_id} carries no model tag but "
                    f"{len(model_names)} models are co-located"
                )
        elif tag not in model_names:
            raise ValueError(
                f"query {query.query_id} targets model {tag!r}, which the cluster "
                f"does not serve (models: {sorted(model_names)})"
            )
    for event in scripted_events:
        what = f"scripted {event.kind.name} at {event.time_ms} ms"
        type_name = getattr(event.payload, "type_name", None)
        if type_name is not None and type_name not in catalog:
            raise ValueError(f"{what} targets unknown instance type {type_name!r}")
        if not hasattr(event.payload, "model_name"):
            continue  # crash storms and preemption bursts span every model
        model_name = event.payload.model_name
        if model_name is None and not sole:
            raise ValueError(
                f"{what} carries no model tag but {len(model_names)} models are "
                "co-located"
            )
        if model_name is not None and model_name not in model_names:
            raise ValueError(
                f"{what} targets model {model_name!r}, which the cluster does not serve"
            )
