"""Throughput upper-bound estimation (paper Sec. 5.2, Eqs. 9-15).

Evaluating the real allowable throughput of a configuration is expensive (it requires
allocating instances and driving load).  Kairos instead computes, in closed form, an
*upper bound* on the throughput any query-distribution policy could achieve on that
configuration, and uses the bound only to rank configurations.

The model: partition the query mix at the auxiliary types' QoS cutoff batch size ``s``.
A fraction ``f`` of queries (those with batch <= s) can run on auxiliary instances at
their standalone rate ``Q_a``; the remaining ``1 - f`` *must* run on base instances,
which serve those larger-than-``s`` queries at rate ``Q_b^{s+}``.  Whichever side
saturates first is the bottleneck:

* base bottleneck (``u * Q_b^{s+} <= (1-f)/f * sum_i v_i Q_a^i``): the bound is
  ``u * Q_b^{s+} / (1 - f)`` (Eqs. 9/12);
* auxiliary bottleneck: the bound is ``sum_i v_i Q_a^i / f`` plus the base types'
  left-over slack converted back into full-mix throughput (Eqs. 11/13/15).

With several auxiliary types the paper approximates all of them as sharing the largest
cutoff ``s`` (and hence the largest fraction ``f' = max_i f_i``), which only makes the
bound more optimistic — rankings are preserved (Sec. 8.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import InstanceCatalog
from repro.cloud.models import MLModel
from repro.cloud.profiles import ProfileRegistry
from repro.core.config_space import ConfigSpace
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive
from repro.workload.batch_sizes import BatchSizeDistribution

#: A plain sequence of configurations, or a memoized space with its count matrix.
ConfigSpaceLike = Union[ConfigSpace, Sequence[HeterogeneousConfig]]


@dataclass(frozen=True)
class UpperBoundInputs:
    """The per-configuration rates entering Eq. 15 (useful for reporting and tests).

    ``aux`` holds one ``(count, q_a)`` pair per auxiliary type with a non-zero count.
    """

    base_count: int
    q_b: float
    q_b_splus: float
    aux: Tuple[Tuple[int, float], ...]
    f: float
    s: int


def upper_bound_from_rates(
    base_count: int,
    q_b: float,
    q_b_splus: float,
    aux: Sequence[Tuple[int, float]],
    f: float,
) -> float:
    """Eq. 15 evaluated directly from rates (the Fig. 7 worked examples call this).

    Parameters
    ----------
    base_count:
        ``u`` — number of base instances.
    q_b:
        Standalone full-mix throughput of one base instance.
    q_b_splus:
        Throughput of one base instance on the larger-than-``s`` queries only.
    aux:
        ``(v_i, Q_a^i)`` pairs for the auxiliary types present.
    f:
        Fraction of queries with batch size at or below the cutoff ``s``.
    """
    if base_count < 0:
        raise ValueError("base_count must be non-negative")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"f must lie in [0, 1], got {f}")
    for v, q_a in aux:
        if v < 0 or q_a < 0:
            raise ValueError("auxiliary counts and rates must be non-negative")
    if q_b < 0 or q_b_splus < 0:
        raise ValueError("base rates must be non-negative")

    aux_rate = float(sum(v * q_a for v, q_a in aux))

    # Degenerate cases ------------------------------------------------------------------
    if base_count == 0 or q_b <= 0:
        # Without base instances only the f-fraction of small queries can ever be
        # served within QoS; queries above the cutoff make the tail violate QoS at any
        # sustained rate, so the allowable throughput is zero unless f == 1.
        if f >= 1.0 - 1e-12:
            return aux_rate
        return 0.0
    if aux_rate <= 0:
        # Homogeneous base-only pool: the bound is its aggregate full-mix throughput.
        return base_count * q_b
    if f <= 0.0:
        # No query fits the auxiliary types: they contribute nothing.
        return base_count * q_b
    if f >= 1.0 - 1e-12:
        # Every query fits the auxiliary types; the base keeps its full-mix rate.
        return aux_rate + base_count * q_b

    offload_rate = (1.0 - f) / f * aux_rate  # Eq. 14's C term
    base_splus_capacity = base_count * q_b_splus

    if base_splus_capacity <= offload_rate:
        # Base instances are the bottleneck (Eq. 9 / 12).
        value = base_splus_capacity / (1.0 - f)
    else:
        # Auxiliary instances are the bottleneck; base slack serves extra full-mix
        # queries (Eq. 11 / 13 / 15).
        slack_ratio = (base_splus_capacity - offload_rate) / base_splus_capacity
        value = aux_rate / f + slack_ratio * base_count * q_b
    # The pool can always ignore its auxiliary instances and serve the full mix on the
    # base instances alone, so no valid upper bound can fall below u * Q_b.  (The paper's
    # closed form can dip below that in extreme base-bottleneck corners; flooring it
    # keeps the bound sound and monotone without affecting the rankings it produces.)
    return max(value, base_count * q_b)


def _bounds_for_group(
    base_counts: np.ndarray,
    q_b: float,
    q_b_splus: float,
    aux_rate: np.ndarray,
    f: float,
) -> np.ndarray:
    """Vectorized :func:`upper_bound_from_rates` for configurations sharing a cutoff.

    ``f``, ``q_b`` and ``q_b_splus`` are scalars for the whole group; ``base_counts``
    and ``aux_rate`` vary per configuration.  The branch structure mirrors the scalar
    function case for case so results are bit-identical.
    """
    values = np.empty(base_counts.shape, dtype=float)

    # Degenerate: no base instances (q_b > 0 is guaranteed by _mean_rate).
    no_base = (base_counts == 0) | (q_b <= 0)
    values[no_base] = aux_rate[no_base] if f >= 1.0 - 1e-12 else 0.0
    rest = ~no_base
    if not np.any(rest):
        return values

    if f <= 0.0:
        # No query fits the auxiliary types (also covers aux_rate == 0: same formula).
        values[rest] = base_counts[rest] * q_b
        return values
    if f >= 1.0 - 1e-12:
        # Every query fits the auxiliary types; adding 0 when aux_rate == 0 matches
        # the scalar's homogeneous branch exactly.
        values[rest] = aux_rate[rest] + base_counts[rest] * q_b
        return values

    # Configurations whose present aux types all have rate 0 reduce to base-only.
    no_aux_rate = rest & (aux_rate <= 0)
    values[no_aux_rate] = base_counts[no_aux_rate] * q_b
    main = rest & ~no_aux_rate
    if not np.any(main):
        return values

    base = base_counts[main]
    rate = aux_rate[main]
    offload_rate = (1.0 - f) / f * rate  # Eq. 14's C term
    base_splus_capacity = base * q_b_splus
    base_bottleneck = base_splus_capacity <= offload_rate
    with np.errstate(divide="ignore", invalid="ignore"):
        slack_ratio = (base_splus_capacity - offload_rate) / base_splus_capacity
        value = np.where(
            base_bottleneck,
            base_splus_capacity / (1.0 - f),  # Eq. 9 / 12
            rate / f + slack_ratio * base * q_b,  # Eq. 11 / 13 / 15
        )
    values[main] = np.maximum(value, base * q_b)  # same soundness floor as the scalar
    return values


def ranking_order(bounds: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    """Indices of ``bounds`` by decreasing value, ties in index order.

    Without ``k`` this is the stable argsort of ``-bounds``.  With ``k`` only the
    head is ordered: every index whose bound reaches the ``k``-th largest, found by
    a partition and then stable-sorted.  Everything left out ranks strictly below
    the ``k``-th bound, so the head is exactly the full order's prefix, tie order
    included, and may run past ``k`` when the ``k``-th bound is tied.
    """
    keys = -np.asarray(bounds, dtype=float)
    if k is None or k >= keys.size:
        return np.argsort(keys, kind="stable")
    kth = np.partition(keys, k - 1)[k - 1]
    if np.isnan(kth):  # fewer than k comparable bounds: NaNs sort last, order all
        return np.argsort(keys, kind="stable")
    head = np.flatnonzero(keys <= kth)
    return head[np.argsort(keys[head], kind="stable")]


def ranked_pairs(
    configs: Sequence[HeterogeneousConfig], bounds: np.ndarray, order: np.ndarray
) -> List[Tuple[HeterogeneousConfig, float]]:
    """``(config, bound)`` pairs in ``order`` (bulk-converted: no per-element boxing)."""
    return list(zip([configs[i] for i in order.tolist()], bounds[order].tolist()))


#: Cutoff layouts one estimator keeps: a mixed plan ranks two spaces per call.
_LAYOUT_SLOTS = 2


class _CutoffLayout(NamedTuple):
    """A configuration space grouped by effective cutoff ``s`` (samples play no part).

    ``groups`` holds ``(s, mask, base_counts, aux_counts)`` per distinct cutoff, in
    increasing ``s``; ``no_aux`` marks the base-only configurations.
    """

    base_counts: np.ndarray
    no_aux: np.ndarray
    groups: Tuple[Tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]


class ThroughputUpperBoundEstimator:
    """Computes Eq. 15 upper bounds for arbitrary configurations of one model.

    The estimator needs (a) the latency profiles and (b) the query-size mix.  The mix is
    supplied as a sample of observed batch sizes — in the real system Kairos obtains it
    by monitoring the most recent queries (the paper uses the last ~10000) — or drawn
    from a :class:`~repro.workload.batch_sizes.BatchSizeDistribution` via
    :meth:`from_distribution`.
    """

    def __init__(
        self,
        profiles: ProfileRegistry,
        model: Union[str, MLModel],
        batch_samples: Sequence[int],
        *,
        catalog: Optional[InstanceCatalog] = None,
    ):
        self.profiles = profiles
        self.model = model if isinstance(model, MLModel) else profiles.models[model]
        self.catalog = catalog if catalog is not None else profiles.catalog
        self._base_name = self.catalog.base_type.name
        # cache: cutoff s -> (f, Q_b^{s+}, {type: Q_a})
        self._cache: Dict[int, Tuple[float, float, Dict[str, float]]] = {}
        # per-type QoS cutoffs
        self._cutoffs: Dict[str, int] = {
            t.name: profiles.qos_cutoff_batch(self.model, t.name) for t in self.catalog.types
        }
        # per-type latency indexed by batch size (index 0 unused), grown to the largest
        # sample seen: a rate is a gather from it instead of a profile evaluation
        self._latency_tables: Dict[str, np.ndarray] = {}
        self._tabulated_up_to = 0
        # the last _LAYOUT_SLOTS memoized ConfigSpaces ranked, with their cutoff
        # groupings, keyed on identity (the strong reference keeps an id in use)
        self._layouts: Dict[int, Tuple[ConfigSpace, _CutoffLayout]] = {}
        self.update_samples(batch_samples)

    @classmethod
    def from_distribution(
        cls,
        profiles: ProfileRegistry,
        model: Union[str, MLModel],
        distribution: BatchSizeDistribution,
        *,
        num_samples: int = 10_000,
        rng: RngLike = None,
        catalog: Optional[InstanceCatalog] = None,
    ) -> "ThroughputUpperBoundEstimator":
        """Build the estimator by monitoring ``num_samples`` queries from a distribution."""
        samples = distribution.sample(num_samples, ensure_rng(rng))
        return cls(profiles, model, samples, catalog=catalog)

    # -- public API ---------------------------------------------------------------------
    @property
    def base_type_name(self) -> str:
        return self._base_name

    def update_samples(self, batch_samples: Sequence[int]) -> None:
        """Replace the monitored query-size window in place.

        Only the sample-dependent state is recomputed (the per-cutoff rate cache and
        the base full-mix rate).  The per-type QoS cutoffs, the latency tables and
        the last space's cutoff grouping depend solely on the profiles, the model
        and the space, so re-plans keep them instead of re-deriving them the way
        rebuilding the estimator would.
        """
        samples = np.asarray(batch_samples, dtype=int)
        if samples.size == 0:
            raise ValueError("batch_samples must be non-empty")
        if np.any(samples < 1):
            raise ValueError("batch sizes must be >= 1")
        largest = int(samples.max())
        if largest > self._tabulated_up_to:
            batches = np.arange(1, largest + 1)
            for t in self.catalog.types:
                table = np.full(largest + 1, np.nan)
                table[1:] = self.profiles.latency_ms(self.model, t.name, batches)
                self._latency_tables[t.name] = table
            self._tabulated_up_to = largest
        self._samples = samples
        self._cache.clear()
        self._q_b_full = self._mean_rate(self._base_name, samples)

    def cutoff_of(self, type_name: str) -> int:
        """QoS cutoff batch size ``s_j`` of an instance type."""
        return self._cutoffs[type_name]

    def inputs_for(self, config: HeterogeneousConfig) -> UpperBoundInputs:
        """The Eq. 15 input rates for one configuration."""
        base_count = config.count_of(self._base_name)
        aux_counts = [
            (name, count)
            for name, count in config.as_mapping().items()
            if name != self._base_name and count > 0
        ]
        if not aux_counts:
            return UpperBoundInputs(
                base_count=base_count,
                q_b=self._q_b_full,
                q_b_splus=self._q_b_full,
                aux=(),
                f=0.0,
                s=0,
            )
        s = max(self._cutoffs[name] for name, _ in aux_counts)
        f, q_b_splus, q_a_by_type = self._rates_for_cutoff(s)
        aux = tuple((count, q_a_by_type[name]) for name, count in aux_counts)
        return UpperBoundInputs(
            base_count=base_count,
            q_b=self._q_b_full,
            q_b_splus=q_b_splus,
            aux=aux,
            f=f,
            s=s,
        )

    def upper_bound(self, config: HeterogeneousConfig) -> float:
        """``QPS_max`` of Eq. 15 for ``config``."""
        inputs = self.inputs_for(config)
        return upper_bound_from_rates(
            inputs.base_count, inputs.q_b, inputs.q_b_splus, inputs.aux, inputs.f
        )

    def upper_bounds(self, configs: ConfigSpaceLike) -> np.ndarray:
        """Vector of upper bounds for many configurations (vectorized fast path)."""
        return self.upper_bounds_batch(configs)

    def upper_bounds_batch(self, configs: ConfigSpaceLike) -> np.ndarray:
        """Eq. 15 over a whole configuration space as grouped numpy array math.

        The space is partitioned by the effective cutoff ``s`` (the maximum cutoff of
        the auxiliary types present in a configuration); all configurations sharing a
        cutoff share the same ``(f, Q_b^{s+}, Q_a)`` rates, so the bound reduces to
        arithmetic over per-group count vectors.  Produces bit-identical values to the
        scalar :meth:`upper_bound` — the planner's ranking is unchanged, only ~100x
        cheaper at Fig. 15a-scale spaces.  A memoized :class:`ConfigSpace` brings its
        count matrix along, so re-ranking it skips rebuilding that matrix, and the
        last such space's cutoff grouping is kept, since only the rates change
        between re-plans.
        """
        space = configs if isinstance(configs, ConfigSpace) else None
        if space is not None:
            counts: Optional[np.ndarray] = space.counts
            same_catalog = space.catalog is self.catalog
            configs = space.configs
        else:
            configs = list(configs)
            counts = None
            # Identity check first: name-list comparison per config is itself hot-path
            # overhead, and enumerated spaces all share one catalog object.
            same_catalog = all(c.catalog is self.catalog for c in configs)
        if not configs:
            return np.zeros(0, dtype=float)
        names = list(self.catalog.names)
        if not same_catalog and any(
            list(c.catalog.names) != names for c in configs if c.catalog is not self.catalog
        ):
            # Foreign catalogs fall back to the scalar path (name-based lookups).
            return np.asarray([self.upper_bound(c) for c in configs], dtype=float)

        cached = self._layouts.get(id(space)) if space is not None else None
        if cached is not None:
            layout = cached[1]
        else:
            if counts is None:
                counts = np.asarray([c.counts for c in configs], dtype=int)
            layout = self._cutoff_layout(counts)
            if space is not None:
                if len(self._layouts) >= _LAYOUT_SLOTS:
                    del self._layouts[next(iter(self._layouts))]  # the oldest
                self._layouts[id(space)] = (space, layout)

        q_b = self._q_b_full
        aux_names = [name for name in names if name != self._base_name]
        bounds = np.empty(len(configs), dtype=float)
        bounds[layout.no_aux] = layout.base_counts[layout.no_aux] * q_b
        for s, group, base_counts, group_counts in layout.groups:
            f, q_b_splus, q_a_by_type = self._rates_for_cutoff(s)
            q_a = [q_a_by_type[name] for name in aux_names]
            # accumulate in catalog order, matching the scalar sum term by term
            aux_rate = np.zeros(group_counts.shape[0], dtype=float)
            for k in range(len(aux_names)):
                aux_rate = aux_rate + group_counts[:, k] * q_a[k]
            bounds[group] = _bounds_for_group(base_counts, q_b, q_b_splus, aux_rate, f)
        return bounds

    def _cutoff_layout(self, counts: np.ndarray) -> _CutoffLayout:
        """Group a count matrix by effective cutoff ``s`` (max over the aux types present)."""
        base_index = self.catalog.index_of(self._base_name)
        aux_indices = [i for i in range(counts.shape[1]) if i != base_index]
        base_counts = counts[:, base_index].astype(float)
        if not aux_indices:
            # Single-type catalog: every configuration is base-only.
            return _CutoffLayout(base_counts, np.ones(len(counts), dtype=bool), ())
        aux_counts = counts[:, aux_indices]
        names = list(self.catalog.names)
        cutoffs = np.asarray([self._cutoffs[names[i]] for i in aux_indices], dtype=int)
        # effective cutoff s = max cutoff over the aux types present (-1: no aux)
        s_values = np.where(aux_counts > 0, cutoffs[None, :], -1).max(axis=1)
        no_aux = s_values < 0
        groups = []
        for s in np.unique(s_values[~no_aux]).tolist():
            group = s_values == s
            groups.append((s, group, base_counts[group], aux_counts[group]))
        return _CutoffLayout(base_counts, no_aux, tuple(groups))

    def rank_configs(
        self, configs: ConfigSpaceLike
    ) -> List[Tuple[HeterogeneousConfig, float]]:
        """Configurations sorted by decreasing upper bound (ties keep input order)."""
        bounds = self.upper_bounds(configs)
        if isinstance(configs, ConfigSpace):
            configs = configs.configs
        return ranked_pairs(configs, bounds, ranking_order(bounds))

    # -- internals ------------------------------------------------------------------------
    def _rates_for_cutoff(self, s: int) -> Tuple[float, float, Dict[str, float]]:
        if s in self._cache:
            return self._cache[s]
        samples = self._samples
        below = samples[samples <= s]
        above = samples[samples > s]
        f = float(below.size) / float(samples.size)
        q_b_splus = self._mean_rate(self._base_name, above) if above.size else self._q_b_full
        q_a_by_type: Dict[str, float] = {}
        for t in self.catalog.types:
            if t.name == self._base_name:
                continue
            if below.size == 0 or self._cutoffs[t.name] == 0:
                q_a_by_type[t.name] = 0.0
            else:
                q_a_by_type[t.name] = self._mean_rate(t.name, below)
        self._cache[s] = (f, q_b_splus, q_a_by_type)
        return self._cache[s]

    def _mean_rate(self, type_name: str, batches: np.ndarray) -> float:
        if batches.size == 0:
            return 0.0
        mean = float(np.mean(self._latency_tables[type_name][batches]))
        if mean <= 0:
            raise ValueError("profiles produced non-positive latency")
        return 1000.0 / mean
