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


def _grouped_bounds(
    base: np.ndarray,
    rate: np.ndarray,
    q_b: float,
    q_b_splus: np.ndarray,
    f: np.ndarray,
    baseless: int,
) -> np.ndarray:
    """Vectorized :func:`upper_bound_from_rates` for configurations with aux types.

    ``q_b`` is shared; the base counts, the aux rate and their group's ``f`` and
    ``Q_b^{s+}`` vary per configuration, and the first ``baseless`` configurations
    are the ones without a base instance.  Eq. 15's two-bottleneck value is
    computed for the others and the scalar's earlier branches are masked over it,
    so each configuration gets the scalar's value bit for bit.
    """
    if q_b <= 0:
        baseless = base.size
    fits_all = f >= 1.0 - 1e-12
    # no base instance: only the small queries can be served
    bounds = np.where(fits_all, rate, 0.0)
    base, rate, q_b_splus, f, fits_all = (
        column[baseless:] for column in (base, rate, q_b_splus, f, fits_all)
    )
    base_only = base * q_b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # masked below
        offload_rate = (1.0 - f) / f * rate  # Eq. 14's C term
        base_splus_capacity = base * q_b_splus
        slack_ratio = (base_splus_capacity - offload_rate) / base_splus_capacity
        value = np.where(
            base_splus_capacity <= offload_rate,
            base_splus_capacity / (1.0 - f),  # Eq. 9 / 12: base bottleneck
            rate / f + slack_ratio * base * q_b,  # Eq. 11 / 13 / 15: aux bottleneck
        )
        value = np.maximum(value, base_only)  # same soundness floor as the scalar
    # the scalar's earlier branches, last to first
    value = np.where(fits_all, rate + base_only, value)  # every query fits the aux
    bounds[baseless:] = np.where((f <= 0.0) | (rate <= 0), base_only, value)  # aux idle
    return bounds


def _aux_rate(columns: Sequence[np.ndarray], q_a: Sequence[float]) -> np.ndarray:
    """``sum_i v_i Q_a^i`` per configuration, accumulated in catalog order like the
    scalar's sum (whose ``0 +`` first step leaves a non-negative term unchanged)."""
    rate = columns[0] * q_a[0]
    for k in range(1, len(columns)):
        rate = rate + columns[k] * q_a[k]
    return rate


def _rate(latency_sum: float, count: int) -> float:
    """Queries per second at the mean latency ``latency_sum / count`` (0 for none).

    With ``latency_sum`` from ``np.add.reduce`` this is the sum and division
    ``np.mean`` performs, without its dispatch.
    """
    if count == 0:
        return 0.0
    mean = latency_sum / count
    if mean <= 0:
        raise ValueError("profiles produced non-positive latency")
    return 1000.0 / mean


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

    ``no_aux`` lists the base-only configurations and ``no_aux_base`` their base
    counts.  ``cutoffs`` holds the distinct cutoffs of the others in increasing
    order; ``grouped`` lists those configurations, the first ``baseless`` of them
    the ones without a base instance, ``group`` the position of each one's cutoff
    in ``cutoffs``, and ``base`` / ``aux`` (contiguous float columns, one per
    auxiliary type in catalog order) their counts.
    """

    no_aux: np.ndarray
    no_aux_base: np.ndarray
    cutoffs: Tuple[int, ...]
    grouped: np.ndarray
    baseless: int
    group: np.ndarray
    base: np.ndarray
    aux: Tuple[np.ndarray, ...]


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
        # the aux types whose rates are ever read, catalog order (a zero cutoff pins
        # an aux rate to 0), and their latency tables stacked one row per type
        self._rated_aux = [
            t.name
            for t in self.catalog.types
            if t.name != self._base_name and self._cutoffs[t.name] != 0
        ]
        self._aux_tables = np.empty((len(self._rated_aux), 0))
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

        Only the sample-dependent state is recomputed: the latency of every sample
        on the base and on each rated aux type (gathered once per window: every
        cutoff's rates are means over one mask of them), the per-cutoff rate cache
        and the base full-mix rate.  The per-type QoS cutoffs, the latency tables
        and the last spaces' cutoff groupings depend solely on the profiles, the
        model and the space, so re-plans keep them instead of re-deriving them the
        way rebuilding the estimator would.
        """
        samples = np.asarray(batch_samples, dtype=int)
        if samples.size == 0:
            raise ValueError("batch_samples must be non-empty")
        if samples.min() < 1:
            raise ValueError("batch sizes must be >= 1")
        largest = int(samples.max())
        if largest > self._tabulated_up_to:
            batches = np.arange(1, largest + 1)
            for t in self.catalog.types:
                table = np.full(largest + 1, np.nan)
                table[1:] = self.profiles.latency_ms(self.model, t.name, batches)
                self._latency_tables[t.name] = table
            self._tabulated_up_to = largest
            self._aux_tables = np.asarray(
                [self._latency_tables[name] for name in self._rated_aux]
            ).reshape(len(self._rated_aux), largest + 1)
        self._samples = samples
        self._base_latency = self._latency_tables[self._base_name][samples]
        # C-contiguous rows: a row's sum along axis 1 is the pairwise sum a 1-D
        # array of the same values gets, so the means stay np.mean's bits
        self._aux_latency = self._aux_tables.take(samples, axis=1)
        self._cache.clear()
        self._q_b_full = _rate(float(np.add.reduce(self._base_latency)), samples.size)

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
        bounds[layout.no_aux] = layout.no_aux_base * q_b
        if not layout.cutoffs:
            return bounds
        # every configuration with aux types reads its group's rates from one
        # gathered column: (f, Q_b^{s+}, Q_a per aux type)
        per_group = np.asarray(
            [
                (f, q_b_splus, *[q_a_by_type[name] for name in aux_names])
                for f, q_b_splus, q_a_by_type in map(self._rates_for_cutoff, layout.cutoffs)
            ]
        )
        f, q_b_splus, *q_a = per_group.T.take(layout.group, axis=1)
        bounds[layout.grouped] = _grouped_bounds(
            layout.base, _aux_rate(layout.aux, q_a), q_b, q_b_splus, f, layout.baseless
        )
        return bounds

    def _cutoff_layout(self, counts: np.ndarray) -> _CutoffLayout:
        """Group a count matrix by effective cutoff ``s`` (max over the aux types present)."""
        base_index = self.catalog.index_of(self._base_name)
        aux_indices = [i for i in range(counts.shape[1]) if i != base_index]
        base_counts = counts[:, base_index].astype(float)
        if not aux_indices:
            # Single-type catalog: every configuration is base-only.
            empty = np.zeros(0, dtype=np.intp)
            return _CutoffLayout(
                np.arange(len(counts)), base_counts, (), empty, 0, empty, np.zeros(0), ()
            )
        aux_counts = counts[:, aux_indices]
        names = list(self.catalog.names)
        cutoffs = np.asarray([self._cutoffs[names[i]] for i in aux_indices], dtype=int)
        # effective cutoff s = max cutoff over the aux types present (-1: no aux)
        s_values = np.where(aux_counts > 0, cutoffs[None, :], -1).max(axis=1)
        no_aux = np.flatnonzero(s_values < 0)
        # the base-less configurations first
        has_aux = s_values >= 0
        baseless = np.flatnonzero(has_aux & (base_counts == 0))
        grouped = np.concatenate([baseless, np.flatnonzero(has_aux & (base_counts != 0))])
        cutoff_values = np.unique(s_values[grouped])
        return _CutoffLayout(
            no_aux=no_aux,
            no_aux_base=base_counts[no_aux],
            cutoffs=tuple(cutoff_values.tolist()),
            grouped=grouped,
            baseless=baseless.size,
            group=np.searchsorted(cutoff_values, s_values[grouped]),
            base=base_counts[grouped],
            aux=tuple(
                np.ascontiguousarray(aux_counts[grouped, k], dtype=float)
                for k in range(len(aux_indices))
            ),
        )

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
        rates = self._cache.get(s)
        if rates is not None:
            return rates
        samples = self._samples
        below = samples <= s
        n_below = int(np.count_nonzero(below))
        n_above = samples.size - n_below
        f = float(n_below) / float(samples.size)
        if n_above:
            above_sum = float(np.add.reduce(self._base_latency.compress(~below)))
            q_b_splus = _rate(above_sum, n_above)
        else:
            q_b_splus = self._q_b_full
        q_a_by_type = {t.name: 0.0 for t in self.catalog.types if t.name != self._base_name}
        if n_below:
            below_sums = np.add.reduce(self._aux_latency.compress(below, axis=1), axis=1)
            for name, below_sum in zip(self._rated_aux, below_sums.tolist()):
                q_a_by_type[name] = _rate(below_sum, n_below)
        rates = self._cache[s] = (f, q_b_splus, q_a_by_type)
        return rates

    def _mean_rate(self, type_name: str, batches: np.ndarray) -> float:
        """The rate of ``type_name`` at the mean latency of ``batches``."""
        latencies = self._latency_tables[type_name][batches]
        return _rate(float(np.add.reduce(latencies)), latencies.size)
