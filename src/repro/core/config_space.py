"""Budget-constrained configuration-space enumeration.

The search space Kairos ranks (and the baselines explore online) is every combination of
per-type instance counts whose hourly price fits the budget.  With the default catalog
and the paper's $2.5/hr budget this is on the order of a thousand configurations; at the
4x budget of Fig. 15a it grows into the tens of thousands, which is exactly why the
paper's closed-form ranking (2 seconds for ~1000 configurations) matters.

A space is a pure function of the budget, the catalog, the per-type prices and the
enumeration bounds, and an online controller re-plans at the same few budgets over and
over (every capacity loss re-plans at the unchanged budget).  Each space is therefore
enumerated once and memoized in a small LRU cache as a :class:`ConfigSpace`: a tuple of
frozen configurations plus their count matrix, shared read-only by every planner that
asks for it.  Input validation still runs on every call, before the lookup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.config import HeterogeneousConfig
from repro.cloud.instances import DEFAULT_INSTANCE_CATALOG, InstanceCatalog
from repro.utils.validation import check_positive

#: How many distinct spaces the memo keeps; the least recently used is evicted first.
SPACE_CACHE_SIZE = 8


@dataclass(frozen=True, eq=False)
class ConfigSpace:
    """One enumerated configuration space, shared read-only between callers.

    Iterating, indexing and ``len`` go to :attr:`configs` (enumeration order);
    :attr:`counts` is the matching ``(len(configs), len(catalog))`` instance-count
    matrix, read-only, which the vectorized upper-bound path ranks directly.
    """

    catalog: InstanceCatalog
    configs: Tuple[HeterogeneousConfig, ...]
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[HeterogeneousConfig]:
        return iter(self.configs)

    def __getitem__(self, index: int) -> HeterogeneousConfig:
        return self.configs[index]


def config_space(
    budget_per_hour: float,
    catalog: InstanceCatalog = DEFAULT_INSTANCE_CATALOG,
    *,
    min_base_count: int = 0,
    min_total_instances: int = 1,
    max_per_type: Optional[int] = None,
    prices: Optional[Sequence[Optional[float]]] = None,
) -> ConfigSpace:
    """The memoized space :func:`enumerate_configs` lists (same arguments).

    ``prices`` overrides the catalog's on-demand $/hr per type, in catalog order; a
    ``None`` entry pins that type's count at zero (a spot market that does not offer
    it).  Spaces are keyed on the catalog's identity, never its contents, so two
    catalogs never share an entry.
    """
    check_positive(budget_per_hour, "budget_per_hour")
    if min_base_count < 0:
        raise ValueError("min_base_count must be non-negative")
    if min_total_instances < 0:
        raise ValueError("min_total_instances must be non-negative")
    if prices is None:
        prices = catalog.price_vector()
    elif len(prices) != len(catalog):
        raise ValueError(f"need one price per catalog type, got {len(prices)}")
    key_prices = tuple(None if p is None else float(p) for p in prices)
    return _space(
        float(budget_per_hour),
        catalog,
        key_prices,
        min_base_count,
        min_total_instances,
        max_per_type,
    )


@functools.lru_cache(maxsize=SPACE_CACHE_SIZE)
def _space(
    budget_per_hour: float,
    catalog: InstanceCatalog,
    prices: Tuple[Optional[float], ...],
    min_base_count: int,
    min_total_instances: int,
    max_per_type: Optional[int],
) -> ConfigSpace:
    """Enumerate one space (LRU-memoized; ``InstanceCatalog`` hashes by identity)."""
    base_index = catalog.index_of(catalog.base_type.name)
    n_types = len(prices)
    configs: List[HeterogeneousConfig] = []
    counts = [0] * n_types

    def recurse(type_idx: int, remaining_budget: float) -> None:
        if type_idx == n_types:
            if sum(counts) >= min_total_instances and counts[base_index] >= min_base_count:
                configs.append(HeterogeneousConfig(tuple(counts), catalog))
            return
        price = prices[type_idx]
        if price is None:
            recurse(type_idx + 1, remaining_budget)
            return
        cap = int(math.floor(remaining_budget / price + 1e-9))
        if max_per_type is not None:
            cap = min(cap, max_per_type)
        for c in range(max(cap, 0) + 1):
            counts[type_idx] = c
            recurse(type_idx + 1, remaining_budget - c * price)
        counts[type_idx] = 0

    recurse(0, budget_per_hour)
    matrix = np.asarray([c.counts for c in configs], dtype=int).reshape(len(configs), n_types)
    matrix.flags.writeable = False
    return ConfigSpace(catalog, tuple(configs), matrix)


def enumerate_configs(
    budget_per_hour: float,
    catalog: InstanceCatalog = DEFAULT_INSTANCE_CATALOG,
    *,
    min_base_count: int = 0,
    min_total_instances: int = 1,
    max_per_type: Optional[int] = None,
) -> List[HeterogeneousConfig]:
    """All configurations whose cost fits ``budget_per_hour``.

    Returns a fresh list over the memoized :func:`config_space`, so callers may
    reorder or trim it freely without touching the shared space.

    Parameters
    ----------
    min_base_count:
        Require at least this many base-type instances (the paper's serving system needs
        at least one instance able to serve the largest queries, but the search space it
        ranks includes base-free points too — they simply score an upper bound of 0).
    min_total_instances:
        Exclude configurations smaller than this (default excludes the empty config).
    max_per_type:
        Optional cap on the per-type count, mainly to keep unit-test spaces tiny.
    """
    return list(
        config_space(
            budget_per_hour,
            catalog,
            min_base_count=min_base_count,
            min_total_instances=min_total_instances,
            max_per_type=max_per_type,
        ).configs
    )


def search_space_size(
    budget_per_hour: float,
    catalog: InstanceCatalog = DEFAULT_INSTANCE_CATALOG,
    *,
    min_base_count: int = 0,
    min_total_instances: int = 1,
    max_per_type: Optional[int] = None,
) -> int:
    """Number of configurations :func:`enumerate_configs` would return."""
    return len(
        config_space(
            budget_per_hour,
            catalog,
            min_base_count=min_base_count,
            min_total_instances=min_total_instances,
            max_per_type=max_per_type,
        )
    )


def homogeneous_configs(
    budget_per_hour: float, catalog: InstanceCatalog = DEFAULT_INSTANCE_CATALOG
) -> List[HeterogeneousConfig]:
    """The largest affordable single-type configuration for every catalog type."""
    check_positive(budget_per_hour, "budget_per_hour")
    result = []
    for itype in catalog.types:
        count = int(math.floor(budget_per_hour / itype.price_per_hour + 1e-9))
        if count >= 1:
            result.append(HeterogeneousConfig.homogeneous(itype.name, count, catalog))
    return result
