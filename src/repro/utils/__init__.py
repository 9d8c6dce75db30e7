"""Shared utilities: seeded RNG handling, validation, ASCII tables, streaming stats.

These helpers are deliberately dependency-light so every other subpackage can import
them without cycles.
"""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.stats import StreamingStats, percentile
from repro.utils.tables import format_table, format_series
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "StreamingStats",
    "percentile",
    "format_table",
    "format_series",
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
