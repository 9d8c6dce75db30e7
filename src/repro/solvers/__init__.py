"""Linear-sum assignment (min-cost bipartite matching) solvers.

Kairos's query-distribution step is a rectangular min-cost bipartite matching problem
(paper Eqs. 4-8), solved with a Jonker-Volgenant shortest-augmenting-path algorithm:
scipy's Crouse variant behind a canonical tie-break (:func:`canonical_assignment`).  A
from-scratch Hungarian solver and a greedy matcher remain as ablation baselines.
"""

from repro.solvers.assignment import (
    AssignmentResult,
    canonical_assignment,
    solve_assignment,
)
from repro.solvers.greedy import greedy_assignment
from repro.solvers.hungarian import hungarian_assignment

__all__ = [
    "AssignmentResult",
    "solve_assignment",
    "canonical_assignment",
    "hungarian_assignment",
    "greedy_assignment",
]
