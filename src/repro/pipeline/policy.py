"""Critical-path-aware Kairos: the joint matching with a pipeline laxity term.

:class:`CriticalPathKairosPolicy` wraps the existing
:class:`~repro.schedulers.kairos_policy.MultiModelKairosPolicy` joint matching with
one addition: pending stage-queries get a laxity term — the graph deadline minus
the stage's critical-path-remaining — folded into the cost matrix as a per-row
multiplier in ``[min_scale, 1.0]``.  Stages on the longest remaining path carry
the smallest laxity, get the smallest multiplier, and win ties (and contended
columns) in the min-cost matching; slack-rich stages and plain queries keep their
ordinary costs.  Graphs whose slack is already blown never reach the matching —
the pipeline simulation sheds them whole at admission (see
``PipelineServingSimulation``) so they cannot poison the round.

When no graphs are present the hook returns ``None`` and every code path —
sharded dispatch included — is byte-identical to stage-local Kairos (locked down
by the regression byte-identity suite).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.runtime import PipelineCoordinator
from repro.schedulers.kairos_policy import MultiModelKairosPolicy
from repro.workload.query import Query


class CriticalPathKairosPolicy(MultiModelKairosPolicy):
    """Joint Kairos matching with critical-path laxity over pipeline stage rows.

    Parameters
    ----------
    coordinator:
        The shared stage registry (also held by the pipeline simulation).  On bind
        the policy installs its per-model estimators as the coordinator's stage
        predictor, so critical paths — and therefore slack — sharpen as the online
        learner converges.
    min_scale:
        Floor of the laxity multiplier: a stage with zero (or negative) remaining
        slack costs ``min_scale`` of its nominal matching cost, the strongest
        priority boost the policy will apply.
    urgency_frac:
        Fraction of a graph's deadline inside which the boost engages.  Stages
        whose laxity still exceeds ``urgency_frac * deadline`` keep their nominal
        row — the plain matching places slack-rich work better than any priority
        distortion — and the multiplier interpolates down to ``min_scale`` as
        laxity shrinks inside the window.
    """

    name = "KAIROS-CP"

    def __init__(
        self,
        coordinator: Optional[PipelineCoordinator] = None,
        *,
        min_scale: float = 0.1,
        urgency_frac: float = 0.5,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not 0.0 < min_scale <= 1.0:
            raise ValueError("min_scale must be in (0, 1]")
        if not 0.0 < urgency_frac <= 1.0:
            raise ValueError("urgency_frac must be in (0, 1]")
        self.coordinator = coordinator if coordinator is not None else PipelineCoordinator()
        self._min_scale = float(min_scale)
        self._urgency_frac = float(urgency_frac)

    # -- lifecycle -----------------------------------------------------------------------
    def _bind_columns(self, cluster) -> None:
        super()._bind_columns(cluster)
        # A (re)bind may change a model's instance types, which the stage belief
        # mins over: rebinding the predictor starts a fresh belief version.
        self.coordinator.bind_predictor(self._predict_stage_ms, self._belief_version)

    def _belief_version(self) -> Optional[Tuple[int, ...]]:
        """Version of :meth:`_predict_stage_ms`: its estimators' belief versions,
        or ``None`` when one of them is not a pure function of its observations."""
        versions = tuple(e.belief_version for e in self._estimators.values())
        return None if None in versions else versions

    def _predict_stage_ms(self, model_name: str, batch_size: int) -> float:
        """Best-case service belief: the fastest type the model's partition offers.

        The coordinator memoizes these answers per :meth:`_belief_version` and
        per bind, so each ``(model, batch)`` is predicted once per belief.
        """
        estimator = self._estimators.get(model_name)
        type_names = self._round_types_of.get(model_name, ())
        if estimator is None or not type_names:
            return 0.0
        return min(
            estimator.predict_ms(type_name, batch_size) for type_name in type_names
        )

    # -- the laxity fold -----------------------------------------------------------------
    def _row_cost_scale(
        self, considered: Sequence[Query], now_ms: float
    ) -> Optional[np.ndarray]:
        coordinator = self.coordinator
        if not coordinator.active:
            return None
        scale: Optional[np.ndarray] = None
        for i, query in enumerate(considered):
            factor = coordinator.priority_scale(
                query.query_id,
                now_ms,
                self._min_scale,
                urgency_frac=self._urgency_frac,
            )
            if factor != 1.0:
                if scale is None:
                    scale = np.ones(len(considered))
                scale[i] = factor
        return scale
