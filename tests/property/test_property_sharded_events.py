"""Flipping ``sharded_events`` never changes a drawn run.

The committed corpus pins the sharded event loop against the plain one on a fixed
set of files (``TestShardedByteIdentity``).  These properties draw whole multi-model
and pipeline scenarios (the loops whose sharded queues shard by model), fault-free,
with chaos, and with gray failures, and assert that routing the run through the
sharded event and pending queues of :mod:`repro.sim.sharding` leaves its result
digest byte-identical.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given

from repro.fuzz.runner import digest_spec
from repro.fuzz.spec import ScenarioSpec
from repro.fuzz.strategies import multi_model_scenarios, pipeline_scenarios


def _assert_flip_neutral(spec: ScenarioSpec) -> None:
    flipped = replace(spec, sharded_events=not spec.sharded_events)
    assert digest_spec(spec) == digest_spec(flipped)


class TestShardedEventsFlip:
    @given(spec=multi_model_scenarios())
    def test_multi_model(self, spec):
        _assert_flip_neutral(spec)

    @given(spec=multi_model_scenarios(chaos=True))
    def test_multi_model_chaos(self, spec):
        _assert_flip_neutral(spec)

    @given(spec=multi_model_scenarios(chaos=True, gray=True))
    def test_multi_model_gray(self, spec):
        _assert_flip_neutral(spec)

    @given(spec=pipeline_scenarios())
    def test_pipeline(self, spec):
        _assert_flip_neutral(spec)

    @given(spec=pipeline_scenarios(chaos=True))
    def test_pipeline_chaos(self, spec):
        _assert_flip_neutral(spec)

    @given(spec=pipeline_scenarios(chaos=True, gray=True))
    def test_pipeline_gray(self, spec):
        _assert_flip_neutral(spec)
