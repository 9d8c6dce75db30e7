"""Phase-dependent spot pricing: the market schedule and the ledger's exact integral.

``SpotMarketPhase`` historically modulated only the preemption hazard; it now
modulates the spot price too.  These tests pin the billing math by hand: the
piecewise ``cost_in_window`` integral, window additivity across phase boundaries,
the ``cost_by_market`` attribution tracking phase-dependent prices exactly, the
phased ``discount_savings`` identity, and the static fast path staying
byte-identical (``price_schedule() is None`` whenever prices are constant).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cloud.billing import (
    MS_PER_HOUR,
    InstanceUsageLedger,
    UsageInterval,
    schedule_integral_ms,
    schedule_multiplier_at,
)
from repro.cloud.config import HeterogeneousConfig
from repro.cloud.spot import (
    MARKET_ON_DEMAND,
    MARKET_SPOT,
    SpotMarket,
    SpotMarketPhase,
    SpotTypeMarket,
)
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.cluster import Cluster
from repro.sim.elasticity import ElasticServingSimulation
from repro.workload.batch_sizes import TruncatedLogNormalBatchSizes
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

MINUTE_MS = 60_000.0


class TestSpotMarketPhasePricing:
    def test_price_multiplier_must_be_positive(self):
        with pytest.raises(ValueError):
            SpotMarketPhase(duration_ms=1000.0, price_multiplier=0.0)

    def test_price_multiplier_at_cycles(self):
        market = SpotTypeMarket(
            type_name="r5n.large",
            discount=0.7,
            phases=(
                SpotMarketPhase(MINUTE_MS, price_multiplier=1.0),
                SpotMarketPhase(MINUTE_MS, price_multiplier=2.0),
            ),
        )
        # base multiplier 0.3, doubled in the second minute of every 2-minute cycle
        assert market.price_multiplier_at(0.0) == pytest.approx(0.3)
        assert market.price_multiplier_at(59_999.0) == pytest.approx(0.3)
        assert market.price_multiplier_at(60_000.0) == pytest.approx(0.6)
        assert market.price_multiplier_at(125_000.0) == pytest.approx(0.3)

    def test_price_schedule_none_when_constant(self):
        no_phases = SpotTypeMarket(type_name="r5n.large", discount=0.7)
        assert no_phases.price_schedule() is None
        hazard_only = SpotTypeMarket(
            type_name="r5n.large",
            discount=0.7,
            phases=(
                SpotMarketPhase(MINUTE_MS, hazard_multiplier=3.0),
                SpotMarketPhase(MINUTE_MS, hazard_multiplier=0.5),
            ),
        )
        assert hazard_only.price_schedule() is None  # prices constant: scalar path

    def test_price_schedule_carries_effective_multipliers(self):
        market = SpotTypeMarket(
            type_name="r5n.large",
            discount=0.7,
            phases=(
                SpotMarketPhase(MINUTE_MS, price_multiplier=1.0),
                SpotMarketPhase(2 * MINUTE_MS, price_multiplier=2.0),
            ),
        )
        assert market.price_schedule() == (
            (MINUTE_MS, pytest.approx(0.3)),
            (2 * MINUTE_MS, pytest.approx(0.6)),
        )

    def test_hazard_modulation_unchanged(self):
        market = SpotTypeMarket(
            type_name="r5n.large",
            discount=0.7,
            preemptions_per_hour=2.0,
            phases=(
                SpotMarketPhase(MINUTE_MS, hazard_multiplier=3.0, price_multiplier=2.0),
                SpotMarketPhase(MINUTE_MS, hazard_multiplier=0.5),
            ),
        )
        assert market.hazard_at(0.0) == pytest.approx(6.0)
        assert market.hazard_at(60_000.0) == pytest.approx(1.0)


class TestScheduleIntegral:
    SCHEDULE = ((MINUTE_MS, 0.3), (MINUTE_MS, 0.6))

    def test_multiplier_at(self):
        assert schedule_multiplier_at(self.SCHEDULE, 30_000.0) == pytest.approx(0.3)
        assert schedule_multiplier_at(self.SCHEDULE, 90_000.0) == pytest.approx(0.6)
        assert schedule_multiplier_at(self.SCHEDULE, 150_000.0) == pytest.approx(0.3)

    def test_hand_computed_integral(self):
        # [30s, 150s): 30s at 0.3, 60s at 0.6, 30s at 0.3 -> 9000 + 36000 + 9000
        assert schedule_integral_ms(self.SCHEDULE, 30_000.0, 150_000.0) == pytest.approx(
            54_000.0
        )

    def test_window_additivity_across_phase_boundaries(self):
        whole = schedule_integral_ms(self.SCHEDULE, 10_000.0, 290_000.0)
        for cut in (30_000.0, 60_000.0, 120_000.0, 123_456.789, 240_000.0):
            split = schedule_integral_ms(
                self.SCHEDULE, 10_000.0, cut
            ) + schedule_integral_ms(self.SCHEDULE, cut, 290_000.0)
            assert math.isclose(whole, split, rel_tol=1e-12)


class TestPhasedInterval:
    def make(self, start_ms=30_000.0, end_ms=150_000.0):
        return UsageInterval(
            server_id=0,
            type_name="r5n.large",
            price_per_hour=3.6,
            start_ms=start_ms,
            end_ms=end_ms,
            market=MARKET_SPOT,
            price_multiplier=0.3,
            price_schedule=((MINUTE_MS, 0.3), (MINUTE_MS, 0.6)),
        )

    def test_hand_computed_cost(self):
        iv = self.make()
        # 3.6 $/hr * 54000 multiplier-weighted ms / 3.6e6 ms/hr = 0.054 $
        assert iv.cost_in_window(0.0, 200_000.0) == pytest.approx(0.054)

    def test_rate_per_hour_at_follows_phases(self):
        iv = self.make()
        assert iv.rate_per_hour_at(45_000.0) == pytest.approx(3.6 * 0.3)
        assert iv.rate_per_hour_at(90_000.0) == pytest.approx(3.6 * 0.6)

    def test_static_interval_math_unchanged(self):
        phased = self.make()
        static = UsageInterval(
            server_id=0,
            type_name="r5n.large",
            price_per_hour=3.6,
            start_ms=30_000.0,
            end_ms=150_000.0,
            market=MARKET_SPOT,
            price_multiplier=0.3,
        )
        expected = static.effective_price_per_hour * 120_000.0 / MS_PER_HOUR
        assert static.cost_in_window(0.0, 200_000.0) == expected  # byte-identical
        # the phased interval bills more: the second phase doubles the price
        assert phased.cost_in_window(0.0, 200_000.0) > expected


class TestLedgerPhasedAttribution:
    def build_ledger(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        # server 0: on-demand r5n for [0, 120s)
        ledger.start(0, "r5n.large", 0.0)
        ledger.stop(0, 120_000.0)
        # server 1: phased spot r5n for [30s, 150s)
        ledger.start(
            1,
            "r5n.large",
            30_000.0,
            price_multiplier=0.3,
            market=MARKET_SPOT,
            price_schedule=((MINUTE_MS, 0.3), (MINUTE_MS, 0.6)),
        )
        ledger.stop(1, 150_000.0)
        return ledger

    def test_cost_by_market_tracks_phases_exactly(self, catalog):
        ledger = self.build_ledger(catalog)
        price = catalog["r5n.large"].price_per_hour
        by_market = ledger.cost_by_market(200_000.0)
        assert by_market[MARKET_ON_DEMAND] == pytest.approx(
            price * 120_000.0 / MS_PER_HOUR
        )
        # spot: 30s@0.3 + 60s@0.6 + 30s@0.3 of the on-demand rate
        assert by_market[MARKET_SPOT] == pytest.approx(price * 54_000.0 / MS_PER_HOUR)
        assert math.isclose(
            sum(by_market.values()), ledger.total_cost(200_000.0), rel_tol=1e-12
        )

    def test_window_additivity_across_phase_boundary(self, catalog):
        ledger = self.build_ledger(catalog)
        whole = ledger.cost_in_window(0.0, 200_000.0)
        for cut in (60_000.0, 90_000.0, 150_000.0):
            split = ledger.cost_in_window(0.0, cut) + ledger.cost_in_window(
                cut, 200_000.0
            )
            assert math.isclose(whole, split, rel_tol=1e-12)

    def test_discount_savings_is_full_price_minus_total(self, catalog):
        ledger = self.build_ledger(catalog)
        horizon = 200_000.0
        full_price = math.fsum(
            iv.price_per_hour * iv.overlap_ms(0.0, horizon) / MS_PER_HOUR
            for iv in ledger.intervals
        )
        assert ledger.discount_savings(horizon) == pytest.approx(
            full_price - ledger.total_cost(horizon)
        )

    def test_concurrent_rate_follows_phases(self, catalog):
        ledger = self.build_ledger(catalog)
        price = catalog["r5n.large"].price_per_hour
        assert ledger.concurrent_cost_per_hour(45_000.0) == pytest.approx(
            price + price * 0.3
        )
        assert ledger.concurrent_cost_per_hour(90_000.0) == pytest.approx(
            price + price * 0.6
        )
        assert ledger.concurrent_cost_per_hour(130_000.0) == pytest.approx(price * 0.3)

    def test_schedule_validation(self, catalog):
        ledger = InstanceUsageLedger(catalog)
        with pytest.raises(ValueError):
            ledger.start(0, "r5n.large", 0.0, price_schedule=())
        with pytest.raises(ValueError):
            ledger.start(0, "r5n.large", 0.0, price_schedule=((1000.0, 0.0),))


class TestSimulationIntegration:
    def run_sim(self, profiles, rm2, catalog, phases):
        cluster = Cluster(HeterogeneousConfig((1, 1, 2, 0), catalog), rm2, profiles)
        market = SpotMarket.uniform(
            catalog, discount=0.7, preemptions_per_hour=0.0, phases=phases
        )
        spec = WorkloadSpec(
            batch_sizes=TruncatedLogNormalBatchSizes(median=60, sigma=0.8),
            num_queries=60,
        )
        queries = WorkloadGenerator(spec).generate(rate_qps=60.0, rng=11)
        sim = ElasticServingSimulation(
            cluster,
            KairosPolicy(),
            market=market,
            spot_server_ids=[3],  # the last r5n
            rng=np.random.default_rng(2),
        )
        return sim.run(queries)

    def test_phased_spot_bill_is_the_piecewise_integral(self, profiles, rm2, catalog):
        phases = (
            SpotMarketPhase(50.0, price_multiplier=1.0),
            SpotMarketPhase(50.0, price_multiplier=3.0),
        )
        report = self.run_sim(profiles, rm2, catalog, phases)
        horizon = report.billing_horizon_ms
        spot = [iv for iv in report.ledger.intervals if iv.market == MARKET_SPOT]
        assert spot and all(iv.price_schedule is not None for iv in spot)
        expected = math.fsum(
            iv.price_per_hour
            * schedule_integral_ms(
                iv.price_schedule,
                max(iv.start_ms, 0.0),
                min(iv.end_ms if iv.end_ms is not None else horizon, horizon),
            )
            / MS_PER_HOUR
            for iv in spot
        )
        assert report.ledger.cost_by_market(horizon)[MARKET_SPOT] == pytest.approx(
            expected
        )

    def test_hazard_only_phases_keep_scalar_billing(self, profiles, rm2, catalog):
        phases = (SpotMarketPhase(50.0, hazard_multiplier=2.0),)
        report = self.run_sim(profiles, rm2, catalog, phases)
        spot = [iv for iv in report.ledger.intervals if iv.market == MARKET_SPOT]
        assert spot and all(iv.price_schedule is None for iv in spot)
        no_phase = self.run_sim(profiles, rm2, catalog, ())
        # zero hazard: phases never fire, so the bills agree to the last bit
        assert report.ledger.total_cost(
            report.billing_horizon_ms
        ) == no_phase.ledger.total_cost(no_phase.billing_horizon_ms)
