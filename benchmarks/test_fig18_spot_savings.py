"""Fig. 18 (spot): risk-aware on-demand+spot serving vs. the all-on-demand plan.

The spot-market subsystem's headline scenario: under a nonzero preemption hazard (and
a scripted worst-case burst reclaiming every spot instance at once), the risk-aware
mixed-market plan serves the same demand within QoS at a measurably lower $/hr than
the cheapest all-on-demand plan, and the preemption-tolerant loop (deadline-bounded
draining, central re-queue, reactive re-provisioning) recovers QoS after the burst.
"""

import numpy as np
import pytest

from repro.analysis.spot import fig18_spot_savings
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.cluster import Cluster
from repro.sim.elasticity import simulate_elastic_serving

#: "Serves QoS" for this scenario: at least this fraction of each window's arrivals
#: completes within the QoS target (the Eq. 15 headroom factors are calibrated for
#: the p99-ish regime; see DEFAULT_DEMAND_HEADROOM).
ATTAINMENT_FLOOR = 0.97


@pytest.mark.smoke
def test_fig18_spot_savings(record_figure, fast_settings):
    settings = fast_settings.scaled(num_queries=350)
    table = record_figure(fig18_spot_savings, "fig18_spot_savings.txt", settings)
    headers = list(table.headers)
    od_row, mixed_row = table.rows
    assert od_row[0] == "all-on-demand" and mixed_row[0] == "mixed"

    def col(row, name):
        return row[headers.index(name)]

    # The risk-aware mix provisions real spot capacity and is cheaper both as planned
    # and as billed (ledger-measured mean $/hr over the trace), while the all-on-demand
    # arm pays list price for everything.
    assert table.extras["plan_mixed"].has_spot
    assert col(mixed_row, "planned_cost_hr") < col(od_row, "planned_cost_hr")
    assert col(mixed_row, "realized_cost_hr") < col(od_row, "realized_cost_hr")

    # Both arms serve the demand within QoS, under nonzero preemption for the mix.
    assert col(od_row, "attainment") >= ATTAINMENT_FLOOR
    assert col(mixed_row, "attainment") >= ATTAINMENT_FLOOR
    assert col(mixed_row, "preemptions") >= 1
    assert col(mixed_row, "reprovisions") >= 1
    # The all-on-demand arm never touches the preemption machinery.
    assert col(od_row, "preemptions") == 0 and col(od_row, "reprovisions") == 0

    # The forced burst is absorbed: attainment after the recovery point is back at
    # (or above) the pre-burst level, and the whole run still meets the floor.
    assert col(mixed_row, "attainment_burst") >= ATTAINMENT_FLOOR
    assert (
        col(mixed_row, "attainment_recovered")
        >= col(mixed_row, "attainment_pre_burst") - 0.02
    )

    # The on-demand/spot ledger split partitions the total bill exactly.
    mixed_report = table.extras["mixed_report"]
    by_market = mixed_report.ledger.cost_by_market(mixed_report.billing_horizon_ms)
    assert set(by_market) == {"on-demand", "spot"}
    assert all(cost > 0 for cost in by_market.values())
    assert sum(by_market.values()) == pytest.approx(mixed_report.total_cost(), abs=1e-12)

    # Deterministic per seed: a second full run reproduces the table exactly.
    again = fig18_spot_savings(settings)
    assert again.rows == table.rows


@pytest.mark.smoke
def test_spot_disabled_path_is_byte_identical(fast_settings):
    """A market with no instance bought on it leaves the kernel's run bit for bit."""
    settings = fast_settings
    registry = settings.registry()
    model = settings.model("RM2")
    from repro.cloud.config import HeterogeneousConfig
    from repro.cloud.spot import SpotMarket
    from repro.workload.generator import WorkloadGenerator, WorkloadSpec

    config = HeterogeneousConfig((1, 1, 2, 0), registry.catalog)
    spec = WorkloadSpec(batch_sizes=settings.distribution(), num_queries=200)
    queries = WorkloadGenerator(spec).generate(rate_qps=40.0, rng=settings.seed)

    elastic = simulate_elastic_serving(
        Cluster(config, model, registry),
        KairosPolicy(),
        queries,
        rng=np.random.default_rng(settings.seed + 1),
    )
    preemptible = simulate_elastic_serving(
        Cluster(config, model, registry),
        KairosPolicy(),
        queries,
        rng=np.random.default_rng(settings.seed + 1),
        market=SpotMarket.uniform(
            registry.catalog, discount=0.65, preemptions_per_hour=3_600.0
        ),
    )
    assert [
        (r.query.query_id, r.server_id, r.start_ms, r.completion_ms, r.service_ms)
        for r in elastic.metrics.records
    ] == [
        (r.query.query_id, r.server_id, r.start_ms, r.completion_ms, r.service_ms)
        for r in preemptible.metrics.records
    ]
    assert repr(elastic.metrics.summary()) == repr(preemptible.metrics.summary())
    assert elastic.total_cost() == preemptible.total_cost()
