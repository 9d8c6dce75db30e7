"""Pushed server changes and the block-by-block single-query scorer.

Servers push every change to the :class:`~repro.core.cost_matrix.RoundColumnState`
instances watching them, and a single-query round reads each block's eligible
servers in busy-horizon order instead of scoring the full row.  Every decision must
still equal ``argmin``'s first minimum over the from-scratch row of the eligible
servers — including rows where different offsets round to the same score, plans
whose scores are not monotone in the offset, and blocks whose servers carry
different dispatch overheads.
"""

import gc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.cloud.config import HeterogeneousConfig
from repro.core.cost_matrix import RoundColumnState, build_cost_matrix
from repro.core.latency_model import PerfectLatencyEstimator
from repro.schedulers.kairos_policy import KairosPolicy
from repro.sim.cluster import Cluster
from repro.workload.query import Query


def _set(server, depth, busy_until_ms):
    """Install a queue depth and busy horizon the way a test fixture does: by
    assignment, announced through ``state_version``."""
    server.local_queue_depth = int(depth)
    server.busy_until_ms = float(busy_until_ms)
    server.state_version += 1


def _reference(query, servers, now_ms, estimator, qos_ms, coefficients, penalty_factor=10.0):
    """The from-scratch round over the eligible servers: first-minimum argmin, then
    the defer/hopeless rule.  Returns ``[(query_id, server index)]``."""
    eligible = [j for j, s in enumerate(servers) if s.local_queue_depth <= 1]
    if not eligible:
        return []
    matrix = build_cost_matrix(
        [query],
        [servers[j] for j in eligible],
        estimator,
        now_ms,
        qos_ms,
        coefficients,
        penalty_factor=penalty_factor,
    )
    col = int(np.argmin(matrix.weighted[0]))
    if not matrix.qos_feasible[0, col]:
        budget = 0.98 * qos_ms - query.waiting_time_ms(now_ms)
        types = dict.fromkeys(s.type_name for s in servers)
        if budget > 0 and any(
            estimator.predict_ms(t, query.batch_size) <= budget for t in types
        ):
            return []  # deferred: a type could still meet the deadline
    return [(query.query_id, eligible[col])]


def _policy(cluster, profiles, model, **kwargs):
    policy = KairosPolicy(
        PerfectLatencyEstimator(profiles, model),
        coefficient_refresh_interval=10**9,
        **kwargs,
    )
    policy.bind(cluster, model.qos_ms)
    return policy


def _decide(policy, cluster, query, now_ms):
    return [(q.query_id, j) for q, j in policy.schedule(now_ms, [query], cluster)]


class TestPushedChanges:
    def test_fresh_state_reads_fields_set_without_a_bump(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((2, 1, 2, 0), catalog), rm2, profiles)
        servers = cluster.servers
        for j, server in enumerate(servers):  # plain assignment, no state_version bump
            server.local_queue_depth = (0, 2, 1, 0, 3)[j]
            server.busy_until_ms = (0.0, 90.0, 40.0, 5.0, 70.0)[j]
        state = RoundColumnState(servers)
        view = state.refresh(20.0)
        assert state.ineligible.tolist() == [False, True, False, False, True]
        assert view.offsets.tolist() == [0.0, 70.0, 20.0, 0.0, 50.0]

    def test_state_version_assignment_is_pushed(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((2, 1, 2, 0), catalog), rm2, profiles)
        state = RoundColumnState(cluster.servers)
        state.refresh(0.0)
        server = cluster.servers[3]
        server.local_queue_depth = 2
        server.busy_until_ms = 30.0
        assert state.refresh(10.0).offsets[3] == 0.0  # no bump: not seen
        server.state_version = server.state_version + 1
        view = state.refresh(10.0)
        assert state.ineligible[3] and state.eligible_count == 4
        assert view.offsets[3] == 20.0

    def test_released_states_stop_receiving_changes(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((2, 1, 2, 0), catalog), rm2, profiles)
        policy = _policy(cluster, profiles, rm2)
        for _ in range(3):  # every rebind replaces the policy's state
            policy.bind(cluster, rm2.qos_ms)
        gc.collect()
        assert all(len(server._sinks) == 1 for server in cluster.servers)
        reference = RoundColumnState(cluster.servers)
        assert all(len(server._sinks) == 2 for server in cluster.servers)
        del reference
        assert all(len(server._sinks) == 1 for server in cluster.servers)

    def test_a_round_earlier_in_time_re_reads_idle_servers(self, profiles, rm2, catalog):
        cluster = Cluster(HeterogeneousConfig((3, 0, 0, 0), catalog), rm2, profiles)
        servers = cluster.servers
        _set(servers[0], 1, 50.0)
        _set(servers[1], 1, 20.0)
        _set(servers[2], 2, 90.0)
        state = RoundColumnState(servers)
        assert state.refresh(100.0).offsets.tolist() == [0.0, 0.0, 0.0]
        assert state.refresh(10.0).offsets.tolist() == [40.0, 10.0, 80.0]
        # the scorer reads the same horizons: the emptier server 1 wins
        policy = _policy(cluster, profiles, rm2)
        query = Query(0, 64, 10.0)
        got = _decide(policy, cluster, query, 100.0)
        assert got == _reference(
            query, servers, 100.0, policy.estimator, rm2.qos_ms, policy.coefficients
        )
        got = _decide(policy, cluster, query, 10.0)
        assert got == [(0, 1)]
        assert got == _reference(
            query, servers, 10.0, policy.estimator, rm2.qos_ms, policy.coefficients
        )


class TestBlockScorerExactness:
    def test_a_rounding_tie_goes_to_the_lower_index(self, profiles, rm2, catalog):
        """Server 0 is busy for one ulp of ``now``, server 1 idle: their offsets
        differ, their usages round to the same value, and column 0 must win."""
        cluster = Cluster(HeterogeneousConfig((2, 0, 0, 0), catalog), rm2, profiles)
        servers = cluster.servers
        now_ms = 1.0
        _set(servers[0], 1, np.nextafter(now_ms, 2.0))
        _set(servers[1], 0, 0.0)
        policy = _policy(cluster, profiles, rm2)
        query = Query(0, 400, now_ms)
        matrix = build_cost_matrix(
            [query], servers, policy.estimator, now_ms, rm2.qos_ms, policy.coefficients
        )
        offsets = matrix.usage_ms[0] - policy.estimator.predict_ms("g4dn.xlarge", 400)
        assert matrix.weighted[0, 0] == matrix.weighted[0, 1]  # the tie is real
        assert servers[0].busy_until_ms > now_ms >= servers[1].busy_until_ms
        assert offsets.tolist() == [0.0, 0.0]
        assert _decide(policy, cluster, query, now_ms) == [(0, 0)]

    @pytest.mark.parametrize("penalty_factor", [0.5, 10.0])
    def test_random_rounds_with_mixed_overheads(
        self, profiles, rm2, catalog, penalty_factor
    ):
        """Per-server dispatch overheads split blocks into several runs; a penalty
        below the QoS budget makes scores non-monotone (the numpy path)."""
        cluster = Cluster(HeterogeneousConfig((3, 2, 4, 0), catalog), rm2, profiles)
        cluster.add_server("g4dn.xlarge")  # a non-contiguous base block
        servers = cluster.servers
        for j, server in enumerate(servers):
            server.dispatch_overhead_ms = (0.0, 0.5, 0.0, 2.0)[j % 4]
        policy = _policy(cluster, profiles, rm2, penalty_factor=penalty_factor)
        rng = np.random.default_rng(5)
        now_ms = 1000.0
        dispatched = deferred = 0
        for k in range(300):
            now_ms += float(rng.uniform(0.5, 12.0))
            for server in servers:
                if rng.random() < 0.5:
                    _set(
                        server,
                        rng.choice([0, 1, 1, 2]),
                        now_ms + float(rng.choice([-5.0, 0.0, 0.25, 3.0, 30.0])),
                    )
            wait = float(rng.uniform(0.0, 1.2 * rm2.qos_ms))
            query = Query(k, int(rng.integers(1, 1001)), now_ms - wait)
            got = _decide(policy, cluster, query, now_ms)
            assert got == _reference(
                query,
                servers,
                now_ms,
                policy.estimator,
                rm2.qos_ms,
                policy.coefficients,
                penalty_factor,
            )
            dispatched += bool(got)
            deferred += not got
        assert dispatched and deferred


_NOW_MS = 1.0
#: Busy horizons around ``_NOW_MS``: idle ones, and busy ones within a few ulps,
#: whose usages round onto each other and onto the idle servers'.
_HORIZONS = (
    0.0,
    _NOW_MS,
    float(np.nextafter(_NOW_MS, 2.0)),
    _NOW_MS + 2.0**-50,
    _NOW_MS + 1e-13,
    _NOW_MS + 1e-12,
    2.0,
    float(np.nextafter(2.0, 3.0)),
    30.0,
)


@settings(
    max_examples=60,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
)
@given(
    rounds=st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.integers(0, 2), st.sampled_from(_HORIZONS)),
                min_size=6,
                max_size=6,
            ),
            st.sampled_from((1, 8, 64, 400, 1000)),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_near_tied_horizons_take_the_first_minimum(profiles, catalog, rounds):
    from repro.cloud.models import get_model

    rm2 = get_model("RM2")
    cluster = Cluster(HeterogeneousConfig((2, 0, 2, 0), catalog), rm2, profiles)
    cluster.add_server("g4dn.xlarge")
    cluster.add_server("r5n.large")
    policy = _policy(cluster, profiles, rm2)
    for k, (states, batch) in enumerate(rounds):
        for server, (depth, horizon) in zip(cluster.servers, states):
            _set(server, depth, horizon)
        query = Query(k, batch, _NOW_MS)
        assert _decide(policy, cluster, query, _NOW_MS) == _reference(
            query, cluster.servers, _NOW_MS, policy.estimator, rm2.qos_ms,
            policy.coefficients,
        )
