"""Sharded multi-tenant fabric: routing, budgets, dynamic batching, chaos."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serving.breaker import AdmissionController, CLOSED, OPEN
from repro.serving.fallback import TIER_COMPILED, TIER_SWEEP
from repro.serving.fabric import (
    DynamicBatcher,
    ServingFabric,
    ShardRouter,
    build_fabric,
    shard_index,
)
from repro.serving.server import (
    STATUS_OK,
    STATUS_SHED,
    ModelServer,
)


def _svc(model, k=0):
    return [n for n in model.network.nodes if n != model.response][k]


def _mean(data, name):
    return float(np.mean(data[name]))


@pytest.fixture
def fresh_models(ediamond_env, ediamond_data):
    from repro.core.kertbn import build_discrete_kertbn

    train, _ = ediamond_data
    return [
        build_discrete_kertbn(ediamond_env.workflow, train, n_bins=4)
        for _ in range(4)
    ]


# --------------------------------------------------------------------- #
# Consistent tenant -> shard mapping
# --------------------------------------------------------------------- #


def test_shard_index_is_stable_and_covers_shards():
    names = [f"tenant-{i}" for i in range(64)]
    first = [shard_index(n, 4) for n in names]
    # Deterministic: recomputing (any order) gives the same placement.
    assert [shard_index(n, 4) for n in reversed(names)] == first[::-1]
    assert all(0 <= s < 4 for s in first)
    # 64 hashed tenants should land on every shard.
    assert set(first) == {0, 1, 2, 3}


def test_shard_index_rejects_bad_shard_count():
    with pytest.raises(ServingError):
        shard_index("t", 0)


def test_router_mapping_independent_of_registration_order(fresh_models):
    a = ShardRouter([ModelServer(m, rng=0) for m in fresh_models])
    b = ShardRouter([ModelServer(m, rng=0) for m in fresh_models])
    names = [f"tenant-{i}" for i in range(12)]
    for n in names:
        a.add_tenant(n)
    for n in reversed(names):
        b.add_tenant(n)
    assert {n: a.shard_of(n) for n in names} == {
        n: b.shard_of(n) for n in names
    }


# --------------------------------------------------------------------- #
# Routing correctness
# --------------------------------------------------------------------- #


def test_router_query_matches_direct_server(fresh_models, ediamond_data):
    train, _ = ediamond_data
    model = fresh_models[0]
    shards = [ModelServer(m, rng=0) for m in fresh_models]
    router = ShardRouter(shards)
    svc = _svc(model)
    ev = {svc: _mean(train, svc)}
    r = router.query("tenant-a", [model.response], ev)
    assert r.ok and r.tier == TIER_COMPILED
    direct = ModelServer(fresh_models[router.shard_of("tenant-a")], rng=0)
    expected = direct.query([model.response], ev)
    np.testing.assert_allclose(r.value, expected.value)
    # Tenant rollup and shard stats both saw exactly this row.
    state = router.tenant_state("tenant-a")
    assert state.stats.n_ok == 1
    assert shards[state.shard].stats.n_ok == 1


def test_router_batch_and_columns_route_through_tenant(
    fresh_models, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_models[0]
    router = ShardRouter([ModelServer(m, rng=0) for m in fresh_models])
    svc = _svc(model)
    rows = [{svc: _mean(train, svc)}] * 5
    results = router.query_batch("t", [model.response], rows)
    assert len(results) == 5 and all(r.ok for r in results)
    state = router.tenant_state("t")
    assert state.stats.n_queries == 5 and state.stats.n_ok == 5

    cols = {svc: np.zeros(7, dtype=np.int64)}
    cr = router.query_batch_columns("t", [model.response], cols)
    assert cr.ok and cr.n_valid == 7
    assert state.stats.n_queries == 12 and state.stats.n_ok == 12
    assert router.query_batch("t", [model.response], []) == []


def test_unknown_tenant_rejected_when_auto_register_off(fresh_models):
    router = ShardRouter(
        [ModelServer(fresh_models[0], rng=0)], auto_register=False
    )
    with pytest.raises(ServingError):
        router.query("ghost", ["x"], {})


# --------------------------------------------------------------------- #
# Per-tenant budgets
# --------------------------------------------------------------------- #


def test_tenant_admission_sheds_without_touching_neighbours(
    fresh_models, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_models[0]
    shards = [ModelServer(m, rng=0) for m in fresh_models]
    router = ShardRouter(shards)
    hot = AdmissionController(
        window=5, overload_threshold=0.5, shed_fraction=1.0,
        rng=np.random.default_rng(0),
    )
    router.add_tenant("hot", admission=hot)
    for _ in range(5):
        hot.record(True)
    svc = _svc(model)
    ev = {svc: _mean(train, svc)}

    shed = router.query("hot", [model.response], ev)
    assert shed.status == STATUS_SHED and "admission" in shed.reasons[0]
    ok = router.query("cool", [model.response], ev)
    assert ok.ok
    hot_state = router.tenant_state("hot")
    cool_state = router.tenant_state("cool")
    assert hot_state.stats.n_shed == 1 and hot_state.stats.n_ok == 0
    assert cool_state.stats.n_shed == 0 and cool_state.stats.n_ok == 1
    # The shed query never reached any shard.
    assert sum(s.stats.n_queries for s in shards) == 1


def test_tenant_breaker_trips_on_sustained_overload(fresh_models):
    # A shard with an impossible deadline answers approximately with
    # deadline_exceeded set — an overload signal for the tenant breaker.
    slow = ModelServer(fresh_models[0], deadline_seconds=1e-9, rng=0)
    router = ShardRouter([slow], breaker_threshold=2, breaker_cooldown=3)
    model = fresh_models[0]
    for _ in range(2):
        r = router.query("t", [model.response], {})
        assert r.deadline_exceeded
    state = router.tenant_state("t")
    assert state.breaker.state == OPEN and state.breaker.n_trips == 1
    shed = router.query("t", [model.response], {})
    assert shed.status == STATUS_SHED and "circuit open" in shed.reasons[0]
    # Batch sheds are per-row distinct objects and per-row counted.
    results = router.query_batch("t", [model.response], [{}, {}, {}])
    assert [r.status for r in results] == [STATUS_SHED] * 3
    assert len({id(r) for r in results}) == 3
    assert state.stats.n_shed == 4


def test_shed_calls_count_exactly_the_rows_sent(fresh_models):
    """A shed call adds its own rows to the tenant rollup — none for an
    empty call — on every entry point and either shedding budget."""
    model = fresh_models[0]
    svc = _svc(model)
    router = ShardRouter(
        [ModelServer(model, rng=0)], breaker_threshold=1, breaker_cooldown=100
    )
    router.tenant_state("broken").breaker.record_failure()
    hot = AdmissionController(
        window=5, overload_threshold=0.5, shed_fraction=1.0,
        rng=np.random.default_rng(0),
    )
    router.add_tenant("hot", admission=hot)
    for _ in range(5):
        hot.record(True)
    for tenant in ("broken", "hot"):
        state = router.tenant_state(tenant)
        sent = 0
        for n in (0, 3):
            rows = router.query_batch(
                tenant, [model.response], [{svc: 0}] * n, binned=True
            )
            assert [r.status for r in rows] == [STATUS_SHED] * n
            cols = {svc: np.zeros(n, dtype=np.intp)}
            cr = router.query_batch_columns(tenant, [model.response], cols)
            assert cr.status == STATUS_SHED and cr.n_rows == n
            sent += 2 * n
            assert state.stats.n_queries == state.stats.n_shed == sent
    assert router.shards[0].stats.n_queries == 0


# --------------------------------------------------------------------- #
# Dynamic batching
# --------------------------------------------------------------------- #


def test_batcher_coalesces_same_signature_submissions(
    fresh_models, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_models[0]
    router = ShardRouter([ModelServer(m, rng=0) for m in fresh_models])
    svc = _svc(model)
    ev = {svc: _mean(train, svc)}
    # Long max_wait so nothing flushes behind our back; flush manually.
    batcher = DynamicBatcher(router, max_batch=256, max_wait_us=5_000_000)
    try:
        # Use tenants that hash to the same shard so they share a bucket.
        shard0 = [
            f"t{i}" for i in range(32)
            if router.shard_of(f"t{i}") == router.shard_of("t0")
        ][:4]
        pendings = [
            batcher.submit(t, [model.response], ev)
            for t in shard0 for _ in range(8)
        ]
        assert not any(p.done() for p in pendings)
        assert batcher.queue_depth == len(pendings)
        assert batcher.flush() == len(pendings)
        results = [p.result(timeout=5.0) for p in pendings]
        assert all(r.ok and r.tier == TIER_COMPILED for r in results)
        expected = router.shards[router.shard_of(shard0[0])].query(
            [model.response], ev
        )
        for r in results:
            np.testing.assert_allclose(r.value, expected.value)
        # 32 same-signature rows in one flush: ratio far above 2x.
        assert batcher.n_flushes == 1
        assert batcher.coalesce_ratio == len(pendings)
        # Each tenant's rollup saw exactly its own rows.
        for t in shard0:
            assert router.tenant_state(t).stats.n_ok == 8
    finally:
        batcher.close()


def test_batcher_flushes_inline_at_max_batch(fresh_models, ediamond_data):
    train, _ = ediamond_data
    model = fresh_models[0]
    router = ShardRouter([ModelServer(fresh_models[0], rng=0)])
    svc = _svc(model)
    ev = {svc: _mean(train, svc)}
    batcher = DynamicBatcher(router, max_batch=4, max_wait_us=5_000_000)
    try:
        pendings = [batcher.submit("t", [model.response], ev) for _ in range(4)]
        # The 4th submission filled the bucket: flushed on this thread.
        assert all(p.done() for p in pendings)
        assert batcher.n_flushes == 1 and batcher.queue_depth == 0
    finally:
        batcher.close()


def test_batcher_background_flush_honours_max_wait(
    fresh_models, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_models[0]
    router = ShardRouter([ModelServer(fresh_models[0], rng=0)])
    svc = _svc(model)
    batcher = DynamicBatcher(router, max_batch=1024, max_wait_us=2000)
    try:
        r = batcher.query("t", [model.response], {svc: _mean(train, svc)})
        assert r.ok  # the flusher, not max_batch, answered this
        assert batcher.n_flushes >= 1
    finally:
        batcher.close()


def test_batcher_bypasses_to_singles_when_batch_tier_tripped(
    fresh_models, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_models[0]
    server = ModelServer(model, breaker_threshold=1, breaker_cooldown=100, rng=0)
    router = ShardRouter([server])
    server.breakers[TIER_COMPILED].record_failure()
    assert server.breakers[TIER_COMPILED].state != CLOSED
    svc = _svc(model)
    batcher = DynamicBatcher(router, max_batch=64, max_wait_us=5_000_000)
    try:
        pending = batcher.submit("t", [model.response], {svc: _mean(train, svc)})
        # Bypass resolves immediately: no queueing behind a broken tier.
        assert pending.done() and batcher.n_bypass == 1
        r = pending.result(timeout=0)
        assert r.ok and r.tier == TIER_SWEEP
        assert batcher.queue_depth == 0 and batcher.n_flushes == 0
    finally:
        batcher.close()


def test_batcher_sheds_at_submit_time(fresh_models):
    router = ShardRouter(
        [ModelServer(fresh_models[0], rng=0)],
        breaker_threshold=1, breaker_cooldown=100,
    )
    model = fresh_models[0]
    router.tenant_state("t").breaker.record_failure()
    batcher = DynamicBatcher(router, max_batch=64, max_wait_us=5_000_000)
    try:
        pending = batcher.submit("t", [model.response], {})
        assert pending.done()
        assert pending.result(timeout=0).status == STATUS_SHED
        assert batcher.queue_depth == 0
    finally:
        batcher.close()


def test_batcher_rejects_after_close(fresh_models):
    router = ShardRouter([ModelServer(fresh_models[0], rng=0)])
    batcher = DynamicBatcher(router, max_batch=4, max_wait_us=1000)
    batcher.close()
    with pytest.raises(ServingError):
        batcher.submit("t", ["x"], {})


def test_batcher_validates_knobs(fresh_models):
    router = ShardRouter([ModelServer(fresh_models[0], rng=0)])
    with pytest.raises(ServingError):
        DynamicBatcher(router, max_batch=0)
    with pytest.raises(ServingError):
        DynamicBatcher(router, max_wait_us=0)


def test_shard_index_rejects_bad_tenants():
    for bad in ("", "   ", None, 7, b"bytes"):
        with pytest.raises(ServingError):
            shard_index(bad, 4)


def test_router_rejects_bad_tenants(fresh_models):
    router = ShardRouter([ModelServer(fresh_models[0], rng=0)])
    for bad in ("", "  \t", None, 0):
        with pytest.raises(ServingError):
            router.add_tenant(bad)
        with pytest.raises(ServingError):
            router.tenant_state(bad)
    # Valid names with surrounding content still register normally.
    router.add_tenant("tenant-a")
    assert router.tenant_state("tenant-a") is not None


def test_batcher_close_joins_flusher_and_drains(
    fresh_models, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_models[0]
    svc = _svc(model)
    router = ShardRouter([ModelServer(fresh_models[0], rng=0)])
    # A flush cadence far longer than the test: only close() can be the
    # thing that answers the pending query.
    batcher = DynamicBatcher(router, max_batch=64, max_wait_us=5_000_000)
    pending = batcher.submit("t", [model.response], {svc: _mean(train, svc)})
    assert not pending.done()
    batcher.close()
    # close() joined the background flusher, then drained the queue.
    assert not batcher._flusher.is_alive()
    assert pending.done()
    assert pending.result(timeout=0).ok
    assert batcher.queue_depth == 0
    # And stays closed: late submits are rejected, close is idempotent.
    with pytest.raises(ServingError):
        batcher.submit("t", [model.response], {})
    batcher.close()


def test_pending_query_default_wait_bound(fresh_models):
    from repro.serving.fabric import PendingQuery

    router = ShardRouter([ModelServer(fresh_models[0], rng=0)])
    batcher = DynamicBatcher(router, max_batch=4, max_wait_us=2000)
    try:
        # The bound is a multiple of the flush cadence, floored at 1s so
        # tiny cadences do not turn scheduler jitter into failures.
        assert batcher.default_result_timeout == max(1.0, 50.0 * 0.002)
        pending = batcher.submit("t", ["x"], {})
        assert pending.default_timeout == batcher.default_result_timeout
    finally:
        batcher.close()
    # A waiter whose batch never flushes wakes with a diagnosable error
    # instead of blocking forever.
    orphan = PendingQuery("t", {}, default_timeout=0.05)
    with pytest.raises(ServingError, match="timed out"):
        orphan.result()


# --------------------------------------------------------------------- #
# Facade + chaos
# --------------------------------------------------------------------- #


def test_fabric_stats_rollup_includes_batcher(fresh_models, ediamond_data):
    train, _ = ediamond_data
    model = fresh_models[0]
    svc = _svc(model)
    with build_fabric(fresh_models, max_batch=8, max_wait_us=2000) as fab:
        assert isinstance(fab, ServingFabric)
        r = fab.query("t", [model.response], {svc: _mean(train, svc)})
        assert r.ok
        st = fab.stats()
        assert st["n_shards"] == 4
        assert st["batcher"]["submitted"] == 1
        assert st["tenants"]["t"]["stats"]["n_ok"] == 1
        assert "breakers" in st["shards"][0]


def test_fabric_chaos_tripped_shard_does_not_bleed_across_tenants(
    fresh_models, ediamond_data
):
    """Seeded tenant storm with one poisoned shard: its tenants degrade
    through the fallback chain; tenants on healthy shards keep getting
    compiled answers; every row lands in exactly one tenant rollup."""
    train, _ = ediamond_data
    model = fresh_models[0]
    svc = _svc(model)
    ev = {svc: _mean(train, svc)}
    shards = [ModelServer(m, rng=0) for m in fresh_models]

    def boom(*a):
        raise RuntimeError("injected")

    poisoned = 0
    shards[poisoned].chain.engine.failure_hook = boom

    router = ShardRouter(shards)
    tenants = [f"tenant-{i}" for i in range(12)]
    sick = [t for t in tenants if router.shard_of(t) == poisoned]
    healthy = [t for t in tenants if router.shard_of(t) != poisoned]
    assert sick and healthy  # 12 hashed tenants cover all 4 shards

    batcher = DynamicBatcher(router, max_batch=16, max_wait_us=2000)
    rng = np.random.default_rng(7)
    order = rng.permutation(np.repeat(np.arange(12), 20))
    try:
        with ThreadPoolExecutor(8) as ex:
            results = list(
                ex.map(
                    lambda i: (
                        tenants[i],
                        batcher.query(tenants[i], [model.response], ev),
                    ),
                    order,
                )
            )
    finally:
        batcher.close()

    by_tenant = {}
    for name, r in results:
        by_tenant.setdefault(name, []).append(r)
    for t in healthy:
        assert all(r.ok and r.tier == TIER_COMPILED for r in by_tenant[t])
    for t in sick:
        # Degraded, not dead: every answer still arrives via a fallback
        # tier (or is shed by the tenant budget) — never a crash.
        assert all(
            (r.ok and r.tier != TIER_COMPILED) or r.status == STATUS_SHED
            for r in by_tenant[t]
        )
    # Accounting balances: each of the 240 rows in exactly one rollup.
    total = sum(
        router.tenant_state(t).stats.n_queries for t in tenants
    )
    assert total == len(order)
    served = sum(s.stats.n_queries for s in shards)
    shed_at_gate = sum(
        router.tenant_state(t).stats.n_shed for t in tenants
    ) - sum(s.stats.n_shed for s in shards)
    assert served + shed_at_gate == len(order)


def test_fabric_concurrent_same_signature_traffic_coalesces(
    fresh_models, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_models[0]
    svc = _svc(model)
    ev = {svc: _mean(train, svc)}
    with build_fabric(fresh_models, max_batch=32, max_wait_us=2000) as fab:
        barrier = threading.Barrier(8)

        def worker(w):
            barrier.wait()
            return [
                fab.query(f"tenant-{(w + j) % 6}", [model.response], ev)
                for j in range(30)
            ]

        with ThreadPoolExecutor(8) as ex:
            out = [r for rs in ex.map(worker, range(8)) for r in rs]
        assert all(r.ok for r in out)
        assert fab.batcher.coalesce_ratio > 1.0
