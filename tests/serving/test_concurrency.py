"""Thread-safety of the serving substrate + batch/single accounting parity.

These are the regression tests for the three serving-path bugs this PR
fixes: shed batches aliasing one mutable result (and being undercounted),
batch rejections bypassing the per-row accounting, and unlocked shared
state in the breaker / admission controller / stats / engine plan cache.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.bn.inference.engine import CompiledDiscreteModel
from repro.serving.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    CircuitBreaker,
)
from repro.serving.server import (
    STATUS_REJECTED,
    STATUS_SHED,
    ModelServer,
    QueryResult,
    ServerStats,
)


def _svc(model, k=0):
    return [n for n in model.network.nodes if n != model.response][k]


def _mean(data, name):
    return float(np.mean(data[name]))


# --------------------------------------------------------------------- #
# Bugfix regressions: shed aliasing + rejections through the accounting
# --------------------------------------------------------------------- #


def test_shed_batch_returns_distinct_results_counted_per_row(
    fresh_discrete_model,
):
    ac = AdmissionController(
        window=5, overload_threshold=0.5, shed_fraction=1.0,
        rng=np.random.default_rng(0),
    )
    srv = ModelServer(fresh_discrete_model, admission=ac, rng=0)
    for _ in range(5):
        ac.record(True)
    results = srv.query_batch(
        [fresh_discrete_model.response], [{}, {}, {}]
    )
    assert [r.status for r in results] == [STATUS_SHED] * 3
    # Three distinct objects: mutating one must not alias the others.
    assert len({id(r) for r in results}) == 3
    results[0].status = "mutated"
    assert results[1].status == STATUS_SHED
    # And three sheds in the stats, not one.
    assert srv.stats.n_shed == 3 and srv.stats.n_queries == 3


def test_batch_rejections_carry_elapsed_and_feed_admission(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    ac = AdmissionController(window=50, rng=np.random.default_rng(0))
    srv = ModelServer(model, admission=ac, rng=0)
    svc = _svc(model)
    rows = [
        {svc: _mean(train, svc)},
        {"martian": 1.0},
        {svc: float("nan")},
    ]
    results = srv.query_batch([model.response], rows)
    assert results[0].ok
    for r in results[1:]:
        assert r.status == STATUS_REJECTED
        # Accounted like every other row: timed ...
        assert r.elapsed_seconds > 0.0
    # ... and every row (ok and rejected) fed the admission
    # window — 3 rows in, 3 outcomes recorded.
    assert len(ac._outcomes) == 3


def test_batch_and_single_paths_tally_identically(
    fresh_discrete_model, ediamond_data
):
    """The accounting-equivalence contract: the same rows produce the
    same ServerStats and admission updates whether they arrive as one
    batch or as N single queries."""
    train, _ = ediamond_data
    model = fresh_discrete_model
    svc = _svc(model)
    good = {svc: _mean(train, svc)}
    rows = [good, {"martian": 1.0}, good, {svc: float("nan")}, good]

    batch_srv = ModelServer(
        model,
        admission=AdmissionController(window=50, rng=np.random.default_rng(0)),
        rng=0,
    )
    single_srv = ModelServer(
        model,
        admission=AdmissionController(window=50, rng=np.random.default_rng(0)),
        rng=0,
    )
    batch_results = batch_srv.query_batch([model.response], rows)
    single_results = [single_srv.query([model.response], r) for r in rows]

    assert [r.status for r in batch_results] == [
        r.status for r in single_results
    ]
    for b, s in zip(batch_results, single_results):
        if b.ok:
            np.testing.assert_allclose(b.value, s.value)

    b, s = batch_srv.stats.as_dict(), single_srv.stats.as_dict()
    # n_rows_rejected is the one deliberate asymmetry: it counts rows
    # rejected *inside batches* and has no single-query analogue.
    assert b.pop("n_rows_rejected") == 2
    assert s.pop("n_rows_rejected") == 0
    assert b == s
    # Same seed, same admitted/recorded sequence → identical windows.
    assert list(batch_srv.admission._outcomes) == list(
        single_srv.admission._outcomes
    )
    assert batch_srv.admission.n_admitted == single_srv.admission.n_admitted
    assert batch_srv.admission.n_shed == single_srv.admission.n_shed


# --------------------------------------------------------------------- #
# Thread-safety: breaker / admission / stats invariants under a pool
# --------------------------------------------------------------------- #


def test_circuit_breaker_invariants_under_threads():
    breaker = CircuitBreaker(failure_threshold=3, cooldown=5)
    rngs = [np.random.default_rng(i) for i in range(8)]

    def worker(w):
        rng = rngs[w]
        allowed = 0
        for _ in range(2000):
            if breaker.allow():
                allowed += 1
                if rng.random() < 0.3:
                    breaker.record_failure()
                else:
                    breaker.record_success()
        return allowed

    with ThreadPoolExecutor(8) as ex:
        allowed = sum(ex.map(worker, range(8)))
    # No lost updates or corrupted state machine: the breaker lands in a
    # legal state and its counters balance against the call volume.
    assert breaker.state in (CLOSED, OPEN, HALF_OPEN)
    assert allowed + breaker.n_refused == 8 * 2000
    assert breaker.n_trips >= 1
    assert breaker.n_refused >= 0


def test_admission_controller_counts_balance_under_threads():
    ac = AdmissionController(
        window=50, overload_threshold=0.3, shed_fraction=0.5,
        rng=np.random.default_rng(0),
    )
    calls_per_worker = 3000

    def worker(w):
        rng = np.random.default_rng(100 + w)
        for _ in range(calls_per_worker):
            if ac.admit():
                ac.record(rng.random() < 0.5)

    with ThreadPoolExecutor(8) as ex:
        list(ex.map(worker, range(8)))
    # Every admit() incremented exactly one of the two counters.
    assert ac.n_admitted + ac.n_shed == 8 * calls_per_worker
    assert ac.n_shed > 0  # the overload regime was actually exercised
    assert len(ac._outcomes) == ac.window
    assert 0.0 <= ac.overload_fraction <= 1.0


def test_server_stats_lose_no_counts_under_threads():
    stats = ServerStats()
    per_worker = {
        "ok": 500, "rejected": 300, "shed": 200, "failed": 100,
    }

    def worker(_):
        for _ in range(per_worker["ok"]):
            stats._count(QueryResult(status="ok", tier="compiled-einsum"))
        for _ in range(per_worker["rejected"]):
            stats._count(QueryResult(status="rejected"))
        for _ in range(per_worker["shed"]):
            stats._count(QueryResult(status="shed"))
        for _ in range(per_worker["failed"]):
            stats._count(
                QueryResult(status="failed", deadline_exceeded=True)
            )
        stats.count_rows_rejected(7)

    with ThreadPoolExecutor(8) as ex:
        list(ex.map(worker, range(8)))
    assert stats.n_ok == 8 * 500
    assert stats.n_rejected == 8 * 300
    assert stats.n_shed == 8 * 200
    assert stats.n_failed == 8 * 100
    assert stats.n_deadline_exceeded == 8 * 100
    assert stats.n_queries == 8 * 1100
    assert stats.n_rows_rejected == 8 * 7
    assert stats.tier_counts["compiled-einsum"] == 8 * 500


# --------------------------------------------------------------------- #
# Thread-safety: engine plan cache
# --------------------------------------------------------------------- #


def test_plan_cache_consistent_under_concurrent_mixed_signatures(
    fresh_discrete_model,
):
    """Hammer a 4-slot LRU with 8 threads cycling 8 signatures: lookups,
    compiles, and evictions race, yet answers stay correct and the cache
    bookkeeping balances."""
    net = fresh_discrete_model.network
    engine = CompiledDiscreteModel(net, plan_cache_size=4)
    nodes = list(net.nodes)
    response = fresh_discrete_model.response
    others = [n for n in nodes if n != response]
    signatures = [
        ((response,), {others[i % len(others)]: 0}) for i in range(8)
    ] + [((others[0],), {response: 0})]

    reference = {
        i: CompiledDiscreteModel(net).query(v, e).values
        for i, (v, e) in enumerate(signatures)
    }

    def worker(w):
        rng = np.random.default_rng(w)
        for _ in range(200):
            i = int(rng.integers(len(signatures)))
            v, e = signatures[i]
            np.testing.assert_allclose(
                engine.query(v, e).values, reference[i], atol=1e-12
            )

    with ThreadPoolExecutor(8) as ex:
        list(ex.map(worker, range(8)))

    cs = engine.cache_stats()
    assert cs["plans"] <= cs["capacity"] == 4
    # Compiles minus evictions is exactly what's resident — no plan was
    # double-counted or lost in a race.
    assert cs["compiles"] - cs["evictions"] == cs["plans"]
    # Every query either hit or compiled (racing losers count as hits).
    assert cs["hits"] + cs["compiles"] == 8 * 200


def test_threaded_server_queries_match_single_thread(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc_a, svc_b = _svc(model, 0), _svc(model, 1)
    evs = [
        {svc_a: _mean(train, svc_a)},
        {svc_b: _mean(train, svc_b)},
        {svc_a: _mean(train, svc_a), svc_b: _mean(train, svc_b)},
    ]
    expected = [
        ModelServer(model, rng=0).query([model.response], ev).value
        for ev in evs
    ]

    def worker(w):
        for j in range(60):
            i = (w + j) % len(evs)
            r = srv.query([model.response], evs[i])
            assert r.ok
            np.testing.assert_allclose(r.value, expected[i])

    with ThreadPoolExecutor(6) as ex:
        list(ex.map(worker, range(6)))
    assert srv.stats.n_ok == 6 * 60 == srv.stats.n_queries


def test_queries_racing_refreshes_answer_from_one_version(
    tmp_path, fresh_discrete_model, ediamond_env, ediamond_data
):
    """Threads query while another flips the registry between a 4-bin
    and a 3-bin version and refreshes: every answer is exactly one
    version's, never one version's bins through the other's engine."""
    import sys
    import threading

    from repro.core.kertbn import build_discrete_kertbn
    from repro.serving.registry import ModelRegistry

    train, _ = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    reg.publish(fresh_discrete_model)
    reg.publish(build_discrete_kertbn(ediamond_env.workflow, train, n_bins=3))
    srv = ModelServer(reg, rng=0)
    response, svc = srv.model.response, _svc(srv.model)
    evs = [{svc: f * float(np.max(train[svc]))} for f in (0.2, 0.6, 10.0)]
    expected = [
        [ModelServer(reg.load(v), rng=0).query([response], ev).value for ev in evs]
        for v in (1, 2)
    ]
    stop = threading.Event()

    def flipper():
        v = 1
        while not stop.is_set():
            reg.activate(v)
            srv.refresh()
            v = 3 - v

    def worker(w):
        for j in range(150):
            i = (w + j) % len(evs)
            r = srv.query([response], evs[i])
            assert r.ok and r.tier == "compiled-einsum", r
            assert any(
                e[i].shape == r.value.shape and np.array_equal(e[i], r.value)
                for e in expected
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    flip = threading.Thread(target=flipper, daemon=True)
    try:
        flip.start()
        with ThreadPoolExecutor(4) as ex:
            list(ex.map(worker, range(4)))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        flip.join(timeout=30)
    assert not flip.is_alive()
    assert srv.stats.n_ok == 4 * 150
