"""ModelServer: guarded queries, deadlines, shedding, registry refresh."""

import numpy as np
import pytest

from repro.serving.breaker import AdmissionController
from repro.serving.fallback import TIER_COMPILED, TIER_PRIOR, TIER_SWEEP
from repro.serving.registry import ModelRegistry
from repro.serving.server import (
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_SHED,
    TIER_ANALYTIC,
    ModelServer,
)


def _svc(model, k=0):
    return [n for n in model.network.nodes if n != model.response][k]


def _mean(data, name):
    return float(np.mean(data[name]))


# --------------------------------------------------------------------- #
# Single queries
# --------------------------------------------------------------------- #


def test_query_matches_engine_when_healthy(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    r = srv.query([model.response], {svc: _mean(train, svc)})
    assert r.ok and r.tier == TIER_COMPILED
    disc = model.discretizer
    expected = model.network.compiled().query(
        [model.response], {svc: disc.state_of(svc, _mean(train, svc))}
    ).values
    np.testing.assert_allclose(r.value, expected)
    assert srv.stats.n_ok == 1
    assert srv.stats.tier_counts[TIER_COMPILED] == 1


def test_bad_evidence_rejected_with_reasons_not_crash(fresh_discrete_model):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    r = srv.query([model.response], {"martian": 1.0})
    assert r.status == STATUS_REJECTED and "'martian'" in r.reasons[0]
    r = srv.query([model.response], {_svc(model): float("nan")})
    assert r.status == STATUS_REJECTED and any("NaN" in x for x in r.reasons)
    # querying a variable that is also evidence is refused, not undefined
    r = srv.query([model.response], {model.response: 1.0})
    assert r.status == STATUS_REJECTED
    # unknown query variable
    r = srv.query(["martian"], {})
    assert r.status == STATUS_REJECTED
    assert srv.stats.n_rejected == 4 and srv.stats.n_queries == 4


def test_odd_evidence_values_are_refused_per_row_not_raised(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    good = {svc: _mean(train, svc)}
    rows = [good, {svc: [1.0, 2.0]}, {svc: "fast"}, {svc: None}, good]
    results = srv.query_batch([model.response], rows)
    assert [r.status for r in results] == [
        STATUS_OK, STATUS_REJECTED, STATUS_REJECTED, STATUS_REJECTED, STATUS_OK,
    ]
    assert all("not a number" in r.reasons[0] for r in results[1:4])
    binned = srv.query_batch(
        [model.response], [{svc: "1"}, {svc: 2.0}, {svc: float("inf")}],
        binned=True,
    )
    assert [r.status for r in binned] == [STATUS_OK, STATUS_OK, STATUS_REJECTED]
    assert "not an integer" in binned[2].reasons[0]
    assert srv.stats.n_rows_rejected == 4


def test_binned_evidence_validated_against_cardinalities(fresh_discrete_model):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    ok = srv.query([model.response], {svc: 2}, binned=True)
    assert ok.ok
    bad = srv.query([model.response], {svc: 99}, binned=True)
    assert bad.status == STATUS_REJECTED
    assert any("out of range" in r for r in bad.reasons)


def test_engine_fault_answers_through_fallback(fresh_discrete_model, ediamond_data):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)

    def boom(*a):
        raise RuntimeError("injected")

    srv.chain.engine.failure_hook = boom
    r = srv.query([model.response], {svc: _mean(train, svc)})
    assert r.ok and r.tier == TIER_SWEEP
    assert TIER_COMPILED in r.tier_errors


def test_expired_deadline_degrades_to_prior(fresh_discrete_model, ediamond_data):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, deadline_seconds=1e-9, rng=0)
    svc = _svc(model)
    r = srv.query([model.response], {svc: _mean(train, svc)})
    assert r.ok and r.tier == TIER_PRIOR and r.approximate
    assert r.deadline_exceeded
    assert srv.stats.n_deadline_exceeded == 1


def test_admission_control_sheds_under_overload(fresh_discrete_model):
    model = fresh_discrete_model
    ac = AdmissionController(
        window=5, overload_threshold=0.5, shed_fraction=1.0,
        rng=np.random.default_rng(0),
    )
    srv = ModelServer(model, admission=ac, rng=0)
    for _ in range(5):
        ac.record(True)
    r = srv.query([model.response], {})
    assert r.status == STATUS_SHED and r.reasons
    assert srv.stats.n_shed == 1


# --------------------------------------------------------------------- #
# Batches
# --------------------------------------------------------------------- #


def test_query_batch_aligns_results_with_input_rows(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    a, b = _svc(model, 0), _svc(model, 1)
    rows = [
        {a: _mean(train, a)},
        {a: float("nan")},
        {"martian": 1.0},
        {b: _mean(train, b)},          # different signature, same batch
        {a: _mean(train, a) * 1.1},
    ]
    results = srv.query_batch([model.response], rows)
    assert [r.status for r in results] == [
        STATUS_OK, STATUS_REJECTED, STATUS_REJECTED, STATUS_OK, STATUS_OK,
    ]
    # batched answers equal the single-query path
    single = srv.query([model.response], rows[0])
    np.testing.assert_allclose(results[0].value, single.value)
    assert srv.stats.n_rows_rejected == 2


def test_query_batch_survives_engine_fault_per_row(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    a = _svc(model)
    exact = srv.query([model.response], {a: _mean(train, a)}).value

    def boom(*args):
        raise RuntimeError("injected")

    srv.chain.engine.failure_hook = boom
    results = srv.query_batch(
        [model.response], [{a: _mean(train, a)}, {a: _mean(train, a) * 2}]
    )
    assert all(r.ok for r in results)
    assert all(r.tier == TIER_SWEEP for r in results)
    np.testing.assert_allclose(results[0].value, exact, atol=1e-10)


def test_degraded_row_tries_the_compiled_tier_once(
    fresh_discrete_model, ediamond_data
):
    """The batch kernel *is* the compiled tier: a row it cannot answer
    walks the chain from the next tier, so one query charges the
    compiled breaker once, as a lone chain walk always did."""
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    a = _svc(model)
    calls = []

    def boom(kind, *args):
        calls.append(kind)
        raise RuntimeError("injected")

    srv.chain.engine.failure_hook = boom
    r = srv.query([model.response], {a: _mean(train, a)})
    assert r.ok and r.tier == TIER_SWEEP
    assert calls == ["batch"]
    assert srv.breakers[TIER_COMPILED]._consecutive_failures == 1
    rows = srv.query_batch(
        [model.response], [{a: _mean(train, a)}, {a: _mean(train, a) * 2}]
    )
    assert [x.tier for x in rows] == [TIER_SWEEP, TIER_SWEEP]
    assert calls == ["batch", "batch"]


def test_columnar_lane_refuses_rows_not_calls(fresh_discrete_model):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    a = _svc(model)
    card = model.network.cardinalities[a]
    cr = srv.query_batch_columns(
        [model.response], {a: np.array([0, card, 1, -1], dtype=np.int64)}
    )
    assert cr.ok and cr.n_valid == 2 and cr.pmfs.shape[0] == 2
    assert cr.valid.tolist() == [True, False, True, False]
    assert cr.counts == {STATUS_OK: 2, STATUS_REJECTED: 2}
    assert any("out of range" in reason for reason in cr.reasons)
    direct = model.network.compiled().query_batch(
        [model.response], {a: np.array([0, 1])}
    )
    np.testing.assert_allclose(cr.pmfs, direct)
    st = srv.stats.as_dict()
    assert st["n_queries"] == 4 and st["n_ok"] == 2
    assert st["n_rejected"] == st["n_rows_rejected"] == 2
    # Rows with no evidence are answered by the kernel (the prior).
    rows = srv.query_batch([model.response], [{}, {}])
    prior = model.network.compiled().query([model.response]).values
    assert all(r.ok and r.tier == TIER_COMPILED for r in rows)
    np.testing.assert_allclose(rows[1].value, prior)


# --------------------------------------------------------------------- #
# Assessment surface
# --------------------------------------------------------------------- #


def test_violation_prob_discrete_goes_through_chain(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    h = float(np.percentile(train[model.response], 80))
    r = srv.violation_prob(h)
    assert r.ok and r.tier == TIER_COMPILED
    assert 0.0 <= r.value <= 1.0
    from repro.apps.paccel import PAccel

    expected = PAccel(model).baseline(rng=0).violation_probability(h)
    assert r.value == pytest.approx(expected)
    bad = srv.violation_prob(float("nan"))
    assert bad.status == STATUS_REJECTED


def test_violation_prob_continuous_uses_analytic_tier(
    ediamond_continuous_model, ediamond_data
):
    train, _ = ediamond_data
    srv = ModelServer(ediamond_continuous_model, rng=0)
    h = float(np.percentile(train["D"], 80))
    r = srv.violation_prob(h)
    assert r.ok and r.tier == TIER_ANALYTIC
    assert 0.0 <= r.value <= 1.0
    # query() on a continuous model is a clean rejection, not a crash
    q = srv.query(["D"], {})
    assert q.status == STATUS_REJECTED
    assert any("discrete" in reason for reason in q.reasons)


def test_project_discrete(fresh_discrete_model, ediamond_data):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    r = srv.project({svc: _mean(train, svc) * 0.5})
    assert r.ok
    assert np.isfinite(r.value.mean) and r.value.pmf.sum() == pytest.approx(1.0)
    from repro.apps.paccel import PAccel

    expected = PAccel(model).project({svc: _mean(train, svc) * 0.5})
    assert r.value.mean == pytest.approx(expected.mean)


# --------------------------------------------------------------------- #
# Registry-backed serving
# --------------------------------------------------------------------- #


def test_refresh_follows_rollback(
    tmp_path, fresh_discrete_model, ediamond_env, ediamond_data
):
    from repro.core.kertbn import build_discrete_kertbn

    train, _ = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    reg.publish(fresh_discrete_model)
    srv = ModelServer(reg, rng=0)
    assert srv.version == 1
    other = build_discrete_kertbn(ediamond_env.workflow, train, n_bins=3)
    reg.publish(other)
    assert srv.refresh() == 2
    assert srv.model.network.cardinalities[srv.model.response] == 3
    reg.rollback(reason="operator")
    assert srv.refresh() == 1
    r = srv.query([srv.model.response], {})
    assert r.ok and r.value.shape == (4,)


def test_refresh_mid_query_answers_from_one_version(
    tmp_path, fresh_discrete_model, ediamond_env, ediamond_data
):
    """A refresh() that lands while a query is binning its evidence must
    not pair v1's bins with v2's engine: the answer is exactly v1's or
    exactly v2's."""
    from repro.core.kertbn import build_discrete_kertbn

    train, _ = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    reg.publish(fresh_discrete_model)                       # v1: 4 bins
    reg.publish(build_discrete_kertbn(ediamond_env.workflow, train, n_bins=3))
    reg.activate(1)
    srv = ModelServer(reg, rng=0)
    assert srv.version == 1
    response, svc = srv.model.response, _svc(srv.model)
    # Far above every edge: v1's top bin (3) is out of range for v2.
    evidence = {svc: 10.0 * float(np.max(train[svc]))}
    expected = [
        ModelServer(reg.load(v), rng=0).query([response], evidence).value
        for v in (1, 2)
    ]
    disc = srv.model.discretizer
    original = disc._bin

    def swap_then_bin(x, edges):
        if srv.version == 1:
            reg.activate(2)
            assert srv.refresh() == 2
        return original(x, edges)

    disc._bin = swap_then_bin
    r = srv.query([response], evidence)
    assert srv.version == 2  # the refresh really landed mid-query
    assert r.ok and r.tier == TIER_COMPILED and not r.tier_errors
    assert any(
        e.shape == r.value.shape and np.array_equal(e, r.value)
        for e in expected
    )
