"""Sharded multi-tenant serving fabric with dynamic batching.

One :class:`~repro.serving.server.ModelServer` guards one model bundle;
the paper's autonomic story ("millions of users", model queries *inside*
the control loop) needs a front-end that hosts many scenarios/tenants at
once and turns the engine's ~250× batched-inference advantage into
real-traffic throughput.  This module is that front-end:

- :class:`ShardRouter` — hosts N tenants over a fixed ring of
  :class:`~repro.serving.server.ModelServer` shards.  The tenant→shard
  mapping is **consistent** (a CRC32 of the tenant name modulo the shard
  count — stable across processes and restarts, independent of
  registration order).  Every tenant carries its own budget: a seeded
  :class:`~repro.serving.breaker.AdmissionController` and a per-tenant
  :class:`~repro.serving.breaker.CircuitBreaker`, plus a per-tenant
  :class:`~repro.serving.server.ServerStats` rollup — one tenant's storm
  or poisoned traffic is shed at *its* budget and never bleeds into its
  neighbours' accounting.  All three entry points (``query``,
  ``query_batch``, ``query_batch_columns``) pass one gate — one breaker
  probe and one admission decision per call; a shed call counts exactly
  its own rows — and one settle: one breaker/admission outcome per call
  and every row counted once, through the same
  :class:`~repro.serving.server.Tally` the shard servers count with.
- :class:`DynamicBatcher` — a thread-safe request queue that coalesces
  concurrent single ``query`` calls sharing an evidence signature (and
  shard) into ``query_batch`` calls.  Buckets flush when they reach
  ``max_batch`` rows or age past ``max_wait_us`` (deadline-aware: a
  background flusher sweeps aged buckets so no caller waits longer than
  roughly one flush interval).  When a shard's compiled batch tier is
  tripped, the batcher **falls back to singles** — queueing behind a
  broken kernel would only add latency to an already-degraded path.
- :class:`ReplicaGroup` — one ring slot hosting ``n`` replicas of the
  same model behind the :class:`ModelServer` surface: health-ordered
  routing (:mod:`repro.serving.health`), failover down the health
  order on outright failure, optional p95-adaptive **hedged requests**
  against the next-healthiest sibling, and per-replica fault injection
  (:mod:`repro.serving.faults`) for chaos drills.
- :class:`ServingFabric` — the facade the CLI and the load harness
  drive: single queries through the batcher, bulk columnar traffic
  straight through the router's
  :meth:`~repro.serving.server.ModelServer.query_batch_columns` lane,
  plus a background :class:`~repro.serving.health.HealthProber` that
  canaries ejected replicas back into service.

All fabric counters/gauges flow into :mod:`repro.obs` under the
``fabric.*`` prefix (and therefore out of the Prometheus exporter):
queue depth, batch occupancy, coalesced rows vs flushes (the coalesce
ratio), single-path bypasses, and per-tenant shed counts; per-tenant
breakers publish the standard ``serving.breaker.tenant.<name>.*``
transition counters and ``open`` gauges.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field

from repro.exceptions import ServingError
from repro.obs.runtime import OBS as _OBS
from repro.serving.breaker import CLOSED, AdmissionController, CircuitBreaker
from repro.serving.fallback import TIER_COMPILED
from repro.serving.faults import ReplicaFaultInjector
from repro.serving.health import (
    HealthPolicy,
    HealthProber,
    QuantileTracker,
    ReplicaHealth,
)
from repro.serving.server import (
    STATUS_FAILED,
    STATUS_SHED,
    ColumnarBatchResult,
    ModelServer,
    QueryResult,
    ServerStats,
    Tally,
)


def _validate_tenant(tenant) -> str:
    """Tenant names must be non-blank strings.

    Silently CRC-hashing ``str(None)`` or ``""`` would route phantom
    tenants onto real shards and corrupt per-tenant accounting, so bad
    names are refused at the door.
    """
    if not isinstance(tenant, str):
        raise ServingError(
            f"tenant name must be a string, got {type(tenant).__name__}"
        )
    if not tenant.strip():
        raise ServingError("tenant name must be non-empty")
    return tenant


def shard_index(tenant: str, n_shards: int) -> int:
    """Consistent tenant→shard mapping: CRC32 mod shard count.

    Stable across processes, restarts, and registration order — the
    property that lets a fleet of routers agree on placement without
    coordination.
    """
    if n_shards < 1:
        raise ServingError("n_shards must be >= 1")
    tenant = _validate_tenant(tenant)
    return zlib.crc32(tenant.encode("utf-8")) % n_shards


@dataclass
class TenantState:
    """One tenant's budget and accounting inside the fabric."""

    name: str
    shard: int
    admission: "AdmissionController | None"
    breaker: CircuitBreaker
    stats: ServerStats = field(default_factory=ServerStats)

    def snapshot(self) -> dict:
        info = {
            "shard": self.shard,
            "breaker_state": self.breaker.state,
            "breaker_trips": self.breaker.n_trips,
            "stats": self.stats.as_dict(),
        }
        if self.admission is not None:
            info["admission"] = {
                "overload_fraction": self.admission.overload_fraction,
                "n_admitted": self.admission.n_admitted,
                "n_shed": self.admission.n_shed,
            }
        return info


@dataclass(frozen=True)
class HedgePolicy:
    """When to issue a backup query against a sibling replica.

    The hedge delay adapts to the group's observed latency: it is
    ``multiplier`` times the streaming p95 (per-group
    :class:`~repro.serving.health.QuantileTracker`), floored at
    ``min_delay_s`` so cold groups and microsecond workloads do not
    hedge every call.  Until ``warmup`` samples have been observed the
    floor alone applies.
    """

    min_delay_s: float = 0.01
    multiplier: float = 2.0
    warmup: int = 16

    def __post_init__(self):
        if self.min_delay_s <= 0.0:
            raise ServingError("min_delay_s must be > 0")
        if self.multiplier <= 0.0:
            raise ServingError("multiplier must be > 0")
        if self.warmup < 1:
            raise ServingError("warmup must be >= 1")


def _n_rows(columns: Mapping) -> int:
    return max((len(c) for c in columns.values()), default=0)


def _records(result) -> "list":
    """Any entry point's result as records carrying ``status`` and
    ``deadline_exceeded`` (a columnar batch is one record)."""
    return result if isinstance(result, list) else [result]


def _group_failed(result) -> bool:
    """Did this call fail outright (every row FAILED)?

    Failover retries a sibling only on *total* failure — partial
    results (some rows shed/rejected) are real answers whose budgets
    were already charged.
    """
    records = _records(result)
    return bool(records) and all(r.status == STATUS_FAILED for r in records)


def _group_deadline_missed(result) -> bool:
    return any(r.deadline_exceeded for r in _records(result))


class ReplicaGroup:
    """One ring slot hosting ``n`` replicas of the same model.

    Presents the :class:`ModelServer` query surface (``query`` /
    ``query_batch`` / ``query_batch_columns`` plus the ``chain`` /
    ``breakers`` / ``stats`` / ``model`` / ``version`` accessors the
    router and batcher rely on), so a group drops in anywhere a single
    shard server did.  On top of the surface it adds:

    - **health-ordered routing** — every dispatch lands on the replica
      ranked healthiest by :class:`~repro.serving.health.ReplicaHealth`
      (EJECTED replicas sort last, tripped compiled tiers next-to-last);
    - **failover** — when the chosen replica fails outright, the call
      retries down the health order (``fabric.failover.switches``;
      ``fabric.failover.exhausted`` when every replica failed);
    - **hedged requests** — with a :class:`HedgePolicy` and ≥2 live
      replicas, a backup is issued to the next-healthiest sibling once
      the primary has been quiet past the adaptive p95-based hedge
      delay; first response wins and the loser is accounted under
      ``fabric.hedge.{issued,won,wasted}``;
    - **fault injection** — a per-replica
      :class:`~repro.serving.faults.ReplicaFaultInjector` consulted
      before each dispatch; an injected fault synthesizes a FAILED
      result *without touching the replica*, exactly like an
      unreachable shard (the replica's own stats never see the call).
    """

    def __init__(
        self,
        replicas: "Sequence[ModelServer]",
        *,
        name: str = "shard",
        health_policy: "HealthPolicy | None" = None,
        hedge: "HedgePolicy | bool | None" = None,
    ):
        if not replicas:
            raise ServingError("ReplicaGroup needs at least one replica")
        self.name = str(name)
        self.replicas: tuple[ModelServer, ...] = tuple(replicas)
        self.policy = health_policy or HealthPolicy()
        if hedge is True:
            hedge = HedgePolicy()
        self.hedge: "HedgePolicy | None" = hedge or None
        self.health = tuple(
            ReplicaHealth(policy=self.policy, name=f"{self.name}.r{i}")
            for i in range(len(self.replicas))
        )
        #: Group-level latency quantile feeding the hedge delay.
        self.latency = QuantileTracker(self.policy.quantile)
        self._faults: "dict[int, ReplicaFaultInjector]" = {}
        self._executor: "ThreadPoolExecutor | None" = None
        self._lock = threading.Lock()
        self.n_failovers = 0
        self.n_exhausted = 0
        self.n_faults_injected = 0
        self.n_hedges_issued = 0
        self.n_hedges_won = 0
        self.n_hedges_wasted = 0

    # ------------------------------------------------------------------ #
    # ModelServer-compatible surface (delegates to the current primary)
    # ------------------------------------------------------------------ #

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def order(self) -> "list[int]":
        """Replica indices, healthiest first.

        Sort key: ACTIVE before ejected/probation, closed compiled
        breaker before tripped, then descending health score, then
        index (stable tiebreak).
        """
        keyed = []
        for i, h in enumerate(self.health):
            r = self.replicas[i]
            tripped = int(
                r.chain is not None
                and r.breakers[TIER_COMPILED].state != CLOSED
            )
            keyed.append((0 if h.active else 1, tripped, -h.score, i))
        keyed.sort()
        return [k[-1] for k in keyed]

    def primary_index(self) -> int:
        return self.order()[0]

    @property
    def primary(self) -> ModelServer:
        return self.replicas[self.primary_index()]

    @property
    def chain(self):
        return self.primary.chain

    @property
    def breakers(self):
        return self.primary.breakers

    @property
    def model(self):
        return self.primary.model

    @property
    def version(self):
        return self.primary.version

    @property
    def registry(self):
        return self.primary.registry

    @property
    def stats(self) -> ServerStats:
        """Primary replica's stats (see :meth:`stats_dict` for the
        group-wide aggregate)."""
        return self.primary.stats

    @property
    def batch_ready(self) -> bool:
        """May the batcher coalesce onto this group right now?

        True when some routable replica still has a closed compiled
        tier — with replicas, one tripped kernel should not push the
        whole slot onto the slow single-query path.
        """
        candidates = [i for i, h in enumerate(self.health) if h.active]
        if not candidates:
            candidates = list(range(len(self.replicas)))
        return any(
            self.replicas[i].chain is not None
            and self.replicas[i].breakers[TIER_COMPILED].state == CLOSED
            for i in candidates
        )

    def refresh(self) -> "int | None":
        versions = [r.refresh() for r in self.replicas]
        return versions[0]

    def stats_dict(self) -> dict:
        """Row-equivalent aggregate over every replica's ServerStats."""
        agg: "dict | None" = None
        for r in self.replicas:
            d = r.stats.as_dict()
            if agg is None:
                agg = d
                continue
            for k, v in d.items():
                if k == "tier_counts":
                    for tier, c in v.items():
                        agg["tier_counts"][tier] = (
                            agg["tier_counts"].get(tier, 0) + c
                        )
                else:
                    agg[k] += v
        assert agg is not None
        return agg

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #

    def inject_fault(
        self, replica: int, injector: ReplicaFaultInjector
    ) -> ReplicaFaultInjector:
        """Attach ``injector`` to one replica (chaos tests, CLI drills)."""
        if not 0 <= replica < len(self.replicas):
            raise ServingError(
                f"replica index {replica} out of range for {self.name!r}"
            )
        with self._lock:
            self._faults[replica] = injector
        return injector

    def fault_injector(self, replica: int) -> "ReplicaFaultInjector | None":
        with self._lock:
            return self._faults.get(replica)

    def clear_faults(self) -> None:
        with self._lock:
            self._faults.clear()

    # ------------------------------------------------------------------ #
    # Dispatch, failover, hedging
    # ------------------------------------------------------------------ #

    @staticmethod
    def _synth_failed(method: str, args: tuple, reason: str):
        """A FAILED result shaped like ``method``'s return type."""
        if method == "query_batch_columns":
            return ColumnarBatchResult(
                status=STATUS_FAILED, n_rows=_n_rows(args[1]),
                tier_errors={"fault": reason},
            )

        def failed() -> QueryResult:
            return QueryResult(status=STATUS_FAILED, tier_errors={"fault": reason})

        return [failed() for _ in args[1]] if method == "query_batch" else failed()

    def _dispatch(self, idx: int, method: str, args: tuple):
        """One timed call to one replica, health-scored on the way out."""
        with self._lock:
            injector = self._faults.get(idx)
        started = time.monotonic()
        reason = injector.before_call() if injector is not None else None
        if reason is None:
            result = getattr(self.replicas[idx], method)(*args)
        else:
            with self._lock:
                self.n_faults_injected += 1
            if _OBS.enabled:
                _OBS.metrics.counter("fabric.faults.injected").inc()
            result = self._synth_failed(method, args, reason)
        elapsed = time.monotonic() - started
        self.health[idx].record(
            ok=not _group_failed(result),
            deadline_miss=_group_deadline_missed(result),
            latency_s=elapsed,
        )
        self.latency.update(elapsed)
        return result

    def hedge_delay(self) -> float:
        """Adaptive hedge trigger: multiplier × streaming p95, floored."""
        assert self.hedge is not None
        policy = self.hedge
        p95 = self.latency.value if self.latency.n >= policy.warmup else 0.0
        return max(policy.min_delay_s, p95 * policy.multiplier)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(2, 2 * len(self.replicas)),
                    thread_name_prefix=f"hedge-{self.name}",
                )
            return self._executor

    def _hedged(self, method: str, args: tuple, order: "list[int]"):
        """Primary + delayed backup, first response wins."""
        executor = self._ensure_executor()
        primary, backup = order[0], order[1]
        f_primary = executor.submit(self._dispatch, primary, method, args)
        try:
            return f_primary.result(timeout=self.hedge_delay()), {primary}
        except FutureTimeout:
            pass
        with self._lock:
            self.n_hedges_issued += 1
        if _OBS.enabled:
            _OBS.metrics.counter("fabric.hedge.issued").inc()
        f_backup = executor.submit(self._dispatch, backup, method, args)
        done, _ = futures_wait(
            {f_primary, f_backup}, return_when=FIRST_COMPLETED
        )
        backup_won = f_primary not in done
        result = (f_backup if backup_won else f_primary).result()
        if _group_failed(result):
            # The loser is already in flight; its answer is free — take
            # it if it is better than the winner's failure.
            other = (f_primary if backup_won else f_backup).result()
            if not _group_failed(other):
                result, backup_won = other, not backup_won
        with self._lock:
            if backup_won:
                self.n_hedges_won += 1
            else:
                self.n_hedges_wasted += 1
        if _OBS.enabled:
            _OBS.metrics.counter(
                "fabric.hedge.won" if backup_won else "fabric.hedge.wasted"
            ).inc()
        return result, {primary, backup}

    def _call(self, method: str, args: tuple):
        """Route one call: hedge (if enabled), then fail over in health
        order until a replica answers or every one has been tried."""
        order = self.order()
        if self.hedge is not None and len(order) > 1:
            result, tried = self._hedged(method, args, order)
        else:
            result = self._dispatch(order[0], method, args)
            tried = {order[0]}
        if _group_failed(result):
            for idx in order:
                if idx in tried:
                    continue
                with self._lock:
                    self.n_failovers += 1
                if _OBS.enabled:
                    _OBS.metrics.counter("fabric.failover.switches").inc()
                tried.add(idx)
                result = self._dispatch(idx, method, args)
                if not _group_failed(result):
                    break
            if _group_failed(result):
                with self._lock:
                    self.n_exhausted += 1
                if _OBS.enabled:
                    _OBS.metrics.counter("fabric.failover.exhausted").inc()
        return result

    # Query surface — same signatures as ModelServer. ------------------- #

    def query(self, variables, evidence=None, binned: bool = False):
        return self._call("query", (variables, evidence, binned))

    def query_batch(self, variables, rows, binned: bool = False):
        return self._call("query_batch", (variables, rows, binned))

    def query_batch_columns(self, variables, columns):
        return self._call("query_batch_columns", (variables, columns))

    # ------------------------------------------------------------------ #
    # Probe surface (driven by HealthProber)
    # ------------------------------------------------------------------ #

    def canary(self, idx: int):
        """One canary query against a specific replica (probe path)."""
        return self._dispatch(idx, "canary", ())

    def restore_replica(self, idx: int) -> None:
        """Post-readmission cleanup: the replica re-enters with closed
        breakers so stale trip state cannot immediately re-eject it."""
        for breaker in self.replicas[idx].breakers.values():
            breaker.reset()

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        with self._lock:
            faults = {
                str(i): inj.snapshot() for i, inj in sorted(self._faults.items())
            }
        return {
            "name": self.name,
            "n_replicas": len(self.replicas),
            "replicas": [h.snapshot() for h in self.health],
            "failover": {
                "switches": self.n_failovers,
                "exhausted": self.n_exhausted,
            },
            "hedge": {
                "issued": self.n_hedges_issued,
                "won": self.n_hedges_won,
                "wasted": self.n_hedges_wasted,
            },
            "faults_injected": self.n_faults_injected,
            "faults": faults,
        }

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)


class ShardRouter:
    """Multi-tenant front door over a fixed ring of model servers.

    Tenants are registered with :meth:`add_tenant` (or lazily on first
    use when ``auto_register`` is on) and every query flows through
    that tenant's budget *before* touching the shard:

    1. the per-tenant circuit breaker (trips on sustained failures /
       deadline overruns of this tenant's own traffic, so a tenant whose
       queries keep failing stops burning shard capacity);
    2. the per-tenant admission controller (seeded, deterministic
       shedding once the tenant's recent overload fraction crosses its
       threshold);
    3. the shard's own :class:`ModelServer` guards (its admission,
       per-tier breakers, fallback chain).

    Every outcome is tallied in the tenant's own :class:`ServerStats`
    rollup in addition to the shard server's stats.
    """

    def __init__(
        self,
        shards: "Sequence[ModelServer | ReplicaGroup]",
        *,
        auto_register: bool = True,
        tenant_budget: "Callable[[str], AdmissionController | None] | None" = None,
        breaker_threshold: int = 5,
        breaker_cooldown: int = 50,
        health_policy: "HealthPolicy | None" = None,
        hedge: "HedgePolicy | bool | None" = None,
    ):
        if not shards:
            raise ServingError("ShardRouter needs at least one shard")
        # Bare ModelServers become single-replica groups so the whole
        # routing/failover/probe surface is uniform.
        self.shards: tuple[ReplicaGroup, ...] = tuple(
            shard
            if isinstance(shard, ReplicaGroup)
            else ReplicaGroup(
                [shard],
                name=f"shard{i}",
                health_policy=health_policy,
                hedge=hedge,
            )
            for i, shard in enumerate(shards)
        )
        self.auto_register = bool(auto_register)
        self._tenant_budget = tenant_budget
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown = int(breaker_cooldown)
        self._tenants: dict[str, TenantState] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Tenant lifecycle
    # ------------------------------------------------------------------ #

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def tenants(self) -> "list[str]":
        with self._lock:
            return sorted(self._tenants)

    def shard_of(self, tenant: str) -> int:
        return shard_index(tenant, len(self.shards))

    def server_for(self, tenant: str) -> ReplicaGroup:
        return self.shards[self.shard_of(tenant)]

    def add_tenant(
        self,
        name: str,
        *,
        admission: "AdmissionController | None" = None,
        breaker: "CircuitBreaker | None" = None,
    ) -> TenantState:
        """Register ``name`` with its budgets (idempotent per name)."""
        name = _validate_tenant(name)
        with self._lock:
            state = self._tenants.get(name)
            if state is not None:
                return state
            if admission is None and self._tenant_budget is not None:
                admission = self._tenant_budget(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    self._breaker_threshold,
                    self._breaker_cooldown,
                    name=f"tenant.{name}",
                )
            state = TenantState(
                name=name,
                shard=self.shard_of(name),
                admission=admission,
                breaker=breaker,
            )
            self._tenants[name] = state
            return state

    def tenant_state(self, tenant: str) -> TenantState:
        tenant = _validate_tenant(tenant)
        state = self._tenants.get(tenant)
        if state is None:
            if not self.auto_register:
                raise ServingError(f"unknown tenant {tenant!r}")
            state = self.add_tenant(tenant)
        return state

    # ------------------------------------------------------------------ #
    # Budget gate
    # ------------------------------------------------------------------ #

    def _gate(self, state: TenantState, n_rows: int) -> "str | None":
        """Apply the tenant's breaker + admission to one call of
        ``n_rows`` rows.  A returned reason means the call is shed; its
        rows are already counted in the tenant rollup."""
        if not state.breaker.allow():
            why, reason = "breaker", f"tenant {state.name!r} circuit open"
        elif state.admission is not None and not state.admission.admit():
            # The breaker probe above was spent on a call that never
            # ran; report it as a non-failure so a half-open tenant is
            # not re-tripped by its own admission shedding.
            state.breaker.record_success()
            why, reason = "admission", f"tenant {state.name!r} admission: over budget"
        else:
            return None
        state.stats._count(Tally(statuses={STATUS_SHED: n_rows}))
        if _OBS.enabled:
            m = _OBS.metrics
            m.counter("fabric.tenant_shed").inc()
            m.counter(f"fabric.tenant.{state.name}.shed_{why}").inc()
        return reason

    @staticmethod
    def _settle(state: TenantState, result):
        """Tenant-side accounting for one completed call of any entry
        point: one breaker and admission outcome (the call overloaded if
        any row overran its deadline or failed), every row counted."""
        tally = Tally.of(result)
        if tally.overloaded:
            state.breaker.record_failure()
        else:
            state.breaker.record_success()
        if state.admission is not None:
            state.admission.record(tally.overloaded)
        state.stats._count(tally)
        return result

    # ------------------------------------------------------------------ #
    # Query surface
    # ------------------------------------------------------------------ #

    def query(
        self,
        tenant: str,
        variables: Sequence[str],
        evidence: "Mapping | None" = None,
        binned: bool = False,
    ) -> QueryResult:
        """One guarded query under ``tenant``'s budget."""
        state = self.tenant_state(tenant)
        shed = self._gate(state, 1)
        if shed is not None:
            return QueryResult(status=STATUS_SHED, reasons=(shed,))
        return self._settle(
            state,
            self.shards[state.shard].query(variables, evidence, binned=binned),
        )

    def query_batch(
        self,
        tenant: str,
        variables: Sequence[str],
        rows: "Sequence[Mapping]",
        binned: bool = False,
    ) -> "list[QueryResult]":
        """Row-wise guarded batch under ``tenant``'s budget."""
        if not rows:
            return []
        state = self.tenant_state(tenant)
        shed = self._gate(state, len(rows))
        if shed is not None:
            return [QueryResult(status=STATUS_SHED, reasons=(shed,)) for _ in rows]
        return self._settle(
            state,
            self.shards[state.shard].query_batch(variables, rows, binned=binned),
        )

    def query_batch_columns(
        self,
        tenant: str,
        variables: Sequence[str],
        columns: "Mapping[str, Sequence[int]]",
    ) -> ColumnarBatchResult:
        """Columnar bulk lane under ``tenant``'s budget (binned states)."""
        state = self.tenant_state(tenant)
        n_rows = _n_rows(columns)
        shed = self._gate(state, n_rows)
        if shed is not None:
            return ColumnarBatchResult(
                status=STATUS_SHED, n_rows=n_rows, reasons=(shed,)
            )
        return self._settle(
            state,
            self.shards[state.shard].query_batch_columns(variables, columns),
        )

    # ------------------------------------------------------------------ #

    def refresh(self) -> "list[int | None]":
        """Follow each registry-backed shard's active version."""
        return [shard.refresh() for shard in self.shards]

    def stats(self) -> dict:
        """Rollup: per-shard server stats + per-tenant budget state."""
        with self._lock:
            tenants = dict(self._tenants)
        return {
            "n_shards": len(self.shards),
            "shards": [
                {
                    "stats": shard.stats_dict(),
                    "version": shard.version,
                    "breakers": {
                        tier: b.state for tier, b in shard.breakers.items()
                    },
                    "replicas": shard.snapshot(),
                }
                for shard in self.shards
            ],
            "tenants": {
                name: state.snapshot() for name, state in sorted(tenants.items())
            },
        }


# --------------------------------------------------------------------- #
# Dynamic batching
# --------------------------------------------------------------------- #


class PendingQuery:
    """A submitted single query awaiting its coalesced batch."""

    __slots__ = (
        "tenant",
        "evidence",
        "submitted_at",
        "default_timeout",
        "_event",
        "_result",
    )

    def __init__(
        self,
        tenant: str,
        evidence: dict,
        default_timeout: "float | None" = None,
    ):
        self.tenant = tenant
        self.evidence = evidence
        self.submitted_at = time.monotonic()
        #: Wait bound applied when ``result()`` is called without an
        #: explicit timeout — set by the batcher from its flush cadence
        #: so a dead flusher can never strand a waiter forever.
        self.default_timeout = default_timeout
        self._event = threading.Event()
        self._result: "QueryResult | None" = None

    def _resolve(self, result: QueryResult) -> None:
        self._result = result
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: "float | None" = None) -> QueryResult:
        """Block until the coalesced batch answers.

        Without an explicit ``timeout`` the batcher-assigned
        ``default_timeout`` applies (many flush intervals), so waiters
        always wake with a diagnosable error instead of blocking
        forever if the flusher thread died.
        """
        if timeout is None:
            timeout = self.default_timeout
        if not self._event.wait(timeout):
            raise ServingError(
                f"pending query for tenant {self.tenant!r} timed out "
                f"after {timeout}s — the batcher may be closed or its "
                f"flusher stalled"
            )
        assert self._result is not None
        return self._result


class _Bucket:
    """Pending queries sharing (shard, variables, signature, binned)."""

    __slots__ = ("key", "entries", "created_at")

    def __init__(self, key: tuple):
        self.key = key
        self.entries: "list[PendingQuery]" = []
        self.created_at = time.monotonic()


class DynamicBatcher:
    """Coalesce concurrent single queries into ``query_batch`` calls.

    Callers :meth:`submit` (non-blocking, returns a
    :class:`PendingQuery`) or :meth:`query` (submit + wait).  Requests
    are bucketed by ``(shard, variables, evidence signature, binned)``
    — the compiled batch signature — so one flush answers every waiter
    with a single vectorized kernel pass.  Buckets flush when

    - they reach ``max_batch`` rows (flushed inline on the submitting
      thread: the batch is full, waiting buys nothing), or
    - the background flusher finds them older than ``max_wait_us``
      (deadline-aware: the oldest waiter bounds the sweep).

    Tenant budgets are enforced at submit time (shed requests never
    enqueue) and tenant accounting at completion time, so coalescing
    *across* tenants on the same shard is safe: the rows share one
    kernel call while each tenant's rollup sees exactly its own rows.

    When the target shard's compiled batch tier is tripped, new
    requests **bypass the queue** and run as singles through the
    router — queueing behind a broken kernel would add wait latency to
    an already-degraded path (``fabric.batcher.bypass`` counts these).
    """

    def __init__(
        self,
        router: ShardRouter,
        *,
        max_batch: int = 64,
        max_wait_us: float = 2000.0,
        binned: bool = False,
    ):
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if max_wait_us <= 0:
            raise ServingError("max_wait_us must be > 0")
        self.router = router
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_us) / 1e6
        self.binned = bool(binned)
        self._lock = threading.Lock()
        self._buckets: "dict[tuple, _Bucket]" = {}
        self._depth = 0
        # Plain counters (readable without obs): flush accounting.
        self.n_submitted = 0
        self.n_flushes = 0
        self.n_coalesced_rows = 0
        self.n_bypass = 0
        #: Default bound for ``PendingQuery.result()`` waits: many
        #: flush intervals plus generous kernel headroom.
        self.default_result_timeout = max(1.0, 50.0 * self.max_wait_s)
        self._closed = False
        self._stop = threading.Event()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="fabric-batcher", daemon=True
        )
        self._flusher.start()

    # ------------------------------------------------------------------ #

    @property
    def coalesce_ratio(self) -> float:
        """Mean rows answered per kernel flush (>1 means coalescing)."""
        return self.n_coalesced_rows / self.n_flushes if self.n_flushes else 0.0

    @property
    def queue_depth(self) -> int:
        return self._depth

    def submit(
        self,
        tenant: str,
        variables: Sequence[str],
        evidence: "Mapping | None" = None,
        binned: "bool | None" = None,
    ) -> PendingQuery:
        """Enqueue one query; returns a handle to wait on.

        Budget-shed and bypassed requests come back already resolved.
        """
        if self._closed:
            raise ServingError("batcher is closed")
        binned = self.binned if binned is None else bool(binned)
        state = self.router.tenant_state(tenant)
        evidence = dict(evidence or {})
        pending = PendingQuery(
            str(tenant), evidence, default_timeout=self.default_result_timeout
        )
        shed = self.router._gate(state, 1)
        if shed is not None:
            pending._resolve(QueryResult(status=STATUS_SHED, reasons=(shed,)))
            return pending
        shard_server = self.router.shards[state.shard]
        if not shard_server.batch_ready:
            # Every routable replica's batch tier is tripped (or the
            # model is non-discrete): fall back to a single query now
            # instead of queueing behind a broken tier.
            self.n_bypass += 1
            if _OBS.enabled:
                _OBS.metrics.counter("fabric.batcher.bypass").inc()
            result = shard_server.query(variables, evidence, binned=binned)
            pending._resolve(self.router._settle(state, result))
            return pending
        key = (
            state.shard,
            tuple(map(str, variables)),
            tuple(sorted(map(str, evidence))),
            binned,
        )
        full: "_Bucket | None" = None
        with self._lock:
            # Re-check under the lock: a concurrent close() may have
            # flipped the flag after the fast check above, and a bucket
            # enqueued now would never be swept.
            if self._closed:
                raise ServingError("batcher is closed")
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket(key)
            bucket.entries.append(pending)
            self.n_submitted += 1
            self._depth += 1
            if len(bucket.entries) >= self.max_batch:
                full = self._buckets.pop(key)
        if _OBS.enabled:
            _OBS.metrics.gauge("fabric.batcher.queue_depth").set(self._depth)
        if full is not None:
            self._flush_bucket(full)
        return pending

    def query(
        self,
        tenant: str,
        variables: Sequence[str],
        evidence: "Mapping | None" = None,
        binned: "bool | None" = None,
        timeout: "float | None" = None,
    ) -> QueryResult:
        """Submit and wait: a drop-in, coalescing ``router.query``."""
        pending = self.submit(tenant, variables, evidence, binned=binned)
        # timeout=None falls through to the batcher-assigned default
        # bound (many flush intervals), never an unbounded wait.
        return pending.result(timeout)

    def flush(self) -> int:
        """Flush every pending bucket now; returns rows flushed."""
        with self._lock:
            buckets = list(self._buckets.values())
            self._buckets.clear()
        flushed = 0
        for bucket in buckets:
            flushed += len(bucket.entries)
            self._flush_bucket(bucket)
        return flushed

    def close(self) -> None:
        """Stop and join the flusher, then drain everything queued.

        Idempotent.  After close, :meth:`submit` raises
        :class:`ServingError` — a late request would enqueue into a
        bucket no flusher will ever sweep and its waiter would hang
        until its default timeout.  The final drain runs *after* the
        join so nothing the flusher was sweeping races the shutdown.
        """
        with self._lock:
            self._closed = True
        self._stop.set()
        if (
            self._flusher.is_alive()
            and threading.current_thread() is not self._flusher
        ):
            self._flusher.join(timeout=10.0)
        self.flush()

    def __enter__(self) -> "DynamicBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _flush_loop(self) -> None:
        interval = max(self.max_wait_s / 2.0, 1e-4)
        while not self._stop.wait(interval):
            now = time.monotonic()
            aged: "list[_Bucket]" = []
            with self._lock:
                for key in list(self._buckets):
                    bucket = self._buckets[key]
                    oldest = (
                        bucket.entries[0].submitted_at
                        if bucket.entries
                        else bucket.created_at
                    )
                    if now - oldest >= self.max_wait_s:
                        aged.append(self._buckets.pop(key))
            for bucket in aged:
                try:
                    self._flush_bucket(bucket)
                except Exception:  # pragma: no cover - defensive: resolve all
                    continue

    def _flush_bucket(self, bucket: _Bucket) -> None:
        entries = bucket.entries
        if not entries:
            return
        shard_idx, variables, _signature, binned = bucket.key
        shard_server = self.router.shards[shard_idx]
        with self._lock:
            self._depth -= len(entries)
            self.n_flushes += 1
            self.n_coalesced_rows += len(entries)
        if _OBS.enabled:
            m = _OBS.metrics
            m.counter("fabric.batcher.flushes").inc()
            m.counter("fabric.batcher.coalesced_rows").inc(len(entries))
            m.histogram(
                "fabric.batcher.occupancy",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
            ).observe(len(entries))
            m.gauge("fabric.batcher.queue_depth").set(self._depth)
        try:
            results = shard_server.query_batch(
                variables, [p.evidence for p in entries], binned=binned
            )
        except Exception as exc:  # defensive: waiters must always wake
            error = f"{type(exc).__name__}: {exc}"
            for pending in entries:
                state = self.router.tenant_state(pending.tenant)
                failed = QueryResult(
                    status=STATUS_FAILED, tier_errors={"batcher": error}
                )
                pending._resolve(self.router._settle(state, failed))
            return
        for pending, result in zip(entries, results):
            state = self.router.tenant_state(pending.tenant)
            pending._resolve(self.router._settle(state, result))


# --------------------------------------------------------------------- #
# Facade
# --------------------------------------------------------------------- #


class ServingFabric:
    """Router + batcher + health prober, bundled for the CLI and the
    load harness."""

    def __init__(
        self,
        shards: "Sequence[ModelServer | ReplicaGroup]",
        *,
        max_batch: int = 64,
        max_wait_us: float = 2000.0,
        binned: bool = False,
        auto_register: bool = True,
        tenant_budget: "Callable[[str], AdmissionController | None] | None" = None,
        breaker_threshold: int = 5,
        breaker_cooldown: int = 50,
        health_policy: "HealthPolicy | None" = None,
        hedge: "HedgePolicy | bool | None" = None,
        probe_interval_s: "float | None" = 0.25,
    ):
        self.router = ShardRouter(
            shards,
            auto_register=auto_register,
            tenant_budget=tenant_budget,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            health_policy=health_policy,
            hedge=hedge,
        )
        self.batcher = DynamicBatcher(
            self.router,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            binned=binned,
        )
        # The probe loop only matters when some slot can actually fail
        # over, but it is cheap (it sleeps unless a replica is ejected)
        # so it runs whenever an interval is configured.
        self.prober: "HealthProber | None" = None
        if probe_interval_s is not None:
            self.prober = HealthProber(
                self.router.shards, interval_s=probe_interval_s
            )
            self.prober.start()

    # Single queries coalesce through the batcher.
    def query(self, tenant, variables, evidence=None, binned=None, timeout=None):
        return self.batcher.query(
            tenant, variables, evidence, binned=binned, timeout=timeout
        )

    def submit(self, tenant, variables, evidence=None, binned=None):
        return self.batcher.submit(tenant, variables, evidence, binned=binned)

    # Bulk traffic goes straight through the router.
    def query_batch(self, tenant, variables, rows, binned=False):
        return self.router.query_batch(tenant, variables, rows, binned=binned)

    def query_batch_columns(self, tenant, variables, columns):
        return self.router.query_batch_columns(tenant, variables, columns)

    def add_tenant(self, name, **kwargs):
        return self.router.add_tenant(name, **kwargs)

    def stats(self) -> dict:
        out = self.router.stats()
        out["batcher"] = {
            "submitted": self.batcher.n_submitted,
            "flushes": self.batcher.n_flushes,
            "coalesced_rows": self.batcher.n_coalesced_rows,
            "coalesce_ratio": self.batcher.coalesce_ratio,
            "bypass": self.batcher.n_bypass,
            "queue_depth": self.batcher.queue_depth,
        }
        if self.prober is not None:
            out["prober"] = self.prober.snapshot()
        return out

    def close(self) -> None:
        if self.prober is not None:
            self.prober.stop()
        self.batcher.close()
        for group in self.router.shards:
            group.close()

    def __enter__(self) -> "ServingFabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_fabric(
    sources: Sequence, *, n_replicas: int = 1, **kwargs
) -> ServingFabric:
    """One ring slot per source (a model object or a ``ModelRegistry``),
    each hosting ``n_replicas`` independent :class:`ModelServer`\\ s.

    Registry-backed replicas each load their own copy of the active
    bundle (independent engines — one replica's poisoned plan cache or
    tripped tier cannot take down its siblings); bare-model replicas
    wrap the same model object behind separate guard stacks.
    """
    if n_replicas < 1:
        raise ServingError("n_replicas must be >= 1")
    server_kwargs = {
        k: kwargs.pop(k)
        for k in ("deadline_seconds", "n_fallback_samples", "rng")
        if k in kwargs
    }
    health_policy = kwargs.get("health_policy")
    hedge = kwargs.get("hedge")
    shards = [
        ReplicaGroup(
            [ModelServer(source, **server_kwargs) for _ in range(n_replicas)],
            name=f"shard{i}",
            health_policy=health_policy,
            hedge=hedge,
        )
        for i, source in enumerate(sources)
    ]
    return ServingFabric(shards, **kwargs)
