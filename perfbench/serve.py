"""The query-path workload, ``serve_open``.

It drives the eDiaMoND discrete KERT-BN published to four
registry-backed shards behind one :class:`ServingFabric` (12 tenants),
and touches the program only through ``ServingFabric.submit``,
``query_batch_columns`` and ``query_batch``: open-loop single queries
at two rates, then a closed-loop bulk segment.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import Counter

import numpy as np
from common import Gate, balanced, percentile, settle_heap

from repro.bn.inference.engine import CompiledDiscreteModel
from repro.core.kertbn import build_discrete_kertbn
from repro.exceptions import ServingError
from repro.serving.fabric import ServingFabric
from repro.serving.registry import ModelRegistry
from repro.serving.server import ModelServer
from repro.simulator.scenarios.ediamond import ediamond_scenario

N_SHARDS = 4
TENANTS = tuple(f"tenant-{i:02d}" for i in range(12))
MAX_BATCH = 64
MAX_WAIT_US = 2000.0

#: Open-loop phases.  Trickle queries draw from a wide set of evidence
#: signatures (42 per shard) so buckets almost never share a flush;
#: peak traffic shares three signatures so flushes coalesce.
TRICKLE_RATE = 300.0
PEAK_RATE = 2000.0
#: Latency limit of ``peak_good_frac`` and of a phase's validity.
LIMIT_S = 0.010
#: Each open-loop run alternates trickle and peak this many times.
BLOCKS = 3
RESULT_TIMEOUT_S = 2.0
#: Share of requests (or bulk rows) compared against the reference engine.
CHECK_SHARE = 0.02

#: Bulk traffic: columnar chunks of 512–4096 rows alternate with
#: 500-row row-dict batches.
CHUNK_ROWS = (512, 4096)
ROWDICT_ROWS = 500
BULK_POOL = 48

OK, FAILED, SHED, TIMED_OUT = 0, 1, 2, 3
_OUTCOMES = ("ok", "failed", "shed", "timed_out")


def _signatures(nodes):
    """(target, evidence vars) pairs: every target with every other
    node as single-variable evidence."""
    return [(t, (v,)) for t in nodes for v in nodes if v != t]


PEAK_SIGNATURES = (
    ("X3", ("X1", "X2", "D")),
    ("X6", ("X4", "X5", "D")),
    ("D", ("X1", "X3", "X6")),
)


def ediamond_discrete_model(seed: int):
    """The served model: eDiaMoND discrete KERT-BN (``n_bins=5``) learned
    from a seeded 1000-row monitoring draw."""
    env = ediamond_scenario()
    train = env.simulate(1000, rng=seed)
    return build_discrete_kertbn(env.workflow, train, n_bins=5)


class ServeRig:
    """Model + registries + shard servers + fabric, as deployed."""

    def __init__(self, seed: int, scratch, recorder=None):
        self.model = ediamond_discrete_model(seed)
        self.nodes = tuple(map(str, self.model.network.nodes))
        self.registries = []
        for i in range(N_SHARDS):
            registry = ModelRegistry(str(scratch / f"shard-{i}"))
            registry.publish(self.model)
            self.registries.append(registry)
        self.servers = [ModelServer(reg) for reg in self.registries]
        if recorder is not None:
            for server in self.servers:
                recorder.wrap(
                    server, "query_batch", "server.query_batch",
                    extra=lambda a, k: [id(row) for row in a[1]],
                )
                recorder.wrap(
                    server, "query_batch_columns", "server.query_batch_columns"
                )
                recorder.wrap(
                    server.chain.engine, "query_batch", "engine.query_batch"
                )
        self.fabric = ServingFabric(
            self.servers, max_batch=MAX_BATCH, max_wait_us=MAX_WAIT_US,
            binned=True,
        )
        for tenant in TENANTS:
            self.fabric.add_tenant(tenant)
        self.reference = CompiledDiscreteModel(self.model.network)
        #: Rows sent per tenant, warm-up included: the tenant rollups
        #: must account for exactly these.
        self.sent: Counter = Counter()

    def evidence_rows(self, n: int, rng):
        """``n`` joint states drawn from the model itself, so every
        evidence combination has positive probability."""
        data = self.model.network.sample(n, rng)
        return {v: np.asarray(data[v], dtype=np.intp) for v in self.nodes}

    def plan_stats(self) -> dict:
        hits = compiles = 0
        for server in self.servers:
            stats = server.chain.engine.cache_stats()
            hits += stats["hits"]
            compiles += stats["compiles"]
        return {"hits": hits, "compiles": compiles}

    def check_rollups(self, gate: Gate) -> None:
        """Every sent row lands in exactly one tenant rollup."""
        for tenant in TENANTS:
            stats = self.fabric.router.tenant_state(tenant).stats.as_dict()
            gate.expect(
                stats["n_queries"] == self.sent[tenant],
                f"tenant {tenant}: rollup counts {stats['n_queries']} rows, "
                f"{self.sent[tenant]} were sent",
            )
        extra = set(self.fabric.router.tenants()) - set(TENANTS)
        gate.expect(not extra, f"rows landed in unknown tenants {sorted(extra)}")

    def tenant_totals(self) -> dict:
        total = Counter()
        for tenant in TENANTS:
            stats = self.fabric.router.tenant_state(tenant).stats.as_dict()
            for key in ("n_queries", "n_ok", "n_shed", "n_failed", "n_rejected"):
                total[key] += stats[key]
        return dict(total)

    def close(self) -> None:
        self.fabric.close()


# --------------------------------------------------------------------- #
# Open-loop phases: Poisson arrivals through the batcher
# --------------------------------------------------------------------- #


class OpenPhase:
    """One fixed-rate open-loop phase: its schedule, then its outcomes."""

    def __init__(self, rig: ServeRig, label: str, rate: float, seconds: float,
                 signatures, rng):
        self.label = label
        self.rate = rate
        self.seconds = seconds
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.3) + 64)
        due = np.cumsum(gaps)
        self.due = due[due < seconds]
        n = self.due.size
        states = rig.evidence_rows(max(n, 1), rng)
        kinds = rng.integers(0, len(signatures), size=n)
        tenants = rng.integers(0, len(TENANTS), size=n)
        self.items = []
        for i in range(n):
            target, ev_vars = signatures[kinds[i]]
            evidence = {v: int(states[v][i]) for v in ev_vars}
            self.items.append((TENANTS[tenants[i]], (target,), evidence))
        self.check = rng.random(n) < CHECK_SHARE
        self.sent_at = np.full(n, np.nan)
        self.done_at = np.full(n, np.nan)
        self.outcome = np.full(n, -1, dtype=np.int8)
        self.answers: dict = {}
        self.pending: "list | None" = None
        self.t0 = 0.0

    # -- run ------------------------------------------------------------ #

    def run(self, rig: ServeRig, keep_pending: bool = False) -> None:
        n = len(self.items)
        if keep_pending:
            self.pending = [None] * n
        handoff: queue.SimpleQueue = queue.SimpleQueue()
        collector = threading.Thread(
            target=self._collect, args=(handoff,), name="bench-collector",
            daemon=True,
        )
        settle_heap()
        collector.start()
        self.t0 = time.perf_counter() + 0.002
        try:
            self._generate(rig, handoff)
        finally:
            handoff.put(None)
            collector.join(timeout=RESULT_TIMEOUT_S * 4 + 30.0)
        if collector.is_alive():
            raise RuntimeError(f"{self.label}: collector did not finish")
        for tenant, _, _ in self.items:
            rig.sent[tenant] += 1

    def _generate(self, rig: ServeRig, handoff) -> None:
        submit = rig.fabric.submit
        clock = time.perf_counter
        items, due, sent_at, t0 = self.items, self.due, self.sent_at, self.t0
        n = len(items)
        i = 0
        while i < n:
            now = clock()
            wait = t0 + due[i] - now
            if wait > 0:
                time.sleep(wait)
                continue
            # Send everything already due, then sleep to the next one.
            while i < n and t0 + due[i] <= now:
                tenant, variables, evidence = items[i]
                try:
                    handle = submit(tenant, variables, evidence, binned=True)
                except ServingError as exc:
                    handle = exc
                sent_at[i] = clock()
                handoff.put((i, handle))
                i += 1

    def _collect(self, handoff) -> None:
        clock = time.perf_counter
        while True:
            item = handoff.get()
            if item is None:
                return
            i, handle = item
            if isinstance(handle, Exception):
                self.done_at[i] = clock()
                self.outcome[i] = FAILED
                continue
            try:
                result = handle.result(RESULT_TIMEOUT_S)
            except ServingError:
                self.done_at[i] = clock()
                self.outcome[i] = TIMED_OUT
                continue
            # Completions are observed in send order, as a client reading
            # its replies in order would see them.
            self.done_at[i] = clock()
            if result.ok:
                self.outcome[i] = OK
            elif result.status == "shed":
                self.outcome[i] = SHED
            else:
                self.outcome[i] = FAILED
            if self.check[i]:
                self.answers[i] = result.value
            if self.pending is not None:
                self.pending[i] = handle

    # -- outcomes ------------------------------------------------------- #

    @property
    def latency_s(self) -> np.ndarray:
        return self.done_at - (self.t0 + self.due)

    def verify(self, rig: ServeRig, gate: Gate) -> None:
        for i, value in self.answers.items():
            if self.outcome[i] != OK:
                continue
            _, variables, evidence = self.items[i]
            reference = rig.reference.query(variables, evidence).values
            gate.posterior(value, reference, f"{self.label} request {i}")

    def accounting(self) -> dict:
        counts = {
            name: int(np.count_nonzero(self.outcome == code))
            for code, name in enumerate(_OUTCOMES)
        }
        counts["sent"] = int(np.count_nonzero(np.isfinite(self.sent_at)))
        late = self.sent_at - (self.t0 + self.due)
        end = self.t0 + self.seconds
        behind = (self.t0 + self.due <= end) & (self.sent_at > end)
        counts["gen_late_ms_p99"] = percentile(late * 1e3, 99)
        counts["gen_backlog_end"] = int(np.count_nonzero(behind))
        # A generator that cannot keep up falls further behind as the
        # phase goes on: its lateness over the last tenth shows it.
        tail = late[int(late.size * 0.9):]
        counts["gen_backlog_grew"] = bool(percentile(tail, 50) > LIMIT_S)
        # Judged on p90: the host's own scheduling stalls (a few ms, a few
        # times a minute, even for a bare sleep loop) reach the p99.
        counts["valid"] = bool(
            percentile(late, 90) <= LIMIT_S and not counts["gen_backlog_grew"]
        )
        return counts


def setup_open(rig: ServeRig, rng) -> None:
    """Warm-up: compile every signature's plan on every shard, then run a
    short burst of each phase, the open-loop ones last as in the run."""
    states = rig.evidence_rows(8, rng)
    for shard in range(N_SHARDS):
        tenant = next(t for t in TENANTS if rig.fabric.router.shard_of(t) == shard)
        for target, ev_vars in _signatures(rig.nodes):
            rows = [{v: int(states[v][j]) for v in ev_vars} for j in range(8)]
            rig.fabric.query_batch(tenant, [target], rows, binned=True)
            rig.sent[tenant] += len(rows)
    rig.bulk_pool = _bulk_pool(rig, rng)
    _bulk_loop(rig, 0.4, rng, Gate())
    for label, rate, sigs in (
        ("warm-trickle", TRICKLE_RATE, _signatures(rig.nodes)),
        ("warm-peak", PEAK_RATE, PEAK_SIGNATURES),
    ):
        OpenPhase(rig, label, rate, 0.4, sigs, rng).run(rig)


def run_serve_open(rig: ServeRig, seconds: float, rng, recorder=None) -> dict:
    gate = Gate()
    # Two thirds of the run alternate the open-loop phases; the bulk
    # segment runs last, so its allocation churn cannot leak into them.
    phase_s = seconds / (3 * BLOCKS)
    trickle, peak = [], []
    batcher = rig.fabric.batcher
    plan0 = rig.plan_stats()
    peak_flushes = peak_rows = 0
    for block in range(BLOCKS):
        phase = OpenPhase(rig, f"trickle[{block}]", TRICKLE_RATE, phase_s,
                          _signatures(rig.nodes), rng)
        phase.run(rig, keep_pending=recorder is not None)
        trickle.append(phase)
        phase = OpenPhase(rig, f"peak[{block}]", PEAK_RATE, phase_s,
                          PEAK_SIGNATURES, rng)
        flushes0, rows0 = batcher.n_flushes, batcher.n_coalesced_rows
        phase.run(rig, keep_pending=recorder is not None)
        peak_flushes += batcher.n_flushes - flushes0
        peak_rows += batcher.n_coalesced_rows - rows0
        peak.append(phase)
    bulk = [
        _bulk_loop(rig, phase_s, rng, gate, recorder, f"bulk[{block}]")
        for block in range(BLOCKS)
    ]
    plan1 = rig.plan_stats()
    for phase in trickle + peak:
        phase.verify(rig, gate)
    rig.check_rollups(gate)

    def lat_ms(phases):
        return np.concatenate([p.latency_s for p in phases]) * 1e3

    def good(phase):
        ok = (phase.outcome == OK) & (phase.latency_s <= LIMIT_S)
        return np.count_nonzero(ok) / max(1, len(phase.items))

    def rows_per_s(lane):
        """Rows answered per second of calls on one bulk lane."""
        ms = np.concatenate([b[lane] for b in bulk])
        rows = np.concatenate([b[lane + 1] for b in bulk])
        return (float(rows.sum() / ms.sum() * 1e3), "rows/s",
                [float(b[lane + 1].sum() / b[lane].sum() * 1e3) for b in bulk])

    t_lat, p_lat = lat_ms(trickle), lat_ms(peak)
    named = {
        "trickle_p50_ms": (percentile(t_lat, 50), "ms",
                           [percentile(p.latency_s * 1e3, 50) for p in trickle]),
        "trickle_p90_ms": (percentile(t_lat, 90), "ms",
                           [percentile(p.latency_s * 1e3, 90) for p in trickle]),
        "trickle_p99_ms": (percentile(t_lat, 99), "ms",
                           [percentile(p.latency_s * 1e3, 99) for p in trickle]),
        "peak_p50_ms": (percentile(p_lat, 50), "ms",
                        [percentile(p.latency_s * 1e3, 50) for p in peak]),
        "peak_p90_ms": (percentile(p_lat, 90), "ms",
                        [percentile(p.latency_s * 1e3, 90) for p in peak]),
        "peak_good_frac": (
            float(np.sum([good(p) * len(p.items) for p in peak])
                  / max(1, sum(len(p.items) for p in peak))),
            "ratio", [good(p) for p in peak],
        ),
        "columnar_rows_per_s": rows_per_s(0),
        "rowdict_rows_per_s": rows_per_s(2),
    }
    accounting = {p.label: p.accounting() for pair in zip(trickle, peak)
                  for p in pair}
    for block, (col_ms, col_rows, row_ms, row_rows, failed_rows) in enumerate(bulk):
        accounting[f"bulk[{block}]"] = {
            "columnar_calls": int(col_ms.size), "columnar_rows": int(col_rows.sum()),
            "rowdict_calls": int(row_ms.size), "rowdict_rows": int(row_rows.sum()),
            "failed_rows": failed_rows,
        }
    phases = trickle + peak
    failed = sum(int(np.count_nonzero(p.outcome != OK)) for p in phases)
    failed += sum(b[4] for b in bulk)
    attempted = sum(len(p.items) for p in phases)
    attempted += sum(int(b[1].sum() + b[3].sum()) for b in bulk)
    out = {
        "gate": gate,
        "attempted": attempted,
        "failed": failed,
        "valid": all(accounting[p.label]["valid"] for p in phases),
        "accounting": accounting,
        "named": named,
        "slots": {
            "phase1_p50_ms": named["trickle_p50_ms"][0],
            "phase2_p50_ms": named["peak_p50_ms"][0],
            "good_frac": named["peak_good_frac"][0],
        },
        "tenants": rig.tenant_totals(),
    }
    if recorder is not None:
        out["layers"], out["ledger"] = _open_layers(
            rig, recorder, trickle, peak, peak_flushes, peak_rows, plan0, plan1
        )
        bulk_layers, out["ledger"]["bulk"] = _bulk_layers(recorder)
        out["layers"].update(bulk_layers)
    return out


def _open_layers(rig, recorder, trickle, peak, peak_flushes, peak_rows,
                 plan0, plan1):
    """Per-request decomposition: batcher wait, server, engine."""
    spans = recorder.spans
    engine_in = {}
    for s in spans:
        if s[1] == "engine.query_batch" and s[4] is not None:
            engine_in[s[4]] = engine_in.get(s[4], 0.0) + (s[3] - s[2])
    flush_of_row = {}
    for s in spans:
        if s[1] == "server.query_batch":
            for row_id in s[6]:
                flush_of_row[row_id] = s

    def decompose(phases):
        lat, server, engine = [], [], []
        for phase in phases:
            for i, handle in enumerate(phase.pending):
                if handle is None or phase.outcome[i] != OK:
                    continue
                flush = flush_of_row.get(id(handle.evidence))
                if flush is None:
                    continue
                lat.append(phase.latency_s[i])
                server.append(flush[3] - flush[2])
                engine.append(engine_in.get(flush[0], 0.0))
            # Replace row identities by request indices for the span log.
            index_of = {
                id(h.evidence): i for i, h in enumerate(phase.pending) if h
            }
            for s in spans:
                if s[1] == "server.query_batch" and isinstance(s[6], list):
                    mapped = [index_of[r] for r in s[6] if r in index_of]
                    if mapped:
                        s[6] = {"phase": phase.label, "requests": mapped,
                                "rows": len(s[6])}
            phase.pending = None
        lat, server, engine = map(np.asarray, (lat, server, engine))
        return lat, server, engine

    t_lat, t_srv, t_eng = decompose(trickle)
    p_lat, p_srv, p_eng = decompose(peak)
    peak_flush = [
        s for s in spans
        if s[1] == "server.query_batch"
        and isinstance(s[6], dict) and s[6]["phase"].startswith("peak")
    ]
    flush_ms = [(s[3] - s[2]) * 1e3 for s in peak_flush]
    flush_time = sum(s[3] - s[2] for s in peak_flush)
    flush_row_total = sum(s[6]["rows"] for s in peak_flush)
    hits = plan1["hits"] - plan0["hits"]
    compiles = plan1["compiles"] - plan0["compiles"]
    totals = rig.tenant_totals()
    late = [p.accounting() for p in peak]
    layers = {
        "fabric.batcher.wait_ms_p50": percentile((t_lat - t_srv) * 1e3, 50),
        "fabric.batcher.coalesce_ratio": peak_rows / max(1, peak_flushes),
        "fabric.batcher.flushes": float(peak_flushes),
        "fabric.batcher.bypass": float(rig.fabric.batcher.n_bypass),
        "fabric.shed": float(totals.get("n_shed", 0)),
        "fabric.failed": float(totals.get("n_failed", 0)),
        "server.flush_ms_p50": percentile(flush_ms, 50),
        "engine.plan_hit_frac": hits / max(1, hits + compiles),
        "gen.late_ms_p99": max(a["gen_late_ms_p99"] for a in late),
        "gen.backlog_end": float(max(a["gen_backlog_end"] for a in late)),
    }

    def table(lat, srv, eng):
        return {
            "requests": int(lat.size),
            "latency_ms_p50": percentile(lat * 1e3, 50),
            "latency_ms_mean": float(np.mean(lat) * 1e3) if lat.size else 0.0,
            "batcher_wait_ms_mean": float(np.mean(lat - srv) * 1e3) if lat.size else 0.0,
            "server_self_ms_mean": float(np.mean(srv - eng) * 1e3) if lat.size else 0.0,
            "engine_ms_mean": float(np.mean(eng) * 1e3) if lat.size else 0.0,
            "batcher_wait_ms_p50": percentile((lat - srv) * 1e3, 50),
            "server_self_ms_p50": percentile((srv - eng) * 1e3, 50),
            "engine_ms_p50": percentile(eng * 1e3, 50),
        }

    ledger = {
        "trickle": table(t_lat, t_srv, t_eng),
        "peak": table(p_lat, p_srv, p_eng),
        "peak_flush_us_per_row": flush_time / max(1, flush_row_total) * 1e6,
    }
    return layers, ledger


# --------------------------------------------------------------------- #
# Bulk segment: one closed-loop client, columnar chunks and row-dict batches
# --------------------------------------------------------------------- #


def _bulk_pool(rig: ServeRig, rng):
    sizes = balanced(
        rng, np.linspace(*CHUNK_ROWS, BULK_POOL).astype(int).tolist(), BULK_POOL
    )
    col_sigs = balanced(rng, PEAK_SIGNATURES, BULK_POOL)
    row_sigs = balanced(rng, PEAK_SIGNATURES, BULK_POOL)
    col_tenants = balanced(rng, TENANTS, BULK_POOL)
    row_tenants = balanced(rng, TENANTS, BULK_POOL)
    columnar, rowdict = [], []
    for k in range(BULK_POOL):
        target, ev_vars = col_sigs[k]
        states = rig.evidence_rows(sizes[k], rng)
        cols = {v: states[v] for v in ev_vars}
        columnar.append((col_tenants[k], (target,), cols))
        target, ev_vars = row_sigs[k]
        states = rig.evidence_rows(ROWDICT_ROWS, rng)
        rows = [
            {v: int(states[v][j]) for v in ev_vars} for j in range(ROWDICT_ROWS)
        ]
        rowdict.append((row_tenants[k], (target,), rows))
    return columnar, rowdict


def _bulk_loop(rig: ServeRig, seconds: float, rng, gate: Gate,
               recorder=None, label: str = "bulk"):
    columnar, rowdict = rig.bulk_pool
    fabric = rig.fabric
    clock = time.perf_counter
    settle_heap()
    col_ms, col_rows, row_ms, row_rows = [], [], [], []
    failed = 0
    deadline = clock() + seconds
    call = 0
    while clock() < deadline:
        tenant, variables, cols = columnar[call % len(columnar)]
        trace = f"{label}:{call}"
        if recorder is not None:
            recorder.trace_id = trace
        start = clock()
        result = fabric.query_batch_columns(tenant, variables, cols)
        end = clock()
        n = len(next(iter(cols.values())))
        rig.sent[tenant] += n
        if recorder is not None:
            recorder.record("fabric.query_batch_columns", start, end,
                            trace=trace, extra={"rows": n})
        col_ms.append((end - start) * 1e3)
        col_rows.append(n)
        if result.ok and result.n_valid == n:
            if rng.random() < CHECK_SHARE * 10:
                j = int(rng.integers(n))
                evidence = {v: int(c[j]) for v, c in cols.items()}
                gate.posterior(
                    result.pmfs[j],
                    rig.reference.query(variables, evidence).values,
                    f"columnar call {call} row {j}",
                )
        else:
            failed += n
        call += 1

        tenant, variables, rows = rowdict[call % len(rowdict)]
        trace = f"{label}:{call}"
        if recorder is not None:
            recorder.trace_id = trace
        start = clock()
        results = fabric.query_batch(tenant, variables, rows, binned=True)
        end = clock()
        rig.sent[tenant] += len(rows)
        if recorder is not None:
            recorder.record("fabric.query_batch", start, end, trace=trace,
                            extra={"rows": len(rows)})
        row_ms.append((end - start) * 1e3)
        row_rows.append(len(rows))
        failed += sum(1 for r in results if not r.ok)
        if rng.random() < CHECK_SHARE * 10:
            j = int(rng.integers(len(rows)))
            if results[j].ok:
                gate.posterior(
                    results[j].value,
                    rig.reference.query(variables, rows[j]).values,
                    f"row-dict call {call} row {j}",
                )
        call += 1
    if recorder is not None:
        recorder.trace_id = None
    return (np.asarray(col_ms), np.asarray(col_rows),
            np.asarray(row_ms), np.asarray(row_rows), failed)


def _bulk_layers(recorder):
    """Fabric, server and engine time per row in the bulk segment."""
    spans = recorder.spans
    by_id = {s[0]: s for s in spans}
    server_in: dict = {}
    engine_in: dict = {}
    for s in spans:
        dur = s[3] - s[2]
        parent = by_id.get(s[4])
        if s[1].startswith("server.") and s[5] is not None:
            server_in[(s[5], s[1])] = server_in.get((s[5], s[1]), 0.0) + dur
        if s[1] == "engine.query_batch" and parent is not None:
            key = (parent[5], parent[1])
            engine_in[key] = engine_in.get(key, 0.0) + dur

    def lane(fabric_name, server_name):
        calls = [s for s in spans if s[1] == fabric_name]
        fab = sum(s[3] - s[2] for s in calls)
        srv = sum(server_in.get((s[5], server_name), 0.0) for s in calls)
        eng = sum(engine_in.get((s[5], server_name), 0.0) for s in calls)
        rows = sum(s[6]["rows"] for s in calls)
        return {"calls": len(calls), "rows": rows, "fabric_s": fab,
                "server_s": srv, "engine_s": eng}

    col = lane("fabric.query_batch_columns", "server.query_batch_columns")
    row = lane("fabric.query_batch", "server.query_batch")
    layers = {
        "fabric.router.us_per_call": (col["fabric_s"] - col["server_s"])
        / max(1, col["calls"]) * 1e6,
        "server.rowdict_us_per_row": row["server_s"] / max(1, row["rows"]) * 1e6,
        "server.columnar_over_engine": col["server_s"] / col["engine_s"]
        if col["engine_s"] else 0.0,
        "engine.us_per_row": col["engine_s"] / max(1, col["rows"]) * 1e6,
    }
    ledger = {}
    for name, d in (("columnar", col), ("rowdict", row)):
        per = 1e6 / max(1, d["rows"])
        ledger[name] = {
            "calls": d["calls"],
            "rows": d["rows"],
            "fabric_self_us_per_row": (d["fabric_s"] - d["server_s"]) * per,
            "server_self_us_per_row": (d["server_s"] - d["engine_s"]) * per,
            "engine_us_per_row": d["engine_s"] * per,
            "total_us_per_row": d["fabric_s"] * per,
        }
    return layers, ledger
