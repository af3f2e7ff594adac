"""MAPE-loop workloads: ``mape_ediamond`` and ``mape_corpus``.

One long-lived :class:`AutonomicManager` per run, wired as deployed: a
registry in the run's scratch directory, a :class:`DataQualityGate`,
and an :class:`SLOMonitor` carrying a :class:`BudgetTracker`.  A seeded
schedule degrades one service every few cycles; the benchmark touches
the program only through ``AutonomicManager.run_cycle`` (and
``inject_degradation`` for the faults).  Executed actions accumulate in
the environment, as they do in deployment.
"""

from __future__ import annotations

import time

import numpy as np
from common import Gate, balanced, percentile, settle_heap

from spans import nest_by_time, self_times

from repro.core.manager import (
    AutonomicManager,
    CycleReport,
    SLAPolicy,
    inject_degradation,
)
from repro.obs import runtime
from repro.obs.attribution import BudgetTracker
from repro.obs.slo import SLOMonitor, manager_objectives
from repro.serving.quality import DataQualityGate
from repro.serving.registry import ModelRegistry

WINDOW_POINTS = 250
MAX_VIOLATION = 0.1
SLO_WINDOW = 3
WARM_CYCLES = 10
#: Faults: one service degraded by a factor in FAULT_FACTOR every
#: FAULT_GAP cycles (both ends inclusive).  Steps of about 2.5x and more
#: on a large service trip the quality gate's drift check, after which
#: every later window is quarantined and the manager never acts again;
#: the range stays below that so the loop keeps cycling (see README.md).
FAULT_GAP = (6, 9)
FAULT_FACTOR = (1.6, 2.2)
#: A run is a fixed number of cycles, ``--seconds`` times this (about
#: the reference machine's rate), not "as many as fit": executed actions
#: accumulate in the environment and make later cycles dearer, so a
#: faster program must not be charged for running further.
CYCLES_PER_SECOND = 20
#: Rows in each held-out draw scored by ``model_ll_per_row``.
HELDOUT_ROWS = 50
#: The corpus composition is fixed so that every seed runs the same
#: 40-service workflow (8 Choice and 13 Loop nodes).
CORPUS_CELL = "mixed_n40_lognormal"
CORPUS_SCENARIO_SEED = 3
EDIAMOND_SLA_S = 3.5
CORPUS_SLA_S = 7.0
#: Fault targets: the services with the largest mean measured time in a
#: healthy draw — the ones whose degradation can breach the SLA.
FAULT_CANDIDATES = 6

PHASES = (
    "manager.monitor",
    "manager.slo",
    "manager.quality_gate",
    "manager.analyze",
    "manager.publish",
    "manager.budgets",
    "manager.plan",
    "manager.execute",
)


def _scenario(workload: str):
    """(environment, SLA threshold in seconds)."""
    if workload == "mape_ediamond":
        from repro.simulator.scenarios.ediamond import ediamond_scenario

        return ediamond_scenario(), EDIAMOND_SLA_S
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import spec_by_name

    scenario = build_scenario(spec_by_name(CORPUS_CELL), seed=CORPUS_SCENARIO_SEED)
    return scenario.env, CORPUS_SLA_S


class MapeRig:
    """Environment + manager as deployed, after ``WARM_CYCLES`` healthy
    cycles (reference model, budgets and gate reference in place)."""

    def __init__(self, workload: str, seed: int, scratch, recorder=None):
        # Each rig starts from zeroed metrics: the SLO monitor reads the
        # process-global registry the manager feeds.
        runtime.reset()
        self.env, sla = _scenario(workload)
        self.policy = SLAPolicy(threshold=sla, max_violation_prob=MAX_VIOLATION)
        self.registry = ModelRegistry(str(scratch / "registry"))
        self.quality_gate = DataQualityGate(
            (*self.env.service_names, self.env.response)
        )
        self.tracker = BudgetTracker(window=SLO_WINDOW)
        self.slo = SLOMonitor(
            manager_objectives(self.policy),
            registry=runtime.OBS.metrics,
            window=SLO_WINDOW,
            budget_tracker=self.tracker,
        )
        if recorder is not None:
            recorder.wrap(self.env, "simulate", "env.simulate")
            recorder.wrap(self.quality_gate, "inspect", "gate.inspect")
            recorder.wrap(self.slo, "evaluate", "slo.evaluate")
        self.manager = AutonomicManager(
            self.env,
            self.policy,
            window_points=WINDOW_POINTS,
            rng=seed,
            registry=self.registry,
            quality_gate=self.quality_gate,
            slo_monitor=self.slo,
        )
        healthy = type(self.env).simulate(self.env, 500, rng=seed + 1)
        means = {s: float(np.nanmean(healthy[s])) for s in self.env.service_names}
        self.fault_targets = sorted(means, key=means.get, reverse=True)[
            :FAULT_CANDIDATES
        ]
        for _ in range(WARM_CYCLES):
            self.manager.run_cycle()

    def close(self) -> None:
        pass


def run_mape(rig: MapeRig, seconds: float, rng, recorder=None,
             interludes=(0, None)) -> dict:
    """Run the fixed number of cycles; ``interludes`` is ``(k, call)``:
    ``call()`` runs at ``k`` evenly spaced points of the run, between
    cycles and outside every timed region."""
    gate = Gate()
    manager, env = rig.manager, rig.env
    heldout_rng = np.random.default_rng(rng.integers(2**63))
    clock = time.perf_counter
    cycle_ms, acted, faults, ll = [], [], [], []
    reports = []
    n_cycles = max(1, round(seconds * CYCLES_PER_SECOND))
    # Every seed degrades the same services by the same factors at the
    # same gaps, in its own order.
    n_faults = n_cycles // FAULT_GAP[0] + 2
    gaps = iter(
        balanced(rng, list(range(FAULT_GAP[0], FAULT_GAP[1] + 1)), n_faults)
    )
    targets = iter(balanced(rng, rig.fault_targets, n_faults))
    factors = iter(balanced(
        rng, np.linspace(*FAULT_FACTOR, len(rig.fault_targets)).tolist(), n_faults
    ))
    next_fault = next(gaps)
    n_pauses, pause = interludes
    pauses = {n_cycles * (k + 1) // (n_pauses + 1) for k in range(n_pauses)}
    settle_heap()
    if recorder is not None:
        runtime.OBS.tracer.clear()
        recorder.wrap(manager, "run_cycle", "manager.run_cycle")
    for c in range(n_cycles):
        if c in pauses:
            pause()
        if c == next_fault:
            service = next(targets)
            inject_degradation(env, service, next(factors))
            faults.append((c, service))
            next_fault += next(gaps)
        if recorder is not None:
            recorder.trace_id = c
        start = clock()
        report = manager.run_cycle()
        end = clock()
        if recorder is not None:
            recorder.trace_id = None
        gate.expect(
            isinstance(report, CycleReport),
            f"cycle {c} returned {type(report).__name__}, not a CycleReport",
        )
        reports.append(report)
        cycle_ms.append((end - start) * 1e3)
        acted.append(bool(report.acted))
        # Held-out draw from the current environment, outside the timed
        # region, with its own RNG (the class method bypasses the traced
        # wrapper and leaves the manager's random stream alone).
        if not report.degraded and report.model is not None:
            heldout = type(env).simulate(env, HELDOUT_ROWS, rng=heldout_rng)
            ll.append(
                report.model.network.log10_likelihood(heldout) / HELDOUT_ROWS
            )
    cycle_ms = np.asarray(cycle_ms)
    acted = np.asarray(acted)
    n = cycle_ms.size
    hits = judged = 0
    for k, (c, service) in enumerate(faults):
        end_c = faults[k + 1][0] if k + 1 < len(faults) else None
        if end_c is None and n - c < FAULT_GAP[0]:
            break  # the run ended inside this fault's window
        window = range(c, end_c if end_c is not None else n)
        first = next((reports[j] for j in window if reports[j].acted), None)
        judged += 1
        hits += int(first is not None and first.action[0] == service)
    quarters = np.array_split(cycle_ms, 4)
    q_medians = [percentile(q, 50) for q in quarters]
    finite_ll = [v for v in ll if np.isfinite(v)]
    counts = {
        "cycles": int(n),
        "acted": int(acted.sum()),
        "degraded": sum(r.degraded for r in reports),
        "quarantined": sum(r.quarantined for r in reports),
        "rolled_back": sum(r.rolled_back for r in reports),
        "faults": len(faults),
        "faults_judged": judged,
        "fault_hits": hits,
        "ll_cycles": len(ll),
        "ll_nonfinite": len(ll) - len(finite_ll),
    }
    named = {
        "cycle_p50_ms": (percentile(cycle_ms, 50), "ms", q_medians),
        "cycle_p95_ms": (percentile(cycle_ms, 95), "ms",
                         [percentile(q, 95) for q in quarters]),
        "model_ll_per_row": (percentile(finite_ll, 50), "log10/row",
                             [percentile(q, 50) for q in
                              np.array_split(np.asarray(finite_ll), 4)]),
        "acting_cycle_p50_ms": (percentile(cycle_ms[acted], 50), "ms", []),
        "acting_cycle_p90_ms": (percentile(cycle_ms[acted], 90), "ms", []),
        "act_hit_frac": (hits / judged if judged else float("nan"), "ratio",
                         []),
        "analyzed_frac": (len(ll) / n if n else float("nan"), "ratio", []),
    }
    out = {
        "gate": gate,
        "attempted": int(n),
        "failed": 0,
        "valid": True,
        "accounting": counts,
        "named": named,
        "slots": {
            "phase1_p50_ms": named["cycle_p50_ms"][0],
            "phase2_p50_ms": named["acting_cycle_p50_ms"][0],
            "good_frac": named["analyzed_frac"][0],
        },
        "drift": q_medians[-1] / q_medians[0] if q_medians[0] else float("nan"),
    }
    if recorder is not None:
        out["layers"], out["ledger"] = _mape_layers(recorder, out, counts)
    return out


def _mape_layers(recorder, out, counts):
    roots = list(runtime.OBS.tracer.roots)
    recorder.adopt_program_spans(roots)
    nest_by_time(recorder.spans)
    spans = recorder.spans
    n = max(1, counts["cycles"])
    per_cycle = {}
    for name in PHASES:
        per_cycle[name] = sum(s[3] - s[2] for s in spans if s[1] == name)
    cycle_total = sum(s[3] - s[2] for s in recorder.by_name("manager.run_cycle"))
    sim = sum(s[3] - s[2] for s in recorder.by_name("env.simulate"))
    n_sims = len(recorder.by_name("env.simulate"))
    unattributed = cycle_total - sum(per_cycle.values())
    ms = {name: total / n * 1e3 for name, total in per_cycle.items()}
    layers = {
        "manager.monitor.ms": ms["manager.monitor"],
        "simulator.us_per_request": sim / max(1, n_sims * WINDOW_POINTS) * 1e6,
        "manager.quality_gate.ms": ms["manager.quality_gate"],
        "manager.publish.ms": ms["manager.publish"],
        "manager.analyze.ms": ms["manager.analyze"],
        "manager.budgets.ms": ms["manager.budgets"],
        "manager.slo.ms": ms["manager.slo"],
        "manager.plan.ms": ms["manager.plan"],
        "manager.unattributed.ms": unattributed / n * 1e3,
        "manager.cycle_ms_drift": out["drift"],
        "manager.cycles.acted": float(counts["acted"]),
        "manager.cycles.degraded": float(counts["degraded"]),
        "manager.cycles.quarantined": float(counts["quarantined"]),
        "manager.cycles.rolled_back": float(counts["rolled_back"]),
        "model.ll_per_row": out["named"]["model_ll_per_row"][0],
        "manager.act_hit_frac": out["named"]["act_hit_frac"][0],
    }
    own = {
        "env.simulate": sim,
        "gate.inspect": sum(s[3] - s[2] for s in recorder.by_name("gate.inspect")),
        "slo.evaluate": sum(s[3] - s[2] for s in recorder.by_name("slo.evaluate")),
    }
    ledger = {
        "cycles": counts["cycles"],
        "cycle_ms_mean": cycle_total / n * 1e3,
        "phases_ms_per_cycle": {
            **{name: ms[name] for name in PHASES},
            "unattributed": unattributed / n * 1e3,
        },
        "wrapped_calls_ms_per_cycle": {k: v / n * 1e3 for k, v in own.items()},
        "self_ms_per_cycle": {
            k: v / n * 1e3 for k, v in sorted(self_times(spans).items())
        },
    }
    return layers, ledger
