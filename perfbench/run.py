"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

- ``serve_open``    open-loop single queries through the batcher, then a
                    closed-loop bulk segment, in alternation;
- ``mape_ediamond`` the MAPE loop on the paper's eDiaMoND scenario;
- ``mape_corpus``   the MAPE loop on a 40-service corpus composition
                    (runnable, not in ``BENCHMARK.json``).

With ``--trace 0`` the last line of standard output is a JSON object
carrying the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead.  Human-readable lines above
it give every named metric with its unit, the per-phase accounting and
the environment fingerprint.  ``--out PATH`` also writes the full result
(and, when traced, the span log next to it); nothing else is written
outside a scratch directory that the run deletes.  The exit code is
non-zero when the correctness gate fails or a phase is invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from common import ROOT, fingerprint, settle_heap, summarize_named

WORKLOADS = ("serve_open", "mape_ediamond", "mape_corpus")
#: Set-up runs this many times (before, during, after) the measured run;
#: the last rig set up before it is the one measured, and ``setup_s`` is
#: the median of all the set-up times.  The host's speed changes by half
#: for seconds at a time, so set-ups spread over the run see the same
#: spells as the measured metrics, not only those of its first seconds.
#: A MAPE set-up is short and sets up between cycles of the measured run;
#: a serve set-up runs open-loop traffic of its own, so it sets up before
#: and after.  A traced run reports no ``setup_s`` and sets up only before.
SETUPS = {
    "serve_open": (3, 0, 2),
    "mape_ediamond": (1, 9, 0),
    "mape_corpus": (1, 3, 0),
}

#: End-to-end metrics: one set of names for every workload; what each
#: measures on each workload, and why tails are printed but not here, is
#: in README.md.
E2E_UNITS = {
    "setup_s": "s",
    "phase1_p50_ms": "ms",
    "phase2_p50_ms": "ms",
    "good_frac": "ratio",
}

LAYER_UNITS = {
    "fabric.batcher.wait_ms_p50": "ms",
    "fabric.batcher.coalesce_ratio": "ratio",
    "fabric.batcher.flushes": "count",
    "fabric.batcher.bypass": "count",
    "fabric.router.us_per_call": "us",
    "fabric.shed": "count",
    "fabric.failed": "count",
    "server.flush_ms_p50": "ms",
    "server.rowdict_us_per_row": "us",
    "server.columnar_over_engine": "ratio",
    "engine.us_per_row": "us",
    "engine.plan_hit_frac": "ratio",
    "manager.monitor.ms": "ms",
    "simulator.us_per_request": "us",
    "manager.quality_gate.ms": "ms",
    "manager.publish.ms": "ms",
    "manager.analyze.ms": "ms",
    "manager.budgets.ms": "ms",
    "manager.slo.ms": "ms",
    "manager.plan.ms": "ms",
    "manager.unattributed.ms": "ms",
    "manager.cycle_ms_drift": "ratio",
    "manager.cycles.acted": "count",
    "manager.cycles.degraded": "count",
    "manager.cycles.quarantined": "count",
    "manager.cycles.rolled_back": "count",
    "model.ll_per_row": "log10/row",
    "manager.act_hit_frac": "ratio",
    "gen.late_ms_p99": "ms",
    "gen.backlog_end": "count",
    "trace.overhead_pct": "%",
}


def _workload(name: str):
    """(rig factory, warm-up, measured run) for one workload."""
    if name == "serve_open":
        import serve

        return serve.ServeRig, serve.setup_open, serve.run_serve_open
    import mape

    def rig(seed, scratch, recorder=None):
        return mape.MapeRig(name, seed, scratch, recorder)

    return rig, None, mape.run_mape


@contextlib.contextmanager
def _own_metrics():
    """Give a set-up made while the measured rig is alive a metrics
    registry of its own: a MAPE rig resets the process-global registry
    and its manager feeds it, and the measured manager's SLO monitor
    reads it."""
    from repro.obs import runtime
    from repro.obs.metrics import MetricsRegistry

    measured = runtime.OBS.metrics
    runtime.OBS.metrics = MetricsRegistry()
    try:
        yield
    finally:
        runtime.OBS.metrics = measured


def run_once(name: str, seed: int, seconds: float, recorder=None,
             extra_set_ups: bool = True) -> dict:
    """Set up ``SETUPS[name][0]`` times (keeping the last rig) and measure
    for ``seconds``; with ``extra_set_ups``, also set up
    ``SETUPS[name][1]`` times between parts of the measured run and
    ``SETUPS[name][2]`` times after it.  With a ``recorder`` the
    program's own observability is on and the benchmark's wrapper spans
    are recorded."""
    from repro.obs import runtime

    make_rig, warm, measure = _workload(name)
    before, during, after = SETUPS[name] if extra_set_ups else (
        SETUPS[name][0], 0, 0)
    if recorder is not None:
        runtime.enable()
    setups = []
    rig = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:

        def set_up(recorder=None):
            """One timed set-up; returns the rig."""
            r = len(setups)
            # Each set-up starts from the same heap: the garbage of the
            # rigs before it collected, everything alive frozen.
            settle_heap()
            rng = np.random.default_rng([seed, r])
            started = time.perf_counter()
            new = make_rig(seed, Path(tmp) / f"setup-{r}", recorder)
            try:
                if warm is not None:
                    warm(new, rng)
            except BaseException:
                new.close()
                raise
            setups.append(time.perf_counter() - started)
            return new

        def set_up_aside():
            """A set-up between parts of the measured run; its rig is
            closed at once and the heap settled again for the run."""
            with _own_metrics():
                set_up().close()
            settle_heap()

        try:
            for _ in range(before):
                if rig is not None:
                    rig.close()
                    rig = None
                rig = set_up(recorder)
            if recorder is not None:
                runtime.reset()
                recorder.spans.clear()
            rng = np.random.default_rng([seed, 1000])
            if during:
                result = measure(rig, seconds, rng, recorder,
                                 interludes=(during, set_up_aside))
            else:
                result = measure(rig, seconds, rng, recorder)
            for _ in range(after):
                rig.close()
                rig = None
                rig = set_up()
        finally:
            if rig is not None:
                rig.close()
            runtime.disable()
    result["setup_s"] = setups
    return result


def _e2e(result: dict) -> dict:
    values = dict(result["slots"])
    values["setup_s"] = float(np.median(result["setup_s"]))
    return values


def _metrics_json(values: dict, units: dict) -> dict:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }


def _not_finite(values: dict) -> list:
    return [name for name, v in values.items() if not np.isfinite(v)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    report = {"workload": args.workload, "fingerprint": fingerprint(args.seed)}
    if args.trace:
        from spans import Recorder

        # Same seed twice: untraced, then traced, half the time each; the
        # difference between the two is the tracing overhead.
        plain = run_once(args.workload, args.seed, args.seconds / 2,
                         extra_set_ups=False)
        recorder = Recorder()
        result = run_once(args.workload, args.seed, args.seconds / 2, recorder,
                          extra_set_ups=False)
        base = plain["slots"]["phase1_p50_ms"]
        traced = result["slots"]["phase1_p50_ms"]
        measured = dict(result.get("layers", {}))
        measured["trace.overhead_pct"] = (traced / base - 1.0) * 100.0
        # Layers a workload does not exercise read 0.
        layers = {name: 0.0 for name in LAYER_UNITS}
        layers.update((k, v) for k, v in measured.items() if np.isfinite(v))
        report["per_layer"] = layers
        report["ledger"] = result.get("ledger", {})
        report["untraced"] = {"slots": plain["slots"],
                              "correct": plain["gate"].correct}
        metrics = _metrics_json(layers, LAYER_UNITS)
        results = (plain, result)
    else:
        result = run_once(args.workload, args.seed, args.seconds)
        recorder = None
        metrics = _metrics_json(_e2e(result), E2E_UNITS)
        results = (result,)

    failures = [f for r in results for f in r["gate"].failures]
    if not args.trace:
        failures += [
            f"end-to-end metric {name} is not finite"
            for name in _not_finite(_e2e(result))
        ]
    valid = all(r["valid"] for r in results)
    report.update(
        {
            "end_to_end": _e2e(result),
            "named": summarize_named(result["named"]),
            "setup_s": result["setup_s"],
            "accounting": result["accounting"],
            "tenants": result.get("tenants"),
            "valid": valid,
            "gate": {
                "checked": sum(r["gate"].checked for r in results),
                "failures": failures[:20],
            },
        }
    )

    fp = report["fingerprint"]
    print(f"fingerprint: python {fp['python']} numpy {fp['numpy']} "
          f"scipy {fp['scipy']} nproc {fp['nproc']} cpu {fp['cpu']!r} "
          f"commit {fp['git_commit']} seed {fp['seed']}")
    for key, value in report["accounting"].items():
        print(f"accounting {key}: {json.dumps(value)}")
    for name, entry in report["named"].items():
        per = entry["per_block"]
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']} "
              f"(per-block median {per['median']:.6g}, iqr {per['iqr']:.3g})")
    print(f"metric setup_s = {np.median(result['setup_s']):.6g} s "
          f"(repeats {[round(s, 4) for s in result['setup_s']]})")
    if args.trace:
        for name, value in report["per_layer"].items():
            print(f"layer {name} = {value:.6g} {LAYER_UNITS[name]}")
        print(f"ledger: {json.dumps(report['ledger'])}")
    for failure in failures[:20]:
        print(f"GATE FAILURE: {failure}")
    if not valid:
        print("INVALID: a phase's generator ran late or its backlog grew")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, default=float))
        if recorder is not None:
            recorder.write_jsonl(args.out.with_suffix(".spans.jsonl"))

    correct = not failures and valid
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
