"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

- A short run of every workload emits every end-to-end metric
  (``--trace 0``) and every per-layer metric (``--trace 1``) named in
  ``BENCHMARK.json``, each with its unit.
- Negative control: a corrupted served answer makes the correctness gate
  fail and the command exit non-zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import run
import serve
from common import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]
SHORT_SECONDS = {"serve_open": 2.0, "mape_ediamond": 2.0}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", "0", "--seconds", str(SHORT_SECONDS[workload]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert set(GATED) <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", GATED)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name


def test_corrupted_answer_fails_the_gate(monkeypatch, capsys):
    from repro.serving.server import ModelServer

    original = ModelServer.query_batch

    def corrupted(self, variables, rows, binned=False):
        results = original(self, variables, rows, binned=binned)
        for result in results:
            if result.ok:
                result.value = np.roll(np.asarray(result.value), 1)
        return results

    monkeypatch.setattr(ModelServer, "query_batch", corrupted)
    monkeypatch.setattr(serve, "CHECK_SHARE", 1.0)
    code = run.main(["--workload", "serve_open", "--seed", "0",
                     "--seconds", "0.6"])
    out = capsys.readouterr().out
    assert code != 0
    assert "GATE FAILURE" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
