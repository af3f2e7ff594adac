"""Shared pieces of the benchmark: paths, statistics, fingerprint and
the correctness gate."""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Tolerance of the correctness gate: a served posterior must equal the
#: reference ``CompiledDiscreteModel.query`` answer to float64 rounding.
POSTERIOR_ATOL = 1e-12


class Gate:
    """The correctness gate: every check made, and every one that failed."""

    def __init__(self):
        self.checked = 0
        self.failures: list = []

    def expect(self, ok: bool, message: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(message)

    def posterior(self, served, reference, where: str) -> None:
        """A served posterior must equal the reference answer."""
        served = np.asarray(served, dtype=float).reshape(-1)
        reference = np.asarray(reference, dtype=float).reshape(-1)
        self.expect(
            served.shape == reference.shape
            and np.allclose(served, reference, rtol=0.0, atol=POSTERIOR_ATOL),
            f"{where}: served posterior {served.tolist()} != reference "
            f"{reference.tolist()}",
        )

    @property
    def correct(self) -> bool:
        return not self.failures


def balanced(rng, choices, n: int) -> list:
    """``n`` picks from ``choices``, each equally often, in seeded order:
    every seed gets the same mix, so the mix does not vary between runs."""
    picks = [choices[i % len(choices)] for i in range(n)]
    return [picks[i] for i in rng.permutation(n)]


def settle_heap() -> None:
    """Collect, then move every live object to the permanent generation,
    so that collections during a timed region do not traverse the
    benchmark's own pre-built inputs or the imported modules.  Objects
    frozen earlier are thawed first, so that a rig dropped since then is
    collected rather than kept."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def percentile(values, q: float) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def spread(values) -> dict:
    """Per-run values with their median and inter-quartile range."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"values": [], "median": float("nan"), "iqr": float("nan")}
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {
        "values": [float(v) for v in arr],
        "median": float(med),
        "iqr": float(q3 - q1),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> "str | None":
    # The ceiling stops git from walking up into an unrelated repository
    # when the benchmark runs from a plain (non-git) checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(seed: int) -> dict:
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": int(seed),
    }


def summarize_named(named: dict) -> dict:
    """``{name: (value, unit, per-block values)}`` as reported."""
    return {
        name: {"value": value, "unit": unit, "per_block": spread(blocks)}
        for name, (value, unit, blocks) in named.items()
    }
