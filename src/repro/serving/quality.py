"""Data-quality gate and post-publish accuracy tripwire.

Monitoring windows feed model reconstruction; a poisoned window (sensor
stuck at NaN, a unit mix-up shifting every mean, a burst of impossible
outliers) silently corrupts the next model and every decision made from
it.  The gate sits *in front of* reconstruction:

- **schema** — every expected column present, nothing empty;
- **NaN budget** — per-column non-finite fraction under a cap;
- **outliers** — robust z-scores (median/MAD) against the window itself,
  fraction capped;
- **drift** — a mean-shift score per column against an EWMA reference of
  previously accepted windows; a window that jumps too many reference
  standard deviations is quarantined, not learned from.  A column's
  reference starts at the first accepted window in which it has spread;
  until then the drift check skips it.

Quarantined windows are recorded (index, verdict) for operator review;
clean windows update the reference statistics and flow to learning.

:class:`AccuracyTripwire` closes the loop *after* publication: a freshly
published model is scored (per-row log10-likelihood) against its
predecessor on the same window, and a regression beyond tolerance
auto-rolls the registry back to the prior version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import ServingError


@dataclass
class WindowVerdict:
    """The gate's decision for one monitoring window."""

    accepted: bool
    reasons: tuple = ()
    drift_score: float = 0.0
    column_drift: dict = field(default_factory=dict)
    n_rows: int = 0


class DataQualityGate:
    """Schema / NaN / outlier / drift screening of monitoring windows."""

    def __init__(
        self,
        columns: Iterable[str],
        max_nan_fraction: float = 0.2,
        outlier_z: float = 8.0,
        max_outlier_fraction: float = 0.05,
        drift_threshold: float = 6.0,
        ema: float = 0.3,
        min_rows: int = 10,
    ):
        self.columns = tuple(map(str, columns))
        if not self.columns:
            raise ServingError("gate needs at least one expected column")
        if not 0.0 <= max_nan_fraction < 1.0:
            raise ServingError("max_nan_fraction must be in [0, 1)")
        if outlier_z <= 0 or drift_threshold <= 0:
            raise ServingError("outlier_z and drift_threshold must be > 0")
        if not 0.0 < ema <= 1.0:
            raise ServingError("ema must be in (0, 1]")
        self.max_nan_fraction = float(max_nan_fraction)
        self.outlier_z = float(outlier_z)
        self.max_outlier_fraction = float(max_outlier_fraction)
        self.drift_threshold = float(drift_threshold)
        self.ema = float(ema)
        self.min_rows = int(min_rows)
        self._ref_mean: dict[str, float] = {}
        self._ref_std: dict[str, float] = {}
        self.n_windows = 0
        self.n_accepted = 0
        #: ``(window_index, WindowVerdict)`` for every refused window.
        self.quarantined: list = []

    # ------------------------------------------------------------------ #

    @property
    def has_reference(self) -> bool:
        return bool(self._ref_mean)

    def reference(self) -> "dict[str, tuple[float, float]]":
        return {
            c: (self._ref_mean[c], self._ref_std[c]) for c in self._ref_mean
        }

    def _column_checks(self, data) -> "tuple[list[str], dict[str, float]]":
        reasons: list[str] = []
        drift: dict[str, float] = {}
        for col in self.columns:
            if col not in data:
                reasons.append(f"missing column {col!r}")
                continue
            x = np.asarray(data[col], dtype=float)
            if x.size == 0:
                reasons.append(f"column {col!r} is empty")
                continue
            finite = np.isfinite(x)
            nan_frac = 1.0 - finite.mean()
            if nan_frac > self.max_nan_fraction:
                reasons.append(
                    f"column {col!r}: non-finite fraction {nan_frac:.2f} "
                    f"> {self.max_nan_fraction:.2f}"
                )
                continue
            clean = x[finite]
            med = float(np.median(clean))
            mad = float(np.median(np.abs(clean - med)))
            scale = 1.4826 * mad if mad > 0 else float(clean.std()) or 1.0
            out_frac = float(
                np.mean(np.abs(clean - med) / scale > self.outlier_z)
            )
            if out_frac > self.max_outlier_fraction:
                reasons.append(
                    f"column {col!r}: outlier fraction {out_frac:.2f} "
                    f"> {self.max_outlier_fraction:.2f} "
                    f"(robust z > {self.outlier_z:g})"
                )
            if self._ref_std.get(col, 0.0) > 0.0:
                score = (
                    abs(float(clean.mean()) - self._ref_mean[col])
                    / self._ref_std[col]
                )
                drift[col] = score
                if score > self.drift_threshold:
                    reasons.append(
                        f"column {col!r}: mean-shift drift {score:.1f}σ "
                        f"> {self.drift_threshold:g}σ vs reference"
                    )
        return reasons, drift

    def inspect(self, data) -> WindowVerdict:
        """Screen one monitoring window; accepted windows update the
        drift reference, refused ones are quarantined with reasons."""
        index = self.n_windows
        self.n_windows += 1
        n_rows = getattr(data, "n_rows", 0)
        reasons, drift = self._column_checks(data)
        if n_rows < self.min_rows:
            reasons.insert(0, f"window has {n_rows} rows < {self.min_rows}")
        verdict = WindowVerdict(
            accepted=not reasons,
            reasons=tuple(reasons),
            drift_score=max(drift.values(), default=0.0),
            column_drift=drift,
            n_rows=n_rows,
        )
        if verdict.accepted:
            self.n_accepted += 1
            self._update_reference(data)
        else:
            self.quarantined.append((index, verdict))
        return verdict

    def _update_reference(self, data) -> None:
        for col in self.columns:
            x = np.asarray(data[col], dtype=float)
            x = x[np.isfinite(x)]
            m, s = float(x.mean()), float(x.std())
            if col not in self._ref_mean:
                # A column with no spread yet (a choice-branch service
                # that never ran) gets no drift reference: against a zero
                # std any later mean reads as an unbounded shift.
                if s > 0.0:
                    self._ref_mean[col], self._ref_std[col] = m, s
            else:
                a = self.ema
                self._ref_mean[col] = (1 - a) * self._ref_mean[col] + a * m
                self._ref_std[col] = (1 - a) * self._ref_std[col] + a * s


# --------------------------------------------------------------------- #


@dataclass
class PublishOutcome:
    """What happened when a model met the registry through the tripwire."""

    version: int                    # version the publish created
    active_version: int             # version serving after the check
    rolled_back: bool
    new_score: float                # per-row log10-likelihood, new model
    previous_score: "float | None"  # same window, previous active model
    detail: str = ""


class AccuracyTripwire:
    """Post-publish log-likelihood regression check with auto-rollback."""

    def __init__(self, registry, max_regression: float = 0.5):
        if max_regression < 0:
            raise ServingError("max_regression must be >= 0")
        self.registry = registry
        self.max_regression = float(max_regression)
        self.n_rollbacks = 0

    def publish_checked(
        self, model, window, metadata: "Mapping | None" = None
    ) -> PublishOutcome:
        """Publish ``model``, score it against the incumbent on
        ``window``, and roll back if accuracy regressed beyond
        tolerance.

        The incumbent is loaded *before* publishing (publishing moves
        the active pointer).  Scores are per-row log10-likelihood so the
        tolerance is window-size independent.
        """
        previous = None
        if self.registry.active_version is not None:
            previous = self.registry.load()
        version = self.registry.publish(
            model, activate=True, metadata=dict(metadata or {})
        )
        n = max(window.n_rows, 1)
        new_score = float(model.log10_likelihood(window)) / n
        prev_score = None
        if previous is not None:
            try:
                prev_score = float(previous.log10_likelihood(window)) / n
            except Exception as exc:  # incumbent can't score: keep new model
                return PublishOutcome(
                    version=version,
                    active_version=version,
                    rolled_back=False,
                    new_score=new_score,
                    previous_score=None,
                    detail=f"previous model unscoreable: {exc}",
                )
        if (
            prev_score is not None
            and np.isfinite(prev_score)
            and (not np.isfinite(new_score)
                 or new_score < prev_score - self.max_regression)
        ):
            active = self.registry.rollback(
                reason=(
                    f"accuracy tripwire: per-row log10-likelihood "
                    f"{new_score:.4f} regressed beyond "
                    f"{prev_score:.4f} - {self.max_regression:g}"
                )
            )
            self.n_rollbacks += 1
            return PublishOutcome(
                version=version,
                active_version=active,
                rolled_back=True,
                new_score=new_score,
                previous_score=prev_score,
                detail="rolled back to previous healthy version",
            )
        return PublishOutcome(
            version=version,
            active_version=version,
            rolled_back=False,
            new_score=new_score,
            previous_score=prev_score,
        )
