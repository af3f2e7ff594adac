"""The guarded query front-end: :class:`ModelServer`.

This is the one door through which autonomic components query a live
model.  Its three discrete query entry points — :meth:`~ModelServer.query`
(one row), :meth:`~ModelServer.query_batch` (row mappings) and
:meth:`~ModelServer.query_batch_columns` (evidence columns) — and the
discrete branches of :meth:`~ModelServer.violation_prob` and
:meth:`~ModelServer.project` are thin adapters over **one core**.  The
core takes a same-signature batch held as evidence columns (raw means or
bin states) plus an explicit row count, so a request with no evidence is
just a batch with no columns, and it

- **admits** row by row through the optional seeded
  :class:`~repro.serving.breaker.AdmissionController` — a batch of N rows
  sheds exactly like N single queries;
- **validates** with vectorized guards (:func:`~repro.serving.guards.check_columns`:
  unknown variables, NaN means, non-integral or out-of-range bins),
  building reasons only for the rows it refuses — never a crash;
- **answers** every clean row with one compiled batch-kernel call behind
  the compiled tier's circuit breaker and the per-call deadline; when
  that tier is tripped, overrun or failing, each row walks the rest of
  the :class:`~repro.serving.fallback.FallbackChain` on its own, so the
  compiled tier is tried once per row, never twice;
- **accounts** once per call: one :class:`Tally` into
  :meth:`ServerStats._count` and one admission outcome per admitted row.

The accounting rule is row-equivalent: whatever entry point a row comes
through, it counts as one query in :class:`ServerStats` and one outcome
in the admission window, so a batch of N rows leaves stats and admission
exactly as N ``query`` calls would.  (``n_rows_rejected`` additionally
counts rows the evidence guards refused inside batch calls.)

Every call reads one model snapshot — model, fallback chain, variable
set and cardinalities, published together by :meth:`ModelServer.refresh`
— and uses only it, so a refresh that lands mid-call never pairs one
version's bins with another version's engine: the call answers wholly
from the version it started with.

The server can wrap a bare model or a
:class:`~repro.serving.registry.ModelRegistry` — in the latter case
:meth:`refresh` follows the registry's active version, which is how a
rollback propagates to the serving path.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.apps.violation import tail_probability_from_pmf
from repro.bn.network import DiscreteBayesianNetwork, HybridResponseNetwork
from repro.exceptions import ServingError
from repro.obs.runtime import OBS as _OBS
from repro.serving.breaker import AdmissionController, CircuitBreaker
from repro.serving.fallback import CHAIN, TIER_COMPILED, FallbackChain
from repro.serving.guards import check_columns, check_row
from repro.serving.registry import ModelRegistry
from repro.utils.rng import ensure_rng

#: Backend label for non-chain (continuous/analytic) answers.
TIER_ANALYTIC = "analytic"

STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_SHED = "shed"
STATUS_FAILED = "failed"

_SHED_REASON = "admission control: server overloaded"
#: Entry points whose guard refusals also count as ``n_rows_rejected``.
_BATCH_CALLS = ("query_batch", "query_batch_columns")
# Per-row outcome codes inside the core.
_OK, _REJECTED, _SHED = 0, 1, 2
_CODES = (STATUS_OK, STATUS_REJECTED, STATUS_SHED)


@dataclass
class QueryResult:
    """One guarded query's outcome — answer or explained refusal."""

    status: str
    value: object = None            # pmf ndarray / float / PAccelResult
    tier: "str | None" = None       # which backend answered
    reasons: tuple = ()             # rejection reasons (status "rejected")
    tier_errors: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    deadline_exceeded: bool = False
    approximate: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class ColumnarBatchResult:
    """Outcome of one :meth:`ModelServer.query_batch_columns` call.

    One batch-level record instead of N :class:`QueryResult`\\ s:
    ``pmfs[j]`` answers the j-th *valid* (answered) row; ``valid`` is a
    boolean mask over the input rows (``None`` means every row was
    answered).  ``status`` is ``ok`` when any row was answered, else the
    first row's status; ``reasons`` lists the distinct reasons rows were
    refused for, and ``counts`` the rows per status.
    """

    status: str
    n_rows: int
    pmfs: "np.ndarray | None" = None
    valid: "np.ndarray | None" = None     # bool mask; None == all valid
    n_valid: int = 0
    tier: "str | None" = None
    reasons: tuple = ()
    tier_errors: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    deadline_exceeded: bool = False
    approximate: bool = False
    counts: dict = field(default_factory=dict, init=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class Tally:
    """One call's rows by outcome: the unit :meth:`ServerStats._count`
    adds up."""

    statuses: dict = field(default_factory=dict)   # status -> rows
    tiers: dict = field(default_factory=dict)      # tier -> answered rows
    n_deadline_exceeded: int = 0
    n_rows_rejected: int = 0
    n_degraded: int = 0      # answered rows some earlier tier failed
    n_reasons: int = 0       # rejection reasons over rejected rows
    elapsed_seconds: float = 0.0

    @classmethod
    def of(cls, result) -> "Tally":
        """The tally of any entry point's result: a :class:`QueryResult`,
        a list of them, or a :class:`ColumnarBatchResult`."""
        if isinstance(result, ColumnarBatchResult):
            # Synthesized results (fabric faults, tenant sheds) carry no
            # counts: all their rows share the batch status.
            statuses = result.counts or {result.status: result.n_rows}
            n_ok = statuses.get(STATUS_OK, 0)
            return cls(
                statuses=statuses,
                tiers={result.tier: n_ok} if n_ok and result.tier else {},
                n_deadline_exceeded=result.n_rows * result.deadline_exceeded,
                n_rows_rejected=statuses.get(STATUS_REJECTED, 0),
                n_degraded=n_ok if result.tier_errors else 0,
                elapsed_seconds=result.elapsed_seconds,
            )
        tally = cls()
        for r in result if isinstance(result, list) else (result,):
            tally.statuses[r.status] = tally.statuses.get(r.status, 0) + 1
            if r.status == STATUS_OK and r.tier is not None:
                tally.tiers[r.tier] = tally.tiers.get(r.tier, 0) + 1
                tally.n_degraded += bool(r.tier_errors)
            elif r.status == STATUS_REJECTED:
                tally.n_reasons += len(r.reasons)
            tally.n_deadline_exceeded += r.deadline_exceeded
            tally.elapsed_seconds = max(tally.elapsed_seconds, r.elapsed_seconds)
        return tally

    @property
    def n_rows(self) -> int:
        return sum(self.statuses.values())

    @property
    def overloaded(self) -> bool:
        """Did any row overrun its deadline or fail on every tier?"""
        return bool(self.n_deadline_exceeded or self.statuses.get(STATUS_FAILED))


@dataclass
class ServerStats:
    """Monotonic counters over the server's lifetime (thread-safe)."""

    n_queries: int = 0
    n_ok: int = 0
    n_rejected: int = 0
    n_shed: int = 0
    n_failed: int = 0
    n_deadline_exceeded: int = 0
    n_rows_rejected: int = 0
    tier_counts: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _count(self, result) -> None:
        """Add one call's rows — a :class:`Tally`, or any entry point's
        result — and mirror them into the process metrics registry when
        obs is on.  The only way the counters move."""
        t = result if isinstance(result, Tally) else Tally.of(result)
        get = t.statuses.get
        with self._lock:
            self.n_queries += t.n_rows
            self.n_ok += get(STATUS_OK, 0)
            self.n_rejected += get(STATUS_REJECTED, 0)
            self.n_shed += get(STATUS_SHED, 0)
            self.n_failed += get(STATUS_FAILED, 0)
            self.n_deadline_exceeded += t.n_deadline_exceeded
            self.n_rows_rejected += t.n_rows_rejected
            for tier, k in t.tiers.items():
                self.tier_counts[tier] = self.tier_counts.get(tier, 0) + k
        if not _OBS.enabled:
            return
        m = _OBS.metrics
        for name, k in (
            ("serving.queries", t.n_rows),
            ("serving.degraded_answers", t.n_degraded),
            ("serving.deadline_misses", t.n_deadline_exceeded),
            ("serving.rejection_reasons", t.n_reasons),
            ("serving.rows_rejected", t.n_rows_rejected),
            *((f"serving.status.{s}", k) for s, k in t.statuses.items()),
            *((f"serving.tier.{tier}", k) for tier, k in t.tiers.items()),
        ):
            if k:
                m.counter(name).inc(k)
        if t.elapsed_seconds:
            m.histogram("serving.query.seconds").observe(t.elapsed_seconds)

    def count_rows_rejected(self, n: int) -> None:
        self._count(Tally(n_rows_rejected=int(n)))

    def as_dict(self) -> dict:
        """Consistent point-in-time snapshot of every counter."""
        with self._lock:
            return {
                "n_queries": self.n_queries,
                "n_ok": self.n_ok,
                "n_rejected": self.n_rejected,
                "n_shed": self.n_shed,
                "n_failed": self.n_failed,
                "n_deadline_exceeded": self.n_deadline_exceeded,
                "n_rows_rejected": self.n_rows_rejected,
                "tier_counts": dict(self.tier_counts),
            }


class _Snapshot:
    """Everything one call reads about the served model, published as a
    unit by :meth:`ModelServer._set_model`."""

    __slots__ = ("model", "version", "chain", "known", "cards", "assessor")

    def __init__(self, model, version, chain):
        self.model = model
        self.version = version
        self.chain = chain
        self.known = frozenset(map(str, model.network.nodes))
        self.cards = model.network.cardinalities if chain is not None else {}
        self.assessor = None   # lazily built RapidAssessor (hybrid models)


@dataclass
class _Served:
    """One core call's rows, before an entry point shapes them."""

    code: np.ndarray             # per-row index into _CODES
    reasons: dict                # refused row -> reasons
    pmfs: "np.ndarray | None"    # answers of the good rows, in row order
    answers: "list | None"       # their chain answers when degraded
    elapsed: float

    def statuses(self) -> dict:
        if not self.reasons:
            return {STATUS_OK: self.code.size} if self.code.size else {}
        counts = np.bincount(self.code, minlength=len(_CODES))
        return {s: int(k) for s, k in zip(_CODES, counts) if k}

    def rows(self) -> "list[QueryResult]":
        """One :class:`QueryResult` per row, in row order."""
        t = self.elapsed
        if self.answers is None:
            answered = (
                QueryResult(STATUS_OK, pmf, TIER_COMPILED, (), {}, t)
                for pmf in (() if self.pmfs is None else self.pmfs)
            )
        else:
            answered = (
                QueryResult(STATUS_OK, pmf, a.tier, (), a.tier_errors, t,
                            a.deadline_exceeded, a.approximate)
                for pmf, a in zip(self.pmfs, self.answers)
            )
        if not self.reasons:
            return list(answered)
        return [
            next(answered) if code == _OK else QueryResult(
                _CODES[code], reasons=self.reasons[i], elapsed_seconds=t
            )
            for i, code in enumerate(self.code.tolist())
        ]

    def columnar(self) -> ColumnarBatchResult:
        n = self.code.size
        n_valid = n - len(self.reasons)
        answers = self.answers or ()
        errors: dict = {}
        for a in answers:
            errors.update(a.tier_errors)
        result = ColumnarBatchResult(
            status=STATUS_OK if n_valid or not n else _CODES[self.code[0]],
            n_rows=n,
            pmfs=self.pmfs,
            valid=None if n_valid == n else self.code == _OK,
            n_valid=n_valid,
            tier=(answers[0].tier if answers else TIER_COMPILED)
            if n_valid else None,
            reasons=tuple(dict.fromkeys(
                r for rs in self.reasons.values() for r in rs
            )),
            tier_errors=errors,
            elapsed_seconds=self.elapsed,
            deadline_exceeded=any(a.deadline_exceeded for a in answers),
            approximate=any(a.approximate for a in answers),
        )
        result.counts = self.statuses()
        return result


class ModelServer:
    """Resilient serving facade over a model or a model registry."""

    def __init__(
        self,
        source,
        *,
        deadline_seconds: "float | None" = None,
        n_fallback_samples: int = 1500,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 25,
        admission: "AdmissionController | None" = None,
        rng=None,
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ServingError("deadline_seconds must be > 0 when set")
        self.deadline_seconds = deadline_seconds
        self.n_fallback_samples = int(n_fallback_samples)
        self.rng = ensure_rng(rng)
        self.admission = admission
        self.breakers = {
            tier: CircuitBreaker(breaker_threshold, breaker_cooldown, name=tier)
            for tier in (*CHAIN[:-1], TIER_ANALYTIC)
        }
        self.stats = ServerStats()
        self._registry: "ModelRegistry | None" = None
        self._snap: "_Snapshot | None" = None
        if isinstance(source, ModelRegistry):
            self._registry = source
            self.refresh()
        else:
            self._set_model(source, version=None)

    # ------------------------------------------------------------------ #
    # Model lifecycle
    # ------------------------------------------------------------------ #

    @property
    def model(self):
        return self._snap.model

    @property
    def version(self) -> "int | None":
        """Registry version currently served (None for a bare model)."""
        return self._snap.version if self._snap is not None else None

    @property
    def registry(self) -> "ModelRegistry | None":
        return self._registry

    @property
    def chain(self) -> "FallbackChain | None":
        """The discrete fallback chain (None for continuous models)."""
        return self._snap.chain

    def refresh(self) -> "int | None":
        """Follow the registry's active version (no-op for bare models,
        or when the active version is already the one being served)."""
        if self._registry is None:
            return None
        active = self._registry.active_version
        if active is None:
            raise ServingError("registry has no active version to serve")
        if active != self.version:
            self._set_model(self._registry.load(active), version=active)
        return self.version

    def _set_model(self, model, version: "int | None") -> None:
        if model is None:
            raise ServingError("ModelServer needs a model to serve")
        # Build the whole snapshot first; publishing it is one reference
        # assignment, so a call sees either the old snapshot or the new.
        chain = None
        if isinstance(model.network, DiscreteBayesianNetwork):
            chain = FallbackChain(
                model.network,
                rng=self.rng,
                n_samples=self.n_fallback_samples,
                breakers=self.breakers,
            )
        self._snap = _Snapshot(model, version, chain)

    def _deadline(self) -> "float | None":
        if self.deadline_seconds is None:
            return None
        return time.monotonic() + self.deadline_seconds

    # ------------------------------------------------------------------ #
    # The core
    # ------------------------------------------------------------------ #

    def _serve(
        self,
        snap: _Snapshot,
        variables: Sequence[str],
        columns: "Mapping[str, Sequence]",
        n_rows: int,
        binned: bool,
        what: str,
        refuse: tuple = (),
    ) -> _Served:
        """Answer ``n_rows`` same-signature rows held as evidence columns.

        ``refuse`` holds reasons the entry point refuses every row for;
        ``what`` names the entry point in reasons and decides whether
        guard refusals count as ``n_rows_rejected`` (batch calls only).
        """
        started = time.monotonic()
        code = np.zeros(n_rows, dtype=np.int8)
        reasons: dict = {}
        if self.admission is not None:
            admit = self.admission.admit
            for i in range(n_rows):
                if not admit():
                    code[i] = _SHED
                    reasons[i] = (_SHED_REASON,)
        variables = tuple(map(str, variables))
        columns = {str(v): c for v, c in columns.items()}
        model, chain = snap.model, snap.chain
        disc = model.discretizer
        guard_refused = 0
        if chain is None:
            refuse = (
                f"{what} requires a discrete model; the active model is "
                f"{model.report.model_kind!r}",
            )
        elif not binned and disc is None:
            refuse = (f"{what} requires the model's discretizer for raw evidence",)
        else:
            sig = tuple(
                f"unknown variable {v!r}" if v not in snap.known
                else f"variable {v!r} may not appear in evidence"
                for v in columns
                if v not in snap.known or v in variables
            )
            refuse = sig + refuse + tuple(
                f"unknown query variable {v!r}"
                for v in variables if v not in snap.known
            )
            if not variables:
                refuse += ("need at least one query variable",)
            if sig:
                guard_refused = n_rows - len(reasons)
        if refuse:
            for i in np.flatnonzero(code == _OK).tolist():
                code[i] = _REJECTED
                reasons[i] = refuse
        else:
            clean, bad = check_columns(
                columns, n_rows, cards=snap.cards, binned=binned
            )
            if reasons:
                bad &= code == _OK
            if bad.any():
                n_shed = len(reasons)
                for i in np.flatnonzero(bad).tolist():
                    code[i] = _REJECTED
                    reasons[i] = check_row(
                        {v: c[i] for v, c in columns.items()},
                        known=snap.known, cards=snap.cards, binned=binned,
                        require_nonempty=False,
                    )
                guard_refused = len(reasons) - n_shed
        # Every refused row has reasons: the rest are answered.
        n_good = n_rows - len(reasons)
        pmfs = answers = None
        if n_good:
            idx = None if n_good == n_rows else np.flatnonzero(code == _OK)
            states = {}
            for v, col in clean.items():
                col = col if idx is None else col[idx]
                states[v] = col if binned else disc._bin(col, disc.edges(v))
            pmfs, answers = self._answer(chain, variables, states, n_good)
        served = _Served(code, reasons, pmfs, answers, time.monotonic() - started)
        self._account(served, guard_refused if what in _BATCH_CALLS else 0)
        return served

    def _answer(self, chain: FallbackChain, variables, states, n: int):
        """The compiled tier as one batch-kernel call, behind its breaker
        and the deadline; when it cannot answer, each row walks the rest
        of the chain."""
        deadline = self._deadline()
        breaker = self.breakers[TIER_COMPILED]
        if deadline is not None and time.monotonic() > deadline:
            error = "deadline exceeded"
        elif not breaker.allow():
            error = "circuit open"
        else:
            try:
                pmfs = chain.engine.query_batch(variables, states or [{}] * n)
            except Exception as exc:
                breaker.record_failure()
                error = f"{type(exc).__name__}: {exc}"
            else:
                breaker.record_success()
                return pmfs, None
        tried = {TIER_COMPILED: error}
        answers = [
            chain.answer(
                variables, {v: c[j] for v, c in states.items()},
                deadline=deadline, tried=tried,
            )
            for j in range(n)
        ]
        return np.stack([a.values for a in answers]), answers

    def _account(self, served: _Served, n_rows_rejected: int) -> None:
        """One tally into the stats, one admission outcome per admitted
        row (overloaded = its answer overran the deadline)."""
        answers = served.answers or []
        statuses = served.statuses()
        n_good = statuses.get(STATUS_OK, 0)
        self.stats._count(Tally(
            statuses=statuses,
            tiers=Counter(a.tier for a in answers) if answers
            else {TIER_COMPILED: n_good} if n_good else {},
            n_deadline_exceeded=sum(a.deadline_exceeded for a in answers),
            n_rows_rejected=n_rows_rejected,
            n_degraded=len(answers),
            n_reasons=sum(
                len(r) for i, r in served.reasons.items()
                if served.code[i] == _REJECTED
            ),
            elapsed_seconds=served.elapsed,
        ))
        if self.admission is not None:
            over = (a.deadline_exceeded for a in answers)
            for code in served.code.tolist():
                if code != _SHED:
                    self.admission.record(code == _OK and next(over, False))

    def _one(self, snap, variables, evidence, binned, what, refuse=()):
        evidence = {str(k): [v] for k, v in dict(evidence or {}).items()}
        return self._serve(
            snap, variables, evidence, 1, binned, what, refuse
        ).rows()[0]

    # ------------------------------------------------------------------ #
    # Query surface
    # ------------------------------------------------------------------ #

    def query(
        self,
        variables: Sequence[str],
        evidence: "Mapping | None" = None,
        binned: bool = False,
    ) -> QueryResult:
        """Guarded posterior pmf ``P(variables | evidence)`` (discrete).

        ``evidence`` values are raw measurement means by default
        (discretized through the model's discretizer) or bin states with
        ``binned=True``.  Malformed evidence → ``status="rejected"`` with
        reasons; engine faults walk the fallback chain.
        """
        return self._one(self._snap, variables, evidence, binned, "query")

    def canary(self) -> QueryResult:
        """A minimal end-to-end probe query (health-prober path).

        Exercises the full guarded pipeline — admission, chain or
        analytic backend, deadline accounting — with the cheapest
        well-formed query this model can answer: the response node's
        evidence-free posterior for discrete models, a threshold-0
        violation probability for continuous ones.  A clean canary
        (``ok`` with no tier errors) is the readmission signal for a
        blacked-out replica.
        """
        snap = self._snap
        if snap.chain is not None:
            return self._one(snap, [snap.model.response], {}, True, "query")
        return self.violation_prob(0.0)

    def query_batch(
        self,
        variables: Sequence[str],
        rows: "Sequence[Mapping]",
        binned: bool = False,
    ) -> "list[QueryResult]":
        """Guarded batch query: one :class:`QueryResult` per input row.

        Rows are grouped by evidence signature and each group is one
        core call, so every row is admitted, guarded, answered and
        counted exactly as a lone :meth:`query` of it would be; bad rows
        are refused individually (with reasons) while clean rows answer.
        """
        snap = self._snap
        rows = list(rows)
        groups: dict = {}
        for i, row in enumerate(rows):
            mapping = type(row) is dict or isinstance(row, Mapping)
            groups.setdefault(tuple(row) if mapping else type(row), []).append(i)
        out: list = [None] * len(rows)
        for key, members in groups.items():
            if isinstance(key, tuple):
                columns = {k: [rows[i][k] for i in members] for k in key}
                refuse = ()
            else:
                columns = {}
                refuse = (
                    f"evidence row must be a mapping, got {key.__name__}",
                )
            served = self._serve(
                snap, variables, columns, len(members), binned,
                "query_batch", refuse,
            )
            for i, result in zip(members, served.rows()):
                out[i] = result
        return out

    def query_batch_columns(
        self,
        variables: Sequence[str],
        columns: "Mapping[str, Sequence[int]]",
    ) -> ColumnarBatchResult:
        """Columnar lane: N binned same-signature rows, O(1) objects.

        ``columns`` maps variable → bin-state column (all the same
        length).  The rows go through the same core as every other
        entry point — per-row admission, vectorized guards, one kernel
        call — and come back as one :class:`ColumnarBatchResult`; rows
        refused by admission or the guards are masked out of ``valid``
        while the others still answer.
        """
        columns = {v: np.asarray(c).reshape(-1) for v, c in columns.items()}
        sizes = {str(v): c.size for v, c in columns.items()}
        n_rows = max(sizes.values(), default=0)
        refuse = ()
        if len(set(sizes.values())) > 1:
            refuse = (f"evidence columns have mismatched lengths {sizes}",)
        return self._serve(
            self._snap, variables, columns, n_rows, True,
            "query_batch_columns", refuse,
        ).columnar()

    # ------------------------------------------------------------------ #
    # Assessment surface (all model families)
    # ------------------------------------------------------------------ #

    def violation_prob(
        self,
        threshold: float,
        predicted_means: "Mapping | None" = None,
    ) -> QueryResult:
        """Guarded ``P(D > threshold)``, optionally under predicted
        service means (the pAccel projection).

        Discrete models take the response pmf from the core (tail of
        the answered pmf); continuous models answer through the
        analytic assessor, breaker-guarded.
        """
        snap = self._snap
        means = dict(predicted_means or {})
        refuse = ()
        if not np.isfinite(threshold):
            refuse = (f"threshold {threshold!r} is not finite",)
        if snap.chain is None:
            return self._analytic(
                snap, means, refuse,
                lambda: self._violation_analytic(snap, float(threshold), means),
            )
        response = snap.model.response
        result = self._one(snap, [response], means, False, "violation_prob", refuse)
        if result.ok:
            result.value = tail_probability_from_pmf(
                result.value, snap.model.discretizer.edges(response),
                float(threshold),
            )
        return result

    def project(self, predicted_means: Mapping) -> QueryResult:
        """Guarded pAccel projection (``value`` is a ``PAccelResult``)."""
        from repro.apps.paccel import PAccel, PAccelResult

        snap = self._snap
        means = dict(predicted_means or {})
        refuse = () if means else ("empty evidence row",)
        if snap.chain is None:
            return self._analytic(
                snap, means, refuse,
                lambda: PAccel(snap.model).project(means, rng=self.rng),
            )
        response = snap.model.response
        result = self._one(snap, [response], means, False, "project", refuse)
        if result.ok:
            disc = snap.model.discretizer
            pmf = result.value
            centers = disc.centers(response)
            mean = float(np.dot(pmf, centers))
            std = float(np.sqrt(max(np.dot(pmf, (centers - mean) ** 2), 0.0)))
            result.value = PAccelResult(
                evidence=means, edges=disc.edges(response), pmf=pmf,
                mean=mean, std=std,
            )
        return result

    # ------------------------------------------------------------------ #

    def _violation_analytic(self, snap, threshold: float, means: dict) -> float:
        model = snap.model
        if isinstance(model.network, HybridResponseNetwork):
            if snap.assessor is None:
                from repro.apps.assessment import RapidAssessor

                snap.assessor = RapidAssessor(model)
            return float(
                snap.assessor.violation_probability(threshold, means or None)
            )
        from repro.apps.paccel import PAccel

        pa = PAccel(model)
        result = pa.project(means, rng=self.rng) if means else pa.baseline(
            rng=self.rng
        )
        return float(result.violation_probability(threshold))

    def _analytic(self, snap, means: dict, refuse: tuple, compute) -> QueryResult:
        """Admission, guards and the breaker-guarded analytic backend
        for continuous models (one row, accounted like the core's)."""
        started = time.monotonic()
        if self.admission is not None and not self.admission.admit():
            result = QueryResult(status=STATUS_SHED, reasons=(_SHED_REASON,))
            result.elapsed_seconds = time.monotonic() - started
            self.stats._count(result)
            return result
        reasons = refuse or check_row(
            means, known=snap.known, forbid={snap.model.response},
            require_nonempty=False,
        )
        breaker = self.breakers[TIER_ANALYTIC]
        if reasons:
            result = QueryResult(status=STATUS_REJECTED, reasons=tuple(reasons))
        elif not breaker.allow():
            result = QueryResult(
                status=STATUS_FAILED, tier_errors={TIER_ANALYTIC: "circuit open"}
            )
        else:
            try:
                value = compute()
            except Exception as exc:
                breaker.record_failure()
                result = QueryResult(
                    status=STATUS_FAILED,
                    tier_errors={TIER_ANALYTIC: f"{type(exc).__name__}: {exc}"},
                )
            else:
                breaker.record_success()
                result = QueryResult(
                    status=STATUS_OK, value=value, tier=TIER_ANALYTIC
                )
        result.elapsed_seconds = time.monotonic() - started
        self.stats._count(result)
        if self.admission is not None:
            self.admission.record(result.status == STATUS_FAILED)
        return result
