"""Evidence validation and sanitization for the serving layer.

Monitoring data arrives noisy and partial (Sutton & Jordan's point about
real queueing measurements), so the serving front-end never trusts a
query row: every row is checked against the model's variable set and
value domain, and bad rows are *rejected with reasons* — one
:class:`RowRejection` per offending row — instead of crashing the whole
batch.  Clean rows keep flowing.

Two evidence unit systems are supported:

- **raw** (default) — values are continuous measurement means in the
  original units; they must be finite numbers and are later discretized
  through the model's discretizer;
- **binned** — values are integer bin states; they must be integral and
  in ``[0, cardinality)`` for their variable.

:func:`check_row` judges one mapping row; :func:`check_columns` is its
vectorized form over same-signature evidence columns, the one the
:class:`~repro.serving.server.ModelServer` core runs.  It only marks the
refused rows — their reasons come from :func:`check_row`, so both forms
refuse with the same words.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RowRejection:
    """Why one evidence row was refused."""

    index: int
    reasons: tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"row {self.index}: {'; '.join(self.reasons)}"


@dataclass
class SanitizedBatch:
    """Outcome of guarding a batch of evidence rows.

    ``rows`` holds the accepted rows (values coerced to ``float`` / bin
    ``int``), ``kept_indices`` their positions in the original input, and
    ``rejections`` one entry per refused row.
    """

    rows: list = field(default_factory=list)
    kept_indices: list = field(default_factory=list)
    rejections: list = field(default_factory=list)

    @property
    def n_accepted(self) -> int:
        return len(self.rows)

    @property
    def n_rejected(self) -> int:
        return len(self.rejections)


def check_row(
    row: Mapping,
    *,
    known: "frozenset[str] | set[str]",
    cards: "Mapping[str, int] | None" = None,
    forbid: Iterable[str] = (),
    binned: bool = False,
    require_nonempty: bool = True,
) -> tuple[str, ...]:
    """Return the tuple of reasons ``row`` must be rejected (empty = ok)."""
    reasons: list[str] = []
    if not isinstance(row, Mapping):
        return (f"evidence row must be a mapping, got {type(row).__name__}",)
    if require_nonempty and not row:
        reasons.append("empty evidence row")
    forbidden = set(map(str, forbid))
    for name, value in row.items():
        name = str(name)
        if name not in known:
            reasons.append(f"unknown variable {name!r}")
            continue
        if name in forbidden:
            reasons.append(f"variable {name!r} may not appear in evidence")
            continue
        if binned:
            try:
                state = int(value)
                drift = float(value) - state
            except (TypeError, ValueError, OverflowError):
                reasons.append(f"{name!r}: bin state {value!r} is not an integer")
                continue
            if drift != 0.0:
                reasons.append(f"{name!r}: bin state {value!r} is not integral")
                continue
            card = (cards or {}).get(name)
            if card is not None and not 0 <= state < card:
                reasons.append(
                    f"{name!r}: bin {state} out of range [0, {card})"
                )
        else:
            try:
                x = float(value)
            except (TypeError, ValueError):
                reasons.append(f"{name!r}: value {value!r} is not a number")
                continue
            if math.isnan(x):
                reasons.append(f"{name!r}: NaN mean")
            elif math.isinf(x):
                reasons.append(f"{name!r}: non-finite mean {x!r}")
    return tuple(reasons)


def check_columns(
    columns: "Mapping[str, Sequence]",
    n_rows: int,
    *,
    cards: "Mapping[str, int]",
    binned: bool = False,
) -> "tuple[dict[str, np.ndarray], np.ndarray]":
    """Vectorized :func:`check_row` over ``n_rows``-long evidence columns
    of known, allowed variables.

    Returns ``(clean, bad)``: ``bad`` marks the rows :func:`check_row`
    would refuse, and ``clean`` maps each variable to an ``intp``
    bin-state (``binned``) or float column, valid wherever ``bad`` is
    False.  Numeric evidence is judged as one block; any other column
    value by value.
    """
    names = list(columns)
    try:
        block = np.array([columns[v] for v in names])
    except ValueError:  # ragged: some values are sequences themselves
        block = None
    if (
        block is not None
        and block.shape == (len(names), n_rows)
        and block.dtype.kind in "biuf"
    ):
        if not binned:
            bad = ~np.isfinite(block)
        else:
            card = np.array([cards[v] for v in names]).reshape(-1, 1)
            bad = (block < 0) | (block >= card)
            if block.dtype.kind == "f":
                bad |= np.floor(block) != block
                block = np.where(bad, 0, block)
        clean = block.astype(np.intp if binned else float, copy=False)
        return dict(zip(names, clean)), bad.any(axis=0)
    bad = np.zeros(n_rows, dtype=bool)
    clean = {}
    cast = int if binned else float
    for name in names:
        values = list(columns[name])
        ok = [
            not check_row(
                {name: v}, known=(name,), cards=cards, binned=binned,
                require_nonempty=False,
            )
            for v in values
        ]
        clean[name] = np.array(
            [cast(v) if k else 0 for v, k in zip(values, ok)],
            dtype=np.intp if binned else float,
        )
        bad |= ~np.array(ok, dtype=bool)
    return clean, bad


def sanitize_rows(
    rows: "Sequence[Mapping]",
    *,
    known: Iterable[str],
    cards: "Mapping[str, int] | None" = None,
    forbid: Iterable[str] = (),
    binned: bool = False,
) -> SanitizedBatch:
    """Validate a batch of evidence rows, splitting clean from rejected.

    Never raises on bad content — malformed rows come back as
    :class:`RowRejection` entries with every reason listed.
    """
    known_set = frozenset(map(str, known))
    batch = SanitizedBatch()
    for i, row in enumerate(rows):
        reasons = check_row(
            row, known=known_set, cards=cards, forbid=forbid, binned=binned
        )
        if reasons:
            batch.rejections.append(RowRejection(index=i, reasons=reasons))
            continue
        if binned:
            clean = {str(k): int(v) for k, v in row.items()}
        else:
            clean = {str(k): float(v) for k, v in row.items()}
        batch.rows.append(clean)
        batch.kept_indices.append(i)
    return batch


@dataclass
class GuardedBatch:
    """A guarded batch-query outcome: per-kept-row results + rejections.

    ``results[j]`` answers the row at original index
    ``kept_indices[j]``; rejected rows are absent from ``results`` and
    explained in ``rejections``.
    """

    results: list
    kept_indices: list
    rejections: "list[RowRejection]"

    @property
    def n_accepted(self) -> int:
        return len(self.results)

    @property
    def n_rejected(self) -> int:
        return len(self.rejections)
