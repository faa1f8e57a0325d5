"""Checkpoint stopping and hyperparameter choice via worst-case validation.

Each adversary snapshot is reduced to its per-example validation weights.
Checkpoints are ranked by their maximum weighted validation loss over the
adversaries whose estimated KL from the data distribution stays under a
threshold; the identity adversary always survives, so plain validation loss
lower-bounds the criterion. Selection scores the validation loss rows its
caller cached, one per checkpoint, and runs no model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .diffcore import ModelState

KL_THRESHOLD_DEFAULT = math.log(10.0)


@dataclass
class AdversaryRecord:
    """Per-validation-example weights of one adversary snapshot, mean 1, and their KL."""

    id: int
    valid_weights: np.ndarray
    kl_estimate: float = field(init=False)

    def __post_init__(self):
        self.valid_weights = np.asarray(self.valid_weights, dtype=float)
        self.kl_estimate = adversary_valid_kl(self.valid_weights)  # rejects negative weights
        mean = self.valid_weights.mean()
        if not abs(mean - 1.0) <= 1e-9:  # NaN fails
            raise ValueError("weights must be finite with mean 1")


def normalize_weights(raw: np.ndarray) -> np.ndarray:
    """Rescale raw nonnegative weights to mean 1."""
    raw = np.asarray(raw, dtype=float)
    if np.any(raw < 0):
        raise ValueError("weights must be nonnegative")
    total = raw.mean()
    if total <= 0:
        raise ValueError("weights must not be all zero")
    return raw / total


def make_record(record_id: int, raw_weights: np.ndarray) -> AdversaryRecord:
    return AdversaryRecord(record_id, normalize_weights(raw_weights))


def identity_record(n: int) -> AdversaryRecord:
    """The unmoved-adversary record: id 0, all-ones weights, KL exactly 0."""
    return AdversaryRecord(0, np.ones(n))


def adversary_valid_kl(weights: np.ndarray) -> float:
    """KL estimate (1/n) sum w log w for mean-1 weights, with 0 log 0 = 0."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    nonzero = w > 0
    return float(np.sum(w[nonzero] * np.log(w[nonzero])) / len(w))


def surviving_records(
    records: Sequence[AdversaryRecord], kl_threshold: float
) -> List[AdversaryRecord]:
    return [r for r in records if r.kl_estimate <= kl_threshold]


def robust_valid_loss(
    losses: np.ndarray, records: Sequence[AdversaryRecord]
) -> float:
    """Max over records of the weighted mean validation loss."""
    if not records:
        raise ValueError("at least one record required")
    return max(float(np.mean(r.valid_weights * losses)) for r in records)


def minmax_select(
    checkpoints: Sequence[ModelState],
    records: Sequence[AdversaryRecord],
    losses: Sequence[np.ndarray],
    kl_threshold: float = KL_THRESHOLD_DEFAULT,
) -> Tuple[int, ModelState]:
    """Checkpoint minimizing the worst weighted validation loss.

    Records above the KL threshold are dropped first; the identity record
    guarantees a survivor. losses[i] is checkpoints[i]'s validation loss row.
    Returns (checkpoint index, model).
    """
    if len(losses) != len(checkpoints):
        raise ValueError(f"{len(losses)} loss rows for {len(checkpoints)} checkpoints")
    _, best_idx = hyperparam_select([(losses, records)], kl_threshold)
    return best_idx, checkpoints[best_idx]


@dataclass
class SelectionState:
    """Streaming selection state holding at most two model snapshots."""

    records: List[AdversaryRecord] = field(default_factory=list)
    best_model_id: int = -1
    best_model_snapshot: Optional[ModelState] = None
    best_value: float = math.inf
    best_losses: Optional[np.ndarray] = None  # the incumbent's validation loss row


def greedy_minmax_update(
    state: SelectionState,
    new_model: ModelState,
    new_model_id: int,
    new_record: Optional[AdversaryRecord],
    new_losses: np.ndarray,
    kl_threshold: float = KL_THRESHOLD_DEFAULT,
) -> SelectionState:
    """Fold one checkpoint into the greedy criterion.

    Appends the new adversary record, then keeps the new model only if its
    worst weighted loss over all surviving records improves strictly on the
    stored best. Only the candidate and the incumbent exist at once. The new
    model's validation loss row is `new_losses`; the incumbent's is kept in
    the state. Raises ValueError when no record survives the KL filter.
    """
    records = list(state.records)
    if new_record is not None:
        records.append(new_record)
    kept = surviving_records(records, kl_threshold)
    if not kept:
        raise ValueError("no adversary record survived the KL filter")
    value = robust_valid_loss(new_losses, kept)
    out = SelectionState(
        records, state.best_model_id, state.best_model_snapshot, state.best_value, state.best_losses
    )
    # re-score the incumbent too: new records can raise its worst case
    if out.best_model_snapshot is not None and new_record is not None:
        out.best_value = robust_valid_loss(out.best_losses, kept)
    if out.best_model_snapshot is None or value < out.best_value:
        out.best_model_id = new_model_id
        out.best_model_snapshot = new_model.copy()
        out.best_value = value
        out.best_losses = new_losses
    return out


def hyperparam_select(
    runs: Sequence[Tuple[Sequence[np.ndarray], Sequence[AdversaryRecord]]],
    kl_threshold: float = KL_THRESHOLD_DEFAULT,
) -> Tuple[int, int]:
    """Pick the best (run, checkpoint) against the pooled adversary records.

    Each run is (one validation loss row per checkpoint, its records). All
    runs' surviving records form one pool; every checkpoint of every run is
    scored against that pool by its row. Returns (run index, checkpoint
    index). With a single run this reduces to minmax_select.
    """
    if not runs:
        raise ValueError("at least one run required")
    pooled: List[AdversaryRecord] = []
    for _, records in runs:
        pooled.extend(surviving_records(records, kl_threshold))
    if not pooled:
        raise ValueError("no adversary record survived the KL filter")
    # (value, run, checkpoint): min keeps the first of equal values
    scored = [(robust_valid_loss(row, pooled), run_idx, ckpt_idx)
              for run_idx, (rows, _) in enumerate(runs) for ckpt_idx, row in enumerate(rows)]
    if not scored:
        raise ValueError("at least one checkpoint required")
    return min(scored)[1:]
