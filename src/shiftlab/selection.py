"""Checkpoint stopping and hyperparameter choice via worst-case validation.

Each adversary snapshot is reduced to its per-example validation weights.
Checkpoints are ranked by their maximum weighted validation loss over the
adversaries whose estimated KL from the data distribution stays under a
threshold; the identity adversary always survives, so plain validation loss
lower-bounds the criterion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .datasets import GroupedDataset
from .diffcore import ModelState, forward_logits_batch, logit_losses

KL_THRESHOLD_DEFAULT = math.log(10.0)
LOSS_KINDS = ("nll", "zero_one")


@dataclass
class AdversaryRecord:
    """Per-validation-example weights of one adversary snapshot, mean 1."""

    id: int
    valid_weights: np.ndarray
    kl_estimate: float = 0.0

    def __post_init__(self):
        self.valid_weights = np.asarray(self.valid_weights, dtype=float)
        if np.any(self.valid_weights < 0):
            raise ValueError("weights must be nonnegative")
        mean = self.valid_weights.mean()
        if abs(mean - 1.0) > 1e-9:
            raise ValueError("weights must have mean 1")


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
    w = normalize_weights(raw_weights)
    return AdversaryRecord(record_id, w, adversary_valid_kl(w))


def identity_record(n: int, record_id: int = 0) -> AdversaryRecord:
    """The unmoved-adversary record: all-ones weights, KL exactly 0."""
    return AdversaryRecord(record_id, np.ones(n), 0.0)


def adversary_valid_kl(weights: np.ndarray) -> float:
    """KL estimate (1/n) sum w log w for mean-1 weights, with 0 log 0 = 0."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    nonzero = w > 0
    return float(np.sum(w[nonzero] * np.log(w[nonzero])) / len(w))


def _valid_losses(model: ModelState, valid: GroupedDataset, loss_kind: str) -> np.ndarray:
    """One checkpoint's validation loss row of loss_kind, from one forward."""
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss_kind: {loss_kind!r}")
    packed = valid.packed(model.spec.architecture)
    return logit_losses(forward_logits_batch(model, packed), packed.labels)[loss_kind]


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
    valid: GroupedDataset,
    kl_threshold: float = KL_THRESHOLD_DEFAULT,
    loss_kind: str = "nll",
    losses: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[int, ModelState]:
    """Checkpoint minimizing the worst weighted validation loss.

    Records above the KL threshold are dropped first; the identity record
    guarantees a survivor. `losses`, when given, holds each checkpoint's
    validation loss row of loss_kind and spares its forward. Returns
    (checkpoint index, model).
    """
    if not checkpoints:
        raise ValueError("at least one checkpoint required")
    _, best_idx, model = hyperparam_select([(checkpoints, records)], valid, kl_threshold, loss_kind,
                                           None if losses is None else [losses])
    return best_idx, model


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
    valid: GroupedDataset,
    kl_threshold: float = KL_THRESHOLD_DEFAULT,
    loss_kind: str = "nll",
    new_losses: Optional[np.ndarray] = None,
) -> SelectionState:
    """Fold one checkpoint into the greedy criterion.

    Appends the new adversary record, then keeps the new model only if its
    worst weighted loss over all surviving records improves strictly on the
    stored best. Only the candidate and the incumbent exist at once. The new
    model's validation loss row is `new_losses` when given, else one forward;
    the incumbent's is kept in the state. Raises ValueError when no record
    survives the KL filter.
    """
    records = list(state.records)
    if new_record is not None:
        records.append(new_record)
    kept = surviving_records(records, kl_threshold)
    if not kept:
        raise ValueError("no adversary record survived the KL filter")
    losses = _valid_losses(new_model, valid, loss_kind) if new_losses is None else new_losses
    value = robust_valid_loss(losses, kept)
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
        out.best_losses = losses
    return out


def hyperparam_select(
    runs: Sequence[Tuple[Sequence[ModelState], Sequence[AdversaryRecord]]],
    valid: GroupedDataset,
    kl_threshold: float = KL_THRESHOLD_DEFAULT,
    loss_kind: str = "nll",
    losses: Optional[Sequence[Sequence[np.ndarray]]] = None,
) -> Tuple[int, int, ModelState]:
    """Pick the best (run, checkpoint) against the pooled adversary records.

    All runs' surviving records form one pool; every checkpoint of every run
    is scored against that pool, by its validation loss row of loss_kind:
    losses[run][checkpoint] when `losses` is given, else one forward each.
    Returns (run index, checkpoint index, model). With a single run this
    reduces to minmax_select.
    """
    if not runs:
        raise ValueError("at least one run required")
    pooled: List[AdversaryRecord] = []
    for _, records in runs:
        pooled.extend(surviving_records(records, kl_threshold))
    if not pooled:
        raise ValueError("no adversary record survived the KL filter")
    best = None
    for run_idx, (checkpoints, _) in enumerate(runs):
        rows = losses[run_idx] if losses is not None else (
            _valid_losses(model, valid, loss_kind) for model in checkpoints)
        for ckpt_idx, (model, row) in enumerate(zip(checkpoints, rows, strict=True)):
            value = robust_valid_loss(row, pooled)
            if best is None or value < best[0]:
                best = (value, run_idx, ckpt_idx, model)
    return best[1], best[2], best[3]
