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
    if np.logical_or.reduce(raw < 0):
        raise ValueError("weights must be nonnegative")
    total = raw.mean()
    if total <= 0:
        raise ValueError("weights must not be all zero")
    return raw / total


def make_record(raw_weights: np.ndarray) -> AdversaryRecord:
    return AdversaryRecord(normalize_weights(raw_weights))


def identity_record(n: int) -> AdversaryRecord:
    """The unmoved-adversary record: all-ones weights, KL exactly 0."""
    return AdversaryRecord(np.ones(n))


def adversary_valid_kl(weights: np.ndarray) -> float:
    """KL estimate (1/n) sum w log w for mean-1 weights, with 0 log 0 = 0."""
    w = np.asarray(weights, dtype=float)
    if np.logical_or.reduce(w < 0):
        raise ValueError("weights must be nonnegative")
    # with no weight at 0, w itself holds the terms
    terms = w if np.logical_and.reduce(w) else w[w > 0]
    return float(np.add.reduce(terms * np.log(terms)) / len(w))


def surviving_records(
    records: Sequence[AdversaryRecord], kl_threshold: float
) -> List[AdversaryRecord]:
    return [r for r in records if r.kl_estimate <= kl_threshold]


def _stacked(records: Sequence[AdversaryRecord]) -> np.ndarray:
    """The records' validation weights as one (records, n) array."""
    if not records:
        raise ValueError("at least one record required")
    return np.array([r.valid_weights for r in records])


def _worst_case(weights: np.ndarray, losses: np.ndarray) -> float:
    """Max over the rows of `weights` of the weighted mean of `losses`, in one pass.

    Each row's sum runs along the last, contiguous axis: the pairwise sum that
    np.mean takes of one row, so every row's mean keeps np.mean's bits.
    """
    return float(np.maximum.reduce(np.add.reduce(weights * losses, axis=1) / weights.shape[1]))


def robust_valid_loss(
    losses: np.ndarray, records: Sequence[AdversaryRecord]
) -> float:
    """Max over records of the weighted mean validation loss."""
    return _worst_case(_stacked(records), losses)


def minmax_select(
    checkpoints: Sequence[ModelState],
    records: Sequence[AdversaryRecord],
    losses: Sequence[np.ndarray],
    kl_threshold: float,
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
    kl_threshold: float,
) -> SelectionState:
    """Fold one checkpoint into the greedy criterion.

    Appends the new adversary record, then keeps the new model only if its
    worst weighted loss over all surviving records improves strictly on the
    stored best. Only the candidate and the incumbent exist at once, and the state keeps
    the incumbent by reference, not a copy: the caller must not mutate a model it passed
    in. The new model's validation loss row is `new_losses`; the incumbent's is kept in
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
        out.best_model_snapshot = new_model
        out.best_value = value
        out.best_losses = new_losses
    return out


def hyperparam_select(
    runs: Sequence[Tuple[Sequence[np.ndarray], Sequence[AdversaryRecord]]],
    kl_threshold: float,
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
    weights = _stacked(pooled)
    # (value, run, checkpoint): min keeps the first of equal values
    scored = [(_worst_case(weights, row), run_idx, ckpt_idx)
              for run_idx, (rows, _) in enumerate(runs) for ckpt_idx, row in enumerate(rows)]
    if not scored:
        raise ValueError("at least one checkpoint required")
    return min(scored)[1:]
