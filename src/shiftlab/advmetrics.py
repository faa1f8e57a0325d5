"""Perturbation-evaluation math and attack primitives.

Character n-gram F-score, relative target-score decrease and attack success,
out-of-vocabulary character scrambling, nearest-neighbor substitution
constraints and exhaustive first-order substitution search.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .diffcore import Example, ModelState, grad_wrt_embeddings


class NoCandidateError(ValueError):
    """The substitution constraint admitted no candidate pair."""


@dataclass(frozen=True)
class CharSwapConfig:
    max_scrambling: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.max_scrambling < 1:
            raise ValueError("max_scrambling must be >= 1")


@dataclass(frozen=True)
class EmbeddingTable:
    """Embedding matrix paired with its token vocabulary; the vectors are a
    read-only copy, so neighbour tables built from them stay valid."""

    vectors: np.ndarray
    vocabulary: List[str]
    _neighbours: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=float)
        vectors.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        if vectors.shape[0] != len(self.vocabulary):
            raise ValueError("vector rows must match vocabulary size")

    def neighbours(self, k: int) -> np.ndarray:
        """(vocab, k) ids whose row t is knn_candidates(t, self, k), built once per k."""
        if k not in self._neighbours:
            self._neighbours[k] = np.array(
                [knn_candidates(t, self, k) for t in range(len(self.vocabulary))])
        return self._neighbours[k]


def _normalize_ws(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip())


def chrf(reference: str, hypothesis: str, max_n: int = 6, beta: float = 2.0) -> float:
    """Character n-gram F-score in [0, 100].

    Precision and recall are micro-averaged within each n-gram order, then
    macro-averaged across orders 1..max_n before the single F_beta is taken.
    Orders where neither string has n-grams are skipped; two empty strings
    score 100 by the identity convention.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ref = _normalize_ws(reference)
    hyp = _normalize_ws(hypothesis)
    if not ref and not hyp:
        return 100.0
    precisions = []
    recalls = []
    for n in range(1, max_n + 1):
        ref_grams = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        hyp_grams = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        ref_total = sum(ref_grams.values())
        hyp_total = sum(hyp_grams.values())
        if ref_total == 0 and hyp_total == 0:
            continue
        matches = sum((ref_grams & hyp_grams).values())
        precisions.append(matches / hyp_total if hyp_total else 0.0)
        recalls.append(matches / ref_total if ref_total else 0.0)
    if not precisions:
        return 100.0
    p = float(np.mean(precisions))
    r = float(np.mean(recalls))
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = beta * beta
    return 100.0 * (1.0 + b2) * p * r / (b2 * p + r)


def d_tgt(s_base: float, s_adv: float) -> float:
    """Relative drop of the target-side score, clamped to [0, 1]."""
    if s_base < 0 or s_adv < 0:
        raise ValueError("scores must be nonnegative")
    if s_base == 0 or s_adv >= s_base:
        return 0.0
    return (s_base - s_adv) / s_base


def success(s_src: float, d_tgt_val: float) -> float:
    """Attack success S = s_src + d_tgt; S > 1 marks a successful attack."""
    if not 0 <= s_src <= 1 or not 0 <= d_tgt_val <= 1:
        raise ValueError("inputs must lie in [0, 1]")
    return s_src + d_tgt_val


def char_swap_oov(word: str, vocab: Set[str], config: CharSwapConfig) -> str:
    """Scramble a word until it falls outside the vocabulary.

    Words longer than 3 characters get up to max_scrambling adjacent-letter
    swaps at a position drawn from [1, L-3]; if still in vocabulary (or the
    word is short) the last character is repeated until out of vocabulary.
    """
    if not word:
        raise ValueError("word must be non-empty")
    rng = np.random.default_rng(config.seed)
    out = word
    if len(word) > 3:
        for _ in range(config.max_scrambling):
            pos = int(rng.integers(1, len(word) - 3 + 1))
            out = out[:pos] + out[pos + 1] + out[pos] + out[pos + 2 :]
            if out not in vocab:
                return out
    while out in vocab:
        out = out + out[-1]
    return out


def knn_candidates(token_id: int, table: EmbeddingTable, k: int = 10) -> List[int]:
    """Ids of the k nearest vectors by Euclidean distance, excluding self.

    Distance ties are broken toward the lower token id.
    """
    n = table.vectors.shape[0]
    if not 0 <= token_id < n:
        raise ValueError("token_id out of range")
    if k >= n:
        raise ValueError("k must be smaller than the vocabulary size")
    dists = np.linalg.norm(table.vectors - table.vectors[token_id], axis=1)
    ids = np.arange(n)
    order = np.lexsort((ids, dists))
    return [int(i) for i in order if i != token_id][:k]


def _admitted_candidates(
    token_id: int,
    table: EmbeddingTable,
    constraint: str,
    k: int,
    oov_id: Optional[int],
) -> List[int]:
    if constraint == "none":
        return [i for i in range(table.vectors.shape[0]) if i != token_id]
    if constraint == "knn":
        if not 0 <= token_id < table.vectors.shape[0]:
            raise ValueError("token_id out of range")
        return table.neighbours(k)[token_id]
    if constraint == "charswap-oov":
        if oov_id is None:
            raise ValueError("charswap-oov constraint requires oov_id")
        return [oov_id] if oov_id != token_id else []
    raise ValueError(f"unknown constraint: {constraint!r}")


def first_order_substitution(
    position_grads: np.ndarray,
    current_ids: Sequence[int],
    table: EmbeddingTable,
    constraint: str = "none",
    sign_normalize: bool = False,
    k: int = 10,
    oov_id: Optional[int] = None,
) -> Tuple[int, int]:
    """Best single-token substitution under a first-order loss model.

    Maximizes (e_new - e_current) . grad over all admitted (position, token)
    pairs; ties go to the lowest position, then lowest token id. Returns
    (position, token id).
    """
    grads = np.asarray(position_grads, dtype=float)
    if grads.shape != (len(current_ids), table.vectors.shape[1]):
        raise ValueError("position_grads shape must be (positions, embed_dim)")
    if sign_normalize:
        grads = np.sign(grads)
    best = None
    for pos, tok in enumerate(current_ids):
        candidates = np.asarray(_admitted_candidates(int(tok), table, constraint, k, oov_id))
        if candidates.size == 0:
            continue
        scores = (table.vectors[candidates] - table.vectors[int(tok)]) @ grads[pos]
        top = scores.max()
        key = (-top, pos, int(candidates[scores == top].min()))
        if best is None or key < best:
            best = key
    if best is None:
        raise NoCandidateError("no admissible substitution candidates")
    return best[1], best[2]


def attack_example(
    model: ModelState,
    example: Example,
    table: EmbeddingTable,
    constraint: str = "none",
    sign_normalize: bool = False,
    k: int = 10,
    oov_id: Optional[int] = None,
) -> Example:
    """One first-order substitution applied to a token-sequence example."""
    grads = grad_wrt_embeddings(model, example, loss_kind="adversarial")
    pos, tok = first_order_substitution(
        grads, list(example.input), table, constraint, sign_normalize, k, oov_id
    )
    new_ids = np.array(example.input, dtype=int).copy()
    new_ids[pos] = tok
    return Example(input=new_ids, label=example.label, group=example.group, id=example.id)
