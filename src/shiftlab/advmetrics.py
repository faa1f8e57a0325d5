"""Perturbation-evaluation math and attack primitives.

Character n-gram F-score, relative target-score decrease and attack success,
nearest-neighbor substitution constraints and exhaustive first-order
substitution search. The F-score and the attack work on all pairs or token
rows of a split at once; the one-example functions are one-row calls into them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .diffcore import Example, ModelState, Packed, grad_wrt_embeddings_batch, pack

CONSTRAINTS = ("none", "knn")

# chrF pairs and searched token positions per block: fixed blocks bound the
# temporaries of the whole-split kernels
_PAIR_BLOCK = 64
_TOKEN_BLOCK = 256


class NoCandidateError(ValueError):
    """The substitution constraint admitted no candidate pair."""


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
    return " ".join(text.split())


def chrf(reference: str, hypothesis: str, max_n: int = 6, beta: float = 2.0) -> float:
    """Character n-gram F-score in [0, 100]: chrf_batch of one pair."""
    return float(chrf_batch([reference], [hypothesis], max_n, beta)[0])


def chrf_batch(references: Sequence[str], hypotheses: Sequence[str],
               max_n: int = 6, beta: float = 2.0) -> np.ndarray:
    """Character n-gram F-score in [0, 100] of each (reference, hypothesis) pair.

    Whitespace runs are collapsed to one space and the ends stripped first.
    Precision and recall are micro-averaged within each n-gram order, then
    macro-averaged across orders 1..max_n before the single F_beta is taken.
    Orders where neither string has n-grams are skipped; two empty strings
    score 100 by the identity convention.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if len(references) != len(hypotheses):
        raise ValueError("references and hypotheses must pair up")
    scores = np.empty(len(references))
    for lo in range(0, len(references), _PAIR_BLOCK):
        hi = lo + _PAIR_BLOCK
        scores[lo:hi] = _chrf_block(references[lo:hi], hypotheses[lo:hi], max_n, beta)
    return scores


def _chrf_block(references: Sequence[str], hypotheses: Sequence[str],
                max_n: int, beta: float) -> np.ndarray:
    """chrf_batch of one block of pairs."""
    texts = [_normalize_ws(t) for t in [*references, *hypotheses]]
    pairs = len(references)
    lengths = np.array([len(t) for t in texts], dtype=int)
    matches = _ngram_matches(texts, lengths, max_n)
    orders = np.arange(1, max_n + 1)
    # an order a string has no n-grams of has no matches either: 0 / 1 = 0.0
    totals = np.maximum(lengths[:, None] - orders + 1, 1)
    precision = matches / totals[pairs:]
    recall = matches / totals[:pairs]
    # the orders some string of the pair has n-grams of are a prefix 1..used
    used = np.minimum(np.maximum(lengths[:pairs], lengths[pairs:]), max_n)
    p = np.zeros(pairs)
    r = np.zeros(pairs)
    for n in range(1, max_n + 1):
        sel = used == n
        # a row sum is the same pairwise sum as np.mean takes over one pair's orders
        p[sel] = precision[sel, :n].sum(axis=1) / n
        r[sel] = recall[sel, :n].sum(axis=1) / n
    b2 = beta * beta
    with np.errstate(divide="ignore", invalid="ignore"):
        score = 100.0 * (1.0 + b2) * p * r / (b2 * p + r)
    return np.where(used == 0, 100.0, np.where((p == 0.0) & (r == 0.0), 0.0, score))


def _ngram_matches(texts: Sequence[str], lengths: np.ndarray, max_n: int) -> np.ndarray:
    """(pairs, max_n) clipped n-gram match counts; texts are the pairs'
    references followed by their hypotheses in the same order."""
    pairs = len(texts) // 2
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    chars, rank = np.unique(codes, return_inverse=True)
    # each character's pair, side (0 reference, 1 hypothesis) and the number
    # of characters left in its text from it on
    owner = np.repeat(np.arange(len(texts)), lengths)
    pair, side = owner % pairs, owner // pairs
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(codes.size)
    out = np.zeros((pairs, max_n), dtype=int)
    gram, span = rank.astype(np.int64), len(chars)  # gram ids lie in [0, span)
    for n in range(1, min(max_n, lengths.max(initial=0)) + 1):
        if n > 1:
            if span * len(chars) * 2 * pairs >= 2 ** 62:
                gram = np.unique(gram, return_inverse=True)[1].astype(np.int64)
                span = int(gram.max()) + 1
            # the order-n gram at i is the order n-1 gram at i, then character i + n - 1
            m = codes.size - n + 1
            gram[:m] = gram[:m] * len(chars) + rank[n - 1:]
            span *= len(chars)
        valid = left >= n
        keys = ((pair[valid] * span + gram[valid]) << 1) | side[valid]
        uniq, counts = np.unique(keys, return_counts=True)
        # a (pair, gram) in both texts is its reference key then its hypothesis key
        both = (uniq[1:] >> 1) == (uniq[:-1] >> 1)
        out[:, n - 1] = np.bincount((uniq[:-1][both] >> 1) // span,
                                    np.minimum(counts[:-1], counts[1:])[both], pairs)
    return out


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


def knn_candidates(token_id: int, table: EmbeddingTable, k: int = 10) -> List[int]:
    """Ids of the k nearest vectors by Euclidean distance, excluding self.

    Distance ties are broken toward the lower token id.
    """
    n = table.vectors.shape[0]
    if not 0 <= token_id < n:
        raise ValueError("token_id out of range")
    if not 1 <= k < n:
        raise ValueError(f"k must be smaller than the vocabulary size and >= 1, got {k}")
    dists = np.linalg.norm(table.vectors - table.vectors[token_id], axis=1)
    ids = np.arange(n)
    order = np.lexsort((ids, dists))
    return [int(i) for i in order if i != token_id][:k]


def _candidate_table(table: EmbeddingTable, constraint: str, k: int) -> np.ndarray:
    """(vocab, m) admitted substitutes of each token id, in the order they are scored."""
    vocab = table.vectors.shape[0]
    if constraint == "none":
        ids = np.arange(vocab - 1)
        return ids + (ids >= np.arange(vocab)[:, None])
    if constraint == "knn":
        return table.neighbours(k)
    raise ValueError(f"unknown constraint: {constraint!r}")


def _substitute_rows(
    grads: np.ndarray,
    grad_rows: np.ndarray,
    tokens: np.ndarray,
    offsets: np.ndarray,
    table: EmbeddingTable,
    constraint: str,
    sign_normalize: bool,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best single-token substitution of each token row under a first-order
    loss model. Row i is tokens[offsets[i]:offsets[i + 1]]; the token at flat
    position j is scored against the gradient grads[grad_rows[j]].

    Maximizes (e_new - e_current) . grad over all admitted (position, token)
    pairs of a row; ties go to the lowest position, then the lowest token id.
    Returns (position within the row, token id) arrays, one entry per row.
    """
    vectors = table.vectors
    vocab = vectors.shape[0]
    if tokens.size and not 0 <= tokens.min() <= tokens.max() < vocab:
        raise ValueError("token_id out of range")
    candidates = _candidate_table(table, constraint, k)
    lengths = np.diff(offsets)
    if candidates.shape[1] == 0 or lengths.min(initial=1) < 1:
        raise NoCandidateError("no admissible substitution candidates")
    if sign_normalize:
        grads = np.sign(grads)
    top = np.full(tokens.size, -np.inf)
    best = np.zeros(tokens.size, dtype=int)
    for lo in range(0, tokens.size, _TOKEN_BLOCK):
        block = slice(lo, lo + _TOKEN_BLOCK)
        tok = tokens[block]
        cand = candidates[tok]
        # one (candidates, dim) @ (dim,) product per position, as for a single position
        diff = vectors[cand] - vectors[tok][:, None, :]
        scores = np.matmul(diff, grads[grad_rows[block]][:, :, None])[:, :, 0]
        top[block] = high = scores.max(axis=1)
        best[block] = np.where(scores == high[:, None], cand, vocab).min(axis=1)
    row_top = np.maximum.reduceat(top, offsets[:-1])
    # an infinite gradient can score every candidate of a row -inf
    if np.isneginf(row_top).any():
        raise NoCandidateError("no admissible substitution candidates")
    # the first position of each row that reaches the row's top score
    index = np.where(top == np.repeat(row_top, lengths), np.arange(tokens.size), tokens.size)
    first = np.minimum.reduceat(index, offsets[:-1])
    return first - offsets[:-1], best[first]


def first_order_substitution(
    position_grads: np.ndarray,
    current_ids: Sequence[int],
    table: EmbeddingTable,
    constraint: str = "none",
    sign_normalize: bool = False,
    k: int = 10,
) -> Tuple[int, int]:
    """Best single-token substitution of one sequence, with one gradient per
    position: the one-row case of the split-wide search. Maximizes
    (e_new - e_current) . grad over all admitted (position, token) pairs;
    ties go to the lowest position, then lowest token id. Returns
    (position, token id)."""
    grads = np.asarray(position_grads, dtype=float)
    ids = np.asarray(current_ids, dtype=int)
    if grads.shape != (ids.size, table.vectors.shape[1]):
        raise ValueError("position_grads shape must be (positions, embed_dim)")
    pos, tok = _substitute_rows(grads, np.arange(ids.size), ids, np.array([0, ids.size]),
                                table, constraint, sign_normalize, k)
    return int(pos[0]), int(tok[0])


def attack_rows(
    model: ModelState,
    rows: Packed,
    table: EmbeddingTable,
    constraint: str = "none",
    sign_normalize: bool = False,
    k: int = 10,
    steps: int = 1,
) -> Packed:
    """`steps` rounds of one first-order substitution in every token row at
    once, each against the adversarial-loss gradient of the rows so far; a
    mean-pooled bag has one gradient per row, shared by its positions."""
    adv = Packed(rows.labels, rows.groups, tokens=rows.tokens.copy(), offsets=rows.offsets)
    row_of = np.repeat(np.arange(len(adv)), np.diff(adv.offsets))
    for _ in range(steps):
        grads = grad_wrt_embeddings_batch(model, adv, loss_kind="adversarial")
        pos, tok = _substitute_rows(grads, row_of, adv.tokens, adv.offsets, table,
                                    constraint, sign_normalize, k)
        adv.tokens[adv.offsets[:-1] + pos] = tok
    return adv


def attack_example(
    model: ModelState,
    example: Example,
    table: EmbeddingTable,
    constraint: str = "none",
    sign_normalize: bool = False,
    k: int = 10,
) -> Example:
    """One first-order substitution applied to a token-sequence example:
    attack_rows of one row."""
    rows = attack_rows(model, pack([example], tokens=True), table, constraint, sign_normalize, k)
    return Example(input=rows.tokens, label=example.label, group=example.group, id=example.id)
