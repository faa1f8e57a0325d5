"""Perturbation-evaluation math and attack primitives.

Character n-gram F-score, relative target-score decrease and attack success,
nearest-neighbor substitution constraints and exhaustive first-order
substitution search. The F-score and the attack work on all pairs or packed
token rows of a split at once; chrf, first_order_substitution and
attack_example are one-row calls into them.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .diffcore import ModelState, Packed, grad_wrt_embeddings_batch

CONSTRAINTS = ("none", "knn")

# chrF's n-gram orders 1..CHRF_ORDER and its recall weight beta
CHRF_ORDER, CHRF_BETA = 6, 2.0

# chrF pairs and searched token positions per block: fixed blocks bound the
# temporaries of the whole-split kernels
_PAIR_BLOCK = 64
_TOKEN_BLOCK = 256


class NoCandidateError(ValueError):
    """The substitution constraint admitted no candidate pair."""


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def chrf(reference: str, hypothesis: str) -> float:
    """Character n-gram F-score in [0, 100]: chrf_batch of one pair."""
    return float(chrf_batch([reference], [hypothesis])[0])


def chrf_batch(references: Sequence[str], hypotheses: Sequence[str]) -> np.ndarray:
    """Character n-gram F-score in [0, 100] of each (reference, hypothesis) pair.

    Whitespace runs are collapsed to one space and the ends stripped first.
    Precision and recall are micro-averaged within each n-gram order, then
    macro-averaged across orders 1..CHRF_ORDER before F_beta (beta = CHRF_BETA) is taken.
    Orders where neither string has n-grams are skipped; two empty strings
    score 100 by the identity convention.
    """
    if len(references) != len(hypotheses):
        raise ValueError("references and hypotheses must pair up")
    scores = np.empty(len(references))
    for lo in range(0, len(references), _PAIR_BLOCK):
        hi = lo + _PAIR_BLOCK
        scores[lo:hi] = _chrf_block(references[lo:hi], hypotheses[lo:hi])
    return scores


def _chrf_block(references: Sequence[str], hypotheses: Sequence[str]) -> np.ndarray:
    """chrf_batch of one block of pairs."""
    texts = [_normalize_ws(t) for t in [*references, *hypotheses]]
    pairs = len(references)
    lengths = np.array([len(t) for t in texts], dtype=int)
    matches = _ngram_matches(texts, lengths)
    orders = np.arange(1, CHRF_ORDER + 1)
    # an order a string has no n-grams of has no matches either: 0 / 1 = 0.0
    totals = np.maximum(lengths[:, None] - orders + 1, 1)
    precision = matches / totals[pairs:]
    recall = matches / totals[:pairs]
    # the orders some string of the pair has n-grams of are a prefix 1..used
    used = np.minimum(np.maximum(lengths[:pairs], lengths[pairs:]), CHRF_ORDER)
    p = np.zeros(pairs)
    r = np.zeros(pairs)
    for n in range(1, CHRF_ORDER + 1):
        sel = used == n
        # a row sum is the same pairwise sum as np.mean takes over one pair's orders
        p[sel] = precision[sel, :n].sum(axis=1) / n
        r[sel] = recall[sel, :n].sum(axis=1) / n
    b2 = CHRF_BETA * CHRF_BETA
    with np.errstate(divide="ignore", invalid="ignore"):
        score = 100.0 * (1.0 + b2) * p * r / (b2 * p + r)
    return np.where(used == 0, 100.0, np.where((p == 0.0) & (r == 0.0), 0.0, score))


def _ngram_matches(texts: Sequence[str], lengths: np.ndarray) -> np.ndarray:
    """(pairs, CHRF_ORDER) clipped n-gram match counts; texts are the pairs'
    references followed by their hypotheses in the same order.

    Each character gets one key: its pair, then the symbols of the window of
    the largest order that starts at it. One sort of the keys makes the
    windows of each pair that share an order-n gram a run, for every n."""
    pairs, size = len(texts) // 2, int(lengths.sum())
    width = min(CHRF_ORDER, lengths.max(initial=0))
    if width == 0:
        return np.zeros((pairs, CHRF_ORDER), dtype=int)
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    ordered = np.sort(codes)  # np.unique(codes) takes several times as long
    chars = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    # a symbol is 1 + its character's rank; past the end of its text a window
    # reads 0 for a reference and alphabet - 1 for a hypothesis, so that it
    # agrees with no window of the other side
    alphabet = len(chars) + 2
    owner = np.repeat(np.arange(len(texts)), lengths)
    side = owner >= pairs  # True for a hypothesis
    # each text is followed by `width` padding symbols: the window of
    # character i is symbols[at[i]:at[i] + width]
    at = np.arange(size) + width * owner
    symbols = np.zeros(size + width * len(texts), dtype=np.int64)
    symbols[lengths[:pairs].sum() + width * pairs:] = alphabet - 1
    symbols[at] = np.searchsorted(chars, codes) + 1
    key, span = owner - pairs * side, pairs
    for j in range(width):
        key, span = _append_digit(key, span, symbols[at + j], alphabet)
    # the index as the last digit: the sorted keys give their order as well
    key, span = _append_digit(key, span, np.arange(size), size)
    order = np.sort(key) % size
    at, pair = at[order], owner[order] % pairs
    hypotheses = np.concatenate(([0], np.cumsum(side[order])))
    # starts[n - 1, k]: sorted character k begins a run of windows whose pair
    # and first n symbols agree, one order-n gram of one pair
    starts = np.empty((width, size), dtype=bool)
    starts[:, 0] = True
    boundary = pair[1:] != pair[:-1]
    for j in range(width):
        column = symbols[at + j]
        boundary |= column[1:] != column[:-1]
        starts[j, 1:] = boundary
    runs = np.flatnonzero(starts)
    gram = np.repeat(np.arange(width), np.count_nonzero(starts, axis=1))  # n - 1
    row = gram * size
    first, end = runs - row, np.append(runs[1:], width * size) - row
    hyp = hypotheses[end] - hypotheses[first]
    counts = np.bincount(pair[first] * CHRF_ORDER + gram, np.minimum(end - first - hyp, hyp),
                         pairs * CHRF_ORDER)
    return counts.reshape(pairs, CHRF_ORDER).astype(int)


def _append_digit(key: np.ndarray, span: int, digit: np.ndarray, radix: int):
    """(key * radix + digit, its span) for keys in [0, span) and digits in
    [0, radix); the keys are first renumbered densely, which keeps their
    order, when the result could pass the int64 range."""
    if span * radix > 2 ** 63:
        key = np.unique(key, return_inverse=True)[1]
        span = int(key.max()) + 1
    return key * radix + digit, span * radix


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


def knn_candidates(token_id: int, vectors: np.ndarray, k: int) -> List[int]:
    """Ids of the k rows of the (vocab, dim) embedding matrix nearest to row
    token_id by Euclidean distance, excluding token_id itself.

    Distance ties are broken toward the lower token id.
    """
    n = vectors.shape[0]
    if not 0 <= token_id < n:
        raise ValueError("token_id out of range")
    if not 1 <= k < n:
        raise ValueError(f"k must be smaller than the vocabulary size and >= 1, got {k}")
    dists = np.linalg.norm(vectors - vectors[token_id], axis=1)
    ids = np.arange(n)
    order = np.lexsort((ids, dists))
    return [int(i) for i in order if i != token_id][:k]


def _candidate_table(vectors: np.ndarray, constraint: str, k: int) -> np.ndarray:
    """(vocab, m) admitted substitutes of each token id, in the order they are scored."""
    vocab = vectors.shape[0]
    if constraint == "none":
        ids = np.arange(vocab - 1)
        return ids + (ids >= np.arange(vocab)[:, None])
    if constraint == "knn":
        return np.array([knn_candidates(t, vectors, k) for t in range(vocab)])
    raise ValueError(f"unknown constraint: {constraint!r}")


def _substitute_rows(
    grads: np.ndarray,
    grad_rows: np.ndarray,
    tokens: np.ndarray,
    offsets: np.ndarray,
    vectors: np.ndarray,
    candidates: np.ndarray,
    sign_normalize: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best single-token substitution of each token row under a first-order
    loss model. Row i is tokens[offsets[i]:offsets[i + 1]]; the token at flat
    position j is scored against the gradient grads[grad_rows[j]], and token t
    may become any id of candidates[t] (a _candidate_table over `vectors`).

    Maximizes (e_new - e_current) . grad over all admitted (position, token)
    pairs of a row; ties go to the lowest position, then the lowest token id.
    Returns (position within the row, token id) arrays, one entry per row.
    """
    vocab = vectors.shape[0]
    if tokens.size and not 0 <= tokens.min() <= tokens.max() < vocab:
        raise ValueError("token_id out of range")
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
    vectors: np.ndarray,
    constraint: str,
    sign_normalize: bool,
    k: int,
) -> Tuple[int, int]:
    """Best single-token substitution of one sequence, with one gradient per
    position: the one-row case of the split-wide search. Maximizes
    (e_new - e_current) . grad over all admitted (position, token) pairs of
    the (vocab, dim) embedding matrix `vectors`; ties go to the lowest
    position, then lowest token id. Returns (position, token id)."""
    grads = np.asarray(position_grads, dtype=float)
    ids = np.asarray(current_ids, dtype=int)
    if grads.shape != (ids.size, vectors.shape[1]):
        raise ValueError("position_grads shape must be (positions, embed_dim)")
    pos, tok = _substitute_rows(grads, np.arange(ids.size), ids, np.array([0, ids.size]),
                                vectors, _candidate_table(vectors, constraint, k), sign_normalize)
    return int(pos[0]), int(tok[0])


def attack_rows(model: ModelState, rows: Packed, vectors: np.ndarray, constraint: str,
                sign_normalize: bool, k: int, steps: int) -> Packed:
    """`steps` rounds of one first-order substitution in every token row at
    once, each against the adversarial-loss gradient of the rows so far; a
    mean-pooled bag has one gradient per row, shared by its positions.
    `vectors` is the (vocab, dim) embedding matrix the substitutes come from."""
    adv = Packed(rows.labels, rows.groups, tokens=rows.tokens.copy(), offsets=rows.offsets)
    row_of = np.repeat(np.arange(len(adv)), np.diff(adv.offsets))
    candidates = _candidate_table(vectors, constraint, k)
    for _ in range(steps):
        grads = grad_wrt_embeddings_batch(model, adv)
        pos, tok = _substitute_rows(grads, row_of, adv.tokens, adv.offsets, vectors,
                                    candidates, sign_normalize)
        adv.tokens[adv.offsets[:-1] + pos] = tok
    return adv


def attack_example(model: ModelState, row: Packed, vectors: np.ndarray, constraint: str,
                   sign_normalize: bool, k: int) -> Packed:
    """One first-order substitution applied to a one-row token batch:
    attack_rows of that row for one step."""
    return attack_rows(model, row, vectors, constraint, sign_normalize, k, 1)
