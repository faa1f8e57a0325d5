import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import packed_rows
from shiftlab import advmetrics, harness
from shiftlab.advmetrics import (
    NoCandidateError,
    _candidate_table,
    _normalize_ws,
    attack_example,
    attack_rows,
    chrf,
    chrf_batch,
    d_tgt,
    first_order_substitution,
    knn_candidates,
    success,
)
from shiftlab.datasets import DistractorTextSpec, gen_distractor_text
from shiftlab.diffcore import ModelSpec, grad_wrt_embeddings, init_params


def test_chrf_identity_and_empty():
    assert chrf("hello world", "hello world") == 100.0
    assert chrf("", "") == 100.0
    assert chrf("  spaced   out ", "spaced out") == 100.0  # whitespace normalized


def test_chrf_disjoint_strings_score_zero():
    assert chrf("aaaa", "bbbb") == 0.0


def test_chrf_recall_weighting():
    # swapping the strings swaps precision and recall; a prefix of the
    # reference has the lower recall, and beta 2 weights recall, so it scores lower
    assert chrf("abcdef", "abc") < chrf("abc", "abcdef")


def test_chrf_hand_computed_unigram_case():
    # ref "ab", hyp "ac" have orders 1 and 2 only: order 1 p=r=1/2; order 2 p=r=0
    p = r = 0.25
    expected = 100.0 * 5 * p * r / (4 * p + r)
    assert chrf("ab", "ac") == pytest.approx(expected)


def test_d_tgt_cases():
    assert d_tgt(0.8, 0.2) == pytest.approx(0.75)
    assert d_tgt(0.5, 0.7) == 0.0  # score went up
    assert d_tgt(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        d_tgt(-0.1, 0.5)


def test_success_sum_and_bounds():
    assert success(0.6, 0.5) == pytest.approx(1.1)
    assert success(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        success(1.5, 0.0)
    with pytest.raises(ValueError):
        success(0.5, -0.1)


def test_knn_candidates_hand_case():
    vectors = np.array([[0.0], [1.0], [2.0], [10.0]])
    assert knn_candidates(0, vectors, k=2) == [1, 2]
    assert knn_candidates(1, vectors, k=2) == [0, 2]  # tie at distance 1 -> lower id
    with pytest.raises(ValueError):
        knn_candidates(5, vectors, k=1)
    for k in (4, 0, -1):
        with pytest.raises(ValueError, match="k must be smaller than the vocabulary size and >= 1"):
            knn_candidates(0, vectors, k=k)


def naive_substitution(grads, current_ids, vectors, candidates_for, sign_normalize=False):
    g = np.sign(grads) if sign_normalize else grads
    best = None
    for pos, tok in enumerate(current_ids):
        for cand in candidates_for(int(tok)):
            score = float((vectors[cand] - vectors[int(tok)]) @ g[pos])
            key = (-score, pos, cand)
            if best is None or key < best:
                best = key
    return (best[1], best[2]) if best else None


def test_first_order_substitution_hand_case():
    vectors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.array([[1.0, 0.0]])
    pos, tok = first_order_substitution(grads, [0], vectors, "none", False, 10)
    assert (pos, tok) == (0, 1)  # moving along the gradient maximizes the score


def test_first_order_substitution_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vocab = int(rng.integers(3, 12))
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        vectors = rng.standard_normal((vocab, dim))
        ids = [int(i) for i in rng.integers(0, vocab, size=n)]
        grads = rng.standard_normal((n, dim))
        got = first_order_substitution(grads, ids, vectors, "none", False, 10)
        want = naive_substitution(
            grads, ids, vectors, lambda t: [i for i in range(vocab) if i != t]
        )
        assert got == want


def test_first_order_substitution_constraints_and_errors():
    vectors = np.array([[0.0], [1.0], [2.0]])
    grads = np.ones((1, 1))
    assert first_order_substitution(grads, [0], vectors, "knn", False, 1) == (0, 1)
    with pytest.raises(NoCandidateError):  # a one-token vocabulary has no substitute
        first_order_substitution(grads, [0], vectors[:1], "none", False, 10)
    with pytest.raises(NoCandidateError):  # every candidate scores -inf
        first_order_substitution(-np.inf * grads, [0], vectors, "none", False, 10)
    with pytest.raises(ValueError):
        first_order_substitution(grads, [0], vectors, "mystery", False, 10)
    with pytest.raises(ValueError):
        first_order_substitution(np.ones((2, 1)), [0], vectors, "none", False, 10)


def test_sign_normalization_changes_the_ranking():
    vectors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0]])
    grads = np.array([[0.1, 0.9]])
    assert first_order_substitution(grads, [0], vectors, "none", False, 10) == (0, 1)
    assert first_order_substitution(grads, [0], vectors, "none", True, 10) == (0, 1)
    grads = np.array([[0.05, 0.9]])
    # raw scores favor the long vector; signed gradients favor the aligned one
    assert first_order_substitution(grads, [0], vectors, "none", False, 10) == (0, 2)
    assert first_order_substitution(grads, [0], vectors, "none", True, 10) == (0, 1)


def test_attack_example_changes_exactly_one_position():
    spec = ModelSpec("embed_bag", vocab_size=10, embed_dim=4)
    model = init_params(spec, seed=0)
    row = packed_rows([(np.array([1, 4, 7]), 1, 0)])
    adv = attack_example(model, row, model.slot("embedding.weight"), "none", False, 10)
    assert (adv.labels.tolist(), adv.groups.tolist()) == ([1], [0])
    assert adv.offsets.tolist() == [0, 3]
    diffs = np.sum(adv.tokens != row.tokens)
    assert diffs == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 16), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_neighbour_table_equals_knn_candidates(vocab, dim, seed, data):
    # vectors on a small integer grid, so distance ties are common
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-2, 3, size=(vocab, dim)).astype(float)
    ks = data.draw(st.lists(st.integers(1, vocab - 1), min_size=1, max_size=3))
    for k in ks:
        rows = _candidate_table(vectors, "knn", k)
        assert rows.shape == (vocab, k)
        for t in range(vocab):
            assert rows[t].tolist() == knn_candidates(t, vectors, k)
    ids = [int(i) for i in rng.integers(0, vocab, size=3)]
    grads = rng.standard_normal((3, dim))
    got = first_order_substitution(grads, ids, vectors, "knn", False, ks[0])
    assert got == naive_substitution(grads, ids, vectors, lambda t: knn_candidates(t, vectors, ks[0]))


def test_attack_leaves_the_model_parameters_alone(tmp_path):
    # the attack reads the embedding matrix in place, as a view of the parameters
    model = init_params(ModelSpec("embed_bag", vocab_size=32, embed_dim=8), seed=0)
    before = model.params.tobytes()
    for constraint in ("none", "knn"):
        cfg = {"dataset": "distractor", "attack.n": 20, "data.test_n": 40, "attack.steps": 2,
               "attack.constraint": constraint}
        harness.cmd_attack(cfg, 0, str(tmp_path / constraint), model=model)
        assert model.params.tobytes() == before
        with pytest.raises(ValueError, match="token_id out of range"):
            first_order_substitution(np.ones((1, 8)), [32], model.slot("embedding.weight"),
                                     constraint, False, 1)


# -- batched chrF against the per-pair Counter version it replaced ------------


def counter_chrf(reference, hypothesis):
    """chrF of one pair with one Counter per string and order 1..6, beta 2."""
    ref = re.sub(r"\s+", " ", reference.strip())
    hyp = re.sub(r"\s+", " ", hypothesis.strip())
    if not ref and not hyp:
        return 100.0
    precisions = []
    recalls = []
    for n in range(1, 7):
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
    b2 = 4.0
    return 100.0 * (1.0 + b2) * p * r / (b2 * p + r)


# small alphabets with whitespace runs and code points above 0xFFFF, so
# n-grams repeat and match; any character at all besides
TEXT = st.text(st.sampled_from(["a", "b", " ", "\t", "\n", "\U0001F600", "\U00010400"])
               | st.characters(), max_size=24)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=6))
def test_chrf_batch_equals_counter_chrf(pairs):
    refs = [r for r, _ in pairs]
    hyps = [h for _, h in pairs]
    want = [counter_chrf(r, h) for r, h in pairs]
    assert chrf_batch(refs, hyps).tolist() == want
    assert [chrf(r, h) for r, h in pairs] == want


# every code point str.split and str.strip treat as whitespace
SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def regex_normalize_ws(text):
    return re.sub(r"\s+", " ", text.strip())


def test_normalize_ws_matches_the_regex_on_every_whitespace_code_point():
    assert len(SPACES) == 29
    for c in SPACES:
        for text in (c, f"a{c}b", f"{c}a{c}{c}b{c}", c * 3):
            assert _normalize_ws(text) == regex_normalize_ws(text)
    mixed = "".join(SPACES)
    text = f"{mixed}x{mixed[::-1]}y{mixed[5:9]}z{mixed}"
    assert _normalize_ws(text) == regex_normalize_ws(text) == "x y z"
    # every code point in one string: no other character counts as whitespace
    every = "".join(map(chr, range(0x110000)))
    assert _normalize_ws(every) == regex_normalize_ws(every)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(SPACES) | st.sampled_from("ab\u200b\ufeff") | st.characters(),
               max_size=40))
def test_normalize_ws_matches_the_regex_on_mixed_text(text):
    assert _normalize_ws(text) == regex_normalize_ws(text)


def test_chrf_batch_on_attack_shaped_rows_equals_counter_chrf():
    # 150 rows of tok<i> words, each hypothesis with one word swapped, as the
    # attack scores them; the pairs span 3 blocks
    rng = np.random.default_rng(3)
    refs, hyps = [], []
    for _ in range(150):
        words = [f"tok{i}" for i in rng.integers(0, 40, size=int(rng.integers(1, 16)))]
        refs.append(" ".join(words))
        words[int(rng.integers(0, len(words)))] = f"tok{int(rng.integers(0, 40))}"
        hyps.append(" ".join(words))
    want = [counter_chrf(r, h) for r, h in zip(refs, hyps)]
    assert chrf_batch(refs, hyps).tolist() == want


def test_chrf_batch_across_blocks_and_wide_alphabets(monkeypatch):
    # 150 pairs span several blocks; thousands of distinct code points make
    # order-6 window keys outgrow int64 unless they are renumbered
    renumbered = []  # chrF calls np.unique only to renumber keys
    unique = np.unique

    def spy(*args, **kwargs):
        renumbered.append(True)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    rng = np.random.default_rng(8)
    refs, hyps = [], []
    for i in range(150):
        pool = np.arange(97, 101) if i % 4 == 3 else np.arange(0x4E00, 0x4E00 + 20000)
        if i % 5 == 0:
            pool = np.concatenate((pool, [32, 0x1F600, 0x10400]))
        ref = "".join(map(chr, rng.choice(pool, size=int(rng.integers(0, 60)))))
        hyp = list(ref)
        for _ in range(int(rng.integers(0, 4))):
            if hyp:
                hyp[int(rng.integers(0, len(hyp)))] = chr(int(rng.choice(pool)))
        refs.append(ref)
        hyps.append("".join(hyp[: int(rng.integers(0, len(hyp) + 1))] if i % 3 == 0 else hyp))
    want = [counter_chrf(r, h) for r, h in zip(refs, hyps)]
    assert chrf_batch(refs, hyps).tolist() == want
    assert renumbered
    assert chrf_batch([], []).shape == (0,)
    with pytest.raises(ValueError):
        chrf_batch(["a"], [])


# -- the split-wide attack against the per-example loop it replaced -----------


def reference_candidates(token_id, vectors, constraint, k):
    if constraint == "none":
        return [i for i in range(vectors.shape[0]) if i != token_id]
    if constraint == "knn":
        return knn_candidates(token_id, vectors, k)
    raise ValueError(f"unknown constraint: {constraint!r}")


def reference_substitution(grads, current_ids, vectors, constraint, sign_normalize, k):
    """One position and one candidate list at a time."""
    grads = np.asarray(grads, dtype=float)
    if sign_normalize:
        grads = np.sign(grads)
    best = None
    for pos, tok in enumerate(current_ids):
        candidates = np.asarray(reference_candidates(int(tok), vectors, constraint, k))
        scores = (vectors[candidates] - vectors[int(tok)]) @ grads[pos]
        top = scores.max()
        key = (-top, pos, int(candidates[scores == top].min()))
        if best is None or key < best:
            best = key
    return best[1], best[2]


def reference_attack(model, row, vectors, constraint, sign_normalize, k):
    """One row, one substitution."""
    grads = grad_wrt_embeddings(model, row)
    pos, tok = reference_substitution(grads, list(row.tokens), vectors, constraint,
                                      sign_normalize, k)
    new_ids = row.tokens.copy()
    new_ids[pos] = tok
    return replace(row, tokens=new_ids)


def attack_setup(vocab=12, dim=4, seed=3):
    # with two classes the adversarial gradient keeps its direction from step
    # to step; three classes and large logits make each step's gradient matter
    spec = ModelSpec("embed_bag", num_classes=3, vocab_size=vocab, embed_dim=dim)
    model = init_params(spec, seed=seed)
    model.params *= 10.0
    return model, model.slot("embedding.weight")


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("sign_normalize", [False, True])
@pytest.mark.parametrize("constraint", ["none", "knn"])
def test_attack_rows_matches_per_example_loop(constraint, sign_normalize, steps):
    model, vectors = attack_setup()
    # ragged rows: seq_len 8, plus the distractor token 0 in front of about half
    data = gen_distractor_text(DistractorTextSpec(300, 12, 8, 0.5, seed=4)).rows
    lengths = set(np.diff(data.offsets).tolist())
    assert lengths == {8, 9}
    for rows in (data, data.take([7])):
        want = []
        for i in range(len(rows)):
            row = rows.take([i])
            for _ in range(steps):
                row = reference_attack(model, row, vectors, constraint, sign_normalize, 3)
            want.append(row.tokens)
        before = rows.tokens.copy()
        got = attack_rows(model, rows, vectors, constraint, sign_normalize, 3, steps)
        assert np.array_equal(got.offsets, rows.offsets)
        assert np.array_equal(got.tokens, np.concatenate(want))
        assert np.array_equal(rows.tokens, before)  # input kept
    one = attack_example(model, data.take([7]), vectors, constraint, sign_normalize, 3)
    two = reference_attack(model, data.take([7]), vectors, constraint, sign_normalize, 3)
    for name in ("tokens", "offsets", "labels", "groups"):
        assert np.array_equal(getattr(one, name), getattr(two, name))


def test_attack_rows_builds_the_neighbour_table_once(monkeypatch):
    model, vectors = attack_setup()
    rows = gen_distractor_text(DistractorTextSpec(40, 12, 8, 0.5, seed=4)).rows
    calls = []
    candidate_table = advmetrics._candidate_table

    def counted(vectors, constraint, k):
        calls.append(k)
        return candidate_table(vectors, constraint, k)

    monkeypatch.setattr(advmetrics, "_candidate_table", counted)
    attack_rows(model, rows, vectors, "knn", False, 3, 3)
    assert calls == [3]

