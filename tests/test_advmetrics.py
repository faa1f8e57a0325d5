import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.advmetrics import (
    EmbeddingTable,
    NoCandidateError,
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
from shiftlab.diffcore import Example, ModelSpec, grad_wrt_embeddings, init_params, pack


def test_chrf_identity_and_empty():
    assert chrf("hello world", "hello world") == 100.0
    assert chrf("", "") == 100.0
    assert chrf("  spaced   out ", "spaced out") == 100.0  # whitespace normalized


def test_chrf_disjoint_strings_score_zero():
    assert chrf("aaaa", "bbbb") == 0.0


def test_chrf_recall_weighting():
    # hypothesis is a prefix of the reference: precision 1, recall < 1,
    # so larger beta (more recall weight) lowers the score
    ref, hyp = "abcdef", "abc"
    assert chrf(ref, hyp, beta=2.0) < chrf(ref, hyp, beta=1.0)
    with pytest.raises(ValueError):
        chrf("a", "a", max_n=0)


def test_chrf_hand_computed_unigram_case():
    # ref "ab", hyp "ac" at max_n 2: order 1 p=r=1/2; order 2 p=r=0
    p = r = 0.25
    expected = 100.0 * 5 * p * r / (4 * p + r)
    assert chrf("ab", "ac", max_n=2) == pytest.approx(expected)


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


def test_embedding_table_validation():
    with pytest.raises(ValueError):
        EmbeddingTable(np.zeros((2, 3)), ["a", "b", "c"])


def test_knn_candidates_hand_case():
    vectors = np.array([[0.0], [1.0], [2.0], [10.0]])
    table = EmbeddingTable(vectors, list("abcd"))
    assert knn_candidates(0, table, k=2) == [1, 2]
    assert knn_candidates(1, table, k=2) == [0, 2]  # tie at distance 1 -> lower id
    with pytest.raises(ValueError):
        knn_candidates(5, table, k=1)
    for k in (4, 0, -1):
        with pytest.raises(ValueError, match="k must be smaller than the vocabulary size and >= 1"):
            knn_candidates(0, table, k=k)


def naive_substitution(grads, current_ids, table, candidates_for, sign_normalize=False):
    g = np.sign(grads) if sign_normalize else grads
    best = None
    for pos, tok in enumerate(current_ids):
        for cand in candidates_for(int(tok)):
            score = float((table.vectors[cand] - table.vectors[int(tok)]) @ g[pos])
            key = (-score, pos, cand)
            if best is None or key < best:
                best = key
    return (best[1], best[2]) if best else None


def test_first_order_substitution_hand_case():
    vectors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    table = EmbeddingTable(vectors, list("abc"))
    grads = np.array([[1.0, 0.0]])
    pos, tok = first_order_substitution(grads, [0], table)
    assert (pos, tok) == (0, 1)  # moving along the gradient maximizes the score


def test_first_order_substitution_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vocab = int(rng.integers(3, 12))
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        table = EmbeddingTable(rng.standard_normal((vocab, dim)), [str(i) for i in range(vocab)])
        ids = [int(i) for i in rng.integers(0, vocab, size=n)]
        grads = rng.standard_normal((n, dim))
        got = first_order_substitution(grads, ids, table, constraint="none")
        want = naive_substitution(
            grads, ids, table, lambda t: [i for i in range(vocab) if i != t]
        )
        assert got == want


def test_first_order_substitution_constraints_and_errors():
    vectors = np.array([[0.0], [1.0], [2.0]])
    table = EmbeddingTable(vectors, list("abc"))
    grads = np.ones((1, 1))
    assert first_order_substitution(grads, [0], table, constraint="knn", k=1) == (0, 1)
    with pytest.raises(NoCandidateError):  # a one-token vocabulary has no substitute
        first_order_substitution(grads, [0], EmbeddingTable(vectors[:1], ["a"]))
    with pytest.raises(NoCandidateError):  # every candidate scores -inf
        first_order_substitution(-np.inf * grads, [0], table)
    with pytest.raises(ValueError):
        first_order_substitution(grads, [0], table, constraint="mystery")
    with pytest.raises(ValueError):
        first_order_substitution(np.ones((2, 1)), [0], table)


def test_sign_normalization_changes_the_ranking():
    vectors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0]])
    table = EmbeddingTable(vectors, list("abc"))
    grads = np.array([[0.1, 0.9]])
    assert first_order_substitution(grads, [0], table) == (0, 1)
    assert first_order_substitution(grads, [0], table, sign_normalize=True) == (0, 1)
    grads = np.array([[0.05, 0.9]])
    # raw scores favor the long vector; signed gradients favor the aligned one
    assert first_order_substitution(grads, [0], table) == (0, 2)
    assert first_order_substitution(grads, [0], table, sign_normalize=True) == (0, 1)


def test_attack_example_changes_exactly_one_position():
    spec = ModelSpec("embed_bag", vocab_size=10, embed_dim=4)
    model = init_params(spec, seed=0)
    table = EmbeddingTable(model.slot("embedding.weight"), [f"tok{i}" for i in range(10)])
    ex = Example(input=np.array([1, 4, 7]), label=1, group=0, id=3)
    adv = attack_example(model, ex, table)
    assert adv.label == ex.label and adv.id == ex.id
    diffs = np.sum(np.asarray(adv.input) != np.asarray(ex.input))
    assert diffs == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 16), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_neighbour_table_equals_knn_candidates(vocab, dim, seed, data):
    # vectors on a small integer grid, so distance ties are common
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(rng.integers(-2, 3, size=(vocab, dim)), [str(i) for i in range(vocab)])
    ks = data.draw(st.lists(st.integers(1, vocab - 1), min_size=1, max_size=3))
    for k in ks:
        rows = table.neighbours(k)
        assert rows.shape == (vocab, k)
        for t in range(vocab):
            assert rows[t].tolist() == knn_candidates(t, table, k)
    ids = [int(i) for i in rng.integers(0, vocab, size=3)]
    grads = rng.standard_normal((3, dim))
    got = first_order_substitution(grads, ids, table, constraint="knn", k=ks[0])
    assert got == naive_substitution(grads, ids, table, lambda t: knn_candidates(t, table, ks[0]))


def test_embedding_table_vectors_are_a_read_only_copy():
    source = np.zeros((3, 2))
    table = EmbeddingTable(source, list("abc"))
    source[0, 0] = 5.0
    assert table.vectors[0, 0] == 0.0
    with pytest.raises(ValueError):
        table.vectors[0, 0] = 1.0
    with pytest.raises(ValueError):
        first_order_substitution(np.ones((1, 2)), [3], table, constraint="knn", k=1)


# -- batched chrF against the per-pair Counter version it replaced ------------


def counter_chrf(reference, hypothesis, max_n=6, beta=2.0):
    """chrF of one pair with one Counter per string and order."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ref = re.sub(r"\s+", " ", reference.strip())
    hyp = re.sub(r"\s+", " ", hypothesis.strip())
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


# small alphabets with whitespace runs and code points above 0xFFFF, so
# n-grams repeat and match; any character at all besides
TEXT = st.text(st.sampled_from(["a", "b", " ", "\t", "\n", "\U0001F600", "\U00010400"])
               | st.characters(), max_size=24)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=6),
       st.integers(1, 6), st.sampled_from([1.0, 2.0]))
def test_chrf_batch_equals_counter_chrf(pairs, max_n, beta):
    refs = [r for r, _ in pairs]
    hyps = [h for _, h in pairs]
    want = [counter_chrf(r, h, max_n, beta) for r, h in pairs]
    assert chrf_batch(refs, hyps, max_n, beta).tolist() == want
    assert [chrf(r, h, max_n, beta) for r, h in pairs] == want
    with pytest.raises(ValueError):
        chrf_batch(refs, hyps, max_n=0)


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


def test_chrf_batch_across_blocks_and_wide_alphabets():
    # 150 pairs span several blocks; thousands of distinct code points make
    # order-6 gram ids outgrow int64 unless they are renumbered
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
    for max_n in (1, 4, 6):
        want = [counter_chrf(r, h, max_n) for r, h in zip(refs, hyps)]
        assert chrf_batch(refs, hyps, max_n).tolist() == want
    assert chrf_batch([], [], 6).shape == (0,)
    with pytest.raises(ValueError):
        chrf_batch(["a"], [], 6)


# -- the split-wide attack against the per-example loop it replaced -----------


def reference_candidates(token_id, table, constraint, k):
    if constraint == "none":
        return [i for i in range(table.vectors.shape[0]) if i != token_id]
    if constraint == "knn":
        if not 0 <= token_id < table.vectors.shape[0]:
            raise ValueError("token_id out of range")
        return table.neighbours(k)[token_id]
    raise ValueError(f"unknown constraint: {constraint!r}")


def reference_substitution(grads, current_ids, table, constraint, sign_normalize, k):
    """One position and one candidate list at a time."""
    grads = np.asarray(grads, dtype=float)
    if sign_normalize:
        grads = np.sign(grads)
    best = None
    for pos, tok in enumerate(current_ids):
        candidates = np.asarray(reference_candidates(int(tok), table, constraint, k))
        scores = (table.vectors[candidates] - table.vectors[int(tok)]) @ grads[pos]
        top = scores.max()
        key = (-top, pos, int(candidates[scores == top].min()))
        if best is None or key < best:
            best = key
    return best[1], best[2]


def reference_attack(model, example, table, constraint, sign_normalize, k):
    """One example, one substitution."""
    grads = grad_wrt_embeddings(model, example, loss_kind="adversarial")
    pos, tok = reference_substitution(grads, list(example.input), table, constraint,
                                      sign_normalize, k)
    new_ids = np.array(example.input, dtype=int).copy()
    new_ids[pos] = tok
    return Example(input=new_ids, label=example.label, group=example.group, id=example.id)


def attack_setup(vocab=12, dim=4, seed=3):
    # with two classes the adversarial gradient keeps its direction from step
    # to step; three classes and large logits make each step's gradient matter
    spec = ModelSpec("embed_bag", num_classes=3, vocab_size=vocab, embed_dim=dim)
    model = init_params(spec, seed=seed)
    model.params *= 10.0
    table = EmbeddingTable(model.slot("embedding.weight"), [f"tok{i}" for i in range(vocab)])
    return model, table


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("sign_normalize", [False, True])
@pytest.mark.parametrize("constraint", ["none", "knn"])
def test_attack_rows_matches_per_example_loop(constraint, sign_normalize, steps):
    model, table = attack_setup()
    # ragged rows: seq_len 8, plus the distractor token 0 in front of about half
    data = gen_distractor_text(DistractorTextSpec(300, 12, 8, 0.5, seed=4))
    lengths = {len(ex.input) for ex in data.examples}
    assert lengths == {8, 9}
    for examples in (data.examples, data.examples[7:8]):
        want = []
        for ex in examples:
            for _ in range(steps):
                ex = reference_attack(model, ex, table, constraint, sign_normalize, 3)
            want.append(ex.input)
        rows = pack(examples, tokens=True)
        got = attack_rows(model, rows, table, constraint, sign_normalize, 3, steps)
        assert np.array_equal(got.offsets, rows.offsets)
        assert np.array_equal(got.tokens, np.concatenate(want))
        assert np.array_equal(rows.tokens, pack(examples, tokens=True).tokens)  # input kept
    one = attack_example(model, data.examples[7], table, constraint, sign_normalize, 3)
    two = reference_attack(model, data.examples[7], table, constraint, sign_normalize, 3)
    assert np.array_equal(one.input, two.input)
    assert (one.label, one.group, one.id) == (two.label, two.group, two.id)

