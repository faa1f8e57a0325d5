import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.advmetrics import (
    CharSwapConfig,
    EmbeddingTable,
    NoCandidateError,
    attack_example,
    char_swap_oov,
    chrf,
    d_tgt,
    first_order_substitution,
    knn_candidates,
    success,
)
from shiftlab.diffcore import Example, ModelSpec, init_params


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


def test_char_swap_leaves_vocabulary():
    vocab = {"example", "exmaple", "short", "shortt"}
    out = char_swap_oov("example", vocab, CharSwapConfig(seed=0))
    assert out not in vocab
    assert out != "example"


def test_char_swap_short_word_repeats_last_char():
    vocab = {"cat", "catt"}
    out = char_swap_oov("cat", vocab, CharSwapConfig(seed=1))
    assert out == "cattt"
    with pytest.raises(ValueError):
        char_swap_oov("", vocab, CharSwapConfig())
    with pytest.raises(ValueError):
        CharSwapConfig(max_scrambling=0)


def test_char_swap_preserves_first_and_last_characters():
    word = "scrambled"
    out = char_swap_oov(word, {word}, CharSwapConfig(seed=2))
    if len(out) == len(word):  # swap succeeded without padding
        assert out[0] == word[0] and out[-1] == word[-1]


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
    with pytest.raises(ValueError):
        knn_candidates(0, table, k=4)


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
    pos, tok = first_order_substitution(grads, [0], table, constraint="charswap-oov", oov_id=2)
    assert (pos, tok) == (0, 2)
    with pytest.raises(NoCandidateError):
        first_order_substitution(grads, [2], table, constraint="charswap-oov", oov_id=2)
    with pytest.raises(ValueError):
        first_order_substitution(grads, [0], table, constraint="charswap-oov")
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
    lo, hi = model.layout["embedding.weight"]
    table = EmbeddingTable(
        model.params[lo:hi].reshape(10, 4), [f"tok{i}" for i in range(10)]
    )
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
