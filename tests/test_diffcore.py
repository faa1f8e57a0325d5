from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.diffcore import (
    Example,
    InputShapeError,
    ModelSpec,
    ModelState,
    Packed,
    UnsupportedArchitectureError,
    finite_diff_check,
    fisher_diag,
    forward_logits,
    forward_logits_batch,
    grad_params,
    grad_wrt_embeddings,
    init_params,
    nll_forward,
    nll_loss_batch,
    pack,
    softmax,
    weighted_grad,
    zero_one_loss_batch,
)


def dense_batch(rng, n, dim):
    return [
        Example(input=rng.standard_normal(dim), label=int(rng.integers(0, 2)), id=i)
        for i in range(n)
    ]


def token_batch(rng, n, vocab, seq_len):
    return [
        Example(
            input=rng.integers(0, vocab, size=seq_len),
            label=int(rng.integers(0, 2)),
            id=i,
        )
        for i in range(n)
    ]


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("conv", input_dim=2)
    with pytest.raises(ValueError):
        ModelSpec("linear", input_dim=0)
    with pytest.raises(ValueError):
        ModelSpec("mlp", input_dim=2, hidden_units=0)
    with pytest.raises(ValueError):
        ModelSpec("embed_bag", vocab_size=1, embed_dim=4)
    with pytest.raises(ValueError):
        ModelSpec("linear", input_dim=2, num_classes=1)


def test_init_is_deterministic_with_zero_biases():
    spec = ModelSpec("mlp", input_dim=3, hidden_units=4)
    a = init_params(spec, seed=5)
    b = init_params(spec, seed=5)
    assert np.array_equal(a.params, b.params)
    assert np.all(a.slot("hidden.bias") == 0.0)
    assert np.all(a.slot("out.bias") == 0.0)
    c = init_params(spec, seed=6)
    assert not np.array_equal(a.params, c.params)


def test_copy_is_independent():
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    clone = model.copy()
    clone.params += 1.0
    assert not np.array_equal(model.params, clone.params)


def test_softmax_rows_sum_to_one():
    logits = np.array([[1.0, 2.0, 3.0], [100.0, 100.0, 100.0]])
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=-1), 1.0)
    assert np.all(probs >= 0)


def test_nll_matches_log_softmax():
    model = init_params(ModelSpec("linear", input_dim=2), seed=1)
    ex = Example(input=np.array([0.3, -0.7]), label=1)
    probs = softmax(forward_logits(model, ex))
    assert nll_loss_batch(model, [ex])[0] == pytest.approx(-np.log(probs[1]))


def test_zero_one_loss_against_argmax():
    model = init_params(ModelSpec("linear", input_dim=2), seed=2)
    rng = np.random.default_rng(0)
    batch = dense_batch(rng, 10, 2)
    losses = zero_one_loss_batch(model, batch)
    for ex, loss in zip(batch, losses):
        pred = int(np.argmax(forward_logits(model, ex)))
        assert loss == float(pred != ex.label)


def test_input_shape_errors():
    model = init_params(ModelSpec("linear", input_dim=3), seed=0)
    with pytest.raises(InputShapeError):
        nll_loss_batch(model, [Example(input=np.zeros(2), label=0)])
    bag = init_params(ModelSpec("embed_bag", vocab_size=4, embed_dim=2), seed=0)
    with pytest.raises(InputShapeError):
        nll_loss_batch(bag, [Example(input=np.array([0, 7]), label=0)])
    with pytest.raises(InputShapeError):
        nll_loss_batch(bag, [Example(input=np.array([], dtype=int), label=0)])


def test_grad_params_validates_weights():
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    batch = dense_batch(np.random.default_rng(1), 4, 2)
    with pytest.raises(ValueError):
        grad_params(model, batch, np.ones(3))
    with pytest.raises(ValueError):
        grad_params(model, batch, np.array([1.0, np.nan, 1.0, 1.0]))


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("linear", input_dim=3),
        ModelSpec("mlp", input_dim=3, hidden_units=4),
        ModelSpec("embed_bag", vocab_size=6, embed_dim=3),
    ],
    ids=["linear", "mlp", "embed_bag"],
)
def test_gradients_match_finite_differences(spec):
    rng = np.random.default_rng(7)
    model = init_params(spec, seed=3)
    if spec.architecture == "embed_bag":
        batch = token_batch(rng, 5, spec.vocab_size, 4)
    else:
        batch = dense_batch(rng, 5, spec.input_dim)
    assert finite_diff_check(model, batch) < 1e-6


def test_finite_diff_check_rejects_bad_step():
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    batch = dense_batch(np.random.default_rng(2), 3, 2)
    with pytest.raises(ValueError):
        finite_diff_check(model, batch, step=0.0)


def test_fisher_diag_is_nonnegative_and_validated():
    model = init_params(ModelSpec("linear", input_dim=2), seed=5)
    batch = dense_batch(np.random.default_rng(4), 8, 2)
    diag = fisher_diag(model, batch, sample_count=50, seed=0)
    assert diag.shape == (model.num_params,)
    assert np.all(diag >= 0)
    with pytest.raises(ValueError):
        fisher_diag(model, [], sample_count=10, seed=0)
    with pytest.raises(ValueError):
        fisher_diag(model, batch, sample_count=0, seed=0)


def per_row_fisher(model, examples, idx):
    """Mean of squared one-row nll gradients, summed in draw order."""
    reference = np.zeros(model.num_params)
    for i in idx:
        g = grad_params(model, [examples[i]], np.ones(1))
        reference += g * g
    return reference / len(idx)


@pytest.mark.parametrize("arch", ["linear", "mlp", "embed_bag"])
def test_fisher_diag_matches_a_per_row_gradient_loop(arch):
    rng = np.random.default_rng(6)
    if arch == "embed_bag":
        model = init_params(ModelSpec("embed_bag", vocab_size=12, embed_dim=3), seed=6)
        examples = [Example(input=rng.integers(0, 12, size=int(rng.integers(1, 7))),
                            label=int(rng.integers(0, 2)), id=i) for i in range(40)]
    else:
        model = init_params(ModelSpec(arch, input_dim=3, hidden_units=4 if arch == "mlp" else 0),
                            seed=6)
        examples = dense_batch(rng, 40, 3)
    idx = np.random.default_rng(11).integers(0, len(examples), size=300)
    reference = per_row_fisher(model, examples, idx)
    for form in (examples, pack(examples, arch == "embed_bag")):
        diag = fisher_diag(model, form, sample_count=300, seed=11)
        # closed-form sums round differently from the loop's batch-1 gradients
        np.testing.assert_allclose(diag, reference, rtol=0, atol=1e-15 * reference.max())


@st.composite
def fisher_cases(draw):
    arch = draw(st.sampled_from(["linear", "mlp", "embed_bag"]))
    classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 12))
    if arch == "embed_bag":
        spec = ModelSpec(arch, vocab_size=draw(st.integers(2, 10)),
                         embed_dim=draw(st.integers(1, 4)), num_classes=classes)
        inputs = [rng.integers(0, spec.vocab_size, size=int(rng.integers(1, 7)))
                  for _ in range(rows)]
    else:
        spec = ModelSpec(arch, input_dim=draw(st.integers(1, 4)), num_classes=classes,
                         hidden_units=draw(st.integers(1, 5)) if arch == "mlp" else 0)
        inputs = [draw(st.sampled_from([0.1, 1.0, 5.0])) * rng.standard_normal(spec.input_dim)
                  for _ in range(rows)]
    model = init_params(spec, seed=0)
    model.params += draw(st.sampled_from([0.0, 0.5, 3.0])) * rng.standard_normal(model.num_params)
    examples = [Example(input=x, label=int(rng.integers(0, classes)), id=i)
                for i, x in enumerate(inputs)]
    return model, examples, draw(st.integers(1, 60)), draw(st.integers(0, 1000))


def batched_row_fisher(model, examples, idx):
    """Mean of squared per-row nll gradients, summed in draw order, each row's
    gradient backpropagated with one-hot weights from one forward over the
    drawn rows, the forward fisher_diag makes."""
    rows = pack(examples, model.spec.architecture == "embed_bag").take(idx)
    _, state = nll_forward(model, rows)
    reference = np.zeros(model.num_params)
    for k in range(len(idx)):
        g = weighted_grad(model, state, np.eye(len(idx))[k])
        reference += g * g
    return reference / len(idx)


@settings(max_examples=150, deadline=None)
@given(case=fisher_cases())
def test_fisher_diag_matches_the_per_row_loop_on_random_specs(case):
    model, examples, sample_count, seed = case
    idx = np.random.default_rng(seed).integers(0, len(examples), size=sample_count)
    reference = batched_row_fisher(model, examples, idx)
    diag = fisher_diag(model, examples, sample_count, seed)
    # both sides take each row's factors from the same forward, so the logits
    # and the cancelling p_y - 1 agree; they sum sample_count nonnegative terms
    # in different orders, each off by at most about sample_count units in the
    # last place of the entry, plus a few units from squaring a product
    # rather than multiplying squares
    tolerance = (sample_count + 4) * np.finfo(float).eps * reference.max()
    np.testing.assert_allclose(diag, reference, rtol=0, atol=tolerance)


def test_embedding_grads_require_token_model():
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    with pytest.raises(UnsupportedArchitectureError):
        grad_wrt_embeddings(model, Example(input=np.zeros(2), label=0))


def test_embedding_grads_are_a_descent_direction():
    # moving every used embedding row against the nll gradient lowers the loss
    spec = ModelSpec("embed_bag", vocab_size=8, embed_dim=3)
    model = init_params(spec, seed=9)
    ex = Example(input=np.array([1, 4, 6]), label=1)
    grads = grad_wrt_embeddings(model, ex, loss_kind="nll")
    assert grads.shape == (3, 3)
    before = nll_loss_batch(model, [ex])[0]
    nudged = model.copy()
    emb = nudged.slot("embedding.weight")
    for pos, tok in enumerate(ex.input):
        emb[tok] -= 0.05 * grads[pos]
    assert nll_loss_batch(nudged, [ex])[0] < before
    with pytest.raises(ValueError):
        grad_wrt_embeddings(model, ex, loss_kind="hinge")


def test_adversarial_embedding_grads_raise_error_probability():
    spec = ModelSpec("embed_bag", vocab_size=8, embed_dim=3)
    model = init_params(spec, seed=11)
    ex = Example(input=np.array([2, 5]), label=0)
    grads = grad_wrt_embeddings(model, ex, loss_kind="adversarial")
    p_before = float(softmax(forward_logits(model, ex))[ex.label])
    nudged = model.copy()
    emb = nudged.slot("embedding.weight")
    for pos, tok in enumerate(ex.input):
        emb[tok] += 0.05 * grads[pos]
    p_after = float(softmax(forward_logits(nudged, ex))[ex.label])
    assert p_after < p_before


def test_batch_losses_match_single_losses():
    model = init_params(ModelSpec("linear", input_dim=2), seed=6)
    batch = dense_batch(np.random.default_rng(5), 5, 2)
    losses = nll_loss_batch(model, batch)
    singles = [nll_loss_batch(model, [ex])[0] for ex in batch]
    assert np.allclose(losses, singles)


# -- packed kernels against the per-example loops they replaced ---------------


def reference_logits_and_grad(model, batch, weights):
    """Per-example forward and backward, one example at a time."""
    spec = model.spec

    view = model.slot
    grad = np.zeros_like(model.params)

    def put(name, value):
        lo, hi = model.layout[name]
        grad[lo:hi] += value.ravel()

    logits = []
    for ex, wt in zip(batch, weights):
        if spec.architecture == "embed_bag":
            ids = np.asarray(ex.input, dtype=int)
            bag = view("embedding.weight")[ids].mean(axis=0)
            z = view("out.weight") @ bag + view("out.bias")
        else:
            x = np.asarray(ex.input, dtype=float)
            assert x.shape == (spec.input_dim,)
            if spec.architecture == "linear":
                z = view("linear.weight") @ x + view("linear.bias")
            else:
                a = np.tanh(view("hidden.weight") @ x + view("hidden.bias"))
                z = view("out.weight") @ a + view("out.bias")
        p = np.exp(z - z.max())
        p /= p.sum()
        dz = wt * (p - np.eye(spec.num_classes)[ex.label])
        if spec.architecture == "linear":
            put("linear.weight", np.outer(dz, x))
            put("linear.bias", dz)
        elif spec.architecture == "mlp":
            put("out.weight", np.outer(dz, a))
            put("out.bias", dz)
            dpre = (view("out.weight").T @ dz) * (1.0 - a * a)
            put("hidden.weight", np.outer(dpre, x))
            put("hidden.bias", dpre)
        else:
            put("out.weight", np.outer(dz, bag))
            put("out.bias", dz)
            demb = np.zeros((spec.vocab_size, spec.embed_dim))
            np.add.at(demb, ids, (view("out.weight").T @ dz) / len(ids))
            put("embedding.weight", demb)
        logits.append(z)
    return np.array(logits), grad


def assert_rel_close(got, want):
    """Agreement to 1e-12 relative to the largest reference entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


KERNEL_SPECS = [
    ModelSpec("linear", input_dim=3, num_classes=3),
    ModelSpec("mlp", input_dim=3, hidden_units=5, num_classes=2),
    ModelSpec("embed_bag", vocab_size=9, embed_dim=4, num_classes=3),
]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=["linear", "mlp", "embed_bag"])
@pytest.mark.parametrize("size", [1, 7])
def test_packed_kernels_match_per_example_loops(spec, size):
    rng = np.random.default_rng(size)
    model = init_params(spec, seed=2)
    model.params += 0.1 * rng.standard_normal(model.num_params)  # nonzero biases
    tokens = spec.architecture == "embed_bag"
    pool = [
        Example(
            input=rng.integers(0, spec.vocab_size, size=int(rng.integers(1, 7)))
            if tokens else rng.standard_normal(spec.input_dim),
            label=int(rng.integers(0, spec.num_classes)), group=int(rng.integers(0, 2)), id=i,
        )
        for i in range(12)
    ]
    idx = rng.permutation(len(pool))[:size]
    batch = [pool[i] for i in idx]
    weights = rng.uniform(0.1, 2.0, size=size)
    want_logits, want_grad = reference_logits_and_grad(model, batch, weights)
    z = want_logits - want_logits.max(axis=1, keepdims=True)
    want_nll = -(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))[np.arange(size),
                                                                   [ex.label for ex in batch]]
    # Example lists, packed batches and rows taken from a packed pool
    for form in (batch, pack(batch, tokens), pack(pool, tokens).take(idx)):
        assert len(form) == size
        assert_rel_close(forward_logits_batch(model, form), want_logits)
        assert_rel_close(nll_loss_batch(model, form), want_nll)
        assert_rel_close(grad_params(model, form, weights), want_grad)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=["linear", "mlp", "embed_bag"])
def test_weighted_grad_of_one_forward_equals_grad_params(spec):
    rng = np.random.default_rng(3)
    model = init_params(spec, seed=3)
    model.params += 0.1 * rng.standard_normal(model.num_params)
    tokens = spec.architecture == "embed_bag"
    batch = pack([
        Example(input=rng.integers(0, spec.vocab_size, size=int(rng.integers(1, 6)))
                if tokens else rng.standard_normal(spec.input_dim),
                label=int(rng.integers(0, spec.num_classes)), id=i)
        for i in range(9)
    ], tokens)
    losses, state = nll_forward(model, batch)
    assert np.array_equal(losses, nll_loss_batch(model, batch))
    # one state serves any number of weightings
    for weights in (np.full(9, 1.0 / 9), rng.uniform(-1.0, 2.0, size=9)):
        assert np.array_equal(weighted_grad(model, state, weights),
                              grad_params(model, batch, weights))
    with pytest.raises(ValueError, match="does not match"):
        weighted_grad(model, state, np.ones(8))
    with pytest.raises(ValueError, match="finite"):
        weighted_grad(model, state, np.r_[np.ones(8), np.inf])


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=["linear", "mlp", "embed_bag"])
def test_the_spec_alone_lays_out_the_parameter_vector(spec):
    assert [f.name for f in fields(ModelState)] == ["spec", "params"]
    model = init_params(spec, seed=2)
    bounds = list(model.layout.values())
    assert bounds[0][0] == 0 and bounds[-1][1] == spec.param_count == model.num_params
    assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
    for name, (lo, hi, shape) in spec.slots.items():
        view = model.slot(name)
        assert view.shape == shape
        view[...] = 7.0  # a view: writes land in the flat vector
        assert np.all(model.params[lo:hi] == 7.0)


def test_take_keeps_ragged_rows_labels_and_groups():
    batch = [Example(input=np.array(ids), label=i % 2, group=i % 3, id=i)
             for i, ids in enumerate([[1], [2, 3, 4], [5, 6], [7]])]
    packed = pack(batch, tokens=True)
    part = packed.take([2, 0, 2])
    assert part.tokens.tolist() == [5, 6, 1, 5, 6]
    assert part.offsets.tolist() == [0, 2, 3, 5]
    assert part.labels.tolist() == [0, 0, 0] and part.groups.tolist() == [2, 0, 2]
    dense = pack([Example(input=np.array([float(i), 0.0]), label=i) for i in range(3)], False)
    assert dense.take([1]).x.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize("tokens", [False, True])
@pytest.mark.parametrize("batch_size", [1, 4, 10, 11, 32])
def test_rows_equal_take_of_the_same_range(tokens, batch_size):
    # 10 rows: every batch size but 1 and 10 leaves a short last batch
    rng = np.random.default_rng(3)
    batch = [Example(input=rng.integers(0, 9, size=int(rng.integers(1, 5))) if tokens
                     else rng.standard_normal(3), label=i % 2, group=i % 3, id=i)
             for i in range(10)]
    packed = pack(batch, tokens)
    for start in range(0, 10, batch_size):
        part = packed.rows(start, start + batch_size)
        want = packed.take(np.arange(start, min(start + batch_size, 10)))
        for name in ("labels", "groups", "x", "tokens", "offsets"):
            got, ref = getattr(part, name), getattr(want, name)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
        rows = part.tokens if tokens else part.x
        assert np.shares_memory(rows, packed.tokens if tokens else packed.x)  # a view


def test_bad_token_rows_raise_through_both_entry_forms():
    model = init_params(ModelSpec("embed_bag", vocab_size=4, embed_dim=2), seed=0)
    ok = Example(input=np.array([1, 2]), label=0)
    for bad in (np.array([0, 7]), np.array([-1, 2])):
        batch = [ok, Example(input=bad, label=1)]
        for form in (batch, pack(batch, tokens=True)):
            with pytest.raises(InputShapeError):
                nll_loss_batch(model, form)
            with pytest.raises(InputShapeError):
                grad_params(model, form, np.ones(2))
    empty = [ok, Example(input=np.array([], dtype=int), label=1)]
    with pytest.raises(InputShapeError):
        nll_loss_batch(model, empty)
    with pytest.raises(InputShapeError):
        pack(empty, tokens=True)
    # a hand-built packed batch whose second row is empty
    hand = Packed(np.array([0, 1]), np.zeros(2, dtype=int), tokens=np.array([1, 2]),
                  offsets=np.array([0, 2, 2]))
    with pytest.raises(InputShapeError):
        nll_loss_batch(model, hand)
    with pytest.raises(InputShapeError):
        nll_loss_batch(model, pack([Example(input=np.zeros(2), label=0)], tokens=False))


def test_dense_shape_errors_through_both_entry_forms():
    model = init_params(ModelSpec("mlp", input_dim=3, hidden_units=2), seed=0)
    ragged = [Example(input=np.zeros(3), label=0), Example(input=np.zeros(2), label=1)]
    with pytest.raises(InputShapeError):
        nll_loss_batch(model, ragged)
    narrow = [Example(input=np.zeros(2), label=0)]
    for form in (narrow, pack(narrow, tokens=False)):
        with pytest.raises(InputShapeError):
            grad_params(model, form, np.ones(1))
