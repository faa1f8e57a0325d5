from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import packed_rows
from shiftlab.diffcore import (
    InputShapeError,
    ModelSpec,
    ModelState,
    Packed,
    UnsupportedArchitectureError,
    _log_softmax,
    batch_constants,
    finite_diff_check,
    fisher_diag,
    forward_logits,
    forward_logits_batch,
    grad_params,
    grad_wrt_embeddings,
    init_params,
    nll_forward,
    nll_loss_batch,
    softmax,
    weighted_grad,
    zero_one_loss_batch,
)


def dense_batch(rng, n, dim):
    return packed_rows((rng.standard_normal(dim), int(rng.integers(0, 2))) for _ in range(n))


def token_batch(rng, n, vocab, seq_len):
    return packed_rows((rng.integers(0, vocab, size=seq_len), int(rng.integers(0, 2)))
                       for _ in range(n))


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
    row = packed_rows([(np.array([0.3, -0.7]), 1)])
    probs = softmax(forward_logits(model, row))
    assert nll_loss_batch(model, row)[0] == pytest.approx(-np.log(probs[1]))


def test_zero_one_loss_against_argmax():
    model = init_params(ModelSpec("linear", input_dim=2), seed=2)
    rng = np.random.default_rng(0)
    batch = dense_batch(rng, 10, 2)
    losses = zero_one_loss_batch(model, batch)
    for i, loss in enumerate(losses):
        pred = int(np.argmax(forward_logits(model, batch.take([i]))))
        assert loss == float(pred != batch.labels[i])


def test_input_shape_errors():
    model = init_params(ModelSpec("linear", input_dim=3), seed=0)
    with pytest.raises(InputShapeError):
        nll_loss_batch(model, packed_rows([(np.zeros(2), 0)]))
    bag = init_params(ModelSpec("embed_bag", vocab_size=4, embed_dim=2), seed=0)
    with pytest.raises(InputShapeError):
        nll_loss_batch(bag, packed_rows([(np.array([0, 7]), 0)]))
    with pytest.raises(InputShapeError):
        nll_loss_batch(bag, packed_rows([(np.array([], dtype=int), 0)]))


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
        fisher_diag(model, batch.take([]), sample_count=10, seed=0)
    with pytest.raises(ValueError):
        fisher_diag(model, batch, sample_count=0, seed=0)


def per_row_fisher(model, rows, idx):
    """Mean of squared one-row nll gradients, summed in draw order."""
    reference = np.zeros(model.num_params)
    for i in idx:
        g = grad_params(model, rows.take([i]), np.ones(1))
        reference += g * g
    return reference / len(idx)


def test_fisher_diag_rejects_an_embed_bag_model():
    model = init_params(ModelSpec("embed_bag", vocab_size=12, embed_dim=3), seed=6)
    rows = packed_rows(([1, 4, 4], 0) for _ in range(5))
    with pytest.raises(UnsupportedArchitectureError, match="linear or mlp"):
        fisher_diag(model, rows, sample_count=10, seed=0)


@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_fisher_diag_matches_a_per_row_gradient_loop(arch):
    rng = np.random.default_rng(6)
    model = init_params(ModelSpec(arch, input_dim=3, hidden_units=4 if arch == "mlp" else 0), seed=6)
    rows = dense_batch(rng, 40, 3)
    idx = np.random.default_rng(11).integers(0, len(rows), size=300)
    reference = per_row_fisher(model, rows, idx)
    diag = fisher_diag(model, rows, sample_count=300, seed=11)
    # closed-form sums round differently from the loop's batch-1 gradients
    np.testing.assert_allclose(diag, reference, rtol=0, atol=1e-15 * reference.max())


@st.composite
def fisher_cases(draw):
    arch = draw(st.sampled_from(["linear", "mlp"]))
    classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 12))
    spec = ModelSpec(arch, input_dim=draw(st.integers(1, 4)), num_classes=classes,
                     hidden_units=draw(st.integers(1, 5)) if arch == "mlp" else 0)
    inputs = [draw(st.sampled_from([0.1, 1.0, 5.0])) * rng.standard_normal(spec.input_dim)
              for _ in range(rows)]
    model = init_params(spec, seed=0)
    model.params += draw(st.sampled_from([0.0, 0.5, 3.0])) * rng.standard_normal(model.num_params)
    rows = packed_rows((x, int(rng.integers(0, classes))) for x in inputs)
    return model, rows, draw(st.integers(1, 60)), draw(st.integers(0, 1000))


def batched_row_fisher(model, rows, idx):
    """Mean of squared per-row nll gradients, summed in draw order, each row's
    gradient backpropagated with one-hot weights from one forward over the
    drawn rows, the forward fisher_diag makes."""
    _, state = nll_forward(model, rows.take(idx))
    reference = np.zeros(model.num_params)
    for k in range(len(idx)):
        g = weighted_grad(model, state, np.eye(len(idx))[k])
        reference += g * g
    return reference / len(idx)


@settings(max_examples=150, deadline=None)
@given(case=fisher_cases())
def test_fisher_diag_matches_the_per_row_loop_on_random_specs(case):
    model, rows, sample_count, seed = case
    idx = np.random.default_rng(seed).integers(0, len(rows), size=sample_count)
    reference = batched_row_fisher(model, rows, idx)
    diag = fisher_diag(model, rows, sample_count, seed)
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
        grad_wrt_embeddings(model, packed_rows([(np.zeros(2), 0)]))


def test_adversarial_embedding_grads_raise_error_probability():
    spec = ModelSpec("embed_bag", vocab_size=8, embed_dim=3)
    model = init_params(spec, seed=11)
    row = packed_rows([(np.array([2, 5]), 0)])
    grads = grad_wrt_embeddings(model, row)
    assert grads.shape == (2, 3)
    p_before = float(softmax(forward_logits(model, row))[row.labels[0]])
    nudged = model.copy()
    emb = nudged.slot("embedding.weight")
    for pos, tok in enumerate(row.tokens):
        emb[tok] += 0.05 * grads[pos]
    p_after = float(softmax(forward_logits(nudged, row))[row.labels[0]])
    assert p_after < p_before


def test_batch_losses_match_single_losses():
    model = init_params(ModelSpec("linear", input_dim=2), seed=6)
    batch = dense_batch(np.random.default_rng(5), 5, 2)
    losses = nll_loss_batch(model, batch)
    singles = [nll_loss_batch(model, batch.take([i]))[0] for i in range(len(batch))]
    assert np.allclose(losses, singles)


# -- packed kernels against the per-example loops they replaced ---------------


def reference_logits_and_grad(model, batch, weights):
    """Per-example forward and backward, one (input, label, ...) row at a time."""
    spec = model.spec

    view = model.slot
    grad = np.zeros_like(model.params)

    def put(name, value):
        lo, hi = model.layout[name]
        grad[lo:hi] += value.ravel()

    logits = []
    for (inputs, label, *_), wt in zip(batch, weights):
        if spec.architecture == "embed_bag":
            ids = np.asarray(inputs, dtype=int)
            bag = view("embedding.weight")[ids].mean(axis=0)
            z = view("out.weight") @ bag + view("out.bias")
        else:
            x = np.asarray(inputs, dtype=float)
            assert x.shape == (spec.input_dim,)
            if spec.architecture == "linear":
                z = view("linear.weight") @ x + view("linear.bias")
            else:
                a = np.tanh(view("hidden.weight") @ x + view("hidden.bias"))
                z = view("out.weight") @ a + view("out.bias")
        p = np.exp(z - z.max())
        p /= p.sum()
        dz = wt * (p - np.eye(spec.num_classes)[label])
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
        (
            rng.integers(0, spec.vocab_size, size=int(rng.integers(1, 7)))
            if tokens else rng.standard_normal(spec.input_dim),
            int(rng.integers(0, spec.num_classes)), int(rng.integers(0, 2)),
        )
        for _ in range(12)
    ]
    idx = rng.permutation(len(pool))[:size]
    batch = [pool[i] for i in idx]
    weights = rng.uniform(0.1, 2.0, size=size)
    want_logits, want_grad = reference_logits_and_grad(model, batch, weights)
    z = want_logits - want_logits.max(axis=1, keepdims=True)
    want_nll = -(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))[np.arange(size),
                                                                   [label for _, label, _ in batch]]
    # packed batches and rows taken from a packed pool
    for form in (packed_rows(batch), packed_rows(pool).take(idx)):
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
    batch = packed_rows(
        (rng.integers(0, spec.vocab_size, size=int(rng.integers(1, 6)))
         if tokens else rng.standard_normal(spec.input_dim),
         int(rng.integers(0, spec.num_classes)))
        for _ in range(9)
    )
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
    packed = packed_rows((np.array(ids), i % 2, i % 3)
                         for i, ids in enumerate([[1], [2, 3, 4], [5, 6], [7]]))
    part = packed.take([2, 0, 2])
    assert part.tokens.tolist() == [5, 6, 1, 5, 6]
    assert part.offsets.tolist() == [0, 2, 3, 5]
    assert part.labels.tolist() == [0, 0, 0] and part.groups.tolist() == [2, 0, 2]
    dense = packed_rows((np.array([float(i), 0.0]), i) for i in range(3))
    assert dense.take([1]).x.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize("tokens", [False, True])
@pytest.mark.parametrize("batch_size", [1, 4, 10, 11, 32])
def test_rows_equal_take_of_the_same_range(tokens, batch_size):
    # 10 rows: every batch size but 1 and 10 leaves a short last batch
    rng = np.random.default_rng(3)
    packed = packed_rows((rng.integers(0, 9, size=int(rng.integers(1, 5))) if tokens
                          else rng.standard_normal(3), i % 2, i % 3) for i in range(10))
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
    # the two entry forms: the loss kernel and the gradient kernel
    model = init_params(ModelSpec("embed_bag", vocab_size=4, embed_dim=2), seed=0)
    out_of_range = [packed_rows([(np.array([1, 2]), 0), (bad, 1)])
                    for bad in (np.array([0, 7]), np.array([-1, 2]))]
    empty = Packed(np.array([0, 1]), np.zeros(2, dtype=int), tokens=np.array([1, 2]),
                   offsets=np.array([0, 2, 2]))  # the second row is empty
    dense = packed_rows([(np.zeros(2), 0), (np.zeros(2), 1)])
    for batch in (*out_of_range, empty, dense):
        with pytest.raises(InputShapeError):
            nll_loss_batch(model, batch)
        with pytest.raises(InputShapeError):
            grad_params(model, batch, np.ones(2))


def test_dense_shape_errors_through_both_entry_forms():
    # the two entry forms: the loss kernel and the gradient kernel
    model = init_params(ModelSpec("mlp", input_dim=3, hidden_units=2), seed=0)
    narrow = packed_rows([(np.zeros(2), 0)])
    with pytest.raises(InputShapeError):
        nll_loss_batch(model, narrow)
    with pytest.raises(InputShapeError):
        grad_params(model, narrow, np.ones(1))


ALL_SPECS = [
    *KERNEL_SPECS,
    ModelSpec("linear", input_dim=1, num_classes=2),
    ModelSpec("mlp", input_dim=2, hidden_units=1, num_classes=5),
    ModelSpec("embed_bag", vocab_size=2, embed_dim=1, num_classes=2),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.architecture)
def test_view_equals_the_former_slice_of_every_slot(spec):
    flat = np.random.default_rng(0).standard_normal(spec.param_count)
    for name, (lo, hi, shape) in spec.slots.items():
        view, former = spec.view(flat, name), flat[lo:hi].reshape(shape)
        assert view.shape == former.shape and np.array_equal(view, former)
        assert np.shares_memory(view, flat)
        view[...] = -1.0 - lo  # a write through the view reaches the flat vector
        assert np.all(flat[lo:hi] == -1.0 - lo)
        assert np.all(np.delete(flat, np.arange(lo, hi)) != -1.0 - lo)
    assert not hasattr(spec, "views")


def reference_log_softmax(logits):
    """The former _log_softmax, through the ndarray reduction methods."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@st.composite
def logit_arrays(draw):
    n, c = draw(st.integers(1, 40)), draw(st.integers(2, 5))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 700.0]))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * c, max_size=n * c))
    logits = scale * np.array(values).reshape(n, c)
    if draw(st.booleans()):  # ties with the row maximum
        logits[:, -1] = logits.max(axis=1)
    return logits


@settings(max_examples=200, deadline=None)
@given(logits=logit_arrays())
def test_log_softmax_equals_the_former_formula(logits):
    before = logits.copy()
    got = _log_softmax(logits)
    assert got.shape == logits.shape and np.array_equal(got, reference_log_softmax(logits))
    assert np.array_equal(logits, before)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_batch_constants_are_shared_read_only_arrays(n):
    rows, weights = batch_constants(n)
    assert np.array_equal(rows, np.arange(n)) and rows.dtype == np.arange(n).dtype
    assert np.array_equal(weights, np.full(n, 1.0 / n))
    assert batch_constants(n)[0] is rows and batch_constants(n)[1] is weights
    for array in (rows, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    # the nll state hands the shared index to weighted_grad, which only reads it
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    batch = dense_batch(np.random.default_rng(n), n, 2)
    losses, state = nll_forward(model, batch)
    assert state["rows"] is rows
    assert np.array_equal(weighted_grad(model, state, weights), grad_params(model, batch, weights))
    assert np.array_equal(rows, np.arange(n)) and np.array_equal(weights, np.full(n, 1.0 / n))
