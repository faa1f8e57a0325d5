from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import finite_diff_check, packed_rows
from shiftlab import diffcore
from shiftlab.diffcore import (
    InputShapeError,
    ModelSpec,
    ModelState,
    Packed,
    UnsupportedArchitectureError,
    _backward_from_dlogits,
    _forward_batch,
    _log_softmax,
    batch_constants,
    fisher_diag,
    forward_logits,
    forward_logits_batch,
    grad_params,
    grad_wrt_embeddings,
    init_params,
    nll_forward,
    nll_loss_batch,
    nll_state,
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
    # Each entry of either side is the mean of n = 300 nonnegative squared
    # gradients t_i. Summed in any order, their computed sum is within
    # (n - 1) u / (1 - (n - 1) u) * sum t_i of the exact one (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2002, section 4.2; u = 2^-53), and
    # the division by n adds u * sum t_i / n: so each side's mean is within
    # n u of the exact mean, relative, to first order, and the two sides are
    # within 2 n u (600 u) of each other. Their terms are the same products
    # rounded in another order, a few u apart: on an AVX-512 host, the gap
    # measured under OpenBLAS's default, Haswell, Zen, Nehalem, Sandybridge and
    # Prescott kernels, and with numpy's AVX2 loops, is at most 19 u.
    n, u = len(idx), np.finfo(float).eps / 2
    np.testing.assert_allclose(diag, reference, rtol=2 * n * u, atol=0)


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
    nudged = ModelState(model.spec, model.params.copy())
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


def former_log_softmax(logits):
    """_log_softmax before its two-column path, verbatim."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def former_subtract_labels(dlogits, labels):
    """The label subtraction weighted_grad and fisher_diag made before the
    one-hot rows: a fancy-indexed -= 1.0, in place."""
    dlogits[batch_constants(len(labels))[0], labels] -= 1.0


# ties, signed zeros, infinities, NaN, subnormals and logits near the float64 limit
CORNERS = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, np.inf, -np.inf, np.nan, 700.0, -800.0,
                    1e308, -1e308, np.finfo(float).max, -np.finfo(float).max])


def corner_logits(n, c, seed):
    """n rows of c logits: every ordered pair of CORNERS in the first two
    columns (cycled to fill n rows), the rest standard normal times 1e3."""
    rng = np.random.default_rng(seed)
    logits = 1e3 * rng.standard_normal((n, c))
    pairs = np.array([(a, b) for a in CORNERS for b in CORNERS])
    logits[:, :2] = np.resize(pairs, (n, 2))[rng.permutation(n)]
    return logits


@pytest.mark.parametrize("n", [1, 32, 2000])
@pytest.mark.parametrize("c", [2, 3, 5])
def test_log_softmax_keeps_the_bits_of_the_reduce_on_every_corner(n, c):
    with np.errstate(all="ignore"):
        for seed in range(3 if n < len(CORNERS) ** 2 else 1):
            logits = corner_logits(n, c, seed)
            for rows in (logits, np.ascontiguousarray(logits[::-1])):
                assert _log_softmax(rows).tobytes() == former_log_softmax(rows).tobytes()
        # rpdro's score vector is one row on the last axis
        vector = corner_logits(1, 2, 0)[0] if n == 1 else np.resize(CORNERS, n)
        assert _log_softmax(vector).tobytes() == former_log_softmax(vector).tobytes()


class Recorded:
    """A ufunc whose calls and reduces are logged as `name` and `name.reduce`."""

    def __init__(self, ufunc, log):
        self.ufunc, self.log = ufunc, log

    def __call__(self, *args, **kwargs):
        self.log.append(self.ufunc.__name__)
        return self.ufunc(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.log.append(f"{self.ufunc.__name__}.reduce")
        return self.ufunc.reduce(*args, **kwargs)


class RecordingNumpy:
    """numpy, with np.maximum and np.add logged (an operator such as + is not)."""

    def __init__(self, log):
        self.maximum, self.add = Recorded(np.maximum, log), Recorded(np.add, log)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("shape, reduces", [((32, 2), False), ((1, 2), False), ((2,), True),
                                            ((32,), True), ((32, 3), True), ((4, 5, 2), True)])
def test_only_two_column_matrices_take_the_column_path(monkeypatch, shape, reduces):
    log = []
    monkeypatch.setattr(diffcore, "np", RecordingNumpy(log))
    logits = np.random.default_rng(0).standard_normal(shape)
    got = _log_softmax(logits)
    monkeypatch.undo()
    assert log == (["maximum.reduce", "add.reduce"] if reduces else ["maximum"])
    assert got.tobytes() == former_log_softmax(logits).tobytes()


def former_weighted_grad(model, state, weights):
    """weighted_grad's arithmetic before the one-hot rows, without its checks."""
    dlogits = np.exp(state["log_probs"])
    former_subtract_labels(dlogits, state["batch"].labels)
    dlogits *= weights[:, None]
    return _backward_from_dlogits(model, state, dlogits)


@pytest.mark.parametrize("n", [1, 32, 2000])
@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_label_subtraction_keeps_the_bits_of_the_fancy_scatter(n, c, arch):
    rng = np.random.default_rng(n + c)
    spec = ModelSpec(arch, input_dim=3, hidden_units=4, num_classes=c)
    model = ModelState(spec, rng.standard_normal(spec.param_count))
    batch = packed_rows((rng.standard_normal(3), int(rng.integers(0, c))) for _ in range(n))
    # weights of both signs, signed zeros and a subnormal
    weights = np.resize([0.5, -0.0, 0.0, -3.0, 5e-324, 1e300], n) * rng.permutation(n)
    with np.errstate(all="ignore"):
        for logits in (None, corner_logits(n, c, n)):
            state = nll_state(model, batch)
            if logits is not None:  # every corner of log_probs, and so of their exps
                state["log_probs"] = former_log_softmax(logits)
            got = weighted_grad(model, state, weights)
            assert got.tobytes() == former_weighted_grad(model, state, weights).tobytes()
            dlogits = np.exp(state["log_probs"])
            want = dlogits.copy()
            former_subtract_labels(want, batch.labels)
            dlogits -= diffcore._one_hot(c).take(batch.labels, axis=0)
            assert dlogits.tobytes() == want.tobytes()
    eye = diffcore._one_hot(c)
    assert diffcore._one_hot(c) is eye and not eye.flags.writeable
    assert np.array_equal(eye, np.eye(c))


def former_fisher_diag(model, rows, sample_count, seed):
    """fisher_diag's arithmetic before the one-hot rows, without its checks."""
    rng = np.random.default_rng(seed)
    sample = rows.take(rng.integers(0, len(rows), size=sample_count))
    logits, cache = _forward_batch(model, sample)
    d = softmax(logits)
    former_subtract_labels(d, sample.labels)
    d2 = d * d
    spec = model.spec
    out = np.empty(model.params.size)
    w, b = spec.head
    feature = cache["feature"]
    np.matmul(d2.T, feature * feature, out=spec.view(out, w))
    d2.sum(axis=0, out=spec.view(out, b))
    if spec.architecture == "mlp":
        dpre2 = ((d @ model.slot("out.weight")) * (1.0 - feature * feature)) ** 2
        np.matmul(dpre2.T, sample.x * sample.x, out=spec.view(out, "hidden.weight"))
        dpre2.sum(axis=0, out=spec.view(out, "hidden.bias"))
    return out / sample_count


@pytest.mark.parametrize("sample_count", [1, 32, 2000])
@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_fisher_diag_keeps_the_bits_of_the_fancy_scatter(sample_count, c, arch):
    rng = np.random.default_rng(sample_count)
    spec = ModelSpec(arch, input_dim=3, hidden_units=4, num_classes=c)
    model = ModelState(spec, 3.0 * rng.standard_normal(spec.param_count))
    rows = packed_rows((rng.standard_normal(3), int(rng.integers(0, c))) for _ in range(50))
    got = fisher_diag(model, rows, sample_count, seed=c)
    assert got.tobytes() == former_fisher_diag(model, rows, sample_count, seed=c).tobytes()


@pytest.mark.parametrize("c", [2, 3])
def test_a_label_past_the_last_class_still_raises_index_error(c):
    spec = ModelSpec("linear", input_dim=2, num_classes=c)
    model = init_params(spec, seed=0)
    batch = packed_rows([(np.ones(2), 0), (np.zeros(2), c)])
    with pytest.raises(IndexError):
        weighted_grad(model, nll_state(model, batch), np.full(2, 0.5))
    with pytest.raises(IndexError):
        fisher_diag(model, batch, sample_count=16, seed=0)


def reference_embedding_grad(model, batch, dlogits):
    """The embedding slot's gradient as the backward took it before it gathered
    the cell index, verbatim: a bincount over the broadcast (token, dim) cells."""
    lengths = batch.offsets[1:] - batch.offsets[:-1]
    v, e = model.spec.vocab_size, model.spec.embed_dim
    dbag = dlogits @ model.slot("out.weight")
    dtok = np.repeat(dbag / lengths[:, None], lengths, axis=0)
    cells = (batch.tokens[:, None] * e + np.arange(e)).ravel()
    return np.bincount(cells, dtok.ravel(), v * e).reshape(v, e)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=9), min_size=1, max_size=40),
       st.integers(0, 2**32 - 1))
@example([[3, 3, 1, 3], [0]], 0)  # a token repeated within a row
def test_embedding_grad_equals_the_former_scatter_bit_for_bit(rows, seed):
    # tokens 6..8 of the vocabulary are never drawn: their cells stay exactly 0
    spec = ModelSpec("embed_bag", vocab_size=9, embed_dim=5, num_classes=3)
    rng = np.random.default_rng(seed)
    model = ModelState(spec, rng.standard_normal(spec.param_count))
    batch = packed_rows((np.array(row), int(rng.integers(0, 3))) for row in rows)
    dlogits = rng.standard_normal((len(rows), 3))
    grad = _backward_from_dlogits(model, _forward_batch(model, batch)[1], dlogits)
    got = spec.view(grad, "embedding.weight")
    assert got.tobytes() == reference_embedding_grad(model, batch, dlogits).tobytes()
    assert not np.logical_or.reduce(got[6:], axis=None)


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
