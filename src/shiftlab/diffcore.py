"""Minimal differentiable classifiers with exact backprop.

Three tiny architectures (linear, one-hidden-layer tanh MLP, mean-pooled
embedding bag) over a single flat parameter vector, plus per-example losses,
batch gradients, a finite-difference verification harness and a Monte Carlo
diagonal empirical Fisher in closed form per layer, all on packed whole-batch
kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Optional, Tuple

import numpy as np


class InputShapeError(ValueError):
    """Packed rows are incompatible with the model spec."""


class UnsupportedArchitectureError(TypeError):
    """Operation called on an architecture that does not support it."""


class DivergenceError(ValueError):
    """Training met a NaN or infinite value; the message names it ("non-finite losses")."""


ARCHITECTURES = ("linear", "mlp", "embed_bag")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description for one of the three tiny classifiers; it
    fixes where each parameter slot sits in the flat parameter vector.

    architecture: "linear", "mlp" or "embed_bag".
    input_dim is ignored for embed_bag; hidden_units only applies to mlp;
    vocab_size/embed_dim only apply to embed_bag.
    """

    architecture: str
    input_dim: int = 0
    num_classes: int = 2
    hidden_units: int = 0
    vocab_size: int = 0
    embed_dim: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture: {self.architecture!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.architecture in ("linear", "mlp") and self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.architecture == "mlp" and self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if self.architecture == "embed_bag":
            if self.vocab_size < 2:
                raise ValueError("vocab_size must be >= 2")
            if self.embed_dim < 1:
                raise ValueError("embed_dim must be >= 1")

    @cached_property
    def slots(self) -> Dict[str, Tuple[int, int, Tuple[int, ...]]]:
        """(start, stop, shape) of each parameter slot, in layout order."""
        c = self.num_classes
        if self.architecture == "linear":
            shapes = {"linear.weight": (c, self.input_dim), "linear.bias": (c,)}
        elif self.architecture == "mlp":
            h = self.hidden_units
            shapes = {"hidden.weight": (h, self.input_dim), "hidden.bias": (h,),
                      "out.weight": (c, h), "out.bias": (c,)}
        else:
            e = self.embed_dim
            shapes = {"embedding.weight": (self.vocab_size, e), "out.weight": (c, e),
                      "out.bias": (c,)}
        slots, start = {}, 0
        for name, shape in shapes.items():
            stop = start + int(np.prod(shape))
            slots[name], start = (start, stop, shape), stop
        return slots

    @property
    def param_count(self) -> int:
        return max(hi for _, hi, _ in self.slots.values())

    @cached_property
    def head(self) -> Tuple[str, str]:
        """Names of the output layer's weight and bias slots."""
        layer = "linear" if self.architecture == "linear" else "out"
        return f"{layer}.weight", f"{layer}.bias"

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        """Slot `name` of a flat parameter-length vector as a shaped view."""
        lo, hi, shape = self.slots[name]
        return flat[lo:hi] if len(shape) == 1 else flat[lo:hi].reshape(shape)


@dataclass
class ModelState:
    """Model spec plus the flat parameter vector the spec lays out."""

    spec: ModelSpec
    params: np.ndarray

    @property
    def layout(self) -> Dict[str, Tuple[int, int]]:
        """(start, stop) of each slot in params, in layout order."""
        return {name: (lo, hi) for name, (lo, hi, _) in self.spec.slots.items()}

    def slot(self, name: str) -> np.ndarray:
        """Slot `name` as a shaped view into params."""
        return self.spec.view(self.params, name)

    def copy(self) -> "ModelState":
        return ModelState(self.spec, self.params.copy())

    @property
    def num_params(self) -> int:
        return self.params.size


@lru_cache(maxsize=64)
def batch_constants(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The row index np.arange(n) and the uniform weights np.full(n, 1 / n) of
    an n-row batch, read-only and shared by every caller with this n."""
    rows, weights = np.arange(n), np.full(n, 1.0 / n)
    rows.flags.writeable = weights.flags.writeable = False
    return rows, weights


def init_params(spec: ModelSpec, seed: int) -> ModelState:
    """Deterministic init: uniform +-1/sqrt(fan_in) weights, zero biases."""
    rng = np.random.default_rng(seed)
    model = ModelState(spec, np.zeros(spec.param_count))
    for name, (lo, hi, shape) in spec.slots.items():
        if len(shape) == 2:  # a weight's fan-in is its row length
            bound = 1.0 / np.sqrt(shape[1])
            model.params[lo:hi] = rng.uniform(-bound, bound, size=hi - lo)
    return model


@dataclass(eq=False)
class Packed:
    """Labeled rows as arrays, the one batch type every kernel takes: dense
    rows `x (n, d)`, or token rows in CSR form (row i is
    tokens[offsets[i]:offsets[i + 1]])."""

    labels: np.ndarray
    groups: np.ndarray
    x: Optional[np.ndarray] = None
    tokens: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, idx) -> "Packed":
        """Rows `idx`, in that order."""
        idx = np.asarray(idx, dtype=int)
        if self.x is not None:
            return Packed(self.labels[idx], self.groups[idx], x=self.x[idx])
        starts = self.offsets[idx]
        lengths = self.offsets[idx + 1] - starts
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        flat = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
        return Packed(self.labels[idx], self.groups[idx],
                      tokens=self.tokens[flat], offsets=offsets)

    def rows(self, start: int, stop: int) -> "Packed":
        """Rows start..stop-1 without a copy: views of the dense rows, or of the
        token rows with their offsets rebased to start at 0."""
        labels, groups = self.labels[start:stop], self.groups[start:stop]
        if self.x is not None:
            return Packed(labels, groups, x=self.x[start:stop])
        offsets = self.offsets[start:stop + 1]
        return Packed(labels, groups, tokens=self.tokens[offsets[0]:offsets[-1]],
                      offsets=offsets - offsets[0])


def _forward_batch(model: ModelState, batch: Packed):
    """Logits for a batch plus the activation cache used by backprop; the cache's
    feature is the output layer's input (x, the tanh activations or the bag)."""
    spec, params = model.spec, model.params
    w, b = spec.view(params, spec.head[0]), spec.view(params, spec.head[1])
    cache: Dict[str, object] = {"batch": batch}
    if spec.architecture == "embed_bag":
        lengths = None if batch.tokens is None else batch.offsets[1:] - batch.offsets[:-1]
        if lengths is None or lengths.size == 0 or lengths.min() < 1:
            raise InputShapeError("token input must be a non-empty 1-d sequence")
        if batch.tokens.min() < 0 or batch.tokens.max() >= spec.vocab_size:
            raise InputShapeError(f"token id out of range [0, {spec.vocab_size})")
        emb = spec.view(params, "embedding.weight")
        rows = np.take(emb, batch.tokens, axis=0)  # the copy emb[batch.tokens] makes, faster
        bag = np.add.reduceat(rows, batch.offsets[:-1], axis=0) / lengths[:, None]
        cache.update(lengths=lengths, feature=bag)
        return bag @ w.T + b, cache
    shape = None if batch.x is None else batch.x.shape
    if shape is None or shape[1:] != (spec.input_dim,) or shape[0] == 0:
        raise InputShapeError(f"expected inputs of shape (n, {spec.input_dim}), got {shape}")
    if spec.architecture == "linear":
        cache["feature"] = batch.x
    else:
        cache["feature"] = np.tanh(batch.x @ spec.view(params, "hidden.weight").T
                                   + spec.view(params, "hidden.bias"))
    return cache["feature"] @ w.T + b, cache


def _backward_from_dlogits(model: ModelState, cache, dlogits: np.ndarray) -> np.ndarray:
    """Flat parameter gradient given d(loss)/d(logits) for each example; each
    slot's gradient is written straight into its place in one new vector."""
    spec = model.spec
    grad = np.empty(model.params.size)
    w, b = spec.head
    feature = cache["feature"]
    np.matmul(dlogits.T, feature, out=spec.view(grad, w))
    np.add.reduce(dlogits, axis=0, out=spec.view(grad, b))
    if spec.architecture == "mlp":
        dpre = (dlogits @ model.slot("out.weight")) * (1.0 - feature * feature)
        np.matmul(dpre.T, cache["batch"].x, out=spec.view(grad, "hidden.weight"))
        np.add.reduce(dpre, axis=0, out=spec.view(grad, "hidden.bias"))
    elif spec.architecture == "embed_bag":
        # each token of row i gets dbag[i] / len(row i), summed per cell in row order
        lengths = cache["lengths"]
        v, e = spec.vocab_size, spec.embed_dim
        dbag = dlogits @ model.slot("out.weight")
        dtok = np.repeat(dbag / lengths[:, None], lengths, axis=0)
        cells = (cache["batch"].tokens[:, None] * e + np.arange(e)).ravel()
        spec.view(grad, "embedding.weight")[:] = np.bincount(
            cells, dtok.ravel(), v * e).reshape(v, e)
    return grad


def forward_logits(model: ModelState, row: Packed) -> np.ndarray:
    """The logits of a one-row batch."""
    return _forward_batch(model, row)[0][0]


def forward_logits_batch(model: ModelState, batch: Packed) -> np.ndarray:
    logits, _ = _forward_batch(model, batch)
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits))


def nll_forward(model: ModelState, batch: Packed):
    """Per-example nll of a batch plus the forward state weighted_grad backprops."""
    logits, state = _forward_batch(model, batch)
    state["log_probs"] = log_probs = _log_softmax(logits)
    state["rows"] = rows = batch_constants(len(batch))[0]
    return -log_probs[rows, batch.labels], state


def weighted_grad(model: ModelState, state, weights: np.ndarray) -> np.ndarray:
    """Gradient of sum_i weights[i] * nll(x_i, y_i) wrt the flat params, from
    the state nll_forward returned for the same model and batch."""
    batch = state["batch"]
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(batch),):
        raise ValueError(
            f"weights length {weights.shape} does not match batch size {len(batch)}"
        )
    if not np.logical_and.reduce(np.isfinite(weights)):
        raise DivergenceError("non-finite example weights")
    dlogits = np.exp(state["log_probs"])  # softmax(logits)
    dlogits[state["rows"], batch.labels] -= 1.0
    dlogits *= weights[:, None]
    return _backward_from_dlogits(model, state, dlogits)


def nll_loss_batch(model: ModelState, batch: Packed) -> np.ndarray:
    return nll_forward(model, batch)[0]


def _misclassified(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # np.argmax breaks ties toward the lowest class index
    return (logits.argmax(axis=-1) != labels).astype(float)


def zero_one_loss_batch(model: ModelState, batch: Packed) -> np.ndarray:
    logits, _ = _forward_batch(model, batch)
    return _misclassified(logits, batch.labels)


LOSS_KINDS = ("nll", "zero_one")  # the keys of logit_losses


def logit_losses(logits: np.ndarray, labels: np.ndarray) -> Dict[str, np.ndarray]:
    """Both per-example loss rows of one forward's logits, by loss kind: "nll"
    as nll_forward computes it and "zero_one" as zero_one_loss_batch does."""
    rows = batch_constants(len(labels))[0]
    return {"nll": -_log_softmax(logits)[rows, labels], "zero_one": _misclassified(logits, labels)}


def grad_params(model: ModelState, batch: Packed, weights: np.ndarray) -> np.ndarray:
    """Gradient of sum_i weights[i] * nll(x_i, y_i) wrt the flat params."""
    return weighted_grad(model, nll_forward(model, batch)[1], weights)


def finite_diff_check(
    model: ModelState, batch: Packed, step: float = 1e-5
) -> float:
    """Max relative error of grad_params against central differences."""
    if step <= 0:
        raise ValueError("step must be positive")
    analytic = grad_params(model, batch, batch_constants(len(batch))[1])
    worst = 0.0
    params = model.params
    for j in range(params.size):
        orig = params[j]
        params[j] = orig + step
        up = nll_loss_batch(model, batch).mean()
        params[j] = orig - step
        down = nll_loss_batch(model, batch).mean()
        params[j] = orig
        numeric = (up - down) / (2.0 * step)
        err = abs(numeric - analytic[j]) / max(1.0, abs(analytic[j]))
        worst = max(worst, err)
    return worst


def fisher_diag(model: ModelState, rows: Packed, sample_count: int, seed: int) -> np.ndarray:
    """Monte Carlo diagonal empirical Fisher: mean of squared nll gradients of
    sample_count rows drawn with replacement from packed rows.

    One forward over the drawn rows gives every row's gradient factors; each
    layer's sum of squared per-row gradients is then a product of squared
    factors, sum_i (d_i^2)^T (a_i^2) (Goodfellow, arXiv:1510.01799). A linear
    or mlp model only: an embed_bag model raises UnsupportedArchitectureError.
    """
    if model.spec.architecture == "embed_bag":
        raise UnsupportedArchitectureError("fisher_diag requires a linear or mlp model")
    if len(rows) == 0:
        raise ValueError("fisher_diag requires a non-empty dataset")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    sample = rows.take(rng.integers(0, len(rows), size=sample_count))
    logits, cache = _forward_batch(model, sample)
    index = batch_constants(sample_count)[0]
    d = softmax(logits)
    d[index, sample.labels] -= 1.0
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


def grad_wrt_embeddings_batch(model: ModelState, batch: Packed) -> np.ndarray:
    """(rows, embed_dim) gradients of each row's adversarial loss log(1 - p(y|x)),
    the log-probability of the model erring on the true label, wrt its input
    embedding vectors; a mean-pooled bag gives every position of row i the same row i.
    """
    if model.spec.architecture != "embed_bag":
        raise UnsupportedArchitectureError(
            "grad_wrt_embeddings requires an embed_bag model"
        )
    logits, cache = _forward_batch(model, batch)
    probs = softmax(logits)
    rows = batch_constants(len(batch))[0]
    # d/dz_k log(1 - p_y) = -p_y (1[k=y] - p_k) / (1 - p_y)
    py = probs[rows, batch.labels]
    denom = np.maximum(1.0 - py, 1e-300)
    dlogits = py[:, None] * probs / denom[:, None]
    dlogits[rows, batch.labels] -= py / denom
    dbag = dlogits @ model.slot("out.weight")
    return dbag / cache["lengths"][:, None]


def grad_wrt_embeddings(model: ModelState, row: Packed) -> np.ndarray:
    """(positions, embed_dim) gradients of a one-row batch's adversarial loss wrt
    its input embedding vectors: its row of grad_wrt_embeddings_batch at every position."""
    return np.repeat(grad_wrt_embeddings_batch(model, row), row.tokens.size, axis=0)
