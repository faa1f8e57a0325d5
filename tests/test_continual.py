import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import residual_check
from shiftlab import continual
from shiftlab.continual import (
    ContinualConfig,
    ContinualMetrics,
    FisherState,
    ReplayMemory,
    average_accuracy,
    average_forgetting,
    conatural_delta,
    conatural_delta_raw,
    continual_train,
    ewc_loss,
    fisher_renormalize,
    forgetting,
    initial_fisher,
    reservoir_add,
    rolling_fisher_update,
    rotated_gaussian_tasks,
    with_replay,
)
from shiftlab.datasets import (DistractorTextSpec, TwoDomainSpec, batches, gen_distractor_text,
                               gen_two_domain_gaussian)
from shiftlab.diffcore import (
    ModelSpec,
    ModelState,
    Packed,
    grad_params,
    init_params,
    zero_one_loss_batch,
)


def cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_fisher_state_validation():
    with pytest.raises(ValueError):
        FisherState(np.array([-1.0, 1.0]), gamma=0.9, alpha=1.0)
    with pytest.raises(ValueError):
        FisherState(np.ones(2), gamma=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        FisherState(np.ones(2), gamma=0.9, alpha=-1.0)


@pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
def test_initial_fisher_checks_gamma_before_dividing_by_it(gamma):
    with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
        initial_fisher(3, gamma, 1.0)


def test_initial_fisher_accounts_for_damping_once():
    fisher = initial_fisher(3, gamma=0.5, alpha=2.0)
    assert np.allclose(fisher.diag, 4.0)
    inf_fisher = initial_fisher(3, 0.9, math.inf)
    assert np.allclose(inf_fisher.diag, 0.0)


def test_conatural_delta_worked_example():
    # diag (2, 0), damping 1: raw solve (1, 3), rescaled to the gradient norm
    fisher = FisherState(np.array([2.0, 0.0]), gamma=0.9, alpha=1.0)
    grad = np.array([3.0, 3.0])
    raw = conatural_delta_raw(grad, fisher)
    assert raw == pytest.approx([1.0, 3.0], abs=1e-9)
    delta = conatural_delta(grad, fisher, lr=1.0)
    scale = np.linalg.norm(grad) / np.linalg.norm(raw)
    assert delta == pytest.approx([-scale, -3.0 * scale], abs=1e-9)
    assert delta == pytest.approx([-1.3416, -4.0249], abs=1e-3)
    assert np.linalg.norm(delta) == pytest.approx(np.linalg.norm(grad))


def test_conatural_delta_edge_cases():
    fisher = FisherState(np.zeros(2), gamma=0.9, alpha=1.0)
    grad = np.array([1.0, -2.0])
    # isotropic preconditioner: direction is exactly the plain gradient
    assert cosine(conatural_delta(grad, fisher, 0.1), -grad) == pytest.approx(1.0)
    assert np.allclose(conatural_delta(np.zeros(2), fisher, 0.1), 0.0)
    inf_fisher = FisherState(np.array([5.0, 1.0]), gamma=0.9, alpha=math.inf)
    assert np.allclose(conatural_delta(grad, inf_fisher, 0.3), -0.3 * grad)
    with pytest.raises(ValueError):
        conatural_delta(grad, fisher, lr=0.0)
    with pytest.raises(ValueError):
        conatural_delta(np.ones(3), fisher, lr=0.1)


def test_conatural_limit_of_large_damping_is_plain_gradient():
    fisher_small = FisherState(np.array([5.0, 1.0, 0.2]), gamma=0.9, alpha=1e8)
    grad = np.array([1.0, -1.0, 2.0])
    assert cosine(conatural_delta(grad, fisher_small, 1.0), -grad) > 1 - 1e-8


@pytest.mark.parametrize("alpha", [1e160, 1e200])
@pytest.mark.parametrize("size", [1, 5, 65, 4099])
def test_conatural_delta_of_huge_damping_is_the_plain_gradient_within_ulps(alpha, size):
    # the raw solve's sum of squares falls below the smallest normal float, so
    # the raw delta is rescaled; the result is the large-damping limit -lr * grad
    # up to the solve's own roundings (at most 6 ulps measured)
    rng = np.random.default_rng(size)
    grad = rng.standard_normal(size)
    fisher = FisherState(rng.exponential(1.0, size), 0.9, alpha)
    raw = conatural_delta_raw(grad, fisher)
    assert raw @ raw < np.finfo(float).tiny
    want = -0.3 * grad
    got = conatural_delta(grad, fisher, 0.3)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


def test_conatural_delta_of_an_overflowed_fisher_is_the_plain_gradient():
    # alpha / gamma overflows, so every entry of the raw solve is 0
    fisher = initial_fisher(3, gamma=0.5, alpha=1e308)
    grad = np.array([1.0, -2.0, 0.5])
    with np.errstate(divide="raise", invalid="raise"):
        assert np.array_equal(conatural_delta(grad, fisher, 0.3), -0.3 * grad)


def test_residual_check_near_zero_for_exact_solve():
    rng = np.random.default_rng(0)
    fisher = FisherState(rng.uniform(0, 5, 10), gamma=0.9, alpha=0.5)
    grad = rng.standard_normal(10)
    raw = conatural_delta_raw(grad, fisher)
    assert residual_check(grad, fisher, raw) < 1e-10
    assert residual_check(grad, fisher, raw * 1.5) > 0.1


def test_rolling_fisher_is_an_ema():
    fisher = FisherState(np.array([1.0, 2.0]), gamma=0.9, alpha=1.0)
    updated = rolling_fisher_update(fisher, np.array([11.0, 12.0]))
    assert np.allclose(updated.diag, 0.9 * np.array([11.0, 12.0]) + 0.1 * np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        rolling_fisher_update(fisher, np.ones(3))
    with pytest.raises(ValueError):
        rolling_fisher_update(fisher, np.array([-1.0, 1.0]))


def test_fisher_renormalize_sums_to_param_count():
    diag, ok = fisher_renormalize(np.array([1.0, 3.0]))
    assert ok
    assert diag.sum() == pytest.approx(2.0)
    zeros, ok = fisher_renormalize(np.zeros(4))
    assert not ok
    assert np.allclose(zeros, 0.0)


def test_ewc_loss_value_and_gradient():
    theta = np.array([1.0, 2.0])
    ref = np.array([0.0, 0.0])
    omega = np.array([1.0, 0.5])
    penalty, grad = ewc_loss(theta, ref, omega, lambda_reg=2.0)
    assert penalty == pytest.approx(2.0 * (1.0 + 0.5 * 4.0))
    assert np.allclose(grad, 2.0 * 2.0 * omega * theta)
    with pytest.raises(ValueError):
        ewc_loss(theta, ref, omega, lambda_reg=-1.0)
    with pytest.raises(ValueError):
        ewc_loss(theta, ref, np.ones(3), lambda_reg=1.0)


def test_reservoir_fills_then_stays_at_capacity():
    rng = np.random.default_rng(1)
    memory = ReplayMemory(capacity=5)
    for i in range(50):
        reservoir_add(memory, [i], rng)
        assert len(memory.items) <= 5
    assert len(memory.items) == 5
    assert memory.seen_count == 50
    with pytest.raises(ValueError):
        ReplayMemory(capacity=0)
    with pytest.raises(TypeError):  # the constructor takes the capacity only
        ReplayMemory(capacity=5, items=[1])


def test_with_replay_appends_one_memory_draw_per_batch_item():
    rng = np.random.default_rng(4)
    # five ids into ten free slots draw nothing, so with_replay makes the first draws
    memory = reservoir_add(ReplayMemory(capacity=10), [10, 11, 12, 13, 14], rng)
    batch = np.array([0, 1, 2])
    combined = with_replay(batch, memory, rng)
    drawn = np.random.default_rng(4).integers(0, 5, size=3)
    assert np.array_equal(combined, [0, 1, 2] + [memory.items[i] for i in drawn])
    rng = np.random.default_rng(5)
    assert with_replay(batch, ReplayMemory(capacity=10), rng) is batch
    # an empty memory draws nothing from the generator
    assert rng.random() == np.random.default_rng(5).random()


def test_forgetting_metrics_on_hand_matrix():
    matrix = np.array(
        [
            [0.9, 0.6, 0.5],
            [0.2, 0.8, 0.7],
            [0.1, 0.2, 0.9],
        ]
    )
    metrics = ContinualMetrics(matrix)
    assert forgetting(metrics, task=0, t=2) == pytest.approx(0.4)
    assert forgetting(metrics, task=1, t=2) == pytest.approx(0.1)
    assert average_forgetting(metrics) == pytest.approx(0.25)
    assert average_accuracy(metrics) == pytest.approx((0.5 + 0.7 + 0.9) / 3)
    with pytest.raises(ValueError):
        forgetting(metrics, task=0, t=0)


def test_continual_train_rejects_unknown_method():
    tasks = rotated_gaussian_tasks(2, 20, sigma=0.4, seed=0)
    with pytest.raises(ValueError, match="unknown method: 'lwf'"):
        continual_train(tasks, "lwf", ContinualConfig())


def test_continual_train_rejects_token_tasks():
    tasks = [gen_distractor_text(DistractorTextSpec(30, 32, 8, 0.95))]
    with pytest.raises(ValueError, match="continual_train needs dense tasks"):
        continual_train(tasks, "finetune", ContinualConfig())


def test_rotated_tasks_shapes_and_rotation():
    tasks = rotated_gaussian_tasks(3, 40, sigma=0.1, seed=0, max_angle=math.pi / 2)
    assert len(tasks) == 3
    assert all(len(t) == 40 for t in tasks)
    with pytest.raises(ValueError):
        rotated_gaussian_tasks(0, 10, 0.5)
    # the last task is the first rotated by max_angle: class means swap axes
    def class_mean(task, label, axis):
        rows = task.rows
        return rows.x[(rows.labels == label) & (rows.groups == 0), axis].mean()

    assert abs(class_mean(tasks[0], 1, 0)) > abs(class_mean(tasks[0], 1, 1))
    assert abs(class_mean(tasks[2], 1, 1)) > abs(class_mean(tasks[2], 1, 0))


@pytest.mark.parametrize("num_tasks, points, sigma, seed, max_angle",
                         [(5, 400, 0.5, 0, math.pi / 2), (4, 101, 2.0, 7, 3.0), (2, 1, 0.0, 3, 1.0)])
def test_rotated_tasks_match_the_per_row_rotation(num_tasks, points, sigma, seed, max_angle):
    tasks = rotated_gaussian_tasks(num_tasks, points, sigma, seed, max_angle)
    for t, task in enumerate(tasks):
        base = gen_two_domain_gaussian(TwoDomainSpec(points, 0.5, sigma, seed=seed + 977 * t))
        angle = max_angle * t / max(num_tasks - 1, 1)
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        assert len(task) == len(base)
        for name in ("labels", "groups"):
            assert np.array_equal(getattr(task.rows, name), getattr(base.rows, name))
        assert np.array_equal(task.ids, base.ids)
        for got, x in zip(task.rows.x, base.rows.x):
            assert got.tobytes() == (rot @ x).tobytes()


@pytest.mark.parametrize("method", ["finetune", "conatural", "ewc", "er", "conatural+er"])
def test_continual_train_matrix_shape(method):
    tasks = rotated_gaussian_tasks(3, 60, sigma=0.4, seed=1)
    config = ContinualConfig(hidden=4, epochs=1, fisher_samples=50, seed=1)
    metrics = continual_train(tasks, method, config)
    assert metrics.accuracy_matrix.shape == (3, 3)
    assert np.all(metrics.accuracy_matrix >= 0) and np.all(metrics.accuracy_matrix <= 1)


def test_continual_train_requires_tasks():
    with pytest.raises(ValueError):
        continual_train([], "finetune", ContinualConfig())


def test_continual_train_is_seed_deterministic():
    tasks = rotated_gaussian_tasks(2, 50, sigma=0.4, seed=2)
    config = ContinualConfig(hidden=4, epochs=1, fisher_samples=50, seed=3)
    a = continual_train(tasks, "conatural", config)
    b = continual_train(tasks, "conatural", config)
    assert np.array_equal(a.accuracy_matrix, b.accuracy_matrix)


def test_finetune_equals_a_loop_over_separate_trunk_and_head_arrays():
    # reference: each task trains a fresh head (drawn with seed + 1 + task)
    # on the trunk of init_params(seed), one model assembled per batch
    tasks = rotated_gaussian_tasks(3, 60, 0.5, seed=4)
    cfg = ContinualConfig(hidden=4, lr=0.3, epochs=2, batch_size=8, seed=5)
    spec = ModelSpec("mlp", input_dim=2, hidden_units=4)
    split = spec.slots["out.weight"][0]
    trunk = init_params(spec, cfg.seed).params[:split].copy()
    heads = [init_params(spec, cfg.seed + 1 + t).params[split:].copy() for t in range(3)]
    packed = [task.rows for task in tasks]
    expected = np.zeros((3, 3))
    for k, task in enumerate(tasks):
        for epoch in range(cfg.epochs):
            for idx in batches(task, cfg.batch_size, seed=cfg.seed * 100003 + k * 131 + epoch):
                model = ModelState(spec, np.concatenate([trunk, heads[k]]))
                grad = grad_params(model, packed[k].take(idx), np.full(len(idx), 1.0 / len(idx)))
                trunk -= cfg.lr * grad[:split]
                heads[k] -= cfg.lr * grad[split:]
        for t in range(3):
            model = ModelState(spec, np.concatenate([trunk, heads[t]]))
            expected[t, k] = 1.0 - zero_one_loss_batch(model, packed[t]).mean()
    got = continual_train(tasks, "finetune", cfg).accuracy_matrix
    assert np.array_equal(got, expected)


def reference_conatural_delta(grad, fisher, lr):
    """The former conatural_delta, with both norms from np.linalg.norm."""
    grad = np.asarray(grad, dtype=float)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm == 0.0:
        return np.zeros_like(grad)
    if math.isinf(fisher.alpha):
        return -lr * grad
    raw = grad / (fisher.diag + fisher.alpha + 1e-12)
    return -lr * (raw * (grad_norm / np.linalg.norm(raw)))


@st.composite
def conatural_cases(draw):
    size = draw(st.sampled_from([1, 2, 5, 24, 65, 1000, 4099]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grad = draw(st.sampled_from([1e-100, 1e-3, 1.0, 1e100])) * rng.standard_normal(size)
    if draw(st.booleans()):
        grad[rng.integers(0, size)] = 0.0
    diag = rng.exponential(draw(st.sampled_from([1e-6, 1.0, 1e6])), size)
    alpha = draw(st.sampled_from([0.0, 0.3, 1.0, math.inf]))
    return grad, FisherState(diag, 0.9, alpha), draw(st.sampled_from([1e-3, 0.1, 0.3]))


@settings(max_examples=200, deadline=None)
@given(case=conatural_cases())
def test_conatural_delta_equals_the_linalg_norm_form(case):
    grad, fisher, lr = case
    got = conatural_delta(grad, fisher, lr)
    assert np.array_equal(got, reference_conatural_delta(grad, fisher, lr))
    zero = np.zeros_like(grad)
    assert np.array_equal(conatural_delta(zero, fisher, lr),
                          reference_conatural_delta(zero, fisher, lr))


@dataclass
class ReferenceReplayMemory:
    """The former ReplayMemory, its fields verbatim: the items in a list."""

    capacity: int
    items: list = field(default_factory=list, init=False)
    seen_count: int = field(default=0, init=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")


def reference_reservoir_add(memory, item, rng):
    """The former reservoir_add, its body verbatim: one item per call."""
    memory.seen_count += 1
    if len(memory.items) < memory.capacity:
        memory.items.append(item)
    elif rng.random() < memory.capacity / memory.seen_count:
        slot = int(rng.integers(0, memory.capacity))
        memory.items[slot] = item
    return memory


def reference_with_replay(batch, memory, rng):
    """The former with_replay, its body verbatim: a list of the batch and its draws."""
    if not memory.items:
        return batch
    idx = rng.integers(0, len(memory.items), size=len(batch))
    return [*batch, *(memory.items[int(i)] for i in idx)]


@pytest.mark.parametrize("method", ["finetune", "er", "conatural+er"])
def test_continual_train_gathers_once_per_epoch_without_replay_per_step_with(monkeypatch, method):
    # 3 tasks of 30 rows in batches of 8 (short last batches), a small memory that
    # fills and then replaces; each step must see the rows of a reference loop of
    # batches -> the former list-based with_replay -> take, with uniform weights,
    # and the run must leave the former memory and random stream behind
    tasks = rotated_gaussian_tasks(3, 30, sigma=0.4, seed=6)
    cfg = ContinualConfig(hidden=4, epochs=2, batch_size=8, capacity=10, fisher_samples=50,
                          seed=2)
    every = Packed(*(np.concatenate([getattr(task.rows, name) for task in tasks])
                     for name in ("labels", "groups", "x")))
    replay = method != "finetune"
    rng = np.random.default_rng(cfg.seed + 7919)
    memory = ReferenceReplayMemory(cfg.capacity)
    expected, expected_takes, replay_steps, lo = [], [], 0, 0
    for k, task in enumerate(tasks):
        for epoch in range(cfg.epochs):
            if not replay:
                expected_takes.append(len(task))
            for idx in batches(task, cfg.batch_size, seed=cfg.seed * 100003 + k * 131 + epoch):
                batch = lo + idx
                combined = reference_with_replay(batch, memory, rng) if replay else batch
                replay_steps += combined is not batch
                expected.append(every.take(combined))
                if replay:
                    expected_takes.append(len(combined))
                    for row in batch:
                        reference_reservoir_add(memory, int(row), rng)
        if method == "conatural+er":  # the task's Fisher draws its rows
            expected_takes.append(cfg.fisher_samples)
        lo += len(task)

    seen, takes, final = [], [], {}
    original_grad, original_take, original_add = continual.grad_params, Packed.take, reservoir_add

    def spy_grad(model, rows, weights):
        seen.append((rows.x.copy(), rows.labels.copy(), np.array(weights)))
        return original_grad(model, rows, weights)

    def spy_take(self, idx):
        takes.append(len(idx))
        return original_take(self, idx)

    def spy_add(memory, ids, rng):
        final.update(memory=memory, rng=rng)
        return original_add(memory, ids, rng)

    monkeypatch.setattr(continual, "grad_params", spy_grad)
    monkeypatch.setattr(Packed, "take", spy_take)
    monkeypatch.setattr(continual, "reservoir_add", spy_add)
    continual_train(tasks, method, cfg)
    assert len(seen) == len(expected) == 3 * cfg.epochs * 4
    for (x, labels, weights), want in zip(seen, expected):
        assert np.array_equal(x, want.x) and np.array_equal(labels, want.labels)
        assert np.array_equal(weights, np.full(len(want), 1.0 / len(want)))
    assert replay_steps == (len(expected) - 1 if replay else 0)
    # finetune gathers each task epoch once; replay gathers every step's rows, and
    # nothing else but a co-natural run's Fisher samples
    assert takes == expected_takes
    if replay:
        assert final["memory"].items.tolist() == memory.items
        assert final["memory"].seen_count == memory.seen_count == 3 * 30 * cfg.epochs
        assert final["rng"].random() == rng.random()
    else:
        assert not final
