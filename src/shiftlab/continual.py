"""Sequential-task training with Fisher-preconditioned updates.

Co-natural gradient descent (plain gradients rescaled after a damped
diagonal-Fisher solve), a rolling Fisher estimate across tasks, a quadratic
weight-anchoring penalty, reservoir-sampled experience replay, and
accuracy/forgetting bookkeeping over task sequences. Task sequences share a
trunk while each task owns a fresh linear head; only trunk parameters
receive Fisher treatment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .datasets import (GroupedDataset, TwoDomainSpec, batch_starts, class_count, epoch_order,
                       gen_two_domain_gaussian)
from .diffcore import (
    DivergenceError,
    ModelSpec,
    Packed,
    batch_constants,
    fisher_diag,
    grad_params,
    init_params,
    zero_one_loss_batch,
)

EPSILON = 1e-12
METHODS = ("finetune", "conatural", "ewc", "conatural+ewc", "er", "conatural+er")


@dataclass
class FisherState:
    """Damped diagonal Fisher with a rolling coefficient."""

    diag: np.ndarray
    gamma: float = 0.9
    alpha: float = 1.0

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        if np.any(self.diag < 0):
            raise ValueError("Fisher diagonal must be nonnegative")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


def initial_fisher(num_params: int, gamma: float = 0.9, alpha: float = 1.0) -> FisherState:
    """Start the rolling estimate at (alpha/gamma) I so damping is counted once."""
    fisher = FisherState(np.zeros(num_params), gamma, alpha)  # checks gamma before the division
    if not math.isinf(alpha):
        fisher.diag[:] = alpha / gamma
    return fisher


def conatural_delta(grad: np.ndarray, fisher: FisherState, lr: float) -> np.ndarray:
    """Preconditioned update -lr * delta with delta rescaled to the gradient norm.

    Raw delta solves the damped diagonal system (F + alpha I) delta = grad;
    infinite damping degenerates to the plain gradient.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    grad = np.asarray(grad, dtype=float)
    if grad.shape != fisher.diag.shape:
        raise ValueError("gradient and Fisher diagonal lengths must match")
    grad_norm = math.sqrt(grad @ grad)  # np.linalg.norm's formula for a vector
    if grad_norm == 0.0:
        return np.zeros_like(grad)
    if math.isinf(fisher.alpha):
        return -lr * grad
    raw = conatural_delta_raw(grad, fisher)
    delta = raw * (grad_norm / math.sqrt(raw @ raw))
    return -lr * delta


def conatural_delta_raw(grad: np.ndarray, fisher: FisherState) -> np.ndarray:
    """The damped diagonal solve (F + alpha I)^-1 grad, before conatural_delta
    rescales it to the gradient norm."""
    return np.asarray(grad, dtype=float) / (fisher.diag + fisher.alpha + EPSILON)


def residual_check(grad: np.ndarray, fisher: FisherState, delta_raw: np.ndarray) -> float:
    """Relative norm of grad - (F + alpha I) delta_raw; near zero iff exact."""
    grad = np.asarray(grad, dtype=float)
    residual = grad - (fisher.diag + fisher.alpha) * np.asarray(delta_raw, dtype=float)
    denom = max(float(np.linalg.norm(grad)), EPSILON)
    return float(np.linalg.norm(residual)) / denom


def rolling_fisher_update(fisher: FisherState, new_task_fisher: np.ndarray) -> FisherState:
    """Exponential moving average: gamma * F_new + (1 - gamma) * F_old."""
    new = np.asarray(new_task_fisher, dtype=float)
    if new.shape != fisher.diag.shape:
        raise ValueError("Fisher lengths must match")
    if np.any(new < 0):
        raise ValueError("Fisher diagonal must be nonnegative")
    diag = fisher.gamma * new + (1.0 - fisher.gamma) * fisher.diag
    return FisherState(diag, fisher.gamma, fisher.alpha)


def fisher_renormalize(diag: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Scale the diagonal so it sums to the parameter count.

    Returns (scaled diagonal, ok flag); an all-zero diagonal is returned
    unchanged with ok = False.
    """
    diag = np.asarray(diag, dtype=float)
    total = diag.sum()
    if total == 0:
        return diag.copy(), False
    return diag * (diag.size / total), True


def ewc_loss(
    theta: np.ndarray,
    theta_ref: np.ndarray,
    omega_diag: np.ndarray,
    lambda_reg: float,
) -> Tuple[float, np.ndarray]:
    """Quadratic anchor penalty lambda * sum omega (theta - ref)^2 and its gradient."""
    if lambda_reg < 0:
        raise ValueError("lambda_reg must be nonnegative")
    theta = np.asarray(theta, dtype=float)
    diff = theta - np.asarray(theta_ref, dtype=float)
    omega = np.asarray(omega_diag, dtype=float)
    if diff.shape != omega.shape:
        raise ValueError("lengths must match")
    penalty = float(lambda_reg * np.sum(omega * diff * diff))
    gradient = 2.0 * lambda_reg * omega * diff
    return penalty, gradient


@dataclass
class ReplayMemory:
    """Fixed-capacity uniform sample of the item stream seen so far."""

    capacity: int
    items: list = field(default_factory=list)
    seen_count: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")


def reservoir_add(memory: ReplayMemory, item, rng: np.random.Generator) -> ReplayMemory:
    """Reservoir sampling: every item seen so far kept with equal probability."""
    memory.seen_count += 1
    if len(memory.items) < memory.capacity:
        memory.items.append(item)
    elif rng.random() < memory.capacity / memory.seen_count:
        slot = int(rng.integers(0, memory.capacity))
        memory.items[slot] = item
    return memory


def with_replay(batch: Sequence, memory: ReplayMemory, rng: np.random.Generator) -> Sequence:
    """The batch followed by len(batch) memory items drawn uniformly with
    replacement; the batch itself while memory is empty."""
    if not memory.items:
        return batch
    idx = rng.integers(0, len(memory.items), size=len(batch))
    return [*batch, *(memory.items[int(i)] for i in idx)]


@dataclass
class ContinualMetrics:
    """accuracy_matrix[task][checkpoint]; checkpoints follow task order."""

    accuracy_matrix: np.ndarray


def forgetting(metrics: ContinualMetrics, task: int, t: int) -> float:
    """Best past accuracy on a task minus its accuracy at checkpoint t."""
    if t < 1:
        raise ValueError("forgetting needs at least one prior checkpoint")
    history = metrics.accuracy_matrix[task]
    return float(np.max(history[:t]) - history[t])


def average_forgetting(metrics: ContinualMetrics) -> float:
    """End-of-training forgetting averaged over all tasks but the last."""
    num_tasks, num_ckpts = metrics.accuracy_matrix.shape
    if num_tasks < 2:
        return 0.0
    last = num_ckpts - 1
    return float(np.mean([forgetting(metrics, task, last) for task in range(num_tasks - 1)]))


def average_accuracy(metrics: ContinualMetrics) -> float:
    return float(np.mean(metrics.accuracy_matrix[:, -1]))


@dataclass
class ContinualConfig:
    hidden_units: int = 16
    lr: float = 0.1
    epochs: int = 3
    batch_size: int = 16
    alpha: float = 1.0
    gamma: float = 0.9
    ewc_lambda: float = 1.0
    replay_capacity: int = 200
    fisher_samples: int = 1000
    grad_noise: float = 0.0
    seed: int = 0


def continual_train(
    tasks: Sequence[GroupedDataset],
    method: str,
    config: ContinualConfig,
) -> ContinualMetrics:
    """Train tasks sequentially, recording per-task accuracy after each task.

    The trunk is updated by the configured rule; heads always take plain
    gradient steps. After each task the trunk Fisher is estimated by Monte
    Carlo, renormalized, and folded into the rolling estimate used for both
    preconditioning and the anchoring penalty. All tasks are packed once into
    one row stream; the replay memory holds row ids. Without replay, each task
    epoch gathers its rows once, in `epoch_order`, and a step reads its batch as a
    view of that; with replay, each step gathers its batch and replay rows. One
    model holds the trunk and the current task's head, swapped in per task.
    Raises DivergenceError when a task epoch ends with non-finite parameters."""
    if len(tasks) < 1:
        raise ValueError("at least one task required")
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    if any(task.is_tokens for task in tasks):
        raise ValueError("continual_train needs dense tasks: its mlp cannot read token-id rows")
    parts = [task.rows for task in tasks]
    rows = Packed(np.concatenate([p.labels for p in parts]),
                  np.concatenate([p.groups for p in parts]), x=np.concatenate([p.x for p in parts]))
    starts = np.cumsum([0] + [len(task) for task in tasks])
    bounds = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    spec = ModelSpec("mlp", input_dim=rows.x.shape[1], hidden_units=config.hidden_units,
                     num_classes=class_count(*tasks))
    # the trunk (hidden layer) precedes the head (output layer) in the spec's
    # layout; both are views into the model's parameters
    split = spec.slots["out.weight"][0]
    model = init_params(spec, config.seed)
    trunk, head = model.params[:split], model.params[split:]
    heads = np.stack([init_params(spec, config.seed + 1 + t).params[split:]
                      for t in range(len(tasks))])
    rng = np.random.default_rng(config.seed + 7919)

    rules = method.split("+")
    use_conatural, use_ewc, use_er = ("conatural" in rules, "ewc" in rules, "er" in rules)

    fisher = initial_fisher(split, config.gamma, config.alpha)
    trunk_ref = trunk.copy()
    memory = ReplayMemory(config.replay_capacity) if use_er else None

    accuracy_rows = []
    for task_idx, (lo, hi) in enumerate(bounds):
        head[:] = heads[task_idx]
        for epoch in range(config.epochs):
            batch_seed = config.seed * 100003 + task_idx * 131 + epoch
            order = lo + epoch_order(hi - lo, batch_seed)
            shuffled = None if use_er else rows.take(order)
            for start in batch_starts(len(order), config.batch_size):
                batch = order[start:start + config.batch_size]
                step_rows = (rows.take(with_replay(batch, memory, rng)) if use_er
                             else shuffled.rows(start, start + config.batch_size))
                grad = grad_params(model, step_rows, batch_constants(len(step_rows))[1])
                if config.grad_noise > 0:
                    scale = config.grad_noise * np.linalg.norm(grad)
                    grad = grad + scale * rng.standard_normal(grad.size) / np.sqrt(grad.size)
                trunk_grad, head_grad = grad[:split], grad[split:]
                if use_ewc and task_idx > 0:
                    _, penalty_grad = ewc_loss(trunk, trunk_ref, fisher.diag, config.ewc_lambda)
                    trunk_grad += penalty_grad
                if use_conatural and task_idx > 0:
                    trunk_update = conatural_delta(trunk_grad, fisher, config.lr)
                else:
                    trunk_update = -config.lr * trunk_grad
                trunk += trunk_update
                head -= config.lr * head_grad
                if use_er:
                    for row in batch.tolist():
                        reservoir_add(memory, row, rng)
            if not np.logical_and.reduce(np.isfinite(model.params)):
                raise DivergenceError(f"non-finite parameters at task {task_idx}, epoch {epoch}")
        heads[task_idx] = head

        if not math.isinf(config.alpha) and (use_conatural or use_ewc):
            raw_fisher = fisher_diag(
                model, rows.rows(lo, hi), config.fisher_samples, seed=config.seed + 31 * task_idx,
            )
            trunk_fisher, ok = fisher_renormalize(raw_fisher[:split])
            if ok:
                fisher = rolling_fisher_update(fisher, trunk_fisher)
        trunk_ref = trunk.copy()

        accuracy = []
        for t, (first, last) in enumerate(bounds):
            head[:] = heads[t]
            accuracy.append(float(1.0 - zero_one_loss_batch(model, rows.rows(first, last)).mean()))
        accuracy_rows.append(accuracy)

    matrix = np.array(accuracy_rows).T  # rows = tasks, columns = checkpoints
    return ContinualMetrics(matrix)


def rotated_gaussian_tasks(
    num_tasks: int,
    points_per_task: int,
    sigma: float = 0.5,
    seed: int = 0,
    max_angle: float = math.pi / 2,
) -> List[GroupedDataset]:
    """Task sequence of progressively rotated two-Gaussian problems.

    Successive tasks rotate the class layout, so a shared trunk fit to one
    task interferes with the others.
    """
    if num_tasks < 1:
        raise ValueError("num_tasks must be positive")
    tasks = []
    for t in range(num_tasks):
        base = gen_two_domain_gaussian(
            TwoDomainSpec(points_per_task, 0.5, sigma, seed=seed + 977 * t)
        )
        angle = max_angle * t / max(num_tasks - 1, 1)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        # one stacked matmul rounds each row as rot @ x does; x @ rot.T does not
        rows = base.rows
        rotated = Packed(rows.labels, rows.groups, x=np.matmul(rot, rows.x[:, :, None])[:, :, 0])
        tasks.append(GroupedDataset(rotated, base.num_groups))
    return tasks
