"""Training-time reweighting engines.

ERM, the KL-constrained nonparametric baseline, online group DRO, the
Gaussian-adversary min-max game for the 2-D toy family, and the parametric
likelihood-ratio game with batch-level or self-normalization.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .diffcore import (
    DivergenceError,
    ModelSpec,
    ModelState,
    Packed,
    batch_constants,
    init_params,
    nll_forward,
    nll_state,
    softmax,
    weighted_grad,
    _forward_batch,
    _backward_from_dlogits,
)

TAU_SEARCH_LO = 1e-10
TAU_SEARCH_HI = 1e10
# Caps importance weights. Beyond guarding against overflow it saturates about
# 11% of the model-side weights of the toy P-DRO run, and nothing counts the hits.
WEIGHT_CLIP = 100.0
METHODS = ("erm", "nonparam", "group_dro", "pdro", "rpdro")
NORM_MODES = ("batch_level", "self_norm")  # rpdro's ratio normalization


@dataclass
class GaussianAdversary:
    """Isotropic Gaussian location adversary over the inputs; mean and mean0 are float64 arrays."""

    mean: np.ndarray
    sigma: float
    mean0: np.ndarray

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass
class RatioAdversary:
    """Likelihood-ratio adversary r = exp(f) with f a label-conditioned scorer.

    The scorer is a classifier-shaped model; f(x, y) is the y-th output, so
    each class owns one head over the shared input representation.
    """

    scorer: ModelState

    def f_forward(self, batch: Packed):
        """f(x_i, y_i) over the batch plus the forward state grad_f backprops."""
        logits, state = _forward_batch(self.scorer, batch)
        return logits[batch_constants(len(batch))[0], batch.labels], state

    def f_values(self, batch: Packed) -> np.ndarray:
        return self.f_forward(batch)[0]

    def grad_f(self, state, df: np.ndarray) -> np.ndarray:
        """Scorer-parameter gradient of sum_i df[i] * f(x_i, y_i), from the
        forward state f_forward returned for the batch."""
        batch = state["batch"]
        dlogits = np.zeros((len(batch), self.scorer.spec.num_classes))
        dlogits[batch_constants(len(batch))[0], batch.labels] = df
        return _backward_from_dlogits(self.scorer, state, dlogits)


@dataclass
class RunningNormalizer:
    """Pooled mean of exp(loss/tau) over the last `window` batches.

    `log_sums` and `counts` hold each batch's log sum exp(loss/tau) and row
    count, oldest first. log_value pools them in log space, so that small
    temperatures do not overflow, and anew on each read: subtracting an
    evicted batch from a running sum would cancel catastrophically whenever
    that batch dominated it.
    """

    window: int
    log_sums: List[float] = field(default_factory=list, init=False, repr=False)
    counts: List[int] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def log_value(self) -> float:
        """log(sum of the window's exp(loss/tau) / its rows); NaN if a log-sum is NaN or +inf."""
        if not self.log_sums:
            return 0.0
        top = max(self.log_sums)
        pooled = math.fsum([math.exp(s - top) for s in self.log_sums])
        return top + math.log(pooled) - math.log(sum(self.counts))


@dataclass(frozen=True)
class DroConfig:
    method: str = "erm"
    lr: float = 0.1
    tau: float = 0.1
    kappa: float = 1.0
    k_window: int = 5
    adv_lr: float = 0.05
    adv_sigma_scale: float = 1.0
    eta_group: float = 0.1
    beta: float = 1.0
    norm_mode: str = "batch_level"
    project: bool = True
    reverse_kl: bool = True
    adv_steps: int = 1

    def __post_init__(self):
        for ok, problem in (
            (self.method in METHODS, f"unknown method: {self.method!r}"),
            (self.norm_mode in NORM_MODES, f"unknown norm_mode: {self.norm_mode!r}"),
            (self.lr > 0, f"lr must be positive, got {self.lr}"),
            (self.method != "pdro" or self.tau > 0, f"pdro needs tau > 0, got {self.tau}"),
            (self.method != "rpdro" or self.tau >= 0, f"rpdro needs tau >= 0, got {self.tau}"),
            (self.method != "pdro" or self.adv_sigma_scale > 0,
             f"adv_sigma_scale must be positive, got {self.adv_sigma_scale}"),
            (self.adv_steps >= 1, f"adv_steps must be >= 1, got {self.adv_steps}"),
        ):
            if not ok:
                raise ValueError(problem)


def erm_step(model: ModelState, batch: Packed, lr: float) -> ModelState:
    return simultaneous_step(model, None, batch, DroConfig(lr=lr))[0]


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) with the max terms split off, as scipy computes it.

    A tie of the max adds exp(0) = 1 exactly to the other terms' sum of exps,
    and nonnegative terms never lower a sum, so a sum below 1 proves the max
    unique; any other sum splits off every copy of the max. A NaN or infinite
    max (argmax finds a NaN first) is the result itself.
    """
    i = a.argmax()
    top = a[i]
    if not math.isfinite(top):  # a - top would warn
        return float(top)
    shifted = a - top
    shifted[i] = -np.inf
    rest = np.add.reduce(np.exp(shifted))
    if not rest < 1.0:
        is_top = a == top
        count = np.count_nonzero(is_top)
        shifted[is_top] = -np.inf
        rest = np.add.reduce(np.exp(shifted)) / count
        if count != 1:
            return float(np.log1p(rest) + np.log(count) + top)
    # log(1) is +0.0, and log1p of a sum of exps is >= +0.0, so leaving it out moves no bit
    return float(np.log1p(rest) + top)


def _tilted_kl(shifted: np.ndarray, tau: float) -> Tuple[float, np.ndarray]:
    """KL(q* || uniform) and q* for q* proportional to exp(loss/tau) over the
    batch, given shifted = losses - losses.max()."""
    # shift before scaling: losses / tau can be large while their spread is not
    w = np.exp(shifted / tau)
    w /= np.add.reduce(w)
    # 0 log 0 = 0; with no weight underflowed to 0, w itself holds the same terms
    terms = w if np.logical_and.reduce(w) else w[w > 0]
    return float(np.add.reduce(terms * np.log(len(w) * terms))), w


def nonparam_weights(losses: np.ndarray, kappa: float) -> Tuple[np.ndarray, float]:
    """Closed-form worst-case weights under a KL ball of radius kappa.

    Weights are proportional to exp(loss/tau*), tau* clipped to [1e-10, 1e10].
    KL falls as tau grows; tau* is its root by Newton steps in u = log tau
    with dKL/du = -Var_q(loss) / tau^2 (Hu & Hong, 2013: dKL/dbeta = beta
    Var_q, beta = 1/tau), bisecting when a step leaves the bracket.
    """
    losses = np.asarray(losses, dtype=float)
    if not np.logical_and.reduce(np.isfinite(losses)):
        raise DivergenceError("non-finite losses")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    shifted = losses - np.maximum.reduce(losses)
    if kappa == 0 or np.minimum.reduce(shifted) == 0:
        # zero radius or constant losses: the KL is 0 everywhere reachable
        tau = TAU_SEARCH_HI if kappa == 0 else TAU_SEARCH_LO
        return _tilted_kl(shifted, tau)[1], tau

    kl, w = _tilted_kl(shifted, TAU_SEARCH_LO)
    if kl <= kappa:
        return w, TAU_SEARCH_LO
    kl, w = _tilted_kl(shifted, TAU_SEARCH_HI)
    if kl >= kappa:
        return w, TAU_SEARCH_HI
    lo, hi = np.log(TAU_SEARCH_LO), np.log(TAU_SEARCH_HI)
    # start from the small-radius limit KL ~ Var(loss) / (2 tau^2)
    centered = losses - np.add.reduce(losses) / len(losses)
    std = np.sqrt(np.add.reduce(centered * centered) / len(losses))  # np.std's two passes
    u = float(min(max(np.log(std / np.sqrt(2.0 * kappa)), lo), hi))
    last = False
    for _ in range(200):
        tau = min(max(np.exp(u), TAU_SEARCH_LO), TAU_SEARCH_HI)
        kl, w = _tilted_kl(shifted, tau)
        lo, hi = (u, hi) if kl > kappa else (lo, u)
        var = w @ (losses - w @ losses) ** 2
        step = (kl - kappa) * tau ** 2 / var if var > 0 else np.inf
        # stop at rounding level: KL within 1e-15, a step too small to move
        # u, or one step after a Newton step of at most 1e-8 (quadratic rate)
        if last or u + step == u or abs(kl - kappa) <= 1e-15:
            break
        inside = lo < u + step < hi
        last = inside and abs(step) <= 1e-8
        u = u + step if inside else 0.5 * (lo + hi)
    return w, float(tau)


def group_dro_weights(
    group_losses: np.ndarray, prev_weights: np.ndarray, eta: float
) -> np.ndarray:
    """Exponentiated-gradient update of the worst-group mixture weights."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    w = np.asarray(prev_weights, dtype=float) * np.exp(eta * np.asarray(group_losses))
    return w / w.sum()


def pdro_model_weights(adv: GaussianAdversary, batch: Packed,
                       centered: Optional[np.ndarray] = None) -> np.ndarray:
    """Importance weights q_psi(x) / q_psi0(x), clipped at WEIGHT_CLIP; exactly 1
    when psi == psi0. `centered`, if given, is the batch's x - adv.mean.

    The exponent |x - psi0|^2 - |x - psi|^2 is taken as (2c + d) . d with c = x - psi
    and d = psi - psi0: it cancels nothing, so a far row and a tiny move stay exact, and
    a mean run off until |d|^2 overflows gets -inf, weight 0, not 2c.d + |d|^2's NaN.
    """
    if centered is None:
        centered = batch.x - adv.mean
    d = adv.mean - adv.mean0
    exponent = (2.0 * centered + d) @ d
    # clamped to [-1000, 709] * 2 sigma^2, the quotient stays finite, and exp of it gives 0
    # or a value far above the clip wherever the unclamped one did; NaN stays NaN
    two_var = 2.0 * adv.sigma ** 2
    clamped = np.maximum(np.minimum(exponent, 709.0 * two_var), -1000.0 * two_var)
    return np.minimum(np.exp(clamped / two_var), WEIGHT_CLIP)


def normalizer_update(normalizer: RunningNormalizer, scaled: np.ndarray) -> RunningNormalizer:
    """Push one batch's float array of loss/tau into the window in place,
    evicting the oldest batch when full."""
    if len(normalizer.log_sums) == normalizer.window:
        del normalizer.log_sums[0], normalizer.counts[0]
    normalizer.log_sums.append(_logsumexp(scaled))
    normalizer.counts.append(len(scaled))
    return normalizer


def pdro_adv_step(adv: GaussianAdversary, centered: np.ndarray, scaled: np.ndarray,
                  normalizer: RunningNormalizer, adv_lr: float) -> GaussianAdversary:
    """Ascend the exp(loss/tau)-weighted Gaussian log-likelihood of a batch
    whose inputs less adv.mean are `centered` and whose loss/tau are `scaled`."""
    log_z = normalizer.log_value
    if not math.isfinite(log_z):
        raise DivergenceError("non-finite normalizer")
    grad = (np.exp(scaled - log_z) @ centered) / (len(centered) * adv.sigma ** 2)
    return GaussianAdversary(adv.mean + adv_lr * grad, adv.sigma, adv.mean0)


def pdro_adv_step_bare(adv: GaussianAdversary, batch: Packed, centered: np.ndarray,
                       losses: np.ndarray, adv_lr: float) -> GaussianAdversary:
    """Direct ascent on the importance-sampled expected loss (no surrogate) of
    a batch whose inputs less adv.mean are `centered`."""
    ratios = pdro_model_weights(adv, batch, centered)
    grad = ((ratios * np.asarray(losses)) @ centered) / (len(centered) * adv.sigma ** 2)
    return GaussianAdversary(adv.mean + adv_lr * grad, adv.sigma, adv.mean0)


def gaussian_kl_project(adv: GaussianAdversary, kappa: float) -> GaussianAdversary:
    """Project the mean onto the ball ||psi - psi0|| <= sqrt(2 kappa) sigma."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    diff = adv.mean - adv.mean0
    dist = math.sqrt(diff @ diff)  # np.linalg.norm's formula for a vector
    radius = math.sqrt(2.0 * kappa) * adv.sigma
    if dist <= radius:
        return adv
    mean = adv.mean0.copy() if radius == 0.0 else adv.mean0 + (radius / dist) * diff
    return GaussianAdversary(mean, adv.sigma, adv.mean0)


def rpdro_batch_weights(f_values: np.ndarray) -> np.ndarray:
    """Minibatch-normalized ratios: a stable softmax of the raw scores."""
    f = np.asarray(f_values, dtype=float)
    if not np.logical_and.reduce(np.isfinite(f)):
        raise DivergenceError("non-finite adversary scores")
    return softmax(f)


def rpdro_objective(
    losses: np.ndarray, f_values: np.ndarray, tau: float
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Batch-level-normalized game objective.

    Returns (objective, model-side weights r_tilde, d objective / d f).
    The KL penalty sum r log(n r) is shifted to be 0 at uniform weights;
    the shift is constant per batch and leaves all gradients unchanged.
    """
    losses = np.asarray(losses, dtype=float)
    r = rpdro_batch_weights(f_values)
    n = len(r)
    if len(losses) != n:
        raise ValueError("losses and f_values must have the same length")
    if np.logical_and.reduce(r):
        log_nr = np.log(n * r)
    else:  # 0 log 0 = 0 for the weights that underflowed
        nonzero = r > 0
        log_nr = np.zeros(n)
        log_nr[nonzero] = np.log(n * r[nonzero])
    kl_term = float(np.add.reduce(r * log_nr))
    objective = float(np.add.reduce(r * losses)) - tau * kl_term
    # d objective / d f through the softmax
    a = losses - tau * (log_nr + 1.0)
    dobj_df = r * (a - np.add.reduce(r * a))
    return objective, r, dobj_df


def rpdro_selfnorm_objective(
    losses: np.ndarray, f_values: np.ndarray, tau: float, beta: float
) -> Tuple[float, np.ndarray]:
    """Self-normalized game objective with a squared log-normalizer penalty.

    mean(r * loss) - tau * mean(r log r) - beta * log(mean r)^2 with raw
    ratios r = exp(f). Returns (objective, d objective / d f).
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    losses = np.asarray(losses, dtype=float)
    f = np.asarray(f_values, dtype=float)
    n = len(f)
    r = np.exp(f)
    mean_r = r.mean()
    log_z = np.log(mean_r)
    objective = float(np.mean(r * losses) - tau * np.mean(r * f) - beta * log_z ** 2)
    dobj_df = (
        r * losses / n
        - tau * r * (f + 1.0) / n
        - beta * 2.0 * log_z * (r / n) / mean_r
    )
    return objective, dobj_df


def initial_state(config: DroConfig, spec: ModelSpec, train: Packed,
                  num_groups: int, seed: int):
    """The method's starting (adversary, normalizer) for the packed train set."""
    if config.method == "group_dro":
        return np.full(num_groups, 1.0 / num_groups), None
    if config.method == "pdro":
        if train.x is None:
            raise ValueError("method=pdro needs dense inputs: its Gaussian adversary has no token form")
        mean0 = train.x.mean(axis=0)
        spread = float(np.sqrt(train.x.var(axis=0).mean()))
        if not spread > 0:
            raise ValueError("method=pdro needs nonzero train input variance to scale its Gaussian adversary")
        sigma = spread * float(config.adv_sigma_scale)
        # the weights divide their exponent by 2 sigma^2, which must neither overflow nor
        # lose bits to underflow
        if not sys.float_info.min <= 2.0 * sigma * sigma < math.inf:
            raise ValueError(f"adv_sigma_scale={config.adv_sigma_scale!r} gives the adversary sigma "
                             f"{sigma!r}, whose 2 sigma^2 is not a normal finite float")
        adversary = GaussianAdversary(mean0.copy(), sigma, mean0)
        return adversary, RunningNormalizer(config.k_window)
    if config.method == "rpdro":
        return RatioAdversary(init_params(spec, seed + 101)), None
    return None, None


def adversary_valid_weights(method: str, adversary, valid: Packed) -> Optional[np.ndarray]:
    """Raw validation weights of an adversary snapshot; None for methods
    without an input-space adversary, or when every weight vanishes."""
    if method == "pdro":
        raw = pdro_model_weights(adversary, valid)
        return None if raw.sum() == 0 else raw
    if method == "rpdro":
        f = adversary.f_values(valid)
        return np.exp(f - f.max())
    return None


def simultaneous_step(
    model: ModelState,
    adversary,
    batch: Packed,
    config: DroConfig,
    normalizer: Optional[RunningNormalizer] = None,
):
    """One training step of config.method: (model', adversary', normalizer').

    The adversary is None for erm and nonparam, the group mixture for
    group_dro (updated before the model step), a GaussianAdversary for pdro
    and a RatioAdversary for rpdro. In the two games both gradients use the
    pre-update state, and the config.adv_steps adversary updates all reuse
    the batch, each with refreshed scores. The step leaves the model and
    adversary it is given alone and updates the normalizer in place.
    """
    n = len(batch)
    new_adv, new_norm = adversary, normalizer
    if config.method == "erm":  # uniform weights: the step needs no loss row
        state, weights = nll_state(model, batch), batch_constants(n)[1]
    else:  # one forward: the weights come from these losses, the gradient from its state
        losses, state = nll_forward(model, batch)
    if config.method == "nonparam":
        weights, _ = nonparam_weights(losses, config.kappa)
    elif config.method == "group_dro":
        counts = np.bincount(batch.groups, minlength=len(adversary))
        sums = np.bincount(batch.groups, weights=losses, minlength=len(adversary))
        group_losses = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        new_adv = group_dro_weights(group_losses, adversary, config.eta_group)
        weights = new_adv[batch.groups] / np.maximum(counts[batch.groups], 1)
    elif config.method == "pdro":
        x = batch.x
        # the model weights and the first adversary step share x - mean
        centered = x - adversary.mean
        weights = pdro_model_weights(adversary, batch, centered) / n
        scaled = losses / config.tau  # the normalizer and the adversary step share it
        for step in range(config.adv_steps):
            if step > 0:
                centered = x - new_adv.mean
            if config.reverse_kl:
                new_norm = normalizer_update(new_norm, scaled)
                new_adv = pdro_adv_step(new_adv, centered, scaled, new_norm, config.adv_lr)
            else:
                new_adv = pdro_adv_step_bare(new_adv, batch, centered, losses, config.adv_lr)
            if config.project:
                new_adv = gaussian_kl_project(new_adv, config.kappa)
    elif config.method == "rpdro":
        # the first pass scores the pre-update adversary for both players; each
        # pass takes f and its gradient from one scorer forward
        for step in range(config.adv_steps):
            f, f_state = new_adv.f_forward(batch)
            if config.norm_mode == "batch_level":
                _, r, dobj_df = rpdro_objective(losses, f, config.tau)
            else:
                _, dobj_df = rpdro_selfnorm_objective(losses, f, config.tau, config.beta)
                r = np.clip(np.exp(f), 0.0, WEIGHT_CLIP) / n
            if step == 0:
                weights = r
            params = new_adv.scorer.params + config.adv_lr * new_adv.grad_f(f_state, dobj_df)
            new_adv = RatioAdversary(ModelState(new_adv.scorer.spec, params))

    model_grad = weighted_grad(model, state, weights)
    return ModelState(model.spec, model.params - config.lr * model_grad), new_adv, new_norm
