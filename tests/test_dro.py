import dataclasses
import math
import warnings
from collections import deque
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import packed_rows
from shiftlab import diffcore, dro
from shiftlab.datasets import TwoDomainSpec, batches, gen_two_domain_gaussian
from shiftlab.diffcore import ModelSpec, ModelState, grad_params, init_params, nll_loss_batch
from shiftlab.dro import (
    DroConfig,
    METHODS,
    GaussianAdversary,
    RatioAdversary,
    RunningNormalizer,
    TAU_SEARCH_HI,
    TAU_SEARCH_LO,
    WEIGHT_CLIP,
    erm_step,
    gaussian_kl_project,
    group_dro_weights,
    nonparam_weights,
    normalizer_update,
    pdro_adv_step,
    pdro_adv_step_bare,
    pdro_model_weights,
    rpdro_batch_weights,
    rpdro_objective,
    rpdro_selfnorm_objective,
    simultaneous_step,
)


def kl_from_uniform(weights):
    w = np.asarray(weights)
    nonzero = w > 0
    return float(np.sum(w[nonzero] * np.log(len(w) * w[nonzero])))


def dense_batch(rng, n):
    return packed_rows((rng.standard_normal(2), int(rng.integers(0, 2))) for _ in range(n))


# ---------------------------------------------------------------------------
# nonparametric weights


def test_nonparam_zero_radius_gives_uniform():
    weights, tau = nonparam_weights(np.array([1.0, 5.0, 2.0]), kappa=0.0)
    assert np.allclose(weights, 1.0 / 3.0)
    assert tau == TAU_SEARCH_HI


def test_nonparam_constant_losses_give_uniform():
    weights, _ = nonparam_weights(np.full(4, 2.5), kappa=1.0)
    assert np.allclose(weights, 0.25)


def test_nonparam_hits_the_requested_radius():
    rng = np.random.default_rng(0)
    losses = rng.standard_normal(32)
    weights, tau = nonparam_weights(losses, kappa=0.3)
    assert TAU_SEARCH_LO < tau < TAU_SEARCH_HI
    assert kl_from_uniform(weights) == pytest.approx(0.3, abs=1e-8)


def test_nonparam_upweights_high_losses():
    losses = np.array([0.1, 0.2, 3.0, 0.3])
    weights, _ = nonparam_weights(losses, kappa=0.5)
    assert np.argmax(weights) == 2
    order = np.argsort(losses)
    assert np.all(np.diff(weights[order]) >= 0)


def test_nonparam_huge_radius_clips_at_lower_bound():
    losses = np.array([0.0, 10.0])
    # max attainable KL from tilting two points is log 2; ask for more
    weights, tau = nonparam_weights(losses, kappa=10.0)
    assert tau == TAU_SEARCH_LO
    assert weights[1] == pytest.approx(1.0)


def test_nonparam_input_validation():
    with pytest.raises(ValueError):
        nonparam_weights(np.array([1.0, np.inf]), kappa=0.1)
    with pytest.raises(ValueError):
        nonparam_weights(np.array([1.0, 2.0]), kappa=-0.1)


def _nan_weighted_grad():
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    _, state = diffcore.nll_forward(model, dense_batch(np.random.default_rng(0), 3))
    diffcore.weighted_grad(model, state, np.array([1.0, np.nan, 1.0]))


@pytest.mark.parametrize("what, check", [
    ("example weights", _nan_weighted_grad),
    ("losses", lambda: nonparam_weights(np.array([1.0, np.nan]), kappa=0.1)),
    # an overflowed loss/tau turns the window's pooled log-sum NaN
    ("normalizer", lambda: pdro_adv_step(
        GaussianAdversary(np.zeros(2), 1.0, np.zeros(2)), np.ones((2, 2)), np.array([np.inf, 0.0]),
        normalizer_update(RunningNormalizer(window=2), np.array([np.inf, 0.0])), 0.1)),
    ("adversary scores", lambda: rpdro_batch_weights(np.array([0.0, np.inf]))),
], ids=["weighted_grad", "nonparam_weights", "pdro_adv_step", "rpdro_batch_weights"])
def test_each_in_step_check_raises_a_divergence_error_naming_its_value(what, check):
    with np.errstate(all="ignore"), pytest.raises(diffcore.DivergenceError) as err:
        check()
    assert str(err.value) == f"non-finite {what}" and isinstance(err.value, ValueError)


# ---------------------------------------------------------------------------
# group weights


def test_group_dro_weights_update():
    prev = np.array([0.5, 0.5])
    new = group_dro_weights(np.array([1.0, 3.0]), prev, eta=0.5)
    assert new.sum() == pytest.approx(1.0)
    assert new[1] > new[0]
    assert np.allclose(group_dro_weights(np.array([1.0, 3.0]), prev, eta=0.0), prev)
    with pytest.raises(ValueError):
        group_dro_weights(np.array([1.0]), np.array([1.0]), eta=-1.0)


# ---------------------------------------------------------------------------
# Gaussian adversary


def test_pdro_weights_identity_at_start():
    adv = GaussianAdversary(np.zeros(2), 1.0, np.zeros(2))
    batch = dense_batch(np.random.default_rng(1), 5)
    assert np.array_equal(pdro_model_weights(adv, batch), np.ones(5))


def test_pdro_weights_are_clipped():
    adv = GaussianAdversary(np.array([50.0, 0.0]), 1.0, np.zeros(2))
    batch = packed_rows([(np.array([50.0, 0.0]), 0)])
    weights = pdro_model_weights(adv, batch)
    assert weights[0] == WEIGHT_CLIP


def former_pdro_model_weights(adv, x):
    """The former pdro_model_weights: a difference of two squared distances,
    ndarray sums and exp under np.errstate."""
    centered, offset = x - adv.mean, x - adv.mean0
    sq_diff = (offset * offset).sum(axis=-1) - (centered * centered).sum(axis=-1)
    with np.errstate(over="ignore"):
        return np.minimum(np.exp(sq_diff / (2.0 * adv.sigma ** 2)), WEIGHT_CLIP)


def reference_pdro_model_weights(adv, x):
    """pdro_model_weights' arithmetic: the exponent (2c + d) . d with c = x - psi
    and d = psi - psi0, unclamped, and exp under np.errstate."""
    c, d = x - adv.mean, adv.mean - adv.mean0
    with np.errstate(over="ignore"):
        return np.minimum(np.exp(((2.0 * c + d) @ d) / (2.0 * adv.sigma ** 2)), WEIGHT_CLIP)


# (1e153, 0.05): sq_diff is finite but sq_diff / (2 sigma^2) overflowed, to inf on the
# shifted rows and to -inf on the others
@pytest.mark.parametrize("shift, sigma", [(50.0, 1.0), (1e3, 1.0), (40.0, 0.05), (1e150, 1.0),
                                          (1e153, 0.05), (3.0, 1.0), (-60.0, 0.5)])
def test_pdro_weights_that_overflowed_return_the_clip_without_a_warning(shift, sigma):
    rng = np.random.default_rng(7)
    x = np.vstack([rng.standard_normal((20, 2)), [[shift, 0.0], [shift, 1.0]]])
    adv = GaussianAdversary(np.array([shift, 0.0]), sigma, np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pdro_model_weights(adv, diffcore.Packed(np.zeros(22, dtype=int),
                                                      np.zeros(22, dtype=int), x=x))
    assert np.array_equal(got, reference_pdro_model_weights(adv, x))
    assert np.allclose(got, former_pdro_model_weights(adv, x), rtol=1e-14, atol=0.0)
    with np.errstate(over="ignore"):
        exponent = ((x * x).sum(axis=1) - ((x - adv.mean) ** 2).sum(axis=1)) / (2 * sigma ** 2)
    assert np.all(got[exponent > 709.0] == WEIGHT_CLIP) and np.all(got[exponent < -1000.0] == 0)
    assert (exponent > 709.0).any() == (abs(shift) >= 40.0)


def test_pdro_weights_propagate_nan():
    adv = GaussianAdversary(np.array([1.0, 0.0]), 1.0, np.zeros(2))
    x = np.array([[np.nan, 0.0], [0.5, 0.5]])
    got = pdro_model_weights(adv, diffcore.Packed(np.zeros(2, dtype=int),
                                                  np.zeros(2, dtype=int), x=x))
    assert np.isnan(got[0]) and got[1] == reference_pdro_model_weights(adv, x)[1]


def test_pdro_weights_of_far_rows_and_a_tiny_move_are_exact():
    # |x - psi0|^2 and |x - psi|^2 agree to 15 digits here: their difference
    # cancels them, and (2c + d) . d does not
    x = np.array([[1e8, 0.0], [-1e8, 3.0], [2.5e7, 1e8], [1e8 + 0.5, -7.0]])
    adv = GaussianAdversary(np.array([1e-6, -1e-6]), 10.0, np.zeros(2))
    got = pdro_model_weights(adv, diffcore.Packed(np.zeros(4, dtype=int),
                                                  np.zeros(4, dtype=int), x=x))
    exact = []
    for row in x:
        exponent = sum((Fraction(a) - Fraction(m0)) ** 2 - (Fraction(a) - Fraction(m)) ** 2
                       for a, m, m0 in zip(row, adv.mean, adv.mean0))
        arg = exponent / Fraction(2.0 * adv.sigma ** 2)
        with localcontext() as ctx:
            ctx.prec = 50
            exact.append(float((Decimal(arg.numerator) / Decimal(arg.denominator)).exp()))
    ulps = [abs(w - want) / math.ulp(want) for w, want in zip(got, exact)]
    assert max(ulps) <= 2.0
    former = former_pdro_model_weights(adv, x)
    assert max(abs(w - want) / want for w, want in zip(former, exact)) > 1e-8


def test_pdro_weights_of_a_mean_run_off_past_overflow_are_zero():
    x = np.array([[0.0, 0.0], [1.0, -1.0], [-3.0, 2.0]])
    adv = GaussianAdversary(np.array([1e200, -1e200]), 1.0, np.zeros(2))
    c, d = x - adv.mean, adv.mean - adv.mean0
    with np.errstate(over="ignore", invalid="ignore"):
        got = pdro_model_weights(adv, diffcore.Packed(np.zeros(3, dtype=int),
                                                      np.zeros(3, dtype=int), x=x))
        # 2c.d + |d|^2, the same exponent unfactored, is -inf + inf on every row
        assert np.isnan(2.0 * (c @ d) + d @ d).all()
    assert np.array_equal(got, np.zeros(3))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=40),
       st.floats(-1e150, 1e150), st.floats(1e-3, 1e3))
def test_pdro_weights_are_exactly_one_at_the_reference_mean(values, mean, sigma):
    x = np.array(values[:len(values) // 2 * 2]).reshape(-1, 2)
    adv = GaussianAdversary(np.array([mean, -mean]), sigma, np.array([mean, -mean]))
    got = pdro_model_weights(adv, diffcore.Packed(np.zeros(len(x), dtype=int),
                                                  np.zeros(len(x), dtype=int), x=x))
    assert np.array_equal(got, np.ones(len(x)))


def test_gaussian_adversary_validation():
    with pytest.raises(ValueError):
        GaussianAdversary(np.zeros(2), 0.0, np.zeros(2))


def test_kl_projection_radius():
    adv = GaussianAdversary(np.array([10.0, 0.0]), 2.0, np.zeros(2))
    kappa = 0.5
    projected = gaussian_kl_project(adv, kappa)
    radius = np.sqrt(2.0 * kappa) * adv.sigma
    assert np.linalg.norm(projected.mean - adv.mean0) == pytest.approx(radius)
    inside = GaussianAdversary(np.array([0.1, 0.0]), 2.0, np.zeros(2))
    assert gaussian_kl_project(inside, kappa) is inside
    collapsed = gaussian_kl_project(adv, 0.0)
    assert np.array_equal(collapsed.mean, adv.mean0)
    with pytest.raises(ValueError):
        gaussian_kl_project(adv, -1.0)


def test_normalizer_window_and_log_space_stability():
    norm = RunningNormalizer(window=2)
    assert norm.log_value == 0.0
    norm = normalizer_update(norm, np.array([1.0, 2.0]) / 1.0)
    expected = np.mean(np.exp([1.0, 2.0]))
    assert np.exp(norm.log_value) == pytest.approx(expected)
    norm = normalizer_update(norm, np.array([3.0]) / 1.0)
    norm = normalizer_update(norm, np.array([4.0]) / 1.0)
    assert norm.counts == [1, 1]  # the first batch fell out of the window
    # tiny temperatures overflow exp(loss/tau); pooling must stay finite in log space
    tiny = normalizer_update(RunningNormalizer(window=3), np.array([2.0, 4.0]) / 1e-3)
    assert np.isfinite(tiny.log_value)
    assert tiny.log_value == pytest.approx(4.0 / 1e-3 - np.log(2), rel=1e-9)
    with pytest.raises(ValueError):
        RunningNormalizer(window=0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_window_raises_until_its_batch_is_evicted(bad):
    adv = GaussianAdversary(np.zeros(2), 1.0, np.zeros(2))
    norm = RunningNormalizer(window=2)
    with np.errstate(all="raise"):  # a non-finite max returns before any arithmetic
        for scaled in ([bad, 0.0], [1.0, 2.0]):
            normalizer_update(norm, np.array(scaled))
            with pytest.raises(diffcore.DivergenceError, match="^non-finite normalizer$"):
                pdro_adv_step(adv, np.ones((2, 2)), np.array(scaled), norm, 0.1)
    # no running sum carries the evicted batch on
    normalizer_update(norm, np.array([3.0, 4.0]))
    assert norm.log_value == pytest.approx(np.log(np.mean(np.exp([1.0, 2.0, 3.0, 4.0]))),
                                           rel=1e-15)
    stepped = pdro_adv_step(adv, np.ones((2, 2)), np.array([3.0, 4.0]), norm, 0.1)
    assert np.isfinite(stepped.mean).all()


def test_pdro_adv_step_moves_toward_hard_examples():
    # one high-loss outlier on the right pulls the mean rightward
    adv = GaussianAdversary(np.zeros(2), 1.0, np.zeros(2))
    x = packed_rows([(np.array([-1.0, 0.0]), 0), (np.array([4.0, 0.0]), 0)]).x
    losses = np.array([0.1, 5.0])
    norm = normalizer_update(RunningNormalizer(window=1), losses / 1.0)
    stepped = pdro_adv_step(adv, x - adv.mean, losses / 1.0, norm, adv_lr=0.5)
    assert stepped.mean[0] > 0.0
    assert np.array_equal(adv.mean, np.zeros(2))  # input untouched


def test_pdro_adv_step_bare_also_ascends():
    adv = GaussianAdversary(np.zeros(2), 1.0, np.zeros(2))
    batch = packed_rows([(np.array([-1.0, 0.0]), 0), (np.array([4.0, 0.0]), 0)])
    stepped = pdro_adv_step_bare(adv, batch, batch.x - adv.mean, np.array([0.1, 5.0]), adv_lr=0.5)
    assert stepped.mean[0] > 0.0


# ---------------------------------------------------------------------------
# ratio adversary


def test_rpdro_batch_weights_normalize_and_shift():
    f = np.array([-50.0, 0.0, 50.0])
    w = rpdro_batch_weights(f)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    shifted = rpdro_batch_weights(f + 123.4)
    assert np.allclose(w, shifted, atol=1e-12)
    with pytest.raises(ValueError):
        rpdro_batch_weights(np.array([1.0, np.inf]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50 * 1024, 50 * 1024), min_size=1, max_size=64),
       st.integers(-10**4, 10**4))
def test_rpdro_batch_weights_are_shift_invariant(grid, shift):
    # scores on a 2^-10 grid plus an integer shift add without rounding, so
    # any change comes from the weights; exp(1e4) overflows unless the
    # largest score is subtracted first
    f = np.array(grid) / 1024.0
    assert np.abs(rpdro_batch_weights(f + shift) - rpdro_batch_weights(f)).max() <= 1e-15


def test_rpdro_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    losses = rng.uniform(0, 3, size=6)
    f = rng.standard_normal(6)
    tau = 0.7
    _, weights, dobj_df = rpdro_objective(losses, f, tau)
    assert weights.sum() == pytest.approx(1.0)
    eps = 1e-6
    for j in range(6):
        up = np.array(f)
        up[j] += eps
        down = np.array(f)
        down[j] -= eps
        numeric = (rpdro_objective(losses, up, tau)[0] - rpdro_objective(losses, down, tau)[0]) / (2 * eps)
        assert numeric == pytest.approx(dobj_df[j], abs=1e-6)


def test_rpdro_objective_zero_at_uniform():
    losses = np.array([1.0, 2.0, 3.0])
    obj, weights, _ = rpdro_objective(losses, np.zeros(3), tau=2.0)
    assert np.allclose(weights, 1.0 / 3.0)
    assert obj == pytest.approx(losses.mean())  # the kl penalty vanishes at uniform
    with pytest.raises(ValueError):
        rpdro_objective(losses, np.zeros(2), tau=1.0)


def reference_rpdro_objective(losses, f_values, tau):
    """rpdro_objective before its all-positive fast path, verbatim."""
    losses = np.asarray(losses, dtype=float)
    r = rpdro_batch_weights(f_values)
    n = len(r)
    nonzero = r > 0
    log_nr = np.zeros(n)
    log_nr[nonzero] = np.log(n * r[nonzero])
    kl_term = float(np.sum(r * log_nr))
    objective = float(np.sum(r * losses)) - tau * kl_term
    a = losses - tau * (log_nr + 1.0)
    dobj_df = r * (a - np.sum(r * a))
    return objective, r, dobj_df


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(0.0, 5.0)), min_size=1, max_size=70),
       st.floats(0.0, 3.0), st.booleans())
def test_rpdro_objective_equals_the_former_objective_bit_for_bit(rows, tau, underflow):
    f, losses = (np.array(column) for column in zip(*rows))
    if underflow:  # a score 2000 below the top: its ratio is exactly 0
        f[::2] = f.max() - 2000.0
    got = rpdro_objective(losses, f, tau)
    want = reference_rpdro_objective(losses, f, tau)
    assert np.logical_or.reduce(got[1] == 0) == (underflow and len(f) > 1)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()


def test_rpdro_selfnorm_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    losses = rng.uniform(0, 2, size=5)
    f = 0.5 * rng.standard_normal(5)
    tau, beta = 0.3, 1.5
    _, dobj_df = rpdro_selfnorm_objective(losses, f, tau, beta)
    eps = 1e-6
    for j in range(5):
        up = np.array(f)
        up[j] += eps
        down = np.array(f)
        down[j] -= eps
        numeric = (
            rpdro_selfnorm_objective(losses, up, tau, beta)[0]
            - rpdro_selfnorm_objective(losses, down, tau, beta)[0]
        ) / (2 * eps)
        assert numeric == pytest.approx(dobj_df[j], abs=1e-6)
    with pytest.raises(ValueError):
        rpdro_selfnorm_objective(losses, f, tau, beta=-1.0)


# ---------------------------------------------------------------------------
# steps


def test_erm_step_descends_batch_loss():
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    ds = gen_two_domain_gaussian(TwoDomainSpec(64, 0.5, 0.5, seed=0))
    batch = ds.rows.rows(0, 32)
    before = nll_loss_batch(model, batch).mean()
    after_model = erm_step(model, batch, lr=0.5)
    assert nll_loss_batch(after_model, batch).mean() < before
    with pytest.raises(ValueError):
        erm_step(model, batch, lr=0.0)


def test_simultaneous_step_pdro_updates_both_players():
    model = init_params(ModelSpec("linear", input_dim=2), seed=1)
    batch = dense_batch(np.random.default_rng(4), 16)
    x = batch.x
    adv = GaussianAdversary(x.mean(axis=0), 1.0, x.mean(axis=0))
    cfg = DroConfig(method="pdro", lr=0.1, tau=0.5, kappa=1.0, adv_lr=0.5)
    norm = RunningNormalizer(window=5)
    new_model, new_adv, new_norm = simultaneous_step(model, adv, batch, cfg, norm)
    assert not np.array_equal(new_model.params, model.params)
    assert not np.array_equal(new_adv.mean, adv.mean)
    assert new_norm.counts == [16]
    # projection keeps the adversary inside the kl ball
    radius = np.sqrt(2.0 * cfg.kappa) * adv.sigma
    assert np.linalg.norm(new_adv.mean - adv.mean0) <= radius + 1e-12


def test_simultaneous_step_rpdro_updates_scorer():
    spec = ModelSpec("linear", input_dim=2)
    model = init_params(spec, seed=2)
    adv = RatioAdversary(init_params(spec, seed=3))
    batch = dense_batch(np.random.default_rng(5), 16)
    cfg = DroConfig(method="rpdro", lr=0.1, tau=0.5, adv_lr=1.0)
    new_model, new_adv, _ = simultaneous_step(model, adv, batch, cfg)
    assert not np.array_equal(new_model.params, model.params)
    assert not np.array_equal(new_adv.scorer.params, adv.scorer.params)


def test_simultaneous_step_rejects_other_methods():
    # DroConfig rejects the method when built and is frozen, so no step can receive it
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    with pytest.raises(ValueError, match="unknown method"):
        simultaneous_step(model, None, [], DroConfig(method="sgd"))
    cfg = DroConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.method = "sgd"
    with pytest.raises(ValueError, match="unknown method"):
        dataclasses.replace(cfg, method="sgd")


def test_simultaneous_step_rejects_an_unknown_norm_mode():
    spec = ModelSpec("linear", input_dim=2)
    batch = dense_batch(np.random.default_rng(0), 4)
    with pytest.raises(ValueError, match="unknown norm_mode"):
        simultaneous_step(init_params(spec, seed=0), RatioAdversary(init_params(spec, seed=1)),
                          batch, DroConfig(method="rpdro", norm_mode="batchlevel"))
    cfg = DroConfig(method="rpdro")
    for name, value in [("norm_mode", "batchlevel"), ("lr", 0.0)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)


@pytest.mark.parametrize("method, norm_mode", [
    ("nonparam", "batch_level"), ("group_dro", "batch_level"), ("pdro", "batch_level"),
    ("rpdro", "batch_level"), ("rpdro", "self_norm"),
])
def test_a_step_runs_the_model_forward_once(monkeypatch, method, norm_mode):
    spec = ModelSpec("linear", input_dim=2)
    model = init_params(spec, seed=4)
    batch = dense_batch(np.random.default_rng(4), 16)
    cfg = DroConfig(method=method, norm_mode=norm_mode, adv_steps=2)
    adversary, normalizer = dro.initial_state(cfg, spec, batch, num_groups=1, seed=0)
    forwards = []
    original = diffcore._forward_batch

    def spy(m, b):
        forwards.append(m is model)
        return original(m, b)

    # dro binds the name too, for the ratio adversary's scorer
    monkeypatch.setattr(diffcore, "_forward_batch", spy)
    monkeypatch.setattr(dro, "_forward_batch", spy)
    simultaneous_step(model, adversary, batch, cfg, normalizer)
    assert forwards.count(True) == 1


def test_simultaneous_step_erm_equals_erm_step():
    model = init_params(ModelSpec("linear", input_dim=2), seed=7)
    batch = dense_batch(np.random.default_rng(7), 16)
    new_model, adv, norm = simultaneous_step(model, None, batch, DroConfig(method="erm", lr=0.3))
    assert np.array_equal(new_model.params, erm_step(model, batch, 0.3).params)
    assert adv is None and norm is None


def test_simultaneous_step_erm_takes_the_shared_weighted_step(monkeypatch):
    model = init_params(ModelSpec("linear", input_dim=2), seed=7)
    batch = dense_batch(np.random.default_rng(7), 16)
    grads = []
    weighted_grad = dro.weighted_grad

    def counted(model, state, weights):
        grads.append(weights.tolist())
        return weighted_grad(model, state, weights)

    def no_erm_step(*args, **kwargs):
        raise AssertionError("erm_step ran")

    monkeypatch.setattr(dro, "weighted_grad", counted)
    monkeypatch.setattr(dro, "erm_step", no_erm_step)
    simultaneous_step(model, None, batch, DroConfig(method="erm", lr=0.3))
    assert grads == [[1.0 / 16] * 16]


def test_the_erm_step_and_grad_params_build_no_loss_row(monkeypatch):
    model = init_params(ModelSpec("linear", input_dim=2), seed=7)
    batch = dense_batch(np.random.default_rng(7), 16)
    step = simultaneous_step(model, None, batch, DroConfig(method="erm", lr=0.3))[0]
    grad = grad_params(model, batch, np.full(16, 0.5))

    def no_losses(*args):
        raise AssertionError("nll_forward ran")

    monkeypatch.setattr(dro, "nll_forward", no_losses)
    monkeypatch.setattr(diffcore, "nll_forward", no_losses)
    assert np.array_equal(simultaneous_step(model, None, batch, DroConfig(method="erm", lr=0.3))[0]
                          .params, step.params)
    assert np.array_equal(grad_params(model, batch, np.full(16, 0.5)), grad)


def test_simultaneous_step_nonparam_descends_the_worst_case_weights():
    model = init_params(ModelSpec("linear", input_dim=2), seed=8)
    batch = dense_batch(np.random.default_rng(8), 16)
    cfg = DroConfig(method="nonparam", lr=0.3, kappa=0.2)
    new_model, adv, _ = simultaneous_step(model, None, batch, cfg)
    weights, _ = nonparam_weights(nll_loss_batch(model, batch), cfg.kappa)
    expected = model.params - cfg.lr * grad_params(model, batch, weights)
    assert np.array_equal(new_model.params, expected)
    assert adv is None


def test_simultaneous_step_group_dro_updates_the_mixture_first():
    model = init_params(ModelSpec("linear", input_dim=2), seed=9)
    rng = np.random.default_rng(9)
    batch = packed_rows((rng.standard_normal(2), int(rng.integers(0, 2)), g)
                        for g in [0, 0, 1, 0, 2, 1, 0, 0])
    mixture = np.array([0.5, 0.3, 0.2])
    cfg = DroConfig(method="group_dro", lr=0.3, eta_group=0.5)
    new_model, new_mixture, _ = simultaneous_step(model, mixture, batch, cfg)
    losses = nll_loss_batch(model, batch)
    groups = batch.groups
    group_means = np.array([losses[groups == g].mean() for g in range(3)])
    expected = group_dro_weights(group_means, mixture, cfg.eta_group)
    np.testing.assert_allclose(new_mixture, expected, rtol=1e-15)
    # each group's share of the step is its updated mixture weight
    counts = np.bincount(groups)
    grad = grad_params(model, batch, expected[groups] / counts[groups])
    np.testing.assert_allclose(new_model.params, model.params - cfg.lr * grad, rtol=1e-14)


def test_ratio_adversary_scores_selected_head():
    spec = ModelSpec("linear", input_dim=2, num_classes=2)
    adv = RatioAdversary(init_params(spec, seed=6))
    batch = dense_batch(np.random.default_rng(6), 4)
    f = adv.f_values(batch)
    assert f.shape == (4,)
    # grad of sum df * f moves f in the df direction
    df = np.array([1.0, -1.0, 0.5, 0.0])
    g = adv.grad_f(adv.f_forward(batch)[1], df)
    bumped = RatioAdversary(ModelState(adv.scorer.spec, adv.scorer.params.copy()))
    bumped.scorer.params += 1e-6 * g
    assert np.dot(bumped.f_values(batch) - f, df) > 0


# -- the Newton temperature solve against the bisection it replaced -----------


def bisection_tau(losses, kappa):
    """The former solver: 200 bisection steps in log10 tau over [1e-10, 1e10]."""
    def kl_at(tau):
        z = losses / tau
        w = np.exp(z - z.max())
        return kl_from_uniform(w / w.sum())

    if kl_at(TAU_SEARCH_LO) <= kappa:
        return TAU_SEARCH_LO
    if kl_at(TAU_SEARCH_HI) >= kappa:
        return TAU_SEARCH_HI
    lo, hi = np.log10(TAU_SEARCH_LO), np.log10(TAU_SEARCH_HI)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kl_at(10.0 ** mid) > kappa:
            lo = mid
        else:
            hi = mid
    return 10.0 ** (0.5 * (lo + hi))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64), st.floats(0.0, 10.0))
def test_nonparam_tau_stays_in_bracket_and_hits_kappa(losses, kappa):
    losses = np.array(losses)
    weights, tau = nonparam_weights(losses, kappa)
    assert TAU_SEARCH_LO <= tau <= TAU_SEARCH_HI
    assert abs(weights.sum() - 1.0) <= 1e-12
    if TAU_SEARCH_LO < tau < TAU_SEARCH_HI:
        assert abs(kl_from_uniform(weights) - kappa) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0),
       st.floats(0.02, 0.9))
def test_nonparam_tau_matches_bisection(n, seed, log_scale, fraction):
    # continuous losses at scales 1e-3..1e3; kappa a share of the largest KL
    rng = np.random.default_rng(seed)
    losses = 10.0 ** log_scale * rng.standard_normal(n) + rng.uniform(-5, 5)
    kappa = fraction * math.log(n / np.sum(losses == losses.max()))
    weights, tau = nonparam_weights(losses, kappa)
    assert TAU_SEARCH_LO < tau < TAU_SEARCH_HI
    assert abs(kl_from_uniform(weights) - kappa) <= 1e-12
    assert abs(tau - bisection_tau(losses, kappa)) <= 1e-9 * tau


def reference_tilted_kl(losses, tau):
    w = np.exp((losses - losses.max()) / tau)
    w /= w.sum()
    nonzero = w > 0
    return float(np.sum(w[nonzero] * np.log(len(losses) * w[nonzero]))), w


def reference_nonparam_weights(losses, kappa):
    """The solver before it shifted the losses once per call, verbatim; returns
    (weights, tau, KL evaluations)."""
    evals = 0

    def tilted_kl(losses, tau):
        nonlocal evals
        evals += 1
        return reference_tilted_kl(losses, tau)

    losses = np.asarray(losses, dtype=float)
    if kappa == 0 or np.ptp(losses) == 0:
        tau = TAU_SEARCH_HI if kappa == 0 else TAU_SEARCH_LO
        return tilted_kl(losses, tau)[1], tau, evals

    kl, w = tilted_kl(losses, TAU_SEARCH_LO)
    if kl <= kappa:
        return w, TAU_SEARCH_LO, evals
    kl, w = tilted_kl(losses, TAU_SEARCH_HI)
    if kl >= kappa:
        return w, TAU_SEARCH_HI, evals
    lo, hi = np.log(TAU_SEARCH_LO), np.log(TAU_SEARCH_HI)
    u = float(np.clip(np.log(np.std(losses) / np.sqrt(2.0 * kappa)), lo, hi))
    last = False
    for _ in range(200):
        tau = min(max(np.exp(u), TAU_SEARCH_LO), TAU_SEARCH_HI)
        kl, w = tilted_kl(losses, tau)
        lo, hi = (u, hi) if kl > kappa else (lo, u)
        var = w @ (losses - w @ losses) ** 2
        step = (kl - kappa) * tau ** 2 / var if var > 0 else np.inf
        if last or u + step == u or abs(kl - kappa) <= 1e-15:
            break
        inside = lo < u + step < hi
        last = inside and abs(step) <= 1e-8
        u = u + step if inside else 0.5 * (lo + hi)
    return w, float(tau), evals


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 0.5, 1.0]), min_size=1,
                max_size=64),
       st.floats(0.0, 5.0) | st.sampled_from([0.0, 1e-12, 0.05]))
@example([1.0, 2.0, 3.0], 5.0)  # tau at its floor: all but the top weight are 0
@example([-1000.0, 1000.0, 999.0], 0.6)  # the bottom weight underflows at tau*
@example([0.5, 0.5, 1.0, 1.0], 0.1)  # ties
def test_nonparam_weights_equal_the_former_solver_bit_for_bit(losses, kappa):
    losses = np.array(losses)
    want_w, want_tau, want_evals = reference_nonparam_weights(losses, kappa)
    with mock.patch.object(dro, "_tilted_kl", wraps=dro._tilted_kl) as tilted_kl:
        w, tau = nonparam_weights(losses, kappa)
    assert w.tobytes() == want_w.tobytes()
    assert np.float64(tau).tobytes() == np.float64(want_tau).tobytes()
    assert tilted_kl.call_count == want_evals


def test_nonparam_weights_can_underflow_to_zero_inside_the_bracket():
    weights, tau = nonparam_weights(np.array([-1000.0, 1000.0, 999.0]), 0.6)
    assert TAU_SEARCH_LO < tau < TAU_SEARCH_HI
    assert weights[0] == 0.0 < weights[1:].min()


# -- the dense step engine against the per-step arithmetic it replaced --------


def reference_logsumexp(a):
    top = a.max()
    is_top = a == top
    count = is_top.sum()
    rest = np.exp(np.where(is_top, -np.inf, a - top)).sum() / count
    return float(np.log1p(rest) + np.log(count) + top)


class DequeNormalizer:
    """The former normalizer: a window deque of (log-sum-exp, count) records,
    pooled by a log-sum-exp over the ndarray of their log-sums."""

    def __init__(self, window):
        self.records = deque(maxlen=window)

    def push(self, losses, tau):
        self.records.append((reference_logsumexp(losses / tau), len(losses)))

    @property
    def log_value(self):
        if not self.records:
            return 0.0
        log_total = reference_logsumexp(np.array([s for s, _ in self.records]))
        return float(log_total - np.log(sum(c for _, c in self.records)))


class PooledNormalizer(DequeNormalizer):
    """RunningNormalizer's arithmetic: the same records, pooled as
    top + log(fsum(exp(s - top))) - log(rows) in Python floats."""

    @property
    def log_value(self):
        if not self.records:
            return 0.0
        sums = [s for s, _ in self.records]
        top = max(sums)
        pooled = math.fsum(math.exp(s - top) for s in sums)
        return top + math.log(pooled) - math.log(sum(c for _, c in self.records))


def reference_linear_step(params, x, labels, lr, weights_of_losses):
    """The former linear forward, backward and copy-then-subtract update, with
    the per-example weights taken from the losses."""
    c = 2
    w, b = params[:c * x.shape[1]].reshape(c, -1), params[c * x.shape[1]:]
    logits = x @ w.T + b
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(len(x))
    losses = -log_probs[rows, labels]
    weights = weights_of_losses(losses)
    dlogits = np.exp(log_probs)
    dlogits[rows, labels] -= 1.0
    dlogits *= weights[:, None]
    grad = np.zeros_like(params)
    grad[:w.size].reshape(w.shape)[:] = dlogits.T @ x
    grad[w.size:] = dlogits.sum(axis=0)
    out = params.copy()
    out -= lr * grad
    return out, losses


def reference_pdro_step(params, mean, norm, x, labels, cfg, sigma, mean0, former=False):
    """The pdro branch: weights, adversary steps, projection, copies. With
    `former`, in the former arithmetic: the weights' exponent as a difference
    of squared distances and each adversary gradient as a sum over rows of
    weight times row; `norm` is then a DequeNormalizer, else a PooledNormalizer."""
    n = len(x)

    def ratios(m):
        if former:
            if np.array_equal(m, mean0):
                return np.ones(n)
            exponent = np.sum((x - mean0) ** 2, axis=-1) - np.sum((x - m) ** 2, axis=-1)
        else:
            exponent = (2.0 * (x - m) + (m - mean0)) @ (m - mean0)
        with np.errstate(over="ignore"):
            return np.clip(np.exp(exponent / (2.0 * sigma ** 2)), 0.0, WEIGHT_CLIP)

    def weighted_sum(w, centered):
        return (w[:, None] * centered).sum(axis=0) if former else w @ centered

    model_weights = ratios(mean)
    params, losses = reference_linear_step(params, x, labels, cfg.lr, lambda _: model_weights / n)
    for _ in range(cfg.adv_steps):
        if cfg.reverse_kl:
            norm.push(losses, cfg.tau)
            w = np.exp(losses / cfg.tau - norm.log_value)
        else:
            w = ratios(mean) * losses
        grad = weighted_sum(w, x - mean) / (n * sigma ** 2)
        mean = mean.copy() + cfg.adv_lr * grad
        if cfg.project:
            diff = mean - mean0
            dist = float(np.linalg.norm(diff))
            radius = np.sqrt(2.0 * cfg.kappa) * sigma
            if dist > radius:
                mean = mean0.copy() if radius == 0.0 else mean0 + (radius / dist) * diff
    return params, mean, model_weights


# the closeness of a run in the current arithmetic to one in the former
RTOL_FORMER = 1e-10


def criterion_02_batches(steps):
    ds = gen_two_domain_gaussian(TwoDomainSpec(10_000, 1.0 / 51.0, 0.8, seed=0))
    rows = ds.rows
    idx = [i for epoch in range(2) for i in batches(ds, 32, seed=epoch)][:steps]
    return rows, idx


@pytest.mark.filterwarnings("ignore:overflow encountered")  # an unprojected mean runs off
@pytest.mark.parametrize("adv_steps", [1, 2])
@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("reverse_kl", [True, False])
def test_pdro_step_engine_matches_the_former_arithmetic(reverse_kl, project, adv_steps):
    rows, idx = criterion_02_batches(300)
    spec = ModelSpec("linear", input_dim=2)
    cfg = DroConfig(method="pdro", lr=0.1, tau=0.1, kappa=math.log(10.0), k_window=5,
                    adv_lr=0.5, adv_sigma_scale=0.4, project=project, reverse_kl=reverse_kl,
                    adv_steps=adv_steps)
    model = init_params(spec, seed=0)
    adv, norm = dro.initial_state(cfg, spec, rows, num_groups=2, seed=0)
    params, mean, ref_norm = model.params.copy(), adv.mean.copy(), PooledNormalizer(5)
    old_params, old_mean, old_norm = model.params.copy(), adv.mean.copy(), DequeNormalizer(5)
    clipped = 0
    for i in idx:
        batch = rows.take(i)
        model, adv, norm = simultaneous_step(model, adv, batch, cfg, norm)
        params, mean, weights = reference_pdro_step(params, mean, ref_norm, batch.x,
                                                    batch.labels, cfg, adv.sigma, adv.mean0)
        old_params, old_mean, _ = reference_pdro_step(old_params, old_mean, old_norm, batch.x,
                                                      batch.labels, cfg, adv.sigma, adv.mean0,
                                                      former=True)
        clipped += int((weights == WEIGHT_CLIP).sum())
    assert np.array_equal(model.params, params)
    assert np.array_equal(adv.mean, mean)
    assert norm.log_value == ref_norm.log_value
    # the former arithmetic's run, 300 steps on, differs only by rounding
    assert np.allclose(model.params, old_params, rtol=RTOL_FORMER, atol=0.0)
    assert np.allclose(adv.mean, old_mean, rtol=RTOL_FORMER, atol=0.0)
    assert norm.log_value == pytest.approx(old_norm.log_value, rel=RTOL_FORMER, abs=0.0)
    if reverse_kl:
        assert len(norm.log_sums) == len(norm.counts) == 5
    if project:
        assert clipped > 0  # the run reaches the weight clip


def test_erm_step_engine_matches_the_former_arithmetic():
    rows, idx = criterion_02_batches(300)
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    params = model.params.copy()
    cfg = DroConfig(method="erm", lr=0.1)
    for i in idx:
        batch = rows.take(i)
        model, _, _ = simultaneous_step(model, None, batch, cfg)
        params, _ = reference_linear_step(params, batch.x, batch.labels, cfg.lr,
                                          lambda losses: np.full(len(losses), 1.0 / len(losses)))
    assert np.array_equal(model.params, params)


def test_normalizer_evicts_the_oldest_batch_first():
    norm, ref, former = RunningNormalizer(window=3), PooledNormalizer(3), DequeNormalizer(3)
    rng = np.random.default_rng(0)
    for size in range(1, 9):  # each batch's row count names it
        losses = rng.uniform(0.0, 3.0, size=size)
        assert normalizer_update(norm, losses / 0.2) is norm
        ref.push(losses, 0.2)
        former.push(losses, 0.2)
        assert norm.counts == [c for _, c in ref.records]
        assert norm.log_sums == [s for s, _ in ref.records]
        assert norm.log_value == ref.log_value
        assert norm.log_value == pytest.approx(former.log_value, rel=1e-15, abs=0.0)
    assert norm.counts == [6, 7, 8]


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64), st.integers(0, 64),
       st.booleans())
@example([2.5], 0, False)  # one element
@example([-1e3, 1e3, 0.0], 0, True)  # all equal
@example([1e3, -1e3, 7.0, 1e3], 2, False)  # ties
@example([1.7, -3.8, 1.7], 0, False)  # two copies of the max: the rest sums to 1 + 0.4%
@example([-3.2, -3.0, -3.4, -2.9, -3.1], 0, False)  # a window: no tie, the rest sums past 1
@example([np.inf, 1.0, np.inf], 0, False)  # two +inf
@example([1.0, np.inf, -np.inf], 0, False)  # one +inf
@example([-0.0, 0.0], 0, False)  # a tie of the two zeros
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")  # inf - inf
def test_logsumexp_equals_the_former_formula(values, ties, all_equal):
    a = np.array(values)
    a[:ties] = a.max()  # ties extra copies of the max
    if all_equal:
        a[:] = a[0]
    before = a.copy()
    assert dro._logsumexp(a) == reference_logsumexp(a)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan, 3.0], [np.inf, np.nan], [np.nan, np.nan]])
def test_logsumexp_returns_nan_where_the_former_formula_did(values):
    a = np.array(values)
    with np.errstate(invalid="ignore", divide="ignore"):
        assert math.isnan(dro._logsumexp(a)) and math.isnan(reference_logsumexp(a))


@pytest.mark.parametrize("values", [[1.0, np.nan], [np.nan, 1.0], [np.inf, 1.0]])
def test_logsumexp_of_a_non_finite_max_returns_it_without_a_warning(values):
    a = np.array(values)
    with np.errstate(all="raise"):
        got = dro._logsumexp(a)
    with np.errstate(all="ignore"):
        want = reference_logsumexp(a)
    assert got == want or math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("kappa, fires", [(1e-4, True), (100.0, False)])
def test_the_pdro_step_builds_the_adversary_the_constructor_would(kappa, fires):
    rows, idx = criterion_02_batches(1)
    batch = rows.take(idx[0])
    spec = ModelSpec("linear", input_dim=2)
    cfg = DroConfig(method="pdro", tau=0.1, kappa=kappa, adv_lr=0.5, adv_sigma_scale=0.4)
    model = init_params(spec, seed=0)
    adv, norm = dro.initial_state(cfg, spec, rows, num_groups=2, seed=0)
    mean0 = adv.mean0.copy()
    _, new_adv, _ = simultaneous_step(model, adv, batch, cfg, norm)
    # the same step and projection, with every adversary made by the constructor
    scaled = nll_loss_batch(model, batch) / cfg.tau
    log_z = normalizer_update(RunningNormalizer(cfg.k_window), scaled).log_value
    w = np.exp(scaled - log_z)
    grad = np.add.reduce(w[:, None] * (batch.x - adv.mean), axis=0) / (len(batch) * adv.sigma ** 2)
    expected = GaussianAdversary(adv.mean + cfg.adv_lr * grad, adv.sigma, mean0)
    diff = expected.mean - mean0
    dist, radius = math.sqrt(diff @ diff), math.sqrt(2.0 * kappa) * adv.sigma
    assert (dist > radius) == fires
    if fires:
        expected = GaussianAdversary(mean0 + (radius / dist) * diff, adv.sigma, mean0)
    assert type(new_adv) is GaussianAdversary
    assert new_adv.mean.dtype == np.float64 and np.array_equal(new_adv.mean, expected.mean)
    assert new_adv.sigma == expected.sigma
    assert new_adv.mean0 is adv.mean0 and np.array_equal(adv.mean0, mean0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        GaussianAdversary(new_adv.mean, 0.0, new_adv.mean0)


@pytest.mark.parametrize("method", METHODS)
def test_simultaneous_step_leaves_its_model_and_adversary_alone(method):
    spec = ModelSpec("linear", input_dim=2)
    model = init_params(spec, seed=9)
    batch = dense_batch(np.random.default_rng(9), 16)
    cfg = DroConfig(method=method, tau=0.5, adv_lr=0.5, adv_steps=2)
    adversary, normalizer = dro.initial_state(cfg, spec, batch, num_groups=2, seed=0)
    if method == "pdro":  # off psi0, so that the ratios are computed
        adversary = GaussianAdversary(adversary.mean + 0.3, adversary.sigma, adversary.mean0)
    if method == "group_dro":
        batch.groups[::2] = 1
    before = model.params.copy()
    arrays = {"pdro": lambda a: (a.mean, a.mean0), "rpdro": lambda a: (a.scorer.params,),
              "group_dro": lambda a: (a,)}.get(method, lambda a: ())
    adv_before = [a.copy() for a in arrays(adversary)]
    new_model, new_adv, _ = simultaneous_step(model, adversary, batch, cfg, normalizer)
    assert np.array_equal(model.params, before)
    assert all(np.array_equal(a, b) for a, b in zip(arrays(adversary), adv_before))
    assert not np.array_equal(new_model.params, before)
    if method in ("pdro", "rpdro", "group_dro"):
        assert not all(np.array_equal(a, b) for a, b in zip(arrays(new_adv), adv_before))


@pytest.mark.parametrize("adv_steps", [1, 3])
def test_rpdro_forwards_the_scorer_once_per_adversary_pass(monkeypatch, adv_steps):
    spec = ModelSpec("linear", input_dim=2)
    model = init_params(spec, seed=4)
    batch = dense_batch(np.random.default_rng(4), 16)
    cfg = DroConfig(method="rpdro", adv_steps=adv_steps)
    adversary, _ = dro.initial_state(cfg, spec, batch, num_groups=1, seed=0)
    scorers = []
    original = diffcore._forward_batch

    def spy(m, b):
        scorers.append(m is not model)
        return original(m, b)

    monkeypatch.setattr(diffcore, "_forward_batch", spy)
    monkeypatch.setattr(dro, "_forward_batch", spy)
    simultaneous_step(model, adversary, batch, cfg)
    assert scorers.count(True) == adv_steps
