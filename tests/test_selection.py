import math

import numpy as np
import pytest

from shiftlab.datasets import TwoDomainSpec, gen_two_domain_gaussian
from shiftlab.diffcore import ModelSpec, ModelState, init_params, nll_loss_batch
from shiftlab.selection import (
    AdversaryRecord,
    SelectionState,
    adversary_valid_kl,
    greedy_minmax_update,
    hyperparam_select,
    identity_record,
    make_record,
    minmax_select,
    normalize_weights,
    robust_valid_loss,
    surviving_records,
)


@pytest.fixture
def valid_set():
    return gen_two_domain_gaussian(TwoDomainSpec(60, 0.5, 0.5, seed=0))


def random_checkpoints(n, seed=0):
    return [init_params(ModelSpec("linear", input_dim=2), seed=seed + i) for i in range(n)]


def nll_rows(checkpoints, valid_set):
    return [nll_loss_batch(ckpt, valid_set.rows) for ckpt in checkpoints]


def test_normalize_weights_mean_one():
    w = normalize_weights(np.array([1.0, 3.0]))
    assert w.mean() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalize_weights(np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        normalize_weights(np.zeros(3))


def test_record_enforces_mean_one():
    AdversaryRecord(0, np.ones(4))
    with pytest.raises(ValueError):
        AdversaryRecord(0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        AdversaryRecord(0, np.array([-1.0, 3.0]))
    # NaN weights would otherwise estimate KL 0 and pass every threshold
    with pytest.raises(ValueError, match="finite"):
        AdversaryRecord(1, np.full(4, np.nan))
    with pytest.raises(ValueError, match="finite"):
        make_record(1, np.array([1.0, np.nan]))


def test_kl_estimate_values():
    assert adversary_valid_kl(np.ones(10)) == 0.0
    # all mass on one of n examples: (1/n) * n log n = log n
    w = np.zeros(20)
    w[3] = 20.0
    assert adversary_valid_kl(w) == pytest.approx(math.log(20))
    with pytest.raises(ValueError):
        adversary_valid_kl(np.array([-1.0, 3.0]))


def test_make_record_and_identity():
    rec = make_record(5, np.array([2.0, 6.0]))
    assert rec.id == 5
    assert rec.valid_weights.mean() == pytest.approx(1.0)
    assert rec.kl_estimate > 0
    ident = identity_record(7)
    assert ident.kl_estimate == 0.0
    assert np.array_equal(ident.valid_weights, np.ones(7))


def test_surviving_records_filters_by_kl():
    low = identity_record(4)
    high = make_record(1, np.array([0.0, 0.0, 0.0, 4.0]))  # kl = log 4
    kept = surviving_records([low, high], kl_threshold=math.log(2))
    assert kept == [low]


def test_a_record_built_directly_derives_its_kl_from_its_weights():
    w = np.zeros(20)
    w[0] = 20.0  # one-hot over 20 rows: kl = log 20
    ident, sharp = identity_record(20), AdversaryRecord(1, w)
    assert sharp.kl_estimate == pytest.approx(math.log(20))
    assert surviving_records([ident, sharp], math.log(10)) == [ident]


def test_robust_valid_loss_is_the_max_weighted_mean():
    losses = np.array([1.0, 2.0, 3.0, 4.0])
    recs = [
        identity_record(4),
        AdversaryRecord(1, np.array([0.0, 0.0, 0.0, 4.0])),
    ]
    assert robust_valid_loss(losses, recs) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        robust_valid_loss(losses, [])


def test_minmax_select_matches_brute_force(valid_set):
    rng = np.random.default_rng(1)
    checkpoints = random_checkpoints(5, seed=10)
    records = [identity_record(len(valid_set.rows))]
    for i in range(3):
        records.append(make_record(i + 1, rng.uniform(0.1, 2.0, len(valid_set.rows))))
    idx, model = minmax_select(checkpoints, records, nll_rows(checkpoints, valid_set),
                               kl_threshold=10.0)
    scores = []
    for ckpt in checkpoints:
        losses = nll_loss_batch(ckpt, valid_set.rows)
        scores.append(max(float(np.mean(r.valid_weights * losses)) for r in records))
    assert idx == int(np.argmin(scores))
    assert model is checkpoints[idx]
    with pytest.raises(ValueError):
        minmax_select([], records, [])
    with pytest.raises(ValueError, match="4 loss rows for 5 checkpoints"):
        minmax_select(checkpoints, records, nll_rows(checkpoints[1:], valid_set))


def test_minmax_select_requires_a_survivor(valid_set):
    heavy = make_record(1, np.eye(len(valid_set.rows))[0])  # kl = log n
    checkpoints = random_checkpoints(2)
    with pytest.raises(ValueError):
        minmax_select(checkpoints, [heavy], nll_rows(checkpoints, valid_set), kl_threshold=0.1)


def test_greedy_requires_a_survivor(valid_set):
    heavy = make_record(1, np.eye(len(valid_set.rows))[0])  # kl = log n
    state = SelectionState(records=[identity_record(len(valid_set.rows))])
    model = random_checkpoints(1)[0]
    with pytest.raises(ValueError, match="no adversary record survived"):
        greedy_minmax_update(state, model, 0, heavy, nll_loss_batch(model, valid_set.rows),
                             kl_threshold=-1.0)


def test_greedy_without_adversaries_matches_plain_validation(valid_set):
    checkpoints = random_checkpoints(4, seed=20)
    state = SelectionState(records=[identity_record(len(valid_set.rows))])
    for i, (ckpt, row) in enumerate(zip(checkpoints, nll_rows(checkpoints, valid_set))):
        state = greedy_minmax_update(state, ckpt, i, None, row)
    mean_losses = [
        float(nll_loss_batch(c, valid_set.rows).mean()) for c in checkpoints
    ]
    assert state.best_model_id == int(np.argmin(mean_losses))


def test_greedy_state_holds_at_most_one_snapshot(valid_set):
    rng = np.random.default_rng(2)
    checkpoints = random_checkpoints(6, seed=30)
    state = SelectionState(records=[identity_record(len(valid_set.rows))])
    for i, (ckpt, row) in enumerate(zip(checkpoints, nll_rows(checkpoints, valid_set))):
        rec = make_record(i + 1, rng.uniform(0.5, 1.5, len(valid_set.rows)))
        state = greedy_minmax_update(state, ckpt, i, rec, row)
        stored = [v for v in vars(state).values() if isinstance(v, ModelState)]
        assert len(stored) <= 1
        assert not any(isinstance(r, ModelState) for r in state.records)
    assert 0 <= state.best_model_id < len(checkpoints)
    assert math.isfinite(state.best_value)


def test_greedy_rescores_incumbent_when_new_records_arrive(valid_set):
    n = len(valid_set.rows)
    checkpoints = random_checkpoints(2, seed=40)
    rows = nll_rows(checkpoints, valid_set)
    state = SelectionState(records=[identity_record(n)])
    state = greedy_minmax_update(state, checkpoints[0], 0, None, rows[0])
    # a new adversary concentrated on hard examples raises the incumbent's worst case
    spike = np.full(n, 0.01)
    spike[np.argsort(rows[0])[-12:]] = 5.0
    rec = make_record(1, spike)
    assert rec.kl_estimate <= math.log(10)
    state = greedy_minmax_update(state, checkpoints[1], 1, rec, rows[1])
    chosen = checkpoints[state.best_model_id]
    chosen_losses = nll_loss_batch(chosen, valid_set.rows)
    kept = surviving_records(state.records, math.log(10))
    assert state.best_value == pytest.approx(robust_valid_loss(chosen_losses, kept))


def test_hyperparam_select_single_run_reduces_to_minmax(valid_set):
    rng = np.random.default_rng(3)
    checkpoints = random_checkpoints(4, seed=50)
    records = [identity_record(len(valid_set.rows))]
    records.append(make_record(1, rng.uniform(0.2, 1.8, len(valid_set.rows))))
    rows = nll_rows(checkpoints, valid_set)
    expected_idx, model = minmax_select(checkpoints, records, rows)
    assert hyperparam_select([(rows, records)]) == (0, expected_idx)
    assert model is checkpoints[expected_idx]
    with pytest.raises(ValueError):
        hyperparam_select([])


def test_selection_without_a_checkpoint_raises_a_value_error(valid_set):
    records = [identity_record(len(valid_set.rows))]
    for select in (lambda: hyperparam_select([([], records)]),
                   lambda: hyperparam_select([([], records), ([], records)]),
                   lambda: minmax_select([], records, [])):
        with pytest.raises(ValueError, match="at least one checkpoint required"):
            select()


def test_hyperparam_select_pools_records_across_runs(valid_set):
    n = len(valid_set.rows)
    run_a = (random_checkpoints(2, seed=60), [identity_record(n)])
    rng = np.random.default_rng(4)
    run_b = (
        random_checkpoints(2, seed=70),
        [identity_record(n), make_record(1, rng.uniform(0.1, 3.0, n))],
    )
    run_idx, ckpt_idx = hyperparam_select(
        [(nll_rows(ckpts, valid_set), records) for ckpts, records in (run_a, run_b)])
    pooled = run_a[1] + run_b[1]
    best = None
    for ri, (ckpts, _) in enumerate([run_a, run_b]):
        for ci, model in enumerate(ckpts):
            losses = nll_loss_batch(model, valid_set.rows)
            value = robust_valid_loss(losses, pooled)
            if best is None or value < best[0]:
                best = (value, ri, ci)
    assert (run_idx, ckpt_idx) == (best[1], best[2])
