"""End-to-end acceptance checks.

Each test prints one summary line; the conftest plugin repeats all lines in
a block at the end of the session. Quantitative checks use fixed seeds and
small synthetic data so the whole suite runs on a laptop.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import conftest
from conftest import finite_diff_check, packed_rows, residual_check
from shiftlab import harness
from shiftlab.advmetrics import chrf, first_order_substitution
from shiftlab.continual import (
    ContinualConfig,
    FisherState,
    ReplayMemory,
    conatural_delta,
    conatural_delta_raw,
    continual_train,
    fisher_renormalize,
    average_forgetting,
    reservoir_add,
    rotated_gaussian_tasks,
)
from shiftlab.datasets import GroupedDataset, batches
from shiftlab.diffcore import (
    ModelSpec,
    ModelState,
    fisher_diag,
    grad_params,
    init_params,
    nll_loss_batch,
    zero_one_loss_batch,
)
from shiftlab.dro import nonparam_weights, rpdro_batch_weights
from shiftlab.selection import (
    SelectionState,
    greedy_minmax_update,
    identity_record,
    make_record,
    surviving_records,
)


def report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.record_line(line)
    assert ok, line


def mean_accuracy(cfg, seeds, which="robust", fallback=0.5):
    values = []
    for seed in seeds:
        try:
            metrics = harness.train_run(cfg, seed).test_metrics
            values.append(
                metrics.robust_accuracy if which == "robust" else metrics.average_accuracy
            )
        except harness.DivergenceError:
            values.append(fallback)
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_gradient_correctness_across_architectures():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    specs = [
        ModelSpec("linear", input_dim=3),
        ModelSpec("mlp", input_dim=2, hidden_units=2),
        ModelSpec("embed_bag", vocab_size=5, embed_dim=2),
    ]
    worst = 0.0
    for spec in specs:
        for trial in range(100):
            model = init_params(spec, seed=trial)
            model.params += 0.1 * rng.standard_normal(model.num_params)
            n = int(rng.integers(1, 5))
            if spec.architecture == "embed_bag":
                batch = packed_rows(
                    (rng.integers(0, 5, size=int(rng.integers(1, 5))), int(rng.integers(0, 2)))
                    for _ in range(n)
                )
            else:
                batch = packed_rows(
                    (rng.standard_normal(spec.input_dim), int(rng.integers(0, 2)))
                    for _ in range(n)
                )
            worst = max(worst, finite_diff_check(model, batch))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    report(1, "analytic gradients match finite differences",
           ok, f"max rel err={worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. two-domain toy ablation


TOY_BASE = {
    "dataset": "two_domain",
    "data.sigma": 0.8,
    "model.arch": "linear",
    "lr": 0.1,
    "batch_size": 32,
    "epochs": 10,
    "k_window": 5,
    "kappa": math.log(10.0),
    "selection": "minmax",
}


@pytest.fixture(scope="module")
def toy_results():
    start = time.perf_counter()
    seeds = range(10)
    erm = mean_accuracy({**TOY_BASE, "method": "erm"}, seeds)
    full = mean_accuracy(
        {**TOY_BASE, "method": "pdro", "tau": 0.1, "adv_lr": 0.5,
         "adv_sigma_scale": 0.4},
        seeds,
    )
    bare = mean_accuracy(
        {**TOY_BASE, "method": "pdro", "tau": 0.1, "adv_lr": 0.5,
         "adv_sigma_scale": 0.4, "project": False, "reverse_kl": False},
        seeds,
    )
    return {"erm": erm, "full": full, "bare": bare,
            "elapsed": time.perf_counter() - start}


def test_toy_adversary_ablation(toy_results):
    erm, full, bare = toy_results["erm"], toy_results["full"], toy_results["bare"]
    elapsed = toy_results["elapsed"]
    erm_ok = abs(erm - 0.50) <= 0.03
    gain_ok = full >= erm + 0.08
    bare_ok = bare <= erm + 0.02
    time_ok = elapsed < 120.0
    detail = (
        f"erm={erm:.3f} (band ±3: {'ok' if erm_ok else 'out'}), "
        f"full={full:.3f} (gain {100 * (full - erm):+.1f}pt, need >=+8: "
        f"{'ok' if gain_ok else 'short'}), "
        f"bare={bare:.3f} ({'ok' if bare_ok else 'too high'}), {elapsed:.0f}s"
    )
    report(2, "worst-group gains need projection and the tilted surrogate",
           erm_ok and gain_ok and bare_ok and time_ok, detail)


# ---------------------------------------------------------------------------
# 3. closed-form tilted weights hit the requested divergence


def test_tilted_weights_hit_kl_radius():
    rng = np.random.default_rng(1)
    worst = 0.0
    interior = 0
    for _ in range(100):
        n = int(rng.integers(8, 64))
        losses = rng.standard_normal(n)
        kappa = float(rng.uniform(0.05, 0.5 * math.log(n)))
        weights, tau = nonparam_weights(losses, kappa)
        assert 1e-10 <= tau <= 1e10
        if 1e-10 < tau < 1e10:
            interior += 1
            nonzero = weights > 0
            kl = float(np.sum(weights[nonzero] * np.log(n * weights[nonzero])))
            worst = max(worst, abs(kl - kappa))
    ok = worst <= 1e-6 and interior == 100
    report(3, "tilted weights solve the divergence constraint exactly",
           ok, f"max |kl - target|={worst:.2e} over {interior} interior solutions")


# ---------------------------------------------------------------------------
# 4. ratio-weight normalization


def test_ratio_weight_normalization():
    rng = np.random.default_rng(2)
    worst_sum = 0.0
    worst_shift = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 64))
        f = rng.uniform(-50.0, 50.0, size=n)
        w = rpdro_batch_weights(f)
        worst_sum = max(worst_sum, abs(w.sum() - 1.0))
        shifted = rpdro_batch_weights(f + float(rng.uniform(-100, 100)))
        worst_shift = max(worst_shift, float(np.max(np.abs(w - shifted))))
    ok = worst_sum <= 1e-9 and worst_shift <= 1e-12
    report(4, "batch ratio weights normalize and are shift invariant",
           ok, f"sum err={worst_sum:.2e}, shift err={worst_shift:.2e}")


# ---------------------------------------------------------------------------
# 5 and 6. spurious-token dataset: ordering and label-noise resilience


NONPARAM_CFG = {
    "dataset": "distractor", "method": "nonparam", "kappa": 0.1,
    "lr": 0.05, "epochs": 8, "checkpoint_every": 10,
}
RPDRO_CFG = {
    "dataset": "distractor", "method": "rpdro", "tau": 0.5, "adv_lr": 10.0,
    "lr": 0.05, "epochs": 8, "checkpoint_every": 10,
}


@pytest.fixture(scope="module")
def distractor_results():
    start = time.perf_counter()
    seeds = range(5)
    erm = mean_accuracy({"dataset": "distractor", "method": "erm",
                         "lr": 0.1, "epochs": 10}, seeds, fallback=0.0)
    nonparam = mean_accuracy(NONPARAM_CFG, seeds, fallback=0.0)
    rpdro = mean_accuracy(RPDRO_CFG, seeds, fallback=0.0)
    return {"erm": erm, "nonparam": nonparam, "rpdro": rpdro,
            "elapsed": time.perf_counter() - start}


def test_distractor_worst_group_ordering(distractor_results):
    erm = distractor_results["erm"]
    nonparam = distractor_results["nonparam"]
    rpdro = distractor_results["rpdro"]
    elapsed = distractor_results["elapsed"]
    ok = (
        nonparam >= erm + 0.05
        and rpdro >= nonparam + 0.05
        and elapsed < 300.0
    )
    report(5, "reweighting beats plain training on the spurious-token data",
           ok, f"erm={erm:.3f} < tilted={nonparam:.3f} < parametric={rpdro:.3f}, "
               f"{elapsed:.0f}s")


@pytest.fixture(scope="module")
def noise_results():
    seeds = range(5)
    nonparam_cfg = {**NONPARAM_CFG, "kappa": 1.0, "epochs": 15}
    out = {}
    for name, cfg in (("nonparam", nonparam_cfg), ("rpdro", RPDRO_CFG)):
        clean = mean_accuracy(cfg, seeds, which="average", fallback=0.0)
        noisy = mean_accuracy({**cfg, "data.p_noise": 0.2}, seeds,
                              which="average", fallback=0.0)
        out[name] = clean - noisy
    return out


def test_label_noise_resilience(noise_results):
    nonparam_drop = noise_results["nonparam"]
    rpdro_drop = noise_results["rpdro"]
    ok = rpdro_drop <= 0.5 * nonparam_drop
    report(6, "parametric ratios degrade less under label noise",
           ok, f"avg-acc drop: tilted={100 * nonparam_drop:.1f}pt, "
               f"parametric={100 * rpdro_drop:.1f}pt")


# ---------------------------------------------------------------------------
# 7 and 9. two-task retention with preconditioned updates


def blob_task(angle, n, sigma, seed):
    rng = np.random.default_rng(seed)
    center = np.array([math.cos(angle), math.sin(angle)])
    rows = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        x = (center if label == 1 else -center) + sigma * rng.standard_normal(2)
        rows.append((x, label))
    return GroupedDataset(packed_rows(rows))


def run_two_tasks(seed, alpha):
    """Train T1 then T2 on one linear model with noisy gradients.

    alpha None means plain fine-tuning on T2; otherwise T2 updates are
    preconditioned by the damped T1 Fisher. Returns accuracy/loss bookkeeping
    for the first task.
    """
    t1 = blob_task(0.0, 400, 0.3, seed)
    t2 = blob_task(math.pi / 2, 400, 0.3, seed + 1)
    model = init_params(ModelSpec("linear", input_dim=2), seed)
    noise_rng = np.random.default_rng(seed + 7)

    def train(task, fisher):
        nonlocal model
        for epoch in range(3):
            for idx in batches(task, 16, seed=seed * 100 + epoch):
                batch = task.rows.take(idx)
                grad = grad_params(model, batch, np.full(len(batch), 1.0 / len(batch)))
                scale = 0.1 * np.linalg.norm(grad)
                grad = grad + scale * noise_rng.standard_normal(grad.size) / math.sqrt(grad.size)
                if fisher is None:
                    delta = -0.1 * grad
                else:
                    delta = conatural_delta(grad, fisher, 0.1)
                model = ModelState(model.spec, model.params.copy())
                model.params += delta

    train(t1, None)
    acc_after_t1 = 1.0 - float(zero_one_loss_batch(model, t1.rows).mean())
    diag, ok = fisher_renormalize(fisher_diag(model, t1.rows, 1000, seed))
    assert ok
    fisher = None if alpha is None else FisherState(diag, 0.9, alpha=alpha)
    train(t2, fisher)
    final_nll = float(nll_loss_batch(model, t1.rows).mean())
    final_acc = 1.0 - float(zero_one_loss_batch(model, t1.rows).mean())
    return acc_after_t1, final_acc, final_nll


def test_preconditioned_updates_preserve_the_first_task():
    wins = 0
    for seed in range(10):
        _, _, finetune_nll = run_two_tasks(seed, alpha=None)
        _, _, conatural_nll = run_two_tasks(seed, alpha=0.1)
        wins += conatural_nll < finetune_nll
    report(7, "preconditioned runs end with lower first-task loss",
           wins >= 8, f"{wins}/10 seeds")


def test_forgetting_grows_with_damping():
    grid = [0.0, 1e-7, 1e-5, 1e-3, 1e-1, 1.0, 10.0, 100.0, math.inf]
    mean_forgetting = []
    for alpha in grid:
        drops = []
        for seed in range(10):
            acc_before, acc_after, _ = run_two_tasks(seed, alpha=alpha)
            drops.append(acc_before - acc_after)
        mean_forgetting.append(float(np.mean(drops)))
    rho = float(spearmanr(range(len(grid)), mean_forgetting).statistic)
    report(9, "forgetting is monotone in the damping coefficient",
           rho >= 0.9, f"spearman rho={rho:.3f} over {len(grid)} damping values")


# ---------------------------------------------------------------------------
# 8. five-task sequence


@pytest.fixture(scope="module")
def continual_results():
    start = time.perf_counter()
    config = ContinualConfig(hidden=8, lr=0.3, epochs=5, batch_size=16, alpha=0.3)
    out = {}
    for method in ("finetune", "conatural", "er", "conatural+er"):
        drops = []
        for seed in range(5):
            tasks = rotated_gaussian_tasks(5, 400, sigma=0.5, seed=seed,
                                           max_angle=math.pi)
            cfg = ContinualConfig(**{**config.__dict__, "seed": seed})
            drops.append(average_forgetting(continual_train(tasks, method, cfg)))
        out[method] = float(np.mean(drops))
    out["elapsed"] = time.perf_counter() - start
    return out


def test_forgetting_reduction_over_five_tasks(continual_results):
    r = continual_results
    ok = (
        r["conatural"] <= 0.5 * r["finetune"]
        and r["conatural+er"] <= r["er"]
        and r["elapsed"] < 180.0
    )
    report(8, "preconditioning halves forgetting and stacks with replay",
           ok, f"finetune={r['finetune']:.4f}, preconditioned={r['conatural']:.4f}, "
               f"replay={r['er']:.4f}, both={r['conatural+er']:.4f}, "
               f"{r['elapsed']:.0f}s")


# ---------------------------------------------------------------------------
# 10. preconditioning solve is stationary


def test_preconditioning_residual():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 200))
        fisher = FisherState(rng.uniform(0, 10, size=n), gamma=0.9,
                             alpha=float(rng.uniform(0.01, 5)))
        grad = rng.standard_normal(n) * float(rng.uniform(0.1, 100))
        raw = conatural_delta_raw(grad, fisher)
        worst = max(worst, residual_check(grad, fisher, raw))
    report(10, "diagonal solve satisfies its optimality condition",
           worst < 1e-10, f"max residual={worst:.2e}")


# ---------------------------------------------------------------------------
# 11. character n-gram score equals an exhaustive oracle


def chrf_oracle(reference, hypothesis, max_n=6, beta=2.0):
    import re

    ref = re.sub(r"\s+", " ", reference.strip())
    hyp = re.sub(r"\s+", " ", hypothesis.strip())
    if not ref and not hyp:
        return 100.0
    precisions, recalls = [], []
    for n in range(1, max_n + 1):
        ref_grams = [ref[i:i + n] for i in range(len(ref) - n + 1)]
        hyp_grams = [hyp[i:i + n] for i in range(len(hyp) - n + 1)]
        if not ref_grams and not hyp_grams:
            continue
        remaining = list(ref_grams)
        matches = 0
        for gram in hyp_grams:  # greedy multiset intersection
            if gram in remaining:
                remaining.remove(gram)
                matches += 1
        precisions.append(matches / len(hyp_grams) if hyp_grams else 0.0)
        recalls.append(matches / len(ref_grams) if ref_grams else 0.0)
    if not precisions:
        return 100.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = beta * beta
    return 100.0 * (1 + b2) * p * r / (b2 * p + r)


def test_chrf_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    alphabet = list("abcde ")
    worst = 0.0
    for _ in range(50):
        ref = "".join(rng.choice(alphabet, size=int(rng.integers(1, 30))))
        hyp = "".join(rng.choice(alphabet, size=int(rng.integers(1, 30))))
        worst = max(worst, abs(chrf(ref, hyp) - chrf_oracle(ref, hyp)))
        assert chrf(ref, ref) == 100.0
    report(11, "character n-gram score matches the exhaustive oracle",
           worst <= 1e-9, f"max |diff|={worst:.2e} over 50 pairs, identity=100")


# ---------------------------------------------------------------------------
# 12. substitution search equals the naive argmax


def test_substitution_matches_naive_argmax():
    rng = np.random.default_rng(5)
    mismatches = 0
    for trial in range(100):
        vocab = int(rng.integers(3, 51))
        dim = int(rng.integers(2, 6))
        n = int(rng.integers(1, 6))
        vectors = rng.standard_normal((vocab, dim))
        ids = [int(i) for i in rng.integers(0, vocab, size=n)]
        grads = rng.standard_normal((n, dim))
        constraint = "knn" if trial % 2 else "none"
        k = min(5, vocab - 1)
        got = first_order_substitution(grads, ids, vectors, constraint=constraint,
                                       sign_normalize=False, k=k)
        best = None
        for pos, tok in enumerate(ids):
            if constraint == "none":
                cands = [i for i in range(vocab) if i != tok]
            else:
                dists = np.linalg.norm(vectors - vectors[tok], axis=1)
                ranked = sorted(range(vocab), key=lambda i: (dists[i], i))
                cands = [i for i in ranked if i != tok][:k]
            for cand in cands:
                score = float((vectors[cand] - vectors[tok]) @ grads[pos])
                key = (-score, pos, cand)
                if best is None or key < best:
                    best = key
        mismatches += got != (best[1], best[2])
    report(12, "first-order substitution equals the double-loop argmax",
           mismatches == 0, f"{mismatches}/100 mismatches")


# ---------------------------------------------------------------------------
# 13. reservoir uniformity


def test_reservoir_inclusion_is_uniform():
    streams = 10000
    stream_len = 30
    capacity = 10
    rng = np.random.default_rng(6)
    counts = np.zeros(stream_len)
    for _ in range(streams):
        memory = reservoir_add(ReplayMemory(capacity), np.arange(stream_len), rng)
        for item in memory.items:
            counts[item] += 1
    freq = counts / streams
    p = capacity / stream_len
    sigma = math.sqrt(p * (1 - p) / streams)
    deviation = float(np.max(np.abs(freq - p)))
    report(13, "replay buffer keeps every stream item equally often",
           deviation <= 3 * sigma,
           f"max |freq - {p:.3f}|={deviation:.4f}, 3 sigma={3 * sigma:.4f}")


# ---------------------------------------------------------------------------
# 14. selection filter behavior


def test_selection_filter_and_greedy_footprint():
    n = 20
    ident = identity_record(n)
    raw = np.zeros(n)
    raw[0] = n  # all mass on one example: kl = log n = log 20
    sharp = make_record(raw)
    assert sharp.kl_estimate == pytest.approx(math.log(20))
    kept = surviving_records([ident, sharp], kl_threshold=math.log(10))
    filtered_ok = kept == [ident]

    valid = blob_task(0.0, n, 0.3, seed=0)
    state = SelectionState(records=[ident])
    max_snapshots = 0
    rng = np.random.default_rng(7)
    for i in range(6):
        ckpt = init_params(ModelSpec("linear", input_dim=2), seed=i)
        rec = make_record(rng.uniform(0.5, 1.5, n))
        state = greedy_minmax_update(state, ckpt, i, rec, nll_loss_batch(ckpt, valid.rows),
                                     math.log(10))
        stored = sum(
            1 for v in vars(state).values()
            if hasattr(v, "params")
        )
        # candidate + incumbent is the whole working set
        max_snapshots = max(max_snapshots, stored + 1)
    identity_kept = ident in surviving_records(state.records, math.log(10))
    ok = filtered_ok and identity_kept and max_snapshots <= 2
    report(14, "divergence filter and bounded greedy memory",
           ok, f"high-divergence record excluded={filtered_ok}, "
               f"identity kept={identity_kept}, max snapshots={max_snapshots}")
