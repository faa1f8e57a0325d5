import contextlib
import csv
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from shiftlab import advmetrics, cli, continual as cl, diffcore, dro, harness, selection
from shiftlab.datasets import (
    DistractorTextSpec, GroupedDataset, TwoDomainSpec, batches, gen_distractor_text,
    gen_two_domain_gaussian, group_metrics, save_csv,
)
from shiftlab.diffcore import (
    ModelSpec, Packed, forward_logits_batch, init_params, softmax,
)


def test_coerce_value():
    assert harness.coerce_value("true") is True
    assert harness.coerce_value("OFF") is False
    assert harness.coerce_value("3") == 3
    assert harness.coerce_value("0.5") == 0.5
    assert harness.coerce_value("inf") == math.inf
    assert harness.coerce_value("-INF") == -math.inf
    assert harness.coerce_value("minmax") == "minmax"


def test_parse_config_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "method = nonparam  # trailing comment\n"
        "kappa = 0.5\n"
        "\n"
        "project = false\n"
    )
    cfg = harness.parse_config(str(path))
    assert cfg == {"method": "nonparam", "kappa": 0.5, "project": False}


def test_parse_config_errors(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("learning_rate = 0.1\n")
    with pytest.raises(harness.ConfigError, match="unknown config key"):
        harness.parse_config(str(bad_key))
    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("just some words\n")
    with pytest.raises(harness.ConfigError, match="line 1"):
        harness.parse_config(str(bad_line))


def test_apply_overrides_and_resolved():
    cfg = harness.apply_overrides({"lr": 0.1}, ["epochs=3", "sweep.tau=0.1,1.0"])
    assert cfg["epochs"] == 3
    assert cfg["sweep.tau"] == "0.1,1.0"
    with pytest.raises(harness.ConfigError):
        harness.apply_overrides({}, ["nonsense"])
    with pytest.raises(harness.ConfigError):
        harness.apply_overrides({}, ["sweep.bogus=1"])
    full = harness.resolved({"lr": 0.2})
    assert full["lr"] == 0.2
    assert full["method"] == "erm"
    with pytest.raises(harness.ConfigError):
        harness.resolved({"bogus": 1})


def test_build_datasets_two_domain_splits():
    cfg = harness.resolved({"data.total_points": 500, "data.test_n": 300})
    train, valid, test = harness.build_datasets(cfg, seed=0)
    assert len(train) == 500
    assert len(valid) == 100
    assert len(test) == 300
    # the test split is group-balanced regardless of the training ratio
    assert (test.rows.groups == 1).sum() == 150


def test_build_datasets_distractor_test_is_unbiased():
    cfg = harness.resolved({"dataset": "distractor", "data.n": 400, "data.test_n": 400})
    _, _, test = harness.build_datasets(cfg, seed=0)
    frac = np.mean(test.rows.groups[test.rows.labels == 0] % 2)
    assert 0.4 < frac < 0.6


def test_build_datasets_csv_path(tmp_path):
    cfg = harness.resolved({"data.total_points": 100})
    out = tmp_path / "data"
    harness.cmd_gen_data(cfg, 0, str(out))
    loaded_cfg = harness.resolved({"dataset": str(out / "train.csv")})
    train, valid, test = harness.build_datasets(loaded_cfg, seed=0)
    assert len(train) == 80 and len(valid) == 10 and len(test) == 10
    assert (out / "manifest.json").exists()


def test_build_model_spec_infers_architecture():
    cfg = harness.resolved({})
    train, _, _ = harness.build_datasets(cfg, seed=0)
    assert harness.build_model_spec(cfg, train).architecture == "linear"
    cfg_tokens = harness.resolved({"dataset": "distractor", "data.n": 100})
    tokens, _, _ = harness.build_datasets(cfg_tokens, seed=0)
    assert harness.build_model_spec(cfg_tokens, tokens).architecture == "embed_bag"
    cfg_mlp = harness.resolved({"model.arch": "mlp", "model.hidden": 4})
    assert harness.build_model_spec(cfg_mlp, train).hidden_units == 4


TINY = {
    "data.total_points": 300,
    "data.test_n": 200,
    "data.minority_ratio": 0.5,
    "epochs": 2,
    "batch_size": 32,
}


@pytest.mark.parametrize("scale", [1e-150, 1e154])
def test_pdro_trains_near_both_ends_of_the_sigma_scale_range(scale):
    # 2 sigma^2 is about 1.5e-300 and 1.5e308 here: normal and finite
    result = harness.train_run({**TINY, "method": "pdro", "adv_sigma_scale": scale}, seed=0)
    assert len(result.checkpoints) == 2
    assert 0.0 <= result.test_metrics.average_accuracy <= 1.0


# settings whose first steps go non-finite at a finite lr; no finite lr makes erm diverge
DIVERGES = {"method": "group_dro", "lr": 1e200}


def test_train_run_erm_smoke():
    result = harness.train_run({**TINY, "method": "erm"}, seed=0)
    assert len(result.checkpoints) == 2
    assert 0 <= result.chosen_index < 2
    assert len(result.records) == 1  # identity only: erm has no adversary
    assert result.test_metrics.average_accuracy > 0.8
    assert len(result.log_rows) == 2


def test_train_run_checkpoint_cadence():
    # 300 points / 32 per batch = 10 steps per epoch, 20 total: a checkpoint after
    # each multiple of checkpoint_every (of 10 when 0), and after step 20 in any case
    for every, steps in ((0, [10, 20]), (3, [3, 6, 9, 12, 15, 18, 20]), (4, [4, 8, 12, 16, 20]),
                         (25, [20])):
        result = harness.train_run({**TINY, "checkpoint_every": every}, seed=0)
        assert [row["step"] for row in result.log_rows] == steps, every
        assert len(result.checkpoints) == len(steps)


def test_train_run_is_deterministic():
    a = harness.train_run({**TINY, "method": "pdro"}, seed=3)
    b = harness.train_run({**TINY, "method": "pdro"}, seed=3)
    assert np.array_equal(a.model.params, b.model.params)
    assert a.chosen_index == b.chosen_index


def test_train_run_records_adversaries():
    result = harness.train_run({**TINY, "method": "rpdro", "adv_lr": 1.0}, seed=1)
    assert len(result.records) == 3  # identity + one per epoch checkpoint
    assert result.records[0].kl_estimate == 0.0


def _forward_spy(monkeypatch):
    """The batch of every diffcore._forward_batch call, in call order."""
    batches_seen, forward = [], diffcore._forward_batch

    def spy(model, batch):
        batches_seen.append(batch)
        return forward(model, batch)

    monkeypatch.setattr(diffcore, "_forward_batch", spy)
    return batches_seen


@pytest.mark.parametrize("mode", ["minmax", "greedy", "last"])
def test_train_run_forwards_validation_once_per_checkpoint(monkeypatch, mode):
    cfg = {**TINY, "method": "pdro", "selection": mode, "checkpoint_every": 3}
    datasets = harness.build_datasets(harness.resolved(cfg), 0)
    valid, test = datasets[1].rows, datasets[2].rows
    seen = _forward_spy(monkeypatch)
    result = harness.train_run(cfg, 0, datasets=datasets)
    assert len(result.checkpoints) == len(result.valid_losses) == 7
    assert sum(batch is valid for batch in seen) == len(result.checkpoints)
    assert sum(batch is test for batch in seen) == 1
    # the chosen checkpoint's cached metrics are those a fresh forward gives
    want = group_metrics(result.model, datasets[1])
    got = result.valid_metrics
    assert got.robust_accuracy == want.robust_accuracy
    assert got.average_accuracy == want.average_accuracy
    assert np.array_equal(got.per_group_accuracy, want.per_group_accuracy, equal_nan=True)


@pytest.mark.parametrize("method, kernel", [("pdro", diffcore.nll_loss_batch),
                                             ("rpdro", diffcore.zero_one_loss_batch)])
def test_valid_losses_are_the_selection_loss_kernels_rows(method, kernel):
    # selection.loss=auto scores rpdro by zero_one and every other method by nll
    cfg = {**TINY, "method": method, "checkpoint_every": 5}
    datasets = harness.build_datasets(harness.resolved(cfg), 0)
    result = harness.train_run(cfg, 0, datasets=datasets)
    assert len(result.valid_losses) == len(result.checkpoints) == 4
    for ckpt, row in zip(result.checkpoints, result.valid_losses):
        assert np.array_equal(row, kernel(ckpt, datasets[1].rows))


def test_cmd_sweep_makes_no_validation_forward_for_the_pooled_choice(tmp_path, monkeypatch):
    built, build = [], harness.build_datasets

    def kept_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(harness, "build_datasets", kept_build)
    seen = _forward_spy(monkeypatch)
    harness.cmd_sweep({**TINY, "method": "pdro", "sweep.tau": "0.1,0.5"}, 0, str(tmp_path / "s"))
    (shared,) = built
    # two points of two checkpoints each; a test forward per point and one for the choice
    assert sum(batch is shared[1].rows for batch in seen) == 4
    assert sum(batch is shared[2].rows for batch in seen) == 3


def test_train_run_rejects_unknown_method():
    with pytest.raises(harness.ConfigError):
        harness.train_run({**TINY, "method": "sgd"}, seed=0)


@pytest.mark.parametrize("mode", ["minmax", "greedy"])
def test_train_run_rejects_a_threshold_no_record_passes_before_any_step(monkeypatch, mode):
    # a negative threshold would filter out even the identity record, so that
    # selection could only fail once every step had run
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(dro, "simultaneous_step", no_step)
    cfg = {**TINY, "method": "pdro", "selection": mode, "selection.kl_threshold": -1.0}
    with pytest.raises(harness.ConfigError, match="selection.kl_threshold must be >= 0, got -1.0"):
        harness.train_run(cfg, seed=0)


def test_greedy_selection_scores_each_checkpoint_with_its_own_adversary(monkeypatch):
    # the second checkpoint's adversary gives no record, as a pdro adversary
    # whose validation weights all vanish does
    real_weights, real_update = dro.adversary_valid_weights, selection.greedy_minmax_update
    weight_calls, pairs = [], []

    def weights(*args):
        weight_calls.append(args)
        return None if len(weight_calls) == 2 else real_weights(*args)

    def update(state, model, model_id, record, *args):
        pairs.append((model_id, record))
        return real_update(state, model, model_id, record, *args)

    monkeypatch.setattr(dro, "adversary_valid_weights", weights)
    monkeypatch.setattr(selection, "greedy_minmax_update", update)
    result = harness.train_run({**TINY, "data.total_points": 1000, "epochs": 4, "method": "pdro",
                                "selection": "greedy"}, seed=0)
    records = result.records
    assert len(records) == 4
    assert [model_id for model_id, _ in pairs] == [0, 1, 2, 3]
    assert all(got is want for (_, got), want in zip(pairs, [records[1], None, records[2], records[3]]))


def test_greedy_selection_copies_no_checkpoint():
    result = harness.train_run({**TINY, "data.total_points": 1000, "epochs": 4, "lr": 1.0,
                                "method": "pdro", "checkpoint_every": 5, "selection": "greedy"},
                               seed=1)
    assert result.model is result.checkpoints[result.chosen_index]
    # the greedy rule by hand: checkpoint i has record i + 1, and replaces the
    # incumbent only if it scores strictly lower over the records seen so far
    rows, records = result.valid_losses, result.records
    assert len(records) == len(rows) + 1
    best = 0
    for i, row in enumerate(rows):
        kept = selection.surviving_records(records[:i + 2], selection.KL_THRESHOLD_DEFAULT)
        if selection.robust_valid_loss(row, kept) < selection.robust_valid_loss(rows[best], kept):
            best = i
    assert 0 < best < len(rows) - 1  # neither the first nor the last
    assert result.chosen_index == best


def test_default_keys_build_the_dataclass_defaults():
    defaults = harness.resolved({})
    assert harness.dro_config(defaults) == dro.DroConfig()
    assert harness.continual_config(defaults, seed=0) == cl.ContinualConfig()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_train_run_raises_on_divergence():
    # a huge step drives the group weights non-finite immediately
    with pytest.raises(harness.DivergenceError):
        harness.train_run({**TINY, **DIVERGES}, seed=0)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_non_finite_parameters_are_labelled_by_step(tmp_path, capsys):
    (tmp_path / "cfg").write_text("method = rpdro\nlr = 1e308\ndata.total_points = 1000\nepochs = 1\n")
    assert cli.main(["train", "--config", str(tmp_path / "cfg"), "--out", str(tmp_path / "o")]) == 1
    # the step depends on the SIMD kernel, so it is not pinned
    assert re.fullmatch(r"shiftlab: error: non-finite parameters at step \d+", capsys.readouterr().err.strip())


def test_train_run_raises_on_non_finite_adversary_weights(monkeypatch):
    # NaN weights would make a record of KL 0 that every threshold keeps
    monkeypatch.setattr(dro, "adversary_valid_weights", lambda method, adv, valid: np.full(len(valid), np.nan))
    # TINY's 300 rows make 10 batches of 32: the first checkpoint is at step 10
    with pytest.raises(harness.DivergenceError, match="^non-finite adversary weights at step 10$"):
        harness.train_run({**TINY, "method": "pdro"}, seed=0)


def test_train_run_raises_on_non_finite_validation_loss(monkeypatch):
    losses = harness.logit_losses

    def inf_nll(logits, labels):
        return {**losses(logits, labels), "nll": np.full(len(labels), np.inf)}

    monkeypatch.setattr(harness, "logit_losses", inf_nll)
    with pytest.raises(harness.DivergenceError, match="^non-finite validation loss at step 10$"):
        harness.train_run(TINY, seed=0)


def test_model_bin_round_trip(tmp_path):
    model = init_params(ModelSpec("mlp", input_dim=3, hidden_units=4), seed=9)
    path = str(tmp_path / "model.bin")
    harness.save_model_bin(model, path)
    loaded = harness.load_model_bin(path)
    assert loaded.spec == model.spec
    assert np.array_equal(loaded.params, model.params)
    assert loaded.layout == model.layout


SPECS = st.one_of(
    st.builds(lambda d, c: ModelSpec("linear", input_dim=d, num_classes=c),
              st.integers(1, 6), st.integers(2, 5)),
    st.builds(lambda d, h, c: ModelSpec("mlp", input_dim=d, hidden_units=h, num_classes=c),
              st.integers(1, 6), st.integers(1, 6), st.integers(2, 5)),
    st.builds(lambda v, e, c: ModelSpec("embed_bag", vocab_size=v, embed_dim=e, num_classes=c),
              st.integers(2, 40), st.integers(1, 8), st.integers(2, 5)),
)
HEADER_KEYS = ["architecture", "input_dim", "num_classes", "hidden_units", "vocab_size",
               "embed_dim", "layout", "dtype", "param_count"]


def read_header(path):
    with open(path, "rb") as fh:
        (length,) = struct.unpack("<I", fh.read(4))
        return json.loads(fh.read(length).decode("utf-8")), fh.read()


def encode(header, body):
    blob = json.dumps(header).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob + body


def write_header(path, header, body):
    with open(path, "wb") as fh:
        fh.write(encode(header, body))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=SPECS, seed=st.integers(0, 2**31), specials=st.lists(st.floats(), max_size=3))
def test_model_bin_round_trip_is_bit_exact(tmp_path, spec, seed, specials):
    model = init_params(spec, seed)
    model.params[:len(specials)] = specials  # nan, inf and -0.0 included
    path = str(tmp_path / "model.bin")
    harness.save_model_bin(model, path)
    with open(path, "rb") as fh:
        saved = fh.read()
    header, _ = read_header(path)
    assert list(header) == HEADER_KEYS
    loaded = harness.load_model_bin(path)
    assert loaded.spec == spec
    assert loaded.layout == model.layout
    assert loaded.params.tobytes() == model.params.tobytes()
    harness.save_model_bin(loaded, path)
    with open(path, "rb") as fh:
        assert fh.read() == saved


# each corruption maps a saved file's (header, body) to the corrupted file's bytes


def swap_linear_slots(header, body):
    layout = header["layout"]
    layout["linear.weight"], layout["linear.bias"] = layout["linear.bias"], layout["linear.weight"]
    return encode(header, body)


def claim_wrong_count(header, body):
    return encode({**header, "param_count": header["param_count"] + 1}, body)


def append_a_param(header, body):
    # the count agrees with the data but not with the spec
    return encode({**header, "param_count": header["param_count"] + 1}, body + bytes(8))


def cut_inside_the_length_prefix(header, body):
    return encode(header, body)[:3]


def cut_inside_the_header(header, body):
    return encode(header, body)[:20]


def garble_the_header(header, body):
    data = bytearray(encode(header, body))
    data[4] = ord("[")  # the header's opening brace
    return bytes(data)


def nest_the_header_too_deep(header, body):
    blob = b"[" * 100_000
    return struct.pack("<I", len(blob)) + blob + body


def drop_the_layout(header, body):
    return encode({k: v for k, v in header.items() if k != "layout"}, body)


def drop_a_spec_field(header, body):
    return encode({k: v for k, v in header.items() if k != "num_classes"}, body)


def cut_inside_a_param(header, body):
    return encode(header, body[:-3])


# what load_model_bin says of each corrupted file, after its path
CORRUPTIONS = {
    swap_linear_slots: "header layout does not match its spec",
    claim_wrong_count: "parameter count mismatch",
    append_a_param: "parameter count mismatch",
    cut_inside_the_length_prefix: "file ends inside its header",
    cut_inside_the_header: "file ends inside its header",
    garble_the_header: "header is not a JSON object",
    nest_the_header_too_deep: "header is not a JSON object",
    drop_the_layout: "header lacks layout",
    drop_a_spec_field: "header lacks num_classes",
    cut_inside_a_param: "body of 61 bytes is not whole float64 values",
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_load_model_bin_rejects_a_header_its_spec_disagrees_with(tmp_path, corrupt):
    path = str(tmp_path / "model.bin")
    harness.save_model_bin(init_params(ModelSpec("linear", input_dim=3), seed=1), path)
    data = corrupt(*read_header(path))
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: {CORRUPTIONS[corrupt]}$"):
        harness.load_model_bin(path)


def test_load_model_bin_rejects_another_dtype(tmp_path):
    path = str(tmp_path / "model.bin")
    harness.save_model_bin(init_params(ModelSpec("linear", input_dim=3), seed=1), path)
    header, body = read_header(path)
    write_header(path, {**header, "dtype": "<f4"}, body)
    with pytest.raises(ValueError, match="dtype '<f4'"):
        harness.load_model_bin(path)


def test_sweep_grid_expansion():
    grid = harness.sweep_grid({"sweep.tau": "0.1,1.0", "sweep.lr": "0.05,0.1,0.2"})
    assert len(grid) == 6
    assert {(p["tau"], p["lr"]) for p in grid} == {
        (t, l) for t in (0.1, 1.0) for l in (0.05, 0.1, 0.2)
    }
    assert harness.sweep_grid(harness.resolved({}))[0]["tau"] == harness.DEFAULTS["tau"]


@settings(max_examples=50, deadline=None)
@given(axes=st.dictionaries(
    st.sampled_from(["lr", "tau", "kappa", "epochs", "batch_size", "k_window"]),
    st.lists(st.integers(1, 1000), min_size=1, max_size=4, unique=True), max_size=4))
def test_sweep_grid_is_the_product_of_its_axes(axes):
    cfg = {f"sweep.{key}": ",".join(map(str, values)) for key, values in axes.items()}
    grid = harness.sweep_grid(cfg)
    assert len(grid) == math.prod(len(values) for values in axes.values())
    keys = list(axes)
    assert sorted(tuple(p[k] for k in keys) for p in grid) == sorted(product(*axes.values()))


UNSWEPT_REASONS = {
    "dataset": "first point's datasets",
    "data.sigma": "first point's datasets",
    "cl.lr": "reads no cl",
    "attack.k": "reads no attack",
    "selection.loss": "pooled selection",
    "selection.kl_threshold": "pooled selection",
}


@pytest.mark.parametrize("axis", list(UNSWEPT_REASONS))
def test_sweep_rejects_axes_it_cannot_vary(tmp_path, axis):
    message = f"cannot sweep '{axis}': .*{UNSWEPT_REASONS[axis]}"
    with pytest.raises(harness.ConfigError, match=message):
        harness.apply_overrides({}, [f"sweep.{axis}=1,2"])
    with pytest.raises(harness.ConfigError, match=message):
        harness.cmd_sweep({**TINY, f"sweep.{axis}": "1,2"}, 0, str(tmp_path / "s"))
    assert not (tmp_path / "s").exists()


def test_sweep_rejects_methods_whose_auto_selection_loss_differs(tmp_path):
    cfg = {**TINY, "sweep.method": "pdro,rpdro"}
    with pytest.raises(harness.ConfigError, match="selection.loss=auto"):
        harness.cmd_sweep(cfg, 0, str(tmp_path / "s"))
    assert not (tmp_path / "s").exists()


def test_sweep_selects_with_the_configured_kl_threshold(tmp_path, monkeypatch):
    # every selection of the sweep, each run's and the pooled one, reads the
    # configured threshold
    real_select, thresholds = selection.hyperparam_select, []

    def select(runs, kl_threshold):
        thresholds.append(kl_threshold)
        return real_select(runs, kl_threshold)

    monkeypatch.setattr(selection, "hyperparam_select", select)
    point = {**TINY, "method": "pdro", "selection.kl_threshold": 0.0}
    report = harness.cmd_sweep({**point, "sweep.lr": "0.05,0.1"}, 0, str(tmp_path / "s"))
    assert thresholds and set(thresholds) == {0.0}
    shared = harness.build_datasets(harness.resolved(TINY), 0)
    runs = [harness.train_run({**point, "lr": lr}, 0, datasets=shared)
            for lr in (0.05, 0.1)]
    run, ckpt = real_select([(r.valid_losses, r.records) for r in runs], 0.0)
    [chosen] = [r for r in report if r["selected"]]
    assert (chosen["point"], chosen["chosen_checkpoint"]) == (run, ckpt)


def test_cmd_train_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    result = harness.cmd_train({**TINY, "method": "erm"}, 0, str(out))
    for name in ("run.jsonl", "metrics.csv", "model.bin", "plotdata_training.csv"):
        assert (out / name).exists()
    lines = (out / "run.jsonl").read_text().strip().splitlines()
    final = json.loads(lines[-1])
    assert final["final"] is True
    assert final["test_robust_acc"] == result.test_metrics.robust_accuracy
    # the training plot's first column is each checkpoint's step count
    plot = (out / "plotdata_training.csv").read_text().splitlines()
    assert plot[0] == "step,valid_loss,robust_acc,average_acc"
    assert [row.split(",")[0] for row in plot[1:]] == [
        str(json.loads(line)["step"]) for line in lines[:-1]]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_cmd_train_records_divergence(tmp_path):
    out = tmp_path / "diverged"
    with pytest.raises(harness.DivergenceError):
        harness.cmd_train({**TINY, **DIVERGES}, 0, str(out))
    row = json.loads((out / "run.jsonl").read_text().splitlines()[0])
    assert row["aborted"] is True


def test_cmd_continual_writes_artifacts(tmp_path):
    out = tmp_path / "cl"
    cfg = {"cl.tasks": 2, "cl.points": 60, "cl.epochs": 1, "cl.hidden": 4,
           "cl.fisher_samples": 50, "cl.method": "conatural"}
    metrics = harness.cmd_continual(cfg, 0, str(out))
    assert metrics.accuracy_matrix.shape == (2, 2)
    assert (out / "plotdata_accuracy.csv").exists()
    assert (out / "metrics.csv").exists()


def test_cmd_attack_with_prebuilt_model(tmp_path):
    out = tmp_path / "attack"
    model = init_params(ModelSpec("embed_bag", vocab_size=32, embed_dim=8), seed=0)
    cfg = {"dataset": "distractor", "attack.n": 5, "data.test_n": 50, "attack.constraint": "knn"}
    report = harness.cmd_attack(cfg, 0, str(out), model=model)
    assert len(report) == 5
    assert all(0.0 <= row["s_src"] <= 1.0 for row in report)
    assert all(row["success"] >= 0.0 for row in report)
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("bad", [
    {"attack.n": 5000, "data.test_n": 50},
    {"attack.n": 0},
    {"attack.steps": 0},
])
def test_cmd_attack_rejects_attack_sizes_it_cannot_honour(tmp_path, bad):
    model = init_params(ModelSpec("embed_bag", vocab_size=32, embed_dim=8), seed=0)
    with pytest.raises(harness.ConfigError):
        harness.cmd_attack({"dataset": "distractor", **bad}, 0, str(tmp_path / "a"), model=model)
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("vocab, csv", [(16, False), (32, True)], ids=["too-few-ids", "too-few-classes"])
def test_cmd_attack_rejects_a_model_that_cannot_read_the_test_split(tmp_path, vocab, csv):
    # the generated text holds 32 token ids; the CSV also holds a third label
    cfg = {"dataset": "distractor", "attack.n": 5, "data.test_n": 50}
    if csv:
        text = "id,tokens,label,group\n" + "".join(f"{i},{i % 30} 4 7,{i % 3},0\n" for i in range(60))
        (tmp_path / "three.csv").write_text(text)
        cfg = {"dataset": str(tmp_path / "three.csv"), "attack.n": 5}
    model = init_params(ModelSpec("embed_bag", vocab_size=vocab, embed_dim=8), seed=0)
    want = (f"the model reads {vocab} token ids and 2 classes, "
            f"but the test split holds {30 if csv else 32} token ids and {3 if csv else 2} classes")
    with pytest.raises(harness.ConfigError, match=f"^{want}$"):
        harness.cmd_attack(cfg, 0, str(tmp_path / "a"), model=model)
    assert not (tmp_path / "a").exists()


def test_cmd_attack_rejects_dense_models(tmp_path):
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    with pytest.raises(harness.ConfigError, match="model.arch must be embed_bag on token-id rows to attack, "
                                                  "got linear on dense rows"):
        harness.cmd_attack({}, 0, str(tmp_path / "x"), model=model)
    assert not (tmp_path / "x").exists()


def test_cmd_sweep_selects_a_point(tmp_path):
    out = tmp_path / "sweep"
    cfg = {**TINY, "method": "nonparam", "sweep.kappa": "0.01,1.0"}
    report = harness.cmd_sweep(cfg, 0, str(out))
    points = [row for row in report if "point" in row]
    assert len(points) == 2
    assert sum(row["selected"] for row in points) == 1
    assert (out / "metrics.csv").exists()


def _metrics_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_a_diverged_sweep_point_does_not_move_the_selected_flag(tmp_path):
    # point 0 diverges, so the pooled choice's run index counts points 1 and 2 only
    cfg = {"data.total_points": 600, "epochs": 2, "method": DIVERGES["method"]}
    report = harness.cmd_sweep({**cfg, "sweep.lr": f"{DIVERGES['lr']},0.1,0.05"}, 0, str(tmp_path / "s"))
    shared = harness.build_datasets(harness.resolved(cfg), 0)
    runs = [harness.train_run({**cfg, "lr": lr}, 0, datasets=shared) for lr in (0.1, 0.05)]
    run, ckpt = selection.hyperparam_select([(r.valid_losses, r.records) for r in runs],
                                            selection.KL_THRESHOLD_DEFAULT)
    assert [(r["point"], r["chosen_checkpoint"]) for r in report if r["selected"]] == [(run + 1, ckpt)]
    rows = _metrics_csv_rows(tmp_path / "s" / "metrics.csv")
    assert [row["point"] for row in rows if row["selected"] == "True"] == [str(run + 1)]
    assert [row["point"] for row in rows] == [str(r["point"]) for r in report]


def test_the_selected_sweep_row_reports_the_chosen_checkpoints_test_accuracy(tmp_path, monkeypatch):
    cfg = {"data.total_points": 2000, "epochs": 6, "method": "pdro", "data.sigma": 0.8,
           "adv_sigma_scale": 0.4}
    results, train_run = [], harness.train_run

    def kept_run(*args, **kwargs):
        results.append(train_run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "train_run", kept_run)
    report = harness.cmd_sweep({**cfg, "sweep.adv_lr": "0.05,0.5,2.0"}, 0, str(tmp_path / "s"))
    (row,) = [r for r in report if r["selected"]]
    chosen = results[row["point"]]
    # the pooled choice is not the checkpoint this point's own run chose
    assert row["chosen_checkpoint"] != chosen.chosen_index
    test = harness.build_datasets(harness.resolved(cfg), 0)[2]
    want = group_metrics(chosen.checkpoints[row["chosen_checkpoint"]], test)
    assert (row["robust_acc"], row["average_acc"]) == (want.robust_accuracy, want.average_accuracy)
    (csv_row,) = [r for r in _metrics_csv_rows(tmp_path / "s" / "metrics.csv") if r["selected"] == "True"]
    assert float(csv_row["test_robust_acc"]) == want.robust_accuracy
    assert [r["robust_acc"] for r in report] == sorted((r["robust_acc"] for r in report), reverse=True)


def test_every_harness_output_is_moved_into_place_from_a_temporary_file(tmp_path, monkeypatch):
    moved, replace = [], os.replace

    def recorded_replace(src, dst):
        moved.append((src, dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recorded_replace)
    harness.cmd_gen_data(TINY, 0, str(tmp_path / "gen"))
    harness.cmd_train(TINY, 0, str(tmp_path / "train"))
    written = {str(p) for p in tmp_path.rglob("*") if p.is_file()}
    datasets = {str(tmp_path / "gen" / f"{split}.csv") for split in ("train", "valid", "test")}
    assert [src for src, dst in moved] == [dst + ".tmp" for src, dst in moved]
    assert sorted(dst for _, dst in moved) == sorted(written - datasets)


def test_cmd_report_ranks_runs(tmp_path):
    runs = []
    for seed in (0, 1):
        run_dir = tmp_path / f"run{seed}"
        harness.cmd_train({**TINY, "method": "erm"}, seed, str(run_dir))
        runs.append(str(run_dir))
    summary = harness.cmd_report(runs + [str(tmp_path / "missing")], str(tmp_path / "rep"))
    assert len(summary) == 2
    values = [row["robust_accuracy"] for row in summary]
    assert values == sorted(values, reverse=True)
    assert (tmp_path / "rep" / "report.csv").exists()


@pytest.mark.parametrize("kind", ["sweep", "continual"])
def test_report_over_a_run_without_test_rows_fails_before_writing(tmp_path, capsys, kind):
    train_dir, other = tmp_path / "train", tmp_path / kind
    harness.cmd_train({**TINY, "method": "erm"}, 0, str(train_dir))
    if kind == "sweep":
        harness.cmd_sweep({**TINY, "sweep.lr": "0.1,0.05"}, 0, str(other))
    else:
        harness.cmd_continual(SMALL_CL, 0, str(other))
    rep = tmp_path / "rep"
    argv = ["report", "--runs", str(train_dir), str(other), str(tmp_path / "missing"), "--out", str(rep)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"shiftlab: error: {other / 'metrics.csv'} has no test,<metric>,<value> row: "
                   "report reads train runs only"]
    assert not rep.exists()


def test_cli_train_and_report(tmp_path):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(
        "method = erm\ndata.total_points = 300\ndata.test_n = 200\n"
        "data.minority_ratio = 0.5\nepochs = 2\nbatch_size = 32\n"
    )
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    assert (run_dir / "model.bin").exists()
    rep_dir = tmp_path / "rep"
    assert cli.main(["report", "--runs", str(run_dir), "--out", str(rep_dir)]) == 0
    assert (rep_dir / "report.csv").exists()


def test_cli_attack_of_a_saved_model_equals_the_attack_that_trains_it(tmp_path, monkeypatch):
    # train and attack share the config and seed, so both attack one model
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in {**SMALL_TEXT, "attack.n": 20}.items()))
    argv = ["--config", str(cfg_path), "--seed", "3", "--out"]
    assert cli.main(["train", *argv, str(tmp_path / "train")]) == 0
    assert cli.main(["attack", *argv, str(tmp_path / "own")]) == 0
    model = str(tmp_path / "train" / "model.bin")

    def no_training(*args, **kwargs):
        raise AssertionError("attack --model trained a model")

    monkeypatch.setattr(harness, "train_run", no_training)
    assert cli.main(["attack", "--model", model, *argv, str(tmp_path / "loaded")]) == 0
    for name in ("metrics.csv", "run.jsonl"):
        own, loaded = (tmp_path / side / name for side in ("own", "loaded"))
        assert loaded.read_bytes() == own.read_bytes()


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("bogus = 1\n")
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_gen_data(tmp_path):
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("data.total_points = 100\n")
    out = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--set",
                     "data.test_n=50", "--out", str(out)]) == 0
    assert (out / "train.csv").exists()
    assert (out / "test.csv").exists()


@pytest.mark.parametrize("dataset", ["distractor", "two_domain"])
def test_generated_test_split_equals_build_datasets(dataset):
    cfg = harness.resolved({"dataset": dataset, "data.n": 120, "data.total_points": 300,
                            "data.test_n": 80, "data.p_noise": 0.2})
    want = harness.build_datasets(cfg, 7)[2]
    # the generator's own draw at seed + 2, balanced or unbiased, and left clean by the label noise
    if dataset == "two_domain":
        got = gen_two_domain_gaussian(TwoDomainSpec(80, 0.5, cfg["data.sigma"], seed=9))
    else:
        got = gen_distractor_text(DistractorTextSpec(80, cfg["data.vocab_size"], cfg["data.seq_len"],
                                                     0.5, seed=9))
    assert got.num_groups == want.num_groups
    assert len(got) == len(want) == 80
    assert np.array_equal(got.ids, want.ids)
    for name in ("labels", "groups", "x", "tokens", "offsets"):
        a, b = getattr(got.rows, name), getattr(want.rows, name)
        assert (a is None) == (b is None)
        assert a is None or (np.array_equal(a, b) and a.dtype == b.dtype)


def test_cmd_attack_attacks_the_build_datasets_test_split(tmp_path):
    model = init_params(ModelSpec("embed_bag", vocab_size=32, embed_dim=8), seed=1)
    cfg = {"dataset": "distractor", "attack.n": 6, "data.test_n": 40, "data.n": 50}
    report = harness.cmd_attack(cfg, 3, str(tmp_path / "a"), model=model)
    test = harness.build_datasets(harness.resolved(cfg), 3)[2]
    assert [row["id"] for row in report] == test.ids[:6].tolist()
    probs = softmax(forward_logits_batch(model, test.rows.rows(0, 6)))
    assert [row["s_base"] for row in report] == pytest.approx(
        [float(p[label]) for p, label in zip(probs, test.rows.labels[:6])], rel=1e-12)


def test_cmd_attack_scores_chrf_on_the_detokenized_rows(tmp_path):
    model = init_params(ModelSpec("embed_bag", vocab_size=32, embed_dim=8), seed=2)
    cfg = {"dataset": "distractor", "attack.n": 7, "data.test_n": 40, "attack.constraint": "knn"}
    report = harness.cmd_attack(cfg, 5, str(tmp_path / "a"), model=model)
    test = harness.build_datasets(harness.resolved(cfg), 5)[2]
    rows = test.rows.take(np.arange(7))
    adv = advmetrics.attack_rows(model, rows, model.slot("embedding.weight"), "knn", False, 10, 1)

    def text(r):
        return [" ".join(f"tok{t}" for t in ids) for ids in np.split(r.tokens, r.offsets[1:-1])]

    want = advmetrics.chrf_batch(text(rows), text(adv)) / 100.0
    assert [row["s_src"] for row in report] == want.tolist()


def reference_write_jsonl(rows, path):
    """harness._write_jsonl as the attack report used it, verbatim."""
    harness._write_atomic(path, "".join(json.dumps(row) + "\n" for row in rows))


def reference_write_csv(header, rows, path):
    """harness._write_csv as the attack report used it, verbatim."""
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    harness._write_atomic(path, text.getvalue())


def test_attack_report_writes_the_bytes_of_the_csv_and_json_writers(tmp_path):
    # the corners of repr: exact integers, exponent form, a rounded sum, the
    # least subnormal, the float below 1, a signed zero and an id past int64
    corners = [0.0, 1.0, 1e-05, 0.1 + 0.2, 5e-324, 1 - 2.0 ** -53, -0.0, 1e16, 123.456]
    n = len(corners)
    columns = [[0, 7, 2 ** 64 + 1, -3, *range(10, 10 + n - 4)]]
    columns += [corners[i:] + corners[:i] for i in range(5)]
    report = harness._write_attack_report(str(tmp_path / "new"), columns)
    # the former route: one dict per row, then the csv and json modules
    header = ["id", "s_src", "s_base", "s_adv", "d_tgt", "success"]
    want = [dict(zip(header, values)) for values in zip(*columns)]
    assert report == want
    os.makedirs(tmp_path / "old")
    reference_write_csv(header, [[r[k] for k in header] for r in want], str(tmp_path / "old" / "metrics.csv"))
    means = {k: float(np.mean([r[k] for r in want])) for k in header[1:]}
    reference_write_jsonl(want + [{"final": True, **means}], str(tmp_path / "old" / "run.jsonl"))
    for name in ("metrics.csv", "run.jsonl"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def test_attack_trains_on_the_configured_dataset(tmp_path, monkeypatch):
    steps, step = [], dro.simultaneous_step

    def counted_step(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(dro, "simultaneous_step", counted_step)
    # a token CSV trains its own model and is attacked on its own test split; the
    # default dense data fails before any step (the table's attack-two_domain row)
    harness.cmd_gen_data({**SMALL_TEXT, "data.n": 200}, 0, str(tmp_path / "gen"))
    cfg = {"dataset": str(tmp_path / "gen" / "train.csv"), "epochs": 1, "attack.n": 20}
    report = harness.cmd_attack(cfg, 0, str(tmp_path / "b"))
    test = harness.build_datasets(harness.resolved(cfg), 0)[2]
    assert steps and [row["id"] for row in report] == test.ids[:20].tolist()


SMALL_TEXT = {"dataset": "distractor", "data.n": 100, "data.test_n": 50, "epochs": 1}
SMALL_CL = {"cl.tasks": 2, "cl.points": 40, "cl.fisher_samples": 20}
# the command that reads each key family, on settings that would otherwise start work
READERS = {"data": ("gen-data", {}), "cl": ("continual", SMALL_CL), "attack": ("attack", SMALL_TEXT)}
# (command, settings, key, floor) of every number DEFAULTS holds: an integer is a
# count >= 1 (checkpoint_every >= 0) and any other number is >= 0
BELOW_FLOOR = [
    (*READERS.get(key.split(".")[0], ("train", {})), key,
     int(isinstance(default, int) and key != "checkpoint_every"))
    for key, default in harness.DEFAULTS.items()
    if isinstance(default, (int, float)) and not isinstance(default, bool)
]
# the files the table's rows read, by name
FILES = {
    "corrupt.bin": "\x00",  # a model file that ends inside its 4-byte length prefix
    "no_label.csv": "id,f0,f1\n0,1.0,2.0\n",
    **{f"tiny{n}.csv": "id,label,group,f0,f1\n" + "".join(f"{i},{i % 2},0,1.0,2.0\n" for i in range(n))
       for n in (1, 5)},
    # features in [0, 9) would pass for token ids if the rows were cast to int
    "dense.csv": "id,f0,f1,label,group\n" + "".join(
        f"{i},{i % 9 + 0.5},{i * 4 % 9 + 0.25},{i % 2},0\n" for i in range(200)),
    "flat.csv": "id,f0,f1,label,group\n" + "".join(f"{i},1.0,1.0,{i % 2},0\n" for i in range(100)),
    # the row of id 150, on line 152, holds no token
    "gaps.csv": "id,tokens,label,group\n" + "".join(
        f"{i},{'' if i == 150 else i % 7 + 1},{i % 2},0\n" for i in range(200)),
    "fold.csv": "id,f0,f1,fold,label,group\n" + "".join(
        f"{i},{i % 3 + 0.5},1.0,{i % 5},{i % 2},0\n" for i in range(200)),
}
# saved models that read the distractor split but cannot be attacked, by file:
# (slot, flat index, value) of one non-finite entry, or no slot for every
# entry at a finite value whose logits overflow
BROKEN_MODELS = {
    "nan_embedding.bin": ("embedding.weight", 5, math.nan),
    "nan_bias.bin": ("out.bias", 0, math.nan),
    "inf_weight.bin": ("out.weight", 3, math.inf),
    "huge.bin": (None, None, 1e308),
}


def save_broken_model(name, path):
    model = init_params(ModelSpec("embed_bag", vocab_size=32, embed_dim=8), seed=0)
    slot, index, value = BROKEN_MODELS[name]
    if slot is None:
        model.params[:] = value
    else:
        model.slot(slot).flat[index] = value
    harness.save_model_bin(model, str(path))

# the game's own rules, which DroConfig states in its words
GAME = [
    ("pdro-tau0", {"method": "pdro", "tau": 0}, "tau", "pdro needs tau > 0, got 0"),
    ("pdro-tau-neg", {"method": "pdro", "tau": -0.1}, "tau", "pdro needs tau > 0, got -0.1"),
    ("rpdro-tau-neg", {"method": "rpdro", "tau": -0.1}, "tau", "rpdro needs tau >= 0, got -0.1"),
    ("pdro-sigma0", {"method": "pdro", "adv_sigma_scale": 0}, "adv_sigma_scale",
     "adv_sigma_scale must be positive, got 0"),
    ("pdro-sigma-neg", {"method": "pdro", "adv_sigma_scale": -0.5}, "adv_sigma_scale",
     "adv_sigma_scale must be positive, got -0.5"),
    # a scale whose 2 sigma^2 overflows, or underflows below the smallest normal float
    *[(f"pdro-sigma-{scale:g}", {"method": "pdro", "adv_sigma_scale": scale}, "adv_sigma_scale",
       rf"adv_sigma_scale={re.escape(repr(scale))} gives the adversary sigma \S+, "
       r"whose 2 sigma\^2 is not a normal finite float") for scale in (1e300, 1e-160, 1e-155)],
    ("pdro-steps0", {"method": "pdro", "adv_steps": 0}, "adv_steps", "adv_steps must be >= 1, got 0"),
    ("rpdro-steps0", {"method": "rpdro", "adv_steps": 0}, "adv_steps", "adv_steps must be >= 1, got 0"),
    ("erm-steps-neg", {"method": "erm", "adv_steps": -1}, "adv_steps", "adv_steps must be >= 1, got -1"),
]


def row(name, command, bad, key, message):
    """A table row: `command` (with any options it names) on the settings `bad`
    exits 1 with one error line that holds `key` (a config key, or the file of a
    file rule) and matches the regular expression `message`."""
    return pytest.param(command, bad, key, message, id=name)


@pytest.mark.parametrize("command, bad, key, message", [
    row("train-pdro-tokens", "train", {**SMALL_TEXT, "method": "pdro"}, "method=pdro",
        "method=pdro needs dense inputs"),
    row("train-linear-tokens", "train", {**SMALL_TEXT, "model.arch": "linear"}, "model.arch",
        "model.arch=linear cannot read this dataset's token-id rows$"),
    row("train-embed_bag-dense", "train", {"dataset": "dense.csv", "model.arch": "embed_bag"},
        "model.arch", "model.arch=embed_bag cannot read this dataset's dense rows$"),
    row("train-pdro-flat", "train", {"dataset": "flat.csv", "method": "pdro"}, "method=pdro",
        "method=pdro needs nonzero train input variance"),
    row("train-csv-no-label", "train", {"dataset": "no_label.csv"}, "no_label.csv",
        "no_label.csv: line 1: missing 'label' column"),
    row("train-csv-no-tokens", "train", {"dataset": "gaps.csv"}, "gaps.csv",
        "gaps.csv: line 152: a token row needs at least one token$"),
    row("train-csv-fold", "train", {"dataset": "fold.csv"}, "fold.csv",
        "fold.csv: line 1: unknown column 'fold'"),
    row("continual-batch0", "continual", {**SMALL_CL, "cl.batch_size": 0}, "cl.batch_size",
        "cl.batch_size must be >= 1, got 0"),
    row("continual-epochs0", "continual", {**SMALL_CL, "cl.epochs": 0}, "cl.epochs",
        "cl.epochs must be >= 1, got 0"),
    row("continual-fisher0", "continual", {**SMALL_CL, "cl.fisher_samples": 0}, "cl.fisher_samples",
        "cl.fisher_samples must be >= 1, got 0"),
    row("continual-fisher-neg", "continual", {**SMALL_CL, "cl.method": "conatural", "cl.fisher_samples": -2},
        "cl.fisher_samples", "cl.fisher_samples must be >= 1, got -2"),
    row("continual-gamma0", "continual", {**SMALL_CL, "cl.gamma": 0}, "cl.gamma",
        r"cl.gamma must lie in \(0, 1\], got 0"),
    row("attack-two_domain", "attack", {"epochs": 1, "data.total_points": 200}, "model.arch",
        "model.arch must be embed_bag on token-id rows to attack, got linear on dense rows$"),
    row("attack-n-over-test", "attack", {**SMALL_TEXT, "attack.n": 5000}, "attack.n",
        "attack.n must be <= the test split's 50 rows, got 5000$"),
    row("attack-knn-k40", "attack", {**SMALL_TEXT, "attack.n": 20, "attack.constraint": "knn", "attack.k": 40},
        "attack.k", "attack.k must be < the vocabulary size 32, got 40$"),
    row("attack-knn-k-neg", "attack", {**SMALL_TEXT, "attack.n": 20, "attack.constraint": "knn", "attack.k": -1},
        "attack.k", "attack.k must be >= 1, got -1"),
    row("attack-knn-k0", "attack", {**SMALL_TEXT, "attack.n": 20, "attack.constraint": "knn", "attack.k": 0},
        "attack.k", "attack.k must be >= 1, got 0"),
    row("gen-data-n0", "gen-data", {"dataset": "distractor", "data.n": 0}, "data.n", "data.n must be >= 1, got 0"),
    row("gen-data-sigma-inf", "gen-data", {"data.sigma": "inf"}, "data.sigma", "data.sigma must be finite, got inf$"),
    row("continual-sigma-inf", "continual", {**SMALL_CL, "cl.sigma": "inf"}, "cl.sigma",
        "cl.sigma must be finite, got inf$"),
    # inf is legal only where harness.INFINITE says what it means
    row("train-kappa-inf", "train", {"kappa": "inf"}, "kappa", "kappa must be finite, got inf$"),
    row("train-pdro-tau-inf", "train", {"method": "pdro", "tau": "inf"}, "tau", "tau must be finite, got inf$"),
    row("train-lr-inf", "train", {"lr": "inf"}, "lr", "lr must be finite, got inf$"),
    row("continual-ewc-alpha-inf", "continual", {**SMALL_CL, "cl.method": "ewc", "cl.alpha": "inf"}, "cl.alpha",
        "cl.alpha must be finite for cl.method=ewc, got inf$"),
    row("sweep-pdro-tokens", "sweep", {**SMALL_TEXT, "method": "pdro", "sweep.tau": "0.1,0.5"}, "method=pdro",
        "method=pdro needs dense inputs"),
    row("train-lr-text", "train", {"lr": "fast"}, "lr", "lr must be a number, got 'fast'"),
    row("train-lr-bool", "train", {"lr": "true"}, "lr", "lr must be a number, got True"),
    row("train-epochs-float", "train", {"epochs": 2.5}, "epochs", "epochs must be an integer, got 2.5"),
    row("train-points-text", "train", {"data.total_points": "x"}, "data.total_points",
        "data.total_points must be an integer, got 'x'"),
    row("attack-n-text", "attack", {"attack.n": "x"}, "attack.n", "attack.n must be an integer, got 'x'"),
    row("attack-sign-int", "attack", {"attack.sign_normalize": 1}, "attack.sign_normalize",
        "attack.sign_normalize must be true or false, got 1"),
    row("continual-lr-text", "continual", {"cl.lr": "x"}, "cl.lr", "cl.lr must be a number, got 'x'"),
    *[row(f"train-epochs0-{mode}", "train", {"epochs": 0, "selection": mode}, "epochs",
          "epochs must be >= 1, got 0") for mode in ("last", "greedy", "minmax")],
    row("sweep-epochs0", "sweep", {"sweep.epochs": "2,0"}, "epochs", "epochs must be >= 1, got 0"),
    row("sweep-checkpoint-neg", "sweep", {"sweep.checkpoint_every": "2,-3"}, "checkpoint_every",
        "checkpoint_every must be >= 0, got -3$"),
    # an earlier check of the key may own the message: DroConfig's, a fraction's or cl.lr's
    *[row(f"{command}-{key}-below", command, {**settings, key: floor - 1}, key,
          rf"{re.escape(key)} must (be >= {floor}|be > 0|be positive|lie in \S+ 1\]), got {floor - 1}$")
      for command, settings, key, floor in BELOW_FLOOR],
    *[row(f"{command}-{method}-lr{lr}", command, {"dataset": "two_domain", "method": method, "lr": lr}, "lr",
          f"lr must be positive, got {lr}$") for method in dro.METHODS for lr in (0.0, -0.1)
      for command in ("train", "sweep")],
    *[row(f"{command}-{name}", command, {**TINY, **bad}, key, f"{message}$")
      for name, bad, key, message in GAME for command in ("train", "sweep")],
    row("train-kappa-nan", "train", {"kappa": "nan"}, "kappa", "kappa must be >= 0, got nan"),
    row("train-adv_lr-nan", "train", {"adv_lr": "nan"}, "adv_lr", "adv_lr must be >= 0, got nan"),
    row("continual-lr-neg", "continual", {"cl.lr": -1}, "cl.lr", "cl.lr must be > 0, got -1"),
    row("continual-er-lr0", "continual", {"cl.method": "er", "cl.lr": 0}, "cl.lr", "cl.lr must be > 0, got 0"),
    row("continual-lr-nan", "continual", {"cl.lr": "nan"}, "cl.lr", "cl.lr must be > 0, got nan"),
    row("train-sweep-key", "train", {"sweep.lr": "0.01,1.0"}, "sweep.lr",
        r"sweep\.lr: only the sweep command reads sweep\.\* keys"),
    row("gen-data-sweep-key", "gen-data", {"sweep.epochs": "1,2"}, "sweep.epochs",
        r"sweep\.epochs: only the sweep command reads sweep\.\* keys"),
    row("gen-data-noise2", "gen-data", {"data.p_noise": 2}, "data.p_noise",
        r"data.p_noise must lie in \[0, 1\], got 2"),
    row("gen-data-noise-nan", "gen-data", {"data.p_noise": "nan"}, "data.p_noise",
        r"data.p_noise must lie in \[0, 1\], got nan"),
    row("train-ratio0", "train", {"data.minority_ratio": 0}, "data.minority_ratio",
        r"data.minority_ratio must lie in \(0, 1\], got 0"),
    row("gen-data-bias1.5", "gen-data", {"dataset": "distractor", "data.bias": 1.5}, "data.bias",
        r"data.bias must lie in \[0, 1\], got 1.5"),
    row("continual-gamma2", "continual", {**SMALL_CL, "cl.gamma": 2}, "cl.gamma",
        r"cl.gamma must lie in \(0, 1\], got 2"),
    row("continual-gamma-nan", "continual", {**SMALL_CL, "cl.gamma": "nan"}, "cl.gamma",
        r"cl.gamma must lie in \(0, 1\], got nan"),
    row("train-csv-5rows", "train", {"dataset": "tiny5.csv"}, "tiny5.csv",
        "tiny5.csv: the 80/10/10 split gives 4/0/1 train/valid/test rows; every split needs one"),
    row("train-csv-1row", "train", {"dataset": "tiny1.csv"}, "tiny1.csv",
        "tiny1.csv: the 80/10/10 split gives 0/0/1 train/valid/test rows; every split needs one"),
    *[row(f"{command}-vocab4", command, {"dataset": "distractor", "data.vocab_size": 4}, "data.vocab_size",
          "data.vocab_size must be >= 8 for generated text, got 4") for command in ("gen-data", "train", "attack")],
    # values outside a key's legal choices
    row("train-norm_mode-typo", "train", {"method": "rpdro", "norm_mode": "batchlevel"}, "norm_mode",
        "unknown norm_mode: 'batchlevel'"),
    row("train-selection-typo", "train", {"selection": "minmx"}, "selection", "unknown selection: 'minmx'"),
    row("train-arch-typo", "train", {"model.arch": "MLP"}, "model.arch", "unknown model.arch: 'MLP'"),
    row("train-sel-loss-typo", "train", {"selection": "last", "selection.loss": "nl"}, "selection.loss",
        "unknown selection.loss: 'nl'"),
    row("train-method-typo", "train", {"method": "sgd"}, "method", "unknown method: 'sgd'"),
    row("continual-method-typo", "continual", {"cl.method": "conatural+replay"}, "cl.method",
        r"unknown cl.method: 'conatural\+replay'"),
    row("attack-constraint-kn", "attack", {"attack.constraint": "kn"}, "attack.constraint",
        "unknown attack.constraint: 'kn'"),
    row("attack-charswap-oov", "attack", {"attack.constraint": "charswap-oov"}, "attack.constraint",
        "unknown attack.constraint: 'charswap-oov'"),
    # a --model file that cannot be read or parsed
    row("attack-model-missing", "attack --model absent.bin", SMALL_TEXT, "absent.bin",
        r"\[Errno 2\] No such file or directory: 'absent.bin'$"),
    row("attack-model-corrupt", "attack --model corrupt.bin", SMALL_TEXT, "corrupt.bin",
        "corrupt.bin: file ends inside its header$"),
    # a model that loads but holds non-finite values, or overflows on the attacked rows
    *[row(f"attack-model-{name[:-4]}", f"attack --model {name}", {**SMALL_TEXT, "attack.n": 20}, slot,
          f"the model holds non-finite values in {re.escape(slot)}$")
      for name, (slot, _, _) in BROKEN_MODELS.items() if slot is not None],
    row("attack-model-huge", "attack --model huge.bin", {**SMALL_TEXT, "attack.n": 20}, "logits",
        "the model's logits on the first 20 test rows are not finite$"),
])
def test_a_command_that_fails_before_writing_leaves_no_directory(
        tmp_path, capsys, monkeypatch, command, bad, key, message):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(dro, "simultaneous_step", no_step)
    monkeypatch.setattr(cl, "grad_params", no_step)
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    for name in BROKEN_MODELS:
        save_broken_model(name, tmp_path / name)
    (tmp_path / "cfg").write_text("".join(f"{k} = {value}\n" for k, value in bad.items()))
    assert cli.main([*command.split(), "--config", "cfg", "--out", "out"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("shiftlab: error: ")
    assert key in err[0] and re.match(message, err[0][len("shiftlab: error: "):])
    assert not (tmp_path / "out").exists()


# the values drawn for each number DEFAULTS holds, by the type of its default
FUZZ_VALUES = {
    key: [0, 1, 2, 3, default, 2 * default, 7, 64] if isinstance(default, int)
    else [0, 1e-12, 0.5, 1, 2, default, 10 * default, 1e6, math.inf]
    for key, default in harness.DEFAULTS.items()
    if isinstance(default, (int, float)) and not isinstance(default, bool)
}
TRAIN_KEYS = [key for key in FUZZ_VALUES if not key.startswith(("cl.", "attack."))]
# each command on small sizes: the enumerated key it branches on with its values,
# and the numeric keys it reads
FUZZ_COMMANDS = {
    "gen-data": ({"data.total_points": 200, "data.n": 100, "data.test_n": 50}, "dataset",
                 ("two_domain", "distractor"), [key for key in FUZZ_VALUES if key.startswith("data.")]),
    "train": ({"data.total_points": 200, "data.test_n": 50, "epochs": 1}, "method", dro.METHODS,
              TRAIN_KEYS),
    "continual": ({**SMALL_CL, "cl.epochs": 1}, "cl.method", cl.METHODS,
                  [key for key in FUZZ_VALUES if key.startswith("cl.")]),
    "attack": ({**SMALL_TEXT, "attack.n": 20}, "attack.constraint", advmetrics.CONSTRAINTS,
               [key for key in FUZZ_VALUES if not key.startswith("cl.")]),
    "sweep": ({"data.total_points": 200, "data.test_n": 50, "epochs": 1, "sweep.lr": "0.1,0.05"},
              "method", dro.METHODS, TRAIN_KEYS),
}


@st.composite
def fuzz_runs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    settings_, key, choices, numeric = FUZZ_COMMANDS[command]
    keys = draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=3, unique=True))
    numbers = {k: draw(st.sampled_from(FUZZ_VALUES[k])) for k in keys}
    return command, {**settings_, key: draw(st.sampled_from(choices)), **numbers}


def assert_finite_numbers(value, where):
    """Every number in a parsed JSON value is finite; None and text pass."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            assert_finite_numbers(item, where)
    elif isinstance(value, float):
        assert math.isfinite(value), where


def assert_finite_cell(cell, where):
    """Every number in a CSV cell is finite: a sweep point's JSON params, or each
    space-separated item (a token row holds several ids); blank and text pass."""
    if cell.startswith("{"):
        return assert_finite_numbers(json.loads(cell), where)
    for item in cell.split():
        try:
            number = float(item)
        except ValueError:
            continue
        assert math.isfinite(number), where


@settings(max_examples=200, deadline=None, derandomize=True)  # about 2 s on a 2-core host
@given(run=fuzz_runs())
@example(run=("gen-data", {**FUZZ_COMMANDS["gen-data"][0], "data.sigma": math.inf}))  # wrote inf features
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_any_numeric_setting_exits_0_with_finite_outputs_or_1_with_one_error_line(run):
    command, cfg = run
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k} = {value}\n" for k, value in cfg.items()))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, "--config", path, "--out", os.path.join(work, "out")])
        lines = err.getvalue().splitlines()
        assert (code, len(lines)) in ((0, 0), (1, 1)), lines
        assert code == 0 or lines[0].startswith("shiftlab: error: ")
        for root, _, names in os.walk(work):
            for name in (n for n in names if n.endswith((".csv", ".jsonl"))):
                with open(os.path.join(root, name), encoding="utf-8", newline="") as fh:
                    if name.endswith(".jsonl"):
                        for line in fh:
                            assert_finite_numbers(json.loads(line), name)
                    else:
                        for cell in (cell for row in csv.reader(fh) for cell in row):
                            assert_finite_cell(cell, name)


@pytest.mark.parametrize("layout", ["label", "token"])
def test_a_csv_whose_later_rows_hold_a_label_or_token_the_train_split_lacks_trains(
        tmp_path, layout):
    # the 80/10/10 cut of 100 rows puts rows 80-99 in valid and test: label 2
    # only in rows 85-99, or token 40 only in rows 80-99
    rng = np.random.default_rng(0)
    ids = np.arange(100)
    if layout == "label":
        rows = Packed(np.where(ids >= 85, 2, ids % 2), np.zeros(100, dtype=int),
                      x=rng.standard_normal((100, 2)))
    else:
        tokens = rng.integers(0, 32, size=(100, 4))
        tokens[80:, 0] = 40
        rows = Packed(ids % 2, np.zeros(100, dtype=int), tokens=tokens.ravel(),
                      offsets=np.arange(0, 401, 4))
    save_csv(GroupedDataset(rows), tmp_path / "data.csv")
    (tmp_path / "cfg").write_text(f"dataset = {tmp_path / 'data.csv'}\nepochs = 2\nbatch_size = 16\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(tmp_path / "cfg"), "--out", str(out)]) == 0
    spec = harness.load_model_bin(str(out / "model.bin")).spec
    assert (spec.num_classes, spec.vocab_size) == ((3, 0) if layout == "label" else (2, 41))


def test_label_noise_draws_from_the_class_set_of_every_split(tmp_path):
    # label 2 sits only in rows 85-99: in valid and test, none in train's rows 0-79
    ids = np.arange(100)
    rows = Packed(np.where(ids >= 85, 2, ids % 2), np.zeros(100, dtype=int),
                  x=np.random.default_rng(0).standard_normal((100, 2)))
    save_csv(GroupedDataset(rows), tmp_path / "data.csv")
    cfg = harness.resolved({"dataset": str(tmp_path / "data.csv"), "data.p_noise": 1.0})
    train, valid, _ = harness.build_datasets(cfg, 0)
    assert np.bincount(train.rows.labels, minlength=3).min() > 0
    assert np.bincount(valid.rows.labels, minlength=3).min() > 0


def test_rpdro_accepts_tau_zero():
    cfg = harness.dro_config(harness.resolved({"method": "rpdro", "tau": 0}))
    assert cfg.tau == 0 and cfg.adv_steps == 1


def test_cli_rejects_pdro_on_token_data_before_training(tmp_path, capsys, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(dro, "simultaneous_step", no_step)
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("dataset = distractor\nmethod = pdro\ndata.n = 100\ndata.test_n = 50\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("shiftlab: error: method=pdro needs dense inputs")
    assert not (out / "run.jsonl").exists()


@pytest.mark.parametrize("command, bad", [
    (harness.cmd_train, {"checkpoint_every": -1}),
    (harness.cmd_sweep, {"sweep.checkpoint_every": "2,-3"}),
], ids=["train", "sweep"])
def test_a_negative_checkpoint_every_raises_before_any_output(tmp_path, monkeypatch, command, bad):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(dro, "simultaneous_step", no_step)
    with pytest.raises(harness.ConfigError, match="checkpoint_every must be >= 0, got -"):
        command({**TINY, **bad}, 0, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg", [
    {"dataset": "two_domain", "data.total_points": 150, "batch_size": 32, "method": "pdro"},
    {"dataset": "distractor", "data.n": 150, "batch_size": 64, "method": "nonparam"},
])
def test_train_run_gathers_each_epoch_once_and_steps_on_the_batches_rows(monkeypatch, cfg):
    cfg = {**cfg, "data.test_n": 50, "epochs": 3, "checkpoint_every": 2}
    seed = 4
    datasets = harness.build_datasets(harness.resolved(cfg), seed)
    train = datasets[0]
    expected = [train.rows.take(idx) for epoch in range(cfg["epochs"])
                for idx in batches(train, cfg["batch_size"], seed=seed * 1000 + epoch)]
    gathers, stepped = [], []
    take, step = Packed.take, dro.simultaneous_step

    def counted_take(rows, idx):
        gathers.append(len(idx))
        return take(rows, idx)

    def recorded_step(model, adversary, batch, *rest):
        stepped.append(batch)
        return step(model, adversary, batch, *rest)

    monkeypatch.setattr(Packed, "take", counted_take)
    monkeypatch.setattr(dro, "simultaneous_step", recorded_step)
    harness.train_run(cfg, seed, datasets=datasets)
    assert gathers == [len(train)] * cfg["epochs"]
    assert len(stepped) == len(expected) and len(expected[-1]) < cfg["batch_size"]
    for got, want in zip(stepped, expected):
        for name in ("labels", "groups", "x", "tokens", "offsets"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or np.array_equal(a, b)


CRITERION_02_PDRO = ("dataset = two_domain\ndata.sigma = 0.8\nmodel.arch = linear\nlr = 0.1\n"
                     "batch_size = 32\nepochs = 10\nk_window = 5\nkappa = 2.302585092994046\n"
                     "method = pdro\ntau = 0.1\nadv_lr = 0.5\nadv_sigma_scale = 0.4\n")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_a_diverging_adversary_aborts_the_run_and_fails_only_its_sweep_point(tmp_path, capsys):
    # unprojected, the seed-3 adversary's mean runs off and its ratio weights turn NaN
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(CRITERION_02_PDRO)
    out = tmp_path / "run"
    argv = ["--config", str(cfg_path), "--seed", "3"]
    assert cli.main(["train", *argv, "--set", "project=false", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("shiftlab: error: non-finite example weights at step ")
    (row,) = [json.loads(line) for line in (out / "run.jsonl").read_text().splitlines()]
    assert row["aborted"] is True and row["seed"] == 3
    assert row["reason"] == err[-1][len("shiftlab: error: "):]

    sweep = tmp_path / "sweep"
    assert cli.main(["sweep", *argv, "--set", "sweep.project=true,false", "--out", str(sweep)]) == 0
    *points, last = [json.loads(line) for line in (sweep / "run.jsonl").read_text().splitlines()]
    assert last == {"failures": [{"point": 1, "error": row["reason"]}]}
    (point,) = points
    assert (point["point"], point["params"], point["selected"]) == (0, {"project": True}, True)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("method, lr, what", [("nonparam", "1e308", "losses"), ("pdro", "3e307", "normalizer")])
def test_non_finite_losses_or_normalizer_abort_the_run_and_fail_only_its_sweep_point(
        tmp_path, capsys, method, lr, what):
    # the first step's parameters are finite but so large that later losses overflow
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text(f"method = {method}\ndata.total_points = 1000\nepochs = 1\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--set", f"lr={lr}", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    (row,) = [json.loads(line) for line in (out / "run.jsonl").read_text().splitlines()]
    assert row["aborted"] is True and row["reason"].startswith(f"non-finite {what} at step ")
    assert err[-1] == "shiftlab: error: " + row["reason"]

    sweep = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg_path), "--set", f"sweep.lr={lr},0.1",
                     "--out", str(sweep)]) == 0
    *points, last = [json.loads(line) for line in (sweep / "run.jsonl").read_text().splitlines()]
    assert last == {"failures": [{"point": 0, "error": row["reason"]}]}
    (point,) = points
    assert (point["point"], point["params"], point["selected"]) == (1, {"lr": 0.1}, True)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [{"cl.method": "ewc", "cl.ewc_lambda": "1e300"},
                                 {"cl.method": "conatural", "cl.grad_noise": "1e308"}],
                         ids=["ewc", "conatural"])
def test_a_diverging_continual_run_exits_1_before_writing(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg").write_text("".join(f"{k} = {value}\n" for k, value in bad.items()))
    assert cli.main(["continual", "--config", "cfg", "--out", "out"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("shiftlab: error: non-finite parameters at task ")
    assert not (tmp_path / "out").exists()


def test_importing_shiftlab_loads_no_scipy_module():
    import shiftlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftlab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, shiftlab; print([k for k in sys.modules if k.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
