"""Experiment orchestration: configs, training runs, sweeps, and file output.

Writes every output file through a temporary file (_write_atomic), except the
dataset CSVs, which datasets.save_csv writes in place. Every run is fully determined by
(config, seed) for one set of numpy SIMD loops and one OpenBLAS core type; other
kernels round differently. Outputs are a JSON-lines run log, a metrics CSV, a
flat binary parameter dump with a JSON header, and plot-data CSVs.
"""
from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import advmetrics, continual as cl, dro, selection
from .datasets import (
    DistractorTextSpec,
    GroupedDataset,
    GroupMetrics,
    TwoDomainSpec,
    batch_starts,
    class_count,
    epoch_order,
    gen_distractor_text,
    gen_two_domain_gaussian,
    group_metrics,
    inject_label_noise,
    load_csv,
    metrics_from_errors,
    save_csv,
)
from .diffcore import (
    ARCHITECTURES,
    LOSS_KINDS,
    DivergenceError,
    ModelSpec,
    ModelState,
    forward_logits_batch,
    init_params,
    logit_losses,
    softmax,
)


class ConfigError(ValueError):
    """Unknown or malformed configuration key/value."""


# the cl.* key of each ContinualConfig field but seed, which a run takes from its own seed
CONTINUAL_KEYS = {f.name: "cl." + f.name for f in fields(cl.ContinualConfig) if f.name != "seed"}

# Every legal config key with its default. Values are parsed with the same
# coercion as --set overrides, so the table doubles as documentation. The
# method settings take their defaults from the dataclasses that read them:
# every DroConfig field under its own name, and CONTINUAL_KEYS.
DEFAULTS: Dict[str, object] = {
    # data
    "dataset": "two_domain",          # two_domain | distractor | path to CSV
    "data.total_points": 10000,
    "data.minority_ratio": 1.0 / 51.0,
    "data.sigma": 0.5,
    "data.n": 2000,
    "data.vocab_size": 32,
    "data.seq_len": 8,
    "data.bias": 0.95,
    "data.p_noise": 0.0,
    "data.test_n": 2000,
    # model
    "model.arch": "auto",             # auto | linear | mlp | embed_bag
    "model.hidden": 8,
    "model.embed_dim": 8,
    # optimization
    "batch_size": 64,
    "epochs": 10,
    "checkpoint_every": 0,
    **asdict(dro.DroConfig()),
    # selection
    "selection": "minmax",            # minmax | greedy | last
    "selection.loss": "auto",         # auto | nll | zero_one
    "selection.kl_threshold": selection.KL_THRESHOLD_DEFAULT,
    # continual
    "cl.method": "finetune",          # finetune | conatural | ewc | conatural+ewc | er | conatural+er
    "cl.tasks": 5,
    "cl.points": 400,
    "cl.sigma": 0.5,
    **{key: getattr(cl.ContinualConfig, name) for name, key in CONTINUAL_KEYS.items()},
    # attack
    "attack.constraint": "none",      # none | knn
    "attack.k": 10,
    "attack.sign_normalize": False,
    "attack.steps": 1,
    "attack.n": 200,
    # sweep: "sweep.<key>" with a comma-separated value list, for any key but
    # dataset, data.*, cl.*, attack.*, selection.loss and selection.kl_threshold
}

# the legal values of each enumerated key, defined by the module that branches on it
CHOICES: Dict[str, Tuple[str, ...]] = {
    "model.arch": ("auto", *ARCHITECTURES),
    "method": dro.METHODS,
    "norm_mode": dro.NORM_MODES,
    "selection": ("minmax", "greedy", "last"),  # train_run
    "selection.loss": ("auto", *LOSS_KINDS),
    "cl.method": cl.METHODS,
    "attack.constraint": advmetrics.CONSTRAINTS,
}

# the float keys that may be inf, with what inf means; every other number is finite
INFINITE: Dict[str, str] = {
    "cl.alpha": "plain gradient steps and no Fisher estimate, so no ewc: its anchor would weigh 0",
    "selection.kl_threshold": "no KL filter: every record is scored",
}

# the type a key's value must have, by the type of its default; a bool is no number here
_KINDS = ((bool, "true or false"), (numbers.Integral, "an integer"),
          (numbers.Real, "a number"), (str, "a string"))

# the keys (or key prefixes) a sweep cannot vary, and why
_ONE_DATASET = "every sweep point trains on the first point's datasets"
_ONE_SELECTION = "the pooled selection scores every point's records under one setting"
UNSWEPT = {
    "dataset": _ONE_DATASET,
    "data.": _ONE_DATASET,
    "cl.": "train_run reads no cl.* key",
    "attack.": "train_run reads no attack.* key",
    "selection.loss": _ONE_SELECTION,
    "selection.kl_threshold": _ONE_SELECTION,
}


def coerce_value(text: str) -> object:
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _check_key(key: str) -> None:
    if key in DEFAULTS:
        return
    target = key[len("sweep."):]
    if not key.startswith("sweep.") or target not in DEFAULTS:
        raise ConfigError(f"unknown config key: {key!r}")
    for prefix, reason in UNSWEPT.items():
        if target.startswith(prefix):
            raise ConfigError(f"cannot sweep {target!r}: {reason}")


def parse_config(path: str) -> Dict[str, object]:
    """Read a flat key=value config file; '#' starts a comment."""
    out: Dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            item = line.split("#", 1)[0].strip()
            if item and "=" not in item:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            if item:
                out = apply_overrides(out, [item])
    return out


def apply_overrides(config: Dict[str, object], overrides: Sequence[str]) -> Dict[str, object]:
    out = dict(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        _check_key(key)
        out[key] = coerce_value(value)
    return out


def resolved(config: Dict[str, object]) -> Dict[str, object]:
    out = dict(DEFAULTS)
    for key, value in config.items():
        _check_key(key)
        if key not in DEFAULTS:
            raise ConfigError(f"{key}: only the sweep command reads sweep.* keys")
        out[key] = value
    for key, default in DEFAULTS.items():
        kind, name = next(k for k in _KINDS if isinstance(default, k[0]))
        if not isinstance(out[key], kind) or isinstance(out[key], bool) != (kind is bool):
            raise ConfigError(f"{key} must be {name}, got {out[key]!r}")
    for key, legal in CHOICES.items():
        if out[key] not in legal:
            raise ConfigError(f"unknown {key}: {out[key]!r} (legal: {' | '.join(legal)})")
    # fractions, checked by key here rather than by the library field they become
    for key, zero_ok in (("data.p_noise", True), ("data.minority_ratio", False),
                         ("data.bias", True), ("cl.gamma", False)):
        if not (0 <= out[key] if zero_ok else 0 < out[key]) or not out[key] <= 1:
            raise ConfigError(f"{key} must lie in {'[' if zero_ok else '('}0, 1], got {out[key]}")
    if not out["cl.lr"] > 0:
        raise ConfigError(f"cl.lr must be > 0, got {out['cl.lr']}")
    dro_config(out)  # the game's own rules, in DroConfig's words
    # every other integer is a count >= 1 (checkpoint_every >= 0: once per
    # epoch) and every other number is >= 0; NaN fails too, and inf but for INFINITE
    for key, default in DEFAULTS.items():
        if isinstance(default, numbers.Real) and not isinstance(default, bool):
            low = int(isinstance(default, numbers.Integral) and key != "checkpoint_every")
            if not out[key] >= low:
                raise ConfigError(f"{key} must be >= {low}, got {out[key]}")
            if out[key] == math.inf and key not in INFINITE:
                raise ConfigError(f"{key} must be finite, got inf")
    if out["cl.alpha"] == math.inf and "ewc" in out["cl.method"]:  # see INFINITE
        raise ConfigError(f"cl.alpha must be finite for cl.method={out['cl.method']}, got inf")
    if out["dataset"] == "distractor" and out["data.vocab_size"] < 8:  # the generator's floor
        raise ConfigError(f"data.vocab_size must be >= 8 for generated text, got {out['data.vocab_size']}")
    return out


# ---------------------------------------------------------------------------
# datasets


def build_datasets(cfg: Dict[str, object], seed: int) -> Tuple[GroupedDataset, GroupedDataset, GroupedDataset]:
    """(train, valid, test) for the configured dataset family. A generated
    family draws split i with seed + i; its test split balances the domains or
    drops the spurious correlation."""
    kind = cfg["dataset"]
    n = cfg["data.total_points" if kind == "two_domain" else "data.n"]
    sizes = (n, max(n // 5, 50), cfg["data.test_n"])  # of a generated family's splits
    if kind == "two_domain":
        train, valid, test = (gen_two_domain_gaussian(TwoDomainSpec(
            size, cfg["data.minority_ratio"] if i < 2 else 0.5, cfg["data.sigma"], seed=seed + i))
            for i, size in enumerate(sizes))
    elif kind == "distractor":
        train, valid, test = (gen_distractor_text(DistractorTextSpec(
            size, cfg["data.vocab_size"], cfg["data.seq_len"], cfg["data.bias"] if i < 2 else 0.5,
            seed=seed + i)) for i, size in enumerate(sizes))
    else:
        full = load_csv(kind)
        n = len(full)
        train = full.subset(range(0, int(n * 0.8)))
        valid = full.subset(range(int(n * 0.8), int(n * 0.9)))
        test = full.subset(range(int(n * 0.9), n))
        if not min(len(train), len(valid), len(test)):
            raise ConfigError(f"{kind}: the 80/10/10 split gives {len(train)}/{len(valid)}/"
                              f"{len(test)} train/valid/test rows; every split needs one")
    p_noise = cfg["data.p_noise"]
    if p_noise > 0:
        num_classes = class_count(train, valid, test)
        train = inject_label_noise(train, p_noise, seed + 3, num_classes)
        valid = inject_label_noise(valid, p_noise, seed + 4, num_classes)
    return train, valid, test


def build_model_spec(cfg: Dict[str, object], *splits: GroupedDataset) -> ModelSpec:
    """The configured model for the splits' rows. The class count and the
    vocabulary cover every split: a CSV's later rows may hold a label or a
    token that its train split lacks."""
    arch, tokens = cfg["model.arch"], splits[0].is_tokens
    if arch == "auto":
        arch = "embed_bag" if tokens else "linear"
    if (arch == "embed_bag") != tokens:
        raise ConfigError(f"model.arch={arch} cannot read this dataset's {'token-id' if tokens else 'dense'} rows")
    num_classes = class_count(*splits)
    if arch == "embed_bag":
        vocab = max(cfg["data.vocab_size"], *(int(split.rows.tokens.max()) + 1 for split in splits))
        return ModelSpec("embed_bag", num_classes=num_classes,
                         vocab_size=vocab, embed_dim=cfg["model.embed_dim"])
    if arch == "mlp":
        return ModelSpec("mlp", input_dim=splits[0].rows.x.shape[1], num_classes=num_classes,
                         hidden_units=cfg["model.hidden"])
    return ModelSpec("linear", input_dim=splits[0].rows.x.shape[1], num_classes=num_classes)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: ModelState
    checkpoints: List[ModelState]
    records: List[selection.AdversaryRecord]
    chosen_index: int
    valid_metrics: GroupMetrics
    test_metrics: GroupMetrics
    valid_losses: List[np.ndarray]  # each checkpoint's validation loss row of selection_loss
    log_rows: List[dict] = field(default_factory=list)


def dro_config(cfg: Dict[str, object]) -> dro.DroConfig:
    return dro.DroConfig(**{f.name: cfg[f.name] for f in fields(dro.DroConfig)})


def continual_config(cfg: Dict[str, object], seed: int) -> cl.ContinualConfig:
    return cl.ContinualConfig(**{name: cfg[key] for name, key in CONTINUAL_KEYS.items()}, seed=seed)


def selection_loss(cfg: Dict[str, object]) -> str:
    """selection.loss, where auto means zero_one for rpdro and nll otherwise."""
    if cfg["selection.loss"] != "auto":
        return cfg["selection.loss"]
    return "zero_one" if cfg["method"] == "rpdro" else "nll"


def train_run(cfg: Dict[str, object], seed: int,
              datasets: Optional[Tuple[GroupedDataset, GroupedDataset, GroupedDataset]] = None,
              ) -> TrainResult:
    """One full training run: optimize, checkpoint every `checkpoint_every`
    steps (once per epoch when that is 0) and at the last step, select, evaluate.

    Raises DivergenceError, `non-finite <what> at step N`, on a non-finite value
    that a step's check meets (losses, normalizer, adversary scores, example weights),
    in the parameters after a step, or in a checkpoint's adversary weights or validation loss."""
    cfg = resolved(cfg)
    dro_cfg = dro_config(cfg)
    train, valid, test = datasets if datasets is not None else build_datasets(cfg, seed)
    spec = build_model_spec(cfg, train, valid, test)
    model = init_params(spec, seed)
    adversary, normalizer = dro.initial_state(dro_cfg, spec, train.rows, train.num_groups, seed)

    loss_kind = selection_loss(cfg)
    checkpoints: List[ModelState] = []  # each step's own state: a step returns new parameters
    own_records: List[Optional[selection.AdversaryRecord]] = []  # one per checkpoint, or None
    valid_losses: List[np.ndarray] = []  # one per checkpoint, of loss_kind
    valid_metrics: List[GroupMetrics] = []  # one per checkpoint
    log_rows: List[dict] = []

    def take_checkpoint(step: int) -> None:
        checkpoints.append(model)
        raw = dro.adversary_valid_weights(dro_cfg.method, adversary, valid.rows)
        if raw is not None and not np.logical_and.reduce(np.isfinite(raw)):
            raise DivergenceError("non-finite adversary weights")
        record = None if raw is None else selection.make_record(raw)
        own_records.append(record)
        # the one validation forward of this checkpoint: selection scores its
        # cached row, and the chosen checkpoint reports its cached metrics
        losses = logit_losses(forward_logits_batch(model, valid.rows), valid.rows.labels)
        vm = metrics_from_errors(losses["zero_one"], valid.rows.groups, valid.num_groups)
        valid_losses.append(losses[loss_kind])
        valid_metrics.append(vm)
        mean_valid_loss = float(losses["nll"].mean())
        if not math.isfinite(mean_valid_loss):
            raise DivergenceError("non-finite validation loss")
        log_rows.append({
            "step": step, "split": "valid", "loss": mean_valid_loss,
            "robust_acc": vm.robust_accuracy, "average_acc": vm.average_accuracy,
            "adversary_kl": None if record is None else record.kl_estimate,
        })

    batch_size = cfg["batch_size"]
    starts = batch_starts(len(train), batch_size)
    every, last = cfg["checkpoint_every"] or len(starts), cfg["epochs"] * len(starts)
    step = 0
    for epoch in range(cfg["epochs"]):
        # one gather per epoch; each batch is a slice of it, the rows batches() yields
        shuffled = train.rows.take(epoch_order(len(train), seed=seed * 1000 + epoch))
        for start in starts:
            step += 1
            try:
                model, adversary, normalizer = dro.simultaneous_step(
                    model, adversary, shuffled.rows(start, start + batch_size), dro_cfg, normalizer
                )
                if not np.logical_and.reduce(np.isfinite(model.params)):
                    raise DivergenceError("non-finite parameters")
                if step % every == 0 or step == last:
                    take_checkpoint(step)
            except DivergenceError as err:
                raise DivergenceError(f"{err} at step {step}") from err

    identity = selection.identity_record(len(valid))
    records = [identity, *(r for r in own_records if r is not None)]
    if cfg["selection"] == "last":
        chosen = len(checkpoints) - 1
    elif cfg["selection"] == "greedy":
        state = selection.SelectionState(records=[identity])
        for i, (ckpt, rec, row) in enumerate(zip(checkpoints, own_records, valid_losses)):
            state = selection.greedy_minmax_update(state, ckpt, i, rec, row,
                                                   cfg["selection.kl_threshold"])
        chosen = state.best_model_id
    else:
        chosen, _ = selection.minmax_select(checkpoints, records, valid_losses,
                                            cfg["selection.kl_threshold"])
    best = checkpoints[chosen]
    return TrainResult(
        model=best, checkpoints=checkpoints, records=records, chosen_index=chosen,
        valid_metrics=valid_metrics[chosen], test_metrics=group_metrics(best, test),
        valid_losses=valid_losses, log_rows=log_rows,
    )


# ---------------------------------------------------------------------------
# persistence


def save_model_bin(model: ModelState, path: str) -> None:
    """Flat little-endian float64 dump preceded by a length-prefixed JSON header."""
    header = {
        **asdict(model.spec),
        "layout": {k: list(v) for k, v in model.layout.items()},
        "dtype": "<f8",
        "param_count": int(model.num_params),
    }
    blob = json.dumps(header).encode("utf-8")
    _write_atomic(path, struct.pack("<I", len(blob)) + blob + model.params.astype("<f8").tobytes())


def load_model_bin(path: str) -> ModelState:
    """The model save_model_bin wrote; raises ValueError naming the path when
    the file ends inside its header, the header is not a JSON object with
    every field save_model_bin writes, its dtype is not '<f8', the body is not
    whole float64 values, or the spec, layout or parameter count is not valid."""
    with open(path, "rb") as fh:
        data = fh.read()
    length = int.from_bytes(data[:4], "little")
    if len(data) < 4 + length:
        raise ValueError(f"{path}: file ends inside its header")
    try:
        header = json.loads(data[4:4 + length].decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested past the parser's depth
        header = None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if header.get("dtype") != "<f8":
        raise ValueError(f"{path}: dtype {header.get('dtype')!r} is not '<f8'")
    spec_keys = [f.name for f in fields(ModelSpec)]
    missing = [key for key in (*spec_keys, "layout", "param_count") if key not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}")
    body = data[4 + length:]
    if len(body) % 8:
        raise ValueError(f"{path}: body of {len(body)} bytes is not whole float64 values")
    try:
        spec = ModelSpec(**{key: header[key] for key in spec_keys})
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None
    model = ModelState(spec, np.frombuffer(body, dtype="<f8").copy())
    if model.num_params != header["param_count"] or model.num_params != spec.param_count:
        raise ValueError(f"{path}: parameter count mismatch")
    if header["layout"] != {k: list(v) for k, v in model.layout.items()}:
        raise ValueError(f"{path}: header layout does not match its spec")
    return model


def _write_atomic(path: str, data: Union[str, bytes]) -> None:
    """Write str (as UTF-8) or bytes to path + '.tmp', then move it over path."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    os.replace(tmp, path)


def _write_jsonl(rows: Sequence[dict], path: str) -> None:
    _write_atomic(path, "".join(json.dumps(row) + "\n" for row in rows))


def _write_csv(header: Sequence[str], rows: Sequence[Sequence[object]], path: str) -> None:
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    _write_atomic(path, text.getvalue())


def _metrics_rows(name: str, metrics: GroupMetrics) -> List[List[object]]:
    rows = [[name, "robust_accuracy", metrics.robust_accuracy],
            [name, "average_accuracy", metrics.average_accuracy]]
    for g, acc in enumerate(metrics.per_group_accuracy):
        rows.append([name, f"group{g}_accuracy", "" if math.isnan(acc) else acc])
    return rows


# ---------------------------------------------------------------------------
# commands


def _out(out_dir: str, name: str) -> str:
    """out_dir/name, making out_dir at a command's first write, so a command
    that fails before it writes leaves no directory."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_gen_data(cfg: Dict[str, object], seed: int, out_dir: str) -> None:
    cfg = resolved(cfg)
    train, valid, test = build_datasets(cfg, seed)
    for name, ds in (("train", train), ("valid", valid), ("test", test)):
        save_csv(ds, _out(out_dir, f"{name}.csv"))
    manifest = {"seed": seed, "config": {k: cfg[k] for k in sorted(cfg) if k.startswith("data") or k == "dataset"}}
    _write_atomic(_out(out_dir, "manifest.json"), json.dumps(manifest, indent=2, default=str))


def cmd_train(cfg: Dict[str, object], seed: int, out_dir: str) -> TrainResult:
    try:
        result = train_run(cfg, seed)
    except DivergenceError as err:
        _write_jsonl([{"aborted": True, "reason": str(err), "seed": seed}],
                     _out(out_dir, "run.jsonl"))
        raise
    rows = list(result.log_rows)
    rows.append({
        "final": True, "chosen_checkpoint": result.chosen_index,
        "test_robust_acc": result.test_metrics.robust_accuracy,
        "test_average_acc": result.test_metrics.average_accuracy,
    })
    _write_jsonl(rows, _out(out_dir, "run.jsonl"))
    _write_csv(["split", "metric", "value"],
               _metrics_rows("valid", result.valid_metrics)
               + _metrics_rows("test", result.test_metrics),
               _out(out_dir, "metrics.csv"))
    save_model_bin(result.model, _out(out_dir, "model.bin"))
    _write_csv(["step", "valid_loss", "robust_acc", "average_acc"],
               [[r["step"], r["loss"], r["robust_acc"], r["average_acc"]]
                for r in result.log_rows],
               _out(out_dir, "plotdata_training.csv"))
    return result


def cmd_continual(cfg: Dict[str, object], seed: int, out_dir: str) -> cl.ContinualMetrics:
    cfg = resolved(cfg)
    tasks = cl.rotated_gaussian_tasks(cfg["cl.tasks"], cfg["cl.points"],
                                      cfg["cl.sigma"], seed=seed)
    metrics = cl.continual_train(tasks, cfg["cl.method"], continual_config(cfg, seed))
    num_tasks, num_ckpts = metrics.accuracy_matrix.shape
    _write_csv(["task"] + [f"ckpt{c}" for c in range(num_ckpts)],
               [[t] + list(metrics.accuracy_matrix[t]) for t in range(num_tasks)],
               _out(out_dir, "plotdata_accuracy.csv"))
    _write_csv(["metric", "value"],
               [["average_accuracy", cl.average_accuracy(metrics)],
                ["average_forgetting", cl.average_forgetting(metrics)]],
               _out(out_dir, "metrics.csv"))
    return metrics


def cmd_attack(cfg: Dict[str, object], seed: int, out_dir: str,
               model: Optional[ModelState] = None) -> List[dict]:
    """Attack an embedding-bag classifier with first-order substitutions on
    the first attack.n rows of the test split, all rows at once. Without a
    model, train one as train_run does, on the same splits. A given model
    must hold only finite parameters, and any model must give finite logits
    on the attacked rows; otherwise a ValueError is raised before the attack."""
    cfg = resolved(cfg)
    n, steps, k = cfg["attack.n"], cfg["attack.steps"], cfg["attack.k"]
    splits = build_datasets(cfg, seed)
    test = splits[2]
    spec = build_model_spec(cfg, *splits) if model is None else model.spec
    if spec.architecture != "embed_bag" or not test.is_tokens:
        raise ConfigError(f"model.arch must be embed_bag on token-id rows to attack, got {spec.architecture} "
                          f"on {'token-id' if test.is_tokens else 'dense'} rows")
    if model is not None:  # a saved model must read every id and label of the rows it is attacked on
        ids, classes = int(test.rows.tokens.max()) + 1, class_count(test)
        if ids > spec.vocab_size or classes > spec.num_classes:
            raise ConfigError(f"the model reads {spec.vocab_size} token ids and {spec.num_classes} classes, "
                              f"but the test split holds {ids} token ids and {classes} classes")
        bad = [name for name in model.layout if not np.isfinite(model.slot(name)).all()]
        if bad:
            raise ValueError(f"the model holds non-finite values in {', '.join(bad)}")
    if n > len(test):
        raise ConfigError(f"attack.n must be <= the test split's {len(test)} rows, got {n}")
    if cfg["attack.constraint"] == "knn" and not k < spec.vocab_size:
        raise ConfigError(f"attack.k must be < the vocabulary size {spec.vocab_size}, got {k}")
    if model is None:
        model = train_run(cfg, seed, datasets=splits).model
    names = [f"tok{i}" for i in range(model.spec.vocab_size)]
    rows = test.rows.take(np.arange(n))
    with np.errstate(over="ignore", invalid="ignore"):  # finite parameters can still overflow
        base_logits = forward_logits_batch(model, rows)
    if not np.isfinite(base_logits).all():
        raise ValueError(f"the model's logits on the first {n} test rows are not finite")
    adv = advmetrics.attack_rows(model, rows, model.slot("embedding.weight"),
                                 cfg["attack.constraint"], cfg["attack.sign_normalize"], k, steps)
    bounds = list(zip(rows.offsets[:-1].tolist(), rows.offsets[1:].tolist()))
    src_words, adv_words = (np.array(names, dtype=object)[r.tokens].tolist() for r in (rows, adv))
    s_src = advmetrics.chrf_batch([" ".join(src_words[a:b]) for a, b in bounds],
                                  [" ".join(adv_words[a:b]) for a, b in bounds]) / 100.0
    true_label = (np.arange(n), rows.labels)
    s_base = softmax(base_logits)[true_label]
    s_adv = softmax(forward_logits_batch(model, adv))[true_label]
    s_src, s_base, s_adv = s_src.tolist(), s_base.tolist(), s_adv.tolist()
    d = [advmetrics.d_tgt(base, after) for base, after in zip(s_base, s_adv)]
    return _write_attack_report(out_dir, (test.ids[:n].tolist(), s_src, s_base, s_adv, d,
                                          list(map(advmetrics.success, s_src, d))))


def _write_attack_report(out_dir: str, columns: Sequence[List[object]]) -> List[dict]:
    """Write an attack's metrics.csv and run.jsonl, ending in the row of
    means, from its columns: the row ids, then s_src, s_base, s_adv, d_tgt and
    success as finite floats. Returns the rows as dicts. The files hold the
    bytes _write_csv and _write_jsonl would write for those rows."""
    header = ["id", "s_src", "s_base", "s_adv", "d_tgt", "success"]
    # repr is what csv.writer and json.dumps write for an int or a finite
    # float, so each value is formatted once for both files
    texts = list(zip(*(map(repr, column) for column in columns)))
    _write_atomic(_out(out_dir, "metrics.csv"),
                  "".join(",".join(row) + "\r\n" for row in [header, *texts]))
    means = {k: float(np.mean(column)) for k, column in zip(header[1:], columns[1:])}
    line = "{" + ", ".join(f"{json.dumps(k)}: %s" for k in header) + "}\n"
    _write_atomic(_out(out_dir, "run.jsonl"),
                  "".join(line % row for row in texts) + json.dumps({"final": True, **means}) + "\n")
    return [dict(zip(header, values)) for values in zip(*columns)]


def sweep_grid(cfg: Dict[str, object]) -> List[Dict[str, object]]:
    """Expand sweep.<key> comma lists into the cartesian grid of configs."""
    grid = [{k: v for k, v in cfg.items() if not k.startswith("sweep.")}]
    for key, value in cfg.items():
        if key.startswith("sweep."):
            _check_key(key)
            values = [coerce_value(v) for v in str(value).split(",")]
            grid = [{**point, key[len("sweep."):]: v} for point in grid for v in values]
    return grid


def cmd_sweep(cfg: Dict[str, object], seed: int, out_dir: str) -> List[dict]:
    """Train every grid point on the first point's datasets, then pick one
    (point, checkpoint) against the pooled adversary records of all points."""
    points = [resolved(point) for point in sweep_grid(cfg)]
    if len({selection_loss(point) for point in points}) > 1:
        raise ConfigError("selection.loss=auto resolves differently across the swept "
                          "methods; the pooled selection needs one loss, so set it")
    shared = build_datasets(points[0], seed)
    swept = [k[len("sweep."):] for k in cfg if k.startswith("sweep.")]
    runs, failures = {}, []  # runs: point index -> TrainResult of each point that trained
    for i, point in enumerate(points):
        try:
            runs[i] = train_run(point, seed, datasets=shared)
        except DivergenceError as err:
            failures.append({"point": i, "error": str(err)})
    records = {i: {"point": i, "params": {k: points[i][k] for k in swept},
                   "robust_acc": r.test_metrics.robust_accuracy,
                   "average_acc": r.test_metrics.average_accuracy,
                   "selected": False, "chosen_checkpoint": None} for i, r in runs.items()}
    if runs:
        run, ckpt = selection.hyperparam_select([(r.valid_losses, r.records) for r in runs.values()],
                                                points[0]["selection.kl_threshold"])
        point = list(runs)[run]  # run counts only the points that trained
        chosen = runs[point].checkpoints[ckpt]  # the pooled choice, not its run's own choice
        test = group_metrics(chosen, shared[2])
        records[point].update(
            robust_acc=test.robust_accuracy, average_acc=test.average_accuracy,
            selected=True, chosen_checkpoint=ckpt)
    report = sorted(records.values(), key=lambda r: -r["robust_acc"])
    _write_csv(["point", "params", "test_robust_acc", "test_average_acc", "selected"],
               [[r["point"], json.dumps(r["params"]), r["robust_acc"], r["average_acc"], r["selected"]]
                for r in report], _out(out_dir, "metrics.csv"))
    _write_jsonl(report + [{"failures": failures}], _out(out_dir, "run.jsonl"))
    return report


def cmd_report(run_dirs: Sequence[str], out_dir: str) -> List[dict]:
    """Join the test metrics of several train runs into one ranked table. A
    directory without metrics.csv is skipped; one whose metrics.csv has no
    test row (a sweep or continual run) raises ConfigError."""
    summary = []
    for run in run_dirs:
        path = os.path.join(run, "metrics.csv")
        if not os.path.exists(path):
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            entries = list(csv.reader(fh))
        record = {"run": run}
        for row in entries[1:]:
            if len(row) == 3 and row[0] == "test":
                record[row[1]] = float(row[2]) if row[2] else math.nan
        if len(record) == 1:
            raise ConfigError(f"{path} has no test,<metric>,<value> row: report reads train runs only")
        summary.append(record)
    summary.sort(key=lambda r: -r.get("robust_accuracy", 0.0))
    header = ["run", "robust_accuracy", "average_accuracy"]
    rows = [[r.get(h, "") for h in header] for r in summary]
    _write_csv(header, rows, _out(out_dir, "report.csv"))
    return summary
