"""What the traced run wraps, and the per-layer metrics it reports.

The layers are the `shiftlab` modules. Every name below is wrapped in each
module namespace that bound it, so calls from other modules are caught too.
Observers count silent fallbacks and work sizes from arguments and return
values, without touching the program.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from tracer import Tracer

LAYERS = ("diffcore", "datasets", "dro", "selection", "continual", "advmetrics", "harness")

FUNCTIONS: Dict[str, Sequence[str]] = {
    # the two private helpers are also called by dro's ratio-adversary scorer
    "diffcore": ("grad_params", "nll_loss_batch", "zero_one_loss_batch", "forward_logits",
                 "forward_logits_batch", "_forward_batch", "_backward_from_dlogits",
                 "fisher_diag", "grad_wrt_embeddings"),
    "datasets": ("gen_two_domain_gaussian", "gen_distractor_text", "batches", "group_metrics"),
    "dro": ("erm_step", "nonparam_weights", "simultaneous_step", "pdro_model_weights",
            "pdro_adv_step", "normalizer_update", "gaussian_kl_project",
            "RatioAdversary.f_values", "RatioAdversary.grad_f", "RunningNormalizer.log_value"),
    "selection": ("minmax_select", "make_record", "robust_valid_loss"),
    "continual": ("continual_train", "conatural_delta", "reservoir_add",
                  "rolling_fisher_update", "rotated_gaussian_tasks"),
    "advmetrics": ("attack_example", "first_order_substitution", "knn_candidates", "chrf"),
    "harness": ("cmd_train", "cmd_continual", "cmd_attack", "train_run", "build_datasets",
                "save_model_bin", "load_model_bin"),
}

TARGETS = tuple(f"{layer}.{fn}" for layer in LAYERS for fn in FUNCTIONS[layer])

# called about 200 times per nonparam_weights call: counted, not timed
COUNTED = ("dro._tilted_kl",)

# (name, unit, better) of every count the traced run reports besides the
# per-layer and per-function times
COUNTS = (
    ("diffcore.rows", "count", "lower"),
    ("diffcore.batch1_frac", "frac", "lower"),
    ("dro.nonparam_weights.kl_evals_per_call", "count", "lower"),
    ("dro.nonparam_weights.clamped_frac", "frac", "lower"),
    ("dro.pdro_model_weights.clipped_frac", "frac", "lower"),
    ("continual.fisher_rows", "count", "lower"),
    ("selection.checkpoints_scored", "count", "lower"),
    ("selection.records_surviving_frac", "frac", "higher"),
    ("harness.bytes_written", "B", "lower"),
    ("traced_run_s", "s", "lower"),
    ("unaccounted_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_rows(tracer: Tracer, rows: int) -> None:
    tracer.counts["diffcore.rows"] += rows
    tracer.counts["diffcore.row_calls"] += 1
    tracer.counts["diffcore.batch1_calls"] += rows == 1


def _batch_rows(tracer: Tracer, args, kwargs, result) -> None:
    _count_rows(tracer, len(_arg(args, kwargs, 1, "batch")))


def _single_row(tracer: Tracer, args, kwargs, result) -> None:
    _count_rows(tracer, 1)


def _nonparam(tracer: Tracer, args, kwargs, result) -> None:
    from shiftlab import dro
    _, tau = result
    tracer.counts["dro.nonparam_weights.clamped"] += tau in (dro.TAU_SEARCH_LO, dro.TAU_SEARCH_HI)


def _pdro_weights(tracer: Tracer, args, kwargs, result) -> None:
    from shiftlab import dro
    tracer.counts["dro.pdro_model_weights.clipped"] += int((result == dro.WEIGHT_CLIP).sum())
    tracer.counts["dro.pdro_model_weights.weights"] += len(result)


def _fisher(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["continual.fisher_rows"] += _arg(args, kwargs, 2, "sample_count")


def _minmax(tracer: Tracer, args, kwargs, result) -> None:
    from shiftlab import selection
    records = _arg(args, kwargs, 1, "records")
    threshold = _arg(args, kwargs, 3, "kl_threshold", selection.KL_THRESHOLD_DEFAULT)
    tracer.counts["selection.checkpoints_scored"] += len(_arg(args, kwargs, 0, "checkpoints"))
    tracer.counts["selection.records"] += len(records)
    tracer.counts["selection.records_surviving"] += sum(r.kl_estimate <= threshold for r in records)


OBSERVERS = {
    "diffcore.grad_params": _batch_rows,
    "diffcore.nll_loss_batch": _batch_rows,
    "diffcore.zero_one_loss_batch": _batch_rows,
    "diffcore.forward_logits": _single_row,
    "diffcore.grad_wrt_embeddings": _single_row,
    "dro.nonparam_weights": _nonparam,
    "dro.pdro_model_weights": _pdro_weights,
    "diffcore.fisher_diag": _fisher,
    "selection.minmax_select": _minmax,
}


def new_tracer() -> Tracer:
    return Tracer(TARGETS, COUNTED, OBSERVERS)


def metric_names() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.share", "frac", "lower"))
    for target in TARGETS:
        out.append((f"{target}.calls", "count", "lower"))
        out.append((f"{target}.us_per_call", "us", "lower"))
    out.extend(COUNTS)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(inclusive: Dict[str, float], exclusive: Dict[str, float], top: float,
                  calls: Dict[str, int], counts: Dict[str, float], sessions: int,
                  traced_wall_s: float, bytes_written: float,
                  overhead_frac: float) -> Dict[str, float]:
    """Per-session per-layer metrics summed over `sessions` traced sessions.

    `inclusive`, `exclusive` and `top` are the summed results of
    `tracer.self_times`; `traced_wall_s` is the summed wall time of the
    sessions, and whatever of it no span covers is `unaccounted_s`.
    `overhead_frac` is how much slower the traced sessions ran than
    untraced ones of the same seeds.
    """
    per = 1.0 / sessions
    out: Dict[str, float] = {}
    for layer in LAYERS:
        self_s = sum(v for k, v in exclusive.items() if k.split(".", 1)[0] == layer) * per
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = _ratio(self_s, traced_wall_s * per)
    for target in TARGETS:
        n = calls.get(target, 0)
        out[f"{target}.calls"] = n * per
        out[f"{target}.us_per_call"] = _ratio(inclusive.get(target, 0.0) * 1e6, n)
    out["diffcore.rows"] = counts.get("diffcore.rows", 0.0) * per
    out["diffcore.batch1_frac"] = _ratio(counts.get("diffcore.batch1_calls", 0.0),
                                          counts.get("diffcore.row_calls", 0.0))
    out["dro.nonparam_weights.kl_evals_per_call"] = _ratio(
        calls.get("dro._tilted_kl", 0), calls.get("dro.nonparam_weights", 0))
    out["dro.nonparam_weights.clamped_frac"] = _ratio(
        counts.get("dro.nonparam_weights.clamped", 0.0), calls.get("dro.nonparam_weights", 0))
    out["dro.pdro_model_weights.clipped_frac"] = _ratio(
        counts.get("dro.pdro_model_weights.clipped", 0.0),
        counts.get("dro.pdro_model_weights.weights", 0.0))
    out["continual.fisher_rows"] = counts.get("continual.fisher_rows", 0.0) * per
    out["selection.checkpoints_scored"] = counts.get("selection.checkpoints_scored", 0.0) * per
    out["selection.records_surviving_frac"] = _ratio(
        counts.get("selection.records_surviving", 0.0), counts.get("selection.records", 0.0))
    out["harness.bytes_written"] = bytes_written * per
    out["traced_run_s"] = traced_wall_s * per
    out["unaccounted_s"] = (traced_wall_s - top) * per
    out["trace_overhead_frac"] = overhead_frac
    return out
