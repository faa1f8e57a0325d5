"""The benchmark's workloads: seeded sessions of harness commands.

A session is the list of commands one CLI user would run, executed in
process through the `harness.cmd_*` functions the CLI calls. Each command
gets a config and a seed and nothing else. After a session its outputs are
checked; a command that raises or whose outputs fail a check counts as
failed.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from speed import SpeedSampler
from tracer import Tracer

# Criterion-02 settings of the two-domain toy ablation.
TOY = {
    "dataset": "two_domain", "data.sigma": 0.8, "model.arch": "linear", "lr": 0.1,
    "batch_size": 32, "epochs": 10, "k_window": 5, "kappa": math.log(10.0),
    "selection": "minmax",
}
# Criterion-05 settings of the spurious-token dataset.
DISTRACTOR = {"dataset": "distractor", "lr": 0.05, "epochs": 8, "checkpoint_every": 10}
CONTINUAL = {"cl.hidden": 8, "cl.lr": 0.3, "cl.epochs": 5, "cl.alpha": 0.3,
             "cl.fisher_samples": 500}
ATTACK_N = 2000

# why each workload was chosen; BENCHMARK.json repeats these lines
WHY = {
    "toy-gauss": "two-domain Gaussian ERM and P-DRO: dense batch-32 path, Gaussian adversary, "
                 "running normalizer; never touches embed-bag, nonparam or attack",
    "text-shift": "distractor-text nonparam and RP-DRO plus a kNN attack on 2,000 examples: "
                  "embed-bag batch 64, tau bisection, minmax selection, batch-1 chrF",
    "continual-5task": "four continual methods on 5 rotated tasks: MLP at batch 16-32 and 5,000 "
                       "batch-1 Fisher gradients; no dro, selection or attack",
}

# distinct session seeds per run; quality metrics are their mean
SESSION_SEEDS = {"toy-gauss": 3, "text-shift": 4, "continual-5task": 4}


@dataclass(frozen=True)
class Command:
    kind: str                # "train" | "continual" | "attack"
    name: str                # output subdirectory
    config: Dict[str, object]
    seed: int
    model_from: str = ""     # attack: subdirectory whose model.bin is attacked


def session_seeds(workload: str, seed: int) -> List[int]:
    """The distinct program seeds a run cycles through, derived from its seed."""
    state = np.random.SeedSequence([seed, sorted(WHY).index(workload)])
    return [int(s) % 1_000_000 for s in state.generate_state(SESSION_SEEDS[workload])]


def session(workload: str, seed: int) -> List[Command]:
    """The commands of one session of `workload` with program seed `seed`."""
    if workload == "toy-gauss":
        return [
            Command("train", "erm", {**TOY, "method": "erm"}, seed),
            Command("train", "pdro", {**TOY, "method": "pdro", "tau": 0.1, "adv_lr": 0.5,
                                      "adv_sigma_scale": 0.4}, seed),
        ]
    if workload == "text-shift":
        return [
            Command("train", "nonparam", {**DISTRACTOR, "method": "nonparam", "kappa": 0.1}, seed),
            Command("train", "rpdro", {**DISTRACTOR, "method": "rpdro", "tau": 0.5,
                                       "adv_lr": 10.0}, seed),
            Command("attack", "attack", {"dataset": "distractor", "attack.constraint": "knn",
                                         "attack.n": ATTACK_N}, seed, model_from="rpdro"),
        ]
    if workload == "continual-5task":
        return [Command("continual", method.replace("+", "_"),
                        {**CONTINUAL, "cl.method": method}, seed)
                for method in ("finetune", "conatural", "er", "conatural+er")]
    raise ValueError(f"unknown workload: {workload!r}")


def train_steps(harness, command: Command) -> int:
    """Optimizer steps the command's config implies (0 for an attack)."""
    cfg = harness.resolved(command.config)
    if command.kind == "train":
        n = cfg["data.total_points"] if cfg["dataset"] == "two_domain" else cfg["data.n"]
        return cfg["epochs"] * math.ceil(n / cfg["batch_size"])
    if command.kind == "continual":
        per_epoch = math.ceil(cfg["cl.points"] / cfg["cl.batch_size"])
        return cfg["cl.tasks"] * cfg["cl.epochs"] * per_epoch
    return 0


@dataclass
class SessionResult:
    seed: int
    wall_s: float = 0.0      # summed time of the commands
    wall_ref: float = 0.0    # the same in refs (see speed.py); 0 without a sampler
    cpu_s: float = 0.0       # process CPU time of the commands
    train_s: float = 0.0
    train_ref: float = 0.0
    attack_s: float = 0.0
    steps: int = 0
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    failed_commands: set = field(default_factory=set)
    quality: Dict[str, float] = field(default_factory=dict)
    bytes_written: int = 0


def run_session(harness, commands: Sequence[Command], out_dir: str,
                tracer: Optional[Tracer] = None,
                speed: Optional[SpeedSampler] = None) -> SessionResult:
    """Run the commands in order, then check their outputs.

    Only the commands are timed, and traced when `tracer` is given; the
    checks run after the tracer has restored every patched name. With a
    running `speed` sampler, command wall and CPU times leave out its
    samples, and wall times are also given in refs.
    """
    outcomes: Dict[str, object] = {}
    times: Dict[str, tuple] = {}
    errors: Dict[str, str] = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        for cmd in commands:
            out = os.path.join(out_dir, cmd.name)
            mark = speed.mark() if speed else 0
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                if cmd.kind == "train":
                    outcomes[cmd.name] = harness.cmd_train(cmd.config, cmd.seed, out)
                elif cmd.kind == "continual":
                    outcomes[cmd.name] = harness.cmd_continual(cmd.config, cmd.seed, out)
                else:
                    path = os.path.join(out_dir, cmd.model_from, "model.bin")
                    model = harness.load_model_bin(path)
                    outcomes[cmd.name] = harness.cmd_attack(cmd.config, cmd.seed, out, model=model)
            except Exception as err:  # a failing command is counted, the session goes on
                errors[cmd.name] = f"{cmd.name}: {type(err).__name__}: {err}"
            seconds = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            if speed:
                end = speed.mark()
                times[cmd.name] = (*speed.split(mark, end, seconds),
                                   speed.split(mark, end, cpu_s)[0])
            else:
                times[cmd.name] = (seconds, 0.0, cpu_s)

    result = SessionResult(seed=commands[0].seed, attempted=len(commands),
                           errors=list(errors.values()))
    for cmd in commands:
        seconds, in_ref, cpu_s = times[cmd.name]
        result.wall_s += seconds
        result.wall_ref += in_ref
        result.cpu_s += cpu_s
        if cmd.kind == "attack":
            result.attack_s += seconds
        else:
            result.train_s += seconds
            result.train_ref += in_ref
            result.steps += train_steps(harness, cmd)
        if cmd.name in errors:
            continue
        try:
            problems = CHECKS[cmd.kind](harness, cmd, outcomes[cmd.name],
                                        os.path.join(out_dir, cmd.name))
        except (OSError, ValueError, KeyError, IndexError) as err:  # unreadable output
            problems = [f"{type(err).__name__}: {err}"]
        result.errors.extend(f"{cmd.name}: {p}" for p in problems)
        if problems:
            errors[cmd.name] = problems[0]
    result.failed_commands = set(errors)
    result.bytes_written = sum(os.path.getsize(os.path.join(d, f))
                               for d, _, files in os.walk(out_dir) for f in files)
    if not errors:
        result.quality = quality(commands, outcomes)
    return result


# -- output checks -----------------------------------------------------------


def _in_unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _read_jsonl(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _read_csv(path: str) -> List[List[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _check_files(out: str, names: Sequence[str]) -> List[str]:
    return [f"missing {n}" for n in names if not os.path.isfile(os.path.join(out, n))]


def check_train(harness, cmd: Command, result, out: str) -> List[str]:
    problems = _check_files(out, ("run.jsonl", "metrics.csv", "model.bin", "plotdata_training.csv"))
    if problems:
        return problems
    rows = _read_jsonl(os.path.join(out, "run.jsonl"))
    final = rows[-1]
    if not final.get("final") or final["test_robust_acc"] != result.test_metrics.robust_accuracy:
        problems.append("run.jsonl final row does not match the result")
    accs = [final["test_robust_acc"], final["test_average_acc"]]
    accs += [r[k] for r in rows[:-1] for k in ("robust_acc", "average_acc")]
    metrics = _read_csv(os.path.join(out, "metrics.csv"))
    if metrics[0] != ["split", "metric", "value"]:
        problems.append("metrics.csv header")
    accs += [float(v) for _, _, v in metrics[1:] if v != ""]
    if not all(_in_unit(a) for a in accs):
        problems.append("accuracy outside [0, 1]")
    plot = _read_csv(os.path.join(out, "plotdata_training.csv"))
    if len(plot) != len(rows):  # header + one row per checkpoint
        problems.append("plotdata_training.csv rows")
    loaded = harness.load_model_bin(os.path.join(out, "model.bin"))
    if (loaded.spec != result.model.spec or loaded.layout != result.model.layout
            or not np.array_equal(loaded.params, result.model.params)):
        problems.append("model.bin round trip changed the model")
    return problems


def check_continual(harness, cmd: Command, result, out: str) -> List[str]:
    problems = _check_files(out, ("plotdata_accuracy.csv", "metrics.csv"))
    if problems:
        return problems
    tasks = harness.resolved(cmd.config)["cl.tasks"]
    if result.accuracy_matrix.shape != (tasks, tasks):
        problems.append(f"accuracy matrix shape {result.accuracy_matrix.shape}")
    plot = _read_csv(os.path.join(out, "plotdata_accuracy.csv"))
    if len(plot) != tasks + 1 or any(len(row) != tasks + 1 for row in plot):
        problems.append("plotdata_accuracy.csv is not tasks x tasks")
    values = [float(v) for row in plot[1:] for v in row[1:]]
    metrics = dict(_read_csv(os.path.join(out, "metrics.csv"))[1:])
    values.append(float(metrics["average_accuracy"]))
    float(metrics["average_forgetting"])
    if not all(_in_unit(v) for v in values):
        problems.append("accuracy outside [0, 1]")
    return problems


def check_attack(harness, cmd: Command, result, out: str) -> List[str]:
    problems = _check_files(out, ("metrics.csv", "run.jsonl"))
    if problems:
        return problems
    n = harness.resolved(cmd.config)["attack.n"]
    rows = _read_csv(os.path.join(out, "metrics.csv"))[1:]
    if len(rows) != n or len(result) != n:
        problems.append(f"attack wrote {len(rows)} rows, expected {n}")
    if not all(_in_unit(float(r[1])) and _in_unit(float(r[4])) for r in rows):
        problems.append("s_src or d_tgt outside [0, 1]")
    if not _read_jsonl(os.path.join(out, "run.jsonl"))[-1].get("final"):
        problems.append("run.jsonl has no final row")
    return problems


CHECKS = {"train": check_train, "continual": check_continual, "attack": check_attack}


# -- quality -----------------------------------------------------------------


def quality(commands: Sequence[Command], outcomes: Dict[str, object]) -> Dict[str, float]:
    """Result quality of one session; equal for equal seeds."""
    from shiftlab import continual as cl

    trains = [outcomes[c.name] for c in commands if c.kind == "train"]
    conts = [outcomes[c.name] for c in commands if c.kind == "continual"]
    attacks = [outcomes[c.name] for c in commands if c.kind == "attack"]
    q: Dict[str, float] = {}
    if trains:
        q["robust_acc"] = float(np.mean([r.test_metrics.robust_accuracy for r in trains]))
        q["avg_acc"] = float(np.mean([r.test_metrics.average_accuracy for r in trains]))
    if conts:
        q["robust_acc"] = float(np.mean([m.accuracy_matrix[:, -1].min() for m in conts]))
        q["avg_acc"] = float(np.mean([cl.average_accuracy(m) for m in conts]))
        q["forgetting"] = float(np.mean([cl.average_forgetting(m) for m in conts]))
    if attacks:
        q["attack_d_tgt"] = float(np.mean([row["d_tgt"] for rows in attacks for row in rows]))
    return q


def attack_examples(commands: Sequence[Command]) -> int:
    return sum(c.config["attack.n"] for c in commands if c.kind == "attack")
