"""Fingerprint every output file of a fixed list of shiftlab CLI commands.

Runs each command in process through `shiftlab.cli.main`, in a scratch
directory, and records the sha256 of every file the commands write plus each
command's exit code and error line. Two trees that should produce the same
bits must produce the same fingerprint on the same numpy SIMD kernels, which
it records under "cpu" and does not compare: numpy's ufunc loops round
differently on each.

    python tools/fingerprint.py --out fingerprint.json
    python tools/fingerprint.py --against tools/fingerprint.json

With `--against FILE` it names every file whose hash differs, is missing or
is new, and every command whose exit code or error line differs, and exits 1
if there is any. The `shiftlab` package is imported from this tree's `src/`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from numpy._core import _multiarray_umath as umath

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shiftlab import cli  # noqa: E402

# small sizes keep the whole list to well under a minute
TWO_DOMAIN = ("dataset=two_domain", "data.total_points=4000", "epochs=6")
DISTRACTOR = ("dataset=distractor", "data.n=2000", "data.test_n=1000", "epochs=6")
# the toy-gauss benchmark settings (criterion 02's two-domain ablation)
TOY = ("dataset=two_domain", "data.sigma=0.8", "batch_size=32", "kappa=2.302585092994046")
# the continual-5task benchmark settings
CL_BENCH = ("cl.hidden=8", "cl.lr=0.3", "cl.epochs=5", "cl.alpha=0.3", "cl.fisher_samples=500")
CL_METHODS = ("finetune", "conatural", "ewc", "conatural+ewc", "er", "conatural+er")
CSV_SETS = ("gen-two_domain", "gen-two_domain-noise", "gen-distractor", "gen-distractor-noise")
METHODS = ("erm", "nonparam", "group_dro", "pdro", "rpdro")
# the runs `report` joins, fixed so that adding a train command leaves
# report.csv alone; train-distractor-pdro exits 1 and leaves no directory,
# which report skips
REPORT_RUNS = tuple(f"train-{data}-{method}" for data in ("two_domain", "distractor")
                    for method in METHODS)


def commands() -> List[Tuple[str, str, Tuple[str, ...], int]]:
    """(command, output directory, overrides, seed) of every run, in order."""
    out = [
        ("gen-data", "gen-two_domain", TWO_DOMAIN, 0),
        ("gen-data", "gen-two_domain-noise", (*TWO_DOMAIN, "data.p_noise=0.2"), 0),
        ("gen-data", "gen-distractor", DISTRACTOR, 0),
        ("gen-data", "gen-distractor-noise", (*DISTRACTOR, "data.p_noise=0.2"), 0),
        ("gen-data", "gen-two_domain-seed5", TWO_DOMAIN, 5),
    ]
    for method in METHODS:
        out.append(("train", f"train-two_domain-{method}", (*TWO_DOMAIN, f"method={method}"), 0))
    for method in METHODS:  # pdro exits 1 here
        out.append(("train", f"train-distractor-{method}", (*DISTRACTOR, f"method={method}"), 0))
    # a dense architecture cannot read token rows: exits 1 before any work
    out.append(("train", "train-distractor-linear", (*DISTRACTOR, "model.arch=linear"), 0))
    pdro = (*TWO_DOMAIN, "method=pdro", "data.sigma=0.8", "adv_sigma_scale=0.4", "adv_lr=0.5")
    out += [
        ("train", "train-toy-erm", (*TOY, "method=erm"), 101),
        ("train", "train-toy-pdro", (*TOY, "method=pdro", "adv_lr=0.5", "adv_sigma_scale=0.4"),
         101),
        ("train", "train-pdro-bare", (*pdro, "reverse_kl=false"), 3),
        ("train", "train-pdro-noproject", (*pdro, "project=false"), 3),
        ("train", "train-pdro-advsteps2", (*pdro, "adv_steps=2"), 1),
        ("train", "train-pdro-greedy", (*pdro, "selection=greedy", "checkpoint_every=7"), 2),
        ("train", "train-mlp-pdro-noise", (*pdro, "model.arch=mlp", "data.p_noise=0.2"), 0),
        ("train", "train-mlp-group_dro", (*TWO_DOMAIN, "model.arch=mlp", "method=group_dro"), 0),
        ("train", "train-rpdro-selfnorm", (*DISTRACTOR, "method=rpdro", "norm_mode=self_norm",
                                           "adv_steps=3"), 0),
        ("train", "train-rpdro-last", (*TWO_DOMAIN, "method=rpdro", "selection=last"), 4),
        ("train", "train-rpdro-greedy", (*TWO_DOMAIN, "method=rpdro", "selection=greedy"), 0),
    ]
    for data in CSV_SETS:
        for method in ("erm", "nonparam", "rpdro"):
            overrides = (f"dataset={data}/train.csv", "epochs=3", f"method={method}")
            out.append(("train", f"csv-{data}-{method}", overrides, 0))
    attack = (*DISTRACTOR, "attack.n=150", "attack.steps=2")
    out += [
        ("attack", "attack-none", (*attack, "attack.constraint=none"), 0),
        ("attack", "attack-knn", (*attack, "attack.constraint=knn"), 0),
        ("attack", "attack-knn-sign", (*attack, "attack.constraint=knn",
                                       "attack.sign_normalize=true"), 1),
        # attack reads its dataset as given: the default dense data exits 1,
        # and a token CSV trains its own model and is attacked on its own rows
        ("attack", "attack-two_domain", (), 0),
        ("attack", "attack-csv-distractor", ("dataset=gen-distractor/train.csv", "epochs=3",
                                             "attack.n=150", "attack.steps=2",
                                             "attack.constraint=knn"), 0),
    ]
    for method in CL_METHODS:
        tag = method.replace("+", "_")
        out.append(("continual", f"continual-{tag}", (f"cl.method={method}",), 0))
        out.append(("continual", f"continual-bench-{tag}", (*CL_BENCH, f"cl.method={method}"), 7))
    out += [
        ("continual", "continual-noise", ("cl.method=conatural+er", "cl.grad_noise=0.1"), 2),
        ("continual", "continual-alpha-inf", ("cl.method=conatural", "cl.alpha=inf"), 2),
        ("sweep", "sweep-pdro", (*pdro, "sweep.tau=0.1,0.5", "sweep.adv_lr=0.05,0.5"), 0),
        ("sweep", "sweep-rpdro", (*TWO_DOMAIN, "method=rpdro", "sweep.tau=0,0.5"), 0),
    ]
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(work: Path) -> Dict[str, dict]:
    """Run every command under `work` and return its fingerprint."""
    config = work / "empty.cfg"
    config.write_text("")
    runs = {}
    cwd = os.getcwd()
    os.chdir(work)  # relative paths keep the scratch location out of the outputs
    try:
        for command, name, overrides, seed in commands():
            argv = [command, "--config", config.name, "--seed", str(seed), "--out", name]
            for item in overrides:
                argv += ["--set", item]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            runs[name] = {"exit": code, "stderr": stderr.getvalue().strip()}
        report = ["report", "--runs", *REPORT_RUNS, "--out", "report"]
        runs["report"] = {"exit": cli.main(report), "stderr": ""}
    finally:
        os.chdir(cwd)
    files = {path.relative_to(work).as_posix(): _sha256(path)
             for path in sorted(work.rglob("*")) if path.is_file() and path != config}
    cpu = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return {"commands": runs, "cpu": cpu, "files": files}


def differences(old: Dict[str, dict], new: Dict[str, dict]) -> List[str]:
    """One line per file or command of `new` that does not match `old`."""
    lines = []
    for kind in ("commands", "files"):
        a, b = old.get(kind, {}), new.get(kind, {})
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                lines.append(f"missing {kind[:-1]}: {key}")
            elif key not in a:
                lines.append(f"new {kind[:-1]}: {key}")
            elif a[key] != b[key]:
                lines.append(f"differs {kind[:-1]}: {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the fingerprint JSON here")
    parser.add_argument("--against", help="compare with this fingerprint JSON")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as work:
        result = fingerprint(Path(work).resolve())
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result['commands'])} commands, {len(result['files'])} files")
    if args.against:
        lines = differences(json.loads(Path(args.against).read_text()), result)
        print("\n".join(lines) if lines else "no differences")
        return 1 if lines else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
