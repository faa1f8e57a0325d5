"""Fingerprint every output file of a fixed list of shiftlab CLI commands.

Runs each command in process through `shiftlab.cli.main`, in a scratch
directory, and records the sha256 of every file the commands write plus each
command's exit code and error line. Two trees that should produce the same
bits must produce the same fingerprint on the same numpy SIMD kernels, which
it records under "cpu" and does not compare: numpy's ufunc loops round
differently on each. It also records under "unreached", uncompared, the
`module.qualname` of every function defined in the shiftlab package that the
run never called.

    python tools/fingerprint.py --out fingerprint.json
    python tools/fingerprint.py --against tools/fingerprint.json
    python tools/fingerprint.py --keep old/   (on one tree, then new/ on another)
    python tools/fingerprint.py --diff old/ new/
    python tools/fingerprint.py --kernels kernels/

With `--against FILE` it names every file whose hash differs, is missing or
is new, and every command whose exit code or error line differs, and exits 1
if there is any. With `--keep DIR` the commands run in DIR, a new or empty
directory, which keeps their outputs and the fingerprint as
DIR/fingerprint.json. `--diff OLD_DIR NEW_DIR` runs nothing: it compares two
kept runs by what moved and by how much. Per differing file it gives the max
absolute and relative change of each numeric column (each CSV and JSONL
field, each model.bin parameter slot; a long-format CSV, whose one numeric
column is the value its text cells name, by row; a CSV with a column that
names each row, such as report's `run`, by that name) and every changed
discrete field (a non-numeric value, `chosen_checkpoint`, `selected`, a
command's exit code or error line), then says whether any accuracy moved; it
exits 1 if anything differs. `--kernels DIR` reruns the command list in one
child process per kernel setting (the default kernels, each OPENBLAS_CORETYPE
of KERNELS and numpy without its AVX-512 loops), each variable set only in
that child's environment. Each run is kept as DIR/<setting>/ for `--diff`, and
it prints, per setting, how many files differ from the default run. The
`shiftlab` package is imported from this tree's `src/`.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from numpy._core import _multiarray_umath as umath

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import shiftlab  # noqa: E402
from shiftlab import cli, harness  # noqa: E402

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
# the text of the --config file each run named here reads; every other run
# reads an empty file. README's minimal run.cfg, with a comment line, a
# trailing comment and a blank line, runs parse_config's per-line rules.
CONFIGS = {
    "train-readme-cfg": ("# README's minimal run.cfg\n"
                         "dataset = distractor\n"
                         "method = nonparam  # the tilted-loss adversary\n"
                         "kappa = 0.1\n"
                         "\n"
                         "lr = 0.05\n"
                         "epochs = 8\n"),
}
# the command-line options, besides --config, --seed and --out, of each run named here
OPTIONS = {"attack-from-model": ("--model", "train-distractor-rpdro/model.bin")}
# the kernel settings of --kernels: each the environment its child runs with,
# on top of this one less every variable named here
KERNELS = {
    "default": {},
    **{f"openblas-{core}": {"OPENBLAS_CORETYPE": core}
       for core in ("Haswell", "Zen", "Sandybridge", "Nehalem")},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}


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
        ("train", "train-readme-cfg", (), 0),
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
        # the saved rpdro model on the splits it was trained with, as the benchmark attacks it
        ("attack", "attack-from-model", (*attack, "attack.constraint=knn"), 0),
    ]
    for method in CL_METHODS:
        tag = method.replace("+", "_")
        out.append(("continual", f"continual-{tag}", (f"cl.method={method}",), 0))
        out.append(("continual", f"continual-bench-{tag}", (*CL_BENCH, f"cl.method={method}"), 7))
    out += [
        ("continual", "continual-noise", ("cl.method=conatural+er", "cl.grad_noise=0.1"), 2),
        ("continual", "continual-alpha-inf", ("cl.method=conatural", "cl.alpha=inf"), 2),
        # damping whose solve underflows: the raw delta is rescaled
        ("continual", "continual-alpha-1e200", ("cl.method=conatural", "cl.alpha=1e200"), 2),
        ("sweep", "sweep-pdro", (*pdro, "sweep.tau=0.1,0.5", "sweep.adv_lr=0.05,0.5"), 0),
        ("sweep", "sweep-rpdro", (*TWO_DOMAIN, "method=rpdro", "sweep.tau=0,0.5"), 0),
    ]
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _qualnames(node: ast.AST, prefix: str = "") -> List[str]:
    """The __qualname__ of every def under a module's syntax tree."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            out += [prefix + child.name, *_qualnames(child, f"{prefix}{child.name}.<locals>.")]
        elif isinstance(child, ast.ClassDef):
            out += _qualnames(child, f"{prefix}{child.name}.")
        else:
            out += _qualnames(child, prefix)
    return out


def _unreached(codes) -> List[str]:
    """`module.qualname` of every def in the shiftlab package whose code
    object is not among `codes`, sorted."""
    ran = {(os.path.realpath(code.co_filename), code.co_qualname) for code in codes}
    package = Path(os.path.realpath(harness.__file__)).parent
    return sorted(f"{path.stem}.{name}" for path in package.glob("*.py")
                  for name in _qualnames(ast.parse(path.read_text()))
                  if (str(path), name) not in ran)


def clear_caches() -> List[str]:
    """Clear the cache of every functools.lru_cache function defined at the top
    level of a shiftlab module, so that each one's body runs again; their
    `module.qualname`s."""
    cleared = []
    for info in pkgutil.iter_modules(shiftlab.__path__):
        module = importlib.import_module(f"shiftlab.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and value.__module__ == module.__name__:
                value.cache_clear()
                cleared.append(f"{info.name}.{value.__qualname__}")
    return sorted(cleared)


def fingerprint(work: Path) -> Dict[str, dict]:
    """Run every command under `work` and return its fingerprint."""
    configs = {name: work / f"{name}.cfg" for name in ("empty", *CONFIGS)}
    for name, path in configs.items():
        path.write_text(CONFIGS.get(name, ""))
    runs = {}
    reached = set()

    def record(frame, event, arg):  # a call event; returning None traces no line
        reached.add(frame.f_code)

    clear_caches()  # a warm cache would keep its function's body from running
    previous = sys.gettrace()
    sys.settrace(record)
    cwd = os.getcwd()
    os.chdir(work)  # relative paths keep the scratch location out of the outputs
    try:
        for command, name, overrides, seed in commands():
            config = configs[name if name in CONFIGS else "empty"]
            argv = [command, *OPTIONS.get(name, ()), "--config", config.name, "--seed", str(seed),
                    "--out", name]
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
        sys.settrace(previous)
    files = {path.relative_to(work).as_posix(): _sha256(path)
             for path in sorted(work.rglob("*")) if path.is_file() and path not in configs.values()}
    cpu = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return {"commands": runs, "cpu": cpu, "files": files, "unreached": _unreached(reached)}


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


# numeric-looking fields that name a choice: any change to one is discrete
DISCRETE = ("chosen_checkpoint", "selected")


def _flat(obj, prefix: str = "") -> dict:
    """A JSON value's leaves by dotted path: {"a": {"b": [1]}} gives {"a.b.0": 1}."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = {}
    for key, value in items:
        if isinstance(value, (dict, list)):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _names_rows(cells: List[str]) -> bool:
    """Whether a CSV column names each row: its cells are distinct and each
    holds a word that is not a number (a token row such as `3 17 4` does not)."""
    return len(set(cells)) == len(cells) and all(
        any(_number(word) is None for word in cell.split()) for cell in cells)


def _columns(path: Path) -> Optional[Dict[str, list]]:
    """An output file as {column: values}: each CSV or JSONL field over its
    rows (a JSON file is one row), or each model.bin parameter slot over its
    values plus the spec; None for any other file. A long-format CSV, whose
    one all-numeric column holds the value its row's other cells name, keys
    each value by them: `test/average_accuracy value`. Any other CSV with a
    column that names each row keys each value by the first such column:
    `train-x robust_accuracy` (report's `run`, a sweep point's `params`)."""
    if path.name == "model.bin":
        model = harness.load_model_bin(str(path))
        return {"spec": [repr(model.spec)],
                **{name: model.slot(name).ravel().tolist() for name in model.layout}}
    if path.suffix == ".csv":
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        numeric = [key for key in (rows[0] if rows else ())
                   if all(_number(row[key]) is not None for row in rows)]
        if len(numeric) == 1 and len(rows[0]) > 1:
            value, columns = numeric[0], {}
            for row in rows:
                label = "/".join(text for key, text in row.items() if key != value)
                columns.setdefault(f"{label} {value}", []).append(row[value])
            return columns
        name = next((key for key in (rows[0] if rows else ())
                     if _names_rows([row[key] for row in rows])), None)
        if name is not None:
            return {f"{row[name]} {key}": [text] for row in rows for key, text in row.items()
                    if key != name}
    elif path.suffix in (".jsonl", ".json"):
        text = path.read_text()
        rows = [_flat(json.loads(line))
                for line in (text.splitlines() if path.suffix == ".jsonl" else [text])]
    else:
        return None
    columns: Dict[str, list] = {}
    for i, row in enumerate(rows):
        for key, value in row.items():
            columns.setdefault(key, [None] * len(rows))[i] = value
    return columns


def _number(value) -> Optional[float]:
    """A float for a number or a numeric CSV cell; None otherwise."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _file_changes(name: str, old: Dict[str, list], new: Dict[str, list]):
    """(numeric change lines, discrete change lines, whether an accuracy moved)
    of one parsed file against its old version."""
    numeric, discrete, acc_moved = [], [], False
    for column in sorted(old.keys() | new.keys()):
        a, b = old.get(column), new.get(column)
        if a is None or b is None or len(a) != len(b):
            discrete.append(f"{column}: {len(a or ())} -> {len(b or ())} values")
            continue
        worst_abs = worst_rel = 0.0
        moved = 0
        for i, (x, y) in enumerate(zip(a, b)):
            fx, fy = _number(x), _number(y)
            if x == y or (fx is not None and fy is not None
                          and (fx == fy or math.isnan(fx) and math.isnan(fy))):
                continue
            if column in DISCRETE or fx is None or fy is None or not math.isfinite(fx - fy):
                discrete.append(f"{column} [{i}]: {x!r} -> {y!r}")
                continue
            moved += 1
            worst_abs = max(worst_abs, abs(fx - fy))
            worst_rel = max(worst_rel, abs(fx - fy) / abs(fx) if fx else math.inf)
            acc_moved |= "acc" in name or "acc" in column
        if moved:
            numeric.append(f"{column}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g} "
                           f"({moved} of {len(a)} values)")
    return numeric, discrete, acc_moved


def diff_dirs(old_dir: Path, new_dir: Path) -> List[str]:
    """What moved between two `--keep` directories, and by how much: one
    line per differing file and per change in it, then a summary."""
    def outputs(root: Path) -> Dict[str, Path]:
        # the fingerprint JSON and the config files sit at the top, the outputs below
        return {path.relative_to(root).as_posix(): path
                for path in sorted(root.rglob("*")) if path.is_file() and path.parent != root}

    def commands(root: Path) -> Dict[str, dict]:
        return json.loads((root / "fingerprint.json").read_text())["commands"]

    lines, changed, acc_moved = [], 0, False
    old_cmds, new_cmds = commands(old_dir), commands(new_dir)
    discrete = []
    for name in sorted(old_cmds.keys() | new_cmds.keys()):
        a, b = old_cmds.get(name, {}), new_cmds.get(name, {})
        for field, label in (("exit", "exit code"), ("stderr", "error line")):
            if a.get(field) != b.get(field):
                discrete.append(f"  {label} of {name}: {a.get(field)!r} -> {b.get(field)!r}")
    if discrete:
        lines += ["differs commands:", *discrete]
    old_files, new_files = outputs(old_dir), outputs(new_dir)
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files or name not in old_files:
            lines.append(f"{'missing' if name in old_files else 'new'} file: {name}")
            changed += 1
            continue
        if old_files[name].read_bytes() == new_files[name].read_bytes():
            continue
        changed += 1
        lines.append(f"differs file: {name}")
        a, b = _columns(old_files[name]), _columns(new_files[name])
        if a is None or b is None:
            lines.append("  bytes differ (not a parsed format)")
            continue
        numeric, file_discrete, moved = _file_changes(name, a, b)
        lines += [f"  {line}" for line in numeric]
        lines += [f"  discrete {line}" for line in file_discrete]
        discrete += file_discrete
        acc_moved |= moved
    if not lines:
        return []
    return lines + [f"{changed} of {len(old_files.keys() | new_files.keys())} files differ; "
                    f"discrete changes: {len(discrete)}; "
                    f"accuracy moved: {'yes' if acc_moved else 'no'}"]


def kernels(root: Path) -> List[str]:
    """Run the command list once per KERNELS setting, each in a child process
    kept under root/<setting>/; one line per setting naming its count of files
    that differ from the default run."""
    base = {key: value for key, value in os.environ.items()
            if not any(key in env for env in KERNELS.values())}
    lines = []
    for setting, env in KERNELS.items():
        child = subprocess.run([sys.executable, __file__, "--keep", str(root / setting)],
                               env={**base, **env}, capture_output=True, text=True)
        if child.returncode != 0:
            raise RuntimeError(f"the {setting} run exited {child.returncode}: "
                               f"{child.stderr.strip().splitlines()[-1:]}")
        run = json.loads((root / setting / "fingerprint.json").read_text())
        if setting == "default":
            default = run
            continue
        changed = differences(default, run)
        files = sum(line.startswith("differs file") for line in changed)
        where = " ".join(f"{key}={value}" for key, value in env.items())
        lines.append(f"{setting} ({where}): {files} of {len(default['files'])} files differ "
                     f"from default; {len(changed) - files} other differences")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the fingerprint JSON here")
    parser.add_argument("--against", help="compare with this fingerprint JSON")
    parser.add_argument("--keep", metavar="DIR",
                        help="run in DIR, a new or empty directory, and keep the outputs there")
    parser.add_argument("--diff", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                        help="compare the outputs of two --keep runs; runs no command")
    parser.add_argument("--kernels", metavar="DIR",
                        help="run once per kernel setting, in a child process each, kept under "
                             "DIR/<setting>/ in DIR, a new or empty directory")
    args = parser.parse_args(argv)
    if args.diff:
        lines = diff_dirs(Path(args.diff[0]), Path(args.diff[1]))
        print("\n".join(lines) if lines else "no differences")
        return 1 if lines else 0
    named = args.kernels or args.keep
    if named:
        keep = Path(named).resolve()
        keep.mkdir(parents=True, exist_ok=True)
        if any(keep.iterdir()):
            parser.error(f"{'--kernels' if args.kernels else '--keep'} {named} is not empty")
    if args.kernels:
        print("\n".join(kernels(keep)))
        return 0
    with contextlib.nullcontext(keep) if args.keep else \
            tempfile.TemporaryDirectory(prefix="fingerprint-") as work:
        result = fingerprint(Path(work).resolve())
    if args.keep:
        (keep / "fingerprint.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
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
