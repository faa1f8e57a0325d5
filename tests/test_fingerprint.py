import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from shiftlab import harness
from shiftlab.diffcore import ModelSpec, ModelState, init_params

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)

TRACED = "named by perfbench's trace list; goes with ROADMAP items 14/1"
# every function in src that the fingerprint's run never calls, with why it
# stays; a function that stops running must be deleted or listed here, and a
# listed one that starts to run must be struck off
UNREACHED = {
    "advmetrics.attack_example": TRACED,
    "advmetrics.chrf": TRACED,
    "advmetrics.first_order_substitution": TRACED,
    "datasets.batches": TRACED,
    "diffcore.forward_logits": TRACED,
    "diffcore.grad_wrt_embeddings": TRACED,
    "diffcore.nll_loss_batch": TRACED,
    "dro.erm_step": TRACED,
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The fingerprint of one run of the command list, shared by the tests that read it."""
    return fingerprint.fingerprint(tmp_path_factory.mktemp("fingerprint"))


def test_differences_name_every_changed_missing_and_new_entry():
    old = {"commands": {"a": {"exit": 0, "stderr": ""}, "b": {"exit": 1, "stderr": "x"}},
           "files": {"a/m.csv": "11", "a/run.jsonl": "22", "b/gone.csv": "33"}}
    new = {"commands": {"a": {"exit": 0, "stderr": ""}, "b": {"exit": 1, "stderr": "y"}},
           "files": {"a/m.csv": "11", "a/run.jsonl": "2f", "c/new.csv": "44"}}
    assert fingerprint.differences(old, old) == []
    assert fingerprint.differences(old, new) == [
        "differs command: b",
        "differs file: a/run.jsonl",
        "missing file: b/gone.csv",
        "new file: c/new.csv",
    ]


def test_the_command_list_has_unique_outputs_and_covers_every_command():
    runs = fingerprint.commands()
    names = [name for _, name, _, _ in runs]
    assert len(names) == len(set(names))
    assert {command for command, _, _, _ in runs} == {
        "gen-data", "train", "attack", "continual", "sweep"}
    committed = json.loads((TOOL.parent / "fingerprint.json").read_text())
    assert set(committed["commands"]) == {*names, "report"}


def test_report_joins_a_fixed_tuple_of_train_runs():
    trained = {name for command, name, _, _ in fingerprint.commands() if command == "train"}
    assert set(fingerprint.REPORT_RUNS) <= trained


def test_the_commands_reproduce_the_committed_fingerprint(run):
    committed = json.loads((TOOL.parent / "fingerprint.json").read_text())
    kernels = "" if committed.get("cpu") == run["cpu"] else (
        f"made on numpy SIMD kernels {committed.get('cpu')}, run on {run['cpu']}")
    assert fingerprint.differences(committed, run) == [], kernels


def test_every_src_function_runs_in_the_fingerprint_or_is_listed(run):
    assert run["unreached"] == sorted(UNREACHED)


def test_diff_reports_a_one_ulp_parameter_by_size_and_a_checkpoint_choice_as_discrete(tmp_path):
    model = init_params(ModelSpec("linear", input_dim=2), seed=0)
    moved = ModelState(model.spec, model.params.copy())
    moved.params[3] = np.nextafter(moved.params[3], np.inf)
    ulp = moved.params[3] - model.params[3]
    for side, params, chosen in (("old", model, 2), ("new", moved, 4)):
        run = tmp_path / side / "train-x"
        run.mkdir(parents=True)
        harness.save_model_bin(params, str(run / "model.bin"))
        (run / "run.jsonl").write_text(
            json.dumps({"step": 5, "loss": 0.25, "average_acc": 0.75}) + "\n"
            + json.dumps({"final": True, "chosen_checkpoint": chosen, "test_average_acc": 0.5})
            + "\n")
        (run / "metrics.csv").write_text("split,metric,value\ntest,average_accuracy,0.5\n")
        (tmp_path / side / "fingerprint.json").write_text(
            json.dumps({"commands": {"train-x": {"exit": 0, "stderr": ""}}}))
    lines = fingerprint.diff_dirs(tmp_path / "old", tmp_path / "new")
    assert lines == [
        "differs file: train-x/model.bin",
        f"  linear.weight: max abs {ulp:.3g}, max rel {ulp / abs(model.params[3]):.3g}"
        " (1 of 4 values)",
        "differs file: train-x/run.jsonl",
        "  discrete chosen_checkpoint [1]: 2 -> 4",
        "2 of 3 files differ; discrete changes: 1; accuracy moved: no",
    ]
    assert fingerprint.diff_dirs(tmp_path / "old", tmp_path / "old") == []
    # a long-format row names its accuracy in a text cell; a command's exit is discrete
    (tmp_path / "new" / "train-x" / "metrics.csv").write_text(
        "split,metric,value\ntest,average_accuracy,0.625\n")
    (tmp_path / "new" / "fingerprint.json").write_text(
        json.dumps({"commands": {"train-x": {"exit": 1, "stderr": "shiftlab: error: x"}}}))
    lines = fingerprint.diff_dirs(tmp_path / "old", tmp_path / "new")
    assert lines[:3] == ["differs commands:", "  exit code of train-x: 0 -> 1",
                         "  error line of train-x: '' -> 'shiftlab: error: x'"]
    assert "  test/average_accuracy value: max abs 0.125, max rel 0.25 (1 of 1 values)" in lines
    assert lines[-1] == "3 of 3 files differ; discrete changes: 3; accuracy moved: yes"


def diff_one_file(tmp_path, name, old_text, new_text):
    """The --diff lines of two kept runs whose one output `name` reads
    `old_text` and `new_text`."""
    for side, text in (("old", old_text), ("new", new_text)):
        path = tmp_path / side / name
        path.parent.mkdir(parents=True)
        path.write_text(text)
        (tmp_path / side / "fingerprint.json").write_text(json.dumps({"commands": {}}))
    return fingerprint.diff_dirs(tmp_path / "old", tmp_path / "new")


def test_diff_names_the_run_of_a_moved_report_value(tmp_path):
    header = "run,robust_accuracy,average_accuracy\n"
    old = header + "train-a,0.5,0.75\ntrain-b,0.25,0.5\ntrain-c,0.5,0.5\n"
    lines = diff_one_file(tmp_path, "report/report.csv", old, old.replace("train-b,0.25", "train-b,0.375"))
    assert lines == ["differs file: report/report.csv",
                     "  train-b robust_accuracy: max abs 0.125, max rel 0.5 (1 of 1 values)",
                     "1 of 1 files differ; discrete changes: 0; accuracy moved: yes"]


def test_diff_names_the_point_of_a_moved_sweep_value(tmp_path):
    # the numeric point index does not name the row; its params do
    header = "point,params,test_robust_acc,test_average_acc,selected\n"
    old = (header + '1,"{""tau"": 0.5}",0.5,0.75,True\n'
                    '0,"{""tau"": 0.1}",0.25,0.75,False\n')
    new = old.replace("0.25,0.75,False", "0.25,0.625,False")
    lines = diff_one_file(tmp_path, "sweep-x/metrics.csv", old, new)
    assert lines[1] == '  {"tau": 0.1} test_average_acc: max abs 0.125, max rel 0.167 (1 of 1 values)'
    assert len(lines) == 3


def test_diff_never_keys_a_dataset_by_its_token_rows(tmp_path):
    # every token row is distinct, but holds only numbers: the columns stay whole
    old = "id,tokens,label,group\n0,3 17 4,1,2\n1,5 5,0,1\n2,9,1,0\n"
    new = old.replace("1,5 5,0,1", "1,5 6,1,1")
    lines = diff_one_file(tmp_path, "gen-x/train.csv", old, new)
    assert lines == ["differs file: gen-x/train.csv",
                     "  label: max abs 1, max rel inf (1 of 3 values)",
                     "  discrete tokens [1]: '5 5' -> '5 6'",
                     "1 of 1 files differ; discrete changes: 1; accuracy moved: no"]
