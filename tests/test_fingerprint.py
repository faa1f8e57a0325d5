import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


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


def test_the_commands_reproduce_the_committed_fingerprint(tmp_path):
    committed = json.loads((TOOL.parent / "fingerprint.json").read_text())
    result = fingerprint.fingerprint(tmp_path)
    kernels = "" if committed.get("cpu") == result["cpu"] else (
        f"made on numpy SIMD kernels {committed.get('cpu')}, run on {result['cpu']}")
    assert fingerprint.differences(committed, result) == [], kernels
