"""Tests of the benchmark itself: tracer arithmetic, patch hygiene, seeding, names, units.

Run from the repository root with `python -m pytest perfbench/tests`.
"""
import json
import os
import re
import statistics
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, still_patched  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_on_a_nested_call_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [12, 13] is a second root
    spans = [
        ("x.a", 0.0, 10.0, -1),
        ("y.b", 1.0, 4.0, 0),
        ("y.c", 5.0, 9.0, 0),
        ("x.d", 6.0, 8.0, 2),
        ("y.b", 12.0, 13.0, -1),
    ]
    inclusive, exclusive, top = self_times(spans)
    assert inclusive == {"x.a": 10.0, "y.b": 4.0, "y.c": 4.0, "x.d": 2.0}
    assert exclusive == {"x.a": 3.0, "y.b": 4.0, "y.c": 2.0, "x.d": 2.0}
    assert top == 11.0
    assert sum(exclusive.values()) == top


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module package whose functions call each other by bound names."""
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    exec(
        "def leaf(n):\n"
        "    return n + 1\n"
        "def pairs(n):\n"
        "    for i in range(n):\n"
        "        yield leaf(i)\n"
        "class Box:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    @property\n"
        "    def doubled(self):\n"
        "        return 2 * self.v\n",
        low.__dict__)
    high.leaf, high.pairs, high.Box = low.leaf, low.pairs, low.Box
    exec("def top(n):\n    return sum(pairs(n)) + leaf(0) + Box(n).doubled", high.__dict__)
    for mod in (pkg, low, high):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    pkg.low, pkg.high = low, high
    return pkg


def test_tracer_nests_spans_counts_calls_and_restores(fake_package):
    low, high = fake_package.low, fake_package.high
    originals = (low.leaf, low.pairs, low.Box.__dict__["doubled"], high.top)
    tracer = Tracer(["high.top", "low.pairs", "low.Box.doubled"], counted=["low.leaf"],
                    package="fakepkg")
    with tracer:
        assert high.top(3) == (1 + 2 + 3) + 1 + 6
    assert (low.leaf, low.pairs, low.Box.__dict__["doubled"], high.top) == originals
    assert high.leaf is low.leaf and high.pairs is low.pairs
    assert still_patched("fakepkg") == []
    assert tracer.calls == {"high.top": 1, "low.pairs": 1, "low.Box.doubled": 1, "low.leaf": 4}
    names = [s[0] for s in tracer.spans]
    # one span per generator resumption, three items plus the final stop
    assert names.count("low.pairs") == 4 and names.count("high.top") == 1
    top_index = names.index("high.top")
    assert all(s[3] == top_index for s in tracer.spans if s[0] != "high.top")
    inclusive, exclusive, top = self_times(tracer.spans)
    assert top == pytest.approx(inclusive["high.top"])
    assert sum(exclusive.values()) == pytest.approx(top)


def test_tracer_restores_after_an_exception(fake_package):
    low = fake_package.low
    original = low.leaf
    with pytest.raises(TypeError):
        with Tracer(["low.leaf"], package="fakepkg"):
            low.leaf("not a number")
    assert low.leaf is original
    assert still_patched("fakepkg") == []


def test_no_shiftlab_name_is_left_patched_after_a_traced_session(tmp_path):
    from shiftlab import dro, harness
    tracer = layers.new_tracer()
    before = {t: _lookup(t) for t in layers.TARGETS + layers.COUNTED}
    commands = [workloads.Command("train", "tiny", {"dataset": "distractor", "method": "nonparam",
                                                    "data.n": 64, "data.test_n": 64, "epochs": 1},
                                  seed=3)]
    result = workloads.run_session(harness, commands, str(tmp_path), tracer)
    assert result.errors == [] and result.quality
    assert still_patched() == []
    assert {t: _lookup(t) for t in before} == before
    assert tracer.calls["dro.nonparam_weights"] == 1
    assert tracer.calls["dro._tilted_kl"] == 202
    assert tracer.calls["harness.cmd_train"] == 1
    assert dro.nonparam_weights.__module__ == "shiftlab.dro"


def _lookup(target):
    import importlib
    parts = target.split(".")
    obj = importlib.import_module(f"shiftlab.{parts[0]}")
    for part in parts[1:-1]:
        obj = getattr(obj, part)
    return obj.__dict__[parts[-1]] if isinstance(obj, type) else getattr(obj, parts[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_sessions_are_the_same_for_the_same_seed(workload):
    assert workloads.session_seeds(workload, 5) == workloads.session_seeds(workload, 5)
    assert workloads.session_seeds(workload, 5) != workloads.session_seeds(workload, 6)
    seeds = workloads.session_seeds(workload, 5)
    assert len(set(seeds)) == len(seeds)
    assert workloads.session(workload, seeds[0]) == workloads.session(workload, seeds[0])


def test_step_counts_follow_the_configs():
    from shiftlab import harness

    def steps(workload):
        return sum(workloads.train_steps(harness, c) for c in workloads.session(workload, 0))
    assert steps("toy-gauss") == 2 * 3130
    assert steps("text-shift") == 2 * 256
    assert steps("continual-5task") == 4 * 625


def test_metric_names_and_the_benchmark_file_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == layers.metric_names()
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [n for n, _, _ in e2e + per_layer]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert any(m == ("setup_s", "s", "lower") for m in e2e)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10).startswith("no percentile")
    values = list(np.arange(20.0))
    assert run.tail(values) == "p50 9.0000 s over 20 sessions"


def test_kref_grows_with_work_added_to_grad_params(tmp_path, monkeypatch):
    """Extra work inside the program shows as more kref, if not all of it.

    Sessions of `continual-5task` run in rounds of three: unchanged; with a
    fixed pure-python loop added to every `grad_params` call; and with every
    call also appending 40 objects to a graph held for the whole session.
    The reference loop shares the process with that work, so a slower
    program can slow the loop too and part of the slowdown cancels in kref.
    The test bounds that part: kref must grow by at least the share of the
    session that the added loop took (timed inside the same session), and
    by at least half the share by which the median wall time grew.
    """
    from shiftlab import diffcore, harness
    from speed import SpeedSampler

    original = diffcore.grad_params
    added_s = [0.0]
    held: list = []

    def with_loop(*args, **kwargs):
        start = time.perf_counter()
        x = 0
        for i in range(1000):
            x += i
        added_s[0] += time.perf_counter() - start
        return original(*args, **kwargs)

    def with_objects(*args, **kwargs):
        held.extend([i, (i, str(i))] for i in range(40))
        return original(*args, **kwargs)

    modules = [m for key, m in list(sys.modules.items())
               if key.startswith("shiftlab") and getattr(m, "grad_params", None) is original]
    commands = workloads.session("continual-5task", 11)
    runs = {"unchanged": [], "loop": [], "objects": []}
    for _ in range(5):
        for variant, fn in zip(runs, (original, with_loop, with_objects)):
            added_s[0] = 0.0
            held.clear()
            for module in modules:
                monkeypatch.setattr(module, "grad_params", fn)
            with SpeedSampler() as speed:
                result = workloads.run_session(harness, commands, str(tmp_path / variant), speed=speed)
            assert result.errors == []
            runs[variant].append((result.wall_s, result.wall_ref, added_s[0]))
    held.clear()

    def growth(variant, column):
        def median(v):
            return statistics.median(r[column] for r in runs[v])
        return median(variant) / median("unchanged") - 1.0

    loop_share = statistics.median(added / (wall - added) for wall, _, added in runs["loop"])
    print(f"loop: added share {loop_share:.3f}, wall growth {growth('loop', 0):.3f}, "
          f"kref growth {growth('loop', 1):.3f}; objects: wall growth "
          f"{growth('objects', 0):.3f}, kref growth {growth('objects', 1):.3f}")
    assert loop_share > 0.2
    assert growth("loop", 1) > loop_share
    assert growth("loop", 1) > 0.5 * growth("loop", 0)
    assert growth("objects", 1) > 0.5 * growth("objects", 0)
