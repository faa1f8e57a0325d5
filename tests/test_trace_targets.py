"""The benchmark's trace list names only what the package defines.

perfbench/layers.py lists the functions a traced benchmark run wraps; a name
that no longer resolves fails only that run, so a rename or deletion in src/
is caught here first. Its observers read arguments by position, so each
position is checked against the parameter name the observer expects.
"""
import ast
import functools
import importlib
import importlib.util
import inspect
import os
import textwrap

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)  # layers.py imports its sibling tracer.py
        spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                      os.path.join(BENCH, "layers.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _target(name):
    layer, attribute = name.split(".", 1)
    return functools.reduce(getattr, attribute.split("."), importlib.import_module(f"shiftlab.{layer}"))


def test_every_traced_and_counted_name_resolves_in_its_module(layers):
    names = [*layers.TARGETS, *layers.COUNTED, *layers.OBSERVERS]
    assert names
    missing = []
    for name in names:
        try:
            _target(name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_every_observer_reads_each_argument_at_its_parameter_position(layers):
    # a reordered signature would change the traced counts without an error
    checks = []
    for name, observer in layers.OBSERVERS.items():
        params = list(inspect.signature(_target(name)).parameters)
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(observer)))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
                index, arg_name = (ast.literal_eval(a) for a in node.args[2:4])
                checks.append((name, index, arg_name, params[index] if index < len(params) else None))
    assert len(checks) == 7
    assert [c for c in checks if c[2] != c[3]] == []
