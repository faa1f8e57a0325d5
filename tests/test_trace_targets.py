"""The benchmark's trace list names only what the package defines.

perfbench/layers.py lists the functions a traced benchmark run wraps; a name
that no longer resolves fails only that run, so a rename or deletion in src/
is caught here first.
"""
import functools
import importlib
import importlib.util
import os

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


def test_every_traced_and_counted_name_resolves_in_its_module(layers):
    names = [*layers.TARGETS, *layers.COUNTED, *layers.OBSERVERS]
    assert names
    missing = []
    for name in names:
        layer, attribute = name.split(".", 1)
        try:
            functools.reduce(getattr, attribute.split("."), importlib.import_module(f"shiftlab.{layer}"))
        except AttributeError:
            missing.append(name)
    assert missing == []
