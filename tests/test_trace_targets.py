"""Every function the benchmark's tracer wraps still exists in cjde.

`perfbench/spans.py` patches spans around the cjde attributes named in its
TARGETS table, looking each up in the `__dict__` of the module or class that
defines it.  A renamed or moved function would otherwise only fail in a
traced benchmark run.  The file is loaded, never changed.
"""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for modname, attr, _ in targets:
        owner = importlib.import_module(f"cjde.{modname}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(leaf)), f"cjde.{modname}.{attr}"

