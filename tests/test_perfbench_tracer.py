"""The benchmark tracer's function list still names real functions.

`perfbench/tracer.py` wraps the hilbdiag functions it lists by module and
name; a rename or merge in `src/` that drops one of them would break the
traced benchmark run.  This test only reads `perfbench/`.
"""

import importlib
from pathlib import Path


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for name in tracer.FUNCTIONS:
        module, function = name.split(".")
        obj = getattr(importlib.import_module("hilbdiag." + module), function, None)
        assert callable(obj), name
