"""The benchmark tracer's function list still names real functions.

`perfbench/tracer.py` wraps the hilbdiag functions it lists by module and
name; a rename or merge in `src/` that drops one of them would break the
traced benchmark run.  These tests only read `perfbench/`.
"""

import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    for name in tracer.FUNCTIONS:
        module, function = name.split(".")
        obj = getattr(importlib.import_module("hilbdiag." + module), function, None)
        assert callable(obj), name


# `Tracer.install` rebinds module attributes for the rest of the process,
# so the traced ops run in a child interpreter.
_TRACED_TREES = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
    from tracer import FUNCTIONS, Tracer
    tracer = Tracer()
    tracer.install()
    import run, workloads
    wl = workloads.Trees(1, 0, 50)
    ok = wl.setup_ok and all(wl.op(item)[0] for item in wl.items)
    calls = dict(zip(FUNCTIONS, tracer.calls))
    print(json.dumps({
        "ok": ok,
        "uncalled": [f for f in run.WORKLOADS["trees"].dominant if not calls[f]],
        "unknowns": tracer.counts["tangent.syzygy_system.unknowns"],
        "rows": tracer.counts["tangent.syzygy_system.rows"]}))
""")


def test_traced_trees_ops_reach_dominant_layers():
    out = subprocess.run([sys.executable, "-c", _TRACED_TREES, str(ROOT)],
                         capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["ok"]
    # `run.py --trace 1` fails when a dominant function is never called
    assert result["uncalled"] == []
    # the syzygy system of the first 50 seed-1 trees, as counted from the
    # Monomial-based builder
    assert (result["unknowns"], result["rows"]) == (1464, 2190)
