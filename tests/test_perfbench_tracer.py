"""The benchmark tracer's function list still names real functions, and
the benchmark's census, trees, gins and checks outputs stay what they are.

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
# so the traced ops run in a child interpreter: the first seed-1 ops of the
# workload named on the command line, as many as the next argument says.
_TRACED_OPS = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
    from tracer import FUNCTIONS, Tracer
    tracer = Tracer()
    tracer.install()
    import run, workloads
    name = sys.argv[2]
    wl = getattr(workloads, name.capitalize())(1, 0, int(sys.argv[3]))
    ok = wl.setup_ok and all(wl.op(item)[0] for item in wl.items)
    calls = dict(zip(FUNCTIONS, tracer.calls))
    print(json.dumps({
        "ok": ok,
        "uncalled": [f for f in run.WORKLOADS[name].dominant if not calls[f]],
        "calls": calls,
        "counts": tracer.counts}))
""")


def _traced_ops(workload, ops=50):
    out = subprocess.run([sys.executable, "-c", _TRACED_OPS, str(ROOT), workload,
                          str(ops)],
                         capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["ok"]
    # `run.py --trace 1` fails when a dominant function is never called
    assert result["uncalled"] == []
    return result


def test_traced_trees_ops_reach_dominant_layers():
    counts = _traced_ops("trees")["counts"]
    # the syzygy system of the first 50 seed-1 trees, as counted from the
    # Monomial-based builder
    assert (counts["tangent.syzygy_system.unknowns"],
            counts["tangent.syzygy_system.rows"]) == (1464, 2190)


def test_traced_census_ops_reach_dominant_layers():
    result = _traced_ops("census")
    calls, counts = result["calls"], result["counts"]
    # set-up dualizes the 16 class representatives, and each of the 50 ops
    # dualizes twice: complex -> ideal, then ideal -> complex
    assert calls["gridcore.minimal_transversals"] == 116
    assert calls["gridcore.stanley_reisner"] == 50
    assert (counts["gridcore.minimal_transversals.edges_in"],
            counts["gridcore.minimal_transversals.transversals_out"]) == (869, 924)
    assert counts["gridcore.k_polynomial.terms"] == 750


def _groebner_counts(result):
    calls, counts = result["calls"], result["counts"]
    return (calls["groebner.normal_form"], counts["groebner.normal_form.zero"],
            counts["groebner.buchberger.input_gens"],
            counts["groebner.buchberger.basis_size"])


def test_traced_gins_ops_reach_dominant_layers():
    # one pass of six seed-1 trials: the reductions and basis sizes of the
    # Buchberger core, which a refactor of it must keep; the Gebauer-Moeller
    # criteria cut the reductions from 541 (441 to zero) to 216 (116)
    assert _groebner_counts(_traced_ops("gins", 6)) == (216, 116, 54, 60)


def test_traced_checks_ops_reach_dominant_layers():
    # one round of the 48 seed-1 sub-check ops: elimination, saturation
    # and the lex special fibres; the Gebauer-Moeller criteria cut the
    # reductions from 2369 (1815 to zero) to 1391 (837)
    assert _groebner_counts(_traced_ops("checks", 48)) == (1391, 837, 367, 422)


# The digest `worker.py` takes of a pass: its set-up output, then each op's,
# for the first ops of the workload named on the command line, as many as
# the next argument says, under the seed that the last argument gives.
_DIGEST = textwrap.dedent("""
    import hashlib, sys
    sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
    import workloads
    from worker import _canon
    wl = getattr(workloads, sys.argv[2].capitalize())(
        int(sys.argv[4]), 0, int(sys.argv[3]))
    digest = hashlib.sha256(_canon(wl.setup_output))
    for item in wl.items:
        ok, output = wl.op(item)
        assert ok
        digest.update(_canon(output))
    print(wl.setup_ok, digest.hexdigest())
""")


def _digest(workload, ops, seed=1):
    out = subprocess.run([sys.executable, "-c", _DIGEST, str(ROOT), workload,
                          str(ops), str(seed)],
                         capture_output=True, text=True, check=True, timeout=300)
    return out.stdout.split()


def test_census_outputs_are_pinned():
    # the set-up output lists the Table 1 rows with their class
    # representatives' ideals, in row order; the ops are the first 50
    # seed-1 census ideals
    assert _digest("census", 50) == [
        "True", "676eb27501f430fc0d4ade7a26022f048c501d5cb1e61cd1231e5a99ac5294e6"]


def test_trees_outputs_are_pinned():
    # each op prints its tree's key, so this pins the keys, the order of
    # `enumerate_trees` and the tangent dimensions of the first 50 trees
    assert _digest("trees", 50) == [
        "True", "e2e553b9903e0d9900b43332062bf55ffb755aff46e70fb11d5e8ec4f331a9b6"]


def test_gins_outputs_are_pinned():
    # each op prints its trial's initial ideal; seed 14 holds the
    # triangular trial 14000005, which missed Z with entries in [-9, 9]
    assert _digest("gins", 6) == [
        "True", "d2331b1e678b46b9c50e77af293d3d1d1d49f3b0c9ead546d9d29fdd905b8f48"]
    assert _digest("gins", 6, seed=14) == [
        "True", "82e78f2d4ae2bb740762b5b90ffff1e05a089d4082dd3e6e3d96f8000032131e"]


def test_checks_outputs_are_pinned():
    # one round of the 48 seed-1 sub-check ops, the collineation
    # (Plucker), deligne d = 2 and tree-cubic ops among them
    assert _digest("checks", 48) == [
        "True", "3dd0db5ad8a1bfdc515ffc8149490519641d9fb54f9cf5526dc847671095ff68"]
