"""Byte-for-byte goldens of the README CLI examples.

Each case runs `hilbdiag` in a fresh directory holding the README's input
files and compares stdout (and any file the command writes) with
`tests/golden/<name>.out` (and `<name>.<file>`).  The goldens were taken
from the code before the duplicate determinant, tree traversal and
monomial-bridge paths were merged; they are never regenerated, so any
change in output is a failure here.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from hilbdiag.cli import main

GOLDEN = Path(__file__).parent / "golden"

# the README's input files
INPUTS = {
    "mats.json": '[[["z^2",0],[0,"1"]],[["1",0],[0,"z"]]]\n',
    "mats2.json": "[[[1,0],[0,1]],[[1,2],[3,4]],[[0,1],[-1,3]]]\n",
}

# name -> (argv, files the command writes)
CASES = {
    "borel_shelling_json": ("borel --d 3 --n 3 --shelling --json", ()),
    "borel_shelling": ("borel --d 3 --n 3 --shelling", ()),
    "trees_ideals": ("trees --n 3 --ideals", ()),
    "trees_graph_dot": ("trees --n 3 --graph dot", ()),
    "h33_table1": ("h33 --table1", ()),
    "h33_table1_csv": ("h33 --table1 --csv table.csv", ("table.csv",)),
    "h33_reps": ("h33 --reps --bound 4", ()),
    "tangent_chain": ("tangent --basis chain --d 3 --n 3", ()),
    "deligne_sat": ("deligne --matrices mats.json --route sat", ()),
    "deligne_weight": ("deligne --matrices mats.json --route weight", ()),
    "gin": ("gin --d 3 --n 3 --trials 5 --seed 7", ()),
    "collineations": ("collineations --sample 20 --seed 1", ()),
    "lafforgue": ("lafforgue --matrices mats2.json", ()),
}


def run_case(name, workdir):
    """(exit code, {golden file name: output bytes}) of one case."""
    argv, written = CASES[name]
    workdir = Path(workdir)
    for fname, text in INPUTS.items():
        (workdir / fname).write_text(text)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
    finally:
        os.chdir(cwd)
    outputs = {name + ".out": out.getvalue().encode()}
    for fname in written:
        outputs[name + "." + fname] = (workdir / fname).read_bytes()
    return code, outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    code, outputs = run_case(name, tmp_path)
    assert code == 0
    for fname, data in outputs.items():
        assert data == (GOLDEN / fname).read_bytes(), fname
