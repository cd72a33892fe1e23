"""hilbdiag benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  Each pass of the workload runs in a fresh worker process with
PYTHONHASHSEED pinned, because the census, the symmetry group and the
diagonal K-polynomial are process-level caches.  Passes run one after the
other (a closed loop, one client) until `--seconds` have passed and at
least the workload's minimum number of passes has run.

With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
pass 0 runs in pairs, untraced and traced, and the per-layer metrics are
reported.  The last line of standard output is the result as JSON; the
line before it holds run information (git revision, source digest,
Python version, nproc, output digest, failure share, tail percentile).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import TIMED_SUFFIXES, layer_metrics  # noqa: E402


class Spec(NamedTuple):
    """How one workload is run and what its trace must show."""
    pass_ops: int      # ops in one pass, the run size of one worker process
    min_passes: int    # every run times at least pass_ops * min_passes ops
    tail_ops: int      # run size at which the tail percentile is chosen
    dominant: tuple    # traced functions that must be called on it


def tail_percentile(ops):
    """Highest whole percentile with at least ten of `ops` samples beyond it."""
    return max(50, 100 * (ops - 10) // ops)


WORKLOADS = {
    "census": Spec(1000, 3, 200, (
        "gridcore.k_polynomial", "gridcore.minimal_transversals",
        "h33.complex_to_ideal", "h33.enumerate_h33", "h33.symmetry_classes",
        "h33.table1_report")),
    "trees": Spec(500, 3, 200, (
        "tangent.syzygy_system", "linalg.rank_sparse", "treespace.tree_to_ideal",
        "treespace.enumerate_trees")),
    "gins": Spec(6, 7, 42, (
        "groebner.buchberger", "groebner.normal_form",
        "groebner.weight_initial_route")),
    "checks": Spec(48, 5, 240, (
        "groebner.saturate_z", "groebner.special_fiber",
        "groebner.graded_piece_dim", "linalg.rank_dense", "borel.build_z",
        "borel.shelling", "embeddings.plucker_param",
        "embeddings.collineation_matrices", "gridcore.hf_at")),
}

HARD_CAP_S = 120     # start no pass after this, so a run ends within 180 s
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def run_pass(workload, seed, pass_no, ops, trace, spans_out, deadline):
    """Run one pass in a fresh process; return its result with wall times."""
    job = {"root": ROOT, "workload": workload, "seed": seed, "pass": pass_no,
           "ops": ops, "trace": trace, "spans_out": spans_out}
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(job), stdout=subprocess.PIPE,
                              text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("pass %d of %s timed out" % (pass_no, workload))
    t_end = time.monotonic()
    if proc.returncode != 0:
        raise BenchError("pass %d of %s exited with %d"
                         % (pass_no, workload, proc.returncode))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for k, item, output in res["failures"]:
        print("perfbench: %s pass %d op %d failed: %s -> %s"
              % (workload, pass_no, k, item, output), file=sys.stderr)
    res["setup_s"] = res["t_first_op"] - t_spawn
    res["total_s"] = t_end - t_spawn
    return res


def percentile(values, p):
    """Nearest-rank percentile: at least p% of the values are <= it."""
    s = sorted(values)
    k = max(0, -(-p * len(s) // 100) - 1)
    return s[k]


def measure(args, pass_ops, min_passes, tail_ops):
    """Untraced passes 0, 1, 2, ... until the time and pass minimum are met."""
    t0 = time.monotonic()
    deadline = t0 + PASS_TIMEOUT_S
    passes = []
    while len(passes) < min_passes or time.monotonic() - t0 < args.seconds:
        if passes and time.monotonic() - t0 > HARD_CAP_S:
            break
        passes.append(run_pass(args.workload, args.seed, len(passes), pass_ops,
                               False, None, deadline))
    tail = tail_percentile(tail_ops)
    lat = [x for p in passes for x in p["latencies"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and all(p["setup_ok"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "total_s": (statistics.median(p["total_s"] for p in passes), "s"),
        "ops_per_s": (attempted / sum(p["loop_s"] for p in passes), "1/s"),
        "op_ms_p50": (percentile(lat, 50) * 1e3, "ms"),
        "op_ms_tail": (percentile(lat, tail) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
                        "MB"),
    }
    digest = hashlib.sha256("".join(p["digest"] for p in passes[:min_passes])
                            .encode()).hexdigest()
    info = {"passes": len(passes), "ops": attempted,
            "tail_percentile": tail, "digest": digest,
            "pass0_digest": passes[0]["digest"]}
    return attempted, failed, correct, metrics, info


def measure_traced(args, pass_ops, dominant):
    """Pass 0 in (untraced, traced) pairs; layer metrics from the traced."""
    t0 = time.monotonic()
    deadline = t0 + PASS_TIMEOUT_S
    traces_dir = os.path.join(HERE, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    spans_out = os.path.join(traces_dir, "%s-seed%d.json" % (args.workload, args.seed))
    pairs = []
    while not pairs or time.monotonic() - t0 < args.seconds:
        if time.monotonic() - t0 > HARD_CAP_S:
            break
        plain = run_pass(args.workload, args.seed, 0, pass_ops, False, None, deadline)
        traced = run_pass(args.workload, args.seed, 0, pass_ops, True,
                          None if pairs else spans_out, deadline)
        pairs.append((plain, traced))
    problems = []
    layers = [t["layers"] for _, t in pairs]
    exact = [k for k in layers[0] if not k.endswith(TIMED_SUFFIXES)]
    if any(l[k] != layers[0][k] for l in layers for k in exact):
        problems.append("layer counts differ between traced passes")
    if any(p["digest"] != t["digest"] for p, t in pairs):
        problems.append("traced outputs differ from untraced outputs")
    idle = [f for f in dominant if layers[0][f + ".calls"] == 0]
    if idle:
        problems.append("no calls on this workload to " + ", ".join(idle))
    metrics = {}
    for name, unit, _ in layer_metrics():
        if name == "trace.overhead_frac":
            value = statistics.median(t["loop_s"] / p["loop_s"] - 1 for p, t in pairs)
        elif name.endswith(TIMED_SUFFIXES):
            value = statistics.median_low(l[name] for l in layers)
        else:
            value = layers[0][name]
        metrics[name] = (value, unit)
    runs = [r for pair in pairs for r in pair]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not all(r["setup_ok"] for r in runs):
        problems.append("set-up check failed")
    for msg in problems:
        print("perfbench: traced run failed: " + msg, file=sys.stderr)
    info = {"pairs": len(pairs), "ops": attempted,
            "spans": os.path.relpath(spans_out, ROOT),
            "pass0_digest": pairs[0][0]["digest"]}
    return attempted, failed, failed == 0 and not problems, metrics, info


def git_rev():
    """Commit of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the program's source files, names and contents."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hilbdiag")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-ops", type=int,
                    help="ops per pass (default: the workload's run size; "
                         "smaller values are for smoke tests)")
    ap.add_argument("--min-passes", type=int,
                    help="minimum passes (default: the workload's)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hilbdiag", "__init__.py")):
        print("perfbench: no hilbdiag sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    pass_ops = args.pass_ops or spec.pass_ops
    min_passes = args.min_passes or spec.min_passes
    t0 = time.monotonic()
    try:
        if args.trace:
            attempted, failed, correct, metrics, info = measure_traced(
                args, pass_ops, spec.dominant)
        else:
            attempted, failed, correct, metrics, info = measure(
                args, pass_ops, min_passes, spec.tail_ops)
    except BenchError as exc:
        print("perfbench: " + str(exc), file=sys.stderr)
        return 1
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pass_ops": pass_ops, "wall_s": time.monotonic() - t0,
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "git_rev": git_rev(), "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    })
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
